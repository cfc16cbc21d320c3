//! Happens-before engine: per-rank vector clocks over schedule streams.
//!
//! The deadlock simulation ([`crate::deadlock`]) asks *does this
//! schedule complete?*; this module asks the finer question *what is
//! ordered with what?* — and answers it with vector clocks built from
//! the same two-context model:
//!
//! * each rank has a **main context** (the training/serving code) and a
//!   **worker context** (the comm worker of
//!   `axonn_collectives::nonblocking`, executing async ops strictly in
//!   issue order), giving `2 * ranks` clock components;
//! * an async `Issue` is a handoff edge main → worker (the worker's job
//!   inherits the issuer's clock);
//! * a collective **instance** (keyed `(group_key, seq)`) completes with
//!   the join of every member's arrival clock — a collective is a
//!   synchronisation point for its whole group;
//! * a `Wait` is a handoff edge worker → main: the waiter joins the
//!   *worker's* clock at job completion. Because the worker is FIFO,
//!   waiting a later op also orders the main context after every
//!   earlier async op — the exact guarantee the runtime provides.
//!
//! Each async op owns an **overlap window** `[issue clock, end clock]`:
//! the span during which the collective may still read or write its
//! buffer. The race detector ([`races`]) flags every
//! [`SchedEvent::BufWrite`] annotation that is *concurrent* with a
//! window on the same buffer id — neither ordered after the window's
//! end nor before its issue. The slab-lifetime analysis
//! ([`crate::slab`]) reuses the same windows to prove pooled slabs are
//! recycled only after all readers' clocks pass their last use.
//!
//! Today's transport copies payloads at issue time, so these races
//! cannot corrupt data *yet*; the engine certifies the stronger
//! zero-copy discipline (writes happen-before issues, recycles
//! happen-after ends) so an in-place payload path can land without
//! changing the contract.

use crate::diag::Diagnostic;
use axonn_collectives::sched::lane_label;
use axonn_collectives::{SchedEvent, SchedOp};
use std::collections::{HashMap, VecDeque};

type Key = (u64, u64); // (group_key, seq)

/// A vector clock over `2 * ranks` components: `2r` is rank `r`'s main
/// context, `2r + 1` its comm-worker context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u64>);

impl VClock {
    fn new(dim: usize) -> VClock {
        VClock(vec![0; dim])
    }

    fn tick(&mut self, component: usize) {
        self.0[component] += 1;
    }

    fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Pointwise ≤ — "self happens-before-or-equals other".
    pub(crate) fn leq(&self, other: &VClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

/// One async collective's overlap window on a rank.
#[derive(Debug, Clone)]
pub(crate) struct OpWindow {
    pub(crate) rank: usize,
    /// Event index of the `Issue` in the rank's stream.
    pub(crate) issue_index: usize,
    /// Ordinal of this op among the rank's collective issues (op #).
    pub(crate) op_index: usize,
    /// Rendered op, for diagnostics.
    pub(crate) op: String,
    /// Wire-lane label of the op's kind (`sched::lane_label`).
    pub(crate) lane: &'static str,
    pub(crate) buf: Option<u64>,
    pub(crate) slab: Option<u64>,
    /// Main-context clock at issue: anything ≤ this happens-before the
    /// collective starts.
    pub(crate) issue: VClock,
    /// Worker-context clock at completion: anything the end clock ≤ of
    /// is ordered after the collective finished. `Some` for every
    /// window once [`analyze`] succeeds.
    pub(crate) end: Option<VClock>,
}

/// A recorded main-context buffer mutation.
#[derive(Debug, Clone)]
pub(crate) struct WriteSite {
    pub(crate) rank: usize,
    pub(crate) event_index: usize,
    pub(crate) buf: u64,
    pub(crate) label: &'static str,
    pub(crate) clock: VClock,
}

/// A recorded explicit slab recycle.
#[derive(Debug, Clone)]
pub(crate) struct RecycleSite {
    pub(crate) rank: usize,
    pub(crate) event_index: usize,
    pub(crate) slab: u64,
    pub(crate) clock: VClock,
}

/// The happens-before facts extracted from one world's streams.
pub struct HbAnalysis {
    pub(crate) windows: Vec<OpWindow>,
    pub(crate) writes: Vec<WriteSite>,
    pub(crate) recycles: Vec<RecycleSite>,
}

enum Blocked {
    /// Main context inside a blocking collective.
    Collective(Key),
    /// Main context in `AsyncHandle::wait` for the window at this index.
    Wait(usize),
}

struct WorkerJob {
    key: Key,
    members: Vec<usize>,
    window: usize,
    arrived: bool,
}

struct RankSim<'a> {
    events: &'a [SchedEvent],
    pc: usize,
    main: VClock,
    worker_clock: VClock,
    blocked: Option<Blocked>,
    worker: VecDeque<WorkerJob>,
    /// `(group, seq)` → window index, for pairing waits with issues.
    issued: HashMap<Key, usize>,
    /// Collective issues seen so far (op ordinal counter).
    ops: usize,
}

impl RankSim<'_> {
    fn finished(&self) -> bool {
        self.pc == self.events.len() && self.blocked.is_none() && self.worker.is_empty()
    }
}

struct Instance {
    members: Vec<usize>,
    arrived: Vec<usize>,
    /// Join of all arrival clocks; becomes the completion clock.
    accum: VClock,
    complete: bool,
}

fn arrive(
    instances: &mut HashMap<Key, Instance>,
    key: Key,
    members: &[usize],
    rank: usize,
    clock: &VClock,
    dim: usize,
) {
    let inst = instances.entry(key).or_insert_with(|| Instance {
        members: members.to_vec(),
        arrived: Vec::new(),
        accum: VClock::new(dim),
        complete: false,
    });
    if !inst.arrived.contains(&rank) {
        inst.arrived.push(rank);
    }
    inst.accum.join(clock);
}

fn key_of(op: &SchedOp) -> Key {
    (op.group_key, op.seq)
}

/// Run the vector-clock simulation over all ranks' streams. Returns
/// `None` when the schedule wedges (the deadlock checker owns that
/// diagnosis); on `Some`, every window's end clock is populated.
pub fn analyze(streams: &[Vec<SchedEvent>]) -> Option<HbAnalysis> {
    let dim = 2 * streams.len();
    let mut ranks: Vec<RankSim> = streams
        .iter()
        .map(|events| RankSim {
            events,
            pc: 0,
            main: VClock::new(dim),
            worker_clock: VClock::new(dim),
            blocked: None,
            worker: VecDeque::new(),
            issued: HashMap::new(),
            ops: 0,
        })
        .collect();
    let mut instances: HashMap<Key, Instance> = HashMap::new();
    let mut windows: Vec<OpWindow> = Vec::new();
    let mut writes: Vec<WriteSite> = Vec::new();
    let mut recycles: Vec<RecycleSite> = Vec::new();

    loop {
        let mut progress = false;

        for (rank, state) in ranks.iter_mut().enumerate() {
            let main_c = 2 * rank;
            let worker_c = 2 * rank + 1;

            // Worker context: start the front job (arrival), then pop it
            // once its instance completes, stamping the window's end.
            if let Some(job) = state.worker.front_mut() {
                if !job.arrived {
                    // Handoff edge: the job inherits the issuer's clock.
                    let issue = windows[job.window].issue.clone();
                    state.worker_clock.join(&issue);
                    state.worker_clock.tick(worker_c);
                    arrive(
                        &mut instances,
                        job.key,
                        &job.members,
                        rank,
                        &state.worker_clock,
                        dim,
                    );
                    job.arrived = true;
                    progress = true;
                }
                if instances.get(&job.key).is_some_and(|i| i.complete) {
                    let inst = &instances[&job.key];
                    state.worker_clock.join(&inst.accum);
                    state.worker_clock.tick(worker_c);
                    windows[job.window].end = Some(state.worker_clock.clone());
                    state.worker.pop_front();
                    progress = true;
                }
            }

            // Main context: unblock, then run to the next blocking point.
            match &state.blocked {
                Some(Blocked::Collective(key)) => {
                    if let Some(inst) = instances.get(key).filter(|i| i.complete) {
                        state.main.join(&inst.accum);
                        state.main.tick(main_c);
                        state.blocked = None;
                        progress = true;
                    }
                }
                Some(Blocked::Wait(w)) => {
                    if let Some(end) = windows[*w].end.clone() {
                        state.main.join(&end);
                        state.main.tick(main_c);
                        state.blocked = None;
                        progress = true;
                    }
                }
                None => {}
            }
            if state.blocked.is_some() {
                continue;
            }
            while state.pc < state.events.len() {
                match &state.events[state.pc] {
                    SchedEvent::Marker { .. } => {
                        state.pc += 1;
                        progress = true;
                    }
                    SchedEvent::BufWrite { buf, label } => {
                        state.main.tick(main_c);
                        writes.push(WriteSite {
                            rank,
                            event_index: state.pc,
                            buf: *buf,
                            label,
                            clock: state.main.clone(),
                        });
                        state.pc += 1;
                        progress = true;
                    }
                    SchedEvent::SlabRecycle { slab } => {
                        state.main.tick(main_c);
                        recycles.push(RecycleSite {
                            rank,
                            event_index: state.pc,
                            slab: *slab,
                            clock: state.main.clone(),
                        });
                        state.pc += 1;
                        progress = true;
                    }
                    SchedEvent::Issue(op) if op.blocking => {
                        state.main.tick(main_c);
                        state.ops += 1;
                        let key = key_of(op);
                        arrive(&mut instances, key, &op.ranks, rank, &state.main, dim);
                        state.blocked = Some(Blocked::Collective(key));
                        state.pc += 1;
                        progress = true;
                        break;
                    }
                    SchedEvent::Issue(op) => {
                        state.main.tick(main_c);
                        let op_index = state.ops;
                        state.ops += 1;
                        let key = key_of(op);
                        let window = windows.len();
                        windows.push(OpWindow {
                            rank,
                            issue_index: state.pc,
                            op_index,
                            op: op.to_string(),
                            lane: lane_label(op.kind),
                            buf: op.buf,
                            slab: op.slab,
                            issue: state.main.clone(),
                            end: None,
                        });
                        state.issued.insert(key, window);
                        state.worker.push_back(WorkerJob {
                            key,
                            members: op.ranks.clone(),
                            window,
                            arrived: false,
                        });
                        state.pc += 1;
                        progress = true;
                    }
                    SchedEvent::Wait { group_key, seq } => {
                        match state.issued.get(&(*group_key, *seq)).copied() {
                            // Unpaired waits (possible only in injected /
                            // defective streams; the lints flag them) carry
                            // no ordering information.
                            None => {
                                state.pc += 1;
                                progress = true;
                            }
                            Some(w) => {
                                if let Some(end) = windows[w].end.clone() {
                                    state.main.join(&end);
                                    state.main.tick(main_c);
                                    state.pc += 1;
                                    progress = true;
                                } else {
                                    state.blocked = Some(Blocked::Wait(w));
                                    state.pc += 1;
                                    progress = true;
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }

        // Complete instances whose arrivals cover all members.
        for inst in instances.values_mut() {
            if !inst.complete && inst.members.iter().all(|m| inst.arrived.contains(m)) {
                inst.complete = true;
                progress = true;
            }
        }

        if ranks.iter().all(|r| r.finished()) {
            return Some(HbAnalysis {
                windows,
                writes,
                recycles,
            });
        }
        if !progress {
            return None; // wedged — the deadlock checker owns this case
        }
    }
}

/// The race detector: every recorded buffer write must be ordered with
/// every overlap window on the same buffer id — after the window's end
/// (the op finished) or before its issue (program order). A write
/// concurrent with the window is flagged: the pending collective may
/// still read or write the buffer.
pub fn races(analysis: &HbAnalysis) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for w in &analysis.writes {
        for win in &analysis.windows {
            if win.buf != Some(w.buf) {
                continue;
            }
            let Some(end) = &win.end else { continue };
            let after_end = end.leq(&w.clock);
            let before_issue = w.clock.leq(&win.issue);
            if !after_end && !before_issue {
                diags.push(Diagnostic::OverlapRace {
                    rank: w.rank,
                    write_index: w.event_index,
                    buf: w.buf,
                    label: w.label.to_string(),
                    op: win.op.clone(),
                    op_index: win.op_index,
                    lane: win.lane,
                    issue_index: win.issue_index,
                });
            }
        }
    }
    diags
}
