//! Training workloads: closed-loop `TransformerStack::train_step` on a
//! 2-rank SPMD world.
//!
//! `gpt_dp` is compute-bound data parallelism (many tokens per rank, a
//! small model); `gpt_zshard` streams weights (a wide model, few tokens,
//! every layer all-gathers its weights forward and reduce-scatters its
//! weight gradients backward).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use axonn_collectives::{AsyncHandle, AsyncOp, Comm, ProcessGroup, SchedEvent, SchedKind, SchedOp};
use axonn_core::{
    extract_transformer_schedules, vocab_parallel_cross_entropy, GradSyncPipeline, GridTopology,
    KernelTuner, OverlapConfig, ParamStore, PendingGrad, Precision, TransformerShape,
    TransformerStack, DEFAULT_BUCKET_ELEMS,
};
use axonn_exec::run_spmd;
use axonn_tensor::{take_gemm_phase, GemmPhase};

use crate::report::{Check, Metric, Outcome};
use crate::spans::Spans;
use crate::stats::{median, windowed_percentile, SeedRng};

/// Shape and schedule of one training workload.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub name: &'static str,
    /// `(gx, gy, gz, gd)`.
    pub grid: (usize, usize, usize, usize),
    pub vocab: usize,
    pub hidden: usize,
    pub heads: usize,
    pub layers: usize,
    pub seq_len: usize,
    /// Global sequences per step.
    pub seqs: usize,
    pub lr: f32,
    /// Untimed steps after the model is built (fills the buffer pool).
    pub warmup: usize,
    /// World launches timed for `setup_s`; the last one runs the loop.
    pub setups: usize,
    /// Distinct batches the loop cycles through.
    pub batches: usize,
    /// Step-time limit behind the training `slo_attainment`.
    pub step_slo_ms: f64,
}

impl TrainSpec {
    pub fn world(&self) -> usize {
        let (gx, gy, gz, gd) = self.grid;
        gx * gy * gz * gd
    }

    pub fn global_tokens(&self) -> usize {
        self.seqs * self.seq_len
    }

    fn shape(&self) -> TransformerShape {
        TransformerShape {
            vocab: self.vocab,
            hidden: self.hidden,
            n_heads: self.heads,
            n_layers: self.layers,
            seq_len: self.seq_len,
            seqs: self.seqs,
        }
    }

    /// GEMM flops of one step on one rank: per block `24·m·h²` (QKV,
    /// projection, MLP) plus `4·m·S·h` (attention scores and values),
    /// the head's `2·m·h·V`, and backward at twice forward.
    pub fn flops_per_rank_step(&self) -> f64 {
        let (gx, gy, gz, gd) = self.grid;
        let m = (self.global_tokens() / (gz * gd)) as f64;
        let h = self.hidden as f64;
        let per_block = 24.0 * m * h * h + 4.0 * m * self.seq_len as f64 * h;
        let fwd = self.layers as f64 * per_block + 2.0 * m * h * self.vocab as f64;
        3.0 * fwd / (gx * gy) as f64
    }

    pub fn params(&self) -> String {
        let (gx, gy, gz, gd) = self.grid;
        format!(
            "grid={gx}x{gy}x{gz}x{gd} vocab={} hidden={} heads={} layers={} seq_len={} seqs={} lr={} warmup={} setups={} batches={} step_slo_ms={}",
            self.vocab, self.hidden, self.heads, self.layers, self.seq_len, self.seqs,
            self.lr, self.warmup, self.setups, self.batches, self.step_slo_ms
        )
    }
}

/// Compute-bound data parallelism: grid 1×1×1×2, 256 tokens per rank
/// against ~1.0M parameters.
pub fn gpt_dp() -> TrainSpec {
    TrainSpec {
        name: "gpt_dp",
        grid: (1, 1, 1, 2),
        vocab: 256,
        hidden: 192,
        heads: 4,
        layers: 2,
        seq_len: 64,
        seqs: 8,
        lr: 0.05,
        warmup: 4,
        setups: 5,
        batches: 4,
        step_slo_ms: 150.0,
    }
}

/// Weight streaming: grid 1×1×2×1, 16 tokens per rank against ~5.4M
/// parameters sharded over Z.
pub fn gpt_zshard() -> TrainSpec {
    TrainSpec {
        name: "gpt_zshard",
        grid: (1, 1, 2, 1),
        vocab: 256,
        hidden: 384,
        heads: 6,
        layers: 3,
        seq_len: 16,
        seqs: 2,
        lr: 0.05,
        warmup: 3,
        setups: 5,
        batches: 4,
        step_slo_ms: 120.0,
    }
}

/// Seeded token batches: each sequence follows a random successor table
/// three times in four, so the model has something to learn and the
/// loss falls.
struct Data {
    batches: Vec<(Vec<usize>, Vec<usize>)>,
}

impl Data {
    fn new(spec: &TrainSpec, seed: u64) -> Self {
        let mut rng = SeedRng::new(seed, 0x7a11);
        let next: Vec<usize> = (0..spec.vocab)
            .map(|_| rng.range(0, spec.vocab - 1))
            .collect();
        let batches = (0..spec.batches)
            .map(|_| {
                let mut tokens = Vec::with_capacity(spec.global_tokens());
                let mut targets = Vec::with_capacity(spec.global_tokens());
                for _ in 0..spec.seqs {
                    let mut t = rng.range(0, spec.vocab - 1);
                    for _ in 0..spec.seq_len {
                        let n = if rng.unit() < 0.75 {
                            next[t]
                        } else {
                            rng.range(0, spec.vocab - 1)
                        };
                        tokens.push(t);
                        targets.push(n);
                        t = n;
                    }
                }
                (tokens, targets)
            })
            .collect();
        Data { batches }
    }

    fn batch(&self, step: usize) -> (&[usize], &[usize]) {
        let (t, g) = &self.batches[step % self.batches.len()];
        (t, g)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Build and warm up, then return (a `setup_s` sample).
    Setup,
    /// Build, warm up, then run the measured loop.
    Measure { seconds: f64, trace: bool },
}

struct Job {
    spec: TrainSpec,
    data: Arc<Data>,
    model_seed: u64,
    mode: Mode,
    /// Every rank's collective schedule of one step, for the replay probe.
    schedule: Vec<Vec<SchedEvent>>,
}

/// Timed steps of an untraced run, whatever `--seconds` says.
const MIN_TIMED_STEPS: usize = 100;

/// Stretches of the timed loop whose step-time percentiles are reported
/// by their median.
const WINDOWS: usize = 12;

/// Probe iterations and schedule replays in a traced run.
const PROBES: usize = 10;
const REPLAYS: usize = 10;

#[derive(Default)]
struct RankOut {
    warm_losses: Vec<f32>,
    setup_done: Option<Instant>,
    step_ms: Vec<f64>,
    losses: Vec<f32>,
    loop_s: f64,
    traced_ms: Vec<f64>,
    gemm: Vec<GemmPhase>,
    pool: (u64, u64, u64),
    probe_ms: BTreeMap<&'static str, Vec<f64>>,
    replay_ms: Vec<f64>,
    spans: Option<Spans>,
}

/// Run `body` until rank 0 has spent `seconds` and run at least
/// `min_iters` iterations; every rank agrees on the stop through a
/// one-element max all-reduce before each iteration.
fn timed_loop(
    comm: &Comm,
    world: &ProcessGroup,
    seconds: f64,
    min_iters: usize,
    mut body: impl FnMut(),
) -> f64 {
    let t0 = Instant::now();
    for i in 0.. {
        let stop = comm.rank() == 0 && i >= min_iters && t0.elapsed().as_secs_f64() >= seconds;
        let mut flag = [if stop { 1.0 } else { 0.0 }];
        comm.all_reduce_max(world, &mut flag);
        if flag[0] > 0.0 {
            break;
        }
        body();
    }
    t0.elapsed().as_secs_f64()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn rank_body(job: &Job, comm: Comm) -> RankOut {
    let spec = &job.spec;
    let (gx, gy, gz, gd) = spec.grid;
    let rank = comm.rank();
    let grid = GridTopology::new(gx, gy, gz, gd, rank);
    let world = ProcessGroup::new((0..comm.world_size()).collect());
    let mut stack = TransformerStack::new(
        &grid,
        spec.vocab,
        spec.hidden,
        spec.heads,
        spec.layers,
        spec.seq_len,
        job.model_seed,
        OverlapConfig::all(),
    );
    let mut out = RankOut::default();
    for i in 0..spec.warmup {
        let (tok, tgt) = job.data.batch(i);
        out.warm_losses
            .push(stack.train_step(&comm, &grid, tok, tgt, spec.lr));
    }
    comm.barrier(&world);
    out.setup_done = Some(Instant::now());
    let Mode::Measure { seconds, trace } = job.mode else {
        return out;
    };

    let mut step = spec.warmup;
    // The p90 step time needs at least 100 samples.
    let (untraced_s, min_steps) = if trace {
        (0.35 * seconds, 10)
    } else {
        (seconds, MIN_TIMED_STEPS)
    };
    out.loop_s = timed_loop(&comm, &world, untraced_s, min_steps, || {
        let (tok, tgt) = job.data.batch(step);
        let t0 = Instant::now();
        let loss = stack.train_step(&comm, &grid, tok, tgt, spec.lr);
        out.step_ms.push(ms_since(t0));
        out.losses.push(loss);
        step += 1;
    });
    if !trace {
        return out;
    }

    // Traced steps: a span per step with the GEMM phase as its child.
    let mut spans = Spans::new(Instant::now());
    let _ = take_gemm_phase();
    let pool0 = comm.pool_stats();
    timed_loop(&comm, &world, 0.35 * seconds, 10, || {
        let (tok, tgt) = job.data.batch(step);
        let id = spans.begin("step", None, step as u64);
        let t0 = Instant::now();
        let loss = stack.train_step(&comm, &grid, tok, tgt, spec.lr);
        out.traced_ms.push(ms_since(t0));
        spans.end(id);
        let phase = take_gemm_phase();
        let start = spans.get(id).start;
        spans.record(
            "tensor.gemm",
            start,
            start + phase.total_seconds(),
            Some(id),
            step as u64,
        );
        out.gemm.push(phase);
        out.losses.push(loss);
        step += 1;
    });
    let pool1 = comm.pool_stats();
    let traced_steps = out.traced_ms.len() as u64;
    out.pool = (
        pool1.hits - pool0.hits,
        pool1.misses - pool0.misses,
        (pool1.alloc_bytes - pool0.alloc_bytes) / traced_steps.max(1),
    );

    let mut tuner = KernelTuner::new(false);
    for it in 0..PROBES {
        comm.barrier(&world);
        let (tok, tgt) = job.data.batch(step + it);
        probe_layers(
            &comm,
            &grid,
            &mut stack,
            &mut tuner,
            tok,
            tgt,
            it as u64,
            &mut spans,
            &mut out.probe_ms,
        );
    }
    for it in 0..REPLAYS {
        comm.barrier(&world);
        let id = spans.begin("collectives.replay", None, it as u64);
        let t0 = Instant::now();
        replay(&comm, &job.schedule[rank]);
        out.replay_ms.push(ms_since(t0));
        spans.end(id);
    }
    comm.barrier(&world);
    out.spans = Some(spans);
    out
}

/// Gradient buffers the probe's [`GradSyncPipeline`] updates in place
/// (zero learning rate), keyed by the stack's tensor ids.
struct ScratchParams(BTreeMap<usize, Vec<f32>>);

impl ParamStore for ScratchParams {
    fn read(&self, tensor: usize, range: std::ops::Range<usize>, dst: &mut [f32]) {
        dst.copy_from_slice(&self.0[&tensor][range]);
    }
    fn write(&mut self, tensor: usize, range: std::ops::Range<usize>, src: &[f32]) {
        self.0
            .get_mut(&tensor)
            .expect("pushed tensor")
            .as_mut_slice()[range]
            .copy_from_slice(src);
    }
}

/// One forward/backward/gradient-sync pass through the stack's public
/// layers at the workload's shapes, each call inside its own span, the
/// GEMM time of each call as a child span.
#[allow(clippy::too_many_arguments)]
fn probe_layers(
    comm: &Comm,
    grid: &GridTopology,
    stack: &mut TransformerStack,
    tuner: &mut KernelTuner,
    tokens: &[usize],
    targets: &[usize],
    it: u64,
    spans: &mut Spans,
    probe_ms: &mut BTreeMap<&'static str, Vec<f64>>,
) {
    let overlap = OverlapConfig::all();
    let my_tokens = TransformerStack::local_tokens(grid, tokens);
    let my_targets = TransformerStack::local_tokens(grid, targets);
    let root = spans.begin("probe", None, it);
    let mut per_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut timed = |name: &'static str, spans: &mut Spans, f: &mut dyn FnMut()| {
        let _ = take_gemm_phase();
        let (id, ()) = spans.time(name, Some(root), it, f);
        let gemm = take_gemm_phase().total_seconds();
        let start = spans.get(id).start;
        spans.record("tensor.gemm", start, start + gemm, Some(id), it);
        *per_name.entry(name).or_insert(0.0) += spans.get(id).duration() * 1e3;
    };

    let mut x = None;
    timed("core.embed", spans, &mut || {
        x = Some(stack.emb.forward(&my_tokens));
    });
    let mut x = x.expect("embedding output");
    for b in stack.blocks.iter_mut() {
        timed("core.block_fwd", spans, &mut || {
            x = b.forward(comm, grid, &x);
        });
    }
    let mut d = None;
    let mut pending: Vec<PendingGrad> = Vec::new();
    timed("core.head_loss", spans, &mut || {
        let n = stack.final_ln.forward(comm, grid, &x);
        let logits = stack.head.forward(comm, grid, n, Precision::F32);
        let col_group = grid.col_group(false).clone();
        let ce = vocab_parallel_cross_entropy(
            comm,
            &col_group,
            grid.col_index(false),
            &logits,
            &my_targets,
            tokens.len(),
        );
        let (d_ln, p) = stack.head.backward(
            comm,
            grid,
            &ce.d_logits_local,
            overlap,
            tuner,
            Precision::F32,
        );
        pending.extend(p);
        d = Some(stack.final_ln.backward(comm, grid, &d_ln));
    });
    let mut d = d.expect("head gradient");
    for b in stack.blocks.iter_mut().rev() {
        timed("core.block_bwd", spans, &mut || {
            let (dx, ps) = b.backward(comm, grid, &d, overlap, tuner);
            pending.extend(ps);
            d = dx;
        });
    }
    timed("core.embed", spans, &mut || stack.emb.backward(&d));

    // Gradient sync over the step's gradient tensors, in the order
    // `train_step` feeds them: deferred reduce-scatters and Z-stage
    // norm/embedding reductions, then the bucketed data-parallel
    // reduce-scatter, sharded update and all-gather.
    timed("core.gradsync", spans, &mut || {
        for p in pending.drain(..) {
            let _ = p.wait();
        }
        stack.final_ln.sync_param_grads_z(comm, grid);
        for b in stack.blocks.iter_mut() {
            b.ln1.sync_param_grads_z(comm, grid);
            b.ln2.sync_param_grads_z(comm, grid);
        }
        stack.emb.sync_grads_z(comm, grid);
        let mut grads: Vec<&[f32]> = vec![
            stack.head.grad_shard().as_slice(),
            stack.final_ln.gain_grad.as_slice(),
            stack.final_ln.bias_grad.as_slice(),
        ];
        for b in stack.blocks.iter().rev() {
            grads.extend([
                b.fc2.grad_shard().as_slice(),
                b.fc1.grad_shard().as_slice(),
                b.proj.grad_shard().as_slice(),
                b.qkv.grad_shard().as_slice(),
                b.ln2.gain_grad.as_slice(),
                b.ln2.bias_grad.as_slice(),
                b.ln1.gain_grad.as_slice(),
                b.ln1.bias_grad.as_slice(),
            ]);
        }
        grads.push(stack.emb.grad.as_slice());
        let mut store = ScratchParams(BTreeMap::new());
        let mut pipe = GradSyncPipeline::new(
            comm.clone(),
            grid.data_group().clone(),
            DEFAULT_BUCKET_ELEMS,
        );
        for (id, g) in grads.iter().enumerate() {
            store.0.insert(id, g.to_vec());
            pipe.push(id, g);
        }
        pipe.step(0.0, &mut store);
    });
    spans.end(root);
    for (name, v) in per_name {
        probe_ms.entry(name).or_default().push(v);
    }
}

fn group_of(op: &SchedOp) -> ProcessGroup {
    ProcessGroup::new(op.ranks.clone())
}

/// Re-issue one rank's recorded collective sequence through the live
/// `Comm`: blocking ops as blocking calls, async ops as async issues
/// waited where the recording waited them.
fn replay(comm: &Comm, stream: &[SchedEvent]) {
    let mut inflight: BTreeMap<(u64, u64), AsyncHandle> = BTreeMap::new();
    for ev in stream {
        match ev {
            SchedEvent::Issue(op) if op.blocking => {
                let g = group_of(op);
                let mut buf = vec![1.0f32; op.elems];
                match op.kind {
                    SchedKind::AllGather | SchedKind::AllGatherRd => {
                        let _ = comm.all_gather(&g, &buf);
                    }
                    SchedKind::ReduceScatter | SchedKind::ReduceScatterRh => {
                        let _ = comm.reduce_scatter(&g, &buf);
                    }
                    SchedKind::ReduceScatterLinear => {
                        let _ = comm.reduce_scatter_linear(&g, &buf);
                    }
                    SchedKind::AllReduceLinear => comm.all_reduce_linear(&g, &mut buf),
                    SchedKind::Broadcast | SchedKind::BroadcastTree => {
                        comm.broadcast(&g, op.root.unwrap_or(0), &mut buf)
                    }
                    SchedKind::Barrier => comm.barrier(&g),
                    SchedKind::AllReduce
                    | SchedKind::AllReduceRd
                    | SchedKind::AllReduceRhd
                    | SchedKind::AllReduceTree => match op.reduce {
                        Some(r) => comm.all_reduce_op(&g, &mut buf, r),
                        None => comm.all_reduce(&g, &mut buf),
                    },
                }
            }
            SchedEvent::Issue(op) => {
                let g = group_of(op);
                let payload = comm.pooled_payload(&vec![1.0f32; op.elems]);
                let async_op = match op.kind {
                    SchedKind::AllGather | SchedKind::AllGatherRd => AsyncOp::AllGather(payload),
                    SchedKind::ReduceScatterLinear => AsyncOp::ReduceScatterLinear(payload),
                    SchedKind::ReduceScatter | SchedKind::ReduceScatterRh => {
                        AsyncOp::ReduceScatter(payload)
                    }
                    _ => AsyncOp::AllReduce(payload),
                };
                inflight.insert((op.group_key, op.seq), comm.start_async(&g, async_op));
            }
            SchedEvent::Wait { group_key, seq } => {
                if let Some(h) = inflight.remove(&(*group_key, *seq)) {
                    let _ = h.wait();
                }
            }
            _ => {}
        }
    }
    for (_, h) in inflight {
        let _ = h.wait();
    }
}

/// The base operation a recorded kind belongs to, for per-op counts.
fn base_op(kind: SchedKind) -> &'static str {
    match kind {
        SchedKind::AllGather | SchedKind::AllGatherRd => "all_gather",
        SchedKind::ReduceScatter | SchedKind::ReduceScatterLinear | SchedKind::ReduceScatterRh => {
            "reduce_scatter"
        }
        SchedKind::Broadcast | SchedKind::BroadcastTree => "broadcast",
        SchedKind::Barrier => "barrier",
        _ => "all_reduce",
    }
}

/// Operations reported per step; every multi-rank issue falls in one.
const COLLECTIVE_OPS: [&str; 3] = ["all_gather", "reduce_scatter", "all_reduce"];

fn launch(job: Arc<Job>) -> (Vec<RankOut>, Instant) {
    let t0 = Instant::now();
    let world = job.spec.world();
    let outs = run_spmd(world, move |comm| rank_body(&job, comm));
    (outs, t0)
}

/// First-step loss of the same batch on a 1-rank world.
fn serial_first_loss(spec: &TrainSpec, data: &Arc<Data>, model_seed: u64) -> f32 {
    let spec = spec.clone();
    let data = data.clone();
    run_spmd(1, move |comm| {
        let grid = GridTopology::new(1, 1, 1, 1, 0);
        let mut stack = TransformerStack::new(
            &grid,
            spec.vocab,
            spec.hidden,
            spec.heads,
            spec.layers,
            spec.seq_len,
            model_seed,
            OverlapConfig::all(),
        );
        let (tok, tgt) = data.batch(0);
        stack.train_step(&comm, &grid, tok, tgt, spec.lr)
    })[0]
}

/// Expected loss after warmup, `(workload, seed) -> f32 bits`, recorded
/// on the committed seeds.
const EXPECTED: &str = include_str!("../expected_losses.txt");

fn expected_check_loss(workload: &str, seed: u64) -> Option<u32> {
    EXPECTED.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        let (w, s, bits) = (f.next()?, f.next()?, f.next()?);
        if w == workload && s.parse::<u64>().ok()? == seed {
            u32::from_str_radix(bits.trim_start_matches("0x"), 16).ok()
        } else {
            None
        }
    })
}

pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let data = Arc::new(Data::new(spec, seed));
    let model_seed = seed.wrapping_mul(31).wrapping_add(7);
    let mut out = Outcome::new(spec.params());
    let schedule = if trace {
        let (gx, gy, gz, gd) = spec.grid;
        extract_transformer_schedules(gx, gy, gz, gd, &spec.shape(), OverlapConfig::all())
    } else {
        Vec::new()
    };

    // Set-up samples: launch, build, warm up. The last launch goes on
    // to the measured loop.
    let mut setup_s = Vec::new();
    let mut warm: Vec<Vec<f32>> = Vec::new();
    let mut last = None;
    for i in 0..spec.setups {
        let mode = if i + 1 == spec.setups {
            Mode::Measure { seconds, trace }
        } else {
            Mode::Setup
        };
        let job = Arc::new(Job {
            spec: spec.clone(),
            data: data.clone(),
            model_seed,
            mode,
            schedule: schedule.clone(),
        });
        let (mut ranks, t0) = launch(job);
        let r0 = ranks.swap_remove(0);
        let done = r0.setup_done.expect("rank 0 reports set-up");
        setup_s.push(done.duration_since(t0).as_secs_f64());
        warm.push(r0.warm_losses.clone());
        if i + 1 == spec.setups {
            last = Some(r0);
        }
    }
    let r0 = last.expect("measured launch");
    let first_loss = warm[0][0];
    let check_loss = *warm[0].last().expect("warmup steps");

    // Output checks, outside the set-up time.
    let serial = serial_first_loss(spec, &data, model_seed);
    let rel = ((first_loss - serial) / serial).abs();
    out.check(Check::new(
        "first_loss_matches_1_rank",
        rel <= 2e-3,
        format!("{first_loss} vs 1-rank {serial} (rel {rel:.2e}, tol 2e-3)"),
    ));
    out.check(Check::new(
        "warmup_losses_repeat_bitwise",
        warm.iter().all(|w| {
            w.iter()
                .map(|l| l.to_bits())
                .eq(warm[0].iter().map(|l| l.to_bits()))
        }),
        format!("{} launches of {} warmup steps", warm.len(), spec.warmup),
    ));
    match expected_check_loss(spec.name, seed) {
        Some(bits) => out.check(Check::new(
            "check_loss_matches_record",
            bits == check_loss.to_bits(),
            format!(
                "loss after warmup {check_loss} ({:#010x}), recorded {:#010x}",
                check_loss.to_bits(),
                bits
            ),
        )),
        None => out.note(format!(
            "check_loss {} {seed} {:#010x} (no record for this seed)",
            spec.name,
            check_loss.to_bits()
        )),
    }
    let final_loss = *r0.losses.last().unwrap_or(&f32::NAN);
    out.check(Check::new(
        "final_loss_finite_and_below_first",
        final_loss.is_finite() && final_loss < first_loss,
        format!("final {final_loss} vs first {first_loss}"),
    ));
    let steps = r0.step_ms.len();

    let all_losses = warm.iter().flatten().chain(r0.losses.iter());
    out.attempted = warm.iter().map(Vec::len).sum::<usize>() as u64 + r0.losses.len() as u64;
    out.failed = all_losses.filter(|l| !l.is_finite()).count() as u64;
    out.note(format!(
        "steps={steps} first_loss={first_loss} final_loss={final_loss} check_loss_bits={:#010x}",
        check_loss.to_bits()
    ));

    if trace {
        trace_metrics(spec, &r0, &schedule[0], &mut out);
        out.layer("exec.spawn_ms", spawn_ms(spec.world()), "ms");
        out.spans = r0.spans;
        return out;
    }

    // Step-time percentiles are medians over `WINDOWS` equal stretches
    // of the run (see `windowed_percentile`). A stretch holds some 35
    // steps, so its p99 is its slowest step; a whole-run p99 would rest
    // on the four or five slowest steps of the run instead.
    let tokens = spec.global_tokens() as f64;
    let step_ms = &r0.step_ms;
    let within = step_ms.iter().filter(|&&t| t <= spec.step_slo_ms).count();
    let [p50, p90, p95, p99] =
        [0.5, 0.9, 0.95, 0.99].map(|q| windowed_percentile(step_ms, WINDOWS, q));
    out.metric(Metric::new(
        "tokens_per_s",
        tokens * steps as f64 / r0.loop_s,
        "tokens/s",
    ));
    out.metric(Metric::new("step_p50_ms", p50, "ms"));
    out.metric(Metric::new("step_p90_ms", p90, "ms"));
    out.metric(Metric::new("setup_s", median(&setup_s), "s"));
    out.metric(Metric::new("ttft_p50_ms", p50, "ms"));
    out.metric(Metric::new("ttft_p99_ms", p99, "ms"));
    out.metric(Metric::new("tpot_p50_ms", p50 / tokens, "ms"));
    out.metric(Metric::new("tpot_p95_ms", p95 / tokens, "ms"));
    out.metric(Metric::new(
        "slo_attainment",
        within as f64 / step_ms.len() as f64,
        "fraction",
    ));
    out.metric(Metric::new(
        "capacity_tokens_per_s",
        tokens / p50 * 1e3,
        "tokens/s",
    ));
    out
}

fn trace_metrics(spec: &TrainSpec, r0: &RankOut, schedule: &[SchedEvent], out: &mut Outcome) {
    let gemm_ms =
        |f: fn(&GemmPhase) -> f64| median(&r0.gemm.iter().map(|p| f(p) * 1e3).collect::<Vec<_>>());
    let gemm = gemm_ms(GemmPhase::total_seconds);
    let flops = spec.flops_per_rank_step();
    let packed = median(
        &r0.gemm
            .iter()
            .map(|p| p.packed_bytes as f64)
            .collect::<Vec<_>>(),
    );
    let peak = crate::peak_gflops();
    out.layer("tensor.gemm_ms", gemm, "ms");
    out.layer("tensor.gemm_nn_ms", gemm_ms(|p| p.nn_seconds), "ms");
    out.layer("tensor.gemm_nt_ms", gemm_ms(|p| p.nt_seconds), "ms");
    out.layer("tensor.gemm_tn_ms", gemm_ms(|p| p.tn_seconds), "ms");
    out.layer("tensor.flops_per_step", flops, "flop");
    out.layer("tensor.gflops", flops / gemm * 1e-6, "Gflop/s");
    out.layer("tensor.peak_gflops", peak, "Gflop/s");
    out.layer("tensor.flop_ms", flops / peak * 1e-6, "ms");
    out.layer("tensor.overhead_ms", gemm - flops / peak * 1e-6, "ms");
    out.layer("tensor.packed_bytes_per_step", packed, "bytes");

    // Exact per-step collective counts from rank 0's dry-world schedule
    // (multi-rank groups only; single-rank groups move nothing).
    let mut calls: BTreeMap<&str, f64> = BTreeMap::new();
    let mut bytes: BTreeMap<&str, f64> = BTreeMap::new();
    for ev in schedule {
        if let SchedEvent::Issue(op) = ev {
            if op.ranks.len() > 1 {
                *calls.entry(base_op(op.kind)).or_default() += 1.0;
                *bytes.entry(base_op(op.kind)).or_default() += 4.0 * op.elems as f64;
            }
        }
    }
    collective_layers(out, &calls, &bytes);
    let replay = median(&r0.replay_ms);
    out.layer("collectives.replay_ms", replay, "ms");
    let (hits, misses, alloc) = r0.pool;
    out.layer(
        "collectives.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "fraction",
    );
    out.layer("collectives.alloc_bytes_per_step", alloc as f64, "bytes");

    let probe = |name: &str| r0.probe_ms.get(name).map_or(0.0, |v| median(v));
    let parts = [
        ("core.block_fwd_ms", "core.block_fwd"),
        ("core.block_bwd_ms", "core.block_bwd"),
        ("core.embed_ms", "core.embed"),
        ("core.head_loss_ms", "core.head_loss"),
        ("core.gradsync_ms", "core.gradsync"),
    ];
    let step = median(&r0.traced_ms);
    let mut attributed = 0.0;
    for (metric, span) in parts {
        attributed += probe(span);
        out.layer(metric, probe(span), "ms");
    }
    if let Some(spans) = &r0.spans {
        let selfs = spans.self_times();
        // Non-GEMM time inside the block, embedding and head calls; the
        // gradient sync has its own metric.
        let core_self: f64 = parts[..4]
            .iter()
            .map(|(_, s)| selfs.get(s).copied().unwrap_or(0.0))
            .sum();
        out.layer("core.self_ms", core_self * 1e3 / PROBES as f64, "ms");
    }
    out.layer("core.unattributed_ms", step - attributed, "ms");
    let untraced = median(&r0.step_ms);
    out.layer("bench.step_untraced_ms", untraced, "ms");
    out.layer("bench.step_traced_ms", step, "ms");
    out.layer(
        "bench.trace_overhead_frac",
        (step - untraced) / untraced,
        "fraction",
    );
}

/// The per-op collective metrics, zero for ops that never run.
pub fn collective_layers(
    out: &mut Outcome,
    calls: &BTreeMap<&str, f64>,
    bytes: &BTreeMap<&str, f64>,
) {
    out.layer("collectives.calls_per_step", calls.values().sum(), "count");
    out.layer("collectives.bytes_per_step", bytes.values().sum(), "bytes");
    for op in COLLECTIVE_OPS {
        out.layer(
            format!("collectives.calls_per_step.{op}"),
            calls.get(op).copied().unwrap_or(0.0),
            "count",
        );
        out.layer(
            format!("collectives.bytes_per_step.{op}"),
            bytes.get(op).copied().unwrap_or(0.0),
            "bytes",
        );
    }
}

/// Median wall time of one `run_spmd` round trip on `world` ranks, ms.
fn spawn_ms(world: usize) -> f64 {
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            run_spmd(world, |comm| comm.rank());
            ms_since(t0)
        })
        .collect();
    median(&samples)
}
