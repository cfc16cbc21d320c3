//! Cross-plane mirror of the correctness plane's MLP training step.
//!
//! `axonn_core::Network4d::train_step` executes Algorithm 1 with real
//! tensors; this module replays the *same control flow* — per-layer
//! forward / loss / backward with OAR, ORS, OAG, activation
//! checkpointing, and the data-parallel sync — against a
//! [`CostModel`] and records it through the shared `axonn-trace` event
//! vocabulary. Because training is SPMD-symmetric, one representative
//! rank's timeline stands for every rank, and its ordered compute-stream
//! event kinds must equal the kind signature any exec-plane rank records
//! for the same configuration. The root integration tests assert exactly
//! that equality (acceptance criterion 3 of the tracing issue).
//!
//! The mirror reproduces the exec plane's emission rules: collectives
//! over size-1 groups move no data and leave no events; blocking
//! collectives occupy the synchronous channel, asynchronous ones the
//! worker channel; waits record the exposed gap even when it is zero.

use axonn_collectives::{AlgoPolicy, CostModel, SchedKind};
use axonn_tensor::{pack_geometry, MatMode};
use axonn_trace::{EventDetail, RankTrace, Stream, TraceSink};
use std::sync::Arc;

/// The 4D-parallel MLP configuration being mirrored — grid, layer sizes,
/// and the engine options of `axonn_core::NetConfig`.
#[derive(Debug, Clone)]
pub struct MlpStepConfig {
    pub gx: usize,
    pub gy: usize,
    pub gz: usize,
    pub gd: usize,
    /// Global feature sizes; `dims.len() - 1` layers, layer `i`
    /// "transposed" for odd `i`.
    pub dims: Vec<usize>,
    /// Global batch rows (must divide by `gz * gd`).
    pub batch_rows: usize,
    pub oar: bool,
    pub ors: bool,
    pub oag: bool,
    pub kernel_tuning: bool,
    pub activation_checkpointing: bool,
}

impl MlpStepConfig {
    fn row_parts(&self, transposed: bool) -> usize {
        if transposed {
            self.gx
        } else {
            self.gy
        }
    }

    fn col_parts(&self, transposed: bool) -> usize {
        if transposed {
            self.gy
        } else {
            self.gx
        }
    }

    fn world(&self) -> usize {
        self.gx * self.gy * self.gz * self.gd
    }

    fn layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// (m_local, k_local, n_local) of layer `i` on one rank.
    fn shape(&self, i: usize) -> (f64, f64, f64) {
        let transposed = i % 2 == 1;
        let m = self.batch_rows / (self.gd * self.gz);
        let k = self.dims[i] / self.row_parts(transposed);
        let n = self.dims[i + 1] / self.col_parts(transposed);
        (m as f64, k as f64, n as f64)
    }
}

/// An issued asynchronous collective awaiting its wait point.
struct Ticket {
    op: SchedKind,
    seq: u64,
    done: f64,
    real: bool,
}

/// One representative rank's virtual clocks, mirroring
/// `axonn_collectives::comm::ClockState`. Shared by this MLP
/// training-step mirror and the serving-plane decode mirror
/// (`crate::decode`).
pub(crate) struct Mirror<'a> {
    pub(crate) sink: Arc<TraceSink>,
    cost: &'a dyn CostModel,
    /// Message-size algorithm selection — the same policy the exec plane
    /// resolves at world build, so both planes pick (and cost) the same
    /// algorithm for the same collective.
    algo: AlgoPolicy,
    now: f64,
    comm_free_sync: f64,
    comm_free_async: f64,
    next_seq: u64,
}

impl<'a> Mirror<'a> {
    pub(crate) fn new(cost: &'a dyn CostModel) -> Mirror<'a> {
        Mirror {
            sink: TraceSink::new(0),
            cost,
            // Same env-resolved default the exec plane's world build uses.
            algo: AlgoPolicy::from_env(),
            now: 0.0,
            comm_free_sync: 0.0,
            comm_free_async: 0.0,
            next_seq: 0,
        }
    }

    pub(crate) fn finish(self) -> RankTrace {
        self.sink.finish()
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// The algorithm the exec plane's [`AlgoPolicy`] runs for a request
    /// of `kind`. All-gather `bytes` are the *gathered* buffer, so the
    /// contributed shard is `bytes / 4 / group`; everything else
    /// contributes the full buffer.
    fn effective(&self, kind: SchedKind, group_size: usize, bytes: f64) -> SchedKind {
        let elems = (bytes / 4.0) as usize;
        let elems = match kind {
            SchedKind::AllGather => elems / group_size.max(1),
            _ => elems,
        };
        self.algo.select(kind, elems, group_size)
    }

    /// Record one GEMM span. `(gm, gk, gn)` are the logical GEMM dims
    /// (C is `gm × gn`, contraction `gk`); the mirror derives the packed
    /// panel counters from the same `pack_geometry` math the exec kernels
    /// report, keyed by the trace-facing mode label.
    pub(crate) fn gemm(&mut self, mode: &'static str, gm: f64, gk: f64, gn: f64) {
        let flops = 2.0 * gm * gk * gn;
        let (panels, packed_bytes) = match mode {
            "NN" | "TN->NN" => pack_geometry(MatMode::NN, gm as usize, gk as usize, gn as usize),
            "NT" => pack_geometry(MatMode::NT, gm as usize, gk as usize, gn as usize),
            "TN" => pack_geometry(MatMode::TN, gm as usize, gk as usize, gn as usize),
            // The naive walk packs nothing.
            _ => (0, 0),
        };
        let t0 = self.now;
        self.now += self.cost.compute_seconds(flops);
        self.sink.record_scoped(
            Stream::Compute,
            t0,
            self.now,
            EventDetail::Gemm {
                mode,
                flops,
                packed_bytes,
                panels,
            },
        );
    }

    /// Blocking collective: in the symmetric case the group sync is a
    /// no-op, the op then occupies the synchronous channel.
    pub(crate) fn blocking(&mut self, kind: SchedKind, group_size: usize, bytes: f64) {
        if group_size <= 1 {
            return;
        }
        let kind = self.effective(kind, group_size, bytes);
        let entry = self.now;
        let op_seconds = self.cost.collective_seconds(kind, group_size, bytes);
        let begin = entry.max(self.comm_free_sync);
        let done = begin + op_seconds;
        self.comm_free_sync = done;
        self.now = self.now.max(done);
        let seq = self.bump_seq();
        self.sink.record_scoped(
            Stream::Compute,
            entry,
            done,
            EventDetail::Collective {
                op: kind,
                group_size,
                bytes: bytes as u64,
                seq,
                blocking: true,
                op_seconds,
            },
        );
    }

    /// Issue an asynchronous collective on the worker channel.
    fn issue(&mut self, kind: SchedKind, group_size: usize, bytes: f64) -> Ticket {
        let op = self.effective(kind, group_size, bytes);
        let issue_clock = self.now;
        let seq = self.bump_seq();
        if group_size <= 1 {
            // Exec skips both the issue marker and the execution span;
            // the wait merges the issue clock (a no-op).
            return Ticket {
                op,
                seq,
                done: issue_clock,
                real: false,
            };
        }
        self.sink.mark(
            Stream::Compute,
            issue_clock,
            EventDetail::Issue {
                op,
                group_size,
                bytes: bytes as u64,
                seq,
            },
        );
        let op_seconds = self.cost.collective_seconds(op, group_size, bytes);
        let begin = issue_clock.max(self.comm_free_async);
        let done = begin + op_seconds;
        self.comm_free_async = done;
        self.sink.record_scoped(
            Stream::Comm,
            begin,
            done,
            EventDetail::Collective {
                op,
                group_size,
                bytes: bytes as u64,
                seq,
                blocking: false,
                op_seconds,
            },
        );
        Ticket {
            op,
            seq,
            done,
            real: true,
        }
    }

    /// Wait point: the compute stream stalls until completion (the gap
    /// is zero when the op already finished — fully hidden).
    fn wait(&mut self, ticket: &Ticket) {
        let gap_start = self.now;
        self.now = self.now.max(ticket.done);
        if ticket.real {
            self.sink.record_scoped(
                Stream::Compute,
                gap_start,
                self.now,
                EventDetail::OverlapWait {
                    op: ticket.op,
                    seq: ticket.seq,
                },
            );
        }
    }
}

/// Replay one `Network4d::train_step` against `cost`, recording the
/// representative rank's trace. Pass the same [`RingCostModel`]
/// (`axonn_collectives::RingCostModel`) the exec plane runs under and the
/// two planes' compute-stream kind signatures coincide.
pub fn simulate_mlp_step(cfg: &MlpStepConfig, cost: &dyn CostModel) -> RankTrace {
    assert!(cfg.dims.len() >= 2, "need at least one layer");
    assert_eq!(
        cfg.batch_rows % (cfg.gd * cfg.gz),
        0,
        "batch rows must divide by gd*gz"
    );
    let n_layers = cfg.layers();
    let mut m = Mirror::new(cost);

    // ---- forward_local: OAG prefetches, then per-layer forward ----
    let mut prefetched: Vec<Ticket> = Vec::with_capacity(n_layers);
    if cfg.oag {
        for i in 0..n_layers {
            let (_, k, n) = cfg.shape(i);
            m.sink.set_layer(Some(i));
            // iall_gather bytes: the gathered buffer (shard · gz · 4).
            let t = m.issue(SchedKind::AllGather, cfg.gz, k * n * 4.0);
            m.sink.set_layer(None);
            prefetched.push(t);
        }
    }
    let fwd = |m: &mut Mirror, i: usize, prefetch: Option<&Ticket>| {
        let transposed = i % 2 == 1;
        let (lm, lk, ln) = cfg.shape(i);
        match prefetch {
            Some(t) => m.wait(t),
            None => m.blocking(SchedKind::AllGather, cfg.gz, lk * ln * 4.0),
        }
        m.gemm("NN", lm, lk, ln);
        m.blocking(
            SchedKind::AllReduce,
            cfg.row_parts(transposed),
            lm * ln * 4.0,
        );
    };
    for i in 0..n_layers {
        let span = {
            m.sink.set_layer(Some(i));
            m.sink
                .open_span(Stream::Compute, m.now, EventDetail::LayerFwd { layer: i })
        };
        fwd(&mut m, i, prefetched.get(i));
        m.sink.close_span(span, m.now);
        m.sink.set_layer(None);
    }

    // ---- global loss all-reduce (one f32 over the world group) ----
    m.blocking(SchedKind::AllReduce, cfg.world(), 4.0);

    // ---- backward, reverse order ----
    let mut pending: Vec<Ticket> = Vec::with_capacity(n_layers);
    for i in (0..n_layers).rev() {
        if cfg.activation_checkpointing && i > 0 {
            // pre_of(i-1): recompute the previous layer's forward from its
            // cached gathered weight — one GEMM plus the output
            // all-reduce, no weight all-gather (`recompute_output`).
            let prev = i - 1;
            let prev_transposed = prev % 2 == 1;
            let (pm, pk, pn) = cfg.shape(prev);
            m.sink.set_layer(Some(prev));
            m.gemm("NN", pm, pk, pn);
            m.blocking(
                SchedKind::AllReduce,
                cfg.row_parts(prev_transposed),
                pm * pn * 4.0,
            );
            m.sink.set_layer(None);
        }
        let transposed = i % 2 == 1;
        let (lm, lk, ln) = cfg.shape(i);
        let span = {
            m.sink.set_layer(Some(i));
            m.sink
                .open_span(Stream::Compute, m.now, EventDetail::LayerBwd { layer: i })
        };

        // Line 11: dÎ = dO · Wᵀ (C is lm × lk, contraction ln).
        m.gemm("NT", lm, ln, lk);

        // Line 12: dI all-reduce over the col group (async under OAR).
        let col = cfg.col_parts(transposed);
        let ar = if cfg.oar && col > 1 {
            Some(m.issue(SchedKind::AllReduce, col, lm * lk * 4.0))
        } else {
            m.blocking(SchedKind::AllReduce, col, lm * lk * 4.0);
            None
        };

        // Line 13: dŴ via the kernel tuner. The exec tuner measures wall
        // time across three strategies; the mirror models the same
        // three-way decision with modelled clocks: the packed TN kernel
        // transposes A into the reused pack buffer (one extra pass over
        // lm·lk elements), the naive column walk runs at ~4× the blocked
        // rate, and the reroute materializes a fresh transposed matrix
        // and re-reads it (two extra passes). Minimum wins, packed on
        // ties — the same priority order the exec tuner applies.
        let flops = 2.0 * lk * lm * ln;
        let (mode, choice) = if cfg.kernel_tuning {
            let pass = cost.compute_seconds(2.0 * lm * lk);
            let packed = cost.compute_seconds(flops) + pass;
            let naive = cost.compute_seconds(flops) * 4.0;
            let reroute = cost.compute_seconds(flops) + 2.0 * pass;
            let (mode, choice) = if naive < packed && naive < reroute {
                ("TN(naive)", "naive_tn")
            } else if reroute < packed {
                ("TN->NN", "transpose_nn")
            } else {
                ("TN", "packed_tn")
            };
            (mode, Some((choice, packed, naive, reroute)))
        } else {
            ("TN", None)
        };
        m.gemm(mode, lk, lm, ln);
        if let Some((choice, direct_seconds, naive_seconds, reroute_seconds)) = choice {
            m.sink.mark(
                Stream::Compute,
                m.now,
                EventDetail::TunerDecision {
                    layer: i,
                    choice,
                    direct_seconds,
                    naive_seconds,
                    reroute_seconds,
                },
            );
        }
        if let Some(t) = &ar {
            m.wait(t);
        }

        // Line 14: dŴ reduce-scatter over Z (async under ORS).
        let rs_bytes = lk * ln * 4.0;
        if cfg.ors {
            let t = m.issue(SchedKind::ReduceScatter, cfg.gz, rs_bytes);
            pending.push(t);
        } else {
            m.blocking(SchedKind::ReduceScatter, cfg.gz, rs_bytes);
        }
        m.sink.close_span(span, m.now);
        m.sink.set_layer(None);
    }
    // ---- data-parallel gradient phase: the bucketed pipeline ----
    // Mirrors `axonn_core::gradsync::GradSyncPipeline` under the default
    // `GradSyncMode::Bucketed`: the ORS drain feeds each layer's gradient
    // shard into fixed-capacity buckets in reverse-backward order; every
    // sealed bucket immediately issues a non-blocking canonical-order
    // reduce-scatter (unattributed — no layer scope); the ZeRO-1 sharded
    // update is pure local compute (no events); each updated slice
    // returns via a non-blocking all-gather. Both bucket collectives
    // report the padded bucket volume, exactly as the exec plane does.
    const BUCKET_ELEMS: usize = 32 * 1024; // = axonn_core::DEFAULT_BUCKET_ELEMS

    let mut rs_tickets: Vec<(Ticket, usize)> = Vec::new();
    let mut fill = 0usize;
    let mut seal = |m: &mut Mirror, fill: &mut usize| {
        if *fill == 0 {
            return;
        }
        let padded = fill.div_ceil(cfg.gd) * cfg.gd;
        if cfg.gd > 1 {
            // Canonical-order reduce-scatter, like
            // `ireduce_scatter_linear_pooled`.
            let t = m.issue(SchedKind::ReduceScatterLinear, cfg.gd, (padded * 4) as f64);
            rs_tickets.push((t, padded));
        }
        *fill = 0;
    };
    for (idx, i) in (0..n_layers).rev().enumerate() {
        if cfg.ors {
            // Drain this layer's deferred Z reduce-scatter, then bucket
            // its gradient — overlapping the remaining waits.
            m.wait(&pending[idx]);
        }
        let (_, lk, ln) = cfg.shape(i);
        let mut rem = (lk / cfg.gz as f64 * ln) as usize;
        while rem > 0 {
            let take = (BUCKET_ELEMS - fill).min(rem);
            fill += take;
            rem -= take;
            if fill == BUCKET_ELEMS {
                seal(&mut m, &mut fill);
            }
        }
    }
    seal(&mut m, &mut fill); // flush the final partial bucket

    // ZeRO-1 step: per bucket in issue order, wait the reduce-scatter
    // and issue the all-gather of the updated slice; then wait gathers.
    let mut gathers: Vec<Ticket> = Vec::with_capacity(rs_tickets.len());
    for (t, padded) in &rs_tickets {
        m.wait(t);
        gathers.push(m.issue(SchedKind::AllGather, cfg.gd, (*padded * 4) as f64));
    }
    for t in &gathers {
        m.wait(t);
    }

    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_collectives::RingCostModel;

    fn cfg() -> MlpStepConfig {
        MlpStepConfig {
            gx: 2,
            gy: 1,
            gz: 2,
            gd: 1,
            dims: vec![8, 8, 8],
            batch_rows: 8,
            oar: true,
            ors: true,
            oag: true,
            kernel_tuning: false,
            activation_checkpointing: false,
        }
    }

    #[test]
    fn mirror_emits_expected_forward_kinds() {
        let cost = RingCostModel::new(1e8, 1e8);
        let trace = simulate_mlp_step(&cfg(), &cost);
        let sig = trace.kind_signature();
        // Two OAG issues, then layer 0: fwd span, AG wait, gemm (row
        // group of layer 0 has size gy = 1 → no forward all-reduce).
        // These tiny payloads select the recursive-doubling / tree
        // algorithms under the default policy.
        assert_eq!(sig[0], "issue:all_gather_rd");
        assert_eq!(sig[1], "issue:all_gather_rd");
        assert_eq!(sig[2], "layer_fwd");
        assert_eq!(sig[3], "wait:all_gather_rd");
        assert_eq!(sig[4], "gemm");
        // Layer 1 is transposed: its row group is X (size 2) → its
        // forward ends with a blocking all-reduce (tree at this size).
        assert!(sig.contains(&"collective:all_reduce_tree".to_string()));
        assert!(trace.streams_monotone());
    }

    #[test]
    fn overlap_off_emits_no_async_events() {
        let mut c = cfg();
        c.oar = false;
        c.ors = false;
        c.oag = false;
        let cost = RingCostModel::new(1e8, 1e8);
        let trace = simulate_mlp_step(&c, &cost);
        for kind in trace.kind_signature() {
            assert!(
                !kind.starts_with("issue:") && !kind.starts_with("wait:"),
                "unexpected async event {kind} with overlap off"
            );
        }
        assert!(trace.stream_events(Stream::Comm).next().is_none());
    }

    #[test]
    fn checkpointing_inserts_recompute_events() {
        let mut c = cfg();
        c.activation_checkpointing = true;
        let cost = RingCostModel::new(1e8, 1e8);
        let with = simulate_mlp_step(&c, &cost).kind_signature();
        let without = simulate_mlp_step(&cfg(), &cost).kind_signature();
        assert!(with.len() > without.len());
    }
}
