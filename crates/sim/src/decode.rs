//! Serving-plane mirror of `axonn_serve`'s tensor-parallel decode.
//!
//! `TpShard::decode_token` folds the per-rank attention and MLP partial
//! products with two blocking all-reduces per layer per token; this
//! module replays the same control flow against a [`CostModel`],
//! recording one representative rank's timeline through the shared
//! `axonn-trace` vocabulary. The root integration tests pin its
//! collective kind sequence against the dry-extracted schedule of
//! `axonn_serve::extract_tp_decode_schedule` — the serving-plane twin of
//! the training-step cross-plane agreement test — so the perf model and
//! the verifier certify the *same* decode communication pattern.

use crate::mlp::Mirror;
use axonn_collectives::{CostModel, SchedKind};
use axonn_trace::RankTrace;

/// The tensor-parallel decode configuration being mirrored.
#[derive(Debug, Clone)]
pub struct TpDecodeConfig {
    /// Tensor-parallel degree (the X group size).
    pub tp: usize,
    /// Transformer blocks.
    pub layers: usize,
    /// Model width; heads and the 4×-wide MLP shard by `tp`.
    pub dim: usize,
    /// Vocabulary size (the replicated LM-head GEMM).
    pub vocab: usize,
    /// Decode steps (one token each, KV-cached).
    pub tokens: usize,
}

/// Replay a `tp`-way greedy decode of `tokens` tokens against `cost`.
///
/// # Panics
/// If `dim` or `4 * dim` is not divisible by `tp` (the same sharding
/// contract `TpShard::new` enforces).
pub fn simulate_tp_decode(cfg: &TpDecodeConfig, cost: &dyn CostModel) -> RankTrace {
    assert!(
        cfg.tp >= 1 && cfg.layers >= 1 && cfg.tokens >= 1,
        "need positive tp, layers and tokens"
    );
    assert_eq!(cfg.dim % cfg.tp, 0, "dim must shard by tp");
    assert_eq!((4 * cfg.dim) % cfg.tp, 0, "MLP width must shard by tp");
    let mut m = Mirror::new(cost);
    let d = cfg.dim as f64;
    // This rank's share of the head columns and the MLP hidden width.
    let lsec = (cfg.dim / cfg.tp) as f64;
    let hidden_local = (4 * cfg.dim / cfg.tp) as f64;
    for _ in 0..cfg.tokens {
        for li in 0..cfg.layers {
            m.sink.set_layer(Some(li));
            m.gemm("NN", 1.0, d, 3.0 * lsec); // QKV, local heads only
            m.gemm("NN", 1.0, lsec, d); // output-projection rows
            m.blocking(SchedKind::AllReduce, cfg.tp, d * 4.0); // attn partials
            m.gemm("NN", 1.0, d, hidden_local); // fc1 columns
            m.gemm("NN", 1.0, hidden_local, d); // fc2 rows
            m.blocking(SchedKind::AllReduce, cfg.tp, d * 4.0); // MLP partials
            m.sink.set_layer(None);
        }
        m.gemm("NN", 1.0, d, cfg.vocab as f64); // replicated LM head
    }
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_collectives::RingCostModel;
    use axonn_trace::{EventDetail, Stream};

    fn collective_count(trace: &RankTrace) -> usize {
        trace
            .stream_events(Stream::Compute)
            .filter(|e| matches!(e.detail, EventDetail::Collective { .. }))
            .count()
    }

    #[test]
    fn two_all_reduces_per_layer_per_token() {
        let cost = RingCostModel::new(1e8, 1e8);
        let trace = simulate_tp_decode(
            &TpDecodeConfig {
                tp: 2,
                layers: 3,
                dim: 16,
                vocab: 16,
                tokens: 4,
            },
            &cost,
        );
        assert_eq!(collective_count(&trace), 2 * 3 * 4);
    }

    #[test]
    fn tp1_moves_no_data() {
        let cost = RingCostModel::new(1e8, 1e8);
        let trace = simulate_tp_decode(
            &TpDecodeConfig {
                tp: 1,
                layers: 2,
                dim: 8,
                vocab: 16,
                tokens: 3,
            },
            &cost,
        );
        // Size-1 groups leave no events, exactly like the exec plane.
        assert_eq!(collective_count(&trace), 0);
    }
}
