//! Message-size-aware collective algorithm selection.
//!
//! The transport keeps the chunk-pipelined pooled **ring** for large
//! payloads (bandwidth-optimal: `(g-1)/g · n` bytes per rank and
//! `2(g-1)` latency terms for all-reduce) and switches to
//! latency-optimal algorithms below per-collective thresholds:
//!
//! * **binomial tree** all-reduce / broadcast — `⌈log2 g⌉` hops, any
//!   group size, best for tiny payloads where the α term dominates;
//! * **recursive halving/doubling** all-reduce and recursive-halving
//!   reduce-scatter / recursive-doubling all-gather — `⌈log2 g⌉` steps
//!   at ring-equal volume, power-of-two groups only, best for small and
//!   medium payloads.
//!
//! Selection is a pure function of `(element count, group size,
//! policy)` returning the [`SchedKind`] that runs, so the execution
//! plane, the simulator mirror (`axonn-sim`), the cost model
//! ([`crate::cost::steps_volume`]) and the schedule verifier
//! (`axonn-verify`) all agree on which algorithm ran.
//! The policy is resolved once per world from [`AlgoPolicy::from_env`]
//! (`AXONN_COLL_ALGO`) unless overridden on the builder, so every rank
//! of a world selects identically.

use crate::sched::SchedKind;
use std::sync::Once;

/// The all-reduce algorithms the runtime selects among; the first is the
/// ring fallback when a forced algorithm is illegal for the group.
const ALL_REDUCE: [SchedKind; 3] = [
    SchedKind::AllReduce,
    SchedKind::AllReduceRhd,
    SchedKind::AllReduceTree,
];
const REDUCE_SCATTER: [SchedKind; 2] = [SchedKind::ReduceScatter, SchedKind::ReduceScatterRh];
const ALL_GATHER: [SchedKind; 2] = [SchedKind::AllGather, SchedKind::AllGatherRd];
const BROADCAST: [SchedKind; 2] = [SchedKind::Broadcast, SchedKind::BroadcastTree];

/// `AXONN_COLL_ALGO` per-collective spellings: `(key, algorithm, kind)`.
const SPELLINGS: [(&str, &str, SchedKind); 12] = [
    ("all_reduce", "ring", SchedKind::AllReduce),
    ("all_reduce", "rhd", SchedKind::AllReduceRhd),
    ("all_reduce", "tree", SchedKind::AllReduceTree),
    ("reduce_scatter", "ring", SchedKind::ReduceScatter),
    ("reduce_scatter", "rh", SchedKind::ReduceScatterRh),
    ("reduce_scatter", "rhd", SchedKind::ReduceScatterRh),
    ("all_gather", "ring", SchedKind::AllGather),
    ("all_gather", "rd", SchedKind::AllGatherRd),
    ("all_gather", "rhd", SchedKind::AllGatherRd),
    ("broadcast", "ring", SchedKind::Broadcast),
    ("broadcast", "chain", SchedKind::Broadcast),
    ("broadcast", "tree", SchedKind::BroadcastTree),
];

/// A forced algorithm of `family`, or the family's ring fallback (its
/// first member) when the forced one cannot run on `g` ranks.
fn forced(force: Option<SchedKind>, family: &[SchedKind], g: usize) -> Option<SchedKind> {
    force.map(|f| {
        debug_assert!(family.contains(&f), "{f} forced for {}", family[0]);
        if f.legal(g) {
            f
        } else {
            family[0]
        }
    })
}

/// Per-collective thresholds (in f32 **elements**) plus optional hard
/// overrides, resolved once per world. Fields are public so tests can
/// build policies that pin a specific algorithm on either side of a
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoPolicy {
    /// All-reduce payloads up to this many elements use the binomial
    /// tree (any group size).
    pub ar_tree_max: usize,
    /// All-reduce payloads up to this many elements use recursive
    /// halving/doubling when the group is a power of two.
    pub ar_rhd_max: usize,
    /// Reduce-scatter inputs up to this many total elements use
    /// recursive halving when the group is a power of two.
    pub rs_rh_max: usize,
    /// All-gathers contributing up to this many elements per rank use
    /// recursive doubling when the group is a power of two.
    pub ag_rd_max: usize,
    /// Broadcast payloads up to this many elements use the binomial
    /// tree (any group size).
    pub bcast_tree_max: usize,
    /// Hard override for all-reduce: `AllReduce`, `AllReduceRhd` or
    /// `AllReduceTree` (falls back to the ring when the forced algorithm
    /// is not legal for the group size).
    pub force_ar: Option<SchedKind>,
    /// Hard override for reduce-scatter: `ReduceScatter` or
    /// `ReduceScatterRh`.
    pub force_rs: Option<SchedKind>,
    /// Hard override for all-gather: `AllGather` or `AllGatherRd`.
    pub force_ag: Option<SchedKind>,
    /// Hard override for broadcast: `Broadcast` or `BroadcastTree`.
    pub force_bcast: Option<SchedKind>,
}

impl Default for AlgoPolicy {
    fn default() -> Self {
        AlgoPolicy {
            // A 1 KiB-ish payload is pure latency; below this the tree's
            // smaller hop count beats everything even at log2(g)·n volume.
            ar_tree_max: 1024,
            // Up to 4M elements (16 MiB) halving/doubling wins on hop
            // count at ring-equal volume; past that the ring's chunk
            // pipelining overlaps segments and takes over.
            ar_rhd_max: 1 << 22,
            rs_rh_max: 1 << 18,
            ag_rd_max: 1 << 18,
            bcast_tree_max: 4096,
            force_ar: None,
            force_rs: None,
            force_ag: None,
            force_bcast: None,
        }
    }
}

impl AlgoPolicy {
    /// Policy that pins every collective to the ring/chain algorithms —
    /// the pre-selection behaviour. Used by bitwise-equivalence suites
    /// that prove the pooled pipelined ring against the naive reference.
    pub fn ring_only() -> Self {
        AlgoPolicy {
            force_ar: Some(SchedKind::AllReduce),
            force_rs: Some(SchedKind::ReduceScatter),
            force_ag: Some(SchedKind::AllGather),
            force_bcast: Some(SchedKind::Broadcast),
            ..AlgoPolicy::default()
        }
    }

    /// Read the policy from `AXONN_COLL_ALGO`. Accepts a global force
    /// (`auto` | `ring` | `tree` | `rhd`) or comma-separated
    /// per-collective overrides (`all_reduce=tree,all_gather=ring`,
    /// keys `all_reduce` / `reduce_scatter` / `all_gather` /
    /// `broadcast`). Tokens it cannot use are skipped so an A/B harness
    /// can never brick a run, but named in one stderr warning (once per
    /// process).
    pub fn from_env() -> Self {
        let Ok(spec) = std::env::var("AXONN_COLL_ALGO") else {
            return AlgoPolicy::default();
        };
        let (policy, ignored) = Self::parse(&spec);
        if !ignored.is_empty() {
            static WARN: Once = Once::new();
            WARN.call_once(|| {
                eprintln!(
                    "warning: AXONN_COLL_ALGO={spec:?}: ignored {}",
                    ignored.join(", ")
                )
            });
        }
        policy
    }

    /// Pure parser behind [`AlgoPolicy::from_env`] (tests call this
    /// directly; env vars are process-global and racy under the
    /// parallel test harness). Returns the policy and the tokens it
    /// ignored: an unknown key, an unknown algorithm, or an algorithm
    /// that is not of that key's collective.
    pub fn parse(spec: &str) -> (Self, Vec<String>) {
        let mut p = AlgoPolicy::default();
        match spec.trim() {
            "" | "auto" => return (p, Vec::new()),
            "ring" => return (AlgoPolicy::ring_only(), Vec::new()),
            "tree" => {
                p.force_ar = Some(SchedKind::AllReduceTree);
                p.force_bcast = Some(SchedKind::BroadcastTree);
                return (p, Vec::new());
            }
            "rhd" => {
                p.force_ar = Some(SchedKind::AllReduceRhd);
                p.force_rs = Some(SchedKind::ReduceScatterRh);
                p.force_ag = Some(SchedKind::AllGatherRd);
                return (p, Vec::new());
            }
            _ => {}
        }
        let mut ignored = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let Some((key, val)) = part.split_once('=') else {
                ignored.push(part.to_string());
                continue;
            };
            let (key, val) = (key.trim(), val.trim());
            let slot = match key {
                "all_reduce" => &mut p.force_ar,
                "reduce_scatter" => &mut p.force_rs,
                "all_gather" => &mut p.force_ag,
                "broadcast" => &mut p.force_bcast,
                _ => {
                    ignored.push(part.to_string());
                    continue;
                }
            };
            if val == "auto" {
                *slot = None;
            } else if let Some(&(_, _, kind)) =
                SPELLINGS.iter().find(|(k, a, _)| *k == key && *a == val)
            {
                *slot = Some(kind);
            } else {
                ignored.push(part.to_string());
            }
        }
        (p, ignored)
    }

    /// Pick the all-reduce algorithm for `elems` elements over `g` ranks.
    pub fn all_reduce(&self, elems: usize, g: usize) -> SchedKind {
        if let Some(f) = forced(self.force_ar, &ALL_REDUCE, g) {
            return f;
        }
        if elems <= self.ar_tree_max {
            SchedKind::AllReduceTree
        } else if g.is_power_of_two() && elems <= self.ar_rhd_max {
            SchedKind::AllReduceRhd
        } else {
            SchedKind::AllReduce
        }
    }

    /// Pick the reduce-scatter algorithm for `elems` total input
    /// elements over `g` ranks. Divisibility (`elems % g == 0`) is a
    /// hard requirement of *both* algorithms, checked by the transport,
    /// so it is not a selection criterion.
    pub fn reduce_scatter(&self, elems: usize, g: usize) -> SchedKind {
        if let Some(f) = forced(self.force_rs, &REDUCE_SCATTER, g) {
            return f;
        }
        if g.is_power_of_two() && elems <= self.rs_rh_max {
            SchedKind::ReduceScatterRh
        } else {
            SchedKind::ReduceScatter
        }
    }

    /// Pick the all-gather algorithm when each rank contributes
    /// `contributed` elements over `g` ranks.
    pub fn all_gather(&self, contributed: usize, g: usize) -> SchedKind {
        if let Some(f) = forced(self.force_ag, &ALL_GATHER, g) {
            return f;
        }
        if g.is_power_of_two() && contributed <= self.ag_rd_max {
            SchedKind::AllGatherRd
        } else {
            SchedKind::AllGather
        }
    }

    /// Pick the broadcast algorithm for `elems` elements over `g` ranks.
    pub fn broadcast(&self, elems: usize, g: usize) -> SchedKind {
        if let Some(f) = forced(self.force_bcast, &BROADCAST, g) {
            return f;
        }
        if elems <= self.bcast_tree_max {
            SchedKind::BroadcastTree
        } else {
            SchedKind::Broadcast
        }
    }

    /// The algorithm that runs when a caller requests the ring `kind`:
    /// the four selectable collectives go through their selector
    /// (`elems` is the selector's input — the contributed shard for
    /// all-gather, the full buffer otherwise); every other kind, such as
    /// the canonical-order linear reduce-scatter whose fixed fold order
    /// is the gradient bucketizer's bit-identity contract, runs as named.
    pub fn select(&self, kind: SchedKind, elems: usize, g: usize) -> SchedKind {
        match kind {
            SchedKind::AllReduce => self.all_reduce(elems, g),
            SchedKind::ReduceScatter => self.reduce_scatter(elems, g),
            SchedKind::AllGather => self.all_gather(elems, g),
            SchedKind::Broadcast => self.broadcast(elems, g),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SchedKind::*;

    #[test]
    fn defaults_select_by_size_and_group() {
        let p = AlgoPolicy::default();
        assert_eq!(p.all_reduce(256, 4), AllReduceTree);
        assert_eq!(p.all_reduce(1024, 4), AllReduceTree, "threshold inclusive");
        assert_eq!(p.all_reduce(1025, 4), AllReduceRhd);
        assert_eq!(p.all_reduce(1 << 20, 4), AllReduceRhd);
        assert_eq!(
            p.all_reduce(1 << 22, 4),
            AllReduceRhd,
            "threshold inclusive"
        );
        assert_eq!(p.all_reduce((1 << 22) + 1, 4), AllReduce);
        // Non-power-of-two groups: tree still legal, rhd is not.
        assert_eq!(p.all_reduce(256, 3), AllReduceTree);
        assert_eq!(p.all_reduce(1 << 20, 3), AllReduce);
        assert_eq!(p.reduce_scatter(1 << 16, 4), ReduceScatterRh);
        assert_eq!(p.reduce_scatter((1 << 18) + 4, 4), ReduceScatter);
        assert_eq!(p.reduce_scatter(1 << 16, 6), ReduceScatter);
        assert_eq!(p.all_gather(1 << 10, 8), AllGatherRd);
        assert_eq!(p.all_gather((1 << 18) + 1, 8), AllGather);
        assert_eq!(p.all_gather(1 << 10, 5), AllGather);
        assert_eq!(p.broadcast(4096, 4), BroadcastTree);
        assert_eq!(p.broadcast(4097, 4), Broadcast);
    }

    #[test]
    fn select_routes_ring_requests_and_keeps_the_rest() {
        let p = AlgoPolicy::default();
        assert_eq!(p.select(AllReduce, 256, 4), AllReduceTree);
        assert_eq!(p.select(AllGather, 1 << 10, 8), AllGatherRd);
        assert_eq!(p.select(ReduceScatterLinear, 16, 4), ReduceScatterLinear);
        assert_eq!(p.select(AllReduceLinear, 16, 4), AllReduceLinear);
        assert_eq!(p.select(Barrier, 1, 4), Barrier);
    }

    #[test]
    fn ring_only_pins_every_collective() {
        let p = AlgoPolicy::ring_only();
        assert_eq!(p.all_reduce(1, 4), AllReduce);
        assert_eq!(p.reduce_scatter(4, 4), ReduceScatter);
        assert_eq!(p.all_gather(1, 4), AllGather);
        assert_eq!(p.broadcast(1, 4), Broadcast);
    }

    #[test]
    fn forced_algorithms_fall_back_when_illegal() {
        let p = AlgoPolicy {
            force_ar: Some(AllReduceRhd),
            force_rs: Some(ReduceScatterRh),
            force_ag: Some(AllGatherRd),
            ..AlgoPolicy::default()
        };
        assert_eq!(p.all_reduce(1 << 20, 8), AllReduceRhd);
        assert_eq!(p.all_reduce(1 << 20, 6), AllReduce, "rhd needs pow2");
        assert_eq!(p.reduce_scatter(12, 6), ReduceScatter);
        assert_eq!(p.all_gather(2, 6), AllGather);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "forced for all_reduce")]
    fn forcing_another_collectives_kind_is_caught() {
        let p = AlgoPolicy {
            force_ar: Some(AllGatherRd),
            ..AlgoPolicy::default()
        };
        let _ = p.all_reduce(16, 4);
    }

    #[test]
    fn parse_global_forces() {
        let none = Vec::<String>::new();
        assert_eq!(
            AlgoPolicy::parse("auto"),
            (AlgoPolicy::default(), none.clone())
        );
        assert_eq!(AlgoPolicy::parse(""), (AlgoPolicy::default(), none.clone()));
        assert_eq!(AlgoPolicy::parse("ring"), (AlgoPolicy::ring_only(), none));
        let (tree, _) = AlgoPolicy::parse("tree");
        assert_eq!(tree.force_ar, Some(AllReduceTree));
        assert_eq!(tree.force_bcast, Some(BroadcastTree));
        assert_eq!(tree.force_rs, None);
        let (rhd, _) = AlgoPolicy::parse("rhd");
        assert_eq!(rhd.force_ar, Some(AllReduceRhd));
        assert_eq!(rhd.force_rs, Some(ReduceScatterRh));
        assert_eq!(rhd.force_ag, Some(AllGatherRd));
    }

    #[test]
    fn parse_per_collective_overrides() {
        let (p, ignored) = AlgoPolicy::parse("all_reduce=tree,all_gather=ring,broadcast=chain");
        assert_eq!(p.force_ar, Some(AllReduceTree));
        assert_eq!(p.force_ag, Some(AllGather));
        assert_eq!(p.force_bcast, Some(Broadcast));
        assert_eq!(p.force_rs, None);
        assert!(ignored.is_empty(), "{ignored:?}");
        // Unknown tokens never brick a run, but they are reported.
        assert_eq!(
            AlgoPolicy::parse("bogus"),
            (AlgoPolicy::default(), vec!["bogus".to_string()])
        );
        assert_eq!(
            AlgoPolicy::parse("all_reduce=warp9"),
            (AlgoPolicy::default(), vec!["all_reduce=warp9".to_string()])
        );
        // An algorithm of another collective is ignored too; valid
        // tokens next to it still apply.
        let (p, ignored) = AlgoPolicy::parse("all_gather=tree, reduce_scatter=rh");
        assert_eq!(p.force_ag, None);
        assert_eq!(p.force_rs, Some(ReduceScatterRh));
        assert_eq!(ignored, vec!["all_gather=tree".to_string()]);
    }
}
