//! The message-size-aware algorithms (recursive-halving reduce-scatter,
//! recursive-doubling all-gather, recursive halving/doubling and
//! binomial-tree all-reduce, binomial-tree broadcast) must be provably
//! correct against serial oracles for every group size they are legal
//! on — including non-power-of-two groups for the trees — and the
//! selection policy must record the algorithm it actually ran in the
//! schedule plane on both sides of every [`AlgoPolicy`] threshold.
//!
//! Reductions are checked *bitwise* against the serial replay oracles in
//! `axonn_collectives::reference`, which reproduce each algorithm's fold
//! order exactly; pure data movement (all-gather, broadcast) is checked
//! bitwise against the ring reference since any algorithm must agree.

use axonn_collectives::reference::{
    replay_rh_reduce_scatter, replay_rhd_all_reduce, replay_tree_all_reduce,
};
use axonn_collectives::sched::SchedEvent;
use axonn_collectives::{
    AlgoPolicy, Comm, CommError, CommWorld, ProcessGroup, ReduceOp, SchedKind,
};
use proptest::prelude::*;
use std::thread;

/// Run `body` on every rank of a pre-built world; collect results.
fn spmd_world<T: Send + 'static>(
    comms: Vec<Comm>,
    body: impl Fn(Comm) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let handles: Vec<_> = comms
        .into_iter()
        .map(|c| {
            let body = body.clone();
            thread::spawn(move || body(c))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Deterministic per-rank buffer with irrational-ish values so float
/// fold-order differences actually show up bitwise.
fn buffer(rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((rank * 131 + i * 17) % 97) as f32).sin() * 3.7)
        .collect()
}

fn forced_world(size: usize, policy: AlgoPolicy) -> Vec<Comm> {
    CommWorld::builder(size).algo(policy).build()
}

fn assert_bitwise(got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Recursive halving/doubling all-reduce vs its serial replay,
    /// bitwise, on every power-of-two group size, payload lengths that
    /// include indivisible (padded) and size-1 cases, Sum and Max.
    #[test]
    fn rhd_all_reduce_matches_serial_replay(
        world_log2 in 1u32..4,
        len in 1usize..60,
        use_max in 0usize..2,
    ) {
        let world = 1usize << world_log2;
        let op = if use_max == 1 { ReduceOp::Max } else { ReduceOp::Sum };
        let mut policy = AlgoPolicy::ring_only();
        policy.force_ar = Some(SchedKind::AllReduceRhd);
        let comms = forced_world(world, policy);
        let results = spmd_world(comms, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let mut buf = buffer(c.rank(), len);
            c.all_reduce_op(&g, &mut buf, op);
            buf
        });
        let inputs: Vec<Vec<f32>> = (0..world).map(|r| buffer(r, len)).collect();
        let expect = replay_rhd_all_reduce(&inputs, op);
        for got in &results {
            assert_bitwise(got, &expect);
        }
    }

    /// Binomial-tree all-reduce vs its serial replay, bitwise, on every
    /// group size 1–9 including non-powers-of-two.
    #[test]
    fn tree_all_reduce_matches_serial_replay(
        world in 1usize..10,
        len in 1usize..60,
        use_max in 0usize..2,
    ) {
        let op = if use_max == 1 { ReduceOp::Max } else { ReduceOp::Sum };
        let mut policy = AlgoPolicy::ring_only();
        policy.force_ar = Some(SchedKind::AllReduceTree);
        let comms = forced_world(world, policy);
        let results = spmd_world(comms, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let mut buf = buffer(c.rank(), len);
            c.all_reduce_op(&g, &mut buf, op);
            buf
        });
        let inputs: Vec<Vec<f32>> = (0..world).map(|r| buffer(r, len)).collect();
        let expect = replay_tree_all_reduce(&inputs, op);
        for got in &results {
            assert_bitwise(got, &expect);
        }
    }

    /// Recursive-halving reduce-scatter vs its serial replay, bitwise,
    /// on every power-of-two group size.
    #[test]
    fn rh_reduce_scatter_matches_serial_replay(
        world_log2 in 1u32..4,
        per in 1usize..24,
    ) {
        let world = 1usize << world_log2;
        let mut policy = AlgoPolicy::ring_only();
        policy.force_rs = Some(SchedKind::ReduceScatterRh);
        let comms = forced_world(world, policy);
        let results = spmd_world(comms, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            c.reduce_scatter(&g, &buffer(c.rank(), per * world))
        });
        let inputs: Vec<Vec<f32>> = (0..world).map(|r| buffer(r, per * world)).collect();
        let expect = replay_rh_reduce_scatter(&inputs, ReduceOp::Sum);
        for (pos, got) in results.iter().enumerate() {
            assert_bitwise(got, &expect[pos]);
        }
    }

    /// Recursive-doubling all-gather is pure data movement: bitwise
    /// equal to the ring reference on every power-of-two group size.
    #[test]
    fn rd_all_gather_matches_ring_reference(
        world_log2 in 1u32..4,
        shard in 1usize..48,
    ) {
        let world = 1usize << world_log2;
        let mut policy = AlgoPolicy::ring_only();
        policy.force_ag = Some(SchedKind::AllGatherRd);
        let comms = forced_world(world, policy);
        let results = spmd_world(comms, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let rd = c.all_gather(&g, &buffer(c.rank(), shard));
            let reference = c.reference_all_gather(&g, &buffer(c.rank(), shard));
            (rd, reference)
        });
        for (rd, reference) in results {
            prop_assert_eq!(rd, reference);
        }
    }

    /// Binomial-tree broadcast delivers the root's buffer verbatim on
    /// every group size 1–9 (incl. non-powers-of-two) from any root.
    #[test]
    fn tree_broadcast_matches_root_buffer(
        world in 1usize..10,
        len in 1usize..64,
        root in 0usize..10,
    ) {
        let root = root % world;
        let mut policy = AlgoPolicy::ring_only();
        policy.force_bcast = Some(SchedKind::BroadcastTree);
        let comms = forced_world(world, policy);
        let results = spmd_world(comms, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let mut buf = buffer(root, len);
            c.broadcast(&g, root, &mut buf);
            let mut starred = buffer(root, len);
            c.reference_broadcast(&g, root, &mut starred);
            (buf, starred)
        });
        let expect = buffer(root, len);
        for (tree, starred) in results {
            prop_assert_eq!(&tree, &expect);
            prop_assert_eq!(&tree, &starred);
        }
    }

    /// The async plane routes through the same selection: a forced-RHD
    /// non-blocking all-reduce is bitwise equal to the serial replay.
    #[test]
    fn async_rhd_all_reduce_matches_serial_replay(
        world_log2 in 1u32..3,
        len in 1usize..48,
    ) {
        let world = 1usize << world_log2;
        let mut policy = AlgoPolicy::ring_only();
        policy.force_ar = Some(SchedKind::AllReduceRhd);
        let comms = forced_world(world, policy);
        let results = spmd_world(comms, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            c.iall_reduce(&g, buffer(c.rank(), len)).wait()
        });
        let inputs: Vec<Vec<f32>> = (0..world).map(|r| buffer(r, len)).collect();
        let expect = replay_rhd_all_reduce(&inputs, ReduceOp::Sum);
        for got in &results {
            assert_bitwise(got, &expect);
        }
    }
}

/// The recursive-halving path rejects indivisible buffers with the same
/// typed error as the ring, before any message moves.
#[test]
fn indivisible_rh_reduce_scatter_is_a_typed_error() {
    let mut policy = AlgoPolicy::ring_only();
    policy.force_rs = Some(SchedKind::ReduceScatterRh);
    let comms = forced_world(4, policy);
    let errs = spmd_world(comms, |c| {
        let g = ProcessGroup::new(vec![0, 1, 2, 3]);
        // 4 ranks, 7 elements: rejected up front.
        c.try_reduce_scatter(&g, &buffer(c.rank(), 7)).unwrap_err()
    });
    for e in errs {
        match e {
            CommError::InvalidBuffer { op, detail } => {
                assert_eq!(op, "reduce_scatter");
                assert!(detail.contains('7') && detail.contains('4'), "{detail}");
            }
            other => panic!("expected InvalidBuffer, got {other:?}"),
        }
    }
}

/// Drive one rank of a dry world through a collective and return the
/// kinds its recorded schedule stream contains.
fn recorded_kinds(world: usize, body: impl Fn(&Comm, &ProcessGroup)) -> Vec<SchedKind> {
    let comms = CommWorld::dry(world);
    let g = ProcessGroup::new((0..world).collect());
    body(&comms[0], &g);
    let streams = comms[0].schedule_streams().expect("dry worlds record");
    streams[0]
        .iter()
        .filter_map(|e| match e {
            SchedEvent::Issue(op) => Some(op.kind),
            _ => None,
        })
        .collect()
}

/// Under the default policy, the schedule plane records the algorithm
/// actually selected on both sides of every threshold — certified
/// against dry (symbolic) extraction, exactly what `axonn-verify` sees.
#[test]
fn default_policy_records_selected_kinds_across_thresholds() {
    let p = AlgoPolicy::default();

    // All-reduce: tree below/at ar_tree_max, RHD between, ring above
    // ar_rhd_max; non-pow2 groups fall back to ring above tree range.
    let ar = |world: usize, elems: usize| {
        recorded_kinds(world, |c, g| c.all_reduce(g, &mut vec![0.0; elems]))
    };
    assert_eq!(ar(4, p.ar_tree_max), vec![SchedKind::AllReduceTree]);
    assert_eq!(ar(4, p.ar_tree_max + 1), vec![SchedKind::AllReduceRhd]);
    assert_eq!(ar(4, p.ar_rhd_max), vec![SchedKind::AllReduceRhd]);
    assert_eq!(ar(4, p.ar_rhd_max + 1), vec![SchedKind::AllReduce]);
    assert_eq!(ar(3, p.ar_tree_max), vec![SchedKind::AllReduceTree]);
    assert_eq!(ar(3, p.ar_tree_max + 1), vec![SchedKind::AllReduce]);

    // Reduce-scatter: recursive halving below/at rs_rh_max on pow2
    // groups, ring otherwise.
    let rs = |world: usize, elems: usize| {
        recorded_kinds(world, |c, g| {
            c.reduce_scatter(g, &vec![0.0; elems]);
        })
    };
    assert_eq!(rs(4, p.rs_rh_max), vec![SchedKind::ReduceScatterRh]);
    assert_eq!(rs(4, p.rs_rh_max + 4), vec![SchedKind::ReduceScatter]);
    assert_eq!(rs(3, 3 * 1024), vec![SchedKind::ReduceScatter]);

    // All-gather: recursive doubling below/at ag_rd_max contributed
    // elements on pow2 groups, ring otherwise.
    let ag = |world: usize, shard: usize| {
        recorded_kinds(world, |c, g| {
            c.all_gather(g, &vec![0.0; shard]);
        })
    };
    assert_eq!(ag(4, p.ag_rd_max), vec![SchedKind::AllGatherRd]);
    assert_eq!(ag(4, p.ag_rd_max + 1), vec![SchedKind::AllGather]);
    assert_eq!(ag(3, 1024), vec![SchedKind::AllGather]);

    // Broadcast: tree below/at bcast_tree_max on any group size, chain
    // above.
    let bc = |world: usize, elems: usize| {
        recorded_kinds(world, |c, g| c.broadcast(g, 0, &mut vec![0.0; elems]))
    };
    assert_eq!(bc(4, p.bcast_tree_max), vec![SchedKind::BroadcastTree]);
    assert_eq!(bc(4, p.bcast_tree_max + 1), vec![SchedKind::Broadcast]);
    assert_eq!(bc(5, p.bcast_tree_max), vec![SchedKind::BroadcastTree]);
}

/// `AXONN_COLL_ALGO`-style specs parse into the same selections the
/// builder override produces — the A/B lever and the builder agree.
#[test]
fn parsed_ring_spec_matches_ring_only() {
    assert_eq!(AlgoPolicy::parse("ring").0, AlgoPolicy::ring_only());
    let (p, ignored) = AlgoPolicy::parse("all_reduce=rhd,broadcast=tree");
    assert!(ignored.is_empty(), "{ignored:?}");
    assert_eq!(p.force_ar, Some(SchedKind::AllReduceRhd));
    assert_eq!(p.force_bcast, Some(SchedKind::BroadcastTree));
    assert_eq!(p.force_rs, None);
}
