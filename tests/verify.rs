//! Workspace-level verification integration: negative-path defect
//! seeding against real extracted schedules (exact rank/op-index
//! diagnostics), property-based "verifier-accepted implies run_spmd
//! completes", and cross-plane agreement between the dry-extracted
//! schedule and the simulator's mirrored collective sequence.

use axonn::collectives::{RingCostModel, SchedEvent};
use axonn::engine::{
    default_mlp_shape, default_transformer_shape, extract_mlp_schedules,
    extract_transformer_schedules, transformer_grid_fits, Activation, GridTopology, Network4d,
    OverlapConfig, TransformerStack,
};
use axonn::exec::run_spmd;
use axonn::perfmodel::Grid4d;
use axonn::sim::{simulate_mlp_step, MlpStepConfig};
use axonn::tensor::Matrix;
use axonn::trace::{EventDetail, Stream};
use axonn::verify::{check_schedules, inject, DefectKind, Diagnostic};
use proptest::prelude::*;

/// The `(group, seq)`-keyed wait and its matching async issue in a clean
/// stream — the pair the reorder/missing-wait defects manipulate.
fn first_wait_and_issue(stream: &[SchedEvent]) -> (usize, usize) {
    let w = stream
        .iter()
        .position(|e| matches!(e, SchedEvent::Wait { .. }))
        .expect("stream has a wait");
    let SchedEvent::Wait { group_key, seq } = &stream[w] else {
        unreachable!()
    };
    let i = (0..w)
        .position(|i| match &stream[i] {
            SchedEvent::Issue(op) => !op.blocking && op.group_key == *group_key && op.seq == *seq,
            _ => false,
        })
        .expect("wait has a matching issue");
    (i, w)
}

#[test]
fn count_mismatch_is_named_at_op_zero_on_the_corrupted_rank() {
    let (dims, batch) = default_mlp_shape(4);
    let mut streams = extract_mlp_schedules(2, 2, 1, 1, &dims, batch, OverlapConfig::all());
    assert!(check_schedules(&streams).is_ok(), "clean schedule rejected");

    assert!(inject(&mut streams, 1, DefectKind::CountMismatch));
    let report = check_schedules(&streams);
    assert!(!report.is_ok());
    // The first issue of a stream is necessarily op #0 of its own
    // communicator, so the diagnostic must name index 0 and rank 1.
    assert!(
        report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::Mismatch {
                index: 0,
                rank_a,
                rank_b,
                ..
            } if *rank_a == 1 || *rank_b == 1
        )),
        "no op-#0 mismatch naming rank 1: {report}"
    );
}

#[test]
fn missing_wait_is_named_at_the_orphaned_issue_index() {
    let (dims, batch) = default_mlp_shape(4);
    let mut streams = extract_mlp_schedules(2, 2, 1, 1, &dims, batch, OverlapConfig::all());
    let (issue_at, _) = first_wait_and_issue(&streams[1]);

    assert!(inject(&mut streams, 1, DefectKind::MissingWait));
    let report = check_schedules(&streams);
    assert!(!report.is_ok());
    assert!(
        report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::UnwaitedHandle { rank: 1, issue_index, .. } if *issue_index == issue_at
        )),
        "no unwaited-handle diagnostic at rank 1 event #{issue_at}: {report}"
    );
}

#[test]
fn reorder_without_divergent_pair_becomes_wait_before_issue() {
    // On a pure tensor-parallel grid every communicator repeats one
    // (kind, elems) shape, so the injector falls back to swapping a wait
    // ahead of its own issue; the lint must name the landing index.
    let (dims, batch) = default_mlp_shape(4);
    let mut streams = extract_mlp_schedules(2, 2, 1, 1, &dims, batch, OverlapConfig::all());
    let (issue_at, _) = first_wait_and_issue(&streams[1]);

    assert!(inject(&mut streams, 1, DefectKind::Reorder));
    let report = check_schedules(&streams);
    assert!(!report.is_ok());
    assert!(
        report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::WaitBeforeIssue { rank: 1, event_index, .. } if *event_index == issue_at
        )),
        "no wait-before-issue diagnostic at rank 1 event #{issue_at}: {report}"
    );
}

#[test]
fn reorder_with_divergent_pair_is_a_matching_mismatch() {
    // With gz = 2 each z-communicator interleaves all-gathers and
    // reduce-scatters, so the injector finds a same-communicator
    // differing pair and the matching checker names the divergence.
    let (dims, batch) = default_mlp_shape(4);
    let mut streams = extract_mlp_schedules(2, 1, 2, 1, &dims, batch, OverlapConfig::all());
    assert!(check_schedules(&streams).is_ok());

    assert!(inject(&mut streams, 1, DefectKind::Reorder));
    let report = check_schedules(&streams);
    assert!(!report.is_ok());
    assert!(
        report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::Mismatch { rank_a, rank_b, left: Some(_), right: Some(_), .. }
                if *rank_a == 1 || *rank_b == 1
        )),
        "no matching mismatch naming rank 1: {report}"
    );
}

#[test]
fn transformer_defects_are_rejected_too() {
    let shape = default_transformer_shape(4);
    // All six defect families against real extracted streams: the
    // data-parallel dimension gives the gradsync overlap pipeline, whose
    // tagged pooled async issues are the race/slab injection sites.
    for defect in DefectKind::ALL {
        let mut streams = extract_transformer_schedules(1, 2, 1, 2, &shape, OverlapConfig::all());
        assert!(check_schedules(&streams).is_ok(), "clean schedule rejected");
        assert!(inject(&mut streams, 1, defect), "{defect:?} applicable");
        assert!(
            !check_schedules(&streams).is_ok(),
            "{defect:?} not rejected"
        );
    }
}

#[test]
fn injected_overlap_race_names_rank_op_lane_and_buffer() {
    let shape = default_transformer_shape(4);
    let mut streams = extract_transformer_schedules(1, 2, 1, 2, &shape, OverlapConfig::all());
    assert!(inject(&mut streams, 1, DefectKind::OverlapRace));
    // The injector writes to the first async issue's buffer right after
    // the issue; recover the expected site from the corrupted stream.
    let (write_index, buf) = streams[1]
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e {
            SchedEvent::BufWrite { buf, .. } => Some((i, *buf)),
            _ => None,
        })
        .expect("injected write present");

    let report = check_schedules(&streams);
    let race = report
        .diagnostics
        .iter()
        .find_map(|d| match d {
            Diagnostic::OverlapRace {
                rank,
                write_index: w,
                buf: b,
                ..
            } => Some((*rank, *w, *b)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no overlap-race diagnostic: {report}"));
    assert_eq!(race, (1, write_index, buf));
    // The rendered diagnostic names every coordinate of the defect.
    let text = report.to_string();
    assert!(
        text.contains(&format!(
            "rank 1 event #{write_index}: write to buffer {buf} (injected-write) races with async"
        )) && text.contains("lane ")
            && text.contains("the pending collective may still read or write the buffer"),
        "incomplete race diagnostic: {text}"
    );
}

#[test]
fn injected_early_recycle_names_the_unreleased_slab() {
    let shape = default_transformer_shape(4);
    let mut streams = extract_transformer_schedules(1, 2, 1, 2, &shape, OverlapConfig::all());
    assert!(inject(&mut streams, 1, DefectKind::EarlyRecycle));
    let (recycle_index, slab) = streams[1]
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e {
            SchedEvent::SlabRecycle { slab } => Some((i, *slab)),
            _ => None,
        })
        .expect("injected recycle present");

    let report = check_schedules(&streams);
    assert!(
        report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::EarlyRecycle { rank: 1, recycle_index: r, slab: s, .. }
                if *r == recycle_index && *s == slab
        )),
        "no early-recycle diagnostic at rank 1 event #{recycle_index}: {report}"
    );
    assert!(
        report.to_string().contains(&format!(
            "rank 1 event #{recycle_index}: slab {slab} recycled before async"
        )),
        "wrong wording: {report}"
    );
}

#[test]
fn injected_slab_aliasing_names_both_ops() {
    let shape = default_transformer_shape(4);
    let mut streams = extract_transformer_schedules(1, 2, 1, 2, &shape, OverlapConfig::all());
    assert!(inject(&mut streams, 1, DefectKind::SlabReuse));

    let report = check_schedules(&streams);
    let found = report
        .diagnostics
        .iter()
        .find_map(|d| match d {
            Diagnostic::SlabReuse { rank, slab, .. } => Some((*rank, *slab)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no slab-reuse diagnostic: {report}"));
    assert_eq!(found.0, 1);
    let text = report.to_string();
    assert!(
        text.contains("aliased by concurrent async ops") || text.contains("reused after recycle"),
        "wrong wording: {text}"
    );
}

#[test]
fn serve_decode_schedule_certifies_with_timed_checks() {
    for tp in [1usize, 2, 4] {
        let streams = axonn::serve::extract_tp_decode_schedule(tp, 2, 3);
        let report = check_schedules(&streams);
        assert!(report.is_ok(), "tp={tp}: {report}");
        let names: Vec<&str> = report.timings_us.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["lints", "matching", "deadlock", "hb", "slab"]);
    }
}

#[test]
fn serve_schedule_matches_sim_decode_mirror() {
    // Serving-plane twin of the MLP cross-plane test below: the dry
    // extractor and the perf-model mirror must replay the same decode
    // collective sequence.
    use axonn::sim::{simulate_tp_decode, TpDecodeConfig};
    for tp in [2usize, 4] {
        let (layers, tokens) = (2usize, 3usize);
        let streams = axonn::serve::extract_tp_decode_schedule(tp, layers, tokens);
        let extracted: Vec<&'static str> = streams[0]
            .iter()
            .filter_map(|e| match e {
                SchedEvent::Issue(op) => Some(op.kind.label()),
                _ => None,
            })
            .collect();

        let trace = simulate_tp_decode(
            &TpDecodeConfig {
                tp,
                layers,
                dim: 8 * tp, // the extractor's synthetic checkpoint shape
                vocab: 16,
                tokens,
            },
            &RingCostModel::new(1e8, 1e8),
        );
        let mirrored: Vec<&'static str> = trace
            .stream_events(Stream::Compute)
            .filter_map(|e| match &e.detail {
                EventDetail::Collective { op, .. } => Some(op.label()),
                EventDetail::Issue { op, .. } => Some(op.label()),
                _ => None,
            })
            .collect();
        assert_eq!(extracted, mirrored, "planes disagree on tp={tp}");
    }
}

#[test]
fn dry_extracted_schedule_matches_sim_collective_sequence() {
    // Rank 0's dry-extracted issue order must equal the performance
    // plane's mirrored collective order: both planes claim to replay the
    // same Algorithm-1 control flow, and this pins them together.
    for (gx, gy, gz, gd) in [(2usize, 1usize, 2usize, 1usize), (1, 2, 2, 2)] {
        let dims = vec![8usize, 8, 8];
        let batch = 8usize;
        let streams = extract_mlp_schedules(gx, gy, gz, gd, &dims, batch, OverlapConfig::all());
        let extracted: Vec<&'static str> = streams[0]
            .iter()
            .filter_map(|e| match e {
                SchedEvent::Issue(op) => Some(op.kind.label()),
                _ => None,
            })
            .collect();

        let trace = simulate_mlp_step(
            &MlpStepConfig {
                gx,
                gy,
                gz,
                gd,
                dims,
                batch_rows: batch,
                oar: true,
                ors: true,
                oag: true,
                kernel_tuning: false,
                activation_checkpointing: false,
            },
            &RingCostModel::new(1e8, 1e8),
        );
        let mirrored: Vec<&'static str> = trace
            .stream_events(Stream::Compute)
            .filter_map(|e| match &e.detail {
                EventDetail::Collective { op, .. } => Some(op.label()),
                EventDetail::Issue { op, .. } => Some(op.label()),
                _ => None,
            })
            .collect();
        assert_eq!(
            extracted, mirrored,
            "planes disagree on ({gx},{gy},{gz},{gd})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Soundness of the certificate: any randomly chosen grid whose
    /// extracted MLP schedule the verifier accepts must complete a real
    /// `run_spmd` training step (the exec teardown re-checks the live
    /// streams, so a hang or mismatch would fail here).
    #[test]
    fn accepted_mlp_configs_complete_under_run_spmd(
        world_pick in 0usize..3,
        grid_pick in 0u64..1_000,
        seed in 0u64..500,
    ) {
        let world = [2usize, 4, 8][world_pick];
        let grids = Grid4d::enumerate(world);
        let g = grids[(grid_pick as usize) % grids.len()];
        let (dims, batch) = default_mlp_shape(world);

        let streams =
            extract_mlp_schedules(g.gx, g.gy, g.gz, g.gd, &dims, batch, OverlapConfig::all());
        let report = check_schedules(&streams);
        prop_assert!(report.is_ok(), "verifier rejected {g:?}: {report}");

        let dims2 = dims.clone();
        let losses = run_spmd(world, move |comm| {
            let grid = GridTopology::new(g.gx, g.gy, g.gz, g.gd, comm.rank());
            let mut net = Network4d::new(
                comm,
                grid,
                &dims2,
                Activation::Gelu,
                seed,
                OverlapConfig::all(),
                false,
            );
            let x = Matrix::random(batch, dims2[0], 1.0, seed + 1);
            let t = Matrix::random(batch, *dims2.last().unwrap(), 1.0, seed + 2);
            net.train_step(&x, &t, 0.01)
        });
        prop_assert!(losses.iter().all(|l| l.is_finite()));
    }

    /// Same soundness property for the transformer stack.
    #[test]
    fn accepted_transformer_configs_complete_under_run_spmd(
        grid_pick in 0u64..1_000,
        seed in 0u64..500,
    ) {
        let world = 4usize;
        let shape = default_transformer_shape(world);
        let grids: Vec<Grid4d> = Grid4d::enumerate(world)
            .into_iter()
            .filter(|g| transformer_grid_fits(g.gx, g.gy, g.gz, g.gd, &shape))
            .collect();
        let g = grids[(grid_pick as usize) % grids.len()];

        let streams =
            extract_transformer_schedules(g.gx, g.gy, g.gz, g.gd, &shape, OverlapConfig::all());
        let report = check_schedules(&streams);
        prop_assert!(report.is_ok(), "verifier rejected {g:?}: {report}");

        let n_tokens = shape.seqs * shape.seq_len;
        let tokens: Vec<usize> = (0..n_tokens).map(|i| (i * 5 + 1) % shape.vocab).collect();
        let targets: Vec<usize> = (0..n_tokens).map(|i| (i * 3 + 2) % shape.vocab).collect();
        let losses = run_spmd(world, move |comm| {
            let grid = GridTopology::new(g.gx, g.gy, g.gz, g.gd, comm.rank());
            let mut stack = TransformerStack::new(
                &grid,
                shape.vocab,
                shape.hidden,
                shape.n_heads,
                shape.n_layers,
                shape.seq_len,
                seed,
                OverlapConfig::all(),
            );
            stack.train_step(&comm, &grid, &tokens, &targets, 0.01)
        });
        prop_assert!(losses.iter().all(|l| l.is_finite()));
    }
}
