//! Workspace-level integration: the full 4D stack — grid, collectives,
//! Algorithm 1, overlap, kernel tuning, data parallelism, virtual time —
//! exercised together and checked against the serial reference.

use axonn::collectives::{CommWorld, RingCostModel};
use axonn::engine::{Activation, GridTopology, Network4d, OverlapConfig, SerialMlp};
use axonn::exec::{run_spmd, run_spmd_on};
use axonn::tensor::Matrix;
use std::sync::Arc;

const DIMS: [usize; 4] = [16, 32, 32, 16];
const SEED: u64 = 99;

fn batch() -> (Matrix, Matrix) {
    (
        Matrix::random(16, DIMS[0], 1.0, 1),
        Matrix::random(16, DIMS[3], 1.0, 2),
    )
}

#[test]
fn sixteen_rank_full_4d_training_matches_serial() {
    let (x, t) = batch();
    let mut serial = SerialMlp::new(&DIMS, Activation::Gelu, SEED);
    let serial_losses: Vec<f32> = (0..4).map(|_| serial.train_step(&x, &t, 0.01)).collect();

    let losses = run_spmd(16, move |comm| {
        let grid = GridTopology::new(2, 2, 2, 2, comm.rank());
        let mut net = Network4d::new(
            comm,
            grid,
            &DIMS,
            Activation::Gelu,
            SEED,
            OverlapConfig::all(),
            true,
        );
        let (x, t) = batch();
        (0..4)
            .map(|_| net.train_step(&x, &t, 0.01))
            .collect::<Vec<f32>>()
    });
    for (s, p) in serial_losses.iter().zip(&losses[0]) {
        assert!(((s - p) / s).abs() < 2e-3, "serial {s} vs parallel {p}");
    }
}

#[test]
fn overlap_reduces_virtual_batch_time() {
    // Same computation, timed world: the OAR/ORS/OAG schedule must give a
    // strictly smaller virtual clock than the blocking schedule.
    let cost = Arc::new(RingCostModel::new(5.0e9, 1.0e9));
    let run = |overlap: OverlapConfig| -> f64 {
        let cost = cost.clone();
        let times = run_spmd_on(CommWorld::create_timed(8, cost), move |comm| {
            let grid = GridTopology::new(2, 1, 4, 1, comm.rank());
            let mut net = Network4d::new(comm, grid, &DIMS, Activation::Gelu, SEED, overlap, false);
            let (x, t) = batch();
            for _ in 0..2 {
                net.train_step(&x, &t, 0.01);
            }
            net.comm().now()
        });
        times.into_iter().fold(0.0, f64::max)
    };
    let blocking = run(OverlapConfig::default());
    let overlapped = run(OverlapConfig::all());
    assert!(
        overlapped < blocking,
        "overlap {overlapped} should beat blocking {blocking}"
    );
}

#[test]
fn virtual_time_is_deterministic() {
    let cost = Arc::new(RingCostModel::new(1.0e9, 1.0e8).with_latency(1e-6));
    let run = || -> Vec<f64> {
        let cost = cost.clone();
        run_spmd_on(CommWorld::create_timed(4, cost), move |comm| {
            let grid = GridTopology::new(2, 1, 2, 1, comm.rank());
            let mut net = Network4d::new(
                comm,
                grid,
                &DIMS,
                Activation::Relu,
                SEED,
                OverlapConfig::all(),
                false,
            );
            let (x, t) = batch();
            net.train_step(&x, &t, 0.01);
            net.comm().now()
        })
    };
    assert_eq!(run(), run());
}

#[test]
fn kernel_tuner_reports_choices_after_first_batch() {
    let tuned = run_spmd(4, move |comm| {
        let grid = GridTopology::new(2, 1, 2, 1, comm.rank());
        let mut net = Network4d::new(
            comm,
            grid,
            &DIMS,
            Activation::Gelu,
            SEED,
            OverlapConfig::default(),
            true,
        );
        let (x, t) = batch();
        net.train_step(&x, &t, 0.01);
        net.tuned_layers()
    });
    // Every layer's dW kernel gets tuned during the first batch.
    assert!(tuned.iter().all(|&n| n == DIMS.len() - 1));
}
