//! Tests for the two Section VI-A training-regime features: bf16 mixed
//! precision and activation checkpointing.

use axonn_collectives::{CommWorld, RingCostModel};
use axonn_core::{
    Activation, GridTopology, NetConfig, Network4d, OverlapConfig, Precision, SerialMlp,
};
use axonn_exec::{run_spmd, run_spmd_on};
use axonn_tensor::Matrix;
use std::sync::Arc;

const DIMS: [usize; 4] = [16, 32, 32, 16];
const SEED: u64 = 31;

fn batch() -> (Matrix, Matrix) {
    (
        Matrix::random(16, DIMS[0], 1.0, 7),
        Matrix::random(16, DIMS[3], 1.0, 8),
    )
}

fn run(gx: usize, gy: usize, gz: usize, gd: usize, cfg: NetConfig, steps: usize) -> Vec<f32> {
    let out = run_spmd(gx * gy * gz * gd, move |comm| {
        let grid = GridTopology::new(gx, gy, gz, gd, comm.rank());
        let mut net = Network4d::with_config(comm, grid, &DIMS, Activation::Gelu, SEED, cfg);
        let (x, t) = batch();
        (0..steps)
            .map(|_| net.train_step(&x, &t, 0.01))
            .collect::<Vec<f32>>()
    });
    out.into_iter().next().unwrap()
}

#[test]
fn checkpointing_is_numerically_identical() {
    // Recomputing activations repeats the exact same float operations, so
    // losses must match bit-for-bit.
    let plain = run(
        2,
        2,
        2,
        1,
        NetConfig {
            overlap: OverlapConfig::all(),
            ..Default::default()
        },
        4,
    );
    let ckpt = run(
        2,
        2,
        2,
        1,
        NetConfig {
            overlap: OverlapConfig::all(),
            activation_checkpointing: true,
            ..Default::default()
        },
        4,
    );
    assert_eq!(plain, ckpt);
}

#[test]
fn checkpointing_costs_extra_virtual_time() {
    let cost = Arc::new(RingCostModel::new(1e9, 1e8));
    let time_of = |ckpt: bool| -> f64 {
        let cost = cost.clone();
        let times = run_spmd_on(CommWorld::create_timed(8, cost), move |comm| {
            let grid = GridTopology::new(2, 1, 4, 1, comm.rank());
            let mut net = Network4d::with_config(
                comm,
                grid,
                &DIMS,
                Activation::Gelu,
                SEED,
                NetConfig {
                    activation_checkpointing: ckpt,
                    ..Default::default()
                },
            );
            let (x, t) = batch();
            net.train_step(&x, &t, 0.01);
            net.comm().now()
        });
        times.into_iter().fold(0.0, f64::max)
    };
    let plain = time_of(false);
    let ckpt = time_of(true);
    assert!(
        ckpt > plain,
        "checkpointing should pay recompute time: {ckpt} vs {plain}"
    );
}

#[test]
fn bf16_mixed_precision_tracks_f32_training() {
    let f32_losses = run(2, 1, 2, 1, NetConfig::default(), 6);
    let bf16_losses = run(
        2,
        1,
        2,
        1,
        NetConfig {
            precision: Precision::Bf16Mixed,
            ..Default::default()
        },
        6,
    );
    // Same trajectory within bf16 rounding (relative ~1%).
    for (a, b) in f32_losses.iter().zip(&bf16_losses) {
        let rel = (a - b).abs() / a.max(1e-3);
        assert!(rel < 0.05, "f32 {a} vs bf16 {b}");
    }
    // And it actually learns.
    assert!(bf16_losses.last().unwrap() < &bf16_losses[0]);
    // But it is not bit-identical (the rounding really happened).
    assert_ne!(f32_losses, bf16_losses);
}

#[test]
fn bf16_parallel_matches_bf16_expectations_across_grids() {
    // Mixed precision must behave the same on different grids (the
    // rounding points are the same logical tensors).
    let a = run(
        2,
        1,
        1,
        1,
        NetConfig {
            precision: Precision::Bf16Mixed,
            ..Default::default()
        },
        3,
    );
    let b = run(
        1,
        1,
        2,
        1,
        NetConfig {
            precision: Precision::Bf16Mixed,
            ..Default::default()
        },
        3,
    );
    for (x, y) in a.iter().zip(&b) {
        let rel = (x - y).abs() / x.max(1e-3);
        assert!(rel < 0.02, "grid-dependent bf16 drift: {x} vs {y}");
    }
}

#[test]
fn serial_reference_still_matched_with_all_features_on() {
    let (x, t) = batch();
    let mut serial = SerialMlp::new(&DIMS, Activation::Gelu, SEED);
    let s: Vec<f32> = (0..4).map(|_| serial.train_step(&x, &t, 0.01)).collect();
    let p = run(
        2,
        2,
        1,
        2,
        NetConfig {
            overlap: OverlapConfig::all(),
            kernel_tuning: true,
            activation_checkpointing: true,
            ..Default::default()
        },
        4,
    );
    for (a, b) in s.iter().zip(&p) {
        let rel = (a - b).abs() / a.max(1e-3);
        assert!(rel < 2e-3, "serial {a} vs full-featured parallel {b}");
    }
}
