//! Ablations of AxoNN's design choices (beyond the paper's own Fig. 7):
//!
//! 1. **Z-sharding of W vs Agarwal's replication** (the Section V-A
//!    modification): per-GCD memory on Frontier across model sizes.
//! 2. **bf16 vs fp32 communication**: predicted per-iteration
//!    communication time if tensors moved at 4 bytes/element.
//! 3. **Ring vs recursive-doubling all-reduce**: the latency/bandwidth
//!    crossover that justifies Assumption-1 for the paper's (large)
//!    messages.

use axonn_bench::{emit_json, print_table, series};
use axonn_collectives::{CostModel, RingCostModel, SchedKind};
use axonn_perfmodel::{estimate_memory, estimate_memory_replicated_w, network_comm_time, Grid4d};
use axonn_sim::pick_best_config;
use axonn_sim::SimOptions;
use serde::Serialize;

#[derive(Serialize)]
struct MemoryRow {
    model: String,
    grid: String,
    sharded_gb: f64,
    replicated_gb: f64,
    saving_factor: f64,
}

fn main() {
    let (machine, db) = series::machine_with_db("Frontier");
    let batch = series::headline_batch();

    // --- 1. Z-sharding vs replication ---
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (billions, gcds) in [(20usize, 2048usize), (40, 4096), (80, 8192)] {
        let model = axonn_gpt::model_by_billions(billions);
        let (grid, _) =
            pick_best_config(&machine, &db, &model, batch, gcds, SimOptions::full(), 10);
        let sharded = estimate_memory(&model, grid, batch).total() / 1e9;
        let replicated = estimate_memory_replicated_w(&model, grid, batch).total() / 1e9;
        rows.push(vec![
            model.name.clone(),
            format!("{grid}"),
            format!("{sharded:.1} GB"),
            format!("{replicated:.1} GB"),
            format!("{:.1}x", replicated / sharded),
            if replicated > 64.0 && sharded <= 64.0 {
                "sharding makes it fit".into()
            } else {
                String::new()
            },
        ]);
        json_rows.push(MemoryRow {
            model: model.name.clone(),
            grid: format!("{grid}"),
            sharded_gb: sharded,
            replicated_gb: replicated,
            saving_factor: replicated / sharded,
        });
    }
    print_table(
        "Ablation 1 — per-GCD memory: Z-sharded Ŵ (AxoNN) vs replicated W (Agarwal)",
        &[
            "model",
            "config",
            "sharded",
            "replicated",
            "factor",
            "note (64 GB GCDs)",
        ],
        &rows,
    );

    // --- 2. bf16 vs fp32 communication ---
    let model = axonn_gpt::model_by_billions(40);
    let grid = Grid4d::new(8, 2, 16, 16); // 4096 GCDs
    let bf16 = network_comm_time(&machine, &db, grid, &model, batch);
    // fp32 moves exactly twice the bytes in every term.
    let fp32 = 2.0 * bf16;
    print_table(
        "Ablation 2 — communicated precision (GPT-40B, 4,096 GCDs)",
        &["precision", "predicted comm/iter"],
        &[
            vec!["bf16 (paper)".into(), format!("{bf16:.2} s")],
            vec!["fp32".into(), format!("{fp32:.2} s")],
        ],
    );

    // --- 3. Ring vs recursive doubling ---
    let cost = RingCostModel::new(1.0, 100.0e9).with_latency(10.0e-6);
    let mut rd_rows = Vec::new();
    for bytes_exp in [10u32, 14, 18, 22, 26, 30] {
        let bytes = 2f64.powi(bytes_exp as i32);
        let ring = cost.collective_seconds(SchedKind::AllReduce, 64, bytes);
        let rd = cost.collective_seconds(SchedKind::AllReduceRd, 64, bytes);
        rd_rows.push(vec![
            format!("{:.0} KiB", bytes / 1024.0),
            format!("{:.1} µs", ring * 1e6),
            format!("{:.1} µs", rd * 1e6),
            if rd < ring {
                "recursive doubling"
            } else {
                "ring"
            }
            .into(),
        ]);
    }
    print_table(
        "Ablation 3 — all-reduce algorithm on 64 ranks (β=100 GB/s, α=10 µs)",
        &["message", "ring", "recursive doubling", "winner"],
        &rd_rows,
    );
    println!("\nThe paper's gradient buckets are hundreds of MB: squarely in the ring regime,");
    println!("which is why Assumption-1 models every collective as a ring.");

    emit_json("ablation_design", &json_rows);
}
