//! What one run produced: metrics, per-layer metrics, output checks and
//! failure counts, printed as the run's final JSON line.

use crate::spans::Spans;

/// End-to-end metrics every untraced run prints, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [&str; 10] = [
    "tokens_per_s",
    "step_p50_ms",
    "step_p90_ms",
    "setup_s",
    "ttft_p50_ms",
    "ttft_p99_ms",
    "tpot_p50_ms",
    "tpot_p95_ms",
    "slo_attainment",
    "capacity_tokens_per_s",
];

/// Per-layer metrics every traced run prints. A layer off a workload's
/// path reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("tensor.gemm_ms", "ms"),
    ("tensor.gemm_nn_ms", "ms"),
    ("tensor.gemm_nt_ms", "ms"),
    ("tensor.gemm_tn_ms", "ms"),
    ("tensor.flops_per_step", "flop"),
    ("tensor.gflops", "Gflop/s"),
    ("tensor.peak_gflops", "Gflop/s"),
    ("tensor.flop_ms", "ms"),
    ("tensor.overhead_ms", "ms"),
    ("tensor.packed_bytes_per_step", "bytes"),
    ("collectives.calls_per_step", "count"),
    ("collectives.bytes_per_step", "bytes"),
    ("collectives.calls_per_step.all_gather", "count"),
    ("collectives.bytes_per_step.all_gather", "bytes"),
    ("collectives.calls_per_step.reduce_scatter", "count"),
    ("collectives.bytes_per_step.reduce_scatter", "bytes"),
    ("collectives.calls_per_step.all_reduce", "count"),
    ("collectives.bytes_per_step.all_reduce", "bytes"),
    ("collectives.replay_ms", "ms"),
    ("collectives.pool_hit_ratio", "fraction"),
    ("collectives.alloc_bytes_per_step", "bytes"),
    ("core.block_fwd_ms", "ms"),
    ("core.block_bwd_ms", "ms"),
    ("core.embed_ms", "ms"),
    ("core.head_loss_ms", "ms"),
    ("core.gradsync_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("exec.spawn_ms", "ms"),
    ("lm.prefill_short_ms", "ms"),
    ("lm.prefill_long_ms", "ms"),
    ("lm.decode_step_ms", "ms"),
    ("lm.gemm_ms_per_token", "ms"),
    ("serve.step_p50_ms", "ms"),
    ("serve.step_p99_ms", "ms"),
    ("serve.batch_streams", "count"),
    ("serve.tokens_per_step", "count"),
    ("serve.queue_wait_steps", "count"),
    ("serve.queue_depth", "count"),
    ("serve.rejected", "count"),
    ("serve.evicted", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.ttft_queue_ms", "ms"),
    ("serve.ttft_prefill_ms", "ms"),
    ("bench.step_untraced_ms", "ms"),
    ("bench.step_traced_ms", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.spans", "count"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, passed: bool, detail: String) -> Self {
        Check {
            name,
            passed,
            detail,
        }
    }
}

pub struct Outcome {
    /// Workload parameters, for the stamp.
    pub params: String,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// A traced run's spans, written out when the run ends.
    pub spans: Option<Spans>,
}

impl Outcome {
    pub fn new(params: String) -> Self {
        Outcome {
            params,
            checks: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            spans: None,
        }
    }

    pub fn check(&mut self, c: Check) {
        self.checks.push(c);
    }

    pub fn note(&mut self, n: String) {
        self.notes.push(n);
    }

    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push(Metric::new(name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
            && self
                .metrics
                .iter()
                .chain(&self.layers)
                .all(|m| m.value.is_finite())
    }

    /// The final JSON line: `correct`, `attempted`, `failed` and the
    /// metric set of the run kind, each declared metric exactly once.
    pub fn result_json(&self, trace: bool) -> String {
        let declared: Vec<(&str, &str)> = if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|n| (*n, "")).collect()
        };
        let measured = if trace { &self.layers } else { &self.metrics };
        for m in measured {
            assert!(
                declared.iter().any(|(n, _)| *n == m.name),
                "metric {} is not declared",
                m.name
            );
        }
        let body: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let (value, unit) = match measured.iter().find(|m| m.name == *name) {
                    Some(m) => (m.value, m.unit),
                    // Only per-layer metrics may be off a workload's path.
                    None if trace => (0.0, *unit),
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn declared_metrics_match_the_manifest() {
        let names = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|(n, _)| *n));
        for name in names {
            assert!(
                MANIFEST.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        let declared = MANIFEST.matches("\"name\": ").count();
        assert_eq!(declared, 3 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn traced_result_fills_off_path_layers_with_zero() {
        let mut o = Outcome::new(String::new());
        o.layer("tensor.gemm_ms", 1.5, "ms");
        let line = o.result_json(true);
        assert!(line.contains("\"tensor.gemm_ms\": {\"value\": 1.5"));
        assert!(line.contains("\"serve.evicted\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }
}
