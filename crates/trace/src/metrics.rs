//! Metrics registry: monotonic counters and fixed-bucket histograms,
//! plus the standard aggregation from finished traces.

use std::collections::BTreeMap;

use serde::{Serialize, Value};

use crate::event::EventDetail;
use crate::sink::RankTrace;

/// Fixed-bucket histogram. Bucket `i` counts observations `<= bounds[i]`;
/// one implicit overflow bucket counts the rest. Non-finite observations
/// (NaN, ±inf) are counted in `quarantined` but never touch the buckets
/// or the sum, so one poisoned measurement cannot corrupt an aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    total: u64,
    quarantined: u64,
}

impl Histogram {
    /// `bounds` must be strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            sum: 0.0,
            total: 0,
            quarantined: 0,
        }
    }

    /// Rebuild a histogram from raw parts (used by the live registry to
    /// snapshot its atomic shards into the plain form).
    pub fn from_parts(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        sum: f64,
        total: u64,
        quarantined: u64,
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert_eq!(counts.len(), bounds.len() + 1, "counts/bounds mismatch");
        Histogram {
            bounds,
            counts,
            sum,
            total,
            quarantined,
        }
    }

    pub fn observe(&mut self, value: f64) {
        self.total += 1;
        if !value.is_finite() {
            self.quarantined += 1;
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all *finite* observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Non-finite observations counted but excluded from buckets/sum.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Merge another histogram with identical bounds into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.total += other.total;
        self.quarantined += other.quarantined;
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the `q`-th finite observation. Returns `None`
    /// when no finite observation has been recorded; observations that
    /// landed in the overflow bucket yield `f64::INFINITY` (the bucket
    /// has no upper bound).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let finite = self.total - self.quarantined;
        if finite == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * finite as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(f64::INFINITY));
            }
        }
        Some(f64::INFINITY)
    }
}

impl Serialize for Histogram {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("bounds".into(), self.bounds.serialize()),
            ("counts".into(), self.counts.serialize()),
            ("sum".into(), self.sum.serialize()),
            ("total".into(), self.total.serialize()),
            ("quarantined".into(), self.quarantined.serialize()),
        ])
    }
}

/// Named counters + histograms. Keys are sorted (BTreeMap), so the JSON
/// form is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Byte-size bucket bounds (64 B .. 256 MiB, powers of 16).
pub const BYTES_BOUNDS: [f64; 5] = [64.0, 1024.0, 16384.0, 262_144.0, 4_194_304.0];
/// Seconds bucket bounds (1 µs .. 10 s, decades).
pub const SECONDS_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds.to_vec()))
            .observe(value);
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The standard aggregation: bytes moved per collective op, GEMM
    /// flops per mode, and collective op-time histograms, across all
    /// ranks of a run.
    pub fn from_traces(traces: &[RankTrace]) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for trace in traces {
            for ev in &trace.events {
                match &ev.detail {
                    EventDetail::Collective {
                        op,
                        bytes,
                        op_seconds,
                        ..
                    } => {
                        reg.counter_add(&format!("collective.{}.calls", op.label()), 1);
                        reg.counter_add(&format!("collective.{}.bytes", op.label()), *bytes);
                        reg.observe(
                            &format!("collective.{}.bytes_hist", op.label()),
                            &BYTES_BOUNDS,
                            *bytes as f64,
                        );
                        reg.observe(
                            &format!("collective.{}.seconds_hist", op.label()),
                            &SECONDS_BOUNDS,
                            *op_seconds,
                        );
                        // Transport-layer counters from the pooled
                        // transport; zero-valued adds still create the
                        // keys so reports can rely on their presence.
                        reg.counter_add(
                            &format!("collective.{}.chunks", op.label()),
                            ev.xfer.chunks as u64,
                        );
                        reg.counter_add(
                            &format!("collective.{}.alloc_bytes", op.label()),
                            ev.xfer.alloc_bytes,
                        );
                        reg.counter_add(
                            &format!("collective.{}.pool_hits", op.label()),
                            ev.xfer.pool_hits,
                        );
                        reg.counter_add(
                            &format!("collective.{}.pool_misses", op.label()),
                            ev.xfer.pool_misses,
                        );
                    }
                    EventDetail::Gemm {
                        mode,
                        flops,
                        packed_bytes,
                        panels,
                    } => {
                        reg.counter_add(&format!("gemm.{mode}.calls"), 1);
                        reg.counter_add(&format!("gemm.{mode}.flops"), *flops as u64);
                        reg.counter_add(&format!("gemm.{mode}.packed_bytes"), *packed_bytes);
                        reg.counter_add(&format!("gemm.{mode}.panels"), *panels as u64);
                    }
                    EventDetail::OverlapWait { .. } => {
                        reg.counter_add("overlap.waits", 1);
                        reg.observe(
                            "overlap.wait_seconds_hist",
                            &SECONDS_BOUNDS,
                            ev.t_end - ev.t_start,
                        );
                    }
                    EventDetail::TunerDecision { .. } => {
                        reg.counter_add("tuner.decisions", 1);
                    }
                    _ => {}
                }
            }
        }
        reg
    }
}

impl Serialize for MetricsRegistry {
    fn serialize(&self) -> Value {
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        );
        Value::Object(vec![
            ("counters".into(), counters),
            ("histograms".into(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SchedKind, Stream};
    use crate::sink::TraceSink;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 105.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_bad_bounds() {
        Histogram::new(vec![1.0, 1.0]);
    }

    #[test]
    fn histogram_quarantines_non_finite() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        h.observe(5.0);
        // All four observations counted, but only the finite one reached
        // a bucket or the sum.
        assert_eq!(h.count(), 4);
        assert_eq!(h.quarantined(), 3);
        assert_eq!(h.bucket_counts(), &[0, 1, 0]);
        assert!((h.sum() - 5.0).abs() < 1e-12);
        assert!(h.sum().is_finite());
        assert_eq!(h.quantile(0.5), Some(10.0));
    }

    #[test]
    fn quantile_on_empty_histogram_is_none() {
        let h = Histogram::new(vec![1.0, 10.0]);
        assert_eq!(h.quantile(0.5), None);
        // A histogram holding only quarantined values has no finite
        // observations either.
        let mut q = Histogram::new(vec![1.0, 10.0]);
        q.observe(f64::NAN);
        assert_eq!(q.quantile(0.5), None);
    }

    #[test]
    fn quantile_walks_buckets() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        for _ in 0..8 {
            h.observe(0.5);
        }
        h.observe(5.0);
        h.observe(500.0); // overflow bucket
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.9), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::new(vec![1.0, 10.0]);
        let mut b = Histogram::new(vec![1.0, 10.0]);
        a.observe(0.5);
        b.observe(5.0);
        b.observe(f64::NAN);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.quarantined(), 1);
        assert_eq!(a.bucket_counts(), &[1, 1, 0]);
    }

    #[test]
    fn aggregates_bytes_and_flops_from_traces() {
        let sink = TraceSink::new(0);
        sink.record_scoped(
            Stream::Compute,
            0.0,
            1.0,
            crate::event::EventDetail::Collective {
                op: SchedKind::AllReduce,
                group_size: 4,
                bytes: 4096,
                seq: 0,
                blocking: true,
                op_seconds: 1.0,
            },
        );
        sink.record_scoped(
            Stream::Compute,
            1.0,
            2.0,
            crate::event::EventDetail::Gemm {
                mode: "NN",
                flops: 1000.0,
                packed_bytes: 2048,
                panels: 3,
            },
        );
        let reg = MetricsRegistry::from_traces(&[sink.finish()]);
        assert_eq!(reg.counter("collective.all_reduce.bytes"), 4096);
        assert_eq!(reg.counter("collective.all_reduce.calls"), 1);
        assert_eq!(reg.counter("gemm.NN.flops"), 1000);
        assert_eq!(reg.counter("gemm.NN.packed_bytes"), 2048);
        assert_eq!(reg.counter("gemm.NN.panels"), 3);
        assert_eq!(
            reg.histogram("collective.all_reduce.bytes_hist")
                .unwrap()
                .count(),
            1
        );
        // Deterministic serialization (sorted keys).
        let a = serde_json::to_string(&reg).unwrap();
        let b = serde_json::to_string(&reg.clone()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn aggregates_transport_xfer_counters() {
        use crate::event::XferStats;
        let sink = TraceSink::new(0);
        let coll = |seq| crate::event::EventDetail::Collective {
            op: SchedKind::AllReduce,
            group_size: 4,
            bytes: 4096,
            seq,
            blocking: true,
            op_seconds: 1.0,
        };
        sink.record_xfer(
            Stream::Compute,
            0.0,
            1.0,
            0,
            0,
            None,
            coll(0),
            XferStats {
                chunks: 2,
                alloc_bytes: 8192,
                pool_hits: 0,
                pool_misses: 2,
            },
        );
        sink.record_xfer(
            Stream::Compute,
            1.0,
            2.0,
            0,
            0,
            None,
            coll(1),
            XferStats {
                chunks: 2,
                alloc_bytes: 0,
                pool_hits: 2,
                pool_misses: 0,
            },
        );
        let reg = MetricsRegistry::from_traces(&[sink.finish()]);
        assert_eq!(reg.counter("collective.all_reduce.chunks"), 4);
        assert_eq!(reg.counter("collective.all_reduce.alloc_bytes"), 8192);
        assert_eq!(reg.counter("collective.all_reduce.pool_hits"), 2);
        assert_eq!(reg.counter("collective.all_reduce.pool_misses"), 2);
    }
}
