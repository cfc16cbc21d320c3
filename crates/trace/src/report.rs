//! Derived reports: overlap-efficiency accounting (how much collective
//! time hid under compute, the quantity behind the paper's Fig. 5) and
//! the compact run summary.

use serde::{Serialize, Value};

use crate::event::{EventDetail, SchedKind, Stream, TraceEvent};
use crate::metrics::MetricsRegistry;
use crate::sink::RankTrace;

/// Overlap accounting for one layer (or for unattributed collectives
/// when `layer` is `None`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayerOverlap {
    pub layer: Option<usize>,
    /// Modelled collective time issued (blocking + asynchronous).
    pub issued_seconds: f64,
    /// Collective time the compute stream actually stalled for: the full
    /// span of blocking calls plus the wait gap of asynchronous ones.
    pub exposed_seconds: f64,
    /// `max(0, issued - exposed)` per operation, summed.
    pub hidden_seconds: f64,
    /// `hidden / issued`, 0 when nothing was issued.
    pub efficiency: f64,
}

/// Whole-run overlap-efficiency report, aggregated over all ranks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverlapReport {
    pub per_layer: Vec<LayerOverlap>,
    pub total_issued_seconds: f64,
    pub total_exposed_seconds: f64,
    pub total_hidden_seconds: f64,
    /// Fraction of issued collective time hidden under compute.
    pub overlap_efficiency: f64,
    /// Compute-stream busy time (GEMMs + aux), summed over ranks.
    pub compute_seconds: f64,
}

struct Bucket {
    issued: f64,
    exposed: f64,
    hidden: f64,
}

impl OverlapReport {
    pub fn from_traces(traces: &[RankTrace]) -> OverlapReport {
        // Keyed by layer; index 0 = unattributed, i+1 = layer i.
        let mut buckets: Vec<Bucket> = Vec::new();
        let bucket = |layer: Option<usize>, buckets: &mut Vec<Bucket>| -> usize {
            let idx = layer.map(|l| l + 1).unwrap_or(0);
            while buckets.len() <= idx {
                buckets.push(Bucket {
                    issued: 0.0,
                    exposed: 0.0,
                    hidden: 0.0,
                });
            }
            idx
        };
        let mut compute_seconds = 0.0;

        for trace in traces {
            // Asynchronous collectives, to be matched against their waits.
            // Two passes because a trace stores streams back to back: the
            // compute stream (holding the waits) comes before the comm
            // streams (holding the asynchronous execution spans).
            struct Pending {
                op: SchedKind,
                seq: u64,
                op_seconds: f64,
                layer: Option<usize>,
                waited: bool,
            }
            let mut pending: Vec<Pending> = Vec::new();

            for ev in &trace.events {
                match &ev.detail {
                    EventDetail::Collective {
                        op,
                        seq,
                        blocking,
                        op_seconds,
                        ..
                    } => {
                        if *blocking {
                            let idx = bucket(ev.layer, &mut buckets);
                            let stall = ev.t_end - ev.t_start;
                            buckets[idx].issued += op_seconds;
                            buckets[idx].exposed += stall;
                            // A blocking collective hides nothing.
                        } else {
                            pending.push(Pending {
                                op: *op,
                                seq: *seq,
                                op_seconds: *op_seconds,
                                layer: ev.layer,
                                waited: false,
                            });
                        }
                    }
                    EventDetail::Gemm { .. } | EventDetail::Aux { .. }
                        if ev.stream == Stream::Compute =>
                    {
                        compute_seconds += ev.t_end - ev.t_start;
                    }
                    _ => {}
                }
            }

            for ev in &trace.events {
                if let EventDetail::OverlapWait { op, seq } = &ev.detail {
                    let gap = ev.t_end - ev.t_start;
                    let hit = pending
                        .iter_mut()
                        .find(|p| !p.waited && p.op == *op && p.seq == *seq);
                    if let Some(p) = hit {
                        p.waited = true;
                        let idx = bucket(p.layer.or(ev.layer), &mut buckets);
                        buckets[idx].issued += p.op_seconds;
                        buckets[idx].exposed += gap;
                        buckets[idx].hidden += (p.op_seconds - gap).max(0.0);
                    } else {
                        // Wait without a recorded issue (shouldn't
                        // happen): count the stall as exposed.
                        let idx = bucket(ev.layer, &mut buckets);
                        buckets[idx].exposed += gap;
                    }
                }
            }

            // Issued-but-never-waited asynchronous collectives: their cost
            // was fully off the critical path.
            for p in pending.iter().filter(|p| !p.waited) {
                let idx = bucket(p.layer, &mut buckets);
                buckets[idx].issued += p.op_seconds;
                buckets[idx].hidden += p.op_seconds;
            }
        }

        let mut per_layer: Vec<LayerOverlap> = buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.issued > 0.0 || b.exposed > 0.0)
            .map(|(idx, b)| LayerOverlap {
                layer: idx.checked_sub(1),
                issued_seconds: b.issued,
                exposed_seconds: b.exposed,
                hidden_seconds: b.hidden,
                efficiency: if b.issued > 0.0 {
                    b.hidden / b.issued
                } else {
                    0.0
                },
            })
            .collect();
        // Attributed layers first (ascending), unattributed last.
        per_layer.sort_by_key(|l| l.layer.map(|x| x as i64).unwrap_or(i64::MAX));

        let total_issued: f64 = per_layer.iter().map(|l| l.issued_seconds).sum();
        let total_exposed: f64 = per_layer.iter().map(|l| l.exposed_seconds).sum();
        let total_hidden: f64 = per_layer.iter().map(|l| l.hidden_seconds).sum();
        OverlapReport {
            per_layer,
            total_issued_seconds: total_issued,
            total_exposed_seconds: total_exposed,
            total_hidden_seconds: total_hidden,
            overlap_efficiency: if total_issued > 0.0 {
                total_hidden / total_issued
            } else {
                0.0
            },
            compute_seconds,
        }
    }

    /// Overlap accounting restricted to the *data-parallel gradient
    /// pipeline*: asynchronous reduce-scatter / all-gather spans issued
    /// outside any layer scope (bucketed gradient collectives are the
    /// only unattributed async ops — per-layer OAR/ORS/OAG spans carry
    /// the issuing layer) together with their matching waits. The serial
    /// per-tensor tail issues only blocking collectives, so its
    /// efficiency here is identically zero; any positive value certifies
    /// real overlap between bucket communication and backward compute.
    pub fn data_parallel_overlap(traces: &[RankTrace]) -> OverlapReport {
        let filtered: Vec<RankTrace> = traces
            .iter()
            .map(|trace| {
                // (op, seq) pairs of the bucket collectives on this rank;
                // waits are matched against the same per-rank key space.
                let mut keys: Vec<(SchedKind, u64)> = Vec::new();
                let mut events: Vec<TraceEvent> = Vec::new();
                for ev in &trace.events {
                    if let EventDetail::Collective {
                        op,
                        seq,
                        blocking: false,
                        ..
                    } = &ev.detail
                    {
                        let bucket_op = matches!(
                            op,
                            SchedKind::ReduceScatter
                                | SchedKind::ReduceScatterLinear
                                | SchedKind::ReduceScatterRh
                                | SchedKind::AllGather
                                | SchedKind::AllGatherRd
                        );
                        if ev.layer.is_none() && bucket_op {
                            keys.push((*op, *seq));
                            events.push(ev.clone());
                        }
                    }
                }
                for ev in &trace.events {
                    if let EventDetail::OverlapWait { op, seq } = &ev.detail {
                        if keys.contains(&(*op, *seq)) {
                            events.push(ev.clone());
                        }
                    }
                }
                RankTrace {
                    rank: trace.rank,
                    events,
                }
            })
            .collect();
        OverlapReport::from_traces(&filtered)
    }
}

/// Compact machine-readable summary of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    pub ranks: usize,
    pub total_events: usize,
    /// Latest virtual timestamp across all ranks and streams.
    pub virtual_makespan_seconds: f64,
    pub overlap: OverlapReport,
    pub metrics: MetricsRegistry,
}

impl TraceSummary {
    pub fn from_traces(traces: &[RankTrace]) -> TraceSummary {
        let total_events = traces.iter().map(|t| t.events.len()).sum();
        let makespan = traces
            .iter()
            .flat_map(|t| t.events.iter())
            .map(|e| e.t_end)
            .fold(0.0, f64::max);
        TraceSummary {
            ranks: traces.len(),
            total_events,
            virtual_makespan_seconds: makespan,
            overlap: OverlapReport::from_traces(traces),
            metrics: MetricsRegistry::from_traces(traces),
        }
    }

    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.serialize())
            .expect("summary serialization is infallible")
    }
}

impl Serialize for TraceSummary {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("ranks".into(), self.ranks.serialize()),
            ("total_events".into(), self.total_events.serialize()),
            (
                "virtual_makespan_seconds".into(),
                self.virtual_makespan_seconds.serialize(),
            ),
            ("overlap".into(), self.overlap.serialize()),
            ("metrics".into(), self.metrics.serialize()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    fn coll(blocking: bool, seq: u64, op_seconds: f64) -> EventDetail {
        EventDetail::Collective {
            op: SchedKind::AllReduce,
            group_size: 4,
            bytes: 1024,
            seq,
            blocking,
            op_seconds,
        }
    }

    #[test]
    fn blocking_collectives_hide_nothing() {
        let sink = TraceSink::new(0);
        sink.set_layer(Some(0));
        sink.record_scoped(Stream::Compute, 0.0, 2.0, coll(true, 0, 1.5));
        let report = OverlapReport::from_traces(&[sink.finish()]);
        assert_eq!(report.total_hidden_seconds, 0.0);
        assert!((report.total_issued_seconds - 1.5).abs() < 1e-12);
        assert!((report.total_exposed_seconds - 2.0).abs() < 1e-12);
        assert_eq!(report.overlap_efficiency, 0.0);
        assert_eq!(report.per_layer.len(), 1);
        assert_eq!(report.per_layer[0].layer, Some(0));
    }

    #[test]
    fn async_wait_gap_splits_hidden_and_exposed() {
        let sink = TraceSink::new(0);
        sink.set_layer(Some(1));
        // Issued at t=0, costs 1.0s, waited at t=0.8 for 0.2s: 0.8 hidden.
        sink.record_scoped(Stream::Comm, 0.0, 1.0, coll(false, 7, 1.0));
        sink.record_scoped(
            Stream::Compute,
            0.8,
            1.0,
            EventDetail::OverlapWait {
                op: SchedKind::AllReduce,
                seq: 7,
            },
        );
        let report = OverlapReport::from_traces(&[sink.finish()]);
        assert!((report.total_hidden_seconds - 0.8).abs() < 1e-12);
        assert!((report.total_exposed_seconds - 0.2).abs() < 1e-12);
        assert!((report.overlap_efficiency - 0.8).abs() < 1e-12);
        assert_eq!(report.per_layer[0].layer, Some(1));
    }

    #[test]
    fn unwaited_async_counts_fully_hidden() {
        let sink = TraceSink::new(0);
        sink.record_scoped(Stream::Comm, 0.0, 0.5, coll(false, 1, 0.5));
        let report = OverlapReport::from_traces(&[sink.finish()]);
        assert!((report.total_hidden_seconds - 0.5).abs() < 1e-12);
        assert_eq!(report.overlap_efficiency, 1.0);
    }

    #[test]
    fn data_parallel_overlap_selects_unattributed_bucket_ops() {
        let rs = |seq, op_seconds| EventDetail::Collective {
            op: SchedKind::ReduceScatter,
            group_size: 2,
            bytes: 512,
            seq,
            blocking: false,
            op_seconds,
        };
        let sink = TraceSink::new(0);
        // Layer-scoped ORS span: excluded from the data-parallel view.
        sink.set_layer(Some(3));
        sink.record_scoped(Stream::Comm, 0.0, 1.0, rs(0, 1.0));
        sink.set_layer(None);
        // Unattributed bucket reduce-scatter: 0.9 of 1.0s hidden.
        sink.record_scoped(Stream::Comm, 0.0, 1.0, rs(1, 1.0));
        sink.record_scoped(
            Stream::Compute,
            0.9,
            1.0,
            EventDetail::OverlapWait {
                op: SchedKind::ReduceScatter,
                seq: 1,
            },
        );
        // Blocking all-reduce (the serial tail): also excluded.
        sink.record_scoped(
            Stream::Compute,
            1.0,
            2.0,
            EventDetail::Collective {
                op: SchedKind::AllReduce,
                group_size: 2,
                bytes: 512,
                seq: 2,
                blocking: true,
                op_seconds: 1.0,
            },
        );
        let traces = [sink.finish()];
        let dp = OverlapReport::data_parallel_overlap(&traces);
        assert!((dp.total_issued_seconds - 1.0).abs() < 1e-12);
        assert!((dp.total_hidden_seconds - 0.9).abs() < 1e-12);
        assert!((dp.overlap_efficiency - 0.9).abs() < 1e-12);
        // The full report still sees everything.
        let full = OverlapReport::from_traces(&traces);
        assert!(full.total_issued_seconds > 2.9);
    }

    #[test]
    fn summary_rolls_up_makespan_and_compute() {
        let sink = TraceSink::new(0);
        sink.record_scoped(
            Stream::Compute,
            0.0,
            2.5,
            EventDetail::Gemm {
                mode: "NN",
                flops: 10.0,
                packed_bytes: 256,
                panels: 1,
            },
        );
        let summary = TraceSummary::from_traces(&[sink.finish()]);
        assert_eq!(summary.ranks, 1);
        assert_eq!(summary.total_events, 1);
        assert!((summary.virtual_makespan_seconds - 2.5).abs() < 1e-12);
        assert!((summary.overlap.compute_seconds - 2.5).abs() < 1e-12);
        let json = summary.to_json_pretty();
        assert!(json.contains("overlap_efficiency"));
    }
}
