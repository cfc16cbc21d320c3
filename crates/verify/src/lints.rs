//! Per-rank schedule lints: handle hygiene, bucket discipline, and the
//! static mirror of the transport's dynamic buffer checks. All of these
//! are local to one rank's stream — no cross-rank reasoning — so they
//! stay precise (no false positives from interleaving).

use crate::diag::Diagnostic;
use axonn_collectives::{SchedEvent, SchedKind};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Marker label emitted by the gradient-sync bucketizer when a bucket
/// seals; the next collective issue on the rank must be the linear
/// reduce-scatter that drains it.
pub const BUCKET_SEAL: &str = "bucket_seal";

/// Format the static indivisible-reduce-scatter message exactly as the
/// runtime's `CommError::InvalidBuffer` renders, so `axonnctl verify`
/// and a live failure name the defect with the same words.
pub fn indivisible_message(op: &'static str, elems: usize, group: usize) -> String {
    format!("invalid buffer for {op}: length {elems} not divisible by group size {group}")
}

/// Run all per-rank lints over all ranks' streams.
pub fn check(streams: &[Vec<SchedEvent>]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (rank, stream) in streams.iter().enumerate() {
        // (group, seq) -> (event index, rendered op, pooled) of async issues.
        let mut issued: HashMap<(u64, u64), (usize, String, bool)> = HashMap::new();
        let mut waited: HashMap<(u64, u64), usize> = HashMap::new();

        for (i, ev) in stream.iter().enumerate() {
            match ev {
                SchedEvent::Issue(op) => {
                    if !op.blocking {
                        issued.insert((op.group_key, op.seq), (i, op.to_string(), op.pooled));
                    }
                    let g = op.ranks.len();
                    let divisible_kinds = matches!(
                        op.kind,
                        SchedKind::ReduceScatter
                            | SchedKind::ReduceScatterLinear
                            | SchedKind::ReduceScatterRh
                    );
                    if divisible_kinds && g > 1 && !op.elems.is_multiple_of(g) {
                        diags.push(Diagnostic::IndivisibleReduceScatter {
                            rank,
                            event_index: i,
                            message: indivisible_message(op.kind.label(), op.elems, g),
                        });
                    }
                }
                SchedEvent::Wait { group_key, seq } => {
                    let key = (*group_key, *seq);
                    match waited.entry(key) {
                        Entry::Occupied(_) => diags.push(Diagnostic::DoubleWait {
                            rank,
                            event_index: i,
                            group_key: *group_key,
                            seq: *seq,
                        }),
                        // An unissued wait is not recorded as waited, so
                        // a later legitimate wait still pairs up.
                        Entry::Vacant(_) if !issued.contains_key(&key) => {
                            diags.push(Diagnostic::WaitBeforeIssue {
                                rank,
                                event_index: i,
                                group_key: *group_key,
                                seq: *seq,
                            })
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(i);
                        }
                    }
                }
                SchedEvent::Marker { label } if *label == BUCKET_SEAL => {
                    let next_issue = stream[i + 1..].iter().find_map(|e| match e {
                        SchedEvent::Issue(op) => Some(op.kind),
                        _ => None,
                    });
                    if next_issue != Some(SchedKind::ReduceScatterLinear) {
                        diags.push(Diagnostic::BucketNotReduced {
                            rank,
                            marker_index: i,
                        });
                    }
                }
                SchedEvent::Marker { .. } => {}
                // Buffer-identity annotations carry no per-rank hygiene
                // obligations; the happens-before engine (`crate::hb`)
                // and the slab analysis (`crate::slab`) consume them.
                SchedEvent::BufWrite { .. } | SchedEvent::SlabRecycle { .. } => {}
            }
        }

        // Handles never waited: ordered by issue index for stable output.
        let mut leaks: Vec<(usize, &str, bool)> = issued
            .iter()
            .filter(|(key, _)| !waited.contains_key(*key))
            .map(|(_, (i, op, pooled))| (*i, op.as_str(), *pooled))
            .collect();
        leaks.sort_by_key(|(i, _, _)| *i);
        for (issue_index, op, pooled) in leaks {
            diags.push(Diagnostic::UnwaitedHandle {
                rank,
                issue_index,
                op: op.to_string(),
            });
            if pooled {
                diags.push(Diagnostic::PooledLeak {
                    rank,
                    issue_index,
                    op: op.to_string(),
                });
            }
        }
    }
    diags
}
