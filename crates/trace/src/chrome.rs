//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! One process per rank, one thread per stream; spans become `"X"`
//! (complete) events with microsecond timestamps on the virtual clock.

use serde::{Serialize, Value};

use crate::event::{EventDetail, Stream, TraceEvent};
use crate::sink::RankTrace;

const ALL_STREAMS: [Stream; 5] = [
    Stream::Compute,
    Stream::Comm,
    Stream::CommAg,
    Stream::CommAr,
    Stream::CommRs,
];

fn micros(seconds: f64) -> f64 {
    seconds * 1e6
}

fn meta_event(name: &str, pid: usize, tid: u64, arg_name: &str) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(name.into())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), pid.serialize()),
        ("tid".into(), tid.serialize()),
        (
            "args".into(),
            Value::Object(vec![("name".into(), Value::Str(arg_name.into()))]),
        ),
    ])
}

fn span_event(rank: usize, ev: &TraceEvent) -> Value {
    let mut args: Vec<(String, Value)> = vec![("kind".into(), Value::Str(ev.detail.kind()))];
    if let Some(layer) = ev.layer {
        args.push(("layer".into(), layer.serialize()));
    }
    match &ev.detail {
        EventDetail::Gemm {
            mode,
            flops,
            packed_bytes,
            panels,
        } => {
            args.push(("mode".into(), mode.serialize()));
            args.push(("flops".into(), flops.serialize()));
            args.push(("packed_bytes".into(), packed_bytes.serialize()));
            args.push(("panels".into(), panels.serialize()));
        }
        EventDetail::Collective {
            group_size,
            bytes,
            seq,
            op_seconds,
            ..
        } => {
            args.push(("group_size".into(), group_size.serialize()));
            args.push(("bytes".into(), bytes.serialize()));
            args.push(("seq".into(), seq.serialize()));
            args.push(("op_seconds".into(), op_seconds.serialize()));
        }
        EventDetail::Issue { bytes, seq, .. } => {
            args.push(("bytes".into(), bytes.serialize()));
            args.push(("seq".into(), seq.serialize()));
        }
        EventDetail::OverlapWait { seq, .. } => {
            args.push(("seq".into(), seq.serialize()));
        }
        EventDetail::TunerDecision {
            choice,
            direct_seconds,
            naive_seconds,
            reroute_seconds,
            ..
        } => {
            args.push(("choice".into(), choice.serialize()));
            args.push(("direct_seconds".into(), direct_seconds.serialize()));
            args.push(("naive_seconds".into(), naive_seconds.serialize()));
            args.push(("reroute_seconds".into(), reroute_seconds.serialize()));
        }
        EventDetail::Recovery {
            event,
            attempt,
            step,
            rank,
        } => {
            args.push(("event".into(), event.serialize()));
            args.push(("attempt".into(), attempt.serialize()));
            args.push(("step".into(), step.serialize()));
            args.push(("rank".into(), rank.serialize()));
        }
        _ => {}
    }

    let dur = micros(ev.t_end - ev.t_start);
    let instant = dur <= 0.0;
    let mut fields: Vec<(String, Value)> = vec![
        ("name".into(), Value::Str(ev.detail.display_name())),
        (
            "ph".into(),
            Value::Str(if instant { "i" } else { "X" }.into()),
        ),
        ("pid".into(), rank.serialize()),
        ("tid".into(), ev.stream.index().serialize()),
        ("ts".into(), micros(ev.t_start).serialize()),
    ];
    if instant {
        // Instant events are thread-scoped markers.
        fields.push(("s".into(), Value::Str("t".into())));
    } else {
        fields.push(("dur".into(), dur.serialize()));
    }
    fields.push(("args".into(), Value::Object(args)));
    Value::Object(fields)
}

/// Serialize a run's traces to Chrome trace-event JSON.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    let mut events: Vec<Value> = Vec::new();
    for trace in traces {
        events.push(meta_event(
            "process_name",
            trace.rank,
            0,
            &format!("rank {}", trace.rank),
        ));
        for stream in ALL_STREAMS {
            // Emit a thread-name row only for streams that have events,
            // so exec traces don't show the simulator's channel tracks.
            if trace.stream_events(stream).next().is_some() {
                events.push(meta_event(
                    "thread_name",
                    trace.rank,
                    stream.index(),
                    stream.name(),
                ));
            }
        }
        for ev in &trace.events {
            events.push(span_event(trace.rank, ev));
        }
    }
    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ]);
    serde_json::to_string(&doc).expect("chrome trace serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SchedKind;
    use crate::sink::TraceSink;

    #[test]
    fn export_parses_back_and_has_tracks() {
        let sink = TraceSink::new(2);
        sink.record_scoped(
            Stream::Compute,
            0.0,
            1e-3,
            EventDetail::Gemm {
                mode: "NN",
                flops: 64.0,
                packed_bytes: 1024,
                panels: 1,
            },
        );
        sink.mark(
            Stream::Compute,
            1e-3,
            EventDetail::Issue {
                op: SchedKind::AllGather,
                group_size: 2,
                bytes: 256,
                seq: 0,
            },
        );
        sink.record_scoped(
            Stream::Comm,
            1e-3,
            2e-3,
            EventDetail::Collective {
                op: SchedKind::AllGather,
                group_size: 2,
                bytes: 256,
                seq: 0,
                blocking: false,
                op_seconds: 1e-3,
            },
        );
        let json = chrome_trace_json(&[sink.finish()]);
        let doc: serde::Value = serde_json::from_str(&json).expect("chrome trace must parse");
        let events = match doc.field("traceEvents").unwrap() {
            serde::Value::Array(a) => a.clone(),
            other => panic!("traceEvents not an array: {other:?}"),
        };
        // 1 process_name + 2 thread_name + 3 spans.
        assert_eq!(events.len(), 6);
        // The gemm span is a complete event with µs timestamps.
        let gemm = events
            .iter()
            .find(|e| matches!(e.field("name"), Ok(serde::Value::Str(s)) if s == "gemm NN"))
            .expect("gemm event present");
        assert!(matches!(gemm.field("ph"), Ok(serde::Value::Str(s)) if s == "X"));
        match gemm.field("dur").unwrap() {
            serde::Value::F64(d) => assert!((d - 1000.0).abs() < 1e-9),
            other => panic!("dur not f64: {other:?}"),
        }
        // The issue marker became an instant event.
        let issue = events
            .iter()
            .find(
                |e| matches!(e.field("name"), Ok(serde::Value::Str(s)) if s == "issue all_gather"),
            )
            .expect("issue event present");
        assert!(matches!(issue.field("ph"), Ok(serde::Value::Str(s)) if s == "i"));
    }
}
