//! In-memory span recorder for traced runs.
//!
//! Spans are recorded only by the benchmark's own code, around calls
//! into each layer's public functions. They stay in memory while the
//! run measures and are written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder's origin.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Step index (training) or request id (serving) the span belongs to.
    pub unit: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds since the origin at which `t` happened.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Open a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, unit: u64) -> usize {
        let now = self.now();
        self.record(name, now, f64::NAN, parent, unit)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Record a finished span with known bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        unit: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.begin(name, parent, unit);
        let out = f();
        self.end(id);
        (id, out)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Total inclusive seconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.duration();
        }
        out
    }

    /// Total self seconds per span name: each span's duration minus the
    /// durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.duration() - c;
        }
        out
    }

    /// Write every span as one JSON object per line, followed by one
    /// line of per-name inclusive and self totals.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.start, s.end, s.unit
            )?;
        }
        let totals = self.totals();
        let selfs = self.self_times();
        let body: Vec<String> = totals
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\":{{\"total_s\":{v},\"self_s\":{}}}",
                    selfs.get(k).copied().unwrap_or(0.0)
                )
            })
            .collect();
        writeln!(w, "{{\"summary\":{{{}}}}}", body.join(","))?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new(Instant::now());
        let root = s.record("step", 0.0, 10.0, None, 0);
        let a = s.record("block", 1.0, 5.0, Some(root), 0);
        s.record("gemm", 1.0, 3.0, Some(a), 0);
        let selfs = s.self_times();
        assert_eq!(selfs["step"], 6.0);
        assert_eq!(selfs["block"], 2.0);
        assert_eq!(selfs["gemm"], 2.0);
        assert_eq!(s.totals()["block"], 4.0);
    }
}
