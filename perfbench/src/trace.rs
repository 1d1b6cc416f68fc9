//! In-memory span recorder for the traced run.
//!
//! A span is one call into a library layer, timed from the benchmark's side
//! of the call: its name (the per-layer metric it feeds), start, end, the
//! span that encloses it and the op it belongs to. Spans are kept in memory
//! and written out once, after the run. With tracing off, [`Tracer::span`]
//! only calls its body.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Span name of an op's root: one unit of the workload's closed loop.
pub const OP: &str = "op";

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u64,
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

/// Per-name totals derived from the recorded spans.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span durations (ns).
    pub wall_ns: u64,
    /// Summed self time (duration minus time covered by child spans, ns).
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let s = &mut self.spans[id as usize];
        s.start_ns = start;
        s.end_ns = end;
        out
    }

    /// Runs one op of the closed loop under a fresh op id and an [`OP`]
    /// root span.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op += 1;
        self.span(OP, f)
    }

    /// Totals per span name. Children are summed per parent first, so a
    /// span's self time never goes below zero.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let wall = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.wall_ns += wall;
            t.self_ns += wall.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent op name start_ns end_ns` (`parent` is `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Mean self time of the spans called `name`, in ns (0 without spans).
pub fn mean_self_ns(totals: &BTreeMap<&'static str, Totals>, name: &str) -> f64 {
    totals
        .get(name)
        .filter(|t| t.calls > 0)
        .map_or(0.0, |t| t.self_ns as f64 / t.calls as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.op(|t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            })
        });
        let tot = t.totals();
        assert_eq!(tot["op"].calls, 1);
        assert!(tot["b"].self_ns >= 2_000_000);
        assert!(tot["a"].self_ns < tot["b"].self_ns);
        assert_eq!(tot["a"].wall_ns, tot["a"].self_ns + tot["b"].wall_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.op(|t| t.span("a", |_| 7)), 7);
        assert!(t.totals().is_empty());
    }
}
