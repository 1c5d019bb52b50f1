//! In-memory span recording around calls into the program's layers.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! epoch), the span that caused it, and a request id shared by every span
//! of one request or document. Spans stay in memory while a workload runs
//! and are written out once at the end. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// Self time and call count of one layer, summed over its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub calls: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, req: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` under a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already finished span (client requests, timed from
    /// their due time) under the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
    }

    /// Self time per span name. Children of one parent are visited in
    /// start order, so the covered part of the parent is the union of
    /// their intervals clipped to it.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let n = self.spans.len();
        let mut covered = vec![0u64; n];
        let mut reach = vec![0u64; n];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| self.spans[i].start_ns);
        for &i in &order {
            let span = self.spans[i];
            if span.parent == ROOT {
                continue;
            }
            let p = span.parent as usize;
            let parent = self.spans[p];
            let from = span.start_ns.max(parent.start_ns).max(reach[p]);
            let to = span.end_ns.min(parent.end_ns);
            if to > from {
                covered[p] += to - from;
            }
            reach[p] = reach[p].max(to);
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let entry = out.entry(span.name).or_default();
            entry.self_ns += (span.end_ns - span.start_ns).saturating_sub(covered[i]);
            entry.calls += 1;
        }
        out
    }

    /// Total duration of the root spans named `name`.
    pub fn root_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one tab-separated line under a header.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span("root", 0, 100, ROOT),
            span("a", 10, 30, 0),
            span("b", 25, 50, 0),  // overlaps a by 5
            span("c", 90, 120, 0), // runs past the parent's end
            span("a", 12, 20, 1),
        ];
        let times = t.self_times();
        assert_eq!(times["root"].self_ns, 100 - 40 - 10);
        assert_eq!(
            times["a"],
            LayerTime {
                self_ns: 20 - 8 + 8,
                calls: 2
            }
        );
        assert_eq!(times["b"].self_ns, 25);
        assert_eq!(times["c"].self_ns, 30);
        assert_eq!(t.root_ns("root"), 100);
    }

    #[test]
    fn nested_spans_partition_the_root() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root", 1);
        let x: u64 = t.time("work", 1, || (0..10_000u64).sum());
        assert_eq!(x, 49_995_000);
        t.time("more", 2, || std::hint::black_box(3));
        t.close(root);
        let total: u64 = t.self_times().values().map(|l| l.self_ns).sum();
        assert_eq!(total, t.root_ns("root"));
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].req, 2);
    }
}
