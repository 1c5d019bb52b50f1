//! Monotonic-clock micro-benchmark harness with a criterion-shaped API.
//!
//! Replaces `criterion` for this workspace's benches. Each benchmark is
//! warmed up, then timed over a fixed number of samples whose per-sample
//! iteration count is auto-calibrated; the harness reports the median and
//! p95 per-iteration time and appends one JSON line per benchmark to the
//! output file (`BENCH_pipeline.json` at the workspace root by default).
//! Appending lets several bench binaries in one `cargo bench` run share
//! the file; `scripts/bench.sh` truncates it at the start of each run so
//! the file holds exactly one snapshot rather than growing forever.
//!
//! The call surface mirrors the subset of criterion the benches use, so a
//! bench file migrates by swapping its `use` line:
//!
//! ```no_run
//! use webre_substrate::bench::{
//!     criterion_group, criterion_main, BenchmarkId, Criterion, Throughput,
//! };
//!
//! fn bench_sort(c: &mut Criterion) {
//!     let mut group = c.benchmark_group("vec");
//!     group.throughput(Throughput::Elements(1000));
//!     group.bench_function("sort", |b| {
//!         b.iter(|| {
//!             let mut v: Vec<u64> = (0..1000).rev().collect();
//!             v.sort_unstable();
//!             std::hint::black_box(v)
//!         })
//!     });
//!     group.finish();
//! }
//!
//! criterion_group!(benches, bench_sort);
//! criterion_main!(benches);
//! ```
//!
//! Environment knobs:
//! * `WEBRE_BENCH_OUT` — JSON-lines output path (empty string disables);
//! * `WEBRE_BENCH_SAMPLES` — samples per benchmark (default 20);
//! * `WEBRE_BENCH_SAMPLE_MS` — target milliseconds per sample (default 5).

use std::fmt;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Work-normalization declared by a benchmark, echoed into the report.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// A parameterized benchmark id (mirrors `criterion::BenchmarkId`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id that is just the parameter's display form.
    pub fn from_parameter(param: impl fmt::Display) -> Self {
        BenchmarkId {
            label: param.to_string(),
        }
    }

    /// An id with a function name and a parameter.
    pub fn new(function: impl Into<String>, param: impl fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), param),
        }
    }
}

/// Passed to the measured closure; `iter` times the workload.
pub struct Bencher {
    samples: usize,
    target_sample: Duration,
    /// Per-iteration nanoseconds, one entry per sample.
    per_iter_ns: Vec<f64>,
    total_iters: u64,
}

impl Bencher {
    /// Times `routine`: warmup, calibration, then the sample loop.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warmup + calibration: run until we know roughly how long one
        // iteration takes (and the code paths are hot).
        let mut calibration_iters: u64 = 1;
        let per_iter = loop {
            let start = Instant::now();
            for _ in 0..calibration_iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(2) || calibration_iters >= 1 << 24 {
                break elapsed.as_secs_f64() / calibration_iters as f64;
            }
            calibration_iters *= 4;
        };
        let iters_per_sample =
            ((self.target_sample.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1 << 24);

        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            self.per_iter_ns
                .push(elapsed.as_nanos() as f64 / iters_per_sample as f64);
            self.total_iters += iters_per_sample;
        }
    }
}

/// One finished measurement.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// `group/function` name.
    pub name: String,
    /// Median per-iteration nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-iteration nanoseconds.
    pub p95_ns: f64,
    /// Samples measured.
    pub samples: usize,
    /// Total iterations across all samples.
    pub iters: u64,
    /// Declared throughput, if any.
    pub throughput: Option<Throughput>,
}

impl BenchRecord {
    fn json_line(&self) -> String {
        use crate::json::Json;
        let mut members = vec![
            ("bench".to_owned(), Json::Str(self.name.clone())),
            ("median_ns".to_owned(), Json::Num(round2(self.median_ns))),
            ("p95_ns".to_owned(), Json::Num(round2(self.p95_ns))),
            ("samples".to_owned(), Json::Num(self.samples as f64)),
            ("iters".to_owned(), Json::Num(self.iters as f64)),
        ];
        match self.throughput {
            Some(Throughput::Bytes(n)) => {
                members.push(("bytes".to_owned(), Json::Num(n as f64)));
                if self.median_ns > 0.0 {
                    let mibps = n as f64 / (self.median_ns / 1e9) / (1024.0 * 1024.0);
                    members.push(("mib_per_s".to_owned(), Json::Num(round2(mibps))));
                }
            }
            Some(Throughput::Elements(n)) => {
                members.push(("elements".to_owned(), Json::Num(n as f64)));
                if self.median_ns > 0.0 {
                    let eps = n as f64 / (self.median_ns / 1e9);
                    members.push(("elem_per_s".to_owned(), Json::Num(round2(eps))));
                }
            }
            None => {}
        }
        Json::Obj(members).to_string()
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// The harness root: collects records and writes the report.
pub struct Criterion {
    samples: usize,
    target_sample: Duration,
    out_path: Option<std::path::PathBuf>,
    records: Vec<BenchRecord>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Criterion {
    /// Builds a harness configured from the environment.
    pub fn from_env() -> Self {
        let samples = std::env::var("WEBRE_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|v| *v > 0)
            .unwrap_or(20);
        let sample_ms = std::env::var("WEBRE_BENCH_SAMPLE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|v| *v > 0)
            .unwrap_or(5u64);
        let out_path = match std::env::var("WEBRE_BENCH_OUT") {
            Ok(p) if p.is_empty() => None,
            Ok(p) => Some(std::path::PathBuf::from(p)),
            Err(_) => Some(default_out_path()),
        };
        Criterion {
            samples,
            target_sample: Duration::from_millis(sample_ms),
            out_path,
            records: Vec::new(),
        }
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: None,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        self.run(name.to_owned(), None, None, f);
    }

    fn run(
        &mut self,
        name: String,
        throughput: Option<Throughput>,
        sample_size: Option<usize>,
        mut f: impl FnMut(&mut Bencher),
    ) {
        let mut bencher = Bencher {
            samples: sample_size.unwrap_or(self.samples),
            target_sample: self.target_sample,
            per_iter_ns: Vec::new(),
            total_iters: 0,
        };
        f(&mut bencher);
        let mut ns = bencher.per_iter_ns;
        if ns.is_empty() {
            // The closure never called iter(); nothing to report.
            return;
        }
        ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = ns[ns.len() / 2];
        let p95 = ns[((ns.len() as f64 * 0.95) as usize).min(ns.len() - 1)];
        let record = BenchRecord {
            name,
            median_ns: median,
            p95_ns: p95,
            samples: ns.len(),
            iters: bencher.total_iters,
            throughput,
        };
        println!(
            "bench {:<44} median {:>10}  p95 {:>10}  ({} samples)",
            record.name,
            human_time(record.median_ns),
            human_time(record.p95_ns),
            record.samples,
        );
        self.records.push(record);
    }

    /// Writes the JSON-lines report and prints a footer. Called by
    /// [`criterion_main!`] after all groups ran.
    pub fn final_summary(&mut self) {
        let Some(path) = &self.out_path else {
            return;
        };
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| {
                for r in &self.records {
                    writeln!(file, "{}", r.json_line())?;
                }
                Ok(())
            });
        match result {
            Ok(()) => println!(
                "{} record(s) appended to {}",
                self.records.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    /// The records measured so far (used by harness tests).
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }
}

/// Default output: `BENCH_pipeline.json` at the workspace root (where the
/// other `BENCH_*.json` trajectory files live), falling back to the
/// current directory when the workspace root cannot be located.
fn default_out_path() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    // Benches run with CWD at the crate root; walk up to the workspace
    // root (the first ancestor containing a ROADMAP.md).
    loop {
        if dir.join("ROADMAP.md").is_file() {
            return dir.join("BENCH_pipeline.json");
        }
        if !dir.pop() {
            return std::path::PathBuf::from("BENCH_pipeline.json");
        }
    }
}

/// The `"name"` of a JSON-line record, if it has one.
fn record_name(line: &str) -> Option<String> {
    let record = crate::json::Json::parse(line).ok()?;
    record.get("name")?.as_str().map(str::to_owned)
}

/// Merges JSON-line `records` into the text of a JSON-lines file (see
/// [`write_named_records`]).
fn merge_named_records(existing: &str, records: &[String]) -> String {
    let names: Vec<Option<String>> = records.iter().map(|r| record_name(r)).collect();
    let mut written = vec![false; records.len()];
    let mut out = String::with_capacity(existing.len());
    for line in existing.lines().filter(|l| !l.trim().is_empty()) {
        let name = record_name(line);
        match names.iter().position(|n| n.is_some() && *n == name) {
            None => out.push_str(line),
            Some(i) if written[i] => continue,
            Some(i) => {
                out.push_str(&records[i]);
                written[i] = true;
            }
        }
        out.push('\n');
    }
    for (record, _) in records.iter().zip(&written).filter(|(_, w)| !**w) {
        out.push_str(record);
        out.push('\n');
    }
    out
}

/// Writes JSON-line `records` into the file at `path`, creating it if
/// absent: each existing line whose `"name"` one of `records` carries is
/// replaced in place by that record (once; later duplicates are
/// dropped), every other line is kept verbatim, and records with new
/// names are appended. A harness that owns some records of a shared
/// snapshot thus never drops the rest.
pub fn write_named_records(path: &std::path::Path, records: &[String]) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    std::fs::write(path, merge_named_records(&existing, records))
}

/// A named group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Declares the per-iteration work of subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, samples: usize) {
        self.sample_size = Some(samples.max(1));
    }

    /// Runs a benchmark named `group/name`.
    pub fn bench_function(&mut self, name: impl fmt::Display, f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.name, name);
        self.criterion
            .run(full, self.throughput, self.sample_size, f);
    }

    /// Runs a parameterized benchmark with an input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let full = format!("{}/{}", self.name, id.label);
        self.criterion
            .run(full, self.throughput, self.sample_size, |b| f(b, input));
    }

    /// Ends the group (report writing happens in [`Criterion::final_summary`]).
    pub fn finish(self) {}
}

/// Bundles benchmark functions into a group runner (mirrors
/// `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::bench::Criterion) {
            $($target(c);)+
        }
    };
}

/// Emits `main` running the given groups (mirrors
/// `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::bench::Criterion::from_env();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

// Re-export the macros under `bench::` so `use
// webre_substrate::bench::{criterion_group, criterion_main}` works like
// the criterion imports they replace.
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Criterion {
        Criterion {
            samples: 4,
            target_sample: Duration::from_micros(200),
            out_path: None,
            records: Vec::new(),
        }
    }

    #[test]
    fn measures_and_records() {
        let mut c = quiet();
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Bytes(1024));
        group.bench_function("push", |b| {
            b.iter(|| {
                let mut v = Vec::with_capacity(64);
                for i in 0..64u64 {
                    v.push(i);
                }
                std::hint::black_box(v)
            })
        });
        group.finish();
        assert_eq!(c.records().len(), 1);
        let r = &c.records()[0];
        assert_eq!(r.name, "g/push");
        assert!(r.median_ns > 0.0);
        assert!(r.p95_ns >= r.median_ns);
        assert!(r.iters >= r.samples as u64);
    }

    #[test]
    fn json_line_is_parseable() {
        let record = BenchRecord {
            name: "g/x".into(),
            median_ns: 123.456,
            p95_ns: 234.5,
            samples: 20,
            iters: 4000,
            throughput: Some(Throughput::Elements(10)),
        };
        let line = record.json_line();
        let parsed = crate::json::Json::parse(&line).expect("valid json line");
        assert_eq!(parsed.get("bench").and_then(|v| v.as_str()), Some("g/x"));
        assert_eq!(parsed.get("samples").and_then(|v| v.as_f64()), Some(20.0));
        assert!(parsed.get("elem_per_s").is_some());
    }

    #[test]
    fn named_records_replace_their_own_lines_and_keep_the_rest() {
        let existing = "{\"name\":\"serve_healthz\",\"rps\":1}\n\
                        {\"name\":\"serve_convert_cold\",\"rps\":2}\n\
                        {\"name\":\"serve_load\",\"p99_us\":3}\n\
                        {\"name\":\"serve_healthz\",\"rps\":4}\n\
                        not json\n";
        let records = [
            "{\"name\":\"serve_healthz\",\"rps\":10}".to_owned(),
            "{\"name\":\"serve_convert_cold\",\"rps\":20}".to_owned(),
            "{\"name\":\"serve_convert_hot\",\"rps\":30}".to_owned(),
        ];
        assert_eq!(
            merge_named_records(existing, &records),
            "{\"name\":\"serve_healthz\",\"rps\":10}\n\
             {\"name\":\"serve_convert_cold\",\"rps\":20}\n\
             {\"name\":\"serve_load\",\"p99_us\":3}\n\
             not json\n\
             {\"name\":\"serve_convert_hot\",\"rps\":30}\n"
        );
        assert_eq!(
            merge_named_records("", &records[..1]),
            "{\"name\":\"serve_healthz\",\"rps\":10}\n"
        );
    }

    #[test]
    fn bench_with_input_names_by_parameter() {
        let mut c = quiet();
        let mut group = c.benchmark_group("scale");
        let n = 32usize;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| std::hint::black_box((0..n).sum::<usize>()))
        });
        group.finish();
        assert_eq!(c.records()[0].name, "scale/32");
    }
}
