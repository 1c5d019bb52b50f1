//! The metric catalogue and the result line every run prints.
//!
//! Each run prints one human-readable line per metric, the correctness
//! gates that failed, and, last, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! reports every end-to-end metric; a traced run every per-layer metric.
//! A metric that does not apply to a workload's layers reads 0 there,
//! which is itself the prediction that the layer plays no part.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name, unit, and whether `BENCHMARK.json` guards
/// it. Guarded metrics go into the JSON result; the others (latencies,
/// latency-limited capacity and replay time, whose run-to-run spread on a
/// shared two-core virtual machine came too close to or exceeded the
/// largest allowed bound) are printed as human-readable lines only.
/// `batch_cold` reports its guarded timings at the reference host speed
/// (`speed.rs`) and their wall-clock readings unguarded as `*_wall`; the
/// serving workloads' guarded timings are wall-clock, and their `*_wall`
/// lines repeat them.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", true),
    ("docs_per_s", "1/s", true),
    ("setup_s_wall", "s", false),
    ("docs_per_s_wall", "1/s", false),
    ("p50_ms", "ms", false),
    ("p99_ms", "ms", false),
    ("p99_ms_high", "ms", false),
    ("max_rate_rps", "1/s", false),
    ("read_p50_ms", "ms", false),
    ("read_p90_ms", "ms", false),
    ("logical_errors_per_doc", "count", true),
    ("conform_ratio", "ratio", true),
    ("replay_s", "s", false),
    ("disk_bytes_per_doc", "bytes", true),
    ("rss_mb", "MB", true),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("html.parse_us", "us"),
    ("html.tidy_us", "us"),
    ("convert.ingest_us", "us"),
    ("convert.tokenization_us", "us"),
    ("convert.concept_instance_us", "us"),
    ("convert.grouping_us", "us"),
    ("convert.consolidation_us", "us"),
    ("convert.finalize_us", "us"),
    ("xml.serialize_us", "us"),
    ("xml.parse_us", "us"),
    ("schema.extract_paths_us", "us"),
    ("schema.mine_ms", "ms"),
    ("schema.candidates", "count"),
    ("schema.derive_dtd_ms", "ms"),
    ("schema.snapshot_ms", "ms"),
    ("map.exact_us", "us"),
    ("map.plan_us", "us"),
    ("map.filter_decided_ratio", "ratio"),
    ("serve.handler_us.convert", "us"),
    ("serve.handler_us.map", "us"),
    ("serve.handler_us.corpus_xml", "us"),
    ("serve.handler_us.schema_dtd", "us"),
    ("serve.outside_handler_us", "us"),
    ("serve.worker_busy_frac", "ratio"),
    ("serve.refused", "count"),
    ("cache.hit_ratio", "ratio"),
    ("persist.accrete_us", "us"),
    ("persist.disk_bytes", "bytes"),
    ("layers.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("loadgen.late_ms", "ms"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (documents or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong output.
    pub failed: u64,
    /// One line per failed correctness gate.
    pub gate_failures: Vec<String>,
    /// Measured values by metric name.
    values: BTreeMap<&'static str, f64>,
    /// Free-form context lines (sample counts, reported percentiles).
    notes: Vec<String>,
}

impl Report {
    /// Sets a metric; the name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Adds a context line printed with the metrics.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed correctness gate (`count` failed operations).
    pub fn fail(&mut self, count: u64, line: impl Into<String>) {
        self.failed += count;
        self.gate_failures.push(line.into());
    }

    /// Checks a gate: on `false`, records one failed operation.
    pub fn check(&mut self, ok: bool, line: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, line());
        }
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Renders the human-readable lines and the final JSON line for the
    /// catalogue selected by `traced`.
    pub fn render(&self, traced: bool) -> String {
        let catalogue: Vec<(&str, &str, bool)> = if traced {
            PER_LAYER.iter().map(|&(n, u)| (n, u, true)).collect()
        } else {
            END_TO_END.to_vec()
        };
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        for failure in &self.gate_failures {
            let _ = writeln!(out, "GATE FAILED: {failure}");
        }
        let _ = writeln!(
            out,
            "# failed_ratio {} ratio ({} failed of {} attempted)",
            crate::stats::ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        let mut json = String::new();
        for (name, unit, guarded) in catalogue {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if !guarded {
                let _ = writeln!(out, "# unguarded metric {name} {value} {unit}");
                continue;
            }
            let _ = writeln!(out, "metric {name} {value} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER.iter().copied())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_prints_every_catalogued_metric_last_line_json() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("docs_per_s", 1.25);
        r.set("p50_ms", 0.5);
        let text = r.render(false);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(last.contains("\"docs_per_s\": {\"value\": 1.25, \"unit\": \"1/s\"}"));
        for (name, unit, guarded) in END_TO_END {
            assert!(text.contains(&format!("metric {name} ")), "{name}");
            assert_eq!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                *guarded,
                "{name}"
            );
            assert!(!unit.is_empty());
        }
        assert!(text.contains("# unguarded metric p50_ms 0.5 ms"));
        let traced = r.render(true);
        assert!(traced.contains("metric html.parse_us 0 us"));
    }

    #[test]
    fn failed_gate_makes_the_run_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        assert!(r.correct());
        r.check(false, || "bytes differ".into());
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
        assert!(r.render(false).contains("GATE FAILED: bytes differ"));
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.0)
            .chain(PER_LAYER.iter().map(|l| l.0))
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
