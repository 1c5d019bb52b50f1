//! Tiny-size smoke runs of every workload, untraced and traced: each
//! must pass its correctness gates and print every metric that
//! `BENCHMARK.json` names, with its unit, both as a human-readable line
//! and in the final JSON object.

use std::path::PathBuf;
use std::process::Command;
use webre_substrate::json::Json;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// (name, unit) of every metric in one of `BENCHMARK.json`'s lists.
fn metrics(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool, expected: &[(String, String)]) {
    // Each run works in a directory of its own, where it leaves its spans
    // and temporary data under `.perfbench_out`.
    let run_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&run_dir).expect("run directory");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&run_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("last line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let printed = result.get("metrics").expect("metrics object");
    for (name, unit) in expected {
        let metric = printed
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing from {last}"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("metric {name} "))
                    && l.ends_with(&format!(" {unit}"))),
            "{workload}: no human-readable line for {name} in {unit}"
        );
    }
    if trace {
        let spans = std::fs::read_dir(run_dir.join(".perfbench_out"))
            .expect("out dir exists")
            .filter_map(Result::ok)
            .any(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("spans-{workload}"))
            });
        assert!(spans, "{workload}: traced run wrote no span file");
    }
    let _ = std::fs::remove_dir_all(&run_dir);
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = benchmark_json();
    let end_to_end = metrics(&spec, "end_to_end");
    let per_layer = metrics(&spec, "per_layer");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads, ["batch_cold", "serve_read", "serve_ingest"]);
    for workload in &workloads {
        run(workload, false, &end_to_end);
        run(workload, true, &per_layer);
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
