//! Benchmark self-tests: at a tiny size every workload passes its output
//! check on a seed the sizes were not tuned on, and prints exactly the
//! metrics `BENCHMARK.json` names, each with the unit it declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// A seed no size, rate or limit was tuned on.
const FRESH_SEED: &str = "4242";

/// The objects of the `section` array of BENCHMARK.json, as raw text.
fn entries<'a>(doc: &'a str, section: &str) -> Vec<&'a str> {
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("the section closes")];
    body.split('{').skip(1).collect()
}

fn field(entry: &str, key: &str) -> String {
    let at = entry
        .find(&format!("\"{key}\": \""))
        .unwrap_or_else(|| panic!("entry {entry:?} has no {key}"))
        + key.len()
        + 5;
    entry[at..at + entry[at..].find('"').expect("string closes")].to_owned()
}

/// `(name, unit)` of every metric in `section`.
fn declared(doc: &str, section: &str) -> Vec<(String, String)> {
    entries(doc, section)
        .into_iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            FRESH_SEED,
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

/// Checks one result line: correct, no failed operation, and exactly the
/// declared metrics with their units.
fn check(workload: &str, line: &str, metrics: &[(String, String)]) {
    assert!(
        line.starts_with("{\"correct\": true,"),
        "{workload}: {line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
    assert_eq!(
        line.matches("\"value\": ").count(),
        metrics.len(),
        "{workload} prints exactly the declared metrics: {line}"
    );
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{workload} does not print {name}: {line}"))
            + key.len();
        let rest = &line[at..];
        let number = &rest[..rest.find(',').expect("value is followed by a unit")];
        let value: f64 = number
            .parse()
            .unwrap_or_else(|_| panic!("{workload}: {name} = {number:?} is not a number"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest.starts_with(&format!("{number}, \"unit\": \"{unit}\"}}")),
            "{workload}: {name} must carry unit {unit}: {line}"
        );
    }
}

#[test]
fn every_workload_prints_every_declared_metric_and_passes_its_check() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let names: Vec<String> = entries(&doc, "workloads")
        .into_iter()
        .map(|e| field(e, "name"))
        .collect();
    assert!(!names.is_empty());
    for workload in &names {
        check(workload, &run(workload, "0"), &end_to_end);
        check(workload, &run(workload, "1"), &per_layer);
    }
}
