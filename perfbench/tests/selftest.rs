//! Self-test of the benchmark command at reduced size (`--scale quick`):
//! every metric `BENCHMARK.json` names is printed with its unit for each
//! workload, both checks pass on the default and a held-out seed, and a
//! corrupted reference makes the output check fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build also passes, slower).

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["repro_paper", "large_lp", "repro_paper_traced"];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs the benchmark at reduced size; returns (exit success, last line).
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--scale", "quick", "--seconds", "0"])
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let doc = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = doc
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("metric field") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn assert_prints_all(list: &str, trace: &str) {
    let metrics = declared(list);
    assert!(!metrics.is_empty());
    for workload in WORKLOADS {
        let (ok, last) = run(&["--workload", workload, "--trace", trace]);
        assert!(ok, "{workload} --trace {trace} failed: {last}");
        assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
        for (name, unit) in &metrics {
            let prefix = format!("\"{name}\": {{\"value\": ");
            let at = last
                .find(&prefix)
                .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}: {last}"));
            let rest = &last[at + prefix.len()..];
            let value: f64 = rest[..rest.find(',').expect("value ends")]
                .parse()
                .expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            assert!(
                rest[..rest.find('}').expect("metric closes") + 1]
                    .ends_with(&format!("\"unit\": \"{unit}\"}}")),
                "{workload}: {name} is not in {unit}: {last}"
            );
        }
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    assert_prints_all("end_to_end", "0");
}

#[test]
fn every_per_layer_metric_is_printed_with_its_unit() {
    assert_prints_all("per_layer", "1");
}

#[test]
fn a_held_out_seed_passes_the_invariant_checks() {
    let (ok, last) = run(&["--workload", "repro_paper", "--seed", "7"]);
    assert!(ok, "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");
}

#[test]
fn a_corrupted_reference_fails_the_output_check() {
    let reference = std::fs::read_to_string(manifest_dir().join("reference/repro_paper_quick.tsv"))
        .expect("stored quick reference");
    // Move the first LP-derived value by 1e-4 relative: far outside the
    // 1e-6 LP tolerance.
    let mut corrupted = String::new();
    let mut moved = false;
    for line in reference.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        if !moved && fields[0] == "lp" {
            let value: f64 = fields[2].parse().expect("reference value");
            corrupted.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                fields[0],
                fields[1],
                value * (1.0 + 1e-4) + 1e-4,
                fields[3]
            ));
            moved = true;
        } else {
            corrupted.push_str(line);
            corrupted.push('\n');
        }
    }
    assert!(moved, "the quick reference has LP cells");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("corrupted_reference.tsv");
    std::fs::write(&path, corrupted).expect("write corrupted reference");
    let path = path.to_str().expect("utf-8 path");

    let (ok, last) = run(&["--workload", "repro_paper", "--reference", path]);
    assert!(!ok, "a corrupted reference must fail the run: {last}");
    assert!(last.starts_with("{\"correct\": false"), "{last}");
    assert!(!last.contains("\"failed\": 0,"), "{last}");

    let intact = dir.join("intact_reference.tsv");
    std::fs::write(&intact, reference).expect("write reference copy");
    let (ok, last) = run(&[
        "--workload",
        "repro_paper",
        "--reference",
        intact.to_str().expect("utf-8 path"),
    ]);
    assert!(ok, "the stored reference must pass: {last}");
}
