//! Fixture-tree tests for `lint_workspace`, plus the gate that the real
//! workspace is clean.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::lint_workspace;

/// A throwaway workspace tree under the target-adjacent temp dir, removed
/// on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = std::env::temp_dir().join(format!("xtask-lint-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        Self { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn flags_raw_row_construction_outside_the_ir_home() {
    let fx = Fixture::new("ir");
    fx.write(
        "crates/foo/src/build.rs",
        "fn f(p: &mut Problem) {\n    p.add_constraint(\"row\", [], Relation::Le, 1.0);\n}\n",
    );
    // The IR home is exempt.
    fx.write(
        "crates/lp/src/model.rs",
        "fn lower(p: &mut Problem) {\n    p.add_constraint(\"row\", [], Relation::Le, 1.0);\n}\n",
    );
    fx.write(
        "crates/lp/src/problem.rs",
        "impl Problem {\n    pub fn add_constraint(&mut self) {}\n}\n",
    );

    let v = lint_workspace(&fx.root).unwrap();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "ir-lowering");
    assert_eq!(v[0].file, Path::new("crates/foo/src/build.rs"));
    assert_eq!(v[0].line, 2);
    assert!(
        v[0].to_string()
            .starts_with("crates/foo/src/build.rs:2: [ir-lowering]"),
        "{}",
        v[0]
    );
}

#[test]
fn flags_lp_core_float_eq_only_in_scope() {
    let fx = Fixture::new("core");
    fx.write(
        "crates/lp/src/simplex.rs",
        "fn pivot(t: f64) -> bool {\n    t != 1.0\n}\n",
    );
    fx.write(
        "crates/core/src/lp_model.rs",
        "fn gate(t: f64) -> bool {\n    t == 0.0\n}\n",
    );
    // Out of scope: other crates may compare float literals exactly.
    fx.write(
        "crates/report/src/stats.rs",
        "fn s(t: f64) -> bool {\n    t == 1.0\n}\n",
    );

    let mut v = lint_workspace(&fx.root).unwrap();
    v.sort_by(|a, b| a.file.cmp(&b.file));
    assert_eq!(v.len(), 2, "{v:?}");
    assert_eq!(v[0].file, Path::new("crates/core/src/lp_model.rs"));
    assert_eq!(v[0].rule, "lp-core-discipline");
    assert!(v[0].message.contains("float-literal"));
    assert_eq!(v[1].file, Path::new("crates/lp/src/simplex.rs"));
    assert!(v[1].message.contains("float-literal"));
}

#[test]
fn flags_baseline_keys_the_gate_never_references() {
    let fx = Fixture::new("baseline");
    fx.write(
        "crates/bench/benches/solver_baseline.json",
        "{\n  \"comment\": \"fixture\",\n  \"used_ns\": 100,\n  \"stale_ns\": 200,\n  \"calibration_ns\": 10,\n  \"max_regression\": 2.0\n}\n",
    );
    fx.write(
        "crates/bench/benches/solver.rs",
        "fn main() {\n    run_gate(base, \"used_ns\", \"solver\", work);\n}\n",
    );

    let v = lint_workspace(&fx.root).unwrap();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "baseline-keys");
    assert_eq!(
        v[0].file,
        Path::new("crates/bench/benches/solver_baseline.json")
    );
    assert_eq!(v[0].line, 4);
    assert!(v[0].message.contains("stale_ns"));
}

#[test]
fn flags_metric_names_missing_from_the_readme_inventory() {
    let fx = Fixture::new("obs");
    fx.write(
        "README.md",
        "## Observability\n\n| `lp.solve.count` | scenario LPs solved |\n",
    );
    fx.write(
        "crates/foo/src/lib.rs",
        "fn f() {\n    dls_obs::counter!(\"lp.solve.count\").incr();\n    \
         dls_obs::trace_span!(\"undocumented.seconds\");\n}\n",
    );

    let v = lint_workspace(&fx.root).unwrap();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "obs-metric-names");
    assert_eq!(v[0].file, Path::new("crates/foo/src/lib.rs"));
    assert_eq!(v[0].line, 3);
    assert!(v[0].message.contains("undocumented.seconds"));
}

#[test]
fn flags_inventory_rows_that_no_source_literal_emits() {
    let fx = Fixture::new("obs-stale");
    // Only the table headed `metric` is the inventory.
    fx.write(
        "README.md",
        "| `DLS_TRACE` | behavior |\n|---|---|\n| `summary` | a mode, not a metric |\n\n\
         | metric | kind | meaning |\n|---|---|---|\n\
         | `lp.solve.count` | counter | scenario LPs solved |\n\
         | `sim.gone.seconds` | histogram | recorded by deleted code |\n",
    );
    fx.write(
        "crates/foo/src/lib.rs",
        "fn f() {\n    dls_obs::counter!(\"lp.solve.count\").incr();\n}\n\n\
         #[cfg(test)]\nmod tests {\n    fn g() {\n        \
         dls_obs::histogram!(\"sim.gone.seconds\").record(1.0);\n    }\n}\n",
    );

    // A name only test code records does not keep its row alive.
    let v = lint_workspace(&fx.root).unwrap();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "obs-metric-names");
    assert_eq!(v[0].file, Path::new("README.md"));
    assert_eq!(v[0].line, 8);
    assert!(v[0].message.contains("sim.gone.seconds"));
}

#[test]
fn clean_fixture_produces_no_violations() {
    let fx = Fixture::new("clean");
    fx.write(
        "crates/foo/src/lib.rs",
        "fn f(m: &mut ScheduleModel) {\n    m.one_port(\"p\", [], 1.0);\n}\n",
    );
    fx.write(
        "crates/bench/benches/solver_baseline.json",
        "{\n  \"p_ns\": 1\n}\n",
    );
    fx.write(
        "crates/bench/benches/solver.rs",
        "fn main() { run_gate(base, \"p_ns\", \"solver\", work); }\n",
    );
    assert!(lint_workspace(&fx.root).unwrap().is_empty());
}

/// The gate CI relies on: the actual repository is lint-clean.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .unwrap();
    let violations = lint_workspace(root).unwrap();
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
