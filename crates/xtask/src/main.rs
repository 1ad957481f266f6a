//! `cargo xtask <task>` — workspace development tasks.
//!
//! * `lint` — the source-level convention linter (see the library docs
//!   for the rule list);
//! * `check-trace <file>` — validate a `DLS_TRACE=chrome:<path>` export
//!   (parses the JSON, checks the event schema, requires the solve spans
//!   to nest under their `par_map` item parents, and holds the LP engines
//!   to one span per solve).

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "available tasks:\n  lint                       run the source-level convention linter\n  check-trace <trace.json>   validate a DLS_TRACE=chrome: export";

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let task = args.next();
    match task.as_deref() {
        Some("lint") => {
            let mut root = workspace_root();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => match args.next() {
                        Some(p) => root = PathBuf::from(p),
                        None => {
                            eprintln!("--root requires a path");
                            return ExitCode::FAILURE;
                        }
                    },
                    other => {
                        eprintln!("unknown argument: {other}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            match xtask::lint_workspace(&root) {
                Ok(violations) if violations.is_empty() => {
                    println!("xtask lint: clean ({})", root.display());
                    ExitCode::SUCCESS
                }
                Ok(violations) => {
                    for v in &violations {
                        println!("{v}");
                    }
                    println!(
                        "xtask lint: {} violation{} in {}",
                        violations.len(),
                        if violations.len() == 1 { "" } else { "s" },
                        root.display()
                    );
                    ExitCode::FAILURE
                }
                Err(err) => {
                    eprintln!("xtask lint: io error: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("check-trace") => {
            let Some(path) = args.next() else {
                eprintln!("usage: cargo xtask check-trace <trace.json>");
                return ExitCode::FAILURE;
            };
            let doc = match std::fs::read_to_string(&path) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("xtask check-trace: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match xtask::check_chrome_trace(&doc) {
                Ok(check) => {
                    let per_solve = check
                        .events_per_engine_solve()
                        .map_or_else(|| "n/a".to_string(), |e| format!("{e:.2}"));
                    println!(
                        "xtask check-trace: OK — {} events ({} spans, {} instants), \
                         {} par_map items, {} solve spans nested under them, \
                         {} engine solves ({per_solve} events per engine solve) ({path})",
                        check.events,
                        check.complete,
                        check.instants,
                        check.par_map_items,
                        check.nested_solves,
                        check.engine_solves,
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("xtask check-trace: FAIL — {e} ({path})");
                    ExitCode::FAILURE
                }
            }
        }
        Some(other) => {
            eprintln!("unknown task: {other}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <task>\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
