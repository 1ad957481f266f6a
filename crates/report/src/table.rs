//! Plain-text tables for figure/table harness output, including the
//! registry-driven strategy comparison table.

use std::fmt::Write as _;

use dls_core::engine::Provenance;
use dls_platform::Platform;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple monospace table builder.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers (all right-aligned except
    /// the first).
    pub fn new(headers: &[&str]) -> Self {
        let aligns = headers
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns,
            rows: Vec::new(),
        }
    }

    /// Overrides column alignments (must match the header count).
    pub fn with_aligns(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.headers.len());
        self.aligns = aligns.to_vec();
        self
    }

    /// Appends a row of already formatted cells.
    ///
    /// # Panics
    /// Panics when the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells for {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a row of mixed display values.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with a header separator.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String], widths: &[usize], aligns: &[Align]| {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                let cell = &cells[i];
                let pad = widths[i] - cell.chars().count();
                match aligns[i] {
                    Align::Left => {
                        out.push_str(cell);
                        out.push_str(&" ".repeat(pad));
                    }
                    Align::Right => {
                        out.push_str(&" ".repeat(pad));
                        out.push_str(cell);
                    }
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers, &widths, &self.aligns);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            fmt_row(&mut out, row, &widths, &self.aligns);
        }
        out
    }

    /// Renders as CSV (no alignment, comma-separated, quoted when needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Formats an `f64` with `prec` decimal places (the harness' standard
/// number format).
pub fn num(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Renders every strategy in [`dls_core::registry`] side by side on one
/// platform: throughput, enrolled workers, rounds, verified makespan and
/// solution provenance. Strategies that do not apply to the platform (e.g.
/// the bus closed form on a star, exhaustive search past its size guard)
/// get an explanatory `n/a` row instead of being skipped, so the table
/// always lists the full registry. Multi-round solutions (installed via
/// `dls_rounds::install`) are timed on their expanded execution platform
/// and report distinct *physical* workers in the `enrolled` column.
pub fn strategy_table(platform: &Platform) -> Table {
    let mut t = Table::new(&[
        "strategy",
        "legend",
        "rho",
        "enrolled",
        "rounds",
        "makespan",
        "provenance",
    ]);
    for s in dls_core::registry() {
        match s.solve(platform) {
            Ok(sol) => {
                let makespan = match sol.verified_timeline(platform, 1e-7) {
                    Ok(timeline) => num(timeline.makespan(), 6),
                    Err(violations) => format!("INFEASIBLE ({})", violations.len()),
                };
                let provenance = match sol.provenance {
                    Provenance::Lp { iterations } => format!("lp ({iterations} pivots)"),
                    Provenance::ClosedForm => "closed form".into(),
                    Provenance::Search { evaluated } => {
                        format!("search ({evaluated} scenarios)")
                    }
                    Provenance::LpBound { iterations, bound } => {
                        format!("lp bound {} ({iterations} pivots)", num(bound, 6))
                    }
                };
                t.row(&[
                    s.name().to_string(),
                    s.legend().to_string(),
                    num(sol.throughput, 6),
                    format!(
                        "{}/{}",
                        sol.enrolled_workers(platform),
                        platform.num_workers()
                    ),
                    sol.rounds().to_string(),
                    makespan,
                    provenance,
                ]);
            }
            Err(e) => {
                t.row(&[
                    s.name().to_string(),
                    s.legend().to_string(),
                    "n/a".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{e}"),
                ]);
            }
        }
    }
    t
}

/// The multi-round latency/throughput trade-off table: one row per
/// installment count `R`, columns for each `multiround_*` planner's
/// predicted makespan (unit total load) and the best planner's speedup
/// over the one-round `optimal_fifo` makespan.
///
/// Resolves the parameterized ids `multiround_{uniform,geometric,lp}@R`
/// through [`dls_core::lookup`], so the caller must have installed the
/// multi-round provider (`dls_rounds::install()`); unresolvable or failing
/// ids render as `n/a` rather than aborting the table.
pub fn multiround_table(platform: &Platform, rounds: &[usize]) -> Table {
    const PLANNERS: [(&str, &str); 3] = [
        ("multiround_uniform", "MR_UNI"),
        ("multiround_geometric", "MR_GEO"),
        ("multiround_lp", "MR_LP"),
    ];
    let baseline = dls_core::lookup("optimal_fifo")
        .and_then(|s| s.solve(platform).ok())
        .map(|sol| 1.0 / sol.throughput);

    let mut headers: Vec<String> = vec!["R".into()];
    headers.extend(
        PLANNERS
            .iter()
            .map(|(_, legend)| format!("{legend} makespan")),
    );
    headers.push("best vs OPT_FIFO".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    for &r in rounds {
        let mut cells = vec![r.to_string()];
        let mut best: Option<f64> = None;
        for (id, _) in PLANNERS {
            let makespan = dls_core::lookup(&format!("{id}@{r}"))
                .and_then(|s| s.solve(platform).ok())
                .map(|sol| 1.0 / sol.throughput);
            match makespan {
                Some(m) => {
                    best = Some(best.map_or(m, |b: f64| b.min(m)));
                    cells.push(num(m, 6));
                }
                None => cells.push("n/a".into()),
            }
        }
        cells.push(match (best, baseline) {
            (Some(m), Some(b)) => format!("{}x", num(b / m, 4)),
            _ => "-".into(),
        });
        t.row(&cells);
    }
    t
}

/// The tree depth/fan-out trade-off table: one row per balanced-tree
/// fanout, columns for the resulting depth and each `tree_*` strategy's
/// collapsed-star makespan (unit horizon × the strategy's makespan ratio),
/// plus the best strategy's slowdown versus the flat-star `optimal_fifo`.
///
/// Resolves the parameterized ids `tree_{fifo,lifo}@<fanout>` through
/// [`dls_core::lookup`], so the caller must have installed the tree
/// provider (`dls_tree::install()`); unresolvable or failing ids render as
/// `n/a` rather than aborting the table.
pub fn tree_table(platform: &Platform, fanouts: &[usize]) -> Table {
    const STRATEGIES: [(&str, &str); 2] = [("tree_fifo", "TREE_FIFO"), ("tree_lifo", "TREE_LIFO")];
    let baseline = dls_core::lookup("optimal_fifo")
        .and_then(|s| s.solve(platform).ok())
        .map(|sol| 1.0 / sol.throughput);

    let mut headers: Vec<String> = vec!["fanout".into(), "depth".into()];
    headers.extend(
        STRATEGIES
            .iter()
            .map(|(_, legend)| format!("{legend} makespan")),
    );
    headers.push("best vs OPT_FIFO".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    for &k in fanouts {
        let depth = dls_platform::TreePlatform::balanced(platform, k).depth();
        let mut cells = vec![k.to_string(), depth.to_string()];
        let mut best: Option<f64> = None;
        for (id, _) in STRATEGIES {
            let makespan = dls_core::lookup(&format!("{id}@{k}"))
                .and_then(|s| s.solve(platform).ok())
                .map(|sol| 1.0 / sol.throughput);
            match makespan {
                Some(m) => {
                    best = Some(best.map_or(m, |b: f64| b.min(m)));
                    cells.push(num(m, 6));
                }
                None => cells.push("n/a".into()),
            }
        }
        cells.push(match (best, baseline) {
            (Some(m), Some(b)) => format!("{}x", num(m / b, 4)),
            _ => "-".into(),
        });
        t.row(&cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1.50".into()]);
        t.row(&["b".into(), "10.25".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned values line up at the end.
        assert!(lines[2].ends_with("1.50"));
        assert!(lines[3].ends_with("10.25"));
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn wrong_cell_count_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["k", "v"]);
        t.row(&["with,comma".into(), "with\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    fn num_formatting() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(2.0, 0), "2");
    }

    #[test]
    fn row_display_and_count() {
        let mut t = Table::new(&["x", "y"]);
        t.row_display(&[&1, &2.5]);
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("2.5"));
    }

    #[test]
    fn strategy_table_lists_whole_registry_on_a_bus() {
        // Install every provider another test in this binary installs, so
        // the registry contents (and therefore the expected row count)
        // cannot change between building the table and counting the
        // registry, whatever the test execution order.
        dls_rounds::install();
        dls_tree::install();
        let p = Platform::bus(1.0, 0.5, &[3.0, 5.0, 4.0]).unwrap();
        let t = strategy_table(&p);
        assert_eq!(t.num_rows(), dls_core::registry().len());
        let rendered = t.render();
        // Every strategy applies on a small bus: no n/a rows.
        assert!(!rendered.contains("n/a"), "unexpected n/a:\n{rendered}");
        assert!(rendered.contains("optimal_fifo"));
        assert!(rendered.contains("closed form"));
        assert!(rendered.contains("pivots"));
        // Multi-round rows report their installed round count.
        assert!(
            rendered.contains("multiround_lp"),
            "missing multiround rows"
        );
    }

    #[test]
    fn strategy_table_reports_inapplicable_strategies() {
        // A star: the Theorem 2 bus closed form must row out as n/a rather
        // than vanish. Providers installed up front, as above.
        dls_rounds::install();
        dls_tree::install();
        let p = Platform::star_with_z(&[(1.0, 2.0), (2.0, 1.0)], 0.5).unwrap();
        let t = strategy_table(&p);
        assert_eq!(t.num_rows(), dls_core::registry().len());
        let rendered = t.render();
        assert!(rendered.contains("n/a"));
        assert!(rendered.contains("bus"));
    }

    #[test]
    fn multiround_table_rows_per_round_count() {
        dls_rounds::install();
        let p = Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0)], 0.5).unwrap();
        let t = multiround_table(&p, &[1, 2, 4]);
        assert_eq!(t.num_rows(), 3);
        let rendered = t.render();
        assert!(rendered.contains("MR_LP"));
        assert!(rendered.contains("best vs OPT_FIFO"));
        assert!(!rendered.contains("n/a"), "planners failed:\n{rendered}");
        // R = 1 reduces to optimal_fifo: speedup exactly 1.0000x.
        let r1 = rendered.lines().nth(2).expect("R = 1 row");
        assert!(r1.trim_end().ends_with("1.0000x"), "R = 1 row: {r1}");
    }

    #[test]
    fn tree_table_rows_per_fanout_with_flat_identity() {
        dls_tree::install();
        let p = Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0)], 0.5).unwrap();
        let t = tree_table(&p, &[3, 2, 1]);
        assert_eq!(t.num_rows(), 3);
        let rendered = t.render();
        assert!(rendered.contains("TREE_FIFO"));
        assert!(rendered.contains("best vs OPT_FIFO"));
        assert!(!rendered.contains("n/a"), "strategies failed:\n{rendered}");
        // fanout >= p is the flat star: TREE_FIFO reproduces optimal_fifo
        // exactly (the LIFO column may beat it — LIFO is not a FIFO
        // schedule — so "best vs OPT_FIFO" can dip below 1x on depth 1).
        let opt = 1.0
            / dls_core::lookup("optimal_fifo")
                .unwrap()
                .solve(&p)
                .unwrap()
                .throughput;
        let flat = rendered.lines().nth(2).expect("fanout 3 row");
        assert!(flat.contains(&num(opt, 6)), "flat row: {flat}");
        assert!(
            flat.split_whitespace().nth(1) == Some("1"),
            "flat depth: {flat}"
        );
        // The chain row is the deepest.
        let chain = rendered.lines().nth(4).expect("fanout 1 row");
        assert!(
            chain.split_whitespace().nth(1) == Some(&p.num_workers().to_string()),
            "chain row: {chain}"
        );
    }

    #[test]
    fn tree_table_degrades_unresolvable_ids_to_na_cells() {
        // Without relying on provider state, an id that resolves but fails
        // to solve: a non-z-tied platform makes optimal_fifo (and thus the
        // collapsed solves) error, degrading cells instead of aborting.
        dls_tree::install();
        let p = Platform::new(vec![
            dls_platform::Worker::new(1.0, 2.0, 0.9),
            dls_platform::Worker::new(2.0, 1.0, 0.2),
        ])
        .unwrap();
        let t = tree_table(&p, &[2]);
        let rendered = t.render();
        let row = rendered.lines().nth(2).expect("row");
        assert_eq!(row.matches("n/a").count(), 2, "row: {row}");
        assert!(row.trim_end().ends_with('-'), "row: {row}");
    }

    #[test]
    fn multiround_table_degrades_failing_rounds_to_na_cells() {
        // A round count past the expanded-platform cap makes every planner
        // error (CoreError::TooManyRounds): the row must render n/a cells
        // and a "-" speedup instead of aborting — the same path an
        // uninstalled provider (lookup -> None) takes.
        dls_rounds::install();
        let p = Platform::star_with_z(&[(1.0, 2.0), (2.0, 1.0)], 0.5).unwrap();
        let t = multiround_table(&p, &[1, 1_000_000]);
        assert_eq!(t.num_rows(), 2);
        let rendered = t.render();
        let bad_row = rendered.lines().nth(3).expect("overflow row");
        assert_eq!(bad_row.matches("n/a").count(), 3, "row: {bad_row}");
        assert!(bad_row.trim_end().ends_with('-'), "row: {bad_row}");
        let good_row = rendered.lines().nth(2).expect("R = 1 row");
        assert!(!good_row.contains("n/a"), "row: {good_row}");
    }
}
