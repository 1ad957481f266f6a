//! Regenerates every figure of the paper's evaluation section and writes
//! tables, series files and traces under `results/`.
//!
//! Usage: `repro_all [--quick] [--out <dir>]` (default out dir: `results`).

use dls_bench::figures::interleaved::run_interleaved_gap;
use dls_bench::figures::sweep::{
    depth_sweep_variant, r_sweep_variant, run_depth_sweep, run_r_sweep, SkippedStrategy,
};
use dls_bench::figures::{fig08, fig09, fig10_13, fig14};
use dls_bench::SweepConfig;
use dls_platform::{ClusterModel, MatrixApp, PlatformSampler};
use dls_report::{multiround_table, tree_table, write_dat, write_text, Series, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one averaged study prints and writes.
struct Study {
    /// Stdout heading above the table.
    heading: String,
    /// First line of the `.txt` file.
    label: String,
    table: Table,
    /// One line per skipped strategy and axis value.
    notes: Vec<String>,
    /// The `.dat` x column and series.
    series: (Vec<f64>, Vec<Series>),
}

/// Prints one averaged study's heading, table and skip notes, and writes
/// `<stem>.{dat,txt,csv}` under `out` with `x_label` naming the `.dat` x
/// column.
fn study(out: &Path, stem: &str, x_label: &str, s: Study) {
    println!("{}\n", s.heading);
    println!("{}", s.table.render());
    for note in &s.notes {
        println!("{note}");
    }
    let (xs, series) = &s.series;
    write_dat(&out.join(format!("{stem}.dat")), x_label, xs, series).expect("dat");
    write_text(
        &out.join(format!("{stem}.txt")),
        &format!("{}\n\n{}", s.label, s.table.render()),
    )
    .expect("txt");
    write_text(&out.join(format!("{stem}.csv")), &s.table.to_csv()).expect("csv");
}

/// One note per strategy a study skipped, as `<axis> = <value>: ...`.
fn skip_notes<'a>(
    axis: &str,
    rows: impl Iterator<Item = (usize, &'a Vec<SkippedStrategy>)>,
) -> Vec<String> {
    rows.flat_map(|(value, skipped)| {
        skipped.iter().map(move |skip| {
            format!(
                "  note: {axis} = {value}: {} ({}) skipped on {} platform(s): {}",
                skip.id, skip.legend, skip.platforms, skip.reason
            )
        })
    })
    .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let cfg = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::paper()
    };

    println!(
        "Reproducing RR-5738 evaluation ({} mode) into {}/\n",
        if quick { "quick" } else { "paper-scale" },
        out.display()
    );
    let t0 = Instant::now();

    // --- Figure 8. Each figure section opens a root trace span, so one
    // logical request (= one pid in a chrome: export) per figure.
    let f8 = {
        let _fig = dls_obs::trace_span!("repro.figure.seconds", "figure" => "fig08");
        fig08::run(0xF1608)
    };
    println!("{}", f8.report());
    f8.write_dat(&out.join("fig08_linearity.dat")).expect("dat");
    write_text(&out.join("fig08_linearity.txt"), &f8.report()).expect("txt");

    // --- Figure 9.
    let f9 = {
        let _fig = dls_obs::trace_span!("repro.figure.seconds", "figure" => "fig09");
        fig09::run(200, if quick { 200 } else { 1000 }, 0xF1609)
    };
    println!("{}", f9.report());
    write_text(&out.join("fig09_trace.txt"), &f9.report()).expect("txt");
    write_text(&out.join("fig09_trace.csv"), &f9.trace_csv).expect("csv");

    // --- Figures 10-13.
    for (stem, v) in [
        ("fig10", fig10_13::fig10_variant()),
        ("fig11", fig10_13::fig11_variant()),
        ("fig12", fig10_13::fig12_variant()),
        ("fig13a", fig10_13::fig13a_variant()),
        ("fig13b", fig10_13::fig13b_variant()),
    ] {
        let _fig = dls_obs::trace_span!("repro.figure.seconds", "figure" => stem);
        let started = Instant::now();
        let res = fig10_13::run(&v, &cfg);
        let notes = skip_notes("n", res.rows.iter().map(|r| (r.size, &r.skipped)));
        study(
            &out,
            stem,
            "matrix_size",
            Study {
                heading: res.label.clone(),
                table: res.table(),
                notes,
                series: res.series(),
                label: res.label,
            },
        );
        println!("({stem} in {:.1?})\n", started.elapsed());
    }

    // --- Multi-round installment trade-off (beyond the paper; ROADMAP's
    // multi-round item). Averaged R-sweep over the heterogeneous-star
    // family at the paper-scale size, plus the trade-off table on one
    // concrete paper-scale platform.
    dls_rounds::install();
    {
        let _fig = dls_obs::trace_span!("repro.figure.seconds", "figure" => "multiround_rsweep");
        let started = Instant::now();
        let res = run_r_sweep(&cfg, &r_sweep_variant());
        let heading = format!(
            "{} — n = {}, {} platforms, makespans normalized by {} (mean {:.3} s)",
            res.label, res.n, cfg.platforms, res.baseline, res.baseline_makespan
        );
        let notes = skip_notes("R", res.rows.iter().map(|r| (r.rounds, &r.skipped)));
        study(
            &out,
            "multiround_rsweep",
            "rounds",
            Study {
                heading,
                table: res.table(),
                notes,
                series: res.series(),
                label: res.label,
            },
        );
        println!("(multiround R-sweep in {:.1?})\n", started.elapsed());

        // One concrete paper-scale platform (gdsdmi cluster, n = 200,
        // heterogeneous star, fixed seed) for the absolute-makespan table.
        let mut rng = StdRng::seed_from_u64(0xF16A0);
        let platform = PlatformSampler::hetero_star().sample(
            &MatrixApp::new(200),
            &ClusterModel::gdsdmi(),
            &mut rng,
        );
        let mr_table = multiround_table(&platform, &[1, 2, 4, 8]);
        println!("makespan vs R on one paper-scale platform (n = 200, unit load):\n");
        println!("{}", mr_table.render());
        write_text(
            &out.join("multiround_platform.txt"),
            &format!(
                "makespan vs R, gdsdmi n = 200 sample platform\n\n{}",
                mr_table.render()
            ),
        )
        .expect("txt");
    }

    // --- Tree-platform trade-off (beyond the paper; ROADMAP's tree item).
    // Averaged depth sweep over the heterogeneous-star family at the
    // paper-scale size, plus the trade-off table on one concrete platform.
    dls_tree::install();
    {
        let _fig = dls_obs::trace_span!("repro.figure.seconds", "figure" => "tree_depth_sweep");
        let started = Instant::now();
        let res = run_depth_sweep(&cfg, &depth_sweep_variant());
        let heading = format!(
            "{} — n = {}, {} platforms, makespans normalized by flat-star {} (mean {:.3} s)",
            res.label, res.n, cfg.platforms, res.baseline, res.baseline_makespan
        );
        let notes = skip_notes("fanout", res.rows.iter().map(|r| (r.fanout, &r.skipped)));
        study(
            &out,
            "tree_depth_sweep",
            "depth",
            Study {
                heading,
                table: res.table(),
                notes,
                series: res.series(),
                label: res.label,
            },
        );
        println!("(tree depth sweep in {:.1?})\n", started.elapsed());

        // One concrete paper-scale platform for the absolute table.
        let mut rng = StdRng::seed_from_u64(0xF16B0);
        let platform = PlatformSampler::hetero_star().sample(
            &MatrixApp::new(200),
            &ClusterModel::gdsdmi(),
            &mut rng,
        );
        let t_table = tree_table(&platform, &[platform.num_workers(), 3, 2, 1]);
        println!("makespan vs depth on one paper-scale platform (n = 200, unit load):\n");
        println!("{}", t_table.render());
        write_text(
            &out.join("tree_platform.txt"),
            &format!(
                "makespan vs balanced-tree depth, gdsdmi n = 200 sample platform\n\n{}",
                t_table.render()
            ),
        )
        .expect("txt");
    }

    // --- Interleaved-master gap (beyond the paper; the interleaved
    // ROADMAP item): per-lead LP optima of the merge family vs the
    // canonical shape vs simulator replay under both master policies.
    dls_core::interleaved::install();
    {
        let _fig = dls_obs::trace_span!("repro.figure.seconds", "figure" => "interleaved_gap");
        let started = Instant::now();
        let res = run_interleaved_gap(&cfg);
        let heading = format!(
            "{} — n = {}, {} platforms, makespans normalized by OPT_FIFO (mean {:.3} s)",
            res.label, res.n, res.platforms, res.baseline_makespan
        );
        study(
            &out,
            "interleaved_gap",
            "lead",
            Study {
                heading,
                table: res.table(),
                notes: Vec::new(),
                series: res.series(),
                label: res.label,
            },
        );
        println!("(interleaved gap in {:.1?})\n", started.elapsed());
    }

    // --- Figure 14 (both subfigures plus the header/text discrepancy run).
    let mut f14_all = String::new();
    for x in [1.0, 2.0, 3.0] {
        let _fig = dls_obs::trace_span!("repro.figure.seconds", "figure" => "fig14");
        let fig = fig14::run(x, 400, if quick { 200 } else { 1000 }, 0xF1614);
        println!("{}\n", fig.report());
        f14_all.push_str(&fig.report());
        f14_all.push_str("\n\n");
    }
    write_text(&out.join("fig14_participation.txt"), &f14_all).expect("txt");

    // One end-of-run metrics snapshot through the `DLS_TRACE` sink
    // (summary table / JSONL / trace export); a no-op when tracing is off.
    dls_obs::emit("repro_all");
    println!(
        "All artefacts regenerated in {:.1?}; outputs under {}/",
        t0.elapsed(),
        out.display()
    );
}
