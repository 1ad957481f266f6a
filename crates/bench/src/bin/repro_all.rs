//! Regenerates every figure of the paper's evaluation section and writes
//! tables, series files and traces under `results/`.
//!
//! Usage: `repro_all [--quick] [--out <dir>]` (default out dir: `results`).

use dls_bench::figures::interleaved::run_interleaved_gap;
use dls_bench::figures::sweep::{
    depth_sweep_variant, r_sweep_variant, run_depth_sweep, run_r_sweep,
};
use dls_bench::figures::{fig08, fig09, fig10_13, fig14};
use dls_bench::SweepConfig;
use dls_platform::{ClusterModel, MatrixApp, PlatformSampler};
use dls_report::{multiround_table, tree_table, write_dat, write_text, Series};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

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
    for variant in [
        ("fig10", fig10_13::fig10_variant()),
        ("fig11", fig10_13::fig11_variant()),
        ("fig12", fig10_13::fig12_variant()),
        ("fig13a", fig10_13::fig13a_variant()),
        ("fig13b", fig10_13::fig13b_variant()),
    ] {
        let (stem, v) = variant;
        let _fig = dls_obs::trace_span!("repro.figure.seconds", "figure" => stem);
        let started = Instant::now();
        let res = fig10_13::run(&v, &cfg);
        println!("{}\n", res.label);
        let table = res.table();
        println!("{}", table.render());
        for row in &res.rows {
            for skip in &row.skipped {
                println!(
                    "  note: n = {}: {} ({}) skipped on {} platform(s): {}",
                    row.size, skip.id, skip.legend, skip.platforms, skip.reason
                );
            }
        }
        println!("({} in {:.1?})\n", stem, started.elapsed());
        let (xs, series) = res.series();
        write_dat(
            &out.join(format!("{stem}.dat")),
            "matrix_size",
            &xs,
            &series,
        )
        .expect("dat");
        write_text(
            &out.join(format!("{stem}.txt")),
            &format!("{}\n\n{}", res.label, table.render()),
        )
        .expect("txt");
        write_text(&out.join(format!("{stem}.csv")), &table.to_csv()).expect("csv");
    }

    // --- Multi-round installment trade-off (beyond the paper; ROADMAP's
    // multi-round item). Averaged R-sweep over the heterogeneous-star
    // family at the paper-scale size, plus the trade-off table on one
    // concrete paper-scale platform.
    dls_rounds::install();
    {
        let _fig = dls_obs::trace_span!("repro.figure.seconds", "figure" => "multiround_rsweep");
        let started = Instant::now();
        let r_res = run_r_sweep(&cfg, &r_sweep_variant());
        println!(
            "{} — n = {}, {} platforms, makespans normalized by {} (mean {:.3} s)\n",
            r_res.label, r_res.n, cfg.platforms, r_res.baseline, r_res.baseline_makespan
        );
        let r_table = r_res.table();
        println!("{}", r_table.render());
        for row in &r_res.rows {
            for skip in &row.skipped {
                println!(
                    "  note: R = {}: {} ({}) skipped on {} platform(s): {}",
                    row.rounds, skip.id, skip.legend, skip.platforms, skip.reason
                );
            }
        }
        println!("(multiround R-sweep in {:.1?})\n", started.elapsed());
        let xs: Vec<f64> = r_res.rows.iter().map(|r| r.rounds as f64).collect();
        let series: Vec<Series> = r_res
            .rows
            .first()
            .map(|first| {
                first
                    .ratios
                    .iter()
                    .enumerate()
                    .map(|(k, (name, _))| {
                        Series::new(
                            name.clone(),
                            r_res.rows.iter().map(|r| r.ratios[k].1).collect(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        write_dat(&out.join("multiround_rsweep.dat"), "rounds", &xs, &series).expect("dat");
        write_text(
            &out.join("multiround_rsweep.txt"),
            &format!("{}\n\n{}", r_res.label, r_table.render()),
        )
        .expect("txt");
        write_text(&out.join("multiround_rsweep.csv"), &r_table.to_csv()).expect("csv");

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
        let d_res = run_depth_sweep(&cfg, &depth_sweep_variant());
        println!(
            "{} — n = {}, {} platforms, makespans normalized by flat-star {} (mean {:.3} s)\n",
            d_res.label, d_res.n, cfg.platforms, d_res.baseline, d_res.baseline_makespan
        );
        let d_table = d_res.table();
        println!("{}", d_table.render());
        for row in &d_res.rows {
            for skip in &row.skipped {
                println!(
                    "  note: fanout = {}: {} ({}) skipped on {} platform(s): {}",
                    row.fanout, skip.id, skip.legend, skip.platforms, skip.reason
                );
            }
        }
        println!("(tree depth sweep in {:.1?})\n", started.elapsed());
        let xs: Vec<f64> = d_res.rows.iter().map(|r| r.depth as f64).collect();
        let series: Vec<Series> = d_res
            .rows
            .first()
            .map(|first| {
                first
                    .ratios
                    .iter()
                    .enumerate()
                    .map(|(k, (name, _))| {
                        Series::new(
                            name.clone(),
                            d_res.rows.iter().map(|r| r.ratios[k].1).collect(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        write_dat(&out.join("tree_depth_sweep.dat"), "depth", &xs, &series).expect("dat");
        write_text(
            &out.join("tree_depth_sweep.txt"),
            &format!("{}\n\n{}", d_res.label, d_table.render()),
        )
        .expect("txt");
        write_text(&out.join("tree_depth_sweep.csv"), &d_table.to_csv()).expect("csv");

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
        let g_res = run_interleaved_gap(&cfg);
        println!(
            "{} — n = {}, {} platforms, makespans normalized by OPT_FIFO (mean {:.3} s)\n",
            g_res.label, g_res.n, g_res.platforms, g_res.baseline_makespan
        );
        let g_table = g_res.table();
        println!("{}", g_table.render());
        println!("(interleaved gap in {:.1?})\n", started.elapsed());
        let (xs, series) = g_res.series();
        write_dat(&out.join("interleaved_gap.dat"), "lead", &xs, &series).expect("dat");
        write_text(
            &out.join("interleaved_gap.txt"),
            &format!("{}\n\n{}", g_res.label, g_table.render()),
        )
        .expect("txt");
        write_text(&out.join("interleaved_gap.csv"), &g_table.to_csv()).expect("csv");
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
