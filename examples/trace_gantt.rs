//! Figure 9-style trace visualisation: run the optimal FIFO schedule on a
//! five-worker heterogeneous platform and render the execution as a Gantt
//! chart (reception ░, computation █, return transfer ▒). Only three of
//! the five workers end up enrolled — watch the master's port stay
//! exclusive throughout.
//!
//! Run with: `cargo run --release --example trace_gantt [fifo|lifo]`

// Examples print their findings; the workspace print_stdout deny
// applies to library code only.
#![allow(clippy::print_stdout)]

use dls::core::engine::{OptimalFifo, OptimalLifo};
use dls::core::prelude::*;
use dls::platform::scenario;
use dls::sim::{gantt, simulate, SimConfig};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "fifo".into());
    let platform = scenario::fig9_platform(400);
    println!("{platform}");

    let sol = match mode.as_str() {
        "lifo" => OptimalLifo.solve(&platform),
        _ => OptimalFifo.solve(&platform),
    }
    .expect("z-tied");
    println!(
        "{} schedule, {} of {} workers enrolled, rho = {:.4}\n",
        mode.to_uppercase(),
        sol.schedule.participants().len(),
        platform.num_workers(),
        sol.throughput
    );

    // Scale to M = 1000 matrix products, round to integers, execute with
    // mild jitter — exactly what the paper's MPI driver does.
    let int_sched = integer_schedule(&sol.schedule, 1000);
    let report = simulate(&platform, &int_sched, &SimConfig::jittered(7));
    println!(
        "{}",
        gantt::render(
            &report.trace,
            &gantt::GanttConfig {
                width: 100,
                unicode: true
            }
        )
    );
    println!("simulated makespan: {:.3} s", report.makespan);

    // Per-worker accounting.
    for id in int_sched.participants() {
        if let Some(stats) = report.trace.worker_stats(id) {
            println!(
                "  {id}: recv {:.3}s  compute {:.3}s  idle {:.3}s  return {:.3}s",
                stats.recv, stats.compute, stats.idle, stats.ret
            );
        }
    }
    println!(
        "  master port utilization: {:.1}%",
        report.trace.master_utilization() * 100.0
    );
}
