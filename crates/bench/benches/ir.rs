//! Benchmarks of the schedule-model IR hot path: building the scenario
//! model (which builds the `Problem` the engines solve) and solving it in
//! place through the engine router — the exact pipeline every LP-backed
//! strategy runs per scenario.
//!
//! Running with `--smoke` skips the benchmark groups and instead times
//! one p = 128 IR build+solve — a cold solve through the engine router,
//! like every solve the sweeps run — against the checked-in baseline
//! (`benches/ir_baseline.json`), exiting nonzero on a regression past the
//! gate: the CI guard for the IR refactor's promise that the model layer
//! adds no measurable cost over the old hand-rolled builder. The baseline
//! was recorded when the router still served warm bases and copied each
//! model into a fresh `Problem` before solving; on a 2-core container
//! today's pipeline measures 0.50–0.63 of it after normalization, well
//! inside the 2.0 gate. (For the bare solver, see
//! `benches/solver.rs --smoke`.)

use criterion::{criterion_group, BenchmarkId, Criterion};
use dls_core::lp_model::{scenario_model, solve_model};
use dls_core::PortModel;
use dls_platform::{Heterogeneity, Platform, PlatformSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn sampler(workers: usize) -> PlatformSampler {
    PlatformSampler {
        workers,
        comm: Heterogeneity::PerWorker,
        comp: Heterogeneity::PerWorker,
        factor_range: (1.0, 10.0),
    }
}

fn platform(p: usize, seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    sampler(p).sample_abstract(5.0, 0.5, &mut rng)
}

/// One full IR pipeline pass: build the scenario model, solve it cold
/// through the router.
fn ir_solve(platform: &Platform) -> f64 {
    let order = platform.order_by_c();
    let (ir, _) = scenario_model(platform, &order, &order, PortModel::OnePort).unwrap();
    solve_model(&ir).unwrap().objective
}

fn bench_ir_build_and_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("ir/build_solve");
    for p in [8usize, 32, 128] {
        let platform = platform(p, 7);
        group.bench_with_input(BenchmarkId::from_parameter(p), &platform, |b, pf| {
            b.iter(|| black_box(ir_solve(pf)))
        });
    }
    group.finish();
}

fn bench_ir_build_only(c: &mut Criterion) {
    // Model construction without the solve: the pure IR overhead
    // (should be negligible next to any pivot).
    let platform = platform(128, 7);
    let order = platform.order_by_c();
    let mut group = c.benchmark_group("ir/build");
    group.bench_function("p128", |b| {
        b.iter(|| {
            let (ir, _) = scenario_model(&platform, &order, &order, PortModel::OnePort).unwrap();
            black_box(ir.problem().num_constraints())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ir_build_and_solve, bench_ir_build_only);

/// Times the p = 128 IR pipeline (best of `runs`, nanoseconds) after one
/// untimed pass that warms the allocator and instruction caches.
fn time_ir_ns(runs: usize) -> f64 {
    let platform = platform(128, 7);
    black_box(ir_solve(&platform));
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = std::time::Instant::now();
        black_box(ir_solve(&platform));
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        dls_bench::smoke::run_gate(
            concat!(env!("CARGO_MANIFEST_DIR"), "/benches/ir_baseline.json"),
            "p128_ir_ns",
            "p=128 IR build+solve",
            time_ir_ns,
        );
        return;
    }
    benches();
}
