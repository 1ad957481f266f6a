//! Criterion benchmarks of the multi-round planners: LP-planner scaling in
//! the round count and the heuristic planners.
//!
//! Running with `--smoke` skips the benchmark groups and instead times the
//! (R = 4, p = 64) multi-round LP plan against the checked-in baseline
//! (`benches/multiround_baseline.json`) through the shared
//! `dls_bench::smoke` harness, exiting nonzero on a regression past the
//! gate — the CI guard for the multi-round planning hot path.

use criterion::{criterion_group, BenchmarkId, Criterion};
use dls_platform::{Heterogeneity, Platform, PlatformSampler};
use dls_rounds::{plan_geometric, plan_lp, plan_uniform};
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

/// A seeded random compute-bound star with `p` workers.
fn star(p: usize, seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    sampler(p).sample_abstract(5.0, 0.5, &mut rng)
}

fn bench_lp_planner_round_scaling(c: &mut Criterion) {
    // The expanded scenario LP grows with p·R: the curve CI watches.
    let platform = star(16, 7);
    let mut group = c.benchmark_group("multiround/lp_plan_p16");
    for r in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            b.iter(|| black_box(plan_lp(&platform, r).unwrap().plan.predicted_makespan()))
        });
    }
    group.finish();
}

fn bench_heuristic_planners(c: &mut Criterion) {
    let platform = star(16, 7);
    let mut group = c.benchmark_group("multiround/heuristics_p16_r4");
    group.bench_function("uniform", |b| {
        b.iter(|| {
            black_box(
                plan_uniform(&platform, 4)
                    .unwrap()
                    .plan
                    .predicted_makespan(),
            )
        })
    });
    group.bench_function("geometric", |b| {
        b.iter(|| {
            black_box(
                plan_geometric(&platform, 4)
                    .unwrap()
                    .plan
                    .predicted_makespan(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lp_planner_round_scaling,
    bench_heuristic_planners
);

// ---------------------------------------------------------------------------
// `--smoke`: the CI regression gate on the (R = 4, p = 64) planning path.
// ---------------------------------------------------------------------------

/// Times one (R = 4, p = 64) LP plan — a 512-variable expanded scenario LP
/// plus lowering — best of `runs`, in nanoseconds. Each run plans a
/// freshly seeded platform, so the best-of covers several cost draws.
fn time_plan_ns(runs: usize) -> f64 {
    black_box(plan_lp(&star(64, 100), 4).unwrap()); // warm-up
    let mut best = f64::INFINITY;
    for k in 0..runs {
        let platform = star(64, 200 + k as u64);
        let t = std::time::Instant::now();
        black_box(plan_lp(&platform, 4).unwrap());
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        dls_bench::smoke::run_gate(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/multiround_baseline.json"
            ),
            "r4_p64_plan_ns",
            "R=4 p=64 multiround LP plan",
            time_plan_ns,
        );
        return;
    }
    benches();
}
