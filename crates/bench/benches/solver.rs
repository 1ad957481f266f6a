//! Criterion benchmarks of the LP substrate: tableau vs revised simplex
//! scaling on the paper's scheduling LPs (2p variables, 3p+1 constraints)
//! and pivot-rule sensitivity.
//!
//! Running with `--smoke` skips the benchmark groups and instead times the
//! p = 128 revised solve against the checked-in baseline
//! (`benches/solver_baseline.json`), exiting nonzero on a >2x regression —
//! the CI gate for the sweep hot path.

use criterion::{criterion_group, BenchmarkId, Criterion};
use dls_core::lp_model::build_problem;
use dls_core::PortModel;
use dls_lp::{solve_revised_with, solve_with, Problem, SolverOptions};
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

/// The FIFO scheduling LP for a seeded random star with `p` workers.
fn fifo_lp(p: usize, seed: u64) -> (Platform, Problem) {
    let mut rng = StdRng::seed_from_u64(seed);
    let platform = sampler(p).sample_abstract(5.0, 0.5, &mut rng);
    let order = platform.order_by_c();
    let (lp, _) = build_problem(&platform, &order, &order, PortModel::OnePort).unwrap();
    (platform, lp)
}

/// Worker counts for the scaling curves. The revised solver's advantage
/// grows with p; 256 is far beyond the paper's 11-worker platforms.
const SCALING: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

fn bench_fifo_lp_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex/fifo_lp");
    for p in SCALING {
        if p > 128 {
            // The dense tableau at p = 256 is too slow for the default
            // sample budget; the revised group covers the full curve.
            continue;
        }
        let (_, lp) = fifo_lp(p, 7);
        group.bench_with_input(BenchmarkId::from_parameter(p), &lp, |b, lp| {
            b.iter(|| {
                let opts = SolverOptions::for_size(lp.num_vars(), lp.num_constraints());
                black_box(solve_with::<f64>(lp, &opts).unwrap().objective)
            })
        });
    }
    group.finish();
}

fn bench_revised_lp_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("revised/fifo_lp");
    for p in SCALING {
        let (_, lp) = fifo_lp(p, 7);
        group.bench_with_input(BenchmarkId::from_parameter(p), &lp, |b, lp| {
            b.iter(|| {
                let opts = SolverOptions::for_size(lp.num_vars(), lp.num_constraints());
                black_box(
                    solve_revised_with::<f64>(lp, &opts, None)
                        .unwrap()
                        .solution
                        .objective,
                )
            })
        });
    }
    group.finish();
}

fn bench_pivot_rules(c: &mut Criterion) {
    // Dantzig (default until bland_after) vs pure Bland on the same LP.
    let (_, lp) = fifo_lp(32, 11);

    let mut group = c.benchmark_group("simplex/pivot_rule");
    group.bench_function("dantzig_then_bland", |b| {
        b.iter(|| {
            let opts = SolverOptions::for_size(lp.num_vars(), lp.num_constraints());
            black_box(solve_with::<f64>(&lp, &opts).unwrap().iterations)
        })
    });
    group.bench_function("pure_bland", |b| {
        b.iter(|| {
            let opts = SolverOptions {
                max_iterations: 1_000_000,
                bland_after: 0,
                ..SolverOptions::for_size(lp.num_vars(), lp.num_constraints())
            };
            black_box(solve_with::<f64>(&lp, &opts).unwrap().iterations)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fifo_lp_scaling,
    bench_revised_lp_scaling,
    bench_pivot_rules
);

// ---------------------------------------------------------------------------
// `--smoke`: the CI regression gate on the p = 128 sweep hot path (shared
// harness: `dls_bench::smoke`).
// ---------------------------------------------------------------------------

/// Times one cold revised solve at worker count `p` (best of `runs`, in
/// nanoseconds).
fn time_cold_ns(p: usize, runs: usize) -> f64 {
    let (_, lp) = fifo_lp(p, 7);
    let opts = SolverOptions::for_size(lp.num_vars(), lp.num_constraints());
    // Warm-up.
    black_box(solve_revised_with::<f64>(&lp, &opts, None).unwrap());
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = std::time::Instant::now();
        black_box(solve_revised_with::<f64>(&lp, &opts, None).unwrap());
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Times one cold *tableau* solve at worker count `p` — the reference side
/// of the cold revised/tableau ratio gates.
fn time_cold_tableau_ns(p: usize, runs: usize) -> f64 {
    let (_, lp) = fifo_lp(p, 7);
    let opts = SolverOptions::for_size(lp.num_vars(), lp.num_constraints());
    black_box(solve_with::<f64>(&lp, &opts).unwrap());
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = std::time::Instant::now();
        black_box(solve_with::<f64>(&lp, &opts).unwrap());
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Times a refactorization-heavy cold revised solve (`refactor_every = 1`
/// rebuilds the sparse LU on every pivot) — the dedicated measurement of
/// factorization cost behind the `p128_sparse_lu_ns` gate, insulated from
/// pricing/ratio-test noise dominating the default-cadence solve.
fn time_sparse_lu_ns(p: usize, runs: usize) -> f64 {
    let (_, lp) = fifo_lp(p, 7);
    let opts = SolverOptions {
        refactor_every: 1,
        ..SolverOptions::for_size(lp.num_vars(), lp.num_constraints())
    };
    black_box(solve_revised_with::<f64>(&lp, &opts, None).unwrap());
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = std::time::Instant::now();
        black_box(solve_revised_with::<f64>(&lp, &opts, None).unwrap());
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/benches/solver_baseline.json");
        dls_bench::smoke::run_gate(baseline, "p128_revised_ns", "p=128 revised solve", |runs| {
            time_cold_ns(128, runs)
        });
        // The candidate-list pricing target: the cold p=256 solve (ROADMAP
        // follow-up from the revised-simplex PR).
        dls_bench::smoke::run_gate(
            baseline,
            "p256_revised_ns",
            "p=256 revised cold solve",
            |runs| time_cold_ns(256, runs),
        );
        // Factorization-heavy solve: times the sparse LU itself by
        // refactorizing on every pivot.
        dls_bench::smoke::run_gate(
            baseline,
            "p128_sparse_lu_ns",
            "p=128 sparse LU refactor-heavy solve",
            |runs| time_sparse_lu_ns(128, runs),
        );
        // The sparse-LU tentpole win, pinned as same-machine ratios: a
        // cold revised solve must beat the cold tableau at p >= 128
        // (ratio gates read the max allowed ratio from the baseline).
        dls_bench::smoke::run_ratio_gate(
            baseline,
            "p128_cold_ratio",
            "p=128 cold revised vs tableau",
            |runs| time_cold_ns(128, runs),
            |runs| time_cold_tableau_ns(128, runs),
        );
        dls_bench::smoke::run_ratio_gate(
            baseline,
            "p256_cold_ratio",
            "p=256 cold revised vs tableau",
            |runs| time_cold_ns(256, runs),
            |runs| time_cold_tableau_ns(256, runs),
        );
        return;
    }
    benches();
}
