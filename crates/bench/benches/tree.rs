//! Criterion benchmarks of the tree-platform pipeline: collapse + solve +
//! expand across depths, and topology shaping.
//!
//! Running with `--smoke` skips the benchmark groups and instead times the
//! (depth-3, p = 64) collapse+solve+expand pipeline against the checked-in
//! baseline (`benches/tree_baseline.json`) through the shared
//! `dls_bench::smoke` harness, exiting nonzero on a regression past the
//! gate — the CI guard for the tree scheduling hot path.

use criterion::{criterion_group, BenchmarkId, Criterion};
use dls_core::Scheduler;
use dls_platform::{Heterogeneity, Platform, PlatformSampler};
use dls_tree::{collapse, expand, TreeScheduler};
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

/// One full tree pipeline: shape the star into a balanced tree, collapse,
/// solve the collapsed star, expand into per-edge hop spans (their count
/// is returned). The solve records the shaped tree in `Execution::Tree`,
/// so the expansion reuses it instead of reshaping.
fn pipeline(platform: &Platform, fanout: usize) -> usize {
    let sol = TreeScheduler::fifo(fanout).solve(platform).expect("z-tied");
    let tree = sol.tree().expect("tree execution");
    expand(tree, &sol.schedule).expect("consistent").spans.len()
}

fn bench_pipeline_depth_scaling(c: &mut Criterion) {
    // Fanout sweeps the depth axis at fixed p: the curve CI watches.
    let platform = star(16, 7);
    let mut group = c.benchmark_group("tree/pipeline_p16");
    for fanout in [16usize, 4, 2, 1] {
        group.bench_with_input(BenchmarkId::from_parameter(fanout), &fanout, |b, &k| {
            b.iter(|| black_box(pipeline(&platform, k)))
        });
    }
    group.finish();
}

fn bench_collapse_only(c: &mut Criterion) {
    let platform = star(64, 7);
    let sched = TreeScheduler::fifo(4);
    let (tree, _) = sched.shape(&platform);
    let mut group = c.benchmark_group("tree/collapse_p64");
    group.bench_function("collapse", |b| {
        b.iter(|| black_box(collapse(&tree).num_workers()))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline_depth_scaling, bench_collapse_only);

// ---------------------------------------------------------------------------
// `--smoke`: the CI regression gate on the (depth-3, p = 64) pipeline.
// ---------------------------------------------------------------------------

/// Times one (depth-3, p = 64) collapse+solve+expand — fanout 4 arranges
/// 64 workers at depth 3 — best of `runs`, in nanoseconds. Each run
/// solves a freshly seeded platform, so the best-of covers several cost
/// draws.
fn time_pipeline_ns(runs: usize) -> f64 {
    black_box(pipeline(&star(64, 100), 4)); // warm-up
    let mut best = f64::INFINITY;
    for k in 0..runs {
        let platform = star(64, 200 + k as u64);
        let t = std::time::Instant::now();
        black_box(pipeline(&platform, 4));
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        dls_bench::smoke::run_gate(
            concat!(env!("CARGO_MANIFEST_DIR"), "/benches/tree_baseline.json"),
            "d3_p64_tree_ns",
            "depth=3 p=64 tree collapse+solve+expand",
            time_pipeline_ns,
        );
        return;
    }
    benches();
}
