//! Criterion benchmarks of the scheduling algorithms: Proposition 1's LP
//! scheduler vs the analytical chain solver (the prefix ablation noted on
//! `dls_core::chain`), plus the bus closed form and the LIFO optimum.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dls_core::prelude::*;
use dls_platform::{Heterogeneity, Platform, PlatformSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn star(workers: usize, seed: u64) -> Platform {
    let sampler = PlatformSampler {
        workers,
        comm: Heterogeneity::PerWorker,
        comp: Heterogeneity::PerWorker,
        factor_range: (1.0, 10.0),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    sampler.sample_abstract(5.0, 0.5, &mut rng)
}

fn bench_optimal_fifo(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/optimal_fifo_lp");
    // 256 is the perfbench `large_lp` size.
    for p in [4usize, 11, 32, 64, 256] {
        let platform = star(p, 3);
        group.bench_with_input(BenchmarkId::from_parameter(p), &platform, |b, pf| {
            b.iter(|| black_box(optimal_fifo(pf).unwrap().throughput))
        });
    }
    group.finish();
}

fn bench_chain_vs_lp(c: &mut Criterion) {
    // The chain solver avoids the LP entirely; measure the gap.
    let platform = star(11, 5);
    let order = platform.order_by_c();
    let mut group = c.benchmark_group("scheduler/chain_vs_lp_11workers");
    group.bench_function("lp", |b| {
        b.iter(|| {
            black_box(
                solve_fifo(&platform, &order, PortModel::OnePort)
                    .unwrap()
                    .throughput,
            )
        })
    });
    group.bench_function("chain_prefix", |b| {
        b.iter(|| black_box(chain_best_prefix(&platform).unwrap().1.throughput))
    });
    group.finish();
}

fn bench_closed_forms(c: &mut Criterion) {
    let bus = Platform::bus(1.0, 0.5, &vec![5.0; 64]).unwrap();
    let mut group = c.benchmark_group("scheduler/closed_form");
    group.bench_function("bus_theorem2_64workers", |b| {
        b.iter(|| black_box(bus_fifo(&bus).unwrap().throughput))
    });
    let star64 = star(64, 9);
    group.bench_function("lifo_chain_64workers", |b| {
        b.iter(|| black_box(optimal_lifo(&star64).unwrap().throughput))
    });
    group.finish();
}

fn bench_brute_force(c: &mut Criterion) {
    let platform = star(5, 13);
    let mut group = c.benchmark_group("scheduler/brute_force_5workers");
    group.sample_size(10);
    group.bench_function("all_fifo_orders", |b| {
        b.iter(|| {
            black_box(
                best_fifo(&platform, PortModel::OnePort)
                    .unwrap()
                    .best
                    .throughput,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_optimal_fifo,
    bench_chain_vs_lp,
    bench_closed_forms,
    bench_brute_force
);
criterion_main!(benches);
