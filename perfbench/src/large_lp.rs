//! The `large_lp` workload: scheduling requests on fresh z-tied
//! heterogeneous stars of p = 256 workers, each solved once through
//! `dls_core::lookup("optimal_fifo")`, with no simulation and no platform
//! repeated.

use std::time::Instant;

use dls_core::engine::{Scheduler, Solution};
use dls_core::timeline::Timeline;
use dls_core::{CoreError, PortModel};
use dls_platform::{Heterogeneity, Platform, PlatformSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::repro::shifted;

/// Base computation cost of the abstract platforms (`w = 5 / f_comp`).
const BASE_W: f64 = 5.0;
/// Return ratio `d = z·c` shared by every worker.
const Z: f64 = 0.5;
/// Tolerance of the output check.
pub const TOL: f64 = 1e-7;

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workers per platform.
    pub workers: usize,
    /// Requests per timed pass.
    pub requests: usize,
    /// Untimed requests before the first pass.
    pub warmup: usize,
}

impl Config {
    /// Paper-scale sizes, or reduced ones for the self-test.
    pub fn new(quick: bool) -> Config {
        if quick {
            Config {
                workers: 64,
                requests: 100,
                warmup: 10,
            }
        } else {
            Config {
                workers: 256,
                requests: 1000,
                warmup: 50,
            }
        }
    }
}

/// A seeded stream of distinct platforms; one per benchmark process.
pub struct Stream {
    rng: StdRng,
    sampler: PlatformSampler,
}

impl Stream {
    /// The platform stream of process `process` under workload `seed`.
    pub fn new(cfg: &Config, seed: u64, process: u64) -> Stream {
        let stream_seed = shifted(0x01A4_6E1B, seed) ^ process.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Stream {
            rng: StdRng::seed_from_u64(stream_seed),
            sampler: PlatformSampler {
                workers: cfg.workers,
                comm: Heterogeneity::PerWorker,
                comp: Heterogeneity::PerWorker,
                factor_range: (1.0, 10.0),
            },
        }
    }

    /// The next platform.
    pub fn next_platform(&mut self) -> Platform {
        self.sampler.sample_abstract(BASE_W, Z, &mut self.rng)
    }

    /// The next `n` platforms.
    pub fn take(&mut self, n: usize) -> Vec<Platform> {
        (0..n).map(|_| self.next_platform()).collect()
    }
}

/// The answer to one request and how long it took.
pub struct Request {
    /// Seconds spent in `Scheduler::solve`.
    pub latency: f64,
    /// The solver's answer.
    pub result: Result<Solution, CoreError>,
}

/// Solves every platform once, in order; returns the pass wall time and
/// each request.
pub fn run_pass(scheduler: &dyn Scheduler, platforms: &[Platform]) -> (f64, Vec<Request>) {
    let started = Instant::now();
    let requests = platforms
        .iter()
        .map(|platform| {
            let t = Instant::now();
            let result = scheduler.solve(platform);
            Request {
                latency: t.elapsed().as_secs_f64(),
                result,
            }
        })
        .collect();
    (started.elapsed().as_secs_f64(), requests)
}

/// The output check: the schedule's one-port timeline verifies within
/// [`TOL`] and fits the unit horizon.
pub fn verify(platform: &Platform, result: &Result<Solution, CoreError>) -> Result<(), String> {
    let sol = result.as_ref().map_err(|e| e.to_string())?;
    let exec = sol.execution_platform(platform);
    let timeline = Timeline::build(exec, &sol.schedule, PortModel::OnePort);
    let violations = timeline.verify(exec, &sol.schedule, TOL);
    if !violations.is_empty() {
        return Err(violations.join("; "));
    }
    if timeline.makespan() > 1.0 + TOL {
        return Err(format!(
            "makespan {} exceeds the unit horizon",
            timeline.makespan()
        ));
    }
    Ok(())
}
