//! The traced run: replays a workload's instances sequentially on one
//! thread with a span around every call into a layer's public functions.
//!
//! A cell's spans cover building the platform, `Scheduler::solve`,
//! `rounding::integer_schedule` and `simulate`. After each cell, the scenario
//! LP of every LP-solved request is rebuilt and timed layer by layer:
//! `lp_model::scenario_model`, `ScheduleModel::lower`, then
//! `solve_revised_with` and `solve_with` cold on the same lowered problem.
//! Spans stay in memory; [`Recorder::folded`] renders them at the end.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dls_bench::figures::fig08;
use dls_bench::figures::sweep::{depth_sweep_variant, r_sweep_variant, SweepVariant};
use dls_core::engine::{Provenance, Scheduler, Solution};
use dls_core::interleaved::{interleaved_order, interleaved_profile};
use dls_core::lp_model::scenario_model;
use dls_core::rounding::integer_schedule;
use dls_core::{PortModel, Schedule};
use dls_lp::{solve_revised_with, solve_with, SolverOptions};
use dls_platform::{scenario, ClusterModel, MatrixApp, Platform, PlatformSampler, WorkerId};
use dls_sim::{simulate, MasterPolicy, RealismModel, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::large_lp;
use crate::repro::{self, Inputs, FIG14_N, FIG14_X, TABLE_N, TABLE_ROUNDS};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    duration: f64,
}

/// In-memory span recorder: one span per timed call, nested by call order.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, children included.
    pub total: f64,
    /// Summed self times: duration minus the time child spans cover.
    pub self_time: f64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed().as_secs_f64(),
            duration: 0.0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    pub fn exit(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let span = &mut self.spans[id];
        span.duration = self.epoch.elapsed().as_secs_f64() - span.start;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Each span's self time: its duration minus what its children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(|s| s.duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                out[p] -= span.duration;
            }
        }
        out
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total += span.duration;
            t.self_time += self_time;
        }
        out
    }

    /// Collapsed flamegraph stacks (`root;child;leaf <self microseconds>`).
    pub fn folded(&self) -> String {
        let mut stacks: BTreeMap<String, f64> = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            let mut path = vec![span.name];
            let mut up = span.parent;
            while let Some(p) = up {
                path.push(self.spans[p].name);
                up = self.spans[p].parent;
            }
            path.reverse();
            *stacks.entry(path.join(";")).or_default() += self_time;
        }
        stacks
            .iter()
            .map(|(stack, secs)| format!("{stack} {}\n", (secs * 1e6).round() as u64))
            .collect()
    }
}

/// A replay: its spans and request accounting.
pub struct Replay {
    /// Every span.
    pub rec: Recorder,
    /// Wall time of the whole replay, set when it finishes.
    pub wall: f64,
    /// `Scheduler::solve` (and interleaved-profile) requests made.
    pub requests: u64,
    /// Requests refused as inapplicable to their platform.
    pub skips: u64,
    /// Requests that failed otherwise, and engine disagreements.
    pub failures: Vec<String>,
}

/// Span name of a strategy's `Scheduler::solve`, by engine family.
fn engine_span(id: &str) -> &'static str {
    if id.starts_with("multiround") {
        "engine.multiround"
    } else if id.starts_with("tree") {
        "engine.tree"
    } else if id.starts_with("interleaved") {
        "engine.interleaved"
    } else {
        "engine.paper"
    }
}

fn resolve(id: &str) -> Box<dyn Scheduler> {
    dls_core::lookup(id).unwrap_or_else(|| panic!("strategy '{id}' is not registered"))
}

impl Replay {
    fn solve(
        &mut self,
        id: &str,
        scheduler: &dyn Scheduler,
        platform: &Platform,
    ) -> Option<Solution> {
        self.requests += 1;
        match self.rec.time(engine_span(id), || scheduler.solve(platform)) {
            Ok(sol) => Some(sol),
            Err(e) if e.is_applicability() => {
                self.skips += 1;
                None
            }
            Err(e) => {
                self.failures.push(format!("{id}: {e}"));
                None
            }
        }
    }

    /// Rebuilds and times the scenario LP an LP-solved request chose, on
    /// both engines; the two optima must agree.
    fn scenario(&mut self, platform: &Platform, sol: &Solution) {
        if !matches!(sol.provenance, Provenance::Lp { .. }) {
            return;
        }
        let exec = sol.execution_platform(platform);
        let scope = self.rec.enter("lp.scenario");
        let built = self.rec.time("lp_model.scenario_model", || {
            scenario_model(
                exec,
                sol.schedule.send_order(),
                sol.schedule.return_order(),
                PortModel::OnePort,
            )
        });
        match built {
            Ok((model, _)) => {
                let lp = self.rec.time("ir.lower", || model.lower());
                let opts = SolverOptions::for_size(lp.num_vars(), lp.num_constraints());
                let revised = self.rec.time("lp.solve_revised_with", || {
                    solve_revised_with::<f64>(&lp, &opts, None)
                });
                let tableau = self
                    .rec
                    .time("lp.solve_with", || solve_with::<f64>(&lp, &opts));
                match (revised, tableau) {
                    (Ok(r), Ok(t)) => {
                        let (a, b) = (r.solution.objective, t.objective);
                        if (a - b).abs() > 1e-6 * a.abs().max(b.abs()).max(1.0) {
                            self.failures
                                .push(format!("engines disagree: revised {a}, tableau {b}"));
                        }
                    }
                    (r, t) => self.failures.push(format!(
                        "scenario LP failed: revised {:?}, tableau {:?}",
                        r.err(),
                        t.err()
                    )),
                }
            }
            Err(e) => self.failures.push(format!("scenario model: {e}")),
        }
        self.rec.exit(scope);
    }

    fn new() -> Replay {
        Replay {
            rec: Recorder::new(),
            wall: 0.0,
            requests: 0,
            skips: 0,
            failures: Vec::new(),
        }
    }

    fn finish(mut self, started: Instant) -> Replay {
        self.wall = started.elapsed().as_secs_f64();
        self
    }
}

/// Replays one `repro_paper` pass: the same sections, instances and seeds,
/// sequentially on this thread.
pub fn repro(inputs: &Inputs) -> Replay {
    let started = Instant::now();
    let mut ctx = Replay::new();
    for section in repro::sections() {
        match section {
            repro::Section::Fig08 => {
                let cell = ctx.rec.enter("cell.other");
                black_box(fig08::run(inputs.fig08_seed));
                ctx.rec.exit(cell);
            }
            repro::Section::Fig09 => {
                let cell = ctx.rec.enter("cell.other");
                let platform = ctx
                    .rec
                    .time("platform.build", || scenario::fig9_platform(TABLE_N));
                replay_cell(
                    &mut ctx,
                    &platform,
                    "optimal_fifo",
                    inputs.units,
                    SimConfig::jittered(inputs.fig09_seed),
                );
                ctx.rec.exit(cell);
            }
            repro::Section::Sweep(i) => sweep(&mut ctx, inputs, &repro::sweep_variants()[i].1),
            repro::Section::MultiroundSweep => {
                let v = r_sweep_variant();
                axis_sweep(
                    &mut ctx,
                    inputs,
                    "cell.multiround",
                    &v.sampler,
                    &v.rounds,
                    &v.planners,
                    &v.baseline,
                );
            }
            repro::Section::MultiroundTable => {
                let cell = ctx.rec.enter("cell.multiround_table");
                let platform = ctx.rec.time("platform.build", || {
                    inputs.table_platform(inputs.multiround_platform_seed)
                });
                ctx.solve("optimal_fifo", resolve("optimal_fifo").as_ref(), &platform);
                for r in TABLE_ROUNDS {
                    for id in [
                        "multiround_uniform",
                        "multiround_geometric",
                        "multiround_lp",
                    ] {
                        let id = format!("{id}@{r}");
                        ctx.solve(&id, resolve(&id).as_ref(), &platform);
                    }
                }
                ctx.rec.exit(cell);
            }
            repro::Section::TreeSweep => {
                let v = depth_sweep_variant();
                axis_sweep(
                    &mut ctx,
                    inputs,
                    "cell.tree",
                    &v.sampler,
                    &v.fanouts,
                    &v.schedulers,
                    &v.baseline,
                );
            }
            repro::Section::TreeTable => {
                let cell = ctx.rec.enter("cell.tree_table");
                let platform = ctx.rec.time("platform.build", || {
                    inputs.table_platform(inputs.tree_platform_seed)
                });
                ctx.solve("optimal_fifo", resolve("optimal_fifo").as_ref(), &platform);
                for k in [platform.num_workers(), 3, 2, 1] {
                    ctx.rec.time("platform.build", || {
                        black_box(dls_platform::TreePlatform::balanced(&platform, k).depth())
                    });
                    for id in ["tree_fifo", "tree_lifo"] {
                        let id = format!("{id}@{k}");
                        ctx.solve(&id, resolve(&id).as_ref(), &platform);
                    }
                }
                ctx.rec.exit(cell);
            }
            repro::Section::Interleaved => interleaved(&mut ctx, inputs),
            repro::Section::Fig14(i) => {
                let full = ctx.rec.time("platform.build", || {
                    scenario::fig14_platform(FIG14_X[i], FIG14_N)
                });
                for k in 1..=full.num_workers() {
                    let cell = ctx.rec.enter("cell.other");
                    let ids: Vec<WorkerId> = (0..k).map(WorkerId).collect();
                    let platform = ctx.rec.time("platform.build", || {
                        full.restrict(&ids).expect("prefix restriction valid")
                    });
                    let sim = SimConfig::jittered(inputs.fig14_seed.wrapping_add(k as u64));
                    replay_cell(&mut ctx, &platform, "optimal_fifo", inputs.units, sim);
                    ctx.rec.exit(cell);
                }
            }
        }
    }
    ctx.finish(started)
}

/// Solve, round and simulate one strategy on one platform (inside the
/// caller's cell span); then time its scenario LP.
fn replay_cell(ctx: &mut Replay, platform: &Platform, id: &str, units: u64, sim: SimConfig) {
    let Some(sol) = ctx.solve(id, resolve(id).as_ref(), platform) else {
        return;
    };
    let int_sched = ctx.rec.time("rounding.integer_schedule", || {
        integer_schedule(&sol.schedule, units)
    });
    ctx.rec.time("sim.simulate", || {
        black_box(simulate(sol.execution_platform(platform), &int_sched, &sim))
    });
    ctx.scenario(platform, &sol);
}

/// Per-platform speed factors, drawn as the sweeps draw them.
fn factor_sets(
    ctx: &mut Replay,
    sampler: &PlatformSampler,
    inputs: &Inputs,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let cfg = &inputs.cfg;
    ctx.rec.time("platform.build", || {
        (0..cfg.platforms)
            .map(|i| {
                sampler.sample_factors(&mut StdRng::seed_from_u64(
                    cfg.base_seed.wrapping_add(i as u64),
                ))
            })
            .collect()
    })
}

/// A figure 10–13 sweep: every (size, platform) cell, every strategy
/// solved, rounded and simulated with the sweep's jitter seeds.
fn sweep(ctx: &mut Replay, inputs: &Inputs, variant: &SweepVariant) {
    let cfg = &inputs.cfg;
    let cluster = ClusterModel::gdsdmi();
    let schedulers = variant.resolve_schedulers();
    let factors = factor_sets(ctx, &variant.sampler, inputs);
    for &n in &cfg.sizes {
        let app = MatrixApp::new(n);
        let realism = if variant.cache_effects {
            RealismModel::cluster_with_cache_effects(n)
        } else {
            RealismModel::cluster_jitter()
        };
        for (comm, comp) in &factors {
            let cell = ctx.rec.enter("cell.fig10_13");
            let platform = ctx.rec.time("platform.build", || {
                cluster
                    .platform(&app, comm, comp)
                    .expect("sampled factors valid")
                    .scale_comp(variant.comp_scale)
                    .scale_comm(variant.comm_scale)
            });
            let mut solved = Vec::new();
            for (si, (id, s)) in variant.schedulers.iter().zip(&schedulers).enumerate() {
                let Some(sol) = ctx.solve(id, s.as_ref(), &platform) else {
                    continue;
                };
                let int_sched = ctx.rec.time("rounding.integer_schedule", || {
                    integer_schedule(&sol.schedule, cfg.total_units)
                });
                // The sweep's jitter seed for this (platform, size, strategy).
                let seed = cfg
                    .base_seed
                    .wrapping_mul(31)
                    .wrapping_add(n as u64)
                    .wrapping_mul(1009)
                    .wrapping_add(si as u64)
                    .wrapping_add(comm.iter().sum::<f64>().to_bits());
                let sim = SimConfig {
                    realism,
                    seed,
                    ..SimConfig::ideal()
                };
                ctx.rec.time("sim.simulate", || {
                    black_box(simulate(
                        sol.execution_platform(&platform),
                        &int_sched,
                        &sim,
                    ))
                });
                solved.push(sol);
            }
            ctx.rec.exit(cell);
            for sol in &solved {
                ctx.scenario(&platform, sol);
            }
        }
    }
}

/// The R-sweep or the depth sweep: per platform, the baseline plus every
/// `<id>@<axis>` strategy, solved only.
fn axis_sweep(
    ctx: &mut Replay,
    inputs: &Inputs,
    cell_name: &'static str,
    sampler: &PlatformSampler,
    axis: &[usize],
    base_ids: &[String],
    baseline_id: &str,
) {
    let cluster = ClusterModel::gdsdmi();
    let app = MatrixApp::new(*inputs.cfg.sizes.last().expect("sweep config has sizes"));
    let baseline = resolve(baseline_id);
    let cells: Vec<(String, Box<dyn Scheduler>)> = axis
        .iter()
        .flat_map(|a| base_ids.iter().map(move |id| format!("{id}@{a}")))
        .map(|id| {
            let s = resolve(&id);
            (id, s)
        })
        .collect();
    for (comm, comp) in factor_sets(ctx, sampler, inputs) {
        let cell = ctx.rec.enter(cell_name);
        let platform = ctx.rec.time("platform.build", || {
            cluster
                .platform(&app, &comm, &comp)
                .expect("sampled factors valid")
        });
        let mut solved: Vec<Solution> = ctx
            .solve(baseline_id, baseline.as_ref(), &platform)
            .into_iter()
            .collect();
        for (id, s) in &cells {
            solved.extend(ctx.solve(id, s.as_ref(), &platform));
        }
        ctx.rec.exit(cell);
        for sol in &solved {
            ctx.scenario(&platform, sol);
        }
    }
}

/// The interleaved gap: per platform, `optimal_fifo`, the per-lead profile,
/// and both master policies' replays of every swept lead.
fn interleaved(ctx: &mut Replay, inputs: &Inputs) {
    let cluster = ClusterModel::gdsdmi();
    let sampler = PlatformSampler::hetero_star();
    let app = MatrixApp::new(*inputs.cfg.sizes.last().expect("sweep config has sizes"));
    let p = sampler.workers;
    let mut leads: Vec<usize> = Vec::new();
    for lead in [p, p / 2, 4, 2, 1] {
        if (1..=p).contains(&lead) && !leads.contains(&lead) {
            leads.push(lead);
        }
    }
    let optimal = resolve("optimal_fifo");
    for (comm, comp) in factor_sets(ctx, &sampler, inputs) {
        let cell = ctx.rec.enter("cell.interleaved");
        let platform = ctx.rec.time("platform.build", || {
            cluster
                .platform(&app, &comm, &comp)
                .expect("sampled factors valid")
        });
        let opt = ctx.solve("optimal_fifo", optimal.as_ref(), &platform);
        ctx.requests += 1;
        let order = interleaved_order(&platform);
        match ctx.rec.time("engine.interleaved", || {
            interleaved_profile(&platform, &order)
        }) {
            Ok(profile) => {
                for &lead in &leads {
                    let Some(outcome) = profile.iter().find(|o| o.lead == lead) else {
                        continue;
                    };
                    let loads = outcome
                        .loads
                        .iter()
                        .map(|l| l / outcome.throughput)
                        .collect();
                    let Ok(schedule) = Schedule::fifo(&platform, order.clone(), loads) else {
                        ctx.failures
                            .push(format!("lead {lead}: invalid profile loads"));
                        continue;
                    };
                    for policy in [MasterPolicy::SendsThenReceives, MasterPolicy::Interleaved] {
                        let sim = SimConfig {
                            policy,
                            ..SimConfig::ideal()
                        };
                        ctx.rec.time("sim.simulate", || {
                            black_box(simulate(&platform, &schedule, &sim))
                        });
                    }
                }
            }
            Err(e) => ctx.failures.push(format!("interleaved profile: {e}")),
        }
        ctx.rec.exit(cell);
        if let Some(sol) = &opt {
            ctx.scenario(&platform, sol);
        }
    }
}

/// Replays `requests` `large_lp` requests from the process's platform
/// stream: build, solve, and the scenario LP on both engines.
pub fn large_lp(stream: &mut large_lp::Stream, requests: usize) -> Replay {
    let started = Instant::now();
    let mut ctx = Replay::new();
    let scheduler = resolve("optimal_fifo");
    for _ in 0..requests {
        let cell = ctx.rec.enter("cell.large_lp");
        let platform = ctx.rec.time("platform.build", || stream.next_platform());
        let sol = ctx.solve("optimal_fifo", scheduler.as_ref(), &platform);
        ctx.rec.exit(cell);
        if let Some(sol) = &sol {
            ctx.scenario(&platform, sol);
        }
    }
    ctx.finish(started)
}
