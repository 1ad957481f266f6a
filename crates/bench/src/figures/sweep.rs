//! The shared core of the averaged studies: the Figures 10-13 heuristic
//! comparisons and the multi-round R and tree depth sweeps.
//!
//! For each matrix size the paper averages, over 50 random platforms, the
//! theoretical (LP) and measured execution times of each heuristic for
//! `M = 1000` matrix products, normalized by the theoretical time of
//! `INC_C`. This module reproduces that pipeline with the simulator in the
//! testbed's role:
//!
//! 1. draw a platform (speed factors 1..10, family per figure);
//! 2. per strategy: solve through the [`Scheduler`] engine
//!    (`T_lp = M / ρ`), round the loads to integers with the paper's
//!    policy, simulate the integer schedule under seeded jitter
//!    (`T_real`);
//! 3. average `T_lp`/`T_real` ratios across platforms.
//!
//! The R and depth sweeps average predicted makespans the same way along
//! a parameterized axis (`<id>@<axis>`). All of them, and the interleaved
//! gap, draw platform `i` from seed `base_seed + i` through one sampler,
//! and the sweeps turn each strategy column's per-platform outcomes into
//! its mean and at most one [`SkippedStrategy`] through one step.
//! [`par_map`] runs every platform under the caller's LP engine.
//!
//! The strategies compared are *data*, not code: a [`SweepVariant`] names
//! registry ids (see [`dls_core::registry`]) and the first one is the
//! normalization baseline. Adding a strategy to a figure is a one-string
//! change.

use dls_core::engine::Scheduler;
use dls_core::prelude::*;
use dls_platform::{ClusterModel, MatrixApp, Platform, PlatformSampler};
use dls_report::{mean, num, par_map, ExplainReport, Series, Table};
use dls_sim::{simulate, RealismModel, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scenarios::SweepConfig;

/// Figure-specific variations on the shared sweep.
#[derive(Debug, Clone)]
pub struct SweepVariant {
    /// Figure label (used in headers and file names).
    pub label: String,
    /// Random platform family.
    pub sampler: PlatformSampler,
    /// Multiplier on all computation costs (Fig. 13(a) uses `0.1` =
    /// "calculation power ×10").
    pub comp_scale: f64,
    /// Multiplier on all communication costs (Fig. 13(b) uses `0.1`).
    pub comm_scale: f64,
    /// Apply the cache-degradation compute model in the simulated runs
    /// (Fig. 13(b) regime; see `RealismModel::cluster_with_cache_effects`).
    pub cache_effects: bool,
    /// Registry ids of the strategies to compare (see
    /// [`dls_core::registry`]); the first entry is the normalization
    /// baseline (the paper normalizes by `INC_C`'s theoretical time).
    pub schedulers: Vec<String>,
}

impl SweepVariant {
    /// Resolves the configured ids against the scheduler registry
    /// (installing the multi-round, tree, affine and interleaved
    /// providers first, so `multiround_*`, `tree_*`, `affine_*` and
    /// `interleaved_*` ids — including parameterized ones like
    /// `multiround_lp@8`, `tree_lp@3` or `interleaved_fifo@1` — are
    /// always resolvable from sweep configuration).
    ///
    /// # Panics
    /// Panics on an id absent from [`dls_core::registry`] — a sweep over a
    /// nonexistent strategy is a configuration bug, not a runtime
    /// condition.
    pub fn resolve_schedulers(&self) -> Vec<Box<dyn Scheduler>> {
        dls_rounds::install();
        dls_tree::install();
        dls_core::affine::install();
        dls_core::interleaved::install();
        assert!(
            !self.schedulers.is_empty(),
            "sweep variant '{}' names no schedulers",
            self.label
        );
        self.schedulers
            .iter()
            .map(|id| {
                dls_core::lookup(id)
                    .unwrap_or_else(|| panic!("unknown scheduler '{id}' in sweep variant"))
            })
            .collect()
    }

    /// The variant's platform for matrix size `n` from sampled speed
    /// factors, with its cost scales applied.
    fn platform(&self, (comm, comp): &(Vec<f64>, Vec<f64>), n: usize) -> Platform {
        ClusterModel::gdsdmi()
            .platform(&MatrixApp::new(n), comm, comp)
            .expect("sampled factors valid")
            .scale_comp(self.comp_scale)
            .scale_comm(self.comm_scale)
    }
}

/// A strategy that could not solve one or more platforms at a given size.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedStrategy {
    /// Registry id of the skipped strategy — the exact string the sweep
    /// was configured with, so parameterized ids (`multiround_lp@8`) and
    /// any future provider ids report unambiguously (legends need not be
    /// unique across configurations).
    pub id: String,
    /// Legend of the skipped strategy.
    pub legend: String,
    /// Number of platforms it failed on (out of the sweep's platform
    /// count).
    pub platforms: usize,
    /// The strategy's own error on the first platform it failed on.
    pub reason: String,
}

/// One averaged output row (one matrix size).
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Matrix size `n`.
    pub size: usize,
    /// Average theoretical baseline time in seconds (the paper's absolute
    /// reference curve "INC_C lp").
    pub baseline_lp: f64,
    /// `(series name, averaged ratio vs the baseline lp time)` in a fixed
    /// order. Ratios average only the platforms the strategy solved; a
    /// strategy that solved none is `NaN` here and recorded in `skipped`.
    pub ratios: Vec<(String, f64)>,
    /// Non-baseline strategies that failed on some platforms at this size,
    /// with the failure reason (e.g. a closed form inapplicable to a scaled
    /// variant of the family). The baseline failing is a configuration bug
    /// and aborts the sweep instead.
    pub skipped: Vec<SkippedStrategy>,
}

/// Complete sweep result.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Figure label.
    pub label: String,
    /// Legend of the normalization baseline (first configured scheduler).
    pub baseline: String,
    /// One row per matrix size.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// Renders the rows as an aligned table (the paper's plotted series).
    pub fn table(&self) -> Table {
        ratio_table(
            &["n", &format!("{} lp (s)", self.baseline)],
            self.rows.iter().map(|r| {
                (
                    vec![r.size.to_string(), num(r.baseline_lp, 3)],
                    &r.ratios[..],
                )
            }),
        )
    }

    /// Exports the x vector and one series per ratio column (plus the
    /// absolute baseline curve) for `.dat` output.
    pub fn series(&self) -> (Vec<f64>, Vec<Series>) {
        let (xs, mut series) =
            ratio_series(self.rows.iter().map(|r| (r.size as f64, &r.ratios[..])));
        series.insert(
            0,
            Series::new(
                format!("{} lp seconds", self.baseline),
                self.rows.iter().map(|r| r.baseline_lp).collect(),
            ),
        );
        (xs, series)
    }
}

/// One table row per sweep point: its leading cells, then every ratio at
/// 4 decimals. The ratio column names come from the first point.
fn ratio_table<'a>(
    lead: &[&str],
    points: impl Iterator<Item = (Vec<String>, &'a [(String, f64)])>,
) -> Table {
    let points: Vec<_> = points.collect();
    let mut headers = lead.to_vec();
    if let Some((_, ratios)) = points.first() {
        headers.extend(ratios.iter().map(|(name, _)| name.as_str()));
    }
    let mut t = Table::new(&headers);
    for (mut cells, ratios) in points {
        cells.extend(ratios.iter().map(|(_, v)| num(*v, 4)));
        t.row(&cells);
    }
    t
}

/// The x vector plus one `.dat` series per ratio column, named after the
/// first point's columns.
fn ratio_series<'a>(
    points: impl Iterator<Item = (f64, &'a [(String, f64)])>,
) -> (Vec<f64>, Vec<Series>) {
    let (xs, rows): (Vec<f64>, Vec<_>) = points.unzip();
    let series = rows.first().map_or_else(Vec::new, |first| {
        first
            .iter()
            .enumerate()
            .map(|(k, (name, _))| Series::new(name.clone(), rows.iter().map(|r| r[k].1).collect()))
            .collect()
    });
    (xs, series)
}

/// The speed factors `(comm, comp)` of a study's platform `i`, drawn from
/// seed `base_seed + i`: every study over one family sees the same
/// platforms, whatever the matrix size or axis.
pub(crate) fn platform_factors(
    cfg: &SweepConfig,
    sampler: &PlatformSampler,
    i: usize,
) -> (Vec<f64>, Vec<f64>) {
    sampler.sample_factors(&mut StdRng::seed_from_u64(
        cfg.base_seed.wrapping_add(i as u64),
    ))
}

/// `values` without repeats, in first-seen order: each axis value of a
/// study is evaluated once.
pub(crate) fn distinct(values: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    values.into_iter().filter(|v| seen.insert(*v)).collect()
}

/// One strategy column across a row's platforms: the values of the
/// platforms it solved, plus a skip record carrying the first failure's
/// reason when it failed on any. Records the `sweep.skips` counter and
/// trace instant.
fn column<'a, T: Copy + 'a>(
    id: &str,
    legend: &str,
    outcomes: impl Iterator<Item = &'a Result<T, String>>,
) -> (Vec<T>, Option<SkippedStrategy>) {
    let (solved, failed): (Vec<_>, Vec<_>) = outcomes.partition(|o| o.is_ok());
    let skip = failed.first().and_then(|o| o.as_ref().err()).map(|reason| {
        dls_obs::counter!("sweep.skips").add(failed.len() as u64);
        // The aggregate counter loses *which* strategy was skipped; the
        // trace event carries the attribution.
        dls_obs::trace_event!(
            "sweep.skips",
            "strategy" => id,
            "platforms" => failed.len(),
            "reason" => reason,
        );
        SkippedStrategy {
            id: id.to_string(),
            legend: legend.to_string(),
            platforms: failed.len(),
            reason: reason.clone(),
        }
    });
    (solved.into_iter().flatten().copied().collect(), skip)
}

/// A strategy's `(lp time, real time)` for `total_units` on one platform:
/// the LP prediction and the simulated makespan of its rounded schedule.
fn run_scheduler(
    platform: &Platform,
    scheduler: &dyn Scheduler,
    total_units: u64,
    realism: RealismModel,
    seed: u64,
) -> Result<(f64, f64), dls_core::CoreError> {
    let sol = scheduler.solve(platform)?;
    // Theoretical time for M units: linearity gives T = M / rho.
    let lp_time = total_units as f64 / sol.throughput;
    let int_sched = integer_schedule(&sol.schedule, total_units);
    // Multi-round solutions live on their expanded virtual platform; the
    // simulator replays them there (one-round solutions execute directly).
    let report = simulate(
        sol.execution_platform(platform),
        &int_sched,
        &SimConfig {
            realism,
            seed,
            ..SimConfig::ideal()
        },
    );
    Ok((lp_time, report.makespan))
}

/// Runs the full sweep for a figure variant.
///
/// The whole `(matrix size × platform)` grid is built up front and fed
/// through one [`par_map`] call, so worker threads stay saturated across
/// size boundaries (the per-size barrier of the original pipeline idled the
/// pool at every size change).
///
/// # Panics
/// The *baseline* strategy (first configured id) must solve every platform:
/// it is probed up front against the first sampled platform and any
/// mid-batch baseline failure aborts the sweep. Non-baseline strategies
/// whose error is an *applicability* one (not a bus, not z-tied, too many
/// workers for exhaustive search) are recorded per row in
/// [`SweepRow::skipped`] with the strategy's own error instead of aborting
/// the batch; anything else (an LP solver failure, a malformed order) is a
/// bug, not a platform mismatch, and still aborts loudly.
pub fn run_sweep(cfg: &SweepConfig, variant: &SweepVariant) -> SweepResult {
    // Root of this sweep's trace tree: the par_map item spans (and the
    // solve trees under them) nest here via the TraceContext handoff.
    let _sweep_span = dls_obs::trace_span!(
        "sweep.run.seconds",
        "label" => variant.label,
        "platforms" => cfg.platforms,
    );
    let schedulers = variant.resolve_schedulers();

    // Draw each platform's speed factors once (independent of matrix size),
    // exactly like reusing the same physical cluster across sizes.
    let factor_sets: Vec<(Vec<f64>, Vec<f64>)> = (0..cfg.platforms)
        .map(|i| platform_factors(cfg, &variant.sampler, i))
        .collect();

    // Fail fast when the *baseline* does not apply to this platform family:
    // every ratio normalizes by its lp time, so nothing can be salvaged.
    if let (Some(factors), Some(&n)) = (factor_sets.first(), cfg.sizes.first()) {
        if let Err(e) = schedulers[0].solve(&variant.platform(factors, n)) {
            panic!(
                "sweep '{}': baseline strategy '{}' cannot solve this platform family: {e}",
                variant.label,
                schedulers[0].name()
            );
        }
    }

    // The full cross-size work list, one `(size, platform)` cell each,
    // size-major.
    let items: Vec<(usize, usize)> = cfg
        .sizes
        .iter()
        .flat_map(|&n| (0..factor_sets.len()).map(move |i| (n, i)))
        .collect();

    // Per cell: the baseline's lp time, and each strategy's lp and real
    // times normalized by it (or its applicability error).
    type Cell = (f64, Vec<Result<(f64, f64), String>>);
    let evaluated: Vec<Cell> = par_map(&items, |&(n, platform_idx)| {
        dls_obs::counter!("sweep.instances").incr();
        let factors = &factor_sets[platform_idx];
        let realism = if variant.cache_effects {
            RealismModel::cluster_with_cache_effects(n)
        } else {
            RealismModel::cluster_jitter()
        };
        let platform = variant.platform(factors, n);
        let outcomes: Vec<Result<(f64, f64), String>> = schedulers
            .iter()
            .enumerate()
            .map(|(si, s)| {
                // Seed mixes platform identity, size and strategy so jitter
                // streams are independent but reproducible.
                let seed = cfg
                    .base_seed
                    .wrapping_mul(31)
                    .wrapping_add(n as u64)
                    .wrapping_mul(1009)
                    .wrapping_add(si as u64)
                    .wrapping_add(factors.0.iter().sum::<f64>().to_bits());
                match run_scheduler(&platform, s.as_ref(), cfg.total_units, realism, seed) {
                    Ok(times) => Ok(times),
                    Err(e) if si == 0 => panic!(
                        "sweep '{}': baseline strategy '{}' failed on platform {platform_idx} \
                         at n = {n}: {e}",
                        variant.label,
                        s.name(),
                    ),
                    Err(e) if e.is_applicability() => Err(e.to_string()),
                    Err(e) => panic!(
                        "sweep '{}': strategy '{}' hit a non-applicability error on platform \
                         {platform_idx} at n = {n} (a solver bug, not a platform mismatch): {e}",
                        variant.label,
                        s.name(),
                    ),
                }
            })
            .collect();
        let base_lp = outcomes[0].as_ref().expect("baseline solved").0;
        let normalized = outcomes
            .into_iter()
            .map(|o| o.map(|(lp, real)| (lp / base_lp, real / base_lp)))
            .collect();
        (base_lp, normalized)
    });

    // Normalize by each platform's own baseline lp time, then average —
    // matching the paper's "normalized by FIFO theoretical performance"
    // plots. Only platforms a strategy solved contribute to its mean.
    let baseline_legend = schedulers[0].legend();
    let rows = cfg
        .sizes
        .iter()
        .enumerate()
        .map(|(k, &size)| {
            let cells = &evaluated[k * factor_sets.len()..(k + 1) * factor_sets.len()];
            let mut ratios = Vec::new();
            let mut skipped = Vec::new();
            for (si, (id, s)) in variant.schedulers.iter().zip(&schedulers).enumerate() {
                let (solved, skip) = column(id, s.legend(), cells.iter().map(|(_, o)| &o[si]));
                skipped.extend(skip);
                let (lp, real): (Vec<f64>, Vec<f64>) = solved.into_iter().unzip();
                if si != 0 {
                    ratios.push((format!("{} lp/{baseline_legend} lp", s.legend()), mean(&lp)));
                }
                ratios.push((
                    format!("{} real/{baseline_legend} lp", s.legend()),
                    mean(&real),
                ));
            }
            SweepRow {
                size,
                baseline_lp: mean(&cells.iter().map(|(b, _)| *b).collect::<Vec<_>>()),
                ratios,
                skipped,
            }
        })
        .collect();

    SweepResult {
        label: variant.label.clone(),
        baseline: baseline_legend.to_string(),
        rows,
    }
}

/// Explains the variant's baseline schedule on one sampled platform — the
/// `--explain` mode of the figure binaries.
///
/// Draws the sweep's first platform (same seed, family, and scales as
/// `run_sweep`), solves the baseline strategy at the first configured
/// matrix size, replays the integer schedule under the ideal simulator
/// (ideal, so the Gantt and idle attribution explain the *schedule*, not
/// the jitter), and returns the header line plus the rendered
/// [`dls_report::ExplainReport`].
///
/// # Panics
/// Panics when the baseline strategy cannot solve its own platform family
/// (a configuration bug, exactly as in [`run_sweep`]).
pub fn explain_baseline(cfg: &SweepConfig, variant: &SweepVariant) -> (String, ExplainReport) {
    let schedulers = variant.resolve_schedulers();
    let n = cfg.sizes.first().copied().unwrap_or(200);
    let platform = variant.platform(&platform_factors(cfg, &variant.sampler, 0), n);
    let sol = schedulers[0]
        .solve(&platform)
        .unwrap_or_else(|e| panic!("baseline '{}' cannot solve: {e}", schedulers[0].name()));
    let int_sched = integer_schedule(&sol.schedule, cfg.total_units);
    let report = simulate(
        sol.execution_platform(&platform),
        &int_sched,
        &SimConfig::ideal(),
    );
    let header = format!(
        "{} — explain: {} on platform #0 (n = {}, M = {} units, ideal replay)",
        variant.label,
        schedulers[0].legend(),
        n,
        cfg.total_units
    );
    (header, dls_report::explain(&report.trace))
}

// ---------------------------------------------------------------------------
// Multi-round R-sweep: the latency/throughput trade-off axis.
// ---------------------------------------------------------------------------

/// One axis value, each strategy's `(column name, mean makespan ratio)`,
/// and the skip records.
type AxisRow = (usize, Vec<(String, f64)>, Vec<SkippedStrategy>);

/// Result of the shared axis-sweep core: one row per distinct axis value.
struct AxisSweep {
    n: usize,
    baseline_legend: String,
    baseline_makespan: f64,
    rows: Vec<AxisRow>,
}

/// Shared core of [`run_r_sweep`] and [`run_depth_sweep`]: both sweep a
/// family of `<id>@<axis>` parameterized strategies over `cfg.platforms`
/// sampled platforms at the paper-scale matrix size (the last entry of
/// `cfg.sizes`) and normalize each cell's predicted makespan by a
/// reference strategy's, per platform — only the meaning of the axis
/// (installment count vs balanced-tree fanout) differs. A repeated axis
/// value is evaluated once, at its first position.
///
/// # Panics
/// Like [`run_sweep`]: the baseline must solve every platform, and
/// non-applicability strategy errors abort loudly; applicability errors
/// are recorded per row.
fn run_axis_sweep(
    cfg: &SweepConfig,
    label: &str,
    sampler: &PlatformSampler,
    axis: &[usize],
    base_ids: &[String],
    baseline_id: &str,
) -> AxisSweep {
    let _sweep_span = dls_obs::trace_span!(
        "sweep.run.seconds",
        "label" => label,
        "platforms" => cfg.platforms,
    );
    let cluster = ClusterModel::gdsdmi();
    let n = *cfg.sizes.last().expect("sweep config has sizes");
    let app = MatrixApp::new(n);
    let baseline = dls_core::lookup(baseline_id)
        .unwrap_or_else(|| panic!("unknown baseline id '{baseline_id}' in '{label}'"));
    let axis = distinct(axis.iter().copied());

    // Stable column names come from the strategies' *default* instances
    // (the per-row instances carry `@<axis>` suffixes).
    let columns: Vec<String> = base_ids
        .iter()
        .map(|id| {
            let legend = dls_core::lookup(id)
                .unwrap_or_else(|| panic!("unknown strategy '{id}' in '{label}'"))
                .legend()
                .to_string();
            format!("{legend} mk/{} mk", baseline.legend())
        })
        .collect();

    // Full parameterized id per (axis value, strategy) cell, axis-major,
    // resolved once.
    let cells: Vec<(String, Box<dyn Scheduler>)> = axis
        .iter()
        .flat_map(|&a| {
            base_ids.iter().map(move |id| {
                let full = format!("{id}@{a}");
                let s = dls_core::lookup(&full)
                    .unwrap_or_else(|| panic!("unknown strategy '{full}' in '{label}'"));
                (full, s)
            })
        })
        .collect();

    let factor_sets: Vec<(Vec<f64>, Vec<f64>)> = (0..cfg.platforms)
        .map(|i| platform_factors(cfg, sampler, i))
        .collect();
    let evaluated: Vec<(f64, Vec<Result<f64, String>>)> = par_map(&factor_sets, |(comm, comp)| {
        dls_obs::counter!("sweep.instances").incr();
        let platform = cluster
            .platform(&app, comm, comp)
            .expect("sampled factors valid");
        let base = baseline
            .solve(&platform)
            .unwrap_or_else(|e| panic!("'{label}': baseline '{baseline_id}' failed: {e}"));
        let base_makespan = 1.0 / base.throughput;
        let outcomes = cells
            .iter()
            .map(|(full, s)| match s.solve(&platform) {
                Ok(sol) => Ok((1.0 / sol.throughput) / base_makespan),
                Err(e) if e.is_applicability() => Err(e.to_string()),
                Err(e) => panic!(
                    "'{label}': strategy '{full}' hit a non-applicability error \
                     (a solver bug, not a platform mismatch): {e}"
                ),
            })
            .collect();
        (base_makespan, outcomes)
    });

    let baseline_makespan =
        mean(&evaluated.iter().map(|(m, _)| *m).collect::<Vec<_>>()) * cfg.total_units as f64;
    let rows = axis
        .iter()
        .enumerate()
        .map(|(ai, &a)| {
            let mut ratios = Vec::new();
            let mut skipped = Vec::new();
            for (bi, name) in columns.iter().enumerate() {
                let ci = ai * columns.len() + bi;
                let (full, s) = &cells[ci];
                let (solved, skip) =
                    column(full, s.legend(), evaluated.iter().map(|(_, o)| &o[ci]));
                skipped.extend(skip);
                ratios.push((name.clone(), mean(&solved)));
            }
            (a, ratios, skipped)
        })
        .collect();

    AxisSweep {
        n,
        baseline_legend: baseline.legend().to_string(),
        baseline_makespan,
        rows,
    }
}

/// Configuration of the multi-round R-sweep: which installment counts and
/// planner families to compare, against which one-round baseline.
#[derive(Debug, Clone)]
pub struct RSweepVariant {
    /// Label for headers and file names.
    pub label: String,
    /// Random platform family (the paper-scale default samples the
    /// fully heterogeneous star family).
    pub sampler: PlatformSampler,
    /// Installment counts on the table's R axis.
    pub rounds: Vec<usize>,
    /// Base registry ids of the planners (`@R` is appended per row);
    /// resolved through the provider, so `dls-rounds` ids work out of the
    /// box.
    pub planners: Vec<String>,
    /// One-round reference id whose makespan normalizes every cell
    /// (canonically `optimal_fifo`).
    pub baseline: String,
}

/// The default R-sweep: `R ∈ {1, 2, 4, 8}` for all three `multiround_*`
/// planners on the paper's heterogeneous-star family, normalized by
/// `optimal_fifo`.
pub fn r_sweep_variant() -> RSweepVariant {
    RSweepVariant {
        label: "multi-round installment trade-off (makespan vs R)".into(),
        sampler: PlatformSampler::hetero_star(),
        rounds: vec![1, 2, 4, 8],
        planners: vec![
            "multiround_uniform".into(),
            "multiround_geometric".into(),
            "multiround_lp".into(),
        ],
        baseline: "optimal_fifo".into(),
    }
}

/// One R-sweep row: an installment count plus each planner's mean
/// makespan ratio against the baseline's one-round makespan.
#[derive(Debug, Clone)]
pub struct RSweepRow {
    /// Installment count `R`.
    pub rounds: usize,
    /// `(column name, mean makespan / baseline makespan)` per planner;
    /// ratios below 1 mean the multi-round plan beats one-round
    /// `optimal_fifo`. A planner that solved no platform is `NaN`.
    pub ratios: Vec<(String, f64)>,
    /// Planner configurations that failed on some platforms at this R,
    /// keyed by their full parameterized registry id.
    pub skipped: Vec<SkippedStrategy>,
}

/// Complete R-sweep result.
#[derive(Debug, Clone)]
pub struct RSweepResult {
    /// Label of the variant.
    pub label: String,
    /// Matrix size the platforms were built for.
    pub n: usize,
    /// Legend of the normalizing baseline.
    pub baseline: String,
    /// Mean one-round baseline makespan in seconds (absolute reference).
    pub baseline_makespan: f64,
    /// One row per distinct installment count, in first-seen order.
    pub rows: Vec<RSweepRow>,
}

impl RSweepResult {
    /// Renders the trade-off table (one row per R).
    pub fn table(&self) -> Table {
        ratio_table(
            &["R"],
            self.rows
                .iter()
                .map(|r| (vec![r.rounds.to_string()], &r.ratios[..])),
        )
    }

    /// Exports the R axis and one series per planner column for `.dat`
    /// output.
    pub fn series(&self) -> (Vec<f64>, Vec<Series>) {
        ratio_series(self.rows.iter().map(|r| (r.rounds as f64, &r.ratios[..])))
    }
}

/// Runs the multi-round R-sweep at the paper-scale matrix size (the last
/// entry of `cfg.sizes`), averaging each planner's predicted makespan over
/// `cfg.platforms` sampled platforms and normalizing by the baseline's
/// one-round makespan per platform.
///
/// # Panics
/// Like [`run_sweep`]: the baseline must solve every platform, and
/// non-applicability planner errors abort loudly; applicability errors are
/// recorded in [`RSweepRow::skipped`].
pub fn run_r_sweep(cfg: &SweepConfig, variant: &RSweepVariant) -> RSweepResult {
    dls_rounds::install();
    let core = run_axis_sweep(
        cfg,
        &variant.label,
        &variant.sampler,
        &variant.rounds,
        &variant.planners,
        &variant.baseline,
    );
    RSweepResult {
        label: variant.label.clone(),
        n: core.n,
        baseline: core.baseline_legend,
        baseline_makespan: core.baseline_makespan,
        rows: core
            .rows
            .into_iter()
            .map(|(rounds, ratios, skipped)| RSweepRow {
                rounds,
                ratios,
                skipped,
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Tree depth sweep: the topology/makespan trade-off axis.
// ---------------------------------------------------------------------------

/// Configuration of the tree depth sweep: which balanced-tree fanouts to
/// compare (each fanout fixes a depth for the sampled platform size),
/// against which flat-star baseline.
#[derive(Debug, Clone)]
pub struct DepthSweepVariant {
    /// Label for headers and file names.
    pub label: String,
    /// Random platform family (the flat stars the workers come from).
    pub sampler: PlatformSampler,
    /// Balanced-tree fanouts on the table's axis (`fanout ≥ p` is the
    /// flat star, `1` the chain).
    pub fanouts: Vec<usize>,
    /// Base registry ids of the tree strategies (`@fanout` is appended per
    /// row); resolved through the `dls-tree` provider.
    pub schedulers: Vec<String>,
    /// Flat-star reference id whose makespan normalizes every cell
    /// (canonically `optimal_fifo`).
    pub baseline: String,
}

/// The default depth sweep: fanouts `{p, 3, 2, 1}` (star → chain) for
/// `tree_fifo`/`tree_lifo`/`tree_lp` on the paper's heterogeneous-star
/// family, normalized by `optimal_fifo` on the flat star. `tree_lp`'s
/// column quantifies how much of star-collapse's serialization cost the
/// per-link LP claws back at each depth.
pub fn depth_sweep_variant() -> DepthSweepVariant {
    let sampler = PlatformSampler::hetero_star();
    DepthSweepVariant {
        label: "tree-platform trade-off (makespan vs depth)".into(),
        fanouts: vec![sampler.workers, 3, 2, 1],
        sampler,
        schedulers: vec!["tree_fifo".into(), "tree_lifo".into(), "tree_lp".into()],
        baseline: "optimal_fifo".into(),
    }
}

/// One depth-sweep row: a fanout, its balanced-tree depth, and each tree
/// strategy's mean makespan ratio against the flat-star baseline.
#[derive(Debug, Clone)]
pub struct DepthSweepRow {
    /// Balanced-tree fanout.
    pub fanout: usize,
    /// Depth of the balanced tree at this fanout (for the sampled worker
    /// count).
    pub depth: usize,
    /// `(column name, mean makespan / baseline makespan)` per strategy;
    /// ratios above 1 quantify what the extra relay hops cost. A strategy
    /// that solved no platform is `NaN`.
    pub ratios: Vec<(String, f64)>,
    /// Strategy configurations that failed on some platforms at this
    /// fanout, keyed by their full parameterized registry id.
    pub skipped: Vec<SkippedStrategy>,
}

/// Complete depth-sweep result.
#[derive(Debug, Clone)]
pub struct DepthSweepResult {
    /// Label of the variant.
    pub label: String,
    /// Matrix size the platforms were built for.
    pub n: usize,
    /// Legend of the normalizing baseline.
    pub baseline: String,
    /// Mean flat-star baseline makespan in seconds (absolute reference).
    pub baseline_makespan: f64,
    /// One row per distinct fanout, in first-seen order.
    pub rows: Vec<DepthSweepRow>,
}

impl DepthSweepResult {
    /// Renders the trade-off table (one row per fanout).
    pub fn table(&self) -> Table {
        ratio_table(
            &["fanout", "depth"],
            self.rows.iter().map(|r| {
                (
                    vec![r.fanout.to_string(), r.depth.to_string()],
                    &r.ratios[..],
                )
            }),
        )
    }

    /// Exports the depth axis and one series per strategy column for
    /// `.dat` output.
    pub fn series(&self) -> (Vec<f64>, Vec<Series>) {
        ratio_series(self.rows.iter().map(|r| (r.depth as f64, &r.ratios[..])))
    }
}

/// Runs the tree depth sweep at the paper-scale matrix size (the last
/// entry of `cfg.sizes`), averaging each tree strategy's predicted
/// makespan over `cfg.platforms` sampled flat stars — rearranged into a
/// balanced tree per fanout — and normalizing by the baseline's flat-star
/// makespan per platform.
///
/// # Panics
/// Like [`run_r_sweep`]: the baseline must solve every platform, and
/// non-applicability strategy errors abort loudly; applicability errors
/// are recorded in [`DepthSweepRow::skipped`].
pub fn run_depth_sweep(cfg: &SweepConfig, variant: &DepthSweepVariant) -> DepthSweepResult {
    dls_tree::install();
    let core = run_axis_sweep(
        cfg,
        &variant.label,
        &variant.sampler,
        &variant.fanouts,
        &variant.schedulers,
        &variant.baseline,
    );
    // The depth of each fanout's balanced layout only depends on the
    // worker count, not the sampled costs: probe once with unit costs.
    let probe =
        Platform::bus(1.0, 0.5, &vec![1.0; variant.sampler.workers]).expect("probe platform valid");
    let depth_of = |k: usize| dls_platform::TreePlatform::balanced(&probe, k).depth();
    DepthSweepResult {
        label: variant.label.clone(),
        n: core.n,
        baseline: core.baseline_legend,
        baseline_makespan: core.baseline_makespan,
        rows: core
            .rows
            .into_iter()
            .map(|(fanout, ratios, skipped)| DepthSweepRow {
                fanout,
                depth: depth_of(fanout),
                ratios,
                skipped,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_variant() -> SweepVariant {
        SweepVariant {
            label: "test".into(),
            sampler: PlatformSampler::hetero_star(),
            comp_scale: 1.0,
            comm_scale: 1.0,
            cache_effects: false,
            schedulers: vec!["inc_c".into(), "inc_w".into(), "optimal_lifo".into()],
        }
    }

    #[test]
    fn sweep_produces_row_per_size() {
        let cfg = SweepConfig {
            sizes: vec![40, 80],
            platforms: 3,
            total_units: 100,
            base_seed: 1,
        };
        let res = run_sweep(&cfg, &quick_variant());
        assert_eq!(res.rows.len(), 2);
        assert_eq!(res.rows[0].size, 40);
        // Five ratio columns: INC_C real, INC_W lp, INC_W real, LIFO lp,
        // LIFO real.
        assert_eq!(res.rows[0].ratios.len(), 5);
        assert!(res.rows[0].baseline_lp > 0.0);
        assert_eq!(res.baseline, "INC_C");
    }

    #[test]
    fn lifo_lp_beats_inc_c_on_compute_bound_sizes() {
        // No theorem orders LIFO vs FIFO, but on the paper's compute-bound
        // sizes LIFO's full enrollment wins on average — the shape of
        // Figures 10-12 (LIFO lp curve below 1). Regression-pinned on these
        // seeds at a compute-bound size.
        let cfg = SweepConfig {
            sizes: vec![200],
            platforms: 10,
            total_units: 100,
            base_seed: 2,
        };
        let res = run_sweep(&cfg, &quick_variant());
        let lifo_lp = res.rows[0]
            .ratios
            .iter()
            .find(|(n, _)| n == "LIFO lp/INC_C lp")
            .unwrap()
            .1;
        assert!(
            lifo_lp <= 1.0 + 1e-6,
            "LIFO lp ratio should be <= 1 at n = 200, got {lifo_lp}"
        );
    }

    #[test]
    fn inc_w_lp_never_beats_inc_c_lp() {
        // Theorem 1: INC_C is the optimal FIFO order, so INC_W lp >= 1.
        let cfg = SweepConfig {
            sizes: vec![80],
            platforms: 5,
            total_units: 100,
            base_seed: 3,
        };
        let res = run_sweep(&cfg, &quick_variant());
        let inc_w_lp = res.rows[0]
            .ratios
            .iter()
            .find(|(n, _)| n == "INC_W lp/INC_C lp")
            .unwrap()
            .1;
        assert!(
            inc_w_lp >= 1.0 - 1e-6,
            "INC_W lp ratio should be >= 1, got {inc_w_lp}"
        );
    }

    #[test]
    fn table_and_series_are_consistent() {
        let cfg = SweepConfig {
            sizes: vec![40],
            platforms: 2,
            total_units: 50,
            base_seed: 4,
        };
        let res = run_sweep(&cfg, &quick_variant());
        let t = res.table();
        assert_eq!(t.num_rows(), 1);
        let (xs, series) = res.series();
        assert_eq!(xs, vec![40.0]);
        assert_eq!(series.len(), 6); // absolute + 5 ratios
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = SweepConfig {
            sizes: vec![60],
            platforms: 3,
            total_units: 100,
            base_seed: 5,
        };
        let a = run_sweep(&cfg, &quick_variant());
        let b = run_sweep(&cfg, &quick_variant());
        assert_eq!(a.rows[0].baseline_lp, b.rows[0].baseline_lp);
        assert_eq!(a.rows[0].ratios, b.rows[0].ratios);
    }

    #[test]
    fn any_registry_strategy_can_join_a_sweep() {
        // The engine makes strategy selection pure data: sweep the chain
        // solver (LP-free) next to INC_C without touching sweep code.
        let cfg = SweepConfig {
            sizes: vec![80],
            platforms: 2,
            total_units: 50,
            base_seed: 6,
        };
        let mut v = quick_variant();
        v.schedulers = vec!["inc_c".into(), "chain".into()];
        let res = run_sweep(&cfg, &v);
        // CHAIN lp, CHAIN real + INC_C real = 3 ratio columns.
        assert_eq!(res.rows[0].ratios.len(), 3);
        let chain_lp = res.rows[0]
            .ratios
            .iter()
            .find(|(n, _)| n == "CHAIN lp/INC_C lp")
            .unwrap()
            .1;
        // The prefix chain heuristic cannot beat the optimal FIFO's LP
        // time, and INC_C == optimal FIFO for the z = 1/2 cluster model,
        // so its lp ratio is >= 1.
        assert!(chain_lp >= 1.0 - 1e-6, "chain lp ratio {chain_lp}");
    }

    #[test]
    fn partial_strategy_is_skipped_with_reason() {
        // bus_fifo does not apply to the hetero-star family: instead of
        // aborting the whole batch mid-sweep, the row records the skip with
        // the strategy's own error and the other series stay intact.
        let cfg = SweepConfig {
            sizes: vec![40],
            platforms: 2,
            total_units: 50,
            base_seed: 7,
        };
        let mut v = quick_variant();
        v.schedulers = vec!["inc_c".into(), "bus_fifo".into()];
        let res = run_sweep(&cfg, &v);
        let row = &res.rows[0];
        assert_eq!(row.skipped.len(), 1);
        assert_eq!(row.skipped[0].legend, "BUS_FIFO");
        assert_eq!(row.skipped[0].platforms, cfg.platforms);
        assert!(
            row.skipped[0].reason.contains("bus"),
            "reason should carry the strategy error, got: {}",
            row.skipped[0].reason
        );
        // The skipped strategy's ratios are NaN; the baseline's are not.
        let bus_lp = row
            .ratios
            .iter()
            .find(|(name, _)| name == "BUS_FIFO lp/INC_C lp")
            .unwrap()
            .1;
        assert!(bus_lp.is_nan());
        assert!(row.baseline_lp > 0.0);
        let inc_c_real = row
            .ratios
            .iter()
            .find(|(name, _)| name == "INC_C real/INC_C lp")
            .unwrap()
            .1;
        assert!(inc_c_real.is_finite());
    }

    #[test]
    fn fully_applicable_sweep_has_no_skips() {
        let cfg = SweepConfig {
            sizes: vec![40],
            platforms: 2,
            total_units: 50,
            base_seed: 8,
        };
        let res = run_sweep(&cfg, &quick_variant());
        assert!(res.rows.iter().all(|r| r.skipped.is_empty()));
    }

    #[test]
    #[should_panic(expected = "baseline strategy 'bus_fifo' cannot solve this platform family")]
    fn partial_baseline_still_fails_fast() {
        // The baseline normalizes every ratio: if *it* cannot solve the
        // family, nothing can be salvaged and the sweep must abort before
        // spawning worker threads.
        let cfg = SweepConfig {
            sizes: vec![40],
            platforms: 2,
            total_units: 50,
            base_seed: 7,
        };
        let mut v = quick_variant();
        v.schedulers = vec!["bus_fifo".into(), "inc_c".into()];
        run_sweep(&cfg, &v);
    }

    #[test]
    #[should_panic(expected = "unknown scheduler")]
    fn unknown_scheduler_id_panics_loudly() {
        let mut v = quick_variant();
        v.schedulers = vec!["definitely_not_registered".into()];
        v.resolve_schedulers();
    }

    #[test]
    fn parameterized_multiround_ids_join_an_ordinary_sweep() {
        // The provider story end-to-end: a multi-round id configured like
        // any other registry string, its expanded solution simulated on the
        // execution platform, no skips.
        let cfg = SweepConfig {
            sizes: vec![80],
            platforms: 2,
            total_units: 50,
            base_seed: 9,
        };
        let mut v = quick_variant();
        v.schedulers = vec!["inc_c".into(), "multiround_lp@2".into()];
        let res = run_sweep(&cfg, &v);
        let row = &res.rows[0];
        assert!(
            row.skipped.is_empty(),
            "unexpected skips: {:?}",
            row.skipped
        );
        let mr_lp = row
            .ratios
            .iter()
            .find(|(n, _)| n == "MR_LP@2 lp/INC_C lp")
            .unwrap()
            .1;
        // The 2-round LP plan embeds every 1-round plan, and INC_C is the
        // optimal FIFO on this z = 1/2 family: ratio <= 1.
        assert!(mr_lp <= 1.0 + 1e-6, "MR_LP@2 lp ratio {mr_lp}");
        let mr_real = row
            .ratios
            .iter()
            .find(|(n, _)| n == "MR_LP@2 real/INC_C lp")
            .unwrap()
            .1;
        assert!(mr_real.is_finite(), "expanded schedule failed to simulate");
    }

    #[test]
    fn r_sweep_r1_matches_the_baseline_and_r4_improves() {
        // The acceptance shape of the trade-off table: R = 1 reduces to
        // optimal_fifo exactly (ratio 1) and the LP planner strictly
        // improves for some R > 1 at the paper-scale size.
        let cfg = SweepConfig {
            sizes: vec![200],
            platforms: 4,
            total_units: 1000,
            base_seed: 11,
        };
        let res = run_r_sweep(&cfg, &r_sweep_variant());
        assert_eq!(res.n, 200);
        assert_eq!(res.baseline, "OPT_FIFO");
        assert!(res.baseline_makespan > 0.0);
        assert_eq!(res.rows.len(), 4);
        let r1 = &res.rows[0];
        assert_eq!(r1.rounds, 1);
        for (name, ratio) in &r1.ratios {
            assert!(
                (ratio - 1.0).abs() < 1e-9,
                "{name} at R = 1 should be exactly the baseline, got {ratio}"
            );
        }
        let lp_at = |row: &RSweepRow| {
            row.ratios
                .iter()
                .find(|(n, _)| n.starts_with("MR_LP"))
                .unwrap()
                .1
        };
        // Monotone along R for the LP planner (zero rounds are feasible)…
        let mut prev = f64::INFINITY;
        for row in &res.rows {
            let v = lp_at(row);
            assert!(v <= prev + 1e-9, "LP ratio increased at R = {}", row.rounds);
            prev = v;
        }
        // …and strictly better than one round by R = 4.
        let r4 = res.rows.iter().find(|r| r.rounds == 4).unwrap();
        assert!(
            lp_at(r4) < 1.0 - 1e-6,
            "R = 4 LP plan should strictly beat one-round optimal FIFO, got {}",
            lp_at(r4)
        );
        assert!(res.rows.iter().all(|r| r.skipped.is_empty()));
    }

    #[test]
    fn tree_and_affine_ids_join_an_ordinary_sweep() {
        // The provider story end-to-end for the two new families: a tree
        // id simulated on its collapsed execution platform, the affine
        // prefix heuristic next to it, no skips.
        let cfg = SweepConfig {
            sizes: vec![80],
            platforms: 2,
            total_units: 50,
            base_seed: 10,
        };
        let mut v = quick_variant();
        v.schedulers = vec!["inc_c".into(), "tree_fifo@3".into(), "affine_fifo".into()];
        let res = run_sweep(&cfg, &v);
        let row = &res.rows[0];
        assert!(
            row.skipped.is_empty(),
            "unexpected skips: {:?}",
            row.skipped
        );
        let tree_lp = row
            .ratios
            .iter()
            .find(|(n, _)| n == "TREE_FIFO@3 lp/INC_C lp")
            .unwrap()
            .1;
        // Serializing relay hops cannot beat the flat-star optimum, and
        // INC_C is that optimum on this z = 1/2 family.
        assert!(tree_lp >= 1.0 - 1e-6, "TREE_FIFO@3 lp ratio {tree_lp}");
        let tree_real = row
            .ratios
            .iter()
            .find(|(n, _)| n == "TREE_FIFO@3 real/INC_C lp")
            .unwrap()
            .1;
        assert!(
            tree_real.is_finite(),
            "collapsed schedule failed to simulate"
        );
        let aff_lp = row
            .ratios
            .iter()
            .find(|(n, _)| n == "AFF_FIFO lp/INC_C lp")
            .unwrap()
            .1;
        // Charging per-message latencies cannot beat the linear optimum.
        assert!(aff_lp >= 1.0 - 1e-6, "AFF_FIFO lp ratio {aff_lp}");
    }

    #[test]
    fn depth_sweep_flat_fanout_matches_the_baseline_and_depth_costs() {
        // The acceptance shape of the trade-off table: fanout >= p is the
        // flat star (TREE_FIFO ratio exactly 1) and deeper trees only get
        // slower for the FIFO discipline.
        let cfg = SweepConfig {
            sizes: vec![200],
            platforms: 4,
            total_units: 1000,
            base_seed: 14,
        };
        let res = run_depth_sweep(&cfg, &depth_sweep_variant());
        assert_eq!(res.n, 200);
        assert_eq!(res.baseline, "OPT_FIFO");
        assert!(res.baseline_makespan > 0.0);
        assert_eq!(res.rows.len(), 4);
        let flat = &res.rows[0];
        assert_eq!(flat.fanout, 11);
        assert_eq!(flat.depth, 1);
        let fifo_at = |row: &DepthSweepRow| {
            row.ratios
                .iter()
                .find(|(n, _)| n.starts_with("TREE_FIFO"))
                .unwrap()
                .1
        };
        assert!(
            (fifo_at(flat) - 1.0).abs() < 1e-9,
            "flat fanout should be exactly the baseline, got {}",
            fifo_at(flat)
        );
        // Depth is monotone along the fanout axis {11, 3, 2, 1}...
        let depths: Vec<usize> = res.rows.iter().map(|r| r.depth).collect();
        assert_eq!(depths, vec![1, 2, 3, 11]);
        // ...and the serialized FIFO ratio only degrades with depth.
        let mut prev = 0.0;
        for row in &res.rows {
            let v = fifo_at(row);
            assert!(
                v >= prev - 1e-9,
                "FIFO ratio improved with depth at fanout {}",
                row.fanout
            );
            prev = v;
        }
        // The tree-native LP rides the same axis and never loses to the
        // star-collapse FIFO at any depth — its whole point.
        let lp_at = |row: &DepthSweepRow| {
            row.ratios
                .iter()
                .find(|(n, _)| n.starts_with("TREE_LP"))
                .unwrap()
                .1
        };
        for row in &res.rows {
            assert!(
                lp_at(row) <= fifo_at(row) + 1e-7,
                "tree_lp lost to tree_fifo at fanout {}: {} vs {}",
                row.fanout,
                lp_at(row),
                fifo_at(row)
            );
        }
        // At depth >= 2 the per-link LP must claw back part of the
        // serialization cost on average (strict improvement somewhere).
        let improved = res
            .rows
            .iter()
            .filter(|r| r.depth >= 2)
            .any(|r| lp_at(r) < fifo_at(r) - 1e-6);
        assert!(
            improved,
            "tree_lp never improved on star-collapse at depth >= 2"
        );
        assert!(res.rows.iter().all(|r| r.skipped.is_empty()));
    }

    #[test]
    fn interleaved_fifo_joins_an_ordinary_sweep() {
        // The interleaved-master solver as plain sweep configuration: its
        // lp column can never lose to the one-round FIFO optimum (INC_C on
        // this z = 1/2 family) because the canonical lead is in its family.
        let cfg = SweepConfig {
            sizes: vec![80],
            platforms: 2,
            total_units: 50,
            base_seed: 17,
        };
        let mut v = quick_variant();
        v.schedulers = vec!["inc_c".into(), "interleaved_fifo".into()];
        let res = run_sweep(&cfg, &v);
        let row = &res.rows[0];
        assert!(
            row.skipped.is_empty(),
            "unexpected skips: {:?}",
            row.skipped
        );
        let int_lp = row
            .ratios
            .iter()
            .find(|(n, _)| n == "INT_FIFO lp/INC_C lp")
            .unwrap()
            .1;
        assert!(
            (0.999..=1.001).contains(&int_lp),
            "INT_FIFO lp ratio {int_lp} should match the canonical optimum"
        );
        let int_real = row
            .ratios
            .iter()
            .find(|(n, _)| n == "INT_FIFO real/INC_C lp")
            .unwrap()
            .1;
        assert!(
            int_real.is_finite(),
            "interleaved schedule failed to simulate"
        );
    }

    #[test]
    fn depth_sweep_table_has_one_row_per_fanout() {
        let cfg = SweepConfig {
            sizes: vec![120],
            platforms: 2,
            total_units: 100,
            base_seed: 15,
        };
        let mut v = depth_sweep_variant();
        v.fanouts = vec![11, 1];
        let res = run_depth_sweep(&cfg, &v);
        let t = res.table();
        assert_eq!(t.num_rows(), 2);
        let rendered = t.render();
        assert!(rendered.contains("TREE_FIFO mk/OPT_FIFO mk"), "{rendered}");
        assert!(rendered.contains("depth"), "{rendered}");
    }

    #[test]
    fn depth_sweep_is_deterministic() {
        let cfg = SweepConfig {
            sizes: vec![120],
            platforms: 3,
            total_units: 100,
            base_seed: 16,
        };
        let a = run_depth_sweep(&cfg, &depth_sweep_variant());
        let b = run_depth_sweep(&cfg, &depth_sweep_variant());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.ratios, rb.ratios);
        }
    }

    #[test]
    fn r_sweep_table_has_one_row_per_round_count() {
        let cfg = SweepConfig {
            sizes: vec![120],
            platforms: 2,
            total_units: 100,
            base_seed: 12,
        };
        let mut v = r_sweep_variant();
        v.rounds = vec![1, 2];
        let res = run_r_sweep(&cfg, &v);
        let t = res.table();
        assert_eq!(t.num_rows(), 2);
        let rendered = t.render();
        assert!(rendered.contains("MR_LP mk/OPT_FIFO mk"), "{rendered}");
    }

    #[test]
    fn repeated_axis_values_are_evaluated_once() {
        let cfg = SweepConfig {
            sizes: vec![120],
            platforms: 2,
            total_units: 100,
            base_seed: 18,
        };
        let mut r = r_sweep_variant();
        r.rounds = vec![2, 2, 1];
        let r_res = run_r_sweep(&cfg, &r);
        assert_eq!(
            r_res.rows.iter().map(|row| row.rounds).collect::<Vec<_>>(),
            [2, 1]
        );
        let mut d = depth_sweep_variant();
        d.fanouts = vec![3, 3, 1];
        let res = run_depth_sweep(&cfg, &d);
        assert_eq!(
            res.rows.iter().map(|row| row.fanout).collect::<Vec<_>>(),
            [3, 1]
        );
        assert!(res.rows.iter().all(|row| row.ratios.len() == 3));
    }

    #[test]
    fn r_sweep_is_deterministic() {
        let cfg = SweepConfig {
            sizes: vec![120],
            platforms: 3,
            total_units: 100,
            base_seed: 13,
        };
        let a = run_r_sweep(&cfg, &r_sweep_variant());
        let b = run_r_sweep(&cfg, &r_sweep_variant());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.ratios, rb.ratios);
        }
    }
}
