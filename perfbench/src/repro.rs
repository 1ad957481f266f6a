//! The `repro_paper` workload: one pass computes everything `repro_all`
//! computes — figures 8 and 9, the figure 10–13 sweeps, the multi-round
//! R-sweep and table, the tree depth sweep and table, the interleaved gap
//! and figure 14 — through the `dls_bench::figures` entry points, without
//! writing files. Each section is timed with one `Instant`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dls_bench::figures::fig08::Fig08;
use dls_bench::figures::fig09::Fig09;
use dls_bench::figures::fig14::Fig14;
use dls_bench::figures::interleaved::{run_interleaved_gap, InterleavedGapResult};
use dls_bench::figures::sweep::{
    depth_sweep_variant, r_sweep_variant, run_depth_sweep, run_r_sweep, DepthSweepResult,
    RSweepResult, SkippedStrategy, SweepResult, SweepVariant,
};
use dls_bench::figures::{fig08, fig09, fig10_13, fig14};
use dls_bench::SweepConfig;
use dls_platform::{ClusterModel, MatrixApp, Platform, PlatformSampler};
use dls_report::{multiround_table, tree_table, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{Cell, Kind};

/// Distance between the seed streams of consecutive workload seeds. Sweep
/// platform `i` uses `base_seed + i`, so a stride above any platform count
/// keeps the platform sets of two workload seeds disjoint.
const SEED_STRIDE: u64 = 1_000_003;

/// `base` moved by the workload seed; seed 0 leaves it unchanged.
pub fn shifted(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(SEED_STRIDE))
}

/// Installment counts of the multi-round table (as in `repro_all`).
pub const TABLE_ROUNDS: [usize; 4] = [1, 2, 4, 8];
/// Slow-worker speeds of the three figure 14 runs.
pub const FIG14_X: [f64; 3] = [1.0, 2.0, 3.0];
/// Matrix size of figure 14.
pub const FIG14_N: usize = 400;
/// Matrix size of figure 9 and of the multi-round and tree tables.
pub const TABLE_N: usize = 200;

/// Inputs of one pass. Seed 0 reproduces `repro_all`'s inputs exactly.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The sweep configuration (paper scale, or `repro_all --quick`'s).
    pub cfg: SweepConfig,
    /// Figure 8 transfer-jitter seed.
    pub fig08_seed: u64,
    /// Figure 9 replay seed.
    pub fig09_seed: u64,
    /// Load units of figures 9 and 14.
    pub units: u64,
    /// Seed of the multi-round table's platform.
    pub multiround_platform_seed: u64,
    /// Seed of the tree table's platform.
    pub tree_platform_seed: u64,
    /// Figure 14 replay seed.
    pub fig14_seed: u64,
}

impl Inputs {
    /// `repro_all`'s inputs (`quick`: its `--quick` mode) with every seed
    /// moved by the workload seed.
    pub fn new(quick: bool, seed: u64) -> Inputs {
        let mut cfg = if quick {
            SweepConfig::quick()
        } else {
            SweepConfig::paper()
        };
        cfg.base_seed = shifted(cfg.base_seed, seed);
        Inputs {
            cfg,
            fig08_seed: shifted(0xF1608, seed),
            fig09_seed: shifted(0xF1609, seed),
            units: if quick { 200 } else { 1000 },
            multiround_platform_seed: shifted(0xF16A0, seed),
            tree_platform_seed: shifted(0xF16B0, seed),
            fig14_seed: shifted(0xF1614, seed),
        }
    }

    /// The concrete platform of the multi-round or tree table.
    pub fn table_platform(&self, seed: u64) -> Platform {
        PlatformSampler::hetero_star().sample(
            &MatrixApp::new(TABLE_N),
            &ClusterModel::gdsdmi(),
            &mut StdRng::seed_from_u64(seed),
        )
    }
}

/// Installs every scheduler provider the sections resolve ids through.
pub fn install_providers() {
    dls_rounds::install();
    dls_tree::install();
    dls_core::affine::install();
    dls_core::interleaved::install();
}

/// The figure 10–13 variants, in `repro_all` order.
pub fn sweep_variants() -> [(&'static str, SweepVariant); 5] {
    [
        ("fig10", fig10_13::fig10_variant()),
        ("fig11", fig10_13::fig11_variant()),
        ("fig12", fig10_13::fig12_variant()),
        ("fig13a", fig10_13::fig13a_variant()),
        ("fig13b", fig10_13::fig13b_variant()),
    ]
}

/// One figure-section call of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Figure 8 (transfer linearity).
    Fig08,
    /// Figure 9 (one traced execution).
    Fig09,
    /// One figure 10–13 sweep, by index into [`sweep_variants`].
    Sweep(usize),
    /// The multi-round R-sweep.
    MultiroundSweep,
    /// The multi-round table on one platform.
    MultiroundTable,
    /// The tree depth sweep.
    TreeSweep,
    /// The tree table on one platform.
    TreeTable,
    /// The interleaved-master gap.
    Interleaved,
    /// One figure 14 run, by index into [`FIG14_X`].
    Fig14(usize),
}

/// Every section of a pass, in `repro_all` order. The count is odd, so the
/// median section latency falls inside one section's samples.
pub fn sections() -> Vec<Section> {
    let mut all = vec![Section::Fig08, Section::Fig09];
    all.extend((0..5).map(Section::Sweep));
    all.extend([
        Section::MultiroundSweep,
        Section::MultiroundTable,
        Section::TreeSweep,
        Section::TreeTable,
        Section::Interleaved,
    ]);
    all.extend((0..FIG14_X.len()).map(Section::Fig14));
    all
}

impl Section {
    /// Stable section name.
    pub fn name(self) -> &'static str {
        match self {
            Section::Fig08 => "fig08",
            Section::Fig09 => "fig09",
            Section::Sweep(i) => sweep_variants()[i].0,
            Section::MultiroundSweep => "multiround_sweep",
            Section::MultiroundTable => "multiround_table",
            Section::TreeSweep => "tree_sweep",
            Section::TreeTable => "tree_table",
            Section::Interleaved => "interleaved",
            Section::Fig14(i) => ["fig14_x1", "fig14_x2", "fig14_x3"][i],
        }
    }

    /// The `figures.<group>_s` metric this section's time counts toward.
    pub fn group(self) -> &'static str {
        match self {
            Section::Sweep(_) => "fig10_13",
            Section::MultiroundSweep | Section::MultiroundTable => "multiround",
            Section::TreeSweep | Section::TreeTable => "tree",
            Section::Interleaved => "interleaved",
            Section::Fig08 | Section::Fig09 | Section::Fig14(_) => "other",
        }
    }

    /// Whether the section's work fans out through `par_map`.
    pub fn fans_out(self) -> bool {
        matches!(
            self,
            Section::Sweep(_)
                | Section::MultiroundSweep
                | Section::TreeSweep
                | Section::Interleaved
        )
    }

    /// Scheduling requests (strategy × platform) the section makes.
    pub fn requests(self, inputs: &Inputs) -> u64 {
        let cfg = &inputs.cfg;
        let platforms = cfg.platforms as u64;
        match self {
            Section::Fig08 => 0,
            Section::Fig09 => 1,
            Section::Sweep(i) => {
                let strategies = sweep_variants()[i].1.schedulers.len();
                (cfg.sizes.len() * strategies) as u64 * platforms
            }
            Section::MultiroundSweep => {
                let v = r_sweep_variant();
                platforms * (1 + (v.rounds.len() * v.planners.len()) as u64)
            }
            // The baseline plus `multiround_table`'s three planners per R.
            Section::MultiroundTable => 1 + 3 * TABLE_ROUNDS.len() as u64,
            Section::TreeSweep => {
                let v = depth_sweep_variant();
                platforms * (1 + (v.fanouts.len() * v.schedulers.len()) as u64)
            }
            // The baseline plus `tree_table`'s two strategies per fanout.
            Section::TreeTable => 1 + 2 * 4,
            // `optimal_fifo` plus the per-lead interleaved profile.
            Section::Interleaved => platforms * 2,
            Section::Fig14(_) => 4,
        }
    }
}

/// What a section returned.
pub enum Output {
    /// Figure 8.
    Fig08(Fig08),
    /// Figure 9.
    Fig09(Fig09),
    /// A figure 10–13 sweep.
    Sweep(SweepResult),
    /// The R-sweep.
    RSweep(RSweepResult),
    /// The depth sweep.
    Depth(DepthSweepResult),
    /// A rendered table.
    Table(Table),
    /// The interleaved gap.
    Gap(InterleavedGapResult),
    /// Figure 14.
    Fig14(Fig14),
}

fn run_section(section: Section, inputs: &Inputs) -> Output {
    let cfg = &inputs.cfg;
    match section {
        Section::Fig08 => Output::Fig08(fig08::run(inputs.fig08_seed)),
        Section::Fig09 => Output::Fig09(fig09::run(TABLE_N, inputs.units, inputs.fig09_seed)),
        Section::Sweep(i) => Output::Sweep(fig10_13::run(&sweep_variants()[i].1, cfg)),
        Section::MultiroundSweep => Output::RSweep(run_r_sweep(cfg, &r_sweep_variant())),
        Section::MultiroundTable => {
            let platform = inputs.table_platform(inputs.multiround_platform_seed);
            Output::Table(multiround_table(&platform, &TABLE_ROUNDS))
        }
        Section::TreeSweep => Output::Depth(run_depth_sweep(cfg, &depth_sweep_variant())),
        Section::TreeTable => {
            let platform = inputs.table_platform(inputs.tree_platform_seed);
            let fanouts = [platform.num_workers(), 3, 2, 1];
            Output::Table(tree_table(&platform, &fanouts))
        }
        Section::Interleaved => Output::Gap(run_interleaved_gap(cfg)),
        Section::Fig14(i) => Output::Fig14(fig14::run(
            FIG14_X[i],
            FIG14_N,
            inputs.units,
            inputs.fig14_seed,
        )),
    }
}

/// One section of a pass: its wall time and what it returned (or the
/// message of the panic that ended it).
pub struct SectionRun {
    /// Which section.
    pub section: Section,
    /// Wall time of the call.
    pub seconds: f64,
    /// The output, or the panic message.
    pub output: Result<Output, String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one pass; returns its wall time and every section's run. A
/// panicking section is recorded and the pass goes on.
pub fn run_pass(inputs: &Inputs) -> (f64, Vec<SectionRun>) {
    let started = Instant::now();
    let runs = sections()
        .into_iter()
        .map(|section| {
            let t = Instant::now();
            let output = catch_unwind(AssertUnwindSafe(|| run_section(section, inputs)))
                .map_err(panic_message);
            SectionRun {
                section,
                seconds: t.elapsed().as_secs_f64(),
                output,
            }
        })
        .collect();
    (started.elapsed().as_secs_f64(), runs)
}

/// A pass's checked numbers and request accounting.
pub struct Outcome {
    /// Every table cell, in section order.
    pub cells: Vec<Cell>,
    /// Scheduling requests made.
    pub attempted: u64,
    /// Requests that errored (applicability skips and `n/a` table cells
    /// included) or sat in a section that panicked.
    pub failed: u64,
    /// One line per panicked section.
    pub errors: Vec<String>,
}

/// Flattens a pass's outputs into cells and counts its requests.
pub fn outcome(inputs: &Inputs, runs: &[SectionRun]) -> Outcome {
    let mut out = Outcome {
        cells: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    for run in runs {
        let requests = run.section.requests(inputs);
        out.attempted += requests;
        match &run.output {
            Ok(output) => out.failed += cells_of(run.section.name(), output, &mut out.cells),
            Err(msg) => {
                out.failed += requests.max(1);
                out.errors
                    .push(format!("{} panicked: {msg}", run.section.name()));
            }
        }
    }
    out
}

/// Appends `output`'s cells; returns its failed-request count.
fn cells_of(section: &str, output: &Output, cells: &mut Vec<Cell>) -> u64 {
    let mut push = |key: String, kind: Kind, value: f64| {
        cells.push(Cell::new(format!("{section}/{key}"), kind, value));
    };
    match output {
        Output::Fig08(f) => {
            for (i, w) in f.workers.iter().enumerate() {
                let worker = i + 1;
                for (k, t) in w.times.iter().enumerate() {
                    push(format!("worker{worker}/t{k}"), Kind::Replay, *t);
                }
                push(format!("worker{worker}/slope"), Kind::Replay, w.fit.slope);
                push(
                    format!("worker{worker}/intercept"),
                    Kind::Replay,
                    w.fit.intercept,
                );
                push(format!("worker{worker}/r2"), Kind::Replay, w.fit.r_squared);
            }
            0
        }
        Output::Fig09(f) => {
            push("participants".into(), Kind::Lp, f.participants as f64);
            push("makespan".into(), Kind::Replay, f.makespan);
            0
        }
        Output::Sweep(r) => {
            for row in &r.rows {
                push(
                    format!("n={}/baseline_lp", row.size),
                    Kind::Lp,
                    row.baseline_lp,
                );
                for (col, v) in &row.ratios {
                    let kind = if col.contains(" real/") {
                        Kind::Replay
                    } else {
                        Kind::Lp
                    };
                    push(format!("n={}/{col}", row.size), kind, *v);
                }
            }
            skipped(r.rows.iter().map(|row| &row.skipped))
        }
        Output::RSweep(r) => {
            push("baseline_makespan".into(), Kind::Lp, r.baseline_makespan);
            for row in &r.rows {
                for (col, v) in &row.ratios {
                    push(format!("R={}/{col}", row.rounds), Kind::Lp, *v);
                }
            }
            skipped(r.rows.iter().map(|row| &row.skipped))
        }
        Output::Depth(r) => {
            push("baseline_makespan".into(), Kind::Lp, r.baseline_makespan);
            for row in &r.rows {
                for (col, v) in &row.ratios {
                    // TREE_LP reports the store-and-forward replay of its
                    // relaxation's loads.
                    let kind = if col.starts_with("TREE_LP") {
                        Kind::Replay
                    } else {
                        Kind::Lp
                    };
                    push(format!("fanout={}/{col}", row.fanout), kind, *v);
                }
            }
            skipped(r.rows.iter().map(|row| &row.skipped))
        }
        Output::Table(t) => table_cells(section, t, cells),
        Output::Gap(g) => {
            push("baseline_makespan".into(), Kind::Lp, g.baseline_makespan);
            for row in &g.rows {
                push(format!("lead={}/lp", row.lead), Kind::Lp, row.lp_ratio);
                push(
                    format!("lead={}/replay_str", row.lead),
                    Kind::Replay,
                    row.replay_str_ratio,
                );
                push(
                    format!("lead={}/replay_int", row.lead),
                    Kind::Replay,
                    row.replay_int_ratio,
                );
            }
            0
        }
        Output::Fig14(f) => {
            for row in &f.rows {
                let k = row.available;
                push(format!("k={k}/used"), Kind::Lp, row.used as f64);
                push(format!("k={k}/lp_time"), Kind::Lp, row.lp_time);
                push(format!("k={k}/real_time"), Kind::Replay, row.real_time);
            }
            0
        }
    }
}

/// Failed requests recorded in a result's per-row skip lists.
fn skipped<'a>(rows: impl Iterator<Item = &'a Vec<SkippedStrategy>>) -> u64 {
    rows.flatten().map(|s| s.platforms as u64).sum()
}

/// Reads a rendered table's numeric cells (LP-derived solver makespans and
/// ratios) through its CSV form; `n/a` cells are failed requests.
fn table_cells(section: &str, table: &Table, cells: &mut Vec<Cell>) -> u64 {
    let csv = table.to_csv();
    let mut lines = csv.lines();
    let headers: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let mut failed = 0;
    for line in lines {
        let row: Vec<&str> = line.split(',').collect();
        for (header, raw) in headers.iter().zip(&row).skip(1) {
            if *raw == "n/a" {
                failed += 1;
                continue;
            }
            let text = raw.trim_end_matches('x');
            let Ok(value) = text.parse::<f64>() else {
                continue; // "-": no best-vs-baseline ratio
            };
            let decimals = text.split_once('.').map_or(0, |(_, frac)| frac.len());
            cells.push(Cell {
                key: format!("{section}/{}/{header}", row[0]),
                kind: Kind::Lp,
                value,
                slack: if decimals == 0 {
                    0.0
                } else {
                    10f64.powi(-(decimals as i32))
                },
            });
        }
    }
    failed
}
