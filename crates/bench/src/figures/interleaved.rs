//! The `interleaved_gap` artifact: what interleaving the master's port
//! actually costs (beyond the paper; the interleaved-master ROADMAP item).
//!
//! For the paper-scale heterogeneous-star family, each row pins one merge
//! **lead** `L` of the interleaved-master LP family (`L = p` is the
//! canonical sends-then-returns shape; `L = 1` fully alternates sends and
//! returns) and reports, averaged over sampled platforms and normalized
//! by `optimal_fifo`'s LP makespan:
//!
//! * `lp` — the lead's own LP-optimal makespan ratio (≥ 1; exactly 1 at
//!   the canonical lead — the canonical-shape theorem observed from the
//!   optimization side);
//! * `replay STR` — the lead's loads replayed by the simulator under the
//!   canonical `SendsThenReceives` master;
//! * `replay INT` — the same loads under the greedy
//!   `MasterPolicy::Interleaved` master.
//!
//! Together the three columns chart the full gap story: the LP family
//! says interleaving cannot *gain* throughput, and the replay columns
//! show what each interleaving costs when executed under either policy.
//!
//! Each reported lead is solved once, as the registry's
//! `interleaved_fifo@<lead>` strategy, on the platforms the shared sweep
//! sampler draws.

use dls_core::engine::Scheduler;
use dls_core::interleaved::InterleavedScheduler;
use dls_core::prelude::*;
use dls_platform::{ClusterModel, MatrixApp, PlatformSampler};
use dls_report::{mean, num, par_map, Series, Table};
use dls_sim::{simulate, MasterPolicy, SimConfig};

use crate::figures::sweep::{distinct, platform_factors};
use crate::scenarios::SweepConfig;

/// One lead's averaged row.
#[derive(Debug, Clone)]
pub struct GapRow {
    /// The merge lead (`p` = canonical).
    pub lead: usize,
    /// Mean LP makespan ratio vs `optimal_fifo` (≥ 1).
    pub lp_ratio: f64,
    /// Mean sends-then-receives replay makespan ratio.
    pub replay_str_ratio: f64,
    /// Mean interleaved-policy replay makespan ratio.
    pub replay_int_ratio: f64,
}

/// Complete interleaved-gap result.
#[derive(Debug, Clone)]
pub struct InterleavedGapResult {
    /// Display label.
    pub label: String,
    /// Matrix size the platforms were built for.
    pub n: usize,
    /// Platforms averaged.
    pub platforms: usize,
    /// Mean `optimal_fifo` makespan in seconds (absolute reference for
    /// `cfg.total_units` units).
    pub baseline_makespan: f64,
    /// One row per lead, canonical first.
    pub rows: Vec<GapRow>,
}

impl InterleavedGapResult {
    /// Renders the gap table (one row per lead).
    pub fn table(&self) -> Table {
        let mut t = Table::new(&[
            "lead",
            "INT lp/OPT lp",
            "INT replay-STR/OPT lp",
            "INT replay-INT/OPT lp",
        ]);
        for row in &self.rows {
            t.row(&[
                if row.lead == self.rows[0].lead {
                    format!("{} (canonical)", row.lead)
                } else {
                    row.lead.to_string()
                },
                num(row.lp_ratio, 4),
                num(row.replay_str_ratio, 4),
                num(row.replay_int_ratio, 4),
            ]);
        }
        t
    }

    /// Exports the lead axis and the three ratio series for `.dat` output.
    pub fn series(&self) -> (Vec<f64>, Vec<Series>) {
        let xs: Vec<f64> = self.rows.iter().map(|r| r.lead as f64).collect();
        let series = vec![
            Series::new(
                "INT lp/OPT lp".to_string(),
                self.rows.iter().map(|r| r.lp_ratio).collect(),
            ),
            Series::new(
                "INT replay-STR/OPT lp".to_string(),
                self.rows.iter().map(|r| r.replay_str_ratio).collect(),
            ),
            Series::new(
                "INT replay-INT/OPT lp".to_string(),
                self.rows.iter().map(|r| r.replay_int_ratio).collect(),
            ),
        ];
        (xs, series)
    }
}

/// Runs the interleaved-gap study at the paper-scale matrix size (the last
/// entry of `cfg.sizes`) over `cfg.platforms` sampled heterogeneous stars.
/// Leads swept: `{p, p/2, 4, 2, 1}` (deduplicated, clamped to `1..=p`).
pub fn run_interleaved_gap(cfg: &SweepConfig) -> InterleavedGapResult {
    let cluster = ClusterModel::gdsdmi();
    let sampler = PlatformSampler::hetero_star();
    let n = *cfg.sizes.last().expect("sweep config has sizes");
    let app = MatrixApp::new(n);
    let p = sampler.workers;
    let leads = distinct(
        [p, p / 2, 4, 2, 1]
            .into_iter()
            .filter(|l| (1..=p).contains(l)),
    );
    let factor_sets: Vec<(Vec<f64>, Vec<f64>)> = (0..cfg.platforms)
        .map(|i| platform_factors(cfg, &sampler, i))
        .collect();

    /// One lead's `(lp, replay_str, replay_int)` makespan ratios on one
    /// platform.
    type LeadRatios = (f64, f64, f64);

    // Per platform: (opt makespan, per-lead ratios).
    let evaluated: Vec<(f64, Vec<LeadRatios>)> = par_map(&factor_sets, |(comm, comp)| {
        let platform = cluster
            .platform(&app, comm, comp)
            .expect("sampled factors valid");
        let opt = optimal_fifo(&platform).expect("z-tied cluster family");
        let opt_makespan = 1.0 / opt.throughput;
        let rows = leads
            .iter()
            .map(|&lead| {
                let sol = InterleavedScheduler::with_lead(lead)
                    .solve(&platform)
                    .expect("lead in 1..=p");
                let lp_ratio = (1.0 / sol.throughput) / opt_makespan;
                // Replay a unit total load of this lead's proportions under
                // both master policies.
                let schedule = sol.schedule.with_loads(
                    sol.schedule
                        .loads()
                        .iter()
                        .map(|l| l / sol.throughput)
                        .collect(),
                );
                let replay = |policy| {
                    simulate(
                        &platform,
                        &schedule,
                        &SimConfig {
                            policy,
                            ..SimConfig::ideal()
                        },
                    )
                    .makespan
                };
                let str_ratio = replay(MasterPolicy::SendsThenReceives) / opt_makespan;
                let int_ratio = replay(MasterPolicy::Interleaved) / opt_makespan;
                (lp_ratio, str_ratio, int_ratio)
            })
            .collect();
        (opt_makespan, rows)
    });

    let baseline_makespan =
        mean(&evaluated.iter().map(|(m, _)| *m).collect::<Vec<_>>()) * cfg.total_units as f64;
    let rows = leads
        .iter()
        .enumerate()
        .map(|(k, &lead)| GapRow {
            lead,
            lp_ratio: mean(&evaluated.iter().map(|(_, r)| r[k].0).collect::<Vec<_>>()),
            replay_str_ratio: mean(&evaluated.iter().map(|(_, r)| r[k].1).collect::<Vec<_>>()),
            replay_int_ratio: mean(&evaluated.iter().map(|(_, r)| r[k].2).collect::<Vec<_>>()),
        })
        .collect();

    InterleavedGapResult {
        label: "interleaved-master gap (per-lead LP vs canonical vs simulator replay)".into(),
        n,
        platforms: cfg.platforms,
        baseline_makespan,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_rows_tell_the_canonical_story() {
        let cfg = SweepConfig {
            sizes: vec![120],
            platforms: 2,
            total_units: 100,
            base_seed: 19,
        };
        let res = run_interleaved_gap(&cfg);
        assert_eq!(res.n, 120);
        assert!(res.baseline_makespan > 0.0);
        // Canonical row first: lead = p, every ratio exactly ~1 (the LP is
        // optimal_fifo and its replay fills the horizon under both
        // policies — an already-finished canonical schedule leaves the
        // greedy master nothing to preempt).
        let canon = &res.rows[0];
        assert_eq!(canon.lead, 11);
        assert!((canon.lp_ratio - 1.0).abs() < 1e-6, "{}", canon.lp_ratio);
        assert!((canon.replay_str_ratio - 1.0).abs() < 1e-6);
        // Every interleaving costs (lp ratio >= 1), and no replay of any
        // lead's loads beats the one-round optimum (ratio >= 1). The
        // canonical replay may well *beat* a lead's own LP prediction —
        // re-serializing an interleaved plan recovers part of its cost —
        // which is exactly the story the three columns chart.
        for row in &res.rows {
            assert!(
                row.lp_ratio >= 1.0 - 1e-9,
                "lead {}: {}",
                row.lead,
                row.lp_ratio
            );
            assert!(row.replay_str_ratio >= 1.0 - 1e-6);
            assert!(row.replay_int_ratio >= 1.0 - 1e-6);
        }
        let t = res.table();
        assert_eq!(t.num_rows(), res.rows.len());
        assert!(t.render().contains("(canonical)"));
        let (xs, series) = res.series();
        assert_eq!(xs.len(), res.rows.len());
        assert_eq!(series.len(), 3);
    }
}
