//! Figures 10-13 — heuristic comparisons on random platforms.
//!
//! Thin figure-specific configurations over the shared
//! [`crate::figures::sweep`] engine. Each compares the paper's Section 5.3
//! heuristics by registry id: `inc_c` (FIFO, fastest links first — the
//! optimal FIFO for `z < 1` by Theorem 1, and the normalization
//! baseline), `inc_w` (FIFO, fastest computers first) and `optimal_lifo`.
//!
//! * **Figure 10** — 50 homogeneous random platforms (a bus with uniform
//!   compute): only `INC_C` and `LIFO` are plotted since every FIFO
//!   ordering coincides;
//! * **Figure 11** — homogeneous communication + heterogeneous computation
//!   (the Theorem 2 regime);
//! * **Figure 12** — fully heterogeneous stars;
//! * **Figure 13(a)** — Figure 12 platforms with computation 10× faster;
//! * **Figure 13(b)** — Figure 12 platforms with communication 10× faster,
//!   where the linear cost model starts to break (modeled by the
//!   cache-degradation compute inflation).

use dls_platform::PlatformSampler;

use crate::figures::sweep::{explain_baseline, run_sweep, SweepResult, SweepVariant};
use crate::scenarios::SweepConfig;

/// Figure 10 variant.
pub fn fig10_variant() -> SweepVariant {
    SweepVariant {
        label: "Figure 10 — 50 homogeneous random platforms".into(),
        sampler: PlatformSampler::homogeneous(),
        comp_scale: 1.0,
        comm_scale: 1.0,
        cache_effects: false,
        // All FIFO orderings coincide on a bus, so INC_W is dropped.
        schedulers: vec!["inc_c".into(), "optimal_lifo".into()],
    }
}

/// Figure 11 variant.
pub fn fig11_variant() -> SweepVariant {
    SweepVariant {
        label: "Figure 11 — homogeneous communication, heterogeneous computation".into(),
        sampler: PlatformSampler::hetero_compute_bus(),
        comp_scale: 1.0,
        comm_scale: 1.0,
        cache_effects: false,
        schedulers: vec!["inc_c".into(), "inc_w".into(), "optimal_lifo".into()],
    }
}

/// Figure 12 variant.
pub fn fig12_variant() -> SweepVariant {
    SweepVariant {
        label: "Figure 12 — 50 heterogeneous random platforms".into(),
        sampler: PlatformSampler::hetero_star(),
        comp_scale: 1.0,
        comm_scale: 1.0,
        cache_effects: false,
        schedulers: vec!["inc_c".into(), "inc_w".into(), "optimal_lifo".into()],
    }
}

/// Figure 13(a) variant: calculation power ×10.
pub fn fig13a_variant() -> SweepVariant {
    SweepVariant {
        label: "Figure 13(a) — heterogeneous platforms, calculation power x10".into(),
        comp_scale: 0.1,
        ..fig12_variant()
    }
}

/// Figure 13(b) variant: communication power ×10 (linear-model limits).
pub fn fig13b_variant() -> SweepVariant {
    SweepVariant {
        label: "Figure 13(b) — heterogeneous platforms, communication power x10".into(),
        comm_scale: 0.1,
        cache_effects: true,
        ..fig12_variant()
    }
}

/// Runs one of the sweep figures.
pub fn run(variant: &SweepVariant, cfg: &SweepConfig) -> SweepResult {
    run_sweep(cfg, variant)
}

/// Renders the `--explain` report for one of the sweep figures: the
/// baseline schedule on one sampled platform as a Gantt with every idle
/// interval attributed to a cause and per-worker utilization/port shares.
pub fn explain(variant: &SweepVariant, cfg: &SweepConfig) -> String {
    let (header, report) = explain_baseline(cfg, variant);
    format!("{header}\n\n{}", report.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            sizes: vec![80],
            platforms: 3,
            total_units: 100,
            base_seed: 11,
        }
    }

    #[test]
    fn fig10_has_no_inc_w_series() {
        let res = run(&fig10_variant(), &tiny());
        assert!(res.rows[0]
            .ratios
            .iter()
            .all(|(name, _)| !name.contains("INC_W")));
        // INC_C real and LIFO lp/real = 3 columns.
        assert_eq!(res.rows[0].ratios.len(), 3);
    }

    #[test]
    fn fig11_and_12_have_all_series() {
        for v in [fig11_variant(), fig12_variant()] {
            let res = run(&v, &tiny());
            assert_eq!(res.rows[0].ratios.len(), 5, "{}", v.label);
        }
    }

    #[test]
    fn explain_attribution_covers_all_idle_time() {
        let (header, rep) = explain_baseline(&tiny(), &fig12_variant());
        assert!(header.contains("explain"));
        assert!(!rep.workers.is_empty());
        for w in &rep.workers {
            let expect = rep.makespan - w.busy;
            assert!(
                (w.idle_total() - expect).abs() < 1e-9,
                "{}: attributed idle {} vs makespan - busy {}",
                w.worker,
                w.idle_total(),
                expect
            );
        }
        let rendered = explain(&fig12_variant(), &tiny());
        assert!(rendered.contains("legend"), "Gantt legend missing");
        assert!(rendered.contains("idle attribution:"));
    }

    #[test]
    fn fig13a_is_comm_dominated() {
        // With compute 10x faster, the theoretical INC_C time drops well
        // below the unscaled variant's.
        let base = run(&fig12_variant(), &tiny());
        let fast = run(&fig13a_variant(), &tiny());
        assert!(fast.rows[0].baseline_lp < base.rows[0].baseline_lp);
    }

    #[test]
    fn fig13b_real_ratio_grows_with_size() {
        // The cache model makes real/lp grow with n when communication is
        // fast — the paper's "limits of the linear cost model".
        let cfg = SweepConfig {
            sizes: vec![40, 200],
            platforms: 3,
            total_units: 100,
            base_seed: 12,
        };
        let res = run(&fig13b_variant(), &cfg);
        let ratio = |row: usize| {
            res.rows[row]
                .ratios
                .iter()
                .find(|(n, _)| n == "INC_C real/INC_C lp")
                .unwrap()
                .1
        };
        assert!(
            ratio(1) > ratio(0) + 0.1,
            "expected growing real/lp: {} then {}",
            ratio(0),
            ratio(1)
        );
    }
}
