//! The static analyzer accepts every model the workspace actually builds.
//!
//! Two layers: (1) solve every registered strategy on a platform matrix
//! with the pre-solve gate active (debug builds, which is how tests build,
//! always run it), so a builder emitting a broken row fails here with a
//! named diagnostic rather than deep inside the simplex; (2) run
//! `dls_lp::analyze` directly on each model-building entry point and
//! assert zero error-severity findings.

use dls::core::interleaved::{interleaved_model, merge_with_lead};
use dls::core::lp_model::scenario_model;
use dls::core::PortModel;
use dls::lp::analyze;
use dls::platform::{Platform, TreePlatform, WorkerId};
use dls::tree::tree_lp_model;

/// Small heterogeneous platforms (≤ 8 workers — the analyzer's dominance
/// check is quadratic in rows) spanning both `z < 1` and `z > 1` regimes.
fn matrix() -> Vec<Platform> {
    vec![
        Platform::star_with_z(&[(1.0, 5.0)], 0.5).unwrap(),
        Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0)], 0.5).unwrap(),
        Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0), (0.8, 7.0)], 1.5).unwrap(),
        Platform::bus(1.0, 0.5, &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap(),
    ]
}

fn install_all() {
    dls::rounds::install();
    dls::tree::install();
    dls::core::interleaved::install();
    dls::core::affine::install();
}

/// Every registry strategy solves every matrix platform without tripping
/// the pre-solve gate (`CoreError::InvalidModel`). Applicability errors
/// (bus-only closed forms on stars, worker-count caps) are fine; a model
/// failing static analysis is not.
#[test]
fn every_registry_strategy_passes_the_gate() {
    install_all();
    for platform in matrix() {
        for strategy in dls::core::registry() {
            match strategy.solve(&platform) {
                Ok(_) => {}
                Err(err) => {
                    let msg = err.to_string();
                    assert!(
                        !msg.contains("static analysis"),
                        "strategy '{}' emitted a model the analyzer rejects: {msg}",
                        strategy.name()
                    );
                }
            }
        }
    }
}

/// The canonical scenario builder is clean for arbitrary permutation
/// pairs, not just FIFO, under both port models.
#[test]
fn scenario_models_are_clean() {
    for platform in matrix() {
        let ids: Vec<WorkerId> = platform.ids().collect();
        let mut reversed = ids.clone();
        reversed.reverse();
        let orders: [(&[WorkerId], &[WorkerId]); 3] =
            [(&ids, &ids), (&ids, &reversed), (&reversed, &ids)];
        for (send, ret) in orders {
            for port in [PortModel::OnePort, PortModel::TwoPort] {
                let (model, _) = scenario_model(&platform, send, ret, port).unwrap();
                let report = analyze(&model);
                assert!(
                    !report.has_errors(),
                    "scenario_model({send:?}, {ret:?}, {port:?}):\n{report}"
                );
            }
        }
    }
}

/// The interleaved per-message builder is clean across lead values.
#[test]
fn interleaved_models_are_clean() {
    for platform in matrix() {
        let order: Vec<WorkerId> = platform.order_by_c();
        let q = order.len();
        for lead in 1..=q {
            let merge = merge_with_lead(q, lead);
            let (model, _) = interleaved_model(&platform, &order, &merge);
            let report = analyze(&model);
            assert!(
                !report.has_errors(),
                "interleaved_model(lead = {lead}):\n{report}"
            );
        }
    }
}

/// The tree-platform relaxation is clean on star, chain, and the
/// collapsed shapes in between.
#[test]
fn tree_models_are_clean() {
    for platform in matrix() {
        for tree in [
            TreePlatform::star(&platform),
            TreePlatform::chain(&platform),
        ] {
            let (model, _) = tree_lp_model(&tree);
            let report = analyze(&model);
            assert!(!report.has_errors(), "tree_lp_model:\n{report}");
        }
    }
}
