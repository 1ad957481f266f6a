//! The tree-native per-link LP: closing the star-collapse pipelining gap.
//!
//! The star-collapse reduction charges every hop of a message's
//! root-to-node path to the *master's* port, which over-serializes deep
//! trees (PR 4 measured ~1.2–1.9× left on the table at depths 2–11). This
//! module formulates the tree directly on the schedule-model IR:
//!
//! ```text
//! maximize Σ α_u subject to
//!   deadline(u):  α_u (Σ_{e ∈ path(u)} c_e + w_u + Σ_{e ∈ path(u)} d_e) ≤ 1
//!       — a message still crosses its own path's edges sequentially
//!         (store-and-forward), computes, and climbs back;
//!   capacity(x):  Σ_u α_u · Σ_{e ∈ path(u), x ∈ {e, parent(e)}} (c_e + d_e) ≤ 1
//!       — **one-port at every node**: port x carries each message's
//!         down and up traffic once per incident edge on that message's
//!         path. One row per port with incident relay traffic (the
//!         master and every relay; leaf rows are dominated by their
//!         deadlines and omitted).
//! ```
//!
//! This drops the ordering constraints entirely, so its optimum `ρ_lp` is
//! an **upper bound** on what any store-and-forward schedule can achieve
//! — but its loads are exactly the ones a pipelining tree *wants*: relays
//! stay busy in parallel instead of waiting on the master's serialized
//! port. [`solve_tree_lp`] therefore scores the relaxation's loads by
//! **replaying them** through `dls_sim`'s store-and-forward simulator
//! (strict per-port σ-order, one-port at every node) and reports the
//! *achieved* throughput, falling back to the star-collapse solution when
//! the replay does not improve on it:
//!
//! * `throughput` — achieved, never worse than `tree_fifo` (the collapse
//!   candidate is always evaluated);
//! * `Provenance::LpBound { bound, .. }` — the relaxation optimum, so
//!   `bound - throughput` is the pipelining gap still unclosed.
//!
//! The depth-1 case collapses to the star: the replay of the relaxation's
//! loads is a canonical FIFO schedule, so `tree_lp` equals `optimal_fifo`
//! there (pinned by tests, exactly like the collapse reduction).

use dls_core::engine::{Execution, Provenance, Solution};
use dls_core::lp_model;
use dls_core::{CoreError, Schedule};
use dls_lp::{ScheduleModel, VarGroup};
use dls_platform::{Platform, TreePlatform, WorkerId};
use dls_sim::ideal_tree_makespan;

use crate::collapse::collapse;
use crate::scheduler::TreeOrder;

/// Builds the per-link relaxation of `tree` on the schedule-model IR.
/// Returns the model plus the `alpha` group (one member per tree node, in
/// node order).
pub fn tree_lp_model(tree: &TreePlatform) -> (ScheduleModel, VarGroup) {
    let n = tree.num_nodes();
    let mut ir = ScheduleModel::maximize();
    let alphas = ir.group("alpha", std::iter::repeat_n(1.0, n));

    // Per-node serialized-path deadlines.
    for id in tree.ids() {
        let (c_path, d_path) = tree.path_costs(id);
        ir.deadline(
            [(alphas.var(id.index()), c_path + tree.node(id).w + d_path)],
            1.0,
        );
    }

    // Per-port one-port capacity rows. port_coeff[x][u] accumulates the
    // time node x's port spends on node u's messages; index n is the
    // master.
    let mut port_coeff = vec![vec![0.0f64; n]; n + 1];
    for u in tree.ids() {
        for &e in &tree.path(u) {
            let edge = tree.node(e);
            let traffic = edge.c + edge.d;
            let parent = tree.parent(e).map_or(n, |p| p.index());
            port_coeff[parent][u.index()] += traffic;
            port_coeff[e.index()][u.index()] += traffic;
        }
    }
    let relays = tree.ids().filter(|id| !tree.is_leaf(*id));
    for x in std::iter::once(n).chain(relays.map(|id| id.index())) {
        let terms: Vec<(dls_lp::MVar, f64)> = port_coeff[x]
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0.0)
            .map(|(u, &c)| (alphas.var(u), c))
            .collect();
        ir.capacity(terms, 1.0);
    }
    (ir, alphas)
}

/// Result of the tree-native LP solve.
#[derive(Debug, Clone)]
pub struct TreeLpSolution {
    /// The bandwidth-equivalent collapsed star the schedule's ids refer
    /// to (computed once per solve; the engine packaging reuses it).
    pub star: Platform,
    /// The winning schedule on the collapsed-star id space (its replay on
    /// the real tree fits the unit horizon).
    pub schedule: Schedule,
    /// Achieved throughput (store-and-forward replay of the winning
    /// loads; never below the star-collapse solution's).
    pub throughput: f64,
    /// The relaxation's optimum — a certified upper bound on any
    /// store-and-forward schedule of this tree.
    pub bound: f64,
    /// `true` when the relaxation's replay beat the star-collapse
    /// candidate (always `false` at depth 1, where collapse is exact).
    pub lp_loads_won: bool,
    /// Simplex pivots of the relaxation solve.
    pub iterations: usize,
}

/// Solves the per-link relaxation of `tree`, replays its loads through the
/// store-and-forward simulator, and keeps the better of the replay and the
/// star-collapse FIFO solution. See the module docs for the guarantee
/// structure.
pub fn solve_tree_lp(tree: &TreePlatform) -> Result<TreeLpSolution, CoreError> {
    let star = collapse(tree);
    let (ir, alphas) = tree_lp_model(tree);
    let relaxed = lp_model::solve_model(&ir)?;
    let bound = relaxed.objective;

    // Candidate A: the relaxation's loads, replayed (FIFO σ over the
    // collapsed star's c-order — fast serialized paths first, the same
    // discipline the collapse candidate uses).
    let order = star.order_by_c();
    let mut loads = vec![0.0; tree.num_nodes()];
    for id in tree.ids() {
        loads[id.index()] = relaxed.value(alphas.var(id.index()).var_id()).max(0.0);
    }
    let lp_schedule = Schedule::fifo(&star, order, loads)?;
    let replay_makespan = ideal_tree_makespan(tree, &lp_schedule);
    let lp_achieved = if replay_makespan > 0.0 {
        lp_schedule.total_load() / replay_makespan
    } else {
        0.0
    };

    // Candidate B: the star-collapse FIFO solution (what `tree_fifo`
    // reports) — its expansion achieves its prediction, so taking the max
    // keeps `tree_lp` from ever landing below `tree_fifo`.
    let collapse_sol = TreeOrder::Fifo.solve_star(&star)?;

    if lp_achieved > collapse_sol.throughput + 1e-12 {
        // Normalize: ideal replay durations are linear in the loads, so
        // scaling by 1/makespan makes the replay fit T = 1 exactly.
        let schedule = lp_schedule.scaled(1.0 / replay_makespan);
        Ok(TreeLpSolution {
            star,
            schedule,
            throughput: lp_achieved,
            bound,
            lp_loads_won: true,
            iterations: relaxed.iterations,
        })
    } else {
        Ok(TreeLpSolution {
            star,
            schedule: collapse_sol.schedule,
            throughput: collapse_sol.throughput,
            bound,
            lp_loads_won: false,
            iterations: relaxed.iterations,
        })
    }
}

/// Packages a [`TreeLpSolution`] as an engine [`Solution`] with the
/// collapse mapping recorded in [`Execution::Tree`] and the relaxation
/// bound in [`Provenance::LpBound`].
pub fn tree_lp_solution(tree: TreePlatform, nodes: Vec<WorkerId>, sol: TreeLpSolution) -> Solution {
    Solution {
        schedule: sol.schedule,
        throughput: sol.throughput,
        provenance: Provenance::LpBound {
            iterations: sol.iterations,
            bound: sol.bound,
        },
        execution: Execution::Tree {
            platform: sol.star,
            tree,
            nodes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_core::prelude::*;
    use dls_platform::Platform;
    use dls_sim::{simulate_tree, verify_tree, SimConfig};

    /// Replays an engine solution's schedule on its tree and independently
    /// verifies the store-and-forward run (one-port at every node, σ orders,
    /// durations); returns the replay makespan.
    fn verified_replay_makespan(
        tree: &TreePlatform,
        schedule: &Schedule,
        tol: f64,
    ) -> Result<f64, Vec<String>> {
        let report = simulate_tree(tree, schedule, &SimConfig::ideal());
        let violations = verify_tree(tree, schedule, &report, tol);
        if violations.is_empty() {
            Ok(report.makespan)
        } else {
            Err(violations)
        }
    }

    fn star(n: usize) -> Platform {
        let cw: Vec<(f64, f64)> = (0..n)
            .map(|i| (1.0 + 0.35 * i as f64, 3.0 + 0.6 * ((i * 3) % 5) as f64))
            .collect();
        Platform::star_with_z(&cw, 0.5).unwrap()
    }

    #[test]
    fn model_shape_counts_ports_and_deadlines() {
        let p = star(4);
        let chain = TreePlatform::chain(&p);
        let (ir, alphas) = tree_lp_model(&chain);
        assert_eq!(alphas.len(), 4);
        // 4 deadlines + master + 3 relays (the leaf P4 has no port row).
        assert_eq!(ir.num_rows(), 8);
        let kinds: Vec<dls_lp::RowKind> = ir.row_kinds().collect();
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == dls_lp::RowKind::Deadline)
                .count(),
            4
        );
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == dls_lp::RowKind::Capacity)
                .count(),
            4
        );
    }

    #[test]
    fn relaxation_bounds_the_collapse_solution() {
        // Any collapse-feasible load vector is feasible for the per-link
        // relaxation, so rho_lp >= tree_fifo's rho at every depth.
        let p = star(5);
        for fanout in [1usize, 2, 3, 5] {
            let tree = TreePlatform::balanced(&p, fanout);
            let (ir, _) = tree_lp_model(&tree);
            let relaxed = lp_model::solve_model(&ir).unwrap();
            let collapse_rho = optimal_fifo(&collapse(&tree)).unwrap().throughput;
            assert!(
                relaxed.objective >= collapse_rho - 1e-9,
                "fanout {fanout}: bound {} below collapse {}",
                relaxed.objective,
                collapse_rho
            );
        }
    }

    #[test]
    fn depth_one_equals_optimal_fifo() {
        let p = star(4);
        let tree = TreePlatform::star(&p);
        let sol = solve_tree_lp(&tree).unwrap();
        let opt = optimal_fifo(&p).unwrap();
        assert!(
            (sol.throughput - opt.throughput).abs() < 1e-7,
            "depth-1 tree_lp {} vs optimal_fifo {}",
            sol.throughput,
            opt.throughput
        );
        // The relaxation's bound is loose at depth 1 (no ordering rows),
        // but still a bound.
        assert!(sol.bound >= sol.throughput - 1e-9);
    }

    #[test]
    fn never_below_tree_fifo_and_strictly_better_on_deep_chains() {
        let p = star(6);
        let mut improved_somewhere = false;
        for fanout in [1usize, 2, 3] {
            let tree = TreePlatform::balanced(&p, fanout);
            let sol = solve_tree_lp(&tree).unwrap();
            let fifo = optimal_fifo(&collapse(&tree)).unwrap();
            assert!(
                sol.throughput >= fifo.throughput - 1e-9,
                "fanout {fanout}: tree_lp {} below tree_fifo {}",
                sol.throughput,
                fifo.throughput
            );
            assert!(sol.bound >= sol.throughput - 1e-9);
            improved_somewhere |= sol.lp_loads_won;
        }
        assert!(
            improved_somewhere,
            "replayed relaxation loads never beat star-collapse on any depth >= 2 layout"
        );
    }

    #[test]
    fn winning_schedule_replays_clean_within_the_horizon() {
        let p = star(5);
        for fanout in [1usize, 2] {
            let tree = TreePlatform::balanced(&p, fanout);
            let sol = solve_tree_lp(&tree).unwrap();
            let makespan = verified_replay_makespan(&tree, &sol.schedule, 1e-9)
                .unwrap_or_else(|v| panic!("fanout {fanout}: replay violations {v:?}"));
            assert!(
                makespan <= 1.0 + 1e-7,
                "fanout {fanout}: replay overflows the horizon: {makespan}"
            );
            // The reported throughput is achieved: total load over replay
            // makespan matches it.
            let achieved = sol.schedule.total_load() / makespan;
            assert!(
                achieved >= sol.throughput - 1e-7,
                "fanout {fanout}: reported {} vs replayed {achieved}",
                sol.throughput
            );
        }
    }

    #[test]
    fn repeated_solves_are_identical() {
        // Every relaxation solve starts cold: a repeat takes the same
        // pivots to the same bound and schedule.
        let p = star(4);
        let tree = TreePlatform::balanced(&p, 2);
        let first = solve_tree_lp(&tree).unwrap();
        let again = solve_tree_lp(&tree).unwrap();
        assert_eq!(again.iterations, first.iterations);
        assert_eq!(again.bound.to_bits(), first.bound.to_bits());
        assert_eq!(again.throughput.to_bits(), first.throughput.to_bits());
        for id in first.star.ids() {
            assert_eq!(
                again.schedule.load(id).to_bits(),
                first.schedule.load(id).to_bits()
            );
        }
    }
}
