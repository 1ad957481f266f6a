//! Property tests of the star-collapse reduction: the depth-1 identity
//! (exact, certified with rationals), conservativeness of deeper
//! topologies, feasibility of every expansion, and the tree-native LP's
//! dominance over the collapse (`tree_lp` never worse than `tree_fifo`).

use dls_core::{Provenance, Scheduler};
use dls_lp::Scalar;
use dls_platform::{Platform, TreePlatform};
use dls_tree::{collapse, expand, TreeLpScheduler, TreeScheduler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cost() -> impl Strategy<Value = f64> {
    (1u32..=40).prop_map(|v| v as f64 / 4.0)
}

fn star() -> impl Strategy<Value = Platform> {
    (2usize..=7).prop_flat_map(|n| {
        (
            prop::collection::vec((cost(), cost()), n..=n),
            prop_oneof![Just(0.3), Just(0.5), Just(0.9)],
        )
            .prop_map(|(cw, z)| Platform::star_with_z(&cw, z).expect("valid"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Collapsing a degenerate depth-1 tree (a star) is the identity:
    /// `tree_fifo` with flat fanout reproduces `optimal_fifo` exactly —
    /// same float throughput, and the exact-rational re-solve of both
    /// strategies' chosen scenarios agrees to the last bit of the shared
    /// float tolerance.
    #[test]
    fn depth_one_collapse_is_the_identity(p in star()) {
        let tree = TreePlatform::star(&p);
        prop_assert_eq!(collapse(&tree), p.clone());

        let flat = TreeScheduler::fifo(p.num_workers());
        let tree_sol = flat.solve(&p).expect("z-tied");
        let opt = dls_core::fifo::optimal_fifo(&p).expect("z-tied");
        prop_assert!(
            (tree_sol.throughput - opt.throughput).abs() <= 1e-9 * opt.throughput,
            "tree {} vs optimal {}", tree_sol.throughput, opt.throughput
        );

        // Exact certification: both scenarios re-solved with rational
        // arithmetic reach the same optimum.
        let tree_exact = flat.solve_exact(&p).expect("exact solve");
        let opt_exact = dls_core::lookup("optimal_fifo")
            .expect("built-in")
            .solve_exact(&p)
            .expect("exact solve");
        prop_assert!(
            (tree_exact.throughput.to_f64() - opt_exact.throughput.to_f64()).abs() <= 1e-12,
            "exact objectives diverge: {} vs {}",
            tree_exact.throughput.to_f64(),
            opt_exact.throughput.to_f64()
        );
        prop_assert!((tree_exact.throughput.to_f64() - tree_sol.throughput).abs() <= 1e-7);
    }

    /// Serializing multi-hop paths through the master's port can only
    /// cost throughput: no tree arrangement of the workers beats the flat
    /// star's optimum, and every collapsed solve expands into a feasible
    /// per-edge timing (one-port at every node, store-and-forward).
    #[test]
    fn collapse_is_conservative_and_expansions_are_feasible(
        p in star(),
        fanout in 1usize..=4,
        tree_seed in 0u64..1000,
    ) {
        let flat = dls_core::fifo::optimal_fifo(&p).expect("z-tied").throughput;
        for tree in [
            TreePlatform::balanced(&p, fanout),
            TreePlatform::random(&p, &mut StdRng::seed_from_u64(tree_seed)),
        ] {
            let sol = TreeScheduler::fifo(1).solve_tree(&tree).expect("z-tied");
            prop_assert!(
                sol.throughput <= flat + 1e-9,
                "depth-{} tree beat the flat star: {} > {flat}",
                tree.depth(),
                sol.throughput
            );
            let expansion = expand(&tree, &sol.schedule).expect("consistent");
            let violations = dls_sim::verify_tree(&tree, &sol.schedule, &expansion, 1e-7);
            prop_assert!(violations.is_empty(), "infeasible expansion: {violations:?}");

            // The store-and-forward replay respects every constraint and
            // never exceeds the serialized prediction.
            let rep = dls_sim::simulate_tree(&tree, &sol.schedule, &dls_sim::SimConfig::ideal());
            let sim_violations = dls_sim::verify_tree(&tree, &sol.schedule, &rep, 1e-7);
            prop_assert!(sim_violations.is_empty(), "replay violations: {sim_violations:?}");
            let predicted = expansion.makespan;
            prop_assert!(
                rep.makespan <= predicted + 1e-7,
                "depth-{} replay {} > serialized {predicted}",
                tree.depth(),
                rep.makespan
            );
        }
    }

    /// The tree-native LP acceptance criterion: at every fanout,
    /// `tree_lp`'s makespan never exceeds `tree_fifo`'s, the relaxation
    /// bound caps the achieved value, the winning schedule replays clean
    /// through the store-and-forward simulator inside the unit horizon,
    /// and the exact-rational re-solve of the relaxation certifies the
    /// float bound.
    #[test]
    fn tree_lp_never_exceeds_tree_fifo_and_replays_clean(
        p in star(),
        fanout in 1usize..=4,
    ) {
        let fifo = TreeScheduler::fifo(fanout).solve(&p).expect("z-tied");
        let lp_sched = TreeLpScheduler::new(fanout);
        let lp = lp_sched.solve(&p).expect("tree_lp");
        prop_assert!(
            1.0 / lp.throughput <= 1.0 / fifo.throughput + 1e-7,
            "tree_lp makespan {} exceeds tree_fifo {}",
            1.0 / lp.throughput,
            1.0 / fifo.throughput
        );
        let bound = match lp.provenance {
            Provenance::LpBound { bound, .. } => bound,
            ref other => panic!("expected LpBound provenance, got {other:?}"),
        };
        prop_assert!(
            bound >= lp.throughput - 1e-9,
            "relaxation bound {bound} below achieved {}",
            lp.throughput
        );

        // Replay the winning schedule on the real tree: verify-clean and
        // within the unit horizon (the reported throughput is achieved).
        let tree = lp.tree().expect("tree execution");
        let rep = dls_sim::simulate_tree(tree, &lp.schedule, &dls_sim::SimConfig::ideal());
        let violations = dls_sim::verify_tree(tree, &lp.schedule, &rep, 1e-7);
        prop_assert!(violations.is_empty(), "replay violations: {violations:?}");
        prop_assert!(
            rep.makespan <= 1.0 + 1e-7,
            "replay {} overflows the horizon",
            rep.makespan
        );

        // Exact-rational spot check: the rational re-solve of the
        // relaxation agrees with the float bound and caps the float
        // throughput.
        let exact = lp_sched.solve_exact(&p).expect("exact relaxation");
        let exact_bound = exact.throughput.to_f64();
        prop_assert!(
            (exact_bound - bound).abs() <= 1e-7 * bound.max(1.0),
            "float bound {bound} not certified by exact {exact_bound}"
        );
        prop_assert!(exact_bound >= lp.throughput - 1e-7);
    }
}
