//! Workspace integration of the tree subsystem: registry/lookup
//! round-trip, the depth-1 identity against `optimal_fifo`, collapse
//! conservatism along the fanout axis, and simulator replay of expanded
//! plans with relays enforcing one-port.

use dls::core::{Execution, Provenance, Scheduler};
use dls::platform::{Platform, PlatformSampler, TreePlatform, WorkerId};
use dls::sim::{simulate_tree, verify_tree, SimConfig};
use dls::tree::{expand, TreeScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn star() -> Platform {
    Platform::star_with_z(
        &[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0), (0.8, 7.0), (2.5, 3.0)],
        0.5,
    )
    .unwrap()
}

#[test]
fn install_extends_registry_and_lookup_resolves_parameterized_ids() {
    dls::tree::install();
    let names: Vec<String> = dls::core::registry()
        .iter()
        .map(|s| s.name().to_string())
        .collect();
    for expected in ["tree_fifo", "tree_lifo"] {
        assert_eq!(
            names.iter().filter(|n| *n == expected).count(),
            1,
            "{expected} missing or duplicated: {names:?}"
        );
    }
    let p = star();
    for id in ["tree_fifo", "tree_lifo@3", "tree_fifo@1"] {
        let s = dls::core::lookup(id).expect("tree id resolves");
        assert_eq!(s.name(), id);
        let sol = s.solve(&p).expect("z-tied star");
        assert!(sol.throughput > 0.0);
        assert!(matches!(sol.execution, Execution::Tree { .. }));
        // The collapsed star is solved by `optimal_lifo`'s closed form or
        // `optimal_fifo`'s LP, and the tree solution says which.
        if id.starts_with("tree_lifo") {
            assert_eq!(sol.provenance, Provenance::ClosedForm, "{id}");
        } else {
            assert!(
                matches!(sol.provenance, Provenance::Lp { iterations } if iterations > 0),
                "{id}: {:?}",
                sol.provenance
            );
        }
        assert!(sol.verified_timeline(&p, 1e-7).is_ok());
    }
    assert!(dls::core::lookup("tree_fifo@0").is_none());
}

#[test]
fn depth_one_tree_reproduces_optimal_fifo_exactly() {
    dls::tree::install();
    let p = star();
    let flat = dls::core::lookup(&format!("tree_fifo@{}", p.num_workers()))
        .unwrap()
        .solve(&p)
        .unwrap();
    let opt = dls::core::lookup("optimal_fifo")
        .unwrap()
        .solve(&p)
        .unwrap();
    assert!(
        (flat.throughput - opt.throughput).abs() < 1e-12,
        "flat tree {} vs optimal {}",
        flat.throughput,
        opt.throughput
    );
    // Same enrolled physical workers.
    assert_eq!(flat.enrolled_workers(&p), opt.enrolled_workers(&p));
    // The tree accessor reports the degenerate topology.
    assert_eq!(flat.tree().unwrap().depth(), 1);
}

#[test]
fn fanout_axis_is_conservative_and_replays_verify_clean() {
    dls::tree::install();
    let p = star();
    let flat = dls::core::lookup("optimal_fifo")
        .unwrap()
        .solve(&p)
        .unwrap()
        .throughput;
    for fanout in [1usize, 2, 3] {
        let sched = TreeScheduler::fifo(fanout);
        let (tree, nodes) = sched.shape(&p);
        let sol = sched.solve(&p).unwrap();
        assert!(
            sol.throughput <= flat + 1e-9,
            "fanout {fanout} beat the flat star"
        );
        // The recorded mapping matches the shaping.
        match &sol.execution {
            Execution::Tree {
                nodes: recorded, ..
            } => assert_eq!(recorded, &nodes),
            other => panic!("expected tree execution, got {other:?}"),
        }
        // Replay on the actual tree: relays enforce one-port, and the
        // store-and-forward run never exceeds the serialized prediction.
        let rep = simulate_tree(&tree, &sol.schedule, &SimConfig::ideal());
        let violations = verify_tree(&tree, &sol.schedule, &rep, 1e-7);
        assert!(violations.is_empty(), "fanout {fanout}: {violations:?}");
        let predicted = sol
            .verified_timeline(&p, 1e-7)
            .expect("feasible")
            .makespan();
        assert!(rep.makespan <= predicted + 1e-7);
    }
}

#[test]
fn native_random_trees_solve_and_expand() {
    dls::tree::install();
    let p = star();
    for seed in 0..5u64 {
        let tree = TreePlatform::random(&p, &mut StdRng::seed_from_u64(seed));
        let sol = TreeScheduler::fifo(2).solve_tree(&tree).unwrap();
        let timings = expand(&tree, &sol.schedule).unwrap();
        assert_eq!(
            timings.len(),
            sol.schedule.participants().len(),
            "one timing per participant"
        );
        let violations = dls::tree::verify_expansion(&tree, &timings, 1e-7);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

#[test]
fn strategy_table_includes_tree_rows() {
    dls::tree::install();
    dls::rounds::install();
    let p = star();
    let rendered = dls::report::strategy_table(&p).render();
    assert!(
        rendered.contains("tree_fifo"),
        "missing tree rows:\n{rendered}"
    );
    assert!(rendered.contains("TREE_LIFO"), "{rendered}");
    assert!(!rendered.contains("lp (0 pivots)"), "{rendered}");
}

#[test]
fn jittered_tree_replay_is_seeded_and_still_one_port() {
    dls::tree::install();
    let sampler = PlatformSampler {
        workers: 6,
        ..PlatformSampler::hetero_star()
    };
    let p = sampler.sample_abstract(4.0, 0.5, &mut StdRng::seed_from_u64(5));
    let sched = TreeScheduler::fifo(2);
    let (tree, _) = sched.shape(&p);
    let sol = sched.solve(&p).unwrap();
    let a = simulate_tree(&tree, &sol.schedule, &SimConfig::jittered(1));
    let b = simulate_tree(&tree, &sol.schedule, &SimConfig::jittered(1));
    assert_eq!(a, b, "same seed must replay identically");
    // Under jitter the durations drift but port exclusivity cannot: check
    // the port-disjointness subset of the verifier by hand.
    let master = tree.num_nodes();
    let mut port_use: Vec<(f64, f64, usize)> = Vec::new();
    for s in &a.spans {
        if s.kind == dls::sim::TreeSpanKind::Compute || s.is_empty() {
            continue;
        }
        let parent = tree.parent(s.node).map_or(master, |q| q.index());
        port_use.push((s.start, s.end, s.node.index()));
        port_use.push((s.start, s.end, parent));
    }
    for (i, x) in port_use.iter().enumerate() {
        for y in &port_use[i + 1..] {
            if x.2 == y.2 {
                assert!(
                    x.1 <= y.0 + 1e-9 || y.1 <= x.0 + 1e-9,
                    "port {} double-booked: {x:?} vs {y:?}",
                    x.2
                );
            }
        }
    }
}

#[test]
fn tree_solutions_mix_with_the_rest_of_the_registry() {
    // enrolled_workers maps collapsed ids back through the c-sorted
    // shaping: drop one worker's load and the physical count follows.
    dls::tree::install();
    let p = star();
    let sol = dls::core::lookup("tree_fifo@2").unwrap().solve(&p).unwrap();
    let enrolled = sol.enrolled_workers(&p);
    assert!(enrolled >= 1 && enrolled <= p.num_workers());
    assert_eq!(enrolled, sol.schedule.participants().len());
    let ids: Vec<WorkerId> = sol.schedule.participants();
    assert!(!ids.is_empty());
}
