//! Property tests of the executor: invariants that must hold for every
//! schedule, policy, and noise level.

use dls_core::prelude::*;
use dls_core::Schedule;
use dls_platform::{Platform, WorkerId};
use dls_sim::{simulate, MasterPolicy, Noise, RealismModel, SimConfig, SpanKind};
use proptest::prelude::*;

fn cost() -> impl Strategy<Value = f64> {
    (1u32..=40).prop_map(|v| v as f64 / 4.0)
}

fn scenario() -> impl Strategy<Value = (Platform, Schedule)> {
    (2usize..=6).prop_flat_map(|n| {
        (
            prop::collection::vec((cost(), cost()), n..=n),
            prop::collection::vec(0u32..=12, n..=n),
            any::<bool>(),
        )
            .prop_map(|(cw, loads, lifo)| {
                let platform = Platform::star_with_z(&cw, 0.5).expect("valid");
                let order: Vec<WorkerId> = platform.ids().collect();
                let loads: Vec<f64> = loads.into_iter().map(|l| l as f64 / 3.0).collect();
                let schedule = if lifo {
                    Schedule::lifo(&platform, order, loads).expect("valid")
                } else {
                    Schedule::fifo(&platform, order, loads).expect("valid")
                };
                (platform, schedule)
            })
    })
}

fn configs() -> impl Strategy<Value = SimConfig> {
    (
        prop_oneof![
            Just(MasterPolicy::SendsThenReceives),
            Just(MasterPolicy::Interleaved)
        ],
        prop_oneof![
            Just(Noise::None),
            (1u32..=10).prop_map(|a| Noise::Uniform {
                amplitude: a as f64 / 100.0
            }),
            (1u32..=8).prop_map(|s| Noise::Gaussian {
                sigma: s as f64 / 100.0
            }),
        ],
        0u64..1000,
    )
        .prop_map(|(policy, noise, seed)| SimConfig {
            policy,
            realism: RealismModel {
                comm_noise: noise,
                comp_noise: noise,
                comm_latency: 0.0,
                comp_inflation: 1.0,
            },
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The master's port never carries two transfers at once, under any
    /// policy and noise.
    #[test]
    fn master_port_is_exclusive((p, s) in scenario(), cfg in configs()) {
        let rep = simulate(&p, &s, &cfg);
        let mut port: Vec<(f64, f64)> = rep
            .trace
            .spans()
            .iter()
            .filter(|sp| sp.kind.uses_master_port() && sp.len() > 0.0)
            .map(|sp| (sp.start, sp.end))
            .collect();
        port.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in port.windows(2) {
            prop_assert!(w[0].1 <= w[1].0 + 1e-9,
                "port overlap: {:?} then {:?}", w[0], w[1]);
        }
    }

    /// Per-worker causality: recv before compute before return, no
    /// negative spans, all times finite and non-negative.
    #[test]
    fn per_worker_causality((p, s) in scenario(), cfg in configs()) {
        let rep = simulate(&p, &s, &cfg);
        for id in rep.trace.workers() {
            let mut recv_end = None;
            let mut compute = None;
            let mut ret = None;
            for sp in rep.trace.spans_for(id) {
                prop_assert!(sp.start >= -1e-12 && sp.end >= sp.start);
                match sp.kind {
                    SpanKind::Recv => recv_end = Some(sp.end),
                    SpanKind::Compute => compute = Some((sp.start, sp.end)),
                    SpanKind::Return => ret = Some(sp.start),
                }
            }
            let (cs, ce) = compute.expect("every traced worker computes");
            prop_assert!(cs >= recv_end.expect("every traced worker receives") - 1e-9);
            if let Some(rs) = ret {
                prop_assert!(rs >= ce - 1e-9, "{id} returned before computing");
            }
        }
    }

    /// sigma2 is respected by both policies: non-empty returns start in
    /// return-order.
    #[test]
    fn return_order_is_respected((p, s) in scenario(), cfg in configs()) {
        let rep = simulate(&p, &s, &cfg);
        let mut last = f64::NEG_INFINITY;
        for id in s.return_order() {
            if let Some(sp) = rep
                .trace
                .spans_for(*id)
                .find(|sp| sp.kind == SpanKind::Return && sp.len() > 0.0)
            {
                prop_assert!(sp.start >= last - 1e-9, "sigma2 violated at {id}");
                last = sp.start;
            }
        }
    }

    /// Same config, same result — bit-for-bit determinism.
    #[test]
    fn simulation_is_deterministic((p, s) in scenario(), cfg in configs()) {
        let a = simulate(&p, &s, &cfg);
        let b = simulate(&p, &s, &cfg);
        prop_assert_eq!(a.trace, b.trace);
    }

    /// The simulator's claimed policy ordering (see the executor module
    /// docs): on the paper's random platform families (the gdsdmi cluster
    /// model with speed factors in `[1, 10]`, matrix sizes 40..200) and
    /// their canonical LP-optimal schedules, greedy interleaving is never
    /// worse than the paper's sends-then-receives policy on noise-free
    /// inputs — these platforms are compute-bound enough that no return
    /// both becomes ready mid-sends and profits from preemption — and it
    /// cannot beat the LP optimum either (the noise-free makespan of the
    /// optimum is the unit horizon, by Section 5's linearity). The scope
    /// matters: hand-built load vectors (executor unit test
    /// `interleaving_returns_never_helps`) and communication-bound cost
    /// regimes outside the paper's families *can* be hurt by greedy
    /// preemption, so this property quantifies over exactly the sweeps'
    /// platform distribution.
    #[test]
    fn interleaving_never_hurts_optimal_schedules_on_paper_platforms(
        n in 40usize..=200,
        seed in 0u64..1_000_000,
        family in 0u8..3,
        lifo in any::<bool>(),
    ) {
        use dls_platform::{ClusterModel, MatrixApp, PlatformSampler};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let sampler = match family {
            0 => PlatformSampler::homogeneous(),
            1 => PlatformSampler::hetero_compute_bus(),
            _ => PlatformSampler::hetero_star(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let p = sampler.sample(&MatrixApp::new(n), &ClusterModel::gdsdmi(), &mut rng);
        let schedule = if lifo {
            optimal_lifo(&p).expect("cluster platforms are z-tied").schedule
        } else {
            optimal_fifo(&p).expect("cluster platforms are z-tied").schedule
        };
        let plain = simulate(&p, &schedule, &SimConfig::ideal()).makespan;
        let inter = simulate(
            &p,
            &schedule,
            &SimConfig {
                policy: MasterPolicy::Interleaved,
                ..SimConfig::ideal()
            },
        )
        .makespan;
        prop_assert!(
            inter <= plain + 1e-9,
            "interleaving hurt the optimal schedule: {inter} > {plain}"
        );
        // ... and cannot beat the LP optimum (horizon T = 1).
        prop_assert!(inter >= 1.0 - 1e-7, "interleaving beat the LP optimum: {inter}");
        prop_assert!((plain - 1.0).abs() < 1e-7, "optimum missed the horizon: {plain}");
    }

    /// Makespan is bounded below by the best possible (serial work of any
    /// single participant) and above by total serialization of everything.
    #[test]
    fn makespan_bounds((p, s) in scenario()) {
        let rep = simulate(&p, &s, &SimConfig::ideal());
        let mut serial_total = 0.0;
        let mut max_single: f64 = 0.0;
        for id in s.participants() {
            let w = p.worker(id);
            let a = s.load(id);
            serial_total += a * (w.c + w.w + w.d);
            max_single = max_single.max(a * (w.c + w.w + w.d));
        }
        prop_assert!(rep.makespan <= serial_total + 1e-9,
            "worse than full serialization: {} > {serial_total}", rep.makespan);
        prop_assert!(rep.makespan >= max_single - 1e-9,
            "beats a participant's own critical path: {} < {max_single}", rep.makespan);
    }
}
