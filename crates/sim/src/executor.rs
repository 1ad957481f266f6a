//! Schedule executor: runs a [`Schedule`] on a simulated star network.
//!
//! This is the reproduction's stand-in for the paper's MPI program
//! (Section 5). The default [`MasterPolicy::SendsThenReceives`] mirrors the
//! MPI code exactly: the master posts all sends in `σ1` order, then all
//! receives in `σ2` order — which is precisely the canonical one-port
//! schedule shape assumed by the LP. [`MasterPolicy::Interleaved`] is an
//! ablation: the master may slot a *ready* return ahead of remaining sends
//! (still respecting `σ2` among returns). Interleaving cannot beat the LP
//! optimum on noise-free inputs, but can absorb jitter.
//!
//! Worker-side durations are drawn from the [`RealismModel`] when the
//! master dispatches the corresponding operation, in a fixed order, so any
//! seeded run replays bit-for-bit.
//!
//! A note on architecture: because a one-round star platform has no
//! worker-to-worker interaction, every completion time is known at dispatch
//! and the master loop advances time directly, with no event queue. The
//! tree replay ([`crate::simulate_tree`]) likewise walks fixed per-port
//! hop sequences without one.

use dls_core::{Schedule, LOAD_EPS};
use dls_platform::{Platform, WorkerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::noise::RealismModel;
use crate::trace::{Span, SpanKind, Trace};

/// How the master schedules its port between pending sends and returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterPolicy {
    /// All `σ1` sends, then all `σ2` receives — the paper's MPI program.
    SendsThenReceives,
    /// Greedy: a return whose worker has finished computing (and is next in
    /// `σ2`) preempts remaining sends.
    Interleaved,
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Master port policy.
    pub policy: MasterPolicy,
    /// Perturbation model.
    pub realism: RealismModel,
    /// RNG seed (every run with the same seed and inputs is identical).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            policy: MasterPolicy::SendsThenReceives,
            realism: RealismModel::ideal(),
            seed: 0,
        }
    }
}

impl SimConfig {
    /// Ideal (noise-free) execution under the paper's master policy.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// Jittered execution with the given seed.
    pub fn jittered(seed: u64) -> Self {
        SimConfig {
            realism: RealismModel::cluster_jitter(),
            seed,
            ..Self::default()
        }
    }
}

/// Result of one simulated execution.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Full activity trace.
    pub trace: Trace,
    /// Completion time of the last operation.
    pub makespan: f64,
}

/// Executes `schedule` on `platform` under `config`.
///
/// Loads are interpreted as numbers of load units (fractional loads are
/// legal — the linear model does not care). Workers with negligible load
/// exchange no messages.
pub fn simulate(platform: &Platform, schedule: &Schedule, config: &SimConfig) -> SimReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut trace = Trace::new();

    let p = platform.num_workers();
    let mut compute_finish: Vec<f64> = vec![0.0; p];
    let mut received: Vec<bool> = vec![false; p];

    let sends: Vec<WorkerId> = schedule.participants();
    let returns: Vec<WorkerId> = schedule
        .return_order()
        .iter()
        .copied()
        .filter(|id| schedule.load(*id) > LOAD_EPS)
        .collect();

    let mut now = 0.0_f64;
    let mut next_send = 0usize;
    let mut next_ret = 0usize;

    // One master operation per loop turn; the port is busy for its whole
    // duration.
    loop {
        let ret_head = returns.get(next_ret).copied();
        let send_head = sends.get(next_send).copied();

        let do_return_now = match (config.policy, ret_head) {
            (_, None) => false,
            // Paper policy: returns only once every send is posted.
            (MasterPolicy::SendsThenReceives, Some(_)) => send_head.is_none(),
            // Greedy: a *ready* head return preempts sends.
            (MasterPolicy::Interleaved, Some(r)) => {
                received[r.index()] && compute_finish[r.index()] <= now || send_head.is_none()
            }
        };

        if do_return_now {
            let r = ret_head.expect("checked above");
            let w = platform.worker(r);
            let alpha = schedule.load(r);
            let start = now.max(compute_finish[r.index()]);
            let dur = config
                .realism
                .transfer_duration(alpha * w.d, &mut rng)
                .max(0.0);
            trace.push(Span {
                worker: r,
                kind: SpanKind::Return,
                start,
                end: start + dur,
            });
            now = start + dur;
            next_ret += 1;
        } else if let Some(s) = send_head {
            let w = platform.worker(s);
            let alpha = schedule.load(s);
            let dur = config.realism.transfer_duration(alpha * w.c, &mut rng);
            trace.push(Span {
                worker: s,
                kind: SpanKind::Recv,
                start: now,
                end: now + dur,
            });
            let compute_dur = config.realism.compute_duration(alpha * w.w, &mut rng);
            trace.push(Span {
                worker: s,
                kind: SpanKind::Compute,
                start: now + dur,
                end: now + dur + compute_dur,
            });
            compute_finish[s.index()] = now + dur + compute_dur;
            received[s.index()] = true;
            now += dur;
            next_send += 1;
        } else if ret_head.is_some() {
            // Interleaved with sends exhausted but head return not ready:
            // handled by do_return_now's `|| send_head.is_none()` arm above,
            // so this branch is unreachable; kept as a defensive exit.
            unreachable!("return dispatch covers the no-sends case");
        } else {
            break;
        }
    }

    let makespan = trace.makespan();
    SimReport { trace, makespan }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use dls_core::prelude::*;
    use dls_core::PortModel;
    use dls_platform::Worker;

    fn ids(v: &[usize]) -> Vec<WorkerId> {
        v.iter().map(|&i| WorkerId(i)).collect()
    }

    fn platform() -> Platform {
        Platform::new(vec![Worker::new(1.0, 2.0, 0.5), Worker::new(2.0, 1.0, 1.0)]).unwrap()
    }

    #[test]
    fn ideal_simulation_matches_analytic_timeline() {
        // The noise-free simulator must reproduce dls-core's Timeline
        // makespan exactly (this is the key cross-crate invariant).
        let p = platform();
        for (sched, name) in [
            (
                Schedule::fifo(&p, ids(&[0, 1]), vec![1.0, 1.0]).unwrap(),
                "fifo",
            ),
            (
                Schedule::lifo(&p, ids(&[0, 1]), vec![2.0, 0.5]).unwrap(),
                "lifo",
            ),
        ] {
            let analytic = makespan(&p, &sched, PortModel::OnePort);
            let sim = simulate(&p, &sched, &SimConfig::ideal()).makespan;
            assert!(
                (analytic - sim).abs() < 1e-9,
                "{name}: analytic {analytic} vs simulated {sim}"
            );
        }
    }

    #[test]
    fn ideal_simulation_of_lp_optimum_hits_unit_horizon() {
        let p = Platform::star_with_z(&[(1.0, 2.0), (2.0, 1.0), (1.5, 3.0)], 0.5).unwrap();
        let sol = optimal_fifo(&p).unwrap();
        let sim = simulate(&p, &sol.schedule, &SimConfig::ideal());
        assert!((sim.makespan - 1.0).abs() < 1e-7, "got {}", sim.makespan);
    }

    #[test]
    fn jitter_changes_makespan_but_seed_fixes_it() {
        let p = platform();
        let s = Schedule::fifo(&p, ids(&[0, 1]), vec![1.0, 1.0]).unwrap();
        let a = simulate(&p, &s, &SimConfig::jittered(1)).makespan;
        let b = simulate(&p, &s, &SimConfig::jittered(1)).makespan;
        let c = simulate(&p, &s, &SimConfig::jittered(2)).makespan;
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds should differ");
        let ideal = simulate(&p, &s, &SimConfig::ideal()).makespan;
        assert!((a - ideal).abs() / ideal < 0.25, "jitter too large");
    }

    #[test]
    fn interleaving_returns_never_helps() {
        // Ablation supporting the paper's canonical shape ("the master
        // sends initial messages as soon as possible"): slotting a ready
        // return ahead of a pending send delays that worker's computation,
        // so greedy interleaving is never faster — and is strictly *slower*
        // here: P1's early return postpones P3's send, whose compute ends
        // the schedule.
        let p = Platform::new(vec![
            Worker::new(1.0, 0.1, 1.0),
            Worker::new(1.0, 10.0, 1.0),
            Worker::new(1.0, 10.0, 1.0),
        ])
        .unwrap();
        let s = Schedule::fifo(&p, ids(&[0, 1, 2]), vec![1.0, 1.0, 1.0]).unwrap();
        let plain = simulate(&p, &s, &SimConfig::ideal()).makespan;
        let inter = simulate(
            &p,
            &s,
            &SimConfig {
                policy: MasterPolicy::Interleaved,
                ..SimConfig::ideal()
            },
        )
        .makespan;
        // Plain: sends [0,3], computes end at 1.1/12/13, returns 3-4/12-13/
        // 13-14 -> 14. Interleaved: P1's return at [2,3] pushes P3's send to
        // [3,4], compute to 14, return to [14,15].
        assert!((plain - 14.0).abs() < 1e-9, "plain = {plain}");
        assert!((inter - 15.0).abs() < 1e-9, "interleaved = {inter}");
    }

    #[test]
    fn interleaved_respects_return_order() {
        // Even when a later return is ready first, sigma_2 is binding.
        let p = Platform::new(vec![
            Worker::new(1.0, 10.0, 1.0), // slow compute, first in sigma2
            Worker::new(1.0, 0.1, 1.0),  // fast compute, second in sigma2
        ])
        .unwrap();
        let s = Schedule::fifo(&p, ids(&[0, 1]), vec![1.0, 1.0]).unwrap();
        let rep = simulate(
            &p,
            &s,
            &SimConfig {
                policy: MasterPolicy::Interleaved,
                ..SimConfig::ideal()
            },
        );
        let r0 = rep
            .trace
            .spans_for(WorkerId(0))
            .find(|sp| sp.kind == SpanKind::Return)
            .unwrap()
            .start;
        let r1 = rep
            .trace
            .spans_for(WorkerId(1))
            .find(|sp| sp.kind == SpanKind::Return)
            .unwrap()
            .start;
        assert!(r0 < r1, "sigma2 violated: P1 at {r0}, P2 at {r1}");
    }

    #[test]
    fn zero_load_workers_produce_no_spans() {
        let p = platform();
        let s = Schedule::fifo(&p, ids(&[0, 1]), vec![0.0, 1.0]).unwrap();
        let rep = simulate(&p, &s, &SimConfig::ideal());
        assert!(rep.trace.spans_for(WorkerId(0)).next().is_none());
        assert!(rep.trace.spans_for(WorkerId(1)).next().is_some());
    }

    #[test]
    fn master_port_never_double_booked() {
        let p =
            Platform::star_with_z(&[(1.0, 2.0), (2.0, 1.0), (1.5, 3.0), (0.7, 4.0)], 0.5).unwrap();
        let sol = optimal_lifo(&p).unwrap();
        for policy in [MasterPolicy::SendsThenReceives, MasterPolicy::Interleaved] {
            let rep = simulate(
                &p,
                &sol.schedule,
                &SimConfig {
                    policy,
                    ..SimConfig::jittered(3)
                },
            );
            let mut port: Vec<(f64, f64)> = rep
                .trace
                .spans()
                .iter()
                .filter(|s| s.kind.uses_master_port() && s.len() > 0.0)
                .map(|s| (s.start, s.end))
                .collect();
            port.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in port.windows(2) {
                assert!(
                    w[0].1 <= w[1].0 + 1e-9,
                    "port overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn latency_increases_makespan() {
        let p = platform();
        let s = Schedule::fifo(&p, ids(&[0, 1]), vec![1.0, 1.0]).unwrap();
        let base = simulate(&p, &s, &SimConfig::ideal()).makespan;
        let with_latency = simulate(
            &p,
            &s,
            &SimConfig {
                realism: RealismModel {
                    comm_latency: 0.1,
                    ..RealismModel::ideal()
                },
                ..SimConfig::ideal()
            },
        )
        .makespan;
        // 4 messages, each +0.1, but overlap structure means the increase is
        // at least the two sends plus the last return.
        assert!(with_latency > base + 0.2);
    }
}
