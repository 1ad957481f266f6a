//! The [`RoundPlan`] intermediate representation and its lowering.
//!
//! A multi-round plan splits a unit total load into `R` installments: round
//! `r` hands worker `i` the chunk fraction `f[r][i]`, the master sends the
//! chunks back-to-back round-major (`round 1: σ order, round 2: σ order,
//! …`) and collects the result chunks FIFO in the same round-major order —
//! the canonical sends-then-returns one-port shape, generalized to `p·R`
//! messages.
//!
//! Rather than grow a second timeline/simulator, a plan *lowers* onto an
//! **expanded virtual platform**: `R` round-major copies of the physical
//! worker set, virtual worker `r·p + j` standing for round `r`'s
//! installment on physical worker `j` (same `c`, `w`, `d`). The lowered
//! pair (expanded [`Platform`], one-round [`Schedule`]) replays unchanged
//! through [`dls_core::timeline`] and `dls_sim::simulate` — the plan's
//! [`predicted_makespan`](RoundPlan::predicted_makespan) is *defined* as
//! the earliest-feasible timeline makespan of the lowered schedule, so
//! planner prediction and simulator replay agree by construction.
//!
//! The expansion treats each installment as its own virtual task (the
//! standard multi-installment relaxation): a worker may in principle be
//! assigned overlapping computations of consecutive chunks.
//! [`RoundPlan::compute_overlap`] quantifies that optimism per plan — it is
//! `0` exactly when the plan is pipelined-feasible on the physical machine.

use dls_core::timeline::{Interval, Timeline};
use dls_core::{CoreError, PortModel, Schedule, LOAD_EPS};
use dls_platform::{Platform, WorkerId};

/// Hard cap on the expanded platform size (`p · R` virtual workers): keeps
/// the multi-round scenario LPs tractable and bounds timeline construction.
pub const MAX_VIRTUAL_WORKERS: usize = 4096;

/// Maps an expanded-platform worker id back to `(round, physical worker)`
/// for a physical platform of `p` workers.
pub fn virtual_to_physical(virtual_id: WorkerId, p: usize) -> (usize, WorkerId) {
    (virtual_id.index() / p, WorkerId(virtual_id.index() % p))
}

/// The expanded-platform id of physical worker `worker` in round `round`.
pub fn physical_to_virtual(round: usize, worker: WorkerId, p: usize) -> WorkerId {
    WorkerId(round * p + worker.index())
}

/// Builds the round-major expanded platform: `rounds` copies of
/// `platform`'s worker set (virtual id `r·p + j` has worker `j`'s costs).
pub fn expanded_platform(platform: &Platform, rounds: usize) -> Result<Platform, CoreError> {
    check_rounds(platform, rounds)?;
    let mut workers = Vec::with_capacity(platform.num_workers() * rounds);
    for _ in 0..rounds {
        workers.extend(platform.workers().iter().copied());
    }
    Ok(Platform::new(workers)?)
}

/// Validates a round count against the [`MAX_VIRTUAL_WORKERS`] cap.
pub fn check_rounds(platform: &Platform, rounds: usize) -> Result<(), CoreError> {
    if rounds == 0 {
        return Err(CoreError::MalformedOrder(
            "a multi-round plan needs at least one round".into(),
        ));
    }
    let limit = MAX_VIRTUAL_WORKERS / platform.num_workers();
    if rounds > limit {
        return Err(CoreError::TooManyRounds { rounds, limit });
    }
    Ok(())
}

/// Timing of one installment chunk, read off the lowered timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkTiming {
    /// Round index (`0..R`).
    pub round: usize,
    /// Physical worker this chunk runs on.
    pub worker: WorkerId,
    /// Fraction of the unit total load in this chunk.
    pub fraction: f64,
    /// Reception of the chunk from the master.
    pub send: Interval,
    /// Computation of the chunk.
    pub compute: Interval,
    /// Transfer of the chunk's results back to the master.
    pub ret: Interval,
}

/// An R-installment FIFO plan: per-round, per-worker chunk fractions of a
/// unit total load, plus the send order `σ` shared by every round.
///
/// Invariants enforced by [`RoundPlan::new`]: every round has one fraction
/// per physical worker, fractions are non-negative and finite, their grand
/// total is 1 (within `1e-6`, then renormalized exactly), and `σ` is a
/// permutation of the full worker set. The predicted makespan is computed
/// once, from the lowered timeline, at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    order: Vec<WorkerId>,
    fractions: Vec<Vec<f64>>,
    predicted_makespan: f64,
}

impl RoundPlan {
    /// Builds and validates a plan for `platform`; `fractions[r][j]` is
    /// round `r`'s chunk for physical worker `j` (platform indexing), and
    /// `order` is the within-round send order over *all* workers (workers a
    /// plan leaves idle simply carry zero fractions).
    pub fn new(
        platform: &Platform,
        order: Vec<WorkerId>,
        fractions: Vec<Vec<f64>>,
    ) -> Result<Self, CoreError> {
        let p = platform.num_workers();
        check_rounds(platform, fractions.len())?;
        if order.len() != p {
            return Err(CoreError::MalformedOrder(format!(
                "round order has {} entries for {p} workers",
                order.len()
            )));
        }
        let mut total = 0.0;
        for (r, row) in fractions.iter().enumerate() {
            if row.len() != p {
                return Err(CoreError::MalformedOrder(format!(
                    "round {r} has {} fractions for {p} workers",
                    row.len()
                )));
            }
            for (j, &f) in row.iter().enumerate() {
                if !f.is_finite() || f < -LOAD_EPS {
                    return Err(CoreError::MalformedOrder(format!(
                        "round {r} has invalid fraction {f} for P{}",
                        j + 1
                    )));
                }
                total += f.max(0.0);
            }
        }
        if (total - 1.0).abs() > 1e-6 {
            return Err(CoreError::MalformedOrder(format!(
                "chunk fractions sum to {total}, expected 1"
            )));
        }
        // Renormalize exactly so downstream totals are 1 to fp accuracy.
        let fractions: Vec<Vec<f64>> = fractions
            .into_iter()
            .map(|row| row.into_iter().map(|f| f.max(0.0) / total).collect())
            .collect();
        let mut plan = RoundPlan {
            order,
            fractions,
            predicted_makespan: 0.0,
        };
        // Lowering re-validates `order` through `Schedule::new` and yields
        // the predicted makespan.
        let (vplat, schedule) = plan.lower(platform)?;
        plan.predicted_makespan = Timeline::build(&vplat, &schedule, PortModel::OnePort).makespan();
        Ok(plan)
    }

    /// Number of installment rounds `R`.
    pub fn rounds(&self) -> usize {
        self.fractions.len()
    }

    /// Number of physical workers the plan was built for.
    pub fn num_workers(&self) -> usize {
        self.order.len()
    }

    /// The within-round send order `σ`.
    pub fn order(&self) -> &[WorkerId] {
        &self.order
    }

    /// Chunk fractions, `[round][physical worker index]`; the grand total
    /// is 1.
    pub fn fractions(&self) -> &[Vec<f64>] {
        &self.fractions
    }

    /// One chunk fraction.
    pub fn fraction(&self, round: usize, worker: WorkerId) -> f64 {
        self.fractions[round][worker.index()]
    }

    /// Makespan of the lowered schedule for a unit total load — exactly
    /// what `Timeline::build` and an ideal `dls_sim::simulate` replay
    /// produce on the lowered pair.
    pub fn predicted_makespan(&self) -> f64 {
        self.predicted_makespan
    }

    /// Throughput equivalent (`1 / predicted_makespan`), comparable with
    /// the one-round solvers' `T = 1` objectives by linearity.
    pub fn throughput(&self) -> f64 {
        1.0 / self.predicted_makespan
    }

    /// Lowers the plan onto the expanded virtual platform: the returned
    /// [`Schedule`] sends round-major in `σ` order and returns FIFO, with
    /// virtual worker `r·p + j` carrying `fractions[r][j]`.
    pub fn lower(&self, platform: &Platform) -> Result<(Platform, Schedule), CoreError> {
        let p = platform.num_workers();
        let rounds = self.rounds();
        let vplat = expanded_platform(platform, rounds)?;
        let mut loads = vec![0.0; p * rounds];
        for (r, row) in self.fractions.iter().enumerate() {
            loads[r * p..(r + 1) * p].copy_from_slice(row);
        }
        let mut vorder = Vec::with_capacity(p * rounds);
        for r in 0..rounds {
            vorder.extend(self.order.iter().map(|&id| physical_to_virtual(r, id, p)));
        }
        let schedule = Schedule::fifo(&vplat, vorder, loads)?;
        Ok((vplat, schedule))
    }

    /// Per-chunk timings (participating chunks only, in send order), read
    /// off the lowered earliest-feasible timeline.
    pub fn chunk_timings(&self, platform: &Platform) -> Result<Vec<ChunkTiming>, CoreError> {
        let p = platform.num_workers();
        let (vplat, schedule) = self.lower(platform)?;
        let timeline = Timeline::build(&vplat, &schedule, PortModel::OnePort);
        Ok(timeline
            .entries()
            .iter()
            .map(|e| {
                let (round, worker) = virtual_to_physical(e.worker, p);
                ChunkTiming {
                    round,
                    worker,
                    fraction: self.fractions[round][worker.index()],
                    send: e.send,
                    compute: e.compute,
                    ret: e.ret,
                }
            })
            .collect())
    }

    /// Re-checks every model constraint of the lowered schedule through
    /// [`Timeline::verify`]; empty = feasible.
    pub fn verify(&self, platform: &Platform, tol: f64) -> Result<Vec<String>, CoreError> {
        let (vplat, schedule) = self.lower(platform)?;
        let timeline = Timeline::build(&vplat, &schedule, PortModel::OnePort);
        Ok(timeline.verify(&vplat, &schedule, tol))
    }

    /// Largest overlap between two compute intervals of the *same physical
    /// worker* in the lowered timeline — the optimism of the independent-
    /// installment relaxation. `0` means the plan is pipelined-feasible:
    /// every chunk's computation finishes before the next chunk's does not
    /// need the CPU, so the virtual-platform makespan is physically
    /// achievable as-is.
    pub fn compute_overlap(&self, platform: &Platform) -> Result<f64, CoreError> {
        let timings = self.chunk_timings(platform)?;
        let mut worst = 0.0_f64;
        for a in &timings {
            for b in &timings {
                if a.worker == b.worker && a.round < b.round {
                    let overlap = (a.compute.end - b.compute.start)
                        .min(a.compute.len())
                        .min(b.compute.len());
                    worst = worst.max(overlap);
                }
            }
        }
        Ok(worst)
    }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::star_with_z(&[(1.0, 2.0), (2.0, 1.0), (1.5, 3.0)], 0.5).unwrap()
    }

    fn ids(v: &[usize]) -> Vec<WorkerId> {
        v.iter().map(|&i| WorkerId(i)).collect()
    }

    #[test]
    fn expansion_replicates_costs_round_major() {
        let p = platform();
        let v = expanded_platform(&p, 3).unwrap();
        assert_eq!(v.num_workers(), 9);
        for vid in v.ids() {
            let (round, phys) = virtual_to_physical(vid, p.num_workers());
            assert!(round < 3);
            assert_eq!(v.worker(vid), p.worker(phys));
            assert_eq!(physical_to_virtual(round, phys, p.num_workers()), vid);
        }
    }

    #[test]
    fn round_limits_enforced() {
        let p = platform();
        assert!(matches!(
            expanded_platform(&p, 0),
            Err(CoreError::MalformedOrder(_))
        ));
        assert!(matches!(
            expanded_platform(&p, MAX_VIRTUAL_WORKERS),
            Err(CoreError::TooManyRounds { .. })
        ));
    }

    #[test]
    fn plan_validates_fraction_shape_and_total() {
        let p = platform();
        let order = ids(&[0, 1, 2]);
        // Wrong row width.
        assert!(RoundPlan::new(&p, order.clone(), vec![vec![0.5, 0.5]]).is_err());
        // Total far from 1.
        assert!(RoundPlan::new(&p, order.clone(), vec![vec![0.5, 0.2, 0.1]]).is_err());
        // Negative fraction.
        assert!(RoundPlan::new(&p, order.clone(), vec![vec![1.3, -0.2, -0.1]]).is_err());
        // A valid two-round plan.
        let plan =
            RoundPlan::new(&p, order, vec![vec![0.2, 0.1, 0.1], vec![0.3, 0.2, 0.1]]).unwrap();
        assert_eq!(plan.rounds(), 2);
        let total: f64 = plan.fractions().iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(plan.predicted_makespan() > 0.0);
    }

    #[test]
    fn lowering_matches_hand_computed_single_round() {
        // One round over the hand-checkable timeline platform: lowering
        // must reduce exactly to the one-round schedule.
        let p = Platform::new(vec![
            dls_platform::Worker::new(1.0, 2.0, 0.5),
            dls_platform::Worker::new(2.0, 1.0, 1.0),
        ])
        .unwrap();
        let plan = RoundPlan::new(&p, ids(&[0, 1]), vec![vec![0.5, 0.5]]).unwrap();
        let (vplat, schedule) = plan.lower(&p).unwrap();
        assert_eq!(vplat, p);
        // Same shape as the timeline.rs fixture at half scale: makespan 2.5.
        assert!((plan.predicted_makespan() - 2.5).abs() < 1e-12);
        assert_eq!(schedule.participants().len(), 2);
        assert!(plan.verify(&p, 1e-9).unwrap().is_empty());
    }

    #[test]
    fn chunk_timings_map_back_to_rounds_and_workers() {
        let p = platform();
        let plan = RoundPlan::new(
            &p,
            ids(&[0, 1, 2]),
            vec![vec![0.1, 0.1, 0.1], vec![0.3, 0.2, 0.2]],
        )
        .unwrap();
        let timings = plan.chunk_timings(&p).unwrap();
        assert_eq!(timings.len(), 6);
        // Round-major send order: all of round 0 before round 1.
        let r0_last = timings
            .iter()
            .filter(|t| t.round == 0)
            .map(|t| t.send.end)
            .fold(0.0, f64::max);
        let r1_first = timings
            .iter()
            .filter(|t| t.round == 1)
            .map(|t| t.send.start)
            .fold(f64::INFINITY, f64::min);
        assert!(r0_last <= r1_first + 1e-12);
        for t in &timings {
            assert!((t.fraction - plan.fraction(t.round, t.worker)).abs() < 1e-12);
        }
    }

    #[test]
    fn compute_overlap_zero_for_single_round() {
        let p = platform();
        let plan = RoundPlan::new(&p, ids(&[0, 1, 2]), vec![vec![0.4, 0.3, 0.3]]).unwrap();
        assert_eq!(plan.compute_overlap(&p).unwrap(), 0.0);
    }

    #[test]
    fn zero_fraction_chunks_are_skipped_in_the_lowering() {
        let p = platform();
        let plan = RoundPlan::new(
            &p,
            ids(&[0, 1, 2]),
            vec![vec![0.5, 0.0, 0.0], vec![0.5, 0.0, 0.0]],
        )
        .unwrap();
        let timings = plan.chunk_timings(&p).unwrap();
        assert_eq!(timings.len(), 2);
        assert!(timings.iter().all(|t| t.worker == WorkerId(0)));
    }
}
