//! The bandwidth-equivalent star-collapse reduction and its expansion.
//!
//! **Collapse.** Every node of a [`TreePlatform`] folds into one virtual
//! worker of an ordinary star: node `j` becomes virtual worker `j` with
//!
//! * `c_eq = Σ c` and `d_eq = Σ d` along the root-to-node path (the
//!   serialized store-and-forward cost of moving a load unit to/from the
//!   node),
//! * `w_eq = w_j` (the node's own compute cost).
//!
//! Charging the whole path to the master's port is what makes the
//! reduction *safe*: if the collapsed-star timeline reserves the master
//! for `α·Σc`, the hop-by-hop transfers of that message fit inside the
//! reservation back-to-back, and any two messages sharing a relay have
//! disjoint reservations — so the expanded plan never violates one-port at
//! any node (see [`expand`] and the feasibility tests). The price is
//! conservatism: real relays can forward into one subtree while the master
//! feeds another, so for depth ≥ 2 the collapsed model may under-estimate
//! the achievable throughput (the store-and-forward simulator in `dls-sim`
//! finishes no later than the prediction, and often earlier). For a
//! depth-1 tree the path is a single edge and the reduction is **exact**:
//! the collapsed star *is* the tree.
//!
//! **Expansion.** [`expand`] turns a collapsed-star schedule back into
//! per-edge hop spans, recorded as the simulator's [`TreeSimReport`]:
//! downward hops run back-to-back from the star send's start, upward hops
//! back-to-back into the star return's end. [`dls_sim::verify_tree`], the
//! checker every replay goes through, checks an expansion the same way.

use dls_core::timeline::Timeline;
use dls_core::{CoreError, PortModel, Schedule};
use dls_platform::{Platform, TreePlatform, Worker};
use dls_sim::{TreeSimReport, TreeSpan, TreeSpanKind};

/// Builds the bandwidth-equivalent collapsed star of a tree: virtual
/// worker `j` carries tree node `j`'s compute cost and its path-summed
/// link costs.
pub fn collapse(tree: &TreePlatform) -> Platform {
    let workers: Vec<Worker> = tree
        .ids()
        .map(|id| {
            let (c, d) = tree.path_costs(id);
            Worker::new(c, tree.node(id).w, d)
        })
        .collect();
    Platform::new(workers).expect("path sums of valid costs are valid costs")
}

/// Expands a collapsed-star schedule into per-edge hop spans on `tree`.
///
/// The schedule's worker ids are tree node ids (the collapse mapping is
/// the identity on indices); its loads/orders are exactly what a star
/// solver produced on [`collapse`]`(tree)`. Each star send interval
/// `[s, s + α·Σc]` is cut into back-to-back [`Down`](TreeSpanKind::Down)
/// hops down the path, the node computes in its star compute interval,
/// and each star return `[r, r + α·Σd]` is cut into back-to-back
/// [`Up`](TreeSpanKind::Up) hops up the path, so the last hop reaches the
/// master exactly at the star interval's end. The report's `makespan` is
/// the latest span end. The feasibility of this layout — one-port at every
/// node, store-and-forward precedence — follows from the disjointness of
/// the star intervals; [`dls_sim::verify_tree`] checks it.
pub fn expand(tree: &TreePlatform, schedule: &Schedule) -> Result<TreeSimReport, CoreError> {
    if schedule.loads().len() != tree.num_nodes() {
        return Err(CoreError::MalformedOrder(format!(
            "schedule has {} loads for a {}-node tree",
            schedule.loads().len(),
            tree.num_nodes()
        )));
    }
    let star = collapse(tree);
    let timeline = Timeline::build(&star, schedule, PortModel::OnePort);
    let mut spans = Vec::new();
    for e in timeline.entries() {
        let msg = e.worker;
        let alpha = schedule.load(msg);
        let path = tree.path(msg);
        let span = |node, kind, start, end| TreeSpan {
            msg,
            node,
            kind,
            start,
            end,
        };

        let mut t = e.send.start;
        for &edge in &path {
            let end = t + alpha * tree.node(edge).c;
            spans.push(span(edge, TreeSpanKind::Down, t, end));
            t = end;
        }
        let compute = e.compute;
        spans.push(span(msg, TreeSpanKind::Compute, compute.start, compute.end));
        if !e.ret.is_empty() {
            let mut t = e.ret.start;
            for &edge in path.iter().rev() {
                let end = t + alpha * tree.node(edge).d;
                spans.push(span(edge, TreeSpanKind::Up, t, end));
                t = end;
            }
        }
    }
    let makespan = spans.iter().map(|s| s.end).fold(0.0, f64::max);
    Ok(TreeSimReport { spans, makespan })
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use dls_core::prelude::*;
    use dls_platform::WorkerId;
    use dls_sim::verify_tree;

    fn star3() -> Platform {
        Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0)], 0.5).unwrap()
    }

    #[test]
    fn depth_one_collapse_is_the_identity() {
        let p = star3();
        let t = TreePlatform::star(&p);
        assert_eq!(collapse(&t), p);
    }

    #[test]
    fn chain_collapse_sums_path_costs() {
        let p = star3();
        let t = TreePlatform::chain(&p);
        let s = collapse(&t);
        // Node 2 (third on the chain) pays all three links.
        assert!((s.worker(WorkerId(2)).c - 4.5).abs() < 1e-12);
        assert!((s.worker(WorkerId(2)).d - 2.25).abs() < 1e-12);
        assert_eq!(s.worker(WorkerId(2)).w, 6.0);
        // z-tied trees collapse into z-tied stars.
        assert!((s.common_z().unwrap() - 0.5).abs() < 1e-12);
    }

    /// Indices into `report.spans` of `msg`'s spans of `kind`, in order.
    fn span_indices(report: &TreeSimReport, msg: WorkerId, kind: TreeSpanKind) -> Vec<usize> {
        (0..report.spans.len())
            .filter(|&i| report.spans[i].msg == msg && report.spans[i].kind == kind)
            .collect()
    }

    /// The chain over [`star3`], its collapsed optimum and the expansion.
    fn expanded_chain() -> (TreePlatform, Schedule, TreeSimReport) {
        let t = TreePlatform::chain(&star3());
        let sol = optimal_fifo(&collapse(&t)).unwrap();
        let report = expand(&t, &sol.schedule).unwrap();
        (t, sol.schedule, report)
    }

    /// The first participant of `schedule` with more than one `kind` hop.
    fn deep_node(schedule: &Schedule, report: &TreeSimReport, kind: TreeSpanKind) -> WorkerId {
        schedule
            .participants()
            .into_iter()
            .find(|&id| span_indices(report, id, kind).len() > 1)
            .expect("chain has deep nodes")
    }

    #[test]
    fn expansion_of_the_collapsed_optimum_is_feasible() {
        let p = star3();
        for fanout in [1usize, 2, 3] {
            let t = TreePlatform::balanced(&p, fanout);
            let sol = optimal_fifo(&collapse(&t)).unwrap();
            let report = expand(&t, &sol.schedule).unwrap();
            let violations = verify_tree(&t, &sol.schedule, &report, 1e-9);
            assert!(violations.is_empty(), "fanout {fanout}: {violations:?}");
            // The expansion ends exactly at the collapsed-star makespan.
            let last = report.makespan;
            assert!((last - 1.0).abs() < 1e-7, "horizon not filled: {last}");
        }
    }

    #[test]
    fn expansion_hop_chains_cover_the_star_intervals() {
        let (t, schedule, report) = expanded_chain();
        let timeline = Timeline::build(&collapse(&t), &schedule, PortModel::OnePort);
        for e in timeline.entries() {
            let down = span_indices(&report, e.worker, TreeSpanKind::Down);
            let first = report.spans[down[0]];
            let last = report.spans[down[down.len() - 1]];
            assert!((first.start - e.send.start).abs() < 1e-12);
            assert!((last.end - e.send.end).abs() < 1e-12);
            let up = span_indices(&report, e.worker, TreeSpanKind::Up);
            if let (Some(&first), Some(&last)) = (up.first(), up.last()) {
                assert!((report.spans[first].start - e.ret.start).abs() < 1e-12);
                assert!((report.spans[last].end - e.ret.end).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn verify_tree_catches_truncated_return_chains() {
        let (t, schedule, mut report) = expanded_chain();
        // Drop the final master-bound hop of a deep node's return: the
        // results never reach the master, which must not verify clean.
        let victim = deep_node(&schedule, &report, TreeSpanKind::Up);
        let master_bound = *span_indices(&report, victim, TreeSpanKind::Up)
            .last()
            .unwrap();
        report.spans.remove(master_bound);
        let violations = verify_tree(&t, &schedule, &report, 1e-9);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("partial return chain")),
            "truncated chain not caught: {violations:?}"
        );
    }

    #[test]
    fn verify_tree_catches_wholly_deleted_return_chains() {
        // A positive return cost with *no* up hops is just as wrong as a
        // truncated chain.
        let (t, schedule, mut report) = expanded_chain();
        let first = schedule.participants()[0];
        report
            .spans
            .retain(|s| !(s.msg == first && s.kind == TreeSpanKind::Up));
        let violations = verify_tree(&t, &schedule, &report, 1e-9);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("return chain missing")),
            "deleted chain not caught: {violations:?}"
        );
    }

    #[test]
    fn verify_tree_catches_tampering() {
        let (t, schedule, mut report) = expanded_chain();
        // Shift one deep hop before its upstream hop completes.
        let victim = deep_node(&schedule, &report, TreeSpanKind::Down);
        let second = span_indices(&report, victim, TreeSpanKind::Down)[1];
        report.spans[second].start = 0.0;
        let violations = verify_tree(&t, &schedule, &report, 1e-9);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("forwarded before full receipt")),
            "early forward not caught: {violations:?}"
        );
    }

    #[test]
    fn expand_rejects_mismatched_schedules() {
        let p = star3();
        let t = TreePlatform::chain(&p);
        let two = Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0)], 0.5).unwrap();
        let s = Schedule::fifo(&two, two.ids().collect(), vec![0.5, 0.5]).unwrap();
        assert!(matches!(expand(&t, &s), Err(CoreError::MalformedOrder(_))));
    }
}
