//! Store-and-forward execution of tree-platform schedules.
//!
//! [`simulate_tree`] replays a collapsed-star schedule (worker ids = tree
//! node ids, see `dls-tree`) on the *actual* [`TreePlatform`]: every
//! message travels hop by hop, a relay must fully receive a message before
//! forwarding it (store-and-forward), and **every node — master, relays,
//! workers — is one-port**: at most one transfer on any of its incident
//! links (parent side or child side) at a time.
//!
//! The forwarding policy mirrors the paper's canonical shape at every
//! node: each port handles its downward transfers (receives *and*
//! forwards) strictly in `σ1` order with receive-before-forward per
//! payload, drains its downward traffic before touching returns, and then
//! handles upward transfers strictly in `σ2` order (which also enforces
//! `σ2` at the master). The strict per-port sequences are exactly the port
//! orders of the serialized star-collapse schedule — merely letting a
//! *later* message's hop slip in front of an earlier one whenever it is
//! ready first looks harmless but can delay an earlier payload's delivery
//! past the serialized prediction. With identical per-port sequences,
//! dispatching each hop as early as possible can only run *ahead* of the
//! collapsed prediction: the simulated makespan equals it on depth-1 trees
//! and is never larger on deeper ones — the reduction's conservatism,
//! pinned by the `dls-tree` replay tests.
//!
//! Like the star executor, per-hop and per-compute durations are drawn
//! from the [`crate::RealismModel`] in a fixed dispatch order, so seeded runs
//! replay bit-for-bit.

use dls_core::{Schedule, LOAD_EPS};
use dls_platform::{TreePlatform, WorkerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::executor::SimConfig;

/// What one tree-trace span records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeSpanKind {
    /// A downward payload hop (data toward its worker).
    Down,
    /// The worker's computation.
    Compute,
    /// An upward result hop (results toward the master).
    Up,
}

/// One span of simulated tree activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeSpan {
    /// The node whose load this span serves (the message's subject).
    pub msg: WorkerId,
    /// For hops: the *child endpoint* of the edge crossed (the edge
    /// "belongs" to its child, like [`TreePlatform`] costs). For computes:
    /// the computing node (`== msg`).
    pub node: WorkerId,
    /// Span kind.
    pub kind: TreeSpanKind,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

impl TreeSpan {
    /// Span length.
    pub fn len(&self) -> f64 {
        self.end - self.start
    }

    /// `true` when the span has (numerically) zero length.
    pub fn is_empty(&self) -> bool {
        self.len() <= LOAD_EPS
    }
}

/// Result of one simulated tree execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSimReport {
    /// All spans, in dispatch order.
    pub spans: Vec<TreeSpan>,
    /// Completion time of the last span.
    pub makespan: f64,
}

impl TreeSimReport {
    /// Spans serving one node's load.
    pub fn spans_for(&self, msg: WorkerId) -> impl Iterator<Item = &TreeSpan> + '_ {
        self.spans.iter().filter(move |s| s.msg == msg)
    }
}

/// One pending hop action in the greedy loop.
struct Candidate {
    start: f64,
    /// Global priority (σ-index) of the message, the tie-break.
    priority: usize,
    msg: usize,
    down: bool,
}

/// Executes `schedule` on `tree` under `config`.
///
/// The schedule's worker ids are tree node ids (its loads/orders come from
/// a solve of the collapsed star). [`MasterPolicy`](crate::MasterPolicy)
/// is ignored: every node, master included, runs the canonical
/// sends-then-receives discipline (interleaving is a star-executor
/// ablation).
///
/// # Panics
/// Panics when the schedule's load vector does not match the tree's node
/// count.
pub fn simulate_tree(
    tree: &TreePlatform,
    schedule: &Schedule,
    config: &SimConfig,
) -> TreeSimReport {
    assert_eq!(
        schedule.loads().len(),
        tree.num_nodes(),
        "schedule loads must cover every tree node"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut spans: Vec<TreeSpan> = Vec::new();
    let n = tree.num_nodes();
    let master = n;

    // Messages in sigma_1 order; paths as port-index chains master -> node.
    struct Msg {
        target: WorkerId,
        load: f64,
        /// Node indices along the path, master's child first.
        path: Vec<usize>,
        /// Hops completed downward (position = path[hops_done - 1]).
        down_done: usize,
        /// Time the payload is fully stored at its current position.
        avail: f64,
        /// Hops completed upward.
        up_done: usize,
        /// Return-message availability (set at compute end); `None` while
        /// the payload is still inbound or computing.
        up_avail: Option<f64>,
        /// Whether a return message exists at all (`Σd > 0`).
        returns: bool,
    }
    let mut msgs: Vec<Msg> = schedule
        .participants()
        .iter()
        .map(|&id| {
            let path: Vec<usize> = tree.path(id).iter().map(|p| p.index()).collect();
            let ret_cost: f64 = path.iter().map(|&p| tree.node(WorkerId(p)).d).sum();
            let load = schedule.load(id);
            Msg {
                target: id,
                load,
                path,
                down_done: 0,
                avail: 0.0,
                up_done: 0,
                up_avail: None,
                returns: load * ret_cost > LOAD_EPS,
            }
        })
        .collect();

    // Per-port transfer sequences: every port processes its incident
    // downward hops (receives *and* forwards) in sigma_1 order with
    // receive-before-forward per payload, and its incident upward hops in
    // sigma_2 order — exactly the port orders of the serialized collapsed
    // schedule. A hop runs only when it is at the head of *both* endpoint
    // queues; the shared global key makes the heads always agree on the
    // minimal pending message, so the loop cannot deadlock.
    //
    // Down hop `j` of message `m` crosses the edge into `path[j]`: its
    // sender is `path[j-1]` (the master for `j = 0`), its receiver
    // `path[j]`. Up hop `k` of `m`'s return leaves `path[L-1-k]` toward
    // `path[L-2-k]` (the master at the top).
    let mut down_seq: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n + 1];
    let mut up_seq: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n + 1];
    for (m, msg) in msgs.iter().enumerate() {
        for j in 0..msg.path.len() {
            let sender = if j == 0 { master } else { msg.path[j - 1] };
            down_seq[sender].push((m, j));
            down_seq[msg.path[j]].push((m, j));
        }
    }
    let sigma2: Vec<usize> = schedule
        .return_order()
        .iter()
        .filter_map(|id| msgs.iter().position(|m| m.target == *id && m.returns))
        .collect();
    let mut priority2 = vec![usize::MAX; msgs.len()];
    for (m, msg) in sigma2.iter().enumerate() {
        priority2[*msg] = m;
    }
    for &m in &sigma2 {
        let path = &msgs[m].path;
        for k in 0..path.len() {
            let sender = path[path.len() - 1 - k];
            let receiver = if k + 1 < path.len() {
                path[path.len() - 2 - k]
            } else {
                master
            };
            up_seq[sender].push((m, k));
            up_seq[receiver].push((m, k));
        }
    }

    let mut down_next = vec![0usize; n + 1];
    let mut up_next = vec![0usize; n + 1];
    let mut port_free = vec![0.0f64; n + 1];

    loop {
        // Candidates: hops at the head of both endpoint queues (downward
        // traffic first at every port — the canonical sends-then-receives
        // discipline, nodes included).
        let mut best: Option<Candidate> = None;
        for (m, msg) in msgs.iter().enumerate() {
            let cand = if msg.down_done < msg.path.len() {
                let j = msg.down_done;
                let sender = if j == 0 { master } else { msg.path[j - 1] };
                let receiver = msg.path[j];
                if down_seq[sender].get(down_next[sender]) != Some(&(m, j))
                    || down_seq[receiver].get(down_next[receiver]) != Some(&(m, j))
                {
                    continue; // not this port-sequence's turn yet
                }
                Some(Candidate {
                    start: msg.avail.max(port_free[sender]).max(port_free[receiver]),
                    priority: m,
                    msg: m,
                    down: true,
                })
            } else if msg.returns && msg.up_done < msg.path.len() {
                let Some(up_avail) = msg.up_avail else {
                    continue; // still computing
                };
                let k = msg.up_done;
                let sender = msg.path[msg.path.len() - 1 - k];
                let receiver = if k + 1 < msg.path.len() {
                    msg.path[msg.path.len() - 2 - k]
                } else {
                    master
                };
                // Sends-then-receives: both endpoints must have drained
                // their downward traffic, and this hop must head both
                // upward queues.
                if down_next[sender] < down_seq[sender].len()
                    || down_next[receiver] < down_seq[receiver].len()
                    || up_seq[sender].get(up_next[sender]) != Some(&(m, k))
                    || up_seq[receiver].get(up_next[receiver]) != Some(&(m, k))
                {
                    continue;
                }
                Some(Candidate {
                    start: up_avail.max(port_free[sender]).max(port_free[receiver]),
                    priority: priority2[m],
                    msg: m,
                    down: false,
                })
            } else {
                None
            };
            if let Some(c) = cand {
                let better = match &best {
                    None => true,
                    Some(b) => {
                        c.start < b.start - LOAD_EPS
                            || ((c.start - b.start).abs() <= LOAD_EPS
                                && (!c.down, c.priority) < (!b.down, b.priority))
                    }
                };
                if better {
                    best = Some(c);
                }
            }
        }

        let Some(act) = best else {
            break; // every queue drained
        };

        if act.down {
            let msg = &mut msgs[act.msg];
            let j = msg.down_done;
            let sender = if j == 0 { master } else { msg.path[j - 1] };
            let receiver = msg.path[j];
            let edge = WorkerId(receiver);
            let dur = config
                .realism
                .transfer_duration(msg.load * tree.node(edge).c, &mut rng);
            spans.push(TreeSpan {
                msg: msg.target,
                node: edge,
                kind: TreeSpanKind::Down,
                start: act.start,
                end: act.start + dur,
            });
            port_free[sender] = act.start + dur;
            port_free[receiver] = act.start + dur;
            down_next[sender] += 1;
            down_next[receiver] += 1;
            msg.down_done += 1;
            msg.avail = act.start + dur;
            if msg.down_done == msg.path.len() {
                // Delivered: compute immediately.
                let cdur = config
                    .realism
                    .compute_duration(msg.load * tree.node(msg.target).w, &mut rng);
                spans.push(TreeSpan {
                    msg: msg.target,
                    node: msg.target,
                    kind: TreeSpanKind::Compute,
                    start: msg.avail,
                    end: msg.avail + cdur,
                });
                if msg.returns {
                    msg.up_avail = Some(msg.avail + cdur);
                }
            }
        } else {
            let msg = &mut msgs[act.msg];
            let k = msg.up_done;
            let sender = msg.path[msg.path.len() - 1 - k];
            let receiver = if k + 1 < msg.path.len() {
                msg.path[msg.path.len() - 2 - k]
            } else {
                master
            };
            let edge = WorkerId(sender);
            let dur = config
                .realism
                .transfer_duration(msg.load * tree.node(edge).d, &mut rng)
                .max(0.0);
            spans.push(TreeSpan {
                msg: msg.target,
                node: edge,
                kind: TreeSpanKind::Up,
                start: act.start,
                end: act.start + dur,
            });
            port_free[sender] = act.start + dur;
            port_free[receiver] = act.start + dur;
            up_next[sender] += 1;
            up_next[receiver] += 1;
            msg.up_done += 1;
            msg.up_avail = Some(act.start + dur);
        }
    }

    let makespan = spans.iter().map(|s| s.end).fold(0.0, f64::max);
    TreeSimReport { spans, makespan }
}

/// Convenience: the noise-free store-and-forward makespan of `schedule`
/// on `tree` — [`simulate_tree`] under [`SimConfig::ideal`], makespan
/// only. This is the replay oracle the `tree_lp` solver scores its
/// relaxation loads against: ideal durations are exact products, so the
/// result is linear in the schedule's loads.
pub fn ideal_tree_makespan(tree: &TreePlatform, schedule: &Schedule) -> f64 {
    simulate_tree(tree, schedule, &SimConfig::ideal()).makespan
}

/// Independently re-checks the tree model constraints of a simulated run
/// against an *ideal* (noise-free) cost model: hop/compute durations,
/// store-and-forward precedence per message, `σ1` dispatch order at the
/// master, `σ2` arrival order at the master, and one-port exclusivity at
/// every node. Returns the violation list (empty = feasible).
pub fn verify_tree(
    tree: &TreePlatform,
    schedule: &Schedule,
    report: &TreeSimReport,
    tol: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    let master = tree.num_nodes();

    for &id in &schedule.participants() {
        let alpha = schedule.load(id);
        let path = tree.path(id);
        let down: Vec<&TreeSpan> = report
            .spans_for(id)
            .filter(|s| s.kind == TreeSpanKind::Down)
            .collect();
        if down.len() != path.len() {
            violations.push(format!(
                "{id}: {} down hops for depth {}",
                down.len(),
                path.len()
            ));
            continue;
        }
        let mut prev_end = f64::NEG_INFINITY;
        for (hop, &edge) in down.iter().zip(&path) {
            if hop.node != edge {
                violations.push(format!("{id}: down hops off the root path"));
            }
            if (hop.len() - alpha * tree.node(edge).c).abs() > tol {
                violations.push(format!("{id}: down hop duration != alpha*c"));
            }
            if hop.start < prev_end - tol {
                violations.push(format!("{id}: forwarded before full receipt"));
            }
            prev_end = hop.end;
        }
        let compute = report
            .spans_for(id)
            .find(|s| s.kind == TreeSpanKind::Compute);
        let Some(compute) = compute else {
            violations.push(format!("{id}: no compute span"));
            continue;
        };
        if (compute.len() - alpha * tree.node(id).w).abs() > tol {
            violations.push(format!("{id}: compute duration != alpha*w"));
        }
        if compute.start < prev_end - tol {
            violations.push(format!("{id}: computes before delivery"));
        }
        let up: Vec<&TreeSpan> = report
            .spans_for(id)
            .filter(|s| s.kind == TreeSpanKind::Up)
            .collect();
        let ret_cost: f64 = path.iter().map(|&e| tree.node(e).d).sum();
        if up.is_empty() {
            if alpha * ret_cost > tol.max(LOAD_EPS) {
                violations.push(format!("{id}: return chain missing"));
            }
        } else {
            if up.len() != path.len() {
                violations.push(format!("{id}: partial return chain"));
            }
            let mut prev_end = compute.end;
            for (hop, &edge) in up.iter().zip(path.iter().rev()) {
                if hop.node != edge {
                    violations.push(format!("{id}: up hops off the root path"));
                }
                if (hop.len() - alpha * tree.node(edge).d).abs() > tol {
                    violations.push(format!("{id}: up hop duration != alpha*d"));
                }
                if hop.start < prev_end - tol {
                    violations.push(format!("{id}: return forwarded before ready"));
                }
                prev_end = hop.end;
            }
        }
    }

    // One-port at every node (master = index n): transfer spans incident
    // to the same port are pairwise disjoint.
    let mut port_use: Vec<(f64, f64, usize)> = Vec::new();
    for s in &report.spans {
        if s.kind == TreeSpanKind::Compute || s.is_empty() {
            continue;
        }
        let parent = tree.parent(s.node).map_or(master, |p| p.index());
        port_use.push((s.start, s.end, s.node.index()));
        port_use.push((s.start, s.end, parent));
    }
    for (i, a) in port_use.iter().enumerate() {
        for b in &port_use[i + 1..] {
            if a.2 == b.2 && a.0 + tol < b.1 && b.0 + tol < a.1 {
                let port = if a.2 == master {
                    "master".to_string()
                } else {
                    WorkerId(a.2).to_string()
                };
                violations.push(format!("one-port violated at {port}"));
            }
        }
    }

    // sigma_1 at the master: first hops start in send order.
    let mut last = f64::NEG_INFINITY;
    for &id in &schedule.participants() {
        if let Some(first) = report
            .spans_for(id)
            .find(|s| s.kind == TreeSpanKind::Down && tree.parent(s.node).is_none())
        {
            if first.start < last - tol {
                violations.push("send order violated at the master".into());
            }
            last = first.start;
        }
    }
    // sigma_2 at the master: final up hops start in return order.
    let mut last = f64::NEG_INFINITY;
    for &id in schedule.return_order() {
        if let Some(hop) = report
            .spans_for(id)
            .find(|s| s.kind == TreeSpanKind::Up && tree.parent(s.node).is_none())
        {
            if hop.start < last - tol {
                violations.push("return order violated at the master".into());
            }
            last = hop.start;
        }
    }
    violations
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use dls_core::PortModel;
    use dls_platform::{Platform, Worker};

    fn ids(v: &[usize]) -> Vec<WorkerId> {
        v.iter().map(|&i| WorkerId(i)).collect()
    }

    /// The hand-checkable two-worker platform from `dls-core::timeline`.
    fn platform() -> Platform {
        Platform::new(vec![Worker::new(1.0, 2.0, 0.5), Worker::new(2.0, 1.0, 1.0)]).unwrap()
    }

    #[test]
    fn depth_one_tree_matches_the_star_timeline_exactly() {
        let p = platform();
        let tree = TreePlatform::star(&p);
        let s = Schedule::fifo(&p, ids(&[0, 1]), vec![1.0, 1.0]).unwrap();
        let analytic = dls_core::timeline::makespan(&p, &s, PortModel::OnePort);
        let rep = simulate_tree(&tree, &s, &SimConfig::ideal());
        assert!((rep.makespan - analytic).abs() < 1e-9);
        assert!(verify_tree(&tree, &s, &rep, 1e-9).is_empty());
    }

    #[test]
    fn chain_hand_computed_store_and_forward() {
        // Chain master -> P1 (c=1,w=2,d=0.5) -> P2 (c=2,w=1,d=1), loads 1.
        // Down: P1 recv [0,1]; P2's payload crosses edge P1 [1,2], then
        // edge P2 [2,4]. P1 computes [1,3]; P2 computes [4,5].
        // Returns FIFO: P1's compute ends at 3, but its port is busy
        // forwarding P2's payload until 4 and the per-port discipline
        // drains all downward traffic before any return, so P1's return
        // to master runs [4,4.5]. P2's return then climbs: edge P2 up
        // [5,6], edge P1 up [6,6.5].
        let p = platform();
        let tree = TreePlatform::chain(&p);
        let s = Schedule::fifo(&p, ids(&[0, 1]), vec![1.0, 1.0]).unwrap();
        let rep = simulate_tree(&tree, &s, &SimConfig::ideal());
        assert!(verify_tree(&tree, &s, &rep, 1e-9).is_empty());
        let p2_down: Vec<(f64, f64)> = rep
            .spans_for(WorkerId(1))
            .filter(|sp| sp.kind == TreeSpanKind::Down)
            .map(|sp| (sp.start, sp.end))
            .collect();
        assert_eq!(p2_down, vec![(1.0, 2.0), (2.0, 4.0)]);
        let p2_up: Vec<(f64, f64)> = rep
            .spans_for(WorkerId(1))
            .filter(|sp| sp.kind == TreeSpanKind::Up)
            .map(|sp| (sp.start, sp.end))
            .collect();
        assert_eq!(p2_up, vec![(5.0, 6.0), (6.0, 6.5)]);
        assert!((rep.makespan - 6.5).abs() < 1e-12);
    }

    #[test]
    fn pipelining_beats_the_serialized_collapse_prediction() {
        // The same chain, serialized through the master's port (the
        // star-collapse model), is strictly slower than the pipelined
        // store-and-forward replay: the reduction is conservative.
        let p = platform();
        let tree = TreePlatform::chain(&p);
        let s = Schedule::fifo(&p, ids(&[0, 1]), vec![1.0, 1.0]).unwrap();
        let rep = simulate_tree(&tree, &s, &SimConfig::ideal());
        // Collapsed star: P2_eq has c = 3, d = 1.5. Sends [0,1],[1,4];
        // computes [1,3],[4,5]; returns [4,4.5],[5,6.5] -> makespan 6.5.
        // (Here the chain replay happens to meet the prediction's end; the
        // master send of P2's payload still frees the port 2 units early.)
        let first_master_hops: Vec<f64> = rep
            .spans
            .iter()
            .filter(|sp| sp.kind == TreeSpanKind::Down && tree.parent(sp.node).is_none())
            .map(|sp| sp.end)
            .collect();
        assert_eq!(first_master_hops, vec![1.0, 2.0]);
        assert!(rep.makespan <= 6.5 + 1e-12);
    }

    #[test]
    fn zero_load_nodes_exchange_no_messages() {
        let p = platform();
        let tree = TreePlatform::chain(&p);
        let s = Schedule::fifo(&p, ids(&[0, 1]), vec![0.0, 1.0]).unwrap();
        let rep = simulate_tree(&tree, &s, &SimConfig::ideal());
        assert!(rep.spans_for(WorkerId(0)).next().is_none());
        // P1 still relays P2's payload (spans tagged msg = P2).
        assert!(rep.spans_for(WorkerId(1)).any(|sp| sp.node == WorkerId(0)));
        assert!(verify_tree(&tree, &s, &rep, 1e-9).is_empty());
    }

    #[test]
    fn seeded_jitter_replays_bit_for_bit() {
        let p = platform();
        let tree = TreePlatform::chain(&p);
        let s = Schedule::fifo(&p, ids(&[0, 1]), vec![1.0, 1.0]).unwrap();
        let a = simulate_tree(&tree, &s, &SimConfig::jittered(7));
        let b = simulate_tree(&tree, &s, &SimConfig::jittered(7));
        let c = simulate_tree(&tree, &s, &SimConfig::jittered(8));
        assert_eq!(a, b);
        assert_ne!(a.makespan, c.makespan);
    }

    #[test]
    fn verify_catches_tampered_replay() {
        let p = platform();
        let tree = TreePlatform::chain(&p);
        let s = Schedule::fifo(&p, ids(&[0, 1]), vec![1.0, 1.0]).unwrap();
        let mut rep = simulate_tree(&tree, &s, &SimConfig::ideal());
        let i = rep
            .spans
            .iter()
            .position(|sp| sp.kind == TreeSpanKind::Down && sp.node == WorkerId(1))
            .unwrap();
        rep.spans[i].start = 0.0; // forwarded before stored
        assert!(!verify_tree(&tree, &s, &rep, 1e-9).is_empty());
    }
}
