//! Engine integration: constructor-configured [`TreeScheduler`]s and the
//! [`SchedulerProvider`] that plugs them into [`dls_core::registry`].
//!
//! After [`install`](crate::install) the registry lists `tree_fifo` and
//! `tree_lifo` (both at [`DEFAULT_FANOUT`]), and [`dls_core::lookup`]
//! resolves the parameterized spelling `<id>@<fanout>` (e.g. `tree_fifo@1`
//! for a chain, `tree_fifo@11` for the flat star on an 11-worker platform)
//! — the same constructor-configured story as `multiround_*`, driving the
//! bench depth sweeps from plain strings.

use dls_core::engine::{Execution, Provenance, Scheduler, SchedulerProvider, Solution};
use dls_core::lp_model::LpSchedule;
use dls_core::CoreError;
use dls_platform::{Platform, TreePlatform, WorkerId};

use crate::collapse::collapse;

/// Fanout of the default registry instances (a balanced binary tree).
pub const DEFAULT_FANOUT: usize = 2;

/// Return-message discipline of the collapsed-star solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeOrder {
    /// FIFO returns (`optimal_fifo` on the collapsed star).
    Fifo,
    /// LIFO returns (`optimal_lifo` on the collapsed star).
    Lifo,
}

impl TreeOrder {
    fn id_stem(self) -> &'static str {
        match self {
            TreeOrder::Fifo => "tree_fifo",
            TreeOrder::Lifo => "tree_lifo",
        }
    }

    fn legend_stem(self) -> &'static str {
        match self {
            TreeOrder::Fifo => "TREE_FIFO",
            TreeOrder::Lifo => "TREE_LIFO",
        }
    }

    pub(crate) fn solve_star(self, star: &Platform) -> Result<LpSchedule, CoreError> {
        match self {
            TreeOrder::Fifo => dls_core::fifo::optimal_fifo(star),
            TreeOrder::Lifo => dls_core::lifo::optimal_lifo(star),
        }
    }
}

/// The balanced reshaping every registry tree strategy uses on star
/// inputs: workers sorted by non-decreasing `c` (fast links near the
/// master, where they relay the most traffic), balanced `fanout`-ary
/// layout. Returns the tree plus the physical worker id of each node.
pub(crate) fn shape_balanced(platform: &Platform, fanout: usize) -> (TreePlatform, Vec<WorkerId>) {
    let nodes = platform.order_by_c();
    let shaped = platform
        .restrict(&nodes)
        .expect("restriction to a permutation is valid");
    (TreePlatform::balanced(&shaped, fanout), nodes)
}

/// A constructor-configured tree strategy: a return discipline plus the
/// balanced-tree fanout used to reshape star platforms.
///
/// On a [`Platform`] (the registry interface), [`TreeScheduler::solve`]
/// arranges the workers — fastest links closest to the master — into a
/// balanced `fanout`-ary [`TreePlatform`], collapses it to the
/// bandwidth-equivalent star, solves that star with the paper's one-round
/// machinery, and records the collapse in [`Execution::Tree`]. With
/// `fanout ≥ p` the tree *is* the star and `tree_fifo` reproduces
/// `optimal_fifo` exactly. Native tree inputs go through
/// [`TreeScheduler::solve_tree`].
#[derive(Debug, Clone)]
pub struct TreeScheduler {
    order: TreeOrder,
    fanout: usize,
    name: String,
    legend: String,
}

impl TreeScheduler {
    /// A strategy named `<stem>@<fanout>` (the parameterized spelling).
    pub fn new(order: TreeOrder, fanout: usize) -> Self {
        TreeScheduler {
            order,
            fanout,
            name: format!("{}@{fanout}", order.id_stem()),
            legend: format!("{}@{fanout}", order.legend_stem()),
        }
    }

    /// The default registry instance: plain `tree_*` name,
    /// [`DEFAULT_FANOUT`].
    pub fn registry_default(order: TreeOrder) -> Self {
        TreeScheduler {
            order,
            fanout: DEFAULT_FANOUT,
            name: order.id_stem().to_string(),
            legend: order.legend_stem().to_string(),
        }
    }

    /// Shorthand for [`TreeScheduler::new`] with [`TreeOrder::Fifo`].
    pub fn fifo(fanout: usize) -> Self {
        Self::new(TreeOrder::Fifo, fanout)
    }

    /// Shorthand for [`TreeScheduler::new`] with [`TreeOrder::Lifo`].
    pub fn lifo(fanout: usize) -> Self {
        Self::new(TreeOrder::Lifo, fanout)
    }

    /// The configured fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The configured return discipline.
    pub fn order(&self) -> TreeOrder {
        self.order
    }

    /// The tree this strategy reshapes `platform` into: workers sorted by
    /// non-decreasing `c` (fast links near the master, where they relay
    /// the most traffic), balanced `fanout`-ary layout. Returns the tree
    /// plus the physical worker id of each tree node.
    pub fn shape(&self, platform: &Platform) -> (TreePlatform, Vec<WorkerId>) {
        shape_balanced(platform, self.fanout)
    }

    /// Solves a native tree: collapse, solve the star, record the
    /// (identity) collapse mapping. The discipline comes from the
    /// constructor configuration; the fanout is ignored (the topology is
    /// the caller's).
    pub fn solve_tree(&self, tree: &TreePlatform) -> Result<Solution, CoreError> {
        let nodes = tree.ids().collect();
        self.solve_shaped(tree.clone(), nodes)
    }

    fn solve_shaped(
        &self,
        tree: TreePlatform,
        nodes: Vec<WorkerId>,
    ) -> Result<Solution, CoreError> {
        let star = collapse(&tree);
        let lp = self.order.solve_star(&star)?;
        Ok(Solution {
            schedule: lp.schedule,
            throughput: lp.throughput,
            provenance: Provenance::Lp {
                iterations: lp.iterations,
            },
            execution: Execution::Tree {
                platform: star,
                tree,
                nodes,
            },
        })
    }
}

impl Scheduler for TreeScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn legend(&self) -> &str {
        &self.legend
    }

    fn solve(&self, platform: &Platform) -> Result<Solution, CoreError> {
        let (tree, nodes) = self.shape(platform);
        self.solve_shaped(tree, nodes)
    }
}

/// A constructor-configured **tree-native LP** strategy: reshapes star
/// platforms exactly like [`TreeScheduler`] (c-sorted balanced
/// `fanout`-ary trees), then solves the per-link relaxation of
/// [`crate::lp`] and reports the replay-achieved throughput — never below
/// `tree_fifo` at the same fanout, with the relaxation optimum recorded
/// in `Provenance::LpBound` as the certified ceiling.
#[derive(Debug, Clone)]
pub struct TreeLpScheduler {
    fanout: usize,
    name: String,
    legend: String,
}

impl TreeLpScheduler {
    /// A strategy named `tree_lp@<fanout>` (the parameterized spelling).
    pub fn new(fanout: usize) -> Self {
        TreeLpScheduler {
            fanout,
            name: format!("tree_lp@{fanout}"),
            legend: format!("TREE_LP@{fanout}"),
        }
    }

    /// The default registry instance: plain `tree_lp` name,
    /// [`DEFAULT_FANOUT`].
    pub fn registry_default() -> Self {
        TreeLpScheduler {
            fanout: DEFAULT_FANOUT,
            name: "tree_lp".into(),
            legend: "TREE_LP".into(),
        }
    }

    /// The configured fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Solves a native tree (the fanout is ignored; the topology is the
    /// caller's).
    pub fn solve_tree(&self, tree: &TreePlatform) -> Result<Solution, CoreError> {
        let nodes = tree.ids().collect();
        let sol = crate::lp::solve_tree_lp(tree)?;
        Ok(crate::lp::tree_lp_solution(tree.clone(), nodes, sol))
    }
}

impl Scheduler for TreeLpScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn legend(&self) -> &str {
        &self.legend
    }

    fn solve(&self, platform: &Platform) -> Result<Solution, CoreError> {
        let (tree, nodes) = shape_balanced(platform, self.fanout);
        let sol = crate::lp::solve_tree_lp(&tree)?;
        Ok(crate::lp::tree_lp_solution(tree, nodes, sol))
    }

    /// Exact-rational certification of the **relaxation bound**: re-solves
    /// the per-link model with the `Rational` simplex. The float solution's
    /// *achieved* throughput sits at or below this exact objective (the
    /// same upper-bound contract as `no_return` and the affine family —
    /// the replay achieves a value the relaxation can only cap).
    fn solve_exact(&self, platform: &Platform) -> Result<dls_core::ExactSolution, CoreError> {
        let (tree, _) = shape_balanced(platform, self.fanout);
        let (ir, alphas) = crate::lp::tree_lp_model(&tree);
        let sol = dls_lp::solve_exact::<dls_lp::Rational>(&ir.lower())?;
        let loads = alphas.var_ids().iter().map(|&v| sol.value(v)).collect();
        Ok(dls_core::ExactSolution {
            throughput: sol.objective,
            loads,
        })
    }
}

/// The provider handing the `tree_*` families (`tree_fifo`, `tree_lifo`,
/// `tree_lp`) to the engine registry; installed by [`crate::install`].
pub struct TreeProvider;

impl TreeProvider {
    fn parse(name: &str) -> Option<Box<dyn Scheduler>> {
        if let Some(rest) = name.strip_prefix("tree_lp") {
            if rest.is_empty() {
                return Some(Box::new(TreeLpScheduler::registry_default()));
            }
            return match rest.strip_prefix('@')?.parse::<usize>() {
                Ok(fanout) if fanout >= 1 => Some(Box::new(TreeLpScheduler::new(fanout))),
                _ => None,
            };
        }
        for order in [TreeOrder::Fifo, TreeOrder::Lifo] {
            let Some(rest) = name.strip_prefix(order.id_stem()) else {
                continue;
            };
            if rest.is_empty() {
                return Some(Box::new(TreeScheduler::registry_default(order)));
            }
            if let Some(k) = rest.strip_prefix('@') {
                return match k.parse::<usize>() {
                    Ok(fanout) if fanout >= 1 => Some(Box::new(TreeScheduler::new(order, fanout))),
                    _ => None,
                };
            }
        }
        None
    }
}

impl SchedulerProvider for TreeProvider {
    fn group(&self) -> &'static str {
        "tree"
    }

    fn schedulers(&self) -> Vec<Box<dyn Scheduler>> {
        vec![
            Box::new(TreeScheduler::registry_default(TreeOrder::Fifo)),
            Box::new(TreeScheduler::registry_default(TreeOrder::Lifo)),
            Box::new(TreeLpScheduler::registry_default()),
        ]
    }

    fn resolve(&self, name: &str) -> Option<Box<dyn Scheduler>> {
        Self::parse(name)
    }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn star() -> Platform {
        Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0)], 0.5).unwrap()
    }

    #[test]
    fn names_and_legends() {
        assert_eq!(TreeScheduler::fifo(3).name(), "tree_fifo@3");
        assert_eq!(TreeScheduler::lifo(1).legend(), "TREE_LIFO@1");
        let d = TreeScheduler::registry_default(TreeOrder::Fifo);
        assert_eq!(d.name(), "tree_fifo");
        assert_eq!(d.legend(), "TREE_FIFO");
        assert_eq!(d.fanout(), DEFAULT_FANOUT);
    }

    #[test]
    fn parse_accepts_defaults_and_parameterized_ids_only() {
        assert!(TreeProvider::parse("tree_fifo").is_some());
        let s = TreeProvider::parse("tree_lifo@4").unwrap();
        assert_eq!(s.name(), "tree_lifo@4");
        assert_eq!(s.legend(), "TREE_LIFO@4");
        let lp = TreeProvider::parse("tree_lp@3").unwrap();
        assert_eq!(lp.name(), "tree_lp@3");
        assert_eq!(TreeProvider::parse("tree_lp").unwrap().legend(), "TREE_LP");
        assert!(TreeProvider::parse("tree_fifo@0").is_none());
        assert!(TreeProvider::parse("tree_lp@0").is_none());
        assert!(TreeProvider::parse("tree_fifo@x").is_none());
        assert!(TreeProvider::parse("tree_fifox").is_none());
        assert!(TreeProvider::parse("tree_lpx").is_none());
        assert!(TreeProvider::parse("optimal_fifo").is_none());
    }

    #[test]
    fn tree_lp_scheduler_dominates_tree_fifo_at_every_fanout() {
        let p = star();
        for fanout in [1usize, 2, 3] {
            let fifo = TreeScheduler::fifo(fanout).solve(&p).unwrap();
            let lp = TreeLpScheduler::new(fanout).solve(&p).unwrap();
            assert!(
                lp.throughput >= fifo.throughput - 1e-9,
                "fanout {fanout}: tree_lp {} below tree_fifo {}",
                lp.throughput,
                fifo.throughput
            );
            match lp.provenance {
                Provenance::LpBound { bound, .. } => {
                    assert!(bound >= lp.throughput - 1e-9, "bound below achieved")
                }
                ref other => panic!("expected LpBound provenance, got {other:?}"),
            }
            assert!(lp.tree().is_some());
        }
    }

    #[test]
    fn tree_lp_exact_pass_upper_bounds_the_achieved_value() {
        use dls_lp::Scalar;
        let p = star();
        let s = TreeLpScheduler::new(2);
        let float = s.solve(&p).unwrap().throughput;
        let exact = s.solve_exact(&p).unwrap();
        let exact_rho = exact.throughput.to_f64();
        assert!(
            exact_rho >= float - 1e-9,
            "exact bound {exact_rho} below achieved {float}"
        );
        let load_sum: f64 = exact.loads.iter().map(|l| l.to_f64()).sum();
        assert!((load_sum - exact_rho).abs() < 1e-9);
    }

    #[test]
    fn shape_puts_fast_links_near_the_master() {
        let p = star();
        let (tree, nodes) = TreeScheduler::fifo(1).shape(&p);
        assert_eq!(tree.depth(), 3);
        // c-sorted: P1 (c=1), P3 (c=1.5), P2 (c=2).
        assert_eq!(nodes, vec![WorkerId(0), WorkerId(2), WorkerId(1)]);
        assert_eq!(tree.node(WorkerId(0)).c, 1.0);
        assert_eq!(tree.node(WorkerId(1)).c, 1.5);
    }

    #[test]
    fn flat_fanout_reproduces_optimal_fifo_exactly() {
        let p = star();
        let sol = TreeScheduler::fifo(p.num_workers()).solve(&p).unwrap();
        let opt = dls_core::fifo::optimal_fifo(&p).unwrap();
        assert!((sol.throughput - opt.throughput).abs() < 1e-12);
        let tree = sol.tree().unwrap();
        assert_eq!(tree.depth(), 1);
        assert_eq!(sol.rounds(), 1);
        // The verified timeline runs on the collapsed star and fills T = 1.
        let t = sol.verified_timeline(&p, 1e-7).unwrap();
        assert!((t.makespan() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn deeper_trees_cannot_beat_the_flat_star() {
        let p = star();
        let flat = TreeScheduler::fifo(p.num_workers())
            .solve(&p)
            .unwrap()
            .throughput;
        for fanout in [1usize, 2] {
            for sched in [TreeScheduler::fifo(fanout), TreeScheduler::lifo(fanout)] {
                let sol = sched.solve(&p).unwrap();
                assert!(
                    sol.throughput <= flat + 1e-9,
                    "{}: {} beats flat {}",
                    sched.name(),
                    sol.throughput,
                    flat
                );
                assert!(sol.verified_timeline(&p, 1e-7).is_ok());
            }
        }
    }

    #[test]
    fn solve_tree_keeps_the_identity_mapping() {
        let p = star();
        let tree = TreePlatform::chain(&p);
        let sol = TreeScheduler::fifo(DEFAULT_FANOUT)
            .solve_tree(&tree)
            .unwrap();
        match &sol.execution {
            Execution::Tree {
                platform, nodes, ..
            } => {
                assert_eq!(platform.num_workers(), 3);
                assert_eq!(nodes, &vec![WorkerId(0), WorkerId(1), WorkerId(2)]);
            }
            other => panic!("expected a tree execution, got {other:?}"),
        }
        assert_eq!(sol.enrolled_workers(&p), sol.schedule.participants().len());
    }

    #[test]
    fn lifo_discipline_produces_lifo_schedules() {
        let p = star();
        let sol = TreeScheduler::lifo(2).solve(&p).unwrap();
        assert!(sol.schedule.is_lifo());
        let sol = TreeScheduler::fifo(2).solve(&p).unwrap();
        assert!(sol.schedule.is_fifo());
    }
}
