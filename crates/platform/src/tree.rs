//! Multi-level tree platforms: master → relays → workers.
//!
//! The paper's platform is a single-level star (Figure 1). Real deployments
//! are hierarchical: the master feeds *relay* nodes which forward load to
//! deeper nodes over their own links (cf. the linear daisy-chain platforms
//! of Gallet, Robert & Vivien). A [`TreePlatform`] is an arbitrary-depth
//! rooted tree over the same per-node cost triple `(c, w, d)`:
//!
//! * the (implicit) root is the master, exactly like [`Platform`]'s `P0`;
//! * every non-root node `i` owns the link to its parent — forwarding one
//!   load unit down that link costs `c_i`, returning results up costs
//!   `d_i` — and can itself process load at cost `w_i` per unit;
//! * communication is **store-and-forward** (a relay must fully receive a
//!   message before forwarding it) and every node, master included, is
//!   **one-port**: at most one transfer on any of its incident links at a
//!   time.
//!
//! A depth-1 tree (every node a child of the master) *is* a star, and
//! [`TreePlatform::star`] builds it from a [`Platform`]. The scheduling machinery for trees — the bandwidth-equivalent
//! star-collapse reduction and the `tree_fifo`/`tree_lifo` strategies —
//! lives in the `dls-tree` crate; the store-and-forward simulator lives in
//! `dls-sim`.

use core::fmt;

use rand::Rng;

use crate::platform::{Platform, PlatformError};
use crate::worker::{Worker, WorkerId};

/// A rooted tree of relay/worker nodes under one master.
///
/// Nodes are numbered `0..n` in *topological* order: a node's parent always
/// has a smaller index (enforced at construction), so bottom-up folds are
/// plain reverse iterations. Node ids reuse [`WorkerId`], which keeps a
/// depth-1 tree literally id-compatible with the [`Platform`] it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct TreePlatform {
    workers: Vec<Worker>,
    parents: Vec<Option<WorkerId>>,
}

impl TreePlatform {
    /// Builds a tree from per-node costs and parent links (`None` = child
    /// of the master). Costs are validated exactly like [`Platform::new`];
    /// every `Some(parent)` must point at a *smaller* node index, which
    /// both rules out cycles and fixes the topological numbering.
    pub fn new(
        workers: Vec<Worker>,
        parents: Vec<Option<WorkerId>>,
    ) -> Result<Self, PlatformError> {
        // Reuse the star validation for the cost triples.
        let star = Platform::new(workers)?;
        let workers = star.workers().to_vec();
        if parents.len() != workers.len() {
            return Err(PlatformError::InvalidParent {
                node: parents.len().min(workers.len()),
            });
        }
        for (i, parent) in parents.iter().enumerate() {
            if let Some(p) = parent {
                if p.index() >= i {
                    return Err(PlatformError::InvalidParent { node: i });
                }
            }
        }
        Ok(TreePlatform { workers, parents })
    }

    /// The depth-1 tree equivalent to `platform`: every worker a child of
    /// the master, same ids and costs.
    pub fn star(platform: &Platform) -> Self {
        TreePlatform {
            workers: platform.workers().to_vec(),
            parents: vec![None; platform.num_workers()],
        }
    }

    /// Arranges `platform`'s workers (in declaration order) into a balanced
    /// `fanout`-ary tree: the first `fanout` workers are children of the
    /// master, node `i ≥ fanout` hangs under node `i/fanout - 1` (the heap
    /// layout). `fanout = 1` yields a chain; `fanout ≥ p` yields the star.
    ///
    /// # Panics
    /// Panics when `fanout == 0`.
    pub fn balanced(platform: &Platform, fanout: usize) -> Self {
        assert!(fanout > 0, "a tree needs fanout >= 1");
        let parents = (0..platform.num_workers())
            .map(|i| {
                if i < fanout {
                    None
                } else {
                    Some(WorkerId(i / fanout - 1))
                }
            })
            .collect();
        TreePlatform {
            workers: platform.workers().to_vec(),
            parents,
        }
    }

    /// The linear daisy chain over `platform`'s workers (declaration
    /// order): master → P1 → P2 → …
    pub fn chain(platform: &Platform) -> Self {
        Self::balanced(platform, 1)
    }

    /// A random tree over `platform`'s workers: node `i`'s parent is drawn
    /// uniformly from the master and all earlier nodes (the "random
    /// recursive tree" model), so every topology from chain to star is
    /// reachable. Seeded `rng` ⇒ deterministic.
    pub fn random(platform: &Platform, rng: &mut impl Rng) -> Self {
        let parents = (0..platform.num_workers())
            .map(|i| {
                let pick = rng.gen_range(0..i + 1);
                if pick == 0 {
                    None
                } else {
                    Some(WorkerId(pick - 1))
                }
            })
            .collect();
        TreePlatform {
            workers: platform.workers().to_vec(),
            parents,
        }
    }

    /// Number of (non-master) nodes.
    pub fn num_nodes(&self) -> usize {
        self.workers.len()
    }

    /// Node ids in topological (declaration) order.
    pub fn ids(&self) -> impl Iterator<Item = WorkerId> + '_ {
        (0..self.workers.len()).map(WorkerId)
    }

    /// The cost triple of one node (`c`/`d` price its parent link).
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn node(&self, id: WorkerId) -> &Worker {
        &self.workers[id.index()]
    }

    /// All node cost triples in declaration order.
    pub fn nodes(&self) -> &[Worker] {
        &self.workers
    }

    /// A node's parent (`None` = the master).
    pub fn parent(&self, id: WorkerId) -> Option<WorkerId> {
        self.parents[id.index()]
    }

    /// Children of a node, in declaration order.
    pub fn children(&self, id: WorkerId) -> Vec<WorkerId> {
        self.ids()
            .filter(|&c| self.parents[c.index()] == Some(id))
            .collect()
    }

    /// `true` when the node has no children.
    pub fn is_leaf(&self, id: WorkerId) -> bool {
        !self.parents.contains(&Some(id))
    }

    /// Number of relay nodes (nodes with at least one child).
    pub fn num_relays(&self) -> usize {
        self.ids().filter(|id| !self.is_leaf(*id)).count()
    }

    /// Depth of a node: 1 for children of the master.
    pub fn node_depth(&self, id: WorkerId) -> usize {
        1 + self.parent(id).map_or(0, |p| self.node_depth(p))
    }

    /// Depth of the tree (max node depth; a star has depth 1).
    pub fn depth(&self) -> usize {
        self.ids().map(|id| self.node_depth(id)).max().unwrap_or(0)
    }

    /// The root-to-node path, from the master's child down to (and
    /// including) `id`.
    pub fn path(&self, id: WorkerId) -> Vec<WorkerId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Summed link costs `(Σc, Σd)` along the root-to-node path — the
    /// serialized cost of moving one load unit to/from the node.
    pub fn path_costs(&self, id: WorkerId) -> (f64, f64) {
        self.path(id)
            .iter()
            .map(|n| {
                let w = self.node(*n);
                (w.c, w.d)
            })
            .fold((0.0, 0.0), |(c, d), (ec, ed)| (c + ec, d + ed))
    }

    /// Returns the application constant `z = d/c` when it is common to all
    /// nodes, `None` otherwise. A `z`-tied tree collapses into a `z`-tied
    /// star (path sums preserve the ratio), so the Theorem 1 machinery
    /// applies to the collapsed platform.
    pub fn common_z(&self) -> Option<f64> {
        Platform::new(self.workers.clone())
            .expect("validated at construction")
            .common_z()
    }
}

impl fmt::Display for TreePlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tree platform, {} nodes, depth {}, {} relays:",
            self.num_nodes(),
            self.depth(),
            self.num_relays()
        )?;
        for id in self.ids() {
            let w = self.node(id);
            let parent = match self.parent(id) {
                Some(p) => p.to_string(),
                None => "master".into(),
            };
            writeln!(
                f,
                "  {:<4} parent = {:<7} c = {:>10.6}  w = {:>10.6}  d = {:>10.6}",
                id.to_string(),
                parent,
                w.c,
                w.w,
                w.d
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star4() -> Platform {
        Platform::star_with_z(&[(1.0, 2.0), (2.0, 3.0), (1.5, 4.0), (0.5, 5.0)], 0.5).unwrap()
    }

    #[test]
    fn balanced_layouts() {
        let p = star4();
        let chain = TreePlatform::chain(&p);
        assert_eq!(chain.depth(), 4);
        assert_eq!(chain.parent(WorkerId(3)), Some(WorkerId(2)));
        assert_eq!(chain.num_relays(), 3);

        let binary = TreePlatform::balanced(&p, 2);
        assert_eq!(binary.depth(), 2);
        assert_eq!(binary.parent(WorkerId(0)), None);
        assert_eq!(binary.parent(WorkerId(2)), Some(WorkerId(0)));
        assert_eq!(binary.parent(WorkerId(3)), Some(WorkerId(0)));
        assert_eq!(binary.children(WorkerId(0)), vec![WorkerId(2), WorkerId(3)]);

        let flat = TreePlatform::balanced(&p, 10);
        assert_eq!(flat.depth(), 1);
        assert_eq!(TreePlatform::star(&p), flat);
    }

    #[test]
    fn paths_and_costs() {
        let p = star4();
        let chain = TreePlatform::chain(&p);
        assert_eq!(
            chain.path(WorkerId(2)),
            vec![WorkerId(0), WorkerId(1), WorkerId(2)]
        );
        let (c, d) = chain.path_costs(WorkerId(2));
        assert!((c - 4.5).abs() < 1e-12);
        assert!((d - 2.25).abs() < 1e-12);
        assert_eq!(chain.node_depth(WorkerId(2)), 3);
        assert!((chain.common_z().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn construction_rejects_bad_parents_and_costs() {
        let w = vec![Worker::new(1.0, 2.0, 0.5), Worker::new(1.0, 2.0, 0.5)];
        // Forward (or self) parent reference breaks the topological order.
        assert_eq!(
            TreePlatform::new(w.clone(), vec![Some(WorkerId(1)), None]),
            Err(PlatformError::InvalidParent { node: 0 })
        );
        assert_eq!(
            TreePlatform::new(w.clone(), vec![None]),
            Err(PlatformError::InvalidParent { node: 1 })
        );
        assert!(matches!(
            TreePlatform::new(vec![Worker::new(0.0, 1.0, 0.5)], vec![None]),
            Err(PlatformError::InvalidCost { param: "c", .. })
        ));
        // A valid explicit two-level tree.
        let t = TreePlatform::new(w, vec![None, Some(WorkerId(0))]).unwrap();
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn random_trees_are_valid_and_deterministic() {
        let p = star4();
        let a = TreePlatform::random(&p, &mut StdRng::seed_from_u64(9));
        let b = TreePlatform::random(&p, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        for id in a.ids() {
            if let Some(parent) = a.parent(id) {
                assert!(parent.index() < id.index());
            }
        }
        assert!(a.depth() >= 1 && a.depth() <= 4);
    }

    #[test]
    fn leaves_and_relays_partition_the_nodes() {
        let p = star4();
        let t = TreePlatform::balanced(&p, 2);
        let leaves = t.ids().filter(|id| t.is_leaf(*id)).count();
        assert_eq!(leaves + t.num_relays(), t.num_nodes());
        assert!(t.is_leaf(WorkerId(3)));
        assert!(!t.is_leaf(WorkerId(0)));
    }

    #[test]
    fn display_mentions_topology() {
        let p = star4();
        let s = TreePlatform::balanced(&p, 2).to_string();
        assert!(s.contains("depth 2"));
        assert!(s.contains("master"));
    }
}
