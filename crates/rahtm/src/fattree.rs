//! Fat-tree extension (§VI, "Applicability to other topologies").
//!
//! The paper argues RAHTM's ingredients — optimal leaf sub-problems,
//! MCL-driven incremental merging, candidate pruning — carry over to any
//! partitionable topology, with "leaf-level topology partitions \[that\] can
//! be other structures such as trees in the case of fat-tree topology".
//! This module is that extension, and it illustrates how much *simpler*
//! the tree case is: all children of a switch are topologically
//! equivalent, so the hyperoctahedral orientation search degenerates — the
//! whole problem reduces to recursive partitioning that minimizes each
//! subtree's boundary traffic relative to its up-link capacity.
//!
//! The machine model is a folded fat-tree: a switch hierarchy where every
//! element at level `ℓ` owns `arity[ℓ]` children and reaches its parent
//! through an aggregate up-capacity of `width[ℓ]` unit links (a
//! full-bisection tree doubles width per level; tapered trees do not —
//! which is exactly what the MCL normalization sees).

use crate::cluster::cluster_level;
use rahtm_commgraph::{CommGraph, RankGrid};

/// A folded fat-tree machine.
#[derive(Clone, Debug, PartialEq)]
pub struct FatTree {
    /// `arity[ℓ]` = children per element at switch level `ℓ` (level 0
    /// switches own leaves).
    arity: Vec<u32>,
    /// `width[ℓ]` = up-link capacity (unit links) from a level-`ℓ`
    /// subtree to its parent. `width.len() == arity.len() - 1` because
    /// the root has no parent.
    width: Vec<f64>,
}

impl FatTree {
    /// Builds a fat-tree; see type docs for the parameters.
    ///
    /// # Panics
    /// Panics on empty/zero arities or `width.len() != arity.len() - 1`.
    pub fn new(arity: &[u32], width: &[f64]) -> Self {
        assert!(!arity.is_empty());
        assert!(arity.iter().all(|&a| a >= 2));
        assert_eq!(width.len(), arity.len() - 1, "one width per non-root level");
        assert!(width.iter().all(|&w| w > 0.0));
        FatTree {
            arity: arity.to_vec(),
            width: width.to_vec(),
        }
    }

    /// A full-bisection (non-blocking) tree: up-capacity equals the leaf
    /// count of each subtree.
    pub fn full_bisection(arity: &[u32]) -> Self {
        let mut width = Vec::new();
        let mut leaves = 1f64;
        for &a in &arity[..arity.len() - 1] {
            leaves *= a as f64;
            width.push(leaves);
        }
        FatTree::new(arity, &width)
    }

    /// A tapered tree: each level's up-capacity is `taper` × the subtree
    /// leaf count (e.g. 0.5 for the common 2:1 oversubscription).
    pub fn tapered(arity: &[u32], taper: f64) -> Self {
        assert!(taper > 0.0);
        let mut width = Vec::new();
        let mut leaves = 1f64;
        for &a in &arity[..arity.len() - 1] {
            leaves *= a as f64;
            width.push((leaves * taper).max(1.0));
        }
        FatTree::new(arity, &width)
    }

    /// Number of switch levels.
    pub fn levels(&self) -> usize {
        self.arity.len()
    }

    /// Compute-leaf count.
    pub fn num_leaves(&self) -> u32 {
        self.arity.iter().product()
    }

    /// Leaves per subtree rooted at level `ℓ` (level 0 subtree = one
    /// level-0 switch's leaves).
    pub fn subtree_leaves(&self, level: usize) -> u32 {
        self.arity[..=level].iter().product()
    }

    /// Up-link capacity of a level-`ℓ` subtree.
    pub fn up_width(&self, level: usize) -> f64 {
        self.width[level]
    }

    /// The level-`ℓ` subtree index containing `leaf`.
    pub fn subtree_of(&self, leaf: u32, level: usize) -> u32 {
        leaf / self.subtree_leaves(level)
    }

    /// Maximum channel load of `graph` under `placement` (rank → leaf):
    /// for every subtree, boundary traffic (in + out, each direction is a
    /// separate channel so we take the max of the two) divided by up-link
    /// width; the MCL is the maximum over all subtrees and levels. ECMP
    /// spreading over the parallel up-links is exact here — they are
    /// interchangeable by construction.
    ///
    /// # Panics
    /// Panics if a placement entry exceeds the leaf count.
    pub fn mcl(&self, graph: &CommGraph, placement: &[u32]) -> f64 {
        assert_eq!(placement.len(), graph.num_ranks() as usize);
        let leaves = self.num_leaves();
        for &l in placement {
            assert!(l < leaves, "leaf {l} out of range");
        }
        let mut worst = 0.0f64;
        for level in 0..self.levels() - 1 {
            let n_subtrees = (leaves / self.subtree_leaves(level)) as usize;
            let mut up = vec![0.0f64; n_subtrees];
            let mut down = vec![0.0f64; n_subtrees];
            for f in graph.flows() {
                let s = self.subtree_of(placement[f.src as usize], level);
                let d = self.subtree_of(placement[f.dst as usize], level);
                if s != d {
                    up[s as usize] += f.bytes;
                    down[d as usize] += f.bytes;
                }
            }
            let w = self.up_width(level);
            for i in 0..n_subtrees {
                worst = worst.max(up[i].max(down[i]) / w);
            }
        }
        worst
    }

    /// Hop count between two leaves (2 × levels to the lowest common
    /// ancestor).
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        if a == b {
            return 0;
        }
        for level in 0..self.levels() {
            if self.subtree_of(a, level) == self.subtree_of(b, level) {
                return 2 * (level as u32 + 1);
            }
        }
        unreachable!("all leaves share the root")
    }
}

/// Result of the fat-tree mapper.
#[derive(Clone, Debug)]
pub struct FatTreeMapping {
    /// rank → leaf assignment.
    pub leaf_of: Vec<u32>,
    /// Achieved MCL.
    pub mcl: f64,
    /// Tile shape chosen at each level, finest first (empty entries mark
    /// the chunk fallback).
    pub shapes: Vec<Vec<u32>>,
}

/// RAHTM-for-fat-trees: recursive tiling clustering (phase 1 generalizes
/// unchanged), with phases 2–3 degenerate because sibling subtrees are
/// topologically interchangeable — the partition *is* the mapping. The
/// tiling at each level minimizes exactly the boundary traffic that level's
/// up-links carry, i.e. each level's MCL contribution.
///
/// # Panics
/// Panics unless `graph.num_ranks() == tree.num_leaves() × concentration`
/// for integer concentration ≥ 1, with `grid` covering all ranks.
pub fn fattree_map(tree: &FatTree, graph: &CommGraph, grid: &RankGrid) -> FatTreeMapping {
    let r = graph.num_ranks();
    let leaves = tree.num_leaves();
    assert!(
        r >= leaves && r.is_multiple_of(leaves),
        "ranks must fill leaves"
    );
    assert_eq!(grid.num_ranks(), r);
    let (leaf_of, shapes) = number_leaves(graph, grid, r / leaves, &tree.arity);
    let mcl = tree.mcl(graph, &leaf_of);
    FatTreeMapping {
        leaf_of,
        mcl,
        shapes,
    }
}

/// The partition of a tree of interchangeable siblings, numbered: clusters
/// `graph` by `concentration` ranks per leaf, then by each of `arities`
/// but the last, finest first (the top holds `arities.last()` clusters).
/// Siblings are interchangeable, so any consistent numbering is optimal for
/// the partition; this one is mixed-radix, each cluster taking the next
/// slot of its parent in cluster-id order. Returns each rank's leaf and the
/// tile shape of each clustering, finest first (empty for the chunk
/// fallback).
///
/// # Panics
/// Panics if a cluster gets more children than its level's arity.
pub(crate) fn number_leaves(
    graph: &CommGraph,
    grid: &RankGrid,
    concentration: u32,
    arities: &[u32],
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let base = cluster_level(graph, grid, concentration);
    let mut shapes = vec![base.shape];
    // per clustering: (child cluster -> parent cluster, children per parent)
    let mut levels = Vec::new();
    let (mut g, mut gr) = (base.coarse_graph, base.coarse_grid);
    for &arity in &arities[..arities.len() - 1] {
        let lvl = cluster_level(&g, &gr, arity);
        shapes.push(lvl.shape);
        levels.push((lvl.assignment, arity));
        (g, gr) = (lvl.coarse_graph, lvl.coarse_grid);
    }
    // top-down: a top cluster's number is its id
    let mut number: Vec<u32> = (0..g.num_ranks()).collect();
    for (parent_of, arity) in levels.into_iter().rev() {
        let mut next_slot = vec![0u32; number.len()];
        number = parent_of
            .iter()
            .map(|&p| {
                let slot = next_slot[p as usize];
                assert!(
                    slot < arity,
                    "cluster {p} over-filled (partition must be balanced)"
                );
                next_slot[p as usize] += 1;
                number[p as usize] * arity + slot
            })
            .collect();
    }
    let leaf_of = base
        .assignment
        .iter()
        .map(|&c| number[c as usize])
        .collect();
    (leaf_of, shapes)
}

/// The default fat-tree mapping: rank r → leaf r / concentration.
pub fn fattree_default(tree: &FatTree, num_ranks: u32) -> Vec<u32> {
    let conc = num_ranks / tree.num_leaves();
    (0..num_ranks).map(|r| r / conc.max(1)).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rahtm_commgraph::patterns;

    #[test]
    fn geometry() {
        // 2 levels: 4 leaves per L0 switch, 3 L0 switches under the root
        let t = FatTree::new(&[4, 3], &[2.0]);
        assert_eq!(t.num_leaves(), 12);
        assert_eq!(t.subtree_leaves(0), 4);
        assert_eq!(t.subtree_of(5, 0), 1);
        assert_eq!(t.distance(0, 1), 2);
        assert_eq!(t.distance(0, 4), 4);
        assert_eq!(t.distance(3, 3), 0);
    }

    #[test]
    fn full_bisection_widths() {
        let t = FatTree::full_bisection(&[4, 4, 2]);
        assert_eq!(t.up_width(0), 4.0);
        assert_eq!(t.up_width(1), 16.0);
    }

    #[test]
    fn mcl_counts_boundary_traffic() {
        let t = FatTree::new(&[2, 2], &[1.0]);
        let mut g = CommGraph::new(4);
        g.add(0, 2, 10.0); // crosses the L0 boundary
        g.add(0, 1, 100.0); // stays inside switch 0
        let place = vec![0, 1, 2, 3];
        assert_eq!(t.mcl(&g, &place), 10.0);
        // moving the heavy pair apart exposes it (the light pair becomes
        // local, so the boundary now carries exactly the heavy flow)
        let bad = vec![0, 2, 1, 3];
        assert_eq!(t.mcl(&g, &bad), 100.0);
    }

    #[test]
    fn tapered_tree_raises_mcl() {
        let full = FatTree::full_bisection(&[2, 2, 2]);
        let tapered = FatTree::tapered(&[2, 2, 2], 0.5);
        let g = patterns::all_to_all(8, 10.0);
        let place: Vec<u32> = (0..8).collect();
        assert!(tapered.mcl(&g, &place) > full.mcl(&g, &place));
    }

    #[test]
    fn mapper_keeps_halo_local() {
        // 4x4 halo on a tree with 4-leaf switches: the mapper should pack
        // 2x2 tiles per switch, beating the row-chunk default
        let t = FatTree::new(&[4, 4], &[2.0]);
        let g = patterns::halo_2d(4, 4, 10.0, true);
        let grid = RankGrid::new(&[4, 4]);
        let m = fattree_map(&t, &g, &grid);
        let default = fattree_default(&t, 16);
        let dm = t.mcl(&g, &default);
        assert!(
            m.mcl <= dm + 1e-9,
            "mapper {} should not lose to default {dm}",
            m.mcl
        );
        // bijective placement
        let set: std::collections::HashSet<_> = m.leaf_of.iter().collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn mapper_with_concentration() {
        let t = FatTree::new(&[2, 2], &[1.0]);
        let g = patterns::halo_2d(4, 4, 5.0, true);
        let grid = RankGrid::new(&[4, 4]);
        let m = fattree_map(&t, &g, &grid);
        // 16 ranks on 4 leaves: 4 per leaf
        let mut counts = std::collections::HashMap::new();
        for &l in &m.leaf_of {
            *counts.entry(l).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4);
        assert!(counts.values().all(|&c| c == 4));
        assert!(m.mcl <= t.mcl(&g, &fattree_default(&t, 16)) + 1e-9);
    }

    #[test]
    fn reported_mcl_matches_recomputation() {
        let t = FatTree::new(&[2, 2, 2], &[1.0, 2.0]);
        let g = patterns::random(8, 20, 1.0, 10.0, 4);
        let grid = RankGrid::new(&[2, 4]);
        let m = fattree_map(&t, &g, &grid);
        assert!((m.mcl - t.mcl(&g, &m.leaf_of)).abs() < 1e-12);
    }

    /// Reference leaf numbering: it builds the hierarchy a second time for
    /// the per-level cluster ids and scans the ranks for each rank's
    /// siblings.
    fn reference_fattree_map(
        tree: &FatTree,
        graph: &CommGraph,
        grid: &RankGrid,
    ) -> (Vec<u32>, Vec<Vec<u32>>) {
        let r = graph.num_ranks();
        let conc = r / tree.num_leaves();
        let mut shapes = Vec::new();
        let base = cluster_level(graph, grid, conc);
        shapes.push(base.shape.clone());
        let mut cur_graph = base.coarse_graph;
        let mut cur_grid = base.coarse_grid;
        for level in 0..tree.levels() - 1 {
            let lvl = cluster_level(&cur_graph, &cur_grid, tree.arity[level]);
            shapes.push(lvl.shape.clone());
            cur_graph = lvl.coarse_graph;
            cur_grid = lvl.coarse_grid;
        }
        let mut per_level: Vec<Vec<Rank>> = Vec::new();
        {
            let base = cluster_level(graph, grid, conc);
            let mut acc = base.assignment.clone();
            let mut g = base.coarse_graph;
            let mut gr = base.coarse_grid;
            per_level.push(acc.clone());
            for level in 0..tree.levels() - 1 {
                let lvl = cluster_level(&g, &gr, tree.arity[level]);
                acc = compose_assignments(&acc, &lvl.assignment);
                per_level.push(acc.clone());
                g = lvl.coarse_graph;
                gr = lvl.coarse_grid;
            }
        }
        let mut leaf_of = vec![0u32; r as usize];
        for rank in 0..r as usize {
            let mut leaf = 0u32;
            for level in (0..tree.levels()).rev() {
                let child_cluster = per_level[level][rank];
                let sibling = sibling_index(&per_level, level, tree, child_cluster);
                leaf = leaf * tree.arity[level] + sibling;
            }
            leaf_of[rank] = leaf;
        }
        (leaf_of, shapes)
    }

    fn sibling_index(per_level: &[Vec<Rank>], level: usize, tree: &FatTree, cluster: Rank) -> u32 {
        if level + 1 >= per_level.len() {
            return cluster % tree.arity[tree.levels() - 1];
        }
        let rank = per_level[level].iter().position(|&c| c == cluster).unwrap();
        let parent = per_level[level + 1][rank];
        let mut siblings: Vec<Rank> = Vec::new();
        for (rk, &c) in per_level[level].iter().enumerate() {
            if per_level[level + 1][rk] == parent && !siblings.contains(&c) {
                siblings.push(c);
            }
        }
        siblings.sort_unstable();
        siblings
            .iter()
            .position(|&c| c == cluster)
            .map_or(0, |i| i as u32)
    }

    /// A random rank grid of `r` ranks: one, two or three dims.
    pub(crate) fn random_grid(rng: &mut StdRng, r: u32) -> RankGrid {
        let divisors: Vec<u32> = (1..=r).filter(|d| r.is_multiple_of(*d)).collect();
        let a = divisors[rng.gen_range(0..divisors.len())];
        let rest = r / a;
        let divisors: Vec<u32> = (1..=rest).filter(|d| rest.is_multiple_of(*d)).collect();
        let b = divisors[rng.gen_range(0..divisors.len())];
        match rng.gen_range(0..3) {
            0 => RankGrid::new(&[r]),
            1 => RankGrid::new(&[a, rest]),
            _ => RankGrid::new(&[a, b, rest / b]),
        }
    }

    #[test]
    fn leaf_numbering_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..60u64 {
            let levels = rng.gen_range(1..4);
            let arity: Vec<u32> = (0..levels).map(|_| rng.gen_range(2..5)).collect();
            let tree = FatTree::full_bisection(&arity);
            let r = tree.num_leaves() * rng.gen_range(1..4);
            let flows = rng.gen_range(r as usize..4 * r as usize);
            let g = patterns::random(r, flows, 1.0, 10.0, case);
            let grid = random_grid(&mut rng, r);
            let m = fattree_map(&tree, &g, &grid);
            let (leaf_of, shapes) = reference_fattree_map(&tree, &g, &grid);
            assert_eq!(
                m.leaf_of,
                leaf_of,
                "case {case}: {arity:?}, grid {:?}",
                grid.dims()
            );
            assert_eq!(m.shapes, shapes, "case {case}");
        }
    }

    use rahtm_commgraph::contract::compose_assignments;
    use rahtm_commgraph::{CommGraph, Rank};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
}
