//! Graph contraction: collapsing clusters of ranks into single vertices.
//!
//! RAHTM's phase 1 clusters processes so that (a) the concentration factor
//! is absorbed onto nodes and (b) each hierarchy level sees a 2^n-times
//! smaller graph (§III-B). Contraction aggregates inter-cluster volumes
//! into the coarse graph and reports how much volume became node-internal —
//! the quantity clustering is trying to *maximize* (intra-node links are
//! effectively free compared to network links).

use crate::graph::{CommGraph, Rank};

/// Result of contracting a graph by a cluster assignment.
#[derive(Clone, Debug)]
pub struct Contraction {
    /// The coarse graph over clusters.
    pub coarse: CommGraph,
    /// Volume that became internal to some cluster (off the network).
    pub internal_volume: f64,
    /// Members of each cluster, in ascending rank order.
    pub members: Vec<Vec<Rank>>,
}

/// Contracts `graph` by `assignment` (rank → cluster id). Cluster ids must
/// be dense in `0..num_clusters`.
///
/// # Panics
/// Panics if `assignment.len() != graph.num_ranks()` or ids are not dense.
pub fn contract(graph: &CommGraph, assignment: &[Rank], num_clusters: u32) -> Contraction {
    assert_eq!(assignment.len(), graph.num_ranks() as usize);
    let mut members: Vec<Vec<Rank>> = vec![Vec::new(); num_clusters as usize];
    for (rank, &cl) in assignment.iter().enumerate() {
        assert!(cl < num_clusters, "cluster id {cl} out of range");
        members[cl as usize].push(rank as Rank);
    }
    assert!(
        members.iter().all(|m| !m.is_empty()),
        "cluster ids must be dense (every cluster non-empty)"
    );
    let mut coarse = CommGraph::new(num_clusters);
    let mut internal = 0.0;
    for f in graph.flows() {
        let (cs, cd) = (assignment[f.src as usize], assignment[f.dst as usize]);
        if cs == cd {
            internal += f.bytes;
        } else {
            coarse.add(cs, cd, f.bytes);
        }
    }
    Contraction {
        coarse,
        internal_volume: internal,
        members,
    }
}

/// Composes two assignments: `first` maps ranks to mid-level clusters,
/// `second` maps those clusters to top-level clusters; the result maps
/// ranks directly to top-level clusters.
pub fn compose_assignments(first: &[Rank], second: &[Rank]) -> Vec<Rank> {
    first
        .iter()
        .map(|&mid| {
            assert!(
                (mid as usize) < second.len(),
                "assignment composition mismatch"
            );
            second[mid as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;

    #[test]
    fn contract_halo_into_quadrants() {
        // 4x4 periodic halo, 2x2 tiles: each tile keeps 2 internal
        // undirected pairs x2 dir x1.0 = 8 internal per tile? Count below.
        let g = patterns::halo_2d(4, 4, 1.0, true);
        let grid = crate::tiling::RankGrid::new(&[4, 4]);
        let assign = grid.tile_assignment(&[2, 2]);
        let c = contract(&g, &assign, 4);
        c.coarse.validate();
        assert_eq!(c.coarse.num_ranks(), 4);
        assert!((c.internal_volume + c.coarse.total_volume() - g.total_volume()).abs() < 1e-9);
        // each 2x2 tile contains 4 undirected internal pairs = 8 directed
        assert_eq!(c.internal_volume, 4.0 * 8.0);
        assert_eq!(c.members.iter().map(Vec::len).sum::<usize>(), 16);
    }

    #[test]
    fn volume_conservation_random() {
        let g = patterns::random(32, 100, 1.0, 5.0, 7);
        let assign: Vec<Rank> = (0..32).map(|r| r % 8).collect();
        let c = contract(&g, &assign, 8);
        assert!((c.internal_volume + c.coarse.total_volume() - g.total_volume()).abs() < 1e-9);
    }

    #[test]
    fn members_sorted_and_complete() {
        let g = CommGraph::new(6);
        let assign = vec![2, 0, 1, 2, 0, 1];
        let c = contract(&g, &assign, 3);
        assert_eq!(c.members[0], vec![1, 4]);
        assert_eq!(c.members[2], vec![0, 3]);
    }

    #[test]
    #[should_panic]
    fn sparse_cluster_ids_rejected() {
        let g = CommGraph::new(2);
        contract(&g, &[0, 2], 3); // cluster 1 empty
    }

    #[test]
    fn compose() {
        let first = vec![0, 0, 1, 1, 2, 2];
        let second = vec![1, 1, 0];
        assert_eq!(compose_assignments(&first, &second), vec![1, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn single_cluster_absorbs_everything() {
        let g = patterns::ring(8, 3.0);
        let c = contract(&g, &[0; 8], 1);
        assert_eq!(c.coarse.num_flows(), 0);
        assert_eq!(c.internal_volume, g.total_volume());
    }
}
