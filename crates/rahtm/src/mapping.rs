//! Final mapping artifacts.
//!
//! A [`TaskMapping`] assigns every MPI rank to a machine node (and a core
//! slot within the node). It validates the concentration constraint, can
//! be evaluated under any routing model, and serializes to the BG/Q
//! mapfile format the MPI runtime consumes ("arbitrary task-to-node
//! mappings that can be read from a file", §II-B).

use rahtm_commgraph::{CommGraph, Rank};
use rahtm_routing::{mapping_hop_bytes, mapping_mcl, Routing};
use rahtm_topology::{BgqMachine, NodeId};
use std::fmt::Write as _;

/// A complete rank→(node, core-slot) mapping.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskMapping {
    node_of: Vec<NodeId>,
    slot_of: Vec<u32>,
}

impl TaskMapping {
    /// Builds a mapping from per-rank node assignments, assigning core
    /// slots within each node in ascending rank order.
    ///
    /// # Panics
    /// Panics if any node receives more than `machine.concentration()`
    /// ranks, or a node id is out of range.
    pub fn from_nodes(machine: &BgqMachine, node_of: Vec<NodeId>) -> Self {
        let nodes = machine.torus().num_nodes();
        let cap = machine.concentration();
        let mut next_slot = vec![0u32; nodes as usize];
        let mut slot_of = Vec::with_capacity(node_of.len());
        for &n in &node_of {
            assert!(n < nodes, "node id {n} out of range");
            let s = next_slot[n as usize];
            assert!(s < cap, "node {n} over-subscribed (> concentration {cap})");
            slot_of.push(s);
            next_slot[n as usize] = s + 1;
        }
        TaskMapping { node_of, slot_of }
    }

    /// The canonical dimension-ordered mapping (ABCDET with T fastest):
    /// rank r goes to node r / concentration, slot r % concentration.
    /// With our last-dimension-fastest node ids this is exactly BG/Q's
    /// default ABCDET order.
    pub fn abcdet(machine: &BgqMachine, num_ranks: u32) -> Self {
        let c = machine.concentration();
        assert!(num_ranks as u64 <= machine.num_process_slots());
        let node_of = (0..num_ranks).map(|r| r / c).collect();
        TaskMapping::from_nodes(machine, node_of)
    }

    /// Number of mapped ranks.
    pub fn num_ranks(&self) -> u32 {
        self.node_of.len() as u32
    }

    /// Node of a rank.
    #[inline]
    pub fn node(&self, rank: Rank) -> NodeId {
        self.node_of[rank as usize]
    }

    /// Core slot of a rank within its node.
    #[inline]
    pub fn slot(&self, rank: Rank) -> u32 {
        self.slot_of[rank as usize]
    }

    /// Per-rank node assignments.
    pub fn nodes(&self) -> &[NodeId] {
        &self.node_of
    }

    /// MCL of `graph` under this mapping and `routing`.
    pub fn mcl(&self, machine: &BgqMachine, graph: &CommGraph, routing: Routing) -> f64 {
        mapping_mcl(machine.torus(), graph, &self.node_of, routing)
    }

    /// Hop-bytes of `graph` under this mapping.
    pub fn hop_bytes(&self, machine: &BgqMachine, graph: &CommGraph) -> f64 {
        mapping_hop_bytes(machine.torus(), graph, &self.node_of)
    }

    /// Ranks placed on each node (ascending), for inspection.
    pub fn ranks_by_node(&self, machine: &BgqMachine) -> Vec<Vec<Rank>> {
        let mut by = vec![Vec::new(); machine.torus().num_nodes() as usize];
        for (r, &n) in self.node_of.iter().enumerate() {
            by[n as usize].push(r as Rank);
        }
        by
    }

    /// Emits a BG/Q-style mapfile: one line per rank with the node's torus
    /// coordinates followed by the core slot, e.g. `0 1 3 2 0 5`.
    pub fn to_bgq_mapfile(&self, machine: &BgqMachine) -> String {
        let mut out = String::new();
        let topo = machine.torus();
        for (r, &n) in self.node_of.iter().enumerate() {
            let c = topo.coord(n);
            for x in c.iter() {
                let _ = write!(out, "{x} ");
            }
            let _ = writeln!(out, "{}", self.slot_of[r]);
        }
        out
    }

    /// Parses a mapfile produced by [`TaskMapping::to_bgq_mapfile`].
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn from_bgq_mapfile(machine: &BgqMachine, text: &str) -> Result<Self, String> {
        let topo = machine.torus();
        let n = topo.ndims();
        let mut node_of = Vec::new();
        let mut slot_of = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<u32> = line
                .split_whitespace()
                .map(|t| t.parse::<u32>().map_err(|e| format!("line {lineno}: {e}")))
                .collect::<Result<_, _>>()?;
            if parts.len() != n + 1 {
                return Err(format!(
                    "line {lineno}: expected {} fields, got {}",
                    n + 1,
                    parts.len()
                ));
            }
            let mut c = rahtm_topology::Coord::zero(n);
            for d in 0..n {
                if parts[d] >= topo.dim(d) as u32 {
                    return Err(format!("line {lineno}: coordinate out of range"));
                }
                c.set(d, parts[d] as u16);
            }
            node_of.push(topo.node_id(&c));
            slot_of.push(parts[n]);
        }
        Ok(TaskMapping { node_of, slot_of })
    }

    /// Checks structural invariants: slots within concentration, unique
    /// (node, slot) pairs.
    ///
    /// # Panics
    /// Panics on violation.
    pub fn validate(&self, machine: &BgqMachine) {
        let mut seen = std::collections::HashSet::new();
        for (r, (&n, &s)) in self.node_of.iter().zip(&self.slot_of).enumerate() {
            assert!(n < machine.torus().num_nodes());
            assert!(s < machine.concentration(), "rank {r} slot {s} too large");
            assert!(seen.insert((n, s)), "duplicate (node, slot) for rank {r}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;
    use rahtm_topology::Torus;

    fn toy() -> BgqMachine {
        BgqMachine::new(Torus::torus(&[2, 2]), 4, 4)
    }

    #[test]
    fn from_nodes_assigns_slots_in_order() {
        let m = toy();
        let map = TaskMapping::from_nodes(&m, vec![0, 0, 1, 0, 1]);
        assert_eq!(map.slot(0), 0);
        assert_eq!(map.slot(1), 1);
        assert_eq!(map.slot(2), 0);
        assert_eq!(map.slot(3), 2);
        assert_eq!(map.slot(4), 1);
        map.validate(&m);
    }

    #[test]
    #[should_panic]
    fn oversubscription_rejected() {
        let m = toy();
        TaskMapping::from_nodes(&m, vec![0; 5]);
    }

    #[test]
    fn abcdet_fills_nodes_in_order() {
        let m = toy();
        let map = TaskMapping::abcdet(&m, 16);
        assert_eq!(map.node(0), 0);
        assert_eq!(map.node(3), 0);
        assert_eq!(map.node(4), 1);
        assert_eq!(map.node(15), 3);
        map.validate(&m);
    }

    #[test]
    fn mapfile_roundtrip() {
        let m = toy();
        let map = TaskMapping::from_nodes(&m, vec![3, 1, 1, 0, 2, 2, 3, 0]);
        let text = map.to_bgq_mapfile(&m);
        let back = TaskMapping::from_bgq_mapfile(&m, &text).unwrap();
        assert_eq!(map, back);
    }

    #[test]
    fn mapfile_format_shape() {
        let m = toy();
        let map = TaskMapping::from_nodes(&m, vec![3]);
        // node 3 = coord (1,1), slot 0
        assert_eq!(map.to_bgq_mapfile(&m).trim(), "1 1 0");
    }

    #[test]
    fn mapfile_rejects_garbage() {
        let m = toy();
        assert!(TaskMapping::from_bgq_mapfile(&m, "1 1").is_err());
        assert!(TaskMapping::from_bgq_mapfile(&m, "9 9 0").is_err());
        assert!(TaskMapping::from_bgq_mapfile(&m, "a b c").is_err());
        // comments and blanks are fine
        assert!(TaskMapping::from_bgq_mapfile(&m, "# hi\n\n0 0 0\n").is_ok());
    }

    #[test]
    fn evaluation_delegates() {
        let m = toy();
        let g = patterns::ring(4, 2.0);
        let map = TaskMapping::from_nodes(&m, vec![0, 1, 3, 2]);
        assert!(map.mcl(&m, &g, Routing::UniformMinimal) > 0.0);
        assert!(map.hop_bytes(&m, &g) > 0.0);
        // all on one node: zero network traffic
        let local = TaskMapping::from_nodes(&m, vec![0, 0, 0, 0]);
        assert_eq!(local.mcl(&m, &g, Routing::UniformMinimal), 0.0);
    }

    #[test]
    fn ranks_by_node() {
        let m = toy();
        let map = TaskMapping::from_nodes(&m, vec![1, 0, 1, 2]);
        let by = map.ranks_by_node(&m);
        assert_eq!(by[0], vec![1]);
        assert_eq!(by[1], vec![0, 2]);
        assert_eq!(by[3], Vec::<Rank>::new());
    }
}
