//! Weighted directed communication graphs.
//!
//! A [`CommGraph`] is the paper's `G(A, W)`: vertices are MPI ranks (or,
//! after contraction, clusters) and each [`Flow`] `(s, d, l)` carries `l`
//! bytes per iteration from rank `s` to rank `d` (§III-C). Duplicate
//! `(s, d)` insertions accumulate, matching how profilers aggregate
//! repeated messages.

use std::collections::HashMap;

/// A process/cluster identifier (dense, `0 .. num_ranks`).
pub type Rank = u32;

/// One aggregated point-to-point flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Flow {
    /// Source rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Volume per iteration (bytes; any consistent unit works — RAHTM only
    /// uses relative volumes).
    pub bytes: f64,
}

/// A weighted directed communication graph.
#[derive(Clone, Debug, Default)]
pub struct CommGraph {
    num_ranks: u32,
    /// Aggregated flows in insertion order of first occurrence.
    flows: Vec<Flow>,
    /// Index from (src, dst) to position in `flows`.
    index: HashMap<(Rank, Rank), usize>,
}

impl CommGraph {
    /// An empty graph over `num_ranks` ranks.
    pub fn new(num_ranks: u32) -> Self {
        CommGraph {
            num_ranks,
            flows: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Number of ranks (vertices).
    #[inline]
    pub fn num_ranks(&self) -> u32 {
        self.num_ranks
    }

    /// Number of distinct (src, dst) flows.
    #[inline]
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Adds `bytes` of traffic from `src` to `dst`, accumulating onto any
    /// existing flow. Self-edges and non-positive volumes are ignored (they
    /// never traverse the network).
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or `bytes` is not finite.
    pub fn add(&mut self, src: Rank, dst: Rank, bytes: f64) {
        assert!(src < self.num_ranks && dst < self.num_ranks, "rank range");
        assert!(bytes.is_finite(), "non-finite volume");
        if src == dst || bytes <= 0.0 {
            return;
        }
        match self.index.entry((src, dst)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.flows[*e.get()].bytes += bytes;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.flows.len());
                self.flows.push(Flow { src, dst, bytes });
            }
        }
    }

    /// All flows.
    #[inline]
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Volume from `src` to `dst` (0 if absent).
    pub fn volume(&self, src: Rank, dst: Rank) -> f64 {
        self.index
            .get(&(src, dst))
            .map_or(0.0, |&i| self.flows[i].bytes)
    }

    /// Total traffic volume over all flows.
    pub fn total_volume(&self) -> f64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// Undirected volume between a pair: `vol(a,b) + vol(b,a)`.
    pub fn pair_volume(&self, a: Rank, b: Rank) -> f64 {
        self.volume(a, b) + self.volume(b, a)
    }

    /// Per-rank incident volumes, computed in one pass.
    pub fn rank_volumes(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.num_ranks as usize];
        for f in &self.flows {
            v[f.src as usize] += f.bytes;
            v[f.dst as usize] += f.bytes;
        }
        v
    }

    /// Returns the symmetrized graph: each unordered pair `{a,b}` carries
    /// the summed volume, split equally into both directions. RAHTM's MCL
    /// objective treats channel directions separately, but clustering and
    /// tiling decisions use undirected affinity.
    pub fn symmetrized(&self) -> CommGraph {
        let mut g = CommGraph::new(self.num_ranks);
        for f in &self.flows {
            let half = f.bytes / 2.0;
            g.add(f.src, f.dst, half);
            g.add(f.dst, f.src, half);
        }
        g
    }

    /// Scales every flow volume by `factor` (e.g. per-iteration → total).
    pub fn scaled(&self, factor: f64) -> CommGraph {
        assert!(factor.is_finite() && factor > 0.0);
        let mut g = self.clone();
        for f in &mut g.flows {
            f.bytes *= factor;
        }
        g
    }

    /// Restricts the graph to ranks in `members`, renumbering them
    /// `0..members.len()` in the order given. Flows with an endpoint
    /// outside `members` are dropped.
    pub fn induced(&self, members: &[Rank]) -> CommGraph {
        let remap: HashMap<Rank, Rank> = members
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i as Rank))
            .collect();
        assert_eq!(remap.len(), members.len(), "duplicate members");
        let mut g = CommGraph::new(members.len() as u32);
        for f in &self.flows {
            if let (Some(&s), Some(&d)) = (remap.get(&f.src), remap.get(&f.dst)) {
                g.add(s, d, f.bytes);
            }
        }
        g
    }

    /// Checks internal invariants (used by tests and after deserialization).
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-edges, non-positive volumes,
    /// or duplicate (src,dst) pairs.
    pub fn validate(&self) {
        let mut seen = std::collections::HashSet::new();
        for f in &self.flows {
            assert!(f.src < self.num_ranks && f.dst < self.num_ranks);
            assert!(f.src != f.dst, "self edge {}", f.src);
            assert!(f.bytes > 0.0 && f.bytes.is_finite());
            assert!(seen.insert((f.src, f.dst)), "duplicate flow");
        }
    }

    /// Hop-bytes of this graph under a node mapping and topology distance
    /// function: `Σ_flows bytes × distance(map(src), map(dst))` — the
    /// routing-*unaware* metric the paper argues against (§III-A).
    pub fn hop_bytes(&self, place: impl Fn(Rank) -> u32, dist: impl Fn(u32, u32) -> u32) -> f64 {
        self.flows
            .iter()
            .map(|f| f.bytes * dist(place(f.src), place(f.dst)) as f64)
            .sum()
    }
}

impl PartialEq for CommGraph {
    fn eq(&self, other: &Self) -> bool {
        if self.num_ranks != other.num_ranks || self.flows.len() != other.flows.len() {
            return false;
        }
        // Order-insensitive comparison of aggregated flows.
        self.flows
            .iter()
            .all(|f| (other.volume(f.src, f.dst) - f.bytes).abs() <= 1e-9 * f.bytes.abs().max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut g = CommGraph::new(4);
        g.add(0, 1, 10.0);
        g.add(0, 1, 5.0);
        g.add(1, 0, 2.0);
        assert_eq!(g.num_flows(), 2);
        assert_eq!(g.volume(0, 1), 15.0);
        assert_eq!(g.volume(1, 0), 2.0);
        assert_eq!(g.pair_volume(0, 1), 17.0);
        g.validate();
    }

    #[test]
    fn self_edges_ignored() {
        let mut g = CommGraph::new(2);
        g.add(1, 1, 100.0);
        g.add(0, 1, 0.0);
        assert_eq!(g.num_flows(), 0);
        assert_eq!(g.total_volume(), 0.0);
    }

    #[test]
    fn rank_volumes_sum() {
        let mut g = CommGraph::new(3);
        g.add(0, 1, 3.0);
        g.add(1, 2, 4.0);
        let v = g.rank_volumes();
        assert_eq!(v, vec![3.0, 7.0, 4.0]);
    }

    #[test]
    fn symmetrize_preserves_total() {
        let mut g = CommGraph::new(3);
        g.add(0, 1, 8.0);
        g.add(2, 0, 4.0);
        let s = g.symmetrized();
        assert!((s.total_volume() - g.total_volume()).abs() < 1e-12);
        assert_eq!(s.volume(0, 1), 4.0);
        assert_eq!(s.volume(1, 0), 4.0);
        s.validate();
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let mut g = CommGraph::new(5);
        g.add(1, 3, 7.0);
        g.add(3, 4, 2.0);
        g.add(0, 1, 9.0);
        let sub = g.induced(&[3, 1]);
        assert_eq!(sub.num_ranks(), 2);
        assert_eq!(sub.num_flows(), 1);
        assert_eq!(sub.volume(1, 0), 7.0); // 1->3 becomes 1->0
        sub.validate();
    }

    #[test]
    fn hop_bytes_metric() {
        let mut g = CommGraph::new(2);
        g.add(0, 1, 10.0);
        // both on same node -> 0; distance 3 -> 30
        assert_eq!(g.hop_bytes(|_| 0, |_, _| 0), 0.0);
        assert_eq!(g.hop_bytes(|r| r, |a, b| if a != b { 3 } else { 0 }), 30.0);
    }

    #[test]
    fn scaled() {
        let mut g = CommGraph::new(2);
        g.add(0, 1, 2.0);
        assert_eq!(g.scaled(3.0).volume(0, 1), 6.0);
    }

    #[test]
    fn eq_is_order_insensitive() {
        let mut a = CommGraph::new(3);
        a.add(0, 1, 1.0);
        a.add(1, 2, 2.0);
        let mut b = CommGraph::new(3);
        b.add(1, 2, 2.0);
        b.add(0, 1, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let mut g = CommGraph::new(2);
        g.add(0, 2, 1.0);
    }
}
