//! Bandwidth-bound flow-level communication-time model.
//!
//! For the paper's benchmarks, per-iteration communication time is set by
//! the most contended link: every iteration all flows are in flight, and
//! the last byte through the bottleneck link finishes the phase. The model
//! therefore computes `MCL / link_bandwidth` and adds small latency terms
//! (per-message software overhead and per-hop latency of the longest
//! route) so latency-sensitive corner cases remain visible.

use rahtm_commgraph::CommGraph;
use rahtm_routing::{placement_loads, Routing};
use rahtm_topology::{NodeId, Torus};

/// Link/software parameters of the modeled machine. Units are arbitrary
/// but consistent: bytes, microseconds.
#[derive(Clone, Copy, Debug)]
pub struct CommTimeModel {
    /// Bytes per microsecond per unit-width link (BG/Q: 2 GB/s ≈ 2000
    /// bytes/µs per direction).
    pub link_bandwidth: f64,
    /// Per-node injection bandwidth (bytes/µs). BG/Q's messaging unit can
    /// feed all ten link transmitters, so the default is 10 link-widths.
    /// This term is what makes "spread everything off-node" orders (e.g.
    /// TABCDE) pay for the extra traffic they create.
    pub injection_bandwidth: f64,
    /// Fixed software overhead per message (µs).
    pub message_overhead: f64,
    /// Per-hop router latency (µs).
    pub hop_latency: f64,
}

impl Default for CommTimeModel {
    fn default() -> Self {
        CommTimeModel {
            link_bandwidth: 2000.0,
            injection_bandwidth: 20_000.0,
            message_overhead: 2.0,
            hop_latency: 0.04,
        }
    }
}

/// Breakdown of one iteration's communication time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommTimeBreakdown {
    /// Bottleneck-link serialization: MCL / link bandwidth.
    pub bandwidth_term: f64,
    /// Bottleneck-node injection: max off-node bytes sent / injection bw.
    pub injection_term: f64,
    /// Software overhead of the busiest rank's messages.
    pub overhead_term: f64,
    /// Longest-route latency.
    pub latency_term: f64,
    /// The MCL that produced the bandwidth term.
    pub mcl: f64,
}

impl CommTimeBreakdown {
    /// Total per-iteration communication time: the slower of the two
    /// serialization bottlenecks (they overlap in hardware) plus software
    /// overhead and route latency.
    pub fn total(&self) -> f64 {
        self.bandwidth_term.max(self.injection_term) + self.overhead_term + self.latency_term
    }
}

impl CommTimeModel {
    /// Communication time of one iteration of `graph` under `placement`
    /// and `routing`.
    pub fn comm_time(
        &self,
        topo: &Torus,
        graph: &CommGraph,
        placement: &[NodeId],
        routing: Routing,
    ) -> CommTimeBreakdown {
        let mcl = placement_loads(topo, graph, placement, routing).mcl(topo);
        // busiest rank's message count, busiest node's injected bytes
        let mut msgs = vec![0u32; graph.num_ranks() as usize];
        let mut injected = vec![0.0f64; topo.num_nodes() as usize];
        let mut max_hops = 0u32;
        for f in graph.flows() {
            let (s, d) = (placement[f.src as usize], placement[f.dst as usize]);
            if s != d {
                msgs[f.src as usize] += 1;
                injected[s as usize] += f.bytes;
                max_hops = max_hops.max(topo.distance(s, d));
            }
        }
        let max_msgs = msgs.iter().copied().max().unwrap_or(0);
        let max_injected = injected.iter().cloned().fold(0.0, f64::max);
        CommTimeBreakdown {
            bandwidth_term: mcl / self.link_bandwidth,
            injection_term: max_injected / self.injection_bandwidth,
            overhead_term: max_msgs as f64 * self.message_overhead,
            latency_term: max_hops as f64 * self.hop_latency,
            mcl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;

    #[test]
    fn zero_when_everything_local() {
        let topo = Torus::torus(&[2, 2]);
        let g = patterns::ring(4, 100.0);
        let model = CommTimeModel::default();
        let b = model.comm_time(&topo, &g, &[0, 0, 0, 0], Routing::UniformMinimal);
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.mcl, 0.0);
    }

    #[test]
    fn bandwidth_term_scales_with_mcl() {
        let topo = Torus::torus(&[4]);
        let g = patterns::ring(4, 2000.0);
        let model = CommTimeModel::default();
        let b = model.comm_time(&topo, &g, &[0, 1, 2, 3], Routing::UniformMinimal);
        assert!((b.bandwidth_term - 1.0).abs() < 1e-9, "{b:?}");
        let g2 = patterns::ring(4, 4000.0);
        let b2 = model.comm_time(&topo, &g2, &[0, 1, 2, 3], Routing::UniformMinimal);
        assert!((b2.bandwidth_term - 2.0).abs() < 1e-9);
    }

    #[test]
    fn better_mapping_means_less_time() {
        let topo = Torus::mesh(&[2, 2]);
        let g = patterns::figure1(100_000.0, 1000.0);
        let model = CommTimeModel::default();
        let adjacent = model
            .comm_time(&topo, &g, &[0, 1, 2, 3], Routing::UniformMinimal)
            .total();
        let diagonal = model
            .comm_time(&topo, &g, &[0, 3, 1, 2], Routing::UniformMinimal)
            .total();
        assert!(diagonal < adjacent);
    }

    #[test]
    fn injection_term_binds_for_scattered_traffic() {
        // one node sending to everyone far away: the NIC serializes even
        // though no network link is shared
        let topo = Torus::torus(&[8]);
        let mut g = CommGraph::new(8);
        for d in 1..8u32 {
            g.add(0, d, 100_000.0);
        }
        let model = CommTimeModel::default();
        let place: Vec<u32> = (0..8).collect();
        let b = model.comm_time(&topo, &g, &place, Routing::UniformMinimal);
        assert!((b.injection_term - 700_000.0 / model.injection_bandwidth).abs() < 1e-9);
        // total uses the max of the two serialization bottlenecks
        assert!(
            (b.total()
                - (b.bandwidth_term.max(b.injection_term) + b.overhead_term + b.latency_term))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn breakdown_totals() {
        let topo = Torus::torus(&[4, 4]);
        let g = patterns::transpose(4, 500.0);
        let model = CommTimeModel::default();
        let place: Vec<u32> = (0..16).collect();
        let b = model.comm_time(&topo, &g, &place, Routing::DimOrder);
        assert!(b.bandwidth_term > 0.0 && b.overhead_term > 0.0 && b.latency_term > 0.0);
        assert!((b.total() - (b.bandwidth_term + b.overhead_term + b.latency_term)).abs() < 1e-12);
    }
}
