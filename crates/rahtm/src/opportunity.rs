//! Mapping-opportunity prediction (§VI, "Predictability of Opportunity").
//!
//! RAHTM's offline mapping can take hours, so the paper suggests cheap
//! qualitative criteria to decide whether a workload is worth the effort:
//! "applications with heavy, distant communication seem to offer more
//! opportunity. (Heavy, but largely local communication is relatively
//! easy to handle, even for the baseline.)" This module quantifies those
//! criteria under the machine's *default* mapping:
//!
//! * **load imbalance** — MCL divided by mean channel load. A perfectly
//!   balanced network (ratio ≈ 1) leaves a mapper nothing to fix; a large
//!   ratio is headroom.
//! * **distant-heavy fraction** — the share of traffic volume traveling
//!   more than `distant_hops` hops. Local traffic is already cheap.
//!
//! The combined [`OpportunityReport::score`] is imbalance-dominated (it is
//! the quantity MCL-minimizing mapping directly attacks) and is validated
//! in the test suite against actual RAHTM outcomes: BT/SP/CG all score
//! high, an already-balanced workload scores ≈ 1.

use crate::mapping::TaskMapping;
use rahtm_commgraph::CommGraph;
use rahtm_routing::{placement_loads, Routing};
use rahtm_topology::BgqMachine;

/// Assessment of how much a workload can gain from remapping.
#[derive(Clone, Copy, Debug)]
pub struct OpportunityReport {
    /// MCL / mean channel load under the default mapping (≥ 1).
    pub imbalance: f64,
    /// Fraction of off-node volume traveling further than the distance
    /// threshold.
    pub distant_heavy_fraction: f64,
    /// Fraction of total volume that is off-node at all under the default
    /// mapping.
    pub off_node_fraction: f64,
}

impl OpportunityReport {
    /// A single opportunity score: the imbalance, damped by how much
    /// traffic is actually on the network. 1.0 ≈ nothing to gain.
    pub fn score(&self) -> f64 {
        1.0 + (self.imbalance - 1.0) * self.off_node_fraction
    }

    /// The paper's qualitative cut: is offline mapping likely worth hours
    /// of compute?
    pub fn worth_mapping(&self) -> bool {
        self.score() > 1.25 && self.distant_heavy_fraction > 0.05
    }
}

/// Assesses `graph`'s remapping opportunity on `machine` under the default
/// (ABCDET-style) mapping, counting traffic beyond `distant_hops` hops as
/// "distant".
///
/// # Panics
/// Panics if the rank count does not fill the machine uniformly.
pub fn assess(
    machine: &BgqMachine,
    graph: &CommGraph,
    distant_hops: u32,
    routing: Routing,
) -> OpportunityReport {
    let topo = machine.torus();
    let default = TaskMapping::abcdet(machine, graph.num_ranks());
    let place = default.nodes();
    let loads = placement_loads(topo, graph, place, routing);
    let mcl = loads.mcl(topo);
    let mean = loads.mean_loaded(topo);
    let imbalance = if mean > 0.0 { mcl / mean } else { 1.0 };
    let mut off_node = 0.0;
    let mut distant = 0.0;
    for f in graph.flows() {
        let (s, d) = (place[f.src as usize], place[f.dst as usize]);
        if s != d {
            off_node += f.bytes;
            if topo.distance(s, d) > distant_hops {
                distant += f.bytes;
            }
        }
    }
    let total = graph.total_volume();
    OpportunityReport {
        imbalance,
        distant_heavy_fraction: if off_node > 0.0 {
            distant / off_node
        } else {
            0.0
        },
        off_node_fraction: if total > 0.0 { off_node / total } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::{patterns, Benchmark};
    use rahtm_topology::Torus;

    fn micro() -> BgqMachine {
        BgqMachine::new(Torus::torus(&[4, 4]), 4, 4)
    }

    #[test]
    fn benchmarks_show_opportunity() {
        let m = micro();
        for bench in Benchmark::all() {
            let g = bench.graph(64);
            let r = assess(&m, &g, 1, Routing::UniformMinimal);
            assert!(
                r.worth_mapping(),
                "{} should look mappable: {r:?}",
                bench.name()
            );
        }
    }

    #[test]
    fn all_local_traffic_scores_one() {
        // ring of 64 ranks: with concentration 4, most of the ring is
        // on-node or nearest-neighbor — tiny opportunity
        let m = micro();
        let g = patterns::ring(64, 100.0);
        let r = assess(&m, &g, 1, Routing::UniformMinimal);
        assert!(r.off_node_fraction < 0.5);
        assert!(
            r.score() < 2.0,
            "a default-friendly ring shouldn't look like a jackpot: {r:?}"
        );
    }

    #[test]
    fn score_tracks_actual_rahtm_gain_direction() {
        // the workload the assessor likes more should gain at least as
        // much from RAHTM
        use crate::pipeline::{RahtmConfig, RahtmMapper};
        let m = micro();
        let ring = patterns::ring(64, 100.0);
        let cg = Benchmark::Cg.graph(64);
        let score = |g: &CommGraph| assess(&m, g, 1, Routing::UniformMinimal).score();
        let gain = |g: &CommGraph| {
            let res = RahtmMapper::new(RahtmConfig::fast()).map(&m, g, None);
            let def = TaskMapping::abcdet(&m, 64).mcl(&m, g, Routing::UniformMinimal);
            def / res.mapping.mcl(&m, g, Routing::UniformMinimal).max(1e-12)
        };
        assert!(score(&cg) > score(&ring));
        assert!(gain(&cg) >= gain(&ring) * 0.9, "direction must agree");
    }

    #[test]
    fn empty_graph_is_safe() {
        let m = micro();
        let g = CommGraph::new(64);
        let r = assess(&m, &g, 1, Routing::UniformMinimal);
        assert_eq!(r.score(), 1.0);
        assert!(!r.worth_mapping());
    }
}
