//! Iterative-application execution-time model (Figures 8 and 9).
//!
//! The paper's benchmarks alternate computation and communication phases.
//! RAHTM only accelerates communication, so overall speedup is damped by
//! Amdahl's law: CG (≈72 % communication) gains the most, BT/SP (≈35 %)
//! the least. We calibrate the computation phase from a *reference
//! mapping* (the ABCDET default) so the communication fraction under that
//! mapping matches the benchmark's measured fraction; every other mapping
//! is then evaluated with the same fixed computation time and its own
//! communication time — exactly how Figures 8–10 relate.

use crate::flowmodel::{CommTimeBreakdown, CommTimeModel};
use rahtm_commgraph::CommGraph;
use rahtm_routing::Routing;
use rahtm_topology::{NodeId, Torus};

/// A calibrated application model.
#[derive(Clone, Debug)]
pub struct AppModel {
    /// Per-iteration computation time (µs), fixed across mappings.
    pub comp_time: f64,
    /// Main-loop iteration count.
    pub iterations: u32,
    /// Communication-time parameters.
    pub comm_model: CommTimeModel,
    /// Routing model for evaluation.
    pub routing: Routing,
}

/// Execution-time breakdown for one mapping.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecutionBreakdown {
    /// Total execution time (µs).
    pub total: f64,
    /// Communication part (µs).
    pub comm: f64,
    /// Computation part (µs).
    pub comp: f64,
    /// The mapping's MCL under the model's routing, as routed for the
    /// communication part ([`crate::CommTimeBreakdown::mcl`]).
    pub mcl: f64,
}

impl ExecutionBreakdown {
    /// Fraction of time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.comm / self.total
        }
    }
}

impl AppModel {
    /// Calibrates a model so that, under `reference_placement`, the
    /// benchmark spends `comm_fraction` of its time communicating (the
    /// Figure 9 measurement).
    ///
    /// # Panics
    /// Panics if `comm_fraction` is outside `(0, 1)` or the reference
    /// mapping produces zero communication time.
    pub fn calibrated(
        topo: &Torus,
        graph: &CommGraph,
        reference_placement: &[NodeId],
        comm_fraction: f64,
        iterations: u32,
        comm_model: CommTimeModel,
        routing: Routing,
    ) -> AppModel {
        let reference = comm_model.comm_time(topo, graph, reference_placement, routing);
        AppModel::from_reference(&reference, comm_fraction, iterations, comm_model, routing)
    }

    /// [`AppModel::calibrated`] on a reference mapping's already routed
    /// per-iteration communication time, so a caller that also needs the
    /// reference's own breakdown ([`AppModel::breakdown`]) routes it once.
    ///
    /// # Panics
    /// Panics if `comm_fraction` is outside `(0, 1)` or `reference` has
    /// zero communication time.
    pub fn from_reference(
        reference: &CommTimeBreakdown,
        comm_fraction: f64,
        iterations: u32,
        comm_model: CommTimeModel,
        routing: Routing,
    ) -> AppModel {
        assert!(comm_fraction > 0.0 && comm_fraction < 1.0);
        let comm = reference.total();
        assert!(comm > 0.0, "reference mapping has no communication");
        let comp_time = comm * (1.0 - comm_fraction) / comm_fraction;
        AppModel {
            comp_time,
            iterations,
            comm_model,
            routing,
        }
    }

    /// Evaluates a mapping: total/communication/computation time.
    pub fn execute(
        &self,
        topo: &Torus,
        graph: &CommGraph,
        placement: &[NodeId],
    ) -> ExecutionBreakdown {
        self.breakdown(
            &self
                .comm_model
                .comm_time(topo, graph, placement, self.routing),
        )
    }

    /// [`AppModel::execute`] on a mapping's already routed per-iteration
    /// communication time (`self.comm_model` under `self.routing`).
    pub fn breakdown(&self, comm_iter: &CommTimeBreakdown) -> ExecutionBreakdown {
        let comm = comm_iter.total() * self.iterations as f64;
        let comp = self.comp_time * self.iterations as f64;
        ExecutionBreakdown {
            total: comm + comp,
            comm,
            comp,
            mcl: comm_iter.mcl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;

    fn setup() -> (Torus, CommGraph, Vec<NodeId>) {
        let topo = Torus::torus(&[4, 4]);
        let g = patterns::transpose(4, 10_000.0);
        let place: Vec<NodeId> = (0..16).collect();
        (topo, g, place)
    }

    #[test]
    fn calibration_reproduces_fraction() {
        let (topo, g, place) = setup();
        let m = AppModel::calibrated(
            &topo,
            &g,
            &place,
            0.7,
            10,
            CommTimeModel::default(),
            Routing::UniformMinimal,
        );
        let e = m.execute(&topo, &g, &place);
        assert!((e.comm_fraction() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn amdahl_damping() {
        // halving communication time yields overall speedup of
        // 1/(1-f+f/2); check the relation holds in the model
        let (topo, g, place) = setup();
        for f in [0.35, 0.72] {
            let m = AppModel::calibrated(
                &topo,
                &g,
                &place,
                f,
                1,
                CommTimeModel::default(),
                Routing::UniformMinimal,
            );
            let base = m.execute(&topo, &g, &place);
            // all-local "mapping": comm = 0 -> ideal Amdahl limit
            let local = m.execute(&topo, &g, &[0; 16]);
            let speedup = base.total / local.total;
            assert!((speedup - 1.0 / (1.0 - f)).abs() < 1e-9);
        }
    }

    #[test]
    fn cg_gains_more_than_bt_for_same_comm_reduction() {
        // the Figure 8 vs Figure 10 relation: same relative communication
        // improvement, bigger overall win at higher communication fraction
        let (topo, g, place) = setup();
        let better: Vec<NodeId> = {
            // a genuinely better placement for transpose on a torus
            (0..16u32)
                .map(|r| {
                    let (i, j) = (r / 4, r % 4);
                    // pair (i,j) and (j,i) land close: interleave
                    topo.node_id(&rahtm_topology::Coord::new(&[
                        ((i + j) % 4) as u16,
                        j as u16,
                    ]))
                })
                .collect()
        };
        let rel_overall = |f: f64| {
            let m = AppModel::calibrated(
                &topo,
                &g,
                &place,
                f,
                1,
                CommTimeModel::default(),
                Routing::UniformMinimal,
            );
            let base = m.execute(&topo, &g, &place).total;
            let new = m.execute(&topo, &g, &better).total;
            new / base
        };
        let bt = rel_overall(0.34);
        let cg = rel_overall(0.72);
        // the better mapping helps; CG's overall ratio improves more
        if rel_overall(0.72) < 1.0 {
            assert!(cg < bt, "cg {cg} should improve more than bt {bt}");
        }
    }

    #[test]
    fn iterations_scale_linearly() {
        let (topo, g, place) = setup();
        let mk = |iters| AppModel {
            comp_time: 5.0,
            iterations: iters,
            comm_model: CommTimeModel::default(),
            routing: Routing::UniformMinimal,
        };
        let e1 = mk(1).execute(&topo, &g, &place);
        let e10 = mk(10).execute(&topo, &g, &place);
        assert!((e10.total - 10.0 * e1.total).abs() < 1e-9);
    }
}
