//! Packet-granularity discrete-event torus simulator.
//!
//! A deliberately small but honest network simulator: messages packetize,
//! packets serialize over directed channels (store-and-forward with
//! per-channel FIFO occupancy), and routing is either dimension-order or
//! congestion-aware minimal-adaptive (pick the productive channel that
//! frees earliest — a faithful abstraction of BG/Q's minimum adaptive
//! routing). The simulator validates the paper's core premise: mappings
//! with lower MCL deliver a communication phase faster.
//!
//! Determinism: events tie-break on a monotonically assigned sequence
//! number, and the adaptive choice tie-breaks on dimension index, so runs
//! are exactly reproducible.

use rahtm_commgraph::CommGraph;
use rahtm_topology::{Direction, NodeId, Torus};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Routing policy of the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DesRouting {
    /// Deterministic dimension order (ascending; positive on torus ties).
    DimOrder,
    /// Minimal adaptive: among productive channels choose the one that
    /// frees earliest (congestion-aware), dimension index breaking ties.
    MinimalAdaptive,
}

/// Simulator parameters.
#[derive(Clone, Copy, Debug)]
pub struct DesConfig {
    /// Packet payload size (bytes).
    pub packet_bytes: f64,
    /// Channel bandwidth (bytes/µs per unit width).
    pub link_bandwidth: f64,
    /// Per-hop latency added after serialization (µs).
    pub hop_latency: f64,
    /// Injection bandwidth at each NIC (bytes/µs).
    pub injection_bandwidth: f64,
    /// Routing policy.
    pub routing: DesRouting,
}

impl Default for DesConfig {
    fn default() -> Self {
        DesConfig {
            packet_bytes: 512.0,
            link_bandwidth: 2000.0,
            hop_latency: 0.04,
            injection_bandwidth: 4000.0,
            routing: DesRouting::MinimalAdaptive,
        }
    }
}

/// Result of simulating one communication phase.
#[derive(Clone, Debug)]
pub struct DesResult {
    /// Time the last packet arrived (µs).
    pub makespan: f64,
    /// Mean packet delivery time (µs).
    pub mean_packet_time: f64,
    /// Packets simulated.
    pub packets: usize,
    /// Total hops traversed by all packets.
    pub total_hops: u64,
    /// Bytes carried by each directed channel slot (indexed like
    /// [`Torus::channel_id`]). This is the simulator's observed channel
    /// load — the empirical counterpart of the oblivious flow model's
    /// [`ChannelLoads`](rahtm_routing::ChannelLoads).
    pub channel_bytes: Vec<f64>,
}

impl DesResult {
    /// The heaviest observed channel load (bytes) — the DES analogue of
    /// the flow model's MCL.
    pub fn max_channel_bytes(&self) -> f64 {
        self.channel_bytes.iter().copied().fold(0.0, f64::max)
    }

    /// Total bytes carried across all channels (= Σ per-hop bytes).
    pub fn total_channel_bytes(&self) -> f64 {
        self.channel_bytes.iter().sum()
    }
}

#[derive(Debug)]
struct Event {
    time: f64,
    seq: u64,
    packet: usize,
    node: NodeId,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap via reversed comparison
        other
            .time
            .partial_cmp(&self.time)
            .unwrap()
            .then(other.seq.cmp(&self.seq))
    }
}

struct Packet {
    dst: NodeId,
    bytes: f64,
    injected: f64,
    delivered: Option<f64>,
    hops: u32,
}

/// Simulates delivering every flow of `graph` (placed by `placement`)
/// once, all messages injected at time zero.
///
/// # Panics
/// Panics if `placement.len() != graph.num_ranks()`.
pub fn simulate_phase(
    topo: &Torus,
    graph: &CommGraph,
    placement: &[NodeId],
    cfg: &DesConfig,
) -> DesResult {
    assert_eq!(placement.len(), graph.num_ranks() as usize);
    let mut packets: Vec<Packet> = Vec::new();
    let mut heap: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    // per-node NIC availability for injection serialization
    let mut nic_free = vec![0.0f64; topo.num_nodes() as usize];
    for f in graph.flows() {
        let (src, dst) = (placement[f.src as usize], placement[f.dst as usize]);
        if src == dst {
            continue;
        }
        let n_packets = (f.bytes / cfg.packet_bytes).ceil().max(1.0) as usize;
        let mut remaining = f.bytes;
        for _ in 0..n_packets {
            let bytes = remaining.min(cfg.packet_bytes);
            remaining -= bytes;
            let inject_time = {
                let t = nic_free[src as usize];
                nic_free[src as usize] = t + bytes / cfg.injection_bandwidth;
                t
            };
            let id = packets.len();
            packets.push(Packet {
                dst,
                bytes,
                injected: inject_time,
                delivered: None,
                hops: 0,
            });
            heap.push(Event {
                time: inject_time,
                seq,
                packet: id,
                node: src,
            });
            seq += 1;
        }
    }
    // per-channel-slot next-free time and carried bytes
    let mut chan_free = vec![0.0f64; topo.num_channel_slots()];
    let mut channel_bytes = vec![0.0f64; topo.num_channel_slots()];

    while let Some(ev) = heap.pop() {
        let p = &mut packets[ev.packet];
        if ev.node == p.dst {
            p.delivered = Some(ev.time);
            continue;
        }
        // productive moves
        let disp = topo.displacement(ev.node, p.dst);
        let mut choice: Option<(usize, Direction, f64)> = None; // dim, dir, free
        for (dim, &(delta, tie)) in disp.iter().enumerate() {
            if delta == 0 {
                continue;
            }
            let dirs: &[Direction] = if tie {
                &[Direction::Plus, Direction::Minus]
            } else if delta > 0 {
                &[Direction::Plus]
            } else {
                &[Direction::Minus]
            };
            for &dir in dirs {
                let ch = topo
                    .channel_id(ev.node, dim, dir)
                    .expect("productive channel must exist");
                let free = chan_free[ch as usize];
                match cfg.routing {
                    DesRouting::DimOrder => {
                        // first productive dimension, positive preferred
                        if choice.is_none() {
                            choice = Some((dim, dir, free));
                        }
                    }
                    DesRouting::MinimalAdaptive => {
                        let better = match choice {
                            None => true,
                            Some((_, _, bf)) => free < bf - 1e-12,
                        };
                        if better {
                            choice = Some((dim, dir, free));
                        }
                    }
                }
            }
            if cfg.routing == DesRouting::DimOrder && choice.is_some() {
                break;
            }
        }
        let (dim, dir, free) = choice.expect("undelivered packet must have a move");
        let ch = topo.channel_id(ev.node, dim, dir).unwrap();
        let width = topo.dim_width(dim);
        let start = ev.time.max(free);
        let service = packets[ev.packet].bytes / (cfg.link_bandwidth * width);
        let depart = start + service;
        chan_free[ch as usize] = depart;
        channel_bytes[ch as usize] += packets[ev.packet].bytes;
        let next = topo.step(ev.node, dim, dir);
        packets[ev.packet].hops += 1;
        heap.push(Event {
            time: depart + cfg.hop_latency,
            seq,
            packet: ev.packet,
            node: next,
        });
        seq += 1;
    }

    let mut makespan = 0.0f64;
    let mut sum = 0.0f64;
    let mut total_hops = 0u64;
    for p in &packets {
        let t = p.delivered.expect("all packets must be delivered");
        makespan = makespan.max(t);
        sum += t - p.injected;
        total_hops += p.hops as u64;
    }
    DesResult {
        makespan,
        mean_packet_time: if packets.is_empty() {
            0.0
        } else {
            sum / packets.len() as f64
        },
        packets: packets.len(),
        total_hops,
        channel_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;
    use rahtm_commgraph::CommGraph;

    fn one_flow(n: u32, src: u32, dst: u32, bytes: f64) -> CommGraph {
        let mut g = CommGraph::new(n);
        g.add(src, dst, bytes);
        g
    }

    #[test]
    fn single_packet_time_is_serialization_plus_latency() {
        let topo = Torus::mesh(&[4]);
        let g = one_flow(4, 0, 3, 512.0);
        let cfg = DesConfig::default();
        let place: Vec<u32> = (0..4).collect();
        let r = simulate_phase(&topo, &g, &place, &cfg);
        assert_eq!(r.packets, 1);
        assert_eq!(r.total_hops, 3);
        let expect = 3.0 * (512.0 / 2000.0 + cfg.hop_latency);
        assert!(
            (r.makespan - expect).abs() < 1e-9,
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn all_packets_delivered() {
        let topo = Torus::torus(&[4, 4]);
        let g = patterns::halo_2d(4, 4, 2048.0, true);
        let place: Vec<u32> = (0..16).collect();
        let r = simulate_phase(&topo, &g, &place, &DesConfig::default());
        assert_eq!(r.packets, 64 * 4);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn contention_slows_delivery() {
        let topo = Torus::mesh(&[2]);
        // two flows over the same link vs one flow
        let g1 = one_flow(2, 0, 1, 5120.0);
        let mut g2 = CommGraph::new(4);
        g2.add(0, 1, 5120.0);
        g2.add(2, 3, 5120.0);
        let r1 = simulate_phase(&topo, &g1, &[0, 1], &DesConfig::default());
        let r2 = simulate_phase(&topo, &g2, &[0, 1, 0, 1], &DesConfig::default());
        assert!(
            r2.makespan > r1.makespan * 1.5,
            "{} vs {}",
            r2.makespan,
            r1.makespan
        );
    }

    #[test]
    fn adaptive_beats_dor_under_contention() {
        // two heavy diagonal flows on a 2x2 mesh: DOR piles both onto the
        // same links; adaptive spreads over both minimal paths
        let topo = Torus::mesh(&[2, 2]);
        let mut g = CommGraph::new(4);
        g.add(0, 3, 51200.0);
        g.add(3, 0, 51200.0);
        let place: Vec<u32> = (0..4).collect();
        let adaptive = simulate_phase(
            &topo,
            &g,
            &place,
            &DesConfig {
                routing: DesRouting::MinimalAdaptive,
                ..Default::default()
            },
        );
        let dor = simulate_phase(
            &topo,
            &g,
            &place,
            &DesConfig {
                routing: DesRouting::DimOrder,
                ..Default::default()
            },
        );
        assert!(
            adaptive.makespan < dor.makespan,
            "adaptive {} vs dor {}",
            adaptive.makespan,
            dor.makespan
        );
    }

    #[test]
    fn lower_mcl_mapping_delivers_faster() {
        // figure-1: diagonal placement (lower MCL under MAR) must finish
        // the phase faster than adjacent placement in the simulator too
        let topo = Torus::mesh(&[2, 2]);
        let g = patterns::figure1(102400.0, 1024.0);
        let adjacent = simulate_phase(&topo, &g, &[0, 1, 2, 3], &DesConfig::default());
        let diagonal = simulate_phase(&topo, &g, &[0, 3, 1, 2], &DesConfig::default());
        assert!(
            diagonal.makespan < adjacent.makespan,
            "diag {} vs adj {}",
            diagonal.makespan,
            adjacent.makespan
        );
    }

    #[test]
    fn deterministic() {
        let topo = Torus::torus(&[4, 4]);
        let g = patterns::random(16, 60, 100.0, 4096.0, 5);
        let place: Vec<u32> = (0..16).rev().collect();
        let a = simulate_phase(&topo, &g, &place, &DesConfig::default());
        let b = simulate_phase(&topo, &g, &place, &DesConfig::default());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_hops, b.total_hops);
    }

    #[test]
    fn torus_tie_uses_both_directions_adaptively() {
        let topo = Torus::torus(&[4]);
        // 0 -> 2 ties; with enough packets both directions get used, which
        // shows up as a makespan below the single-path bound
        let g = one_flow(4, 0, 2, 10240.0); // 20 packets
        let r = simulate_phase(&topo, &g, &[0, 1, 2, 3], &DesConfig::default());
        // single path bound: 20 packets x 0.256us serialization over the
        // first link + 2 hops latency etc. Split halves the serialization.
        let single_path_bound = 20.0 * (512.0 / 2000.0);
        assert!(
            r.makespan < single_path_bound,
            "makespan {} should beat single-path serialization {}",
            r.makespan,
            single_path_bound
        );
    }

    #[test]
    fn channel_bytes_track_every_traversal() {
        let topo = Torus::mesh(&[4]);
        let g = one_flow(4, 0, 3, 512.0);
        let r = simulate_phase(&topo, &g, &[0, 1, 2, 3], &DesConfig::default());
        // one 512-byte packet crossing 3 links: 3 channels carry 512 bytes
        assert_eq!(r.max_channel_bytes(), 512.0);
        assert_eq!(r.total_channel_bytes(), 3.0 * 512.0);
        assert_eq!(r.channel_bytes.iter().filter(|&&b| b > 0.0).count(), 3);
    }

    #[test]
    fn empty_graph_zero_makespan() {
        let topo = Torus::torus(&[4, 4]);
        let g = CommGraph::new(16);
        let place: Vec<u32> = (0..16).collect();
        let r = simulate_phase(&topo, &g, &place, &DesConfig::default());
        assert_eq!(r.packets, 0);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.mean_packet_time, 0.0);
    }

    #[test]
    fn five_dim_bgq_partition_runs() {
        // the full Mira node-level shape with a benchmark-like pattern
        let topo = Torus::torus(&[4, 4, 4, 4, 2]);
        let g = patterns::random(512, 1000, 512.0, 4096.0, 77);
        let place: Vec<u32> = (0..512).collect();
        let r = simulate_phase(&topo, &g, &place, &DesConfig::default());
        assert!(r.packets >= 1000);
        assert!(r.makespan > 0.0);
        // hop conservation: total hops >= packets (every packet moves)
        assert!(r.total_hops >= r.packets as u64);
    }

    #[test]
    fn injection_serializes_per_source() {
        // many messages from ONE source to distinct destinations: NIC
        // injection binds even though network links are disjoint
        let topo = Torus::torus(&[8]);
        let mut g = CommGraph::new(8);
        for d in 1..8 {
            g.add(0, d, 4096.0);
        }
        let place: Vec<u32> = (0..8).collect();
        let cfg = DesConfig::default();
        let r = simulate_phase(&topo, &g, &place, &cfg);
        // injection floor: 7 x 4096 bytes / injection bandwidth
        let floor = 7.0 * 4096.0 / cfg.injection_bandwidth;
        assert!(
            r.makespan >= floor - 1e-9,
            "makespan {} below injection floor {floor}",
            r.makespan
        );
    }

    #[test]
    fn wider_links_serve_faster() {
        let plain = Torus::mesh(&[2]);
        let wide = Torus::two_ary_root(1); // double-wide
        let g = one_flow(2, 0, 1, 10240.0);
        let cfg = DesConfig::default();
        let r1 = simulate_phase(&plain, &g, &[0, 1], &cfg);
        let r2 = simulate_phase(&wide, &g, &[0, 1], &cfg);
        assert!(r2.makespan < r1.makespan);
    }
}
