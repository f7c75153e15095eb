//! The adapted Hilbert-order mapping (§IV).
//!
//! Hilbert curves are defined on square power-of-two spaces, so the paper
//! applies the curve to the four equal 4-node dimensions of Mira (A–D) and
//! traverses the remaining dimensions (E, then the core slot T) in plain
//! dimension order. We generalize: the curve runs over the largest group
//! of dimensions sharing the machine's most common power-of-two extent;
//! all other dimensions plus T form the inner dimension-order counter.

use rahtm_topology::{hilbert, BgqMachine, Coord, NodeId};

/// Maps ranks along a Hilbert curve over the machine's uniform
/// power-of-two dimensions, with remaining dimensions + core slot varying
/// fastest (dimension order).
///
/// # Panics
/// Panics if `num_ranks` exceeds the machine's slots or no dimension has a
/// power-of-two extent ≥ 2.
pub fn hilbert_mapping(machine: &BgqMachine, num_ranks: u32) -> Vec<NodeId> {
    let topo = machine.torus();
    assert!(num_ranks as u64 <= machine.num_process_slots());
    // pick the modal power-of-two extent >= 2
    let mut counts = std::collections::BTreeMap::new();
    for d in 0..topo.ndims() {
        let k = topo.dim(d);
        if k >= 2 && k.is_power_of_two() {
            *counts.entry(k).or_insert(0usize) += 1;
        }
    }
    let side = counts
        .into_iter()
        .max_by_key(|&(k, c)| (c, k))
        .map(|(k, _)| k)
        .expect("machine has no power-of-two dimension for a Hilbert curve");
    let bits = side.trailing_zeros();
    let curve_dims: Vec<usize> = (0..topo.ndims()).filter(|&d| topo.dim(d) == side).collect();
    let rest_dims: Vec<usize> = (0..topo.ndims()).filter(|&d| topo.dim(d) != side).collect();
    // inner counter: rest dims in order, then T (fastest)
    let mut inner_radix: Vec<u64> = rest_dims.iter().map(|&d| topo.dim(d) as u64).collect();
    inner_radix.push(machine.concentration() as u64);
    let inner_size: u64 = inner_radix.iter().product();

    (0..num_ranks)
        .map(|r| {
            let h = r as u64 / inner_size; // Hilbert index (slowest)
            let mut rem = r as u64 % inner_size;
            let mut inner = vec![0u64; inner_radix.len()];
            for i in (0..inner_radix.len()).rev() {
                inner[i] = rem % inner_radix[i];
                rem /= inner_radix[i];
            }
            let hc = hilbert::index_to_coord(h as u128, curve_dims.len(), bits);
            let mut c = Coord::zero(topo.ndims());
            for (i, &d) in curve_dims.iter().enumerate() {
                c.set(d, hc.get(i));
            }
            for (i, &d) in rest_dims.iter().enumerate() {
                c.set(d, inner[i] as u16);
            }
            topo.node_id(&c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_topology::Torus;

    #[test]
    fn mira_hilbert_covers_all_nodes_evenly() {
        let m = BgqMachine::mira_512();
        let map = hilbert_mapping(&m, 16384);
        let mut counts = vec![0u32; 512];
        for &n in &map {
            counts[n as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 32));
    }

    #[test]
    fn consecutive_rank_groups_are_adjacent_in_curve_space() {
        // with concentration c and E extent 2, groups of c*2 ranks advance
        // the Hilbert index by one; consecutive curve nodes are 1 hop apart
        let m = BgqMachine::mira_512();
        let inner = 32 * 2; // T * E
        let map = hilbert_mapping(&m, 16384);
        let topo = m.torus();
        for g in 0..(16384 / inner) - 1 {
            let a = map[(g * inner) as usize];
            let b = map[((g + 1) * inner) as usize];
            let (ca, cb) = (topo.coord(a), topo.coord(b));
            // distance over the ABCD dims must be exactly 1 (mesh sense)
            let d: u32 = (0..4)
                .map(|dd| (ca.get(dd) as i32 - cb.get(dd) as i32).unsigned_abs())
                .sum();
            assert_eq!(d, 1, "group {g}: {ca:?} -> {cb:?}");
        }
    }

    #[test]
    fn inner_counter_varies_t_fastest() {
        let m = BgqMachine::mira_512();
        let map = hilbert_mapping(&m, 64);
        // first 32 ranks: same node (T varies), then E advances
        assert!(map[..32].iter().all(|&n| n == map[0]));
        assert_ne!(map[32], map[0]);
        let (c0, c1) = (m.torus().coord(map[0]), m.torus().coord(map[32]));
        assert_eq!(c1.get(4), c0.get(4) + 1, "E advances second");
    }

    #[test]
    fn uniform_square_machine() {
        let m = BgqMachine::new(Torus::torus(&[4, 4]), 1, 1);
        let map = hilbert_mapping(&m, 16);
        let set: std::collections::HashSet<_> = map.iter().collect();
        assert_eq!(set.len(), 16);
        // pure 2-D Hilbert: consecutive ranks adjacent
        for w in map.windows(2) {
            assert_eq!(m.torus().coord(w[0]).l1_mesh(&m.torus().coord(w[1])), 1);
        }
    }
}
