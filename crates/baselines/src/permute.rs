//! Dimension-permutation mappings (§II-B, §IV).
//!
//! BG/Q's runtime accepts mapping orders like `ABCDET` or `TEDCBA`: ranks
//! are assigned by traversing the (torus dims × core slot) space with the
//! listed dimensions varying from slowest (first letter) to fastest (last
//! letter). The paper compares RAHTM against `ABCDET` (the default),
//! `TABCDE`, and `ACEBDT`.

use rahtm_topology::{BgqMachine, Coord, NodeId};

/// One element of a mapping order: a torus dimension or the core slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DimOrder {
    /// Torus dimension index.
    Dim(usize),
    /// The on-node core slot ("T").
    Slot,
}

/// Parses an order string like `"ABCDET"` against a machine with up to 6
/// named torus dimensions (`A`–`E`) plus `T`.
///
/// # Errors
/// Returns a message when a letter is unknown, repeated, or missing.
pub fn parse_order(machine: &BgqMachine, s: &str) -> Result<Vec<DimOrder>, String> {
    let n = machine.torus().ndims();
    let mut out = Vec::with_capacity(n + 1);
    for ch in s.chars() {
        let ch = ch.to_ascii_uppercase();
        let item = if ch == 'T' {
            DimOrder::Slot
        } else {
            let d = (ch as i32) - ('A' as i32);
            if d < 0 || d as usize >= n {
                return Err(format!("unknown dimension letter '{ch}'"));
            }
            DimOrder::Dim(d as usize)
        };
        if out.contains(&item) {
            return Err(format!("repeated letter '{ch}'"));
        }
        out.push(item);
    }
    if out.len() != n + 1 {
        return Err(format!("order must list all {n} dims plus T"));
    }
    Ok(out)
}

/// Maps `num_ranks` ranks by traversing the machine in `order` (first
/// letter slowest, last fastest). Returns the node of each rank; slots
/// follow rank order within a node automatically.
///
/// # Panics
/// Panics if `num_ranks` exceeds the machine's process slots.
pub fn dim_order_mapping(machine: &BgqMachine, order: &[DimOrder], num_ranks: u32) -> Vec<NodeId> {
    let topo = machine.torus();
    let n = topo.ndims();
    assert_eq!(order.len(), n + 1, "order must cover all dims plus T");
    assert!(num_ranks as u64 <= machine.num_process_slots());
    // radix of each order position
    let radix: Vec<u64> = order
        .iter()
        .map(|o| match o {
            DimOrder::Dim(d) => topo.dim(*d) as u64,
            DimOrder::Slot => machine.concentration() as u64,
        })
        .collect();
    (0..num_ranks)
        .map(|r| {
            let mut rem = r as u64;
            let mut digits = vec![0u64; order.len()];
            for i in (0..order.len()).rev() {
                digits[i] = rem % radix[i];
                rem /= radix[i];
            }
            let mut c = Coord::zero(n);
            for (i, o) in order.iter().enumerate() {
                if let DimOrder::Dim(d) = o {
                    c.set(*d, digits[i] as u16);
                }
            }
            topo.node_id(&c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_topology::Torus;

    fn machine() -> BgqMachine {
        BgqMachine::new(Torus::torus(&[2, 3]), 4, 2)
    }

    fn dim_order_mapping_str(machine: &BgqMachine, order: &str, num_ranks: u32) -> Vec<NodeId> {
        dim_order_mapping(machine, &parse_order(machine, order).unwrap(), num_ranks)
    }

    #[test]
    fn parse_valid_orders() {
        let m = machine();
        assert!(parse_order(&m, "ABT").is_ok());
        assert!(parse_order(&m, "TAB").is_ok());
        assert!(parse_order(&m, "bat").is_ok(), "case-insensitive");
    }

    #[test]
    fn parse_rejects_bad_orders() {
        let m = machine();
        assert!(parse_order(&m, "ABC").is_err(), "C beyond 2 dims");
        assert!(parse_order(&m, "AAT").is_err(), "repeat");
        assert!(parse_order(&m, "AB").is_err(), "missing T");
    }

    #[test]
    fn default_order_matches_rank_over_concentration() {
        // ABT (all dims then T): T fastest -> node = rank / concentration
        let m = machine();
        let map = dim_order_mapping_str(&m, "ABT", 12);
        for (r, &node) in map.iter().enumerate() {
            assert_eq!(node, (r as u32) / 2);
        }
    }

    #[test]
    fn t_first_spreads_across_nodes() {
        // TAB: T slowest -> consecutive ranks hit consecutive nodes
        let m = machine();
        let map = dim_order_mapping_str(&m, "TAB", 12);
        for (r, &node) in map.iter().enumerate().take(6) {
            assert_eq!(node, r as u32);
        }
        // second wave revisits the nodes (different slots)
        assert_eq!(map[6], 0);
    }

    #[test]
    fn permuted_dims_change_traversal() {
        // BAT on a 2x3 torus: B (extent 3) slowest? No: first letter is
        // slowest, so B slowest, A middle, T fastest.
        let m = machine();
        let map = dim_order_mapping_str(&m, "BAT", 12);
        // rank 0,1 -> (0,0); rank 2,3 -> (1,0) [A advances before B]
        assert_eq!(map[0], 0);
        assert_eq!(map[2], m.torus().node_id(&Coord::new(&[1, 0])));
        // rank 4,5 wrap A and advance B -> (0,1)
        assert_eq!(map[4], m.torus().node_id(&Coord::new(&[0, 1])));
    }

    #[test]
    fn full_reversal_order() {
        // TBA on a 2x3 torus: T slowest... no — letters run slowest to
        // fastest, so in "TBA": T slowest, B middle, A fastest
        let m = machine();
        let map = dim_order_mapping_str(&m, "TBA", 12);
        // first 6 ranks sweep A fastest within each B, all at slot 0
        assert_eq!(map[0], m.torus().node_id(&Coord::new(&[0, 0])));
        assert_eq!(map[1], m.torus().node_id(&Coord::new(&[1, 0])));
        assert_eq!(map[2], m.torus().node_id(&Coord::new(&[0, 1])));
        // second wave: slot 1, same nodes in the same order
        assert_eq!(map[6], map[0]);
        assert_eq!(map[7], map[1]);
    }

    #[test]
    fn mira_orders_parse() {
        let m = BgqMachine::mira_512();
        for o in ["ABCDET", "TABCDE", "ACEBDT"] {
            let map = dim_order_mapping_str(&m, o, 16384);
            assert_eq!(map.len(), 16384);
            // every node gets exactly concentration ranks
            let mut counts = vec![0u32; 512];
            for &n in &map {
                counts[n as usize] += 1;
            }
            assert!(counts.iter().all(|&c| c == 32), "order {o}");
        }
    }

    use rahtm_topology::Coord;
}
