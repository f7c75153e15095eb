//! Rigid solved blocks for the merge phase.
//!
//! After phase 2, every sub-cube of the hierarchy holds a *solved* interior
//! placement. The merge phase treats those placements as rigid bodies — a
//! [`Block`] — that can be re-oriented (hyperoctahedral rotations and
//! reflections) and positioned inside a parent region. Members are
//! node-cluster ids pinned at box-local coordinates.

use rahtm_commgraph::Rank;
use rahtm_topology::{Coord, Orientation};

/// A rigid placement of node-clusters inside a box.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Per-dimension box extents (machine dimensionality).
    pub extent: Coord,
    /// (cluster id, box-local coordinate) pairs.
    pub members: Vec<(Rank, Coord)>,
}

impl Block {
    /// A unit block holding one cluster at the origin.
    pub fn single(ndims: usize, cluster: Rank) -> Self {
        let mut extent = Coord::zero(ndims);
        for d in 0..ndims {
            extent.set(d, 1);
        }
        Block {
            extent,
            members: vec![(cluster, Coord::zero(ndims))],
        }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.extent.ndims()
    }

    /// True when the block has no orientation freedom (all extents 1).
    pub fn is_unit(&self) -> bool {
        self.extent.iter().all(|e| e == 1)
    }

    /// The block re-oriented by `o`: extents permute, member coordinates
    /// transform.
    pub fn reoriented(&self, o: &Orientation) -> Block {
        let n = self.ndims();
        debug_assert_eq!(o.ndims(), n);
        let mut extent = Coord::zero(n);
        for d in 0..n {
            extent.set(d, self.extent.get(o.perm(d)));
        }
        let members = self
            .members
            .iter()
            .map(|&(c, local)| (c, o.apply(&local, &extent)))
            .collect();
        Block { extent, members }
    }

    /// Global coordinates of members when the block sits at `origin`.
    pub fn placed(&self, origin: &Coord) -> Vec<(Rank, Coord)> {
        self.members
            .iter()
            .map(|&(c, local)| (c, origin.add(&local)))
            .collect()
    }

    /// Combines positioned child blocks into one parent block whose member
    /// coordinates are relative to `parent_origin`.
    ///
    /// # Panics
    /// Panics (in debug) if a child sticks out of the parent box.
    pub fn compose(
        parent_origin: &Coord,
        parent_extent: &Coord,
        children: &[(Block, Coord)],
    ) -> Block {
        let n = parent_origin.ndims();
        let mut members = Vec::new();
        for (block, origin) in children {
            for (c, global) in block.placed(origin) {
                let mut local = Coord::zero(n);
                for d in 0..n {
                    let g = global.get(d);
                    debug_assert!(
                        g >= parent_origin.get(d)
                            && g < parent_origin.get(d) + parent_extent.get(d),
                        "child member outside parent box"
                    );
                    local.set(d, g - parent_origin.get(d));
                }
                members.push((c, local));
            }
        }
        members.sort_by_key(|&(c, _)| c);
        Block {
            extent: *parent_extent,
            members,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(xs: &[u16]) -> Coord {
        Coord::new(xs)
    }

    #[test]
    fn single_block() {
        let b = Block::single(2, 7);
        assert!(b.is_unit());
        assert_eq!(b.members, vec![(7, c(&[0, 0]))]);
    }

    #[test]
    fn reorient_quarter_turn() {
        // 2x2 block, 90° turn: (x,y) -> (y, 1-x)
        let b = Block {
            extent: c(&[2, 2]),
            members: vec![
                (0, c(&[0, 0])),
                (1, c(&[0, 1])),
                (2, c(&[1, 0])),
                (3, c(&[1, 1])),
            ],
        };
        let rot = Orientation::new(&[1, 0], 0b10);
        let r = b.reoriented(&rot);
        let pos: std::collections::HashMap<_, _> = r.members.iter().cloned().collect();
        assert_eq!(pos[&0], c(&[0, 1]));
        assert_eq!(pos[&1], c(&[1, 1]));
        assert_eq!(pos[&2], c(&[0, 0]));
        assert_eq!(pos[&3], c(&[1, 0]));
    }

    #[test]
    fn reorient_nonuniform_extent_permutes() {
        let b = Block {
            extent: c(&[4, 2]),
            members: vec![(0, c(&[3, 1]))],
        };
        let swap = Orientation::new(&[1, 0], 0);
        let r = b.reoriented(&swap);
        assert_eq!(r.extent, c(&[2, 4]));
        assert_eq!(r.members[0].1, c(&[1, 3]));
    }

    #[test]
    fn placed_offsets() {
        let b = Block {
            extent: c(&[2, 2]),
            members: vec![(5, c(&[1, 0]))],
        };
        assert_eq!(b.placed(&c(&[2, 2])), vec![(5, c(&[3, 2]))]);
    }

    #[test]
    fn compose_children() {
        let unit0 = Block::single(2, 0);
        let unit1 = Block::single(2, 1);
        let parent = Block::compose(
            &c(&[0, 0]),
            &c(&[1, 2]),
            &[(unit0, c(&[0, 0])), (unit1, c(&[0, 1]))],
        );
        assert_eq!(parent.extent, c(&[1, 2]));
        assert_eq!(parent.members, vec![(0, c(&[0, 0])), (1, c(&[0, 1]))]);
    }

    #[test]
    fn reorientation_preserves_membership() {
        let b = Block {
            extent: c(&[2, 2, 2]),
            members: (0..8)
                .map(|i| (i as u32, c(&[(i >> 2) & 1, (i >> 1) & 1, i & 1])))
                .collect(),
        };
        for o in Orientation::enumerate(3) {
            let r = b.reoriented(&o);
            let coords: std::collections::HashSet<_> = r.members.iter().map(|&(_, x)| x).collect();
            assert_eq!(coords.len(), 8, "orientation must stay bijective");
        }
    }
}
