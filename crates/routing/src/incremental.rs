//! Persistent channel loads with exact per-proposal delta updates.
//!
//! Annealing and the post-pipeline polish score every proposed move by its
//! MCL. [`IncrementalLoads`] keeps the routed state resident and re-routes
//! only the flows incident to the moved clusters — O(degree) work per
//! proposal instead of O(flows) — while staying **bit-identical** to a
//! from-scratch [`crate::route_graph`].
//!
//! Bit-identity is the hard part: floating-point addition is not
//! associative, so naive `sum += new - old` deltas drift. Instead each
//! channel slot keeps its contribution list `(flow, seq, value)` ordered by
//! `(flow, seq)` — exactly the order `route_graph` adds them — and a
//! touched slot's sum is the left fold of its rebuilt list. Same addends,
//! same order, same bits.
//!
//! A proposal is two-phase. [`IncrementalLoads::stage_moves`] re-routes
//! the moved clusters' flows into reusable scratch, builds each touched
//! slot's candidate list by a single merge pass and returns the candidate
//! MCL without mutating live state. [`IncrementalLoads::commit`] makes the
//! candidate live; [`IncrementalLoads::discard`] drops it for free — no
//! re-route back, no list surgery on the live state.
//!
//! The width-normalized max (MCL) is maintained lazily: a commit that
//! raises a slot updates it in place, and only a shrink of the current
//! maximum forces a rescan on the next [`IncrementalLoads::mcl`] call.

use rahtm_commgraph::CommGraph;
use rahtm_topology::{ChannelId, NodeId, Torus};

use crate::stencil::RouteStencilCache;
use crate::Routing;

/// Channel loads of one graph's placement on one topology, with exact
/// staged move proposals.
pub struct IncrementalLoads<'a> {
    topo: &'a Torus,
    graph: &'a CommGraph,
    cache: &'a RouteStencilCache,
    routing: Routing,
    /// Per cluster: ids of the flows it sends or receives, ascending
    /// (self-flows never load a channel and are left out).
    incident: Vec<Vec<u32>>,
    /// Per channel slot: `(flow, seq, value)` sorted by `(flow, seq)`.
    contribs: Vec<Vec<(u32, u32, f64)>>,
    /// Per channel slot: left fold of its contribution values.
    sums: Vec<f64>,
    /// Per flow: sorted deduped channel slots it currently loads.
    footprint: Vec<Vec<u32>>,
    /// `(slot, width)` in `topo.channels()` order — the MCL scan order.
    chan_widths: Vec<(u32, f64)>,
    /// Per channel slot width (1.0 for slots without a physical channel;
    /// minimal routing never loads those).
    width_of: Vec<f64>,
    max_norm: f64,
    max_dirty: bool,
    // ---- staged-proposal scratch, reused across proposals ----
    /// Flows staged in the open proposal, in staging order (ascending id).
    staged_flows: Vec<u32>,
    /// Per flow: is it staged right now?
    flow_staged: Vec<bool>,
    /// Unique staged slots, in registration order.
    staged_slots: Vec<u32>,
    /// New entries per staged slot, `(flow, seq)` ascending (parallel to
    /// `staged_slots`). Born sorted: flows stage in ascending id order and
    /// a flow's entries emit in seq order.
    staged_new: Vec<Vec<(u32, u32, f64)>>,
    /// Candidate contribution list per staged slot, built by
    /// [`Self::staged_mcl`] (parallel to `staged_slots`).
    staged_lists: Vec<Vec<(u32, u32, f64)>>,
    /// Fold of each candidate list (parallel to `staged_slots`).
    staged_sums: Vec<f64>,
    /// Candidate footprint per staged flow (parallel to `staged_flows`).
    staged_footprints: Vec<Vec<u32>>,
    /// Per slot: index into `staged_slots` or `u32::MAX` when unstaged.
    slot_stage_idx: Vec<u32>,
    /// Retired contribution-list allocations for reuse.
    list_pool: Vec<Vec<(u32, u32, f64)>>,
    /// Retired footprint allocations for reuse.
    slot_pool: Vec<Vec<u32>>,
}

impl<'a> IncrementalLoads<'a> {
    /// Routes every flow of `graph` under `placement` through `cache` and
    /// takes ownership of the result as incremental state.
    ///
    /// # Panics
    /// Panics if `placement.len() != graph.num_ranks()`.
    pub fn new(
        topo: &'a Torus,
        graph: &'a CommGraph,
        placement: &[NodeId],
        routing: Routing,
        cache: &'a RouteStencilCache,
    ) -> Self {
        assert_eq!(placement.len(), graph.num_ranks() as usize);
        let slots = topo.num_channel_slots();
        let mut width_of = vec![1.0f64; slots];
        let mut chan_widths = Vec::new();
        for ch in topo.channels() {
            width_of[ch.id as usize] = ch.width;
            chan_widths.push((ch.id, ch.width));
        }
        let mut inc = IncrementalLoads {
            topo,
            graph,
            cache,
            routing,
            incident: vec![Vec::new(); placement.len()],
            contribs: vec![Vec::new(); slots],
            sums: vec![0.0; slots],
            footprint: vec![Vec::new(); graph.flows().len()],
            chan_widths,
            width_of,
            max_norm: 0.0,
            max_dirty: false,
            staged_flows: Vec::new(),
            flow_staged: vec![false; graph.flows().len()],
            staged_slots: Vec::new(),
            staged_new: Vec::new(),
            staged_lists: Vec::new(),
            staged_sums: Vec::new(),
            staged_footprints: Vec::new(),
            slot_stage_idx: vec![u32::MAX; slots],
            list_pool: Vec::new(),
            slot_pool: Vec::new(),
        };
        for (i, f) in graph.flows().iter().enumerate() {
            let flow = i as u32;
            if f.src != f.dst {
                inc.incident[f.src as usize].push(flow);
                inc.incident[f.dst as usize].push(flow);
            }
            let src = placement[f.src as usize];
            let dst = placement[f.dst as usize];
            let mut seq = 0u32;
            cache.for_each_load(topo, routing, src, dst, f.bytes, |slot, v| {
                inc.contribs[slot as usize].push((flow, seq, v));
                inc.footprint[i].push(slot);
                seq += 1;
            });
            inc.footprint[i].sort_unstable();
            inc.footprint[i].dedup();
        }
        // Flows were pushed in id order with ascending seq, so every list
        // is already (flow, seq)-sorted; fold once for the initial sums.
        for slot in 0..slots {
            inc.sums[slot] = fold(&inc.contribs[slot]);
        }
        inc.rescan_max();
        inc
    }

    /// Opens a proposal in which the clusters in `moved` (one or two; one
    /// when a cluster moves onto an empty vertex) have already taken their
    /// new nodes in `placement`, and returns its candidate MCL —
    /// bit-identical to `route_graph(..).mcl(topo)` of `placement`. Live
    /// state is untouched: follow with [`Self::commit`] or
    /// [`Self::discard`].
    ///
    /// Stages the sorted union of the moved clusters' incident flows in
    /// ascending id, so every staged slot's new entries are born
    /// `(flow, seq)`-sorted and never need sorting.
    ///
    /// # Panics
    /// Panics unless `moved` holds one or two clusters.
    pub fn stage_moves(&mut self, placement: &[NodeId], moved: &[u32]) -> f64 {
        debug_assert!(self.staged_flows.is_empty(), "previous proposal still open");
        let (a, b) = match *moved {
            [a] => (a as usize, a as usize),
            [a, b] => (a as usize, b as usize),
            _ => panic!("stage_moves takes one or two moved clusters"),
        };
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            let x = self.incident[a].get(i).copied().unwrap_or(u32::MAX);
            let y = self.incident[b].get(j).copied().unwrap_or(u32::MAX);
            let flow = x.min(y);
            if flow == u32::MAX {
                break;
            }
            i += usize::from(x == flow);
            j += usize::from(y == flow);
            self.stage_flow(flow, placement);
        }
        self.staged_mcl()
    }

    /// Registers `slot` in the open proposal, returning its index in
    /// `staged_slots`.
    #[inline]
    fn stage_slot(&mut self, slot: u32) -> usize {
        let idx = self.slot_stage_idx[slot as usize];
        if idx != u32::MAX {
            return idx as usize;
        }
        let si = self.staged_slots.len();
        self.slot_stage_idx[slot as usize] = si as u32;
        self.staged_slots.push(slot);
        let mut l = self.list_pool.pop().unwrap_or_default();
        l.clear();
        self.staged_new.push(l);
        si
    }

    /// Stages the reroute of `flow` to its endpoints under `placement`.
    fn stage_flow(&mut self, flow: u32, placement: &[NodeId]) {
        let fi = flow as usize;
        let f = self.graph.flows()[fi];
        let src = placement[f.src as usize];
        let dst = placement[f.dst as usize];
        self.flow_staged[fi] = true;
        self.staged_flows.push(flow);
        // slots losing the flow's old entries join the staged set
        for k in 0..self.footprint[fi].len() {
            let slot = self.footprint[fi][k];
            self.stage_slot(slot);
        }
        let mut fp = self.slot_pool.pop().unwrap_or_default();
        fp.clear();
        {
            let slot_stage_idx = &mut self.slot_stage_idx;
            let staged_slots = &mut self.staged_slots;
            let staged_new = &mut self.staged_new;
            let list_pool = &mut self.list_pool;
            let mut seq = 0u32;
            let (topo, routing) = (self.topo, self.routing);
            self.cache
                .for_each_load(topo, routing, src, dst, f.bytes, |slot, v| {
                    let idx = slot_stage_idx[slot as usize];
                    let si = if idx != u32::MAX {
                        idx as usize
                    } else {
                        let si = staged_slots.len();
                        slot_stage_idx[slot as usize] = si as u32;
                        staged_slots.push(slot);
                        let mut l = list_pool.pop().unwrap_or_default();
                        l.clear();
                        staged_new.push(l);
                        si
                    };
                    staged_new[si].push((flow, seq, v));
                    fp.push(slot);
                    seq += 1;
                });
        }
        fp.sort_unstable();
        fp.dedup();
        self.staged_footprints.push(fp);
    }

    /// The proposal's candidate MCL — bit-identical to what [`Self::mcl`]
    /// would return after committing every staged reroute. Builds each
    /// staged slot's candidate list by one merge pass (live entries minus
    /// staged flows, staged entries in at their `(flow, seq)` rank) and
    /// scans all channels with the staged sums overriding the live ones.
    fn staged_mcl(&mut self) -> f64 {
        for si in 0..self.staged_slots.len() {
            let slot = self.staged_slots[si];
            let mut list = self.list_pool.pop().unwrap_or_default();
            list.clear();
            let mut sum = 0.0f64;
            {
                let news = &self.staged_new[si];
                let mut ni = 0usize;
                for &(f, s, v) in &self.contribs[slot as usize] {
                    if self.flow_staged[f as usize] {
                        continue; // superseded by the staged entries
                    }
                    while ni < news.len() && (news[ni].0, news[ni].1) < (f, s) {
                        list.push(news[ni]);
                        sum += news[ni].2;
                        ni += 1;
                    }
                    list.push((f, s, v));
                    sum += v;
                }
                for &e in &news[ni..] {
                    list.push(e);
                    sum += e.2;
                }
            }
            self.staged_lists.push(list);
            self.staged_sums.push(sum);
        }
        let mut max = 0.0f64;
        for &(slot, w) in &self.chan_widths {
            let idx = self.slot_stage_idx[slot as usize];
            let sum = if idx == u32::MAX {
                self.sums[slot as usize]
            } else {
                self.staged_sums[idx as usize]
            };
            let v = sum / w;
            if v > max {
                max = v;
            }
        }
        max
    }

    /// Applies the staged proposal: candidate lists and sums become live,
    /// footprints update, and the lazy max is repaired per slot.
    pub fn commit(&mut self) {
        for si in 0..self.staged_slots.len() {
            let s = self.staged_slots[si] as usize;
            let old = self.sums[s];
            let new = self.staged_sums[si];
            let retired = std::mem::replace(
                &mut self.contribs[s],
                std::mem::take(&mut self.staged_lists[si]),
            );
            self.list_pool.push(retired);
            self.list_pool
                .push(std::mem::take(&mut self.staged_new[si]));
            self.sums[s] = new;
            let w = self.width_of[s];
            let new_n = new / w;
            if new_n >= self.max_norm {
                self.max_norm = new_n;
            } else if old / w == self.max_norm {
                self.max_dirty = true;
            }
            self.slot_stage_idx[s] = u32::MAX;
        }
        for i in 0..self.staged_flows.len() {
            let fi = self.staged_flows[i] as usize;
            let retired = std::mem::replace(
                &mut self.footprint[fi],
                std::mem::take(&mut self.staged_footprints[i]),
            );
            self.slot_pool.push(retired);
            self.flow_staged[fi] = false;
        }
        self.clear_staged();
    }

    /// Drops the staged proposal. Live state is untouched, so a rejected
    /// proposal costs no re-routing at all.
    pub fn discard(&mut self) {
        for si in 0..self.staged_slots.len() {
            self.slot_stage_idx[self.staged_slots[si] as usize] = u32::MAX;
            self.list_pool
                .push(std::mem::take(&mut self.staged_new[si]));
            self.list_pool
                .push(std::mem::take(&mut self.staged_lists[si]));
        }
        for i in 0..self.staged_flows.len() {
            self.flow_staged[self.staged_flows[i] as usize] = false;
            self.slot_pool
                .push(std::mem::take(&mut self.staged_footprints[i]));
        }
        self.clear_staged();
    }

    fn clear_staged(&mut self) {
        self.staged_flows.clear();
        self.staged_slots.clear();
        self.staged_new.clear();
        self.staged_lists.clear();
        self.staged_sums.clear();
        self.staged_footprints.clear();
    }

    fn rescan_max(&mut self) {
        let mut max = 0.0f64;
        for &(slot, w) in &self.chan_widths {
            let v = self.sums[slot as usize] / w;
            if v > max {
                max = v;
            }
        }
        self.max_norm = max;
        self.max_dirty = false;
    }

    /// Width-normalized maximum channel load — bit-identical to
    /// `route_graph(..).mcl(topo)` for the same flows and endpoints.
    pub fn mcl(&mut self) -> f64 {
        if self.max_dirty {
            self.rescan_max();
        }
        self.max_norm
    }

    /// `(channel, normalized load)` of the most loaded channel, with
    /// [`crate::ChannelLoads::argmax`]'s scan order and tie-break (first
    /// maximum wins).
    pub fn argmax(&self) -> Option<(ChannelId, f64)> {
        let mut best: Option<(ChannelId, f64)> = None;
        for &(slot, w) in &self.chan_widths {
            let v = self.sums[slot as usize] / w;
            if best.is_none_or(|(_, bv)| v > bv) {
                best = Some((slot, v));
            }
        }
        best
    }

    /// Raw load slice (indexed by channel slot).
    pub fn as_slice(&self) -> &[f64] {
        &self.sums
    }
}

/// Left fold of a contribution list — the exact add order of
/// `route_graph` for this slot.
#[inline]
fn fold(list: &[(u32, u32, f64)]) -> f64 {
    let mut s = 0.0;
    for &(_, _, v) in list {
        s += v;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oblivious::route_graph;
    use proptest::prelude::*;
    use rahtm_commgraph::patterns;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_matches_scratch(
        topo: &Torus,
        graph: &CommGraph,
        placement: &[NodeId],
        routing: Routing,
        inc: &mut IncrementalLoads,
    ) {
        let scratch = route_graph(topo, graph, placement, routing);
        assert_eq!(scratch.as_slice(), inc.as_slice(), "per-slot sums diverged");
        assert_eq!(scratch.mcl(topo), inc.mcl(), "mcl diverged");
        assert_eq!(scratch.argmax(topo), inc.argmax(), "argmax diverged");
    }

    #[test]
    fn initial_state_matches_route_graph() {
        let t = Torus::torus(&[4, 4]);
        let g = patterns::random(16, 50, 1.0, 25.0, 13);
        let placement: Vec<u32> = (0..16).collect();
        for routing in [Routing::DimOrder, Routing::UniformMinimal] {
            let cache = RouteStencilCache::new(&t);
            let mut inc = IncrementalLoads::new(&t, &g, &placement, routing, &cache);
            check_matches_scratch(&t, &g, &placement, routing, &mut inc);
        }
    }

    proptest! {
        /// The staged propose/commit/discard path: every candidate MCL
        /// equals a from-scratch evaluation of the candidate placement, and
        /// live state tracks exactly through commits and discards. With
        /// fewer clusters than vertices a proposal either swaps two
        /// clusters or moves one onto an empty vertex, as annealing does.
        #[test]
        fn staged_proposals_match_scratch(
            seed in 0u64..24,
            dor in proptest::bool::ANY,
            clusters in proptest::sample::select(vec![16u32, 11]),
        ) {
            let t = Torus::torus(&[4, 2, 2]);
            let g = patterns::random(clusters, 40, 1.0, 20.0, seed ^ 0x1234);
            let routing = if dor { Routing::DimOrder } else { Routing::UniformMinimal };
            let mut placement: Vec<u32> = (0..clusters).collect();
            let mut contents: Vec<Option<u32>> =
                (0..16).map(|v| (v < clusters).then_some(v)).collect();
            let cache = RouteStencilCache::new(&t);
            let mut inc = IncrementalLoads::new(&t, &g, &placement, routing, &cache);
            let mut rng = StdRng::seed_from_u64(seed);
            let place = |contents: &[Option<u32>], placement: &mut [u32], moved: &mut Vec<u32>| {
                moved.clear();
                for (v, c) in contents.iter().enumerate() {
                    if let Some(c) = *c {
                        if placement[c as usize] != v as u32 {
                            placement[c as usize] = v as u32;
                            moved.push(c);
                        }
                    }
                }
            };
            let mut moved = Vec::new();
            for step in 0..30 {
                let va = rng.gen_range(0..16usize);
                let mut vb = rng.gen_range(0..15usize);
                if vb >= va { vb += 1; }
                if contents[va].is_none() && contents[vb].is_none() {
                    continue;
                }
                contents.swap(va, vb);
                place(&contents, &mut placement, &mut moved);
                let cand = inc.stage_moves(&placement, &moved);
                let scratch = route_graph(&t, &g, &placement, routing);
                prop_assert_eq!(cand, scratch.mcl(&t));
                if step % 2 == 0 {
                    inc.commit();
                } else {
                    inc.discard();
                    contents.swap(va, vb); // reject
                    place(&contents, &mut placement, &mut moved);
                }
                check_matches_scratch(&t, &g, &placement, routing, &mut inc);
            }
        }
    }
}
