//! Routing: all-pairs next-hop tables.
//!
//! Shortest paths with deterministic tie-breaking stand in for BGP, with
//! one policy nod: paths that would *transit* a stub AS pay a heavy
//! penalty, because in the real Internet a customer AS does not carry
//! third-party traffic (valley-free routing). Without this, multihomed
//! stubs land on shortest paths and ingress filters at their providers
//! falsely drop legitimate transit traffic. The penalty (rather than a
//! hard ban) keeps degenerate test topologies — lines, all-stub graphs —
//! connected. The recorded distance is the *hop count* of the chosen
//! path, so hop-based metrics stay meaningful.
//!
//! Tables are computed with one Dijkstra per destination; each run is
//! independent and writes only its own row.
//!
//! Beyond the tables themselves, each destination's forwarding tree
//! carries a *link stamp*: a bitset over the dense link index recording
//! which links the tree crosses. Stamps make route repair proportional to
//! the damage — a single link flip recomputes only the trees whose stamp
//! covers the flipped link ([`Routing::apply_link_flip`]).
//!
//! The table answers one question about change: [`Routing::changed_at`],
//! the epoch of the last flip that may have moved a destination's row. A
//! spliced row is marked with the epoch that spliced it, a whole-table
//! rebuild marks every row at once, and whoever caches something derived
//! from row `d` at epoch `e` (the fluid layer's path cache is the one
//! such cache) re-derives it iff `changed_at(d) > e`. There is no history
//! to fall behind.
//!
//! ## Hierarchical backend
//!
//! The dense tables are O(n²) memory — a hard wall near 10⁴ nodes
//! (100k nodes would need ~90 GB). Topologies that carry
//! [`crate::topology::Hierarchy`] metadata (strict single-homed trees
//! hanging off a transit core, i.e. [`crate::topology::Topology::
//! transit_stub`]) get a closed-form backend instead: an all-pairs table
//! over the *core only* (O(core²)) plus O(n) per-node anchor/depth/uplink
//! arrays. The core table is one BFS per core destination over the up
//! core-to-core links alone, collected once per rebuild, so it never reads
//! the stub uplinks that make up most of a core node's links; each level
//! expands in ascending node id, which is the dense backend's `(cost, node
//! id)` tie-break. `next_hop` then resolves as "descend if `at` is on the
//! destination's up-chain, else climb, else cross the core" in O(tree
//! depth). Every public query ([`Routing::next_hop`], [`Routing::
//! distance`], [`Routing::enters_via`], [`Routing::path`]) answers through
//! the same dispatch, so the rest of the engine — and the fluid layer's
//! path cache — is backend-agnostic. Link flips update a live link-state
//! snapshot and mark every destination changed (there are no
//! per-destination rows to tell apart), keeping fault semantics
//! conservative.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::node::{LinkId, NodeId, NodeRole};
use crate::topology::Topology;

/// Cost added for each stub AS a path transits (valley avoidance).
const STUB_TRANSIT_PENALTY: u32 = 1000;

/// Sentinel for "no route" in the flat next-hop table.
const NO_ROUTE: u32 = u32::MAX;

/// Outcome of [`Routing::apply_link_flip`], for stats plumbing.
#[derive(Clone, Copy, Debug)]
pub struct FlipOutcome {
    /// Destination trees re-derived by this flip (`n` on a full recompute,
    /// the damaged few on an incremental splice).
    pub trees_recomputed: usize,
    /// True when the flip fell back to a whole-table recompute.
    pub full: bool,
}

/// All-pairs next-hop forwarding state.
#[derive(Clone, Debug)]
pub struct Routing {
    n: usize,
    /// u64 words per destination stamp (≥ 1 even for linkless topologies).
    words: usize,
    /// Generation counter: freshly computed tables start at epoch 0 and
    /// [`Routing::apply_link_flip`] bumps it on every applied flip.
    epoch: u64,
    /// `row_changed[d]` = epoch of the last incremental splice of
    /// destination `d`'s row (0 = never; empty on the hierarchical backend).
    row_changed: Vec<u64>,
    /// Epoch of the last transition that may have moved every row: a
    /// whole-table rebuild, or any flip of the hierarchical backend.
    all_changed: u64,
    /// `next_hop[d * n + u]` = link to take from node `u` toward destination
    /// node `d` (`NO_ROUTE` if unreachable or `u == d`).
    next_hop: Vec<u32>,
    /// `dist[d * n + u]` = hop distance from `u` to `d` (`u16::MAX` if
    /// unreachable).
    dist: Vec<u16>,
    /// `cost[d * n + u]` = Dijkstra cost (hops + transit penalties) from `u`
    /// to `d` (`u32::MAX` if unreachable). Needed by link-up flips: a
    /// restored link can only change routes toward `d` if it would relax
    /// one of its endpoints under the old costs.
    cost: Vec<u32>,
    /// `stamps[d * words .. (d + 1) * words]` = bitset (by dense link id) of
    /// links destination `d`'s forwarding tree crosses.
    stamps: Vec<u64>,
    /// Hierarchical backend, present iff the topology carried
    /// [`crate::topology::Hierarchy`] metadata at compute time. When set,
    /// the dense planes above are left empty and every query dispatches
    /// here (see the module docs).
    hier: Option<HierRouting>,
}

/// Closed-form routing state for strict-hierarchy topologies: O(core²)
/// all-pairs tables over the transit core plus O(n) chain metadata.
#[derive(Clone, Debug)]
struct HierRouting {
    /// Per node: the unique uplink toward the core (`None` for core nodes).
    up_link: Vec<Option<LinkId>>,
    /// Per node: the parent node id across `up_link` (self for core nodes).
    up_node: Vec<u32>,
    /// Per node: the core node its up-chain terminates at.
    anchor: Vec<u32>,
    /// Per node: hops below its anchor (0 for core nodes).
    depth: Vec<u16>,
    /// Core node ids, ascending.
    core: Vec<u32>,
    /// Dense core index per node id (`NO_ROUTE` for non-core nodes).
    core_idx: Vec<u32>,
    /// `core_next[di * c + ui]` = link from core node `core[ui]` toward
    /// core destination `core[di]` (`NO_ROUTE` if unreachable or equal).
    core_next: Vec<u32>,
    /// `core_dist[di * c + ui]` = hop distance across the core
    /// (`u16::MAX` if unreachable).
    core_dist: Vec<u16>,
    /// Live link-state snapshot (dense by link id), updated by
    /// [`Routing::apply_link_flip`] so queries need no topology access.
    link_up: Vec<bool>,
}

/// Deepest up-chain the hierarchical backend supports. Queries walk
/// chains on fixed-size stack arrays to stay allocation-free on the
/// per-packet hot path; [`Topology::transit_stub`] produces depth ≤ 2.
const MAX_HIER_DEPTH: usize = 8;

impl Routing {
    /// Compute routing tables for a topology. Topologies carrying
    /// [`crate::topology::Hierarchy`] metadata get the O(core²)-memory
    /// hierarchical backend; everything else gets the dense all-pairs
    /// tables (bit-for-bit the historical behaviour).
    pub fn compute(topo: &Topology) -> Routing {
        if let Some(h) = &topo.hierarchy {
            return Routing {
                n: topo.n(),
                words: stamp_words(topo.links.len()),
                epoch: 0,
                row_changed: Vec::new(),
                all_changed: 0,
                next_hop: Vec::new(),
                dist: Vec::new(),
                cost: Vec::new(),
                stamps: Vec::new(),
                hier: Some(HierRouting::compute(topo, h)),
            };
        }
        let n = topo.n();
        let words = stamp_words(topo.links.len());
        let mut r = Routing {
            n,
            words,
            epoch: 0,
            row_changed: vec![0; n],
            all_changed: 0,
            next_hop: vec![NO_ROUTE; n * n],
            dist: vec![u16::MAX; n * n],
            cost: vec![u32::MAX; n * n],
            stamps: vec![0; n * words],
            hier: None,
        };
        r.fill_all_rows(topo);
        r
    }

    /// Is this table served by the hierarchical backend?
    pub fn is_hierarchical(&self) -> bool {
        self.hier.is_some()
    }

    /// (Re)derive every destination's row into the existing buffers, which
    /// must already be reset to their sentinels.
    fn fill_all_rows(&mut self, topo: &Topology) {
        let n = self.n;
        let words = self.words;
        let has_transit = topo.has_transit_roles();
        self.next_hop
            .chunks_mut(n)
            .zip(self.dist.chunks_mut(n))
            .zip(self.cost.chunks_mut(n))
            .zip(self.stamps.chunks_mut(words))
            .enumerate()
            .for_each(|(d, (((hops_row, dist_row), cost_row), stamp_row))| {
                bfs_from(topo, NodeId(d), has_transit, hops_row, dist_row, cost_row);
                fill_stamp(hops_row, stamp_row);
            });
    }

    /// This table's generation (see the `epoch` field).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch of the last flip that may have moved destination `dst`'s row
    /// (0 when none has). Something derived from that row at epoch `e` is
    /// still exact iff `changed_at(dst) <= e`.
    #[inline]
    pub fn changed_at(&self, dst: NodeId) -> u64 {
        let row = self.row_changed.get(dst.0).copied().unwrap_or(0);
        row.max(self.all_changed)
    }

    /// Apply a single link state flip *already written to `topo`*: recompute
    /// only the destination trees the flip can affect, splice them into the
    /// existing tables, bump the epoch, and mark the spliced rows with it
    /// ([`Routing::changed_at`]). Falls back to a full recompute when the
    /// damage covers more than half the destinations (beyond that point one
    /// rebuild is simpler than as many splices).
    ///
    /// Equivalence to a cold [`Routing::compute`] on the flipped topology is
    /// exact (same tables, bit for bit) and pinned by the flap-schedule
    /// proptest in `crate::proptests`:
    /// - *Link down*: with strict-improvement relaxation, a destination's
    ///   row can only change if the tree actually crossed the dead link —
    ///   i.e. the link is in the stamp. Non-final relaxations through the
    ///   link never leak into settled entries.
    /// - *Link up*: the stamp cannot see a link that was down at compute
    ///   time, so the test uses stored costs: the restored link `(a, b)`
    ///   can only matter for `d` if it would relax an endpoint under the
    ///   old costs, `cost(a) + w(a) <= cost(b)` or vice versa. Equality
    ///   counts — an equal-cost path through the new link can win the
    ///   deterministic tie-break.
    pub fn apply_link_flip(&mut self, topo: &Topology, link: LinkId) -> FlipOutcome {
        debug_assert_eq!(self.n, topo.n(), "table/topology size mismatch");
        let n = self.n;
        self.epoch += 1;
        if let Some(h) = &mut self.hier {
            // Hierarchical backend: refresh the link-state snapshot, and
            // rebuild the core tables when the flip touches a core link.
            // There are no per-destination rows to splice, so every
            // destination counts as changed — the conservative (and still
            // correct) answer.
            let trees = h.apply_flip(topo, link);
            self.all_changed = self.epoch;
            return FlipOutcome {
                trees_recomputed: trees,
                full: true,
            };
        }
        if link.0 >= self.words * 64 {
            // Link added after compute(): no stamp coverage, rebuild fully.
            return self.full_rebuild(topo);
        }
        let l = &topo.links[link.0];
        let affected: Vec<u32> = if l.up {
            let (a, b) = (l.a, l.b);
            let has_transit = topo.has_transit_roles();
            (0..n)
                .filter(|&d| {
                    let ca = self.cost[d * n + a.0];
                    let cb = self.cost[d * n + b.0];
                    if ca == u32::MAX && cb == u32::MAX {
                        return false; // both endpoints unreachable from d
                    }
                    let wa = hop_weight(topo, has_transit, a, d);
                    let wb = hop_weight(topo, has_transit, b, d);
                    ca.saturating_add(wa) <= cb || cb.saturating_add(wb) <= ca
                })
                .map(|d| d as u32)
                .collect()
        } else {
            let (w, bit) = (link.0 >> 6, 1u64 << (link.0 & 63));
            (0..n)
                .filter(|&d| self.stamps[d * self.words + w] & bit != 0)
                .map(|d| d as u32)
                .collect()
        };
        if affected.len() * 2 > n {
            return self.full_rebuild(topo);
        }
        let has_transit = topo.has_transit_roles();
        let words = self.words;
        for &d in &affected {
            let d = d as usize;
            let hops_row = &mut self.next_hop[d * n..(d + 1) * n];
            let dist_row = &mut self.dist[d * n..(d + 1) * n];
            let cost_row = &mut self.cost[d * n..(d + 1) * n];
            hops_row.fill(NO_ROUTE);
            dist_row.fill(u16::MAX);
            cost_row.fill(u32::MAX);
            bfs_from(topo, NodeId(d), has_transit, hops_row, dist_row, cost_row);
            fill_stamp(hops_row, &mut self.stamps[d * words..(d + 1) * words]);
            self.row_changed[d] = self.epoch;
        }
        FlipOutcome {
            trees_recomputed: affected.len(),
            full: false,
        }
    }

    /// Whole-table recompute into the existing buffers; marks every row
    /// changed at the already-bumped epoch.
    fn full_rebuild(&mut self, topo: &Topology) -> FlipOutcome {
        self.next_hop.fill(NO_ROUTE);
        self.dist.fill(u16::MAX);
        self.cost.fill(u32::MAX);
        self.stamps.fill(0);
        self.fill_all_rows(topo);
        self.all_changed = self.epoch;
        FlipOutcome {
            trees_recomputed: self.n,
            full: true,
        }
    }

    /// Does destination `dst`'s forwarding tree cross `link`? (Stamp probe;
    /// used by churn benchmarks to pick low-blast-radius links.)
    pub fn tree_contains(&self, dst: NodeId, link: LinkId) -> bool {
        if dst.0 >= self.n || link.0 >= self.words * 64 {
            return false;
        }
        if let Some(h) = &self.hier {
            return h.tree_contains(dst, link);
        }
        self.stamps[dst.0 * self.words + (link.0 >> 6)] & (1u64 << (link.0 & 63)) != 0
    }

    /// Bit-exact table comparison (next-hop, distance, and cost planes).
    /// Verification helper for tests and benches asserting that incremental
    /// splices match a cold recompute.
    pub fn tables_match(&self, other: &Routing) -> bool {
        match (&self.hier, &other.hier) {
            (None, None) => {
                self.n == other.n
                    && self.next_hop == other.next_hop
                    && self.dist == other.dist
                    && self.cost == other.cost
                    && self.stamps == other.stamps
            }
            (Some(a), Some(b)) => {
                self.n == other.n
                    && a.core_next == b.core_next
                    && a.core_dist == b.core_dist
                    && a.link_up == b.link_up
                    && a.up_node == b.up_node
            }
            _ => false,
        }
    }

    /// Link to take from `at` toward destination node `dst`, or `None` when
    /// `at == dst`, `dst` is unreachable, or either node is outside the
    /// topology (a packet can be addressed to anything).
    #[inline]
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        if at.0 >= self.n || dst.0 >= self.n {
            return None;
        }
        if let Some(h) = &self.hier {
            return h.next_hop(at, dst);
        }
        let v = self.next_hop[dst.0 * self.n + at.0];
        if v == NO_ROUTE {
            None
        } else {
            Some(LinkId(v as usize))
        }
    }

    /// Hop distance from `from` to `to`; `None` if unreachable or either
    /// node is outside the topology.
    #[inline]
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<u16> {
        if from.0 >= self.n || to.0 >= self.n {
            return None;
        }
        if let Some(h) = &self.hier {
            return h.distance(from, to);
        }
        let d = self.dist[to.0 * self.n + from.0];
        if d == u16::MAX {
            None
        } else {
            Some(d)
        }
    }

    /// The node sequence of the path from `from` to `to` (inclusive), or
    /// `None` if unreachable.
    pub fn path(&self, topo: &Topology, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![from];
        let mut at = from;
        while at != to {
            let link = self.next_hop(at, to)?;
            at = topo.links[link.0].other(at);
            path.push(at);
            if path.len() > self.n + 1 {
                return None; // defensive: inconsistent table
            }
        }
        Some(path)
    }

    /// Route-consistency check (Park & Lee route-based filtering): on the
    /// forwarding path from `src` to `dst`, which neighbour hands traffic
    /// to `at`? Returns `None` when `at` is not on that path (or is the
    /// path's first node), i.e. when a packet claiming `src` could not
    /// legitimately be entering `at` at all. Out-of-range `src`/`dst`
    /// (addresses outside the topology) also return `None`.
    pub fn enters_via(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        at: NodeId,
    ) -> Option<NodeId> {
        if src.0 >= self.n || dst.0 >= self.n || at.0 >= self.n {
            return None;
        }
        let mut cur = src;
        let mut guard = 0;
        while cur != dst {
            let link = self.next_hop(cur, dst)?;
            let next = topo.links[link.0].other(cur);
            if next == at {
                return Some(cur);
            }
            cur = next;
            guard += 1;
            if guard > self.n {
                return None;
            }
        }
        None
    }

    /// Number of nodes this table was built for.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl HierRouting {
    /// Build the hierarchical state from the topology's recorded
    /// hierarchy: derive parent/anchor/depth chains, snapshot link state,
    /// and run one core-restricted BFS per core destination.
    fn compute(topo: &Topology, h: &crate::topology::Hierarchy) -> HierRouting {
        let n = topo.n();
        assert_eq!(h.up_link.len(), n, "hierarchy covers every node");
        let up_link = h.up_link.clone();
        let mut up_node = vec![0u32; n];
        for (i, up) in up_link.iter().enumerate() {
            up_node[i] = match up {
                Some(l) => topo.links[l.0].other(NodeId(i)).0 as u32,
                None => i as u32,
            };
        }
        // Anchor + depth by chain-walking with memoization (chains are
        // short; the guard rejects cyclic metadata outright).
        let mut anchor = vec![u32::MAX; n];
        let mut depth = vec![0u16; n];
        let mut chain = Vec::new();
        for i in 0..n {
            let mut cur = i;
            chain.clear();
            while anchor[cur] == u32::MAX && up_node[cur] as usize != cur {
                chain.push(cur);
                cur = up_node[cur] as usize;
                assert!(chain.len() <= n, "hierarchy uplinks must be acyclic");
            }
            let (a0, d0) = if up_node[cur] as usize == cur {
                (cur as u32, 0u16)
            } else {
                (anchor[cur], depth[cur])
            };
            anchor[cur] = a0;
            depth[cur] = d0;
            for (k, &v) in chain.iter().rev().enumerate() {
                anchor[v] = a0;
                depth[v] = d0 + 1 + k as u16;
                assert!(
                    (depth[v] as usize) <= MAX_HIER_DEPTH,
                    "hierarchy deeper than MAX_HIER_DEPTH"
                );
            }
        }
        let core: Vec<u32> = h.core.iter().map(|c| c.0 as u32).collect();
        let mut core_idx = vec![NO_ROUTE; n];
        for (ci, &c) in core.iter().enumerate() {
            core_idx[c as usize] = ci as u32;
        }
        let link_up: Vec<bool> = topo.links.iter().map(|l| l.up).collect();
        let mut hr = HierRouting {
            up_link,
            up_node,
            anchor,
            depth,
            core,
            core_idx,
            core_next: Vec::new(),
            core_dist: Vec::new(),
            link_up,
        };
        hr.rebuild_core(topo);
        hr
    }

    /// (Re)derive the core tables: one BFS per core destination over a
    /// core-only adjacency, collected first from each core node's up
    /// core-to-core links in its own link order.
    ///
    /// Every core hop weighs 1, so a Dijkstra that pops by `(cost, node
    /// id)` and relaxes only on strict improvement — the dense backend's
    /// tie-break — is exactly this BFS when each level is expanded in
    /// ascending node id. Core indices ascend with node ids, so a bitset
    /// frontier per level yields that order with no heap and no sort, and
    /// both backends pick identical core paths on a connected core.
    fn rebuild_core(&mut self, topo: &Topology) {
        let c = self.core.len();
        // `adj[adj_off[ui]..adj_off[ui + 1]]` = core index `ui`'s up
        // core-to-core links as (neighbour core index, link) pairs.
        let mut adj_off = Vec::with_capacity(c + 1);
        let mut adj: Vec<(u32, u32)> = Vec::new();
        adj_off.push(0);
        for &u in &self.core {
            for (v, lid) in topo.neighbours(NodeId(u as usize)) {
                let vci = self.core_idx[v.0];
                if self.link_up[lid.0] && vci != NO_ROUTE {
                    adj.push((vci, lid.0 as u32));
                }
            }
            adj_off.push(adj.len());
        }
        self.core_next.clear();
        self.core_next.resize(c * c, NO_ROUTE);
        self.core_dist.clear();
        self.core_dist.resize(c * c, u16::MAX);
        let words = c.div_ceil(64);
        let mut frontier = vec![0u64; words];
        let mut reached = vec![0u64; words];
        for (di, (next_row, dist_row)) in self
            .core_next
            .chunks_mut(c.max(1))
            .zip(self.core_dist.chunks_mut(c.max(1)))
            .enumerate()
        {
            frontier.fill(0);
            frontier[di / 64] = 1 << (di % 64);
            dist_row[di] = 0;
            let mut level = 0;
            loop {
                level += 1;
                reached.fill(0);
                let mut grew = false;
                for (w, &word) in frontier.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let ui = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        for &(vci, lid) in &adj[adj_off[ui]..adj_off[ui + 1]] {
                            let v = vci as usize;
                            if dist_row[v] == u16::MAX {
                                dist_row[v] = level;
                                next_row[v] = lid;
                                reached[v / 64] |= 1 << (v % 64);
                                grew = true;
                            }
                        }
                    }
                }
                if !grew {
                    break;
                }
                std::mem::swap(&mut frontier, &mut reached);
            }
        }
    }

    /// Apply a link flip: refresh the snapshot; rebuild the core tables if
    /// the flip touched a core link. Returns a tree-recompute count for
    /// stats plumbing (core size for core flips, 1 for tree flips).
    fn apply_flip(&mut self, topo: &Topology, link: LinkId) -> usize {
        if link.0 >= self.link_up.len() {
            self.link_up.resize(topo.links.len(), true);
        }
        self.link_up[link.0] = topo.links[link.0].up;
        let l = &topo.links[link.0];
        if self.depth[l.a.0] == 0 && self.depth[l.b.0] == 0 {
            self.rebuild_core(topo);
            self.core.len()
        } else {
            1
        }
    }

    /// Fill `chain` with `dst`'s strict ancestors' *child* nodes: slot `k`
    /// holds the node whose uplink is the `k`-th edge of the up-path, i.e.
    /// `chain[0] = dst` when `dst` is below the core. Returns the chain
    /// length (== `depth[dst]`).
    #[inline]
    fn dst_chain(&self, dst: usize, chain: &mut [usize; MAX_HIER_DEPTH]) -> usize {
        let mut len = 0;
        let mut cur = dst;
        while self.depth[cur] > 0 {
            chain[len] = cur;
            len += 1;
            cur = self.up_node[cur] as usize;
        }
        len
    }

    /// Are the chain edges `chain[0..k]`'s uplinks all up?
    #[inline]
    fn chain_up(&self, chain: &[usize; MAX_HIER_DEPTH], k: usize) -> bool {
        chain[..k]
            .iter()
            .all(|&v| self.up_link[v].map(|l| self.link_up[l.0]).unwrap_or(false))
    }

    /// See [`Routing::next_hop`], which has range-checked both nodes.
    /// O(tree depth), allocation-free.
    fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        if at == dst {
            return None;
        }
        let mut chain = [0usize; MAX_HIER_DEPTH];
        let dlen = self.dst_chain(dst.0, &mut chain);
        // Case 1: `at` is a strict ancestor of `dst` below the core —
        // descend into the subtree via the chain edge below `at`.
        for i in 1..dlen {
            if chain[i] == at.0 {
                if !self.chain_up(&chain, i) {
                    return None;
                }
                return self.up_link[chain[i - 1]];
            }
        }
        // Case 2: climb from `at` until the chain (lowest common
        // ancestor), `dst`'s anchor, or `at`'s own anchor.
        let mut cur = at.0;
        let mut first: Option<LinkId> = None;
        while self.depth[cur] > 0 {
            if let Some(pos) = chain[..dlen].iter().position(|&v| v == cur) {
                // LCA strictly below the core: verified climb + verified
                // descent below the meet point.
                if !self.chain_up(&chain, pos) {
                    return None;
                }
                return first;
            }
            let l = self.up_link[cur]?;
            if !self.link_up[l.0] {
                return None;
            }
            first.get_or_insert(l);
            cur = self.up_node[cur] as usize;
        }
        // `cur` is now `at`'s anchor. The descent below the core needs the
        // whole dst chain up.
        if !self.chain_up(&chain, dlen) {
            return None;
        }
        let anchor_dst = self.anchor[dst.0] as usize;
        if cur == anchor_dst {
            // Meeting point is the anchor itself: descend (or, when `at`
            // climbed, the first climb edge already answers).
            return match first {
                Some(l) => Some(l),
                None => self.up_link[chain[dlen - 1]],
            };
        }
        let (ua, ud) = (self.core_idx[cur], self.core_idx[anchor_dst]);
        if ua == NO_ROUTE || ud == NO_ROUTE {
            return None;
        }
        let c = self.core.len();
        let v = self.core_next[ud as usize * c + ua as usize];
        if v == NO_ROUTE {
            return None;
        }
        match first {
            Some(l) => Some(l),
            None => Some(LinkId(v as usize)),
        }
    }

    /// See [`Routing::distance`] — same traversal as
    /// [`HierRouting::next_hop`], counting hops closed-form.
    fn distance(&self, from: NodeId, to: NodeId) -> Option<u16> {
        if from == to {
            return Some(0);
        }
        let mut chain = [0usize; MAX_HIER_DEPTH];
        let dlen = self.dst_chain(to.0, &mut chain);
        for i in 1..dlen {
            if chain[i] == from.0 {
                if !self.chain_up(&chain, i) {
                    return None;
                }
                return Some(i as u16);
            }
        }
        let mut cur = from.0;
        let mut climbed: u16 = 0;
        while self.depth[cur] > 0 {
            if let Some(pos) = chain[..dlen].iter().position(|&v| v == cur) {
                if !self.chain_up(&chain, pos) {
                    return None;
                }
                return Some(climbed + pos as u16);
            }
            let l = self.up_link[cur]?;
            if !self.link_up[l.0] {
                return None;
            }
            climbed += 1;
            cur = self.up_node[cur] as usize;
        }
        if !self.chain_up(&chain, dlen) {
            return None;
        }
        let anchor_dst = self.anchor[to.0] as usize;
        if cur == anchor_dst {
            return Some(climbed + dlen as u16);
        }
        let (ua, ud) = (self.core_idx[cur], self.core_idx[anchor_dst]);
        if ua == NO_ROUTE || ud == NO_ROUTE {
            return None;
        }
        let c = self.core.len();
        let d = self.core_dist[ud as usize * c + ua as usize];
        if d == u16::MAX {
            return None;
        }
        Some(climbed + d + dlen as u16)
    }

    /// See [`Routing::tree_contains`]. In a strict hierarchy every live
    /// tree (uplink) edge is in every destination's forwarding tree; a
    /// core link is in `dst`'s tree iff some core node's next hop toward
    /// `dst`'s anchor crosses it.
    fn tree_contains(&self, dst: NodeId, link: LinkId) -> bool {
        if link.0 >= self.link_up.len() || !self.link_up[link.0] {
            return false;
        }
        if self.up_link.iter().flatten().any(|&up| up == link) {
            return true; // live uplink: carried by every reachable tree
        }
        let ud = self.core_idx[self.anchor[dst.0] as usize];
        if ud == NO_ROUTE {
            return false;
        }
        let c = self.core.len();
        (0..c).any(|ui| self.core_next[ud as usize * c + ui] == link.0 as u32)
    }
}

/// u64 words needed to stamp `links` links (at least one, so slicing per
/// destination stays well-defined on linkless topologies).
fn stamp_words(links: usize) -> usize {
    links.div_ceil(64).max(1)
}

/// Set `stamp_row` to the bitset of links appearing in `hops_row` — exactly
/// the edges of this destination's forwarding tree.
fn fill_stamp(hops_row: &[u32], stamp_row: &mut [u64]) {
    stamp_row.fill(0);
    for &h in hops_row {
        if h != NO_ROUTE {
            stamp_row[(h as usize) >> 6] |= 1u64 << (h & 63);
        }
    }
}

/// Dijkstra edge weight for extending a path one hop beyond `u` toward
/// destination `d`: 1, plus the stub-transit penalty when `u` (not the
/// destination itself) is a stub in a topology that distinguishes roles.
/// Must mirror the relaxation in [`bfs_from`] exactly.
#[inline]
fn hop_weight(topo: &Topology, has_transit: bool, u: NodeId, d: usize) -> u32 {
    if u.0 != d && has_transit && topo.nodes[u.0].role == NodeRole::Stub {
        1 + STUB_TRANSIT_PENALTY
    } else {
        1
    }
}

/// Dijkstra from destination `d`, filling that destination's next-hop,
/// distance, and cost rows (all pre-reset to their sentinels). Edge cost is
/// 1, plus [`STUB_TRANSIT_PENALTY`] when the hop would make a stub AS carry
/// third-party traffic. Ties break on `(cost, node id)`, so results are
/// deterministic. The distance row records the hop count of the selected
/// (cost-minimal) path.
fn bfs_from(
    topo: &Topology,
    d: NodeId,
    has_transit: bool,
    hops_row: &mut [u32],
    dist_row: &mut [u16],
    cost_row: &mut [u32],
) {
    let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
    cost_row[d.0] = 0;
    dist_row[d.0] = 0;
    heap.push(Reverse((0, d.0)));
    while let Some(Reverse((cu, ui))) = heap.pop() {
        if cu > cost_row[ui] {
            continue; // stale entry
        }
        let u = NodeId(ui);
        // Cost of extending the path one hop beyond `u`: traffic would
        // then *transit* `u` (unless `u` is the destination itself).
        let transit_penalty = if u != d && has_transit && topo.nodes[ui].role == NodeRole::Stub {
            STUB_TRANSIT_PENALTY
        } else {
            0
        };
        for &lid in &topo.nodes[ui].links {
            if !topo.links[lid.0].up {
                continue; // failed links carry nothing
            }
            let v = topo.links[lid.0].other(u);
            let nc = cu.saturating_add(1).saturating_add(transit_penalty);
            if nc < cost_row[v.0] {
                cost_row[v.0] = nc;
                dist_row[v.0] = dist_row[ui] + 1;
                // From v, the way toward d is the link back to u.
                hops_row[v.0] = lid.0 as u32;
                heap.push(Reverse((nc, v.0)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn line_routes_are_sequential() {
        let topo = Topology::line(5);
        let r = Routing::compute(&topo);
        assert_eq!(r.distance(NodeId(0), NodeId(4)), Some(4));
        let p = r.path(&topo, NodeId(0), NodeId(4)).unwrap();
        assert_eq!(p, (0..5).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn self_route_is_none() {
        let topo = Topology::line(3);
        let r = Routing::compute(&topo);
        assert_eq!(r.next_hop(NodeId(1), NodeId(1)), None);
        assert_eq!(r.distance(NodeId(1), NodeId(1)), Some(0));
    }

    #[test]
    fn star_all_pairs_via_hub() {
        let topo = Topology::star(5);
        let r = Routing::compute(&topo);
        for i in 1..=5 {
            for j in 1..=5 {
                if i != j {
                    assert_eq!(r.distance(NodeId(i), NodeId(j)), Some(2));
                    let p = r.path(&topo, NodeId(i), NodeId(j)).unwrap();
                    assert!(p.contains(&NodeId(0)));
                }
            }
        }
    }

    #[test]
    fn disconnected_has_no_route() {
        let mut topo = Topology::line(2);
        let lonely = topo.add_node(crate::node::NodeRole::Stub);
        let r = Routing::compute(&topo);
        assert_eq!(r.next_hop(NodeId(0), lonely), None);
        assert_eq!(r.distance(NodeId(0), lonely), None);
    }

    #[test]
    fn paths_are_shortest_on_ba() {
        let topo = Topology::barabasi_albert(120, 2, 0.1, 17);
        let r = Routing::compute(&topo);
        // Spot-check: path length equals reported distance.
        for (from, to) in [(0usize, 119usize), (5, 80), (33, 34)] {
            let d = r.distance(NodeId(from), NodeId(to)).unwrap() as usize;
            let p = r.path(&topo, NodeId(from), NodeId(to)).unwrap();
            assert_eq!(p.len(), d + 1);
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let topo = Topology::barabasi_albert(80, 2, 0.1, 23);
        let a = Routing::compute(&topo);
        let b = Routing::compute(&topo);
        assert_eq!(a.next_hop, b.next_hop);
    }

    #[test]
    fn enters_via_edge_cases() {
        // Line 0-1-2-3-4.
        let topo = Topology::line(5);
        let r = Routing::compute(&topo);
        // Mid-path: 0→4 enters 2 from 1.
        assert_eq!(
            r.enters_via(&topo, NodeId(0), NodeId(4), NodeId(2)),
            Some(NodeId(1))
        );
        // src == at: the path's first node has no entering neighbour.
        assert_eq!(r.enters_via(&topo, NodeId(2), NodeId(4), NodeId(2)), None);
        // at == dst: the last hop still enters via its neighbour.
        assert_eq!(
            r.enters_via(&topo, NodeId(0), NodeId(4), NodeId(4)),
            Some(NodeId(3))
        );
        // at off-path: 0→2 never touches 4.
        assert_eq!(r.enters_via(&topo, NodeId(0), NodeId(2), NodeId(4)), None);
        // src == dst: empty path contains no entry point.
        assert_eq!(r.enters_via(&topo, NodeId(3), NodeId(3), NodeId(2)), None);
    }

    #[test]
    fn enters_via_unreachable_dst() {
        let mut topo = Topology::line(3);
        let lonely = topo.add_node(crate::node::NodeRole::Stub);
        let r = Routing::compute(&topo);
        assert_eq!(r.enters_via(&topo, NodeId(0), lonely, NodeId(1)), None);
        assert_eq!(r.enters_via(&topo, lonely, NodeId(2), NodeId(1)), None);
    }

    #[test]
    fn enters_via_out_of_range_nodes() {
        let topo = Topology::line(3);
        let r = Routing::compute(&topo);
        // Spoofed sources can name addresses outside the topology entirely.
        assert_eq!(r.enters_via(&topo, NodeId(99), NodeId(2), NodeId(1)), None);
        assert_eq!(r.enters_via(&topo, NodeId(0), NodeId(99), NodeId(1)), None);
        assert_eq!(r.enters_via(&topo, NodeId(0), NodeId(2), NodeId(99)), None);
    }

    /// A destination or a position outside the topology has no route, on
    /// either backend — including the `at` one past the end, whose index
    /// would land inside the next destination's row.
    #[test]
    fn next_hop_and_distance_out_of_range_nodes() {
        let (_, r_hier, r_dense) = hier_and_dense_twin();
        let line = Routing::compute(&Topology::line(3));
        for r in [&line, &r_hier, &r_dense] {
            let n = r.n();
            for (a, b) in [(0, n), (n, 0), (0, 9999), (9999, 0), (n, n)] {
                assert_eq!(r.next_hop(NodeId(a), NodeId(b)), None, "next_hop({a},{b})");
                assert_eq!(r.distance(NodeId(a), NodeId(b)), None, "distance({a},{b})");
            }
        }
    }

    #[test]
    fn next_hop_moves_closer() {
        let topo = Topology::barabasi_albert(100, 2, 0.1, 29);
        let r = Routing::compute(&topo);
        for u in 0..topo.n() {
            let dst = NodeId((u + 37) % topo.n());
            if NodeId(u) == dst {
                continue;
            }
            let l = r.next_hop(NodeId(u), dst).unwrap();
            let v = topo.links[l.0].other(NodeId(u));
            assert_eq!(
                r.distance(v, dst).unwrap() + 1,
                r.distance(NodeId(u), dst).unwrap()
            );
        }
    }

    #[test]
    fn stamps_cover_exactly_the_tree_links() {
        let topo = Topology::barabasi_albert(60, 2, 0.1, 31);
        let r = Routing::compute(&topo);
        for d in 0..topo.n() {
            // A link is stamped iff some node's next hop toward d uses it.
            let mut used = vec![false; topo.links.len()];
            for u in 0..topo.n() {
                if let Some(l) = r.next_hop(NodeId(u), NodeId(d)) {
                    used[l.0] = true;
                }
            }
            for (l, &u) in used.iter().enumerate() {
                assert_eq!(r.tree_contains(NodeId(d), LinkId(l)), u, "d={d} l={l}");
            }
        }
    }

    #[test]
    fn flip_down_and_up_matches_cold_recompute() {
        let mut topo = Topology::barabasi_albert(60, 2, 0.1, 41);
        let mut r = Routing::compute(&topo);
        for lid in [3usize, 17, 44, 80] {
            let lid = lid % topo.links.len();
            topo.links[lid].up = false;
            r.apply_link_flip(&topo, LinkId(lid));
            assert!(
                r.tables_match(&Routing::compute(&topo)),
                "down flip of link {lid} diverged"
            );
            topo.links[lid].up = true;
            r.apply_link_flip(&topo, LinkId(lid));
            assert!(
                r.tables_match(&Routing::compute(&topo)),
                "up flip of link {lid} diverged"
            );
        }
        assert_eq!(r.epoch(), 8, "each flip bumps the epoch once");
    }

    #[test]
    fn flip_reports_global_damage_as_full_rebuild() {
        // Line 0-1-2-3-4-5: every destination's tree spans all nodes, so
        // the end link 4-5 is in every tree (node 5 exits through it). Its
        // failure damages everything: the flip must fall back to a full
        // rebuild and still match a cold recompute. Restoring it likewise
        // changes every destination (5 becomes reachable / reaches all).
        let mut topo = Topology::line(6);
        let mut r = Routing::compute(&topo);
        let last = topo.links.len() - 1;
        topo.links[last].up = false;
        let out = r.apply_link_flip(&topo, LinkId(last));
        assert!(out.full, "spanning-tree link damages every destination");
        assert!(r.tables_match(&Routing::compute(&topo)));

        topo.links[last].up = true;
        let out = r.apply_link_flip(&topo, LinkId(last));
        assert!(out.full, "reattaching a node touches every tree");
        assert!(r.tables_match(&Routing::compute(&topo)));
    }

    /// Hub-and-spoke star plus one redundant leaf-leaf shortcut: the
    /// shortcut only appears in the two leaf destinations' trees, so its
    /// flips must splice exactly those two rows.
    fn star_with_shortcut() -> (Topology, LinkId) {
        let mut topo = Topology::star(5);
        let chord = topo
            .connect(NodeId(1), NodeId(2), crate::link::LinkProfile::access())
            .expect("leaves 1 and 2 start unconnected");
        (topo, chord)
    }

    #[test]
    fn redundant_link_flip_is_incremental() {
        let (mut topo, chord) = star_with_shortcut();
        let mut r = Routing::compute(&topo);
        assert!(r.tree_contains(NodeId(1), chord));
        assert!(!r.tree_contains(NodeId(3), chord));

        topo.links[chord.0].up = false;
        let out = r.apply_link_flip(&topo, chord);
        assert!(!out.full, "shortcut removal should splice incrementally");
        assert_eq!(out.trees_recomputed, 2, "only the two leaf dsts change");
        assert!(r.tables_match(&Routing::compute(&topo)));

        topo.links[chord.0].up = true;
        let out = r.apply_link_flip(&topo, chord);
        assert!(!out.full, "shortcut restore should splice incrementally");
        assert_eq!(out.trees_recomputed, 2);
        assert!(r.tables_match(&Routing::compute(&topo)));
    }

    #[test]
    fn changed_at_reports_damage_precisely() {
        let (mut topo, chord) = star_with_shortcut();
        let mut r = Routing::compute(&topo);
        let all = |r: &Routing| {
            (0..r.n())
                .map(|d| r.changed_at(NodeId(d)))
                .collect::<Vec<_>>()
        };
        assert_eq!(all(&r), [0; 6], "a fresh table has moved nothing");

        topo.links[chord.0].up = false;
        let out = r.apply_link_flip(&topo, chord);
        assert_eq!(out.trees_recomputed, 2);
        assert_eq!(all(&r), [0, 1, 1, 0, 0, 0], "the two leaves' rows moved");
        // The dead link left the spliced trees.
        assert!(!r.tree_contains(NodeId(1), chord) && !r.tree_contains(NodeId(2), chord));

        // A hub spoke is in every tree: the rebuild marks every row, and a
        // later splice moves only its own rows past that mark.
        let spoke = LinkId(4);
        topo.links[spoke.0].up = false;
        assert!(r.apply_link_flip(&topo, spoke).full);
        assert_eq!(all(&r), [2; 6]);
        topo.links[chord.0].up = true;
        assert!(!r.apply_link_flip(&topo, chord).full);
        assert_eq!(all(&r), [2, 3, 3, 2, 2, 2]);
        // A destination outside the topology has no row of its own.
        assert_eq!(r.changed_at(NodeId(99)), 2);
    }

    /// A transit-stub topology plus its role-identical dense twin (the
    /// same graph with the hierarchy metadata stripped, forcing the dense
    /// backend).
    fn hier_and_dense_twin() -> (Topology, Routing, Routing) {
        let topo = Topology::transit_stub(6, 3, 2, 19);
        let r_hier = Routing::compute(&topo);
        let mut flat = topo.clone();
        flat.hierarchy = None;
        let r_dense = Routing::compute(&flat);
        (topo, r_hier, r_dense)
    }

    #[test]
    fn hier_backend_selected_by_metadata() {
        let (_, r_hier, r_dense) = hier_and_dense_twin();
        assert!(r_hier.is_hierarchical());
        assert!(!r_dense.is_hierarchical());
    }

    #[test]
    fn hier_distances_match_dense_all_pairs() {
        let (_, r_hier, r_dense) = hier_and_dense_twin();
        let n = r_hier.n();
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    r_hier.distance(NodeId(u), NodeId(v)),
                    r_dense.distance(NodeId(u), NodeId(v)),
                    "distance({u},{v})"
                );
            }
        }
    }

    #[test]
    fn hier_paths_are_consistent_and_shortest() {
        // Walking next_hop must terminate at the destination in exactly
        // `distance` hops, for every pair.
        let (topo, r_hier, _) = hier_and_dense_twin();
        let n = r_hier.n();
        for u in 0..n {
            for v in 0..n {
                let d = r_hier.distance(NodeId(u), NodeId(v)).unwrap() as usize;
                let p = r_hier.path(&topo, NodeId(u), NodeId(v)).unwrap();
                assert_eq!(p.len(), d + 1, "path({u},{v})");
            }
        }
    }

    #[test]
    fn hier_enters_via_matches_dense() {
        let (topo, r_hier, r_dense) = hier_and_dense_twin();
        let mut flat = topo.clone();
        flat.hierarchy = None;
        let n = r_hier.n();
        // enters_via is next-hop-walk-derived; with identical walks the
        // answers agree everywhere. Sample the full cube coarsely.
        for src in (0..n).step_by(3) {
            for dst in (0..n).step_by(5) {
                for at in (0..n).step_by(7) {
                    assert_eq!(
                        r_hier.enters_via(&topo, NodeId(src), NodeId(dst), NodeId(at)),
                        r_dense.enters_via(&flat, NodeId(src), NodeId(dst), NodeId(at)),
                        "enters_via({src},{dst},{at})"
                    );
                }
            }
        }
    }

    #[test]
    fn hier_uplink_failure_cuts_subtree_both_ways() {
        let (mut topo, mut r, _) = hier_and_dense_twin();
        // Find a stub router (depth-1 node): its uplink is its link to a
        // transit node.
        let h = topo.hierarchy.clone().unwrap();
        let stub = (0..topo.n())
            .find(|&i| {
                h.up_link[i].is_some_and(|l| {
                    let far = topo.links[l.0].other(NodeId(i));
                    h.up_link[far.0].is_none()
                })
            })
            .unwrap();
        let up = h.up_link[stub].unwrap();
        topo.links[up.0].up = false;
        let out = r.apply_link_flip(&topo, up);
        assert!(out.full, "hier flips are conservatively full");
        // The stub and everything under it is unreachable from the core...
        assert_eq!(r.next_hop(h.core[0], NodeId(stub)), None);
        assert_eq!(r.distance(h.core[0], NodeId(stub)), None);
        // ...and cannot reach out.
        assert_eq!(r.next_hop(NodeId(stub), h.core[0]), None);
        // But hosts under the stub still reach the stub itself.
        if let Some(host) = (0..topo.n()).find(|&i| {
            h.up_link[i].is_some_and(|l| topo.links[l.0].other(NodeId(i)) == NodeId(stub))
        }) {
            assert_eq!(r.distance(NodeId(host), NodeId(stub)), Some(1));
        }
        // Restoring heals it.
        topo.links[up.0].up = true;
        r.apply_link_flip(&topo, up);
        assert!(r.distance(h.core[0], NodeId(stub)).is_some());
    }

    #[test]
    fn hier_core_flip_reroutes_and_subscribers_refresh() {
        let (mut topo, mut r, _) = hier_and_dense_twin();
        let h = topo.hierarchy.clone().unwrap();
        // Fail one core ring link; the chords keep the core connected in
        // most seeds — all core pairs must still resolve or both sides
        // agree on unreachability via a fresh compute.
        let core_link = (0..topo.links.len())
            .find(|&l| {
                let (a, b) = (topo.links[l].a, topo.links[l].b);
                h.up_link[a.0].is_none() && h.up_link[b.0].is_none()
            })
            .unwrap();
        let before_epoch = r.epoch();
        topo.links[core_link].up = false;
        r.apply_link_flip(&topo, LinkId(core_link));
        assert_eq!(r.epoch(), before_epoch + 1);
        // No rows to tell apart: every destination counts as changed.
        for d in 0..r.n() {
            assert_eq!(r.changed_at(NodeId(d)), before_epoch + 1);
        }
        // The incremental flip equals a cold recompute on the flipped topo.
        assert!(r.tables_match(&Routing::compute(&topo)));
    }

    #[test]
    fn hier_scales_linearly_in_memory() {
        // 20k-node topology: dense tables would be 20k² ≈ 400M entries;
        // the hierarchical backend must build fast and answer correctly.
        let topo = Topology::transit_stub_at_least(20_000, 5);
        let r = Routing::compute(&topo);
        assert!(r.is_hierarchical());
        let h = topo.hierarchy.as_ref().unwrap();
        let (host, core) = (NodeId(topo.n() - 1), h.core[0]);
        let d = r.distance(host, core).unwrap();
        assert!(d >= 2, "host sits two tiers below the core");
        let p = r.path(&topo, host, core).unwrap();
        assert_eq!(p.len(), d as usize + 1);
    }

    /// The core tables as the hierarchical backend first built them: one
    /// heap Dijkstra per core destination, popping by `(cost, node id)`,
    /// relaxing on strict improvement, and scanning every incident link of
    /// a popped node (stub uplinks included) before skipping non-core ends.
    fn reference_core_tables(h: &HierRouting, topo: &Topology) -> (Vec<u32>, Vec<u16>) {
        let c = h.core.len();
        let mut core_next = vec![NO_ROUTE; c * c];
        let mut core_dist = vec![u16::MAX; c * c];
        for di in 0..c {
            let (next_row, dist_row) = (
                &mut core_next[di * c..(di + 1) * c],
                &mut core_dist[di * c..(di + 1) * c],
            );
            let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
            let mut cost = vec![u32::MAX; c];
            cost[di] = 0;
            dist_row[di] = 0;
            heap.push(Reverse((0, h.core[di] as usize)));
            while let Some(Reverse((cu, ui))) = heap.pop() {
                let uci = h.core_idx[ui] as usize;
                if cu > cost[uci] {
                    continue;
                }
                for &lid in &topo.nodes[ui].links {
                    if !h.link_up[lid.0] {
                        continue;
                    }
                    let vci = h.core_idx[topo.links[lid.0].other(NodeId(ui)).0];
                    if vci == NO_ROUTE {
                        continue;
                    }
                    if cu + 1 < cost[vci as usize] {
                        cost[vci as usize] = cu + 1;
                        dist_row[vci as usize] = dist_row[uci] + 1;
                        next_row[vci as usize] = lid.0 as u32;
                        heap.push(Reverse((cu + 1, h.core[vci as usize] as usize)));
                    }
                }
            }
        }
        (core_next, core_dist)
    }

    /// Assert the live core tables equal the reference Dijkstra's; returns
    /// how many core cells are unreachable.
    fn assert_core_matches_reference(r: &Routing, topo: &Topology, step: &str) -> usize {
        let h = r.hier.as_ref().expect("hierarchical backend");
        let (next, dist) = reference_core_tables(h, topo);
        assert!(
            h.core_next == next,
            "core_next differs from the reference {step}"
        );
        assert!(
            h.core_dist == dist,
            "core_dist differs from the reference {step}"
        );
        next.iter().filter(|&&l| l == NO_ROUTE).count() - h.core.len()
    }

    /// Take every chord down, then two ring links (the second cut splits
    /// the core in two), then bring them all back up in the same order,
    /// holding the core tables to the reference after each flip.
    fn core_flips_match_reference(mut topo: Topology) {
        let mut r = Routing::compute(&topo);
        assert_eq!(assert_core_matches_reference(&r, &topo, "after compute"), 0);
        let core = topo.hierarchy.as_ref().unwrap().core.clone();
        let c = core.len();
        assert!(c >= 4, "a ring with two cuts needs four core nodes");
        // `transit_stub` adds the core first (ids 0..c), then the ring:
        // link i joins core i and i + 1.
        for (i, l) in topo.links[..c].iter().enumerate() {
            assert_eq!((l.a, l.b), (core[i], core[(i + 1) % c]), "ring link {i}");
        }
        let chords = (c..topo.links.len())
            .filter(|&l| topo.links[l].a.0 < c && topo.links[l].b.0 < c)
            .map(LinkId);
        let script: Vec<LinkId> = chords.chain([LinkId(0), LinkId(c / 2)]).collect();
        let (mut split, mut unreachable) = (false, 0);
        for up in [false, true] {
            for &l in &script {
                topo.links[l.0].up = up;
                r.apply_link_flip(&topo, l);
                let step = format!("after link {} {}", l.0, if up { "up" } else { "down" });
                unreachable = assert_core_matches_reference(&r, &topo, &step);
                split |= unreachable > 0;
            }
        }
        assert!(split, "the two ring cuts must leave unreachable core cells");
        assert_eq!(unreachable, 0, "every core link is back up");
    }

    #[test]
    fn core_tables_match_the_reference_dijkstra_through_core_flips() {
        for (n_transit, seed) in (6..=12).zip(1..) {
            core_flips_match_reference(Topology::transit_stub(n_transit, 3, 2, seed));
        }
        for seed in [1, 7, 42] {
            core_flips_match_reference(Topology::transit_stub_at_least(20_000, seed));
        }
    }
}
