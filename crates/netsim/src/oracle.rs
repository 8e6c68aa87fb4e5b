//! Route-consistency oracle: memoized `enters_via` queries in amortized O(1).
//!
//! The route-based anti-spoofing check (Park & Lee, Sec. 3.2) asks, per
//! packet arriving at a filtering node: "on the real forwarding path from
//! the claimed source to the destination, which neighbour hands traffic to
//! this node?" [`Routing::enters_via`] answers by re-walking the src→dst
//! next-hop chain — O(path length) per packet, per filtering node. DDoS
//! workloads are massively flow-repetitive (the same spoofed (src, dst)
//! pairs arrive millions of times), so an E3-style coverage sweep pays that
//! walk over and over for answers that never change between routing
//! recomputes.
//!
//! A [`RouteOracle`] sits in front of the walk with a per-node cache keyed
//! by `(src_node, dst_node)` (the querying node `at` is fixed per oracle).
//! Both positive and negative answers are cached — negative answers are the
//! common case under spoofing, since most claimed sources do not enter via
//! the observed link. Correctness across failure injection comes from the
//! routing *epoch* plus a delta protocol: every [`Routing`] table carries a
//! generation counter which [`crate::sim::Simulator::set_link_up`] bumps
//! when it applies a link flip, and on the next query the oracle asks
//! [`Routing::dsts_invalidated_since`] which destinations actually changed.
//! A cached `(src, dst)` answer depends only on destination `dst`'s
//! next-hop row (the walk follows `next_hop(·, dst)`), so entries whose
//! destination survived the flip stay warm; only damaged destinations are
//! evicted. When the history cannot answer precisely (full recompute,
//! manually tagged epoch, consumer too far behind) the oracle falls back to
//! the wholesale clear. Either way it is answer-for-answer identical to
//! calling [`Routing::enters_via`] directly — pure memoization, with zero
//! behavioral drift (property-tested in this module and in
//! `crate::proptests` under random flap schedules).
//!
//! The cache itself is a small open-addressed table with a packed
//! `(src << 32) | dst` key and Fibonacci hashing, not a `std::collections::
//! HashMap`: at internet-realistic path lengths the walk costs only tens of
//! nanoseconds, so a SipHash lookup would eat most of the win. Lookups here
//! are a multiply, a shift and (almost always) one probe.

use crate::addr::Prefix;
use crate::node::{LinkId, NodeId};
use crate::packet::Packet;
use crate::routing::Routing;
use crate::topology::Topology;

/// Slot sentinel: no key. Valid keys always have `src < n <= u32::MAX` and
/// `dst < n`, checked before insertion, so the all-ones pattern never
/// collides with a real `(src, dst)` pair that reaches the table.
const EMPTY: u64 = u64::MAX;

/// Cached "not on path / unreachable" answer.
const NONE_VAL: u32 = u32::MAX;

/// Table capacity after the first insert (slots; power of two). Until
/// then a cache holds no table at all: most filters on a big graph never
/// judge a customer-side packet, and 50,000 of them are deployed at once.
const FIRST_SLOTS: usize = 1 << 4;

/// Largest table before the oracle resets instead of growing further.
/// Random-spoof floods can synthesize up to n² distinct keys; a node's
/// table is sized by the pairs it has been asked about, from nothing up to
/// this cap (12 B × 2^17 ≈ 1.5 MiB), and degrades gracefully to periodic
/// full resets under that adversarial mix.
const MAX_SLOTS: usize = 1 << 17;

/// Open-addressed `(u64 key → u32 value)` map with linear probing. The
/// default is the table-less cache: `get` answers `None`, `clear` and
/// `evict_where` find nothing to do, the first `insert` allocates.
#[derive(Clone, Debug, Default)]
struct FlatCache {
    keys: Vec<u64>,
    vals: Vec<u32>,
    /// `slots - 1`; slots is a power of two.
    mask: usize,
    /// Bits to right-shift the mixed hash so the top bits index the table.
    shift: u32,
    len: usize,
}

#[inline]
fn mix(key: u64) -> u64 {
    // Fibonacci hashing: top bits of the product are well distributed.
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl FlatCache {
    fn with_slots(slots: usize) -> FlatCache {
        debug_assert!(slots.is_power_of_two());
        FlatCache {
            keys: vec![EMPTY; slots],
            vals: vec![0; slots],
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        let mut i = (mix(key) >> self.shift) as usize;
        loop {
            // Out of range only when there is no table.
            let k = *self.keys.get(i)?;
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn insert(&mut self, key: u64, val: u32) {
        // Keep load below 1/2 so probe chains stay short.
        if (self.len + 1) * 2 > self.keys.len() {
            if self.keys.len() >= MAX_SLOTS {
                self.clear();
            } else {
                self.grow();
            }
        }
        let mut i = (mix(key) >> self.shift) as usize;
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            if k == key {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let mut bigger = FlatCache::with_slots((self.keys.len() * 2).max(FIRST_SLOTS));
        for (i, &k) in self.keys.iter().enumerate() {
            if k != EMPTY {
                bigger.insert(k, self.vals[i]);
            }
        }
        *self = bigger;
    }

    fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }

    /// Drop every entry whose key matches `pred`, keeping the rest warm.
    /// Returns how many entries were evicted. Rebuilds in place: linear
    /// probing cannot punch holes without breaking probe chains, and a
    /// single O(slots) rebuild costs the same order as the wholesale
    /// `clear` it replaces.
    fn evict_where(&mut self, mut pred: impl FnMut(u64) -> bool) -> usize {
        let slots = self.keys.len();
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; slots]);
        self.len = 0;
        let mut evicted = 0;
        for (i, &k) in old_keys.iter().enumerate() {
            if k == EMPTY {
                continue;
            }
            if pred(k) {
                evicted += 1;
            } else {
                self.insert(k, old_vals[i]);
            }
        }
        evicted
    }
}

/// Amortized-O(1) route-consistency oracle for one filtering node.
///
/// Owned by the agent that queries it (one oracle per `at` node). Answers
/// are always identical to [`Routing::enters_via`]; a routing-epoch bump
/// (failure injection applying a link flip) invalidates — on the next
/// query — exactly the cached entries whose destination the flip damaged,
/// falling back to a wholesale clear when the table's delta history cannot
/// pinpoint the damage.
#[derive(Clone, Debug)]
pub struct RouteOracle {
    /// Node whose entry links are being checked (`at` in `enters_via`).
    at: NodeId,
    /// Routing epoch the cache contents were computed under.
    epoch: u64,
    cache: FlatCache,
    hits: u64,
    misses: u64,
    /// Epoch syncs resolved by targeted per-destination eviction.
    partial_evictions: u64,
    /// Epoch syncs that fell back to dropping the whole cache.
    full_clears: u64,
    /// Total cached entries dropped by targeted evictions.
    entries_evicted: u64,
}

impl RouteOracle {
    /// Oracle for route-consistency queries at node `at`.
    pub fn new(at: NodeId) -> RouteOracle {
        RouteOracle {
            at,
            epoch: 0,
            cache: FlatCache::default(),
            hits: 0,
            misses: 0,
            partial_evictions: 0,
            full_clears: 0,
            entries_evicted: 0,
        }
    }

    /// The node this oracle answers for.
    pub fn at(&self) -> NodeId {
        self.at
    }

    /// `(cache hits, cache misses)` since construction — observability for
    /// benches and perf assertions.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `(partial evictions, full clears, entries evicted)` since
    /// construction: how often epoch syncs kept the cache warm vs dropped
    /// it, and how many entries the targeted path actually removed.
    pub fn invalidation_stats(&self) -> (u64, u64, u64) {
        (
            self.partial_evictions,
            self.full_clears,
            self.entries_evicted,
        )
    }

    /// Catch up with `routing`'s epoch: evict precisely the entries whose
    /// destination changed since we last looked, or everything when the
    /// delta history cannot say.
    #[cold]
    fn sync_epoch(&mut self, routing: &Routing) {
        match routing.dsts_invalidated_since(self.epoch) {
            Some(dsts) => {
                if !dsts.is_empty() {
                    let n = routing.n();
                    let mut damaged = vec![0u64; n.div_ceil(64).max(1)];
                    for d in dsts {
                        damaged[d.0 >> 6] |= 1u64 << (d.0 & 63);
                    }
                    self.entries_evicted += self.cache.evict_where(|key| {
                        let dst = (key & u64::from(u32::MAX)) as usize;
                        dst < n && damaged[dst >> 6] & (1u64 << (dst & 63)) != 0
                    }) as u64;
                }
                self.partial_evictions += 1;
            }
            None => {
                self.cache.clear();
                self.full_clears += 1;
            }
        }
        self.epoch = routing.epoch();
    }

    /// Memoized [`Routing::enters_via`]`(topo, src, dst, self.at())`: on the
    /// forwarding path `src → dst`, which neighbour hands traffic to this
    /// oracle's node? `None` when the node is not on that path, is the
    /// path's first node, or src/dst are unreachable or out of range.
    #[inline]
    pub fn enters_via(
        &mut self,
        routing: &Routing,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Option<NodeId> {
        if routing.epoch() != self.epoch {
            self.sync_epoch(routing);
        }
        let n = routing.n();
        if src.0 >= n || dst.0 >= n || self.at.0 >= n {
            return None; // out-of-range addresses never route here
        }
        let key = ((src.0 as u64) << 32) | dst.0 as u64;
        if let Some(v) = self.cache.get(key) {
            self.hits += 1;
            return if v == NONE_VAL {
                None
            } else {
                Some(NodeId(v as usize))
            };
        }
        self.misses += 1;
        let answer = routing.enters_via(topo, src, dst, self.at);
        let encoded = match answer {
            Some(via) => {
                debug_assert!(via.0 < NONE_VAL as usize);
                via.0 as u32
            }
            None => NONE_VAL,
        };
        self.cache.insert(key, encoded);
        answer
    }

    /// The source-address check every anti-spoofing filter at this node
    /// shares (RFC 2267 at the origin, Park & Lee route-based filtering at
    /// customer edges; paper Secs. 3.2 and 4.3): why `pkt`'s claimed source
    /// cannot be entering here the way it did, or `None` when it can. A
    /// local emission (`from` is `None`) must carry a local source; an
    /// arrival over a customer interface must come from the peer the real
    /// `src → dst` route enters through — which accepts multi-AS customer
    /// cones (a stub behind a stub) that a bare prefix check would
    /// false-positive on; transit arrivals are never judged. The returned
    /// string doubles as the verdict's trace detail.
    pub fn source_mismatch(
        &mut self,
        routing: &Routing,
        topo: &Topology,
        pkt: &Packet,
        from: Option<LinkId>,
    ) -> Option<&'static str> {
        let Some(link) = from else {
            let local = Prefix::of_node(self.at).contains(pkt.src);
            return (!local).then_some("local-src-mismatch");
        };
        let peer = topo.links[link.0].other(self.at);
        if !topo.is_customer_of(peer, self.at) {
            return None;
        }
        let expected = self.enters_via(routing, topo, pkt.src.node(), pkt.dst.node());
        (expected != Some(peer)).then_some("route-mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LinkId;
    use crate::rng::seeded;
    use crate::topology::Topology;

    /// Every (src, dst, at) triple answers exactly like the direct walk,
    /// repeatedly (exercising both fill and hit paths).
    #[test]
    fn oracle_matches_direct_walk() {
        let topo = Topology::barabasi_albert(60, 2, 0.1, 7);
        let routing = Routing::compute(&topo);
        for at in 0..topo.n() {
            let mut oracle = RouteOracle::new(NodeId(at));
            for _round in 0..2 {
                for src in 0..topo.n() {
                    for dst in 0..topo.n() {
                        let want = routing.enters_via(&topo, NodeId(src), NodeId(dst), NodeId(at));
                        let got = oracle.enters_via(&routing, &topo, NodeId(src), NodeId(dst));
                        assert_eq!(got, want, "src={src} dst={dst} at={at}");
                    }
                }
            }
            let (hits, misses) = oracle.stats();
            assert_eq!(misses, (topo.n() * topo.n()) as u64, "one walk per pair");
            assert_eq!(hits, (topo.n() * topo.n()) as u64, "second round all hits");
        }
    }

    #[test]
    fn out_of_range_queries_answer_none_and_do_not_cache() {
        let topo = Topology::line(4);
        let routing = Routing::compute(&topo);
        let mut oracle = RouteOracle::new(NodeId(1));
        assert_eq!(
            oracle.enters_via(&routing, &topo, NodeId(9999), NodeId(3)),
            None
        );
        assert_eq!(
            oracle.enters_via(&routing, &topo, NodeId(0), NodeId(77777)),
            None
        );
        assert_eq!(oracle.stats(), (0, 0), "range rejects bypass the cache");
    }

    #[test]
    fn epoch_bump_invalidates() {
        // Ring of 4: 0-1-2-3-0. Path 0→2 tie-breaks via one side; failing
        // the link on that side must flip the cached answer.
        use crate::link::LinkProfile;
        use crate::node::NodeRole;
        let mut topo = Topology::new();
        for _ in 0..4 {
            topo.add_node(NodeRole::Stub);
        }
        for i in 0..4usize {
            topo.connect(NodeId(i), NodeId((i + 1) % 4), LinkProfile::transit());
        }
        let routing = Routing::compute(&topo);
        let mut oracle = RouteOracle::new(NodeId(1));
        let before = oracle.enters_via(&routing, &topo, NodeId(0), NodeId(2));
        assert_eq!(before, Some(NodeId(0)), "0→2 goes 0-1-2 by tie-break");

        // Fail link 0-1; recompute with a bumped epoch (as the simulator's
        // failure injection does).
        let l01 = topo.nodes[0]
            .links
            .iter()
            .copied()
            .find(|&l| topo.links[l.0].other(NodeId(0)) == NodeId(1))
            .unwrap();
        topo.links[l01.0].up = false;
        let mut recomputed = Routing::compute(&topo);
        recomputed.set_epoch(routing.epoch() + 1);

        let after = oracle.enters_via(&recomputed, &topo, NodeId(0), NodeId(2));
        assert_eq!(after, None, "0→2 now goes 0-3-2, bypassing node 1");
        assert_eq!(
            after,
            recomputed.enters_via(&topo, NodeId(0), NodeId(2), NodeId(1))
        );
    }

    /// Property: over random topologies and random link-failure schedules,
    /// the oracle (which only ever sees epoch bumps) answers identically to
    /// a fresh `Routing::compute` at every step.
    #[test]
    fn random_failures_never_desync_oracle() {
        for seed in 0..8u64 {
            let mut topo = Topology::barabasi_albert(40, 2, 0.1, seed);
            let mut routing = Routing::compute(&topo);
            let mut rng = seeded(seed ^ 0xFA11);
            let n = topo.n();
            let mut oracles: Vec<RouteOracle> =
                (0..n).map(|i| RouteOracle::new(NodeId(i))).collect();

            for _step in 0..6 {
                // Warm the caches with a batch of random queries, checking
                // against the walk.
                for _q in 0..300 {
                    let src = NodeId(rng.gen_range(0..n));
                    let dst = NodeId(rng.gen_range(0..n));
                    let at = rng.gen_range(0..n);
                    let want = routing.enters_via(&topo, src, dst, NodeId(at));
                    assert_eq!(
                        oracles[at].enters_via(&routing, &topo, src, dst),
                        want,
                        "seed={seed} src={src:?} dst={dst:?} at={at}"
                    );
                }
                // Flip a random link and recompute, as set_link_up does.
                let lid = LinkId(rng.gen_range(0..topo.links.len()));
                let up = topo.links[lid.0].up;
                topo.links[lid.0].up = !up;
                let epoch = routing.epoch();
                routing = Routing::compute(&topo);
                routing.set_epoch(epoch + 1);
                // Answers after the failure must match a *fresh* compute.
                let fresh = Routing::compute(&topo);
                for _q in 0..300 {
                    let src = NodeId(rng.gen_range(0..n));
                    let dst = NodeId(rng.gen_range(0..n));
                    let at = rng.gen_range(0..n);
                    let want = fresh.enters_via(&topo, src, dst, NodeId(at));
                    assert_eq!(
                        oracles[at].enters_via(&routing, &topo, src, dst),
                        want,
                        "post-failure seed={seed} src={src:?} dst={dst:?} at={at}"
                    );
                }
            }
        }
    }

    /// The shared source check, against its rule restated over a cold
    /// [`Routing::enters_via`] walk: every node of a BA-100 graph, every way
    /// in (local emission and each link), an honest claim and two spoofed
    /// ones — then the same queries again, on warm caches, after the busiest
    /// node loses a link.
    #[test]
    fn source_mismatch_matches_cold_walk_across_a_flip() {
        use crate::addr::Addr;
        use crate::packet::{PacketBuilder, Proto, TrafficClass};
        let mut topo = Topology::barabasi_albert(100, 2, 0.1, 11);
        let mut routing = Routing::compute(&topo);
        let n = topo.n();
        let mut oracles: Vec<RouteOracle> = (0..n).map(|i| RouteOracle::new(NodeId(i))).collect();
        let pkt = |src: NodeId, dst: NodeId| {
            let b = PacketBuilder::new(
                Addr::new(src, 1),
                Addr::new(dst, 1),
                Proto::Udp,
                TrafficClass::Background,
            );
            b.build(1, src)
        };
        for flipped in [false, true] {
            if flipped {
                let cut = topo.nodes[topo.top_degree(1)[0].0].links[0];
                topo.links[cut.0].up = false;
                routing.apply_link_flip(&topo, cut);
            }
            // Same draws both times, so the second pass asks warm caches.
            let mut rng = seeded(0x5EED);
            // [local, customer, transit] × [consistent, mismatch]
            let mut seen = [[0u32; 2]; 3];
            for at in (0..n).map(NodeId) {
                let ways_in = topo.nodes[at.0].links.iter().copied().map(Some);
                for from in std::iter::once(None).chain(ways_in) {
                    let peer = from.map(|l: LinkId| topo.links[l.0].other(at));
                    let honest = peer.unwrap_or(at);
                    let spoofed = [(); 2].map(|()| NodeId(rng.gen_range(0..n)));
                    for src in [honest, spoofed[0], spoofed[1]] {
                        let dst = NodeId(rng.gen_range(0..n));
                        let (entry, want) = match peer {
                            None => (0, (src != at).then_some("local-src-mismatch")),
                            Some(p) if !topo.is_customer_of(p, at) => (2, None),
                            Some(p) => {
                                let via = routing.enters_via(&topo, src, dst, at);
                                (1, (via != Some(p)).then_some("route-mismatch"))
                            }
                        };
                        let got =
                            oracles[at.0].source_mismatch(&routing, &topo, &pkt(src, dst), from);
                        assert_eq!(
                            got, want,
                            "flipped={flipped} at={at:?} from={from:?} src={src:?} dst={dst:?}"
                        );
                        seen[entry][usize::from(want.is_some())] += 1;
                    }
                }
            }
            let [local, customer, transit] = seen;
            assert!(local[0] > 0 && local[1] > 0, "local honest and spoofed");
            assert!(
                customer[0] > 0 && customer[1] > 0,
                "customer honest and spoofed"
            );
            assert!(transit[0] > 0 && transit[1] == 0, "transit is never judged");
        }
    }

    /// A localized flip evicts exactly the damaged destinations' entries;
    /// everything else answers from cache without re-walking.
    #[test]
    fn partial_eviction_keeps_undamaged_destinations_warm() {
        use crate::link::LinkProfile;
        let mut topo = Topology::star(5);
        let chord = topo
            .connect(NodeId(1), NodeId(2), LinkProfile::access())
            .unwrap();
        let mut routing = Routing::compute(&topo);
        let mut oracle = RouteOracle::new(NodeId(0)); // the hub sees all paths
        let n = topo.n();
        for src in 0..n {
            for dst in 0..n {
                oracle.enters_via(&routing, &topo, NodeId(src), NodeId(dst));
            }
        }
        let (_, misses_before) = oracle.stats();
        assert_eq!(misses_before, (n * n) as u64);

        // Flip the leaf-leaf shortcut: only destinations 1 and 2 change.
        topo.links[chord.0].up = false;
        routing.apply_link_flip(&topo, chord);

        // Undamaged destination: served warm, no new walk.
        assert_eq!(
            oracle.enters_via(&routing, &topo, NodeId(4), NodeId(3)),
            routing.enters_via(&topo, NodeId(4), NodeId(3), NodeId(0))
        );
        let (_, misses) = oracle.stats();
        assert_eq!(misses, misses_before, "undamaged dst stayed cached");
        let (partial, full, evicted) = oracle.invalidation_stats();
        assert_eq!((partial, full), (1, 0), "sync used the targeted path");
        assert_eq!(evicted as usize, 2 * n, "all entries for dsts 1 and 2");

        // Damaged destination: evicted, re-walks, still matches the table.
        assert_eq!(
            oracle.enters_via(&routing, &topo, NodeId(1), NodeId(2)),
            routing.enters_via(&topo, NodeId(1), NodeId(2), NodeId(0))
        );
        let (_, misses_after) = oracle.stats();
        assert_eq!(misses_after, misses + 1, "damaged dst was re-derived");
    }

    /// Targeted eviction drops matching keys, keeps the rest findable, and
    /// leaves the table consistent for further inserts.
    #[test]
    fn flat_cache_evict_where() {
        let mut c = FlatCache::with_slots(8);
        for k in 0..1000u64 {
            c.insert(k, k as u32);
        }
        let evicted = c.evict_where(|k| k % 3 == 0);
        assert_eq!(evicted, 334, "multiples of 3 in 0..1000");
        for k in 0..1000u64 {
            if k % 3 == 0 {
                assert_eq!(c.get(k), None);
            } else {
                assert_eq!(c.get(k), Some(k as u32));
            }
        }
        c.insert(999_999, 7);
        assert_eq!(c.get(999_999), Some(7));
    }

    /// A filter that never judges a customer-side packet holds no table,
    /// and every operation short of an insert leaves it that way.
    #[test]
    fn new_oracle_holds_no_table() {
        let mut cache = RouteOracle::new(NodeId(3)).cache;
        assert_eq!(cache.get(7), None);
        cache.clear();
        assert_eq!(cache.evict_where(|_| true), 0);
        assert_eq!((cache.keys.capacity(), cache.vals.capacity()), (0, 0));
        cache.insert(7, 1);
        assert_eq!((cache.get(7), cache.keys.len()), (Some(1), FIRST_SLOTS));
    }

    /// Start size is unobservable: a cache grown from nothing (16 slots at
    /// the first insert) and one that starts at 1,024 answer every `get`
    /// alike and hold the same number of entries after every operation,
    /// across growth, the `MAX_SLOTS` reset, targeted eviction and the
    /// wholesale clear.
    #[test]
    fn flat_cache_start_size_is_unobservable() {
        let mut rng = seeded(0x51AB);
        let mut small = FlatCache::default();
        let mut large = FlatCache::with_slots(1 << 10);
        let (mut resets, mut evictions, mut clears) = (0, 0, 0);
        for _step in 0..300_000 {
            let key = rng.gen_range(0..1u64 << 18);
            match rng.gen_range(0..100_000u32) {
                0 => {
                    small.clear();
                    large.clear();
                    clears += 1;
                }
                1..=5 => {
                    let stride = rng.gen_range(8..33u64);
                    let gone = small.evict_where(|k| k % stride == 0);
                    assert_eq!(large.evict_where(|k| k % stride == 0), gone);
                    evictions += 1;
                }
                6..=89_999 => {
                    let before = small.len;
                    small.insert(key, key as u32);
                    large.insert(key, key as u32);
                    resets += usize::from(small.len < before);
                }
                _ => {}
            }
            let probe = rng.gen_range(0..1u64 << 18);
            assert_eq!(small.get(probe), large.get(probe));
            assert_eq!(small.len, large.len);
        }
        assert!(resets > 0 && evictions > 0 && clears > 0);
        assert_eq!(small.keys.len(), MAX_SLOTS);
    }

    /// The flat cache stays correct across growth and adversarial key mixes.
    #[test]
    fn flat_cache_grows_and_resets() {
        let mut c = FlatCache::with_slots(8);
        for k in 0..10_000u64 {
            c.insert(k * 2, (k % 1000) as u32);
        }
        for k in 0..10_000u64 {
            assert_eq!(c.get(k * 2), Some((k % 1000) as u32));
            assert_eq!(c.get(k * 2 + 1), None);
        }
        c.clear();
        assert_eq!(c.get(0), None);
        assert_eq!(c.len, 0);
    }
}
