//! The route-consistency judge at one node.
//!
//! The route-based anti-spoofing check (Park & Lee, Sec. 3.2) asks, per
//! packet arriving at a filtering node: "on the real forwarding path from
//! the claimed source to the destination, which neighbour hands traffic to
//! this node?" [`Routing::enters_via`] answers by walking the src→dst
//! next-hop chain, and a [`RouteOracle`] is that walk with the node fixed,
//! plus the one body of the source check every anti-spoofing filter
//! shares ([`RouteOracle::source_mismatch`]).
//!
//! It holds no answers between queries, on purpose. The walk is a few
//! hops of array reads inside a filter step several times its cost, so a
//! memo in front of it moves a kernel and no whole run, while costing
//! every filter a private table and the routing layer a protocol to keep
//! it honest across link flips (DESIGN.md §6.1 has the numbers). Asking
//! the live table means the answer after a flip is the flipped table's.

use crate::addr::Prefix;
use crate::node::{LinkId, NodeId};
use crate::packet::Packet;
use crate::routing::Routing;
use crate::topology::Topology;

/// Route-consistency judge for one filtering node, owned by the agent that
/// asks it. Answers are [`Routing::enters_via`]'s, by construction.
#[derive(Clone, Debug)]
pub struct RouteOracle {
    /// Node whose entry links are being checked (`at` in `enters_via`).
    at: NodeId,
    /// Walks taken since construction (see [`RouteOracle::stats`]).
    queries: u64,
}

impl RouteOracle {
    /// Judge for route-consistency queries at node `at`.
    pub fn new(at: NodeId) -> RouteOracle {
        RouteOracle { at, queries: 0 }
    }

    /// The node this oracle answers for.
    pub fn at(&self) -> NodeId {
        self.at
    }

    /// `(hits, misses)` of a cache that is not there: `(0, queries)`.
    /// The ledger kernel reads it; ROADMAP item 1 retires it together
    /// with `netsim.oracle.hit_ratio`.
    pub fn stats(&self) -> (u64, u64) {
        (0, self.queries)
    }

    /// `(partial evictions, full clears, entries evicted)`, all zero with
    /// nothing to evict. ROADMAP item 1 retires it as it does `stats`,
    /// together with `netsim.oracle.evicted_per_flip`.
    pub fn invalidation_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// [`Routing::enters_via`]`(topo, src, dst, self.at())`: on the
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
        self.queries += 1;
        routing.enters_via(topo, src, dst, self.at)
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
    use crate::rng::seeded;

    /// The shared source check, against its rule restated over a walk of
    /// a cold [`Routing::compute`]: every node of a BA-100 graph, every way
    /// in (local emission and each link), an honest claim and two spoofed
    /// ones — then the same queries again, of the same oracles and the
    /// incrementally repaired table, after the busiest node loses a link.
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
            let cold = Routing::compute(&topo);
            // Same draws both times.
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
                                let via = cold.enters_via(&topo, src, dst, at);
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
}
