//! Probabilistic packet marking traceback (Savage et al., "Practical
//! Network Support for IP Traceback") — the traceback family of Sec. 3.1.
//!
//! Participating routers overwrite the 32-bit marking field with their own
//! identity with probability `p`, and increment a distance counter
//! otherwise. A victim under attack collects marks and reconstructs the
//! attack tree; the *leaves* of that tree are the apparent attack sources.
//!
//! The paper's point, reproduced in experiments E4/E9: "reactive strategies
//! involving traceback mechanisms will yield a wrong attack source — the
//! reflectors — … and subsequently filter outbound traffic of reflectors
//! might block access to important services". Reconstruction here is
//! honest: it returns whatever the marks say, which for a reflector attack
//! is the reflector ASes.

use std::collections::BTreeMap;
use std::sync::Arc;

use dtcs_netsim::sync::Mutex;

use dtcs_netsim::rng::{child_seed, seeded, ChaCha8Rng};
use dtcs_netsim::{
    AgentCtx, LinkId, NodeAgent, NodeId, Packet, Routing, Simulator, Topology, Verdict,
};

/// Encode a mark: node id in the high 16 bits, distance in the low 8.
fn encode(node: NodeId, dist: u8) -> u32 {
    ((node.0 as u32 & 0x7FFF) << 16) | 0x8000_0000 | dist as u32
}

/// Decode a mark, if the marked bit is set.
fn decode(mark: u32) -> Option<(NodeId, u8)> {
    if mark & 0x8000_0000 == 0 {
        return None;
    }
    Some((
        NodeId(((mark >> 16) & 0x7FFF) as usize),
        (mark & 0xFF) as u8,
    ))
}

/// Router-side marking agent.
pub struct PpmMarkerAgent {
    node: NodeId,
    p: f64,
    rng: ChaCha8Rng,
}

impl PpmMarkerAgent {
    /// Marker for `node` with marking probability `p` (Savage suggests
    /// p ≈ 1/25).
    pub fn new(node: NodeId, p: f64, seed: u64) -> PpmMarkerAgent {
        PpmMarkerAgent {
            node,
            p,
            rng: seeded(child_seed(seed, 0x99A ^ node.0 as u64)),
        }
    }
}

impl NodeAgent for PpmMarkerAgent {
    fn name(&self) -> &'static str {
        "ppm-marker"
    }

    fn on_packet(
        &mut self,
        _ctx: &mut AgentCtx<'_>,
        pkt: &mut Packet,
        _from: Option<LinkId>,
    ) -> Verdict {
        if self.rng.gen_bool(self.p) {
            pkt.mark = encode(self.node, 0);
        } else if let Some((n, d)) = decode(pkt.mark) {
            pkt.mark = encode(n, d.saturating_add(1));
        }
        Verdict::Forward
    }
}

/// Marks collected at the victim: `(marking node, distance)` → packets.
#[derive(Clone, Debug, Default)]
pub struct MarkTable {
    /// Observed `(node, dist)` counts.
    pub counts: BTreeMap<(NodeId, u8), u64>,
    /// Packets inspected.
    pub inspected: u64,
}

/// Shared handle to a victim's mark table.
pub type MarkHandle = Arc<Mutex<MarkTable>>;

/// Victim-side collector: records marks on traffic destined to the victim
/// node. Installed as an agent on the victim's node so it sees the traffic
/// before local delivery.
///
/// An optional protocol filter restricts collection to the packets the
/// victim can classify as attack junk (e.g. unsolicited SYN-ACKs during a
/// reflector attack) — feeding *all* inbound traffic into reconstruction
/// would add every legitimate client's AS as a spurious leaf.
pub struct MarkCollectorAgent {
    victim_node: NodeId,
    protos: Option<Vec<dtcs_netsim::Proto>>,
    marks: MarkHandle,
}

impl MarkCollectorAgent {
    /// Collector for traffic addressed to `victim_node`.
    pub fn new(victim_node: NodeId) -> (MarkCollectorAgent, MarkHandle) {
        let marks: MarkHandle = Arc::new(Mutex::new(MarkTable::default()));
        (
            MarkCollectorAgent {
                victim_node,
                protos: None,
                marks: marks.clone(),
            },
            marks,
        )
    }

    /// Only collect marks from packets of these protocols.
    pub fn with_proto_filter(mut self, protos: Vec<dtcs_netsim::Proto>) -> MarkCollectorAgent {
        self.protos = Some(protos);
        self
    }
}

impl NodeAgent for MarkCollectorAgent {
    fn name(&self) -> &'static str {
        "ppm-collector"
    }

    fn on_packet(
        &mut self,
        _ctx: &mut AgentCtx<'_>,
        pkt: &mut Packet,
        _from: Option<LinkId>,
    ) -> Verdict {
        if pkt.dst.node() == self.victim_node {
            if let Some(protos) = &self.protos {
                if !protos.contains(&pkt.proto) {
                    return Verdict::Forward;
                }
            }
            let mut m = self.marks.lock();
            m.inspected += 1;
            if let Some((n, d)) = decode(pkt.mark) {
                *m.counts.entry((n, d)).or_insert(0) += 1;
            }
        }
        Verdict::Forward
    }
}

/// Reconstruct apparent attack-source ASes from a mark table.
///
/// A marked node is a *leaf* of the attack tree — an apparent source's
/// access router — iff no other marked node routes to the victim through
/// it. Nodes are ranked by marked-packet volume, and leaves carrying less
/// than `min_share` of the total marked volume are discarded as noise.
pub fn reconstruct_sources(
    topo: &Topology,
    routing: &Routing,
    victim_node: NodeId,
    marks: &MarkTable,
    min_share: f64,
) -> Vec<NodeId> {
    // Aggregate counts per marking node.
    let mut per_node: BTreeMap<NodeId, u64> = BTreeMap::new();
    for (&(node, _dist), &count) in &marks.counts {
        *per_node.entry(node).or_insert(0) += count;
    }
    let total: u64 = per_node.values().sum();
    if total == 0 {
        return Vec::new();
    }
    let marked: Vec<NodeId> = per_node.keys().copied().collect();
    let mut leaves: Vec<(u64, NodeId)> = Vec::new();
    for &u in &marked {
        // Is any other marked node upstream of u (i.e. its route to the
        // victim passes through u as the next step)?
        let mut has_marked_upstream = false;
        for (w, link) in topo.neighbours(u) {
            if !per_node.contains_key(&w) {
                continue;
            }
            if let Some(nh) = routing.next_hop(w, victim_node) {
                if nh == link {
                    has_marked_upstream = true;
                    break;
                }
            }
        }
        if !has_marked_upstream {
            leaves.push((per_node[&u], u));
        }
    }
    leaves.sort_by_key(|&(c, id)| (std::cmp::Reverse(c), id.0));
    leaves
        .into_iter()
        .filter(|&(c, _)| c as f64 >= min_share * total as f64)
        .map(|(_, id)| id)
        .collect()
}

/// Deploy PPM markers on every node; returns nothing to hold (markers are
/// stateless beyond their RNG).
pub fn deploy_ppm_everywhere(sim: &mut Simulator, p: f64, seed: u64) {
    for i in 0..sim.topo.n() {
        sim.add_agent(NodeId(i), Box::new(PpmMarkerAgent::new(NodeId(i), p, seed)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{Addr, PacketBuilder, Proto, SimTime, Topology, TrafficClass};

    #[test]
    fn mark_roundtrip() {
        let m = encode(NodeId(1234), 7);
        assert_eq!(decode(m), Some((NodeId(1234), 7)));
        assert_eq!(decode(0), None);
    }

    #[test]
    fn distance_increments_along_path() {
        // Line 0..5, marker at node 1 only; packets 0 -> 5.
        let topo = Topology::line(6);
        let mut sim = Simulator::new(topo, 1);
        // Force-mark at node 1 (p = 1).
        sim.add_agent(NodeId(1), Box::new(PpmMarkerAgent::new(NodeId(1), 1.0, 5)));
        for i in 2..5 {
            // Non-marking routers still increment: p = 0.
            sim.add_agent(NodeId(i), Box::new(PpmMarkerAgent::new(NodeId(i), 0.0, 5)));
        }
        let (collector, marks) = MarkCollectorAgent::new(NodeId(5));
        sim.add_agent(NodeId(5), Box::new(collector));
        let dst = Addr::new(NodeId(5), 1);
        sim.install_app(dst, Box::new(dtcs_netsim::SinkApp));
        sim.emit_now(
            NodeId(0),
            PacketBuilder::new(
                Addr::new(NodeId(0), 1),
                dst,
                Proto::Udp,
                TrafficClass::Background,
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        let m = marks.lock();
        // Marked at node 1, incremented by 2, 3, 4 => distance 3.
        assert_eq!(m.counts.get(&(NodeId(1), 3)), Some(&1));
    }

    #[test]
    fn reconstruction_finds_flood_sources() {
        let topo = Topology::barabasi_albert(80, 2, 0.1, 21);
        let routing = dtcs_netsim::Routing::compute(&topo);
        let mut sim = Simulator::new(topo, 9);
        deploy_ppm_everywhere(&mut sim, 0.04, 31);
        let victim_node = sim.topo.stub_nodes()[0];
        let (collector, marks) = MarkCollectorAgent::new(victim_node);
        sim.add_agent(victim_node, Box::new(collector));
        let victim = Addr::new(victim_node, 1);
        sim.install_app(victim, Box::new(dtcs_netsim::SinkApp));
        // Two flooding sources, spoofed addresses.
        let sources = [sim.topo.stub_nodes()[5], sim.topo.stub_nodes()[10]];
        for (si, &src_node) in sources.iter().enumerate() {
            for k in 0..4000u64 {
                let at = SimTime(k * 1_000_000);
                sim.schedule(at, move |s| {
                    s.emit_now(
                        src_node,
                        PacketBuilder::new(
                            Addr((k as u32).wrapping_mul(2654435761)), // random spoof
                            victim,
                            Proto::Udp,
                            TrafficClass::AttackDirect,
                        )
                        .size(100)
                        .flow(si as u64),
                    );
                });
            }
        }
        sim.run_until(SimTime::from_secs(6));
        let m = marks.lock();
        assert!(m.inspected > 5000);
        let found = reconstruct_sources(&sim.topo, &routing, victim_node, &m, 0.02);
        for s in &sources {
            assert!(
                found.contains(s),
                "true source {s:?} must be reconstructed; found {found:?}"
            );
        }
    }
}
