//! Static ingress filtering (RFC 2267 / BCP 38), the proactive baseline of
//! Sec. 3.2.
//!
//! An AS that deploys ingress filtering rejects packets entering from its
//! customer side (or emitted locally) whose source address does not belong
//! to that customer's address space. Unlike the TCS anti-spoofing service
//! — which a victim deploys on demand for *its own* prefix — static ingress
//! filtering checks *every* source, but only at ASes whose operator chose
//! to run it, which historically is a minority ("it was only partially
//! applied worldwide as current attacks show").

use dtcs_netsim::{
    AgentCtx, DropReason, LinkId, NodeAgent, NodeId, Packet, RouteOracle, Simulator, Verdict,
};

use crate::deploy::{choose_nodes, Placement};

/// RFC 2267-style ingress filter at one AS.
pub struct IngressFilterAgent {
    /// Owns the source-address check. Its per-packet route-consistency
    /// query is a walk of the live routing table, so failure injection
    /// needs no invalidation here (see `dtcs_netsim::oracle`).
    oracle: RouteOracle,
}

impl IngressFilterAgent {
    /// Filter for `node`.
    pub fn new(node: NodeId) -> IngressFilterAgent {
        IngressFilterAgent {
            oracle: RouteOracle::new(node),
        }
    }
}

impl NodeAgent for IngressFilterAgent {
    fn name(&self) -> &'static str {
        "ingress-filter"
    }

    fn on_packet(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        pkt: &mut Packet,
        from: Option<LinkId>,
    ) -> Verdict {
        match self
            .oracle
            .source_mismatch(ctx.routing, ctx.topo, pkt, from)
        {
            None => Verdict::Forward,
            Some(why) => {
                if ctx.trace_wants(pkt) {
                    ctx.trace_verdict_detail(why);
                }
                Verdict::Drop(DropReason::IngressFilter)
            }
        }
    }
}

/// Install ingress filters on a fraction of ASes; returns the deployed set.
pub fn deploy_ingress(
    sim: &mut Simulator,
    fraction: f64,
    placement: Placement,
    seed: u64,
) -> Vec<NodeId> {
    let nodes = choose_nodes(&sim.topo, fraction, placement, seed);
    for &n in &nodes {
        sim.add_agent(n, Box::new(IngressFilterAgent::new(n)));
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{Addr, PacketBuilder, Proto, SimTime, Topology, TrafficClass};

    fn spoofed(from_node: NodeId, claimed: Addr, dst: Addr) -> (NodeId, PacketBuilder) {
        (
            from_node,
            PacketBuilder::new(claimed, dst, Proto::TcpSyn, TrafficClass::AttackDirect).size(40),
        )
    }

    #[test]
    fn local_spoof_blocked_at_origin() {
        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 1);
        sim.add_agent(NodeId(0), Box::new(IngressFilterAgent::new(NodeId(0))));
        sim.install_app(Addr::new(NodeId(2), 1), Box::new(dtcs_netsim::SinkApp));
        // Spoofed: claims node 1's address space.
        let (n, b) = spoofed(NodeId(0), Addr::new(NodeId(1), 9), Addr::new(NodeId(2), 1));
        sim.emit_now(n, b);
        // Honest packet passes.
        sim.emit_now(
            NodeId(0),
            PacketBuilder::new(
                Addr::new(NodeId(0), 1),
                Addr::new(NodeId(2), 1),
                Proto::TcpSyn,
                TrafficClass::LegitRequest,
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.stats.drops_for_reason(DropReason::IngressFilter).pkts,
            1
        );
        assert_eq!(
            sim.stats.class(TrafficClass::LegitRequest).delivered_pkts,
            1
        );
    }

    #[test]
    fn customer_spoof_blocked_at_provider() {
        // Star: hub 0 (transit) with stub leaves 1..=3.
        let topo = Topology::star(3);
        let mut sim = Simulator::new(topo, 1);
        sim.add_agent(NodeId(0), Box::new(IngressFilterAgent::new(NodeId(0))));
        sim.install_app(Addr::new(NodeId(3), 1), Box::new(dtcs_netsim::SinkApp));
        // Leaf 1 claims leaf 2's address: dropped at the hub.
        let (n, b) = spoofed(NodeId(1), Addr::new(NodeId(2), 9), Addr::new(NodeId(3), 1));
        sim.emit_now(n, b);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.stats.drops_for_reason(DropReason::IngressFilter).pkts,
            1
        );
    }

    #[test]
    fn transit_traffic_untouched() {
        // Line 0-1-2-3: deploy at node 2 (both neighbours non-stub-ish by
        // degree: node 1 and 3; node 3 is a leaf stub though).
        let topo = Topology::line(4);
        let mut sim = Simulator::new(topo, 1);
        sim.add_agent(NodeId(1), Box::new(IngressFilterAgent::new(NodeId(1))));
        sim.install_app(Addr::new(NodeId(3), 1), Box::new(dtcs_netsim::SinkApp));
        // Spoofed packet enters at node 0 and transits node 1. Node 0 is a
        // stub leaf with degree 1 < node 1's degree 2 => customer side =>
        // caught. This is the desired behaviour for a line: node 1 is node
        // 0's provider.
        let (n, b) = spoofed(NodeId(0), Addr::new(NodeId(9), 1), Addr::new(NodeId(3), 1));
        sim.emit_now(n, b);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.stats.drops_for_reason(DropReason::IngressFilter).pkts,
            1
        );

        // But traffic between equal-degree transit nodes is not judged:
        // spoofed packet entering node 2 from node 1 (degree 2 == 2).
        let mut sim = Simulator::new(Topology::line(4), 1);
        sim.add_agent(NodeId(2), Box::new(IngressFilterAgent::new(NodeId(2))));
        sim.install_app(Addr::new(NodeId(3), 1), Box::new(dtcs_netsim::SinkApp));
        let (n, b) = spoofed(NodeId(1), Addr::new(NodeId(9), 1), Addr::new(NodeId(3), 1));
        sim.emit_now(n, b);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.stats.drops_for_reason(DropReason::IngressFilter).pkts,
            0,
            "transit path must not be filtered"
        );
    }

    #[test]
    fn traced_drop_carries_module_and_detail() {
        use dtcs_netsim::FlightRecorder;
        use std::sync::{Arc, Mutex};

        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 1);
        sim.add_agent(NodeId(0), Box::new(IngressFilterAgent::new(NodeId(0))));
        sim.install_app(Addr::new(NodeId(2), 1), Box::new(dtcs_netsim::SinkApp));
        let rec = Arc::new(Mutex::new(FlightRecorder::new(1024)));
        sim.set_trace_sink(Box::new(Arc::clone(&rec)), 1);
        let (n, b) = spoofed(NodeId(0), Addr::new(NodeId(1), 9), Addr::new(NodeId(2), 1));
        sim.emit_now(n, b);
        sim.run_until(SimTime::from_secs(1));
        let jsonl = rec.lock().unwrap().export_jsonl_string();
        let verdict_line = jsonl
            .lines()
            .find(|l| l.contains("\"kind\":\"module_verdict\""))
            .expect("the ingress-filter drop must appear in the trace");
        assert!(
            verdict_line.contains("\"module\":\"ingress-filter\""),
            "bad line: {verdict_line}"
        );
        assert!(
            verdict_line.contains("\"detail\":\"local-src-mismatch\""),
            "bad line: {verdict_line}"
        );
        assert!(
            verdict_line.contains("\"reason\":\"IngressFilter\""),
            "bad line: {verdict_line}"
        );
    }

    #[test]
    fn deploy_fraction_counts() {
        let topo = Topology::barabasi_albert(100, 2, 0.1, 3);
        let mut sim = Simulator::new(topo, 1);
        let deployed = deploy_ingress(&mut sim, 0.25, Placement::Random, 5);
        assert_eq!(deployed.len(), 25);
    }
}
