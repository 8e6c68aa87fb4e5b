//! High-level TCS deployment helpers.
//!
//! Two ways to stand up the paper's defense for a victim:
//!
//! * [`deploy_tcs_static`] — devices pre-attached and pre-configured (the
//!   steady state after a Fig. 5 deployment), optionally dormant until an
//!   activation instant. Used by the sweep experiments (E2/E3/E5) where
//!   control-plane latency is not the quantity under study.
//! * The full control-plane path via
//!   [`dtcs_control::ControlPlane`] + user agents, used by E7.
//!
//! And one way to read a deployment's digest backlogs back:
//! [`trace_origins`], the SPIE walk over the devices that answered a
//! `QueryDigest` with a hit (Sec. 4.4, E10).

use std::collections::{BTreeMap, BTreeSet};

use dtcs_control::CatalogService;
use dtcs_device::{AdaptiveDevice, DeviceCommand, DeviceHandle, OwnerId, Stage};
use dtcs_mitigation::{choose_nodes, Placement};
use dtcs_netsim::{NodeId, Prefix, Proto, SimTime, Simulator, Topology};

/// Static TCS deployment parameters.
#[derive(Clone, Debug)]
pub struct TcsStaticConfig {
    /// Fraction of ASes whose ISPs offer the service.
    pub fraction: f64,
    /// Which ASes sign up first.
    pub placement: Placement,
    /// Activate the victim's services at this instant (`SimTime::ZERO` =
    /// proactive, active from the start). Models the paper's "almost
    /// instantly deploy worldwide ingress filtering rules" moment.
    pub activate_at: SimTime,
    /// Install the anti-spoofing service (stage 1, the reflector-attack
    /// killer of Sec. 4.3).
    pub antispoof: bool,
    /// Install a destination-side firewall dropping unsolicited reflected
    /// replies (SYN-ACK / DNS response / ICMP) addressed to the victim.
    pub dst_firewall: bool,
    /// Protocols the destination-side firewall drops. `None` = the
    /// reflected-reply set (the right choice against reflector attacks);
    /// owners pick differently per attack, e.g. `[Udp]` against a UDP
    /// flood.
    pub dst_block_protos: Option<Vec<Proto>>,
    /// Placement seed.
    pub seed: u64,
}

impl Default for TcsStaticConfig {
    fn default() -> Self {
        TcsStaticConfig {
            fraction: 1.0,
            placement: Placement::TopDegree,
            activate_at: SimTime::ZERO,
            antispoof: true,
            dst_firewall: true,
            dst_block_protos: None,
            seed: 1,
        }
    }
}

/// A standing TCS deployment for one owner.
pub struct TcsDeployment {
    /// The owner id used on the devices.
    pub owner: OwnerId,
    /// Nodes carrying a configured device.
    pub nodes: Vec<NodeId>,
    /// Device handles for inspection.
    pub devices: BTreeMap<NodeId, DeviceHandle>,
}

impl TcsDeployment {
    /// Total rules installed (E6 unit).
    pub fn total_rules(&self) -> usize {
        self.devices.values().map(|h| h.lock().rule_count).sum()
    }

    /// Total packets dropped by devices, by any reason.
    pub fn total_device_drops(&self) -> u64 {
        self.devices
            .values()
            .map(|h| h.lock().dropped.values().sum::<u64>())
            .sum()
    }
}

/// The unsolicited reply protocols a reflector bounces at a victim.
pub fn reflected_reply_protos() -> Vec<Proto> {
    vec![
        Proto::TcpSynAck,
        Proto::DnsResponse,
        Proto::IcmpEchoReply,
        Proto::IcmpUnreachable,
        Proto::IcmpTimeExceeded,
        Proto::TcpRst,
    ]
}

/// Stand up a static TCS deployment protecting `victim_prefix`.
///
/// The victim's own AS always participates (its ISP is the first customer
/// of the service), plus `fraction` of the remaining ASes per `placement`.
pub fn deploy_tcs_static(
    sim: &mut Simulator,
    victim_prefix: Prefix,
    cfg: &TcsStaticConfig,
) -> TcsDeployment {
    let owner = OwnerId(0xDD05);
    let victim_node = victim_prefix.first().node();
    let mut nodes = choose_nodes(&sim.topo, cfg.fraction, cfg.placement, cfg.seed);
    if !nodes.contains(&victim_node) {
        nodes.push(victim_node);
    }
    let dormant = cfg.activate_at > SimTime::ZERO;
    let mut devices = BTreeMap::new();
    let mut services: Vec<(Stage, dtcs_device::ServiceSpec)> = Vec::new();
    if cfg.antispoof {
        services.push((Stage::Src, CatalogService::AntiSpoofing.compile()));
    }
    if cfg.dst_firewall {
        services.push((
            Stage::Dst,
            CatalogService::FirewallBlock {
                protos: cfg
                    .dst_block_protos
                    .clone()
                    .unwrap_or_else(reflected_reply_protos),
            }
            .compile(),
        ));
    }
    for &node in &nodes {
        let (mut dev, handle) = AdaptiveDevice::new(node, None);
        dev.apply(DeviceCommand::RegisterOwner {
            owner,
            prefixes: vec![victim_prefix],
            contact: victim_node,
        });
        for (stage, spec) in &services {
            let reply = dev.apply(DeviceCommand::InstallService {
                txn: 0,
                lease_until: SimTime::MAX,
                owner,
                stage: *stage,
                spec: spec.clone(),
            });
            debug_assert!(
                matches!(reply, Some(dtcs_device::DeviceReply::InstallOk { .. })),
                "catalog services must verify"
            );
            if dormant {
                dev.apply(DeviceCommand::SetServiceActive {
                    owner,
                    stage: *stage,
                    active: false,
                });
            }
        }
        sim.add_agent(node, Box::new(dev));
        devices.insert(node, handle);
    }
    if dormant {
        // Activation commands arrive over the control plane at
        // `activate_at` (sender: the victim's node, i.e. the user).
        for &node in &nodes {
            for (stage, _) in &services {
                sim.deliver_control(
                    cfg.activate_at,
                    victim_node,
                    node,
                    DeviceCommand::SetServiceActive {
                        owner,
                        stage: *stage,
                        active: true,
                    },
                );
            }
        }
    }
    TcsDeployment {
        owner,
        nodes,
        devices,
    }
}

/// Trace one packet back from `victim`: breadth-first over neighbouring
/// nodes whose backlog `saw` it, returning the *farthest* nodes reached —
/// the apparent origin ASes (SPIE, Snoeren et al.). Empty when the victim
/// itself did not see the packet; `[victim]` when no neighbour did.
pub fn trace_origins(topo: &Topology, victim: NodeId, saw: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
    if !saw(victim) {
        return Vec::new();
    }
    let mut visited = BTreeSet::from([victim]);
    let mut frontier = vec![victim];
    loop {
        let mut next = Vec::new();
        for &u in &frontier {
            for (w, _) in topo.neighbours(u) {
                if !visited.contains(&w) && saw(w) {
                    visited.insert(w);
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            frontier.sort();
            return frontier;
        }
        frontier = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{Addr, DropReason, PacketBuilder, Topology, TrafficClass};

    /// Star: hub 0 (transit), leaves 1..=3. Victim at leaf 1, spoofing
    /// agent at leaf 2.
    fn spoof_scenario(cfg: &TcsStaticConfig) -> (Simulator, TcsDeployment) {
        let topo = Topology::star(3);
        let mut sim = Simulator::new(topo, 1);
        let victim_prefix = Prefix::of_node(NodeId(1));
        let dep = deploy_tcs_static(&mut sim, victim_prefix, cfg);
        sim.install_app(Addr::new(NodeId(3), 1), Box::new(dtcs_netsim::SinkApp));
        sim.install_app(Addr::new(NodeId(1), 1), Box::new(dtcs_netsim::SinkApp));
        (sim, dep)
    }

    fn spoofed_syn(sim: &mut Simulator, at: SimTime) {
        // Agent at node 2 claims the victim's (node 1) address toward a
        // reflector at node 3.
        let victim_addr = Addr::new(NodeId(1), 1);
        let reflector = Addr::new(NodeId(3), 1);
        sim.schedule(at, move |s| {
            s.emit_now(
                NodeId(2),
                PacketBuilder::new(
                    victim_addr,
                    reflector,
                    Proto::TcpSyn,
                    TrafficClass::AttackDirect,
                )
                .size(40),
            );
        });
    }

    #[test]
    fn proactive_antispoof_kills_spoofed_syn_at_source_uplink() {
        let cfg = TcsStaticConfig::default();
        let (mut sim, dep) = spoof_scenario(&cfg);
        spoofed_syn(&mut sim, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.drops_for_reason(DropReason::SpoofFilter).pkts, 1);
        // Full deployment: the agent's own AS carries a device, so the
        // spoofed packet dies before its first hop (distance 0).
        assert_eq!(
            sim.stats
                .mean_stop_distance(TrafficClass::AttackDirect, DropReason::SpoofFilter),
            Some(0.0)
        );
        assert!(dep.total_device_drops() >= 1);
    }

    #[test]
    fn partial_deployment_catches_spoof_at_provider_uplink() {
        // Device only at the hub (and the victim's node): the spoofed SYN
        // from leaf 2 dies after one hop, at the customer uplink.
        let topo = Topology::star(3);
        let mut sim = Simulator::new(topo, 1);
        let victim_prefix = Prefix::of_node(NodeId(1));
        let dep = deploy_tcs_static(
            &mut sim,
            victim_prefix,
            &TcsStaticConfig {
                fraction: 0.01, // top-degree: just the hub
                ..Default::default()
            },
        );
        assert!(dep.nodes.contains(&NodeId(0)));
        assert!(!dep.nodes.contains(&NodeId(2)));
        sim.install_app(Addr::new(NodeId(3), 1), Box::new(dtcs_netsim::SinkApp));
        spoofed_syn(&mut sim, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.stats
                .mean_stop_distance(TrafficClass::AttackDirect, DropReason::SpoofFilter),
            Some(1.0)
        );
    }

    #[test]
    fn dormant_services_activate_on_schedule() {
        let cfg = TcsStaticConfig {
            activate_at: SimTime::from_secs(5),
            ..Default::default()
        };
        let (mut sim, _dep) = spoof_scenario(&cfg);
        // Before activation the spoofed SYN sails through.
        spoofed_syn(&mut sim, SimTime::from_secs(1));
        // After activation it dies.
        spoofed_syn(&mut sim, SimTime::from_secs(6));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.stats.drops_for_reason(DropReason::SpoofFilter).pkts, 1);
        assert_eq!(
            sim.stats.class(TrafficClass::AttackDirect).delivered_pkts,
            1,
            "pre-activation packet reached the reflector"
        );
    }

    #[test]
    fn dst_firewall_blocks_reflected_replies_not_legit_flow() {
        let cfg = TcsStaticConfig::default();
        let (mut sim, _dep) = spoof_scenario(&cfg);
        let victim_addr = Addr::new(NodeId(1), 1);
        // A reflected SYN-ACK (unsolicited) from node 3 toward the victim.
        sim.emit_now(
            NodeId(3),
            PacketBuilder::new(
                Addr::new(NodeId(3), 1),
                victim_addr,
                Proto::TcpSynAck,
                TrafficClass::AttackReflected,
            )
            .size(44),
        );
        // A legit client SYN from node 2 toward the victim.
        sim.emit_now(
            NodeId(2),
            PacketBuilder::new(
                Addr::new(NodeId(2), 1),
                victim_addr,
                Proto::TcpSyn,
                TrafficClass::LegitRequest,
            )
            .size(60),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.drops_for_reason(DropReason::DeviceFilter).pkts, 1);
        assert_eq!(
            sim.stats.class(TrafficClass::LegitRequest).delivered_pkts,
            1
        );
    }

    #[test]
    fn fraction_controls_device_count() {
        let topo = Topology::barabasi_albert(100, 2, 0.1, 3);
        let mut sim = Simulator::new(topo, 1);
        let victim_prefix = Prefix::of_node(sim.topo.stub_nodes()[0]);
        let dep = deploy_tcs_static(
            &mut sim,
            victim_prefix,
            &TcsStaticConfig {
                fraction: 0.2,
                ..Default::default()
            },
        );
        assert!(dep.nodes.len() >= 20 && dep.nodes.len() <= 21);
        assert!(dep.total_rules() > 0);
    }

    /// A line of `n` nodes with the victim's host 1 on the last one and a
    /// device on each of `nodes` keeping the catalog's traceback backlog of
    /// victim-bound traffic. A packet claiming `src` leaves node 0 at
    /// t = 0; at 1 s every device is asked whether it saw the packet's
    /// digest — or `asked`, when given — within a second of 100 ms, and the
    /// victim walks the answers its inbox heard.
    fn trace_on_devices(
        n: usize,
        nodes: std::ops::Range<usize>,
        src: Addr,
        asked: Option<u64>,
    ) -> Vec<NodeId> {
        let mut sim = Simulator::new(Topology::line(n), 1);
        let (owner, contact) = (OwnerId(5), NodeId(n - 1));
        let victim = Addr::new(contact, 1);
        let pkt =
            PacketBuilder::new(src, victim, Proto::Udp, TrafficClass::AttackDirect).tag(0xFEED);
        let digest = asked.unwrap_or(dtcs_device::view::digest_packet(&pkt.build(0, NodeId(0))));
        let window = dtcs_netsim::SimDuration::from_secs(1);
        let backlog = CatalogService::TracebackSupport {
            window,
            windows: 30,
        }
        .compile();
        for node in nodes.map(NodeId) {
            let (mut dev, _) = AdaptiveDevice::new(node, None);
            dev.apply(DeviceCommand::RegisterOwner {
                owner,
                prefixes: vec![Prefix::of_node(contact)],
                contact,
            });
            dev.apply(DeviceCommand::InstallService {
                owner,
                stage: Stage::Dst,
                spec: backlog.clone(),
                txn: 0,
                lease_until: SimTime::MAX,
            });
            sim.add_agent(node, Box::new(dev));
            let query = DeviceCommand::QueryDigest {
                owner,
                digest,
                from: SimTime::ZERO,
                to: SimTime::from_millis(1100),
                reply_to: contact,
            };
            sim.deliver_control(SimTime::from_secs(1), contact, node, query);
        }
        dtcs_device::Inbox::attach(&mut sim, contact);
        sim.install_app(victim, Box::new(dtcs_netsim::SinkApp));
        sim.emit_now(NodeId(0), pkt);
        sim.run_until(SimTime::from_secs(2));
        let inbox = sim
            .agent::<dtcs_device::Inbox>(contact)
            .expect("inbox attached");
        let hits: BTreeSet<_> = inbox
            .heard()
            .iter()
            .filter_map(|h| h.digest_hit())
            .collect();
        trace_origins(&sim.topo, contact, |n| hits.contains(&(digest, n)))
    }

    #[test]
    fn trace_follows_the_true_path_despite_spoofing() {
        let spoofed = Addr::new(NodeId(3), 9); // the packet leaves node 0
        let sources = trace_on_devices(6, 0..6, spoofed, None);
        assert_eq!(
            sources,
            vec![NodeId(0)],
            "trace must reach the true origin, not the spoofed node 3"
        );
    }

    #[test]
    fn unknown_digest_traces_to_nothing() {
        let sources = trace_on_devices(
            4,
            0..4,
            Addr::new(NodeId(0), 1),
            Some(0xDEAD_BEEF_0BAD_F00D),
        );
        assert!(sources.is_empty());
    }

    #[test]
    fn partial_deployment_truncates_the_trace() {
        // Backlogs only on nodes 3..=5: the trace cannot cross node 2.
        let sources = trace_on_devices(6, 3..6, Addr::new(NodeId(1), 9), None);
        assert_eq!(
            sources,
            vec![NodeId(3)],
            "trace stops at the deployment frontier"
        );
    }
}
