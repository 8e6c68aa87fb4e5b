//! Traceback as a TCS application (Sec. 4.4): "our system could be used to
//! implement a worldwide packet traceback service such as SPIE by storing
//! a backlog of packet hashes … allow the network user to investigate the
//! origin of spoofed network traffic."
//!
//! A victim deploys the `TracebackSupport` catalog service — a digest
//! backlog on every adaptive device, scoped to the victim's own traffic —
//! then, after receiving a spoofed packet, queries the devices hop by hop
//! to walk back to the true origin. The spoofed source address would have
//! pointed somewhere else entirely.
//!
//! Run with: `cargo run --release -p dtcs --example traceback_service`

use dtcs::control::CatalogService;
use dtcs::device::{AdaptiveDevice, DeviceCommand, Inbox, OwnerId, Stage};
use dtcs::netsim::{
    Addr, NodeId, PacketBuilder, Prefix, Proto, SimDuration, SimTime, Simulator, Topology,
    TrafficClass,
};
use std::collections::BTreeSet;

fn main() {
    let topo = Topology::barabasi_albert(120, 2, 0.1, 19);
    let mut sim = Simulator::new(topo, 19);
    let victim_node = sim.topo.stub_nodes()[2];
    let victim = Addr::new(victim_node, 1);
    sim.install_app(victim, Box::new(dtcs::netsim::SinkApp));
    println!("victim: {victim} at AS {victim_node:?}");

    // Deploy TracebackSupport everywhere. The service runs in the
    // *source* stage on traffic claiming the victim's addresses — exactly
    // the spoofed packets the victim wants to trace — and additionally we
    // install a Dst-stage backlog for inbound traffic.
    let owner = OwnerId(7);
    let svc = CatalogService::TracebackSupport {
        window: SimDuration::from_secs(1),
        windows: 60,
    };
    for i in 0..sim.topo.n() {
        let node = NodeId(i);
        let (mut dev, _) = AdaptiveDevice::new(node, None);
        dev.apply(DeviceCommand::RegisterOwner {
            owner,
            prefixes: vec![Prefix::of_node(victim_node)],
            contact: victim_node,
        });
        for stage in [svc.stage(), Stage::Dst] {
            dev.apply(DeviceCommand::InstallService {
                txn: 0,
                lease_until: SimTime::MAX,
                owner,
                stage,
                spec: svc.compile(),
            });
        }
        sim.add_agent(node, Box::new(dev));
    }
    println!("traceback backlogs installed on {} devices", sim.topo.n());

    // An attacker at a random stub spoofs a THIRD PARTY's address and
    // floods the victim; the victim wants to know who really sent it.
    let attacker_node = sim.topo.stub_nodes()[9];
    let framed_node = sim.topo.stub_nodes()[14]; // the innocent party being framed
    let spoofed_src = Addr::new(framed_node, 77);
    let evil = PacketBuilder::new(spoofed_src, victim, Proto::Udp, TrafficClass::AttackDirect)
        .size(100)
        .tag(0xBAD_CAFE);
    sim.emit_now(attacker_node, evil);
    sim.run_until(SimTime::from_secs(2));

    // The victim computes the digest of the offending packet it received.
    let offending = evil.build(0, attacker_node);
    let digest = dtcs::device::view::digest_packet(&offending);
    println!(
        "\noffending packet: src={spoofed_src} (claims AS {framed_node:?}), digest {digest:#x}"
    );

    // Live in-simulation query: a DeviceCommand::QueryDigest goes to every
    // device at t=2 s; the replies land in an inbox at the victim.
    let inbox = Inbox::attach(&mut sim, victim_node);
    for i in 0..sim.topo.n() {
        sim.deliver_control(
            SimTime::from_secs(2),
            victim_node,
            NodeId(i),
            DeviceCommand::QueryDigest {
                owner,
                digest,
                from: SimTime::ZERO,
                to: SimTime::from_secs(2),
                reply_to: victim_node,
            },
        );
    }
    sim.run_until(SimTime::from_secs(4));

    let positive: BTreeSet<NodeId> = inbox
        .lock()
        .iter()
        .filter_map(|heard| heard.digest_hit().map(|(_, node)| node))
        .collect();
    println!("devices whose backlog saw the packet: {positive:?}");

    // Walk: breadth-first from the victim over positive neighbours; the
    // farthest nodes reached are the apparent origins.
    let origins = dtcs::trace_origins(&sim.topo, victim_node, |n| positive.contains(&n));
    println!("\ntrue origin (ground truth): AS {attacker_node:?}");
    println!("traceback verdict:          {origins:?}");
    println!("framed (spoofed) party:     AS {framed_node:?} — correctly NOT accused");
    assert_eq!(
        origins,
        [attacker_node],
        "traceback must find the true origin"
    );
}
