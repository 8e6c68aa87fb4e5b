//! Integration tests for post-deployment operations (Sec. 5.1: "a network
//! user may activate, modify specific parameters or read logs of the
//! service") and partial deployments of the baselines.

use std::collections::BTreeMap;

use dtcs::control::{
    partition_by_provider, CatalogService, ControlPlane, DeployScope, InternetNumberAuthority,
    UserId, UserOp,
};
use dtcs::device::{DeviceCommand, DeviceReply, Heard, Inbox, OwnerId, Stage};
use dtcs::mitigation::{deploy_pushback_on, PushbackConfig, PushbackStats};
use dtcs::netsim::{
    Addr, LinkProfile, NodeId, PacketBuilder, Prefix, Proto, SimDuration, SimTime, Simulator,
    Topology, TrafficClass,
};

/// Deploy the Statistics catalog service via the full control plane, let
/// traffic flow, then collect logs with a ReadLog command — the Sec. 4.4
/// "collecting traffic statistics" application end to end.
#[test]
fn statistics_service_logs_are_collectable() {
    let topo = Topology::transit_stub_multihomed(3, 6, 0.2, 21);
    let mut sim = Simulator::new(topo, 21);
    let me = sim.topo.stub_nodes()[0];
    let my_prefix = Prefix::of_node(me);
    let mut authority = InternetNumberAuthority::new();
    authority.allocate(my_prefix, UserId(0xAA01));
    let isps = partition_by_provider(&sim);
    let tcsp_node = sim.topo.transit_nodes()[0];
    let authority_node = sim.topo.transit_nodes()[1];
    let mut cp =
        ControlPlane::install(&mut sim, authority, 0xBEEF, tcsp_node, authority_node, isps);
    let (user, record) = cp.add_user(
        &mut sim,
        me,
        vec![my_prefix],
        CatalogService::Statistics {
            capacity: 256,
            sample_one_in: 1,
        },
        DeployScope::AllManaged,
        SimTime::from_millis(100),
        false,
    );

    // Traffic toward my prefix.
    let my_addr = Addr::new(me, 1);
    sim.install_app(my_addr, Box::new(dtcs::netsim::SinkApp));
    let sender = sim.topo.stub_nodes()[4];
    for k in 0..200u64 {
        let at = SimTime::from_millis(1000 + k * 10);
        sim.schedule(at, move |s| {
            s.emit_now(
                sender,
                PacketBuilder::new(
                    Addr::new(sender, 2),
                    my_addr,
                    Proto::TcpData,
                    TrafficClass::Background,
                )
                .size(300)
                .flow(k),
            );
        });
    }
    sim.run_until(SimTime::from_secs(5));
    assert!(record.lock().deploy_confirmed_at.is_some());

    // Collect the logs from every device.
    Inbox::attach(&mut sim, me);
    // Ask every device for its log (the user is allowed: it is their
    // service).
    for (&node, _) in cp.devices.iter() {
        sim.deliver_control(
            SimTime::from_secs(6),
            me,
            node,
            DeviceCommand::ReadLog {
                owner: OwnerId(user.0),
                stage: Stage::Dst,
                reply_to: me,
            },
        );
    }
    sim.run_until(SimTime::from_secs(8));
    let collected: usize = sim
        .agent::<Inbox>(me)
        .expect("inbox attached")
        .heard()
        .iter()
        .map(|heard| match heard {
            Heard::Reply(DeviceReply::LogData { entries, .. }) => entries.len(),
            _ => 0,
        })
        .sum();
    assert!(
        collected >= 200,
        "per-hop statistics must cover the flow: {collected} entries"
    );
}

/// User operation path: deactivating a deployed service over the control
/// plane actually stops it filtering, and reactivating resumes it.
#[test]
fn set_active_toggles_a_live_service() {
    let topo = Topology::transit_stub_multihomed(3, 6, 0.2, 23);
    let mut sim = Simulator::new(topo, 23);
    let me = sim.topo.stub_nodes()[0];
    let my_prefix = Prefix::of_node(me);
    let mut authority = InternetNumberAuthority::new();
    authority.allocate(my_prefix, UserId(0xAA01));
    let isps = partition_by_provider(&sim);
    let tcsp_node = sim.topo.transit_nodes()[0];
    let authority_node = sim.topo.transit_nodes()[1];
    let mut cp =
        ControlPlane::install(&mut sim, authority, 0xBEEF, tcsp_node, authority_node, isps);
    let (_user, record) = cp.add_user(
        &mut sim,
        me,
        vec![my_prefix],
        CatalogService::FirewallBlock {
            protos: vec![Proto::Udp],
        },
        DeployScope::AllManaged,
        SimTime::from_millis(100),
        false,
    );
    let my_addr = Addr::new(me, 1);
    sim.install_app(my_addr, Box::new(dtcs::netsim::SinkApp));
    let sender = sim.topo.stub_nodes()[4];
    let fire = move |sim: &mut Simulator, at_ms: u64, k: u64| {
        let at = SimTime::from_millis(at_ms);
        sim.schedule(at, move |s| {
            s.emit_now(
                sender,
                PacketBuilder::new(
                    Addr::new(sender, 2),
                    my_addr,
                    Proto::Udp,
                    TrafficClass::Background,
                )
                .size(100)
                .flow(k),
            );
        });
    };
    // Phase 1 (deployed + active): blocked.
    fire(&mut sim, 2000, 1);
    sim.run_until(SimTime::from_secs(3));
    assert!(record.lock().deploy_confirmed_at.is_some());
    let delivered_1 = sim.stats.class(TrafficClass::Background).delivered_pkts;
    assert_eq!(delivered_1, 0, "active firewall blocks UDP");

    // Phase 2: user deactivates via OpRequest through the TCSP.
    let cert = record.lock().cert.clone().expect("cert");
    sim.deliver_control(
        SimTime::from_secs(4),
        me,
        tcsp_node,
        dtcs::control::Envelope {
            to: dtcs::control::Role::Tcsp,
            key: dtcs::control::MsgKey::first(0xAA01, 99),
            msg: dtcs::control::CpMsg::OpRequest {
                cert: cert.clone(),
                op: UserOp::SetActive(Stage::Dst, false),
                txn: 99,
                reply_to: me,
            },
        },
    );
    fire(&mut sim, 6000, 2);
    sim.run_until(SimTime::from_secs(7));
    let delivered_2 = sim.stats.class(TrafficClass::Background).delivered_pkts;
    assert_eq!(delivered_2, 1, "deactivated firewall passes UDP");

    // Phase 3: reactivate.
    sim.deliver_control(
        SimTime::from_secs(8),
        me,
        tcsp_node,
        dtcs::control::Envelope {
            to: dtcs::control::Role::Tcsp,
            key: dtcs::control::MsgKey::first(0xAA01, 99),
            msg: dtcs::control::CpMsg::OpRequest {
                cert,
                op: UserOp::SetActive(Stage::Dst, true),
                txn: 100,
                reply_to: me,
            },
        },
    );
    fire(&mut sim, 10_000, 3);
    sim.run_until(SimTime::from_secs(11));
    let delivered_3 = sim.stats.class(TrafficClass::Background).delivered_pkts;
    assert_eq!(delivered_3, 1, "reactivated firewall blocks again");
}

/// Pushback propagation stops at routers that do not speak the protocol
/// (Sec. 3.1: "if a router on a path … does not speak the protocol, the
/// pushback of filter rules stops to extend further on that particular
/// path").
#[test]
fn pushback_propagation_stops_at_non_speakers() {
    // Line: src stub (0) - A (1) - B (2) - C (3) - victim (4), with a
    // skinny C-victim link. Pushback on C and B only in run 1; on C only
    // in run 2 (B does not speak).
    let run = |speakers: Vec<usize>| -> BTreeMap<usize, usize> {
        let skinny = LinkProfile {
            bandwidth_bps: 1e6,
            latency: SimDuration::from_millis(2),
            queue_limit_bytes: 15_000,
        };
        let mut topo = Topology::line(5);
        // Make the last link the bottleneck.
        let last_link = topo.nodes[4].links[0];
        topo.links[last_link.0].bandwidth_bps = skinny.bandwidth_bps;
        topo.links[last_link.0].queue_limit_bytes = skinny.queue_limit_bytes;
        let mut sim = Simulator::new(topo, 31);
        let nodes: Vec<NodeId> = speakers.iter().map(|&i| NodeId(i)).collect();
        deploy_pushback_on(&mut sim, &nodes, PushbackConfig::default());
        let victim = Addr::new(NodeId(4), 1);
        sim.install_app(victim, Box::new(dtcs::netsim::SinkApp));
        for k in 0..8000u64 {
            let at = SimTime(k * 1_500_000);
            sim.schedule(at, move |s| {
                s.emit_now(
                    NodeId(0),
                    PacketBuilder::new(
                        Addr::new(NodeId(0), 3),
                        victim,
                        Proto::Udp,
                        TrafficClass::AttackDirect,
                    )
                    .size(1000)
                    .flow(k),
                );
            });
        }
        sim.run_until(SimTime::from_secs(15));
        let s = PushbackStats::gather(&sim);
        let mut per_node: BTreeMap<usize, usize> = BTreeMap::new();
        for (node, _) in &s.limits_installed {
            *per_node.entry(node.0).or_insert(0) += 1;
        }
        per_node
    };

    // All of 1..=3 speak pushback: limits propagate upstream past node 3.
    let full = run(vec![1, 2, 3]);
    assert!(full.contains_key(&3), "congestion head limits: {full:?}");
    assert!(
        full.contains_key(&2) || full.contains_key(&1),
        "limits must propagate upstream: {full:?}"
    );

    // Node 2 does not speak: propagation cannot reach node 1.
    let broken = run(vec![1, 3]);
    assert!(broken.contains_key(&3), "head still limits: {broken:?}");
    assert!(
        !broken.contains_key(&1),
        "propagation must stop at the non-speaking node 2: {broken:?}"
    );
}
