//! What a device holds per owner is what differs per owner: owners that
//! install one [`ServiceSpec`] value share its rule lists and nothing
//! else, and an owner's telemetry goes to the owner's own contact.

use dtcs_device::{
    AdaptiveDevice, DeviceCommand, DeviceContext, DeviceEvent, DeviceHandle, FilterRule,
    GraphNodeSpec, Heard, Inbox, MatchExpr, ModuleAction, ModuleSpec, OwnerId, PacketView,
    ServiceGraph, ServiceSpec, Stage, TriggerAction, TriggerMetric,
};
use dtcs_netsim::{
    Addr, DropReason, NodeId, PacketBuilder, Prefix, Proto, SimDuration, SimTime, Simulator,
    SinkApp, Topology, TrafficClass,
};

fn node(enabled: bool, module: ModuleSpec) -> GraphNodeSpec {
    GraphNodeSpec { module, enabled }
}

/// Fires above 50 pps over 100 ms and then switches module `target` on.
fn trigger(threshold: f64, target: usize) -> ModuleSpec {
    ModuleSpec::Trigger {
        expr: MatchExpr::any(),
        metric: TriggerMetric::PacketRate,
        threshold,
        window: SimDuration::from_millis(100),
        action: TriggerAction::ActivateModule(target),
        tag: 9,
    }
}

fn drop_all() -> ModuleSpec {
    let rules = vec![FilterRule {
        expr: MatchExpr::any(),
        drop: true,
    }];
    ModuleSpec::Filter { rules }
}

fn packet(src: Addr, dst: Addr, tag: u64) -> PacketBuilder {
    PacketBuilder::new(src, dst, Proto::Udp, TrafficClass::Background)
        .size(100)
        .tag(tag)
}

/// Two graphs built from one spec value: every stateful module kind, a
/// dormant filter behind the trigger, the rate limiter last so that its
/// drops do not starve the modules before it.
#[test]
fn graphs_of_one_spec_keep_their_own_state() {
    let spec = ServiceSpec::new(
        "everything",
        vec![
            node(
                true,
                ModuleSpec::Logger {
                    capacity: 4,
                    sample_one_in: 1,
                },
            ),
            node(
                true,
                ModuleSpec::DigestBacklog {
                    window: SimDuration::from_secs(1),
                    windows: 2,
                    bits: 1 << 12,
                    hashes: 3,
                },
            ),
            node(true, trigger(50.0, 3)),
            node(false, drop_all()),
            node(
                true,
                ModuleSpec::RateLimit {
                    expr: MatchExpr::any(),
                    rate_bytes_per_sec: 1.0,
                    burst_bytes: 150,
                },
            ),
        ],
    );
    let (mut a, mut b) = (
        ServiceGraph::from_spec(&spec),
        ServiceGraph::from_spec(&spec),
    );
    let ctx = DeviceContext { node: NodeId(0) };
    let mut events = Vec::new();
    let mut run = |g: &mut ServiceGraph, owner: u64, ms: u64, tag: u64| {
        let mut pkt =
            packet(Addr::new(NodeId(1), 1), Addr::new(NodeId(2), 1), tag).build(tag, NodeId(1));
        let mut view = PacketView::wrap(&mut pkt);
        let now = SimTime::from_millis(ms);
        let action = g.process(now, &ctx, false, OwnerId(owner), &mut events, &mut view);
        (action, dtcs_device::view::digest_packet(&pkt))
    };

    // A: 100 packets in the first window, the 101st completes it hot.
    let (first, digest_a) = run(&mut a, 1, 0, 7);
    assert_eq!(
        first,
        ModuleAction::Pass,
        "a full bucket admits 100 of 150 B"
    );
    for ms in 1..=100 {
        let (action, _) = run(&mut a, 1, ms, 7);
        assert_eq!(action, ModuleAction::Drop(DropReason::DeviceRateLimit));
    }
    // The trigger fired on that packet: A's dormant filter now drops first.
    let (action, _) = run(&mut a, 1, 101, 7);
    assert_eq!(action, ModuleAction::Drop(DropReason::DeviceFilter));

    // B has seen nothing of it: own bucket, own enable bits, own window.
    let (action, digest_b) = run(&mut b, 2, 102, 8);
    assert_eq!(action, ModuleAction::Pass);
    assert_ne!(digest_a, digest_b);
    let (from, to) = (SimTime::ZERO, SimTime::from_secs(1));
    assert_eq!(a.query_digest(digest_a, from, to), Some(true));
    assert_eq!(b.query_digest(digest_a, from, to), Some(false));
    assert_eq!(b.query_digest(digest_b, from, to), Some(true));
    assert_eq!(a.drain_logs().len(), 4, "A's ring is full");
    assert_eq!(b.drain_logs().len(), 1, "B's holds its one packet");
    assert_eq!((a.packets, a.dropped), (102, 101));
    assert_eq!((b.packets, b.dropped), (1, 0));
    // A control-plane flip on B leaves A alone, and the reverse.
    assert!(b.set_module_enabled(3, true));
    assert!(a.set_module_enabled(3, false));
    let (action, _) = run(&mut b, 2, 103, 8);
    assert_eq!(action, ModuleAction::Drop(DropReason::DeviceFilter));
    let (action, _) = run(&mut a, 1, 103, 7);
    assert_eq!(action, ModuleAction::Drop(DropReason::DeviceRateLimit));
    let fired: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            DeviceEvent::TriggerFired { owner, .. } => Some(owner.0),
            _ => None,
        })
        .collect();
    assert_eq!(fired, [1], "only A's trigger fired");
}

/// Line 0 - 1 (device) - 2 - 3; owner 1 holds node 2's prefix, owner 2
/// node 3's.
fn line_with_device(setup: impl FnOnce(&mut AdaptiveDevice)) -> (Simulator, DeviceHandle) {
    let mut sim = Simulator::new(Topology::line(4), 1);
    let (mut dev, handle) = AdaptiveDevice::new(NodeId(1), None);
    for (owner, at) in [(1, 2), (2, 3)] {
        dev.apply(DeviceCommand::RegisterOwner {
            owner: OwnerId(owner),
            prefixes: vec![Prefix::of_node(NodeId(at))],
            contact: NodeId(at),
        });
    }
    setup(&mut dev);
    sim.add_agent(NodeId(1), Box::new(dev));
    for n in [0, 2, 3] {
        sim.install_app(Addr::new(NodeId(n), 1), Box::new(SinkApp));
    }
    (sim, handle)
}

fn install(owner: u64, stage: Stage, spec: &ServiceSpec) -> DeviceCommand {
    DeviceCommand::InstallService {
        owner: OwnerId(owner),
        stage,
        spec: spec.clone(),
        txn: 0,
        lease_until: SimTime::MAX,
    }
}

/// Send one packet `from` → `to` and run 50 ms; was it delivered?
fn delivered(sim: &mut Simulator, from: usize, to: usize) -> bool {
    let before = sim.stats.class(TrafficClass::Background).delivered_pkts;
    let (src, dst) = (Addr::new(NodeId(from), 1), Addr::new(NodeId(to), 1));
    sim.emit_now(NodeId(from), packet(src, dst, 0));
    sim.run_until(sim.now() + SimDuration::from_millis(50));
    sim.stats.class(TrafficClass::Background).delivered_pkts > before
}

#[test]
fn slots_of_one_spec_keep_their_own_state() {
    let staged = |threshold| {
        ServiceSpec::new(
            "staged",
            vec![node(true, trigger(threshold, 1)), node(false, drop_all())],
        )
    };
    let spec = staged(50.0);
    // Two owners, and both stages of one of them, install the one value.
    let (mut sim, handle) = line_with_device(|dev| {
        for (owner, stage) in [(1, Stage::Dst), (1, Stage::Src), (2, Stage::Dst)] {
            dev.apply(install(owner, stage, &spec));
        }
    });
    let command = |sim: &mut Simulator, cmd: DeviceCommand| {
        sim.deliver_control(sim.now(), NodeId(1), NodeId(1), cmd);
        sim.run_until(sim.now() + SimDuration::from_millis(1));
    };
    assert_eq!(handle.lock().rule_count, 6);

    // A burst towards owner 1 fires the trigger of its destination slot.
    for ms in 0..=100 {
        let (src, dst) = (Addr::new(NodeId(0), 1), Addr::new(NodeId(2), 1));
        sim.schedule(SimTime::from_millis(ms), move |sim| {
            sim.emit_now(NodeId(0), packet(src, dst, ms));
        });
    }
    sim.run_until(SimTime::from_millis(150));
    assert!(!delivered(&mut sim, 0, 2), "owner 1 / Dst: switched on");
    assert!(delivered(&mut sim, 2, 0), "owner 1 / Src: still dormant");
    assert!(delivered(&mut sim, 0, 3), "owner 2 / Dst: still dormant");

    // A control-plane flip on owner 2 touches owner 2's bit only.
    command(
        &mut sim,
        DeviceCommand::SetModuleEnabled {
            owner: OwnerId(2),
            stage: Stage::Dst,
            module: 1,
            enabled: true,
        },
    );
    assert!(!delivered(&mut sim, 0, 3));
    assert!(delivered(&mut sim, 2, 0));

    // An identical reinstall is a renewal: the running state survives it.
    command(&mut sim, install(2, Stage::Dst, &spec));
    assert_eq!(handle.lock().idempotent_installs, 1);
    assert!(!delivered(&mut sim, 0, 3), "the flipped bit is still on");
    // A changed spec under the same name replaces in place, state and all.
    command(&mut sim, install(2, Stage::Dst, &staged(60.0)));
    assert_eq!(handle.lock().idempotent_installs, 1);
    assert_eq!(handle.lock().rule_count, 6, "replaced, not stacked");
    assert!(
        delivered(&mut sim, 0, 3),
        "fresh graph: dormant as specified"
    );
}

/// Owner 2 registers a host route at the first address of owner 1's
/// prefix. Looking that address up finds owner 2 — whose contact used to
/// receive owner 1's telemetry.
#[test]
fn telemetry_goes_to_the_owners_own_contact_under_a_shadowing_registration() {
    let every_packet = ServiceSpec::chain(
        "stats",
        vec![ModuleSpec::Logger {
            capacity: 1,
            sample_one_in: 1,
        }],
    );
    let (mut sim, handle) = line_with_device(|dev| {
        dev.apply(DeviceCommand::RegisterOwner {
            owner: OwnerId(2),
            prefixes: vec![Prefix::host(Prefix::of_node(NodeId(2)).first())],
            contact: NodeId(3),
        });
        dev.apply(install(1, Stage::Dst, &every_packet));
    });
    let contacts = [2, 3].map(NodeId);
    for n in contacts {
        Inbox::attach(&mut sim, n);
    }
    assert!(delivered(&mut sim, 0, 2));
    assert_eq!(handle.lock().telemetry_events, 1);
    let [own, other] = contacts.map(|n| sim.agent::<Inbox>(n).expect("inbox attached").heard());
    assert!(
        matches!(own[..], [Heard::Event(DeviceEvent::LogReady { owner, .. })] if owner == OwnerId(1)),
        "owner 1's contact got {own:?}"
    );
    assert!(other.is_empty(), "owner 2's contact got {other:?}");
}
