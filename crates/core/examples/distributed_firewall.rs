//! Distributed firewall, triggers and protocol-misuse filtering
//! (Secs. 4.2 / 4.3 / 4.4).
//!
//! Three vignettes on one small internet:
//!
//! 1. **Firewall-like filtering** — the owner drops a protocol class on
//!    devices across the network, instantly.
//! 2. **Automated anomaly reaction** — a trigger watches inbound rate and
//!    activates a dormant rate limiter when a flood starts, then relieves
//!    it ("triggers can automatically activate predefined additional
//!    configurations").
//! 3. **Protocol misuse defense** — forged TCP RSTs tearing down
//!    long-lived connections are filtered by the owner's devices
//!    ("attacks based on protocol misuse … can also be filtered out").
//!
//! Run with: `cargo run --release -p dtcs --example distributed_firewall`

use dtcs::attack::{AgentApp, AgentMode, AgentTrigger, ConnClientApp, ConnServerApp, SpoofMode};
use dtcs::control::CatalogService;
use dtcs::device::{AdaptiveDevice, DeviceCommand, DeviceEvent, Heard, Inbox, OwnerId};
use dtcs::netsim::{
    Addr, DropReason, Prefix, Proto, SimDuration, SimTime, Simulator, Topology, TrafficClass,
};

fn main() {
    firewall_vignette();
    trigger_vignette();
    misuse_vignette();
}

/// A device on every node, configured for one owner.
fn deploy_for_owner(
    sim: &mut Simulator,
    owner: OwnerId,
    prefix: Prefix,
    service: &CatalogService,
) -> Vec<dtcs::device::DeviceHandle> {
    let contact = prefix.first().node();
    (0..sim.topo.n())
        .map(|i| {
            let node = dtcs::netsim::NodeId(i);
            let (mut dev, handle) = AdaptiveDevice::new(node, None);
            dev.apply(DeviceCommand::RegisterOwner {
                owner,
                prefixes: vec![prefix],
                contact,
            });
            dev.apply(DeviceCommand::InstallService {
                txn: 0,
                lease_until: SimTime::MAX,
                owner,
                stage: service.stage(),
                spec: service.compile(),
            });
            sim.add_agent(node, Box::new(dev));
            handle
        })
        .collect()
}

fn firewall_vignette() {
    println!("== 1. Distributed firewall: drop UDP floods to my prefix ==");
    let topo = Topology::transit_stub_multihomed(3, 8, 0.2, 5);
    let mut sim = Simulator::new(topo, 5);
    let me = sim.topo.stub_nodes()[0];
    let my_addr = Addr::new(me, 1);
    sim.install_app(my_addr, Box::new(dtcs::netsim::SinkApp));
    let owner = OwnerId(1);
    deploy_for_owner(
        &mut sim,
        owner,
        Prefix::of_node(me),
        &CatalogService::FirewallBlock {
            protos: vec![Proto::Udp],
        },
    );
    // A UDP flood and a TCP client.
    let flooder = Addr::new(sim.topo.stub_nodes()[5], 4);
    sim.install_app(
        flooder,
        Box::new(
            AgentApp::new(
                AgentMode::Direct {
                    victim: my_addr,
                    spoof: SpoofMode::None,
                },
                AgentTrigger::AtTime(SimTime::ZERO),
                200.0,
                300,
            )
            .until(SimTime::from_secs(5)),
        ),
    );
    sim.run_until(SimTime::from_secs(6));
    let dropped = sim.stats.drops_for_reason(DropReason::DeviceFilter);
    let delivered = sim.stats.class(TrafficClass::AttackDirect).delivered_pkts;
    println!(
        "   flood packets filtered: {}, leaked to my host: {}",
        dropped.pkts, delivered
    );
    println!(
        "   mean filter distance from flood source: {:.1} hops\n",
        sim.stats
            .mean_stop_distance(TrafficClass::AttackDirect, DropReason::DeviceFilter)
            .unwrap_or(f64::NAN)
    );
}

fn trigger_vignette() {
    println!("== 2. Anomaly reaction: trigger arms a dormant rate limiter ==");
    let topo = Topology::star(4);
    let mut sim = Simulator::new(topo, 5);
    let me = dtcs::netsim::NodeId(1);
    let my_addr = Addr::new(me, 1);
    sim.install_app(my_addr, Box::new(dtcs::netsim::SinkApp));
    let owner = OwnerId(2);
    let service = CatalogService::AnomalyReaction {
        threshold_pps: 100.0,
        window: SimDuration::from_millis(500),
        limit_bytes_per_sec: 20_000.0,
    };
    // One device at the hub; its trigger events reach my inbox, the
    // contact node I registered.
    let inbox = Inbox::attach(&mut sim, me);
    let (mut dev, _handle) = AdaptiveDevice::new(dtcs::netsim::NodeId(0), None);
    dev.apply(DeviceCommand::RegisterOwner {
        owner,
        prefixes: vec![Prefix::of_node(me)],
        contact: me,
    });
    dev.apply(DeviceCommand::InstallService {
        txn: 0,
        lease_until: SimTime::MAX,
        owner,
        stage: service.stage(),
        spec: service.compile(),
    });
    sim.add_agent(dtcs::netsim::NodeId(0), Box::new(dev));
    // Gentle traffic 0-4 s, a flood 4-8 s, calm again after.
    let flooder = Addr::new(dtcs::netsim::NodeId(2), 4);
    sim.install_app(
        flooder,
        Box::new(
            AgentApp::new(
                AgentMode::Direct {
                    victim: my_addr,
                    spoof: SpoofMode::None,
                },
                AgentTrigger::AtTime(SimTime::from_secs(4)),
                2000.0,
                200,
            )
            .until(SimTime::from_secs(8)),
        ),
    );
    let slow = Addr::new(dtcs::netsim::NodeId(3), 4);
    sim.install_app(
        slow,
        Box::new(
            AgentApp::new(
                AgentMode::Direct {
                    victim: my_addr,
                    spoof: SpoofMode::None,
                },
                AgentTrigger::AtTime(SimTime::ZERO),
                20.0,
                200,
            )
            .until(SimTime::from_secs(12)),
        ),
    );
    sim.run_until(SimTime::from_secs(14));
    for heard in inbox.lock().iter() {
        match heard {
            Heard::Event(DeviceEvent::TriggerFired { value, at, .. }) => {
                println!("   trigger FIRED at {at:?} (rate {value:.0} pps) -> limiter enabled")
            }
            Heard::Event(DeviceEvent::TriggerRelieved { at, .. }) => {
                println!("   trigger RELIEVED at {at:?} -> limiter disabled")
            }
            _ => {}
        }
    }
    let limited = sim.stats.drops_for_reason(DropReason::DeviceRateLimit);
    println!(
        "   packets dropped by the auto-armed limiter: {}\n",
        limited.pkts
    );
}

fn misuse_vignette() {
    println!("== 3. Protocol misuse: filtering forged TCP RSTs ==");
    let topo = Topology::line(4);
    // Two runs: undefended, then with an RST filter on the connection
    // owner's devices.
    for defended in [false, true] {
        let mut sim = Simulator::new(topo.clone(), 5);
        let client = Addr::new(dtcs::netsim::NodeId(0), 1);
        let server = Addr::new(dtcs::netsim::NodeId(3), 1);
        if defended {
            // The client's owner filters inbound RSTs that claim the
            // server but arrive from elsewhere — here simply all RSTs, a
            // policy the owner may choose for its own traffic.
            deploy_for_owner(
                &mut sim,
                OwnerId(3),
                Prefix::of_node(client.node()),
                &CatalogService::FirewallBlock {
                    protos: vec![Proto::TcpRst],
                },
            );
        }
        let (capp, conn) = ConnClientApp::new(server, SimDuration::from_millis(100));
        sim.install_app(client, Box::new(capp));
        sim.install_app(server, Box::new(ConnServerApp::new(client)));
        // Forged RST injected at node 1 by an off-path attacker.
        sim.schedule(SimTime::from_secs(2), move |s| {
            s.emit_now(
                dtcs::netsim::NodeId(1),
                dtcs::netsim::PacketBuilder::new(
                    server,
                    client,
                    Proto::TcpRst,
                    TrafficClass::AttackDirect,
                )
                .size(40),
            );
        });
        sim.run_until(SimTime::from_secs(5));
        let c = conn.lock();
        println!(
            "   {}: connection {} ({} heartbeats)",
            if defended { "defended  " } else { "undefended" },
            if c.killed {
                "KILLED by forged RST"
            } else {
                "alive"
            },
            c.heartbeats
        );
    }
}
