//! Network debugging and optimisation (Sec. 4.4): "Our system provides
//! means to collect traffic statistics within the network. Link delays or
//! packet loss on intermediate links could be measured for network
//! debugging purposes."
//!
//! A content provider deploys the `Statistics` catalog service on every
//! adaptive device along its traffic's paths, sends a handful of probe
//! packets to a client, then collects the per-device digest logs. Because
//! each log entry carries the device's local arrival timestamp and the
//! packet digest is stable along the path, joining the logs by digest
//! reconstructs each probe's per-hop timeline — per-segment one-way delays
//! measured *inside* the network, no router cooperation beyond the TCS
//! needed. The measured segment delays are checked against the ground-truth
//! link latencies of the topology.
//!
//! Run with: `cargo run --release -p dtcs --example network_debugging`

use std::collections::BTreeMap;

use dtcs::control::CatalogService;
use dtcs::device::view::digest_packet;
use dtcs::device::{AdaptiveDevice, DeviceCommand, DeviceReply, Heard, Inbox, OwnerId, Stage};
use dtcs::netsim::{
    Addr, NodeId, PacketBuilder, Prefix, Proto, SimTime, Simulator, Topology, TrafficClass,
};

fn main() {
    let topo = Topology::line(6); // a clean 5-link path to audit
    let mut sim = Simulator::new(topo, 3);
    let me = NodeId(0); // the content provider's AS
    let client = Addr::new(NodeId(5), 1);
    sim.install_app(client, Box::new(dtcs::netsim::SinkApp));

    // Deploy Statistics (sample every packet) on every device, scoped to
    // traffic whose *source* is the provider's prefix — stage 1.
    let owner = OwnerId(11);
    let svc = CatalogService::Statistics {
        capacity: 1024,
        sample_one_in: 1,
    };
    for i in 0..sim.topo.n() {
        let node = NodeId(i);
        let (mut dev, _h) = AdaptiveDevice::new(node, None);
        dev.apply(DeviceCommand::RegisterOwner {
            owner,
            prefixes: vec![Prefix::of_node(me)],
            contact: me,
        });
        dev.apply(DeviceCommand::InstallService {
            txn: 0,
            lease_until: SimTime::MAX,
            owner,
            stage: Stage::Src,
            spec: svc.compile(),
        });
        sim.add_agent(node, Box::new(dev));
    }

    // Probes with distinct tags.
    let probes: Vec<PacketBuilder> = (0..5u64)
        .map(|k| {
            PacketBuilder::new(
                Addr::new(me, 1),
                client,
                Proto::TcpData,
                TrafficClass::Background,
            )
            .size(400)
            .tag(0xDE8_000 + k)
            .flow(k)
        })
        .collect();
    for (k, b) in probes.iter().enumerate() {
        let b = *b;
        sim.schedule(SimTime::from_millis(100 * (k as u64 + 1)), move |s| {
            s.emit_now(me, b);
        });
    }
    sim.run_until(SimTime::from_secs(2));

    // Collect every device's log via ReadLog; replies land in an inbox at
    // the provider's node.
    Inbox::attach(&mut sim, me);
    for i in 0..sim.topo.n() {
        sim.deliver_control(
            SimTime::from_secs(3),
            me,
            NodeId(i),
            DeviceCommand::ReadLog {
                owner,
                stage: Stage::Src,
                reply_to: me,
            },
        );
    }
    sim.run_until(SimTime::from_secs(5));

    // Join logs by digest: per-probe, per-node arrival times.
    let mut logs = 0;
    let mut timelines: BTreeMap<u64, Vec<(usize, SimTime)>> = BTreeMap::new();
    for heard in sim.agent::<Inbox>(me).expect("inbox attached").heard() {
        if let Heard::Reply(DeviceReply::LogData { node, entries, .. }) = heard {
            logs += 1;
            for e in entries {
                timelines.entry(e.digest).or_default().push((node.0, e.at));
            }
        }
    }
    println!("collected logs from {logs} devices");

    // Per-segment delays, averaged over probes.
    let mut seg_delays: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for (_digest, mut timeline) in timelines {
        timeline.sort_by_key(|&(_, at)| at);
        for w in timeline.windows(2) {
            let (a, ta) = w[0];
            let (b, tb) = w[1];
            seg_delays
                .entry((a, b))
                .or_default()
                .push((tb - ta).as_secs_f64() * 1e3);
        }
    }
    println!("\nsegment        measured (ms)   ground truth (ms)");
    let probe = probes[0].build(0, me);
    let _ = digest_packet(&probe); // digests are what joined the logs above
    for ((a, b), delays) in &seg_delays {
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        // Ground truth: the link's latency plus its transmission time.
        let link = sim
            .topo
            .neighbours(NodeId(*a))
            .find(|(n, _)| n.0 == *b)
            .map(|(_, l)| &sim.topo.links[l.0])
            .expect("adjacent");
        let truth = link.latency.as_secs_f64() * 1e3 + 400.0 * 8.0 / link.bandwidth_bps * 1e3;
        println!("{a} -> {b}        {mean:>8.3}        {truth:>8.3}");
        assert!(
            (mean - truth).abs() < 0.5,
            "measured delay must match topology ground truth"
        );
    }
    println!("\nper-segment one-way delays recovered from in-network statistics logs alone.");
}
