//! `dev_churn`: one adaptive device at rule-table scale, with leased
//! installs and lease reaps beside the per-packet lookups.

use dtcs::control::CatalogService;
use dtcs::device::{AdaptiveDevice, DeviceCommand, DeviceReply, OwnerId, Stage};
use dtcs::netsim::{
    Addr, App, AppApi, Disposition, DropReason, NodeId, Packet, PacketBuilder, Prefix, Proto,
    SimDuration, SimTime, Simulator, SinkApp, Topology, TrafficClass,
};

use crate::harness::{Ctx, Gen, Outcome};

pub const OWNERS: u64 = 10_000;
const PACKETS: u64 = 1_000_000;
/// One packet per microsecond of simulated time.
const SPACING: SimDuration = SimDuration::from_micros(1);
/// A leased install rides every this-many-th packet.
const INSTALL_EVERY: u64 = 50;
/// Off the microsecond grid, so a renewal never ties with an expiry.
const LEASE: SimDuration = SimDuration::from_nanos(5_000_500);
/// Last packet at 1 s, two 5 ms hops, the last lease 5 ms after that.
const HORIZON: SimTime = SimTime::from_millis(1_020);

const SOURCE: Addr = Addr(1);
const SINK: Addr = Addr((2 << 16) | 1);

/// What the packet stream looks like.
#[derive(Clone, Copy)]
pub struct Mix {
    /// Percent of packets that are UDP from inside a random owner's prefix
    /// (redirect hit, graph runs, forwarded).
    pub owned_udp_pct: u64,
    /// Percent that are TCP RST from inside a random owner's prefix
    /// (redirect hit, dropped by the owner's firewall).
    pub owned_rst_pct: u64,
    /// Put the device on the middle node at all.
    pub device: bool,
    /// Send the leased installs.
    pub writes: bool,
}

pub const DEV_CHURN: Mix = Mix {
    owned_udp_pct: 20,
    owned_rst_pct: 5,
    device: true,
    writes: true,
};

/// Owner `i` holds one /20 outside the three nodes' own address space.
pub fn owner_prefix(i: u64) -> Prefix {
    Prefix::new(0x0100_0000 + ((i as u32) << 12), 20)
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Unowned,
    OwnedUdp,
    OwnedRst,
}

/// The k-th packet of the stream, a pure function of (seed, k).
struct Stream {
    gen: Gen,
    mix: Mix,
}

impl Stream {
    fn new(seed: u64, mix: Mix) -> Stream {
        Stream {
            gen: Gen::new(seed, 0xD0),
            mix,
        }
    }

    fn next(&mut self) -> (Kind, PacketBuilder) {
        let roll = self.gen.below(100);
        let kind = if roll < self.mix.owned_rst_pct {
            Kind::OwnedRst
        } else if roll < self.mix.owned_rst_pct + self.mix.owned_udp_pct {
            Kind::OwnedUdp
        } else {
            Kind::Unowned
        };
        let inside = |gen: &mut Gen| {
            let owner = gen.below(OWNERS);
            Addr(owner_prefix(owner).bits | gen.below(1 << 12) as u32)
        };
        let builder = match kind {
            Kind::Unowned => PacketBuilder::new(SOURCE, SINK, Proto::Udp, TrafficClass::Background),
            Kind::OwnedUdp => PacketBuilder::new(
                inside(&mut self.gen),
                SINK,
                Proto::Udp,
                TrafficClass::Background,
            ),
            Kind::OwnedRst => PacketBuilder::new(
                inside(&mut self.gen),
                SINK,
                Proto::TcpRst,
                TrafficClass::AttackDirect,
            ),
        };
        (kind, builder.size(100))
    }
}

/// Host on node 0 that replays the stream, one packet per timer.
struct Source {
    stream: Stream,
    left: u64,
}

impl App for Source {
    fn on_start(&mut self, api: &mut AppApi<'_>) {
        api.set_timer(SPACING, 0);
    }

    fn on_packet(&mut self, _api: &mut AppApi<'_>, _pkt: &Packet) -> Disposition {
        Disposition::Consumed
    }

    fn on_timer(&mut self, api: &mut AppApi<'_>, _token: u64) {
        api.send(self.stream.next().1);
        self.left -= 1;
        if self.left > 0 {
            api.set_timer(SPACING, 0);
        }
    }
}

pub fn dev_churn(ctx: &mut Ctx, seed: u64, mix: Mix) -> Outcome {
    let mut out = Outcome::default();
    ctx.setup("setup.topology");
    let topo = Topology::line(3);
    ctx.setup("setup.routing");
    let mut sim = Simulator::new(topo, seed);

    ctx.setup("setup.deploy");
    let mut handle = None;
    let mut setup_rules = 0;
    if mix.device {
        let (mut dev, h) = AdaptiveDevice::new(NodeId(1), None);
        let firewall = CatalogService::FirewallBlock {
            protos: vec![Proto::TcpRst],
        }
        .compile();
        for i in 0..OWNERS {
            let owner = OwnerId(i + 1);
            dev.apply(DeviceCommand::RegisterOwner {
                owner,
                prefixes: vec![owner_prefix(i)],
                contact: NodeId(0),
            });
            // The owned address is the packet's source, so the service
            // sits on the source-side stage.
            let reply = dev.apply(DeviceCommand::InstallService {
                owner,
                stage: Stage::Src,
                spec: firewall.clone(),
                txn: 0,
                lease_until: SimTime::MAX,
            });
            out.check(matches!(reply, Some(DeviceReply::InstallOk { .. })), || {
                format!("set-up install for owner {i} not accepted: {reply:?}")
            });
        }
        sim.add_agent(NodeId(1), Box::new(dev));
        setup_rules = h.lock().rule_count as u64;
        handle = Some(h);
    }

    ctx.setup("setup.workload");
    sim.install_app(SINK, Box::new(SinkApp));
    sim.install_app(
        SOURCE,
        Box::new(Source {
            stream: Stream::new(seed, mix),
            left: PACKETS,
        }),
    );
    // What the stream will contain, from a dry run of the same generator.
    let (owned_udp, owned_rst) = ctx.generate(|| {
        let mut dry = Stream::new(seed, mix);
        let (mut owned_udp, mut owned_rst) = (0u64, 0u64);
        for _ in 0..PACKETS {
            match dry.next().0 {
                Kind::OwnedUdp => owned_udp += 1,
                Kind::OwnedRst => owned_rst += 1,
                Kind::Unowned => {}
            }
        }
        (owned_udp, owned_rst)
    });
    // Leased installs on the owner's other stage, and how many lease
    // chains they form: an install inside a live lease renews it, one
    // after expiry starts a chain the device must reap.
    let mut installs = 0u64;
    let mut expected_reaps = 0u64;
    if mix.device && mix.writes {
        let spec = CatalogService::AntiSpoofing.compile();
        let mut gen = Gen::new(seed, 0xD1);
        let mut lease_until = vec![SimTime::ZERO; OWNERS as usize];
        for k in (INSTALL_EVERY..=PACKETS).step_by(INSTALL_EVERY as usize) {
            let at = SimTime::from_nanos(k * SPACING.as_nanos());
            let owner = gen.below(OWNERS);
            if lease_until[owner as usize] < at {
                expected_reaps += 1;
            }
            lease_until[owner as usize] = at + LEASE;
            sim.deliver_control(
                at,
                NodeId(0),
                NodeId(1),
                DeviceCommand::InstallService {
                    owner: OwnerId(owner + 1),
                    stage: Stage::Dst,
                    spec: spec.clone(),
                    txn: k,
                    lease_until: at + LEASE,
                },
            );
            installs += 1;
        }
    }

    ctx.run(&mut sim, HORIZON);

    out.absorb_stats(&sim.stats);
    let delivered: u64 = sim.stats.per_class.iter().map(|c| c.delivered_pkts).sum();
    let dropped: u64 = sim.stats.per_class.iter().map(|c| c.dropped_pkts).sum();
    let filtered = sim.stats.drops_for_reason(DropReason::DeviceFilter).pkts;
    let want_filtered = if mix.device { owned_rst } else { 0 };
    let mut wrong = delivered.abs_diff(PACKETS - want_filtered)
        + dropped.abs_diff(want_filtered)
        + filtered.abs_diff(want_filtered);
    if let Some(h) = &handle {
        let d = h.lock();
        wrong += d.seen_pkts.abs_diff(PACKETS)
            + d.redirected_pkts.abs_diff(owned_udp + owned_rst)
            + d.lease_reaps.abs_diff(expected_reaps)
            + d.rejected_installs;
        // Every lease has run out by the horizon: only set-up rules remain.
        wrong += (d.rule_count as u64).abs_diff(setup_rules);
        out.absorb_device(&d);
        out.mix_u64(d.lease_reaps);
        out.mix_u64(d.redirected_pkts);
    }
    let ops = PACKETS + installs;
    out.check(wrong == 0, || {
        format!(
            "{wrong} verdicts differ from the generator's: delivered {delivered}, \
             filtered {filtered} (want {want_filtered}), dropped {dropped}"
        )
    });
    out.set("ops", ops as f64);
    out.set("served", ops.saturating_sub(wrong) as f64);
    out.set("served_of", ops as f64);
    out.set("topology_nodes", 3.0);
    out.set("attack_byte_hops", sim.stats.attack_byte_hops() as f64);
    out
}
