//! The three data-plane workloads. All are one attack, one victim with
//! legitimate clients and one standing defence on a generated internet,
//! composed from public constructors the way `dtcs::run_scenario` does,
//! but with set-up and run apart so each can be timed.

use std::sync::{Arc, Mutex};

use dtcs::attack::{
    hosts, install_clients_at, plan_client_addrs, ClientApp, DirectFlood, DirectFloodConfig,
    ReflectorAttack, ReflectorAttackConfig, SpoofMode, VictimApp,
};
use dtcs::device::DeviceHandle;
use dtcs::mitigation::{deploy_fluid_ingress, deploy_ingress, Placement};
use dtcs::netsim::{
    Addr, DropReason, FlightRecorder, FluidDemand, LinkId, NodeId, Prefix, Proto, Routing,
    SimDuration, SimTime, Simulator, SinkApp, Stats, Topology, TrafficClass,
};
use dtcs::{deploy_tcs_static, TcsStaticConfig};

use crate::harness::{Ctx, Gen, Outcome};

const HORIZON: SimTime = SimTime::from_secs(30);
/// Clients stop a second early, so a request still unanswered at the
/// horizon was lost, not merely in flight.
const CLIENTS_STOP: SimTime = SimTime::from_secs(29);
const CLIENT_PERIOD: SimDuration = SimDuration::from_millis(250);
/// Links flapped on `ingress_flap`, one flip every `FLAP_EVERY_MS`.
const FLAP_LINKS: usize = 16;
const FLAP_EVERY_MS: u64 = 50;

#[derive(Clone, Copy, PartialEq)]
pub enum Graph {
    /// `Topology::barabasi_albert(400, 2, 0.1, seed)`.
    Ba400,
    /// `Topology::transit_stub_at_least(n, seed)`.
    TransitStub(usize),
}

#[derive(Clone, Copy, PartialEq)]
pub enum Defence {
    None,
    /// `deploy_tcs_static(TcsStaticConfig::default())`.
    Tcs,
    /// `deploy_ingress(0.5, TopDegree)`, mirrored on the fluid layer when
    /// that is on.
    Ingress,
}

#[derive(Clone, Copy, PartialEq)]
pub enum Attack {
    /// The E2 reflector attack: 80 agents, 120 reflectors, 60 pps, 5–25 s.
    Reflector,
    /// 200 agents flooding at 200 pps, 1–29 s, with random source
    /// addresses or (for the arms that time the filters alone) their own.
    Flood { spoofed: bool },
}

/// One simulated pass.
#[derive(Clone, Copy)]
pub struct Pass {
    pub graph: Graph,
    pub defence: Defence,
    pub attack: Attack,
    /// Third-party clients of reflector-hosted services.
    pub collateral_clients: usize,
    /// Background flows of 200 kb/s in 500 B packets between stub pairs.
    pub background_flows: usize,
    /// Carry background traffic as fluid aggregates with a 50 ms tick.
    pub fluid: bool,
    /// Toggle the lowest-coverage links round-robin.
    pub flaps: bool,
    /// Record packet lifecycles for one packet in this many.
    pub packet_trace: Option<u64>,
}

pub struct PassResult {
    pub stats: Stats,
    pub legit_sent: u64,
    pub legit_answered: u64,
    pub devices: Vec<DeviceHandle>,
    pub recorder: Option<FlightRecorder>,
    pub nodes: usize,
}

/// The links `ingress_flap` toggles: the up links with the fewest
/// destination trees crossing them (but at least one) — access links, which
/// fail most often in practice; the rule of
/// `crates/bench/benches/route_churn.rs` — passing over any whose flip, in
/// this schedule, falls back to a whole-table recompute. On about one
/// topology in four one restored link does, and the run then takes a third
/// longer: left to the seed, `run_s` would have two modes.
pub fn flap_links(sim: &Simulator) -> Vec<LinkId> {
    let topo = &sim.topo;
    let mut scored: Vec<(usize, usize)> = (0..topo.links.len())
        .filter(|&l| topo.links[l].up)
        .map(|l| {
            let coverage = (0..topo.n())
                .filter(|&d| sim.routing.tree_contains(NodeId(d), LinkId(l)))
                .count();
            (coverage, l)
        })
        .filter(|&(coverage, _)| coverage > 0)
        .collect();
    scored.sort_unstable();
    let mut candidates = scored.into_iter().map(|(_, l)| LinkId(l));
    let mut links: Vec<LinkId> = candidates.by_ref().take(FLAP_LINKS).collect();
    while let Some(slow) = first_full_recompute(topo, &links) {
        let Some(next) = candidates.next() else { break };
        let slot = links
            .iter()
            .position(|&l| l == slow)
            .expect("a scheduled link");
        links[slot] = next;
    }
    links
}

/// Replay the schedule on the routing tables alone; the first link whose
/// flip recomputes every tree.
fn first_full_recompute(topo: &Topology, links: &[LinkId]) -> Option<LinkId> {
    let mut topo = topo.clone();
    let mut routing = Routing::compute(&topo);
    flap_schedule(links)
        .into_iter()
        .map(|(_, link)| link)
        .find(|&link| {
            topo.links[link.0].up = !topo.links[link.0].up;
            routing.apply_link_flip(&topo, link).full
        })
}

/// The flip schedule of `ingress_flap`: (instant, link) from 1 s to 29 s.
pub fn flap_schedule(links: &[LinkId]) -> Vec<(SimTime, LinkId)> {
    (0..(28_000 / FLAP_EVERY_MS))
        .map(|k| {
            (
                SimTime::from_millis(1_000 + k * FLAP_EVERY_MS),
                links[k as usize % links.len()],
            )
        })
        .collect()
}

pub fn build_topology(graph: Graph, seed: u64) -> Topology {
    match graph {
        Graph::Ba400 => Topology::barabasi_albert(400, 2, 0.1, seed),
        Graph::TransitStub(n) => Topology::transit_stub_at_least(n, seed),
    }
}

/// Set up, run and read out one pass.
pub fn run_pass(ctx: &mut Ctx, seed: u64, pass: &Pass) -> PassResult {
    ctx.setup("setup.topology");
    let topo = build_topology(pass.graph, seed);
    ctx.setup("setup.routing");
    let mut sim = Simulator::new(topo, seed);

    ctx.setup("setup.deploy");
    if pass.fluid {
        sim.enable_fluid(SimDuration::from_millis(50));
    }
    let recorder = pass.packet_trace.map(|one_in| {
        let rec = Arc::new(Mutex::new(FlightRecorder::new(1 << 22)));
        sim.set_trace_sink(Box::new(Arc::clone(&rec)), one_in);
        rec
    });
    let stubs = sim.topo.stub_nodes();
    let victim_node = stubs[seed as usize % stubs.len()];
    if pass.fluid {
        sim.fluid_packetize(victim_node);
    }
    let victim = Addr::new(victim_node, hosts::SERVICE);
    let mut devices = Vec::new();
    match pass.defence {
        Defence::None => {}
        Defence::Tcs => {
            let cfg = TcsStaticConfig {
                seed: seed ^ 0x7C5,
                ..TcsStaticConfig::default()
            };
            let deployed = deploy_tcs_static(&mut sim, Prefix::of_node(victim_node), &cfg);
            devices = deployed.devices.into_values().collect();
        }
        Defence::Ingress => {
            deploy_ingress(&mut sim, 0.5, Placement::TopDegree, seed ^ 0x1A);
            if pass.fluid {
                deploy_fluid_ingress(&mut sim, 0.5, Placement::TopDegree, seed ^ 0x1A);
            }
        }
    }

    ctx.setup("setup.workload");
    let client_addrs = plan_client_addrs(&sim, victim_node, 30, seed);
    let services = match pass.attack {
        Attack::Reflector => {
            let attack = ReflectorAttack::install(
                &mut sim,
                victim_node,
                &ReflectorAttackConfig {
                    n_agents: 80,
                    n_reflectors: 120,
                    agent_rate_pps: 60.0,
                    start_at: SimTime::from_secs(5),
                    stop_at: SimTime::from_secs(25),
                    victim_capacity_pps: 800.0,
                    seed,
                    ..Default::default()
                },
            );
            attack.reflectors
        }
        Attack::Flood { spoofed } => {
            let (app, _) = VictimApp::new(800.0, 600);
            sim.install_app(victim, Box::new(app));
            DirectFlood::install(
                &mut sim,
                victim,
                &DirectFloodConfig {
                    n_agents: 200,
                    agent_rate_pps: 200.0,
                    pkt_size: 200,
                    spoof: if spoofed {
                        SpoofMode::Random
                    } else {
                        SpoofMode::None
                    },
                    start_at: SimTime::from_secs(1),
                    stop_at: SimTime::from_secs(29),
                    seed,
                },
            );
            Vec::new()
        }
    };
    let clients = install_clients_at(&mut sim, &client_addrs, victim, CLIENT_PERIOD, CLIENTS_STOP);
    let n_collateral = pass.collateral_clients.min(services.len());
    for (i, addr) in plan_client_addrs(&sim, victim_node, n_collateral, seed ^ 0xC0)
        .into_iter()
        .enumerate()
    {
        let (app, _) = ClientApp::new(services[i % services.len()], CLIENT_PERIOD);
        let app = app.request(Proto::DnsQuery, 60).until(CLIENTS_STOP);
        sim.install_app(addr, Box::new(app));
    }
    install_background(&mut sim, victim_node, pass.background_flows, seed);
    if pass.flaps {
        let schedule = ctx.generate(|| flap_schedule(&flap_links(&sim)));
        for (at, link) in schedule {
            sim.schedule(at, move |s| {
                let up = s.topo.links[link.0].up;
                s.set_link_up(link, !up);
            });
        }
    }
    sim.stats.watch(victim_node, SimDuration::from_secs(1));

    ctx.run(&mut sim, HORIZON);

    let (legit_sent, legit_answered) = clients.iter().fold((0, 0), |(s, a), h| {
        let c = h.lock();
        (s + c.sent, a + c.answered)
    });
    let recorder = recorder.map(|rec| {
        drop(sim.take_trace_sink());
        Arc::into_inner(rec)
            .expect("recorder uniquely owned once the sink is detached")
            .into_inner()
            .expect("flight recorder mutex poisoned")
    });
    PassResult {
        nodes: sim.topo.n(),
        stats: sim.stats,
        legit_sent,
        legit_answered,
        devices,
        recorder,
    }
}

/// `n` long-lived flows between seeded stub pairs, victim excluded; the
/// engine decides whether each runs as packets or as a fluid aggregate.
fn install_background(sim: &mut Simulator, victim: NodeId, n: usize, seed: u64) {
    if n == 0 {
        return;
    }
    let mut stubs: Vec<NodeId> = sim
        .topo
        .stub_nodes()
        .into_iter()
        .filter(|&s| s != victim)
        .collect();
    Gen::new(seed, 0xB6F1).shuffle(&mut stubs);
    let half = (stubs.len() / 2).max(1);
    for i in 0..n {
        let src = stubs[i % stubs.len()];
        let dst = stubs[(i + half) % stubs.len()];
        if src == dst {
            continue;
        }
        let dst = Addr::new(dst, 0xB7);
        sim.install_app(dst, Box::new(SinkApp));
        sim.add_background_demand(FluidDemand {
            src: Addr::new(src, 0xB6),
            dst,
            proto: Proto::Udp,
            class: TrafficClass::Background,
            rate_bps: 2e5,
            pkt_size: 500,
            until: HORIZON,
        });
    }
}

/// Fold one defended pass into the iteration's outcome: the operations
/// are the legitimate requests, served when answered.
pub fn absorb_defended(out: &mut Outcome, r: &PassResult) {
    out.absorb_stats(&r.stats);
    out.set("ops", r.legit_sent as f64);
    out.set("served", r.legit_answered as f64);
    out.set("served_of", r.legit_sent as f64);
    out.add("attack_byte_hops", r.stats.attack_byte_hops() as f64);
    out.add(
        "ingress_drops",
        r.stats.drops_for_reason(DropReason::IngressFilter).pkts as f64,
    );
    out.set("topology_nodes", r.nodes as f64);
    for d in &r.devices {
        out.absorb_device(&d.lock());
    }
    out.mix_u64(r.legit_sent);
    out.mix_u64(r.legit_answered);
}

pub const PKT_BA400: Pass = Pass {
    graph: Graph::Ba400,
    defence: Defence::Tcs,
    attack: Attack::Reflector,
    collateral_clients: 20,
    background_flows: 0,
    fluid: false,
    flaps: false,
    packet_trace: None,
};

pub const INGRESS_FLAP: Pass = Pass {
    graph: Graph::Ba400,
    defence: Defence::Ingress,
    attack: Attack::Flood { spoofed: true },
    collateral_clients: 0,
    background_flows: 0,
    fluid: false,
    flaps: true,
    packet_trace: None,
};

pub const FLUID_TS100K: Pass = Pass {
    graph: Graph::TransitStub(100_000),
    defence: Defence::Ingress,
    attack: Attack::Reflector,
    collateral_clients: 20,
    background_flows: 5000,
    fluid: true,
    flaps: false,
    packet_trace: None,
};

/// `pkt_ba400`: the undefended pass, then the same scenario defended.
pub fn pkt_ba400(ctx: &mut Ctx, seed: u64, pass: Pass) -> (Outcome, Option<FlightRecorder>) {
    let mut out = Outcome::default();
    let undefended = run_pass(
        ctx,
        seed,
        &Pass {
            defence: Defence::None,
            ..pass
        },
    );
    out.absorb_stats(&undefended.stats);
    let defended = run_pass(ctx, seed, &pass);
    absorb_defended(&mut out, &defended);
    (out, defended.recorder)
}

/// `ingress_flap` and `fluid_ts100k`: one defended pass.
pub fn single_pass(ctx: &mut Ctx, seed: u64, pass: Pass) -> Outcome {
    let mut out = Outcome::default();
    let r = run_pass(ctx, seed, &pass);
    absorb_defended(&mut out, &r);
    out
}
