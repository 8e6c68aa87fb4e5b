//! The scheme-comparison scenario: one reflector attack, one legitimate
//! workload, one mitigation scheme — measured.
//!
//! This is the engine behind experiments E2 (effectiveness), E4
//! (collateral damage) and E9 (pushback misattribution): the same attack
//! and workload are replayed under each scheme, and the outcome row
//! captures who got served, who got cut off, and where attack traffic
//! died.

use std::sync::Arc;

use dtcs_netsim::sync::Mutex;

use dtcs_attack::{
    hosts, install_clients_at, mean_success, plan_client_addrs, ClientApp, ClientHandle,
    ReflectorAttack, ReflectorAttackConfig, VictimApp, VictimHandle,
};
use dtcs_mitigation::{
    deploy_ingress, deploy_ppm_everywhere, deploy_pushback_everywhere, install_traceback_filters,
    reconstruct_sources, I3Defense, MarkCollectorAgent, PushbackHandle, SosOverlay,
};
use dtcs_netsim::{
    Addr, FlightRecorder, FluidDemand, NodeId, Prefix, Proto, SimDuration, SimTime, Simulator,
    SinkApp, Topology, TrafficClass,
};

use crate::metrics::OutcomeRow;
use crate::schemes::Scheme;
use crate::tcs::{deploy_tcs_static, TcsDeployment};

/// Which attack the scenario runs (the E2-family row generator covers
/// both of the paper's threat shapes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackKind {
    /// Fig. 1 reflector attack: spoofed requests bounced off innocent
    /// servers.
    Reflector,
    /// Classic direct flood straight at the victim.
    Direct {
        /// Source forging policy of the flooding agents.
        spoof: dtcs_attack::SpoofMode,
    },
}

/// Which network graph the scenario runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyChoice {
    /// Barabási–Albert preferential attachment, sized by
    /// [`ScenarioConfig::n_nodes`] — the historical default (BA-400 and
    /// smaller).
    BarabasiAlbert,
    /// Transit-stub hierarchy with at least `n` nodes
    /// (`Topology::transit_stub_at_least`): hierarchical routing, linear
    /// memory, the shape for 100k+-node scale scenarios.
    TransitStub {
        /// Minimum node count.
        n: usize,
    },
}

/// Barabási–Albert attachment parameter of the scenario graph.
const BA_M: usize = 2;
/// Share of top-degree BA nodes labelled transit.
const BA_TRANSIT_SHARE: f64 = 0.1;
/// Request period of every client, victim-bound and collateral alike.
const CLIENT_PERIOD: SimDuration = SimDuration::from_millis(250);
/// Flight-recorder ring capacity of a traced run, in events; beyond it
/// the oldest events are evicted.
const TRACE_CAPACITY: usize = 1 << 20;
/// Packet size of a direct-flood agent, bytes.
const DIRECT_FLOOD_PKT_SIZE: u32 = 200;
/// Overlay access points of the SOS scheme.
const SOS_SOAPS: usize = 3;
/// Secret servlets of the SOS scheme.
const SOS_SERVLETS: usize = 2;
/// Minimum marked-volume share for a node to count as a traceback source.
const TRACEBACK_MIN_SHARE: f64 = 0.002;

/// Scenario parameters shared across every scheme in a comparison.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// AS count of the Barabási–Albert topology.
    pub n_nodes: usize,
    /// The attack.
    pub attack: ReflectorAttackConfig,
    /// Attack shape (the `attack` parameters are reused for both: agent
    /// counts, rates, timing, victim capacity).
    pub attack_kind: AttackKind,
    /// Legitimate clients of the victim.
    pub n_clients: usize,
    /// Third-party clients of reflector-hosted services (collateral
    /// probes).
    pub n_collateral_clients: usize,
    /// Simulated duration.
    pub duration: SimTime,
    /// Master seed.
    pub seed: u64,
    /// Record every packet's lifecycle into a flight recorder (observation
    /// only: an attached recorder never changes packet fates — see
    /// `dtcs_netsim::trace`; `false` is the zero-cost disabled path).
    pub trace: bool,
    /// Network graph shape.
    pub topology: TopologyChoice,
    /// Long-lived background flows between stub hosts (the load the fluid
    /// layer exists to carry; see `dtcs_netsim::fluid`). 0 keeps the
    /// scenario byte-identical to builds without background traffic.
    pub background_flows: usize,
    /// Carry background flows as fluid aggregates with this accounting
    /// tick instead of discrete packets. `None` (default) keeps the run
    /// purely packet-level. The victim is packetized either way, so its
    /// observables are real packets.
    pub fluid: Option<SimDuration>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            n_nodes: 200,
            attack: ReflectorAttackConfig {
                n_agents: 80,
                n_reflectors: 120,
                agent_rate_pps: 60.0,
                start_at: SimTime::from_secs(5),
                stop_at: SimTime::from_secs(25),
                victim_capacity_pps: 800.0,
                ..Default::default()
            },
            attack_kind: AttackKind::Reflector,
            n_clients: 30,
            n_collateral_clients: 20,
            duration: SimTime::from_secs(30),
            seed: 42,
            trace: false,
            topology: TopologyChoice::BarabasiAlbert,
            background_flows: 0,
            fluid: None,
        }
    }
}

/// Unified ground truth of whichever attack shape was installed.
struct InstalledAttack {
    victim_stats: VictimHandle,
    /// Third-party service addresses for collateral probes (reflectors in
    /// the reflector case; uninvolved DNS servers in the direct case).
    service_addrs: Vec<Addr>,
}

/// Everything a finished run exposes.
pub struct ScenarioOutput {
    /// The metrics row.
    pub row: OutcomeRow,
    /// Final network statistics.
    pub stats: dtcs_netsim::Stats,
    /// The packet flight record, when [`ScenarioConfig::trace`] asked for
    /// one.
    pub trace: Option<FlightRecorder>,
}

/// The scenario's network and its victim: the stub node at
/// `seed % stubs` of the configured graph. The one place that choice is
/// made, for [`run_scenario`] and for anything that must name the same
/// victim without running the scenario (E4's victim-scoped filter).
pub fn topology_and_victim(cfg: &ScenarioConfig) -> (Topology, NodeId) {
    let topo = match cfg.topology {
        TopologyChoice::BarabasiAlbert => {
            Topology::barabasi_albert(cfg.n_nodes, BA_M, BA_TRANSIT_SHARE, cfg.seed)
        }
        TopologyChoice::TransitStub { n } => Topology::transit_stub_at_least(n, cfg.seed),
    };
    let stubs = topo.stub_nodes();
    assert!(!stubs.is_empty(), "need stub nodes for a victim");
    let victim_node = stubs[cfg.seed as usize % stubs.len()];
    (topo, victim_node)
}

/// Run one scheme under the configured scenario.
pub fn run_scenario(cfg: &ScenarioConfig, scheme: &Scheme) -> ScenarioOutput {
    let (topo, victim_node) = topology_and_victim(cfg);
    let mut sim = Simulator::new(topo, cfg.seed);
    if let Some(tick) = cfg.fluid {
        sim.enable_fluid(tick);
    }
    let recorder = cfg.trace.then(|| {
        let rec = Arc::new(std::sync::Mutex::new(FlightRecorder::new(TRACE_CAPACITY)));
        sim.set_trace_sink(Box::new(Arc::clone(&rec)), 1);
        rec
    });
    if cfg.fluid.is_some() {
        // The paper's observables live at the victim: keep its traffic
        // discrete regardless of engine.
        sim.fluid_packetize(victim_node);
    }
    let victim_addr = Addr::new(victim_node, hosts::SERVICE);
    let victim_prefix = Prefix::of_node(victim_node);
    let client_addrs = plan_client_addrs(&sim, victim_node, cfg.n_clients, cfg.seed);

    // --- Scheme pre-attack installation -------------------------------
    let mut attack_cfg = cfg.attack.clone();
    attack_cfg.seed = cfg.seed;
    let mut pushback: Option<PushbackHandle> = None;
    let mut sos: Option<SosOverlay> = None;
    let mut i3: Option<I3Defense> = None;
    let mut tcs: Option<TcsDeployment> = None;
    let mut marks_for_traceback = None;
    let identified_sources: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));

    match scheme {
        Scheme::None => {}
        Scheme::Ingress {
            fraction,
            placement,
        } => {
            deploy_ingress(&mut sim, *fraction, *placement, cfg.seed ^ 0x1A);
        }
        Scheme::Pushback(pb_cfg) => {
            pushback = Some(deploy_pushback_everywhere(&mut sim, *pb_cfg));
        }
        Scheme::TracebackFilter { marking_p, .. } => {
            deploy_ppm_everywhere(&mut sim, *marking_p, cfg.seed ^ 0x7B);
            // The victim can classify attack junk by protocol: unsolicited
            // replies during a reflector attack, the flood protocol (UDP)
            // during a direct flood. Only those feed the reconstruction.
            let protos = match cfg.attack_kind {
                AttackKind::Reflector => crate::tcs::reflected_reply_protos(),
                AttackKind::Direct { .. } => vec![Proto::Udp],
            };
            let (collector, marks) = MarkCollectorAgent::new(victim_node);
            let collector = collector.with_proto_filter(protos);
            sim.add_agent(victim_node, Box::new(collector));
            marks_for_traceback = Some(marks);
        }
        Scheme::Sos => {
            // Overlay nodes drawn from well-connected ASes, away from the
            // victim.
            let pool: Vec<NodeId> = sim
                .topo
                .top_degree(SOS_SOAPS + SOS_SERVLETS + 2)
                .into_iter()
                .filter(|&n| n != victim_node)
                .collect();
            let soap_nodes: Vec<NodeId> = pool.iter().copied().take(SOS_SOAPS).collect();
            let servlet_nodes: Vec<NodeId> = pool
                .iter()
                .copied()
                .skip(SOS_SOAPS)
                .take(SOS_SERVLETS)
                .collect();
            sos = Some(SosOverlay::install(
                &mut sim,
                victim_addr,
                &soap_nodes,
                &servlet_nodes,
                client_addrs.clone(),
            ));
        }
        Scheme::I3 { ip_hidden } => {
            let relay_node = sim
                .topo
                .top_degree(2)
                .into_iter()
                .find(|&n| n != victim_node)
                .expect("topology big enough");
            let defense = I3Defense::install(&mut sim, victim_addr, relay_node);
            if *ip_hidden {
                // Attackers cannot name the victim; they aim at the
                // public trigger instead.
                attack_cfg.target_override = Some(defense.trigger);
            }
            i3 = Some(defense);
        }
        Scheme::Tcs(tcs_cfg) => {
            let mut tcs_cfg = tcs_cfg.clone();
            tcs_cfg.seed = cfg.seed ^ 0x7C5;
            tcs = Some(deploy_tcs_static(&mut sim, victim_prefix, &tcs_cfg));
        }
    }

    // --- Attack + victim ------------------------------------------------
    let attack = match cfg.attack_kind {
        AttackKind::Reflector => {
            let a = ReflectorAttack::install(&mut sim, victim_node, &attack_cfg);
            InstalledAttack {
                victim_stats: a.victim_stats,
                service_addrs: a.reflectors,
            }
        }
        AttackKind::Direct { spoof } => {
            // The victim app, as `ReflectorAttack::install` does it: only
            // where the flood aims at the victim itself.
            let target = attack_cfg.target_override.unwrap_or(victim_addr);
            let (vapp, vstats) = VictimApp::new(attack_cfg.victim_capacity_pps, 600);
            if attack_cfg.target_override.is_none() {
                sim.install_app(target, Box::new(vapp));
            }
            let flood = dtcs_attack::DirectFlood::install(
                &mut sim,
                target,
                &dtcs_attack::DirectFloodConfig {
                    n_agents: attack_cfg.n_agents,
                    agent_rate_pps: attack_cfg.agent_rate_pps,
                    pkt_size: DIRECT_FLOOD_PKT_SIZE,
                    spoof,
                    start_at: attack_cfg.start_at,
                    stop_at: attack_cfg.stop_at,
                    seed: attack_cfg.seed,
                },
            );
            let _ = flood;
            // Uninvolved third-party services for the collateral probes.
            let mut services = Vec::new();
            let stubs = sim.topo.stub_nodes();
            for i in 0..attack_cfg.n_reflectors.min(stubs.len()) {
                let node = stubs[stubs.len() - 1 - i];
                if node == victim_node {
                    continue;
                }
                let addr = Addr::new(node, hosts::SERVICE);
                let (app, _h) = dtcs_attack::ReflectorApp::new();
                sim.install_app(addr, Box::new(app));
                services.push(addr);
            }
            InstalledAttack {
                victim_stats: vstats,
                service_addrs: services,
            }
        }
    };
    let victim_stats: VictimHandle = match &i3 {
        // The victim serves only its trigger: this replaces the default
        // victim the attack installed (none when it aims at the trigger).
        Some(defense) => {
            let (vapp, vstats) = VictimApp::new(cfg.attack.victim_capacity_pps, 600);
            let vapp = vapp.restrict_sources(vec![defense.trigger]);
            sim.install_app(victim_addr, Box::new(vapp));
            vstats
        }
        None => attack.victim_stats.clone(),
    };

    // --- Legitimate workload -------------------------------------------
    let client_stop = cfg.duration;
    let clients: Vec<ClientHandle> = match (&sos, &i3) {
        (Some(overlay), _) => client_addrs
            .iter()
            .map(|&a| {
                let (app, h) = ClientApp::new(overlay.soap_for(a), CLIENT_PERIOD);
                sim.install_app(a, Box::new(app.until(client_stop)));
                h
            })
            .collect(),
        (_, Some(defense)) => client_addrs
            .iter()
            .map(|&a| {
                let (app, h) = ClientApp::new(defense.trigger, CLIENT_PERIOD);
                sim.install_app(a, Box::new(app.until(client_stop)));
                h
            })
            .collect(),
        _ => install_clients_at(
            &mut sim,
            &client_addrs,
            victim_addr,
            CLIENT_PERIOD,
            client_stop,
        ),
    };

    // Collateral probes: third parties using reflector-hosted (or simply
    // third-party) services.
    let n_coll = cfg.n_collateral_clients.min(attack.service_addrs.len());
    let coll_addrs = plan_client_addrs(&sim, victim_node, n_coll, cfg.seed ^ 0xC0).into_iter();
    let collateral: Vec<ClientHandle> = coll_addrs
        .enumerate()
        .map(|(i, a)| {
            let server = attack.service_addrs[i % attack.service_addrs.len()];
            let (app, h) = ClientApp::new(server, CLIENT_PERIOD);
            let app = app.request(Proto::DnsQuery, 60).until(client_stop);
            sim.install_app(a, Box::new(app));
            h
        })
        .collect();

    // --- Scheme post-attack steps ----------------------------------------
    if let Scheme::TracebackFilter {
        reconstruct_at,
        scope,
        ..
    } = scheme
    {
        let marks = marks_for_traceback.clone().expect("collector installed");
        let scope = *scope;
        let identified = identified_sources.clone();
        sim.schedule(*reconstruct_at, move |s| {
            let table = marks.lock().clone();
            let sources = reconstruct_sources(
                &s.topo,
                &s.routing,
                victim_node,
                &table,
                TRACEBACK_MIN_SHARE,
            );
            *identified.lock() = sources.len();
            install_traceback_filters(s, &sources, victim_node, scope);
        });
    }

    // --- Background traffic ---------------------------------------------
    install_background(
        &mut sim,
        victim_node,
        cfg.background_flows,
        cfg.duration,
        cfg.seed,
    );

    // --- Run --------------------------------------------------------------
    sim.stats.watch(victim_node, SimDuration::from_secs(1));
    sim.run_until(cfg.duration);

    // --- Collect -----------------------------------------------------------
    let mut row = OutcomeRow::from_stats(&scheme.label(), &sim.stats);
    row.legit_success = mean_success(&clients);
    row.collateral_success = mean_success(&collateral);
    {
        let v = victim_stats.lock();
        row.victim_overloaded = v.overloaded;
        row.victim_attack_absorbed = v.attack_absorbed;
    }
    if let Some(pb) = &pushback {
        let s = pb.lock();
        row = row
            .with_extra("pushback_limits", s.limits_installed.len() as f64)
            .with_extra("pushback_msgs", s.msgs_sent as f64);
    }
    if let Some(overlay) = &sos {
        row = row.with_extra("trust_relationships", overlay.trust_relationships as f64);
    }
    if matches!(scheme, Scheme::TracebackFilter { .. }) {
        row = row.with_extra("identified_sources", *identified_sources.lock() as f64);
    }
    if let Some(dep) = &tcs {
        row = row
            .with_extra("tcs_devices", dep.nodes.len() as f64)
            .with_extra("tcs_rules", dep.total_rules() as f64)
            .with_extra("tcs_device_drops", dep.total_device_drops() as f64);
    }
    // Mean RTT as a path-stretch indicator (overlay detours).
    let rtts: Vec<f64> = clients.iter().filter_map(|h| h.lock().mean_rtt()).collect();
    if !rtts.is_empty() {
        let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
        row = row.with_extra("mean_rtt_s", mean);
    }
    // Engine invariants are a hard gate on every scenario run: a
    // conservation hole or a clamped past-event would silently skew any
    // table built from this row.
    if let Err(e) = sim.stats.check_conservation() {
        panic!(
            "scenario[{}]: packet conservation violated: {e}",
            scheme.label()
        );
    }
    assert_eq!(
        sim.stats.past_events_clamped,
        0,
        "scenario[{}]: events were scheduled in the past and clamped",
        scheme.label()
    );
    let trace = recorder.map(|rec| {
        drop(sim.take_trace_sink());
        Arc::try_unwrap(rec)
            .unwrap_or_else(|_| panic!("recorder uniquely owned once the sink is detached"))
            .into_inner()
            .expect("flight recorder mutex poisoned")
    });
    ScenarioOutput {
        row,
        stats: sim.stats.clone(),
        trace,
    }
}

/// Host id background demand sources claim (distinct from the attack
/// scenario's SERVICE/CLIENT/ZOMBIE hosts).
const BG_SRC_HOST: u16 = 0xB6;
/// Host id background demand sinks listen on.
const BG_DST_HOST: u16 = 0xB7;
/// Rate of one background flow, bits per second.
const BG_RATE_BPS: f64 = 2e5;
/// Packet size of one background flow, bytes.
const BG_PKT_SIZE: u32 = 500;

/// Install `n_flows` background flows between seeded stub pairs (victim
/// excluded on both ends). Each flow is one
/// [`Simulator::add_background_demand`] call, so whether it runs as a
/// fluid aggregate or a discrete CBR stream is decided by the engine, not
/// here — scenarios read identically under either.
fn install_background(
    sim: &mut Simulator,
    victim: NodeId,
    n_flows: usize,
    until: SimTime,
    seed: u64,
) {
    if n_flows == 0 {
        return;
    }
    let mut stubs: Vec<NodeId> = sim
        .topo
        .stub_nodes()
        .into_iter()
        .filter(|&n| n != victim)
        .collect();
    if stubs.len() < 2 {
        return;
    }
    let mut rng = dtcs_netsim::rng::seeded(dtcs_netsim::rng::child_seed(seed, 0xB6F1));
    rng.shuffle(&mut stubs);
    let half = (stubs.len() / 2).max(1);
    for i in 0..n_flows {
        let src_node = stubs[i % stubs.len()];
        let dst_node = stubs[(i + half) % stubs.len()];
        if src_node == dst_node {
            continue;
        }
        let dst = Addr::new(dst_node, BG_DST_HOST);
        sim.install_app(dst, Box::new(SinkApp));
        sim.add_background_demand(FluidDemand {
            src: Addr::new(src_node, BG_SRC_HOST),
            dst,
            proto: Proto::Udp,
            class: TrafficClass::Background,
            rate_bps: BG_RATE_BPS,
            pkt_size: BG_PKT_SIZE,
            until,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcs::TcsStaticConfig;
    use dtcs_mitigation::{BlockScope, PushbackConfig};

    fn small_cfg() -> ScenarioConfig {
        ScenarioConfig {
            n_nodes: 100,
            attack: ReflectorAttackConfig {
                n_agents: 40,
                n_reflectors: 60,
                agent_rate_pps: 50.0,
                start_at: SimTime::from_secs(2),
                stop_at: SimTime::from_secs(10),
                victim_capacity_pps: 400.0,
                ..Default::default()
            },
            n_clients: 15,
            n_collateral_clients: 10,
            duration: SimTime::from_secs(12),
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn undefended_attack_degrades_service() {
        let out = run_scenario(&small_cfg(), &Scheme::None);
        assert!(
            out.row.legit_success < 0.85,
            "no defense: clients must suffer ({})",
            out.row.legit_success
        );
        assert!(
            out.row.collateral_success > 0.9,
            "no collateral without filters"
        );
        assert!(out.row.victim_overloaded > 0 || out.row.victim_attack_absorbed > 0);
    }

    #[test]
    fn tcs_proactive_restores_service() {
        let none = run_scenario(&small_cfg(), &Scheme::None);
        let tcs = run_scenario(
            &small_cfg(),
            &Scheme::Tcs(TcsStaticConfig {
                fraction: 1.0,
                ..Default::default()
            }),
        );
        assert!(
            tcs.row.legit_success > none.row.legit_success + 0.1,
            "TCS must beat no-defense: {} vs {}",
            tcs.row.legit_success,
            none.row.legit_success
        );
        assert!(tcs.row.collateral_success > 0.9, "TCS causes no collateral");
        // Attack stopped near the sources.
        assert!(tcs.row.attack_byte_hops < none.row.attack_byte_hops / 2);
    }

    #[test]
    fn traceback_null_route_causes_collateral() {
        let cfg = small_cfg();
        let out = run_scenario(
            &cfg,
            &Scheme::TracebackFilter {
                marking_p: 0.05,
                reconstruct_at: SimTime::from_secs(5),
                scope: BlockScope::AllTraffic,
            },
        );
        // The reconstruction names reflectors, and null-routing them cuts
        // off their legitimate clients.
        let identified = out.row.extra["identified_sources"];
        assert!(identified > 0.0, "some sources must be identified");
        assert!(
            out.row.collateral_success < 0.9,
            "null-routing reflectors must hurt their clients ({})",
            out.row.collateral_success
        );
    }

    #[test]
    fn sos_protects_members() {
        let out = run_scenario(&small_cfg(), &Scheme::Sos);
        assert!(
            out.row.legit_success > 0.85,
            "overlay members stay served ({})",
            out.row.legit_success
        );
        assert!(out.row.extra["trust_relationships"] > 0.0);
        // Reflected traffic dies at the perimeter, not at the victim.
        assert_eq!(out.row.reflected_delivered_to_victim, 0);
    }

    #[test]
    fn i3_fails_when_ip_known() {
        let known = run_scenario(&small_cfg(), &Scheme::I3 { ip_hidden: false });
        let hidden = run_scenario(&small_cfg(), &Scheme::I3 { ip_hidden: true });
        assert!(
            hidden.row.legit_success > known.row.legit_success,
            "hiding the IP is the only thing that makes i3 work: {} vs {}",
            hidden.row.legit_success,
            known.row.legit_success
        );
    }

    #[test]
    fn direct_flood_traceback_finds_true_agents_and_works() {
        // For a classic spoofed direct flood (no reflectors), traceback
        // names the real agent ASes; null-routing them actually helps the
        // victim and leaves third parties mostly alone — the contrast to
        // the reflector case the paper builds its argument on.
        let mut cfg = small_cfg();
        cfg.attack_kind = AttackKind::Direct {
            spoof: dtcs_attack::SpoofMode::Random,
        };
        cfg.attack.agent_rate_pps = 120.0;
        let none = run_scenario(&cfg, &Scheme::None);
        let tb = run_scenario(
            &cfg,
            &Scheme::TracebackFilter {
                marking_p: 0.05,
                reconstruct_at: SimTime::from_secs(5),
                scope: BlockScope::AllTraffic,
            },
        );
        assert!(tb.row.extra["identified_sources"] > 0.0);
        assert!(
            tb.row.legit_success > none.row.legit_success + 0.1,
            "traceback filtering must HELP against direct floods: {} vs {}",
            tb.row.legit_success,
            none.row.legit_success
        );
        // The victim actually recovers (attack absorbed drops sharply)...
        assert!(
            tb.row.victim_overloaded < none.row.victim_overloaded / 2,
            "null-routing true agents must relieve the victim: {} vs {}",
            tb.row.victim_overloaded,
            none.row.victim_overloaded
        );
        // ...and the residual collateral is the paper's Sec. 4.6 kind:
        // innocents co-located with zombies in "poorly managed access
        // networks", not the reflector-case cutting of service providers.
        assert!(
            tb.row.collateral_success > 0.4,
            "{}",
            tb.row.collateral_success
        );
    }

    #[test]
    fn traced_scenario_is_observation_only_and_deterministic() {
        let plain = run_scenario(&small_cfg(), &Scheme::None);
        let mut cfg = small_cfg();
        cfg.trace = true;
        let a = run_scenario(&cfg, &Scheme::None);
        let b = run_scenario(&cfg, &Scheme::None);
        // Attaching the recorder must not perturb the outcome...
        assert_eq!(a.row.legit_success, plain.row.legit_success);
        assert_eq!(a.stats.events, plain.stats.events);
        // ...and the capture itself is byte-reproducible.
        let ja = a.trace.expect("trace requested").export_jsonl_string();
        let jb = b.trace.expect("trace requested").export_jsonl_string();
        assert!(!ja.is_empty());
        assert_eq!(ja, jb, "trace JSONL must be byte-identical across runs");
        // ...and every line of it is one the packet stream's table allows.
        for line in ja.lines() {
            if let Err(e) = dtcs_netsim::TraceEvent::check_line(line) {
                panic!("{line}: {e}");
            }
        }
        assert!(plain.trace.is_none());
    }

    #[test]
    fn background_fluid_and_discrete_agree_on_victim_outcome() {
        // The fluid-equivalence contract in miniature: the same scenario
        // with background flows carried as discrete CBR packets vs fluid
        // aggregates must tell the same story at the victim.
        let mut cfg = small_cfg();
        cfg.background_flows = 40;
        let discrete = run_scenario(&cfg, &Scheme::None);
        assert_eq!(discrete.stats.fluid_aggregates, 0);
        assert!(
            discrete
                .stats
                .class(dtcs_netsim::TrafficClass::Background)
                .sent_pkts
                > 0
        );
        cfg.fluid = Some(SimDuration::from_millis(50));
        let fluid = run_scenario(&cfg, &Scheme::None);
        assert!(fluid.stats.fluid_aggregates > 0, "flows must go fluid");
        assert!(fluid.stats.fluid_ticks > 0);
        assert!(
            (fluid.row.legit_success - discrete.row.legit_success).abs() < 0.05,
            "victim outcome must agree across engines: {} vs {}",
            fluid.row.legit_success,
            discrete.row.legit_success
        );
        let fbg = fluid.stats.class(dtcs_netsim::TrafficClass::Background);
        let dbg = discrete.stats.class(dtcs_netsim::TrafficClass::Background);
        let rel = (fbg.sent_pkts as f64 - dbg.sent_pkts as f64).abs() / dbg.sent_pkts as f64;
        assert!(
            rel < 0.02,
            "background volume must agree: {} vs {}",
            fbg.sent_pkts,
            dbg.sent_pkts
        );
    }

    #[test]
    fn transit_stub_scale_scenario_runs_hybrid() {
        // A (small) instance of the scale shape: transit-stub topology,
        // fluid background, full attack machinery — the E2-at-100k recipe.
        let mut cfg = small_cfg();
        cfg.topology = TopologyChoice::TransitStub { n: 1500 };
        cfg.background_flows = 100;
        cfg.fluid = Some(SimDuration::from_millis(100));
        let out = run_scenario(&cfg, &Scheme::None);
        assert!(out.stats.fluid_aggregates >= 90, "most flows go fluid");
        assert!(out.row.legit_success >= 0.0 && out.row.legit_success <= 1.0);
        // Conservation + no-clamp hard gates already ran inside.
        let bg = out.stats.class(dtcs_netsim::TrafficClass::Background);
        assert!(bg.delivered_pkts > 0, "background must flow");
    }

    #[test]
    fn runs_are_deterministic() {
        // Determinism must hold for every scheme, including those with
        // internal state machines (pushback) and mid-run reconfiguration
        // (reactive TCS, traceback).
        let schemes = vec![
            Scheme::None,
            Scheme::Pushback(PushbackConfig::default()),
            Scheme::Tcs(TcsStaticConfig {
                fraction: 0.5,
                activate_at: SimTime::from_secs(4),
                ..Default::default()
            }),
            Scheme::TracebackFilter {
                marking_p: 0.05,
                reconstruct_at: SimTime::from_secs(5),
                scope: BlockScope::AllTraffic,
            },
        ];
        for scheme in schemes {
            let a = run_scenario(&small_cfg(), &scheme);
            let b = run_scenario(&small_cfg(), &scheme);
            assert_eq!(
                a.row.legit_success,
                b.row.legit_success,
                "{} not deterministic",
                scheme.label()
            );
            assert_eq!(a.row.attack_byte_hops, b.row.attack_byte_hops);
            assert_eq!(a.stats.events, b.stats.events);
        }
    }
}
