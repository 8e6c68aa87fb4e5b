//! Attack scenario installers: wire a whole Fig. 1 structure (attacker →
//! masters → agents → reflectors → victim) plus legitimate workload into a
//! simulator and hand back the ground-truth roster and all measurement
//! handles.

use std::collections::BTreeSet;

use dtcs_netsim::rng::{child_seed, seeded};
use dtcs_netsim::{Addr, NodeId, Proto, SimDuration, SimTime, Simulator};

use crate::agent::{AgentApp, AgentMode, AgentTrigger, AttackerApp, MasterApp, SpoofMode};
use crate::botnet::SiModel;
use crate::reflector::ReflectorApp;
use crate::victim::{ClientApp, ClientHandle, VictimApp, VictimHandle};

/// Host index conventions inside a node (one node = one AS/site).
pub mod hosts {
    /// Well-known service host (victim server, reflector service).
    pub const SERVICE: u16 = 1;
    /// Legitimate client host.
    pub const CLIENT: u16 = 2;
    /// Compromised (agent/master/attacker) host.
    pub const ZOMBIE: u16 = 3;
}

/// Master tier size of a reflector attack.
const N_MASTERS: usize = 3;
/// Size of one spoofed request an agent sends to a reflector, bytes.
const REQUEST_SIZE: u32 = 60;

/// Parameters of a full reflector attack (Fig. 1).
#[derive(Clone, Debug)]
pub struct ReflectorAttackConfig {
    /// Agent (zombie) population.
    pub n_agents: usize,
    /// Reflector pool size.
    pub n_reflectors: usize,
    /// Per-agent attack rate, packets/second.
    pub agent_rate_pps: f64,
    /// Request protocol bounced off reflectors.
    pub proto: Proto,
    /// Attacker issues the start command at this time.
    pub start_at: SimTime,
    /// Attack stops at this time.
    pub stop_at: SimTime,
    /// Victim processing capacity, packets/second.
    pub victim_capacity_pps: f64,
    /// Use SI-model recruitment (agents trickle in) instead of
    /// command-and-control start.
    pub si_recruitment: Option<SiModel>,
    /// Override the address the attack aims at (spoofed source /
    /// reflected destination). Defaults to the victim service address,
    /// where the attack then installs a default [`VictimApp`]; an
    /// overridden target keeps whatever app is there.
    pub target_override: Option<Addr>,
    /// Placement / jitter seed.
    pub seed: u64,
}

impl Default for ReflectorAttackConfig {
    fn default() -> Self {
        ReflectorAttackConfig {
            n_agents: 100,
            n_reflectors: 200,
            agent_rate_pps: 100.0,
            proto: Proto::TcpSyn,
            start_at: SimTime::from_secs(5),
            stop_at: SimTime::from_secs(25),
            victim_capacity_pps: 2000.0,
            si_recruitment: None,
            target_override: None,
            seed: 42,
        }
    }
}

/// Ground truth of an installed reflector attack.
pub struct ReflectorAttack {
    /// The attacked server.
    pub victim: Addr,
    /// Node hosting the victim.
    pub victim_node: NodeId,
    /// Attacker host.
    pub attacker: Addr,
    /// Master hosts.
    pub masters: Vec<Addr>,
    /// Agent hosts.
    pub agents: Vec<Addr>,
    /// Nodes hosting agents (for deployment-targeting experiments).
    pub agent_nodes: Vec<NodeId>,
    /// Reflector service addresses.
    pub reflectors: Vec<Addr>,
    /// Nodes hosting reflectors.
    pub reflector_nodes: Vec<NodeId>,
    /// Victim counters.
    pub victim_stats: VictimHandle,
}

impl ReflectorAttack {
    /// Install the attack into `sim` with the victim at `victim_node`.
    ///
    /// Agents, masters, the attacker and reflectors are placed on distinct
    /// random stub nodes (multiple per node via host indices when the pool
    /// is larger than the stub set), mirroring the paper's "poorly managed
    /// access networks where infected or compromised machines are hooked
    /// up" (Sec. 4.6).
    pub fn install(
        sim: &mut Simulator,
        victim_node: NodeId,
        cfg: &ReflectorAttackConfig,
    ) -> ReflectorAttack {
        let mut rng = seeded(child_seed(cfg.seed, 0x4E7));
        let mut stubs: Vec<NodeId> = sim
            .topo
            .stub_nodes()
            .into_iter()
            .filter(|&n| n != victim_node)
            .collect();
        if stubs.is_empty() {
            stubs = (0..sim.topo.n())
                .map(NodeId)
                .filter(|&n| n != victim_node)
                .collect();
        }
        rng.shuffle(&mut stubs);
        assert!(!stubs.is_empty(), "topology too small for an attack");

        let pick = |rng: &mut dtcs_netsim::rng::ChaCha8Rng,
                    stubs: &[NodeId],
                    count: usize,
                    host_base: u16|
         -> (Vec<Addr>, Vec<NodeId>) {
            let mut addrs = Vec::with_capacity(count);
            let mut nodes = Vec::with_capacity(count);
            for i in 0..count {
                let node = if i < stubs.len() {
                    stubs[i]
                } else {
                    stubs[rng.gen_range(0..stubs.len())]
                };
                let host = host_base + (i / stubs.len()) as u16;
                addrs.push(Addr::new(node, host));
                nodes.push(node);
            }
            (addrs, nodes)
        };

        // Victim (the address the attack aims at).
        let victim = cfg
            .target_override
            .unwrap_or(Addr::new(victim_node, hosts::SERVICE));
        let (vapp, victim_stats) = VictimApp::new(cfg.victim_capacity_pps, 600);
        if cfg.target_override.is_none() {
            sim.install_app(victim, Box::new(vapp));
        }

        // Reflectors: draw from the back of the shuffled stub list so they
        // do not systematically collide with agents.
        let mut refl_pool = stubs.clone();
        refl_pool.reverse();
        let (reflectors, reflector_nodes) =
            pick(&mut rng, &refl_pool, cfg.n_reflectors, hosts::SERVICE);
        for &r in &reflectors {
            sim.install_app(r, Box::new(ReflectorApp::new()));
        }

        // Agents.
        let (agents, agent_nodes) = pick(&mut rng, &stubs, cfg.n_agents, hosts::ZOMBIE + 1);
        let activation_times: Option<Vec<SimTime>> = cfg.si_recruitment.map(|m| {
            m.activation_times(cfg.n_agents)
                .into_iter()
                .map(|t| SimTime(cfg.start_at.as_nanos().saturating_add(t.as_nanos())))
                .collect()
        });
        for (i, &a) in agents.iter().enumerate() {
            let trigger = match &activation_times {
                Some(times) => AgentTrigger::AtTime(times[i.min(times.len() - 1)]),
                None => AgentTrigger::OnCommand,
            };
            let app = AgentApp::new(
                AgentMode::Reflector {
                    victim,
                    reflectors: reflectors.clone(),
                    proto: cfg.proto,
                },
                trigger,
                cfg.agent_rate_pps,
                REQUEST_SIZE,
            )
            .until(cfg.stop_at);
            sim.install_app(a, Box::new(app));
        }

        // Masters + attacker (only used for command-and-control starts).
        let (masters, _) = pick(&mut rng, &stubs, N_MASTERS, hosts::ZOMBIE);
        let per_master = agents.len().div_ceil(N_MASTERS);
        for (mi, &m) in masters.iter().enumerate() {
            let group: Vec<Addr> = agents
                .iter()
                .copied()
                .skip(mi * per_master)
                .take(per_master)
                .collect();
            sim.install_app(m, Box::new(MasterApp { agents: group }));
        }
        let attacker_node = stubs[stubs.len() - 1];
        let attacker = Addr::new(attacker_node, hosts::ZOMBIE + 99);
        sim.install_app(
            attacker,
            Box::new(AttackerApp {
                masters: masters.clone(),
                start_at: cfg.start_at,
                stop_at: cfg.stop_at,
            }),
        );

        ReflectorAttack {
            victim,
            victim_node,
            attacker,
            masters,
            agents,
            agent_nodes,
            reflectors,
            reflector_nodes,
            victim_stats,
        }
    }

    /// Total requests seen / attack requests seen across all reflectors
    /// in `sim`. An address drawn twice hosts one server, counted once.
    pub fn reflector_totals(&self, sim: &Simulator) -> (u64, u64) {
        let servers: BTreeSet<Addr> = self.reflectors.iter().copied().collect();
        servers
            .into_iter()
            .filter_map(|r| sim.app::<ReflectorApp>(r))
            .fold((0, 0), |(requests, attack), app| {
                let s = app.stats();
                (requests + s.requests, attack + s.attack_requests)
            })
    }
}

/// Parameters for a direct (non-reflector) flood.
#[derive(Clone, Debug)]
pub struct DirectFloodConfig {
    /// Agent count.
    pub n_agents: usize,
    /// Per-agent rate, packets/second.
    pub agent_rate_pps: f64,
    /// Packet size.
    pub pkt_size: u32,
    /// Source forging policy.
    pub spoof: SpoofMode,
    /// Flood start.
    pub start_at: SimTime,
    /// Flood end.
    pub stop_at: SimTime,
    /// Placement seed.
    pub seed: u64,
}

impl Default for DirectFloodConfig {
    fn default() -> Self {
        DirectFloodConfig {
            n_agents: 50,
            agent_rate_pps: 200.0,
            pkt_size: 400,
            spoof: SpoofMode::Random,
            start_at: SimTime::from_secs(5),
            stop_at: SimTime::from_secs(20),
            seed: 7,
        }
    }
}

/// Ground truth of an installed direct flood.
pub struct DirectFlood {
    /// Target address.
    pub victim: Addr,
    /// Agent hosts.
    pub agents: Vec<Addr>,
    /// Nodes hosting agents.
    pub agent_nodes: Vec<NodeId>,
}

impl DirectFlood {
    /// Install a direct flood against `victim` (which must already have an
    /// app installed, e.g. a [`VictimApp`]).
    pub fn install(sim: &mut Simulator, victim: Addr, cfg: &DirectFloodConfig) -> DirectFlood {
        let mut rng = seeded(child_seed(cfg.seed, 0xF10));
        let mut stubs: Vec<NodeId> = sim
            .topo
            .stub_nodes()
            .into_iter()
            .filter(|&n| n != victim.node())
            .collect();
        rng.shuffle(&mut stubs);
        assert!(!stubs.is_empty());
        let mut agents = Vec::with_capacity(cfg.n_agents);
        let mut agent_nodes = Vec::with_capacity(cfg.n_agents);
        for i in 0..cfg.n_agents {
            let node = stubs[i % stubs.len()];
            let host = hosts::ZOMBIE + 1 + (i / stubs.len()) as u16;
            let addr = Addr::new(node, host);
            let app = AgentApp::new(
                AgentMode::Direct {
                    victim,
                    spoof: cfg.spoof,
                },
                AgentTrigger::AtTime(cfg.start_at),
                cfg.agent_rate_pps,
                cfg.pkt_size,
            )
            .until(cfg.stop_at);
            sim.install_app(addr, Box::new(app));
            agents.push(addr);
            agent_nodes.push(node);
        }
        DirectFlood {
            victim,
            agents,
            agent_nodes,
        }
    }
}

/// Plan deterministic client placements on random stub nodes (excluding
/// `exclude`), without installing anything. Lets schemes that need the
/// client roster up front (SOS authorisation lists) see it before the
/// apps exist.
pub fn plan_client_addrs(sim: &Simulator, exclude: NodeId, n: usize, seed: u64) -> Vec<Addr> {
    let mut rng = seeded(child_seed(seed, 0xC11));
    let mut stubs: Vec<NodeId> = sim
        .topo
        .stub_nodes()
        .into_iter()
        .filter(|&nd| nd != exclude)
        .collect();
    rng.shuffle(&mut stubs);
    assert!(!stubs.is_empty());
    (0..n)
        .map(|i| {
            let node = stubs[i % stubs.len()];
            let host = hosts::CLIENT + (i / stubs.len()) as u16;
            Addr::new(node, host)
        })
        .collect()
}

/// Install clients at pre-planned addresses, all targeting `server`.
pub fn install_clients_at(
    sim: &mut Simulator,
    addrs: &[Addr],
    server: Addr,
    period: SimDuration,
    stop_at: SimTime,
) -> Vec<ClientHandle> {
    addrs
        .iter()
        .map(|&a| {
            let (app, h) = ClientApp::new(server, period);
            sim.install_app(a, Box::new(app.until(stop_at)));
            h
        })
        .collect()
}

/// Install `n` legitimate clients of `server` on random stub nodes.
pub fn install_clients(
    sim: &mut Simulator,
    server: Addr,
    n: usize,
    period: SimDuration,
    stop_at: SimTime,
    seed: u64,
) -> Vec<ClientHandle> {
    let addrs = plan_client_addrs(sim, server.node(), n, seed);
    install_clients_at(sim, &addrs, server, period, stop_at)
}

/// Mean success ratio across a set of client handles.
pub fn mean_success(handles: &[ClientHandle]) -> f64 {
    if handles.is_empty() {
        return 1.0;
    }
    handles
        .iter()
        .map(|h| h.lock().success_ratio())
        .sum::<f64>()
        / handles.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{DropReason, Topology, TrafficClass};

    fn topo() -> Topology {
        Topology::barabasi_albert(120, 2, 0.1, 11)
    }

    #[test]
    fn reflector_attack_floods_victim_with_reflected_traffic() {
        let mut sim = Simulator::new(topo(), 5);
        let victim_node = sim.topo.stub_nodes()[0];
        let cfg = ReflectorAttackConfig {
            n_agents: 30,
            n_reflectors: 50,
            agent_rate_pps: 50.0,
            start_at: SimTime::from_secs(1),
            stop_at: SimTime::from_secs(4),
            ..Default::default()
        };
        let attack = ReflectorAttack::install(&mut sim, victim_node, &cfg);
        sim.run_until(SimTime::from_secs(5));
        let (reqs, attack_reqs) = attack.reflector_totals(&sim);
        assert!(reqs > 1000, "reflectors saw {reqs} requests");
        assert_eq!(reqs, attack_reqs, "all requests here are attack");
        // Victim receives *reflected* traffic, from unspoofed reflector
        // sources.
        let refl = sim.stats.class(TrafficClass::AttackReflected);
        assert!(refl.delivered_pkts + refl.dropped_pkts > 1000);
        let v = attack.victim_stats.lock();
        assert!(v.received > 500, "victim received {}", v.received);
    }

    #[test]
    fn reflector_attack_is_deterministic() {
        let run = || {
            let mut sim = Simulator::new(topo(), 5);
            let victim_node = sim.topo.stub_nodes()[0];
            let cfg = ReflectorAttackConfig {
                n_agents: 10,
                n_reflectors: 20,
                agent_rate_pps: 20.0,
                start_at: SimTime::from_secs(1),
                stop_at: SimTime::from_secs(3),
                ..Default::default()
            };
            let attack = ReflectorAttack::install(&mut sim, victim_node, &cfg);
            sim.run_until(SimTime::from_secs(4));
            (
                attack.reflector_totals(&sim),
                sim.stats.class(TrafficClass::AttackReflected).sent_pkts,
                sim.stats.events,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn an_attack_aimed_elsewhere_installs_no_victim_there() {
        // An overridden target keeps its own app: a sink that never runs
        // out of capacity, where a default victim at 1 pps would overload.
        let mut sim = Simulator::new(topo(), 5);
        let victim_node = sim.topo.stub_nodes()[0];
        // A host the attack places nothing on (its agents and reflectors
        // avoid the victim's node).
        let target = Addr::new(victim_node, 41);
        sim.install_app(target, Box::new(dtcs_netsim::SinkApp));
        let cfg = ReflectorAttackConfig {
            n_agents: 10,
            n_reflectors: 20,
            agent_rate_pps: 20.0,
            start_at: SimTime::from_secs(1),
            stop_at: SimTime::from_secs(3),
            victim_capacity_pps: 1.0,
            target_override: Some(target),
            ..Default::default()
        };
        let _attack = ReflectorAttack::install(&mut sim, victim_node, &cfg);
        sim.run_until(SimTime::from_secs(4));
        let overloads = sim.stats.drops_for_reason(DropReason::HostOverload).pkts;
        assert_eq!(overloads, 0, "no victim app may sit on the target");
        let refl = sim.stats.class(TrafficClass::AttackReflected);
        assert!(refl.delivered_pkts > 0, "the reflected flood reached it");
    }

    #[test]
    fn si_recruitment_ramps_attack() {
        let mut sim = Simulator::new(topo(), 5);
        let victim_node = sim.topo.stub_nodes()[0];
        let cfg = ReflectorAttackConfig {
            n_agents: 40,
            n_reflectors: 40,
            agent_rate_pps: 20.0,
            start_at: SimTime::from_secs(0),
            stop_at: SimTime::from_secs(12),
            si_recruitment: Some(SiModel {
                susceptible: 40,
                seed: 2,
                beta: 0.6,
                dt: SimDuration::from_millis(100),
            }),
            ..Default::default()
        };
        sim.stats.watch(victim_node, SimDuration::from_secs(1));
        let _attack = ReflectorAttack::install(&mut sim, victim_node, &cfg);
        sim.run_until(SimTime::from_secs(12));
        let series = sim.stats.series.as_ref().unwrap();
        let idx = TrafficClass::AttackReflected.index();
        let early: u64 = series.delivered_bytes.iter().take(3).map(|b| b[idx]).sum();
        let late: u64 = series
            .delivered_bytes
            .iter()
            .skip(8)
            .take(3)
            .map(|b| b[idx])
            .sum();
        assert!(
            late > early * 2,
            "attack must ramp with recruitment: early={early} late={late}"
        );
    }

    #[test]
    fn command_and_control_stop_halts_agents() {
        // The attacker's CMD_STOP propagates attacker -> masters -> agents
        // (Fig. 1's control chain) and the flood actually ceases.
        let mut sim = Simulator::new(topo(), 5);
        let victim_node = sim.topo.stub_nodes()[0];
        let cfg = ReflectorAttackConfig {
            n_agents: 20,
            n_reflectors: 30,
            agent_rate_pps: 50.0,
            start_at: SimTime::from_secs(1),
            stop_at: SimTime::from_secs(3), // attacker sends CMD_STOP here
            ..Default::default()
        };
        let _attack = ReflectorAttack::install(&mut sim, victim_node, &cfg);
        sim.run_until(SimTime::from_secs(3));
        let sent_at_stop = sim.stats.class(TrafficClass::AttackDirect).sent_pkts;
        assert!(sent_at_stop > 500, "attack ran: {sent_at_stop}");
        sim.run_until(SimTime::from_secs(8));
        let sent_final = sim.stats.class(TrafficClass::AttackDirect).sent_pkts;
        // Agents also honour their own stop_at deadline; the C&C stop means
        // at most a few in-flight emissions trail past it.
        assert!(
            sent_final <= sent_at_stop + cfg.n_agents as u64 * 2,
            "flood must cease after CMD_STOP: {sent_at_stop} -> {sent_final}"
        );
    }

    #[test]
    fn direct_flood_with_random_spoofing() {
        let mut sim = Simulator::new(topo(), 5);
        let victim_node = sim.topo.stub_nodes()[1];
        let victim = Addr::new(victim_node, hosts::SERVICE);
        let (vapp, vstats) = VictimApp::new(10_000.0, 600);
        sim.install_app(victim, Box::new(vapp));
        let cfg = DirectFloodConfig {
            n_agents: 20,
            agent_rate_pps: 50.0,
            start_at: SimTime::from_secs(0),
            stop_at: SimTime::from_secs(3),
            ..Default::default()
        };
        let _flood = DirectFlood::install(&mut sim, victim, &cfg);
        sim.run_until(SimTime::from_secs(4));
        assert!(vstats.lock().received > 500);
        // Random spoofing means most attack packets' claimed sources
        // differ from their true origin.
        let sent = sim.stats.class(TrafficClass::AttackDirect).sent_pkts;
        assert!(sent > 1000);
    }

    #[test]
    fn clients_degrade_under_attack_and_recover() {
        let mut sim = Simulator::new(topo(), 9);
        let victim_node = sim.topo.stub_nodes()[2];
        let cfg = ReflectorAttackConfig {
            n_agents: 60,
            n_reflectors: 60,
            agent_rate_pps: 100.0,
            victim_capacity_pps: 300.0,
            start_at: SimTime::from_secs(2),
            stop_at: SimTime::from_secs(8),
            ..Default::default()
        };
        let attack = ReflectorAttack::install(&mut sim, victim_node, &cfg);
        let clients = install_clients(
            &mut sim,
            attack.victim,
            20,
            SimDuration::from_millis(200),
            SimTime::from_secs(10),
            1,
        );
        sim.run_until(SimTime::from_secs(10));
        let ratio = mean_success(&clients);
        assert!(
            ratio < 0.9,
            "attack should degrade client success: {ratio:.3}"
        );
    }
}
