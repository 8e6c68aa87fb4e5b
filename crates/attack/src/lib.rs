//! # dtcs-attack — DDoS workload generation
//!
//! Implements the attack side of the reproduced paper (Sec. 2): the
//! amplifying attacker → master → agent hierarchy, DDoS **reflector
//! attacks** that bounce spoofed requests off innocent servers (Fig. 1),
//! direct floods with configurable source spoofing, protocol-misuse (forged
//! RST) attacks, SI-epidemic botnet recruitment, and the legitimate
//! client/server workload against which service degradation and collateral
//! damage are measured.
//!
//! ```
//! use dtcs_attack::{ReflectorAttack, ReflectorAttackConfig};
//! use dtcs_netsim::{SimTime, Simulator, Topology, TrafficClass};
//!
//! let mut sim = Simulator::new(Topology::barabasi_albert(80, 2, 0.1, 7), 7);
//! let victim_node = sim.topo.stub_nodes()[0];
//! let attack = ReflectorAttack::install(&mut sim, victim_node, &ReflectorAttackConfig {
//!     n_agents: 10,
//!     n_reflectors: 20,
//!     start_at: SimTime::from_secs(1),
//!     stop_at: SimTime::from_secs(3),
//!     ..Default::default()
//! });
//! sim.run_until(SimTime::from_secs(4));
//! // The victim is flooded by unspoofed reflector replies.
//! assert!(attack.victim_stats.lock().received > 0);
//! assert!(sim.stats.class(TrafficClass::AttackReflected).sent_pkts > 0);
//! ```

#![warn(missing_docs)]

pub mod agent;
pub mod botnet;
pub mod misuse;
pub mod reflector;
pub mod scenario;
pub mod victim;

pub use agent::{
    AgentApp, AgentMode, AgentTrigger, AttackerApp, MasterApp, SpoofMode, CMD_START, CMD_STOP,
};
pub use botnet::SiModel;
pub use misuse::{ConnClientApp, ConnHandle, ConnServerApp, ConnStats};
pub use reflector::{ReflectorApp, ReflectorHandle, ReflectorStats};
pub use scenario::{
    hosts, install_clients, install_clients_at, mean_success, plan_client_addrs, DirectFlood,
    DirectFloodConfig, ReflectorAttack, ReflectorAttackConfig,
};
pub use victim::{ClientApp, ClientHandle, ClientStats, VictimApp, VictimHandle, VictimStats};
