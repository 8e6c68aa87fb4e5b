//! # dtcs — Adaptive Distributed Traffic Control Service
//!
//! Umbrella crate of the reproduction of *Adaptive Distributed Traffic
//! Control Service for DDoS Attack Mitigation* (Dübendorfer, Bossardt,
//! Plattner — IPPS 2005). It ties the workspace together:
//!
//! * [`dtcs_netsim`] — the deterministic packet-level Internet simulator;
//! * [`dtcs_device`] — the adaptive traffic-processing device (the
//!   paper's core mechanism);
//! * [`dtcs_control`] — TCSP / number authority / ISP NMS control plane;
//! * [`dtcs_attack`] — reflector attacks, floods, botnets, workloads;
//! * [`dtcs_mitigation`] — the prior-art baselines of the paper's Sec. 3;
//!
//! and adds the comparison machinery: [`Scheme`] (every defense as one
//! enum), [`run_scenario`] (one attack + one workload + one scheme →
//! metrics row), [`deploy_tcs_static`] (standing TCS deployments for
//! sweeps), and [`trace_origins`] (the traceback walk over the devices'
//! digest backlogs).
//!
//! ```no_run
//! use dtcs::{run_scenario, ScenarioConfig, Scheme, TcsStaticConfig};
//!
//! let cfg = ScenarioConfig::default();
//! let out = run_scenario(&cfg, &Scheme::Tcs(TcsStaticConfig::default()));
//! println!("legit success under TCS: {:.3}", out.row.legit_success);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod scenario;
pub mod schemes;
pub mod tcs;

pub use metrics::{drop_fraction, print_table, OutcomeRow};
pub use scenario::{
    run_scenario, topology_and_victim, AttackKind, ScenarioConfig, ScenarioOutput, TopologyChoice,
};
pub use schemes::Scheme;
pub use tcs::{
    deploy_tcs_static, reflected_reply_protos, trace_origins, TcsDeployment, TcsStaticConfig,
};

pub use dtcs_attack as attack;
pub use dtcs_control as control;
pub use dtcs_device as device;
pub use dtcs_mitigation as mitigation;
pub use dtcs_netsim as netsim;
