//! # dtcs-device — the adaptive traffic-processing device
//!
//! The core mechanism of *Adaptive Distributed Traffic Control Service for
//! DDoS Attack Mitigation* (Dübendorfer, Bossardt, Plattner, IPPS 2005):
//! a programmable device attached beside a router that processes exactly
//! the traffic owned by registered network users, under restrictions that
//! make delegated control safe (Sec. 4.5):
//!
//! * headers (src, dst, TTL) are immutable by construction
//!   ([`view::PacketView`]);
//! * packet rate and traffic volume can only decrease (shrink-only payload
//!   edits, no data-plane emission);
//! * telemetry is charged against a budget proportional to processed
//!   traffic;
//! * every service spec passes the [`safety::SafetyVerifier`] before
//!   instantiation, and misuse-class specs (rewrite/TTL/amplify/redirect)
//!   are rejected with structured reasons.
//!
//! Processing is two-staged per the paper's Fig. 6: the source-address
//! owner's graph first, then the destination-address owner's.
//!
//! ```
//! use dtcs_device::{SafetyVerifier, ServiceSpec, ModuleSpec, SafetyViolation};
//!
//! let verifier = SafetyVerifier::default();
//! // A benign anti-spoofing service verifies...
//! let ok = ServiceSpec::chain("anti-spoofing", vec![ModuleSpec::AntiSpoof]);
//! assert!(verifier.verify(&ok).is_ok());
//! // ...while an amplifying one is rejected with a structured reason.
//! let evil = ServiceSpec::chain("evil", vec![ModuleSpec::Amplify { factor: 100 }]);
//! assert!(matches!(
//!     verifier.verify(&evil),
//!     Err(SafetyViolation::Amplification { module: 0 })
//! ));
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod graph;
pub mod inbox;
pub mod modules;
pub mod owner;
#[cfg(test)]
mod proptests;
pub mod safety;
pub mod spec;
pub mod support;
pub mod trie;
pub mod view;

pub use device::{
    AdaptiveDevice, DeviceCommand, DeviceHandle, DeviceReply, DeviceStats, Provision,
    RECONCILE_TXN, RENEW_TXN,
};
pub use graph::ServiceGraph;
pub use inbox::{Heard, Inbox};
pub use modules::ModuleAction;
pub use owner::{OwnerId, OwnerTable};
pub use safety::{SafetyVerifier, SafetyViolation};
pub use spec::{
    FilterRule, GraphNodeSpec, MatchExpr, ModuleSpec, ServiceSpec, Stage, TriggerAction,
    TriggerMetric,
};
pub use view::{DeviceContext, DeviceEvent, PacketView};
