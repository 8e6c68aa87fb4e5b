//! # dtcs-mitigation — baseline DDoS mitigation schemes
//!
//! Full reimplementations of the prior-art systems the reproduced paper
//! analyses in Sec. 3, so that its comparative-effectiveness claims can be
//! measured rather than asserted:
//!
//! * [`ingress`] — static RFC 2267 ingress filtering (proactive baseline);
//! * [`pushback`] — aggregate congestion control with upstream pushback;
//! * [`ppm`] — Savage-style probabilistic packet-marking traceback;
//! * [`filtering`] — reactive filter installation from traceback verdicts;
//! * [`overlay`] — SOS/Mayday secure overlays and i3-style indirection;
//! * [`deploy`] — partial-deployment placement strategies;
//! * [`fluid`] — `deploy_fluid_ingress`, a placement-only shim (attack
//!   traffic is never fluid, so there is no rate to police).
//!
//! Every scheme here is a router agent over `dtcs_netsim` alone. SPIE's
//! hash-based traceback is not among them: the paper offers it as a
//! service the TCS hosts (Sec. 4.4), and it runs as one — the device's
//! `DigestBacklog` module queried over the control plane, walked by
//! `dtcs::trace_origins`.

#![warn(missing_docs)]

pub mod deploy;
pub mod filtering;
pub mod fluid;
pub mod ingress;
pub mod overlay;
pub mod ppm;
pub mod pushback;

pub use deploy::{choose_nodes, Placement};
pub use filtering::{install_traceback_filters, BlockScope, PrefixBlockAgent};
pub use fluid::deploy_fluid_ingress;
pub use ingress::{deploy_ingress, IngressFilterAgent};
pub use overlay::{I3Defense, PerimeterFilterAgent, RelayApp, RelayNext, SosOverlay};
pub use ppm::{
    deploy_ppm_everywhere, reconstruct_sources, MarkCollectorAgent, MarkHandle, MarkTable,
    PpmMarkerAgent,
};
pub use pushback::{
    deploy_pushback_everywhere, deploy_pushback_on, AggregateKey, PushbackAgent, PushbackConfig,
    PushbackHandle, PushbackMsg, PushbackStats,
};
