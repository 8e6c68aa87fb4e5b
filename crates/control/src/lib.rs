//! # dtcs-control — the traffic control service control plane
//!
//! The organisational half of the reproduced paper (Sec. 5 / Figs. 3–5):
//! network users register once with a **traffic control service provider
//! (TCSP)**, which verifies prefix ownership against an **Internet number
//! authority**, issues certificates, and maps scoped deployment requests
//! onto the **network management systems** of contracted ISPs, which in
//! turn configure the adaptive devices beside their routers. A direct
//! user→ISP path with ISP-to-ISP forwarding covers TCSP outages.

#![warn(missing_docs)]

pub mod authority;
pub mod catalog;
pub mod identity;
pub mod plane;
pub mod retry;
pub mod scenario;

pub use authority::InternetNumberAuthority;
pub use catalog::CatalogService;
/// The device protocol's untracked transaction id, which the NMS stamps on
/// its refreshes and repairs.
pub use dtcs_device::RECONCILE_TXN;
pub use identity::{Certificate, UserId};
pub use plane::{
    AuthorityAgent, CpMsg, DeployScope, Envelope, IspContract, NmsAgent, RegistrationError, Role,
    TcspAgent, TcspStats, UserAgent, UserHandle, UserOp, UserRecord, TOKEN_REFRESH, TOKEN_REGISTER,
    TOKEN_WITHDRAW,
};
pub use retry::{
    Admission, CpStats, CpStatsHandle, Dedup, FanIn, Fired, Leg, LegMsg, MsgKey, Relay,
    Retransmitter, RetryPolicy,
};
pub use scenario::{partition_by_provider, ControlPlane, ControlPlaneConfig};
