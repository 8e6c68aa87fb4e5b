//! # dtcs-netsim — deterministic packet-level internetwork simulator
//!
//! The substrate every other crate in this workspace runs on. It models the
//! Internet at autonomous-system granularity: nodes are ASes/sites, links
//! have bandwidth / latency / drop-tail queues, routing is hop-count
//! shortest path, and both the attack workloads and the defenses of the
//! reproduced paper plug in as [`agent::NodeAgent`]s (router-side) and
//! [`app::App`]s (host-side).
//!
//! Design pillars (see the workspace DESIGN.md):
//!
//! * **Determinism** — integer nanosecond clock, `(time, seq)` event
//!   ordering, one seeded ChaCha8 RNG stream; identical seeds give
//!   bit-identical runs on every platform.
//! * **Allocation-free hot path** — packets are `Copy`, queues are virtual
//!   (closed-form backlog), payloads are sizes + tags.
//! * **Parallelism at the sweep level** — a `Simulator` is single-threaded;
//!   the bench crate's pool runs many simulators concurrently.
//!
//! ```
//! use dtcs_netsim::*;
//!
//! // Two hosts on a 3-AS line; one UDP packet end to end.
//! let mut sim = Simulator::new(Topology::line(3), 42);
//! let dst = Addr::new(NodeId(2), 1);
//! sim.install_app(dst, Box::new(SinkApp));
//! sim.emit_now(
//!     NodeId(0),
//!     PacketBuilder::new(Addr::new(NodeId(0), 1), dst, Proto::Udp, TrafficClass::Background),
//! );
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.stats.class(TrafficClass::Background).delivered_pkts, 1);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod agent;
pub mod app;
pub mod arena;
pub mod cp_trace;
pub mod faults;
pub mod fluid;
pub mod hash;
pub mod json;
pub mod link;
pub mod metrics;
pub mod node;
pub mod oracle;
pub mod packet;
pub mod recorder;
pub mod rng;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod sync;
pub mod time;
pub mod topology;
pub mod trace;
pub mod wheel;

#[cfg(test)]
mod proptests;

pub use addr::{Addr, Prefix};
pub use agent::{AgentCtx, CancelTimer, ControlMsg, NodeAgent, TimerId, Verdict};
pub use app::{App, AppApi, Disposition, SinkApp};
pub use arena::{Arena, Handle as ArenaHandle};
pub use cp_trace::{
    CpActor, CpFlightRecorder, CpMeta, CpOutcome, CpState, CpTraceEvent, CpVerdict,
};
pub use faults::{FaultConfig, FaultDecision, FaultPlane, Outage, Partition};
pub use fluid::{FluidDemand, FluidLayer};
pub use link::{Admission, Link, LinkProfile};
pub use metrics::{MetricEntry, MetricValue, MetricsSnapshot};
pub use node::{LinkId, Node, NodeId, NodeRole};
pub use oracle::RouteOracle;
pub use packet::{Packet, PacketBuilder, Proto, Provenance, TrafficClass, DEFAULT_TTL};
pub use recorder::{Recorder, Sink, TraceRecord, Tracer};
pub use routing::{FlipOutcome, Routing};
pub use sim::Simulator;
pub use stats::{DropReason, Stats};
pub use time::{SimDuration, SimTime};
pub use topology::{Hierarchy, Topology};
pub use trace::{FlightRecorder, Log2Histogram, TelemetryHistograms, TraceEvent};
pub use wheel::TimingWheel;
