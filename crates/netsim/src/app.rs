//! Host applications.
//!
//! Every addressable endpoint (web server, DNS reflector, DDoS agent,
//! victim, legitimate client…) is an [`App`] installed at one [`Addr`].
//! Apps see only delivered packets — everything on the wire is the
//! simulator's business — and react by sending packets and setting timers
//! through the [`AppApi`], which queues each on the event queue at the
//! call.

use std::any::Any;

use crate::rng::ChaCha8Rng;

use crate::addr::Addr;
use crate::node::NodeId;
use crate::packet::{Packet, PacketBuilder};
use crate::sim::{Core, EventKind};
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};

/// What the application did with a delivered packet.
///
/// `Overloaded` models host resource exhaustion (Sec. 2.1 of the paper:
/// "an attacked server's resources are exhausted before its uplink is
/// overloaded") — the packet reached the host but was not served, and is
/// accounted as a [`crate::stats::DropReason::HostOverload`] drop rather
/// than a delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Packet consumed/served; counts as delivered.
    Consumed,
    /// Host out of capacity; counts as a `HostOverload` drop.
    Overloaded,
}

/// Context handed to application callbacks.
pub struct AppApi<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Node hosting this application.
    pub node: NodeId,
    /// Address the application is installed at.
    pub self_addr: Addr,
    /// Deterministic per-simulation RNG (shared; the simulator is
    /// single-threaded).
    pub rng: &'a mut ChaCha8Rng,
    pub(crate) core: &'a mut Core,
    pub(crate) stats: &'a mut Stats,
}

impl<'a> AppApi<'a> {
    /// Send a packet; it enters the network at this node (and passes any
    /// agents installed there, so local anti-spoofing sees host traffic).
    pub fn send(&mut self, builder: PacketBuilder) {
        self.send_after(SimDuration::ZERO, builder);
    }

    /// Send after a delay.
    pub fn send_after(&mut self, delay: SimDuration, builder: PacketBuilder) {
        let at = self.now + delay;
        self.core.inject(self.stats, self.node, at, builder);
    }

    /// Arrange for `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let addr = self.self_addr;
        self.core.push(
            self.stats,
            self.now + delay,
            EventKind::AppTimer { addr, token },
        );
    }
}

/// A host application bound to one address. It keeps its statistics as
/// plain fields; [`crate::Simulator::app`] hands it back to read them.
pub trait App: Any {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _api: &mut AppApi<'_>) {}

    /// A packet addressed to this app was delivered.
    fn on_packet(&mut self, api: &mut AppApi<'_>, pkt: &Packet) -> Disposition;

    /// A timer set via [`AppApi::set_timer`] fired.
    fn on_timer(&mut self, _api: &mut AppApi<'_>, _token: u64) {}
}

/// An app that ignores everything (sink). Useful as a default listener so
/// traffic to an address is counted as delivered.
#[derive(Default, Debug, Clone, Copy)]
pub struct SinkApp;

impl App for SinkApp {
    fn on_packet(&mut self, _api: &mut AppApi<'_>, _pkt: &Packet) -> Disposition {
        Disposition::Consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::packet::{PacketBuilder, Proto, TrafficClass};
    use crate::sim::Simulator;
    use crate::topology::Topology;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// App that fires a delayed packet on start and counts its timer hits.
    struct Delayed {
        peer: Addr,
        ticks: Arc<AtomicU64>,
    }

    impl App for Delayed {
        fn on_start(&mut self, api: &mut AppApi<'_>) {
            let b = PacketBuilder::new(
                api.self_addr,
                self.peer,
                Proto::Udp,
                TrafficClass::Background,
            );
            api.send_after(SimDuration::from_millis(250), b);
            api.set_timer(SimDuration::from_millis(100), 7);
            api.set_timer(SimDuration::from_millis(200), 8);
        }

        fn on_packet(&mut self, _api: &mut AppApi<'_>, _pkt: &Packet) -> Disposition {
            Disposition::Consumed
        }

        fn on_timer(&mut self, api: &mut AppApi<'_>, token: u64) {
            assert!(token == 7 || token == 8);
            assert!(api.now >= SimTime::from_millis(100));
            self.ticks.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn send_after_and_multiple_timers() {
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 1);
        let me = Addr::new(NodeId(0), 1);
        let peer = Addr::new(NodeId(1), 1);
        let ticks = Arc::new(AtomicU64::new(0));
        sim.install_app(
            me,
            Box::new(Delayed {
                peer,
                ticks: ticks.clone(),
            }),
        );
        sim.install_app(peer, Box::new(SinkApp));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(ticks.load(Ordering::Relaxed), 2, "both timers fired once");
        let c = sim.stats.per_class[TrafficClass::Background.index()];
        assert_eq!(c.delivered_pkts, 1, "delayed send arrived");
    }

    #[test]
    fn sink_app_consumes() {
        let mut sink = SinkApp;
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 1);
        let a = Addr::new(NodeId(1), 1);
        sim.install_app(a, Box::new(sink));
        sink = SinkApp; // Copy type: still usable
        let _ = sink;
        sim.emit_now(
            NodeId(0),
            PacketBuilder::new(
                Addr::new(NodeId(0), 1),
                a,
                Proto::Udp,
                TrafficClass::Background,
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.stats.per_class[TrafficClass::Background.index()].delivered_pkts,
            1
        );
    }
}
