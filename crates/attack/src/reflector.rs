//! Reflector servers: innocent, uncompromised Internet services.
//!
//! "Any server that supports a protocol which replies with a packet after
//! it has received a request packet can be misused as a reflector without
//! the need for a server compromise" (Sec. 2.2). The app below behaves like
//! an ordinary server — SYN gets SYN-ACK, DNS query gets a response, echo
//! gets a reply, unexpected TCP gets RST — and therefore reflects spoofed
//! requests at whoever the source field names.
//!
//! The *behaviour* never depends on whether a request is attack or
//! legitimate (reflectors cannot tell — that is the whole point); packet
//! provenance is consulted **only** to label the reply for metrics.

use std::sync::Arc;

use dtcs_netsim::sync::Mutex;

use dtcs_netsim::{App, AppApi, Disposition, Packet, PacketBuilder, Proto, TrafficClass};

/// SYN-ACK size in bytes (TCP byte amplification is ~1×; the rate
/// amplification comes from the reflector fan-out).
const SYNACK_SIZE: u32 = 44;
/// DNS response amplification: reply size = request size × this.
const DNS_AMPLIFICATION: f64 = 8.0;

/// Counters shared with scenario code.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReflectorStats {
    /// Requests received (any class).
    pub requests: u64,
    /// Replies emitted.
    pub replies: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Bytes emitted.
    pub bytes_out: u64,
    /// Requests that were ground-truth attack traffic (metrics only).
    pub attack_requests: u64,
}

/// Shared handle to reflector counters.
pub type ReflectorHandle = Arc<Mutex<ReflectorStats>>;

/// An innocent server usable as a reflector.
pub struct ReflectorApp {
    stats: ReflectorHandle,
}

impl ReflectorApp {
    /// New server and the handle to its counters.
    pub fn new() -> (ReflectorApp, ReflectorHandle) {
        let stats: ReflectorHandle = Arc::new(Mutex::new(ReflectorStats::default()));
        (
            ReflectorApp {
                stats: stats.clone(),
            },
            stats,
        )
    }

    /// Metrics-only classification of a reply to `req`.
    fn reply_class(req: &Packet) -> TrafficClass {
        if req.provenance.class.is_attack() {
            TrafficClass::AttackReflected
        } else {
            TrafficClass::LegitReply
        }
    }
}

impl App for ReflectorApp {
    fn on_packet(&mut self, api: &mut AppApi<'_>, pkt: &Packet) -> Disposition {
        let reply: Option<(Proto, u32)> = match pkt.proto {
            Proto::TcpSyn => Some((Proto::TcpSynAck, SYNACK_SIZE)),
            Proto::DnsQuery => Some((
                Proto::DnsResponse,
                (pkt.size as f64 * DNS_AMPLIFICATION) as u32,
            )),
            Proto::IcmpEcho => Some((Proto::IcmpEchoReply, pkt.size)),
            Proto::TcpData | Proto::TcpSynAck => Some((Proto::TcpRst, 40)),
            _ => None,
        };
        {
            let mut s = self.stats.lock();
            s.requests += 1;
            s.bytes_in += pkt.size as u64;
            if pkt.provenance.class.is_attack() {
                s.attack_requests += 1;
            }
        }
        if let Some((proto, size)) = reply {
            let class = Self::reply_class(pkt);
            let b = PacketBuilder::new(api.self_addr, pkt.src, proto, class)
                .size(size.max(40))
                .flow(pkt.flow)
                .tag(pkt.payload_tag);
            api.send(b);
            let mut s = self.stats.lock();
            s.replies += 1;
            s.bytes_out += size.max(40) as u64;
        }
        Disposition::Consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{Addr, NodeId, SimTime, Simulator, Topology};

    /// 0 (sender) — 1 (reflector); replies land back at node 0's addr.
    #[test]
    fn syn_gets_synack_addressed_to_claimed_source() {
        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 1);
        let victim = Addr::new(NodeId(2), 1);
        let refl = Addr::new(NodeId(1), 1);
        let (app, stats) = ReflectorApp::new();
        sim.install_app(refl, Box::new(app));
        sim.install_app(victim, Box::new(dtcs_netsim::SinkApp));
        // Spoofed SYN: claims the victim as source, emitted at node 0.
        sim.emit_now(
            NodeId(0),
            PacketBuilder::new(victim, refl, Proto::TcpSyn, TrafficClass::AttackDirect).size(40),
        );
        sim.run_until(SimTime::from_secs(1));
        let s = stats.lock();
        assert_eq!(s.requests, 1);
        assert_eq!(s.replies, 1);
        assert_eq!(s.attack_requests, 1);
        drop(s);
        // The reflected SYN-ACK reached the victim and is labelled
        // AttackReflected.
        assert_eq!(
            sim.stats
                .class(TrafficClass::AttackReflected)
                .delivered_pkts,
            1
        );
    }

    #[test]
    fn dns_amplifies_bytes() {
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 1);
        let refl = Addr::new(NodeId(1), 1);
        let client = Addr::new(NodeId(0), 1);
        let (app, stats) = ReflectorApp::new();
        sim.install_app(refl, Box::new(app));
        sim.install_app(client, Box::new(dtcs_netsim::SinkApp));
        sim.emit_now(
            NodeId(0),
            PacketBuilder::new(client, refl, Proto::DnsQuery, TrafficClass::LegitRequest).size(60),
        );
        sim.run_until(SimTime::from_secs(1));
        let s = stats.lock();
        assert_eq!(s.bytes_in, 60);
        assert_eq!(s.bytes_out, 480, "8x amplification");
        drop(s);
        // Legit request ⇒ reply labelled LegitReply.
        assert_eq!(sim.stats.class(TrafficClass::LegitReply).delivered_pkts, 1);
    }

    #[test]
    fn unexpected_tcp_draws_rst() {
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 1);
        let refl = Addr::new(NodeId(1), 1);
        let (app, stats) = ReflectorApp::new();
        sim.install_app(refl, Box::new(app));
        sim.install_app(Addr::new(NodeId(0), 1), Box::new(dtcs_netsim::SinkApp));
        sim.emit_now(
            NodeId(0),
            PacketBuilder::new(
                Addr::new(NodeId(0), 1),
                refl,
                Proto::TcpData,
                TrafficClass::Background,
            )
            .size(1000),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(stats.lock().replies, 1);
    }

    #[test]
    fn udp_is_not_reflected() {
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 1);
        let refl = Addr::new(NodeId(1), 1);
        let (app, stats) = ReflectorApp::new();
        sim.install_app(refl, Box::new(app));
        sim.emit_now(
            NodeId(0),
            PacketBuilder::new(
                Addr::new(NodeId(0), 1),
                refl,
                Proto::Udp,
                TrafficClass::Background,
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        let s = stats.lock();
        assert_eq!(s.requests, 1);
        assert_eq!(s.replies, 0);
    }
}
