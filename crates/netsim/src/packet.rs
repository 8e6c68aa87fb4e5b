//! Packets.
//!
//! A packet carries the fields defenses are allowed to inspect (header) plus
//! *ground-truth provenance* used exclusively by the metrics layer. Keeping
//! provenance on the packet lets experiments attribute every delivery and
//! every drop to a traffic class without any global lookup, but defense code
//! must never branch on it — that separation is enforced by convention here
//! and by construction in `dtcs-device`, whose module API only exposes the
//! header view.

use crate::addr::Addr;
use crate::node::NodeId;
use crate::recorder::wire_words;
use crate::time::SimTime;

/// Default initial TTL, mirroring common OS defaults.
pub const DEFAULT_TTL: u8 = 64;

wire_words! {
    /// Transport/network protocol of a packet, at the granularity defenses and
    /// reflectors care about.
    pub enum Proto {
        /// TCP connection request.
        TcpSyn,
        /// TCP SYN-ACK (what reflectors bounce back at the victim).
        TcpSynAck,
        /// TCP reset (protocol-misuse attacks, Sec. 2.1).
        TcpRst,
        /// Established-connection TCP data.
        TcpData,
        /// Generic UDP datagram.
        Udp,
        /// DNS query (UDP).
        DnsQuery,
        /// DNS response — a classic amplification vector.
        DnsResponse,
        /// ICMP echo request.
        IcmpEcho,
        /// ICMP echo reply.
        IcmpEchoReply,
        /// ICMP destination unreachable (reflector + misuse vector).
        IcmpUnreachable,
        /// ICMP time exceeded (reflector vector).
        IcmpTimeExceeded,
        /// Control-plane message of the simulated management protocols
        /// (TCSP/ISP/pushback). Carried in-band so it competes for bandwidth.
        Control,
    }
}

impl Proto {
    /// Is this one of the reply protocols a reflector emits in response to a
    /// request it received?
    pub fn is_reflected_reply(self) -> bool {
        matches!(
            self,
            Proto::TcpSynAck
                | Proto::TcpRst
                | Proto::DnsResponse
                | Proto::IcmpEchoReply
                | Proto::IcmpUnreachable
                | Proto::IcmpTimeExceeded
        )
    }
}

wire_words! {
    /// Ground-truth class of a packet, for metrics only.
    pub enum TrafficClass {
        /// Legitimate client request.
        LegitRequest,
        /// Legitimate server reply.
        LegitReply,
        /// Attack packet sent directly by a DDoS agent.
        AttackDirect,
        /// Attack packet emitted by an innocent reflector in response to a
        /// spoofed request (the agent's spoofed request itself is
        /// `AttackDirect`; the bounce is `AttackReflected`).
        AttackReflected,
        /// Attacker command-and-control (attacker -> master -> agent).
        AttackControl,
        /// Management-plane traffic (TCSP, ISP NMS, pushback messages).
        Management,
        /// Background cross traffic that is neither measured nor attack.
        Background,
    }
}

impl TrafficClass {
    /// Attack traffic (any flavour, including C&C)?
    pub fn is_attack(self) -> bool {
        matches!(
            self,
            TrafficClass::AttackDirect
                | TrafficClass::AttackReflected
                | TrafficClass::AttackControl
        )
    }

    /// Legitimate application traffic whose survival we measure?
    pub fn is_legit(self) -> bool {
        matches!(self, TrafficClass::LegitRequest | TrafficClass::LegitReply)
    }
}

/// Ground truth attached to each packet; read only by stats/metrics.
#[derive(Clone, Copy, Debug)]
pub struct Provenance {
    /// Node that physically emitted the packet (independent of any spoofed
    /// source address in the header).
    pub origin: NodeId,
    /// Traffic class for attribution.
    pub class: TrafficClass,
}

/// A network packet.
///
/// `size` is the wire size in bytes; payloads are modelled by size and the
/// opaque `payload_tag` (used e.g. to correlate requests with replies),
/// never by actual buffers — the simulator routinely moves 10^7 packets per
/// experiment and must not allocate per packet.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Unique id assigned at emission.
    pub id: u64,
    /// Claimed source address (may be spoofed).
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Remaining hops; decremented per router, dropped at zero.
    pub ttl: u8,
    /// Protocol.
    pub proto: Proto,
    /// Wire size in bytes.
    pub size: u32,
    /// Flow identifier (5-tuple surrogate) chosen by the emitting app.
    pub flow: u64,
    /// Writable 32-bit header field (plays the role of the IP identification
    /// field which probabilistic packet marking overloads).
    pub mark: u32,
    /// Opaque payload correlation tag (e.g. request id echoed in the reply).
    pub payload_tag: u64,
    /// Number of links traversed so far; maintained by the simulator and
    /// used for stop-distance / wasted-bandwidth metrics.
    pub hops: u8,
    /// Emission instant, stamped by the simulator; feeds the end-to-end
    /// latency histogram and trace `Deliver` events. Metrics-layer only —
    /// like `provenance`, defense code must not read it (and cannot via
    /// the device header view).
    pub sent_at: SimTime,
    /// Ground truth for metrics. Defense code must not read this.
    pub provenance: Provenance,
}

impl Packet {
    /// True (metrics-level) check: is the source address spoofed, i.e. does
    /// the claimed source not belong to the node that emitted the packet?
    pub fn is_spoofed(&self) -> bool {
        self.src.node() != self.provenance.origin
    }
}

/// Convenience builder so scenario code stays readable.
#[derive(Clone, Copy, Debug)]
pub struct PacketBuilder {
    src: Addr,
    dst: Addr,
    proto: Proto,
    size: u32,
    flow: u64,
    ttl: u8,
    payload_tag: u64,
    class: TrafficClass,
}

impl PacketBuilder {
    /// Start building a packet of the given protocol and class.
    pub fn new(src: Addr, dst: Addr, proto: Proto, class: TrafficClass) -> Self {
        PacketBuilder {
            src,
            dst,
            proto,
            size: 64,
            flow: 0,
            ttl: DEFAULT_TTL,
            payload_tag: 0,
            class,
        }
    }

    /// Set wire size in bytes.
    pub fn size(mut self, size: u32) -> Self {
        self.size = size;
        self
    }

    /// Set the flow id.
    pub fn flow(mut self, flow: u64) -> Self {
        self.flow = flow;
        self
    }

    /// Set the initial TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Set the payload correlation tag.
    pub fn tag(mut self, tag: u64) -> Self {
        self.payload_tag = tag;
        self
    }

    /// Finalise; `id` and `origin` are stamped by the emitting context.
    pub fn build(self, id: u64, origin: NodeId) -> Packet {
        Packet {
            id,
            src: self.src,
            dst: self.dst,
            ttl: self.ttl,
            proto: self.proto,
            size: self.size,
            flow: self.flow,
            mark: 0,
            payload_tag: self.payload_tag,
            hops: 0,
            sent_at: SimTime::ZERO,
            provenance: Provenance {
                origin,
                class: self.class,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: Addr, origin: NodeId) -> Packet {
        PacketBuilder::new(
            src,
            Addr::new(NodeId(1), 0),
            Proto::Udp,
            TrafficClass::AttackDirect,
        )
        .build(1, origin)
    }

    #[test]
    fn spoof_detection_uses_ground_truth() {
        let honest = pkt(Addr::new(NodeId(5), 1), NodeId(5));
        assert!(!honest.is_spoofed());
        let spoofed = pkt(Addr::new(NodeId(9), 1), NodeId(5));
        assert!(spoofed.is_spoofed());
    }

    #[test]
    fn reflected_reply_protocols() {
        assert!(Proto::TcpSynAck.is_reflected_reply());
        assert!(Proto::IcmpUnreachable.is_reflected_reply());
        assert!(!Proto::TcpSyn.is_reflected_reply());
        assert!(!Proto::Udp.is_reflected_reply());
    }

    #[test]
    fn class_partitions() {
        for c in [
            TrafficClass::LegitRequest,
            TrafficClass::LegitReply,
            TrafficClass::AttackDirect,
            TrafficClass::AttackReflected,
            TrafficClass::AttackControl,
            TrafficClass::Management,
            TrafficClass::Background,
        ] {
            // No class is both attack and legit.
            assert!(!(c.is_attack() && c.is_legit()));
        }
        assert!(TrafficClass::AttackReflected.is_attack());
        assert!(TrafficClass::LegitReply.is_legit());
    }

    #[test]
    fn builder_defaults() {
        let p = pkt(Addr::new(NodeId(2), 0), NodeId(2));
        assert_eq!(p.ttl, DEFAULT_TTL);
        assert_eq!(p.size, 64);
        assert_eq!(p.hops, 0);
        assert_eq!(p.mark, 0);
    }
}
