//! Restricted packet view and module environment.
//!
//! Section 4.5 of the paper enumerates what delegated processing must never
//! do: change source/destination addresses (rerouting), change the TTL,
//! increase the packet rate, or increase the traffic volume. [`PacketView`]
//! enforces the header rules **by construction** — modules receive this view
//! instead of the raw packet, and the view simply has no mutating accessors
//! for protected fields; the only mutation it offers is shrinking the
//! payload. Rate/volume rules are enforced by the device's runtime guard
//! (see `device.rs`) and, statically, by the safety verifier (`safety.rs`).

use dtcs_netsim::{Addr, NodeId, Packet, Proto, SimTime};

use crate::owner::OwnerId;

/// A module's window onto one packet.
///
/// Read access to every header field a real middlebox could inspect; write
/// access only to the payload size (shrink-only) — Sec. 4.5's "packet size
/// may only stay the same or become smaller".
pub struct PacketView<'a> {
    pkt: &'a mut Packet,
    /// Bytes removed from the payload by modules so far this visit.
    stripped: u32,
}

impl<'a> PacketView<'a> {
    /// Wrap a packet. Crate-internal: only the device constructs views.
    pub(crate) fn new(pkt: &'a mut Packet) -> Self {
        PacketView { pkt, stripped: 0 }
    }

    /// Public wrapper for benchmarks and harnesses that drive module
    /// graphs directly. The view's restrictions (shrink-only payload,
    /// immutable headers) hold regardless of who constructs it.
    pub fn wrap(pkt: &'a mut Packet) -> Self {
        PacketView::new(pkt)
    }

    /// Claimed source address.
    pub fn src(&self) -> Addr {
        self.pkt.src
    }

    /// Destination address.
    pub fn dst(&self) -> Addr {
        self.pkt.dst
    }

    /// Protocol.
    pub fn proto(&self) -> Proto {
        self.pkt.proto
    }

    /// Wire size in bytes.
    pub fn size(&self) -> u32 {
        self.pkt.size
    }

    /// Remaining TTL (read-only; Sec. 4.5 forbids modification).
    pub fn ttl(&self) -> u8 {
        self.pkt.ttl
    }

    /// Flow identifier.
    pub fn flow(&self) -> u64 {
        self.pkt.flow
    }

    /// The overloadable marking field (read-only inside devices; traceback
    /// baselines that legitimately mark packets are router agents, not
    /// delegated modules).
    pub fn mark(&self) -> u32 {
        self.pkt.mark
    }

    /// Payload correlation tag.
    pub fn payload_tag(&self) -> u64 {
        self.pkt.payload_tag
    }

    /// A stable digest of the invariant header fields, for logging and
    /// SPIE-style backlogs. Uses an FNV-1a mix over src/dst/proto/size/tag.
    pub fn digest(&self) -> u64 {
        digest_packet(self.pkt)
    }

    /// Shrink the packet to `new_size` bytes ("payload deletion",
    /// Sec. 4.2). Growing is impossible: requests larger than the current
    /// size are clamped, never applied.
    pub fn truncate(&mut self, new_size: u32) {
        if new_size < self.pkt.size {
            self.stripped += self.pkt.size - new_size;
            self.pkt.size = new_size;
        }
    }

    /// Bytes stripped so far during this device visit.
    pub fn stripped(&self) -> u32 {
        self.stripped
    }
}

/// Digest of a packet's invariant header fields (FNV-1a).
pub fn digest_packet(pkt: &Packet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for i in 0..8 {
            h ^= (v >> (i * 8)) & 0xFF;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    mix(pkt.src.0 as u64);
    mix(pkt.dst.0 as u64);
    mix(pkt.proto as u64);
    mix(pkt.payload_tag);
    mix(pkt.flow);
    h
}

/// Telemetry event a module may emit (logging, statistics, triggers —
/// footnote 1 of the paper allows "a reasonable amount of additional
/// traffic" for these). Each event is charged against the device's
/// telemetry budget.
#[derive(Clone, Debug, PartialEq)]
pub enum DeviceEvent {
    /// A trigger's condition became true.
    TriggerFired {
        /// Owner whose service fired.
        owner: OwnerId,
        /// User-chosen trigger tag.
        tag: u32,
        /// Observed metric value.
        value: f64,
        /// Node the device is attached to.
        node: NodeId,
        /// Time of firing.
        at: SimTime,
    },
    /// A trigger's condition ceased (relief, Sec. 3.1 third phase).
    TriggerRelieved {
        /// Owner whose service relieved.
        owner: OwnerId,
        /// User-chosen trigger tag.
        tag: u32,
        /// Node the device is attached to.
        node: NodeId,
        /// Time of relief.
        at: SimTime,
    },
    /// A batch of log digests is available for collection.
    LogReady {
        /// Owner whose logger filled.
        owner: OwnerId,
        /// Number of entries buffered.
        entries: usize,
        /// Node the device is attached to.
        node: NodeId,
    },
}

/// Immutable per-node context shared by all modules on a device.
#[derive(Clone, Debug)]
pub struct DeviceContext {
    /// Node the device is attached to.
    pub node: NodeId,
}

/// Environment handed to a module for one packet.
pub struct ModuleEnv<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Static device context.
    pub ctx: &'a DeviceContext,
    /// Device-computed spoof verdict for the current packet: `true` when
    /// the claimed source could not legitimately be entering this node the
    /// way it did (local emission with a foreign source, or a customer-
    /// side arrival inconsistent with the claimed source's actual route —
    /// Park & Lee route-based filtering). Always `false` for transit
    /// arrivals, which are never judged (Sec. 4.2).
    pub spoof_suspect: bool,
    /// Owner whose service graph is executing.
    pub owner: OwnerId,
    /// Telemetry sink; events are budget-checked by the device.
    pub events: &'a mut Vec<DeviceEvent>,
    /// Module (de)activation requests `(graph index, enable)` emitted by
    /// triggers; applied by the graph after the current packet.
    pub activations: &'a mut Vec<(usize, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{NodeId, PacketBuilder, TrafficClass};

    fn pkt() -> Packet {
        PacketBuilder::new(
            Addr::new(NodeId(1), 1),
            Addr::new(NodeId(2), 2),
            Proto::Udp,
            TrafficClass::Background,
        )
        .size(500)
        .build(1, NodeId(1))
    }

    #[test]
    fn truncate_only_shrinks() {
        let mut p = pkt();
        let mut v = PacketView::new(&mut p);
        v.truncate(100);
        assert_eq!(v.size(), 100);
        assert_eq!(v.stripped(), 400);
        v.truncate(1000); // growth attempt: clamped (no-op)
        assert_eq!(v.size(), 100);
        assert_eq!(v.stripped(), 400);
        let _ = v;
        assert_eq!(p.size, 100);
    }

    #[test]
    fn digest_ignores_mutable_fields() {
        let mut a = pkt();
        let mut b = pkt();
        b.ttl = 3;
        b.hops = 9;
        b.mark = 77;
        assert_eq!(digest_packet(&a), digest_packet(&b));
        a.payload_tag = 5;
        assert_ne!(digest_packet(&a), digest_packet(&b));
    }

    #[test]
    fn view_exposes_headers() {
        let mut p = pkt();
        let v = PacketView::new(&mut p);
        assert_eq!(v.src(), Addr::new(NodeId(1), 1));
        assert_eq!(v.dst(), Addr::new(NodeId(2), 2));
        assert_eq!(v.proto(), Proto::Udp);
        assert_eq!(v.ttl(), dtcs_netsim::DEFAULT_TTL);
    }
}
