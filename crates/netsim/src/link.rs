//! Links: bandwidth, propagation delay and drop-tail queueing.
//!
//! Queueing is modelled without storing per-packet queues: each direction
//! tracks the time its transmitter becomes free (`next_free`). The backlog
//! in bytes at any instant is `(next_free - now) * bw / 8`; a packet is
//! tail-dropped when admitting it would push the backlog past the configured
//! queue limit. This "virtual queue" is exact for FIFO drop-tail behaviour
//! and keeps the hot path allocation-free.

use crate::node::NodeId;
use crate::time::{tx_time, SimDuration, SimTime};

/// Static + dynamic state of one bidirectional link.
#[derive(Clone, Debug)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity, bits per second (per direction).
    pub bandwidth_bps: f64,
    /// Propagation delay.
    pub latency: SimDuration,
    /// Drop-tail queue limit in bytes (per direction).
    pub queue_limit_bytes: u32,
    /// Administrative/operational state. Down links are excluded from
    /// routing and drop everything offered to them (failure injection).
    pub up: bool,
    /// Per-direction transmitter state: `[a->b, b->a]`.
    pub dirs: [LinkDir; 2],
}

/// Mutable per-direction state. Drops are counted per class in
/// [`crate::stats::Stats`], not here.
#[derive(Clone, Debug, Default)]
pub struct LinkDir {
    /// Instant the transmitter finishes everything already admitted.
    pub next_free: SimTime,
    /// Bytes of attack-class packets admitted (ground truth; metrics only).
    pub attack_bytes_sent: u64,
}

/// Outcome of offering a packet to a link direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Packet admitted; it will arrive at the far end at this instant.
    Deliver(SimTime),
    /// Queue overflow; packet dropped.
    Dropped,
}

impl Link {
    /// Create a link with idle transmitters.
    pub fn new(
        a: NodeId,
        b: NodeId,
        bandwidth_bps: f64,
        latency: SimDuration,
        queue_limit_bytes: u32,
    ) -> Link {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!(a != b, "self-loops are not allowed");
        Link {
            a,
            b,
            bandwidth_bps,
            latency,
            queue_limit_bytes,
            up: true,
            dirs: [LinkDir::default(), LinkDir::default()],
        }
    }

    /// The endpoint opposite `from`; panics if `from` is not an endpoint.
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("node {from:?} is not an endpoint of this link");
        }
    }

    /// Direction index for traffic leaving `from`.
    pub fn dir_index(&self, from: NodeId) -> usize {
        if from == self.a {
            0
        } else if from == self.b {
            1
        } else {
            panic!("node {from:?} is not an endpoint of this link");
        }
    }

    /// Current queue backlog (bytes) in the direction leaving `from`.
    pub fn backlog_bytes(&self, from: NodeId, now: SimTime) -> u64 {
        self.queue_state(from, now).1
    }

    /// Queue wait and instantaneous backlog (bytes) in the direction
    /// leaving `from` at `now` — what a packet offered right now would
    /// observe. One closed-form read of the virtual queue; used by the
    /// telemetry layer for queue-delay histograms and trace backlog fields.
    pub fn queue_state(&self, from: NodeId, now: SimTime) -> (SimDuration, u64) {
        let d = &self.dirs[self.dir_index(from)];
        if d.next_free <= now {
            (SimDuration::ZERO, 0)
        } else {
            let wait = d.next_free - now;
            let bytes = (wait.as_secs_f64() * self.bandwidth_bps / 8.0) as u64;
            (wait, bytes)
        }
    }

    /// Offer a packet of `size` bytes (attack ground truth `is_attack`) to
    /// the direction leaving `from` at time `now`.
    pub fn offer(&mut self, from: NodeId, now: SimTime, size: u32, is_attack: bool) -> Admission {
        self.offer_observed(from, now, size, is_attack).0
    }

    /// Like [`Link::offer`], but also reports the queue state the packet
    /// observed on arrival — `(admission, wait, backlog_bytes)` — from a
    /// single virtual-queue read, so the forwarding hot path does not pay
    /// a separate [`Link::queue_state`] probe for telemetry.
    pub fn offer_observed(
        &mut self,
        from: NodeId,
        now: SimTime,
        size: u32,
        is_attack: bool,
    ) -> (Admission, SimDuration, u64) {
        let di = self.dir_index(from);
        if !self.up {
            return (Admission::Dropped, SimDuration::ZERO, 0);
        }
        let latency = self.latency;
        let bw = self.bandwidth_bps;
        let limit = self.queue_limit_bytes as u64;
        let d = &mut self.dirs[di];
        let (wait, backlog) = if d.next_free <= now {
            (SimDuration::ZERO, 0)
        } else {
            let wait = d.next_free - now;
            (wait, (wait.as_secs_f64() * bw / 8.0) as u64)
        };
        if backlog + size as u64 > limit {
            return (Admission::Dropped, wait, backlog);
        }
        let start = if d.next_free > now { d.next_free } else { now };
        let done = start + tx_time(size, bw);
        d.next_free = done;
        if is_attack {
            d.attack_bytes_sent += size as u64;
        }
        (Admission::Deliver(done + latency), wait, backlog)
    }
}

/// Parameters for constructing classes of links.
#[derive(Clone, Copy, Debug)]
pub struct LinkProfile {
    /// Capacity in bits/second.
    pub bandwidth_bps: f64,
    /// Propagation delay.
    pub latency: SimDuration,
    /// Queue limit in bytes.
    pub queue_limit_bytes: u32,
}

impl LinkProfile {
    /// Backbone-class link: 10 Gbit/s, 10 ms, 1.25 MB of buffer.
    pub fn backbone() -> LinkProfile {
        LinkProfile {
            bandwidth_bps: 10e9,
            latency: SimDuration::from_millis(10),
            queue_limit_bytes: 1_250_000,
        }
    }

    /// Transit/edge link: 1 Gbit/s, 5 ms.
    pub fn transit() -> LinkProfile {
        LinkProfile {
            bandwidth_bps: 1e9,
            latency: SimDuration::from_millis(5),
            queue_limit_bytes: 625_000,
        }
    }

    /// Access/stub uplink: 100 Mbit/s, 2 ms.
    pub fn access() -> LinkProfile {
        LinkProfile {
            bandwidth_bps: 100e6,
            latency: SimDuration::from_millis(2),
            queue_limit_bytes: 125_000,
        }
    }

    /// Instantiate a link between two nodes with this profile.
    pub fn link(&self, a: NodeId, b: NodeId) -> Link {
        Link::new(
            a,
            b,
            self.bandwidth_bps,
            self.latency,
            self.queue_limit_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_link() -> Link {
        // 1 Mbit/s, 1 ms latency, 10 kB queue.
        Link::new(
            NodeId(0),
            NodeId(1),
            1e6,
            SimDuration::from_millis(1),
            10_000,
        )
    }

    #[test]
    fn single_packet_latency() {
        let mut l = test_link();
        // 125 bytes at 1 Mbit/s = 1 ms tx; +1 ms propagation = arrival at 2 ms.
        match l.offer(NodeId(0), SimTime::ZERO, 125, false) {
            Admission::Deliver(at) => assert_eq!(at, SimTime::from_millis(2)),
            Admission::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn back_to_back_serialisation() {
        let mut l = test_link();
        let first = l.offer(NodeId(0), SimTime::ZERO, 125, false);
        let second = l.offer(NodeId(0), SimTime::ZERO, 125, false);
        let (Admission::Deliver(t1), Admission::Deliver(t2)) = (first, second) else {
            panic!("unexpected drop");
        };
        // Second packet waits for the first's 1 ms transmission.
        assert_eq!(t2 - t1, SimDuration::from_millis(1));
    }

    #[test]
    fn directions_are_independent() {
        let mut l = test_link();
        let _ = l.offer(NodeId(0), SimTime::ZERO, 1000, false);
        // Reverse direction transmitter is still idle.
        assert_eq!(l.backlog_bytes(NodeId(1), SimTime::ZERO), 0);
        let Admission::Deliver(at) = l.offer(NodeId(1), SimTime::ZERO, 125, false) else {
            panic!("unexpected drop");
        };
        assert_eq!(at, SimTime::from_millis(2));
    }

    #[test]
    fn tail_drop_on_overflow() {
        let mut l = test_link();
        // Fill the queue: 10 kB limit, each packet 1 kB => ~10-11 fit
        // (the packet in service does not count once started, backlog is
        // measured vs. now).
        let mut admitted = 0;
        let mut dropped = 0;
        for _ in 0..30 {
            match l.offer(NodeId(0), SimTime::ZERO, 1000, true) {
                Admission::Deliver(_) => {
                    assert_eq!(dropped, 0, "admitted behind a drop");
                    admitted += 1;
                }
                Admission::Dropped => dropped += 1,
            }
        }
        assert!((10..=12).contains(&admitted), "admitted={admitted}");
        assert!(dropped > 0);
        // Only admitted bytes are charged, dropped ones are not.
        assert_eq!(l.dirs[0].attack_bytes_sent, admitted * 1000);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut l = test_link();
        for _ in 0..10 {
            let _ = l.offer(NodeId(0), SimTime::ZERO, 1000, false);
        }
        let backlog_now = l.backlog_bytes(NodeId(0), SimTime::ZERO);
        assert!(backlog_now > 0);
        // After all transmissions complete the backlog is gone.
        let later = SimTime::from_secs(1);
        assert_eq!(l.backlog_bytes(NodeId(0), later), 0);
        let Admission::Deliver(_) = l.offer(NodeId(0), later, 1000, false) else {
            panic!("queue should have drained");
        };
    }

    /// A link is touched per packet hop and per fluid direction read, so
    /// its size is a cost: two endpoints, capacity, latency, limit and
    /// state, then two 16-byte directions.
    #[test]
    fn link_is_72_bytes() {
        assert_eq!(std::mem::size_of::<LinkDir>(), 16);
        assert_eq!(std::mem::size_of::<Link>(), 72);
    }

    #[test]
    fn queue_state_matches_backlog() {
        let mut l = test_link();
        assert_eq!(
            l.queue_state(NodeId(0), SimTime::ZERO),
            (SimDuration::ZERO, 0)
        );
        for _ in 0..5 {
            let _ = l.offer(NodeId(0), SimTime::ZERO, 1000, false);
        }
        let (wait, bytes) = l.queue_state(NodeId(0), SimTime::ZERO);
        assert!(wait > SimDuration::ZERO);
        assert_eq!(bytes, l.backlog_bytes(NodeId(0), SimTime::ZERO));
        // 5 kB at 1 Mbit/s = 40 ms of queue.
        assert_eq!(wait, SimDuration::from_millis(40));
    }

    #[test]
    #[should_panic]
    fn other_rejects_foreign_node() {
        let l = test_link();
        let _ = l.other(NodeId(7));
    }
}
