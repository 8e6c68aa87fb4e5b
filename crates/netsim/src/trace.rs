//! Packet flight recorder and telemetry: deterministic lifecycle tracing
//! and log2 histograms (DESIGN.md §6.4).
//!
//! The simulator emits a [`TraceEvent`] at each step of a packet's life —
//! emission, per-hop link admission or tail drop (with the instantaneous
//! virtual-queue backlog), module verdicts from agents (ingress filters,
//! adaptive devices), and final delivery. Sink, ring recorder, sampler,
//! JSONL export and the table macro are the shared spine in
//! [`crate::recorder`]; this module supplies the packet stream's table,
//! sampled by packet id.

use crate::addr::Addr;
use crate::node::{LinkId, NodeId};
use crate::packet::{Proto, TrafficClass};
use crate::recorder::{trace_events, Recorder};
use crate::stats::DropReason;

trace_events! {
    /// One step in a traced packet's life.
    ///
    /// Every variant carries the wall-sim timestamp `t` (nanoseconds) and
    /// the packet id `pkt` — all events of one packet are sampled in or
    /// out together; drop-flavoured variants also carry the ground-truth
    /// class, size and hop count so traces reconcile exactly with
    /// [`crate::stats::Stats`] counters without a join against `Emit`
    /// events (the emission may have been evicted from the ring).
    pub enum TraceEvent: stream 0x7472_6163_653a_3031, key [u64; 1]; // "trace:01"

    /// Packet entered the network at `node`.
    Emit = "emit", key(pkt) Some([*pkt]), {
        /// Packet id.
        pkt: u64,
        /// Emitting node.
        node: NodeId,
        /// Claimed source address.
        src: Addr,
        /// Destination address.
        dst: Addr,
        /// Protocol.
        proto: Proto,
        /// Ground-truth class.
        class: TrafficClass,
        /// Wire size (bytes).
        size: u32,
        /// Flow id.
        flow: u64,
    }
    /// Packet admitted to a link's virtual queue while being forwarded out
    /// of `from`.
    LinkAdmit = "link_admit", key(pkt) Some([*pkt]), {
        /// Packet id.
        pkt: u64,
        /// Link traversed.
        link: LinkId,
        /// Forwarding node.
        from: NodeId,
        /// Far endpoint the packet is now in flight toward.
        to: NodeId,
        /// Virtual-queue backlog (bytes) ahead of this packet at admission.
        backlog: u64,
        /// Arrival instant at the far end (ns).
        arrive: u64,
    }
    /// Packet tail-dropped at a link queue (maps to
    /// [`DropReason::QueueOverflow`] in [`crate::stats::Stats`]).
    LinkDrop = "link_drop", key(pkt) Some([*pkt]), {
        /// Packet id.
        pkt: u64,
        /// Congested link.
        link: LinkId,
        /// Forwarding node that lost the packet.
        from: NodeId,
        /// Virtual-queue backlog (bytes) that forced the drop.
        backlog: u64,
        /// Ground-truth class.
        class: TrafficClass,
        /// Wire size (bytes).
        size: u32,
        /// Hops traversed before the drop.
        hops: u8,
    }
    /// A module (agent chain entry, host, or the engine itself) decided to
    /// drop the packet at `node`.
    ModuleVerdict = "module_verdict", key(pkt) Some([*pkt]), {
        /// Packet id.
        pkt: u64,
        /// Node where the verdict was rendered.
        node: NodeId,
        /// Stable module name ([`crate::agent::NodeAgent::name`], `"host"`
        /// for receiver overload, `"engine"` for TTL/route/listener drops).
        module: &'static str,
        /// Optional module-provided detail (e.g. which filter stage fired),
        /// staged via [`crate::agent::AgentCtx::trace_verdict_detail`].
        detail: Option<String>,
        /// Drop reason recorded in stats.
        reason: DropReason,
        /// Ground-truth class.
        class: TrafficClass,
        /// Wire size (bytes).
        size: u32,
        /// Hops traversed before the drop.
        hops: u8,
    }
    /// Packet consumed by the application at `node`.
    Deliver = "deliver", key(pkt) Some([*pkt]), {
        /// Packet id.
        pkt: u64,
        /// Delivering node.
        node: NodeId,
        /// Ground-truth class.
        class: TrafficClass,
        /// Wire size (bytes).
        size: u32,
        /// Path length.
        hops: u8,
        /// End-to-end latency (ns) since emission.
        latency as "latency_ns": u64,
    }
}

impl TraceEvent {
    /// For drop-flavoured events, the `(class, reason)` bucket the drop was
    /// accounted under in [`crate::stats::Stats::drops`].
    pub fn drop_bucket(&self) -> Option<(TrafficClass, DropReason)> {
        match self {
            TraceEvent::LinkDrop { class, .. } => Some((*class, DropReason::QueueOverflow)),
            TraceEvent::ModuleVerdict { class, reason, .. } => Some((*class, *reason)),
            _ => None,
        }
    }
}

/// The packet flight recorder: the spine's bounded ring over
/// [`TraceEvent`]s.
pub type FlightRecorder = Recorder<TraceEvent>;

/// Power-of-two-bucket histogram over `u64` values, allocation-free on
/// record: bucket `0` holds exact zeros, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)`. 65 buckets cover the full `u64` range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram {
            counts: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// Bucket index for a value.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of a bucket (used for conservative percentile
    /// estimates).
    pub fn bucket_upper(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else if idx >= 64 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }

    /// Record one value. No allocation, no branching beyond the zero check.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.counts
    }

    /// Conservative (upper-bound) estimate of the `q`-quantile,
    /// `0.0 ≤ q ≤ 1.0`: the upper edge of the first bucket whose cumulative
    /// count reaches `q · n`. Returns 0 when empty.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                // The top occupied bucket is bounded by the exact max.
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one (sweep aggregation).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// One-line summary: `n=…, mean=…, p50≤…, p99≤…, max=…`.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.1} p50<={} p99<={} max={}",
            self.count,
            self.mean(),
            self.quantile_upper(0.50),
            self.quantile_upper(0.99),
            self.max
        )
    }
}

/// Always-on engine telemetry histograms, embedded in
/// [`crate::stats::Stats`]. Recording is allocation-free and cheap enough
/// to leave enabled unconditionally (a few adds per packet event).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryHistograms {
    /// Per-hop virtual-queue wait experienced by admitted packets (ns).
    pub queue_delay_ns: Log2Histogram,
    /// End-to-end latency of delivered packets (ns since emission).
    pub e2e_latency_ns: Log2Histogram,
    /// Path length of delivered packets (hops).
    pub hop_count: Log2Histogram,
}

impl TelemetryHistograms {
    /// Merge another set into this one (sweep aggregation).
    pub fn merge(&mut self, other: &TelemetryHistograms) {
        self.queue_delay_ns.merge(&other.queue_delay_ns);
        self.e2e_latency_ns.merge(&other.e2e_latency_ns);
        self.hop_count.merge(&other.hop_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::recorder::Sink;

    #[test]
    fn jsonl_shape_and_escaping() {
        let mut r = FlightRecorder::new(8);
        r.record(TraceEvent::Emit {
            t: 0,
            pkt: 7,
            node: NodeId(2),
            src: Addr::new(NodeId(2), 1),
            dst: Addr::new(NodeId(5), 1),
            proto: Proto::Udp,
            class: TrafficClass::LegitRequest,
            size: 100,
            flow: 9,
        });
        r.record(TraceEvent::ModuleVerdict {
            t: 5,
            pkt: 7,
            node: NodeId(3),
            module: "dev\"ice",
            detail: Some("stage \\1\n".into()),
            reason: DropReason::DeviceFilter,
            class: TrafficClass::LegitRequest,
            size: 100,
            hops: 1,
        });
        let out = r.export_jsonl_string();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t\":0,\"kind\":\"emit\",\"pkt\":7,"));
        assert!(lines[0].contains("\"src\":\"2.1\""));
        assert!(lines[1].contains("\"module\":\"dev\\\"ice\""));
        assert!(lines[1].contains("\"detail\":\"stage \\\\1\\n\""));
        assert!(lines[1].contains("\"reason\":\"DeviceFilter\""));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_upper(0), 0);
        assert_eq!(Log2Histogram::bucket_upper(2), 3);
        for v in [0u64, 1, 2, 3, 4, 255, 256, u64::MAX] {
            let b = Log2Histogram::bucket_of(v);
            assert!(v <= Log2Histogram::bucket_upper(b));
            if b > 0 {
                assert!(v > Log2Histogram::bucket_upper(b - 1));
            }
        }
    }

    #[test]
    fn histogram_stats_and_merge() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.2).abs() < 1e-9);
        // p50: 3rd of 5 values (sorted: 0,1,2,3,100) is 2 -> bucket [2,3].
        assert_eq!(h.quantile_upper(0.5), 3);
        assert_eq!(h.quantile_upper(1.0), 100);
        let mut other = Log2Histogram::new();
        other.record(7);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets()[3], 1, "the merged 7 lands in the [4,7] bucket");
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn quantile_empty_is_zero() {
        let h = Log2Histogram::new();
        assert_eq!(h.quantile_upper(0.99), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
