//! Packet flight recorder and telemetry: deterministic lifecycle tracing,
//! log2 histograms and per-link utilization sampling (DESIGN.md §6.4).
//!
//! The simulator emits a [`TraceEvent`] at each step of a packet's life —
//! emission, per-hop link admission or tail drop (with the instantaneous
//! virtual-queue backlog), module verdicts from agents (ingress filters,
//! adaptive devices), and final delivery. Sink, ring recorder, sampler
//! and JSONL export are the shared spine in [`crate::recorder`]; this
//! module supplies the packet event, sampled by packet id.

use std::fmt::Write as _;

use crate::node::{LinkId, NodeId};
use crate::packet::{Proto, TrafficClass};
use crate::recorder::{Recorder, TraceRecord};
use crate::stats::DropReason;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// One step in a traced packet's life.
///
/// Every variant carries the wall-sim timestamp `t` (nanoseconds) and the
/// packet id `pkt`; drop-flavoured variants also carry the ground-truth
/// class, size and hop count so traces reconcile exactly with
/// [`crate::stats::Stats`] counters without a join against `Emit` events
/// (the emission may have been evicted from the ring).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Packet entered the network at `node`.
    Emit {
        /// Timestamp (ns).
        t: u64,
        /// Packet id.
        pkt: u64,
        /// Emitting node.
        node: NodeId,
        /// Claimed source address.
        src: crate::addr::Addr,
        /// Destination address.
        dst: crate::addr::Addr,
        /// Protocol.
        proto: Proto,
        /// Ground-truth class.
        class: TrafficClass,
        /// Wire size (bytes).
        size: u32,
        /// Flow id.
        flow: u64,
    },
    /// Packet admitted to a link's virtual queue while being forwarded out
    /// of `from`.
    LinkAdmit {
        /// Timestamp (ns).
        t: u64,
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
    },
    /// Packet tail-dropped at a link queue (maps to
    /// [`DropReason::QueueOverflow`] in [`crate::stats::Stats`]).
    LinkDrop {
        /// Timestamp (ns).
        t: u64,
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
    },
    /// A module (agent chain entry, host, or the engine itself) decided to
    /// drop the packet at `node`.
    ModuleVerdict {
        /// Timestamp (ns).
        t: u64,
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
    },
    /// Packet consumed by the application at `node`.
    Deliver {
        /// Timestamp (ns).
        t: u64,
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
        latency: u64,
    },
}

impl TraceEvent {
    /// Stable kind tag used in the JSONL schema.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Emit { .. } => "emit",
            TraceEvent::LinkAdmit { .. } => "link_admit",
            TraceEvent::LinkDrop { .. } => "link_drop",
            TraceEvent::ModuleVerdict { .. } => "module_verdict",
            TraceEvent::Deliver { .. } => "deliver",
        }
    }

    /// Timestamp in nanoseconds.
    pub fn time_ns(&self) -> u64 {
        match self {
            TraceEvent::Emit { t, .. }
            | TraceEvent::LinkAdmit { t, .. }
            | TraceEvent::LinkDrop { t, .. }
            | TraceEvent::ModuleVerdict { t, .. }
            | TraceEvent::Deliver { t, .. } => *t,
        }
    }

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

impl TraceRecord for TraceEvent {
    const STREAM_LABEL: u64 = 0x7472_6163_653a_3031; // "trace:01"

    /// Sampled per packet: all events of one packet id are in or out
    /// together.
    type Key = [u64; 1];

    fn sample_key(&self) -> Option<[u64; 1]> {
        match self {
            TraceEvent::Emit { pkt, .. }
            | TraceEvent::LinkAdmit { pkt, .. }
            | TraceEvent::LinkDrop { pkt, .. }
            | TraceEvent::ModuleVerdict { pkt, .. }
            | TraceEvent::Deliver { pkt, .. } => Some([*pkt]),
        }
    }

    /// Integers only plus escaped strings.
    fn write_json(&self, out: &mut String) {
        match self {
            TraceEvent::Emit {
                t,
                pkt,
                node,
                src,
                dst,
                proto,
                class,
                size,
                flow,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"emit\",\"pkt\":{pkt},\"node\":{},\
                     \"src\":\"{:?}\",\"dst\":\"{:?}\",\"proto\":\"{proto:?}\",\
                     \"class\":\"{class:?}\",\"size\":{size},\"flow\":{flow}}}",
                    node.0, src, dst
                );
            }
            TraceEvent::LinkAdmit {
                t,
                pkt,
                link,
                from,
                to,
                backlog,
                arrive,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"link_admit\",\"pkt\":{pkt},\
                     \"link\":{},\"from\":{},\"to\":{},\"backlog\":{backlog},\
                     \"arrive\":{arrive}}}",
                    link.0, from.0, to.0
                );
            }
            TraceEvent::LinkDrop {
                t,
                pkt,
                link,
                from,
                backlog,
                class,
                size,
                hops,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"link_drop\",\"pkt\":{pkt},\
                     \"link\":{},\"from\":{},\"backlog\":{backlog},\
                     \"class\":\"{class:?}\",\"size\":{size},\"hops\":{hops}}}",
                    link.0, from.0
                );
            }
            TraceEvent::ModuleVerdict {
                t,
                pkt,
                node,
                module,
                detail,
                reason,
                class,
                size,
                hops,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"module_verdict\",\"pkt\":{pkt},\
                     \"node\":{},\"module\":\"",
                    node.0
                );
                crate::json::escape_into(module, out);
                out.push('"');
                if let Some(d) = detail {
                    out.push_str(",\"detail\":\"");
                    crate::json::escape_into(d, out);
                    out.push('"');
                }
                let _ = write!(
                    out,
                    ",\"reason\":\"{reason:?}\",\"class\":\"{class:?}\",\
                     \"size\":{size},\"hops\":{hops}}}"
                );
            }
            TraceEvent::Deliver {
                t,
                pkt,
                node,
                class,
                size,
                hops,
                latency,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"deliver\",\"pkt\":{pkt},\"node\":{},\
                     \"class\":\"{class:?}\",\"size\":{size},\"hops\":{hops},\
                     \"latency_ns\":{latency}}}",
                    node.0
                );
            }
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

/// Per-direction activity in one utilization sampling window.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkDirUtil {
    /// Link index.
    pub link: usize,
    /// Direction index ([`crate::link::Link::dir_index`]).
    pub dir: usize,
    /// Bytes admitted during the window.
    pub bytes: u64,
    /// Packets tail-dropped during the window.
    pub dropped_pkts: u64,
    /// Window utilization in `[0, 1]` (admitted bits over capacity·window).
    pub util: f64,
}

/// One utilization snapshot: all link directions that saw traffic or drops
/// during the window ending at `t`.
#[derive(Clone, Debug, PartialEq)]
pub struct UtilSnapshot {
    /// Window end (ns).
    pub t: u64,
    /// Window length (ns).
    pub window_ns: u64,
    /// Active directions, ascending `(link, dir)`.
    pub dirs: Vec<LinkDirUtil>,
}

/// Samples [`crate::link::LinkDir`] counters on a fixed cadence and turns
/// the deltas into per-window utilization snapshots. Driven by the
/// simulator's event loop (see `Simulator::enable_util_probe`) so sampling
/// instants are simulated time, deterministic, and bounded by an explicit
/// horizon — the probe never keeps an otherwise-idle simulation alive
/// past `until`.
#[derive(Debug)]
pub struct LinkUtilProbe {
    cadence: SimDuration,
    until: SimTime,
    last_sample: SimTime,
    /// `(bytes_sent, pkts_dropped)` per direction at the previous sample.
    prev: Vec<[(u64, u64); 2]>,
    snapshots: Vec<UtilSnapshot>,
}

impl LinkUtilProbe {
    /// Probe sampling every `cadence` until (and including) `until`.
    pub fn new(cadence: SimDuration, until: SimTime) -> LinkUtilProbe {
        LinkUtilProbe {
            cadence: SimDuration(cadence.0.max(1)),
            until,
            last_sample: SimTime::ZERO,
            prev: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Sampling cadence.
    pub fn cadence(&self) -> SimDuration {
        self.cadence
    }

    /// Sampling horizon.
    pub fn until(&self) -> SimTime {
        self.until
    }

    /// Record the current counters as the window baseline without emitting
    /// a snapshot (called once when the probe is enabled mid-run, so the
    /// first window does not absorb pre-probe traffic).
    pub fn baseline(&mut self, topo: &Topology, now: SimTime) {
        self.prev.clear();
        self.prev.extend(
            topo.links
                .iter()
                .map(|l| [0, 1].map(|di| (l.dirs[di].bytes_sent, l.dirs[di].pkts_dropped))),
        );
        self.last_sample = now;
    }

    /// Take one sample of every link direction at `now`.
    pub fn sample(&mut self, topo: &Topology, now: SimTime) {
        if self.prev.len() != topo.links.len() {
            self.prev.resize(topo.links.len(), [(0, 0); 2]);
        }
        let window_ns = now.saturating_since(self.last_sample).0;
        let window_s = SimDuration(window_ns).as_secs_f64();
        let mut dirs = Vec::new();
        for (li, link) in topo.links.iter().enumerate() {
            for di in 0..2 {
                let d = &link.dirs[di];
                let (pb, pd) = self.prev[li][di];
                let bytes = d.bytes_sent.saturating_sub(pb);
                let dropped_pkts = d.pkts_dropped.saturating_sub(pd);
                self.prev[li][di] = (d.bytes_sent, d.pkts_dropped);
                if bytes == 0 && dropped_pkts == 0 {
                    continue;
                }
                let util = if window_s > 0.0 {
                    (bytes as f64 * 8.0) / (link.bandwidth_bps * window_s)
                } else {
                    0.0
                };
                dirs.push(LinkDirUtil {
                    link: li,
                    dir: di,
                    bytes,
                    dropped_pkts,
                    util,
                });
            }
        }
        self.last_sample = now;
        self.snapshots.push(UtilSnapshot {
            t: now.0,
            window_ns,
            dirs,
        });
    }

    /// Snapshots taken so far, chronological.
    pub fn snapshots(&self) -> &[UtilSnapshot] {
        &self.snapshots
    }

    /// Highest single-window direction utilization observed (0.0 when no
    /// traffic was sampled).
    pub fn peak_util(&self) -> f64 {
        self.snapshots
            .iter()
            .flat_map(|s| s.dirs.iter())
            .map(|d| d.util)
            .fold(0.0, f64::max)
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
