//! Network-wide statistics: the measurement substrate for every experiment.
//!
//! Counters are attributed by ground-truth [`TrafficClass`] (carried on each
//! packet's provenance) and, for drops, by [`DropReason`]. The stop-distance
//! and wasted-bandwidth metrics of experiments E5/E2 come straight from the
//! per-drop and per-delivery hop counts recorded here.

use std::collections::HashMap;

use crate::node::NodeId;
use crate::packet::{Packet, TrafficClass};
use crate::recorder::wire_words;
use crate::time::{SimDuration, SimTime};
use crate::trace::TelemetryHistograms;

wire_words! {
    /// Why a packet died.
    pub enum DropReason {
        /// Tail-dropped at a congested link queue.
        QueueOverflow,
        /// TTL reached zero.
        TtlExpired,
        /// No route to the destination.
        NoRoute,
        /// Delivered to a node with no listening application.
        NoListener,
        /// Static ingress filtering (RFC 2267 baseline).
        IngressFilter,
        /// Anti-spoofing module on an adaptive device (TCS).
        SpoofFilter,
        /// Firewall/classifier module on an adaptive device (TCS).
        DeviceFilter,
        /// Rate-limiter module on an adaptive device (TCS).
        DeviceRateLimit,
        /// Source blacklisted on an adaptive device (TCS).
        Blacklist,
        /// Pushback aggregate rate limit.
        PushbackLimit,
        /// Filter installed from a traceback verdict.
        TracebackFilter,
        /// Rejected at a secure-overlay (SOS/Mayday) perimeter.
        OverlayReject,
        /// Rejected by the i3 indirection defense (direct-IP traffic under
        /// attack).
        IndirectionReject,
        /// Receiving host out of processing capacity (resource exhaustion,
        /// Sec. 2.1).
        HostOverload,
        /// A module violated the device safety contract at run time and the
        /// packet was quarantined.
        SafetyGuard,
    }
}

/// Number of traffic classes: the length of every per-class array,
/// indexed by [`TrafficClass::index`].
pub const N_CLASSES: usize = TrafficClass::ALL.len();

crate::counters! {
    /// Per-class send/deliver/drop counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ClassCounters {}
    counters "" {
        sent_pkts: Sum "Packets emitted",
        sent_bytes: Sum "Bytes emitted",
        delivered_pkts: Sum "Packets delivered to an application",
        delivered_bytes: Sum "Bytes delivered to an application",
        dropped_pkts: Sum "Packets dropped anywhere",
        dropped_bytes: Sum "Bytes dropped anywhere",
        delivered_hops: Sum "Sum of hop counts at delivery (path-length accounting)",
        delivered_byte_hops: Sum "Sum over deliveries of `bytes * hops` (bandwidth actually consumed)",
        dropped_byte_hops: Sum "Sum over drops of `bytes * hops` (bandwidth wasted before the drop)",
    }
}

crate::counters! {
    /// Aggregate for one `(class, reason)` drop bucket.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DropAgg {}
    counters "" {
        pkts: Sum "Packets",
        bytes: Sum "Bytes",
        hops_sum: Sum "Sum of hop counts at the drop point (stop-distance numerator)",
    }
}

/// Time series of delivered bytes at a small set of watched nodes.
///
/// The first node registered via [`Stats::watch`] populates the original
/// `watch`/`delivered_bytes` pair (single-node callers are untouched);
/// further `watch` calls append to `extra`, all sharing the first call's
/// bucket width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Series {
    /// Bucket width (fixed by the first `watch` call).
    pub bucket: SimDuration,
    /// First watched node.
    pub watch: NodeId,
    /// Per-bucket delivered bytes at [`Series::watch`], one slot per
    /// traffic class.
    pub delivered_bytes: Vec<[u64; N_CLASSES]>,
    /// Additional watched nodes and their per-bucket delivered bytes.
    pub extra: Vec<(NodeId, Vec<[u64; N_CLASSES]>)>,
}

impl Series {
    fn record_at(&mut self, now: SimTime, node: NodeId, class: TrafficClass, bytes: u32) {
        let idx = (now.as_nanos() / self.bucket.as_nanos().max(1)) as usize;
        let buckets = if node == self.watch {
            &mut self.delivered_bytes
        } else if let Some((_, b)) = self.extra.iter_mut().find(|(n, _)| *n == node) {
            b
        } else {
            return;
        };
        if idx >= buckets.len() {
            buckets.resize(idx + 1, [0; N_CLASSES]);
        }
        buckets[idx][class.index()] += bytes as u64;
    }

    /// Per-bucket delivered bytes for a watched node; `None` if `node` was
    /// never registered.
    pub fn for_node(&self, node: NodeId) -> Option<&Vec<[u64; N_CLASSES]>> {
        if node == self.watch {
            return Some(&self.delivered_bytes);
        }
        self.extra.iter().find(|(n, _)| *n == node).map(|(_, b)| b)
    }

    /// All watched nodes, registration order.
    pub fn watched_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.watch).chain(self.extra.iter().map(|(n, _)| *n))
    }

    /// Merge another series into this one: per-node buckets add
    /// element-wise (shorter vectors are zero-extended), nodes only one
    /// side watched are adopted, and the result is *canonicalized* — the
    /// lowest watched [`NodeId`] becomes [`Series::watch`], the rest sort
    /// into [`Series::extra`] — so the merged form is independent of
    /// merge order. Both series must share a bucket width; merging two
    /// different clock resolutions is a logic error.
    pub fn merge(&mut self, other: &Series) {
        assert_eq!(
            self.bucket, other.bucket,
            "Series::merge requires equal bucket widths"
        );
        fn add_into(dst: &mut Vec<[u64; N_CLASSES]>, src: &[[u64; N_CLASSES]]) {
            if dst.len() < src.len() {
                dst.resize(src.len(), [0; N_CLASSES]);
            }
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                for (a, b) in d.iter_mut().zip(s.iter()) {
                    *a += b;
                }
            }
        }
        // Fold both sides into one node-keyed map, then lay it back out
        // in NodeId order.
        let mut merged: Vec<(NodeId, Vec<[u64; N_CLASSES]>)> = Vec::new();
        let mut fold = |node: NodeId, buckets: &[[u64; N_CLASSES]]| match merged
            .iter_mut()
            .find(|(n, _)| *n == node)
        {
            Some((_, b)) => add_into(b, buckets),
            None => merged.push((node, buckets.to_vec())),
        };
        fold(self.watch, &self.delivered_bytes);
        for (n, b) in &self.extra {
            fold(*n, b);
        }
        fold(other.watch, &other.delivered_bytes);
        for (n, b) in &other.extra {
            fold(*n, b);
        }
        merged.sort_by_key(|(n, _)| *n);
        let (watch, delivered_bytes) = merged.remove(0);
        self.watch = watch;
        self.delivered_bytes = delivered_bytes;
        self.extra = merged;
    }
}

crate::counters! {
    /// Global statistics collected by the simulator.
    ///
    /// [`Stats::merge`] is the shard-combining operation of the sweep
    /// engine (DESIGN.md §6.6): **commutative**, **associative**, with
    /// `Stats::default()` as the **identity**, so any work-stealing
    /// schedule over independent simulator shards folds to one identical
    /// aggregate. Counters and drop buckets add; telemetry histograms
    /// merge bucket-wise; the timing-wheel high-water marks take the max
    /// (worst shard wins); watched-node series merge element-wise keyed
    /// by node and are canonicalized by [`Series::merge`] so shard
    /// arrival order cannot leak into the result.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Stats {
        /// Per-class counters, indexed by [`TrafficClass::index`].
        pub per_class: [ClassCounters; N_CLASSES] = merge_per_class,
        /// Drop breakdown.
        pub drops: HashMap<(TrafficClass, DropReason), DropAgg> = merge_drops,
        /// Optional watched-node delivery series.
        pub series: Option<Series> = merge_series,
        /// Always-on engine telemetry: queue delay, end-to-end latency and
        /// hop count log2 histograms (DESIGN.md §6.4). Print-only in
        /// reports — never serialized into golden experiment JSON.
        pub hist: TelemetryHistograms = TelemetryHistograms::merge,
    }
    counters "" {
        events: Sum "Simulator events processed",
        /// A nonzero count flags a scheduling bug that, before the clamp,
        /// would have silently rewound the simulated clock in release
        /// builds.
        past_events_clamped: Sum "Events scheduled in the past and clamped (always 0 when healthy)",
        /// Counts `Simulator::set_link_up` calls that changed a link's
        /// state.
        route_link_flips: Sum "Link state flips applied by failure injection",
        /// A flip falls back when its damage covers more than half the
        /// destinations.
        route_full_recomputes: Sum "Flips that fell back to a whole-table route recompute",
        /// `n` per full recompute, only the damaged few per incremental
        /// splice; the ratio to `route_link_flips * n` measures how
        /// localized the churn was.
        route_trees_recomputed: Sum "Destination trees re-derived across all flips",
        /// A runaway slot means pathological same-window event clustering.
        wheel_slot_occupancy_hwm: Max "Timing wheel: deepest any single slot got",
        wheel_len_hwm: Max "Timing wheel: most events pending at once",
        /// See [`Stats::wheel_cascades_per_event`].
        wheel_cascade_moves: Sum "Timing wheel: entries refiled by cascades",
        /// Both paths — scenario injection and agent sends: the fault
        /// plane's denominator.
        cp_msgs: Sum "Control messages pushed through the funnel",
        cp_fault_dropped: Sum "Control messages dropped by the fault plane's loss hash",
        cp_fault_duplicated: Sum "Control messages delivered twice by the fault plane",
        cp_fault_jittered: Sum "Control messages whose delivery was delay-jittered",
        /// The sender's or the receiver's control channel was down.
        cp_outage_dropped: Sum "Control messages swallowed by an outage window",
        /// Both endpoints up, but the directed cut between their sets was
        /// open at push time.
        cp_partition_dropped: Sum "Control messages swallowed by a partition window",
        node_crashes: Sum "Node crashes executed (fault-plane windows plus ad-hoc)",
        /// One per background demand routed through `crate::fluid`.
        fluid_aggregates: Sum "Fluid aggregates installed over the run",
        /// One per tick with live aggregates.
        fluid_ticks: Sum "Fluid admission rounds executed",
        /// Initial resolution plus every re-resolution after a route-epoch
        /// change.
        fluid_recomputes: Sum "Aggregate path recomputations",
        /// Each may trigger many [`Stats::fluid_recomputes`].
        fluid_epoch_invalidations: Sum "Route epoch changes invalidating cached aggregate state",
        /// An attack-class demand, or one with an endpoint in the
        /// packetized set (filtering devices, the victim) — the
        /// fluid/packet boundary.
        fluid_boundary_conversions: Sum "Demands materialized as discrete emitters at the fluid boundary",
    }
}

fn merge_per_class(a: &mut [ClassCounters; N_CLASSES], b: &[ClassCounters; N_CLASSES]) {
    for (c, o) in a.iter_mut().zip(b) {
        c.merge(o);
    }
}

fn merge_drops(
    a: &mut HashMap<(TrafficClass, DropReason), DropAgg>,
    b: &HashMap<(TrafficClass, DropReason), DropAgg>,
) {
    for (k, agg) in b {
        a.entry(*k).or_default().merge(agg);
    }
}

fn merge_series(a: &mut Option<Series>, b: &Option<Series>) {
    match (a.as_mut(), b) {
        (_, None) => {}
        (None, Some(o)) => *a = Some(o.clone()),
        (Some(s), Some(o)) => s.merge(o),
    }
}

impl Stats {
    /// Fresh statistics.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Enable a delivery time series at `watch` with the given bucket
    /// width. May be called repeatedly to watch a small set of nodes;
    /// calls after the first reuse the first call's bucket width, and
    /// re-watching an already-watched node is a no-op.
    pub fn watch(&mut self, watch: NodeId, bucket: SimDuration) {
        match &mut self.series {
            None => {
                self.series = Some(Series {
                    bucket,
                    watch,
                    delivered_bytes: Vec::new(),
                    extra: Vec::new(),
                });
            }
            Some(s) => {
                if s.watch == watch || s.extra.iter().any(|(n, _)| *n == watch) {
                    return;
                }
                s.extra.push((watch, Vec::new()));
            }
        }
    }

    /// Record a packet emission.
    pub fn record_sent(&mut self, pkt: &Packet) {
        let c = &mut self.per_class[pkt.provenance.class.index()];
        c.sent_pkts += 1;
        c.sent_bytes += pkt.size as u64;
    }

    /// Record a delivery to an application at `node`.
    pub fn record_delivered(&mut self, now: SimTime, node: NodeId, pkt: &Packet) {
        let c = &mut self.per_class[pkt.provenance.class.index()];
        c.delivered_pkts += 1;
        c.delivered_bytes += pkt.size as u64;
        c.delivered_hops += pkt.hops as u64;
        c.delivered_byte_hops += pkt.size as u64 * pkt.hops as u64;
        self.hist
            .e2e_latency_ns
            .record(now.saturating_since(pkt.sent_at).as_nanos());
        self.hist.hop_count.record(pkt.hops as u64);
        if let Some(s) = &mut self.series {
            s.record_at(now, node, pkt.provenance.class, pkt.size);
        }
    }

    /// Record a drop.
    pub fn record_dropped(&mut self, pkt: &Packet, reason: DropReason) {
        let class = pkt.provenance.class;
        let c = &mut self.per_class[class.index()];
        c.dropped_pkts += 1;
        c.dropped_bytes += pkt.size as u64;
        c.dropped_byte_hops += pkt.size as u64 * pkt.hops as u64;
        let agg = self.drops.entry((class, reason)).or_default();
        agg.pkts += 1;
        agg.bytes += pkt.size as u64;
        agg.hops_sum += pkt.hops as u64;
    }

    /// Counters for one class.
    pub fn class(&self, class: TrafficClass) -> &ClassCounters {
        &self.per_class[class.index()]
    }

    /// Delivery ratio (delivered/sent packets) for a class; 1.0 when none
    /// were sent.
    pub fn delivery_ratio(&self, class: TrafficClass) -> f64 {
        let c = self.class(class);
        if c.sent_pkts == 0 {
            1.0
        } else {
            c.delivered_pkts as f64 / c.sent_pkts as f64
        }
    }

    /// Mean hop count at which packets of `class` were dropped for `reason`
    /// — the "stop distance from source" of E5. `None` when no such drops.
    pub fn mean_stop_distance(&self, class: TrafficClass, reason: DropReason) -> Option<f64> {
        let agg = self.drops.get(&(class, reason))?;
        if agg.pkts == 0 {
            None
        } else {
            Some(agg.hops_sum as f64 / agg.pkts as f64)
        }
    }

    /// Mean drop distance over all reasons for a class.
    pub fn mean_stop_distance_all(&self, class: TrafficClass) -> Option<f64> {
        let mut pkts = 0u64;
        let mut hops = 0u64;
        for ((c, _), agg) in &self.drops {
            if *c == class {
                pkts += agg.pkts;
                hops += agg.hops_sum;
            }
        }
        if pkts == 0 {
            None
        } else {
            Some(hops as f64 / pkts as f64)
        }
    }

    /// Total bandwidth consumed by attack traffic, in byte·hops (delivered +
    /// wasted-before-drop). This is the paper's "network resources wasted
    /// for transporting attack traffic around the globe" (Sec. 6).
    pub fn attack_byte_hops(&self) -> u64 {
        [TrafficClass::AttackDirect, TrafficClass::AttackReflected]
            .iter()
            .map(|&c| {
                let cc = self.class(c);
                cc.delivered_byte_hops + cc.dropped_byte_hops
            })
            .sum()
    }

    /// Total drops for a reason across classes.
    pub fn drops_for_reason(&self, reason: DropReason) -> DropAgg {
        let mut out = DropAgg::default();
        for ((_, r), agg) in &self.drops {
            if *r == reason {
                out.merge(agg);
            }
        }
        out
    }

    /// Mean cascade refiles per processed event. Should stay roughly
    /// constant (and well below 1) for healthy workload spacing; upward
    /// drift flags event patterns that keep landing in coarse wheel levels.
    /// Zero when no events ran.
    pub fn wheel_cascades_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.wheel_cascade_moves as f64 / self.events as f64
        }
    }

    /// Consistency invariant: for every class,
    /// `delivered + dropped <= sent` (the remainder is in flight).
    pub fn check_conservation(&self) -> Result<(), String> {
        for (i, c) in self.per_class.iter().enumerate() {
            if c.delivered_pkts + c.dropped_pkts > c.sent_pkts {
                return Err(format!(
                    "class {i}: delivered {} + dropped {} > sent {}",
                    c.delivered_pkts, c.dropped_pkts, c.sent_pkts
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::metrics::{Counter, MergeRule};
    use crate::packet::{PacketBuilder, Proto};

    fn mk(class: TrafficClass, size: u32, hops: u8) -> Packet {
        let mut p = PacketBuilder::new(
            Addr::new(NodeId(0), 0),
            Addr::new(NodeId(1), 0),
            Proto::Udp,
            class,
        )
        .size(size)
        .build(1, NodeId(0));
        p.hops = hops;
        p
    }

    #[test]
    fn sent_delivered_dropped_accounting() {
        let mut s = Stats::new();
        let p = mk(TrafficClass::LegitRequest, 100, 3);
        s.record_sent(&p);
        s.record_delivered(SimTime::ZERO, NodeId(1), &p);
        let c = s.class(TrafficClass::LegitRequest);
        assert_eq!(c.sent_pkts, 1);
        assert_eq!(c.delivered_bytes, 100);
        assert_eq!(c.delivered_byte_hops, 300);
        assert_eq!(s.delivery_ratio(TrafficClass::LegitRequest), 1.0);
        s.check_conservation().unwrap();
    }

    #[test]
    fn stop_distance_mean() {
        let mut s = Stats::new();
        for hops in [2u8, 4u8] {
            let p = mk(TrafficClass::AttackDirect, 64, hops);
            s.record_sent(&p);
            s.record_dropped(&p, DropReason::SpoofFilter);
        }
        assert_eq!(
            s.mean_stop_distance(TrafficClass::AttackDirect, DropReason::SpoofFilter),
            Some(3.0)
        );
        assert_eq!(
            s.mean_stop_distance_all(TrafficClass::AttackDirect),
            Some(3.0)
        );
        assert_eq!(
            s.mean_stop_distance(TrafficClass::AttackDirect, DropReason::TtlExpired),
            None
        );
    }

    #[test]
    fn attack_byte_hops_counts_both_flavours() {
        let mut s = Stats::new();
        let d = mk(TrafficClass::AttackDirect, 100, 2);
        s.record_sent(&d);
        s.record_dropped(&d, DropReason::QueueOverflow);
        let r = mk(TrafficClass::AttackReflected, 200, 5);
        s.record_sent(&r);
        s.record_delivered(SimTime::ZERO, NodeId(1), &r);
        assert_eq!(s.attack_byte_hops(), 100 * 2 + 200 * 5);
    }

    #[test]
    fn series_buckets() {
        let mut s = Stats::new();
        s.watch(NodeId(1), SimDuration::from_millis(100));
        let p = mk(TrafficClass::LegitReply, 500, 1);
        s.record_delivered(SimTime::from_millis(50), NodeId(1), &p);
        s.record_delivered(SimTime::from_millis(250), NodeId(1), &p);
        // A delivery at another node is not sampled.
        s.record_delivered(SimTime::from_millis(250), NodeId(9), &p);
        let series = s.series.as_ref().unwrap();
        assert_eq!(series.delivered_bytes.len(), 3);
        let li = TrafficClass::LegitReply.index();
        assert_eq!(series.delivered_bytes[0][li], 500);
        assert_eq!(series.delivered_bytes[1][li], 0);
        assert_eq!(series.delivered_bytes[2][li], 500);
    }

    #[test]
    fn series_watches_multiple_nodes() {
        let mut s = Stats::new();
        s.watch(NodeId(1), SimDuration::from_millis(100));
        s.watch(NodeId(9), SimDuration::from_millis(100));
        s.watch(NodeId(1), SimDuration::from_millis(100)); // duplicate: no-op
        let p = mk(TrafficClass::LegitReply, 500, 1);
        s.record_delivered(SimTime::from_millis(50), NodeId(1), &p);
        s.record_delivered(SimTime::from_millis(250), NodeId(9), &p);
        // A delivery at an unwatched node is not sampled anywhere.
        s.record_delivered(SimTime::from_millis(250), NodeId(4), &p);
        let series = s.series.as_ref().unwrap();
        assert_eq!(
            series.watched_nodes().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(9)]
        );
        let li = TrafficClass::LegitReply.index();
        let first = series.for_node(NodeId(1)).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0][li], 500);
        let extra = series.for_node(NodeId(9)).unwrap();
        assert_eq!(extra.len(), 3);
        assert_eq!(extra[2][li], 500);
        assert!(series.for_node(NodeId(4)).is_none());
        // The original single-node view is untouched by extra watches.
        assert_eq!(series.delivered_bytes[0][li], 500);
    }

    #[test]
    fn delivery_telemetry_histograms_update() {
        let mut s = Stats::new();
        let mut p = mk(TrafficClass::LegitRequest, 100, 3);
        p.sent_at = SimTime::from_millis(10);
        s.record_sent(&p);
        s.record_delivered(SimTime::from_millis(14), NodeId(1), &p);
        assert_eq!(s.hist.e2e_latency_ns.count(), 1);
        assert_eq!(s.hist.e2e_latency_ns.max(), 4_000_000);
        assert_eq!(s.hist.hop_count.max(), 3);
    }

    #[test]
    fn conservation_violation_detected() {
        let mut s = Stats::new();
        let p = mk(TrafficClass::Background, 10, 0);
        s.record_delivered(SimTime::ZERO, NodeId(1), &p); // never sent
        assert!(s.check_conservation().is_err());
    }

    /// Give every counter declared in `table` a distinct value on both
    /// sides (the larger one alternating) and check each comes out of
    /// `merge` as its declared rule says.
    fn check_merge_table<S: Default>(table: &[Counter<S>], merge: fn(&mut S, &S)) {
        let sides = |i: usize| {
            let i = i as u64;
            (100 + 7 * i, 90 + 11 * i)
        };
        let (mut a, mut b) = (S::default(), S::default());
        for (i, c) in table.iter().enumerate() {
            (*(c.get_mut)(&mut a), *(c.get_mut)(&mut b)) = sides(i);
        }
        merge(&mut a, &b);
        assert!(!table.is_empty());
        for (i, c) in table.iter().enumerate() {
            let (x, y) = sides(i);
            let want = match c.rule {
                MergeRule::Sum => x + y,
                MergeRule::Max => x.max(y),
            };
            assert_eq!((c.get)(&a), want, "{} merges as {:?}", c.name, c.rule);
            assert_eq!((c.get)(&b), y, "{} is only read on the right", c.name);
        }
    }

    #[test]
    fn every_declared_counter_merges_by_its_rule() {
        check_merge_table(Stats::COUNTERS, Stats::merge);
        check_merge_table(ClassCounters::COUNTERS, ClassCounters::merge);
        check_merge_table(DropAgg::COUNTERS, DropAgg::merge);
        let max: Vec<&str> = Stats::COUNTERS
            .iter()
            .filter(|c| c.rule == MergeRule::Max)
            .map(|c| c.name)
            .collect();
        assert_eq!(max, ["wheel_slot_occupancy_hwm", "wheel_len_hwm"]);
    }

    #[test]
    fn merge_folds_classes_drop_buckets_and_histograms() {
        let mut a = Stats::new();
        let pa = mk(TrafficClass::LegitRequest, 100, 3);
        a.record_sent(&pa);
        a.record_delivered(SimTime::from_millis(1), NodeId(1), &pa);

        let mut b = Stats::new();
        let pb = mk(TrafficClass::AttackDirect, 64, 2);
        b.record_sent(&pb);
        b.record_dropped(&pb, DropReason::SpoofFilter);

        a.merge(&b);
        assert_eq!(a.class(TrafficClass::LegitRequest).delivered_pkts, 1);
        assert_eq!(a.class(TrafficClass::AttackDirect).dropped_pkts, 1);
        assert_eq!(
            a.drops
                .get(&(TrafficClass::AttackDirect, DropReason::SpoofFilter)),
            Some(&DropAgg {
                pkts: 1,
                bytes: 64,
                hops_sum: 2
            })
        );
        // Telemetry histograms (PR 4) fold bucket-wise: a delivered one
        // packet with 3 hops, b recorded none.
        assert_eq!(a.hist.e2e_latency_ns.count(), 1);
        assert_eq!(a.hist.hop_count.count(), 1);
        assert_eq!(a.hist.hop_count.max(), 3);
        a.check_conservation().unwrap();
    }

    #[test]
    fn merge_with_default_is_identity_both_ways() {
        let mut a = Stats::new();
        let p = mk(TrafficClass::LegitReply, 100, 3);
        a.record_sent(&p);
        a.record_delivered(SimTime::from_millis(4), NodeId(1), &p);
        a.watch(NodeId(1), SimDuration::from_millis(100));
        a.record_delivered(SimTime::from_millis(5), NodeId(1), &p);
        a.events = 7;
        let snapshot = a.clone();
        a.merge(&Stats::default());
        assert_eq!(a, snapshot, "right identity");
        let mut d = Stats::default();
        d.merge(&snapshot);
        assert_eq!(d, snapshot, "left identity");
    }

    #[test]
    fn merge_series_is_node_keyed_and_canonical() {
        let p = mk(TrafficClass::LegitReply, 500, 1);
        let mut a = Stats::new();
        a.watch(NodeId(9), SimDuration::from_millis(100));
        a.watch(NodeId(1), SimDuration::from_millis(100));
        a.record_delivered(SimTime::from_millis(50), NodeId(9), &p);
        a.record_delivered(SimTime::from_millis(150), NodeId(1), &p);
        let mut b = Stats::new();
        b.watch(NodeId(1), SimDuration::from_millis(100));
        b.record_delivered(SimTime::from_millis(150), NodeId(1), &p);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "series merge is commutative after canonicalization");
        let s = ab.series.as_ref().unwrap();
        assert_eq!(s.watch, NodeId(1), "lowest watched node becomes primary");
        let li = TrafficClass::LegitReply.index();
        assert_eq!(s.for_node(NodeId(1)).unwrap()[1][li], 1000);
        assert_eq!(s.for_node(NodeId(9)).unwrap()[0][li], 500);
    }

    #[test]
    fn drops_for_reason_sums_classes() {
        let mut s = Stats::new();
        let a = mk(TrafficClass::AttackDirect, 10, 1);
        let b = mk(TrafficClass::LegitRequest, 20, 2);
        s.record_sent(&a);
        s.record_sent(&b);
        s.record_dropped(&a, DropReason::IngressFilter);
        s.record_dropped(&b, DropReason::IngressFilter);
        let agg = s.drops_for_reason(DropReason::IngressFilter);
        assert_eq!(agg.pkts, 2);
        assert_eq!(agg.bytes, 30);
    }
}
