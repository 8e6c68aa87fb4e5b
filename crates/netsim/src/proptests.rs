//! Property tests — seeded loops over [`crate::rng::check_cases`] — for the
//! engine's invariants that every experiment rides on:
//!
//! * the timing wheel must pop events in *exactly* the order the
//!   `(time, seq)` binary heap it replaced would have (DESIGN.md §6.2);
//! * incremental route repair must leave tables bit-identical to a cold
//!   `Routing::compute` at every step of any link-flap schedule, and
//!   `Routing::changed_at` must be past the epoch of any earlier step a
//!   destination's row has moved since (DESIGN.md §6.1);
//! * a full (unsampled) lifecycle trace must reconcile *exactly* with the
//!   [`crate::stats::Stats`] counters: one `Deliver` per delivery, one
//!   `LinkDrop`/`ModuleVerdict` per counted drop, bucket by bucket
//!   (DESIGN.md §6.4).

#![cfg(test)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::node::{LinkId, NodeId};
use crate::rng::{check_cases, seeded, ChaCha8Rng};
use crate::routing::Routing;
use crate::topology::Topology;
use crate::wheel::TimingWheel;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::addr::Addr;
use crate::agent::{AgentCtx, NodeAgent, Verdict};
use crate::packet::{Packet, PacketBuilder, Proto, TrafficClass};
use crate::sim::Simulator;
use crate::stats::DropReason;
use crate::trace::FlightRecorder;

/// Test agent dropping one protocol (a stand-in for any filtering module).
struct BlockProto(Proto);

impl NodeAgent for BlockProto {
    fn name(&self) -> &'static str {
        "block-proto"
    }
    fn on_packet(
        &mut self,
        _ctx: &mut AgentCtx<'_>,
        pkt: &mut Packet,
        _from: Option<LinkId>,
    ) -> Verdict {
        if pkt.proto == self.0 {
            Verdict::Drop(DropReason::DeviceFilter)
        } else {
            Verdict::Forward
        }
    }
}

/// Reference scheduler: the exact `(time, seq)` min-ordering the old
/// `BinaryHeap<EventEntry>` implemented.
#[derive(Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl RefHeap {
    fn push(&mut self, time: u64, seq: u64) {
        self.heap.push(Reverse((time, seq)));
    }

    fn pop_next(&mut self, limit: u64) -> Option<(u64, u64)> {
        match self.heap.peek() {
            Some(&Reverse((t, _))) if t <= limit => {
                let Reverse(key) = self.heap.pop().unwrap();
                Some(key)
            }
            _ => None,
        }
    }
}

/// Time offsets mixing same-tick bursts (0), near-uniform spacing (the
/// steady workload the wheel is tuned for) and far jumps that force
/// multi-level cascades, weighted 4 : 8 : 2 : 1.
fn offset(rng: &mut ChaCha8Rng) -> u64 {
    match rng.gen_range(0..15u32) {
        0..=3 => 0,                                  // same-tick burst
        4..=11 => rng.gen_range(1..20_000),          // per-hop delays / timers
        12..=13 => rng.gen_range(20_000..5_000_000), // coarse timers
        _ => rng.gen_range(5_000_000..(1u64 << 40)), // idle gaps across cascade levels
    }
}

/// Batch workload: push a random multiset of times (with bursts of
/// identical ticks), then drain. Pop order must equal the reference
/// heap's exactly, including seq tie-breaks within a tick.
#[test]
fn wheel_drains_in_heap_order() {
    check_cases(0..256, |rng| {
        let offsets: Vec<u64> = (0..rng.gen_range(1..400usize))
            .map(|_| offset(rng))
            .collect();
        let mut wheel = TimingWheel::new();
        let mut heap = RefHeap::default();
        let mut t = 0u64;
        for (seq, &off) in offsets.iter().enumerate() {
            // Random walk keeps times non-decreasing only on average;
            // revisit earlier ticks by alternating small and zero offsets.
            t = t.wrapping_add(off) % (1u64 << 41);
            wheel.push(t, seq as u64, ());
            heap.push(t, seq as u64);
        }
        loop {
            let expect = heap.pop_next(u64::MAX);
            let got = wheel.pop_next(u64::MAX).map(|e| (e.time, e.seq));
            assert_eq!(got, expect);
            if got.is_none() {
                break;
            }
        }
        assert!(wheel.is_empty());
        assert_eq!(wheel.capacity(), wheel.len_hwm());
    });
}

/// Interleaved workload shaped like the simulator's run loop: pops
/// (some bounded by a `run_until`-style limit) alternate with pushes
/// whose times are offsets from the last popped instant — exactly the
/// "handler schedules relative to now" pattern. The wheel and the
/// reference heap must agree on every single answer.
#[test]
fn wheel_matches_heap_under_interleaved_push_pop() {
    check_cases(0..256, |rng| {
        // 3 : 2 : 1 — push now+offset, unbounded pop, bounded pop marker.
        let ops: Vec<Option<u64>> = (0..rng.gen_range(1..300usize))
            .map(|_| match rng.gen_range(0..6u32) {
                0..=2 => Some(offset(rng)),
                3..=4 => None,
                _ => Some(u64::MAX - rng.gen_range(1..100_000u64)),
            })
            .collect();
        let mut wheel = TimingWheel::new();
        let mut heap = RefHeap::default();
        let mut now = 0u64;
        let mut seq = 0u64;
        for op in ops {
            match op {
                Some(x) if x > u64::MAX - 100_000 => {
                    // Bounded pop: limit a little past `now`. Per the
                    // run_until contract, a `None` answer advances the
                    // clock to the limit (the wheel may have cascaded up
                    // to it); a `Some` advances it to the popped time.
                    let limit = now + (u64::MAX - x);
                    let expect = heap.pop_next(limit);
                    let got = wheel.pop_next(limit).map(|e| (e.time, e.seq));
                    assert_eq!(got, expect);
                    now = match got {
                        Some((t, _)) => t,
                        None => limit,
                    };
                }
                Some(off) => {
                    let t = now.saturating_add(off);
                    wheel.push(t, seq, ());
                    heap.push(t, seq);
                    seq += 1;
                }
                None => {
                    let expect = heap.pop_next(u64::MAX);
                    let got = wheel.pop_next(u64::MAX).map(|e| (e.time, e.seq));
                    assert_eq!(got, expect);
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
            }
        }
        // Drain the remainder; orders must stay identical to the end.
        loop {
            let expect = heap.pop_next(u64::MAX);
            let got = wheel.pop_next(u64::MAX).map(|e| (e.time, e.seq));
            assert_eq!(got, expect);
            if got.is_none() {
                break;
            }
        }
        assert_eq!(wheel.capacity(), wheel.len_hwm());
    });
}

/// Link-flap churn: random schedules where each step flips one to
/// three links *in the same tick* (consecutive flips with no recompute
/// or query between them). Asserts, at every step:
///
/// * the incrementally spliced tables equal a cold
///   [`Routing::compute`] on the flipped topology bit for bit
///   (next-hop, distance, cost and stamp planes);
/// * [`Routing::changed_at`] is sound against every earlier step: a
///   destination whose next-hop column differs from the snapshot taken
///   at epoch `e` has `changed_at > e` — what a cache synced at `e`
///   relies on, however many flips it slept through — and a flip that
///   rebuilt the whole table marks every destination.
#[test]
fn flap_schedule_keeps_tables_exact_and_changed_at_sound() {
    check_cases(0..256, |rng| {
        let topo_seed = rng.gen_range(0..10_000u64);
        let ops: Vec<u64> = (0..rng.gen_range(2..8usize))
            .map(|_| rng.gen_range(0..3))
            .collect();
        let mut topo = Topology::barabasi_albert(26, 2, 0.1, topo_seed);
        let n = topo.n();
        let n_links = topo.links.len();
        let mut routing = Routing::compute(&topo);
        let column = |r: &Routing, d: usize| -> Vec<Option<LinkId>> {
            (0..n).map(|u| r.next_hop(NodeId(u), NodeId(d))).collect()
        };
        // (epoch, tables as they stood at that epoch), one per step.
        let mut snapshots = vec![(0, routing.clone())];
        let mut rng = seeded(topo_seed ^ 0xF1A9);
        for (i, &op) in ops.iter().enumerate() {
            // 1..=3 flips in one tick; links may repeat (down then up).
            for _ in 0..=op {
                let l = LinkId(rng.gen_range(0..n_links));
                topo.links[l.0].up = !topo.links[l.0].up;
                if routing.apply_link_flip(&topo, l).full {
                    for d in 0..n {
                        assert_eq!(routing.changed_at(NodeId(d)), routing.epoch());
                    }
                }
            }
            let cold = Routing::compute(&topo);
            assert!(routing.tables_match(&cold), "step {}: tables diverged", i);
            for (e, then) in &snapshots {
                for d in 0..n {
                    let at = routing.changed_at(NodeId(d));
                    assert!(at <= routing.epoch());
                    assert!(
                        at > *e || column(&routing, d) == column(then, d),
                        "step {}: dst {} moved after epoch {} but changed_at says {}",
                        i,
                        d,
                        e,
                        at
                    );
                }
            }
            snapshots.push((routing.epoch(), cold));
        }
    });
}

/// Drop/delivery reconciliation: with full (1-in-1) sampling and a
/// ring large enough to avoid eviction, the trace must contain exactly
/// one `Deliver` event per counted delivery and exactly one drop event
/// per counted drop, matching [`crate::stats::Stats::drops`] bucket by
/// `(class, reason)` bucket — over workloads mixing deliveries, module
/// drops, TTL expiries, unroutable packets and queue overflows.
#[test]
fn full_trace_reconciles_with_stats_exactly() {
    check_cases(0..256, |rng| {
        let topo_seed = rng.gen_range(0..5_000u64);
        let n_pkts = rng.gen_range(20..120usize);
        let squeeze = rng.gen_range(0..2u64);
        let mut topo = Topology::barabasi_albert(24, 2, 0.1, topo_seed);
        if squeeze == 1 {
            // Tiny queues force QueueOverflow (LinkDrop) events.
            for l in &mut topo.links {
                l.queue_limit_bytes = 600;
            }
        }
        let lonely = topo.add_node(crate::node::NodeRole::Stub);
        let n = 24usize;
        let mut sim = Simulator::new(topo, topo_seed ^ 0x51E0);
        let rec = Arc::new(Mutex::new(FlightRecorder::new(1 << 18)));
        sim.set_trace_sink(Box::new(rec.clone()), 1);
        sim.add_agent(NodeId(1), Box::new(BlockProto(Proto::TcpSyn)));
        let dst = Addr::new(NodeId(1), 1);
        sim.install_app(dst, Box::new(crate::app::SinkApp));
        let mut rng = seeded(topo_seed ^ 0xD0C5);
        for i in 0..n_pkts {
            let src = NodeId(rng.gen_range(0..n));
            let (to, proto, ttl, class) = match i % 5 {
                0 => (dst, Proto::TcpSyn, 64, TrafficClass::AttackDirect),
                1 => (
                    Addr::new(lonely, 1),
                    Proto::Udp,
                    64,
                    TrafficClass::Background,
                ),
                2 => (dst, Proto::Udp, 2, TrafficClass::Background),
                // An address with no app: NoListener at the destination.
                3 => (
                    Addr::new(NodeId(2), 9),
                    Proto::Udp,
                    64,
                    TrafficClass::Background,
                ),
                _ => (dst, Proto::Udp, 64, TrafficClass::LegitRequest),
            };
            sim.emit_now(
                src,
                PacketBuilder::new(Addr::new(src, 1), to, proto, class)
                    .ttl(ttl)
                    .size(400)
                    .flow(i as u64),
            );
        }
        sim.run_to_idle();
        sim.stats.check_conservation().unwrap();
        let rec = rec.lock().unwrap();
        assert_eq!(rec.evicted(), 0, "ring too small for exact reconciliation");
        let mut traced_drops: HashMap<(TrafficClass, DropReason), u64> = HashMap::new();
        let mut traced_delivers = 0u64;
        let mut traced_emits = 0u64;
        for ev in rec.events() {
            match ev {
                crate::trace::TraceEvent::Deliver { .. } => traced_delivers += 1,
                crate::trace::TraceEvent::Emit { .. } => traced_emits += 1,
                _ => {
                    if let Some(bucket) = ev.drop_bucket() {
                        *traced_drops.entry(bucket).or_default() += 1;
                    }
                }
            }
        }
        let sent: u64 = sim.stats.per_class.iter().map(|c| c.sent_pkts).sum();
        let delivered: u64 = sim.stats.per_class.iter().map(|c| c.delivered_pkts).sum();
        assert_eq!(traced_emits, sent);
        assert_eq!(traced_delivers, delivered);
        // Every stats bucket matches the trace count, and vice versa.
        for (bucket, agg) in &sim.stats.drops {
            assert_eq!(
                traced_drops.get(bucket).copied().unwrap_or(0),
                agg.pkts,
                "bucket {:?} traced != counted",
                bucket
            );
        }
        for (bucket, cnt) in &traced_drops {
            assert_eq!(
                sim.stats.drops.get(bucket).map(|a| a.pkts).unwrap_or(0),
                *cnt,
                "trace bucket {:?} has no matching stats",
                bucket
            );
        }
    });
}

/// A bounded pop that answers `None` must leave the wheel able to
/// accept pushes at any time ≥ the bound (the `run_until` contract:
/// the wheel never advances past the limit).
#[test]
fn bounded_none_preserves_pushability() {
    check_cases(0..256, |rng| {
        let far = rng.gen_range((1u64 << 20)..(1u64 << 45));
        let limit_frac = rng.gen_range(0.0..1.0);
        let later = rng.gen_range(0..1_000_000u64);
        let mut wheel = TimingWheel::new();
        wheel.push(far, 0, ());
        let limit = (far as f64 * limit_frac) as u64;
        if limit < far {
            assert!(wheel.pop_next(limit).is_none());
            // Pushing anywhere in [limit, far] must still be legal and
            // ordered before the far event.
            let t = limit.saturating_add(later).min(far);
            wheel.push(t, 1, ());
            let first = wheel.pop_next(u64::MAX).unwrap();
            if t < far {
                assert_eq!((first.time, first.seq), (t, 1));
            } else {
                // Same tick: seq 0 was pushed first and must win.
                assert_eq!((first.time, first.seq), (far, 0));
            }
        }
        assert_eq!(wheel.capacity(), wheel.len_hwm());
    });
}

// --- Stats::merge shard algebra (DESIGN.md §6.6) -------------------------
//
// The sweep engine folds per-shard `Stats` with `Stats::merge` under an
// arbitrary work-stealing schedule, so the operation must form a
// commutative monoid: any merge order, any grouping, must produce one
// identical aggregate, and `Stats::default()` must be a true identity.

use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};

/// One randomized `Stats`: per-class counter bumps, drop-bucket bumps,
/// histogram samples (independent queue-delay / end-to-end-latency /
/// hop-count streams), engine scalars, control-plane fault counters,
/// fluid-layer counters, and — half the time — watched-series
/// deliveries.
fn arb_stats(rng: &mut ChaCha8Rng) -> Stats {
    let mut below = |bound: u64| rng.gen_range(0..bound);
    let mut s = Stats::new();
    for _ in 0..below(8) {
        let c = &mut s.per_class[below(TrafficClass::ALL.len() as u64) as usize];
        let (sent, delivered, bytes) = (below(1_000_000), below(1_000_000), below(1_000_000));
        c.sent_pkts += sent;
        c.sent_bytes += bytes;
        c.delivered_pkts += delivered;
        c.delivered_bytes += bytes / 2;
        c.dropped_pkts += sent / 3;
        c.dropped_bytes += bytes / 3;
        c.delivered_hops += delivered.wrapping_mul(3) % (1 << 20);
        c.delivered_byte_hops += (bytes / 2).wrapping_mul(4) % (1 << 30);
        c.dropped_byte_hops += (bytes / 3).wrapping_mul(5) % (1 << 30);
    }
    for _ in 0..below(8) {
        let key = (
            TrafficClass::ALL[below(TrafficClass::ALL.len() as u64) as usize],
            DropReason::ALL[below(DropReason::ALL.len() as u64) as usize],
        );
        let (pkts, bytes, mean_hops) = (below(10_000), below(1_000_000), below(64));
        let agg = s.drops.entry(key).or_default();
        agg.pkts += pkts;
        agg.bytes += bytes;
        agg.hops_sum += pkts.saturating_mul(mean_hops);
    }
    for _ in 0..below(16) {
        // Independent streams per histogram: a merge bug confined to one
        // of the three can no longer hide behind correlated samples.
        s.hist.queue_delay_ns.record(below(1_000_000_000));
        s.hist.e2e_latency_ns.record(below(1_000_000_000));
        s.hist.hop_count.record(below(32));
    }
    s.events = below(1_000_000);
    s.past_events_clamped = below(100);
    s.route_link_flips = below(1_000);
    s.route_full_recomputes = below(1_000).min(s.route_link_flips);
    s.route_trees_recomputed = s.route_link_flips * 2;
    s.wheel_slot_occupancy_hwm = below(10_000);
    s.wheel_len_hwm = below(100_000);
    s.wheel_cascade_moves = s.events / 7;
    s.cp_msgs = below(10_000);
    s.cp_fault_dropped = below(10_000).min(s.cp_msgs);
    s.cp_fault_duplicated = below(10_000).min(s.cp_msgs);
    s.cp_fault_jittered = below(10_000).min(s.cp_msgs);
    s.cp_outage_dropped = below(10_000).min(s.cp_msgs);
    s.cp_partition_dropped = below(10_000).min(s.cp_msgs);
    s.node_crashes = below(100);
    s.fluid_aggregates = below(10_000);
    s.fluid_ticks = below(100_000);
    s.fluid_recomputes = below(10_000);
    s.fluid_epoch_invalidations = below(1_000).min(s.fluid_recomputes);
    s.fluid_boundary_conversions = below(1_000).min(s.fluid_aggregates);
    if below(2) == 1 {
        for _ in 0..below(6) {
            let node = NodeId(below(5) as usize);
            // All generated series share one bucket width (merging
            // different clock resolutions is a contract violation).
            s.watch(node, SimDuration::from_millis(100));
            let pkt = PacketBuilder::new(
                Addr::new(NodeId(0), 0),
                Addr::new(node, 0),
                Proto::Udp,
                TrafficClass::LegitReply,
            )
            .size(1 + below(99_999) as u32)
            .build(1, NodeId(0));
            s.record_delivered(SimTime::from_millis(below(4) * 100 + 50), node, &pkt);
        }
    }
    s
}

/// merge(a, b) == merge(b, a) — shard arrival order cannot matter.
#[test]
fn stats_merge_commutes() {
    check_cases(0..96, |rng| {
        let (a, b) = (arb_stats(rng), arb_stats(rng));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    });
}

/// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) — shard grouping cannot matter.
#[test]
fn stats_merge_associates() {
    check_cases(0..96, |rng| {
        let (a, b, c) = (arb_stats(rng), arb_stats(rng), arb_stats(rng));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    });
}

/// `Stats::default()` is a two-sided identity for merge.
#[test]
fn stats_merge_default_is_identity() {
    check_cases(0..96, |rng| {
        let a = arb_stats(rng);
        let mut l = a.clone();
        l.merge(&Stats::default());
        assert_eq!(l, a);
        let mut r = Stats::default();
        r.merge(&a);
        assert_eq!(r, a);
    });
}
