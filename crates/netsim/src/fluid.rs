//! Fluid background-traffic layer: flow aggregates with closed-form link
//! admission (DESIGN.md §6.8).
//!
//! Steady background traffic does not need per-packet wheel events to be
//! measured faithfully — it needs its *rates* routed and admitted. This
//! module models each background demand as one **aggregate** — a rate per
//! (src, dst, path) stored in struct-of-arrays form — and replaces the
//! per-packet inner loop with a per-tick flat array fold:
//!
//! 1. **Path cache, epoch-subscribed.** Every aggregate caches its
//!    forwarding path as a flat run of link directions. Paths are
//!    re-resolved only when [`crate::routing::Routing::epoch`] moves, and
//!    then only for the aggregates whose destination's row moved since
//!    the cache last looked: [`crate::routing::Routing::changed_at`]`(dst)`
//!    is past the cache's epoch. That is the whole rule, however many
//!    flips fell between two ticks. A rebuild also collects the
//!    **direction set** — the distinct link directions some cached path
//!    crosses — and every per-direction array is sized by that set, not by
//!    the topology.
//! 2. **Closed-form admission, run to its fixed point.** Per
//!    (link-direction, tick), the offered rate is the sum over aggregates
//!    whose cached path crosses it, thinned by upstream admission; the
//!    admitted fraction is `min(1, available/offered)` — proportional
//!    share. One walk over the cached paths computes offered load and
//!    every aggregate's result under the current fractions; the
//!    fractions are then recomputed, and the tick stops at the first
//!    update that moves none of them (at most [`SETTLE_ROUNDS`] updates,
//!    then one closing walk). The last walk's numbers are the tick's
//!    accounting, so an uncongested tick costs one walk. Available
//!    capacity is the direction's *residual* after the discrete packet
//!    engine's virtual-queue state ([`crate::link::LinkDir::next_free`]):
//!    discrete backlog thins fluid admission. The coupling is one way — a
//!    tick only reads links, so fluid load never queues a packet.
//!    A **steady** tick walks nothing: the first walk of an ordinary tick
//!    is the direction set's load under full admission, and once it is
//!    recorded, a tick with the same paths, window length and live
//!    aggregates only checks that the load still fits what each direction
//!    has free. Only a direction the packet engine has touched can have
//!    less than its whole window free, so the check reads only those: the
//!    simulator logs each direction a discrete hop is offered to and both
//!    directions of a flipped link ([`FluidLayer::touch`]), and the log
//!    keeps, from tick to tick, the set's directions still backlogged or
//!    down. If the load fits, no fraction would move, and the tick credits
//!    every aggregate its whole offer — bit for bit what the walk would;
//!    an aggregate that has never lost a byte is reported with one
//!    division.
//! 3. **Exact conservation at the boundary.** All rate accounting runs in
//!    f64 byte accumulators, but [`crate::stats::Stats`] only ever sees
//!    whole packets derived by *flooring cumulative* counters
//!    (`floor(delivered) + floor(sent - delivered) <= floor(sent)`), so the
//!    engine-wide `delivered + dropped <= sent` gate stays exact with the
//!    fluid layer on. What an aggregate sends and does not deliver is
//!    congestion (or, unrouted, `NoRoute`): nothing in this layer filters.
//!
//! Defences judge packets, never rates, so discrete packets survive where
//! the paper's observables live — attack traffic, filtering devices and
//! the victim. A demand whose class is an attack class, or that touches
//! the [`crate::sim::Simulator`]'s *packetized* node set, materializes as a
//! discrete constant-bit-rate emitter instead of an aggregate (counted in
//! [`crate::stats::Stats::fluid_boundary_conversions`]), so those packets
//! still traverse agent chains, produce module verdicts and trace events.

use crate::addr::Addr;
use crate::link::Link;
use crate::packet::{Proto, TrafficClass};
use crate::routing::Routing;
use crate::stats::{DropReason, Stats};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// Bound on admitted-fraction updates per tick: update `k` recomputes each
/// direction's fraction from the load walk `k` offered it, which was
/// thinned by update `k-1`'s upstream fractions. A tick stops at the first
/// update that moves no fraction — the walk before it already ran on the
/// settled ones — or after `SETTLE_ROUNDS` updates and one closing walk.
/// Two updates settle chains of bottlenecks to well under the fluid/packet
/// equivalence tolerance.
const SETTLE_ROUNDS: usize = 2;

/// Does a direction offered `offered` bytes admit them whole, given
/// `avail`? The one test behind every admitted fraction.
fn fits(offered: f64, avail: f64) -> bool {
    !(offered > avail && offered > 0.0)
}

/// Bytes `link` carries in `secs` seconds at its bandwidth.
fn capacity(link: &Link, secs: f64) -> f64 {
    secs * link.bandwidth_bps / 8.0
}

/// Direction `d`'s residual capacity in the window `(last, now]`: what
/// the discrete packets' backlog (`next_free`) leaves idle, zero on a
/// down link.
fn residual(topo: &Topology, d: u32, last: SimTime, now: SimTime) -> f64 {
    let link = &topo.links[d as usize / 2];
    let idle_from = link.dirs[d as usize % 2].next_free.max(last);
    if link.up && now > idle_from {
        capacity(link, (now - idle_from).as_secs_f64())
    } else {
        0.0
    }
}

/// Is direction `d` down, or backlogged past `now`? Such a direction
/// stays in the steady tick's log (see [`FluidLayer::touch`]).
fn busy(topo: &Topology, d: u32, now: SimTime) -> bool {
    let link = &topo.links[d as usize / 2];
    !link.up || link.dirs[d as usize % 2].next_free > now
}

/// One background traffic demand, before the simulator decides whether it
/// lives as a fluid aggregate or as discrete constant-bit-rate packets
/// (see [`crate::sim::Simulator::add_background_demand`]).
#[derive(Clone, Copy, Debug)]
pub struct FluidDemand {
    /// Source address (host granularity, like any packet).
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Protocol the equivalent packets would carry.
    pub proto: Proto,
    /// Ground-truth traffic class charged in [`Stats`].
    pub class: TrafficClass,
    /// Offered rate in bits per second.
    pub rate_bps: f64,
    /// Size of the equivalent packets, bytes (also the quantum for the
    /// cumulative-floor packet accounting).
    pub pkt_size: u32,
    /// The demand stops offering traffic at this instant.
    pub until: SimTime,
}

/// The fluid traffic engine: aggregates in SoA form plus the per-tick
/// admission scratch. Owned by the simulator; ticks ride the event queue.
pub struct FluidLayer {
    tick: SimDuration,
    last_tick_at: SimTime,
    /// Is a tick event currently scheduled? (Re-armed by demand adds.)
    pub(crate) armed: bool,

    // --- aggregate columns (SoA) --------------------------------------
    src: Vec<Addr>,
    dst: Vec<Addr>,
    class: Vec<TrafficClass>,
    rate_bps: Vec<f64>,
    pkt_size: Vec<u32>,
    added_at: Vec<SimTime>,
    until: Vec<SimTime>,
    has_route: Vec<bool>,
    resolved: Vec<bool>,

    // --- cached paths (flat arena, rebuilt on invalidation) -----------
    path_off: Vec<u32>,
    path_len: Vec<u32>,
    /// Indices into `dirs`, path order.
    path_dirs: Vec<u32>,
    /// Forwarding node entering each dir (same indexing as `path_dirs`).
    path_nodes: Vec<u32>,

    // --- cumulative byte accounting (reported via floors) --------------
    cum_sent: Vec<f64>,
    cum_deliv: Vec<f64>,
    cum_cdrop_hops: Vec<f64>,
    rep_sent: Vec<u64>,
    rep_deliv: Vec<u64>,
    rep_cdrop: Vec<u64>,
    rep_cdrop_hops: Vec<u64>,

    /// Routing epoch the cached paths were checked against.
    route_epoch: u64,

    // --- the direction set and its per-direction columns ---------------
    /// Link-direction ids (`link.0 * 2 + dir_index`), ascending and
    /// distinct: exactly the directions some cached path crosses. Rebuilt
    /// with the paths; the three columns below are indexed like it.
    dirs: Vec<u32>,
    offered: Vec<f64>,
    frac: Vec<f64>,
    avail: Vec<f64>,

    // --- per-aggregate scratch of the current tick -----------------------
    /// Seconds of each aggregate's lifetime inside the tick's window,
    /// computed once per tick; sized by the first tick that walks, not
    /// grown with the columns in `add`.
    secs: Vec<f64>,
    /// Delivered and hop-weighted dropped bytes of the latest walk.
    w_deliv: Vec<f64>,
    w_cdrop_hops: Vec<f64>,

    // --- the steady-tick record -----------------------------------------
    /// What the record is good for, or `None` when there is none.
    steady: Option<Steady>,
    /// Per direction in the set (indexed like `dirs`): the bytes a window
    /// offers it when every live aggregate is admitted whole.
    load: Vec<f64>,
    /// Global direction ids whose `next_free` or `up` may have moved since
    /// the last tick, plus the set's directions that were backlogged past
    /// it or down then: every direction of the set that is not in here is
    /// up and idle from the last tick on. Sized by the hops since the last
    /// tick, never by the topology.
    touched: Vec<u32>,

    /// The latest `until` of any aggregate: the layer is live before it.
    latest_until: SimTime,
    /// Some aggregate's path needs (re-)resolving.
    unresolved: bool,
    /// Path walks made so far, all ticks (see [`FluidLayer::walks`]).
    walks: u64,
    /// Ticks that walked nothing (see [`FluidLayer::steady_ticks`]).
    steady_ticks: u64,
}

/// The key of the recorded `load`: it is the set's load in any window of
/// length `window` in which the aggregates alive for the whole of the
/// recording window are again alive for the whole of it and no other
/// aggregate is alive at all. Paths come with the direction set, and
/// [`FluidLayer::resolve_paths`] drops the record with the set; an added
/// aggregate drops it too. Aggregates only ever leave after that, so the
/// key holds until the first of those still alive ends, `live_until`.
/// A direction's bandwidth is fixed once a simulator is built (nothing
/// moves it), so its whole-window capacity is part of the key too.
#[derive(Clone, Copy, Debug)]
struct Steady {
    window: SimDuration,
    live_until: SimTime,
}

impl FluidLayer {
    /// Fresh layer ticking every `tick`, starting its first accounting
    /// window at `now` against routing `epoch`.
    pub(crate) fn new(tick: SimDuration, now: SimTime, epoch: u64) -> FluidLayer {
        assert!(tick > SimDuration::ZERO, "fluid tick must be positive");
        FluidLayer {
            tick,
            last_tick_at: now,
            armed: false,
            src: Vec::new(),
            dst: Vec::new(),
            class: Vec::new(),
            rate_bps: Vec::new(),
            pkt_size: Vec::new(),
            added_at: Vec::new(),
            until: Vec::new(),
            has_route: Vec::new(),
            resolved: Vec::new(),
            path_off: Vec::new(),
            path_len: Vec::new(),
            path_dirs: Vec::new(),
            path_nodes: Vec::new(),
            cum_sent: Vec::new(),
            cum_deliv: Vec::new(),
            cum_cdrop_hops: Vec::new(),
            rep_sent: Vec::new(),
            rep_deliv: Vec::new(),
            rep_cdrop: Vec::new(),
            rep_cdrop_hops: Vec::new(),
            route_epoch: epoch,
            dirs: Vec::new(),
            offered: Vec::new(),
            frac: Vec::new(),
            avail: Vec::new(),
            secs: Vec::new(),
            w_deliv: Vec::new(),
            w_cdrop_hops: Vec::new(),
            steady: None,
            load: Vec::new(),
            touched: Vec::new(),
            latest_until: SimTime::ZERO,
            unresolved: false,
            walks: 0,
            steady_ticks: 0,
        }
    }

    /// The tick interval.
    pub fn tick_len(&self) -> SimDuration {
        self.tick
    }

    /// Walks over the cached paths made so far: none in a steady tick
    /// (see [`FluidLayer::steady_ticks`]), one in any other tick that
    /// found no direction over capacity, at most `SETTLE_ROUNDS + 1`
    /// otherwise.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Ticks settled without a walk: the recorded load still fitted every
    /// direction, so each live aggregate was credited its whole offer.
    pub fn steady_ticks(&self) -> u64 {
        self.steady_ticks
    }

    /// Log global direction `d` (`link.0 * 2 + dir_index`): the packet
    /// engine offered it a packet or flipped its link since the last tick.
    /// The simulator calls this while a tick is armed; an unarmed layer's
    /// next tick resolves its paths, which seeds the log afresh.
    pub(crate) fn touch(&mut self, d: u32) {
        self.touched.push(d);
    }

    /// Install an aggregate for `d`; its path resolves on the next tick.
    /// [`crate::sim::Simulator::add_background_demand`] has validated it.
    pub(crate) fn add(&mut self, d: &FluidDemand, now: SimTime) {
        self.src.push(d.src);
        self.dst.push(d.dst);
        self.class.push(d.class);
        self.rate_bps.push(d.rate_bps);
        self.pkt_size.push(d.pkt_size);
        self.added_at.push(now);
        self.until.push(d.until);
        self.has_route.push(false);
        self.resolved.push(false);
        self.path_off.push(0);
        self.path_len.push(0);
        self.cum_sent.push(0.0);
        self.cum_deliv.push(0.0);
        self.cum_cdrop_hops.push(0.0);
        self.rep_sent.push(0);
        self.rep_deliv.push(0);
        self.rep_cdrop.push(0);
        self.rep_cdrop_hops.push(0);
        self.w_deliv.push(0.0);
        self.w_cdrop_hops.push(0.0);
        self.latest_until = self.latest_until.max(d.until);
        self.unresolved = true;
        self.steady = None;
    }

    /// Any aggregate still offering traffic after `now`?
    pub(crate) fn any_active(&self, now: SimTime) -> bool {
        self.latest_until > now
    }

    /// Fill `secs` with each aggregate's lifetime inside the window
    /// `(last, now]`. Returns the earliest `until` of the aggregates alive
    /// for all of it when every other aggregate is gone for good — the
    /// window could key a record — and `None` otherwise.
    fn window_secs(&mut self, last: SimTime, now: SimTime) -> Option<SimTime> {
        let mut live_until = Some(SimTime::MAX);
        self.secs.resize(self.src.len(), 0.0);
        for i in 0..self.src.len() {
            let (st, en) = (self.added_at[i].max(last), self.until[i].min(now));
            self.secs[i] = if en > st {
                (en - st).as_secs_f64()
            } else {
                0.0
            };
            if self.added_at[i] <= last && self.until[i] >= now {
                live_until = live_until.map(|u| u.min(self.until[i]));
            } else if self.until[i] > last {
                live_until = None;
            }
        }
        live_until
    }

    /// Walk the forwarding tables for every unresolved aggregate and
    /// rebuild the flat path arena, then the direction set the new paths
    /// cross, and seed the steady tick's log with the set's directions
    /// that are busy at `now`. Returns how many paths were re-derived (the
    /// [`Stats::fluid_recomputes`] increment).
    fn resolve_paths(&mut self, topo: &Topology, routing: &Routing, now: SimTime) -> u64 {
        let n_aggs = self.src.len();
        let mut recomputed = 0u64;
        let mut hops = Vec::with_capacity(self.path_dirs.len());
        let mut nodes = Vec::with_capacity(self.path_nodes.len());
        let hop_limit = topo.n();
        for i in 0..n_aggs {
            let off = hops.len() as u32;
            if self.resolved[i] {
                // Copy the still-valid slice from the old arena, back in
                // global ids: the set it indexed is about to be replaced.
                let (o, l) = (self.path_off[i] as usize, self.path_len[i] as usize);
                hops.extend(
                    self.path_dirs[o..o + l]
                        .iter()
                        .map(|&j| self.dirs[j as usize]),
                );
                nodes.extend_from_slice(&self.path_nodes[o..o + l]);
            } else {
                recomputed += 1;
                self.resolved[i] = true;
                let dst_node = self.dst[i].node();
                let mut cur = self.src[i].node();
                let mut routed = true;
                while cur != dst_node {
                    if hops.len() as u32 - off >= hop_limit as u32 {
                        routed = false; // forwarding loop guard
                        break;
                    }
                    let Some(link) = routing.next_hop(cur, dst_node) else {
                        routed = false;
                        break;
                    };
                    let l = &topo.links[link.0];
                    hops.push((link.0 * 2 + l.dir_index(cur)) as u32);
                    nodes.push(cur.0 as u32);
                    cur = l.other(cur);
                }
                if !routed {
                    hops.truncate(off as usize);
                    nodes.truncate(off as usize);
                }
                self.has_route[i] = routed;
            }
            self.path_off[i] = off;
            self.path_len[i] = hops.len() as u32 - off;
        }
        // The direction set: what the new paths cross.
        let mut set = hops.clone();
        set.sort_unstable();
        set.dedup();
        for d in &mut hops {
            *d = set.binary_search(d).expect("collected above") as u32;
        }
        self.offered = vec![0.0; set.len()];
        self.frac = vec![0.0; set.len()];
        self.avail = vec![0.0; set.len()];
        // Nothing was kept of the new set's directions: log what the end
        // of a tick would have kept.
        self.touched.clear();
        self.touched
            .extend(set.iter().copied().filter(|&d| busy(topo, d, now)));
        self.dirs = set;
        self.path_dirs = hops;
        self.path_nodes = nodes;
        self.unresolved = false;
        self.steady = None;
        recomputed
    }

    /// One accounting tick over the window `(last_tick_at, now]`. Folds
    /// admitted/dropped rates into `stats` and returns whether any
    /// aggregate is still live (i.e. whether to schedule another tick).
    /// Links are only read: fluid load never queues a discrete packet.
    pub(crate) fn run_tick(
        &mut self,
        now: SimTime,
        topo: &Topology,
        routing: &Routing,
        stats: &mut Stats,
    ) -> bool {
        let last = self.last_tick_at;
        self.last_tick_at = now;
        if now <= last {
            return self.any_active(now);
        }
        stats.fluid_ticks += 1;

        // --- 1. Epoch subscriptions -----------------------------------
        if routing.epoch() != self.route_epoch {
            stats.fluid_epoch_invalidations += 1;
            for (resolved, dst) in std::iter::zip(&mut self.resolved, &self.dst) {
                *resolved &= routing.changed_at(dst.node()) <= self.route_epoch;
                self.unresolved |= !*resolved;
            }
            self.route_epoch = routing.epoch();
        }
        if self.unresolved {
            stats.fluid_recomputes += self.resolve_paths(topo, routing, now);
        }

        // --- 2. A steady tick: the recorded load fits, nothing walks ---
        self.touched.sort_unstable();
        self.touched.dedup();
        if self.steady_fits(topo, last, now) {
            self.steady_ticks += 1;
            let secs = (now - last).as_secs_f64();
            for i in 0..self.src.len() {
                // Alive for the whole window, or gone before it.
                if self.until[i] > last {
                    self.credit_whole(i, self.rate_bps[i] / 8.0 * secs, stats);
                }
            }
        } else {
            self.settle(topo, last, now, stats);
        }
        // What the next tick must still read: the set's busy directions.
        let dirs = &self.dirs;
        self.touched
            .retain(|&d| busy(topo, d, now) && dirs.binary_search(&d).is_ok());
        self.any_active(now)
    }

    /// Credit aggregate `i` its whole offer `base` of a steady window and
    /// report it. While `sent` and `delivered` are bitwise equal they stay
    /// so — both take the same `base` — and then the dropped floor is 0
    /// and `cum_cdrop_hops` has not moved: one division gives every count.
    fn credit_whole(&mut self, i: usize, base: f64, stats: &mut Stats) {
        let admitted = self.cum_sent[i].to_bits() == self.cum_deliv[i].to_bits();
        self.cum_sent[i] += base;
        if !self.has_route[i] {
            return self.report(i, stats);
        }
        self.cum_deliv[i] += base;
        if !admitted {
            return self.report(i, stats);
        }
        let sp = (self.cum_sent[i] / self.pkt_size[i] as f64) as u64;
        let (d_sent, d_deliv) = (sp - self.rep_sent[i], sp - self.rep_deliv[i]);
        self.rep_sent[i] = sp;
        self.rep_deliv[i] = sp;
        self.charge(i, stats, [d_sent, d_deliv, 0, 0]);
    }

    /// Settle the window `(last, now]` the long way: residual capacity of
    /// the set, proportional-share admission run to its fixed point, and
    /// the last walk's results committed in aggregate order.
    fn settle(&mut self, topo: &Topology, last: SimTime, now: SimTime, stats: &mut Stats) {
        // --- 3. Residual capacity of every direction in the set --------
        for (j, &d) in self.dirs.iter().enumerate() {
            self.avail[j] = residual(topo, d, last, now);
            self.frac[j] = 1.0;
        }

        // --- 4. Proportional-share admission, run to its fixed point ---
        let live_until = self.window_secs(last, now);
        for update in 0..=SETTLE_ROUNDS {
            self.walk();
            if update == 0 {
                if let Some(live_until) = live_until.filter(|_| self.steady.is_none()) {
                    self.record(topo, now - last, live_until);
                }
            }
            if update == SETTLE_ROUNDS || !self.update_fracs() {
                break;
            }
        }
        // The last walk ran on the settled fractions: its per-aggregate
        // results are the tick's accounting, committed in aggregate order.
        for i in 0..self.src.len() {
            let dur = self.secs[i];
            if dur <= 0.0 {
                continue;
            }
            self.cum_sent[i] += self.rate_bps[i] / 8.0 * dur;
            if self.has_route[i] {
                self.cum_deliv[i] += self.w_deliv[i];
                self.cum_cdrop_hops[i] += self.w_cdrop_hops[i];
            }
            self.report(i, stats);
        }
    }

    /// Is the window `(last, now]` steady — the record's key holds and its
    /// load fits what every direction has free? A read-only pass over the
    /// logged directions of the set (`touched`, sorted and distinct): an
    /// up direction with no discrete backlog reaching into the window has
    /// its whole-window capacity, which the load fitted when it was
    /// recorded; any other has `avail` computed as the residual sweep
    /// does, and the load must pass [`FluidLayer::update_fracs`]' test.
    /// A direction not in the log is up and idle since the last tick.
    /// Either way no fraction would move, so the walk's result is known.
    fn steady_fits(&mut self, topo: &Topology, last: SimTime, now: SimTime) -> bool {
        let Some(key) = self.steady else {
            return false;
        };
        if key.window != now - last || now > key.live_until {
            self.steady = None;
            return false;
        }
        let dir_fits = |d: u32, o: f64| {
            let link = &topo.links[d as usize / 2];
            if link.up && link.dirs[d as usize % 2].next_free <= last {
                debug_assert!(
                    fits(o, capacity(link, (now - last).as_secs_f64())),
                    "recorded load outgrew its direction's capacity"
                );
                return true;
            }
            fits(o, residual(topo, d, last, now))
        };
        let fit = self
            .touched
            .iter()
            .all(|d| match self.dirs.binary_search(d) {
                Ok(j) => dir_fits(*d, self.load[j]),
                Err(_) => true,
            });
        if cfg!(debug_assertions) {
            // The log is complete — what it leaves out is up and idle
            // since `last` — so the full pass over the set agrees.
            let mut full = true;
            for (&d, &o) in std::iter::zip(&self.dirs, &self.load) {
                debug_assert!(
                    self.touched.binary_search(&d).is_ok() || !busy(topo, d, last),
                    "direction {d} moved but is not in the log"
                );
                full &= dir_fits(d, o);
            }
            debug_assert_eq!(fit, full, "the logged check and the full pass disagree");
        }
        fit
    }

    /// Keep the first walk's `offered` column as the steady-tick record if
    /// it fits every direction's whole-window capacity — what the residual
    /// sweep gives an idle direction.
    fn record(&mut self, topo: &Topology, window: SimDuration, live_until: SimTime) {
        let secs = window.as_secs_f64();
        let fit = std::iter::zip(&self.dirs, &self.offered)
            .all(|(&d, &o)| fits(o, capacity(&topo.links[d as usize / 2], secs)));
        if fit {
            self.load.clear();
            self.load.extend_from_slice(&self.offered);
            self.steady = Some(Steady { window, live_until });
        }
    }

    /// One walk over the cached path of every routed aggregate live in the
    /// tick's window, under the current fractions: sums each direction's
    /// offered bytes and leaves each aggregate's delivered and
    /// hop-weighted dropped bytes in the `w_*` columns.
    fn walk(&mut self) {
        self.walks += 1;
        self.offered.fill(0.0);
        for i in 0..self.src.len() {
            let dur = self.secs[i];
            if !self.has_route[i] || dur <= 0.0 {
                continue;
            }
            let base = self.rate_bps[i] / 8.0 * dur;
            let mut p = base;
            let mut cdrop_hops = 0.0;
            let (o, l) = (self.path_off[i] as usize, self.path_len[i] as usize);
            for (k, &d) in self.path_dirs[o..o + l].iter().enumerate() {
                let d = d as usize;
                self.offered[d] += p;
                cdrop_hops += p * (1.0 - self.frac[d]) * k as f64;
                p *= self.frac[d];
            }
            self.w_deliv[i] = p.min(base);
            self.w_cdrop_hops[i] = cdrop_hops;
        }
    }

    /// Recompute every direction's admitted fraction from the load the
    /// latest walk offered it; says whether any fraction moved.
    fn update_fracs(&mut self) -> bool {
        let mut moved = false;
        for j in 0..self.dirs.len() {
            let f = if fits(self.offered[j], self.avail[j]) {
                1.0
            } else {
                self.avail[j] / self.offered[j]
            };
            moved |= f != self.frac[j];
            self.frac[j] = f;
        }
        moved
    }

    /// Fold aggregate `i`'s cumulative byte accounting into `stats` as
    /// whole packets, by flooring cumulatives and charging the deltas.
    /// The dropped bytes are `sent - delivered`, so the per-class
    /// conservation gate is exact. The three cumulative sums only grow,
    /// but their rounded difference can dip below a whole packet it once
    /// reached — equal increments to `sent` and `delivered` do that — so
    /// the dropped floor reported so far is the highest one seen, and a
    /// dip is made up before anything more is charged.
    fn report(&mut self, i: usize, stats: &mut Stats) {
        let size = self.pkt_size[i] as f64;
        let sp = (self.cum_sent[i] / size) as u64;
        let dp = (self.cum_deliv[i] / size) as u64;
        let cp = ((self.cum_sent[i] - self.cum_deliv[i]).max(0.0) / size) as u64;
        let ch = (self.cum_cdrop_hops[i] / size) as u64;
        let d_sent = sp - self.rep_sent[i];
        let d_deliv = dp - self.rep_deliv[i];
        let d_c = cp.saturating_sub(self.rep_cdrop[i]);
        let d_ch = ch - self.rep_cdrop_hops[i];
        self.rep_sent[i] = sp;
        self.rep_deliv[i] = dp;
        self.rep_cdrop[i] += d_c;
        self.rep_cdrop_hops[i] = ch;
        self.charge(i, stats, [d_sent, d_deliv, d_c, d_ch]);
    }

    /// Charge aggregate `i`'s packet deltas — sent, delivered, dropped and
    /// dropped x hops — to its class and, for drops, to its drop reason.
    fn charge(&self, i: usize, stats: &mut Stats, [d_sent, d_deliv, d_c, d_ch]: [u64; 4]) {
        if d_sent + d_deliv + d_c == 0 {
            return;
        }
        let bytes = self.pkt_size[i] as u64;
        let hops = self.path_len[i] as u64;
        let class = self.class[i];
        let c = &mut stats.per_class[class.index()];
        c.sent_pkts += d_sent;
        c.sent_bytes += d_sent * bytes;
        c.delivered_pkts += d_deliv;
        c.delivered_bytes += d_deliv * bytes;
        c.delivered_hops += d_deliv * hops;
        c.delivered_byte_hops += d_deliv * bytes * hops;
        c.dropped_pkts += d_c;
        c.dropped_bytes += d_c * bytes;
        c.dropped_byte_hops += d_ch * bytes;
        if d_c > 0 {
            let reason = if self.has_route[i] {
                DropReason::QueueOverflow
            } else {
                DropReason::NoRoute
            };
            let agg = stats.drops.entry((class, reason)).or_default();
            agg.pkts += d_c;
            agg.bytes += d_c * bytes;
            agg.hops_sum += d_ch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentCtx, NodeAgent, Verdict};
    use crate::node::{LinkId, NodeId};
    use crate::packet::Packet;
    use crate::sim::Simulator;
    use crate::stats::DropReason;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const TICK: SimDuration = SimDuration::from_millis(50);

    fn demand(src: usize, dst: usize, rate_bps: f64, until_s: u64) -> FluidDemand {
        FluidDemand {
            src: Addr::new(NodeId(src), 1),
            dst: Addr::new(NodeId(dst), 1),
            proto: Proto::Udp,
            class: TrafficClass::Background,
            rate_bps,
            pkt_size: 500,
            until: SimTime::from_secs(until_s),
        }
    }

    /// The global link-direction ids some cached path of `l` crosses.
    fn crossed(l: &FluidLayer) -> BTreeSet<u32> {
        l.path_dirs.iter().map(|&j| l.dirs[j as usize]).collect()
    }

    /// Each link direction's `(up, next_free)`, in global direction order.
    fn dir_states(topo: &Topology) -> Vec<(bool, SimTime)> {
        let dir = |l: &Link, k: usize| (l.up, l.dirs[k].next_free);
        topo.links
            .iter()
            .flat_map(|l| [dir(l, 0), dir(l, 1)])
            .collect()
    }

    /// Log in a standalone `layer` every direction whose `up` or
    /// `next_free` moved since `seen`, and bring `seen` up to date: what
    /// the simulator logs for its own layer, as a snapshot diff.
    fn touch_moved(layer: &mut FluidLayer, seen: &mut Vec<(bool, SimTime)>, topo: &Topology) {
        let now = dir_states(topo);
        for (d, (a, b)) in std::iter::zip(&*seen, &now).enumerate() {
            if a != b {
                layer.touch(d as u32);
            }
        }
        *seen = now;
    }

    fn line_sim(fluid: bool) -> Simulator {
        // line(): 1 Gbit/s transit links per topology defaults.
        let mut sim = Simulator::new(Topology::line(4), 9);
        if fluid {
            sim.enable_fluid(TICK);
        }
        sim.install_app(Addr::new(NodeId(3), 1), Box::new(crate::app::SinkApp));
        sim
    }

    #[test]
    fn fluid_aggregate_delivers_and_conserves() {
        let mut sim = line_sim(true);
        // 4 Mbit/s for 2 s = 1 MB = 2000 packets of 500 B.
        sim.add_background_demand(demand(0, 3, 4e6, 2));
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.stats.fluid_aggregates, 1);
        assert!(sim.stats.fluid_ticks > 0);
        assert!(sim.stats.fluid_recomputes >= 1);
        let c = sim.stats.class(TrafficClass::Background);
        assert!(
            c.sent_pkts >= 1990 && c.sent_pkts <= 2000,
            "{}",
            c.sent_pkts
        );
        assert_eq!(
            c.delivered_pkts, c.sent_pkts,
            "uncongested path delivers all"
        );
        assert_eq!(c.delivered_hops, c.delivered_pkts * 3);
        sim.stats.check_conservation().unwrap();
        // No direction was ever over capacity: the first tick settled in
        // the walk that accounted it, and every later one was steady.
        let layer = sim.fluid().unwrap();
        assert_eq!(layer.walks(), 1);
        assert_eq!(layer.walks() + layer.steady_ticks(), sim.stats.fluid_ticks);
        // The tick must not keep the run alive forever.
        sim.run_to_idle();
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn fluid_matches_discrete_cbr_on_idle_path() {
        let run = |fluid: bool| {
            let mut sim = line_sim(fluid);
            sim.add_background_demand(demand(0, 3, 4e6, 2));
            sim.run_until(SimTime::from_secs(3));
            sim.stats.check_conservation().unwrap();
            let c = sim.stats.class(TrafficClass::Background);
            (c.sent_pkts, c.delivered_pkts)
        };
        let (fs, fd) = run(true);
        let (ds, dd) = run(false);
        // Same demand, two engines: totals agree within one tick's quantum.
        assert!((fs as i64 - ds as i64).abs() <= 10, "sent {fs} vs {ds}");
        assert!(
            (fd as i64 - dd as i64).abs() <= 10,
            "delivered {fd} vs {dd}"
        );
    }

    #[test]
    fn fluid_overload_drops_to_capacity() {
        let mut sim = line_sim(true);
        // 4 Gbit/s into 1 Gbit/s links: ~3/4 must drop as congestion.
        sim.add_background_demand(demand(0, 3, 4e9, 2));
        sim.run_until(SimTime::from_secs(3));
        let c = sim.stats.class(TrafficClass::Background);
        let ratio = c.delivered_pkts as f64 / c.sent_pkts as f64;
        assert!((ratio - 0.25).abs() < 0.02, "delivered ratio {ratio}");
        let agg = sim.stats.drops_for_reason(DropReason::QueueOverflow);
        assert!(agg.pkts > 0);
        sim.stats.check_conservation().unwrap();
        // Congested ticks take more than one walk, none more than the
        // bound: `SETTLE_ROUNDS` updates and the closing walk.
        let (walks, ticks) = (sim.fluid().unwrap().walks(), sim.stats.fluid_ticks);
        assert!(
            ticks < walks && walks <= 3 * ticks,
            "{walks} walks, {ticks} ticks"
        );
    }

    #[test]
    fn direction_set_is_what_cached_paths_cross() {
        // 400 links, 800 directions; two two-hop paths share their last.
        let mut sim = Simulator::new(Topology::star(400), 9);
        sim.enable_fluid(TICK);
        sim.add_background_demand(demand(1, 2, 4e6, 1));
        sim.add_background_demand(demand(3, 2, 4e6, 1));
        sim.run_until(SimTime::from_secs(2));
        let layer = sim.fluid().unwrap();
        let longest = *layer.path_len.iter().max().unwrap() as usize;
        assert!(sim.topo.links.len() >= 100 * longest);
        let on_paths = crossed(layer);
        assert_eq!(on_paths.len(), 3, "1->hub, 3->hub, hub->2");
        assert!(layer.dirs.iter().copied().eq(on_paths.iter().copied()));
        for column in [&layer.offered, &layer.frac, &layer.avail] {
            assert_eq!(column.len(), layer.dirs.len());
        }
    }

    #[test]
    fn fluid_shares_bottleneck_proportionally() {
        let mut sim = line_sim(true);
        sim.install_app(Addr::new(NodeId(3), 2), Box::new(crate::app::SinkApp));
        // 1.5 + 0.5 Gbit/s share the same 1 Gbit/s bottleneck (links
        // 1->2->3): 2x overloaded, so each is thinned to half its offer.
        let d1 = demand(1, 3, 1.5e9, 2);
        let mut d2 = demand(1, 3, 0.5e9, 2);
        d2.class = TrafficClass::LegitRequest;
        d2.dst = Addr::new(NodeId(3), 2);
        sim.add_background_demand(d1);
        sim.add_background_demand(d2);
        sim.run_until(SimTime::from_secs(3));
        let bg = sim.stats.class(TrafficClass::Background);
        let lr = sim.stats.class(TrafficClass::LegitRequest);
        let r1 = bg.delivered_pkts as f64 / bg.sent_pkts as f64;
        let r2 = lr.delivered_pkts as f64 / lr.sent_pkts as f64;
        assert!((r1 - 0.5).abs() < 0.05, "r1={r1}");
        assert!((r2 - 0.5).abs() < 0.05, "r2={r2}");
        sim.stats.check_conservation().unwrap();
    }

    /// Drops every packet it is shown, and counts them.
    struct DropAll(Arc<AtomicU64>);
    impl NodeAgent for DropAll {
        fn name(&self) -> &'static str {
            "drop-all"
        }
        fn on_packet(
            &mut self,
            _ctx: &mut AgentCtx<'_>,
            _pkt: &mut Packet,
            _from: Option<LinkId>,
        ) -> Verdict {
            self.0.fetch_add(1, Ordering::Relaxed);
            Verdict::Drop(DropReason::DeviceFilter)
        }
    }

    /// A defence judges packets, so attack traffic never becomes a rate it
    /// cannot see: an attack-class demand runs as packets through the
    /// middle node's chain, while a background demand on the same path
    /// stays an aggregate that chain never meets.
    #[test]
    fn attack_class_demand_is_packets_the_chain_sees() {
        let mut sim = line_sim(true);
        let seen = Arc::new(AtomicU64::new(0));
        sim.add_agent(NodeId(1), Box::new(DropAll(seen.clone())));
        let mut attack = demand(0, 3, 4e6, 2);
        attack.class = TrafficClass::AttackDirect;
        sim.add_background_demand(attack);
        assert_eq!(sim.stats.fluid_aggregates, 0);
        assert_eq!(sim.stats.fluid_boundary_conversions, 1);
        sim.add_background_demand(demand(0, 3, 4e6, 2));
        assert_eq!(sim.stats.fluid_aggregates, 1);
        sim.run_until(SimTime::from_secs(3));

        let atk = sim.stats.class(TrafficClass::AttackDirect);
        assert!(atk.sent_pkts >= 1990, "{}", atk.sent_pkts);
        assert_eq!(atk.delivered_pkts, 0);
        assert_eq!(atk.dropped_pkts, atk.sent_pkts);
        assert_eq!(
            seen.load(Ordering::Relaxed),
            atk.sent_pkts,
            "only attack packets"
        );
        let filtered = sim.stats.drops_for_reason(DropReason::DeviceFilter);
        assert_eq!(filtered.pkts, atk.sent_pkts);
        let bg = sim.stats.class(TrafficClass::Background);
        assert!(bg.sent_pkts >= 1990, "{}", bg.sent_pkts);
        assert_eq!(bg.delivered_pkts, bg.sent_pkts);
        sim.stats.check_conservation().unwrap();
    }

    #[test]
    fn route_flip_invalidates_and_recomputes_via_delta_subscription() {
        // Diamond: 0-1-3 and 0-2-3; fail the in-use branch mid-run.
        let mut topo = Topology::new();
        for _ in 0..4 {
            topo.add_node(crate::node::NodeRole::Stub);
        }
        let prof = crate::link::LinkProfile::access();
        topo.connect(NodeId(0), NodeId(1), prof).unwrap();
        let l13 = topo.connect(NodeId(1), NodeId(3), prof).unwrap();
        topo.connect(NodeId(0), NodeId(2), prof).unwrap();
        topo.connect(NodeId(2), NodeId(3), prof).unwrap();
        let mut sim = Simulator::new(topo, 5);
        sim.enable_fluid(TICK);
        sim.install_app(Addr::new(NodeId(3), 1), Box::new(crate::app::SinkApp));
        sim.add_background_demand(demand(0, 3, 4e6, 4));
        sim.schedule(SimTime::from_secs(1), move |s| s.set_link_up(l13, false));
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.stats.fluid_epoch_invalidations >= 1);
        assert!(
            sim.stats.fluid_recomputes >= 2,
            "initial resolve + post-flip re-resolve, got {}",
            sim.stats.fluid_recomputes
        );
        let c = sim.stats.class(TrafficClass::Background);
        // Rerouted over the surviving branch: still (almost) everything.
        let ratio = c.delivered_pkts as f64 / c.sent_pkts as f64;
        assert!(ratio > 0.95, "ratio {ratio}");
        sim.stats.check_conservation().unwrap();
    }

    /// However many flips fall between two ticks, the cache re-resolves
    /// the aggregates whose destination's row moved and no others: 33
    /// flips of a leaf-to-leaf shortcut on a star (more than any bounded
    /// history of flips could hold) leave it down, and of five aggregates
    /// only the two addressed to its endpoints pay a walk.
    #[test]
    fn many_flips_between_ticks_re_resolve_only_the_damaged_aggregates() {
        let mut topo = Topology::star(5);
        let chord = topo
            .connect(NodeId(1), NodeId(2), crate::link::LinkProfile::access())
            .unwrap();
        let mut sim = Simulator::new(topo, 5);
        sim.enable_fluid(TICK);
        let pairs = [(1, 2), (2, 1), (3, 4), (4, 3), (1, 5)];
        for (src, dst) in pairs {
            sim.add_background_demand(demand(src, dst, 1e6, 4));
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.fluid_recomputes, 5, "initial resolve");
        let paths = |sim: &Simulator| -> Vec<Vec<u32>> {
            let l = sim.fluid().unwrap();
            std::iter::zip(&l.path_off, &l.path_len)
                .map(|(&o, &len)| l.path_nodes[o as usize..(o + len) as usize].to_vec())
                .collect()
        };
        assert_eq!(paths(&sim)[0], [1], "1 → 2 rides the shortcut");

        let invalidations = sim.stats.fluid_epoch_invalidations;
        for k in 0..33 {
            sim.set_link_up(chord, k % 2 == 1);
        }
        assert_eq!(sim.routing.epoch(), 33);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.stats.fluid_epoch_invalidations, invalidations + 1);
        assert_eq!(sim.stats.fluid_recomputes, 5 + 2, "dsts 1 and 2 only");
        // Every cached path, kept or re-walked, is what a fresh walk gives.
        for (path, (src, dst)) in std::iter::zip(paths(&sim), pairs) {
            let fresh = sim.routing.path(&sim.topo, NodeId(src), NodeId(dst));
            let fresh: Vec<u32> = fresh.unwrap().iter().map(|n| n.0 as u32).collect();
            assert_eq!(path, fresh[..fresh.len() - 1], "{src} → {dst}");
        }
        assert_eq!(paths(&sim)[0], [1, 0], "1 → 2 now goes through the hub");
        sim.stats.check_conservation().unwrap();
    }

    #[test]
    fn packetized_endpoint_materializes_discrete_cbr() {
        let mut sim = line_sim(true);
        sim.fluid_packetize(NodeId(3));
        sim.add_background_demand(demand(0, 3, 4e6, 2));
        assert_eq!(sim.stats.fluid_boundary_conversions, 1);
        assert_eq!(sim.stats.fluid_aggregates, 0);
        sim.run_until(SimTime::from_secs(3));
        let c = sim.stats.class(TrafficClass::Background);
        assert!(c.sent_pkts >= 1990, "{}", c.sent_pkts);
        assert_eq!(c.delivered_pkts, c.sent_pkts);
        // Real packets: per-hop queue-delay telemetry exists.
        assert!(sim.stats.hist.queue_delay_ns.count() > 0);
        sim.stats.check_conservation().unwrap();
    }

    #[test]
    fn fluid_runs_are_deterministic() {
        let run = || {
            let mut sim = line_sim(true);
            sim.add_background_demand(demand(0, 3, 900e6, 2));
            sim.add_background_demand(demand(1, 3, 400e6, 2));
            sim.run_until(SimTime::from_secs(3));
            let c = *sim.stats.class(TrafficClass::Background);
            (
                c.sent_pkts,
                c.delivered_pkts,
                c.dropped_pkts,
                sim.stats.events,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_route_charges_noroute_drops() {
        let mut topo = Topology::line(2);
        let lonely = topo.add_node(crate::node::NodeRole::Stub);
        let mut sim = Simulator::new(topo, 3);
        sim.enable_fluid(TICK);
        let mut d = demand(0, 0, 4e6, 1);
        d.dst = Addr::new(lonely, 1);
        sim.add_background_demand(d);
        sim.run_until(SimTime::from_secs(2));
        let agg = sim.stats.drops_for_reason(DropReason::NoRoute);
        assert!(agg.pkts > 0);
        assert_eq!(agg.hops_sum, 0, "no-route traffic dies at the source");
        sim.stats.check_conservation().unwrap();
    }

    /// The coupling is one way: a tick reads the links and writes nothing,
    /// so a discrete stream sharing two hops with a 0.8 Gbit/s aggregate
    /// is delivered exactly as it is alone — same packets, same latencies.
    #[test]
    fn fluid_load_never_queues_a_discrete_packet() {
        let run = |beside_aggregate: bool| {
            let mut sim = line_sim(true);
            sim.fluid_packetize(NodeId(0));
            let mut discrete = demand(0, 3, 40e6, 1);
            discrete.class = TrafficClass::LegitRequest;
            sim.add_background_demand(discrete);
            if beside_aggregate {
                sim.add_background_demand(demand(1, 3, 800e6, 1));
                assert_eq!(sim.stats.fluid_aggregates, 1);
            }
            sim.run_until(SimTime::from_secs(2));
            let bg = sim.stats.class(TrafficClass::Background);
            assert_eq!(bg.delivered_pkts > 0, beside_aggregate);
            let lr = sim.stats.class(TrafficClass::LegitRequest);
            (lr.delivered_pkts, sim.stats.hist.e2e_latency_ns)
        };
        let (alone, beside) = (run(false), run(true));
        assert!(alone.0 >= 9990, "{}", alone.0);
        assert_eq!(beside.0, alone.0);
        assert_eq!(beside.1, alone.1, "latency histogram");
    }

    #[test]
    #[should_panic(expected = "rate inf b/s must be finite and positive")]
    fn infinite_rate_is_refused_before_it_becomes_an_aggregate() {
        line_sim(true).add_background_demand(demand(0, 3, f64::INFINITY, 1));
    }

    #[test]
    #[should_panic(expected = "rate inf b/s must be finite and positive")]
    fn infinite_rate_is_refused_before_it_becomes_packets() {
        line_sim(false).add_background_demand(demand(0, 3, f64::INFINITY, 1));
    }

    /// The tick as it stood before the fixed-point walk, kept as the
    /// reference the real layer is held against: scratch arrays indexed by
    /// global direction id and sized by the topology, the directions in
    /// use re-collected every tick, and always `SETTLE_ROUNDS` settle walks
    /// and then an accounting walk.
    struct RefLayer {
        last_tick_at: SimTime,
        route_epoch: u64,
        aggs: Vec<RefAgg>,
        offered: Vec<f64>,
        frac: Vec<f64>,
        avail: Vec<f64>,
        seen: Vec<bool>,
        touched: Vec<usize>,
    }

    struct RefAgg {
        d: FluidDemand,
        added_at: SimTime,
        has_route: bool,
        resolved: bool,
        /// Global link-direction ids, path order.
        path: Vec<usize>,
        /// Bytes: sent, delivered, congested x hops.
        cum: [f64; 3],
        /// Packets reported: sent, delivered, congested, congested x hops.
        rep: [u64; 4],
    }

    impl RefAgg {
        fn window_secs(&self, last: SimTime, now: SimTime) -> f64 {
            let (st, en) = (self.added_at.max(last), self.d.until.min(now));
            if en > st {
                (en - st).as_secs_f64()
            } else {
                0.0
            }
        }

        fn resolve(&mut self, topo: &Topology, routing: &Routing) {
            self.resolved = true;
            self.path.clear();
            let dst = self.d.dst.node();
            let mut cur = self.d.src.node();
            while cur != dst {
                let next = routing
                    .next_hop(cur, dst)
                    .filter(|_| self.path.len() < topo.n());
                let Some(link) = next else {
                    self.path.clear();
                    break;
                };
                let l = &topo.links[link.0];
                self.path.push(link.0 * 2 + l.dir_index(cur));
                cur = l.other(cur);
            }
            self.has_route = cur == dst;
        }

        fn report(&mut self, stats: &mut Stats) {
            let [sent, deliv, cdrop_hops] = self.cum;
            let size = self.d.pkt_size as f64;
            let now = [sent, deliv, (sent - deliv).max(0.0), cdrop_hops].map(|b| (b / size) as u64);
            // Only the dropped floor can dip; a dip carries over.
            let [d_sent, d_deliv, d_c, d_ch] =
                std::array::from_fn(|x| now[x].saturating_sub(self.rep[x]));
            self.rep = std::array::from_fn(|x| self.rep[x].max(now[x]));
            if d_sent + d_deliv + d_c == 0 {
                return;
            }
            let (bytes, hops) = (self.d.pkt_size as u64, self.path.len() as u64);
            let c = &mut stats.per_class[self.d.class.index()];
            c.sent_pkts += d_sent;
            c.sent_bytes += d_sent * bytes;
            c.delivered_pkts += d_deliv;
            c.delivered_bytes += d_deliv * bytes;
            c.delivered_hops += d_deliv * hops;
            c.delivered_byte_hops += d_deliv * bytes * hops;
            c.dropped_pkts += d_c;
            c.dropped_bytes += d_c * bytes;
            c.dropped_byte_hops += d_ch * bytes;
            if d_c > 0 {
                let reason = if self.has_route {
                    DropReason::QueueOverflow
                } else {
                    DropReason::NoRoute
                };
                let agg = stats.drops.entry((self.d.class, reason)).or_default();
                agg.pkts += d_c;
                agg.bytes += d_c * bytes;
                agg.hops_sum += d_ch;
            }
        }
    }

    impl RefLayer {
        fn new(now: SimTime, epoch: u64) -> RefLayer {
            RefLayer {
                last_tick_at: now,
                route_epoch: epoch,
                aggs: Vec::new(),
                offered: Vec::new(),
                frac: Vec::new(),
                avail: Vec::new(),
                seen: Vec::new(),
                touched: Vec::new(),
            }
        }

        fn add(&mut self, d: &FluidDemand, now: SimTime) {
            self.aggs.push(RefAgg {
                d: *d,
                added_at: now,
                has_route: false,
                resolved: false,
                path: Vec::new(),
                cum: [0.0; 3],
                rep: [0; 4],
            });
        }

        fn run_tick(
            &mut self,
            now: SimTime,
            topo: &Topology,
            routing: &Routing,
            stats: &mut Stats,
        ) {
            let last = self.last_tick_at;
            self.last_tick_at = now;
            if now <= last {
                return;
            }
            stats.fluid_ticks += 1;

            // 1. Epoch subscriptions.
            if routing.epoch() != self.route_epoch {
                stats.fluid_epoch_invalidations += 1;
                for a in &mut self.aggs {
                    a.resolved &= routing.changed_at(a.d.dst.node()) <= self.route_epoch;
                }
                self.route_epoch = routing.epoch();
            }
            for a in &mut self.aggs {
                if !a.resolved {
                    stats.fluid_recomputes += 1;
                    a.resolve(topo, routing);
                }
            }

            // 2. Scratch prep: touched dirs + residual capacity.
            let n_dirs = topo.links.len() * 2;
            if self.offered.len() < n_dirs {
                self.offered.resize(n_dirs, 0.0);
                self.frac.resize(n_dirs, 0.0);
                self.avail.resize(n_dirs, 0.0);
                self.seen.resize(n_dirs, false);
            }
            self.touched.clear();
            for a in &self.aggs {
                if !a.has_route || a.window_secs(last, now) <= 0.0 {
                    continue;
                }
                for &d in &a.path {
                    if !self.seen[d] {
                        self.seen[d] = true;
                        self.touched.push(d);
                    }
                }
            }
            for &d in &self.touched {
                let link = &topo.links[d / 2];
                let idle_from = link.dirs[d % 2].next_free.max(last);
                self.avail[d] = if link.up && now > idle_from {
                    (now - idle_from).as_secs_f64() * link.bandwidth_bps / 8.0
                } else {
                    0.0
                };
                self.frac[d] = 1.0;
            }

            // 3. Proportional-share admission: settle, then account.
            for _ in 0..SETTLE_ROUNDS {
                for &d in &self.touched {
                    self.offered[d] = 0.0;
                }
                for a in &self.aggs {
                    let dur = a.window_secs(last, now);
                    if !a.has_route || dur <= 0.0 {
                        continue;
                    }
                    let mut p = a.d.rate_bps / 8.0 * dur;
                    for &d in &a.path {
                        self.offered[d] += p;
                        p *= self.frac[d];
                    }
                }
                for &d in &self.touched {
                    self.frac[d] = if self.offered[d] > self.avail[d] && self.offered[d] > 0.0 {
                        self.avail[d] / self.offered[d]
                    } else {
                        1.0
                    };
                }
            }
            for &d in &self.touched {
                self.seen[d] = false;
            }
            for a in &mut self.aggs {
                let dur = a.window_secs(last, now);
                if dur <= 0.0 {
                    continue;
                }
                let base = a.d.rate_bps / 8.0 * dur;
                a.cum[0] += base;
                if !a.has_route {
                    a.report(stats);
                    continue;
                }
                let (mut p, mut cdrop_hops) = (base, 0.0);
                for (k, &d) in a.path.iter().enumerate() {
                    cdrop_hops += p * (1.0 - self.frac[d]) * k as f64;
                    p *= self.frac[d];
                }
                a.cum[1] += p.min(base);
                a.cum[2] += cdrop_hops;
                a.report(stats);
            }
        }
    }

    #[test]
    fn tick_matches_reference_tick_bit_for_bit() {
        matches_reference_over(0..24);
    }

    #[test]
    #[ignore = "runs the experiment twice; CI runs with --ignored in release"]
    fn tick_matches_reference_tick_bit_for_bit_over_512_cases() {
        matches_reference_over(0..512);
    }

    /// The real layer and [`RefLayer`] side by side over the seeded
    /// scenarios `cases`: full `Stats` equal after every tick.
    fn matches_reference_over(cases: std::ops::Range<u64>) {
        use crate::link::LinkProfile;
        use crate::node::NodeRole;

        const TICKS: u64 = 40;
        // What the cases covered between them: steady ticks that walked
        // nothing, ticks settled by their first walk, ticks that took
        // more, and flaps that took a direction off every cached path and
        // later put it back.
        let (mut steady, mut calm, mut congested, mut rejoined) = (0u64, 0u64, 0u64, 0u64);

        crate::rng::check_cases(cases, |rng| {
            // A ring with chords (one link down never partitions it) and
            // one node nothing reaches.
            let n = rng.gen_range(6..=9usize);
            let prof = LinkProfile {
                bandwidth_bps: 10e6,
                latency: SimDuration::from_millis(1),
                queue_limit_bytes: 50_000,
            };
            let mut topo = Topology::new();
            for _ in 0..=n {
                topo.add_node(NodeRole::Stub);
            }
            let lonely = NodeId(n);
            for i in 0..n {
                topo.connect(NodeId(i), NodeId((i + 1) % n), prof).unwrap();
            }
            for _ in 0..rng.gen_range(0..=3u32) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                topo.connect(NodeId(a), NodeId(b), prof);
            }
            let mut sim = Simulator::new(topo, rng.next_u64());
            sim.enable_fluid(TICK);

            // Discrete cross-traffic out of a packetized node: it moves
            // `next_free` between ticks, under the fluid load's feet.
            let (px, py) = (rng.gen_range(0..n), rng.gen_range(1..n));
            let py = (px + py) % n;
            sim.fluid_packetize(NodeId(px));
            sim.install_app(Addr::new(NodeId(py), 1), Box::new(crate::app::SinkApp));
            sim.add_background_demand(demand(px, py, rng.gen_range(1e6..4e6), 2));
            assert_eq!(sim.stats.fluid_boundary_conversions, 1);

            // Aggregates whose summed rates straddle the 10 Mbit/s links
            // and whose lifetimes end at scattered instants, so load —
            // and with it congestion — comes and goes.
            let random_demand = |rng: &mut crate::rng::ChaCha8Rng| {
                let src = rng.gen_range(0..n);
                let dst = (src + rng.gen_range(1..n)) % n;
                let mut d = demand(src, dst, rng.gen_range(0.5e6..9e6), 0);
                d.until = SimTime::from_nanos(rng.gen_range(TICK.0 * 6..TICK.0 * TICKS));
                d.pkt_size = *rng.choose(&[200, 500, 1500]).unwrap();
                if rng.gen_bool(0.5) {
                    d.class = TrafficClass::LegitRequest;
                }
                d
            };
            let mut real = FluidLayer::new(TICK, SimTime::ZERO, sim.routing.epoch());
            let mut reference = RefLayer::new(SimTime::ZERO, sim.routing.epoch());
            let mut first = random_demand(rng);
            first.until = at(TICKS); // outlives the flap below
            let mut unroutable = random_demand(rng);
            unroutable.dst = Addr::new(lonely, 1);
            real.add(&first, SimTime::ZERO);
            reference.add(&first, SimTime::ZERO);
            real.add(&unroutable, SimTime::ZERO);
            reference.add(&unroutable, SimTime::ZERO);
            for _ in 0..rng.gen_range(3..=7u32) {
                let d = random_demand(rng);
                real.add(&d, SimTime::ZERO);
                reference.add(&d, SimTime::ZERO);
            }
            let late = random_demand(rng);
            let late_tick = rng.gen_range(2..6u64);

            // A flap of the first aggregate's first link.
            let flapped = sim
                .routing
                .next_hop(first.src.node(), first.dst.node())
                .unwrap();
            let down_tick = rng.gen_range(8..14u64);
            let up_tick = rng.gen_range(20..28u64);
            // A second join after the flap, which leaves mid-window before
            // the run ends: each change to the live set ends a steady run.
            let mut later = random_demand(rng);
            let later_tick = rng.gen_range(29..34u64);
            later.until = SimTime::from_nanos(rng.gen_range(at(later_tick).0..at(TICKS).0));

            let (mut real_stats, mut ref_stats) = (Stats::new(), Stats::new());
            let mut seen = dir_states(&sim.topo);
            let mut before_flap = BTreeSet::new();
            let mut gone = BTreeSet::new();
            for k in 1..=TICKS {
                for (tick, d) in [(late_tick, &late), (later_tick, &later)] {
                    if k == tick {
                        // Joins a third of a tick before the boundary.
                        sim.run_until(SimTime::from_nanos(at(k).0 - TICK.0 / 3));
                        real.add(d, sim.now());
                        reference.add(d, sim.now());
                    }
                }
                sim.run_until(at(k));
                if k == down_tick {
                    before_flap = crossed(&real);
                    sim.set_link_up(flapped, false);
                }
                if k == up_tick {
                    sim.set_link_up(flapped, true);
                }

                let (walks, steady_ticks) = (real.walks(), real.steady_ticks());
                touch_moved(&mut real, &mut seen, &sim.topo);
                real.run_tick(at(k), &sim.topo, &sim.routing, &mut real_stats);
                reference.run_tick(at(k), &sim.topo, &sim.routing, &mut ref_stats);
                assert_eq!(real_stats, ref_stats, "stats after tick {k}");

                match real.walks() - walks {
                    0 => {
                        assert_eq!(real.steady_ticks(), steady_ticks + 1, "tick {k}");
                        steady += 1;
                    }
                    1 => calm += 1,
                    2 | 3 => congested += 1,
                    w => panic!("{w} walks in tick {k}"),
                }
                if k == down_tick {
                    gone = before_flap.difference(&crossed(&real)).copied().collect();
                }
                if k == up_tick && !gone.is_disjoint(&crossed(&real)) {
                    rejoined += 1;
                }
            }
            real_stats.check_conservation().unwrap();
        });
        assert!(
            steady > 100 && calm > 100 && congested > 100,
            "{steady} steady, {calm} calm, {congested} congested"
        );
        assert!(rejoined > 0, "no flap took a direction out and back");
    }

    /// The instant `k` ticks into a run.
    fn at(k: u64) -> SimTime {
        SimTime::from_nanos(k * TICK.0)
    }

    /// A ring of six nodes over 10 Mbit/s links (62.5 kB a window) that
    /// queue up to 160 ms, link `i` joining nodes `i` and `i + 1`, plus a
    /// seventh node nothing reaches.
    fn ring_of_six() -> (Simulator, Vec<LinkId>) {
        use crate::link::LinkProfile;
        use crate::node::NodeRole;
        let prof = LinkProfile {
            bandwidth_bps: 10e6,
            latency: SimDuration::from_millis(1),
            queue_limit_bytes: 200_000,
        };
        let mut topo = Topology::new();
        for _ in 0..7 {
            topo.add_node(NodeRole::Stub);
        }
        let ring = (0..6)
            .map(|i| topo.connect(NodeId(i), NodeId((i + 1) % 6), prof).unwrap())
            .collect();
        (Simulator::new(topo, 11), ring)
    }

    /// `kb` kB of discrete packets from node `from` to its ring neighbour
    /// `to`, emitted 10 ms before the end of window `k`: 0.8 ms of backlog
    /// a kB.
    fn burst(sim: &mut Simulator, k: u64, (from, to): (usize, usize), kb: u32) {
        use crate::packet::PacketBuilder;
        sim.run_until(SimTime::from_nanos(at(k).0 - 10_000_000));
        for _ in 0..kb {
            let (src, dst) = (Addr::new(NodeId(from), 1), Addr::new(NodeId(to), 1));
            let pkt = PacketBuilder::new(src, dst, Proto::Udp, TrafficClass::LegitRequest);
            sim.emit_now(NodeId(from), pkt.size(1000));
        }
    }

    /// Each change a steady tick depends on ends a steady run for the
    /// ticks it touches and no others, with full `Stats` equal to
    /// [`RefLayer`]'s after every tick. On a 10 Mbit/s ring of six:
    /// - a discrete burst whose backlog reaches 22 ms into the window
    ///   after its own: both windows have less free than the load;
    /// - a flap of a link on a cached path, down and later up: the tick
    ///   that re-resolves the paths records their load afresh;
    /// - an aggregate joining mid-window, and one expiring mid-window:
    ///   the window it is partly alive in, and the next, which records the
    ///   new live set's load.
    #[test]
    fn each_change_ends_a_steady_run_for_the_ticks_it_touches() {
        const TICKS: u64 = 40;
        let (mut sim, ring) = ring_of_six();

        let mut real = FluidLayer::new(TICK, SimTime::ZERO, sim.routing.epoch());
        let mut reference = RefLayer::new(SimTime::ZERO, sim.routing.epoch());
        // 0 -> 1 -> 2 carries 6 Mbit/s: 37.5 kB a window, of 62.5 kB.
        let mut expiring = demand(4, 1, 1e6, 0);
        expiring.until = SimTime::from_nanos(at(32).0 - TICK.0 / 2);
        for d in [demand(0, 2, 6e6, 2), demand(3, 5, 2e6, 2), expiring] {
            real.add(&d, SimTime::ZERO);
            reference.add(&d, SimTime::ZERO);
        }
        let joining = demand(5, 3, 1e6, 2);

        let (mut real_stats, mut ref_stats) = (Stats::new(), Stats::new());
        let mut seen = dir_states(&sim.topo);
        let mut walked = BTreeSet::new();
        for k in 1..=TICKS {
            match k {
                // Window 9 is left 35 kB.
                8 => burst(&mut sim, k, (1, 2), 40),
                26 => {
                    sim.run_until(SimTime::from_nanos(at(k).0 - TICK.0 / 3));
                    real.add(&joining, sim.now());
                    reference.add(&joining, sim.now());
                }
                _ => {}
            }
            sim.run_until(at(k));
            match k {
                14 => sim.set_link_up(ring[1], false),
                20 => sim.set_link_up(ring[1], true),
                _ => {}
            }
            let walks = real.walks();
            touch_moved(&mut real, &mut seen, &sim.topo);
            real.run_tick(at(k), &sim.topo, &sim.routing, &mut real_stats);
            reference.run_tick(at(k), &sim.topo, &sim.routing, &mut ref_stats);
            assert_eq!(real_stats, ref_stats, "stats after tick {k}");
            match real.walks() - walks {
                0 => {}
                1 => {
                    walked.insert(k);
                }
                _ => {
                    assert!([8, 9].contains(&k), "tick {k} congested");
                    walked.insert(k);
                }
            }
        }
        let first = [1];
        let (burst, flap, join, expiry) = ([8, 9], [14, 20], [26, 27], [32, 33]);
        let touched: BTreeSet<u64> = [&first[..], &burst, &flap, &join, &expiry]
            .concat()
            .into_iter()
            .collect();
        assert_eq!(walked, touched);
        assert_eq!(real.steady_ticks(), TICKS - touched.len() as u64);
        real_stats.check_conservation().unwrap();
    }

    /// The ticks of a simulator's own fluid layer that walked, over
    /// `ticks` ticks of a run: `change(sim, k)` runs before tick `k`.
    fn walked_ticks(
        sim: &mut Simulator,
        ticks: u64,
        mut change: impl FnMut(&mut Simulator, u64),
    ) -> BTreeSet<u64> {
        let mut walked = BTreeSet::new();
        for k in 1..=ticks {
            change(sim, k);
            let walks = sim.fluid().unwrap().walks();
            sim.run_until(at(k));
            if sim.fluid().unwrap().walks() > walks {
                walked.insert(k);
            }
        }
        let layer = sim.fluid().unwrap();
        assert_eq!(layer.steady_ticks(), ticks - walked.len() as u64);
        sim.stats.check_conservation().unwrap();
        walked
    }

    /// The simulator logs each direction a discrete hop is offered to, so
    /// its own layer's steady run ends where the backlog of a burst onto a
    /// cached path reaches: windows 8 and 9, and no other.
    #[test]
    fn a_discrete_burst_on_a_cached_path_ends_the_simulators_steady_run() {
        let (mut sim, _) = ring_of_six();
        sim.enable_fluid(TICK);
        sim.install_app(Addr::new(NodeId(2), 1), Box::new(crate::app::SinkApp));
        // 0 -> 1 -> 2 carries 6 Mbit/s: 37.5 kB a window, of 62.5 kB.
        sim.add_background_demand(demand(0, 2, 6e6, 2));
        let walked = walked_ticks(&mut sim, 30, |sim, k| {
            if k == 8 {
                burst(sim, k, (1, 2), 40);
            }
        });
        assert_eq!(walked, BTreeSet::from([1, 8, 9]));
        let bg = sim.stats.class(TrafficClass::Background);
        assert!(bg.dropped_pkts > 0, "the burst thinned the aggregate");
    }

    /// A link of a cached path flapped down inside window 14 and up inside
    /// window 20 ends the simulator's steady run for those windows alone.
    #[test]
    fn a_flap_on_a_cached_path_ends_the_simulators_steady_run() {
        let (mut sim, ring) = ring_of_six();
        sim.enable_fluid(TICK);
        sim.add_background_demand(demand(0, 2, 6e6, 2));
        let walked = walked_ticks(&mut sim, 30, |sim, k| {
            if k == 14 || k == 20 {
                sim.run_until(SimTime::from_nanos(at(k).0 - TICK.0 / 2));
                sim.set_link_up(ring[1], k == 20);
            }
        });
        assert_eq!(walked, BTreeSet::from([1, 14, 20]));
        assert_eq!(sim.stats.fluid_recomputes, 3);
    }

    /// A path re-resolved onto a direction the discrete engine backlogged
    /// before the direction joined the set still reads that backlog:
    /// `resolve_paths` seeds the log with the new set's busy directions.
    /// 150 kB onto 3 -> 2 at the end of window 12 hold it until 10 ms into
    /// window 15; 1 -> 2 fails inside window 13, and 0 -> 2 moves onto
    /// 0 -> 5 -> 4 -> 3 -> 2. Windows 13 and 14 are full of backlog and
    /// walk; window 15 has 50 kB free for its 37.5 kB and is steady.
    #[test]
    fn a_path_moved_onto_a_backlogged_direction_reads_its_backlog() {
        let (mut sim, ring) = ring_of_six();
        sim.enable_fluid(TICK);
        sim.add_background_demand(demand(0, 2, 6e6, 2));
        let walked = walked_ticks(&mut sim, 30, |sim, k| match k {
            12 => burst(sim, k, (3, 2), 150),
            13 => {
                sim.run_until(SimTime::from_nanos(at(k).0 - TICK.0 / 2));
                sim.set_link_up(ring[1], false);
            }
            _ => {}
        });
        assert_eq!(walked, BTreeSet::from([1, 13, 14]));
        assert_eq!(sim.stats.fluid_recomputes, 2);
    }

    /// A steady tick reports an aggregate that has never lost a byte with
    /// one division and every other one as [`FluidLayer::report`] does;
    /// full `Stats` stay equal to [`RefLayer`]'s after every tick, with
    /// one aggregate congested once by a burst and steady for the 30
    /// ticks after, one never congested, and one unrouted.
    #[test]
    fn a_steady_tick_reports_each_kind_of_aggregate_as_the_reference() {
        const TICKS: u64 = 40;
        let (mut sim, _) = ring_of_six();
        let mut real = FluidLayer::new(TICK, SimTime::ZERO, sim.routing.epoch());
        let mut reference = RefLayer::new(SimTime::ZERO, sim.routing.epoch());
        let (congested, admitted, unrouted) = (0, 1, 2);
        for d in [
            demand(0, 2, 6e6, 2),
            demand(3, 5, 2e6, 2),
            demand(3, 6, 1e6, 2),
        ] {
            real.add(&d, SimTime::ZERO);
            reference.add(&d, SimTime::ZERO);
        }
        let (mut real_stats, mut ref_stats) = (Stats::new(), Stats::new());
        let mut seen = dir_states(&sim.topo);
        for k in 1..=TICKS {
            if k == 8 {
                burst(&mut sim, k, (1, 2), 40);
            }
            sim.run_until(at(k));
            touch_moved(&mut real, &mut seen, &sim.topo);
            real.run_tick(at(k), &sim.topo, &sim.routing, &mut real_stats);
            reference.run_tick(at(k), &sim.topo, &sim.routing, &mut ref_stats);
            assert_eq!(real_stats, ref_stats, "stats after tick {k}");
        }
        assert_eq!(real.steady_ticks(), TICKS - 3, "all but ticks 1, 8 and 9");
        let same = |i: usize| real.cum_sent[i].to_bits() == real.cum_deliv[i].to_bits();
        assert!(!same(congested) && same(admitted) && !real.has_route[unrouted]);
        assert!(real_stats.class(TrafficClass::Background).dropped_pkts > 0);
        assert!(real_stats.drops_for_reason(DropReason::NoRoute).pkts > 0);
        real_stats.check_conservation().unwrap();
    }

    /// With nothing but steady fluid load on a 20k-node internet, the
    /// first tick walks and every later one only checks the record.
    #[test]
    fn a_steady_internet_walks_once() {
        let mut sim = Simulator::new(Topology::transit_stub_at_least(20_000, 3), 3);
        sim.enable_fluid(TICK);
        let stubs = sim.topo.stub_nodes();
        let mut rng = crate::rng::seeded(3);
        for _ in 0..2_000 {
            let (src, dst) = (*rng.choose(&stubs).unwrap(), *rng.choose(&stubs).unwrap());
            if src != dst {
                sim.add_background_demand(demand(src.0, dst.0, 2e5, 2));
            }
        }
        sim.run_until(SimTime::from_secs(1));
        let layer = sim.fluid().unwrap();
        assert!(layer.dirs.len() > 5_000, "{} directions", layer.dirs.len());
        assert_eq!(sim.stats.fluid_ticks, 20);
        assert_eq!(layer.walks(), 1);
        assert_eq!(layer.steady_ticks(), 19);
        let c = sim.stats.class(TrafficClass::Background);
        assert!(c.sent_pkts > 0);
        assert_eq!(c.delivered_pkts, c.sent_pkts);
        sim.stats.check_conservation().unwrap();
    }

    /// Equal increments to `sent` and `delivered` can round their
    /// difference below a whole packet it had reached: 24,500 B (49
    /// packets of 500 B) becomes 24,499.999999999534. The dropped count
    /// must hold at 49, not step back to 48 (an underflow).
    /// The dip comes from a steady tick's credit, so it is taken through
    /// that path and held to [`RefAgg`]'s report too.
    #[test]
    fn a_dip_in_the_dropped_floor_carries_over() {
        let d = demand(0, 3, 4e6, 2);
        let mut layer = FluidLayer::new(TICK, SimTime::ZERO, 0);
        layer.add(&d, SimTime::ZERO);
        layer.has_route[0] = true;
        let mut reference = RefAgg {
            d,
            added_at: SimTime::ZERO,
            has_route: true,
            resolved: true,
            path: Vec::new(),
            cum: [4125329.368744901, 4100829.368744901, 0.0],
            rep: [0; 4],
        };
        let (mut stats, mut ref_stats) = (Stats::new(), Stats::new());
        [layer.cum_sent[0], layer.cum_deliv[0]] = [reference.cum[0], reference.cum[1]];
        layer.report(0, &mut stats);
        reference.report(&mut ref_stats);
        assert_eq!(stats.class(TrafficClass::Background).dropped_pkts, 49);
        layer.credit_whole(0, 86616.96956829984, &mut stats);
        reference.cum[0] += 86616.96956829984;
        reference.cum[1] += 86616.96956829984;
        reference.report(&mut ref_stats);
        assert!(layer.cum_sent[0] - layer.cum_deliv[0] < 24_500.0);
        let c = stats.class(TrafficClass::Background);
        assert_eq!(
            (c.sent_pkts, c.delivered_pkts, c.dropped_pkts),
            (8423, 8374, 49)
        );
        assert_eq!(stats, ref_stats);
        stats.check_conservation().unwrap();
    }
}
