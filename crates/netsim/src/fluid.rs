//! Fluid background-traffic layer: flow aggregates with closed-form link
//! admission (DESIGN.md §6.8).
//!
//! Steady background traffic does not need per-packet wheel events to be
//! measured faithfully — it needs its *rates* routed, filtered and
//! admitted. This module models each background demand as one **aggregate**
//! — a rate per (src, dst, path) stored in struct-of-arrays form — and
//! replaces the per-packet inner loop with a per-tick flat array fold:
//!
//! 1. **Path cache, epoch-subscribed.** Every aggregate caches its
//!    forwarding path as a flat run of link-direction ids. Paths are
//!    re-resolved only when [`crate::routing::Routing::epoch`] moves, and
//!    then only for the destinations named by
//!    [`crate::routing::Routing::dsts_invalidated_since`] — the same
//!    delta-history subscription the [`crate::oracle::RouteOracle`] uses —
//!    or for everything when the delta history has been outrun. Filter
//!    changes bump a separate filter epoch with the same contract.
//! 2. **Closed-form admission.** Per (link-direction, tick), the offered
//!    rate is the sum over aggregates whose cached path crosses it, thinned
//!    by upstream admission; the admitted fraction is
//!    `min(1, available/offered)` — proportional share, iterated a fixed
//!    small number of rounds so upstream thinning settles. Available
//!    capacity is the direction's *residual* after the discrete packet
//!    engine's virtual-queue state ([`crate::link::LinkDir::next_free`]),
//!    which is also advanced by the admitted fluid bytes — the two engines
//!    share one capacity model in both directions.
//! 3. **Exact conservation at the boundary.** All rate accounting runs in
//!    f64 byte accumulators, but [`crate::stats::Stats`] only ever sees
//!    whole packets derived by *flooring cumulative* counters
//!    (`floor(delivered) + floor(filtered) + floor(congested) <=
//!    floor(sent)` holds for any reals with `d + f + c <= s`), so the
//!    engine-wide `delivered + dropped <= sent` gate stays exact with the
//!    fluid layer on.
//!
//! Discrete packets survive where the paper's observables live — attack
//! sources, filtering devices and the victim. The [`crate::sim::Simulator`]
//! keeps a *packetized* node set; demands touching it materialize as
//! discrete constant-bit-rate emitters instead of aggregates (counted in
//! [`crate::stats::Stats::fluid_boundary_conversions`]), so those packets
//! still traverse agent chains, produce module verdicts and trace events.

use std::collections::HashMap;

use crate::addr::Addr;
use crate::node::NodeId;
use crate::packet::{Proto, TrafficClass};
use crate::routing::Routing;
use crate::stats::{DropReason, Stats};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// Admission-settling rounds per tick: round `k` recomputes each
/// direction's offered rate using round `k-1`'s upstream admitted
/// fractions. Two rounds plus the accounting pass settle chains of
/// bottlenecks to well under the fluid/packet equivalence tolerance.
const SETTLE_ROUNDS: usize = 2;

/// A rate-based filter applied to fluid aggregates at a node.
///
/// The fluid mirror of a packet-path module verdict: instead of judging
/// one packet, it returns the fraction of an aggregate's rate that may
/// continue (`1.0` = pass untouched, `0.0` = drop the aggregate here).
/// Filtered-off rate is charged to the aggregate's class as
/// [`DropReason::DeviceFilter`] drops at this node's hop distance.
pub trait FluidFilter: Send {
    /// Fraction of the aggregate `(src, dst, proto, size, class)` passed.
    /// Must return a value in `[0, 1]`; out-of-range values are clamped.
    fn pass(&self, src: Addr, dst: Addr, proto: Proto, size: u32, class: TrafficClass) -> f64;
}

/// One background traffic demand, before routing decides whether it lives
/// as a fluid aggregate or as discrete constant-bit-rate packets (see
/// [`crate::sim::Simulator::add_background_demand`]).
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
    proto: Vec<Proto>,
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
    /// Link-direction ids (`link.0 * 2 + dir_index`), path order.
    path_dirs: Vec<u32>,
    /// Forwarding node entering each dir (same indexing as `path_dirs`).
    path_nodes: Vec<u32>,

    // --- cached filter stops per aggregate (flat arena) ---------------
    fstep_off: Vec<u32>,
    fstep_len: Vec<u32>,
    /// Hop position of a filter stop (0 = at the source node; `path_len`
    /// = at the destination node, after the last link).
    fstep_pos: Vec<u32>,
    fstep_pass: Vec<f64>,

    // --- cumulative byte accounting (reported via floors) --------------
    cum_sent: Vec<f64>,
    cum_deliv: Vec<f64>,
    cum_fdrop: Vec<f64>,
    cum_fdrop_hops: Vec<f64>,
    cum_cdrop_hops: Vec<f64>,
    rep_sent: Vec<u64>,
    rep_deliv: Vec<u64>,
    rep_fdrop: Vec<u64>,
    rep_cdrop: Vec<u64>,
    rep_fdrop_hops: Vec<u64>,
    rep_cdrop_hops: Vec<u64>,

    // --- epochs & filters ----------------------------------------------
    route_epoch: u64,
    filters_dirty: bool,
    filters: Vec<Box<dyn FluidFilter>>,
    filters_at: HashMap<usize, Vec<usize>>,

    // --- per-(link, dir) scratch, dense but sparsely reset -------------
    offered: Vec<f64>,
    frac: Vec<f64>,
    avail: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u32>,
    /// Fractional fluid bytes not yet folded into `LinkDir::bytes_sent`.
    dir_carry: Vec<f64>,
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
            proto: Vec::new(),
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
            fstep_off: Vec::new(),
            fstep_len: Vec::new(),
            fstep_pos: Vec::new(),
            fstep_pass: Vec::new(),
            cum_sent: Vec::new(),
            cum_deliv: Vec::new(),
            cum_fdrop: Vec::new(),
            cum_fdrop_hops: Vec::new(),
            cum_cdrop_hops: Vec::new(),
            rep_sent: Vec::new(),
            rep_deliv: Vec::new(),
            rep_fdrop: Vec::new(),
            rep_cdrop: Vec::new(),
            rep_fdrop_hops: Vec::new(),
            rep_cdrop_hops: Vec::new(),
            route_epoch: epoch,
            filters_dirty: false,
            filters: Vec::new(),
            filters_at: HashMap::new(),
            offered: Vec::new(),
            frac: Vec::new(),
            avail: Vec::new(),
            seen: Vec::new(),
            touched: Vec::new(),
            dir_carry: Vec::new(),
        }
    }

    /// The tick interval.
    pub fn tick_len(&self) -> SimDuration {
        self.tick
    }

    /// Install an aggregate for `d`; its path resolves on the next tick.
    pub(crate) fn add(&mut self, d: &FluidDemand, now: SimTime) {
        assert!(d.rate_bps > 0.0, "demand rate must be positive");
        assert!(d.pkt_size > 0, "demand packet size must be positive");
        self.src.push(d.src);
        self.dst.push(d.dst);
        self.proto.push(d.proto);
        self.class.push(d.class);
        self.rate_bps.push(d.rate_bps);
        self.pkt_size.push(d.pkt_size);
        self.added_at.push(now);
        self.until.push(d.until);
        self.has_route.push(false);
        self.resolved.push(false);
        self.path_off.push(0);
        self.path_len.push(0);
        self.fstep_off.push(0);
        self.fstep_len.push(0);
        self.cum_sent.push(0.0);
        self.cum_deliv.push(0.0);
        self.cum_fdrop.push(0.0);
        self.cum_fdrop_hops.push(0.0);
        self.cum_cdrop_hops.push(0.0);
        self.rep_sent.push(0);
        self.rep_deliv.push(0);
        self.rep_fdrop.push(0);
        self.rep_cdrop.push(0);
        self.rep_fdrop_hops.push(0);
        self.rep_cdrop_hops.push(0);
    }

    /// Attach a fluid filter at `node`; takes effect from the next tick
    /// (bumps the filter epoch).
    pub(crate) fn add_filter(&mut self, node: NodeId, f: Box<dyn FluidFilter>) {
        let idx = self.filters.len();
        self.filters.push(f);
        self.filters_at.entry(node.0).or_default().push(idx);
        self.filters_dirty = true;
    }

    /// Any aggregate still offering traffic after `now`?
    pub(crate) fn any_active(&self, now: SimTime) -> bool {
        self.until.iter().any(|&u| u > now)
    }

    /// Seconds of aggregate `i`'s lifetime overlapping the window
    /// `(last, now]`.
    fn window_secs(&self, i: usize, last: SimTime, now: SimTime) -> f64 {
        let st = self.added_at[i].max(last);
        let en = self.until[i].min(now);
        if en > st {
            (en - st).as_secs_f64()
        } else {
            0.0
        }
    }

    /// Walk the forwarding tables for every unresolved aggregate and
    /// rebuild the flat path + filter-stop arenas. Returns how many paths
    /// were re-derived (the [`Stats::fluid_recomputes`] increment).
    fn resolve_paths(&mut self, topo: &Topology, routing: &Routing) -> u64 {
        let n_aggs = self.src.len();
        let mut recomputed = 0u64;
        let mut dirs = Vec::with_capacity(self.path_dirs.len());
        let mut nodes = Vec::with_capacity(self.path_nodes.len());
        let mut fpos = Vec::with_capacity(self.fstep_pos.len());
        let mut fpass = Vec::with_capacity(self.fstep_pass.len());
        let hop_limit = topo.n();
        for i in 0..n_aggs {
            let off = dirs.len() as u32;
            let foff = fpos.len() as u32;
            if self.resolved[i] {
                // Copy the still-valid slice from the old arena.
                let (o, l) = (self.path_off[i] as usize, self.path_len[i] as usize);
                dirs.extend_from_slice(&self.path_dirs[o..o + l]);
                nodes.extend_from_slice(&self.path_nodes[o..o + l]);
                let (fo, fl) = (self.fstep_off[i] as usize, self.fstep_len[i] as usize);
                fpos.extend_from_slice(&self.fstep_pos[fo..fo + fl]);
                fpass.extend_from_slice(&self.fstep_pass[fo..fo + fl]);
            } else {
                recomputed += 1;
                self.resolved[i] = true;
                let dst_node = self.dst[i].node();
                let mut cur = self.src[i].node();
                let mut routed = true;
                while cur != dst_node {
                    if dirs.len() as u32 - off >= hop_limit as u32 {
                        routed = false; // forwarding loop guard
                        break;
                    }
                    let Some(link) = routing.next_hop(cur, dst_node) else {
                        routed = false;
                        break;
                    };
                    let l = &topo.links[link.0];
                    dirs.push((link.0 * 2 + l.dir_index(cur)) as u32);
                    nodes.push(cur.0 as u32);
                    cur = l.other(cur);
                }
                if !routed {
                    dirs.truncate(off as usize);
                    nodes.truncate(off as usize);
                }
                self.has_route[i] = routed;
                // Filter stops along the (new) path: hop k is the node
                // entering link k; the destination node is hop path_len.
                if routed && !self.filters_at.is_empty() {
                    let plen = dirs.len() - off as usize;
                    for k in 0..=plen {
                        let node = if k < plen {
                            nodes[off as usize + k] as usize
                        } else {
                            dst_node.0
                        };
                        if let Some(fs) = self.filters_at.get(&node) {
                            for &fi in fs {
                                let p = self.filters[fi]
                                    .pass(
                                        self.src[i],
                                        self.dst[i],
                                        self.proto[i],
                                        self.pkt_size[i],
                                        self.class[i],
                                    )
                                    .clamp(0.0, 1.0);
                                if p < 1.0 {
                                    fpos.push(k as u32);
                                    fpass.push(p);
                                }
                            }
                        }
                    }
                }
            }
            self.path_off[i] = off;
            self.path_len[i] = dirs.len() as u32 - off;
            self.fstep_off[i] = foff;
            self.fstep_len[i] = fpos.len() as u32 - foff;
        }
        self.path_dirs = dirs;
        self.path_nodes = nodes;
        self.fstep_pos = fpos;
        self.fstep_pass = fpass;
        recomputed
    }

    /// One accounting tick over the window `(last_tick_at, now]`. Folds
    /// admitted/dropped rates into `stats`, advances the discrete link
    /// transmitters by the admitted fluid bytes, and returns whether any
    /// aggregate is still live (i.e. whether to schedule another tick).
    pub(crate) fn run_tick(
        &mut self,
        now: SimTime,
        topo: &mut Topology,
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
        let mut invalidate_paths = false;
        if routing.epoch() != self.route_epoch {
            stats.fluid_epoch_invalidations += 1;
            match routing.dsts_invalidated_since(self.route_epoch) {
                Some(dsts) => {
                    let dirty: std::collections::HashSet<usize> =
                        dsts.iter().map(|d| d.0).collect();
                    for i in 0..self.src.len() {
                        if dirty.contains(&self.dst[i].node().0) {
                            self.resolved[i] = false;
                        }
                    }
                }
                None => invalidate_paths = true,
            }
            self.route_epoch = routing.epoch();
        }
        if self.filters_dirty {
            // Filter placement interleaves with the cached path, so a
            // filter-epoch bump re-derives the stops via a path rebuild.
            stats.fluid_epoch_invalidations += 1;
            self.filters_dirty = false;
            invalidate_paths = true;
        }
        if invalidate_paths {
            self.resolved.iter_mut().for_each(|r| *r = false);
        }
        if self.resolved.iter().any(|r| !r) {
            stats.fluid_recomputes += self.resolve_paths(topo, routing);
        }

        // --- 2. Scratch prep: touched dirs + residual capacity ---------
        let n_dirs = topo.links.len() * 2;
        if self.offered.len() < n_dirs {
            self.offered.resize(n_dirs, 0.0);
            self.frac.resize(n_dirs, 0.0);
            self.avail.resize(n_dirs, 0.0);
            self.seen.resize(n_dirs, false);
            self.dir_carry.resize(n_dirs, 0.0);
        }
        let n_aggs = self.src.len();
        self.touched.clear();
        for i in 0..n_aggs {
            if !self.has_route[i] || self.window_secs(i, last, now) <= 0.0 {
                continue;
            }
            let (o, l) = (self.path_off[i] as usize, self.path_len[i] as usize);
            for &d in &self.path_dirs[o..o + l] {
                if !self.seen[d as usize] {
                    self.seen[d as usize] = true;
                    self.touched.push(d);
                }
            }
        }
        for &d in &self.touched {
            let d = d as usize;
            let link = &topo.links[d / 2];
            let ld = &link.dirs[d % 2];
            let idle_from = ld.next_free.max(last);
            self.avail[d] = if link.up && now > idle_from {
                (now - idle_from).as_secs_f64() * link.bandwidth_bps / 8.0
            } else {
                0.0
            };
            self.frac[d] = 1.0;
        }

        // --- 3. Proportional-share admission (settle, then account) ----
        for _ in 0..SETTLE_ROUNDS {
            for &d in &self.touched {
                self.offered[d as usize] = 0.0;
            }
            for i in 0..n_aggs {
                let dur = self.window_secs(i, last, now);
                if !self.has_route[i] || dur <= 0.0 {
                    continue;
                }
                let mut p = self.rate_bps[i] / 8.0 * dur;
                let (o, l) = (self.path_off[i] as usize, self.path_len[i] as usize);
                let (fo, fl) = (self.fstep_off[i] as usize, self.fstep_len[i] as usize);
                let mut fs = fo;
                for (k, &d) in self.path_dirs[o..o + l].iter().enumerate() {
                    while fs < fo + fl && self.fstep_pos[fs] as usize == k {
                        p *= self.fstep_pass[fs];
                        fs += 1;
                    }
                    self.offered[d as usize] += p;
                    p *= self.frac[d as usize];
                }
            }
            for &d in &self.touched {
                let d = d as usize;
                self.frac[d] = if self.offered[d] > self.avail[d] && self.offered[d] > 0.0 {
                    self.avail[d] / self.offered[d]
                } else {
                    1.0
                };
            }
        }

        // Accounting pass: final walk with settled fractions. `offered`
        // is reused to accumulate per-dir *admitted* bytes for the
        // discrete-engine coupling below.
        for &d in &self.touched {
            self.offered[d as usize] = 0.0;
        }
        for i in 0..n_aggs {
            let dur = self.window_secs(i, last, now);
            if dur <= 0.0 {
                continue;
            }
            let base = self.rate_bps[i] / 8.0 * dur;
            if !self.has_route[i] {
                self.cum_sent[i] += base;
                self.report(i, stats);
                continue;
            }
            let mut p = base;
            let mut fdrop = 0.0;
            let mut fdrop_hops = 0.0;
            let mut cdrop_hops = 0.0;
            let (o, l) = (self.path_off[i] as usize, self.path_len[i] as usize);
            let (fo, fl) = (self.fstep_off[i] as usize, self.fstep_len[i] as usize);
            let mut fs = fo;
            for (k, &d) in self.path_dirs[o..o + l].iter().enumerate() {
                while fs < fo + fl && self.fstep_pos[fs] as usize == k {
                    let cut = p * (1.0 - self.fstep_pass[fs]);
                    fdrop += cut;
                    fdrop_hops += cut * k as f64;
                    p *= self.fstep_pass[fs];
                    fs += 1;
                }
                let d = d as usize;
                self.offered[d] += p * self.frac[d];
                cdrop_hops += p * (1.0 - self.frac[d]) * k as f64;
                p *= self.frac[d];
            }
            // Destination-node filter stops (pos == path_len).
            while fs < fo + fl {
                let cut = p * (1.0 - self.fstep_pass[fs]);
                fdrop += cut;
                fdrop_hops += cut * l as f64;
                p *= self.fstep_pass[fs];
                fs += 1;
            }
            let deliv = p.min(base);
            let fdrop = fdrop.min(base - deliv);
            self.cum_sent[i] += base;
            self.cum_deliv[i] += deliv;
            self.cum_fdrop[i] += fdrop;
            self.cum_fdrop_hops[i] += fdrop_hops;
            self.cum_cdrop_hops[i] += cdrop_hops;
            self.report(i, stats);
        }

        // --- 4. Couple admitted fluid load back into the links ---------
        for &d in &self.touched {
            let di = d as usize;
            self.seen[di] = false; // sparse reset for the next tick
            let admitted = self.offered[di].min(self.avail[di]);
            if admitted <= 0.0 {
                continue;
            }
            let link = &mut topo.links[di / 2];
            let bw = link.bandwidth_bps;
            let ld = &mut link.dirs[di % 2];
            // Admitted ≤ residual idle time, so this lands at or before
            // `now`: fluid never leaves a standing backlog behind.
            let tx = SimDuration::from_nanos((admitted * 8.0 / bw * 1e9) as u64);
            ld.next_free = ld.next_free.max(last) + tx;
            let total = self.dir_carry[di] + admitted;
            let whole = total.floor();
            self.dir_carry[di] = total - whole;
            ld.bytes_sent += whole as u64;
        }
        self.any_active(now)
    }

    /// Fold aggregate `i`'s cumulative byte accounting into `stats` as
    /// whole packets, by flooring cumulatives and charging the deltas.
    /// All four floors are monotone, and
    /// `deliv + fdrop + cdrop <= sent` holds cumulatively, so the
    /// per-class conservation gate is exact.
    fn report(&mut self, i: usize, stats: &mut Stats) {
        let size = self.pkt_size[i] as f64;
        let sp = (self.cum_sent[i] / size) as u64;
        let dp = (self.cum_deliv[i] / size) as u64;
        let fp = (self.cum_fdrop[i] / size) as u64;
        let cdrop_bytes = (self.cum_sent[i] - self.cum_deliv[i] - self.cum_fdrop[i]).max(0.0);
        let cp = (cdrop_bytes / size) as u64;
        let fh = (self.cum_fdrop_hops[i] / size) as u64;
        let ch = (self.cum_cdrop_hops[i] / size) as u64;
        let d_sent = sp - self.rep_sent[i];
        let d_deliv = dp - self.rep_deliv[i];
        let d_f = fp - self.rep_fdrop[i];
        let d_c = cp - self.rep_cdrop[i];
        let d_fh = fh - self.rep_fdrop_hops[i];
        let d_ch = ch - self.rep_cdrop_hops[i];
        self.rep_sent[i] = sp;
        self.rep_deliv[i] = dp;
        self.rep_fdrop[i] = fp;
        self.rep_cdrop[i] = cp;
        self.rep_fdrop_hops[i] = fh;
        self.rep_cdrop_hops[i] = ch;
        if d_sent + d_deliv + d_f + d_c == 0 {
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
        c.dropped_pkts += d_f + d_c;
        c.dropped_bytes += (d_f + d_c) * bytes;
        c.dropped_byte_hops += (d_fh + d_ch) * bytes;
        if d_f > 0 {
            let agg = stats
                .drops
                .entry((class, DropReason::DeviceFilter))
                .or_default();
            agg.pkts += d_f;
            agg.bytes += d_f * bytes;
            agg.hops_sum += d_fh;
        }
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
    use crate::node::NodeId;
    use crate::sim::Simulator;
    use crate::stats::DropReason;

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

    /// Pass half of everything at one node.
    struct Halver;
    impl FluidFilter for Halver {
        fn pass(&self, _s: Addr, _d: Addr, _p: Proto, _z: u32, _c: TrafficClass) -> f64 {
            0.5
        }
    }

    #[test]
    fn fluid_filter_thins_aggregate_and_charges_device_drops() {
        let mut sim = line_sim(true);
        sim.enable_fluid(TICK);
        sim.add_fluid_filter(NodeId(1), Box::new(Halver));
        sim.add_background_demand(demand(0, 3, 4e6, 2));
        sim.run_until(SimTime::from_secs(3));
        let c = sim.stats.class(TrafficClass::Background);
        let ratio = c.delivered_pkts as f64 / c.sent_pkts as f64;
        assert!((ratio - 0.5).abs() < 0.01, "ratio {ratio}");
        let agg = sim.stats.drops_for_reason(DropReason::DeviceFilter);
        assert!(agg.pkts > 0, "filtered rate must surface as device drops");
        // Filter sits one hop from the source.
        assert_eq!(agg.hops_sum, agg.pkts);
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

    #[test]
    fn fluid_load_is_visible_to_discrete_links() {
        let mut sim = line_sim(true);
        sim.add_background_demand(demand(0, 3, 800e6, 2));
        sim.run_until(SimTime::from_secs(2));
        // 0.8 Gbit/s on a 1 Gbit/s link for 2 s: utilisation ~0.8 as
        // seen by the ordinary link counters.
        let u = sim.topo.links[0].utilisation(NodeId(0), SimTime::from_secs(2));
        assert!((u - 0.8).abs() < 0.05, "u={u}");
    }
}
