//! Pushback (Mahajan et al., "Controlling High Bandwidth Aggregates in the
//! Network") — the reactive baseline of Sec. 3.1.
//!
//! Each participating router observes tail-drops on its links. When drops
//! in a window exceed a threshold, it "classifies dropped packets according
//! to source addresses" (the paper's description): the aggregate (a /16
//! source prefix here, one per origin AS) with the highest drop count is
//! rate-limited locally, and a pushback message is sent to the upstream
//! neighbours that contributed that aggregate's traffic, which install the
//! same limit and recurse — confining the attack toward its sources.
//!
//! Both weaknesses the paper calls out are reproduced faithfully:
//!
//! * aggregates keyed on *source* mis-identify the innocent reflectors in a
//!   reflector attack (experiment E9), and spread thin under randomly
//!   spoofed sources;
//! * propagation stops at routers that do not speak the protocol (deploy
//!   the agent on a subset to see this).

use std::collections::BTreeMap;

use dtcs_netsim::{
    AgentCtx, ControlMsg, DropReason, LinkId, NodeAgent, NodeId, Packet, Prefix, SimDuration,
    Simulator, Verdict,
};

/// Which header field defines an aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateKey {
    /// Source /16 (the description in the reproduced paper; weak against
    /// spoofing and reflectors).
    SrcPrefix,
    /// Destination /16 (ACC-style victim aggregates; ablation).
    DstPrefix,
}

/// Monitoring / decision window.
const WINDOW: SimDuration = SimDuration::from_secs(1);
/// Maximum upstream propagation depth.
const DEPTH: u8 = 4;
/// Consecutive calm windows before a limit is removed (third phase of
/// reactive schemes: relief).
const RELIEF_WINDOWS: u32 = 3;

/// Pushback parameters.
#[derive(Clone, Copy, Debug)]
pub struct PushbackConfig {
    /// Tail-drops per link per window that indicate sustained congestion.
    pub drop_threshold: u64,
    /// Rate limit applied to an identified aggregate, bytes/second.
    pub limit_bytes_per_sec: f64,
    /// Token bucket depth for the limit.
    pub burst_bytes: u32,
    /// Aggregate definition.
    pub key: AggregateKey,
}

impl Default for PushbackConfig {
    fn default() -> Self {
        PushbackConfig {
            drop_threshold: 50,
            limit_bytes_per_sec: 50_000.0,
            burst_bytes: 25_000,
            key: AggregateKey::SrcPrefix,
        }
    }
}

/// Pushback protocol message (out-of-band control, per DESIGN.md §3).
#[derive(Clone, Copy, Debug)]
pub struct PushbackMsg {
    /// Aggregate to limit.
    pub prefix: Prefix,
    /// Requested rate, bytes/second.
    pub rate: f64,
    /// Remaining propagation depth.
    pub depth: u8,
}

/// What pushback agents did: one agent's own, or the fleet's
/// ([`PushbackStats::gather`]).
#[derive(Clone, Debug, Default)]
pub struct PushbackStats {
    /// `(node, aggregate prefix)` pairs where a limit was installed.
    pub limits_installed: Vec<(NodeId, Prefix)>,
    /// Pushback messages sent upstream.
    pub msgs_sent: u64,
    /// Packets dropped by rate limits, per aggregate prefix bits.
    pub dropped_per_aggregate: BTreeMap<u32, u64>,
    /// Limits removed after calm windows (relief phase).
    pub limits_relieved: u64,
}

impl PushbackStats {
    /// The fleet's stats: every pushback agent's in `sim`, folded in node
    /// order.
    pub fn gather(sim: &Simulator) -> PushbackStats {
        let mut all = PushbackStats::default();
        for node in 0..sim.topo.n() {
            let Some(agent) = sim.agent::<PushbackAgent>(NodeId(node)) else {
                continue;
            };
            let s = agent.stats();
            all.limits_installed.extend_from_slice(&s.limits_installed);
            all.msgs_sent += s.msgs_sent;
            for (&agg, &n) in &s.dropped_per_aggregate {
                *all.dropped_per_aggregate.entry(agg).or_insert(0) += n;
            }
            all.limits_relieved += s.limits_relieved;
        }
        all
    }
}

const WINDOW_TICK: u64 = 0xB0;

struct LimitState {
    tokens: f64,
    max_tokens: f64,
    last: dtcs_netsim::SimTime,
    rate: f64,
    calm_windows: u32,
    dropped_this_window: u64,
}

impl LimitState {
    fn new(rate: f64, burst: u32) -> LimitState {
        LimitState {
            tokens: burst as f64,
            max_tokens: burst as f64,
            last: dtcs_netsim::SimTime::ZERO,
            rate,
            calm_windows: 0,
            dropped_this_window: 0,
        }
    }

    fn take(&mut self, now: dtcs_netsim::SimTime, bytes: u32) -> bool {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate).min(self.max_tokens);
            self.last = now;
        }
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            self.dropped_this_window += 1;
            false
        }
    }
}

/// One router's pushback logic.
pub struct PushbackAgent {
    node: NodeId,
    cfg: PushbackConfig,
    /// Tail-drops this window: (outgoing link, aggregate bits) → count.
    drops: BTreeMap<(LinkId, u32), u64>,
    /// Tail-drops this window per outgoing link.
    link_drops: BTreeMap<LinkId, u64>,
    /// Aggregate → (inbound link → packets) this window, for upstream
    /// attribution.
    contrib: BTreeMap<u32, BTreeMap<Option<LinkId>, u64>>,
    /// Previous window's contributions (used when a pushback message
    /// arrives right after a window flip).
    prev_contrib: BTreeMap<u32, BTreeMap<Option<LinkId>, u64>>,
    limits: BTreeMap<u32, LimitState>,
    timer_armed: bool,
    stats: PushbackStats,
}

impl PushbackAgent {
    /// Agent for `node`.
    pub fn new(node: NodeId, cfg: PushbackConfig) -> PushbackAgent {
        PushbackAgent {
            node,
            cfg,
            drops: BTreeMap::new(),
            link_drops: BTreeMap::new(),
            contrib: BTreeMap::new(),
            prev_contrib: BTreeMap::new(),
            limits: BTreeMap::new(),
            timer_armed: false,
            stats: PushbackStats::default(),
        }
    }

    /// What this agent did.
    pub fn stats(&self) -> &PushbackStats {
        &self.stats
    }

    fn aggregate_bits(&self, pkt: &Packet) -> u32 {
        let addr = match self.cfg.key {
            AggregateKey::SrcPrefix => pkt.src,
            AggregateKey::DstPrefix => pkt.dst,
        };
        addr.0 & 0xFFFF_0000
    }

    fn install_limit(&mut self, agg: u32, rate: f64) {
        if self.limits.contains_key(&agg) {
            return;
        }
        self.limits
            .insert(agg, LimitState::new(rate, self.cfg.burst_bytes));
        self.stats
            .limits_installed
            .push((self.node, Prefix::new(agg, 16)));
    }

    /// Send pushback requests to the upstream neighbours that contributed
    /// traffic of this aggregate.
    fn propagate(&mut self, ctx: &mut AgentCtx<'_>, agg: u32, rate: f64, depth: u8) {
        if depth == 0 {
            return;
        }
        let contributions = self
            .contrib
            .get(&agg)
            .or_else(|| self.prev_contrib.get(&agg))
            .cloned()
            .unwrap_or_default();
        let total: u64 = contributions.values().sum();
        if total == 0 {
            return;
        }
        for (in_link, count) in contributions {
            let Some(link) = in_link else { continue };
            // Only push toward neighbours carrying a meaningful share.
            if count * 10 < total {
                continue;
            }
            let peer = ctx.topo.links[link.0].other(self.node);
            let latency = ctx.topo.links[link.0].latency;
            ctx.send_control(
                peer,
                latency,
                PushbackMsg {
                    prefix: Prefix::new(agg, 16),
                    rate,
                    depth: depth - 1,
                },
            );
            self.stats.msgs_sent += 1;
        }
    }

    fn end_window(&mut self, ctx: &mut AgentCtx<'_>) {
        // Detection: links with sustained drops; limit their hottest
        // source aggregate.
        let hot_links: Vec<LinkId> = self
            .link_drops
            .iter()
            .filter(|&(_, &d)| d >= self.cfg.drop_threshold)
            .map(|(&l, _)| l)
            .collect();
        for link in hot_links {
            let top = self
                .drops
                .iter()
                .filter(|((l, _), _)| *l == link)
                .max_by_key(|((_, agg), &count)| (count, std::cmp::Reverse(*agg)))
                .map(|((_, agg), _)| *agg);
            if let Some(agg) = top {
                self.install_limit(agg, self.cfg.limit_bytes_per_sec);
                self.propagate(ctx, agg, self.cfg.limit_bytes_per_sec, DEPTH);
            }
        }
        // Relief: drop limits that stayed calm.
        let mut removed = 0u64;
        self.limits.retain(|_, st| {
            if st.dropped_this_window == 0 {
                st.calm_windows += 1;
            } else {
                st.calm_windows = 0;
            }
            st.dropped_this_window = 0;
            let keep = st.calm_windows < RELIEF_WINDOWS;
            if !keep {
                removed += 1;
            }
            keep
        });
        if removed > 0 {
            self.stats.limits_relieved += removed;
        }
        self.prev_contrib = std::mem::take(&mut self.contrib);
        self.drops.clear();
        self.link_drops.clear();
    }
}

impl NodeAgent for PushbackAgent {
    fn name(&self) -> &'static str {
        "pushback"
    }

    fn on_packet(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        pkt: &mut Packet,
        from: Option<LinkId>,
    ) -> Verdict {
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(WINDOW, WINDOW_TICK);
        }
        let agg = self.aggregate_bits(pkt);
        *self
            .contrib
            .entry(agg)
            .or_default()
            .entry(from)
            .or_insert(0) += 1;
        if let Some(limit) = self.limits.get_mut(&agg) {
            if !limit.take(ctx.now, pkt.size) {
                *self.stats.dropped_per_aggregate.entry(agg).or_insert(0) += 1;
                return Verdict::Drop(DropReason::PushbackLimit);
            }
        }
        Verdict::Forward
    }

    fn on_link_drop(&mut self, _ctx: &mut AgentCtx<'_>, link: LinkId, pkt: &Packet) {
        let agg = self.aggregate_bits(pkt);
        *self.drops.entry((link, agg)).or_insert(0) += 1;
        *self.link_drops.entry(link).or_insert(0) += 1;
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        if token != WINDOW_TICK {
            return;
        }
        self.end_window(ctx);
        ctx.set_timer(WINDOW, WINDOW_TICK);
    }

    fn on_control(&mut self, ctx: &mut AgentCtx<'_>, msg: &ControlMsg) {
        let Some(req) = msg.get::<PushbackMsg>() else {
            return;
        };
        let agg = req.prefix.bits;
        let fresh = !self.limits.contains_key(&agg);
        self.install_limit(agg, req.rate);
        if fresh {
            self.propagate(ctx, agg, req.rate, req.depth);
        }
    }
}

/// Install pushback on every node of the simulator (full deployment);
/// [`PushbackStats::gather`] reads what the fleet did.
pub fn deploy_pushback_everywhere(sim: &mut Simulator, cfg: PushbackConfig) {
    for i in 0..sim.topo.n() {
        sim.add_agent(NodeId(i), Box::new(PushbackAgent::new(NodeId(i), cfg)));
    }
}

/// Install pushback on a subset of nodes (partial deployment: propagation
/// stops at non-speaking routers, Sec. 3.1).
pub fn deploy_pushback_on(sim: &mut Simulator, nodes: &[NodeId], cfg: PushbackConfig) {
    for &n in nodes {
        sim.add_agent(n, Box::new(PushbackAgent::new(n, cfg)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{Addr, LinkProfile, PacketBuilder, Proto, SimTime, Topology, TrafficClass};

    /// Dumbbell with a skinny bottleneck; flood from left leaves to the
    /// right service until pushback engages.
    fn flooded_dumbbell(cfg: PushbackConfig) -> (dtcs_netsim::Simulator, Addr) {
        // 1 Mbit/s bottleneck.
        let skinny = LinkProfile {
            bandwidth_bps: 1e6,
            latency: dtcs_netsim::SimDuration::from_millis(5),
            queue_limit_bytes: 20_000,
        };
        let topo = Topology::dumbbell(3, 1, skinny);
        let mut sim = dtcs_netsim::Simulator::new(topo, 3);
        deploy_pushback_everywhere(&mut sim, cfg);
        let victim = Addr::new(NodeId(3 + 2), 1); // first right-side stub
        sim.install_app(victim, Box::new(dtcs_netsim::SinkApp));
        // Flood: left stubs (nodes 2,3,4) each blast 1000-byte packets at
        // 500 pps for 10 s; bottleneck fits ~125 pps total.
        for (i, src_node) in [2usize, 3, 4].iter().enumerate() {
            let src_node = NodeId(*src_node);
            for k in 0..5000u64 {
                let at = SimTime(k * 2_000_000 + i as u64 * 700_000);
                sim.schedule(at, move |s| {
                    s.emit_now(
                        src_node,
                        PacketBuilder::new(
                            Addr::new(src_node, 3),
                            victim,
                            Proto::Udp,
                            TrafficClass::AttackDirect,
                        )
                        .size(1000)
                        .flow(k),
                    );
                });
            }
        }
        (sim, victim)
    }

    #[test]
    fn pushback_engages_under_congestion() {
        let (mut sim, _victim) = flooded_dumbbell(PushbackConfig::default());
        sim.run_until(SimTime::from_secs(10));
        let s = PushbackStats::gather(&sim);
        assert!(
            !s.limits_installed.is_empty(),
            "sustained congestion must trigger pushback"
        );
        assert!(s.msgs_sent > 0, "limits must be pushed upstream");
        assert!(
            sim.stats.drops_for_reason(DropReason::PushbackLimit).pkts > 0,
            "rate limits must actually drop traffic"
        );
    }

    #[test]
    fn pushback_moves_drops_upstream() {
        let (mut sim, _victim) = flooded_dumbbell(PushbackConfig::default());
        sim.run_until(SimTime::from_secs(10));
        // At least one limit sits on a node other than the bottleneck
        // heads (0/1): it reached the source-side stubs.
        let s = PushbackStats::gather(&sim);
        let upstream = s.limits_installed.iter().filter(|(n, _)| n.0 >= 2).count();
        assert!(upstream > 0, "limits: {:?}", s.limits_installed);
    }

    #[test]
    fn relief_removes_limits_after_attack() {
        let (mut sim, _victim) = flooded_dumbbell(PushbackConfig::default());
        // Attack traffic ends at ~10 s; run long past it.
        sim.run_until(SimTime::from_secs(30));
        let s = PushbackStats::gather(&sim);
        assert!(s.limits_relieved > 0, "limits must be relieved after calm");
    }

    #[test]
    fn quiet_network_triggers_nothing() {
        let topo = Topology::line(4);
        let mut sim = dtcs_netsim::Simulator::new(topo, 3);
        deploy_pushback_everywhere(&mut sim, PushbackConfig::default());
        let dst = Addr::new(NodeId(3), 1);
        sim.install_app(dst, Box::new(dtcs_netsim::SinkApp));
        for k in 0..100u64 {
            let at = SimTime(k * 10_000_000);
            sim.schedule(at, move |s| {
                s.emit_now(
                    NodeId(0),
                    PacketBuilder::new(
                        Addr::new(NodeId(0), 1),
                        dst,
                        Proto::TcpData,
                        TrafficClass::LegitRequest,
                    )
                    .size(200),
                );
            });
        }
        sim.run_until(SimTime::from_secs(5));
        assert!(PushbackStats::gather(&sim).limits_installed.is_empty());
        assert_eq!(
            sim.stats.class(TrafficClass::LegitRequest).delivered_pkts,
            100
        );
    }
}
