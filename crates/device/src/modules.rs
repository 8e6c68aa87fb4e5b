//! Runtime packet-processing modules.
//!
//! Each verified [`ModuleSpec`] is instantiated
//! into a [`Module`]. Modules see only the restricted
//! [`PacketView`] plus a [`ModuleEnv`] and decide
//! pass/drop; anything else they want to do (telemetry, trigger
//! activations) goes through the environment and is budget-checked by the
//! device.

use dtcs_netsim::{DropReason, Prefix, SimDuration, SimTime};

use crate::spec::{FilterRule, MatchExpr, ModuleSpec, TriggerAction, TriggerMetric};
use crate::support::{Bloom, LogEntry, RingLog, TokenBucket, WindowRate};
use crate::view::{DeviceEvent, ModuleEnv, PacketView};

/// Pass/drop decision from one module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModuleAction {
    /// Continue through the graph.
    Pass,
    /// Drop the packet with this reason.
    Drop(DropReason),
}

/// A runtime packet-processing module.
pub trait Module: Send {
    /// Stable kind name.
    fn kind(&self) -> &'static str;

    /// Process one packet.
    fn process(&mut self, env: &mut ModuleEnv<'_>, view: &mut PacketView<'_>) -> ModuleAction;

    /// Traceback query hook: did this module record `digest` within
    /// `[from, to]`? `None` when the module keeps no backlog.
    fn query_digest(&self, _digest: u64, _from: SimTime, _to: SimTime) -> Option<bool> {
        None
    }

    /// Drain buffered log entries, if this module keeps a log.
    fn drain_log(&mut self) -> Option<Vec<LogEntry>> {
        None
    }
}

/// Instantiate a verified spec. Panics on the forbidden variants — the
/// device never calls this without a successful
/// [`SafetyVerifier`](crate::safety::SafetyVerifier) pass, and hitting one
/// here would mean the verifier gate was bypassed.
pub fn instantiate(spec: &ModuleSpec) -> Box<dyn Module> {
    match spec {
        ModuleSpec::Filter { rules } => Box::new(FilterModule {
            rules: rules.clone(),
        }),
        ModuleSpec::RateLimit {
            expr,
            rate_bytes_per_sec,
            burst_bytes,
        } => Box::new(RateLimitModule {
            expr: expr.clone(),
            bucket: TokenBucket::new(*rate_bytes_per_sec, *burst_bytes),
        }),
        ModuleSpec::Blacklist { sources } => Box::new(BlacklistModule {
            sources: sources.clone(),
        }),
        ModuleSpec::AntiSpoof => Box::new(AntiSpoofModule),
        ModuleSpec::PayloadDelete { expr, keep_bytes } => Box::new(PayloadDeleteModule {
            expr: expr.clone(),
            keep_bytes: *keep_bytes,
        }),
        ModuleSpec::Logger {
            capacity,
            sample_one_in,
        } => Box::new(LoggerModule {
            ring: RingLog::new(*capacity),
            sample_one_in: (*sample_one_in).max(1),
            seen: 0,
            notified_at_total: 0,
            capacity: *capacity,
        }),
        ModuleSpec::DigestBacklog {
            window,
            windows,
            bits,
            hashes,
        } => Box::new(DigestBacklogModule::new(*window, *windows, *bits, *hashes)),
        ModuleSpec::Trigger {
            expr,
            metric,
            threshold,
            window,
            action,
            tag,
        } => Box::new(TriggerModule {
            expr: expr.clone(),
            metric: *metric,
            threshold: *threshold,
            rate: WindowRate::new(*window),
            action: *action,
            tag: *tag,
            fired: false,
        }),
        ModuleSpec::RewriteHeader { .. }
        | ModuleSpec::TtlModify { .. }
        | ModuleSpec::Amplify { .. }
        | ModuleSpec::Redirect { .. } => {
            panic!(
                "BUG: forbidden module '{}' reached instantiation — safety verifier bypassed",
                spec.kind()
            )
        }
    }
}

/// First-match filter.
pub struct FilterModule {
    rules: Vec<FilterRule>,
}

impl Module for FilterModule {
    fn kind(&self) -> &'static str {
        "filter"
    }

    fn process(&mut self, _env: &mut ModuleEnv<'_>, view: &mut PacketView<'_>) -> ModuleAction {
        for rule in &self.rules {
            if rule.expr.matches_full(
                view.src(),
                view.dst(),
                view.proto(),
                view.size(),
                view.payload_tag(),
            ) {
                return if rule.drop {
                    ModuleAction::Drop(DropReason::DeviceFilter)
                } else {
                    ModuleAction::Pass
                };
            }
        }
        ModuleAction::Pass
    }
}

/// Token-bucket rate limiter.
pub struct RateLimitModule {
    expr: MatchExpr,
    bucket: TokenBucket,
}

impl Module for RateLimitModule {
    fn kind(&self) -> &'static str {
        "rate-limit"
    }

    fn process(&mut self, env: &mut ModuleEnv<'_>, view: &mut PacketView<'_>) -> ModuleAction {
        if !self.expr.matches_full(
            view.src(),
            view.dst(),
            view.proto(),
            view.size(),
            view.payload_tag(),
        ) {
            return ModuleAction::Pass;
        }
        if self.bucket.take(env.now, view.size()) {
            ModuleAction::Pass
        } else {
            ModuleAction::Drop(DropReason::DeviceRateLimit)
        }
    }
}

/// Source blacklist.
pub struct BlacklistModule {
    sources: Vec<Prefix>,
}

impl Module for BlacklistModule {
    fn kind(&self) -> &'static str {
        "blacklist"
    }

    fn process(&mut self, _env: &mut ModuleEnv<'_>, view: &mut PacketView<'_>) -> ModuleAction {
        let src = view.src();
        if self.sources.iter().any(|p| p.contains(src)) {
            ModuleAction::Drop(DropReason::Blacklist)
        } else {
            ModuleAction::Pass
        }
    }
}

/// Distributed anti-spoofing (the paper's flagship application, Sec. 4.3).
///
/// Runs in a *source-owner* (stage 1) graph, so every packet it sees claims
/// one of the owner's addresses as source. The spoof verdict itself is
/// computed by the device (which has the routing context the module must
/// not own) with the check the static ingress filter also runs,
/// `dtcs_netsim::RouteOracle::source_mismatch`: local emissions must carry
/// a local source, customer-side arrivals must be route-consistent with
/// the claimed source (Park & Lee route-based filtering, the mechanism the
/// paper cites in Sec. 3.2), and transit arrivals are never judged
/// (Sec. 4.2) — the device nearer the true edge is responsible.
pub struct AntiSpoofModule;

impl Module for AntiSpoofModule {
    fn kind(&self) -> &'static str {
        "anti-spoof"
    }

    fn process(&mut self, env: &mut ModuleEnv<'_>, _view: &mut PacketView<'_>) -> ModuleAction {
        if env.spoof_suspect {
            ModuleAction::Drop(DropReason::SpoofFilter)
        } else {
            ModuleAction::Pass
        }
    }
}

/// Payload stripper.
pub struct PayloadDeleteModule {
    expr: MatchExpr,
    keep_bytes: u32,
}

impl Module for PayloadDeleteModule {
    fn kind(&self) -> &'static str {
        "payload-delete"
    }

    fn process(&mut self, _env: &mut ModuleEnv<'_>, view: &mut PacketView<'_>) -> ModuleAction {
        if self.expr.matches_full(
            view.src(),
            view.dst(),
            view.proto(),
            view.size(),
            view.payload_tag(),
        ) {
            view.truncate(self.keep_bytes);
        }
        ModuleAction::Pass
    }
}

/// Sampling digest logger.
pub struct LoggerModule {
    ring: RingLog,
    sample_one_in: u32,
    seen: u64,
    notified_at_total: u64,
    capacity: usize,
}

impl Module for LoggerModule {
    fn kind(&self) -> &'static str {
        "logger"
    }

    fn process(&mut self, env: &mut ModuleEnv<'_>, view: &mut PacketView<'_>) -> ModuleAction {
        self.seen += 1;
        if self.seen.is_multiple_of(self.sample_one_in as u64) {
            self.ring.push(LogEntry {
                at: env.now,
                digest: view.digest(),
            });
            // Notify the owner each time a full ring's worth accumulated.
            if self.ring.total() >= self.notified_at_total + self.capacity as u64 {
                self.notified_at_total = self.ring.total();
                env.events.push(DeviceEvent::LogReady {
                    owner: env.owner,
                    entries: self.ring.len(),
                    node: env.ctx.node,
                });
            }
        }
        ModuleAction::Pass
    }

    fn drain_log(&mut self) -> Option<Vec<LogEntry>> {
        let snap = self.ring.snapshot();
        self.ring = RingLog::new(self.capacity);
        Some(snap)
    }
}

/// SPIE-style rotating digest backlog.
pub struct DigestBacklogModule {
    window: SimDuration,
    blooms: Vec<(SimTime, Bloom)>,
    windows: usize,
    bits: u32,
    hashes: u8,
    current_start: SimTime,
}

impl DigestBacklogModule {
    fn new(window: SimDuration, windows: usize, bits: u32, hashes: u8) -> Self {
        DigestBacklogModule {
            window: SimDuration(window.as_nanos().max(1)),
            blooms: Vec::new(),
            windows: windows.max(1),
            bits,
            hashes,
            current_start: SimTime::ZERO,
        }
    }

    fn rotate_to(&mut self, now: SimTime) {
        let w = self.window.as_nanos();
        let start = SimTime((now.as_nanos() / w) * w);
        if self.blooms.is_empty() || start > self.current_start {
            self.current_start = start;
            self.blooms
                .push((start, Bloom::new(self.bits, self.hashes)));
            while self.blooms.len() > self.windows {
                self.blooms.remove(0);
            }
        }
    }
}

impl Module for DigestBacklogModule {
    fn kind(&self) -> &'static str {
        "digest-backlog"
    }

    fn process(&mut self, env: &mut ModuleEnv<'_>, view: &mut PacketView<'_>) -> ModuleAction {
        self.rotate_to(env.now);
        let digest = view.digest();
        if let Some((_, bloom)) = self.blooms.last_mut() {
            bloom.insert(digest);
        }
        ModuleAction::Pass
    }

    fn query_digest(&self, digest: u64, from: SimTime, to: SimTime) -> Option<bool> {
        let hit = self.blooms.iter().any(|(start, bloom)| {
            let end = *start + self.window;
            *start <= to && end >= from && bloom.contains(digest)
        });
        Some(hit)
    }
}

/// Threshold trigger with hysteresis via window rates.
pub struct TriggerModule {
    expr: MatchExpr,
    metric: TriggerMetric,
    threshold: f64,
    rate: WindowRate,
    action: TriggerAction,
    tag: u32,
    fired: bool,
}

impl Module for TriggerModule {
    fn kind(&self) -> &'static str {
        "trigger"
    }

    fn process(&mut self, env: &mut ModuleEnv<'_>, view: &mut PacketView<'_>) -> ModuleAction {
        let matched = self.expr.matches_full(
            view.src(),
            view.dst(),
            view.proto(),
            view.size(),
            view.payload_tag(),
        );
        let amount = if matched {
            match self.metric {
                TriggerMetric::PacketRate => 1.0,
                TriggerMetric::ByteRate => view.size() as f64,
            }
        } else {
            0.0
        };
        if let Some((rate, gap)) = self.rate.record(env.now, amount) {
            // Evaluate the completed window's rate, and — when empty
            // windows followed it — the subsequent zero rate, so a burst
            // produces both its firing and its relief.
            let evals: [Option<f64>; 2] = [Some(rate), if gap { Some(0.0) } else { None }];
            for rate in evals.into_iter().flatten() {
                if rate > self.threshold && !self.fired {
                    self.fired = true;
                    env.events.push(DeviceEvent::TriggerFired {
                        owner: env.owner,
                        tag: self.tag,
                        value: rate,
                        node: env.ctx.node,
                        at: env.now,
                    });
                    if let TriggerAction::ActivateModule(idx) = self.action {
                        env.activations.push((idx, true));
                    }
                } else if rate <= self.threshold && self.fired {
                    self.fired = false;
                    env.events.push(DeviceEvent::TriggerRelieved {
                        owner: env.owner,
                        tag: self.tag,
                        node: env.ctx.node,
                        at: env.now,
                    });
                    if let TriggerAction::ActivateModule(idx) = self.action {
                        env.activations.push((idx, false));
                    }
                }
            }
        }
        ModuleAction::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::OwnerId;
    use crate::view::DeviceContext;
    use dtcs_netsim::{Addr, NodeId, Packet, PacketBuilder, Proto, TrafficClass};

    fn mk_pkt(src: Addr, dst: Addr, proto: Proto, size: u32) -> Packet {
        PacketBuilder::new(src, dst, proto, TrafficClass::Background)
            .size(size)
            .build(1, src.node())
    }

    fn ctx(node: NodeId) -> DeviceContext {
        DeviceContext {
            node,
            local_prefixes: vec![Prefix::of_node(node)],
        }
    }

    struct EnvBits {
        events: Vec<DeviceEvent>,
        activations: Vec<(usize, bool)>,
        ctx: DeviceContext,
        spoof_suspect: bool,
    }

    impl EnvBits {
        fn new(node: NodeId) -> Self {
            EnvBits {
                events: Vec::new(),
                activations: Vec::new(),
                ctx: ctx(node),
                spoof_suspect: false,
            }
        }

        fn env(&mut self, now: SimTime) -> ModuleEnv<'_> {
            ModuleEnv {
                now,
                ctx: &self.ctx,
                spoof_suspect: self.spoof_suspect,
                owner: OwnerId(1),
                events: &mut self.events,
                activations: &mut self.activations,
            }
        }
    }

    #[test]
    fn filter_first_match_semantics() {
        let allow_then_drop = vec![
            FilterRule {
                expr: MatchExpr::proto(Proto::DnsQuery),
                drop: false,
            },
            FilterRule {
                expr: MatchExpr::any(),
                drop: true,
            },
        ];
        let mut m = FilterModule {
            rules: allow_then_drop,
        };
        let mut bits = EnvBits::new(NodeId(0));
        let mut dns = mk_pkt(Addr(1), Addr(2), Proto::DnsQuery, 60);
        let mut view = PacketView::new(&mut dns);
        assert_eq!(
            m.process(&mut bits.env(SimTime::ZERO), &mut view),
            ModuleAction::Pass
        );
        let mut udp = mk_pkt(Addr(1), Addr(2), Proto::Udp, 60);
        let mut view = PacketView::new(&mut udp);
        assert_eq!(
            m.process(&mut bits.env(SimTime::ZERO), &mut view),
            ModuleAction::Drop(DropReason::DeviceFilter)
        );
    }

    #[test]
    fn rate_limit_enforces_rate() {
        let mut m = RateLimitModule {
            expr: MatchExpr::any(),
            bucket: TokenBucket::new(100.0, 100),
        };
        let mut bits = EnvBits::new(NodeId(0));
        let mut passed = 0;
        for i in 0..20 {
            let now = SimTime::from_millis(i * 10);
            let mut p = mk_pkt(Addr(1), Addr(2), Proto::Udp, 50);
            let mut v = PacketView::new(&mut p);
            if m.process(&mut bits.env(now), &mut v) == ModuleAction::Pass {
                passed += 1;
            }
        }
        // 0.2 s at 100 B/s plus 100 B burst = 120 B => 2 x 50 B packets
        // (plus perhaps a refill catch) — far fewer than 20.
        assert!((2..=4).contains(&passed), "passed={passed}");
    }

    #[test]
    fn antispoof_follows_device_verdict() {
        let mut m = AntiSpoofModule;
        let node = NodeId(5);
        let victim_src = Addr::new(NodeId(77), 1); // claimed source: victim

        // Device judged the packet spoofed: drop.
        let mut bits = EnvBits::new(node);
        bits.spoof_suspect = true;
        let mut p = mk_pkt(victim_src, Addr(1), Proto::TcpSyn, 40);
        let mut v = PacketView::new(&mut p);
        assert_eq!(
            m.process(&mut bits.env(SimTime::ZERO), &mut v),
            ModuleAction::Drop(DropReason::SpoofFilter)
        );

        // Device judged it consistent: pass.
        bits.spoof_suspect = false;
        let mut p = mk_pkt(Addr::new(node, 1), Addr(1), Proto::TcpSyn, 40);
        let mut v = PacketView::new(&mut p);
        assert_eq!(
            m.process(&mut bits.env(SimTime::ZERO), &mut v),
            ModuleAction::Pass
        );
    }

    #[test]
    fn payload_delete_shrinks_only_matches() {
        let mut m = PayloadDeleteModule {
            expr: MatchExpr::proto(Proto::Udp),
            keep_bytes: 40,
        };
        let mut bits = EnvBits::new(NodeId(0));
        let mut p = mk_pkt(Addr(1), Addr(2), Proto::Udp, 1000);
        let mut v = PacketView::new(&mut p);
        m.process(&mut bits.env(SimTime::ZERO), &mut v);
        let _ = v;
        assert_eq!(p.size, 40);
        let mut q = mk_pkt(Addr(1), Addr(2), Proto::TcpData, 1000);
        let mut v = PacketView::new(&mut q);
        m.process(&mut bits.env(SimTime::ZERO), &mut v);
        let _ = v;
        assert_eq!(q.size, 1000);
    }

    #[test]
    fn logger_samples_and_notifies() {
        let mut m = LoggerModule {
            ring: RingLog::new(4),
            sample_one_in: 2,
            seen: 0,
            notified_at_total: 0,
            capacity: 4,
        };
        let mut bits = EnvBits::new(NodeId(0));
        for i in 0..16u64 {
            let mut p = mk_pkt(Addr(1), Addr(2), Proto::Udp, 100);
            p.payload_tag = i;
            let mut v = PacketView::new(&mut p);
            m.process(&mut bits.env(SimTime(i)), &mut v);
        }
        // 16 seen, every 2nd sampled = 8 logged; ring keeps 4.
        assert_eq!(m.ring.len(), 4);
        assert_eq!(m.ring.total(), 8);
        let notifications = bits
            .events
            .iter()
            .filter(|e| matches!(e, DeviceEvent::LogReady { .. }))
            .count();
        assert_eq!(notifications, 2, "one per filled ring");
        let log = m.drain_log().unwrap();
        assert_eq!(log.len(), 4);
        assert!(m.drain_log().unwrap().is_empty());
    }

    #[test]
    fn backlog_answers_time_scoped_queries() {
        let spec = ModuleSpec::DigestBacklog {
            window: SimDuration::from_secs(1),
            windows: 4,
            bits: 1 << 14,
            hashes: 4,
        };
        let mut m = instantiate(&spec);
        let mut bits = EnvBits::new(NodeId(0));
        let mut p = mk_pkt(Addr(1), Addr(2), Proto::Udp, 100);
        p.payload_tag = 99;
        let digest = crate::view::digest_packet(&p);
        let mut v = PacketView::new(&mut p);
        m.process(&mut bits.env(SimTime::from_millis(500)), &mut v);
        // Query overlapping the insertion window: hit.
        assert_eq!(
            m.query_digest(digest, SimTime::ZERO, SimTime::from_secs(1)),
            Some(true)
        );
        // Unknown digest: miss (with high probability).
        assert_eq!(
            m.query_digest(0xDEAD_BEEF, SimTime::ZERO, SimTime::from_secs(1)),
            Some(false)
        );
    }

    #[test]
    fn backlog_expires_old_windows() {
        let spec = ModuleSpec::DigestBacklog {
            window: SimDuration::from_secs(1),
            windows: 2,
            bits: 1 << 12,
            hashes: 3,
        };
        let mut m = instantiate(&spec);
        let mut bits = EnvBits::new(NodeId(0));
        let mut p = mk_pkt(Addr(1), Addr(2), Proto::Udp, 100);
        let digest = crate::view::digest_packet(&p);
        let mut v = PacketView::new(&mut p);
        m.process(&mut bits.env(SimTime::from_millis(100)), &mut v);
        // Push enough later windows to expire the first.
        for s in [2u64, 3, 4] {
            let mut q = mk_pkt(Addr(3), Addr(4), Proto::Udp, 100);
            q.payload_tag = s;
            let mut v = PacketView::new(&mut q);
            m.process(&mut bits.env(SimTime::from_secs(s)), &mut v);
        }
        assert_eq!(
            m.query_digest(digest, SimTime::ZERO, SimTime::from_secs(1)),
            Some(false),
            "window containing the digest has been rotated out"
        );
    }

    #[test]
    fn trigger_fires_and_relieves() {
        let spec = ModuleSpec::Trigger {
            expr: MatchExpr::proto(Proto::TcpSynAck),
            metric: TriggerMetric::PacketRate,
            threshold: 50.0,
            window: SimDuration::from_millis(100),
            action: TriggerAction::ActivateModule(2),
            tag: 7,
        };
        let mut m = instantiate(&spec);
        let mut bits = EnvBits::new(NodeId(0));
        // 100 ms of 100 SYN-ACKs => 1000 pps >> 50 threshold.
        for i in 0..100u64 {
            let mut p = mk_pkt(Addr(1), Addr(2), Proto::TcpSynAck, 60);
            let mut v = PacketView::new(&mut p);
            m.process(&mut bits.env(SimTime(i * 1_000_000)), &mut v);
        }
        // First packet of the next window completes the hot window: fires.
        let mut p = mk_pkt(Addr(1), Addr(2), Proto::TcpSynAck, 60);
        let mut v = PacketView::new(&mut p);
        m.process(&mut bits.env(SimTime::from_millis(100)), &mut v);
        assert!(bits
            .events
            .iter()
            .any(|e| matches!(e, DeviceEvent::TriggerFired { tag: 7, .. })));
        assert_eq!(bits.activations, vec![(2, true)]);

        // Silence, then one packet much later: window rate 0 => relief.
        bits.activations.clear();
        let mut p = mk_pkt(Addr(1), Addr(2), Proto::TcpSynAck, 60);
        let mut v = PacketView::new(&mut p);
        m.process(&mut bits.env(SimTime::from_secs(10)), &mut v);
        assert!(bits
            .events
            .iter()
            .any(|e| matches!(e, DeviceEvent::TriggerRelieved { tag: 7, .. })));
        assert_eq!(bits.activations, vec![(2, false)]);
    }

    #[test]
    #[should_panic(expected = "safety verifier bypassed")]
    fn forbidden_spec_panics_at_instantiation() {
        let _ = instantiate(&ModuleSpec::Amplify { factor: 10 });
    }
}
