//! Runtime packet-processing modules.
//!
//! A verified [`ModuleSpec`] *is* the module: its rule lists, match
//! expressions and parameters are read in place from the shared spec the
//! graph was installed from. What an install adds is a [`ModuleState`] —
//! the token bucket, log ring, digest backlog or trigger window that
//! differs between two owners running one spec. Modules see only the
//! restricted [`PacketView`] plus a [`ModuleEnv`] and decide pass/drop;
//! anything else they want to do (telemetry, trigger activations) goes
//! through the environment and is budget-checked by the device.

use dtcs_netsim::{DropReason, SimDuration, SimTime};

use crate::spec::{MatchExpr, ModuleSpec, TriggerAction, TriggerMetric};
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

/// What one installed module holds beyond its spec.
pub(crate) enum ModuleState {
    /// `Filter`, `Blacklist`, `AntiSpoof`, `PayloadDelete`: the spec is
    /// the whole module.
    Stateless,
    /// `RateLimit`: the token bucket.
    RateLimit(TokenBucket),
    /// `Logger`: the digest ring and its sampling / notification counters.
    Logger {
        ring: RingLog,
        seen: u64,
        notified_at_total: u64,
    },
    /// `DigestBacklog`: one Bloom filter per retained window, oldest
    /// first, each with its window's start (SPIE-style rotation).
    DigestBacklog(Vec<(SimTime, Bloom)>),
    /// `Trigger`: the rate window and the hysteresis bit.
    Trigger { rate: WindowRate, fired: bool },
}

/// A spec met a state that [`ModuleState::new`] did not build from it.
const MISMATCH: &str = "BUG: module state does not belong to this spec";

fn matches(expr: &MatchExpr, view: &PacketView<'_>) -> bool {
    expr.matches_full(
        view.src(),
        view.dst(),
        view.proto(),
        view.size(),
        view.payload_tag(),
    )
}

impl ModuleState {
    /// Fresh state for a verified spec. Panics on the forbidden variants
    /// — the device never calls this without a successful
    /// [`SafetyVerifier`](crate::safety::SafetyVerifier) pass, and hitting
    /// one here would mean the verifier gate was bypassed.
    pub(crate) fn new(spec: &ModuleSpec) -> ModuleState {
        match *spec {
            ModuleSpec::Filter { .. }
            | ModuleSpec::Blacklist { .. }
            | ModuleSpec::AntiSpoof
            | ModuleSpec::PayloadDelete { .. } => ModuleState::Stateless,
            ModuleSpec::RateLimit {
                rate_bytes_per_sec,
                burst_bytes,
                ..
            } => ModuleState::RateLimit(TokenBucket::new(rate_bytes_per_sec, burst_bytes)),
            ModuleSpec::Logger { capacity, .. } => ModuleState::Logger {
                ring: RingLog::new(capacity),
                seen: 0,
                notified_at_total: 0,
            },
            ModuleSpec::DigestBacklog { .. } => ModuleState::DigestBacklog(Vec::new()),
            ModuleSpec::Trigger { window, .. } => ModuleState::Trigger {
                rate: WindowRate::new(window),
                fired: false,
            },
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

    /// Run one packet through the module `spec` describes.
    pub(crate) fn process(
        &mut self,
        spec: &ModuleSpec,
        env: &mut ModuleEnv<'_>,
        view: &mut PacketView<'_>,
    ) -> ModuleAction {
        match (spec, self) {
            // First-match filter.
            (ModuleSpec::Filter { rules }, _) => {
                match rules.iter().find(|rule| matches(&rule.expr, view)) {
                    Some(rule) if rule.drop => ModuleAction::Drop(DropReason::DeviceFilter),
                    _ => ModuleAction::Pass,
                }
            }
            (ModuleSpec::Blacklist { sources }, _) => {
                let src = view.src();
                if sources.iter().any(|p| p.contains(src)) {
                    ModuleAction::Drop(DropReason::Blacklist)
                } else {
                    ModuleAction::Pass
                }
            }
            // Distributed anti-spoofing (the paper's flagship application,
            // Sec. 4.3). Runs in a *source-owner* (stage 1) graph, so every
            // packet it sees claims one of the owner's addresses as source.
            // The spoof verdict itself is computed by the device (which has
            // the routing context the module must not own) with the check
            // the static ingress filter also runs,
            // `dtcs_netsim::RouteOracle::source_mismatch`: local emissions
            // must carry a local source, customer-side arrivals must be
            // route-consistent with the claimed source (Park & Lee
            // route-based filtering, the mechanism the paper cites in
            // Sec. 3.2), and transit arrivals are never judged (Sec. 4.2) —
            // the device nearer the true edge is responsible.
            (ModuleSpec::AntiSpoof, _) => {
                if env.spoof_suspect {
                    ModuleAction::Drop(DropReason::SpoofFilter)
                } else {
                    ModuleAction::Pass
                }
            }
            (ModuleSpec::PayloadDelete { expr, keep_bytes }, _) => {
                if matches(expr, view) {
                    view.truncate(*keep_bytes);
                }
                ModuleAction::Pass
            }
            (ModuleSpec::RateLimit { expr, .. }, ModuleState::RateLimit(bucket)) => {
                if !matches(expr, view) || bucket.take(env.now, view.size()) {
                    ModuleAction::Pass
                } else {
                    ModuleAction::Drop(DropReason::DeviceRateLimit)
                }
            }
            // Sampling digest logger.
            (
                ModuleSpec::Logger {
                    capacity,
                    sample_one_in,
                },
                ModuleState::Logger {
                    ring,
                    seen,
                    notified_at_total,
                },
            ) => {
                *seen += 1;
                if seen.is_multiple_of((*sample_one_in).max(1) as u64) {
                    ring.push(LogEntry {
                        at: env.now,
                        digest: view.digest(),
                    });
                    // Notify the owner each time a full ring's worth accumulated.
                    if ring.total() >= *notified_at_total + *capacity as u64 {
                        *notified_at_total = ring.total();
                        env.events.push(DeviceEvent::LogReady {
                            owner: env.owner,
                            entries: ring.len(),
                            node: env.ctx.node,
                        });
                    }
                }
                ModuleAction::Pass
            }
            (
                &ModuleSpec::DigestBacklog {
                    window,
                    windows,
                    bits,
                    hashes,
                },
                ModuleState::DigestBacklog(blooms),
            ) => {
                let w = window.as_nanos().max(1);
                let start = SimTime((env.now.as_nanos() / w) * w);
                if blooms.last().is_none_or(|(newest, _)| start > *newest) {
                    blooms.push((start, Bloom::new(bits, hashes)));
                    while blooms.len() > windows.max(1) {
                        blooms.remove(0);
                    }
                }
                if let Some((_, bloom)) = blooms.last_mut() {
                    bloom.insert(view.digest());
                }
                ModuleAction::Pass
            }
            // Threshold trigger with hysteresis via window rates.
            (
                ModuleSpec::Trigger {
                    expr,
                    metric,
                    threshold,
                    action,
                    tag,
                    ..
                },
                ModuleState::Trigger { rate, fired },
            ) => {
                let amount = if !matches(expr, view) {
                    0.0
                } else {
                    match metric {
                        TriggerMetric::PacketRate => 1.0,
                        TriggerMetric::ByteRate => view.size() as f64,
                    }
                };
                if let Some((completed, gap)) = rate.record(env.now, amount) {
                    // Evaluate the completed window's rate, and — when empty
                    // windows followed it — the subsequent zero rate, so a
                    // burst produces both its firing and its relief.
                    for value in [Some(completed), gap.then_some(0.0)].into_iter().flatten() {
                        // Fire on crossing above while calm, relieve on
                        // falling back while fired; otherwise nothing.
                        if (value > *threshold) == *fired {
                            continue;
                        }
                        *fired = !*fired;
                        env.events.push(if *fired {
                            DeviceEvent::TriggerFired {
                                owner: env.owner,
                                tag: *tag,
                                value,
                                node: env.ctx.node,
                                at: env.now,
                            }
                        } else {
                            DeviceEvent::TriggerRelieved {
                                owner: env.owner,
                                tag: *tag,
                                node: env.ctx.node,
                                at: env.now,
                            }
                        });
                        if let TriggerAction::ActivateModule(idx) = *action {
                            env.activations.push((idx, *fired));
                        }
                    }
                }
                ModuleAction::Pass
            }
            _ => unreachable!("{MISMATCH}"),
        }
    }

    /// Traceback query hook: did this module record `digest` within
    /// `[from, to]`? `None` when the module keeps no backlog.
    pub(crate) fn query_digest(
        &self,
        spec: &ModuleSpec,
        digest: u64,
        from: SimTime,
        to: SimTime,
    ) -> Option<bool> {
        let ModuleState::DigestBacklog(blooms) = self else {
            return None;
        };
        let ModuleSpec::DigestBacklog { window, .. } = spec else {
            unreachable!("{MISMATCH}")
        };
        let window = SimDuration(window.as_nanos().max(1));
        Some(blooms.iter().any(|(start, bloom)| {
            *start <= to && *start + window >= from && bloom.contains(digest)
        }))
    }

    /// Drain buffered log entries, if this module keeps a log.
    pub(crate) fn drain_log(&mut self, spec: &ModuleSpec) -> Option<Vec<LogEntry>> {
        let ModuleState::Logger { ring, .. } = self else {
            return None;
        };
        let ModuleSpec::Logger { capacity, .. } = spec else {
            unreachable!("{MISMATCH}")
        };
        Some(std::mem::replace(ring, RingLog::new(*capacity)).snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::OwnerId;
    use crate::spec::FilterRule;
    use crate::view::DeviceContext;
    use dtcs_netsim::{Addr, NodeId, Packet, PacketBuilder, Proto, TrafficClass};

    /// A spec, the state built from it as a graph node pairs them, and
    /// the environment a graph would lend the pair.
    struct Installed {
        spec: ModuleSpec,
        state: ModuleState,
        events: Vec<DeviceEvent>,
        activations: Vec<(usize, bool)>,
        ctx: DeviceContext,
        spoof_suspect: bool,
    }

    fn instantiate(spec: ModuleSpec) -> Installed {
        Installed {
            state: ModuleState::new(&spec),
            spec,
            events: Vec::new(),
            activations: Vec::new(),
            ctx: DeviceContext { node: NodeId(0) },
            spoof_suspect: false,
        }
    }

    impl Installed {
        fn run(&mut self, now: SimTime, pkt: &mut Packet) -> ModuleAction {
            let mut env = ModuleEnv {
                now,
                ctx: &self.ctx,
                spoof_suspect: self.spoof_suspect,
                owner: OwnerId(1),
                events: &mut self.events,
                activations: &mut self.activations,
            };
            let mut view = PacketView::new(pkt);
            self.state.process(&self.spec, &mut env, &mut view)
        }

        fn query_digest(&self, digest: u64, from: SimTime, to: SimTime) -> Option<bool> {
            self.state.query_digest(&self.spec, digest, from, to)
        }
    }

    fn mk_pkt(src: Addr, dst: Addr, proto: Proto, size: u32) -> Packet {
        PacketBuilder::new(src, dst, proto, TrafficClass::Background)
            .size(size)
            .build(1, src.node())
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
        let mut m = instantiate(ModuleSpec::Filter {
            rules: allow_then_drop,
        });
        let mut dns = mk_pkt(Addr(1), Addr(2), Proto::DnsQuery, 60);
        assert_eq!(m.run(SimTime::ZERO, &mut dns), ModuleAction::Pass);
        let mut udp = mk_pkt(Addr(1), Addr(2), Proto::Udp, 60);
        assert_eq!(
            m.run(SimTime::ZERO, &mut udp),
            ModuleAction::Drop(DropReason::DeviceFilter)
        );
    }

    #[test]
    fn rate_limit_enforces_rate() {
        let mut m = instantiate(ModuleSpec::RateLimit {
            expr: MatchExpr::any(),
            rate_bytes_per_sec: 100.0,
            burst_bytes: 100,
        });
        let mut p = mk_pkt(Addr(1), Addr(2), Proto::Udp, 50);
        let passed = (0..20)
            .filter(|i| m.run(SimTime::from_millis(i * 10), &mut p) == ModuleAction::Pass)
            .count();
        // 0.2 s at 100 B/s plus 100 B burst = 120 B => 2 x 50 B packets
        // (plus perhaps a refill catch) — far fewer than 20.
        assert!((2..=4).contains(&passed), "passed={passed}");
    }

    #[test]
    fn antispoof_follows_device_verdict() {
        let mut m = instantiate(ModuleSpec::AntiSpoof);
        let mut p = mk_pkt(Addr::new(NodeId(77), 1), Addr(1), Proto::TcpSyn, 40);
        // Device judged the packet spoofed: drop.
        m.spoof_suspect = true;
        assert_eq!(
            m.run(SimTime::ZERO, &mut p),
            ModuleAction::Drop(DropReason::SpoofFilter)
        );
        // Device judged it consistent: pass.
        m.spoof_suspect = false;
        assert_eq!(m.run(SimTime::ZERO, &mut p), ModuleAction::Pass);
    }

    #[test]
    fn payload_delete_shrinks_only_matches() {
        let mut m = instantiate(ModuleSpec::PayloadDelete {
            expr: MatchExpr::proto(Proto::Udp),
            keep_bytes: 40,
        });
        let mut p = mk_pkt(Addr(1), Addr(2), Proto::Udp, 1000);
        m.run(SimTime::ZERO, &mut p);
        assert_eq!(p.size, 40);
        let mut q = mk_pkt(Addr(1), Addr(2), Proto::TcpData, 1000);
        m.run(SimTime::ZERO, &mut q);
        assert_eq!(q.size, 1000);
    }

    #[test]
    fn logger_samples_and_notifies() {
        let mut m = instantiate(ModuleSpec::Logger {
            capacity: 4,
            sample_one_in: 2,
        });
        for i in 0..16u64 {
            let mut p = mk_pkt(Addr(1), Addr(2), Proto::Udp, 100);
            p.payload_tag = i;
            m.run(SimTime(i), &mut p);
        }
        // 16 seen, every 2nd sampled = 8 logged; ring keeps 4.
        let ModuleState::Logger { ring, .. } = &m.state else {
            panic!("a logger spec builds logger state");
        };
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.total(), 8);
        let ready = |e: &&DeviceEvent| matches!(e, DeviceEvent::LogReady { .. });
        assert_eq!(
            m.events.iter().filter(ready).count(),
            2,
            "one per filled ring"
        );
        let log = m.state.drain_log(&m.spec).unwrap();
        assert_eq!(log.len(), 4);
        assert!(m.state.drain_log(&m.spec).unwrap().is_empty());
    }

    fn backlog(windows: usize) -> Installed {
        instantiate(ModuleSpec::DigestBacklog {
            window: SimDuration::from_secs(1),
            windows,
            bits: 1 << 14,
            hashes: 4,
        })
    }

    #[test]
    fn backlog_answers_time_scoped_queries() {
        let mut m = backlog(4);
        let mut p = mk_pkt(Addr(1), Addr(2), Proto::Udp, 100);
        p.payload_tag = 99;
        let digest = crate::view::digest_packet(&p);
        m.run(SimTime::from_millis(500), &mut p);
        // Query overlapping the insertion window: hit.
        let (from, to) = (SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(m.query_digest(digest, from, to), Some(true));
        // Unknown digest: miss (with high probability).
        assert_eq!(m.query_digest(0xDEAD_BEEF, from, to), Some(false));
    }

    #[test]
    fn backlog_expires_old_windows() {
        let mut m = backlog(2);
        let mut p = mk_pkt(Addr(1), Addr(2), Proto::Udp, 100);
        let digest = crate::view::digest_packet(&p);
        m.run(SimTime::from_millis(100), &mut p);
        // Push enough later windows to expire the first.
        for s in [2u64, 3, 4] {
            let mut q = mk_pkt(Addr(3), Addr(4), Proto::Udp, 100);
            q.payload_tag = s;
            m.run(SimTime::from_secs(s), &mut q);
        }
        assert_eq!(
            m.query_digest(digest, SimTime::ZERO, SimTime::from_secs(1)),
            Some(false),
            "window containing the digest has been rotated out"
        );
    }

    #[test]
    fn trigger_fires_and_relieves() {
        let mut m = instantiate(ModuleSpec::Trigger {
            expr: MatchExpr::proto(Proto::TcpSynAck),
            metric: TriggerMetric::PacketRate,
            threshold: 50.0,
            window: SimDuration::from_millis(100),
            action: TriggerAction::ActivateModule(2),
            tag: 7,
        });
        let mut p = mk_pkt(Addr(1), Addr(2), Proto::TcpSynAck, 60);
        // 100 ms of 100 SYN-ACKs => 1000 pps >> 50 threshold.
        for i in 0..100u64 {
            m.run(SimTime(i * 1_000_000), &mut p);
        }
        // First packet of the next window completes the hot window: fires.
        m.run(SimTime::from_millis(100), &mut p);
        let fired = |e: &DeviceEvent| matches!(e, DeviceEvent::TriggerFired { tag: 7, .. });
        assert!(m.events.iter().any(fired));
        assert_eq!(m.activations, vec![(2, true)]);

        // Silence, then one packet much later: window rate 0 => relief.
        m.activations.clear();
        m.run(SimTime::from_secs(10), &mut p);
        let relieved = |e: &DeviceEvent| matches!(e, DeviceEvent::TriggerRelieved { tag: 7, .. });
        assert!(m.events.iter().any(relieved));
        assert_eq!(m.activations, vec![(2, false)]);
    }

    #[test]
    #[should_panic(expected = "safety verifier bypassed")]
    fn forbidden_spec_panics_at_instantiation() {
        let _ = instantiate(ModuleSpec::Amplify { factor: 10 });
    }
}
