//! Deterministic control-channel fault injection.
//!
//! The control plane (out-of-band [`crate::agent::ControlMsg`] delivery)
//! is lossless by default. A [`FaultPlane`] installed on the simulator
//! makes it adversarial: messages are dropped, duplicated, and
//! delay-jittered according to a pure hash of the seed and what each
//! message is, and per-node *outage windows* model management-plane
//! blackouts and device crashes. Like the trace sampler, every decision is
//! a pure function of the configuration — no RNG stream is consumed, so
//! two runs with the same `(seed, schedule)` produce byte-identical event
//! orders, and an installed-but-zero-rate plane perturbs nothing.
//!
//! Semantics:
//!
//! * **drop / duplicate / jitter** apply per control message, decided at
//!   push time from its pair, its [`CpMeta`] identity (zeros for an
//!   unkeyed one), its send instant and its ordinal among identical sends
//!   then: one message more or less moves no fate but those of identical
//!   sends after it at that instant. A duplicate is a second delivery of
//!   the *same* payload (the payload is reference-counted), pushed after
//!   the original with its own extra delay, so receivers must dedup.
//! * An **outage window** `[from, until)` makes a node's control channel
//!   deaf and mute: messages it sends while down, or that would arrive
//!   while it is down, vanish. Agent timers still fire — retransmit logic
//!   keeps running and repairs the gap after the window closes.
//! * A **crash** outage additionally invokes
//!   [`crate::agent::NodeAgent::on_crash`] on every agent of the node at
//!   window start: volatile agent state (installed services, registered
//!   owners) is lost and must be re-provisioned by the management layer.
//!   At window end [`crate::agent::NodeAgent::on_restart`] tells the same
//!   agents the node is back.
//! * A **partition window** `[from, until)` cuts the control channel
//!   *between* two node sets in one direction: any message pushed while
//!   the window is open whose sender is in the `src` set and receiver in
//!   the `dst` set is swallowed. Unlike an outage, both endpoints stay up
//!   and keep talking to everyone else — this models a management-plane
//!   network split (NMS can't reach its devices; devices can't reach
//!   their NMS) rather than a dead box. A symmetric cut is two windows.
//!
//! Fault counters live in [`crate::stats::Stats`] (`cp_*` fields), so
//! experiment reports can reconcile protocol-layer retry/dedup counters
//! against exactly what the channel did.

use crate::cp_trace::{CpMeta, CpVerdict};
use crate::hash::MulHashMap;
use crate::node::NodeId;
use crate::rng::child_seed;
use crate::time::{SimDuration, SimTime};

/// Stream label separating fault decisions from every other consumer of
/// the simulation seed ("faults01").
const FAULT_STREAM_LABEL: u64 = 0x6661_756c_7473_3031;

/// One control-plane outage window for a node.
#[derive(Clone, Copy, Debug)]
pub struct Outage {
    /// Affected node.
    pub node: NodeId,
    /// Window start (inclusive): the node stops sending/receiving.
    pub from: SimTime,
    /// Window end (exclusive): the node is reachable again.
    pub until: SimTime,
    /// When true, volatile agent state is lost at `from`
    /// ([`crate::agent::NodeAgent::on_crash`] fires) and the node boots
    /// again at `until` ([`crate::agent::NodeAgent::on_restart`] fires);
    /// when false the node is merely unreachable (e.g. an NMS
    /// management-plane blackout).
    pub crash: bool,
}

/// One directed control-plane partition window: while open, messages
/// from any node in `src` to any node in `dst` are swallowed. Both node
/// sets are explicit (actor-pair cuts are singleton sets); membership is
/// a pure set lookup, so — like every other fault decision — two runs
/// with the same schedule cut exactly the same messages.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Sending side of the cut.
    pub src: Vec<NodeId>,
    /// Receiving side of the cut.
    pub dst: Vec<NodeId>,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl Partition {
    /// Does this window cut a `src → dst` message pushed at `t`?
    pub fn cuts(&self, src: NodeId, dst: NodeId, t: SimTime) -> bool {
        t >= self.from && t < self.until && self.src.contains(&src) && self.dst.contains(&dst)
    }
}

/// Fault-injection configuration.
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    /// Decision seed; hashed with each message's identity and send instant.
    pub seed: u64,
    /// Probability a control message is silently dropped.
    pub drop_prob: f64,
    /// Probability a control message is delivered twice.
    pub dup_prob: f64,
    /// Maximum extra delivery delay; actual jitter is uniform in
    /// `[0, jitter_max)` per message (zero disables jitter).
    pub jitter_max: SimDuration,
    /// Outage / crash schedule.
    pub outages: Vec<Outage>,
    /// Directed partition-window schedule (empty disables partitions).
    pub partitions: Vec<Partition>,
}

/// What the plane decided for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultDecision {
    /// Silently drop the message.
    pub drop: bool,
    /// Extra delivery delay for the original copy.
    pub jitter: SimDuration,
    /// Deliver a second copy, this much later than the (jittered)
    /// original.
    pub duplicate: Option<SimDuration>,
}

/// Deterministic control-channel fault injector. Install with
/// [`crate::sim::Simulator::install_fault_plane`].
pub struct FaultPlane {
    salt: u64,
    /// Thresholds in 1/65536 units — probabilities are quantised once at
    /// construction so per-message decisions are pure integer compares.
    drop_thresh: u32,
    dup_thresh: u32,
    jitter_max: SimDuration,
    outages: Vec<Outage>,
    /// Indexed by node id, the indices of its windows in `outages`,
    /// ascending: a lookup reads one node's windows, and the first that
    /// covers an instant is still the first configured.
    outages_of: Vec<Vec<usize>>,
    partitions: Vec<Partition>,
    /// The instant of the latest verdict: where its draw and
    /// [`FaultPlane::decide`]'s are made.
    now: SimTime,
    /// Per identity word (instant included), its instant and its sends so
    /// far. Past instants' entries are purged once the map reaches
    /// `purge_at` (twice its size after the last purge, at least 256): it
    /// holds about twice the largest same-instant burst.
    ordinals: MulHashMap<u64, (SimTime, u64)>,
    purge_at: usize,
}

impl FaultPlane {
    /// Build a plane from a configuration.
    pub fn new(cfg: FaultConfig) -> FaultPlane {
        let mut outages_of: Vec<Vec<usize>> = Vec::new();
        for (i, o) in cfg.outages.iter().enumerate() {
            if outages_of.len() <= o.node.0 {
                outages_of.resize_with(o.node.0 + 1, Vec::new);
            }
            outages_of[o.node.0].push(i);
        }
        FaultPlane {
            salt: child_seed(cfg.seed, FAULT_STREAM_LABEL),
            drop_thresh: (cfg.drop_prob.clamp(0.0, 1.0) * 65536.0) as u32,
            dup_thresh: (cfg.dup_prob.clamp(0.0, 1.0) * 65536.0) as u32,
            jitter_max: cfg.jitter_max,
            outages: cfg.outages,
            outages_of,
            partitions: cfg.partitions,
            now: SimTime::ZERO,
            ordinals: MulHashMap::default(),
            purge_at: 256,
        }
    }

    /// Every outage and partition window must name nodes of the `n`-node
    /// topology the plane is installed on: a crash scheduled for a node
    /// that does not exist would otherwise fail mid-run, seconds of
    /// simulated time after the mistake.
    ///
    /// # Panics
    /// Naming the window and the node, if one lies outside.
    pub(crate) fn assert_nodes_within(&self, n: usize) {
        for (window, o) in self.outages.iter().enumerate() {
            assert!(
                o.node.0 < n,
                "outage window {window} names node {}, outside the {n}-node topology",
                o.node.0
            );
        }
        for (window, p) in self.partitions.iter().enumerate() {
            for node in p.src.iter().chain(&p.dst) {
                assert!(
                    node.0 < n,
                    "partition window {window} names node {}, outside the {n}-node topology",
                    node.0
                );
            }
        }
    }

    /// Is `node`'s control channel down at `t`?
    pub fn down(&self, node: NodeId, t: SimTime) -> bool {
        self.down_window(node, t).is_some()
    }

    /// Index (into the configured outage schedule) of the first window
    /// covering `node` at `t`, if any. This is the `window` id carried by
    /// control-trace outage verdicts and crash events
    /// ([`crate::cp_trace::CpTraceEvent`]), letting the analyzer join a
    /// swallowed message to the crash that caused it.
    pub fn down_window(&self, node: NodeId, t: SimTime) -> Option<usize> {
        let windows = self.outages_of.get(node.0)?;
        windows.iter().copied().find(|&i| {
            let o = &self.outages[i];
            t >= o.from && t < o.until
        })
    }

    /// Index (into the configured partition schedule) of the first window
    /// cutting a `src → dst` message pushed at `t`, if any. The index is
    /// the `window` id carried by control-trace partition verdicts, so
    /// the analyzer can join a swallowed message to the cut that ate it.
    pub fn partition_window(&self, src: NodeId, dst: NodeId, t: SimTime) -> Option<usize> {
        self.partitions.iter().position(|p| p.cuts(src, dst, t))
    }

    /// Crash windows `(window, node, from, until)`, for the simulator to
    /// schedule [`crate::agent::NodeAgent::on_crash`] calls at `from` and
    /// [`crate::agent::NodeAgent::on_restart`] calls at `until`; `window`
    /// is the outage-schedule index that tags control-trace crash events.
    pub fn crash_windows(&self) -> Vec<(usize, NodeId, SimTime, SimTime)> {
        self.outages
            .iter()
            .enumerate()
            .filter(|(_, o)| o.crash)
            .map(|(i, o)| (i, o.node, o.from, o.until))
            .collect()
    }

    /// The channel's one verdict on a `src → dst` control message with
    /// identity `meta`, pushed at `now` for delivery at `at` (already
    /// clamped to `now`), in fixed precedence: an outage window (sender
    /// down at `now`, else receiver down at `at`), then a partition window
    /// open at `now`, then the per-message hash.
    pub fn verdict(
        &mut self,
        src: NodeId,
        dst: NodeId,
        meta: Option<CpMeta>,
        now: SimTime,
        at: SimTime,
    ) -> CpVerdict {
        self.now = now;
        let outage = self
            .down_window(src, now)
            .or_else(|| self.down_window(dst, at));
        if let Some(w) = outage {
            return CpVerdict::Outage {
                window: Some(w as u64),
            };
        }
        if let Some(w) = self.partition_window(src, dst, now) {
            return CpVerdict::Partition { window: w as u64 };
        }
        let d = self.draw(src, dst, meta);
        if d.drop {
            return CpVerdict::Drop;
        }
        CpVerdict::Deliver {
            deliver_ns: (at + d.jitter).as_nanos(),
            jitter_ns: d.jitter.as_nanos(),
            dup_extra_ns: d.duplicate.map(|extra| extra.as_nanos()),
        }
    }

    /// The hash fate of an unkeyed `src → dst` message sent at the
    /// instant of the latest verdict — [`FaultPlane::verdict`]'s draw
    /// without its windows, for callers that hold no message.
    pub fn decide(&mut self, src: NodeId, dst: NodeId) -> FaultDecision {
        self.draw(src, dst, None)
    }

    /// The fate of a `src → dst` message with identity `meta` sent at the
    /// plane's instant: a hash of those and of its ordinal among equal sends.
    fn draw(&mut self, src: NodeId, dst: NodeId, meta: Option<CpMeta>) -> FaultDecision {
        let m = meta.unwrap_or_default();
        let pair = ((src.0 as u64) << 32) | dst.0 as u64;
        let kind = (u64::from(m.attempt) << 8) | u64::from(m.kind);
        let id = [pair, m.origin, m.txn, kind, self.now.as_nanos()];
        let id = id.into_iter().fold(self.salt, child_seed);
        let k = child_seed(id, self.ordinal(id));
        let scale = |bits: u64| {
            SimDuration((self.jitter_max.0 as u128 * (bits & 0xFFFF) as u128 / 65536) as u64)
        };
        let drop = ((k & 0xFFFF) as u32) < self.drop_thresh;
        // A duplicate trails the original by its own jittered offset; with
        // jitter disabled it lands at the same instant but a later event
        // sequence number, so ordering stays deterministic.
        let dup = !drop && (((k >> 16) & 0xFFFF) as u32) < self.dup_thresh;
        FaultDecision {
            drop,
            jitter: if drop {
                SimDuration::ZERO
            } else {
                scale(k >> 32)
            },
            duplicate: dup.then(|| scale(k >> 48)),
        }
    }

    /// How many sends with identity word `id` (its instant included) went
    /// before this one. Instants only grow, so only the current instant's
    /// entries can be met again: the purge keeps those alone.
    fn ordinal(&mut self, id: u64) -> u64 {
        let now = self.now;
        if self.ordinals.len() >= self.purge_at {
            self.ordinals.retain(|_, &mut (t, _)| t == now);
            self.purge_at = (2 * self.ordinals.len()).max(256);
        }
        let n = &mut self.ordinals.entry(id).or_insert((now, 0)).1;
        *n += 1;
        *n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(drop: f64, dup: f64, jitter_ms: u64) -> FaultPlane {
        FaultPlane::new(FaultConfig {
            seed: 7,
            drop_prob: drop,
            dup_prob: dup,
            jitter_max: SimDuration::from_millis(jitter_ms),
            outages: Vec::new(),
            partitions: Vec::new(),
        })
    }

    #[test]
    fn zero_rates_touch_nothing() {
        let mut p = plane(0.0, 0.0, 0);
        for _ in 0..100 {
            let d = p.decide(NodeId(1), NodeId(2));
            assert_eq!(
                d,
                FaultDecision {
                    drop: false,
                    jitter: SimDuration::ZERO,
                    duplicate: None,
                }
            );
        }
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut p = plane(1.0, 0.0, 0);
        for _ in 0..100 {
            assert!(p.decide(NodeId(3), NodeId(4)).drop);
        }
    }

    /// A keyed message's identity.
    fn id(origin: u64, txn: u64, attempt: u32, kind: u8) -> Option<CpMeta> {
        Some(CpMeta {
            origin,
            txn,
            attempt,
            kind,
        })
    }

    /// Verdicts of `(src, dst, meta, sent at ms)` messages pushed in order,
    /// each delivered 1 ms after its send.
    fn verdicts(
        p: &mut FaultPlane,
        msgs: &[(NodeId, NodeId, Option<CpMeta>, u64)],
    ) -> Vec<CpVerdict> {
        msgs.iter()
            .map(|&(src, dst, meta, ms)| {
                let now = SimTime::from_millis(ms);
                p.verdict(src, dst, meta, now, now + SimDuration::from_millis(1))
            })
            .collect()
    }

    #[test]
    fn decisions_are_reproducible_and_pair_independent() {
        let (a, b) = (NodeId(1), NodeId(2));
        // Transactions on a → b, retried, some sharing an instant, and a
        // burst of identical renewals at one instant.
        let mut msgs: Vec<_> = (0..50u64)
            .map(|i| (a, b, id(i % 3, i / 3, (i % 4) as u32, 7), i / 2))
            .collect();
        msgs.extend((0..8).map(|_| (a, b, id(0, u64::MAX, 0, 11), 30)));
        msgs.extend((0..8).map(|i| (a, b, None, 31 + i / 4)));
        let base = verdicts(&mut plane(0.3, 0.2, 5), &msgs);
        assert_eq!(base, verdicts(&mut plane(0.3, 0.2, 5), &msgs));
        // Interleave the reverse direction and another pair: a pair's
        // fates must not care.
        let mut p = plane(0.3, 0.2, 5);
        let mixed: Vec<CpVerdict> = msgs
            .iter()
            .map(|&m| {
                verdicts(&mut p, &[(b, a, m.2, m.3), (a, NodeId(3), m.2, m.3)]);
                verdicts(&mut p, &[m])[0]
            })
            .collect();
        assert_eq!(base, mixed);
    }

    /// Two runs that differ by one extra message of a kind of its own on
    /// `a → b`: every other message, matched by identity, keeps its fate.
    #[test]
    fn an_extra_message_moves_no_other_fate() {
        let (a, b) = (NodeId(1), NodeId(2));
        let msgs: Vec<_> = (0..400u64)
            .map(|i| (a, b, id(1 + i % 5, i / 5, (i % 3) as u32, 7), i / 4))
            .collect();
        let extra = (a, b, id(1, 0, 0, 99), 0);
        let with: Vec<_> = std::iter::once(extra).chain(msgs.iter().copied()).collect();
        let base = verdicts(&mut plane(0.3, 0.2, 5), &msgs);
        let moved = verdicts(&mut plane(0.3, 0.2, 5), &with);
        assert_eq!(base, moved[1..]);
        // The premise: the channel really does drop and duplicate here.
        assert!(base.contains(&CpVerdict::Drop));
        assert!(base.iter().any(|v| matches!(
            v,
            CpVerdict::Deliver {
                dup_extra_ns: Some(_),
                ..
            }
        )));
    }

    /// A retransmission (`attempt + 1`) draws a fate of its own: at 50 %
    /// loss it shares its original's about half the time, not always —
    /// even sent at the same instant as the first in the run, so that the
    /// attempt alone tells the two apart.
    #[test]
    fn a_retransmission_draws_afresh() {
        let (a, b) = (NodeId(1), NodeId(2));
        let (mut first, mut retry) = (plane(0.5, 0.0, 0), plane(0.5, 0.0, 0));
        let same = (0..2000u64)
            .filter(|&txn| {
                let send = |p: &mut FaultPlane, attempt| {
                    verdicts(p, &[(a, b, id(1, txn, attempt, 7), txn)])[0]
                };
                send(&mut first, 0) == send(&mut retry, 1)
            })
            .count();
        assert!(
            (850..=1150).contains(&same),
            "50% of 2000 ≈ 1000, got {same}"
        );
    }

    /// N sends with one identity at one instant (the untracked
    /// `(0, u64::MAX)` removals one refresh answer prompts to one device)
    /// get N independent fates.
    #[test]
    fn identical_sends_at_one_instant_draw_independent_fates() {
        let burst = vec![(NodeId(9), NodeId(8), id(0, u64::MAX, 0, 11), 5); 2000];
        let dropped = verdicts(&mut plane(0.2, 0.0, 0), &burst)
            .into_iter()
            .filter(|v| *v == CpVerdict::Drop)
            .count();
        assert!(
            (300..=500).contains(&dropped),
            "20% of 2000 ≈ 400, got {dropped}"
        );
    }

    #[test]
    fn loss_rate_lands_near_configured() {
        let msgs: Vec<_> = (0..2000u64)
            .map(|txn| (NodeId(9), NodeId(8), id(3, txn, 0, 7), txn / 8))
            .collect();
        let dropped = verdicts(&mut plane(0.2, 0.0, 0), &msgs)
            .into_iter()
            .filter(|v| *v == CpVerdict::Drop)
            .count();
        assert!(
            (300..=500).contains(&dropped),
            "20% of 2000 ≈ 400, got {dropped}"
        );
    }

    /// The ordinal memo holds about twice the largest same-instant burst,
    /// not every identity the run has sent.
    #[test]
    fn the_ordinal_memo_is_bounded_by_the_largest_burst() {
        let mut p = plane(0.2, 0.1, 5);
        for ms in 0..20_000u64 {
            let burst = if ms % 1000 == 0 { 600 } else { 1 };
            let msgs: Vec<_> = (0..burst)
                .map(|i| (NodeId(1), NodeId(2), id(1, ms * 1000 + i, 0, 7), ms))
                .collect();
            verdicts(&mut p, &msgs);
            assert!(
                p.ordinals.len() <= 2 * 600 + 1,
                "{} at {ms} ms",
                p.ordinals.len()
            );
        }
    }

    #[test]
    fn outage_windows_are_half_open() {
        let p = FaultPlane::new(FaultConfig {
            outages: vec![Outage {
                node: NodeId(5),
                from: SimTime::from_secs(1),
                until: SimTime::from_secs(2),
                crash: true,
            }],
            ..FaultConfig::default()
        });
        assert!(!p.down(NodeId(5), SimTime::from_millis(999)));
        assert!(p.down(NodeId(5), SimTime::from_secs(1)));
        assert!(p.down(NodeId(5), SimTime::from_millis(1999)));
        assert!(!p.down(NodeId(5), SimTime::from_secs(2)));
        // A node the schedule never names — in the topology or not — is
        // never down, and asking about it is not an error.
        for quiet in [NodeId(6), NodeId(usize::MAX)] {
            assert_eq!(p.down_window(quiet, SimTime::from_millis(1500)), None);
        }
        assert_eq!(p.down_window(NodeId(5), SimTime::from_secs(1)), Some(0));
        assert_eq!(p.down_window(NodeId(5), SimTime::from_secs(2)), None);
        assert_eq!(
            p.crash_windows(),
            vec![(0, NodeId(5), SimTime::from_secs(1), SimTime::from_secs(2))]
        );
    }

    /// The per-node index against the scan it replaced (first configured
    /// window covering the instant), over schedules with overlapping,
    /// zero-length and inverted windows, nodes with none, and crash and
    /// non-crash windows mixed — at every window's edges and at random
    /// instants.
    #[test]
    fn indexed_down_window_matches_schedule_scan() {
        use crate::rng::check_cases;
        check_cases(0..64, |rng| {
            let nodes = rng.gen_range(1..8usize);
            let outages: Vec<Outage> = (0..rng.gen_range(0..24usize))
                .map(|_| {
                    let from = rng.gen_range(0..1_000u64);
                    // A third of the windows are empty or inverted.
                    let until = match rng.gen_range(0..3u32) {
                        0 => rng.gen_range(0..=from),
                        _ => from + rng.gen_range(1..400u64),
                    };
                    Outage {
                        // Nodes `nodes..2 * nodes` never get a window.
                        node: NodeId(rng.gen_range(0..nodes)),
                        from: SimTime::from_nanos(from),
                        until: SimTime::from_nanos(until),
                        crash: rng.gen_bool(0.5),
                    }
                })
                .collect();
            let scan = |node: NodeId, t: SimTime| {
                outages
                    .iter()
                    .position(|o| o.node == node && t >= o.from && t < o.until)
            };
            let p = FaultPlane::new(FaultConfig {
                outages: outages.clone(),
                ..FaultConfig::default()
            });
            let mut instants: Vec<u64> = outages
                .iter()
                .flat_map(|o| [o.from.as_nanos(), o.until.as_nanos()])
                .flat_map(|t| [t.saturating_sub(1), t])
                .collect();
            instants.extend((0..32).map(|_| rng.gen_range(0..1_500u64)));
            for t in instants.into_iter().map(SimTime::from_nanos) {
                for node in (0..2 * nodes).map(NodeId) {
                    assert_eq!(p.down_window(node, t), scan(node, t), "{node:?} at {t:?}");
                    assert_eq!(p.down(node, t), scan(node, t).is_some());
                }
            }
            let crashes: Vec<(usize, NodeId, SimTime, SimTime)> = outages
                .iter()
                .enumerate()
                .filter(|(_, o)| o.crash)
                .map(|(i, o)| (i, o.node, o.from, o.until))
                .collect();
            assert_eq!(p.crash_windows(), crashes);
        });
    }

    #[test]
    fn partition_windows_cut_directed_set_pairs() {
        let p = FaultPlane::new(FaultConfig {
            partitions: vec![Partition {
                src: vec![NodeId(1), NodeId(2)],
                dst: vec![NodeId(7)],
                from: SimTime::from_secs(1),
                until: SimTime::from_secs(2),
            }],
            ..FaultConfig::default()
        });
        let t = SimTime::from_millis(1500);
        // Directed: src-set → dst-set only, and only inside the window.
        assert_eq!(p.partition_window(NodeId(1), NodeId(7), t), Some(0));
        assert_eq!(p.partition_window(NodeId(2), NodeId(7), t), Some(0));
        assert_eq!(p.partition_window(NodeId(7), NodeId(1), t), None);
        assert_eq!(p.partition_window(NodeId(1), NodeId(3), t), None);
        assert_eq!(
            p.partition_window(NodeId(1), NodeId(7), SimTime::from_millis(999)),
            None
        );
        // Half-open `[from, until)`, like outage windows.
        assert_eq!(
            p.partition_window(NodeId(1), NodeId(7), SimTime::from_secs(1)),
            Some(0)
        );
        assert_eq!(
            p.partition_window(NodeId(1), NodeId(7), SimTime::from_secs(2)),
            None
        );
    }

    /// The one-verdict method over every fate a message can meet. Window
    /// cases run on a plane that would otherwise drop everything, so each
    /// row also shows what its window takes precedence over; hash cases are
    /// checked against a twin plane's `decide`.
    #[test]
    fn verdict_precedence_is_outage_then_partition_then_hash() {
        let (a, b) = (NodeId(1), NodeId(2));
        let ms = SimTime::from_millis;
        let plane = |drop: f64, dup: f64, jitter_ms: u64| {
            FaultPlane::new(FaultConfig {
                seed: 7,
                drop_prob: drop,
                dup_prob: dup,
                jitter_max: SimDuration::from_millis(jitter_ms),
                outages: vec![
                    Outage {
                        node: b,
                        from: ms(100),
                        until: ms(200),
                        crash: false,
                    },
                    Outage {
                        node: a,
                        from: ms(150),
                        until: ms(300),
                        crash: true,
                    },
                ],
                partitions: vec![Partition {
                    src: vec![a],
                    dst: vec![b],
                    from: ms(150),
                    until: ms(400),
                }],
            })
        };

        // (case, pushed at, delivered at, verdict) for a → b on a plane
        // with every window configured and 100 % loss.
        let swallowed = [
            // a and b both down, cut open: the sender's window is named.
            ("sender down", 160, 170, Some(1u64)),
            // a still up at push time; b down when the message would land.
            ("receiver down at delivery", 50, 120, Some(0)),
        ];
        let mut p = plane(1.0, 0.0, 0);
        for (case, now, at, window) in swallowed {
            assert_eq!(
                p.verdict(a, b, None, ms(now), ms(at)),
                CpVerdict::Outage { window },
                "{case}"
            );
        }
        // Both endpoints up again, cut still open.
        assert_eq!(
            p.verdict(a, b, None, ms(320), ms(330)),
            CpVerdict::Partition { window: 0 },
            "partition window"
        );
        // The receiver is judged at delivery, not at push: b is down at
        // 120 ms but back by 250 ms, so the message reaches the loss hash.
        assert_eq!(
            p.verdict(a, b, None, ms(120), ms(250)),
            CpVerdict::Drop,
            "drop"
        );
        // The cut is directed: b → a at the same instant is only lossy.
        assert_eq!(p.verdict(b, a, None, ms(320), ms(330)), CpVerdict::Drop);

        // Past every window, the verdict is the hash's fate, restated in
        // delivery terms: a twin plane at the same instant draws it.
        for (case, dup, jitter_ms) in [("none", 0.0, 0), ("jitter", 0.0, 5), ("duplicate", 1.0, 5)]
        {
            let (mut p, mut twin) = (plane(0.0, dup, jitter_ms), plane(0.0, dup, jitter_ms));
            twin.now = ms(500);
            let mut jittered = 0;
            for i in 0..32u64 {
                let at = ms(500 + i);
                let d = twin.decide(a, b);
                assert_eq!(
                    p.verdict(a, b, None, ms(500), at),
                    CpVerdict::Deliver {
                        deliver_ns: (at + d.jitter).as_nanos(),
                        jitter_ns: d.jitter.as_nanos(),
                        dup_extra_ns: d.duplicate.map(|e| e.as_nanos()),
                    },
                    "{case} #{i}"
                );
                assert_eq!(d.duplicate.is_some(), dup > 0.0, "{case} #{i}");
                jittered += u64::from(d.jitter > SimDuration::ZERO);
            }
            assert_eq!(jittered > 0, jitter_ms > 0, "{case}");
        }
    }

    #[test]
    fn empty_partition_schedule_cuts_nothing() {
        let p = plane(0.0, 0.0, 0);
        for t in [SimTime::ZERO, SimTime::from_secs(5)] {
            assert_eq!(p.partition_window(NodeId(0), NodeId(1), t), None);
        }
    }
}
