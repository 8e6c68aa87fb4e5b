//! Deterministic control-channel fault injection.
//!
//! The control plane (out-of-band [`crate::agent::ControlMsg`] delivery)
//! is lossless by default. A [`FaultPlane`] installed on the simulator
//! makes it adversarial: messages are dropped, duplicated, and
//! delay-jittered according to a pure hash of `(seed, src, dst, msg_seq)`,
//! and per-node *outage windows* model management-plane blackouts and
//! device crashes. Like the PR 4 trace sampler, every decision is a pure
//! function of the configuration — no RNG stream is consumed, so two runs
//! with the same `(seed, schedule)` produce byte-identical event orders,
//! and an installed-but-zero-rate plane perturbs nothing.
//!
//! Semantics:
//!
//! * **drop / duplicate / jitter** apply per control message, decided at
//!   push time from the per-ordered-pair message sequence number. A
//!   duplicate is a second delivery of the *same* payload (the payload is
//!   reference-counted), pushed after the original with its own extra
//!   delay, so receivers must dedup.
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

use crate::cp_trace::CpVerdict;
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
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Decision seed; combined with `(src, dst, msg_seq)` per message.
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

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            jitter_max: SimDuration::ZERO,
            outages: Vec::new(),
            partitions: Vec::new(),
        }
    }
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
    /// Per ordered pair, keyed by [`pair_key`]: its decision seed and
    /// message counter.
    seq: MulHashMap<u64, PairSeq>,
}

/// One ordered pair's share of the decision hash.
#[derive(Clone, Copy, Debug)]
struct PairSeq {
    /// `child_seed(salt, pair_key)`, computed at the pair's first message.
    seed: u64,
    /// Messages decided so far; the third component of the decision hash.
    count: u64,
}

/// An ordered `(src, dst)` pair as one word, `src` above `dst`.
fn pair_key(src: NodeId, dst: NodeId) -> u64 {
    ((src.0 as u64) << 32) | dst.0 as u64
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
            seq: MulHashMap::default(),
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

    /// The channel's one verdict on a `src → dst` control message pushed at
    /// `now` for delivery at `at` (already clamped to `now`), in fixed
    /// precedence: an outage window (sender down at `now`, else receiver
    /// down at `at`), then a partition window open at `now`, then the
    /// per-message hash. A message a window swallows never reaches
    /// [`FaultPlane::decide`], so it does not advance the pair's counter.
    pub fn verdict(&mut self, src: NodeId, dst: NodeId, now: SimTime, at: SimTime) -> CpVerdict {
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
        let d = self.decide(src, dst);
        if d.drop {
            return CpVerdict::Drop;
        }
        CpVerdict::Deliver {
            deliver_ns: (at + d.jitter).as_nanos(),
            jitter_ns: d.jitter.as_nanos(),
            dup_extra_ns: d.duplicate.map(|extra| extra.as_nanos()),
        }
    }

    /// Decide the fate of the next `src → dst` control message. Advances
    /// the pair's message counter; deterministic given the push order
    /// (which the engine already guarantees).
    pub fn decide(&mut self, src: NodeId, dst: NodeId) -> FaultDecision {
        let key = pair_key(src, dst);
        let salt = self.salt;
        let pair = self.seq.entry(key).or_insert_with(|| PairSeq {
            seed: child_seed(salt, key),
            count: 0,
        });
        let k = child_seed(pair.seed, pair.count);
        pair.count += 1;
        let drop = ((k & 0xFFFF) as u32) < self.drop_thresh;
        if drop {
            return FaultDecision {
                drop: true,
                jitter: SimDuration::ZERO,
                duplicate: None,
            };
        }
        let dup = (((k >> 16) & 0xFFFF) as u32) < self.dup_thresh;
        let scale = |bits: u64| -> SimDuration {
            SimDuration((self.jitter_max.0 as u128 * bits as u128 / 65536) as u64)
        };
        let jitter = scale((k >> 32) & 0xFFFF);
        let duplicate = if dup {
            // The copy trails the original by its own jittered offset; with
            // jitter disabled it lands at the same instant but a later
            // event sequence number, so ordering stays deterministic.
            Some(scale((k >> 48) & 0xFFFF))
        } else {
            None
        };
        FaultDecision {
            drop: false,
            jitter,
            duplicate,
        }
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

    #[test]
    fn decisions_are_reproducible_and_pair_independent() {
        let mut a = plane(0.3, 0.2, 5);
        let mut b = plane(0.3, 0.2, 5);
        // Interleave pairs differently; per-pair sequences must not care.
        let seq_a: Vec<FaultDecision> = (0..50).map(|_| a.decide(NodeId(1), NodeId(2))).collect();
        for _ in 0..50 {
            b.decide(NodeId(2), NodeId(1)); // reverse direction: own stream
        }
        let seq_b: Vec<FaultDecision> = (0..50).map(|_| b.decide(NodeId(1), NodeId(2))).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn loss_rate_lands_near_configured() {
        let mut p = plane(0.2, 0.0, 0);
        let dropped = (0..2000)
            .filter(|_| p.decide(NodeId(9), NodeId(8)).drop)
            .count();
        assert!(
            (300..=500).contains(&dropped),
            "20% of 2000 ≈ 400, got {dropped}"
        );
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
                p.verdict(a, b, ms(now), ms(at)),
                CpVerdict::Outage { window },
                "{case}"
            );
        }
        // Both endpoints up again, cut still open.
        assert_eq!(
            p.verdict(a, b, ms(320), ms(330)),
            CpVerdict::Partition { window: 0 },
            "partition window"
        );
        assert!(
            !p.seq.contains_key(&pair_key(a, b)),
            "a swallowed message must not advance the pair's hash counter"
        );
        // The receiver is judged at delivery, not at push: b is down at
        // 120 ms but back by 250 ms, so the message reaches the loss hash.
        assert_eq!(p.verdict(a, b, ms(120), ms(250)), CpVerdict::Drop, "drop");
        assert_eq!(p.seq[&pair_key(a, b)].count, 1, "decide ran exactly once");
        // The cut is directed: b → a at the same instant is only lossy.
        assert_eq!(p.verdict(b, a, ms(320), ms(330)), CpVerdict::Drop);

        // Past every window, the verdict is `decide`'s, restated in
        // delivery terms.
        for (case, dup, jitter_ms) in [("none", 0.0, 0), ("jitter", 0.0, 5), ("duplicate", 1.0, 5)]
        {
            let (mut p, mut twin) = (plane(0.0, dup, jitter_ms), plane(0.0, dup, jitter_ms));
            let mut jittered = 0;
            for i in 0..32u64 {
                let at = ms(500 + i);
                let d = twin.decide(a, b);
                assert_eq!(
                    p.verdict(a, b, ms(500), at),
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
