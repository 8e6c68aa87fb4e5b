//! Reliability primitives for the faulty-channel control plane: capped
//! exponential backoff with deterministic jitter, a generic retransmitter
//! that rides the simulator's agent-timer facility, duplicate suppression
//! for at-least-once delivery, and the relay that is the receiver side of
//! every fanned-out transaction.
//!
//! The Fig. 4/5 protocol was written for a lossless channel; under the
//! [`FaultPlane`](dtcs_netsim::FaultPlane) every control message may be
//! dropped, duplicated, or delayed. The agents recover by (a) keying every
//! message with `(origin, txn, attempt)`, (b) retransmitting unacked
//! requests on a backoff schedule, and (c) deduplicating receipts so a
//! duplicated ack can never double-count.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dtcs_device::{backoff, RETRY_BASE, RETRY_CAP};
use dtcs_netsim::rng::child_seed;
use dtcs_netsim::{AgentCtx, CancelTimer, CpTraceEvent, NodeId, SimDuration, TimerId};

/// Identity of one logical control-plane message. `origin` + `txn` name
/// the transaction (stable across retries); `attempt` distinguishes
/// retransmits of the same transaction so traces stay unambiguous.
/// Responses echo the request's `origin`/`txn`, which is what receivers
/// deduplicate on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct MsgKey {
    /// Stable id of the requesting principal (user id, or 0 for
    /// infrastructure-internal transactions).
    pub origin: u64,
    /// Transaction id, chosen by the origin, stable across retries.
    pub txn: u64,
    /// Retransmit counter: 0 for the first send.
    pub attempt: u32,
}

impl MsgKey {
    /// Key for the first attempt of a transaction.
    pub fn first(origin: u64, txn: u64) -> MsgKey {
        MsgKey {
            origin,
            txn,
            attempt: 0,
        }
    }

    /// The dedup identity: everything but the attempt counter.
    pub fn identity(&self) -> (u64, u64) {
        (self.origin, self.txn)
    }
}

/// Capped exponential backoff: attempt `k` waits
/// [`backoff`]`(base, cap, k)` plus a deterministic jitter in `[0, rto/4)`.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First retransmit timeout.
    pub base: SimDuration,
    /// Ceiling for the doubled timeout.
    pub cap: SimDuration,
    /// Total send attempts (first transmission included) before giving up.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// The device protocol's schedule ([`RETRY_BASE`] doubled up to
    /// [`RETRY_CAP`]), six attempts.
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: RETRY_BASE,
            cap: RETRY_CAP,
            max_attempts: 6,
        }
    }
}

impl RetryPolicy {
    /// The policy of a leg answered only after a TCSP fan-in (a user's
    /// deployment or withdrawal), which may itself wait out a whole budget
    /// on a cut ISP: twice the default's attempts, so the answer finds the
    /// leg live though the TCSP heard the request late.
    pub fn over_fan_in() -> RetryPolicy {
        let policy = RetryPolicy::default();
        RetryPolicy {
            max_attempts: 2 * policy.max_attempts,
            ..policy
        }
    }

    /// Retransmit timeout for `attempt` (0-based), jittered by a hash of
    /// `(seed, slot, attempt)` so concurrent retries decorrelate without
    /// consulting the simulator RNG (keeps packet-plane streams intact).
    pub fn rto(&self, seed: u64, slot: u64, attempt: u32) -> SimDuration {
        let wait = backoff(self.base, self.cap, attempt).0;
        let jitter_bits = child_seed(child_seed(seed, slot), attempt as u64) & 0xFFFF;
        let jitter = (wait / 4).saturating_mul(jitter_bits) / 65536;
        SimDuration(wait + jitter)
    }

    /// The most a leg waits before giving up: every timeout at the jitter's bound.
    pub fn budget(&self) -> SimDuration {
        let waits = (0..self.max_attempts).map(|k| backoff(self.base, self.cap, k).0);
        let wait: u64 = waits.sum();
        SimDuration(wait + wait / 4)
    }
}

/// What a transaction leg carries: everything needed to build its request.
/// The first send and every retransmit go through [`LegMsg::send`], so a
/// retry can never drift from the message the transaction started with.
pub trait LegMsg {
    /// Send the request to `dest`, stamped with `id` (origin, txn and the
    /// attempt counter: 0 for the first send).
    fn send(&self, ctx: &mut AgentCtx<'_>, dest: NodeId, id: MsgKey);
}

/// One tracked leg; handed back to its agent once acked
/// ([`Retransmitter::take`]), vetoed or abandoned ([`Fired`]). Its timer
/// goes with it: a retired leg's retransmit timer never fires.
#[derive(Debug)]
pub struct Leg<K, T> {
    /// The key the agent tracked it under.
    pub key: K,
    /// Where every send of it goes.
    pub dest: NodeId,
    /// Trace identity; `attempt` counts the retransmits made.
    pub id: MsgKey,
    /// The request it carries.
    pub payload: T,
}

/// What [`Retransmitter::on_timer`] did with a timer token.
#[derive(Debug)]
pub enum Fired<K, T> {
    /// The request was retransmitted and the next timer armed.
    Resent,
    /// The veto refused the retransmit; the leg is no longer tracked.
    Vetoed(Leg<K, T>),
    /// Retry budget exhausted; the leg is no longer tracked.
    GaveUp(Leg<K, T>),
}

/// High-bit mask separating a timer token's family from its slot.
pub const FAMILY_MASK: u64 = 0xFFFF_0000_0000_0000;

/// The sender side of a transaction leg, at least once: sends the request,
/// retransmits it on the backoff schedule until acked, and accounts for
/// all of it — the `retry_*` trace events and the
/// `retransmits`/`give_ups` counters are emitted here and nowhere else.
/// An agent contributes what differs per family: the request
/// ([`LegMsg`]), an optional veto, and what a give-up means.
///
/// A leg's timer token is `family | slot`, with `family` in the high 16
/// bits and slots handed out by a counter, so the timers of several
/// retransmitters (and the agent's own plain tokens) coexist on one agent
/// and no transaction id can reach the family bits. A leg taken out has
/// its timer cancelled, so a timer never fires into an empty slot.
pub struct Retransmitter<K, T> {
    policy: RetryPolicy,
    seed: u64,
    family: u64,
    next_slot: u64,
    by_key: BTreeMap<K, u64>,
    live: BTreeMap<u64, (Leg<K, T>, TimerId)>,
}

impl<K: Ord + Copy, T: LegMsg> Retransmitter<K, T> {
    /// New retransmitter for `family`, one of the `FAM_*` constants in
    /// [`plane`](crate::plane); `seed` decorrelates its jitter stream.
    pub fn new(family: u64, policy: RetryPolicy, seed: u64) -> Retransmitter<K, T> {
        assert_eq!(family & !FAMILY_MASK, 0, "family must live in high bits");
        Retransmitter {
            policy,
            seed,
            family,
            next_slot: 0,
            by_key: BTreeMap::new(),
            live: BTreeMap::new(),
        }
    }

    /// Send the first attempt of a leg to `dest` and retransmit it until
    /// [`Retransmitter::take`]n. `origin` and `txn` name the transaction in
    /// messages and traces. Re-tracking a live key sends again and resets
    /// the payload but keeps the backoff schedule.
    pub fn track(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        key: K,
        dest: NodeId,
        origin: u64,
        txn: u64,
        payload: T,
    ) {
        ctx.cp_event(CpTraceEvent::RetrySchedule {
            t: ctx.now.0,
            origin,
            txn,
            node: ctx.node,
            dest,
        });
        let id = MsgKey::first(origin, txn);
        payload.send(ctx, dest, id);
        if let Some((leg, _)) = self.by_key.get(&key).and_then(|s| self.live.get_mut(s)) {
            leg.payload = payload;
            return;
        }
        let slot = self.next_slot;
        assert_eq!(slot & FAMILY_MASK, 0, "timer slots exhausted");
        self.next_slot += 1;
        let rto = self.policy.rto(self.seed, slot, 0);
        let timer = ctx.set_timer(rto, self.family | slot);
        let leg = Leg {
            key,
            dest,
            id,
            payload,
        };
        self.live.insert(slot, (leg, timer));
        self.by_key.insert(key, slot);
    }

    /// The leg was acked (or is abandoned): stop retransmitting — its
    /// timer goes to `timers` to cancel (a no-op for the timer that just
    /// fired) — and hand it back. None for an untracked key — a duplicate
    /// ack.
    pub fn take(&mut self, timers: &mut impl CancelTimer, key: &K) -> Option<Leg<K, T>> {
        let slot = self.by_key.remove(key)?;
        let (leg, timer) = self.live.remove(&slot)?;
        timers.cancel_timer(timer);
        Some(leg)
    }

    /// No leg in flight?
    pub fn is_idle(&self) -> bool {
        self.live.is_empty()
    }

    /// Handle a fired timer of this family: its leg is live, since
    /// retiring a leg cancels its timer. The leg is retransmitted to its
    /// tracked destination unless `veto` refuses it (the reason to send it
    /// has lapsed) or the budget is spent; both hand the leg back,
    /// untracked.
    pub fn on_timer(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        cp: &CpStatsHandle,
        token: u64,
        veto: impl FnOnce(&Leg<K, T>) -> bool,
    ) -> Fired<K, T> {
        debug_assert_eq!(token & FAMILY_MASK, self.family, "token of another family");
        let slot = token & !FAMILY_MASK;
        let (p, timer) = self
            .live
            .get_mut(&slot)
            .expect("a retired leg's timer was cancelled");
        p.id.attempt += 1;
        let (id, dest, key) = (p.id, p.dest, p.key);
        if id.attempt >= self.policy.max_attempts {
            cp.lock().give_ups += 1;
            ctx.cp_event(CpTraceEvent::RetryGaveUp {
                t: ctx.now.0,
                origin: id.origin,
                txn: id.txn,
                node: ctx.node,
                dest,
            });
            return Fired::GaveUp(self.take(ctx, &key).expect("leg is live"));
        }
        if veto(p) {
            return Fired::Vetoed(self.take(ctx, &key).expect("leg is live"));
        }
        cp.lock().retransmits += 1;
        ctx.cp_event(CpTraceEvent::RetryFire {
            t: ctx.now.0,
            origin: id.origin,
            txn: id.txn,
            attempt: id.attempt,
            node: ctx.node,
            dest,
        });
        p.payload.send(ctx, dest, id);
        let rto = self.policy.rto(self.seed, slot, id.attempt);
        *timer = ctx.set_timer(rto, self.family | slot);
        Fired::Resent
    }
}

/// Acked fan-in over the legs of one fanned-out transaction: it is done
/// once every leg sent out resolved, acked or given up on.
///
/// A leg resolves once, and its first resolution stands: a second ack is
/// a duplicate, and so is an ack that arrives after the leg was given up
/// on — its loss is already counted, as an NMS drops a device reply that
/// comes after its give-up. No leg's work is counted twice, and no
/// answer goes out while a leg is outstanding.
#[derive(Clone, Debug)]
pub struct FanIn<L> {
    /// Origin of the transaction (its trace key with the txn).
    pub origin: u64,
    /// Where the outcome is reported.
    pub reply_to: NodeId,
    legs: usize,
    /// Legs acked or given up on; `lost` of them were given up on.
    resolved: BTreeSet<L>,
    lost: usize,
    /// Work the acks reported done (devices configured, services removed).
    pub done: usize,
    /// Work the acks reported refused (installs rejected).
    pub refused: usize,
}

impl<L: Ord + Copy> FanIn<L> {
    /// Await `legs` resolutions.
    pub fn new(origin: u64, reply_to: NodeId, legs: usize) -> FanIn<L> {
        FanIn {
            origin,
            reply_to,
            legs,
            resolved: BTreeSet::new(),
            lost: 0,
            done: 0,
            refused: 0,
        }
    }

    /// `leg` acked, reporting `done` and `refused` units of work. False,
    /// and nothing counted, for a leg that resolved before.
    pub fn ack(&mut self, leg: L, done: usize, refused: usize) -> bool {
        let first = self.resolved.insert(leg);
        if first {
            self.done += done;
            self.refused += refused;
        }
        first
    }

    /// `leg` will never ack; nothing changes for a leg that resolved
    /// before.
    pub fn lose(&mut self, leg: L) {
        if self.resolved.insert(leg) {
            self.lost += 1;
        }
    }

    /// As many legs resolved as were sent out?
    pub fn is_done(&self) -> bool {
        self.resolved.len() >= self.legs
    }

    /// Legs that acked.
    pub fn acked(&self) -> usize {
        self.resolved.len() - self.lost
    }

    /// Legs given up on.
    pub fn lost(&self) -> usize {
        self.lost
    }
}

/// What a [`Relay`] knows of the transaction a request names.
#[derive(Debug)]
pub enum Admission<'a, L, R> {
    /// Settled: a duplicate whose answer was lost. Answer again from the
    /// cached outcome.
    Done(&'a FanIn<L>, &'a R),
    /// Still collecting acks: a duplicate; the legs' own retransmits
    /// cover the work.
    Running,
    /// Never seen.
    New,
}

/// The receiver side of a fanned-out transaction, written once: request
/// in, legs out, acks collected, one answer, duplicates re-answered. A
/// relay owns the [`Retransmitter`] of one family's legs, the [`FanIn`] of
/// every running transaction and the done-cache of the settled ones, and
/// each decision has one method: is a request new ([`Relay::admit`]), does
/// an ack count ([`Relay::ack`]), what a give-up costs ([`Relay::lose`]),
/// is the answer due ([`Relay::settle`]). They decide and return; the
/// agent emits, and cancels the timers of the legs they retire (the
/// `timers` argument).
///
/// `X` names a transaction and `L` a leg within it (tracked as `(X, L)`);
/// `R` is what the agent keeps with a transaction to answer it.
pub struct Relay<X, L, T, R = ()> {
    rt: Retransmitter<(X, L), T>,
    running: BTreeMap<X, (FanIn<L>, R)>,
    settled: BTreeMap<X, (FanIn<L>, R)>,
}

impl<X: Ord + Copy, L: Ord + Copy, T: LegMsg, R> Relay<X, L, T, R> {
    /// New relay; the arguments are [`Retransmitter::new`]'s.
    pub fn new(family: u64, policy: RetryPolicy, seed: u64) -> Relay<X, L, T, R> {
        Relay {
            rt: Retransmitter::new(family, policy, seed),
            running: BTreeMap::new(),
            settled: BTreeMap::new(),
        }
    }

    /// Is a request for `txn` new, or a duplicate?
    pub fn admit(&self, txn: X) -> Admission<'_, L, R> {
        match self.settled.get(&txn) {
            Some((out, with)) => Admission::Done(out, with),
            None if self.running.contains_key(&txn) => Admission::Running,
            None => Admission::New,
        }
    }

    /// [`Retransmitter::track`] one leg of a transaction about to be
    /// [`Relay::open`]ed.
    pub fn track(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        key: (X, L),
        dest: NodeId,
        origin: u64,
        txn: u64,
        payload: T,
    ) {
        self.rt.track(ctx, key, dest, origin, txn, payload);
    }

    /// Await the acks of `legs` legs; the outcome goes to `reply_to`.
    pub fn open(&mut self, txn: X, origin: u64, reply_to: NodeId, legs: usize, with: R) {
        let fan = FanIn::new(origin, reply_to, legs);
        self.running.insert(txn, (fan, with));
    }

    /// Stop retransmitting a leg and hand it back; None when it is not
    /// tracked (acked before, or given up on).
    pub fn untrack(
        &mut self,
        timers: &mut impl CancelTimer,
        txn: X,
        leg: L,
    ) -> Option<Leg<(X, L), T>> {
        self.rt.take(timers, &(txn, leg))
    }

    /// `leg` acked, reporting `done` and `refused` units of work: stop
    /// retransmitting it and count the work. False, and nothing counted,
    /// for a duplicate: the transaction is unknown or settled, or the leg
    /// acked or was given up on before ([`FanIn`]).
    pub fn ack(
        &mut self,
        timers: &mut impl CancelTimer,
        txn: X,
        leg: L,
        done: usize,
        refused: usize,
    ) -> bool {
        self.rt.take(timers, &(txn, leg));
        let running = self.running.get_mut(&txn);
        running.is_some_and(|(fan, _)| fan.ack(leg, done, refused))
    }

    /// `leg` of `txn` will never ack.
    pub fn lose(&mut self, txn: X, leg: L) {
        if let Some((fan, _)) = self.running.get_mut(&txn) {
            fan.lose(leg);
        }
    }

    /// Drop a running transaction unanswered: its request is new again.
    pub fn forget(&mut self, txn: X) {
        self.running.remove(&txn);
    }

    /// Once every leg of `txn` resolved, move it to the done-cache and
    /// hand out the outcome to answer with: `Some` exactly once per
    /// transaction.
    pub fn settle(&mut self, txn: X) -> Option<(&FanIn<L>, &mut R)> {
        if !self.running.get(&txn)?.0.is_done() {
            return None;
        }
        let finished = self.running.remove(&txn)?;
        let (out, with) = self.settled.entry(txn).or_insert(finished);
        Some((out, with))
    }

    /// [`Retransmitter::on_timer`]; a leg it hands back, vetoed or given
    /// up on, is counted lost. The caller settles.
    pub fn on_timer(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        cp: &CpStatsHandle,
        token: u64,
        veto: impl FnOnce(&Leg<(X, L), T>) -> bool,
    ) -> Fired<(X, L), T> {
        let fired = self.rt.on_timer(ctx, cp, token, veto);
        if let Fired::Vetoed(leg) | Fired::GaveUp(leg) = &fired {
            self.lose(leg.key.0, leg.key.1);
        }
        fired
    }
}

/// Receiver-side duplicate suppression: remembers `(origin, txn, kind,
/// extra)` quadruples. `kind` is [`CpMsg::kind_id`](crate::plane::CpMsg)
/// (one transaction can legitimately produce several message kinds);
/// `extra` disambiguates multi-party fan-in (e.g. the acking NMS node).
#[derive(Default)]
pub struct Dedup {
    seen: BTreeSet<(u64, u64, u8, u64)>,
}

impl Dedup {
    /// New, empty.
    pub fn new() -> Dedup {
        Dedup::default()
    }

    /// True exactly once per quadruple; later calls are duplicates.
    pub fn first_time(&mut self, origin: u64, txn: u64, kind: u8, extra: u64) -> bool {
        self.seen.insert((origin, txn, kind, extra))
    }

    /// Distinct receipts recorded.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// No receipts recorded yet?
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

dtcs_netsim::counters! {
    /// Control-plane-wide reliability counters, shared by every protocol
    /// agent of one installed
    /// [`ControlPlane`](crate::scenario::ControlPlane). The acceptance check
    /// reconciles these against the fault plane's own drop/duplicate
    /// counts; exported under a `cp_` prefix.
    #[derive(Clone, Debug, Default)]
    pub struct CpStats {}
    counters "cp_" {
        /// After an RTO expiry, all agents.
        retransmits: Sum "Control messages retransmitted by a retry timer",
        give_ups: Sum "Control transactions whose retry budget was exhausted",
        dup_requests: Sum "Duplicate requests re-answered from a done-cache",
        dup_responses: Sum "Duplicate responses suppressed by receivers",
        /// An ISP never acked.
        partial_confirms: Sum "Deployments confirmed with some ISP's answer missing",
        /// One per round, whether it runs for anti-entropy, renewal or both.
        reconcile_sweeps: Sum "NMS refresh rounds started",
        /// Each device's whole slice, sent at once in answer to its reboot
        /// announcement (a periodic refresh installs a missing entry
        /// unseen: it counts among the renewals).
        reconcile_reinstalls: Sum "Desired-state entries re-sent to a device that announced its reboot",
        /// Each entry a periodic refresh carries moves its slot's lease,
        /// to the credential's expiry when the plane grants no leases.
        lease_renewals: Sum "Desired-state entries renewed by NMS refresh rounds",
        /// Expired before the next refresh round.
        lease_expirations: Sum "Desired-state entries dropped because their credential expired",
        withdrawals: Sum "Owner-initiated withdrawal transactions accepted by the TCSP",
        withdraw_removes: Sum "Device removals confirmed during withdrawal fan-in",
        /// A device listed them as unnamed by its refresh and desired state
        /// held none (bidirectional anti-entropy).
        reconcile_removals: Sum "Undesired device-resident services removed after a refresh",
        /// Including mid-retry expiry.
        expired_deploys: Sum "Deploy attempts rejected because the credential expired",
    }
}

/// Shared handle to [`CpStats`].
#[allow(clippy::disallowed_types)] // A ledger shim until ROADMAP item 1 ports its reader.
pub type CpStatsHandle = Arc<dtcs_netsim::sync::Mutex<CpStats>>;

#[cfg(test)]
mod tests {
    use super::*;

    use dtcs_netsim::{CpFlightRecorder, CpMeta, NodeAgent, SimTime, Simulator, Topology};

    const FAMILY: u64 = 0x0042 << 48;
    const KEY: u64 = 7;
    /// Plain tokens scripting the probe agent.
    const START: u64 = 1;
    const ACK: u64 = 2;
    const VETO_FROM_NOW: u64 = 3;

    /// The attempt number of every send that reached the wire, in order.
    type Sends = Arc<std::sync::Mutex<Vec<u32>>>;
    /// What a retry timer resolved to: (time, outcome, attempts so far —
    /// filled in where the leg is handed back).
    type Firing = (SimTime, &'static str, u32);

    struct Probe(Sends);

    impl LegMsg for Probe {
        fn send(&self, ctx: &mut AgentCtx<'_>, dest: NodeId, id: MsgKey) {
            self.0.lock().unwrap().push(id.attempt);
            let meta = CpMeta {
                origin: id.origin,
                txn: id.txn,
                attempt: id.attempt,
                kind: 1,
            };
            ctx.send_control_keyed(dest, SimDuration::from_millis(1), (), meta);
        }
    }

    /// One leg on one node, driven by plain timer tokens.
    struct ProbeAgent {
        rt: Retransmitter<u64, Probe>,
        cp: CpStatsHandle,
        sends: Sends,
        veto: bool,
        fired: Arc<std::sync::Mutex<Vec<Firing>>>,
    }

    impl NodeAgent for ProbeAgent {
        fn name(&self) -> &'static str {
            "probe"
        }

        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
            match token {
                START => {
                    let probe = Probe(self.sends.clone());
                    self.rt.track(ctx, KEY, ctx.node, 1, KEY, probe);
                }
                ACK => assert!(self.rt.take(ctx, &KEY).is_some(), "acked while tracked"),
                VETO_FROM_NOW => self.veto = true,
                _ => {
                    let veto = self.veto;
                    let outcome = match self.rt.on_timer(ctx, &self.cp, token, |_| veto) {
                        Fired::Resent => ("resent", 0),
                        Fired::Vetoed(leg) => ("vetoed", leg.id.attempt),
                        Fired::GaveUp(leg) => ("gave_up", leg.id.attempt),
                    };
                    self.fired
                        .lock()
                        .unwrap()
                        .push((ctx.now, outcome.0, outcome.1));
                }
            }
        }
    }

    struct Run {
        fired: Vec<Firing>,
        sends: Vec<u32>,
        events: Vec<CpTraceEvent>,
        cp: CpStats,
        /// Events the simulator dispatched.
        events_dispatched: u64,
    }

    impl Run {
        fn count(&self, kind: &str) -> usize {
            self.events.iter().filter(|e| e.kind() == kind).count()
        }

        fn outcomes(&self) -> Vec<&'static str> {
            self.fired.iter().map(|f| f.1).collect()
        }
    }

    /// Drive one leg through a one-node simulator: `script` schedules the
    /// plain tokens, the retransmitter's own timers do the rest.
    fn run(policy: RetryPolicy, script: &[(u64, u64)]) -> Run {
        let mut sim = Simulator::new(Topology::line(1), 1);
        let cp = CpStatsHandle::default();
        let sends = Sends::default();
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let agent = ProbeAgent {
            rt: Retransmitter::new(FAMILY, policy, 9),
            cp: cp.clone(),
            sends: sends.clone(),
            veto: false,
            fired: fired.clone(),
        };
        let idx = sim.add_agent(NodeId(0), Box::new(agent));
        for &(at_ms, token) in script {
            sim.schedule_agent_timer(NodeId(0), idx, SimTime::from_millis(at_ms), token);
        }
        let rec = Arc::new(std::sync::Mutex::new(CpFlightRecorder::new(1 << 12)));
        sim.set_cp_trace_sink(Box::new(rec.clone()), 1);
        sim.run_until(SimTime::from_secs(60));
        let events = rec.lock().unwrap().events().cloned().collect();
        let (fired, sends) = (fired.lock().unwrap().clone(), sends.lock().unwrap().clone());
        let cp = cp.lock().clone();
        Run {
            fired,
            sends,
            events,
            cp,
            events_dispatched: sim.stats.events,
        }
    }

    #[test]
    fn an_acked_legs_timer_never_fires() {
        let r = run(RetryPolicy::default(), &[(0, START), (100, ACK)]);
        assert_eq!(
            r.outcomes(),
            [] as [&str; 0],
            "the ack cancelled the armed timer"
        );
        assert_eq!(r.sends, [0], "nothing is retransmitted after the ack");
        assert_eq!(r.count("retry_schedule"), 1);
        assert_eq!(r.count("retry_fire") + r.count("retry_give_up"), 0);
        assert_eq!((r.cp.retransmits, r.cp.give_ups), (0, 0));
        assert_eq!(r.events_dispatched, 3, "start, the one send, the ack");
    }

    #[test]
    fn give_up_lands_on_exactly_max_attempts() {
        let policy = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        let r = run(policy, &[(0, START)]);
        assert_eq!(r.outcomes(), ["resent", "resent", "resent", "gave_up"]);
        assert_eq!(r.fired[3].2, 4, "the leg is handed back on attempt 4");
        assert_eq!(
            r.sends,
            [0, 1, 2, 3],
            "max_attempts sends, the first included"
        );
        assert_eq!((r.cp.retransmits, r.cp.give_ups), (3, 1));
        assert_eq!(r.count("retry_give_up"), 1);
    }

    #[test]
    fn each_fire_bumps_retransmits_once_and_emits_one_retry_fire() {
        let r = run(RetryPolicy::default(), &[(0, START), (1_000, ACK)]);
        // 250 ms and 500 ms backoffs (plus jitter) fit before the ack,
        // which cancels the third.
        assert_eq!(r.outcomes(), ["resent", "resent"]);
        assert_eq!(r.cp.retransmits, 2);
        let fires: Vec<u32> = r
            .events
            .iter()
            .filter_map(|e| match e {
                CpTraceEvent::RetryFire { attempt, dest, .. } => {
                    assert_eq!(*dest, NodeId(0), "resent to the tracked dest");
                    Some(*attempt)
                }
                _ => None,
            })
            .collect();
        assert_eq!(fires, [1, 2], "one event per fire, stamped like the send");
        assert_eq!(r.sends, [0, 1, 2]);
    }

    #[test]
    fn retrack_of_a_live_key_keeps_its_schedule() {
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let once = run(policy, &[(0, START)]);
        let twice = run(policy, &[(0, START), (100, START)]);
        assert_eq!(twice.sends, [0, 0, 1, 2], "the re-track sends again");
        assert_eq!(
            twice.fired, once.fired,
            "no second timer chain, and the first keeps its times"
        );
    }

    #[test]
    fn vetoed_leg_is_dropped_without_a_retransmit() {
        let r = run(RetryPolicy::default(), &[(0, START), (400, VETO_FROM_NOW)]);
        // The veto is asked before the next timer is armed: none follows.
        assert_eq!(r.outcomes(), ["resent", "vetoed"]);
        assert_eq!(r.sends, [0, 1], "the vetoed attempt never reaches the wire");
        assert_eq!((r.cp.retransmits, r.cp.give_ups), (1, 0));
        assert_eq!(r.count("retry_fire"), 1);
    }

    /// What can happen to one leg of a fan-out, in protocol order: a
    /// give-up only ever precedes the leg's acks (an ack stops the
    /// retransmitter), and any ack may be duplicated.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ev {
        Ack,
        DupAck,
        GiveUp,
    }

    const FATES: [&[Ev]; 5] = [
        &[Ev::Ack],
        &[Ev::Ack, Ev::DupAck],
        &[Ev::GiveUp],
        &[Ev::GiveUp, Ev::Ack],
        &[Ev::GiveUp, Ev::Ack, Ev::DupAck],
    ];

    /// Every interleaving of the three legs' remaining events.
    fn interleavings(
        fates: [&'static [Ev]; 3],
        at: [usize; 3],
        prefix: &mut Vec<(usize, Ev)>,
        visit: &mut impl FnMut(&[(usize, Ev)]),
    ) {
        let mut leaf = true;
        for leg in 0..3 {
            if let Some(&ev) = fates[leg].get(at[leg]) {
                leaf = false;
                let mut next = at;
                next[leg] += 1;
                prefix.push((leg, ev));
                interleavings(fates, next, prefix, visit);
                prefix.pop();
            }
        }
        if leaf {
            visit(prefix);
        }
    }

    /// A settled outcome, as far as an answer can show it.
    fn tallies(fan: &FanIn<usize>) -> [usize; 4] {
        [fan.acked(), fan.lost(), fan.done, fan.refused]
    }

    /// The model of a running transaction: each leg's first resolution,
    /// acked (true) or given up on.
    type Model = [Option<bool>; 3];

    /// [`tallies`] of a model: leg k reports 10^k units done and one
    /// refused, so the tallies show which acks were counted.
    fn model_tallies(m: &Model) -> [usize; 4] {
        let acked: Vec<usize> = (0..3).filter(|&k| m[k] == Some(true)).collect();
        let lost = m.iter().filter(|&&f| f == Some(false)).count();
        let done = acked.iter().map(|&k| 10usize.pow(k as u32)).sum();
        [acked.len(), lost, done, acked.len()]
    }

    #[test]
    fn fan_in_finishes_exactly_once_in_every_ordering() {
        let mut orderings = 0;
        let mut check = |order: &[(usize, Ev)]| {
            orderings += 1;
            let mut fan: FanIn<usize> = FanIn::new(1, NodeId(0), 3);
            let mut first: Model = [None; 3];
            let mut finishes = 0;
            for &(leg, ev) in order {
                assert!(!fan.is_done(), "{order:?}: fed after finishing");
                match ev {
                    Ev::Ack | Ev::DupAck => {
                        let counted = first[leg].is_none();
                        let units = 10usize.pow(leg as u32);
                        assert_eq!(fan.ack(leg, units, 1), counted, "{order:?}");
                        if counted {
                            first[leg] = Some(true);
                        }
                    }
                    Ev::GiveUp => {
                        fan.lose(leg);
                        first[leg].get_or_insert(false);
                    }
                }
                // A duplicate, or an ack after the give-up, counts nothing.
                assert_eq!(tallies(&fan), model_tallies(&first), "{order:?}");
                if fan.is_done() {
                    assert!(
                        first.iter().all(Option::is_some),
                        "{order:?}: a leg outstanding"
                    );
                    // The agent moves a finished fan-in to its done-cache:
                    // later events of this ordering never reach it.
                    finishes += 1;
                    break;
                }
            }
            assert_eq!(finishes, 1, "{order:?}: every leg resolved, so it finishes");
            assert_eq!(fan.acked() + fan.lost(), 3, "{order:?}: counts add up");
        };
        for a in FATES {
            for b in FATES {
                for c in FATES {
                    interleavings([a, b, c], [0; 3], &mut Vec::new(), &mut check);
                }
            }
        }
        assert!(orderings > 10_000, "exhaustive, not sampled: {orderings}");
    }

    /// One input to a relayed transaction: its request, or something that
    /// happened to a leg.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Request,
        Leg(usize, Ev),
    }

    /// Feed `steps` to a relay and, beside it, to a model that is opened by
    /// the request and dropped once every leg resolved: the relay must
    /// count what the model counts, settle when it finishes and at no
    /// other time, and answer a duplicate request — probed around every
    /// step — by where the transaction stands. Returns how often it
    /// settled.
    fn relay_agrees_with_fan_in(steps: &[Step]) -> usize {
        const TXN: u64 = 7;
        const OTHER: u64 = 8;
        let mut relay: Relay<u64, usize, Probe> = Relay::new(FAMILY, RetryPolicy::default(), 9);
        let mut model: Option<Model> = None;
        let mut settled: Option<[usize; 4]> = None;
        let mut settles = 0;
        for at in 0..=steps.len() {
            match (relay.admit(TXN), &model, settled) {
                (Admission::New, None, None) | (Admission::Running, Some(_), None) => {}
                (Admission::Done(out, ()), None, Some(outcome)) => {
                    assert_eq!(tallies(out), outcome, "{steps:?}@{at}: the answer changed");
                }
                (admission, ..) => panic!("{steps:?}@{at}: {admission:?}"),
            }
            let Some(&step) = steps.get(at) else { break };
            match step {
                Step::Request => {
                    relay.open(TXN, 1, NodeId(0), 3, ());
                    model = Some([None; 3]);
                }
                // Before the request and after the answer every ack is a
                // duplicate; so is one after the leg resolved.
                Step::Leg(leg, Ev::Ack | Ev::DupAck) => {
                    let work = 10usize.pow(leg as u32);
                    let first = match model.as_mut().map(|m| &mut m[leg]) {
                        Some(f) if f.is_none() => {
                            *f = Some(true);
                            true
                        }
                        _ => false,
                    };
                    assert_eq!(
                        relay.ack(&mut (), TXN, leg, work, 1),
                        first,
                        "{steps:?}@{at}"
                    );
                    assert!(!relay.ack(&mut (), OTHER, leg, work, 1), "{steps:?}@{at}");
                }
                Step::Leg(leg, Ev::GiveUp) => {
                    relay.lose(TXN, leg);
                    relay.lose(OTHER, leg);
                    if let Some(m) = model.as_mut() {
                        m[leg].get_or_insert(false);
                    }
                }
            }
            assert!(matches!(relay.admit(OTHER), Admission::New));
            assert!(relay.settle(OTHER).is_none());
            let due = model.is_some_and(|m| m.iter().all(Option::is_some));
            match relay.settle(TXN) {
                Some((out, ())) => {
                    assert!(due, "{steps:?}@{at}: settled with legs outstanding");
                    let finished = model.take().expect("due");
                    assert_eq!(tallies(out), model_tallies(&finished), "{steps:?}@{at}");
                    settled = Some(tallies(out));
                    settles += 1;
                }
                None => assert!(!due, "{steps:?}@{at}: finished and not settled"),
            }
            assert!(relay.settle(TXN).is_none(), "{steps:?}@{at}: settled twice");
        }
        settles
    }

    #[test]
    fn relay_settles_exactly_once_in_every_ordering() {
        let mut runs = 0;
        let mut check = |order: &[(usize, Ev)]| {
            let legs: Vec<Step> = order.iter().map(|&(leg, ev)| Step::Leg(leg, ev)).collect();
            // The request anywhere: what precedes it finds no transaction.
            for request_at in 0..=legs.len() {
                let mut steps = legs.clone();
                steps.insert(request_at, Step::Request);
                let settles = relay_agrees_with_fan_in(&steps);
                assert!(settles <= 1, "{steps:?}");
                // Every leg resolves, so a request that saw them all is
                // answered.
                assert!(settles == 1 || request_at > 0, "{steps:?}");
                runs += 1;
            }
        };
        for a in FATES {
            for b in FATES {
                for c in FATES {
                    interleavings([a, b, c], [0; 3], &mut Vec::new(), &mut check);
                }
            }
        }
        assert_eq!(runs, 96_432, "exhaustive, not sampled");
    }

    /// A leg's first resolution stands ([`FanIn`]): a leg given up on
    /// that acks after all, while the others are outstanding, stays lost,
    /// its ack is a duplicate, and the answer waits for the other two.
    #[test]
    fn relay_takes_a_late_ack_after_a_give_up_as_a_duplicate() {
        let mut relay: Relay<u64, usize, Probe> = Relay::new(FAMILY, RetryPolicy::default(), 9);
        relay.open(7, 1, NodeId(0), 3, ());
        relay.lose(7, 0);
        assert!(!relay.ack(&mut (), 7, 0, 5, 0), "late: a duplicate");
        assert!(relay.ack(&mut (), 7, 1, 5, 0));
        assert!(relay.settle(7).is_none(), "leg 2 is outstanding");
        assert!(relay.ack(&mut (), 7, 2, 5, 0));
        let (out, ()) = relay.settle(7).expect("every leg resolved");
        assert_eq!(tallies(out), [2, 1, 10, 0], "leg 0's work is not counted");
    }

    #[test]
    fn rto_backs_off_and_caps() {
        let p = RetryPolicy::default();
        let r0 = p.rto(1, 0, 0);
        let r1 = p.rto(1, 0, 1);
        let r5 = p.rto(1, 0, 5);
        // Base grows 250ms → 500ms …; jitter adds at most rto/4.
        assert!(r0.0 >= SimDuration::from_millis(250).0);
        assert!(r0.0 < SimDuration::from_millis(313).0);
        assert!(r1.0 >= SimDuration::from_millis(500).0);
        assert!(r5.0 >= SimDuration::from_secs(2).0, "capped at 2s");
        assert!(r5.0 < SimDuration::from_millis(2500).0);
        // Deterministic.
        assert_eq!(p.rto(1, 0, 0), p.rto(1, 0, 0));
        // Different slots jitter differently (with these constants).
        assert_ne!(p.rto(1, 0, 0), p.rto(1, 7, 0));
    }

    /// Every schedule's timeouts sum to under the budget: 7.75 s of
    /// backoff plus the jitter's bound on each, 9.6875 s by default.
    #[test]
    fn budget_bounds_every_schedule() {
        let p = RetryPolicy::default();
        assert_eq!(p.budget(), SimDuration::from_micros(9_687_500));
        let doubled = RetryPolicy {
            max_attempts: 2 * p.max_attempts,
            ..p
        };
        for policy in [p, doubled] {
            for (seed, slot) in (0..64).map(|i| (i * 31, i % 5)) {
                let wait: u64 = (0..policy.max_attempts)
                    .map(|k| policy.rto(seed, slot, k).0)
                    .sum();
                assert!(wait < policy.budget().0, "{wait} ns");
            }
        }
    }

    #[test]
    fn dedup_admits_once() {
        let mut d = Dedup::new();
        assert!(d.first_time(1, 2, 3, 0));
        assert!(!d.first_time(1, 2, 3, 0));
        assert!(d.first_time(1, 2, 3, 9), "extra disambiguates");
        assert!(d.first_time(1, 2, 4, 0), "kind disambiguates");
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn msg_key_identity_ignores_attempt() {
        let a = MsgKey {
            origin: 5,
            txn: 9,
            attempt: 0,
        };
        let b = MsgKey {
            origin: 5,
            txn: 9,
            attempt: 3,
        };
        assert_eq!(a.identity(), b.identity());
        assert_ne!(a, b);
    }
}
