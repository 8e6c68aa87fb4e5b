//! Node agents: packet-path extensions attached to routers.
//!
//! Everything that sits *beside* plain IP forwarding — adaptive devices,
//! ingress filters, pushback logic, traceback markers — is a [`NodeAgent`].
//! Agents on a node form an ordered chain; each inbound or locally-emitted
//! packet passes through the chain before normal forwarding, and any agent
//! may drop it. Agents communicate with the simulator exclusively through
//! the [`Outbox`], which keeps the borrow structure simple and the event
//! order deterministic.
//!
//! Control-plane messaging between agents (pushback's upstream rate-limit
//! requests, the TCSP/ISP management operations of Figs. 4–5) uses
//! [`AgentCtx::send_control`]: an out-of-band message delivered after an
//! explicit delay chosen by the sender (typically `hops × RTT`). This is a
//! documented substitution for in-band signalling — the experiments that
//! care about control-plane latency (E7) model it explicitly.

use std::any::Any;
use std::rc::Rc;

use crate::arena::{Arena, Handle};
use crate::cp_trace::{CpMeta, CpTraceEvent};
use crate::node::{LinkId, NodeId};
use crate::packet::{Packet, PacketBuilder};
use crate::recorder::Tracer;
use crate::routing::Routing;
use crate::sim::EventQueue;
use crate::stats::DropReason;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::TraceEvent;
use crate::wheel::EntryId;

/// What an agent decided about a packet.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// Pass to the next agent / normal forwarding.
    Forward,
    /// Drop with the given reason (recorded in [`crate::stats::Stats`]).
    Drop(DropReason),
}

/// Out-of-band control message between agents.
///
/// The payload is reference-counted so the fault plane
/// ([`crate::faults::FaultPlane`]) can deliver duplicates of one send
/// without requiring payload types to be `Clone`.
pub struct ControlMsg {
    /// Node whose agent sent the message.
    pub from: NodeId,
    /// Opaque payload; receivers `downcast_ref` to their protocol type.
    pub payload: Rc<dyn Any>,
    /// Control-trace identity the sender attached via
    /// [`AgentCtx::send_control_keyed`]; None for unkeyed messages.
    /// Receivers replying on behalf of the same transaction (e.g. a
    /// device acking an install) echo it so the reply traces under the
    /// request's key.
    pub meta: Option<CpMeta>,
}

impl ControlMsg {
    /// Typed view of the payload.
    pub fn get<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

/// A control message waiting in the [`Outbox`]: delay, destination, payload
/// and flight-recorder tag.
type QueuedControl = (SimDuration, NodeId, Rc<dyn Any>, Option<CpMeta>);

/// Names one agent timer, from [`AgentCtx::set_timer`] until it fires or
/// is cancelled ([`AgentCtx::cancel_timer`]). A generation-tagged ticket,
/// like a packet's [`crate::arena::Handle`]: it is bound to its wheel
/// entry when the outbox flushes and released when the timer fires or is
/// cancelled, so an id kept past that names nothing and cancelling it is
/// a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerId(Handle);

impl TimerId {
    /// A fresh ticket, bound to no entry yet.
    pub(crate) fn new(tickets: &mut TimerTickets) -> TimerId {
        TimerId(tickets.alloc(EntryId::NONE))
    }

    /// Bind the ticket to the wheel entry its timer was queued as.
    pub(crate) fn bind(self, tickets: &mut TimerTickets, entry: EntryId) {
        tickets.store(self.0, entry);
    }

    /// Is the ticket still held (its timer neither fired nor cancelled)?
    pub(crate) fn is_live(self, tickets: &TimerTickets) -> bool {
        tickets.is_live(self.0)
    }

    /// Release the ticket and hand back its entry ([`EntryId::NONE`] while
    /// the timer waits in the outbox); None when it was released before
    /// (the timer fired or was cancelled).
    pub(crate) fn release(self, tickets: &mut TimerTickets) -> Option<EntryId> {
        if !tickets.is_live(self.0) {
            return None;
        }
        let entry = tickets.take(self.0);
        tickets.free(self.0);
        Some(entry)
    }
}

/// The live agent timers: each ticket holds the wheel entry its timer
/// was pushed as ([`EntryId::NONE`] until the outbox flushes).
pub(crate) type TimerTickets = Arena<EntryId>;

/// Takes back the timers of work that was retired before they fired.
/// [`AgentCtx`] cancels them; `()` drops them, for a decider exercised
/// without a simulator.
pub trait CancelTimer {
    /// Cancel timer `id`; a no-op once it fired or was cancelled.
    fn cancel_timer(&mut self, id: TimerId);
}

impl CancelTimer for () {
    fn cancel_timer(&mut self, _id: TimerId) {}
}

/// Deferred effects produced by agent / app callbacks, applied by the
/// simulator after the callback returns.
#[derive(Default)]
pub struct Outbox {
    pub(crate) sends: Vec<(SimDuration, PacketBuilder)>,
    /// Timers for whoever ran the callback (an agent or an app); the
    /// simulator's flush knows which. An agent's carry their ticket, and
    /// one cancelled before the flush is not queued.
    pub(crate) timers: Vec<(SimDuration, u64, Option<TimerId>)>,
    pub(crate) controls: Vec<QueuedControl>,
}

impl Outbox {
    pub(crate) fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty() && self.controls.is_empty()
    }
}

/// Context handed to every agent callback.
pub struct AgentCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Node this agent chain is attached to.
    pub node: NodeId,
    /// Read-only topology (including live link counters).
    pub topo: &'a Topology,
    /// Read-only routing tables.
    pub routing: &'a Routing,
    pub(crate) outbox: &'a mut Outbox,
    pub(crate) tickets: &'a mut TimerTickets,
    /// The event queue, for [`AgentCtx::cancel_timer`] alone.
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) trace: &'a mut Tracer<TraceEvent>,
    pub(crate) cp_trace: &'a mut Tracer<CpTraceEvent>,
    /// One-slot staging area for the next module verdict's detail string.
    pub(crate) verdict_detail: &'a mut Option<String>,
}

impl<'a> AgentCtx<'a> {
    /// Emit a new packet from this node after `delay`. The packet enters
    /// the network at this node and traverses the agent chain like any
    /// other traffic.
    pub fn emit(&mut self, delay: SimDuration, builder: PacketBuilder) {
        self.outbox.sends.push((delay, builder));
    }

    /// Arrange for `on_timer(token)` on this agent after `delay`; the id
    /// cancels it until it fires.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let id = TimerId::new(self.tickets);
        self.outbox.timers.push((delay, token, Some(id)));
        id
    }

    /// Cancel a timer this agent set: it will not fire. A no-op for one
    /// that already fired or was cancelled.
    pub fn cancel_timer(&mut self, id: TimerId) {
        // A timer set in this callback has no entry yet (`EntryId::NONE`,
        // which cancels nothing); the flush skips it.
        if let Some(entry) = id.release(self.tickets) {
            self.queue.cancel(entry);
        }
    }

    /// Send an out-of-band control message to the agents of `to`,
    /// delivered after `delay`.
    pub fn send_control<T: Any>(&mut self, to: NodeId, delay: SimDuration, payload: T) {
        self.queue_control(to, delay, payload, None);
    }

    /// Like [`AgentCtx::send_control`], but tagging the message with its
    /// control-transaction identity so the control-plane flight recorder
    /// (DESIGN.md §6.4) can trace it. Identical delivery semantics; the
    /// tag is observation-only.
    pub fn send_control_keyed<T: Any>(
        &mut self,
        to: NodeId,
        delay: SimDuration,
        payload: T,
        meta: CpMeta,
    ) {
        self.queue_control(to, delay, payload, Some(meta));
    }

    /// The one way a control message enters the outbox.
    fn queue_control<T: Any>(
        &mut self,
        to: NodeId,
        delay: SimDuration,
        payload: T,
        meta: Option<CpMeta>,
    ) {
        self.outbox
            .controls
            .push((delay, to, Rc::new(payload), meta));
    }

    /// Is control-plane tracing enabled at all? One branch; agents may
    /// use it to skip building events, though event construction is
    /// allocation-free and [`AgentCtx::cp_event`] gates internally.
    #[inline]
    pub fn cp_trace_enabled(&self) -> bool {
        self.cp_trace.enabled()
    }

    /// Record a control-plane trace event. No-op when tracing is
    /// disabled; keyed events are dropped unless their `(origin, txn)`
    /// transaction is in the deterministic sample.
    #[inline]
    pub fn cp_event(&mut self, ev: CpTraceEvent) {
        self.cp_trace.record(ev);
    }

    /// Is the packet in the trace sample? Agents use this to gate any
    /// per-packet telemetry work (notably building a
    /// [`AgentCtx::trace_verdict_detail`] string); one branch when tracing
    /// is disabled.
    pub fn trace_wants(&self, pkt: &Packet) -> bool {
        self.trace.wants(&[pkt.id])
    }

    /// Attach a detail string (e.g. which filter stage fired) to the
    /// `ModuleVerdict` trace event the simulator emits if this callback
    /// returns [`Verdict::Drop`]. Call only under a positive
    /// [`AgentCtx::trace_wants`] check so untraced packets allocate
    /// nothing; staged detail is discarded if the packet is forwarded.
    pub fn trace_verdict_detail(&mut self, detail: impl Into<String>) {
        if self.trace.enabled() {
            *self.verdict_detail = Some(detail.into());
        }
    }

    /// Round-trip-flavoured delay estimate toward `to`: per-hop latency sum
    /// along the current shortest path (used by control senders to pick a
    /// realistic delivery delay).
    pub fn path_delay(&self, to: NodeId) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let mut at = self.node;
        let mut guard = 0;
        while at != to {
            let Some(l) = self.routing.next_hop(at, to) else {
                return SimDuration::from_millis(50); // unreachable: flat guess
            };
            total += self.topo.links[l.0].latency;
            at = self.topo.links[l.0].other(at);
            guard += 1;
            if guard > self.topo.n() {
                break;
            }
        }
        total
    }
}

impl CancelTimer for AgentCtx<'_> {
    fn cancel_timer(&mut self, id: TimerId) {
        AgentCtx::cancel_timer(self, id);
    }
}

/// A packet-path extension attached to a node.
///
/// All methods take `&mut self`; an agent is owned by exactly one node and
/// the simulator is single-threaded per instance (determinism), so no
/// internal synchronisation is needed. An agent keeps its statistics as
/// plain fields; [`crate::Simulator::agent`] hands it back to read them.
pub trait NodeAgent: Any {
    /// Short stable name for logs and reports.
    fn name(&self) -> &'static str;

    /// A packet arrived at this node (either from link `from`, or `None`
    /// when emitted locally). May mutate mutable packet fields (e.g. the
    /// marking field); may drop. Agents off the packet path keep the
    /// default: forward untouched.
    fn on_packet(
        &mut self,
        _ctx: &mut AgentCtx<'_>,
        _pkt: &mut Packet,
        _from: Option<LinkId>,
    ) -> Verdict {
        Verdict::Forward
    }

    /// A timer set via [`AgentCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>, _token: u64) {}

    /// A packet this node tried to forward was tail-dropped on `link`.
    /// This is the congestion-observation hook pushback builds on.
    fn on_link_drop(&mut self, _ctx: &mut AgentCtx<'_>, _link: LinkId, _pkt: &Packet) {}

    /// An out-of-band control message arrived.
    fn on_control(&mut self, _ctx: &mut AgentCtx<'_>, _msg: &ControlMsg) {}

    /// The node hosting this agent crashed (fault-plane crash window,
    /// [`crate::faults::Outage`] with `crash = true`). Volatile state —
    /// anything a real reboot would lose — must be discarded here;
    /// durable identity (keys, manager binding) survives.
    fn on_crash(&mut self, _ctx: &mut AgentCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_msg_downcast() {
        let msg = ControlMsg {
            from: NodeId(3),
            payload: Rc::new(42u32),
            meta: None,
        };
        assert_eq!(msg.get::<u32>(), Some(&42));
        assert_eq!(msg.get::<u64>(), None);
    }

    #[test]
    fn outbox_empty_tracking() {
        let mut o = Outbox::default();
        assert!(o.is_empty());
        o.timers.push((SimDuration::ZERO, 1, None));
        assert!(!o.is_empty());
        // The simulator drains by `mem::take` and hands the emptied
        // buffers back; emptiness must reflect that.
        std::mem::take(&mut o.timers).clear();
        assert!(o.is_empty());
    }
}
