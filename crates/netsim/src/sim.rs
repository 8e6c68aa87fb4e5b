//! The discrete-event simulator.
//!
//! Single-threaded and deterministic: events are ordered by `(time, seq)`
//! where `seq` is a monotone tie-breaker, all randomness flows from one
//! seeded ChaCha8 stream, and agent/app callbacks interact with the engine
//! only through outbox buffers that are flushed in callback order.
//! Parallelism lives one level up — experiment sweeps run many independent
//! `Simulator` instances across threads (DESIGN.md §6).
//!
//! The event queue is a hierarchical timing wheel ([`crate::wheel`]) and
//! in-flight packets live in a generation-tagged slab arena
//! ([`crate::arena`]), so the steady-state hot path is allocation-free and
//! every queue operation is O(1) amortized (DESIGN.md §6.2).

use std::any::Any;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::rng::ChaCha8Rng;

use crate::addr::Addr;
use crate::agent::{AgentCtx, ControlMsg, NodeAgent, Outbox, TimerId, TimerTickets, Verdict};
use crate::app::{App, AppApi, Disposition};
use crate::arena::{Arena, Handle as PktHandle};
use crate::cp_trace::{CpMeta, CpTraceEvent, CpVerdict};
use crate::faults::FaultPlane;
use crate::fluid::{FluidDemand, FluidLayer};
use crate::link::Admission;
use crate::node::{LinkId, NodeId};
use crate::packet::{Packet, PacketBuilder};
use crate::recorder::{Sink, Tracer};
use crate::rng::seeded;
use crate::routing::Routing;
use crate::stats::{DropReason, Stats};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::TraceEvent;
use crate::wheel::{EntryId, TimingWheel};

/// A scheduled simulator callback.
type Call = Box<dyn FnOnce(&mut Simulator)>;

pub(crate) enum EventKind {
    Arrive {
        at: NodeId,
        from: Option<LinkId>,
        /// Generation-tagged ticket into [`Simulator::arena`]. Index-based
        /// so the entry stays small (a queued event of any kind is one
        /// `EventKind`-wide record in the wheel's slab) and so a freed
        /// packet cannot be silently resurrected: a stale ticket fails its
        /// tag check.
        pkt: PktHandle,
    },
    AgentTimer {
        node: NodeId,
        agent: usize,
        token: u64,
        /// Released when the timer fires ([`TimerId`]).
        ticket: TimerId,
    },
    AppTimer {
        addr: Addr,
        token: u64,
    },
    ControlDeliver {
        to: NodeId,
        msg: ControlMsg,
    },
    Call(Call),
}

/// The simulator's event queue.
pub(crate) type EventQueue = TimingWheel<EventKind>;

/// Whose timers an outbox flush carries: the agent at this chain index, or
/// the app at this address.
#[derive(Clone, Copy)]
enum TimerOwner {
    Agent(usize),
    App(Addr),
}

/// The simulator.
pub struct Simulator {
    /// The network graph (owned; link state lives inside).
    pub topo: Topology,
    /// Shortest-path forwarding tables.
    pub routing: Routing,
    /// Global measurement state.
    pub stats: Stats,
    agents: Vec<Vec<Box<dyn NodeAgent>>>,
    apps: BTreeMap<Addr, Box<dyn App>>,
    queue: EventQueue,
    now: SimTime,
    seq: u64,
    next_packet_id: u64,
    rng: ChaCha8Rng,
    outbox: Outbox,
    /// Every agent timer that has neither fired nor been cancelled, by
    /// ticket: what [`AgentCtx::cancel_timer`] takes back.
    tickets: TimerTickets,
    /// In-flight packet store: every queued `Arrive` event owns exactly
    /// one live arena slot, released when the packet reaches a terminal
    /// event (delivery or drop). Slots are reused, so steady-state
    /// forwarding allocates nothing.
    arena: Arena<Packet>,
    /// Lifecycle tracing front-end (flight recorder / JSONL). Disabled by
    /// default; the hot path then pays a single `None` branch per gate
    /// (DESIGN.md §6.4).
    tracer: Tracer<TraceEvent>,
    /// One-slot staging area for a module's verdict detail string
    /// ([`AgentCtx::trace_verdict_detail`]), consumed by the next
    /// `ModuleVerdict` event.
    verdict_detail: Option<String>,
    /// Control-plane flight-recorder front-end (DESIGN.md §6.4): the
    /// symmetric facility for control transactions. Disabled by default;
    /// the control funnel then pays one `None` branch per push.
    cp_tracer: Tracer<CpTraceEvent>,
    /// Optional control-channel fault injector (drop / duplicate / jitter
    /// / outage windows). `None` costs one branch per control push and
    /// leaves event order untouched — the zero-fault path is byte-
    /// identical to a build without the feature.
    faults: Option<FaultPlane>,
    /// Fluid background-traffic engine (DESIGN.md §6.8). `None` keeps the
    /// simulator purely packet-level; the event stream is then
    /// byte-identical to builds predating the fluid layer.
    fluid: Option<FluidLayer>,
    /// Nodes pinned to the discrete engine even with the fluid layer on —
    /// filtering devices, the victim — so the paper's observables still
    /// see real packets.
    fluid_packetized: Vec<bool>,
    started: bool,
}

impl Simulator {
    /// Build a simulator over a topology, computing routing tables.
    pub fn new(topo: Topology, seed: u64) -> Simulator {
        let routing = Routing::compute(&topo);
        let n = topo.n();
        Simulator {
            topo,
            routing,
            stats: Stats::new(),
            agents: (0..n).map(|_| Vec::new()).collect(),
            apps: BTreeMap::new(),
            queue: TimingWheel::new(),
            now: SimTime::ZERO,
            seq: 0,
            next_packet_id: 1,
            rng: seeded(seed),
            outbox: Outbox::default(),
            tickets: TimerTickets::new(),
            arena: Arena::new(),
            tracer: Tracer::disabled(seed),
            verdict_detail: None,
            cp_tracer: Tracer::disabled(seed),
            faults: None,
            fluid: None,
            fluid_packetized: vec![false; n],
            started: false,
        }
    }

    /// Install a trace sink recording lifecycle events for one packet in
    /// `one_in` (1 = every packet). The sampling salt derives from the
    /// simulator seed — never wall-clock — so the traced packet-id set is
    /// a pure function of `(seed, one_in)` and runs replay byte-for-byte.
    ///
    /// # Panics
    /// If `one_in` is 0.
    pub fn set_trace_sink(&mut self, sink: Box<dyn Sink<TraceEvent>>, one_in: u64) {
        self.tracer.enable(sink, one_in);
    }

    /// Remove and return the trace sink, disabling tracing.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn Sink<TraceEvent>>> {
        self.verdict_detail = None;
        self.tracer.disable()
    }

    /// Install a control-plane trace sink recording lifecycle events for
    /// one control transaction in `one_in` (1 = every transaction). Like
    /// the packet tracer, the sampling salt derives from the simulator
    /// seed, so the traced transaction set is a pure function of
    /// `(seed, one_in)` and runs replay byte-for-byte. Events without a
    /// transaction key (sweeps, crashes, unkeyed sends) are always
    /// recorded, keeping a sampled trace an exact subset of the full one.
    ///
    /// # Panics
    /// If `one_in` is 0.
    pub fn set_cp_trace_sink(&mut self, sink: Box<dyn Sink<CpTraceEvent>>, one_in: u64) {
        self.cp_tracer.enable(sink, one_in);
    }

    /// Remove and return the control-plane trace sink, disabling tracing.
    pub fn take_cp_trace_sink(&mut self) -> Option<Box<dyn Sink<CpTraceEvent>>> {
        self.cp_tracer.disable()
    }

    /// Is control-plane tracing enabled?
    pub fn cp_trace_enabled(&self) -> bool {
        self.cp_tracer.enabled()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Turn on the fluid background-traffic layer with the given
    /// accounting tick (see [`crate::fluid`]). Idempotent — the first
    /// call's tick wins. Demands offered afterwards via
    /// [`Simulator::add_background_demand`] become fluid aggregates unless
    /// they are attack traffic or an endpoint is packetized.
    pub fn enable_fluid(&mut self, tick: SimDuration) {
        if self.fluid.is_none() {
            self.fluid = Some(FluidLayer::new(tick, self.now, self.routing.epoch()));
        }
    }

    /// The fluid layer, for inspection (tests, benches, experiment
    /// metrics).
    pub fn fluid(&self) -> Option<&FluidLayer> {
        self.fluid.as_ref()
    }

    /// Pin `node` to the discrete packet engine: background demands
    /// touching it materialize as real packets instead of aggregates.
    /// This is the fluid/packet boundary — filtering devices and the
    /// victim stay packetized so agent chains, module verdicts and traces
    /// observe genuine traffic. (Attack traffic needs no pin: it is never
    /// an aggregate.)
    ///
    /// # Panics
    /// If `node` is outside the topology.
    pub fn fluid_packetize(&mut self, node: NodeId) {
        assert!(
            node.0 < self.topo.n(),
            "cannot packetize node {}: outside the {}-node topology",
            node.0,
            self.topo.n()
        );
        self.fluid_packetized[node.0] = true;
    }

    /// Offer a background traffic demand. With the fluid layer on, a
    /// demand that is not attack traffic and has neither endpoint in the
    /// packetized set becomes a fluid aggregate; otherwise it materializes
    /// as a discrete constant-bit-rate packet stream with the same rate,
    /// size, class and deadline — scenarios read identically under either
    /// engine. Attack traffic is always packets, so every packet a defence
    /// could judge meets the agent chains. A destination outside the
    /// topology is unroutable under either engine (`NoRoute` drops).
    ///
    /// # Panics
    /// If the source is outside the topology: nothing could emit there.
    /// If the rate is not finite and positive, or the packet size is zero:
    /// no tick could account it and no emitter could space its packets.
    pub fn add_background_demand(&mut self, d: FluidDemand) {
        assert!(
            d.src.node().0 < self.topo.n(),
            "background demand {:?} -> {:?}: source outside the {}-node topology",
            d.src,
            d.dst,
            self.topo.n()
        );
        assert!(
            d.rate_bps.is_finite() && d.rate_bps > 0.0,
            "background demand {:?} -> {:?}: rate {} b/s must be finite and positive",
            d.src,
            d.dst,
            d.rate_bps
        );
        assert!(
            d.pkt_size > 0,
            "background demand {:?} -> {:?}: packet size must be positive",
            d.src,
            d.dst
        );
        let packetized = |a: Addr| self.fluid_packetized.get(a.node().0) == Some(&true);
        let fluid_ok = self.fluid.is_some()
            && !d.class.is_attack()
            && !packetized(d.src)
            && !packetized(d.dst);
        if fluid_ok {
            self.stats.fluid_aggregates += 1;
            let now = self.now;
            let layer = self.fluid.as_mut().expect("checked above");
            layer.add(&d, now);
            if !layer.armed {
                layer.armed = true;
                let at = now + layer.tick_len();
                self.schedule(at, Simulator::fluid_tick);
            }
        } else {
            if self.fluid.is_some() {
                self.stats.fluid_boundary_conversions += 1;
            }
            self.emit_cbr(d);
        }
    }

    fn fluid_tick(&mut self) {
        let Some(mut layer) = self.fluid.take() else {
            return;
        };
        let again = layer.run_tick(self.now, &self.topo, &self.routing, &mut self.stats);
        layer.armed = again;
        let next = self.now + layer.tick_len();
        self.fluid = Some(layer);
        if again {
            self.schedule(next, Simulator::fluid_tick);
        }
    }

    /// Discrete materialization of a background demand: one packet of
    /// `pkt_size` every `pkt_size * 8 / rate_bps` seconds until `until`.
    fn emit_cbr(&mut self, d: FluidDemand) {
        let interval = SimDuration::from_secs_f64(d.pkt_size as f64 * 8.0 / d.rate_bps);
        let interval = interval.max(SimDuration::from_nanos(1));
        let flow = ((d.src.node().0 as u64) << 32) ^ d.dst.node().0 as u64;
        self.cbr_step(d, interval, flow);
    }

    fn cbr_step(&mut self, d: FluidDemand, interval: SimDuration, flow: u64) {
        if self.now >= d.until {
            return;
        }
        self.emit_now(
            d.src.node(),
            PacketBuilder::new(d.src, d.dst, d.proto, d.class)
                .size(d.pkt_size)
                .flow(flow),
        );
        let next = self.now + interval;
        if next < d.until {
            self.schedule(next, move |s| s.cbr_step(d, interval, flow));
        }
    }

    /// Attach an agent to a node's chain; returns its chain index.
    ///
    /// Must be called from scenario code or a scheduled [`Simulator::schedule`]
    /// callback — never from inside an agent/app callback.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn NodeAgent>) -> usize {
        let chain = &mut self.agents[node.0];
        chain.push(agent);
        chain.len() - 1
    }

    /// The first `T` in `node`'s agent chain: how scenario code reads an
    /// agent's state during or after a run. None when the chain holds no
    /// `T` or `node` is outside the topology.
    ///
    /// A [`Simulator::schedule`] callback runs between agent callbacks,
    /// never inside one, so it always sees whole chains.
    pub fn agent<T: NodeAgent>(&self, node: NodeId) -> Option<&T> {
        let chain = self.agents.get(node.0)?;
        chain
            .iter()
            .find_map(|a| (a.as_ref() as &dyn Any).downcast_ref::<T>())
    }

    /// [`Simulator::agent`], mutably: a scheduled callback reconfigures
    /// an agent through it.
    pub fn agent_mut<T: NodeAgent>(&mut self, node: NodeId) -> Option<&mut T> {
        let chain = self.agents.get_mut(node.0)?;
        chain
            .iter_mut()
            .find_map(|a| (a.as_mut() as &mut dyn Any).downcast_mut::<T>())
    }

    /// The app at `addr`, if one of type `T` listens there: how scenario
    /// code reads an app's state during or after a run.
    pub fn app<T: App>(&self, addr: Addr) -> Option<&T> {
        (self.apps.get(&addr)?.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Install an application at an address. Replaces any existing app
    /// at that address (returned to the caller).
    pub fn install_app(&mut self, addr: Addr, app: Box<dyn App>) -> Option<Box<dyn App>> {
        assert!(
            (addr.node().0) < self.topo.n(),
            "address {addr:?} does not belong to a topology node"
        );
        self.apps.insert(addr, app)
    }

    /// Schedule an arbitrary callback at an absolute time. This is how
    /// scenario scripts stage mid-run reconfiguration (e.g. "deploy the TCS
    /// filter at t=20 s"). A time already in the past is clamped to the
    /// current instant (see [`Stats::past_events_clamped`]).
    pub fn schedule<F: FnOnce(&mut Simulator) + 'static>(&mut self, at: SimTime, f: F) {
        self.push(at, EventKind::Call(Box::new(f)));
    }

    /// Fail or restore a link and repair routing (failure injection).
    /// In-flight packets already past the link are unaffected; packets
    /// offered to a down link are dropped as queue losses. Call from
    /// scenario code or a [`Simulator::schedule`] callback.
    ///
    /// Repair is incremental ([`Routing::apply_link_flip`]): only the
    /// destination trees the flip can affect are re-derived, the epoch is
    /// bumped, and the re-derived rows carry it ([`Routing::changed_at`])
    /// so the fluid layer's path cache re-resolves just the damaged
    /// destinations. Redundant calls (link already in the requested
    /// state) change nothing and leave the epoch alone.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        if self.topo.links[link.0].up == up {
            return;
        }
        self.topo.links[link.0].up = up;
        let outcome = self.routing.apply_link_flip(&self.topo, link);
        self.stats.route_link_flips += 1;
        self.stats.route_trees_recomputed += outcome.trees_recomputed as u64;
        if outcome.full {
            self.stats.route_full_recomputes += 1;
        }
    }

    /// Deliver a control message to a node's agents at an absolute time,
    /// from scenario code (e.g. staged device reconfiguration). `from`
    /// names the apparent sender node.
    ///
    /// # Panics
    /// If `from` or `to` is outside the topology.
    pub fn deliver_control<T: Any>(&mut self, at: SimTime, from: NodeId, to: NodeId, payload: T) {
        for (end, node) in [("from", from), ("to", to)] {
            assert!(
                node.0 < self.topo.n(),
                "control message {end} node {}: outside the {}-node topology",
                node.0,
                self.topo.n()
            );
        }
        self.push_control(at, from, to, Rc::new(payload), None);
    }

    /// Install a control-channel fault injector. Crash windows in its
    /// schedule are turned into [`NodeAgent::on_crash`] calls at window
    /// start. Install before running; messages already queued bypass it.
    ///
    /// # Panics
    /// If an outage or partition window names a node outside the topology.
    pub fn install_fault_plane(&mut self, plane: FaultPlane) {
        plane.assert_nodes_within(self.topo.n());
        for (window, node, at) in plane.crash_windows() {
            self.schedule(at, move |sim| {
                sim.crash_node_with(node, Some(window as u64))
            });
        }
        self.faults = Some(plane);
    }

    /// Crash `node` now: every agent on it loses volatile state via
    /// [`NodeAgent::on_crash`]. Called by the fault plane's crash
    /// schedule; public so scenarios can also crash nodes ad hoc.
    pub fn crash_node(&mut self, node: NodeId) {
        self.crash_node_with(node, None);
    }

    /// Crash with the fault-plane outage-window index that scheduled it
    /// (None for ad-hoc crashes), so control-trace crash events can be
    /// joined to the outage verdicts of the messages the window swallowed.
    fn crash_node_with(&mut self, node: NodeId, window: Option<u64>) {
        self.stats.node_crashes += 1;
        if self.cp_tracer.enabled() {
            self.cp_tracer.record(CpTraceEvent::Crash {
                t: self.now.as_nanos(),
                node,
                window,
            });
        }
        self.visit_chain(node, None, |agent, ctx| {
            agent.on_crash(ctx);
            Verdict::Forward
        });
    }

    /// The single funnel for control-message scheduling: every
    /// `ControlDeliver` event — scenario-injected, agent outbox, app
    /// outbox — passes through here, so the fault plane sees the complete
    /// channel, and so the control-plane flight recorder can pair every
    /// send with exactly one fault verdict. The channel's answer is one
    /// [`CpVerdict`] ([`FaultPlane::verdict`], or plain delivery without a
    /// plane); counting, tracing and scheduling all read that one value.
    fn push_control(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        payload: Rc<dyn Any>,
        meta: Option<CpMeta>,
    ) {
        self.stats.cp_msgs += 1;
        let traced = self.cp_tracer.enabled();
        let t = self.now.as_nanos();
        if traced {
            self.cp_tracer
                .record(CpTraceEvent::Send { t, meta, from, to });
        }
        let deliver_at = at.max(self.now);
        let verdict = match self.faults.as_mut() {
            Some(plane) => plane.verdict(from, to, self.now, deliver_at),
            None => CpVerdict::Deliver {
                deliver_ns: deliver_at.as_nanos(),
                jitter_ns: 0,
                dup_extra_ns: None,
            },
        };
        if traced {
            self.cp_tracer.record(CpTraceEvent::Verdict {
                t,
                meta,
                from,
                to,
                verdict,
            });
        }
        match verdict {
            CpVerdict::Outage { .. } => self.stats.cp_outage_dropped += 1,
            CpVerdict::Partition { .. } => self.stats.cp_partition_dropped += 1,
            CpVerdict::Drop => self.stats.cp_fault_dropped += 1,
            CpVerdict::Deliver {
                deliver_ns,
                jitter_ns,
                dup_extra_ns,
            } => {
                if jitter_ns > 0 {
                    self.stats.cp_fault_jittered += 1;
                }
                // Pinned quirk: without a fault plane the delivery is
                // pushed at the sender's raw `at`, so a past-dated send
                // still lands in `past_events_clamped`; a plane clamps to
                // `now` first and then adds its jitter.
                let first = match self.faults {
                    Some(_) => SimTime::from_nanos(deliver_ns),
                    None => at,
                };
                let deliver = |payload| EventKind::ControlDeliver {
                    to,
                    msg: ControlMsg {
                        from,
                        payload,
                        meta,
                    },
                };
                self.push(first, deliver(payload.clone()));
                if let Some(extra) = dup_extra_ns {
                    self.stats.cp_fault_duplicated += 1;
                    self.push(first + SimDuration::from_nanos(extra), deliver(payload));
                }
            }
        }
    }

    /// Schedule a timer for an installed agent from scenario code (the
    /// in-simulation way for agents to bootstrap themselves is
    /// [`AgentCtx::set_timer`]; this is the outside-in equivalent, used to
    /// kick off protocol drivers like the TCS user agent).
    ///
    /// # Panics
    /// If `node` is outside the topology, or `agent` is not an index into
    /// its chain ([`Simulator::add_agent`]'s return value).
    pub fn schedule_agent_timer(
        &mut self,
        node: NodeId,
        agent: usize,
        at: SimTime,
        token: u64,
    ) -> TimerId {
        let chain = self.agents.get(node.0).map(Vec::len);
        assert!(
            chain.is_some_and(|len| agent < len),
            "timer for agent {agent} of node {}: {}",
            node.0,
            match chain {
                Some(len) => format!("the node's chain holds {len}"),
                None => format!("outside the {}-node topology", self.topo.n()),
            }
        );
        let ticket = TimerId::new(&mut self.tickets);
        self.push_timer(node, agent, at, token, ticket);
        ticket
    }

    /// Emit a packet from `node` right now. Counted as sent; traverses the
    /// node's agent chain like host-originated traffic.
    pub fn emit_now(&mut self, node: NodeId, builder: PacketBuilder) {
        self.inject(node, self.now, builder);
    }

    /// A new packet enters the network at `node` at time `at`: stamped
    /// (id, send time, `Emit` trace, sent counters), given its arena slot,
    /// and queued to arrive with no inbound link.
    fn inject(&mut self, node: NodeId, at: SimTime, builder: PacketBuilder) {
        let pkt = self.stamp(node, builder);
        let pkt = self.arena.alloc(pkt);
        self.push(
            at,
            EventKind::Arrive {
                at: node,
                from: None,
                pkt,
            },
        );
    }

    /// Run every event up to and including `until`, then set the clock to
    /// `until`. Calls app `on_start` hooks on first use.
    pub fn run_until(&mut self, until: SimTime) {
        // The bounded pop never advances the wheel past `until`, so
        // pushes made after this run (all ≥ the new `now`) stay valid.
        self.run_events(until.as_nanos());
        self.now = self.now.max(until);
    }

    /// Drain every remaining event (careful with self-sustaining workloads).
    pub fn run_to_idle(&mut self) {
        self.run_events(u64::MAX);
    }

    /// The one pop loop: dispatch events dated up to `until_ns` in
    /// `(time, seq)` order until none is left.
    fn run_events(&mut self, until_ns: u64) {
        self.ensure_started();
        while let Some(entry) = self.queue.pop_next(until_ns) {
            self.now = SimTime::from_nanos(entry.time);
            self.stats.events += 1;
            self.dispatch(entry.kind);
        }
        self.sync_wheel_stats();
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Mirror the wheel's health counters into [`Stats`] so reports can
    /// read scheduler health without holding the queue. High-water marks
    /// merge by max; cascade moves are cumulative on the wheel side.
    fn sync_wheel_stats(&mut self) {
        self.stats.wheel_slot_occupancy_hwm = self
            .stats
            .wheel_slot_occupancy_hwm
            .max(self.queue.slot_depth_hwm() as u64);
        self.stats.wheel_len_hwm = self.stats.wheel_len_hwm.max(self.queue.len_hwm() as u64);
        self.stats.wheel_cascade_moves = self.queue.cascade_moves();
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Deterministic start order: BTreeMap iterates addresses ascending.
        let addrs: Vec<Addr> = self.apps.keys().copied().collect();
        for addr in addrs {
            self.with_app(addr, |app, api| app.on_start(api));
        }
    }

    /// Enqueue an event. Events dated in the past — a module bug the old
    /// queue only caught with a `debug_assert` at pop time, silently
    /// rewinding the clock in release builds — are clamped to the current
    /// instant and counted in [`Stats::past_events_clamped`], preserving
    /// the engine's monotone-clock invariant in every build profile.
    ///
    /// Overflow audit: `seq` is a `u64` bumped once per event; even at
    /// 10⁹ events per wall-second it cannot wrap within ~584 years of
    /// compute, and the wheel's slot arithmetic is closed over the full
    /// `u64` tick range (see [`crate::wheel`]'s cascade-boundary tests).
    fn push(&mut self, time: SimTime, kind: EventKind) -> EntryId {
        let time = if time < self.now {
            self.stats.past_events_clamped += 1;
            self.now
        } else {
            time
        };
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time.as_nanos(), seq, kind)
    }

    fn alloc_pkt_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    fn stamp(&mut self, node: NodeId, builder: PacketBuilder) -> Packet {
        let mut pkt = builder.build(self.alloc_pkt_id(), node);
        pkt.sent_at = self.now;
        self.stats.record_sent(&pkt);
        if self.tracer.wants(&[pkt.id]) {
            self.tracer.record(TraceEvent::Emit {
                t: self.now.as_nanos(),
                pkt: pkt.id,
                node,
                src: pkt.src,
                dst: pkt.dst,
                proto: pkt.proto,
                class: pkt.provenance.class,
                size: pkt.size,
                flow: pkt.flow,
            });
        }
        pkt
    }

    /// The one packet ending short of delivery: the terminal trace event,
    /// the drop counters and the arena slot's release, in that order.
    /// `module` names who decided — the dropping agent, `"host"` for
    /// receiver overload, `"engine"` for TTL/route/listener drops — and
    /// becomes the single authoritative `ModuleVerdict` event, consuming
    /// any staged verdict detail (discarded for unsampled packets). `None`
    /// means the link layer already wrote the packet's `LinkDrop`.
    fn end_dropped(
        &mut self,
        node: NodeId,
        handle: PktHandle,
        pkt: &Packet,
        module: Option<&'static str>,
        reason: DropReason,
    ) {
        if let Some(module) = module {
            let detail = self.verdict_detail.take();
            if self.tracer.wants(&[pkt.id]) {
                self.tracer.record(TraceEvent::ModuleVerdict {
                    t: self.now.as_nanos(),
                    pkt: pkt.id,
                    node,
                    module,
                    detail,
                    reason,
                    class: pkt.provenance.class,
                    size: pkt.size,
                    hops: pkt.hops,
                });
            }
        }
        self.stats.record_dropped(pkt, reason);
        self.arena.free(handle);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrive { at, from, pkt } => self.handle_arrival(at, from, pkt),
            EventKind::AgentTimer {
                node,
                agent,
                token,
                ticket,
            } => {
                ticket.release(&mut self.tickets);
                self.visit_chain(node, Some(agent), |a, ctx| {
                    a.on_timer(ctx, token);
                    Verdict::Forward
                });
            }
            EventKind::AppTimer { addr, token } => {
                self.with_app(addr, |app, api| app.on_timer(api, token));
            }
            EventKind::ControlDeliver { to, msg } => {
                self.visit_chain(to, None, |a, ctx| {
                    a.on_control(ctx, &msg);
                    Verdict::Forward
                });
            }
            EventKind::Call(f) => f(self),
        }
    }

    fn handle_arrival(&mut self, at: NodeId, from: Option<LinkId>, handle: PktHandle) {
        // Work on a stack copy; the arena slot stays live and is either
        // refreshed (packet forwarded: same ticket rides into the next
        // hop's event) or freed (terminal delivery/drop).
        let mut pkt = self.arena.take(handle);

        // 1. Agent chain.
        if let Some((agent, reason)) =
            self.visit_chain(at, None, |a, ctx| a.on_packet(ctx, &mut pkt, from))
        {
            return self.end_dropped(at, handle, &pkt, Some(agent), reason);
        }

        // 2. Local delivery.
        if pkt.dst.node() == at {
            return match self.with_app(pkt.dst, |app, api| app.on_packet(api, &pkt)) {
                Some(Disposition::Consumed) => {
                    self.stats.record_delivered(self.now, at, &pkt);
                    if self.tracer.wants(&[pkt.id]) {
                        self.tracer.record(TraceEvent::Deliver {
                            t: self.now.as_nanos(),
                            pkt: pkt.id,
                            node: at,
                            class: pkt.provenance.class,
                            size: pkt.size,
                            hops: pkt.hops,
                            latency: self.now.saturating_since(pkt.sent_at).as_nanos(),
                        });
                    }
                    self.arena.free(handle);
                }
                Some(Disposition::Overloaded) => {
                    self.end_dropped(at, handle, &pkt, Some("host"), DropReason::HostOverload)
                }
                None => self.end_dropped(at, handle, &pkt, Some("engine"), DropReason::NoListener),
            };
        }

        // 3. Forwarding.
        if pkt.ttl <= 1 {
            return self.end_dropped(at, handle, &pkt, Some("engine"), DropReason::TtlExpired);
        }
        pkt.ttl -= 1;
        let Some(link) = self.routing.next_hop(at, pkt.dst.node()) else {
            return self.end_dropped(at, handle, &pkt, Some("engine"), DropReason::NoRoute);
        };
        let is_attack = pkt.provenance.class.is_attack();
        let (admission, wait, backlog) =
            self.topo.links[link.0].offer_observed(at, self.now, pkt.size, is_attack);
        match admission {
            Admission::Dropped => {
                if self.tracer.wants(&[pkt.id]) {
                    self.tracer.record(TraceEvent::LinkDrop {
                        t: self.now.as_nanos(),
                        pkt: pkt.id,
                        link,
                        from: at,
                        backlog,
                        class: pkt.provenance.class,
                        size: pkt.size,
                        hops: pkt.hops,
                    });
                }
                // Congestion observation hook (pushback).
                self.visit_chain(at, None, |a, ctx| {
                    a.on_link_drop(ctx, link, &pkt);
                    Verdict::Forward
                });
                self.end_dropped(at, handle, &pkt, None, DropReason::QueueOverflow);
            }
            Admission::Deliver(when) => {
                self.stats.hist.queue_delay_ns.record(wait.as_nanos());
                pkt.hops = pkt.hops.saturating_add(1);
                let next = self.topo.links[link.0].other(at);
                if self.tracer.wants(&[pkt.id]) {
                    self.tracer.record(TraceEvent::LinkAdmit {
                        t: self.now.as_nanos(),
                        pkt: pkt.id,
                        link,
                        from: at,
                        to: next,
                        backlog,
                        arrive: when.as_nanos(),
                    });
                }
                // The ticket rides on into the next hop's event: the
                // per-hop path neither allocates nor frees.
                self.arena.store(handle, pkt);
                self.push(
                    when,
                    EventKind::Arrive {
                        at: next,
                        from: Some(link),
                        pkt: handle,
                    },
                );
            }
        }
    }

    /// The one agent-chain visit, behind every agent callback (packet
    /// arrival, link-drop hook, control delivery, timers, crashes): lend
    /// `node`'s chain out of the simulator, hand each agent — or only the
    /// one at chain index `only` — an [`AgentCtx`] through `call`, and turn
    /// what it left in the outbox into events before the next agent runs.
    /// The first [`Verdict::Drop`] ends the visit and is returned with the
    /// dropping agent's name.
    #[inline]
    fn visit_chain(
        &mut self,
        node: NodeId,
        only: Option<usize>,
        mut call: impl FnMut(&mut dyn NodeAgent, &mut AgentCtx<'_>) -> Verdict,
    ) -> Option<(&'static str, DropReason)> {
        let mut chain = std::mem::take(&mut self.agents[node.0]);
        let (skip, take) = only.map_or((0, usize::MAX), |idx| (idx, 1));
        let mut dropped = None;
        for (i, agent) in chain.iter_mut().enumerate().skip(skip).take(take) {
            let mut ctx = AgentCtx {
                now: self.now,
                node,
                topo: &self.topo,
                routing: &self.routing,
                outbox: &mut self.outbox,
                tickets: &mut self.tickets,
                queue: &mut self.queue,
                trace: &mut self.tracer,
                cp_trace: &mut self.cp_tracer,
                verdict_detail: &mut self.verdict_detail,
            };
            let verdict = call(agent.as_mut(), &mut ctx);
            self.flush_outbox(node, TimerOwner::Agent(i));
            if let Verdict::Drop(reason) = verdict {
                dropped = Some((agent.name(), reason));
                break;
            }
            // A module may stage verdict detail and then forward; discard
            // it so it cannot leak onto a later verdict event.
            self.verdict_detail = None;
        }
        self.agents[node.0] = chain;
        dropped
    }

    /// Run one callback of the app at `addr` (`None` when nothing listens
    /// there), then flush its outbox.
    fn with_app<R>(
        &mut self,
        addr: Addr,
        call: impl FnOnce(&mut dyn App, &mut AppApi<'_>) -> R,
    ) -> Option<R> {
        let app = self.apps.get_mut(&addr)?;
        let mut api = AppApi {
            now: self.now,
            node: addr.node(),
            self_addr: addr,
            rng: &mut self.rng,
            outbox: &mut self.outbox,
        };
        let out = call(app.as_mut(), &mut api);
        self.flush_outbox(addr.node(), TimerOwner::App(addr));
        Some(out)
    }

    /// Queue agent `agent`'s timer and bind its ticket to the entry.
    fn push_timer(&mut self, node: NodeId, agent: usize, at: SimTime, token: u64, ticket: TimerId) {
        let kind = EventKind::AgentTimer {
            node,
            agent,
            token,
            ticket,
        };
        let entry = self.push(at, kind);
        ticket.bind(&mut self.tickets, entry);
    }

    /// Turn what a callback at `node` left in the outbox into events:
    /// packets, then `owner`'s timers (but those it cancelled already),
    /// then control messages. Inlined down to the emptiness check, which
    /// is all most agent callbacks on the packet path need.
    #[inline]
    fn flush_outbox(&mut self, node: NodeId, owner: TimerOwner) {
        if !self.outbox.is_empty() {
            self.flush_nonempty(node, owner);
        }
    }

    fn flush_nonempty(&mut self, node: NodeId, owner: TimerOwner) {
        // Move the buffers out wholesale (a pointer swap, not a copy),
        // convert their contents into events, and hand the — now empty but
        // still allocated — buffers back. Unlike `drain(..).collect()` this
        // costs no allocation per flush, and the hot agent path flushes
        // after every callback.
        let mut sends = std::mem::take(&mut self.outbox.sends);
        let mut timers = std::mem::take(&mut self.outbox.timers);
        let mut controls = std::mem::take(&mut self.outbox.controls);
        for (delay, builder) in sends.drain(..) {
            self.inject(node, self.now + delay, builder);
        }
        for (delay, token, ticket) in timers.drain(..) {
            let at = self.now + delay;
            match (owner, ticket) {
                (TimerOwner::Agent(agent), Some(ticket)) => {
                    if ticket.is_live(&self.tickets) {
                        self.push_timer(node, agent, at, token, ticket);
                    }
                }
                (TimerOwner::App(addr), None) => {
                    self.push(at, EventKind::AppTimer { addr, token });
                }
                _ => unreachable!("agent timers carry a ticket, app timers none"),
            }
        }
        // Apps have no way to send control messages; the loop is simply
        // empty for them.
        for (delay, to, payload, meta) in controls.drain(..) {
            self.push_control(self.now + delay, node, to, payload, meta);
        }
        // Nothing refills the outbox while events are being pushed
        // (callbacks only run from `dispatch`), so restoring the drained
        // buffers cannot clobber pending entries.
        debug_assert!(self.outbox.is_empty());
        self.outbox.sends = sends;
        self.outbox.timers = timers;
        self.outbox.controls = controls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SinkApp;
    use crate::packet::{Proto, TrafficClass};
    use crate::stats::DropReason;
    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
    use std::sync::{Arc, Mutex};

    /// App counting deliveries into a shared atomic.
    struct Counter(Arc<AtomicU64>);
    impl App for Counter {
        fn on_packet(&mut self, _api: &mut AppApi<'_>, _pkt: &Packet) -> Disposition {
            self.0.fetch_add(1, AtomicOrdering::Relaxed);
            Disposition::Consumed
        }
    }

    fn udp(src: Addr, dst: Addr) -> PacketBuilder {
        PacketBuilder::new(src, dst, Proto::Udp, TrafficClass::Background).size(100)
    }

    #[test]
    fn end_to_end_delivery_on_line() {
        let topo = Topology::line(4);
        let mut sim = Simulator::new(topo, 1);
        let count = Arc::new(AtomicU64::new(0));
        let dst = Addr::new(NodeId(3), 1);
        sim.install_app(dst, Box::new(Counter(count.clone())));
        sim.emit_now(NodeId(0), udp(Addr::new(NodeId(0), 1), dst));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(count.load(AtomicOrdering::Relaxed), 1);
        let c = sim.stats.class(TrafficClass::Background);
        assert_eq!(c.sent_pkts, 1);
        assert_eq!(c.delivered_pkts, 1);
        assert_eq!(c.delivered_hops, 3);
        sim.stats.check_conservation().unwrap();
    }

    #[test]
    fn no_listener_is_counted() {
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 1);
        sim.emit_now(
            NodeId(0),
            udp(Addr::new(NodeId(0), 1), Addr::new(NodeId(1), 9)),
        );
        sim.run_until(SimTime::from_secs(1));
        let agg = sim.stats.drops_for_reason(DropReason::NoListener);
        assert_eq!(agg.pkts, 1);
    }

    #[test]
    fn ttl_expiry() {
        let topo = Topology::line(10);
        let mut sim = Simulator::new(topo, 1);
        let dst = Addr::new(NodeId(9), 1);
        sim.install_app(dst, Box::new(SinkAppProbe));
        sim.emit_now(NodeId(0), udp(Addr::new(NodeId(0), 1), dst).ttl(3));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.drops_for_reason(DropReason::TtlExpired).pkts, 1);
        assert_eq!(sim.stats.class(TrafficClass::Background).delivered_pkts, 0);
    }

    struct SinkAppProbe;
    impl App for SinkAppProbe {
        fn on_packet(&mut self, _api: &mut AppApi<'_>, _pkt: &Packet) -> Disposition {
            Disposition::Consumed
        }
    }

    #[test]
    fn no_route_drop() {
        let mut topo = Topology::line(2);
        let lonely = topo.add_node(crate::node::NodeRole::Stub);
        let mut sim = Simulator::new(topo, 1);
        sim.emit_now(
            NodeId(0),
            udp(Addr::new(NodeId(0), 1), Addr::new(lonely, 1)),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.drops_for_reason(DropReason::NoRoute).pkts, 1);
    }

    /// A packet can be addressed to anything: a destination outside the
    /// topology is unroutable, not an index into the forwarding table.
    #[test]
    fn destination_outside_the_topology_is_a_no_route_drop() {
        let mut sim = Simulator::new(Topology::line(3), 1);
        sim.emit_now(
            NodeId(0),
            udp(Addr::new(NodeId(0), 1), Addr::new(NodeId(9999), 1)),
        );
        sim.run_to_idle();
        assert_eq!(sim.stats.drops_for_reason(DropReason::NoRoute).pkts, 1);
        sim.stats.check_conservation().unwrap();
    }

    fn demand(src: NodeId, dst: NodeId) -> FluidDemand {
        FluidDemand {
            src: Addr::new(src, 1),
            dst: Addr::new(dst, 1),
            proto: Proto::Udp,
            class: TrafficClass::Background,
            rate_bps: 4e6,
            pkt_size: 500,
            until: SimTime::from_secs(1),
        }
    }

    /// So is a background demand: whichever engine carries it, all it
    /// sends dies unrouted at its source.
    #[test]
    fn demand_addressed_outside_the_topology_is_no_route_under_either_engine() {
        for fluid in [false, true] {
            let mut sim = Simulator::new(Topology::line(3), 1);
            if fluid {
                sim.enable_fluid(SimDuration::from_millis(50));
            }
            sim.add_background_demand(demand(NodeId(0), NodeId(9999)));
            sim.run_to_idle();
            let c = sim.stats.class(TrafficClass::Background);
            assert!(c.sent_pkts >= 990, "fluid {fluid}: sent {}", c.sent_pkts);
            let agg = sim.stats.drops_for_reason(DropReason::NoRoute);
            assert_eq!(agg.pkts, c.sent_pkts, "fluid {fluid}");
            assert_eq!(agg.hops_sum, 0, "fluid {fluid}");
            sim.stats.check_conservation().unwrap();
        }
    }

    /// A demand nothing could emit is refused where it is made, not at its
    /// first packet.
    #[test]
    #[should_panic(
        expected = "background demand 9999.1 -> 0.1: source outside the 3-node topology"
    )]
    fn demand_from_outside_the_topology_is_refused() {
        let mut sim = Simulator::new(Topology::line(3), 1);
        sim.add_background_demand(demand(NodeId(9999), NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "cannot packetize node 3: outside the 3-node topology")]
    fn packetizing_outside_the_topology_is_refused() {
        let mut sim = Simulator::new(Topology::line(3), 1);
        sim.enable_fluid(SimDuration::from_millis(50));
        sim.fluid_packetize(NodeId(3));
    }

    /// Agent dropping everything of a given protocol.
    struct ProtoBlock(Proto);
    impl NodeAgent for ProtoBlock {
        fn name(&self) -> &'static str {
            "proto-block"
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

    #[test]
    fn agent_can_drop() {
        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 1);
        sim.add_agent(NodeId(1), Box::new(ProtoBlock(Proto::Udp)));
        let dst = Addr::new(NodeId(2), 1);
        sim.install_app(dst, Box::new(SinkAppProbe));
        sim.emit_now(NodeId(0), udp(Addr::new(NodeId(0), 1), dst));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.drops_for_reason(DropReason::DeviceFilter).pkts, 1);
        assert_eq!(sim.stats.class(TrafficClass::Background).delivered_pkts, 0);
    }

    /// App replying to every packet (reflector shape).
    struct Echo;
    impl App for Echo {
        fn on_packet(&mut self, api: &mut AppApi<'_>, pkt: &Packet) -> Disposition {
            let reply = PacketBuilder::new(
                api.self_addr,
                pkt.src,
                Proto::IcmpEchoReply,
                TrafficClass::Background,
            )
            .size(pkt.size);
            api.send(reply);
            Disposition::Consumed
        }
    }

    #[test]
    fn request_reply_roundtrip() {
        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 1);
        let client = Addr::new(NodeId(0), 1);
        let server = Addr::new(NodeId(2), 1);
        let count = Arc::new(AtomicU64::new(0));
        sim.install_app(client, Box::new(Counter(count.clone())));
        sim.install_app(server, Box::new(Echo));
        sim.emit_now(NodeId(0), udp(client, server));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(count.load(AtomicOrdering::Relaxed), 1, "reply came back");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let topo = Topology::barabasi_albert(60, 2, 0.1, 5);
            let mut sim = Simulator::new(topo, 99);
            let dst = Addr::new(NodeId(10), 1);
            sim.install_app(dst, Box::new(SinkAppProbe));
            for i in 0..50 {
                let src_node = NodeId(i % 60);
                sim.emit_now(src_node, udp(Addr::new(src_node, 1), dst).flow(i as u64));
            }
            sim.run_until(SimTime::from_secs(2));
            (
                sim.stats.class(TrafficClass::Background).delivered_pkts,
                sim.stats.events,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scheduled_call_runs_at_time() {
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 1);
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = flag.clone();
        sim.schedule(SimTime::from_millis(500), move |sim| {
            f2.store(sim.now().as_nanos(), AtomicOrdering::Relaxed);
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            flag.load(AtomicOrdering::Relaxed),
            SimTime::from_millis(500).as_nanos()
        );
    }

    /// Regression for the past-event hazard: a callback scheduling another
    /// event dated before `now` must not rewind the clock (release builds
    /// used to process it at its stale timestamp); the event runs at the
    /// current instant and the clamp is counted.
    #[test]
    fn past_dated_event_is_clamped_not_rewound() {
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 1);
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        sim.schedule(SimTime::from_millis(500), move |sim| {
            let s3 = s2.clone();
            // Dated 499 ms in the past relative to the running clock.
            sim.schedule(SimTime::from_millis(1), move |sim| {
                s3.store(sim.now().as_nanos(), AtomicOrdering::Relaxed);
            });
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            seen.load(AtomicOrdering::Relaxed),
            SimTime::from_millis(500).as_nanos(),
            "past-dated event must execute at the clamped (current) time"
        );
        assert_eq!(sim.stats.past_events_clamped, 1);
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    /// App that is always out of capacity.
    struct Swamped;
    impl App for Swamped {
        fn on_packet(&mut self, _api: &mut AppApi<'_>, _pkt: &Packet) -> Disposition {
            Disposition::Overloaded
        }
    }

    /// Agent counting the tail drops it is shown.
    struct DropWatch(Arc<AtomicU64>);
    impl NodeAgent for DropWatch {
        fn name(&self) -> &'static str {
            "drop-watch"
        }
        fn on_link_drop(&mut self, _ctx: &mut AgentCtx<'_>, _link: LinkId, _pkt: &Packet) {
            self.0.fetch_add(1, AtomicOrdering::Relaxed);
        }
    }

    /// Every terminal packet path must release its arena slot: after a
    /// workload with deliveries, agent drops, TTL expiries and no-route
    /// drops has fully drained, no packet may remain live. Then each drop
    /// reason the engine can decide is driven alone through a fully traced
    /// run: the one packet ending must leave exactly one terminal trace
    /// event, one drop under that reason, balanced books and an empty arena.
    #[test]
    fn arena_drains_to_zero_live_packets() {
        let mut topo = Topology::line(6);
        let lonely = topo.add_node(crate::node::NodeRole::Stub);
        let mut sim = Simulator::new(topo, 7);
        sim.add_agent(NodeId(2), Box::new(ProtoBlock(Proto::TcpSyn)));
        let dst = Addr::new(NodeId(5), 1);
        sim.install_app(dst, Box::new(SinkAppProbe));
        for i in 0..40u64 {
            let src = Addr::new(NodeId((i % 5) as usize), 1);
            // Mix delivered, filtered, TTL-expired and unroutable packets.
            let b = match i % 4 {
                0 => udp(src, dst),
                1 => PacketBuilder::new(src, dst, Proto::TcpSyn, TrafficClass::Background),
                2 => udp(src, dst).ttl(2),
                _ => udp(src, Addr::new(lonely, 1)),
            };
            sim.emit_now(src.node(), b.flow(i));
        }
        sim.run_to_idle();
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.arena.live(), 0, "leaked in-flight packet slots");
        sim.stats.check_conservation().unwrap();

        let src = Addr::new(NodeId(0), 1);
        let dst = Addr::new(NodeId(2), 1);
        let line = || Topology::line(3);
        ends_once(DropReason::DeviceFilter, Some("proto-block"), line(), |s| {
            s.add_agent(NodeId(1), Box::new(ProtoBlock(Proto::Udp)));
            vec![udp(src, dst)]
        });
        ends_once(DropReason::HostOverload, Some("host"), line(), |s| {
            s.install_app(dst, Box::new(Swamped));
            vec![udp(src, dst)]
        });
        ends_once(DropReason::NoListener, Some("engine"), line(), |_| {
            vec![udp(src, dst)]
        });
        ends_once(DropReason::TtlExpired, Some("engine"), line(), |_| {
            vec![udp(src, dst).ttl(2)]
        });
        let mut split = Topology::line(2);
        let lonely = split.add_node(crate::node::NodeRole::Stub);
        ends_once(DropReason::NoRoute, Some("engine"), split, |_| {
            vec![udp(src, Addr::new(lonely, 1))]
        });
        // A 1000 B/s link holding one 100-byte packet: the second of a
        // back-to-back pair overflows it, and the chain's link-drop hook
        // is shown exactly that one.
        let mut narrow = Topology::line(1);
        let far = Addr::new(narrow.add_node(crate::node::NodeRole::Stub), 1);
        let pipe = crate::link::LinkProfile {
            bandwidth_bps: 8e3,
            latency: SimDuration::from_millis(1),
            queue_limit_bytes: 150,
        };
        narrow.connect(NodeId(0), far.node(), pipe);
        let link_drops_seen = Arc::new(AtomicU64::new(0));
        ends_once(DropReason::QueueOverflow, None, narrow, |s| {
            s.add_agent(NodeId(0), Box::new(DropWatch(link_drops_seen.clone())));
            s.install_app(far, Box::new(SinkAppProbe));
            vec![udp(src, far), udp(src, far)]
        });
        assert_eq!(link_drops_seen.load(AtomicOrdering::Relaxed), 1);
    }

    /// Drive one scenario — `prepare` sets it up and names the packets to
    /// emit at node 0 — through a fully traced run in which exactly one
    /// packet must be dropped, for `reason`: its ending leaves one terminal
    /// trace event (a `ModuleVerdict` by `module`, or the link's `LinkDrop`
    /// for `None`), one drop under that reason, balanced books and an empty
    /// arena.
    fn ends_once(
        reason: DropReason,
        module: Option<&str>,
        topo: Topology,
        prepare: impl FnOnce(&mut Simulator) -> Vec<PacketBuilder>,
    ) {
        let mut sim = Simulator::new(topo, 7);
        let rec = Arc::new(Mutex::new(FlightRecorder::new(64)));
        sim.set_trace_sink(Box::new(rec.clone()), 1);
        let pkts = prepare(&mut sim);
        let sent = pkts.len() as u64;
        for b in pkts {
            sim.emit_now(NodeId(0), b);
        }
        sim.run_to_idle();
        let rec = rec.lock().unwrap();
        let endings: Vec<&TraceEvent> =
            rec.events().filter(|e| e.drop_bucket().is_some()).collect();
        assert_eq!(endings.len(), 1, "{reason:?}: one terminal drop event");
        assert_eq!(
            endings[0].drop_bucket(),
            Some((TrafficClass::Background, reason))
        );
        match (endings[0], module) {
            (TraceEvent::ModuleVerdict { module: got, .. }, Some(want)) => {
                assert_eq!(*got, want, "{reason:?}")
            }
            (TraceEvent::LinkDrop { .. }, None) => {}
            (other, _) => panic!("{reason:?}: wrong terminal event {other:?}"),
        }
        assert_eq!(sim.stats.drops_for_reason(reason).pkts, 1, "{reason:?}");
        let c = sim.stats.class(TrafficClass::Background);
        assert_eq!((c.sent_pkts, c.dropped_pkts), (sent, 1), "{reason:?}");
        sim.stats.check_conservation().unwrap();
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.arena.live(), 0, "{reason:?}: leaked packet slot");
    }

    /// Scheduled callbacks spread across several timing-wheel levels (1 ns
    /// to tens of minutes) must fire in exact chronological order.
    #[test]
    fn events_across_cascade_levels_fire_in_order() {
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 1);
        let order = Rc::new(std::cell::RefCell::new(Vec::new()));
        // Times straddling level boundaries of the 64-slot wheel.
        let times: Vec<u64> = vec![
            1,
            63,
            64,
            65,
            4_095,
            4_096,
            262_143,
            262_144,
            1 << 30,
            (1 << 36) + 17,
        ];
        // Schedule in scrambled order to exercise placement at all levels.
        for &t in times.iter().rev() {
            let o = order.clone();
            sim.schedule(SimTime::from_nanos(t), move |sim| {
                o.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run_to_idle();
        assert_eq!(*order.borrow(), times);
    }

    /// Every pending event holds one `EventKind` in the wheel's slab, and
    /// `ControlDeliver` is its widest arm: a field added to `ControlMsg`
    /// is paid per queued event of every kind.
    #[test]
    fn event_payload_fits_a_cache_line() {
        assert!(std::mem::size_of::<EventKind>() <= 64);
    }

    /// Agent timer behaviour.
    struct TickAgent {
        ticks: u64,
    }
    impl NodeAgent for TickAgent {
        fn name(&self) -> &'static str {
            "tick"
        }
        fn on_packet(
            &mut self,
            ctx: &mut AgentCtx<'_>,
            _pkt: &mut Packet,
            _from: Option<LinkId>,
        ) -> Verdict {
            ctx.set_timer(SimDuration::from_millis(10), 7);
            Verdict::Forward
        }
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>, token: u64) {
            assert_eq!(token, 7);
            self.ticks += 1;
        }
    }

    #[test]
    fn agent_timers_fire() {
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 1);
        sim.add_agent(NodeId(0), Box::new(TickAgent { ticks: 0 }));
        sim.emit_now(
            NodeId(0),
            udp(Addr::new(NodeId(0), 1), Addr::new(NodeId(1), 1)),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent::<TickAgent>(NodeId(0)).unwrap().ticks, 1);
    }

    /// Scripted by timer tokens: `ARM` sets a timer 10 ms out (token
    /// `FIRED`), `CANCEL` cancels the first one it set, `ARM_AND_CANCEL`
    /// sets one and cancels it in the same callback. Records the ms
    /// `FIRED` fired at; with `rearm_once` its first firing sets another.
    struct CancelAgent {
        held: Vec<TimerId>,
        rearm_once: bool,
        fired: Vec<u64>,
    }
    const ARM: u64 = 1;
    const CANCEL: u64 = 2;
    const ARM_AND_CANCEL: u64 = 3;
    const FIRED: u64 = 4;
    impl NodeAgent for CancelAgent {
        fn name(&self) -> &'static str {
            "cancel"
        }
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
            let arm = |ctx: &mut AgentCtx<'_>| ctx.set_timer(SimDuration::from_millis(10), FIRED);
            match token {
                ARM => self.held.push(arm(ctx)),
                CANCEL => ctx.cancel_timer(self.held[0]),
                ARM_AND_CANCEL => {
                    let id = arm(ctx);
                    ctx.cancel_timer(id);
                }
                _ => {
                    self.fired.push(ctx.now.as_nanos() / 1_000_000);
                    if std::mem::take(&mut self.rearm_once) {
                        self.held.push(arm(ctx));
                    }
                }
            }
        }
    }

    /// Run `script` (`(ms, token)`) on one `CancelAgent`; the ms `FIRED`
    /// fired at, and the events dispatched.
    fn cancel_script(rearm_once: bool, script: &[(u64, u64)]) -> (Vec<u64>, u64) {
        let mut sim = Simulator::new(Topology::line(1), 1);
        let agent = CancelAgent {
            held: Vec::new(),
            rearm_once,
            fired: Vec::new(),
        };
        let idx = sim.add_agent(NodeId(0), Box::new(agent));
        for &(ms, token) in script {
            sim.schedule_agent_timer(NodeId(0), idx, SimTime::from_millis(ms), token);
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.pending_events(), 0);
        let fired = sim.agent::<CancelAgent>(NodeId(0)).unwrap().fired.clone();
        (fired, sim.stats.events)
    }

    #[test]
    fn a_cancelled_agent_timer_never_fires() {
        assert_eq!(cancel_script(false, &[(0, ARM)]), (vec![10], 2));
        assert_eq!(cancel_script(false, &[(0, ARM), (5, CANCEL)]), (vec![], 2));
        assert_eq!(cancel_script(false, &[(0, ARM_AND_CANCEL)]), (vec![], 1));
        // A second cancel, and a cancel after the firing: no-ops.
        let twice = [(0, ARM), (5, CANCEL), (6, CANCEL)];
        assert_eq!(cancel_script(false, &twice), (vec![], 3));
        assert_eq!(
            cancel_script(false, &[(0, ARM), (20, CANCEL)]),
            (vec![10], 3)
        );
    }

    #[test]
    fn a_recycled_ticket_cannot_be_cancelled_through_an_old_timer_id() {
        // The first timer's firing releases its ticket and sets a second
        // timer, which takes that ticket over; cancelling through the
        // first timer's id at 15 ms must leave the second alone.
        let (fired, _) = cancel_script(true, &[(0, ARM), (15, CANCEL)]);
        assert_eq!(fired, [10, 20]);
    }

    fn cancel_agent() -> Box<CancelAgent> {
        Box::new(CancelAgent {
            held: Vec::new(),
            rearm_once: false,
            fired: vec![3],
        })
    }

    #[test]
    fn agent_finds_each_type_on_a_chain_and_none_of_another() {
        let mut sim = Simulator::new(Topology::line(2), 1);
        sim.add_agent(NodeId(0), Box::new(TickAgent { ticks: 5 }));
        sim.add_agent(NodeId(0), cancel_agent());
        assert_eq!(sim.agent::<TickAgent>(NodeId(0)).unwrap().ticks, 5);
        assert_eq!(sim.agent::<CancelAgent>(NodeId(0)).unwrap().fired, [3]);
        assert!(sim.agent::<DropWatch>(NodeId(0)).is_none(), "wrong type");
        assert!(sim.agent::<TickAgent>(NodeId(1)).is_none(), "empty chain");
        assert!(sim.agent_mut::<DropWatch>(NodeId(0)).is_none());
    }

    #[test]
    fn agent_of_a_node_past_the_topology_is_none() {
        let mut sim = Simulator::new(Topology::line(2), 1);
        assert!(sim.agent::<TickAgent>(NodeId(2)).is_none());
        assert!(sim.agent_mut::<TickAgent>(NodeId(usize::MAX)).is_none());
    }

    #[test]
    fn app_of_another_type_is_none() {
        let mut sim = Simulator::new(Topology::line(2), 1);
        let at = Addr::new(NodeId(1), 1);
        sim.install_app(at, Box::new(SinkApp));
        assert!(sim.app::<SinkApp>(at).is_some());
        assert!(sim.app::<Counter>(at).is_none(), "wrong type");
        assert!(sim.app::<SinkApp>(Addr::new(NodeId(1), 2)).is_none());
        assert!(sim.app::<SinkApp>(Addr::new(NodeId(9), 1)).is_none());
    }

    #[test]
    fn a_change_through_agent_mut_reaches_the_next_callback() {
        // Armed at 0 and 20 ms, the timer fires at 10 and 30; the re-arm
        // switched on at 15 ms makes the 30 ms firing set one for 40.
        let mut sim = Simulator::new(Topology::line(1), 1);
        let idx = sim.add_agent(NodeId(0), cancel_agent());
        for ms in [0, 20] {
            sim.schedule_agent_timer(NodeId(0), idx, SimTime::from_millis(ms), ARM);
        }
        sim.schedule(SimTime::from_millis(15), |s| {
            s.agent_mut::<CancelAgent>(NodeId(0)).unwrap().rearm_once = true;
        });
        sim.run_until(SimTime::from_secs(1));
        let agent = sim.agent::<CancelAgent>(NodeId(0)).unwrap();
        assert_eq!(agent.fired, [3, 10, 30, 40]);
        assert!(!agent.rearm_once, "the 30 ms firing used it up");
    }

    #[test]
    #[should_panic(expected = "timer for agent 1 of node 2: the node's chain holds 1")]
    fn timer_for_an_agent_past_the_chain_is_refused() {
        let (mut sim, ..) = ctrl_probe_sim(None);
        sim.schedule_agent_timer(NodeId(2), 1, SimTime::from_millis(1), 0);
    }

    #[test]
    #[should_panic(expected = "timer for agent 0 of node 7: outside the 3-node topology")]
    fn timer_for_a_node_outside_the_topology_is_refused() {
        let (mut sim, ..) = ctrl_probe_sim(None);
        sim.schedule_agent_timer(NodeId(7), 0, SimTime::from_millis(1), 0);
    }

    #[test]
    #[should_panic(expected = "control message from node 5: outside the 3-node topology")]
    fn control_from_outside_the_topology_is_refused() {
        let (mut sim, ..) = ctrl_probe_sim(None);
        sim.deliver_control(SimTime::from_millis(1), NodeId(5), NodeId(0), 1u32);
    }

    #[test]
    #[should_panic(expected = "control message to node 3: outside the 3-node topology")]
    fn control_to_outside_the_topology_is_refused() {
        let (mut sim, ..) = ctrl_probe_sim(None);
        sim.deliver_control(SimTime::from_millis(1), NodeId(0), NodeId(3), 1u32);
    }

    use crate::trace::FlightRecorder;

    /// Shared mixed workload for trace tests: deliveries, agent drops and
    /// forwarding on a BA topology. Returns final stats + exported JSONL
    /// (empty string when tracing was off).
    fn traced_workload(seed: u64, one_in: Option<u64>) -> (Stats, String) {
        let topo = Topology::barabasi_albert(40, 2, 0.1, 5);
        let mut sim = Simulator::new(topo, seed);
        let rec = Arc::new(Mutex::new(FlightRecorder::new(1 << 16)));
        if let Some(n) = one_in {
            sim.set_trace_sink(Box::new(rec.clone()), n);
        }
        sim.add_agent(NodeId(1), Box::new(ProtoBlock(Proto::TcpSyn)));
        let dst = Addr::new(NodeId(1), 1);
        sim.install_app(dst, Box::new(SinkAppProbe));
        for i in 0..200u64 {
            let src = NodeId((i % 40) as usize);
            let b = if i % 5 == 0 {
                PacketBuilder::new(
                    Addr::new(src, 1),
                    dst,
                    Proto::TcpSyn,
                    TrafficClass::AttackDirect,
                )
                .flow(i)
            } else {
                udp(Addr::new(src, 1), dst).flow(i)
            };
            sim.emit_now(src, b);
        }
        sim.run_to_idle();
        let jsonl = rec.lock().unwrap().export_jsonl_string();
        (sim.stats.clone(), jsonl)
    }

    #[test]
    fn trace_jsonl_is_byte_identical_across_runs() {
        let (_, a) = traced_workload(7, Some(1));
        let (_, b) = traced_workload(7, Some(1));
        assert!(!a.is_empty());
        assert_eq!(a, b, "fixed seed must reproduce the JSONL byte-for-byte");
        assert!(a.contains("\"kind\":\"emit\""));
        assert!(a.contains("\"kind\":\"link_admit\""));
        assert!(a.contains("\"kind\":\"deliver\""));
        assert!(a.contains("\"kind\":\"module_verdict\""));
        assert!(a.contains("\"module\":\"proto-block\""));
    }

    #[test]
    fn sampled_trace_is_subset_of_full() {
        let (_, full) = traced_workload(7, Some(1));
        let (_, sampled) = traced_workload(7, Some(4));
        let full_lines: std::collections::HashSet<&str> = full.lines().collect();
        let sampled_lines: Vec<&str> = sampled.lines().collect();
        assert!(!sampled_lines.is_empty());
        assert!(sampled_lines.len() < full.lines().count());
        for line in sampled_lines {
            assert!(
                full_lines.contains(line),
                "sampled event missing from full trace: {line}"
            );
        }
    }

    #[test]
    fn tracing_is_observation_only() {
        let (off, _) = traced_workload(7, None);
        let (on, _) = traced_workload(7, Some(1));
        assert_eq!(off.events, on.events, "tracing must not add events");
        for &c in TrafficClass::ALL {
            assert_eq!(off.class(c).sent_pkts, on.class(c).sent_pkts);
            assert_eq!(off.class(c).delivered_pkts, on.class(c).delivered_pkts);
            assert_eq!(off.class(c).dropped_pkts, on.class(c).dropped_pkts);
        }
    }

    #[test]
    fn full_trace_reconciles_with_stats() {
        let (stats, jsonl) = traced_workload(11, Some(1));
        let delivered: u64 = jsonl
            .lines()
            .filter(|l| l.contains("\"kind\":\"deliver\""))
            .count() as u64;
        let total_delivered: u64 = stats.per_class.iter().map(|c| c.delivered_pkts).sum();
        assert_eq!(delivered, total_delivered);
        let emitted: u64 = jsonl
            .lines()
            .filter(|l| l.contains("\"kind\":\"emit\""))
            .count() as u64;
        let total_sent: u64 = stats.per_class.iter().map(|c| c.sent_pkts).sum();
        assert_eq!(emitted, total_sent);
        let dropped_events: u64 = jsonl
            .lines()
            .filter(|l| {
                l.contains("\"kind\":\"link_drop\"") || l.contains("\"kind\":\"module_verdict\"")
            })
            .count() as u64;
        let total_dropped: u64 = stats.per_class.iter().map(|c| c.dropped_pkts).sum();
        assert_eq!(dropped_events, total_dropped);
    }

    /// Agent staging trace detail for its verdicts.
    struct DetailBlock;
    impl NodeAgent for DetailBlock {
        fn name(&self) -> &'static str {
            "detail-block"
        }
        fn on_packet(
            &mut self,
            ctx: &mut AgentCtx<'_>,
            pkt: &mut Packet,
            _from: Option<LinkId>,
        ) -> Verdict {
            if ctx.trace_wants(pkt) {
                ctx.trace_verdict_detail("stage=udp");
            }
            if pkt.proto == Proto::Udp {
                Verdict::Drop(DropReason::DeviceFilter)
            } else {
                Verdict::Forward
            }
        }
    }

    #[test]
    fn verdict_detail_attaches_and_does_not_leak() {
        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 1);
        let rec = Arc::new(Mutex::new(FlightRecorder::new(64)));
        sim.set_trace_sink(Box::new(rec.clone()), 1);
        sim.add_agent(NodeId(1), Box::new(DetailBlock));
        sim.add_agent(NodeId(1), Box::new(ProtoBlock(Proto::TcpSyn)));
        let dst = Addr::new(NodeId(2), 1);
        sim.install_app(dst, Box::new(SinkAppProbe));
        // Udp: dropped by detail-block, with detail.
        sim.emit_now(NodeId(0), udp(Addr::new(NodeId(0), 1), dst));
        // TcpSyn: detail-block stages then forwards; proto-block drops.
        // The staged detail must have been discarded in between.
        sim.emit_now(
            NodeId(0),
            PacketBuilder::new(
                Addr::new(NodeId(0), 1),
                dst,
                Proto::TcpSyn,
                TrafficClass::Background,
            ),
        );
        sim.run_to_idle();
        let jsonl = rec.lock().unwrap().export_jsonl_string();
        let verdicts: Vec<&str> = jsonl
            .lines()
            .filter(|l| l.contains("\"kind\":\"module_verdict\""))
            .collect();
        assert_eq!(verdicts.len(), 2);
        let detail_line = verdicts
            .iter()
            .find(|l| l.contains("\"module\":\"detail-block\""))
            .unwrap();
        assert!(detail_line.contains("\"detail\":\"stage=udp\""));
        let plain_line = verdicts
            .iter()
            .find(|l| l.contains("\"module\":\"proto-block\""))
            .unwrap();
        assert!(
            !plain_line.contains("\"detail\""),
            "stale staged detail leaked onto a later verdict: {plain_line}"
        );
    }

    /// Counts control deliveries and crashes; resends nothing.
    struct CtrlProbe {
        delivered: Arc<AtomicU64>,
        crashes: Arc<AtomicU64>,
    }
    impl NodeAgent for CtrlProbe {
        fn name(&self) -> &'static str {
            "ctrl-probe"
        }
        fn on_control(&mut self, _ctx: &mut AgentCtx<'_>, msg: &ControlMsg) {
            if msg.get::<u32>().is_some() {
                self.delivered.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
        fn on_crash(&mut self, _ctx: &mut AgentCtx<'_>) {
            self.crashes.fetch_add(1, AtomicOrdering::Relaxed);
        }
    }

    fn ctrl_probe_sim(
        plane: Option<crate::faults::FaultPlane>,
    ) -> (Simulator, Arc<AtomicU64>, Arc<AtomicU64>) {
        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 1);
        let delivered = Arc::new(AtomicU64::new(0));
        let crashes = Arc::new(AtomicU64::new(0));
        sim.add_agent(
            NodeId(2),
            Box::new(CtrlProbe {
                delivered: delivered.clone(),
                crashes: crashes.clone(),
            }),
        );
        if let Some(p) = plane {
            sim.install_fault_plane(p);
        }
        for i in 0..200u64 {
            sim.deliver_control(SimTime::from_millis(i), NodeId(0), NodeId(2), 7u32);
        }
        (sim, delivered, crashes)
    }

    #[test]
    fn fault_plane_drops_and_duplicates_deterministically() {
        use crate::faults::{FaultConfig, FaultPlane};
        let cfg = FaultConfig {
            seed: 42,
            drop_prob: 0.25,
            dup_prob: 0.25,
            jitter_max: SimDuration::from_millis(3),
            ..FaultConfig::default()
        };
        let run = || {
            let (mut sim, delivered, _) = ctrl_probe_sim(Some(FaultPlane::new(cfg.clone())));
            sim.run_until(SimTime::from_secs(1));
            (
                delivered.load(AtomicOrdering::Relaxed),
                sim.stats.cp_fault_dropped,
                sim.stats.cp_fault_duplicated,
                sim.stats.cp_fault_jittered,
            )
        };
        let (d1, drop1, dup1, jit1) = run();
        let (d2, drop2, dup2, jit2) = run();
        assert_eq!((d1, drop1, dup1, jit1), (d2, drop2, dup2, jit2));
        assert!(drop1 > 0 && dup1 > 0 && jit1 > 0, "faults exercised");
        // Channel conservation: every push is delivered, dropped, or
        // delivered twice.
        assert_eq!(d1, 200 - drop1 + dup1);
    }

    #[test]
    fn disabled_fault_plane_changes_nothing() {
        let (mut sim, delivered, _) = ctrl_probe_sim(None);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(delivered.load(AtomicOrdering::Relaxed), 200);
        assert_eq!(sim.stats.cp_msgs, 200);
        assert_eq!(sim.stats.cp_fault_dropped, 0);
        assert_eq!(sim.stats.cp_outage_dropped, 0);
    }

    #[test]
    fn outage_window_swallows_messages_and_crash_fires() {
        use crate::faults::{FaultConfig, FaultPlane, Outage};
        let plane = FaultPlane::new(FaultConfig {
            outages: vec![Outage {
                node: NodeId(2),
                from: SimTime::from_millis(50),
                until: SimTime::from_millis(100),
                crash: true,
            }],
            ..FaultConfig::default()
        });
        let (mut sim, delivered, crashes) = ctrl_probe_sim(Some(plane));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(crashes.load(AtomicOrdering::Relaxed), 1);
        assert_eq!(sim.stats.node_crashes, 1);
        // Sends at t ∈ [50ms, 100ms) vanish: 50 of the 200.
        assert_eq!(sim.stats.cp_outage_dropped, 50);
        assert_eq!(delivered.load(AtomicOrdering::Relaxed), 150);
    }

    /// A window naming a node the topology does not have is refused when
    /// the plane is installed, not when its crash comes due mid-run.
    #[test]
    #[should_panic(expected = "outage window 1 names node 3, outside the 3-node topology")]
    fn outage_outside_the_topology_is_refused_at_install() {
        use crate::faults::{FaultConfig, FaultPlane, Outage};
        let window = |node| Outage {
            node: NodeId(node),
            from: SimTime::from_millis(50),
            until: SimTime::from_millis(100),
            crash: true,
        };
        ctrl_probe_sim(Some(FaultPlane::new(FaultConfig {
            outages: vec![window(2), window(3)],
            ..FaultConfig::default()
        })));
    }

    #[test]
    #[should_panic(expected = "partition window 0 names node 9, outside the 3-node topology")]
    fn partition_outside_the_topology_is_refused_at_install() {
        use crate::faults::{FaultConfig, FaultPlane, Partition};
        ctrl_probe_sim(Some(FaultPlane::new(FaultConfig {
            partitions: vec![Partition {
                src: vec![NodeId(0)],
                dst: vec![NodeId(2), NodeId(9)],
                from: SimTime::ZERO,
                until: SimTime::from_secs(1),
            }],
            ..FaultConfig::default()
        })));
    }

    /// Full control-plane trace over a faulty channel: byte-identical
    /// across runs, one verdict per send, and event counts reconciling
    /// exactly with the engine's `cp_*` counters.
    #[test]
    fn cp_trace_pairs_every_send_with_a_verdict() {
        use crate::cp_trace::CpFlightRecorder;
        use crate::faults::{FaultConfig, FaultPlane, Outage};
        let run = || {
            let plane = FaultPlane::new(FaultConfig {
                seed: 42,
                drop_prob: 0.2,
                dup_prob: 0.2,
                jitter_max: SimDuration::from_millis(3),
                outages: vec![Outage {
                    node: NodeId(2),
                    from: SimTime::from_millis(50),
                    until: SimTime::from_millis(100),
                    crash: true,
                }],
                partitions: Vec::new(),
            });
            let topo = Topology::line(3);
            let mut sim = Simulator::new(topo, 1);
            let rec = Arc::new(Mutex::new(CpFlightRecorder::new(1 << 12)));
            sim.set_cp_trace_sink(Box::new(rec.clone()), 1);
            let delivered = Arc::new(AtomicU64::new(0));
            sim.add_agent(
                NodeId(2),
                Box::new(CtrlProbe {
                    delivered,
                    crashes: Arc::new(AtomicU64::new(0)),
                }),
            );
            sim.install_fault_plane(plane);
            for i in 0..200u64 {
                sim.deliver_control(SimTime::from_millis(i), NodeId(0), NodeId(2), 7u32);
            }
            sim.run_until(SimTime::from_secs(1));
            let jsonl = rec.lock().unwrap().export_jsonl_string();
            (sim.stats.clone(), jsonl)
        };
        let (stats, a) = run();
        let (_, b) = run();
        assert_eq!(a, b, "fixed seed must reproduce the JSONL byte-for-byte");
        let count = |needle: &str| a.lines().filter(|l| l.contains(needle)).count() as u64;
        assert_eq!(count("\"kind\":\"send\""), stats.cp_msgs);
        assert_eq!(count("\"kind\":\"verdict\""), stats.cp_msgs);
        assert_eq!(count("\"kind\":\"crash\""), stats.node_crashes);
        assert_eq!(count("\"outcome\":\"drop\""), stats.cp_fault_dropped);
        assert_eq!(count("\"outcome\":\"outage\""), stats.cp_outage_dropped);
        assert_eq!(count("\"dup_extra\":"), stats.cp_fault_duplicated);
        // Scheduled crashes carry their outage-window index.
        assert!(a.contains("\"kind\":\"crash\",\"node\":2,\"window\":0"));
    }

    /// Control tracing must not change what the simulation does.
    #[test]
    fn cp_tracing_is_observation_only() {
        use crate::cp_trace::CpFlightRecorder;
        use crate::faults::{FaultConfig, FaultPlane};
        let run = |trace: bool| {
            let plane = FaultPlane::new(FaultConfig {
                seed: 9,
                drop_prob: 0.25,
                dup_prob: 0.25,
                jitter_max: SimDuration::from_millis(3),
                ..FaultConfig::default()
            });
            let (mut sim, delivered, _) = ctrl_probe_sim(Some(plane));
            if trace {
                let rec = Arc::new(Mutex::new(CpFlightRecorder::new(1 << 12)));
                sim.set_cp_trace_sink(Box::new(rec), 1);
            }
            sim.run_until(SimTime::from_secs(1));
            (sim.stats.events, delivered.load(AtomicOrdering::Relaxed))
        };
        assert_eq!(run(false), run(true));
    }
}
