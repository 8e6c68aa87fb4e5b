//! The adaptive traffic-processing device (Figs. 2 and 6).
//!
//! Attached beside a router as a [`NodeAgent`], the device redirects to
//! itself exactly the traffic whose source or destination address is
//! registered to a network user, and runs that user's verified service
//! graphs over it: the *first processing stage* on behalf of the source
//! owner, the *second* on behalf of the destination owner (Sec. 4.1's
//! control handover). Everything else takes "the direct path through the
//! router" — a longest-prefix-match miss and no further cost.
//!
//! Runtime safety (Sec. 4.5) on top of the deployment-time verifier:
//!
//! * modules get a shrink-only [`PacketView`] — headers are untouchable by
//!   construction;
//! * the device emits no data-plane packets at all, so the packet rate
//!   cannot increase;
//! * telemetry (trigger events, log notices) is charged against a byte
//!   budget proportional to processed traffic (footnote 1 of the paper);
//!   events beyond the budget are suppressed and counted.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dtcs_netsim::{
    AgentCtx, CancelTimer, ControlMsg, CpActor, CpMeta, CpState, CpTraceEvent, DropReason, LinkId,
    NodeAgent, NodeId, Packet, Prefix, RouteOracle, SimTime, TimerId, Verdict,
};

use crate::graph::ServiceGraph;
use crate::modules::ModuleAction;
use crate::owner::{OwnerId, OwnerTable};
use crate::safety::{SafetyVerifier, SafetyViolation};
use crate::spec::{ServiceSpec, Stage};
use crate::support::LogEntry;
use crate::view::{DeviceContext, DeviceEvent, PacketView};

/// Bytes charged per telemetry event (event header + digest payload).
const EVENT_BYTES: u64 = 64;

/// Agent-timer token for the lease reaper. The device is the only timer
/// user on its node, so a single low token suffices: each finite lease
/// installed over the control plane has one timer at its `lease_until`,
/// cancelled when a renewal moves the lease or the slot goes, so every
/// one that fires reaps.
const TOKEN_LEASE: u64 = 1;

/// Management command accepted by a device (sent by its ISP's network
/// management system, or directly in tests).
#[derive(Clone, Debug)]
pub enum DeviceCommand {
    /// Register an owner's prefix with a telemetry contact node.
    RegisterOwner {
        /// The owner.
        owner: OwnerId,
        /// Prefixes the owner controls.
        prefixes: Vec<Prefix>,
        /// Node that receives this owner's telemetry.
        contact: NodeId,
    },
    /// Remove an owner's prefixes and services.
    UnregisterOwner {
        /// The owner.
        owner: OwnerId,
    },
    /// Install (verify + instantiate) a service graph. Idempotent on
    /// (owner, stage, [`ServiceSpec::content_hash`]): re-installing a
    /// byte-identical spec acks without touching the running graph, so
    /// control-plane retransmits cannot reset runtime state — but the
    /// lease is refreshed either way, which is how renewals work. The
    /// hash was computed once at the spec's construction, so recognising
    /// a renewal reads a field of the shared spec the command carries.
    InstallService {
        /// Owning user.
        owner: OwnerId,
        /// Source- or destination-side stage.
        stage: Stage,
        /// The graph description.
        spec: ServiceSpec,
        /// Management transaction this install belongs to; echoed in the
        /// reply so the NMS can attribute acks under retries (0 = none).
        txn: u64,
        /// Authority horizon: the device autonomously uninstalls this
        /// slot's services at this instant unless a later install pushes
        /// it forward ([`SimTime::MAX`] = no lease, never expires).
        /// Installed over the control plane the expiry is wheel-scheduled;
        /// via [`AdaptiveDevice::apply`] no timer exists, so setup code
        /// should pass [`SimTime::MAX`].
        lease_until: SimTime,
    },
    /// Remove a service graph. Idempotent: removing an absent slot still
    /// acks with [`DeviceReply::RemoveOk`], so withdrawal retransmits and
    /// lease reaps cannot wedge the owner's teardown.
    RemoveService {
        /// Owning user.
        owner: OwnerId,
        /// Which stage.
        stage: Stage,
        /// Management transaction this removal belongs to; echoed in the
        /// reply (0 = none).
        txn: u64,
    },
    /// Activate or deactivate an installed service.
    SetServiceActive {
        /// Owning user.
        owner: OwnerId,
        /// Which stage.
        stage: Stage,
        /// Desired activation state.
        active: bool,
    },
    /// Flip one module's enable bit inside a service graph.
    SetModuleEnabled {
        /// Owning user.
        owner: OwnerId,
        /// Which stage.
        stage: Stage,
        /// Module index in the graph.
        module: usize,
        /// Desired state.
        enabled: bool,
    },
    /// Traceback support: ask whether a packet digest was seen in a window.
    QueryDigest {
        /// Owner whose backlog to consult.
        owner: OwnerId,
        /// Packet digest.
        digest: u64,
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
        /// Node to send the [`DeviceReply::DigestAnswer`] to.
        reply_to: NodeId,
    },
    /// Collect a service's buffered log entries.
    ReadLog {
        /// Owning user.
        owner: OwnerId,
        /// Which stage.
        stage: Stage,
        /// Node to send the [`DeviceReply::LogData`] to.
        reply_to: NodeId,
    },
    /// Reconciliation support: report every installed service as
    /// `(owner, stage, spec hash)` so the NMS anti-entropy sweep can
    /// detect state lost to a crash.
    QueryInventory {
        /// Node to send the [`DeviceReply::Inventory`] to.
        reply_to: NodeId,
    },
}

/// The NMS's provisioning of an owner in one message: the
/// [`DeviceCommand::RegisterOwner`] applied, then the
/// [`DeviceCommand::InstallService`] it precedes, which alone is answered.
/// The paper's two provisioning steps, sent together on every install and
/// lease renewal, so a renewal is one delivery and its reply.
#[derive(Clone, Debug)]
pub struct Provision {
    /// The owner's registration, shared by every send of one deployment.
    pub register: Arc<DeviceCommand>,
    /// The install.
    pub install: DeviceCommand,
}

/// Replies a device sends back over the control plane.
#[derive(Clone, Debug)]
pub enum DeviceReply {
    /// Service installed successfully.
    InstallOk {
        /// Device node.
        node: NodeId,
        /// Owner.
        owner: OwnerId,
        /// Stage.
        stage: Stage,
        /// Echo of the install command's transaction id.
        txn: u64,
    },
    /// Safety verifier rejected the spec.
    InstallRejected {
        /// Device node.
        node: NodeId,
        /// Owner.
        owner: OwnerId,
        /// Stage.
        stage: Stage,
        /// Why.
        violation: SafetyViolation,
        /// Echo of the install command's transaction id.
        txn: u64,
    },
    /// Answer to a [`DeviceCommand::QueryDigest`].
    DigestAnswer {
        /// Device node.
        node: NodeId,
        /// Queried digest.
        digest: u64,
        /// `Some(true)`: seen; `Some(false)`: not seen; `None`: no backlog.
        hit: Option<bool>,
    },
    /// Answer to a [`DeviceCommand::ReadLog`].
    LogData {
        /// Device node.
        node: NodeId,
        /// Owner.
        owner: OwnerId,
        /// Collected entries.
        entries: Vec<LogEntry>,
    },
    /// Answer to a [`DeviceCommand::QueryInventory`]: everything
    /// currently installed, as reconciliation keys.
    Inventory {
        /// Device node.
        node: NodeId,
        /// One entry per installed service graph.
        installed: Vec<(OwnerId, Stage, u64)>,
    },
    /// Service slot removed (or already absent) after a
    /// [`DeviceCommand::RemoveService`].
    RemoveOk {
        /// Device node.
        node: NodeId,
        /// Owner.
        owner: OwnerId,
        /// Stage.
        stage: Stage,
        /// Echo of the remove command's transaction id.
        txn: u64,
    },
}

impl DeviceReply {
    /// Stable message-kind id for the control-plane flight recorder
    /// ([`dtcs_netsim::CpMeta::kind`]). Continues the `control` crate's
    /// `CpMsg::kind_id` numbering (1–9) and its device-command ids (11–12;
    /// 10 stays unused, the owner registration riding inside the install's
    /// [`Provision`]): 13 = InstallOk, 14 = InstallRejected, 15 =
    /// Inventory, 16 = other device replies, 22 = RemoveOk (17–21 are
    /// `control` crate withdrawal messages and the RemoveService command).
    pub fn kind_id(&self) -> u8 {
        match self {
            DeviceReply::InstallOk { .. } => 13,
            DeviceReply::InstallRejected { .. } => 14,
            DeviceReply::Inventory { .. } => 15,
            DeviceReply::DigestAnswer { .. } | DeviceReply::LogData { .. } => 16,
            DeviceReply::RemoveOk { .. } => 22,
        }
    }
}

/// Counters shared with the owning scenario via [`DeviceHandle`].
#[derive(Clone, Debug, Default)]
pub struct DeviceStats {
    /// All packets that transited this node while the device was attached.
    pub seen_pkts: u64,
    /// Packets redirected through at least one service graph.
    pub redirected_pkts: u64,
    /// Bytes redirected.
    pub redirected_bytes: u64,
    /// Drops by reason.
    pub dropped: HashMap<DropReason, u64>,
    /// Telemetry events emitted within budget.
    pub telemetry_events: u64,
    /// Telemetry bytes emitted.
    pub telemetry_bytes: u64,
    /// Telemetry events suppressed by the budget guard.
    pub suppressed_events: u64,
    /// Current primitive rule count across installed services.
    pub rule_count: usize,
    /// Install attempts rejected by the safety verifier.
    pub rejected_installs: u64,
    /// Installs acked without touching the running graph because the spec
    /// hash matched what is already installed (retransmit suppression).
    pub idempotent_installs: u64,
    /// Crash/reboot cycles this device went through (volatile state —
    /// owners, services, telemetry budget — was lost each time).
    pub crashes: u64,
    /// Service slots autonomously uninstalled because their lease ran out
    /// before any renewal arrived (orphan reaps).
    pub lease_reaps: u64,
    /// Instant of the most recent lease reap (None = never); scenarios
    /// use this to measure orphan-filter dwell time.
    pub last_reap_at: Option<SimTime>,
    /// Lease-reaper timers that fired with nothing due. A lease's own
    /// timer always finds it due, so only a timer scheduled from outside
    /// ([`dtcs_netsim::Simulator::schedule_agent_timer`]) counts here.
    pub idle_lease_timers: u64,
}

/// Shared read handle onto a running device's stats.
#[allow(clippy::disallowed_types)] // A ledger shim until ROADMAP item 1 ports its reader.
pub type DeviceHandle = Arc<dtcs_netsim::sync::Mutex<DeviceStats>>;

/// What one `(owner, stage)` holds.
struct Slot {
    /// Installed service graphs, a *list*: users compose several services
    /// (e.g. a firewall plus statistics) and they execute in installation
    /// order. Reinstalling a service with the same name replaces it in
    /// place.
    graphs: Vec<ServiceGraph>,
    /// Authority horizon: the slot is reaped when the clock passes this
    /// instant without a renewing install. `SimTime::MAX` = unleased
    /// (setup-time installs).
    lease_until: SimTime,
}

/// Every finite lease on a device, soonest first, with the timer that
/// reaps it (None for a lease installed through
/// [`AdaptiveDevice::apply`], which arms none).
type Expiries = BTreeMap<(SimTime, OwnerId, Stage), Option<TimerId>>;

impl Slot {
    fn rule_count(&self) -> usize {
        self.graphs.iter().map(|g| g.rule_count).sum()
    }

    /// Move the authority horizon of `owner`'s `stage` slot, keeping the
    /// device's expiry index in step: the old lease's timer goes to
    /// `timers` to cancel, and the new lease has none until
    /// [`AdaptiveDevice::arm_lease`].
    fn set_lease(
        &mut self,
        expiries: &mut Expiries,
        timers: &mut impl CancelTimer,
        (owner, stage): (OwnerId, Stage),
        until: SimTime,
    ) {
        let old = std::mem::replace(&mut self.lease_until, until);
        if old == until {
            return;
        }
        retire_lease(expiries, timers, (old, owner, stage));
        if until != SimTime::MAX {
            expiries.insert((until, owner, stage), None);
        }
    }
}

/// Drop a lease from the expiry index and cancel its timer; a no-op for
/// [`SimTime::MAX`] (unleased).
fn retire_lease(
    expiries: &mut Expiries,
    timers: &mut impl CancelTimer,
    lease: (SimTime, OwnerId, Stage),
) {
    if let Some(Some(timer)) = expiries.remove(&lease) {
        timers.cancel_timer(timer);
    }
}

/// The adaptive device agent.
pub struct AdaptiveDevice {
    ctx: DeviceContext,
    owners: OwnerTable,
    services: HashMap<(OwnerId, Stage), Slot>,
    /// Every finite `lease_until` in `services` and nothing else: the
    /// reaper pops what is due instead of scanning every slot, and a
    /// device whose installs are all unleased holds nothing here.
    /// [`Slot::set_lease`] and [`AdaptiveDevice::remove_slot`] keep it.
    expiries: Expiries,
    verifier: SafetyVerifier,
    /// Only this node's commands are accepted when set (the ISP NMS).
    manager: Option<NodeId>,
    stats: DeviceHandle,
    /// Telemetry bytes allowed per processed byte (footnote 1 allowance).
    telemetry_ratio: f64,
    /// Flat telemetry allowance so lightly-loaded devices can still notify.
    telemetry_floor: u64,
    processed_bytes: u64,
    events_buf: Vec<DeviceEvent>,
    /// Owns the source-address check behind the anti-spoofing modules'
    /// spoof verdict. Its route-consistency query is a walk of the live
    /// routing table: nothing is held per owner or per flow, and nothing
    /// goes stale across failure injection (see `dtcs_netsim::oracle`).
    oracle: RouteOracle,
}

impl AdaptiveDevice {
    /// Create a device for `node`. `manager` restricts who may reconfigure
    /// it (`None` accepts commands from any node — test use only).
    pub fn new(node: NodeId, manager: Option<NodeId>) -> (AdaptiveDevice, DeviceHandle) {
        let stats = DeviceHandle::default();
        let dev = AdaptiveDevice {
            ctx: DeviceContext { node },
            owners: OwnerTable::new(),
            services: HashMap::new(),
            expiries: BTreeMap::new(),
            verifier: SafetyVerifier::default(),
            manager,
            stats: stats.clone(),
            telemetry_ratio: 0.01,
            telemetry_floor: 64 * 1024,
            processed_bytes: 0,
            events_buf: Vec::new(),
            oracle: RouteOracle::new(node),
        };
        (dev, stats)
    }

    /// Configure the telemetry allowance (footnote 1 of the paper): at
    /// most `ratio` bytes of telemetry per processed data byte, plus a
    /// flat `floor` so lightly-loaded devices can still notify.
    pub fn set_telemetry_budget(&mut self, ratio: f64, floor: u64) {
        self.telemetry_ratio = ratio.clamp(0.0, 1.0);
        self.telemetry_floor = floor;
    }

    /// Direct (non-control-plane) command application, for scenario setup
    /// before the simulation starts.
    pub fn apply(&mut self, cmd: DeviceCommand) -> Option<DeviceReply> {
        self.handle_command(&cmd, &mut ())
    }

    /// Apply `cmd`; the timers of the leases it retires go to `timers`.
    fn handle_command(
        &mut self,
        cmd: &DeviceCommand,
        timers: &mut impl CancelTimer,
    ) -> Option<DeviceReply> {
        match *cmd {
            DeviceCommand::RegisterOwner {
                owner,
                ref prefixes,
                contact,
            } => {
                for &p in prefixes {
                    self.owners.register(p, owner, contact);
                }
                None
            }
            DeviceCommand::UnregisterOwner { owner } => {
                self.owners.unregister_owner(owner);
                self.remove_slot(timers, owner, Stage::Src);
                self.remove_slot(timers, owner, Stage::Dst);
                None
            }
            DeviceCommand::InstallService {
                owner,
                stage,
                ref spec,
                txn,
                lease_until,
            } => {
                // Idempotency short-circuit: a byte-identical spec is
                // already running — ack without re-instantiating, so a
                // retransmitted install cannot reset trigger/logger state.
                // The lease still moves forward: this path IS a renewal.
                let hash = spec.content_hash();
                let running = self.services.get_mut(&(owner, stage)).filter(|slot| {
                    let mut graphs = slot.graphs.iter();
                    graphs.any(|g| g.spec_hash() == hash && g.name() == spec.name())
                });
                if let Some(slot) = running {
                    slot.set_lease(&mut self.expiries, timers, (owner, stage), lease_until);
                    self.stats.lock().idempotent_installs += 1;
                    return Some(DeviceReply::InstallOk {
                        node: self.ctx.node,
                        owner,
                        stage,
                        txn,
                    });
                }
                let reply = match self.verifier.verify(spec) {
                    Ok(()) => {
                        // Most slots hold one service: room for one, not
                        // `Vec`'s first-push four.
                        let slot = self.services.entry((owner, stage)).or_insert_with(|| Slot {
                            graphs: Vec::with_capacity(1),
                            lease_until: SimTime::MAX,
                        });
                        let graph = ServiceGraph::from_spec(spec);
                        let mut delta = graph.rule_count as i64;
                        match slot.graphs.iter_mut().find(|g| g.name() == spec.name()) {
                            Some(running) => {
                                delta -= running.rule_count as i64; // changed spec: replace
                                *running = graph;
                            }
                            None => slot.graphs.push(graph),
                        }
                        slot.set_lease(&mut self.expiries, timers, (owner, stage), lease_until);
                        self.adjust_rule_count(delta);
                        DeviceReply::InstallOk {
                            node: self.ctx.node,
                            owner,
                            stage,
                            txn,
                        }
                    }
                    Err(violation) => {
                        self.stats.lock().rejected_installs += 1;
                        DeviceReply::InstallRejected {
                            node: self.ctx.node,
                            owner,
                            stage,
                            violation,
                            txn,
                        }
                    }
                };
                Some(reply)
            }
            DeviceCommand::RemoveService { owner, stage, txn } => {
                self.remove_slot(timers, owner, stage);
                Some(DeviceReply::RemoveOk {
                    node: self.ctx.node,
                    owner,
                    stage,
                    txn,
                })
            }
            DeviceCommand::SetServiceActive {
                owner,
                stage,
                active,
            } => {
                if let Some(slot) = self.services.get_mut(&(owner, stage)) {
                    for g in &mut slot.graphs {
                        g.active = active;
                    }
                }
                None
            }
            DeviceCommand::SetModuleEnabled {
                owner,
                stage,
                module,
                enabled,
            } => {
                if let Some(slot) = self.services.get_mut(&(owner, stage)) {
                    for g in &mut slot.graphs {
                        g.set_module_enabled(module, enabled);
                    }
                }
                None
            }
            DeviceCommand::QueryDigest {
                owner,
                digest,
                from,
                to,
                reply_to: _,
            } => {
                let mut hit: Option<bool> = None;
                for stage in [Stage::Src, Stage::Dst] {
                    let slot = self.services.get(&(owner, stage));
                    for g in slot.into_iter().flat_map(|slot| &slot.graphs) {
                        if let Some(h) = g.query_digest(digest, from, to) {
                            hit = Some(hit.unwrap_or(false) || h);
                        }
                    }
                }
                Some(DeviceReply::DigestAnswer {
                    node: self.ctx.node,
                    digest,
                    hit,
                })
            }
            DeviceCommand::ReadLog {
                owner,
                stage,
                reply_to: _,
            } => {
                let entries = match self.services.get_mut(&(owner, stage)) {
                    Some(slot) => slot
                        .graphs
                        .iter_mut()
                        .flat_map(|g| g.drain_logs())
                        .collect(),
                    None => Vec::new(),
                };
                Some(DeviceReply::LogData {
                    node: self.ctx.node,
                    owner,
                    entries,
                })
            }
            DeviceCommand::QueryInventory { reply_to: _ } => {
                let mut installed: Vec<(OwnerId, Stage, u64)> = self
                    .services
                    .iter()
                    .flat_map(|((owner, stage), slot)| {
                        let graphs = slot.graphs.iter();
                        graphs.map(move |g| (*owner, *stage, g.spec_hash()))
                    })
                    .collect();
                installed.sort(); // HashMap order is not deterministic
                Some(DeviceReply::Inventory {
                    node: self.ctx.node,
                    installed,
                })
            }
        }
    }

    /// Take a slot out, with its lease — whose timer goes to `timers` —
    /// and its rules.
    fn remove_slot(&mut self, timers: &mut impl CancelTimer, owner: OwnerId, stage: Stage) {
        let Some(slot) = self.services.remove(&(owner, stage)) else {
            return;
        };
        retire_lease(&mut self.expiries, timers, (slot.lease_until, owner, stage));
        self.adjust_rule_count(-(slot.rule_count() as i64));
    }

    /// Arm the reaper of `lease` unless it has a timer already (a second
    /// install with the same horizon keeps the first one's).
    fn arm_lease(&mut self, ctx: &mut AgentCtx<'_>, lease: (SimTime, OwnerId, Stage)) {
        if let Some(timer @ None) = self.expiries.get_mut(&lease) {
            *timer = Some(ctx.set_timer(lease.0.saturating_since(ctx.now), TOKEN_LEASE));
        }
    }

    /// Move `rule_count` by a slot's change of rules. The count is the sum
    /// of the live slots' `rule_count()` — every install, removal and reap
    /// passes its delta through here, and a crash zeroes both — so it never
    /// goes below zero; a negative result would be a bookkeeping bug.
    fn adjust_rule_count(&mut self, delta: i64) {
        let mut s = self.stats.lock();
        let count = s.rule_count as i64 + delta;
        debug_assert!(
            count >= 0,
            "rule count {} {delta:+} underflows",
            s.rule_count
        );
        s.rule_count = count.max(0) as usize;
    }

    /// Charge and flush buffered telemetry events.
    fn flush_events(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.events_buf.is_empty() {
            return;
        }
        // Taken, drained in place and handed back emptied: a flush
        // allocates nothing.
        let mut events = std::mem::take(&mut self.events_buf);
        let mut stats = self.stats.lock();
        for ev in events.drain(..) {
            let budget =
                (self.processed_bytes as f64 * self.telemetry_ratio) as u64 + self.telemetry_floor;
            if stats.telemetry_bytes + EVENT_BYTES > budget {
                stats.suppressed_events += 1;
                continue;
            }
            stats.telemetry_events += 1;
            stats.telemetry_bytes += EVENT_BYTES;
            let owner = match &ev {
                DeviceEvent::TriggerFired { owner, .. }
                | DeviceEvent::TriggerRelieved { owner, .. }
                | DeviceEvent::LogReady { owner, .. } => *owner,
            };
            // Deliver to the owner's own contact node over the control
            // plane (an address lookup inside its prefix may find a more
            // specific registration's owner instead), where an
            // [`crate::Inbox`] hears it.
            if let Some(contact) = self.owners.contact_of(owner) {
                let delay = ctx.path_delay(contact);
                ctx.send_control(contact, delay, ev);
            }
        }
        drop(stats);
        self.events_buf = events;
    }

    /// Shared stats handle.
    pub fn handle(&self) -> DeviceHandle {
        self.stats.clone()
    }
}

impl NodeAgent for AdaptiveDevice {
    fn name(&self) -> &'static str {
        "adaptive-device"
    }

    fn on_packet(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        pkt: &mut Packet,
        from: Option<LinkId>,
    ) -> Verdict {
        // Redirect decision: does anyone own this packet?
        let src_owner = self.owners.owner_of(pkt.src).copied();
        let dst_owner = self.owners.owner_of(pkt.dst).copied();
        if src_owner.is_none() && dst_owner.is_none() {
            self.stats.lock().seen_pkts += 1;
            return Verdict::Forward; // direct path through the router
        }
        let redirected_bytes = pkt.size as u64; // before any payload deletion
        self.processed_bytes += redirected_bytes;

        // Spoof verdict for anti-spoofing modules: the same source-address
        // check the static ingress filter runs.
        let spoof_suspect = self
            .oracle
            .source_mismatch(ctx.routing, ctx.topo, pkt, from)
            .is_some();

        let mut verdict = Verdict::Forward;
        // Stage 1: source owner's processing; Stage 2: destination owner's
        // (Sec. 4.1 control handover order).
        let stages = [
            (src_owner.map(|e| e.owner), Stage::Src),
            (dst_owner.map(|e| e.owner), Stage::Dst),
        ];
        'stages: for (owner, stage) in stages {
            let Some(owner) = owner else { continue };
            let Some(slot) = self.services.get_mut(&(owner, stage)) else {
                continue;
            };
            for graph in &mut slot.graphs {
                let mut view = PacketView::new(pkt);
                let action = graph.process(
                    ctx.now,
                    &self.ctx,
                    spoof_suspect,
                    owner,
                    &mut self.events_buf,
                    &mut view,
                );
                if let ModuleAction::Drop(reason) = action {
                    if ctx.trace_wants(pkt) {
                        let (svc, owner) = (graph.name(), owner.0);
                        ctx.trace_verdict_detail(format!(
                            "svc={svc} stage={stage:?} owner={owner}"
                        ));
                    }
                    verdict = Verdict::Drop(reason);
                    break 'stages;
                }
            }
        }
        {
            let mut s = self.stats.lock();
            s.seen_pkts += 1;
            s.redirected_pkts += 1;
            s.redirected_bytes += redirected_bytes;
            if let Verdict::Drop(reason) = verdict {
                *s.dropped.entry(reason).or_insert(0) += 1;
            }
        }
        self.flush_events(ctx);
        verdict
    }

    fn on_control(&mut self, ctx: &mut AgentCtx<'_>, msg: &ControlMsg) {
        let (register, cmd) = match msg.get::<Provision>() {
            Some(p) => (Some(&*p.register), &p.install),
            None => match msg.get::<DeviceCommand>() {
                Some(cmd) => (None, cmd),
                None => return,
            },
        };
        if let Some(mgr) = self.manager {
            if msg.from != mgr && msg.from != self.ctx.node {
                return; // not our manager: ignore (Sec. 4.5 misuse guard)
            }
        }
        if let Some(register) = register {
            self.handle_command(register, ctx);
        }
        // Queries answer the node they name; everything else its sender.
        let reply_to = match *cmd {
            DeviceCommand::QueryDigest { reply_to, .. }
            | DeviceCommand::ReadLog { reply_to, .. }
            | DeviceCommand::QueryInventory { reply_to } => reply_to,
            _ => msg.from,
        };
        if let Some(reply) = self.handle_command(cmd, ctx) {
            // Leased install accepted: wheel-schedule the reaper at the
            // authority horizon. A renewal that moved the lease cancelled
            // the old horizon's timer.
            if let (
                DeviceCommand::InstallService {
                    owner,
                    stage,
                    lease_until,
                    ..
                },
                DeviceReply::InstallOk { .. },
            ) = (cmd, &reply)
            {
                self.arm_lease(ctx, (*lease_until, *owner, *stage));
            }
            if ctx.cp_trace_enabled() {
                if let Some(m) = msg.meta {
                    let state = match &reply {
                        DeviceReply::InstallOk { .. } => Some(CpState::InstallOk),
                        DeviceReply::InstallRejected { .. } => Some(CpState::InstallRejected),
                        _ => None,
                    };
                    if let Some(state) = state {
                        ctx.cp_event(CpTraceEvent::State {
                            t: ctx.now.as_nanos(),
                            origin: m.origin,
                            txn: m.txn,
                            node: ctx.node,
                            actor: CpActor::Device,
                            state,
                        });
                    }
                }
            }
            // Echo the request's transaction identity on the reply so the
            // flight recorder traces it under the same key.
            let delay = ctx.path_delay(reply_to);
            match msg.meta {
                Some(m) => {
                    let meta = CpMeta {
                        kind: reply.kind_id(),
                        ..m
                    };
                    ctx.send_control_keyed(reply_to, delay, reply, meta);
                }
                None => ctx.send_control(reply_to, delay, reply),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        if token != TOKEN_LEASE {
            return;
        }
        // Reap every slot whose authority horizon has passed, soonest
        // first, cancelling the timers of those due with this one.
        let mut reaped = false;
        while let Some(entry) = self.expiries.first_entry() {
            let (until, owner, stage) = *entry.key();
            if until > ctx.now {
                break;
            }
            if let Some(timer) = entry.remove() {
                ctx.cancel_timer(timer);
            }
            let rules = self
                .services
                .remove(&(owner, stage))
                .map_or(0, |slot| slot.rule_count());
            self.adjust_rule_count(-(rules as i64));
            let mut s = self.stats.lock();
            s.lease_reaps += 1;
            s.last_reap_at = Some(ctx.now);
            reaped = true;
        }
        if !reaped {
            self.stats.lock().idle_lease_timers += 1;
        }
    }

    fn on_crash(&mut self, ctx: &mut AgentCtx<'_>) {
        // A reboot loses everything provisioned at run time: owner
        // registrations, installed service graphs (with their trigger /
        // logger / backlog state), buffered telemetry, and the processed-
        // byte telemetry budget. The manager binding and verifier are
        // device firmware — they survive. The NMS reconciliation sweep is
        // responsible for re-provisioning.
        self.owners = OwnerTable::new();
        self.services.clear();
        for timer in std::mem::take(&mut self.expiries).into_values().flatten() {
            ctx.cancel_timer(timer);
        }
        self.events_buf.clear();
        self.processed_bytes = 0;
        let mut s = self.stats.lock();
        s.rule_count = 0;
        s.crashes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FilterRule, MatchExpr, ModuleSpec};
    use dtcs_netsim::{Addr, PacketBuilder, Proto, SimDuration, Simulator, Topology, TrafficClass};
    use std::collections::BTreeSet;

    fn victim_owner() -> OwnerId {
        OwnerId(42)
    }

    /// `owner` holds node 2's prefix, with node 2 as its contact.
    fn register_at_node_2(owner: OwnerId) -> DeviceCommand {
        DeviceCommand::RegisterOwner {
            owner,
            prefixes: vec![Prefix::of_node(NodeId(2))],
            contact: NodeId(2),
        }
    }

    /// An unleased install outside any management transaction.
    fn install(owner: OwnerId, stage: Stage, spec: ServiceSpec) -> DeviceCommand {
        DeviceCommand::InstallService {
            owner,
            stage,
            spec,
            txn: 0,
            lease_until: SimTime::MAX,
        }
    }

    /// The service "fw": one filter dropping what `expr` matches.
    fn fw_dropping(expr: MatchExpr) -> ServiceSpec {
        let rules = vec![FilterRule { expr, drop: true }];
        ServiceSpec::chain("fw", vec![ModuleSpec::Filter { rules }])
    }

    fn fw_dropping_udp() -> ServiceSpec {
        fw_dropping(MatchExpr::proto(Proto::Udp))
    }

    fn anti_spoof(name: &str) -> ServiceSpec {
        ServiceSpec::chain(name, vec![ModuleSpec::AntiSpoof])
    }

    /// Line topology: 0 (client) - 1 (device here) - 2 (victim).
    fn sim_with_device() -> (Simulator, DeviceHandle) {
        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 1);
        let (mut dev, handle) = AdaptiveDevice::new(NodeId(1), None);
        dev.apply(register_at_node_2(victim_owner()));
        dev.apply(install(victim_owner(), Stage::Dst, fw_dropping_udp()));
        sim.add_agent(NodeId(1), Box::new(dev));
        sim.install_app(Addr::new(NodeId(2), 1), Box::new(dtcs_netsim::SinkApp));
        (sim, handle)
    }

    fn send(sim: &mut Simulator, proto: Proto, dst: Addr) {
        sim.emit_now(
            NodeId(0),
            PacketBuilder::new(
                Addr::new(NodeId(0), 1),
                dst,
                proto,
                TrafficClass::Background,
            )
            .size(100),
        );
    }

    #[test]
    fn device_filters_owned_traffic_only() {
        let (mut sim, handle) = sim_with_device();
        let victim = Addr::new(NodeId(2), 1);
        send(&mut sim, Proto::Udp, victim); // owned + matches filter: drop
        send(&mut sim, Proto::TcpData, victim); // owned, no match: pass
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.class(TrafficClass::Background).delivered_pkts, 1);
        assert_eq!(sim.stats.drops_for_reason(DropReason::DeviceFilter).pkts, 1);
        let s = handle.lock();
        assert_eq!(s.redirected_pkts, 2);
        assert_eq!(s.dropped[&DropReason::DeviceFilter], 1);
    }

    #[test]
    fn unowned_traffic_takes_direct_path() {
        let (mut sim, handle) = sim_with_device();
        // Node 1 hosts no registered prefix for src node 0 or dst node 1.
        let unowned_dst = Addr::new(NodeId(1), 7);
        sim.install_app(unowned_dst, Box::new(dtcs_netsim::SinkApp));
        send(&mut sim, Proto::Udp, unowned_dst);
        sim.run_until(SimTime::from_secs(1));
        let s = handle.lock();
        assert_eq!(s.seen_pkts, 1);
        assert_eq!(s.redirected_pkts, 0, "no owner: direct path");
        assert_eq!(sim.stats.class(TrafficClass::Background).delivered_pkts, 1);
    }

    #[test]
    fn payload_signature_filtering_contains_a_worm() {
        // Sec. 4.2 payload-hash rules + Sec. 2.1 worm motivation: the
        // owner blocks packets carrying known worm payload hashes while
        // identical-header clean traffic passes.
        let (mut sim, handle) = sim_with_device();
        let victim = Addr::new(NodeId(2), 1);
        const WORM_SIG: u64 = 0x5A5A_BEEF;
        // Replace the UDP firewall with a signature filter.
        sim.deliver_control(
            SimTime::ZERO,
            NodeId(1),
            NodeId(1),
            install(
                victim_owner(),
                Stage::Dst,
                // same name: replaces the UDP filter
                fw_dropping(MatchExpr::any().with_payload_hashes(vec![WORM_SIG])),
            ),
        );
        sim.run_until(SimTime::from_millis(10));
        // A worm packet and a clean packet, identical except the payload.
        for tag in [WORM_SIG, 0x1111] {
            sim.emit_now(
                NodeId(0),
                PacketBuilder::new(
                    Addr::new(NodeId(0), 1),
                    victim,
                    Proto::TcpData,
                    TrafficClass::Background,
                )
                .size(400)
                .tag(tag),
            );
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.drops_for_reason(DropReason::DeviceFilter).pkts, 1);
        assert_eq!(sim.stats.class(TrafficClass::Background).delivered_pkts, 1);
        assert_eq!(handle.lock().dropped[&DropReason::DeviceFilter], 1);
    }

    #[test]
    fn unregister_owner_clears_everything() {
        let (mut dev, handle) = AdaptiveDevice::new(NodeId(1), None);
        dev.apply(register_at_node_2(victim_owner()));
        dev.apply(install(victim_owner(), Stage::Dst, anti_spoof("fw")));
        assert_eq!(handle.lock().rule_count, 1);
        dev.apply(DeviceCommand::UnregisterOwner {
            owner: victim_owner(),
        });
        assert_eq!(
            handle.lock().rule_count,
            0,
            "services removed with the owner"
        );
        // Digest queries after removal: no backlog anywhere.
        let reply = dev.apply(DeviceCommand::QueryDigest {
            owner: victim_owner(),
            digest: 1,
            from: SimTime::ZERO,
            to: SimTime::from_secs(1),
            reply_to: NodeId(2),
        });
        assert!(matches!(
            reply,
            Some(DeviceReply::DigestAnswer { hit: None, .. })
        ));
    }

    #[test]
    fn unsafe_install_is_rejected() {
        let (mut dev, handle) = AdaptiveDevice::new(NodeId(1), None);
        let evil = ServiceSpec::chain("evil", vec![ModuleSpec::Amplify { factor: 100 }]);
        let reply = dev.apply(install(OwnerId(7), Stage::Src, evil));
        assert!(matches!(
            reply,
            Some(DeviceReply::InstallRejected {
                violation: SafetyViolation::Amplification { .. },
                ..
            })
        ));
        assert_eq!(handle.lock().rejected_installs, 1);
        assert_eq!(handle.lock().rule_count, 0);
        // A benign install afterwards still works.
        let reply = dev.apply(install(OwnerId(7), Stage::Src, anti_spoof("ok")));
        assert!(matches!(reply, Some(DeviceReply::InstallOk { .. })));
        assert_eq!(handle.lock().rule_count, 1);
    }

    #[test]
    fn composed_services_run_in_order() {
        // A firewall plus a logger at the same (owner, Dst) slot: both
        // execute; reinstalling the firewall by name replaces it instead
        // of stacking a duplicate.
        let (mut sim, handle) = sim_with_device();
        // sim_with_device installed "fw" dropping UDP; add a logger too.
        // Reach the device via control from its own node (manager None).
        sim.deliver_control(
            SimTime::ZERO,
            NodeId(1),
            NodeId(1),
            install(
                victim_owner(),
                Stage::Dst,
                ServiceSpec::chain(
                    "stats",
                    vec![ModuleSpec::Logger {
                        capacity: 64,
                        sample_one_in: 1,
                    }],
                ),
            ),
        );
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(handle.lock().rule_count, 2, "firewall + logger");
        // Reinstall the firewall (same name): rule count unchanged.
        sim.deliver_control(
            SimTime::from_millis(20),
            NodeId(1),
            NodeId(1),
            install(victim_owner(), Stage::Dst, fw_dropping_udp()),
        );
        sim.run_until(SimTime::from_millis(30));
        assert_eq!(handle.lock().rule_count, 2, "redeploy replaces in place");
        // Both services act: UDP dropped by fw, TCP logged+delivered.
        let victim = Addr::new(NodeId(2), 1);
        send(&mut sim, Proto::Udp, victim);
        send(&mut sim, Proto::TcpData, victim);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.drops_for_reason(DropReason::DeviceFilter).pkts, 1);
        assert_eq!(sim.stats.class(TrafficClass::Background).delivered_pkts, 1);
    }

    #[test]
    fn manager_restriction_blocks_strangers() {
        let (mut dev, _handle) = AdaptiveDevice::new(NodeId(1), Some(NodeId(5)));
        // Direct apply is the trusted path; the control path checks
        // msg.from. Simulate a stranger's control message:
        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 1);
        dev.apply(register_at_node_2(OwnerId(1)));
        let handle = dev.handle();
        sim.add_agent(NodeId(1), Box::new(dev));

        struct Stranger;
        impl NodeAgent for Stranger {
            fn name(&self) -> &'static str {
                "stranger"
            }
            fn on_packet(
                &mut self,
                ctx: &mut AgentCtx<'_>,
                _pkt: &mut Packet,
                _from: Option<LinkId>,
            ) -> Verdict {
                ctx.send_control(
                    NodeId(1),
                    SimDuration::from_millis(1),
                    install(OwnerId(1), Stage::Dst, fw_dropping(MatchExpr::any())),
                );
                Verdict::Forward
            }
        }
        sim.add_agent(NodeId(0), Box::new(Stranger));
        sim.install_app(Addr::new(NodeId(2), 1), Box::new(dtcs_netsim::SinkApp));
        // Trigger the stranger, then send victim-bound traffic.
        send(&mut sim, Proto::Udp, Addr::new(NodeId(2), 1));
        sim.run_until(SimTime::from_millis(100));
        send(&mut sim, Proto::Udp, Addr::new(NodeId(2), 1));
        sim.run_until(SimTime::from_secs(1));
        // The stranger's install was ignored: nothing dropped.
        assert_eq!(handle.lock().rule_count, 0);
        assert_eq!(sim.stats.class(TrafficClass::Background).delivered_pkts, 2);
    }

    /// One [`Provision`] from the manager registers the owner and installs
    /// its service, so the owner's traffic meets the filter; from anyone
    /// else it does neither.
    #[test]
    fn provision_registers_then_installs_in_one_message() {
        for (from, applied) in [(NodeId(0), true), (NodeId(2), false)] {
            let mut sim = Simulator::new(Topology::line(3), 1);
            let (dev, handle) = AdaptiveDevice::new(NodeId(1), Some(NodeId(0)));
            sim.add_agent(NodeId(1), Box::new(dev));
            sim.install_app(Addr::new(NodeId(2), 1), Box::new(dtcs_netsim::SinkApp));
            let provision = Provision {
                register: Arc::new(register_at_node_2(victim_owner())),
                install: install(victim_owner(), Stage::Dst, fw_dropping_udp()),
            };
            sim.deliver_control(SimTime::ZERO, from, NodeId(1), provision);
            sim.run_until(SimTime::from_millis(10));
            send(&mut sim, Proto::Udp, Addr::new(NodeId(2), 1));
            sim.run_until(SimTime::from_secs(1));
            let s = handle.lock();
            assert_eq!(
                (s.rule_count > 0, s.redirected_pkts),
                (applied, applied as u64)
            );
            let delivered = sim.stats.class(TrafficClass::Background).delivered_pkts;
            assert_eq!(delivered, u64::from(!applied), "from {from:?}");
        }
    }

    #[test]
    fn duplicate_install_is_idempotent() {
        let (mut dev, handle) = AdaptiveDevice::new(NodeId(1), None);
        dev.apply(register_at_node_2(victim_owner()));
        let attempt = |txn| DeviceCommand::InstallService {
            txn,
            lease_until: SimTime::MAX,
            owner: victim_owner(),
            stage: Stage::Dst,
            spec: anti_spoof("fw"),
        };
        let first = dev.apply(attempt(7));
        assert!(matches!(first, Some(DeviceReply::InstallOk { txn: 7, .. })));
        assert_eq!(handle.lock().idempotent_installs, 0);
        // A retransmit (same spec, new attempt's txn) re-acks without
        // touching the running graph.
        let again = dev.apply(attempt(8));
        assert!(matches!(again, Some(DeviceReply::InstallOk { txn: 8, .. })));
        assert_eq!(handle.lock().idempotent_installs, 1);
        assert_eq!(handle.lock().rule_count, 1);
        // A *changed* spec under the same name replaces, not re-acks.
        let changed = dev.apply(install(victim_owner(), Stage::Dst, fw_dropping_udp()));
        assert!(matches!(changed, Some(DeviceReply::InstallOk { .. })));
        assert_eq!(handle.lock().idempotent_installs, 1, "replace is not a dup");
    }

    #[test]
    fn inventory_lists_installed_services_sorted() {
        let (mut dev, _handle) = AdaptiveDevice::new(NodeId(1), None);
        for owner in [OwnerId(9), OwnerId(3)] {
            dev.apply(register_at_node_2(owner));
            dev.apply(install(owner, Stage::Dst, anti_spoof("fw")));
        }
        let reply = dev.apply(DeviceCommand::QueryInventory {
            reply_to: NodeId(5),
        });
        let Some(DeviceReply::Inventory { node, installed }) = reply else {
            panic!("expected Inventory reply");
        };
        assert_eq!(node, NodeId(1));
        let hash = anti_spoof("fw").content_hash();
        assert_eq!(
            installed,
            vec![
                (OwnerId(3), Stage::Dst, hash),
                (OwnerId(9), Stage::Dst, hash)
            ]
        );
    }

    #[test]
    fn crash_wipes_owners_and_services_but_counts() {
        let (mut sim, handle) = sim_with_device();
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(handle.lock().rule_count, 1);
        sim.crash_node(NodeId(1));
        sim.run_until(SimTime::from_millis(2));
        let s = handle.lock();
        assert_eq!(s.crashes, 1);
        assert_eq!(s.rule_count, 0, "volatile service state lost");
        drop(s);
        // Owned traffic now takes the direct path: registration is gone.
        send(&mut sim, Proto::Udp, Addr::new(NodeId(2), 1));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats.class(TrafficClass::Background).delivered_pkts, 1);
        assert_eq!(handle.lock().redirected_pkts, 0);
    }

    fn leased_install(lease_until: SimTime) -> DeviceCommand {
        DeviceCommand::InstallService {
            txn: 1,
            lease_until,
            owner: victim_owner(),
            stage: Stage::Dst,
            spec: anti_spoof("fw"),
        }
    }

    #[test]
    fn expired_lease_reaps_orphaned_service() {
        let (mut sim, handle) = sim_with_device();
        // Replace the setup-time unleased install with a leased one.
        sim.deliver_control(
            SimTime::ZERO,
            NodeId(1),
            NodeId(1),
            leased_install(SimTime::from_millis(500)),
        );
        sim.run_until(SimTime::from_millis(400));
        assert_eq!(handle.lock().rule_count, 1, "still within the lease");
        assert_eq!(handle.lock().lease_reaps, 0);
        sim.run_until(SimTime::from_secs(1));
        let s = handle.lock();
        assert_eq!(s.rule_count, 0, "no renewal: the filter is gone");
        assert_eq!(s.lease_reaps, 1);
        assert_eq!(s.last_reap_at, Some(SimTime::from_millis(500)));
    }

    #[test]
    fn renewal_pushes_lease_forward_and_cancels_the_old_timer() {
        let (mut sim, handle) = sim_with_device();
        sim.deliver_control(
            SimTime::ZERO,
            NodeId(1),
            NodeId(1),
            leased_install(SimTime::from_millis(500)),
        );
        // Renewal: byte-identical spec, later horizon — the idempotent
        // path must still move the lease.
        sim.deliver_control(
            SimTime::from_millis(300),
            NodeId(1),
            NodeId(1),
            leased_install(SimTime::from_millis(900)),
        );
        sim.run_until(SimTime::from_millis(700));
        let s = handle.lock();
        assert_eq!(s.rule_count, 1, "the renewal moved the lease past 500 ms");
        assert_eq!(s.lease_reaps, 0);
        assert_eq!(s.idempotent_installs, 1);
        drop(s);
        sim.run_until(SimTime::from_secs(1));
        let s = handle.lock();
        assert_eq!(s.rule_count, 0, "renewed lease eventually expires too");
        assert_eq!(s.lease_reaps, 1);
        assert_eq!(s.last_reap_at, Some(SimTime::from_millis(900)));
        assert_eq!(s.idle_lease_timers, 0, "the 500 ms timer was cancelled");
        // Two installs and their two acks, and the one timer that reaped.
        assert_eq!(sim.stats.events, 5);
    }

    /// A removal, an unregistration and a crash each take a leased slot
    /// out before its lease runs out: its timer goes with it.
    #[test]
    fn a_lease_dropped_early_takes_its_timer_along() {
        let early = [
            DeviceCommand::RemoveService {
                owner: victim_owner(),
                stage: Stage::Dst,
                txn: 2,
            },
            DeviceCommand::UnregisterOwner {
                owner: victim_owner(),
            },
        ];
        for drop_at_100ms in early.into_iter().map(Some).chain([None]) {
            let (mut sim, handle) = sim_with_device();
            let lease = leased_install(SimTime::from_millis(500));
            sim.deliver_control(SimTime::ZERO, NodeId(1), NodeId(1), lease);
            let at = SimTime::from_millis(100);
            match drop_at_100ms {
                Some(cmd) => sim.deliver_control(at, NodeId(1), NodeId(1), cmd),
                None => sim.schedule(at, |sim| sim.crash_node(NodeId(1))),
            }
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(sim.pending_events(), 0);
            let s = handle.lock();
            assert_eq!((s.rule_count, s.lease_reaps), (0, 0));
            assert_eq!(s.idle_lease_timers, 0, "no timer fired after the slot went");
        }
    }

    #[test]
    fn remove_service_acks_even_when_absent() {
        let (mut dev, handle) = AdaptiveDevice::new(NodeId(1), None);
        let reply = dev.apply(DeviceCommand::RemoveService {
            owner: victim_owner(),
            stage: Stage::Dst,
            txn: 5,
        });
        assert!(
            matches!(reply, Some(DeviceReply::RemoveOk { txn: 5, .. })),
            "removing an absent slot still acks (idempotent teardown)"
        );
        dev.apply(install(victim_owner(), Stage::Dst, anti_spoof("fw")));
        assert_eq!(handle.lock().rule_count, 1);
        let reply = dev.apply(DeviceCommand::RemoveService {
            owner: victim_owner(),
            stage: Stage::Dst,
            txn: 6,
        });
        assert!(matches!(reply, Some(DeviceReply::RemoveOk { txn: 6, .. })));
        assert_eq!(handle.lock().rule_count, 0);
    }

    /// The lease bookkeeping this device had before the expiry index, kept
    /// as the reference: one map entry per installed slot — unleased ones
    /// included — and a reap that scans all of them.
    #[derive(Default)]
    struct ScanLeases {
        leases: HashMap<(OwnerId, Stage), SimTime>,
        reaps: u64,
        last_reap_at: Option<SimTime>,
    }

    /// The device and the reference fed the same calls, compared after
    /// every one of them.
    struct Lockstep {
        dev: AdaptiveDevice,
        reference: ScanLeases,
    }

    impl Lockstep {
        fn mirror(&mut self, cmd: &DeviceCommand) {
            let leases = &mut self.reference.leases;
            match *cmd {
                DeviceCommand::InstallService {
                    owner,
                    stage,
                    lease_until,
                    ..
                } => {
                    leases.insert((owner, stage), lease_until);
                }
                DeviceCommand::RemoveService { owner, stage, .. } => {
                    leases.remove(&(owner, stage));
                }
                DeviceCommand::UnregisterOwner { owner } => leases.retain(|k, _| k.0 != owner),
                _ => unreachable!("not part of the schedule"),
            }
            self.check();
        }

        fn check(&self) {
            let slots = self.dev.services.iter();
            let slots: HashMap<_, _> = slots.map(|(&k, slot)| (k, slot.lease_until)).collect();
            assert_eq!(slots, self.reference.leases, "same slots, same horizons");
            let finite = slots.iter().filter(|(_, &until)| until != SimTime::MAX);
            let finite: BTreeSet<_> = finite.map(|(&(o, s), &until)| (until, o, s)).collect();
            let index: BTreeSet<_> = self.dev.expiries.keys().copied().collect();
            assert_eq!(index, finite, "the index is the finite leases");
            let stats = self.dev.stats.lock();
            assert_eq!(stats.lease_reaps, self.reference.reaps);
            assert_eq!(stats.last_reap_at, self.reference.last_reap_at);
            let recount: usize = self.dev.services.values().map(Slot::rule_count).sum();
            assert_eq!(stats.rule_count, recount);
        }
    }

    impl NodeAgent for Lockstep {
        fn name(&self) -> &'static str {
            "lockstep"
        }

        fn on_control(&mut self, ctx: &mut AgentCtx<'_>, msg: &ControlMsg) {
            self.dev.on_control(ctx, msg);
            self.mirror(msg.get::<DeviceCommand>().expect("only commands are sent"));
        }

        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
            let live = self.reference.leases.len();
            self.reference.leases.retain(|_, until| *until > ctx.now); // the scan
            let due = live - self.reference.leases.len();
            if due > 0 {
                self.reference.reaps += due as u64;
                self.reference.last_reap_at = Some(ctx.now);
            }
            self.dev.on_timer(ctx, token);
            self.check();
        }

        fn on_crash(&mut self, ctx: &mut AgentCtx<'_>) {
            self.reference.leases.clear();
            self.dev.on_crash(ctx);
            self.check();
        }
    }

    #[test]
    fn expiry_index_reaps_what_a_whole_table_scan_would() {
        let (mut reaps, mut crashes) = (0, 0);
        let specs = [anti_spoof("fw"), anti_spoof("stats"), fw_dropping_udp()];
        dtcs_netsim::rng::check_cases(0..96, |rng| {
            // A coarse grid of instants and few slots: renewals, expiries,
            // removals and timers tie and collide all the time.
            let command = |rng: &mut dtcs_netsim::rng::ChaCha8Rng| {
                let owner = OwnerId(rng.gen_range(1..4u64));
                let stage = [Stage::Src, Stage::Dst][rng.gen_range(0..2usize)];
                let lease_until = match rng.gen_range(0..5u32) {
                    0 => SimTime::MAX,
                    _ => SimTime::from_millis(rng.gen_range(0..40u64)), // moves either way
                };
                match rng.gen_range(0..8u32) {
                    0 => DeviceCommand::UnregisterOwner { owner },
                    1 => DeviceCommand::RemoveService {
                        owner,
                        stage,
                        txn: 0,
                    },
                    kind => DeviceCommand::InstallService {
                        owner,
                        stage,
                        spec: specs[kind as usize % 3].clone(),
                        txn: 0,
                        lease_until,
                    },
                }
            };
            let (dev, handle) = AdaptiveDevice::new(NodeId(1), None);
            let reference = ScanLeases::default();
            let mut agent = Lockstep { dev, reference };
            // Finite leases through `apply` arm no timer of their own.
            for _ in 0..rng.gen_range(0..4u32) {
                let cmd = command(rng);
                agent.dev.apply(cmd.clone());
                agent.mirror(&cmd);
            }
            let mut sim = Simulator::new(Topology::line(3), 1);
            let at = sim.add_agent(NodeId(1), Box::new(agent));
            for _ in 0..rng.gen_range(10..60u32) {
                let t = SimTime::from_millis(rng.gen_range(0..40u64));
                match rng.gen_range(0..10u32) {
                    0 => sim.schedule(t, |sim| sim.crash_node(NodeId(1))),
                    1 => {
                        sim.schedule_agent_timer(NodeId(1), at, t, TOKEN_LEASE);
                    }
                    _ => sim.deliver_control(t, NodeId(0), NodeId(1), command(rng)),
                }
            }
            sim.run_until(SimTime::from_secs(1));
            reaps += handle.lock().lease_reaps;
            crashes += handle.lock().crashes;
        });
        assert!(reaps > 200 && crashes > 50, "{reaps} / {crashes}");
    }
}
