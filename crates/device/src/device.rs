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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use dtcs_netsim::{
    AgentCtx, ControlMsg, CpActor, CpMeta, CpState, CpTraceEvent, DropReason, LinkId, NodeAgent,
    NodeId, Packet, Prefix, RouteOracle, SimDuration, SimTime, TimerId, Verdict,
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
/// user on its node, so low tokens suffice: it keeps one reaper timer, at
/// its soonest lease entry, and each fire reaps what is due and sets the
/// next. A finite lease installed through [`AdaptiveDevice::apply`]
/// is reaped by the first reaper fire at or after its horizon.
const TOKEN_LEASE: u64 = 1;

/// Transaction id of the NMS's untracked sends: its refreshes and the
/// removals of what a device should not hold. Applied and not answered:
/// nobody waits for them, and the next round repeats what one lost.
pub const RECONCILE_TXN: u64 = u64::MAX;

/// The control plane's retry schedule: the first wait, doubled after each
/// unanswered attempt up to [`RETRY_CAP`]. A rebooted device repeats its
/// announcement on it, and the control crate's retry policy reads both.
pub const RETRY_BASE: SimDuration = SimDuration::from_millis(250);
/// The longest wait of the control plane's retry schedule.
pub const RETRY_CAP: SimDuration = SimDuration::from_secs(2);

/// Capped doubling: the wait before repeat `attempt`, `min(base · 2^attempt, cap)`.
pub fn backoff(base: SimDuration, cap: SimDuration, attempt: u32) -> SimDuration {
    SimDuration(u64::min(base.0.saturating_mul(1 << attempt.min(20)), cap.0))
}

/// Agent-timer token for the next reboot announcement.
const TOKEN_ANNOUNCE: u64 = 2;

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
        /// Under [`RECONCILE_TXN`] there is no reply.
        txn: u64,
        /// Authority horizon: the device autonomously uninstalls this
        /// slot's services at this instant unless a later install pushes
        /// it forward ([`SimTime::MAX`] = no lease, never expires).
        /// Installed over the control plane it is reaped at this instant;
        /// via [`AdaptiveDevice::apply`], which sets no timer, at the first
        /// reaper fire at or after it, so setup code should pass
        /// [`SimTime::MAX`].
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
        /// reply (0 = none). Under [`RECONCILE_TXN`] there is no reply.
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
    /// The NMS's periodic word for this device: everything that should
    /// stand on it. Each entry is applied as an untracked install, so a
    /// missing slot is installed and a running one has its lease moved;
    /// nothing is answered but the slots the refresh did not name, as a
    /// [`DeviceReply::Inventory`].
    Refresh {
        /// The device's desired slice, sorted by `(owner, stage)`.
        holds: Vec<Provision>,
    },
}

/// The NMS's provisioning of an owner in one message: the
/// [`DeviceCommand::RegisterOwner`] applied, then the
/// [`DeviceCommand::InstallService`] it precedes; only the install may be
/// answered. The paper's two provisioning steps, sent together on every
/// install, and one entry of a [`DeviceCommand::Refresh`].
#[derive(Clone, Debug)]
pub struct Provision {
    /// The owner's registration, shared by every send of one deployment.
    pub register: Arc<DeviceCommand>,
    /// The install.
    pub install: DeviceCommand,
}

impl Provision {
    /// The `(owner, stage)` slot the install fills.
    fn slot(&self) -> Option<(OwnerId, Stage)> {
        match self.install {
            DeviceCommand::InstallService { owner, stage, .. } => Some((owner, stage)),
            _ => None,
        }
    }
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
    /// What the device holds that its manager did not name: the answer
    /// to a [`DeviceCommand::Refresh`] that left some slots out, or, empty,
    /// a rebooted device's announcement that it holds nothing, repeated
    /// until a refresh arrives.
    Inventory {
        /// Device node.
        node: NodeId,
        /// The unnamed slots, sorted.
        installed: Vec<(OwnerId, Stage)>,
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
    /// `CpMsg::kind_id` numbering (1–9) and its device-command ids (11 =
    /// install, 12 = refresh; 10 stays unused, the owner registration
    /// riding inside the install's [`Provision`]): 13 = InstallOk, 14 =
    /// InstallRejected, 15 = Inventory, 16 = other device replies, 22 =
    /// RemoveOk (17–21 are `control` crate withdrawal messages and the
    /// RemoveService command).
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

impl Slot {
    fn rule_count(&self) -> usize {
        self.graphs.iter().map(|g| g.rule_count).sum()
    }
}

/// Lease entries, soonest first, under one invariant: every finitely
/// leased slot has an entry due no later than its `lease_until`. An entry
/// is held against its slot only when it comes due, so a renewal, a
/// removal and a crash's wipe leave the heap as it is.
type Leases = BinaryHeap<Reverse<(SimTime, OwnerId, Stage)>>;

/// Move `slot`'s authority horizon to `until`. Only a horizon moved
/// earlier needs an entry of its own (a new slot's counts, from
/// [`SimTime::MAX`]); a later one, a renewal's, is found when the entry
/// it has comes due.
fn set_lease(leases: &mut Leases, slot: &mut Slot, key: (OwnerId, Stage), until: SimTime) {
    if until < slot.lease_until {
        leases.push(Reverse((until, key.0, key.1)));
    }
    slot.lease_until = until;
}

/// The adaptive device agent.
pub struct AdaptiveDevice {
    ctx: DeviceContext,
    owners: OwnerTable,
    services: HashMap<(OwnerId, Stage), Slot>,
    /// The reaper pops what is due instead of scanning every slot, and a
    /// device whose installs are all unleased holds nothing here.
    leases: Leases,
    /// The one reaper timer and its instant, set at the soonest entry of
    /// `leases` ([`AdaptiveDevice::arm_reaper`]).
    reaper: Option<(SimTime, TimerId)>,
    /// After a reboot, until a refresh arrives: the number of the next
    /// announcement, and the timer that sends it.
    announcing: Option<(u32, TimerId)>,
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
            leases: BinaryHeap::new(),
            reaper: None,
            announcing: None,
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
        self.handle_command(&cmd)
    }

    fn handle_command(&mut self, cmd: &DeviceCommand) -> Option<DeviceReply> {
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
                self.remove_slot(owner, Stage::Src);
                self.remove_slot(owner, Stage::Dst);
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
                    set_lease(&mut self.leases, slot, (owner, stage), lease_until);
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
                        set_lease(&mut self.leases, slot, (owner, stage), lease_until);
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
                self.remove_slot(owner, stage);
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
            DeviceCommand::Refresh { ref holds } => {
                for p in holds {
                    self.handle_command(&p.register);
                    self.handle_command(&p.install);
                }
                let named = |slot| holds.binary_search_by_key(&Some(slot), Provision::slot);
                let slots = self.services.keys().copied();
                let mut installed: Vec<_> = slots.filter(|&s| named(s).is_err()).collect();
                installed.sort(); // HashMap order is not deterministic
                (!installed.is_empty()).then_some(DeviceReply::Inventory {
                    node: self.ctx.node,
                    installed,
                })
            }
        }
    }

    /// Take a slot out with its rules; its lease entry is dropped when it
    /// comes due.
    fn remove_slot(&mut self, owner: OwnerId, stage: Stage) {
        if let Some(slot) = self.services.remove(&(owner, stage)) {
            self.adjust_rule_count(-(slot.rule_count() as i64));
        }
    }

    /// Tell the manager this device holds nothing, and again on the retry
    /// schedule ([`backoff`], `attempt` on from the reboot) until a refresh arrives.
    fn announce(&mut self, ctx: &mut AgentCtx<'_>, attempt: u32) {
        let Some(manager) = self.manager else { return };
        let empty = DeviceReply::Inventory {
            node: self.ctx.node,
            installed: Vec::new(),
        };
        ctx.send_control(manager, ctx.path_delay(manager), empty);
        let wait = backoff(RETRY_BASE, RETRY_CAP, attempt);
        self.announcing = Some((attempt + 1, ctx.set_timer(wait, TOKEN_ANNOUNCE)));
    }

    /// Set the reaper at the soonest lease entry (now, for a horizon
    /// already past). A reaper set no later stays: one left at an entry
    /// whose slot has since gone or been renewed fires, finds it, and
    /// sets the next.
    fn arm_reaper(&mut self, ctx: &mut AgentCtx<'_>) {
        let Some(&Reverse((due, ..))) = self.leases.peek() else {
            return;
        };
        let due = due.max(ctx.now);
        if let Some((at, timer)) = self.reaper {
            if at <= due {
                return;
            }
            ctx.cancel_timer(timer);
        }
        let timer = ctx.set_timer(due.saturating_since(ctx.now), TOKEN_LEASE);
        self.reaper = Some((due, timer));
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
            self.handle_command(register);
        }
        // A refresh answers the reboot announcement: no more are sent.
        if let (DeviceCommand::Refresh { .. }, Some((_, timer))) = (cmd, self.announcing) {
            self.announcing = None;
            ctx.cancel_timer(timer);
        }
        // Queries answer the node they name; everything else its sender.
        let reply_to = match *cmd {
            DeviceCommand::QueryDigest { reply_to, .. }
            | DeviceCommand::ReadLog { reply_to, .. } => reply_to,
            _ => msg.from,
        };
        let reply = self.handle_command(cmd);
        self.arm_reaper(ctx);
        if let Some(reply) = reply {
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
            // An untracked install or removal is applied, not answered: its
            // sender tracks nothing and repeats it on its next round.
            if let DeviceCommand::InstallService { txn, .. }
            | DeviceCommand::RemoveService { txn, .. } = *cmd
            {
                if txn == RECONCILE_TXN {
                    return;
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
        match (token, self.announcing) {
            (TOKEN_ANNOUNCE, Some((attempt, _))) => return self.announce(ctx, attempt),
            (TOKEN_LEASE, _) => {}
            _ => return,
        }
        // This fire is the reaper's, or one set from outside no later
        // than the reaper, which then gives way to the one set below.
        if let Some((_, timer)) = self.reaper.take_if(|(at, _)| *at <= ctx.now) {
            ctx.cancel_timer(timer); // a no-op for the timer firing now
        }
        // Each due entry: a horizon passed is reaped, soonest first, a
        // horizon renewed is queued again, and anything else is dropped.
        while let Some(&Reverse((due, owner, stage))) = self.leases.peek() {
            if due > ctx.now {
                break;
            }
            self.leases.pop();
            let slot = self.services.get(&(owner, stage));
            match slot.map(|slot| slot.lease_until) {
                Some(until) if until <= ctx.now => {
                    self.remove_slot(owner, stage);
                    let mut s = self.stats.lock();
                    s.lease_reaps += 1;
                    s.last_reap_at = Some(ctx.now);
                }
                Some(until) if until != SimTime::MAX => {
                    self.leases.push(Reverse((until, owner, stage)));
                }
                _ => {} // the slot is gone, or unleased now
            }
        }
        self.arm_reaper(ctx);
    }

    fn on_crash(&mut self, ctx: &mut AgentCtx<'_>) {
        // A reboot loses everything provisioned at run time: owner
        // registrations, installed service graphs (with their trigger /
        // logger / backlog state), buffered telemetry, and the processed-
        // byte telemetry budget. The manager binding and verifier are
        // device firmware — they survive. Re-provisioning is the NMS's:
        // asked for from the restart until its refresh arrives.
        self.owners = OwnerTable::new();
        self.services.clear();
        self.leases.clear();
        let timers = [
            self.reaper.take().map(|r| r.1),
            self.announcing.take().map(|a| a.1),
        ];
        for timer in timers.into_iter().flatten() {
            ctx.cancel_timer(timer);
        }
        self.events_buf.clear();
        self.processed_bytes = 0;
        let mut s = self.stats.lock();
        s.rule_count = 0;
        s.crashes += 1;
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>) {
        // Back up with nothing installed: say so to the manager as an
        // empty inventory, which it answers with this device's refresh,
        // without waiting for its next round; and again until it does.
        self.announce(ctx, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inbox::{Heard, Inbox};
    use crate::spec::{FilterRule, MatchExpr, ModuleSpec};
    use dtcs_netsim::{Addr, PacketBuilder, Proto, SimDuration, Simulator, Topology, TrafficClass};

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

    /// A refresh's entry for `owner`'s `spec`, leased to `lease_until`.
    fn refresh_entry(owner: OwnerId, spec: ServiceSpec, lease_until: SimTime) -> Provision {
        Provision {
            register: Arc::new(register_at_node_2(owner)),
            install: DeviceCommand::InstallService {
                owner,
                stage: Stage::Dst,
                spec,
                txn: RECONCILE_TXN,
                lease_until,
            },
        }
    }

    /// A refresh answers with the installed slots it did not name, sorted,
    /// and with nothing when it named them all.
    #[test]
    fn inventory_lists_installed_services_sorted() {
        let (mut dev, handle) = AdaptiveDevice::new(NodeId(1), None);
        for owner in [OwnerId(9), OwnerId(3), OwnerId(6)] {
            dev.apply(register_at_node_2(owner));
            dev.apply(install(owner, Stage::Dst, anti_spoof("fw")));
        }
        let holds = vec![refresh_entry(OwnerId(6), anti_spoof("fw"), SimTime::MAX)];
        let reply = dev.apply(DeviceCommand::Refresh { holds });
        let Some(DeviceReply::Inventory { node, installed }) = reply else {
            panic!("expected Inventory reply");
        };
        assert_eq!(node, NodeId(1));
        assert_eq!(
            installed,
            [(OwnerId(3), Stage::Dst), (OwnerId(9), Stage::Dst)]
        );
        assert_eq!(handle.lock().idempotent_installs, 1, "owner 6 was running");
        let all = [3, 6, 9].map(|o| refresh_entry(OwnerId(o), anti_spoof("fw"), SimTime::MAX));
        let reply = dev.apply(DeviceCommand::Refresh {
            holds: all.to_vec(),
        });
        assert!(reply.is_none(), "{reply:?}");
    }

    /// A refresh installs what its device lacks and moves the lease of
    /// what runs, as one message.
    #[test]
    fn a_refresh_installs_the_missing_and_re_leases_the_running() {
        let (mut sim, handle) = sim_with_device();
        let lease = SimTime::from_millis(500);
        let holds = vec![
            refresh_entry(OwnerId(7), anti_spoof("fw"), lease),
            refresh_entry(victim_owner(), fw_dropping_udp(), lease),
        ];
        sim.deliver_control(
            SimTime::ZERO,
            NodeId(1),
            NodeId(1),
            DeviceCommand::Refresh { holds },
        );
        sim.run_until(SimTime::from_millis(400));
        let s = handle.lock();
        assert_eq!((s.rule_count, s.idempotent_installs), (2, 1));
        drop(s);
        sim.run_until(SimTime::from_secs(1));
        let s = handle.lock();
        assert_eq!(
            (s.rule_count, s.lease_reaps),
            (0, 2),
            "both leased to 500 ms"
        );
    }

    /// A rebooted device announces itself to its manager on the retry
    /// schedule, each wait doubled up to the cap, and stops at the first
    /// refresh: by 5 s after a reboot at 200 ms the manager heard it at
    /// 0.2, 0.45, 0.95, 1.95 and 3.95 s, and after a refresh at 5 s never
    /// again.
    #[test]
    fn a_rebooted_device_announces_until_refreshed() {
        let mut sim = Simulator::new(Topology::line(3), 1);
        let (dev, _handle) = AdaptiveDevice::new(NodeId(1), Some(NodeId(0)));
        sim.add_agent(NodeId(1), Box::new(dev));
        Inbox::attach(&mut sim, NodeId(0));
        sim.install_fault_plane(dtcs_netsim::FaultPlane::new(dtcs_netsim::FaultConfig {
            outages: vec![dtcs_netsim::Outage {
                node: NodeId(1),
                from: SimTime::from_millis(100),
                until: SimTime::from_millis(200),
                crash: true,
            }],
            ..dtcs_netsim::FaultConfig::default()
        }));
        let announced = |sim: &Simulator| sim.agent::<Inbox>(NodeId(0)).unwrap().heard().len();
        sim.run_until(SimTime::from_millis(4_900));
        assert_eq!(announced(&sim), 5);
        let refresh = DeviceCommand::Refresh { holds: Vec::new() };
        sim.deliver_control(SimTime::from_secs(5), NodeId(0), NodeId(1), refresh);
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(announced(&sim), 5, "an empty refresh is not answered");
        assert_eq!(sim.pending_events(), 0, "no announcement left armed");
        let heard = sim.agent::<Inbox>(NodeId(0)).unwrap().heard();
        assert!(heard.iter().all(|h| matches!(
            h,
            Heard::Reply(DeviceReply::Inventory { installed, .. }) if installed.is_empty()
        )));
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
    fn renewal_moves_the_horizon_and_the_old_entry_queues_it_again() {
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
        // Two installs and their two acks, the 500 ms fire that queued the
        // renewed horizon again, and the 900 ms fire that reaped.
        assert_eq!(sim.stats.events, 6);
    }

    /// Leased installs with distinct horizons, then their renewals: the
    /// wheel holds one lease timer however many leases stand, and each
    /// slot is still reaped at its own horizon.
    #[test]
    fn one_reaper_timer_reaps_each_lease_at_its_own_horizon() {
        const N: u64 = 6;
        let (mut sim, handle) = sim_with_device();
        let lease = |i: u64, until: SimTime| DeviceCommand::InstallService {
            owner: OwnerId(100 + i),
            stage: Stage::Dst,
            spec: anti_spoof("fw"),
            txn: RECONCILE_TXN, // unanswered: the wheel holds timers alone
            lease_until: until,
        };
        for i in 0..N {
            let until = SimTime::from_millis(100 * (i + 1));
            sim.deliver_control(SimTime::ZERO, NodeId(1), NodeId(1), lease(i, until));
        }
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.pending_events(), 1, "one timer for {N} leases");
        let renewed = |i: u64| SimTime::from_millis(100 * (i + 1) + 30 * (N - i));
        for i in 0..N {
            let at = SimTime::from_millis(50);
            sim.deliver_control(at, NodeId(1), NodeId(1), lease(i, renewed(i)));
        }
        sim.run_until(SimTime::from_millis(51));
        assert_eq!(sim.pending_events(), 1, "renewals set no timer");
        assert_eq!(handle.lock().rule_count as u64, 1 + N);
        for i in 0..N {
            sim.run_until(SimTime::from_nanos(renewed(i).as_nanos() - 1));
            assert_eq!(handle.lock().lease_reaps, i, "lease {i} still stands");
            assert_eq!(sim.pending_events(), 1);
            sim.run_until(renewed(i));
            let s = handle.lock();
            assert_eq!(s.lease_reaps, i + 1);
            assert_eq!(s.last_reap_at, Some(renewed(i)));
            assert_eq!(s.rule_count as u64, N - i, "the unleased install stays");
        }
        assert_eq!(sim.pending_events(), 0);
    }

    /// A removal, an unregistration and a crash each take a leased slot
    /// out before its lease runs out: nothing is reaped, and by the end no
    /// timer is left.
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

    /// An untracked install and removal are applied and answered by
    /// nothing; under an ordinary `txn` the same two commands are answered.
    #[test]
    fn untracked_installs_and_removals_go_unanswered() {
        for txn in [RECONCILE_TXN, 7] {
            let mut sim = Simulator::new(Topology::line(3), 1);
            let (dev, handle) = AdaptiveDevice::new(NodeId(1), Some(NodeId(0)));
            sim.add_agent(NodeId(1), Box::new(dev));
            Inbox::attach(&mut sim, NodeId(0));
            let installed = DeviceCommand::InstallService {
                owner: victim_owner(),
                stage: Stage::Dst,
                spec: anti_spoof("fw"),
                txn,
                lease_until: SimTime::MAX,
            };
            sim.deliver_control(SimTime::ZERO, NodeId(0), NodeId(1), installed);
            sim.run_until(SimTime::from_millis(100));
            assert_eq!(handle.lock().rule_count, 1, "txn {txn:#x}: applied");
            let removal = DeviceCommand::RemoveService {
                owner: victim_owner(),
                stage: Stage::Dst,
                txn,
            };
            sim.deliver_control(sim.now(), NodeId(0), NodeId(1), removal);
            sim.run_until(SimTime::from_millis(200));
            assert_eq!(handle.lock().rule_count, 0, "txn {txn:#x}: applied");
            let heard = sim.agent::<Inbox>(NodeId(0)).unwrap().heard();
            if txn == 7 {
                assert!(
                    matches!(
                        heard,
                        [
                            Heard::Reply(DeviceReply::InstallOk { txn: 7, .. }),
                            Heard::Reply(DeviceReply::RemoveOk { txn: 7, .. }),
                        ]
                    ),
                    "{heard:?}"
                );
            } else {
                assert!(heard.is_empty(), "txn {txn:#x}: {heard:?}");
            }
        }
    }

    /// The lease bookkeeping this device had before its lease entries, kept
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
            let mut soonest = HashMap::new();
            for &Reverse((due, owner, stage)) in &self.dev.leases {
                let entry = soonest.entry((owner, stage)).or_insert(due);
                *entry = due.min(*entry);
            }
            for (key, &until) in slots.iter().filter(|(_, &until)| until != SimTime::MAX) {
                let due = soonest.get(key).copied();
                assert!(due.is_some_and(|due| due <= until), "{key:?}: {due:?}");
            }
            let stats = self.dev.stats.lock();
            assert_eq!(stats.lease_reaps, self.reference.reaps);
            assert_eq!(stats.last_reap_at, self.reference.last_reap_at);
            let recount: usize = self.dev.services.values().map(Slot::rule_count).sum();
            assert_eq!(stats.rule_count, recount);
        }

        /// After a command or a fire the reaper is set no later than the
        /// soonest entry (or now, for one already past).
        fn check_reaper(&self, now: SimTime) {
            if let Some(&Reverse((due, ..))) = self.dev.leases.peek() {
                let at = self.dev.reaper.map(|(at, _)| at);
                assert!(at.is_some_and(|at| at <= due.max(now)), "{at:?} > {due:?}");
            }
        }
    }

    impl NodeAgent for Lockstep {
        fn name(&self) -> &'static str {
            "lockstep"
        }

        fn on_control(&mut self, ctx: &mut AgentCtx<'_>, msg: &ControlMsg) {
            self.dev.on_control(ctx, msg);
            self.mirror(msg.get::<DeviceCommand>().expect("only commands are sent"));
            self.check_reaper(ctx.now);
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
            self.check_reaper(ctx.now);
        }

        fn on_crash(&mut self, ctx: &mut AgentCtx<'_>) {
            self.reference.leases.clear();
            self.dev.on_crash(ctx);
            self.check();
        }
    }

    #[test]
    fn lease_heap_reaps_what_a_whole_table_scan_would() {
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
            // Finite leases through `apply` set no reaper.
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
