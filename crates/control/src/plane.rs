//! The live control plane: protocol agents for the Fig. 4 registration and
//! Fig. 5 deployment sequences.
//!
//! Four roles from the paper's network model (Fig. 3) run as simulator
//! agents exchanging out-of-band control messages with realistic
//! path-propagation delays, so experiment E7 can measure real end-to-end
//! control-plane latency:
//!
//! * [`AuthorityAgent`] — the Internet number authority;
//! * [`TcspAgent`] — the traffic control service provider (one-stop
//!   registration, request fan-out to ISPs);
//! * [`NmsAgent`] — an ISP's network management system, driving the
//!   adaptive devices on that ISP's routers;
//! * [`UserAgent`] — a network user stepping towards one goal (registered
//!   and deployed, later withdrawn), again after a leg gives up, with a
//!   timeout fallback straight to the ISPs when the TCSP is unreachable
//!   (Sec. 5.1: "particularly useful if … the TCSP can no longer be
//!   reached, e.g. because of an ongoing DDoS attack on the TCSP").
//!
//! The channel between agents is *faulty* when a
//! [`FaultPlane`](dtcs_netsim::FaultPlane) is installed: any message may
//! be dropped, duplicated, or delayed, and devices may crash. Every
//! request therefore carries a [`MsgKey`] and is retransmitted on a capped
//! exponential backoff until acked (see [`retry`](crate::retry));
//! receivers deduplicate by key and answer duplicate requests from
//! done-caches, so the end-to-end effect of every transaction is
//! exactly-once. Desired state is kept standing by one message per device
//! per NMS round ([`NmsAgent::with_refresh`]): a
//! [`DeviceCommand::Refresh`] carrying the device's whole desired slice,
//! which installs what the device lacks and renews every lease, and is
//! answered with the slots it did not name, which the NMS removes. A
//! rebooted device announces itself (an empty [`DeviceReply::Inventory`],
//! repeated until answered) and gets its refresh at once.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dtcs_device::{
    DeviceCommand, DeviceReply, OwnerId, Provision, ServiceSpec, Stage, RECONCILE_TXN,
};
use dtcs_netsim::{
    AgentCtx, ControlMsg, CpActor, CpMeta, CpOutcome, CpState, CpTraceEvent, NodeAgent, NodeId,
    Prefix, SimDuration, SimTime,
};

use crate::authority::InternetNumberAuthority;
use crate::catalog::CatalogService;
use crate::identity::{Certificate, UserId};
use crate::retry::{
    Admission, CpStatsHandle, Dedup, FanIn, Fired, Leg, LegMsg, MsgKey, Relay, Retransmitter,
    RetryPolicy, FAMILY_MASK,
};

/// Per-message processing overhead added on top of path propagation.
const PROC_DELAY: SimDuration = SimDuration(2_000_000); // 2 ms

/// Scope of a deployment request (Fig. 5: "the network user may scope the
/// deployment according to different criteria (e.g. only on border routers
/// of stub networks)").
#[derive(Clone, Debug, PartialEq)]
pub enum DeployScope {
    /// Every device-equipped router of every contracted ISP.
    AllManaged,
    /// Only transit routers with stub customers (stub borders).
    StubBorders,
}

/// Why a registration failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegistrationError {
    /// The number authority denied ownership of a claimed prefix.
    OwnershipDenied,
}

/// Control-plane messages. A body carries only its content: the
/// transaction is the envelope's [`MsgKey`] and the sender is
/// [`ControlMsg::from`], and every answer goes to the sender of its request
/// under the request's key.
#[derive(Clone, Debug)]
pub enum CpMsg {
    /// User → TCSP: register for the TC service (Fig. 4).
    RegisterRequest {
        /// The requesting user.
        user: UserId,
        /// Claimed prefixes.
        claimed: Vec<Prefix>,
    },
    /// TCSP → authority: verify claimed ownership, a leg of the user's
    /// registration.
    VerifyOwnership {
        /// The claiming user.
        user: UserId,
        /// Claimed prefixes.
        prefixes: Vec<Prefix>,
    },
    /// Authority → TCSP: verification result.
    OwnershipResult {
        /// Ownership confirmed?
        ok: bool,
    },
    /// TCSP → user: registration outcome with certificate.
    RegisterConfirm {
        /// The certificate, or the failure reason.
        result: Result<Certificate, RegistrationError>,
    },
    /// User → TCSP, or user → NMS (fallback): deploy a catalog service.
    DeployRequest {
        /// Authorisation.
        cert: Certificate,
        /// Service to deploy.
        service: CatalogService,
        /// Deployment scope.
        scope: DeployScope,
        /// The requesting user's node, to confirm to: a peer NMS forwards
        /// the request on the user's behalf.
        reply_to: NodeId,
        /// When true, the receiving NMS forwards the request to its peer
        /// NMSes (ISP-to-ISP propagation, Sec. 5.1).
        forward_to_peers: bool,
    },
    /// TCSP → NMS: deploy on this ISP's listed routers.
    NmsDeploy {
        /// Authorisation.
        cert: Certificate,
        /// Service to deploy.
        service: CatalogService,
        /// Managed nodes to configure.
        nodes: Vec<NodeId>,
        /// The requesting user's node, where the devices send the owner's
        /// telemetry.
        contact: NodeId,
    },
    /// NMS → TCSP or user: devices configured.
    NmsAck {
        /// Devices successfully configured.
        configured: usize,
        /// Installs rejected by device safety verifiers.
        rejected: usize,
    },
    /// TCSP → user: whole deployment confirmed.
    DeployConfirm {
        /// Total devices configured.
        configured: usize,
        /// Total rejected installs.
        rejected: usize,
        /// ISPs that acked.
        isps: usize,
        /// ISPs that never acked within the retry budget (non-zero marks
        /// a *partial* confirmation). An ISP that accepted the deployment
        /// holds its devices to it; one never reached installs nothing.
        isps_missing: usize,
    },
    /// User → NMS or TCSP: post-deployment operation (activate, tune,
    /// read logs) relayed to devices.
    OpRequest {
        /// Authorisation.
        cert: Certificate,
        /// Operation to apply on every device of the user's deployment.
        op: UserOp,
    },
    /// User → TCSP: tear down every service deployed under this
    /// certificate. Accepted on an *authentic* certificate even past its
    /// expiry — reducing one's own footprint is always safe (see
    /// [`Certificate::authentic`]).
    WithdrawRequest {
        /// Authorisation (signature checked; freshness deliberately not).
        cert: Certificate,
    },
    /// TCSP → NMS: remove this owner's services from every managed
    /// device and drop them from desired state.
    NmsWithdraw {
        /// Owner whose services are withdrawn.
        owner: OwnerId,
    },
    /// NMS → TCSP: withdrawal executed on this ISP.
    NmsWithdrawAck {
        /// Device removals confirmed by this ISP.
        removed: usize,
    },
    /// TCSP → user: whole withdrawal confirmed.
    WithdrawConfirm {
        /// Total device removals confirmed.
        removed: usize,
        /// ISPs that acked.
        isps: usize,
        /// ISPs that never acked within the retry budget. Their devices
        /// still converge: every leased install reaps itself within one
        /// lease length of losing renewals.
        isps_missing: usize,
    },
}

impl CpMsg {
    /// Stable discriminant for dedup keys (one transaction can produce
    /// several message kinds; each deduplicates independently).
    pub fn kind_id(&self) -> u8 {
        match self {
            CpMsg::RegisterRequest { .. } => 1,
            CpMsg::VerifyOwnership { .. } => 2,
            CpMsg::OwnershipResult { .. } => 3,
            CpMsg::RegisterConfirm { .. } => 4,
            CpMsg::DeployRequest { .. } => 5,
            CpMsg::NmsDeploy { .. } => 6,
            CpMsg::NmsAck { .. } => 7,
            CpMsg::DeployConfirm { .. } => 8,
            CpMsg::OpRequest { .. } => 9,
            CpMsg::WithdrawRequest { .. } => 17,
            CpMsg::NmsWithdraw { .. } => 18,
            CpMsg::NmsWithdrawAck { .. } => 19,
            CpMsg::WithdrawConfirm { .. } => 20,
        }
    }
}

/// Which control-plane role a message is addressed to. Several roles can
/// share one node (a transit AS may host both the TCSP and its own NMS),
/// and node-level control delivery reaches every agent on the node, so
/// messages carry an explicit addressee role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The traffic control service provider.
    Tcsp,
    /// An ISP network management system.
    Nms,
    /// A network user.
    User,
    /// The Internet number authority.
    Authority,
}

/// Role-addressed control-plane message. `key` names the transaction
/// (responses echo the request's origin/txn) so receivers can deduplicate
/// under at-least-once delivery.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Addressee role.
    pub to: Role,
    /// Transaction identity (origin, txn, attempt).
    pub key: MsgKey,
    /// Payload.
    pub msg: CpMsg,
}

/// The flight-recorder tag for a message of `kind` sent under `id`.
fn meta(id: MsgKey, kind: u8) -> CpMeta {
    CpMeta {
        origin: id.origin,
        txn: id.txn,
        attempt: id.attempt,
        kind,
    }
}

/// Send an [`Envelope`] to `to`, arriving after the path's propagation
/// delay plus processing, tagged with its transaction identity so the
/// control-plane flight recorder (DESIGN.md §6.4) can follow the message
/// through the fault plane. The tag is observation-only.
fn send_env(ctx: &mut AgentCtx<'_>, to: NodeId, env: Envelope) {
    let delay = ctx.path_delay(to) + PROC_DELAY;
    let meta = meta(env.key, env.msg.kind_id());
    ctx.send_control_keyed(to, delay, env, meta);
}

/// Answer a relayed transaction: `msg` goes to its request's sender (a
/// `DeployRequest`'s `reply_to`), under the request's key.
fn answer<L>(ctx: &mut AgentCtx<'_>, to: Role, txn: u64, out: &FanIn<L>, msg: CpMsg) {
    let key = MsgKey::first(out.origin, txn);
    send_env(ctx, out.reply_to, Envelope { to, key, msg });
}

/// A request envelope minus its attempt counter: the payload of every
/// agent-to-agent transaction leg.
struct Request {
    to: Role,
    msg: CpMsg,
}

impl LegMsg for Request {
    fn send(&self, ctx: &mut AgentCtx<'_>, dest: NodeId, key: MsgKey) {
        let env = Envelope {
            to: self.to,
            key,
            msg: self.msg.clone(),
        };
        send_env(ctx, dest, env);
    }
}

/// Count and trace a duplicate receipt of `env`: a duplicate response
/// suppressed (`response`), or a duplicate request answered from a
/// done-cache.
fn dup_hit(ctx: &mut AgentCtx<'_>, cp: &CpStatsHandle, env: &Envelope, response: bool) {
    if response {
        cp.lock().dup_responses += 1;
    } else {
        cp.lock().dup_requests += 1;
    }
    ctx.cp_event(CpTraceEvent::DedupHit {
        t: ctx.now.0,
        origin: env.key.origin,
        txn: env.key.txn,
        kind: env.msg.kind_id(),
        node: ctx.node,
        response,
    });
}

/// Is the request in `env` new to its relay? A duplicate is counted and
/// traced, and answered again through `send` (under the request's txn,
/// from the cached outcome) when its transaction has settled — the first
/// answer was probably lost; one still running is left to its legs' own
/// retransmits.
fn admits<L, R>(
    ctx: &mut AgentCtx<'_>,
    cp: &CpStatsHandle,
    env: &Envelope,
    admission: Admission<'_, L, R>,
    send: impl FnOnce(&mut AgentCtx<'_>, u64, &FanIn<L>, &R),
) -> bool {
    match admission {
        Admission::New => return true,
        Admission::Running => dup_hit(ctx, cp, env, false),
        Admission::Done(out, with) => {
            dup_hit(ctx, cp, env, false);
            send(ctx, env.key.txn, out, with);
        }
    }
    false
}

/// Count and trace a duplicated or late device reply (origin recovered
/// from the message's trace tag when present).
fn reply_dup_hit(ctx: &mut AgentCtx<'_>, cp: &CpStatsHandle, msg: &ControlMsg, txn: u64, kind: u8) {
    cp.lock().dup_responses += 1;
    ctx.cp_event(CpTraceEvent::DedupHit {
        t: ctx.now.0,
        origin: msg.meta.map_or(0, |m| m.origin),
        txn,
        kind,
        node: ctx.node,
        response: true,
    });
}

/// Trace `actor` moving transaction `(origin, txn)` into `state`.
fn trace_state(ctx: &mut AgentCtx<'_>, origin: u64, txn: u64, actor: CpActor, state: CpState) {
    ctx.cp_event(CpTraceEvent::State {
        t: ctx.now.0,
        origin,
        txn,
        node: ctx.node,
        actor,
        state,
    });
}

/// Trace transaction `(origin, txn)` reaching the terminal `outcome`.
fn trace_terminal(ctx: &mut AgentCtx<'_>, origin: u64, txn: u64, outcome: CpOutcome) {
    ctx.cp_event(CpTraceEvent::Terminal {
        t: ctx.now.0,
        origin,
        txn,
        node: ctx.node,
        outcome,
    });
}

/// Post-deployment operations (Sec. 5.1: "activate, modify specific
/// parameters or read logs").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UserOp {
    /// Activate or deactivate the service.
    SetActive(Stage, bool),
    /// Enable/disable one module.
    SetModule(Stage, usize, bool),
}

// ---------------------------------------------------------------------
// Timer-token families. Low plain tokens (TOKEN_REGISTER…) keep their
// historical values; retransmitters and housekeeping timers live in the
// high 16 bits so they can never collide (see retry::FAMILY_MASK).
// ---------------------------------------------------------------------

const FAM_USER_REG: u64 = 0x0001 << 48;
const FAM_USER_DEPLOY: u64 = 0x0002 << 48;
const FAM_TCSP_VERIFY: u64 = 0x0003 << 48;
const FAM_TCSP_DEPLOY: u64 = 0x0004 << 48;
const FAM_NMS_INSTALL: u64 = 0x0006 << 48;
const FAM_TCSP_WITHDRAW: u64 = 0x0009 << 48;
const FAM_NMS_REMOVE: u64 = 0x000A << 48;
const FAM_USER_WITHDRAW: u64 = 0x000B << 48;

/// Timer token that starts one NMS refresh round (the scenario schedules
/// the first; the agent re-arms itself every
/// [`ControlPlaneConfig::refresh_every`](crate::scenario::ControlPlaneConfig::refresh_every)).
pub const TOKEN_REFRESH: u64 = 0x0007 << 48;

// Flight-recorder message-kind ids for raw device commands, continuing
// [`CpMsg::kind_id`]'s 1–9 numbering (device replies answer with 13–16
// and 22, see `DeviceReply::kind_id`; withdrawal CpMsgs use 17–20). 10
// stays unused: the owner registration rides inside the install.
const KIND_INSTALL_SERVICE: u8 = 11;
const KIND_REFRESH: u8 = 12;
const KIND_REMOVE_SERVICE: u8 = 21;

/// The number authority as an agent. Verification is pure, so the agent
/// is naturally idempotent: a duplicated request just recomputes and
/// re-sends the same result.
pub struct AuthorityAgent {
    registry: InternetNumberAuthority,
}

impl AuthorityAgent {
    /// Wrap a registry.
    pub fn new(registry: InternetNumberAuthority) -> AuthorityAgent {
        AuthorityAgent { registry }
    }
}

impl NodeAgent for AuthorityAgent {
    fn name(&self) -> &'static str {
        "number-authority"
    }

    fn on_control(&mut self, ctx: &mut AgentCtx<'_>, msg: &ControlMsg) {
        let Some(env) = msg.get::<Envelope>() else {
            return;
        };
        if env.to != Role::Authority {
            return;
        }
        if let CpMsg::VerifyOwnership { user, prefixes } = &env.msg {
            let ok = self.registry.verify_claim(*user, prefixes).is_ok();
            let result = Envelope {
                to: Role::Tcsp,
                key: MsgKey::first(env.key.origin, env.key.txn),
                msg: CpMsg::OwnershipResult { ok },
            };
            send_env(ctx, msg.from, result);
        }
    }
}

/// One contracted ISP from the TCSP's point of view.
#[derive(Clone, Debug)]
pub struct IspContract {
    /// Where the ISP's NMS agent lives.
    pub nms_node: NodeId,
    /// Routers (nodes) this ISP manages; each carries an adaptive device.
    pub managed: Vec<NodeId>,
}

/// What the TCSP keeps with a registration, which it relays under the
/// `(origin, txn)` of the user's request to one leg: the authority.
struct Registration {
    user: UserId,
    claimed: Vec<Prefix>,
    /// The answer, once the authority gave its verdict.
    result: Option<Result<Certificate, RegistrationError>>,
}

/// TCSP observability.
#[derive(Clone, Debug, Default)]
pub struct TcspStats {
    /// Registrations completed successfully.
    pub registrations_ok: u64,
    /// Registrations denied.
    pub registrations_denied: u64,
}

/// The traffic control service provider.
pub struct TcspAgent {
    key: u64,
    authority_node: NodeId,
    cert_lifetime: SimDuration,
    isps: Vec<IspContract>,
    /// Availability switch: scenario code flips this
    /// ([`TcspAgent::set_available`]) to simulate a DDoS against the TCSP
    /// itself (requests are silently dropped).
    available: bool,
    /// Registrations by the user's `(origin, txn)`; a leg is the authority
    /// node asked.
    registrations: Relay<(u64, u64), NodeId, Request, Registration>,
    /// Deployments and withdrawals, by txn; a leg is the NMS node asked.
    /// A deployment settles when every leg acked or gave up: within one
    /// retry budget of its fan-out.
    deploys: Relay<u64, NodeId, Request>,
    withdraws: Relay<u64, NodeId, Request>,
    stats: TcspStats,
    cp: CpStatsHandle,
}

impl TcspAgent {
    /// New, available TCSP with signing `key` and contracted ISPs.
    pub fn new(key: u64, authority_node: NodeId, isps: Vec<IspContract>) -> TcspAgent {
        let policy = RetryPolicy::default();
        TcspAgent {
            key,
            authority_node,
            cert_lifetime: SimDuration::from_secs(86_400),
            isps,
            available: true,
            registrations: Relay::new(FAM_TCSP_VERIFY, policy, key ^ 0xA),
            deploys: Relay::new(FAM_TCSP_DEPLOY, policy, key ^ 0xB),
            withdraws: Relay::new(FAM_TCSP_WITHDRAW, policy, key ^ 0x1F),
            stats: TcspStats::default(),
            cp: CpStatsHandle::default(),
        }
    }

    /// The TCSP's registration counters.
    pub fn stats(&self) -> &TcspStats {
        &self.stats
    }

    /// Take the TCSP down (`false`) or bring it back: while down it
    /// silently drops every request, as under a DDoS against itself.
    pub fn set_available(&mut self, available: bool) {
        self.available = available;
    }

    /// Share the control-plane-wide reliability counters.
    pub fn with_cp_stats(mut self, cp: CpStatsHandle) -> TcspAgent {
        self.cp = cp;
        self
    }

    /// Override the lifetime of issued certificates (default 24 h).
    /// Short lifetimes let scenarios exercise mid-flight credential
    /// expiry: deploys presented (or retried) past the expiry are
    /// rejected and counted in `CpStats::expired_deploys`.
    pub fn with_cert_lifetime(mut self, lifetime: SimDuration) -> TcspAgent {
        self.cert_lifetime = lifetime;
        self
    }

    fn resolve_scope(ctx: &AgentCtx<'_>, managed: &[NodeId], scope: &DeployScope) -> Vec<NodeId> {
        match scope {
            DeployScope::AllManaged => managed.to_vec(),
            DeployScope::StubBorders => managed
                .iter()
                .copied()
                .filter(|&n| {
                    ctx.topo.nodes[n.0].role == dtcs_netsim::NodeRole::Transit
                        && ctx
                            .topo
                            .neighbours(n)
                            .any(|(p, _)| ctx.topo.is_customer_of(p, n))
                })
                .collect(),
        }
    }

    fn send_register_confirm(
        ctx: &mut AgentCtx<'_>,
        txn: u64,
        out: &FanIn<NodeId>,
        reg: &Registration,
    ) {
        if let Some(result) = reg.result.clone() {
            answer(ctx, Role::User, txn, out, CpMsg::RegisterConfirm { result });
        }
    }

    fn send_deploy_confirm(ctx: &mut AgentCtx<'_>, txn: u64, out: &FanIn<NodeId>, _: &()) {
        let confirm = CpMsg::DeployConfirm {
            configured: out.done,
            rejected: out.refused,
            isps: out.acked(),
            isps_missing: out.lost(),
        };
        answer(ctx, Role::User, txn, out, confirm);
    }

    /// Confirm a deployment to the user once every ISP resolved, counting
    /// a partial confirmation when ISPs are missing.
    fn confirm_deploy(&mut self, ctx: &mut AgentCtx<'_>, txn: u64) {
        let Some((out, with)) = self.deploys.settle(txn) else {
            return;
        };
        if out.lost() > 0 {
            self.cp.lock().partial_confirms += 1;
            trace_state(ctx, out.origin, txn, CpActor::Tcsp, CpState::PartialConfirm);
        }
        Self::send_deploy_confirm(ctx, txn, out, with);
    }

    fn send_withdraw_confirm(ctx: &mut AgentCtx<'_>, txn: u64, out: &FanIn<NodeId>, _: &()) {
        let confirm = CpMsg::WithdrawConfirm {
            removed: out.done,
            isps: out.acked(),
            isps_missing: out.lost(),
        };
        answer(ctx, Role::User, txn, out, confirm);
    }

    /// Confirm a withdrawal to the user once every ISP resolved. Missing
    /// ISPs are not chased further — their devices reap the orphaned
    /// filters themselves when the lease runs out.
    fn confirm_withdraw(&mut self, ctx: &mut AgentCtx<'_>, txn: u64) {
        if let Some((out, with)) = self.withdraws.settle(txn) {
            Self::send_withdraw_confirm(ctx, txn, out, with);
        }
    }

    /// Record a credential rejected for staleness (authentic signature,
    /// expired lifetime): counter and trace event stay 1:1.
    fn note_expired_deploy(&mut self, ctx: &mut AgentCtx<'_>, origin: u64, txn: u64) {
        self.cp.lock().expired_deploys += 1;
        trace_state(ctx, origin, txn, CpActor::Tcsp, CpState::CertExpired);
    }
}

impl NodeAgent for TcspAgent {
    fn name(&self) -> &'static str {
        "tcsp"
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        match token & FAMILY_MASK {
            FAM_TCSP_VERIFY => {
                let fired = self.registrations.on_timer(ctx, &self.cp, token, |_| false);
                if let Fired::GaveUp(leg) = fired {
                    // Authority unreachable: forget the attempt so a fresh
                    // user retry can restart verification.
                    self.registrations.forget(leg.key.0);
                }
            }
            FAM_TCSP_DEPLOY => {
                // A credential that expired while its leg was still
                // retrying: no filter may be installed under a dead
                // authority, so the retransmit is refused.
                let (key, now) = (self.key, ctx.now);
                let expired = |leg: &Leg<_, Request>| {
                    matches!(&leg.payload.msg, CpMsg::NmsDeploy { cert, .. }
                        if !cert.verify(key, now) && cert.authentic(key))
                };
                // Either way the ISP counts missing; the confirmation goes
                // out partial once every other ISP resolved.
                match self.deploys.on_timer(ctx, &self.cp, token, expired) {
                    Fired::Vetoed(leg) => {
                        self.note_expired_deploy(ctx, leg.id.origin, leg.id.txn);
                        self.confirm_deploy(ctx, leg.id.txn);
                    }
                    Fired::GaveUp(leg) => self.confirm_deploy(ctx, leg.id.txn),
                    Fired::Resent => {}
                }
            }
            FAM_TCSP_WITHDRAW => {
                let fired = self.withdraws.on_timer(ctx, &self.cp, token, |_| false);
                if let Fired::GaveUp(leg) = fired {
                    // Partition-tolerant teardown: the unreachable ISP's
                    // devices still reap their filters when the lease runs
                    // out, so give up here and confirm with what we have.
                    self.confirm_withdraw(ctx, leg.id.txn);
                }
            }
            _ => {}
        }
    }

    fn on_control(&mut self, ctx: &mut AgentCtx<'_>, msg: &ControlMsg) {
        let Some(env) = msg.get::<Envelope>() else {
            return;
        };
        if env.to != Role::Tcsp {
            return;
        }
        if !self.available {
            return;
        }
        match &env.msg {
            CpMsg::RegisterRequest { user, claimed } => {
                let user_key @ (origin, txn) = env.key.identity();
                let admission = self.registrations.admit(user_key);
                if !admits(ctx, &self.cp, env, admission, Self::send_register_confirm) {
                    return;
                }
                let registration = Registration {
                    user: *user,
                    claimed: claimed.clone(),
                    result: None,
                };
                let verify = Request {
                    to: Role::Authority,
                    msg: CpMsg::VerifyOwnership {
                        user: *user,
                        prefixes: claimed.clone(),
                    },
                };
                let to = self.authority_node;
                self.registrations
                    .track(ctx, (user_key, to), to, origin, txn, verify);
                self.registrations
                    .open(user_key, origin, msg.from, 1, registration);
                trace_state(ctx, origin, txn, CpActor::Tcsp, CpState::VerifySent);
            }
            CpMsg::OwnershipResult { ok } => {
                let user_key @ (origin, txn) = env.key.identity();
                let (granted, denied) = (usize::from(*ok), usize::from(!*ok));
                if !self
                    .registrations
                    .ack(ctx, user_key, msg.from, granted, denied)
                {
                    dup_hit(ctx, &self.cp, env, true);
                    return;
                }
                let Some((out, reg)) = self.registrations.settle(user_key) else {
                    return;
                };
                let result = if out.done > 0 {
                    trace_state(ctx, origin, txn, CpActor::Tcsp, CpState::RegisterConfirmed);
                    self.stats.registrations_ok += 1;
                    Ok(Certificate::issue(
                        self.key,
                        reg.user,
                        reg.claimed.clone(),
                        ctx.now + self.cert_lifetime,
                    ))
                } else {
                    trace_state(ctx, origin, txn, CpActor::Tcsp, CpState::RegisterDenied);
                    self.stats.registrations_denied += 1;
                    Err(RegistrationError::OwnershipDenied)
                };
                reg.result = Some(result);
                Self::send_register_confirm(ctx, txn, out, reg);
            }
            CpMsg::DeployRequest {
                cert,
                service,
                scope,
                reply_to,
                ..
            } => {
                let MsgKey { origin, txn, .. } = env.key;
                let admission = self.deploys.admit(txn);
                if !admits(ctx, &self.cp, env, admission, Self::send_deploy_confirm) {
                    return;
                }
                if !cert.verify(self.key, ctx.now) {
                    if cert.authentic(self.key) {
                        // Genuine credential whose lifetime ran out
                        // (e.g. while the request sat in a retry queue):
                        // refuse to extend a dead authority's footprint,
                        // and account for it so the gap is observable.
                        self.note_expired_deploy(ctx, origin, txn);
                    }
                    return;
                }
                trace_state(ctx, origin, txn, CpActor::Tcsp, CpState::DeployFanout);
                let mut legs = 0;
                for isp in &self.isps {
                    let nodes = Self::resolve_scope(ctx, &isp.managed, scope);
                    if nodes.is_empty() {
                        continue;
                    }
                    let deploy = Request {
                        to: Role::Nms,
                        msg: CpMsg::NmsDeploy {
                            cert: cert.clone(),
                            service: service.clone(),
                            nodes,
                            contact: *reply_to,
                        },
                    };
                    let nms = isp.nms_node;
                    self.deploys
                        .track(ctx, (txn, nms), nms, origin, txn, deploy);
                    legs += 1;
                }
                self.deploys.open(txn, origin, *reply_to, legs, ());
                // Confirms at once when nothing matched the scope.
                self.confirm_deploy(ctx, txn);
            }
            CpMsg::NmsAck {
                configured,
                rejected,
            } => {
                let txn = env.key.txn;
                if self.deploys.ack(ctx, txn, msg.from, *configured, *rejected) {
                    self.confirm_deploy(ctx, txn);
                } else {
                    dup_hit(ctx, &self.cp, env, true);
                }
            }
            CpMsg::OpRequest { cert, .. } => {
                if !cert.verify(self.key, ctx.now) {
                    return;
                }
                // Relay to every contracted NMS.
                for isp in &self.isps {
                    let relayed = Envelope {
                        to: Role::Nms,
                        key: env.key,
                        msg: env.msg.clone(),
                    };
                    send_env(ctx, isp.nms_node, relayed);
                }
            }
            CpMsg::WithdrawRequest { cert } => {
                let MsgKey { origin, txn, .. } = env.key;
                let admission = self.withdraws.admit(txn);
                if !admits(ctx, &self.cp, env, admission, Self::send_withdraw_confirm) {
                    return;
                }
                // Withdrawal only *shrinks* the owner's footprint, so an
                // expired-but-genuine certificate is still honoured; a
                // forged one is not.
                if !cert.authentic(self.key) {
                    return;
                }
                self.cp.lock().withdrawals += 1;
                trace_state(ctx, origin, txn, CpActor::Tcsp, CpState::WithdrawFanout);
                for isp in &self.isps {
                    let withdraw = Request {
                        to: Role::Nms,
                        msg: CpMsg::NmsWithdraw {
                            owner: OwnerId(cert.user.0),
                        },
                    };
                    let nms = isp.nms_node;
                    self.withdraws
                        .track(ctx, (txn, nms), nms, origin, txn, withdraw);
                }
                self.withdraws
                    .open(txn, origin, msg.from, self.isps.len(), ());
                self.confirm_withdraw(ctx, txn);
            }
            CpMsg::NmsWithdrawAck { removed } => {
                let txn = env.key.txn;
                if self.withdraws.ack(ctx, txn, msg.from, *removed, 0) {
                    self.confirm_withdraw(ctx, txn);
                } else {
                    dup_hit(ctx, &self.cp, env, true);
                }
            }
            _ => {}
        }
    }
}

/// Everything an NMS needs to (re-)provision one service on one device:
/// registration context plus the compiled spec. Built once per accepted
/// deployment and shared: its desired-state entries, and every install
/// and refresh entry sent for them, hold the same job. Where a
/// leg's job stands in desired state ([`InstallJob::key_on`]) decides
/// whether the leg may be sent again.
struct InstallJob {
    owner: OwnerId,
    /// The [`DeviceCommand::RegisterOwner`] every install carries: the
    /// owner's prefixes, telemetry to the requesting user. The same for
    /// every send, so every send shares this one.
    register: Arc<DeviceCommand>,
    stage: Stage,
    spec: ServiceSpec,
    /// Expiry of the authorising certificate. Leases granted to devices
    /// never extend past it: no filter outlives its authority.
    expires_at: SimTime,
    /// Lease granted with each send (None = lease only to `expires_at`).
    lease_len: Option<SimDuration>,
}

/// A desired-state key: `(device, owner, stage, spec content hash)`.
type DesiredKey = (NodeId, OwnerId, Stage, u64);

impl InstallJob {
    /// Where this job stands in desired state on `node`.
    fn key_on(&self, node: NodeId) -> DesiredKey {
        (node, self.owner, self.stage, self.spec.content_hash())
    }

    /// Register the owner and install the service under `txn`, leased from
    /// `now`.
    fn provision(&self, now: SimTime, txn: u64) -> Provision {
        let lease_until = match self.lease_len {
            Some(len) => (now + len).min(self.expires_at),
            None => self.expires_at,
        };
        Provision {
            register: self.register.clone(),
            install: DeviceCommand::InstallService {
                txn,
                owner: self.owner,
                stage: self.stage,
                spec: self.spec.clone(),
                lease_until,
            },
        }
    }
}

impl LegMsg for Arc<InstallJob> {
    /// A tracked install: one [`Provision`], which takes the NMS two
    /// processing steps, under the deploy's key.
    fn send(&self, ctx: &mut AgentCtx<'_>, node: NodeId, id: MsgKey) {
        let provision = self.provision(ctx.now, id.txn);
        let delay = ctx.path_delay(node) + PROC_DELAY + PROC_DELAY;
        ctx.send_control_keyed(node, delay, provision, meta(id, KIND_INSTALL_SERVICE));
    }
}

/// One service to take off one device.
struct Removal {
    owner: OwnerId,
    stage: Stage,
}

impl LegMsg for Removal {
    fn send(&self, ctx: &mut AgentCtx<'_>, node: NodeId, id: MsgKey) {
        let delay = ctx.path_delay(node) + PROC_DELAY;
        let remove = DeviceCommand::RemoveService {
            owner: self.owner,
            stage: self.stage,
            txn: id.txn,
        };
        ctx.send_control_keyed(node, delay, remove, meta(id, KIND_REMOVE_SERVICE));
    }
}

/// An ISP's network management system.
pub struct NmsAgent {
    tcsp_key: u64,
    /// Device-equipped routers this ISP manages.
    managed: Vec<NodeId>,
    /// Peer NMS nodes for ISP-to-ISP forwarding.
    peers: Vec<NodeId>,
    /// Deployments by txn, each with the role to ack in; a leg is the
    /// device installed on.
    deploys: Relay<u64, NodeId, Arc<InstallJob>, Role>,
    /// What should stand, per device: every managed node of an accepted
    /// deployment, written when the NMS accepts it — before any device
    /// answers — and taken out only by the device rejecting the install,
    /// the owner's withdrawal or the credential's expiry. Each refresh
    /// sends a device its slice, which installs what it lacks and
    /// re-leases the rest; an install leg whose entry left is not sent
    /// again. An install the NMS gave up on keeps its entry, so the next
    /// refresh repairs it.
    desired: BTreeMap<DesiredKey, Arc<InstallJob>>,
    /// Withdrawals by txn; a leg is one `(device, stage)` removal.
    withdraws: Relay<u64, (NodeId, Stage), Removal>,
    /// Refresh period and lease length ([`NmsAgent::with_refresh`]).
    refresh_every: Option<SimDuration>,
    lease_len: Option<SimDuration>,
    cp: CpStatsHandle,
}

impl NmsAgent {
    /// New NMS managing `managed` routers.
    pub fn new(tcsp_key: u64, managed: Vec<NodeId>, peers: Vec<NodeId>) -> NmsAgent {
        let policy = RetryPolicy::default();
        NmsAgent {
            tcsp_key,
            managed,
            peers,
            deploys: Relay::new(FAM_NMS_INSTALL, policy, tcsp_key ^ 0xC),
            desired: BTreeMap::new(),
            withdraws: Relay::new(FAM_NMS_REMOVE, policy, tcsp_key ^ 0x3E),
            refresh_every: None,
            lease_len: None,
            cp: CpStatsHandle::default(),
        }
    }

    /// Send every managed device its refresh each `every`, and lease every
    /// install and refresh for `lease` (None = to the credential's expiry).
    /// The scenario must also schedule the first [`TOKEN_REFRESH`] timer;
    /// the agent re-arms itself thereafter.
    pub fn with_refresh(mut self, every: Option<SimDuration>, lease: Option<SimDuration>) -> Self {
        (self.refresh_every, self.lease_len) = (every, lease);
        self
    }

    /// Share the control-plane-wide reliability counters.
    pub fn with_cp_stats(mut self, cp: CpStatsHandle) -> NmsAgent {
        self.cp = cp;
        self
    }

    /// Deploy on those of `nodes` this ISP manages, with the owner's
    /// telemetry to `contact`, and ack to `reply`, when the deploy request
    /// in `env` is new and carries a valid credential. False when it was
    /// refused or a duplicate.
    fn deploy_on(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        env: &Envelope,
        (cert, service): (&Certificate, &CatalogService),
        nodes: &[NodeId],
        contact: NodeId,
        (reply_to, reply_role): (NodeId, Role),
    ) -> bool {
        let MsgKey { origin, txn, .. } = env.key;
        let admission = self.deploys.admit(txn);
        if !admits(ctx, &self.cp, env, admission, Self::send_nms_ack)
            || !cert.verify(self.tcsp_key, ctx.now)
        {
            return false;
        }
        let owner = OwnerId(cert.user.0);
        let job = Arc::new(InstallJob {
            owner,
            register: Arc::new(DeviceCommand::RegisterOwner {
                owner,
                prefixes: cert.prefixes.clone(),
                contact,
            }),
            stage: service.stage(),
            spec: service.compile(),
            expires_at: cert.expires_at,
            lease_len: self.lease_len,
        });
        trace_state(ctx, origin, txn, CpActor::Nms, CpState::DeployAccepted);
        let mut legs = BTreeSet::new();
        for &node in nodes {
            if !self.managed.contains(&node) {
                continue;
            }
            self.desired.insert(job.key_on(node), job.clone());
            self.deploys
                .track(ctx, (txn, node), node, origin, txn, job.clone());
            legs.insert(node);
        }
        self.deploys
            .open(txn, origin, reply_to, legs.len(), reply_role);
        self.ack_deploy(ctx, txn);
        true
    }

    fn send_nms_ack(ctx: &mut AgentCtx<'_>, txn: u64, out: &FanIn<NodeId>, to: &Role) {
        let ack = CpMsg::NmsAck {
            configured: out.done,
            rejected: out.refused,
        };
        answer(ctx, *to, txn, out, ack);
    }

    /// Ack a deployment once every device resolved.
    fn ack_deploy(&mut self, ctx: &mut AgentCtx<'_>, txn: u64) {
        if let Some((out, role)) = self.deploys.settle(txn) {
            Self::send_nms_ack(ctx, txn, out, role);
        }
    }

    fn send_withdraw_ack(ctx: &mut AgentCtx<'_>, txn: u64, out: &FanIn<(NodeId, Stage)>, _: &()) {
        let ack = CpMsg::NmsWithdrawAck { removed: out.done };
        answer(ctx, Role::Tcsp, txn, out, ack);
    }

    /// Ack a withdrawal once every removal resolved.
    fn ack_withdraw(&mut self, ctx: &mut AgentCtx<'_>, txn: u64) {
        if let Some((out, with)) = self.withdraws.settle(txn) {
            Self::send_withdraw_ack(ctx, txn, out, with);
        }
    }

    /// One round: expire desired-state entries whose authorising
    /// certificate lapsed, then send every managed device its refresh. A
    /// refresh the channel loses is repeated by the next round; the round
    /// is terminal once its refreshes are out.
    fn refresh_round(&mut self, ctx: &mut AgentCtx<'_>) {
        let now = ctx.now;
        for _ in self.desired.extract_if(.., |_, job| job.expires_at <= now) {
            self.cp.lock().lease_expirations += 1;
            trace_state(ctx, 0, RECONCILE_TXN, CpActor::Nms, CpState::DesiredExpired);
            trace_terminal(ctx, 0, RECONCILE_TXN, CpOutcome::Expired);
        }
        {
            let mut cp = self.cp.lock();
            cp.reconcile_sweeps += 1;
            cp.lease_renewals += self.desired.len() as u64;
        }
        ctx.cp_event(CpTraceEvent::Sweep {
            t: ctx.now.0,
            node: ctx.node,
        });
        for &node in &self.managed {
            self.refresh(ctx, node, CpState::Renew);
        }
        trace_terminal(ctx, 0, RECONCILE_TXN, CpOutcome::Renewed);
    }

    /// Send `node` its refresh, untracked: every desired entry on it, each
    /// traced as entering `state`, in one message that takes the NMS two
    /// processing steps, as an install does. Returns how many.
    fn refresh(&self, ctx: &mut AgentCtx<'_>, node: NodeId, state: CpState) -> u64 {
        let on_node =
            (node, OwnerId(0), Stage::Src, 0)..=(node, OwnerId(u64::MAX), Stage::Dst, u64::MAX);
        let slice = self.desired.range(on_node);
        let holds: Vec<Provision> = slice
            .map(|(_, job)| {
                trace_state(ctx, 0, RECONCILE_TXN, CpActor::Nms, state);
                job.provision(ctx.now, RECONCILE_TXN)
            })
            .collect();
        let sent = holds.len() as u64;
        let delay = ctx.path_delay(node) + PROC_DELAY + PROC_DELAY;
        let id = meta(MsgKey::first(0, RECONCILE_TXN), KIND_REFRESH);
        ctx.send_control_keyed(node, delay, DeviceCommand::Refresh { holds }, id);
        sent
    }
}

impl NodeAgent for NmsAgent {
    fn name(&self) -> &'static str {
        "isp-nms"
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        match token & FAMILY_MASK {
            TOKEN_REFRESH => {
                self.refresh_round(ctx);
                if let Some(every) = self.refresh_every {
                    ctx.set_timer(every, TOKEN_REFRESH);
                }
            }
            FAM_NMS_INSTALL => {
                // An install whose entry left `desired` — the owner
                // withdrew, a device rejected the spec, or the credential
                // expired while it retried — is not sent again. Either way
                // the leg counts lost, and the ack goes out once every
                // other device resolved.
                let desired = &self.desired;
                let veto = |leg: &Leg<_, Arc<InstallJob>>| {
                    !desired.contains_key(&leg.payload.key_on(leg.dest))
                };
                match self.deploys.on_timer(ctx, &self.cp, token, veto) {
                    // Device unreachable past the retry budget. Its
                    // desired entry stays: each refresh round sends the
                    // install again.
                    Fired::GaveUp(leg) => {
                        let (origin, txn) = (leg.id.origin, leg.id.txn);
                        trace_state(ctx, origin, txn, CpActor::Nms, CpState::DeviceLost);
                        self.ack_deploy(ctx, txn);
                    }
                    Fired::Vetoed(leg) => self.ack_deploy(ctx, leg.id.txn),
                    Fired::Resent => {}
                }
            }
            FAM_NMS_REMOVE => {
                let fired = self.withdraws.on_timer(ctx, &self.cp, token, |_| false);
                if let Fired::GaveUp(leg) = fired {
                    // Device unreachable: the leg counts lost and its
                    // lease reaps the filter device-side.
                    self.ack_withdraw(ctx, leg.id.txn);
                }
            }
            _ => {}
        }
    }

    fn on_control(&mut self, ctx: &mut AgentCtx<'_>, msg: &ControlMsg) {
        if let Some(reply) = msg.get::<DeviceReply>() {
            match reply {
                DeviceReply::InstallOk { node, txn, .. }
                | DeviceReply::InstallRejected { node, txn, .. } => {
                    let ok = matches!(reply, DeviceReply::InstallOk { .. });
                    let Some(leg) = self.deploys.untrack(ctx, *txn, *node) else {
                        reply_dup_hit(ctx, &self.cp, msg, *txn, reply.kind_id());
                        return;
                    };
                    if !ok {
                        // A rejected spec never stands on this device.
                        self.desired.remove(&leg.payload.key_on(*node));
                    }
                    self.deploys
                        .ack(ctx, *txn, *node, usize::from(ok), usize::from(!ok));
                    let state = if ok {
                        CpState::DeviceInstalled
                    } else {
                        CpState::DeviceRejected
                    };
                    trace_state(ctx, leg.id.origin, *txn, CpActor::Nms, state);
                    self.ack_deploy(ctx, *txn);
                }
                // A rebooted device announcing itself with an empty
                // inventory: send it its refresh now.
                DeviceReply::Inventory { node, installed } if installed.is_empty() => {
                    let sent = self.refresh(ctx, *node, CpState::Reinstall);
                    self.cp.lock().reconcile_reinstalls += sent;
                }
                // The slots a refresh did not name: those with no
                // desired-state entry (any spec hash) are orphans — a
                // removal given up on, a withdrawn slot a refresh in flight
                // re-installed, a service never asked for — so remove them.
                // Desired state is read now, not when the refresh left, so
                // a deployment accepted since keeps its slot, and an install
                // still in flight has its entry from its acceptance.
                // Untracked: the next round repeats what a removal lost.
                DeviceReply::Inventory { node, installed } => {
                    let id = MsgKey::first(0, RECONCILE_TXN);
                    for &(owner, stage) in installed {
                        let hashes = (*node, owner, stage, 0)..=(*node, owner, stage, u64::MAX);
                        if self.desired.range(hashes).next().is_some() {
                            continue;
                        }
                        self.cp.lock().reconcile_removals += 1;
                        trace_state(ctx, 0, RECONCILE_TXN, CpActor::Nms, CpState::RemoveOrphan);
                        Removal { owner, stage }.send(ctx, *node, id);
                    }
                }
                DeviceReply::RemoveOk {
                    node, stage, txn, ..
                } => {
                    let Some(leg) = self.withdraws.untrack(ctx, *txn, (*node, *stage)) else {
                        reply_dup_hit(ctx, &self.cp, msg, *txn, reply.kind_id());
                        return;
                    };
                    self.cp.lock().withdraw_removes += 1;
                    trace_state(
                        ctx,
                        leg.id.origin,
                        *txn,
                        CpActor::Nms,
                        CpState::DeviceRemoved,
                    );
                    self.withdraws.ack(ctx, *txn, (*node, *stage), 1, 0);
                    self.ack_withdraw(ctx, *txn);
                }
                _ => {}
            }
            return;
        }
        let Some(env) = msg.get::<Envelope>() else {
            return;
        };
        if env.to != Role::Nms {
            return;
        }
        let origin = env.key.origin;
        match &env.msg {
            CpMsg::NmsDeploy {
                cert,
                service,
                nodes,
                contact,
            } => {
                let reply = (msg.from, Role::Tcsp);
                self.deploy_on(ctx, env, (cert, service), nodes, *contact, reply);
            }
            CpMsg::DeployRequest {
                cert,
                service,
                scope,
                reply_to,
                forward_to_peers,
            } => {
                // Direct user → ISP path (TCSP fallback).
                let nodes = TcspAgent::resolve_scope(ctx, &self.managed, scope);
                let reply = (*reply_to, Role::User);
                if !self.deploy_on(ctx, env, (cert, service), &nodes, *reply_to, reply) {
                    return;
                }
                if *forward_to_peers {
                    for &peer in &self.peers {
                        let forwarded = Envelope {
                            to: Role::Nms,
                            key: env.key,
                            msg: CpMsg::DeployRequest {
                                cert: cert.clone(),
                                service: service.clone(),
                                scope: scope.clone(),
                                reply_to: *reply_to,
                                forward_to_peers: false, // one-hop fan-out
                            },
                        };
                        send_env(ctx, peer, forwarded);
                    }
                }
            }
            CpMsg::OpRequest { cert, op, .. } => {
                if !cert.verify(self.tcsp_key, ctx.now) {
                    return;
                }
                let owner = OwnerId(cert.user.0);
                for &node in &self.managed {
                    let delay = ctx.path_delay(node) + PROC_DELAY;
                    let cmd = match op {
                        UserOp::SetActive(stage, active) => DeviceCommand::SetServiceActive {
                            owner,
                            stage: *stage,
                            active: *active,
                        },
                        UserOp::SetModule(stage, module, enabled) => {
                            DeviceCommand::SetModuleEnabled {
                                owner,
                                stage: *stage,
                                module: *module,
                                enabled: *enabled,
                            }
                        }
                    };
                    ctx.send_control(node, delay, cmd);
                }
            }
            CpMsg::NmsWithdraw { owner } => {
                let txn = env.key.txn;
                let admission = self.withdraws.admit(txn);
                if !admits(ctx, &self.cp, env, admission, Self::send_withdraw_ack) {
                    return;
                }
                // Drop the owner from desired state first, so no later
                // refresh carries its slots and no install still retrying
                // is sent again. Installs still in flight are victims too:
                // an attempt already on the wire may land, and so may a
                // refresh, which the next round's answer then undoes.
                let victims: BTreeSet<(NodeId, Stage)> = self
                    .desired
                    .keys()
                    .filter(|(_, o, ..)| o == owner)
                    .map(|(n, _, s, _)| (*n, *s))
                    .collect();
                self.desired.retain(|(_, o, ..), _| o != owner);
                for &(node, stage) in &victims {
                    let removal = Removal {
                        owner: *owner,
                        stage,
                    };
                    self.withdraws
                        .track(ctx, (txn, (node, stage)), node, origin, txn, removal);
                }
                self.withdraws
                    .open(txn, origin, msg.from, victims.len(), ());
                self.ack_withdraw(ctx, txn);
            }
            _ => {}
        }
    }
}

/// What a user agent records, for experiment E7.
#[derive(Clone, Debug, Default)]
pub struct UserRecord {
    /// Certificate received at.
    pub registered_at: Option<SimTime>,
    /// The certificate.
    pub cert: Option<Certificate>,
    /// Registration denied?
    pub denied: bool,
    /// RegisterRequest retransmits, over every registration attempt.
    pub register_retries: usize,
    /// Deployment confirmed at.
    pub deploy_confirmed_at: Option<SimTime>,
    /// Devices configured per the confirmation.
    pub devices_configured: usize,
    /// Rejected installs per the confirmation.
    pub installs_rejected: usize,
    /// ISPs the TCSP reported missing (partial confirmation).
    pub isps_missing: usize,
    /// ISP acks received on the fallback path.
    pub fallback_acks: usize,
    /// Did the user fall back to direct-ISP deployment?
    pub used_fallback: bool,
    /// Withdrawal confirmed at (scheduled via [`TOKEN_WITHDRAW`]).
    pub withdraw_confirmed_at: Option<SimTime>,
    /// Device removals the withdrawal confirmation reported.
    pub services_removed: usize,
}

/// Shared handle to a user's record.
#[allow(clippy::disallowed_types)] // A ledger shim until ROADMAP item 1 ports its reader.
pub type UserHandle = Arc<dtcs_netsim::sync::Mutex<UserRecord>>;

/// Timer token scenario code passes to
/// [`Simulator::schedule_agent_timer`](dtcs_netsim::Simulator::schedule_agent_timer)
/// to set a user agent's goal: its service registered and deployed.
pub const TOKEN_REGISTER: u64 = 1;
/// Step again: the deploy delay ran out, or a give-up waited out a budget.
const T_STEP: u64 = 2;
const T_TIMEOUT: u64 = 3;
/// How long a user waits on the TCSP's deployment before falling back to
/// direct-ISP deployment.
const DEPLOY_TIMEOUT: SimDuration = SimDuration::from_secs(5);
/// Timer token scenario code schedules on a user agent to turn its goal to
/// withdrawal: a [`CpMsg::WithdrawRequest`] takes down what it deployed.
pub const TOKEN_WITHDRAW: u64 = 4;

/// What the owner wants standing: its service from [`TOKEN_REGISTER`],
/// nothing from [`TOKEN_WITHDRAW`].
#[derive(Clone, Copy)]
enum Goal {
    Deployed,
    Withdrawn,
}

/// A network user driving registration, deployment and withdrawal towards
/// one goal; a leg that gives up re-arms the step that drives it.
pub struct UserAgent {
    /// User identity.
    pub user: UserId,
    /// Prefixes to claim.
    pub claim: Vec<Prefix>,
    /// TCSP location.
    pub tcsp_node: NodeId,
    /// Service to deploy once registered.
    pub service: CatalogService,
    /// Deployment scope.
    pub scope: DeployScope,
    /// Pause between receiving the certificate and sending the deploy
    /// request (lets scenarios stage TCSP outages between the two).
    pub deploy_delay: SimDuration,
    /// NMS nodes for the fallback path (first entry is contacted, with
    /// peer forwarding on).
    pub fallback_nms: Vec<NodeId>,
    txn: u64,
    /// None before [`TOKEN_REGISTER`], and once refused or withdrawn.
    goal: Option<Goal>,
    /// The last deploy sent to the TCSP (0: none ever), which the fallback abandons.
    tcsp_deploy_txn: u64,
    record: UserHandle,
    reg_rt: Retransmitter<u64, Request>,
    deploy_rt: Retransmitter<u64, Request>,
    withdraw_rt: Retransmitter<u64, Request>,
    dedup: Dedup,
    cp: CpStatsHandle,
}

impl UserAgent {
    /// New user agent; returns the shared record.
    ///
    /// The agent numbers its transactions `user << 16 | n`, so ids stay
    /// apart between users only while the shift drops no bits.
    ///
    /// # Panics
    /// If `user` is 2^48 or above.
    pub fn new(
        user: UserId,
        claim: Vec<Prefix>,
        tcsp_node: NodeId,
        service: CatalogService,
        scope: DeployScope,
    ) -> (UserAgent, UserHandle) {
        assert!(
            user.0 < 1 << 48,
            "user id {:#x} leaves no room for its transaction counter",
            user.0
        );
        let record = UserHandle::default();
        let (policy, fan_in) = (RetryPolicy::default(), RetryPolicy::over_fan_in());
        (
            UserAgent {
                user,
                claim,
                tcsp_node,
                service,
                scope,
                deploy_delay: SimDuration::ZERO,
                fallback_nms: Vec::new(),
                txn: user.0 << 16,
                goal: None,
                tcsp_deploy_txn: 0,
                record: record.clone(),
                reg_rt: Retransmitter::new(FAM_USER_REG, policy, user.0 ^ 0xD),
                deploy_rt: Retransmitter::new(FAM_USER_DEPLOY, fan_in, user.0 ^ 0xE),
                withdraw_rt: Retransmitter::new(FAM_USER_WITHDRAW, fan_in, user.0 ^ 0xF),
                dedup: Dedup::new(),
                cp: CpStatsHandle::default(),
            },
            record,
        )
    }

    /// Configure the fallback NMS list.
    pub fn with_fallback(mut self, nms: Vec<NodeId>) -> UserAgent {
        self.fallback_nms = nms;
        self
    }

    /// Configure the pause between registration and deployment.
    pub fn with_deploy_delay(mut self, delay: SimDuration) -> UserAgent {
        self.deploy_delay = delay;
        self
    }

    /// Share the control-plane-wide reliability counters.
    pub fn with_cp_stats(mut self, cp: CpStatsHandle) -> UserAgent {
        self.cp = cp;
        self
    }

    /// Move the goal on from what the record holds: register without a
    /// certificate; deploy once it was held for the deploy delay, until a
    /// deployment (a partial one too) is confirmed; withdraw if a deploy
    /// was ever sent. A leg in flight is left to its retransmitter.
    fn step(&mut self, ctx: &mut AgentCtx<'_>) {
        let r = self.record.lock();
        let (cert, confirmed) = (r.cert.clone(), r.deploy_confirmed_at.is_some());
        let fallback = r.used_fallback;
        let due = r.registered_at.map(|t| t + self.deploy_delay);
        drop(r);
        let (rt, to, msg) = match (self.goal, cert) {
            (Some(Goal::Deployed), None) => {
                let (user, claimed) = (self.user, self.claim.clone());
                let msg = CpMsg::RegisterRequest { user, claimed };
                (&mut self.reg_rt, Role::Tcsp, msg)
            }
            (Some(Goal::Deployed), Some(cert)) if due <= Some(ctx.now) && !confirmed => {
                let to = if fallback { Role::Nms } else { Role::Tcsp };
                let msg = CpMsg::DeployRequest {
                    cert,
                    service: self.service.clone(),
                    scope: self.scope.clone(),
                    reply_to: ctx.node,
                    forward_to_peers: fallback,
                };
                (&mut self.deploy_rt, to, msg)
            }
            (Some(Goal::Withdrawn), Some(cert)) if self.tcsp_deploy_txn != 0 => {
                let msg = CpMsg::WithdrawRequest { cert };
                (&mut self.withdraw_rt, Role::Tcsp, msg)
            }
            _ => return,
        };
        if !rt.is_idle() {
            return;
        }
        self.txn += 1;
        let (txn, deploy) = (self.txn, matches!(msg, CpMsg::DeployRequest { .. }));
        let dest = match to {
            Role::Nms => self.fallback_nms[0],
            _ => self.tcsp_node,
        };
        rt.track(ctx, txn, dest, self.user.0, txn, Request { to, msg });
        if deploy && to == Role::Tcsp {
            self.tcsp_deploy_txn = txn;
            ctx.set_timer(DEPLOY_TIMEOUT, T_TIMEOUT);
        }
    }

    fn on_retry_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        let fired = match token & FAMILY_MASK {
            FAM_USER_REG => {
                let fired = self.reg_rt.on_timer(ctx, &self.cp, token, |_| false);
                if matches!(fired, Fired::Resent) {
                    self.record.lock().register_retries += 1;
                }
                fired
            }
            FAM_USER_DEPLOY => self.deploy_rt.on_timer(ctx, &self.cp, token, |_| false),
            FAM_USER_WITHDRAW => self.withdraw_rt.on_timer(ctx, &self.cp, token, |_| false),
            _ => return,
        };
        if let Fired::GaveUp(leg) = fired {
            trace_terminal(ctx, self.user.0, leg.key, CpOutcome::GaveUp);
            // Step again one budget later. Past its certificate's expiry the
            // owner stops, and the leases reap what a lost withdrawal left.
            let expires_at = self.record.lock().cert.as_ref().map(|c| c.expires_at);
            if expires_at.is_some_and(|t| t <= ctx.now) {
                self.goal = None;
            } else {
                ctx.set_timer(RetryPolicy::default().budget(), T_STEP);
            }
        }
    }
}

impl NodeAgent for UserAgent {
    fn name(&self) -> &'static str {
        "tcs-user"
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        match token {
            TOKEN_REGISTER => self.goal = Some(Goal::Deployed),
            TOKEN_WITHDRAW => self.goal = Some(Goal::Withdrawn),
            T_STEP => {}
            // The TCSP stayed silent: stop chasing it; the step turns to the ISPs.
            T_TIMEOUT => {
                let deploy = self.tcsp_deploy_txn;
                if !self.fallback_nms.is_empty() && self.deploy_rt.take(ctx, &deploy).is_some() {
                    trace_terminal(ctx, self.user.0, deploy, CpOutcome::Abandoned);
                    self.record.lock().used_fallback = matches!(self.goal, Some(Goal::Deployed));
                }
            }
            _ => return self.on_retry_timer(ctx, token),
        }
        self.step(ctx);
    }

    fn on_control(&mut self, ctx: &mut AgentCtx<'_>, msg: &ControlMsg) {
        let Some(env) = msg.get::<Envelope>() else {
            return;
        };
        if env.to != Role::User {
            return;
        }
        let MsgKey { origin, txn, .. } = env.key;
        // Fallback NMS acks come straight to the user, one per ISP: those
        // deduplicate per acking node.
        let nms = msg.from.0 as u64;
        let (rt, from, outcome) = match &env.msg {
            CpMsg::RegisterConfirm { result: Ok(_) } => (&mut self.reg_rt, 0, CpOutcome::Confirmed),
            CpMsg::RegisterConfirm { .. } => (&mut self.reg_rt, 0, CpOutcome::Denied),
            CpMsg::DeployConfirm {
                isps_missing: 0, ..
            } => (&mut self.deploy_rt, 0, CpOutcome::Confirmed),
            CpMsg::DeployConfirm { .. } => (&mut self.deploy_rt, 0, CpOutcome::Partial),
            CpMsg::NmsAck { .. } => (&mut self.deploy_rt, nms, CpOutcome::FallbackConfirmed),
            CpMsg::WithdrawConfirm { .. } => (&mut self.withdraw_rt, 0, CpOutcome::Withdrawn),
            _ => return,
        };
        if !self.dedup.first_time(origin, txn, env.msg.kind_id(), from) {
            dup_hit(ctx, &self.cp, env, true);
            return;
        }
        // A registration, deployment or withdrawal has one terminal,
        // traced when its leg leaves the retransmitter: here when an
        // answer finds it, or earlier when it was given up on or abandoned
        // for the fallback. A confirmation that comes after that is a
        // duplicate response; the record still takes what it reports,
        // which was done, and the next step reads it. A fallback's NMS
        // acks after the first are the other ISPs' answers.
        match (rt.take(ctx, &txn).is_some(), &env.msg) {
            (true, _) => trace_terminal(ctx, origin, txn, outcome),
            (false, CpMsg::NmsAck { .. }) => {}
            (false, _) => dup_hit(ctx, &self.cp, env, true),
        }
        if matches!(outcome, CpOutcome::Denied | CpOutcome::Withdrawn) {
            self.goal = None;
        }
        let mut r = self.record.lock();
        match &env.msg {
            CpMsg::RegisterConfirm { result: Ok(cert) } if r.cert.is_none() => {
                r.registered_at = Some(ctx.now);
                r.cert = Some(cert.clone());
                ctx.set_timer(self.deploy_delay, T_STEP);
            }
            CpMsg::RegisterConfirm { result: Err(_) } => r.denied = true,
            CpMsg::DeployConfirm {
                configured,
                rejected,
                isps_missing,
                ..
            } => {
                r.deploy_confirmed_at.get_or_insert(ctx.now);
                r.devices_configured += configured;
                r.installs_rejected += rejected;
                r.isps_missing += isps_missing;
            }
            CpMsg::NmsAck {
                configured,
                rejected,
                ..
            } => {
                r.fallback_acks += 1;
                r.devices_configured += configured;
                r.installs_rejected += rejected;
                r.deploy_confirmed_at.get_or_insert(ctx.now);
            }
            CpMsg::WithdrawConfirm { removed, .. } => {
                r.withdraw_confirmed_at.get_or_insert(ctx.now);
                r.services_removed += removed;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dtcs_device::{AdaptiveDevice, DeviceHandle, ModuleSpec};
    use dtcs_netsim::{Simulator, Topology};

    const KEY: u64 = 0x5EC;
    const NMS: NodeId = NodeId(0);
    const MANAGED: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];
    const USER: UserId = UserId(0xAA01);

    /// An NMS at the hub of a 3-star managing the three leaves, whose one
    /// owner deploys each of `services` on all of them at 0; run to 1 s.
    fn star_plane(
        nms: NmsAgent,
        services: &[CatalogService],
    ) -> (Simulator, CpStatsHandle, [DeviceHandle; 3]) {
        let mut sim = Simulator::new(Topology::star(3), 1);
        let cp = CpStatsHandle::default();
        sim.add_agent(NMS, Box::new(nms.with_cp_stats(cp.clone())));
        let devices = MANAGED.map(|node| {
            let (dev, handle) = AdaptiveDevice::new(node, Some(NMS));
            sim.add_agent(node, Box::new(dev));
            handle
        });
        let cert = Certificate::issue(KEY, USER, vec![Prefix::of_node(NMS)], SimTime::MAX);
        for (txn, service) in (1u64..).zip(services) {
            let deploy = Envelope {
                to: Role::Nms,
                key: MsgKey::first(USER.0, txn),
                msg: CpMsg::NmsDeploy {
                    cert: cert.clone(),
                    service: service.clone(),
                    nodes: MANAGED.to_vec(),
                    contact: NMS,
                },
            };
            sim.deliver_control(SimTime::ZERO, NMS, NMS, deploy);
        }
        sim.run_until(SimTime::from_secs(1));
        (sim, cp, devices)
    }

    /// An announcement is answered with the announcing device's slice of
    /// desired state and nothing else: two services stand on each of three
    /// devices, one device announces a reboot it never had, and both are
    /// re-sent to that device alone, in one refresh.
    #[test]
    fn inventory_gap_reinstalls_on_the_answering_device_only() {
        let services = [
            CatalogService::AntiSpoofing,
            CatalogService::Statistics {
                capacity: 16,
                sample_one_in: 1,
            },
        ];
        let nms = NmsAgent::new(KEY, MANAGED.to_vec(), Vec::new());
        let (mut sim, cp, devices) = star_plane(nms, &services);
        for d in &devices {
            let d = d.lock();
            assert_eq!((d.rule_count, d.idempotent_installs), (2, 0));
        }

        let announcement = DeviceReply::Inventory {
            node: MANAGED[1],
            installed: Vec::new(),
        };
        sim.deliver_control(SimTime::from_secs(1), MANAGED[1], NMS, announcement);
        let before = sim.stats.cp_msgs;
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(cp.lock().reconcile_reinstalls, 2);
        assert_eq!(sim.stats.cp_msgs - before, 1, "one refresh");
        // The services were still running: each counted as an identical
        // install on the device the refresh went to.
        let identical = devices.map(|d| d.lock().idempotent_installs);
        assert_eq!(identical, [0, 2, 0]);
    }

    /// A slot a refresh did not name is removed only when desired state
    /// holds none for it when the device's answer arrives: a refresh that
    /// left before a deploy was accepted (here empty, delivered after it)
    /// takes the rogue slot off the device and leaves the deployed one.
    #[test]
    fn a_deploy_accepted_after_a_refresh_left_keeps_its_slot() {
        let nms = NmsAgent::new(KEY, MANAGED.to_vec(), Vec::new());
        let (mut sim, cp, devices) = star_plane(nms, &[CatalogService::AntiSpoofing]);
        let rogue = DeviceCommand::InstallService {
            owner: OwnerId(0xEE),
            stage: Stage::Dst,
            spec: ServiceSpec::chain("rogue", vec![ModuleSpec::AntiSpoof]),
            txn: 0,
            lease_until: SimTime::MAX,
        };
        sim.deliver_control(SimTime::from_secs(1), NMS, MANAGED[0], rogue);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(devices[0].lock().rule_count, 2);

        let stale = DeviceCommand::Refresh { holds: Vec::new() };
        sim.deliver_control(SimTime::from_secs(2), NMS, MANAGED[0], stale);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(cp.lock().reconcile_removals, 1, "the rogue slot only");
        let rules = devices.map(|d| d.lock().rule_count);
        assert_eq!(rules, [1, 1, 1], "the deployed slots stand");
    }
}
