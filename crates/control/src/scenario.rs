//! Whole-control-plane installation: builds the Fig. 3 network model —
//! number authority, TCSP, per-ISP network management systems, and an
//! adaptive device beside every managed router — inside a simulator.

use std::collections::BTreeMap;

use dtcs_device::{AdaptiveDevice, DeviceHandle};
use dtcs_netsim::{NodeId, NodeRole, Prefix, SimDuration, SimTime, Simulator};

use crate::authority::InternetNumberAuthority;
use crate::catalog::CatalogService;
use crate::identity::UserId;
use crate::plane::{
    AuthorityAgent, DeployScope, IspContract, TcspAgent, UserAgent, UserHandle, TOKEN_REFRESH,
    TOKEN_REGISTER, TOKEN_WITHDRAW,
};
use crate::retry::CpStatsHandle;

/// Optional control-plane behaviours, selected at install time.
///
/// The default configuration reproduces the plain plane: no refresh
/// rounds and no leases (installs are bounded only by the 24 h certificate
/// lifetime).
#[derive(Clone, Copy, Debug, Default)]
pub struct ControlPlaneConfig {
    /// Refresh period for anti-entropy. With `leases`, the one round runs
    /// at the shorter period ([`ControlPlaneConfig::refresh_every`]).
    pub reconcile_every: Option<SimDuration>,
    /// Lease length granted with every install and refresh, and the
    /// refresh period for renewal. A device that misses its refreshes reaps
    /// the service itself.
    pub leases: Option<(SimDuration, SimDuration)>,
    /// Read by nothing: every refresh round removes what a device holds and
    /// desired state does not (DESIGN.md §6.5). Kept so that configurations
    /// which set it still build.
    pub sweep_removals: bool,
    /// Override the TCSP certificate lifetime (None = default 24 h).
    pub cert_lifetime: Option<SimDuration>,
}

impl ControlPlaneConfig {
    /// Each NMS runs one refresh round, at the shorter of the two periods:
    /// it sends every managed device its whole desired slice in one
    /// message, which installs what the device lacks and re-leases the rest.
    pub fn refresh_every(&self) -> Option<SimDuration> {
        let renew_every = self.leases.map(|(_, every)| every);
        self.reconcile_every.into_iter().chain(renew_every).min()
    }
}

/// Partition a topology into ISPs: every transit node becomes an ISP
/// managing itself plus the stub ASes closest to it (ties to the
/// lowest-id transit). Degenerate topologies without transit nodes become
/// a single ISP run from node 0.
pub fn partition_by_provider(sim: &Simulator) -> Vec<IspContract> {
    let transit: Vec<NodeId> = sim
        .topo
        .nodes
        .iter()
        .filter(|n| n.role == NodeRole::Transit)
        .map(|n| n.id)
        .collect();
    if transit.is_empty() {
        return vec![IspContract {
            nms_node: NodeId(0),
            managed: (0..sim.topo.n()).map(NodeId).collect(),
        }];
    }
    let mut managed: BTreeMap<NodeId, Vec<NodeId>> =
        transit.iter().map(|&t| (t, vec![t])).collect();
    for i in 0..sim.topo.n() {
        let node = NodeId(i);
        if sim.topo.nodes[i].role == NodeRole::Transit {
            continue;
        }
        let provider = transit
            .iter()
            .copied()
            .min_by_key(|&t| (sim.routing.distance(node, t).unwrap_or(u16::MAX), t.0))
            .expect("transit set non-empty");
        managed
            .get_mut(&provider)
            .expect("provider exists")
            .push(node);
    }
    managed
        .into_iter()
        .map(|(nms_node, managed)| IspContract { nms_node, managed })
        .collect()
}

/// A fully-installed control plane.
pub struct ControlPlane {
    /// TCSP signing key (public side used by NMSes to verify certs).
    pub tcsp_key: u64,
    /// Node hosting the TCSP.
    pub tcsp_node: NodeId,
    /// Node hosting the number authority.
    pub authority_node: NodeId,
    /// Contracted ISPs.
    pub isps: Vec<IspContract>,
    /// Per-router device handles.
    pub devices: BTreeMap<NodeId, DeviceHandle>,
    /// Control-plane-wide reliability counters (retransmits, dedup hits,
    /// reconciliation activity) shared by every protocol agent.
    pub cp_stats: CpStatsHandle,
    user_seq: u64,
}

impl ControlPlane {
    /// Install the full control plane: authority at `authority_node`, TCSP
    /// at `tcsp_node`, one NMS per ISP, and an adaptive device on every
    /// managed router.
    pub fn install(
        sim: &mut Simulator,
        authority: InternetNumberAuthority,
        tcsp_key: u64,
        tcsp_node: NodeId,
        authority_node: NodeId,
        isps: Vec<IspContract>,
    ) -> ControlPlane {
        Self::install_with(
            sim,
            authority,
            tcsp_key,
            tcsp_node,
            authority_node,
            isps,
            ControlPlaneConfig::default(),
        )
    }

    /// Install the control plane with explicit [`ControlPlaneConfig`]
    /// behaviours (refresh rounds, leases, certificate lifetime).
    #[allow(clippy::too_many_arguments)]
    pub fn install_with(
        sim: &mut Simulator,
        authority: InternetNumberAuthority,
        tcsp_key: u64,
        tcsp_node: NodeId,
        authority_node: NodeId,
        isps: Vec<IspContract>,
        config: ControlPlaneConfig,
    ) -> ControlPlane {
        let cp_stats = CpStatsHandle::default();
        sim.add_agent(authority_node, Box::new(AuthorityAgent::new(authority)));
        let mut tcsp = TcspAgent::new(tcsp_key, authority_node, isps.clone());
        if let Some(lifetime) = config.cert_lifetime {
            tcsp = tcsp.with_cert_lifetime(lifetime);
        }
        sim.add_agent(tcsp_node, Box::new(tcsp.with_cp_stats(cp_stats.clone())));
        let mut devices = BTreeMap::new();
        for isp in &isps {
            let peers: Vec<NodeId> = isps
                .iter()
                .map(|i| i.nms_node)
                .filter(|&n| n != isp.nms_node)
                .collect();
            let nms = crate::plane::NmsAgent::new(tcsp_key, isp.managed.clone(), peers)
                .with_refresh(config.refresh_every(), config.leases.map(|(len, _)| len))
                .with_cp_stats(cp_stats.clone());
            let idx = sim.add_agent(isp.nms_node, Box::new(nms));
            if let Some(every) = config.refresh_every() {
                sim.schedule_agent_timer(isp.nms_node, idx, SimTime::ZERO + every, TOKEN_REFRESH);
            }
            for &node in &isp.managed {
                let (dev, handle) = AdaptiveDevice::new(node, Some(isp.nms_node));
                sim.add_agent(node, Box::new(dev));
                devices.insert(node, handle);
            }
        }
        ControlPlane {
            tcsp_key,
            tcsp_node,
            authority_node,
            isps,
            devices,
            cp_stats,
            user_seq: 1,
        }
    }

    /// Add a network user at `node` who registers at `register_at`, then
    /// deploys `service` with `scope`. `fallback` enables the direct-ISP
    /// path when the TCSP stays silent.
    #[allow(clippy::too_many_arguments)]
    pub fn add_user(
        &mut self,
        sim: &mut Simulator,
        node: NodeId,
        claim: Vec<Prefix>,
        service: CatalogService,
        scope: DeployScope,
        register_at: SimTime,
        fallback: bool,
    ) -> (UserId, UserHandle) {
        self.add_user_with(
            sim,
            node,
            claim,
            service,
            scope,
            register_at,
            fallback,
            |a| a,
        )
    }

    /// Like [`ControlPlane::add_user`] with a customisation hook for the
    /// user agent (deploy delay, timeout, …).
    #[allow(clippy::too_many_arguments)]
    pub fn add_user_with(
        &mut self,
        sim: &mut Simulator,
        node: NodeId,
        claim: Vec<Prefix>,
        service: CatalogService,
        scope: DeployScope,
        register_at: SimTime,
        fallback: bool,
        customize: impl FnOnce(UserAgent) -> UserAgent,
    ) -> (UserId, UserHandle) {
        self.add_user_inner(
            sim,
            node,
            claim,
            service,
            scope,
            register_at,
            None,
            fallback,
            customize,
        )
    }

    /// Like [`ControlPlane::add_user_with`], additionally scheduling an
    /// owner-initiated withdrawal ([`TOKEN_WITHDRAW`]) at `withdraw_at`:
    /// the user tears its whole deployment down through the TCSP.
    #[allow(clippy::too_many_arguments)]
    pub fn add_user_withdrawing(
        &mut self,
        sim: &mut Simulator,
        node: NodeId,
        claim: Vec<Prefix>,
        service: CatalogService,
        scope: DeployScope,
        register_at: SimTime,
        withdraw_at: SimTime,
        fallback: bool,
        customize: impl FnOnce(UserAgent) -> UserAgent,
    ) -> (UserId, UserHandle) {
        self.add_user_inner(
            sim,
            node,
            claim,
            service,
            scope,
            register_at,
            Some(withdraw_at),
            fallback,
            customize,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn add_user_inner(
        &mut self,
        sim: &mut Simulator,
        node: NodeId,
        claim: Vec<Prefix>,
        service: CatalogService,
        scope: DeployScope,
        register_at: SimTime,
        withdraw_at: Option<SimTime>,
        fallback: bool,
        customize: impl FnOnce(UserAgent) -> UserAgent,
    ) -> (UserId, UserHandle) {
        let user = UserId(0xAA00 + self.user_seq);
        self.user_seq += 1;
        let (mut agent, handle) = UserAgent::new(user, claim, self.tcsp_node, service, scope);
        agent = agent.with_cp_stats(self.cp_stats.clone());
        if fallback {
            agent = agent.with_fallback(self.isps.iter().map(|i| i.nms_node).collect());
        }
        agent = customize(agent);
        let idx = sim.add_agent(node, Box::new(agent));
        sim.schedule_agent_timer(node, idx, register_at, TOKEN_REGISTER);
        if let Some(at) = withdraw_at {
            sim.schedule_agent_timer(node, idx, at, TOKEN_WITHDRAW);
        }
        (user, handle)
    }

    /// Total rules installed across all devices (E6 metric).
    pub fn total_rules(&self) -> usize {
        self.devices.values().map(|h| h.lock().rule_count).sum()
    }

    /// Number of devices with at least one installed rule.
    pub fn devices_configured(&self) -> usize {
        self.devices
            .values()
            .filter(|h| h.lock().rule_count > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::DeployScope;
    use dtcs_netsim::Topology;

    #[test]
    fn partition_covers_every_node_exactly_once() {
        let topo = Topology::transit_stub_multihomed(4, 6, 0.2, 7);
        let sim = Simulator::new(topo, 3);
        let isps = partition_by_provider(&sim);
        assert_eq!(isps.len(), 4);
        let mut seen = vec![false; sim.topo.n()];
        for isp in &isps {
            for &n in &isp.managed {
                assert!(!seen[n.0], "node managed twice");
                seen[n.0] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every node managed");
    }

    #[test]
    fn full_registration_and_deployment_flow() {
        let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let victim_node = sim.topo.stub_nodes()[0];
        let mut authority = InternetNumberAuthority::new();
        let user_prefix = Prefix::of_node(victim_node);
        // Pre-allocate: the user genuinely owns the victim prefix.
        authority.allocate(user_prefix, UserId(0xAA01));
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let mut cp = ControlPlane::install(
            &mut sim,
            authority,
            0x5EC, // key
            tcsp_node,
            authority_node,
            isps,
        );
        let (_user, record) = cp.add_user(
            &mut sim,
            victim_node,
            vec![user_prefix],
            CatalogService::AntiSpoofing,
            DeployScope::AllManaged,
            SimTime::from_millis(100),
            false,
        );
        sim.run_until(SimTime::from_secs(10));
        let r = record.lock();
        assert!(r.registered_at.is_some(), "registration must complete");
        assert!(!r.denied);
        assert!(
            r.deploy_confirmed_at.is_some(),
            "deployment must be confirmed"
        );
        assert!(r.devices_configured > 0, "devices configured: {r:?}");
        assert_eq!(r.installs_rejected, 0);
        drop(r);
        assert!(cp.total_rules() > 0);
        assert_eq!(cp.devices_configured(), sim.topo.n());
        let tcsp = sim.agent::<TcspAgent>(cp.tcsp_node).unwrap();
        assert_eq!(tcsp.stats().registrations_ok, 1);
    }

    #[test]
    fn bogus_ownership_claim_is_denied() {
        let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let victim_node = sim.topo.stub_nodes()[0];
        let foreign = Prefix::of_node(sim.topo.stub_nodes()[1]);
        let authority = InternetNumberAuthority::new(); // no allocations
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let mut cp =
            ControlPlane::install(&mut sim, authority, 0x5EC, tcsp_node, authority_node, isps);
        let (_user, record) = cp.add_user(
            &mut sim,
            victim_node,
            vec![foreign],
            CatalogService::AntiSpoofing,
            DeployScope::AllManaged,
            SimTime::from_millis(100),
            false,
        );
        sim.run_until(SimTime::from_secs(5));
        let r = record.lock();
        assert!(r.denied, "claiming someone else's prefix must be denied");
        assert!(r.deploy_confirmed_at.is_none());
        assert_eq!(cp.total_rules(), 0, "no rules without a certificate");
        let tcsp = sim.agent::<TcspAgent>(cp.tcsp_node).unwrap();
        assert_eq!(tcsp.stats().registrations_denied, 1);
    }

    #[test]
    fn tcsp_outage_triggers_isp_fallback() {
        let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let victim_node = sim.topo.stub_nodes()[0];
        let mut authority = InternetNumberAuthority::new();
        let user_prefix = Prefix::of_node(victim_node);
        authority.allocate(user_prefix, UserId(0xAA01));
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let mut cp =
            ControlPlane::install(&mut sim, authority, 0x5EC, tcsp_node, authority_node, isps);
        let (_user, record) = cp.add_user_with(
            &mut sim,
            victim_node,
            vec![user_prefix],
            CatalogService::AntiSpoofing,
            DeployScope::AllManaged,
            SimTime::from_millis(100),
            true, // fallback enabled
            |a| a.with_deploy_delay(dtcs_netsim::SimDuration::from_secs(1)),
        );
        // Let registration succeed, then take the TCSP down before the
        // deployment request lands.
        sim.schedule(SimTime::from_millis(500), move |s| {
            let tcsp = s.agent_mut::<TcspAgent>(tcsp_node).unwrap();
            tcsp.set_available(false);
        });
        sim.run_until(SimTime::from_secs(20));
        let r = record.lock();
        assert!(r.registered_at.is_some());
        assert!(r.used_fallback, "user must fall back to the ISPs");
        assert!(
            r.devices_configured > 0,
            "fallback deployment configures devices: {r:?}"
        );
        assert!(r.fallback_acks > 0);
    }

    /// An owner who asked to withdraw while the TCSP was down gets no
    /// fallback deployment: the deploy timeout abandons the TCSP deploy it
    /// timed, not the withdrawal, and installs nothing the unreachable
    /// TCSP would have to take down again.
    #[test]
    fn tcsp_outage_abandons_the_deploy_and_never_falls_back_past_a_withdrawal() {
        use dtcs_netsim::{CpFlightRecorder, CpOutcome, CpTraceEvent};
        use std::sync::{Arc, Mutex};

        let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let victim_node = sim.topo.stub_nodes()[0];
        let mut authority = InternetNumberAuthority::new();
        let user_prefix = Prefix::of_node(victim_node);
        authority.allocate(user_prefix, UserId(0xAA01));
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let mut cp =
            ControlPlane::install(&mut sim, authority, 0x5EC, tcsp_node, authority_node, isps);
        let (user, record) = cp.add_user_withdrawing(
            &mut sim,
            victim_node,
            vec![user_prefix],
            CatalogService::AntiSpoofing,
            DeployScope::AllManaged,
            SimTime::from_millis(100),
            SimTime::from_secs(2),
            true, // fallback enabled
            |a| a.with_deploy_delay(SimDuration::from_secs(1)),
        );
        sim.schedule(SimTime::from_millis(500), move |s| {
            let tcsp = s.agent_mut::<TcspAgent>(tcsp_node).unwrap();
            tcsp.set_available(false);
        });
        let rec = Arc::new(Mutex::new(CpFlightRecorder::new(1 << 16)));
        sim.set_cp_trace_sink(Box::new(rec.clone()), 1);
        sim.run_until(SimTime::from_secs(30));
        sim.take_cp_trace_sink();

        let rec = rec.lock().unwrap();
        assert_eq!(rec.evicted(), 0);
        // The user's first deploy request (message kind 5) went to the TCSP.
        let deploy_txn = rec
            .events()
            .find_map(|e| match e {
                CpTraceEvent::Send { meta: Some(m), .. } if m.origin == user.0 && m.kind == 5 => {
                    Some(m.txn)
                }
                _ => None,
            })
            .expect("the user deployed");
        let mut terminals: BTreeMap<(u64, u64), Vec<CpOutcome>> = BTreeMap::new();
        for e in rec.events() {
            if let CpTraceEvent::Terminal {
                origin,
                txn,
                outcome,
                ..
            } = e
            {
                terminals.entry((*origin, *txn)).or_default().push(*outcome);
            }
        }
        let abandoned: Vec<_> = terminals
            .iter()
            .filter(|(_, outs)| outs.contains(&CpOutcome::Abandoned))
            .map(|(&key, _)| key)
            .collect();
        assert_eq!(abandoned, [(user.0, deploy_txn)], "{terminals:?}");
        for (key, outs) in &terminals {
            assert_eq!(outs.len(), 1, "{key:?} ended more than once: {outs:?}");
        }
        let r = record.lock();
        assert!(!r.used_fallback, "{r:?}");
        assert!(r.deploy_confirmed_at.is_none(), "{r:?}");
        drop(r);
        assert_eq!(cp.total_rules(), 0, "no filter outlives the withdrawal");
    }

    #[test]
    fn forged_certificates_deploy_nothing() {
        // A certificate signed under the wrong key is rejected by every
        // NMS, on both the TCSP path and the direct fallback path.
        let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let victim_node = sim.topo.stub_nodes()[0];
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let cp = ControlPlane::install(
            &mut sim,
            InternetNumberAuthority::new(),
            0x5EC,
            tcsp_node,
            authority_node,
            isps,
        );
        // Forge: issued under a different key.
        let forged = crate::identity::Certificate::issue(
            0xBAD,
            UserId(0xAA01),
            vec![Prefix::of_node(victim_node)],
            SimTime::from_secs(1_000_000),
        );
        let nms = cp.isps[0].nms_node;
        sim.deliver_control(
            SimTime::from_millis(10),
            victim_node,
            nms,
            crate::plane::Envelope {
                to: crate::plane::Role::Nms,
                key: crate::retry::MsgKey::first(0xAA01, 1),
                msg: crate::plane::CpMsg::DeployRequest {
                    cert: forged,
                    service: CatalogService::AntiSpoofing,
                    scope: DeployScope::AllManaged,
                    reply_to: victim_node,
                    forward_to_peers: true,
                },
            },
        );
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(cp.total_rules(), 0, "forged cert must configure nothing");
    }

    #[test]
    fn withdrawal_removes_every_rule_and_confirms() {
        let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let victim_node = sim.topo.stub_nodes()[0];
        let mut authority = InternetNumberAuthority::new();
        let user_prefix = Prefix::of_node(victim_node);
        authority.allocate(user_prefix, UserId(0xAA01));
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let mut cp =
            ControlPlane::install(&mut sim, authority, 0x5EC, tcsp_node, authority_node, isps);
        let (_user, record) = cp.add_user_withdrawing(
            &mut sim,
            victim_node,
            vec![user_prefix],
            CatalogService::AntiSpoofing,
            DeployScope::AllManaged,
            SimTime::from_millis(100),
            SimTime::from_secs(5), // tear down after the deploy settles
            false,
            |a| a,
        );
        sim.run_until(SimTime::from_secs(15));
        let r = record.lock();
        assert!(r.deploy_confirmed_at.is_some(), "{r:?}");
        assert!(
            r.withdraw_confirmed_at.is_some(),
            "withdrawal must confirm: {r:?}"
        );
        assert_eq!(
            r.services_removed, r.devices_configured,
            "every configured device must confirm its removal: {r:?}"
        );
        drop(r);
        assert_eq!(cp.total_rules(), 0, "no rules may survive a withdrawal");
        let cps = cp.cp_stats.lock();
        assert_eq!(cps.withdrawals, 1);
        assert!(cps.withdraw_removes > 0);
    }

    #[test]
    fn expired_certificate_still_authorises_withdrawal() {
        // Certificate lifetime of 2 s: by the time the user withdraws at
        // t=5 s the credential is stale, but teardown must still work.
        let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let victim_node = sim.topo.stub_nodes()[0];
        let mut authority = InternetNumberAuthority::new();
        let user_prefix = Prefix::of_node(victim_node);
        authority.allocate(user_prefix, UserId(0xAA01));
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let mut cp = ControlPlane::install_with(
            &mut sim,
            authority,
            0x5EC,
            tcsp_node,
            authority_node,
            isps,
            ControlPlaneConfig {
                cert_lifetime: Some(SimDuration::from_secs(2)),
                ..ControlPlaneConfig::default()
            },
        );
        let (_user, record) = cp.add_user_withdrawing(
            &mut sim,
            victim_node,
            vec![user_prefix],
            CatalogService::AntiSpoofing,
            DeployScope::AllManaged,
            SimTime::from_millis(100),
            SimTime::from_secs(5),
            false,
            |a| a,
        );
        sim.run_until(SimTime::from_secs(15));
        let r = record.lock();
        assert!(r.deploy_confirmed_at.is_some(), "{r:?}");
        assert!(
            r.withdraw_confirmed_at.is_some(),
            "expired-but-authentic credentials must still tear down: {r:?}"
        );
        drop(r);
        assert_eq!(cp.total_rules(), 0);
    }

    #[test]
    fn expired_certificate_rejects_new_deploys() {
        // Register immediately, but hold the deploy until after the 1 s
        // certificate lifetime: the TCSP must refuse and count it.
        let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let victim_node = sim.topo.stub_nodes()[0];
        let mut authority = InternetNumberAuthority::new();
        let user_prefix = Prefix::of_node(victim_node);
        authority.allocate(user_prefix, UserId(0xAA01));
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let mut cp = ControlPlane::install_with(
            &mut sim,
            authority,
            0x5EC,
            tcsp_node,
            authority_node,
            isps,
            ControlPlaneConfig {
                cert_lifetime: Some(SimDuration::from_secs(1)),
                ..ControlPlaneConfig::default()
            },
        );
        let (_user, record) = cp.add_user_with(
            &mut sim,
            victim_node,
            vec![user_prefix],
            CatalogService::AntiSpoofing,
            DeployScope::AllManaged,
            SimTime::from_millis(100),
            false,
            |a| a.with_deploy_delay(SimDuration::from_secs(3)),
        );
        sim.run_until(SimTime::from_secs(30));
        let r = record.lock();
        assert!(r.registered_at.is_some());
        assert!(
            r.deploy_confirmed_at.is_none(),
            "a deploy presented after expiry must not confirm: {r:?}"
        );
        drop(r);
        assert_eq!(cp.total_rules(), 0, "no filter under a dead authority");
        assert!(
            cp.cp_stats.lock().expired_deploys > 0,
            "staleness rejections must be counted"
        );
    }

    #[test]
    fn renewals_keep_leased_rules_alive_and_nothing_is_reaped() {
        // 3 s leases renewed every 1 s over a lossless channel: every
        // round lands, so no lease ever lapses and no device reaps. A
        // device reaping a lease nobody renews is
        // `device::tests::expired_lease_reaps_orphaned_service`.
        let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let victim_node = sim.topo.stub_nodes()[0];
        let mut authority = InternetNumberAuthority::new();
        let user_prefix = Prefix::of_node(victim_node);
        authority.allocate(user_prefix, UserId(0xAA01));
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let mut cp = ControlPlane::install_with(
            &mut sim,
            authority,
            0x5EC,
            tcsp_node,
            authority_node,
            isps,
            ControlPlaneConfig {
                reconcile_every: Some(SimDuration::from_secs(2)),
                leases: Some((SimDuration::from_secs(3), SimDuration::from_secs(1))),
                ..ControlPlaneConfig::default()
            },
        );
        let (_user, record) = cp.add_user(
            &mut sim,
            victim_node,
            vec![user_prefix],
            CatalogService::AntiSpoofing,
            DeployScope::AllManaged,
            SimTime::from_millis(100),
            false,
        );
        // Run well past several lease lengths: renewals must keep every
        // rule alive the whole time.
        sim.run_until(SimTime::from_secs(20));
        let r = record.lock();
        assert!(r.deploy_confirmed_at.is_some(), "{r:?}");
        drop(r);
        assert!(
            cp.total_rules() > 0,
            "renewals must keep leased rules alive"
        );
        let cps = cp.cp_stats.lock();
        assert!(cps.lease_renewals > 0, "renewal rounds must have run");
        assert_eq!(
            cps.lease_expirations, 0,
            "nothing expires while the certificate is fresh"
        );
        drop(cps);
        // Device-side reap counters stay zero while renewals flow.
        let reaps: u64 = cp.devices.values().map(|h| h.lock().lease_reaps).sum();
        assert_eq!(reaps, 0, "no orphan reaps while the NMS renews");
    }

    #[test]
    fn bidirectional_sweep_removes_undesired_services() {
        // Install a service directly on a device (outside the NMS's
        // desired state); the bidirectional sweep must remove it.
        use dtcs_device::{DeviceCommand, ModuleSpec, OwnerId, ServiceSpec, Stage};
        let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let rogue_node = isps[0].managed[0];
        let nms_node = isps[0].nms_node;
        let cp = ControlPlane::install_with(
            &mut sim,
            InternetNumberAuthority::new(),
            0x5EC,
            tcsp_node,
            authority_node,
            isps,
            ControlPlaneConfig {
                reconcile_every: Some(SimDuration::from_secs(1)),
                ..ControlPlaneConfig::default()
            },
        );
        // Plant a service the NMS never asked for.
        sim.deliver_control(
            SimTime::from_millis(10),
            nms_node,
            rogue_node,
            DeviceCommand::RegisterOwner {
                owner: OwnerId(0xEE),
                prefixes: vec![Prefix::of_node(rogue_node)],
                contact: nms_node,
            },
        );
        sim.deliver_control(
            SimTime::from_millis(20),
            nms_node,
            rogue_node,
            DeviceCommand::InstallService {
                txn: 0,
                owner: OwnerId(0xEE),
                stage: Stage::Dst,
                spec: ServiceSpec::chain("rogue", vec![ModuleSpec::AntiSpoof]),
                lease_until: SimTime::MAX,
            },
        );
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(
            cp.total_rules(),
            0,
            "the bidirectional sweep must remove undesired services"
        );
        assert!(cp.cp_stats.lock().reconcile_removals > 0);
    }

    #[test]
    fn scoped_deployment_configures_fewer_devices() {
        let topo = Topology::transit_stub_multihomed(4, 8, 0.2, 7);
        let mut sim = Simulator::new(topo, 3);
        let victim_node = sim.topo.stub_nodes()[0];
        let mut authority = InternetNumberAuthority::new();
        let user_prefix = Prefix::of_node(victim_node);
        authority.allocate(user_prefix, UserId(0xAA01));
        let isps = partition_by_provider(&sim);
        let tcsp_node = sim.topo.transit_nodes()[0];
        let authority_node = sim.topo.transit_nodes()[1];
        let mut cp =
            ControlPlane::install(&mut sim, authority, 0x5EC, tcsp_node, authority_node, isps);
        let (_user, record) = cp.add_user(
            &mut sim,
            victim_node,
            vec![user_prefix],
            CatalogService::AntiSpoofing,
            DeployScope::StubBorders,
            SimTime::from_millis(100),
            false,
        );
        sim.run_until(SimTime::from_secs(10));
        let r = record.lock();
        assert!(r.deploy_confirmed_at.is_some());
        // Only the 4 transit (stub-border) routers get rules.
        assert_eq!(cp.devices_configured(), 4, "{r:?}");
    }
}
