//! A silent ISP costs at most one retry budget: when the TCSP cannot reach
//! one NMS, that leg gives up after its last attempt and the TCSP confirms
//! partially with what the other ISPs acked.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dtcs_control::{
    partition_by_provider, AuthorityAgent, CatalogService, CpStatsHandle, DeployScope,
    InternetNumberAuthority, NmsAgent, RetryPolicy, TcspAgent, UserAgent, UserHandle, UserId,
    TOKEN_REGISTER, TOKEN_WITHDRAW,
};
use dtcs_device::AdaptiveDevice;
use dtcs_netsim::{
    CpFlightRecorder, CpOutcome, CpTraceEvent, FaultConfig, FaultPlane, NodeId, Partition, Prefix,
    SimDuration, SimTime, Simulator, Topology,
};

/// The silent-ISP plane, run: `user` registers at 100 ms and deploys
/// while the TCSP cannot reach one of its three ISPs for the whole run.
struct Run {
    sim: Simulator,
    record: UserHandle,
    rec: Arc<Mutex<CpFlightRecorder>>,
    cp: CpStatsHandle,
    user_node: NodeId,
    tcsp_node: NodeId,
    silent_nms: NodeId,
}

/// Build and run the silent-ISP plane until `end`. With `withdraw_at`,
/// the user also withdraws then, and its first sends of the withdrawal
/// are cut from the TCSP for [`WITHDRAW_CUT`].
fn run_silent_isp(user: UserId, withdraw_at: Option<SimTime>, end: SimTime) -> Run {
    let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
    let mut sim = Simulator::new(topo, 3);
    let user_node = sim.topo.stub_nodes()[0];
    let prefix = Prefix::of_node(user_node);
    let mut authority = InternetNumberAuthority::new();
    authority.allocate(prefix, user);
    let isps = partition_by_provider(&sim);
    let transit = sim.topo.transit_nodes();
    let (tcsp_node, authority_node, silent_nms) = (transit[0], transit[1], transit[2]);
    assert!(isps.iter().any(|isp| isp.nms_node == silent_nms));

    let cp = CpStatsHandle::default();
    sim.add_agent(authority_node, Box::new(AuthorityAgent::new(authority)));
    let tcsp = TcspAgent::new(0x5EC, authority_node, isps.clone());
    sim.add_agent(tcsp_node, Box::new(tcsp.with_cp_stats(cp.clone())));
    for isp in &isps {
        let nms = NmsAgent::new(0x5EC, isp.managed.clone(), Vec::new()).with_cp_stats(cp.clone());
        sim.add_agent(isp.nms_node, Box::new(nms));
        for &node in &isp.managed {
            let (device, _handle) = AdaptiveDevice::new(node, Some(isp.nms_node));
            sim.add_agent(node, Box::new(device));
        }
    }
    let (agent, record) = UserAgent::new(
        user,
        vec![prefix],
        tcsp_node,
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
    );
    let idx = sim.add_agent(user_node, Box::new(agent.with_cp_stats(cp.clone())));
    sim.schedule_agent_timer(user_node, idx, SimTime::from_millis(100), TOKEN_REGISTER);
    let mut partitions = vec![Partition {
        src: vec![tcsp_node],
        dst: vec![silent_nms],
        from: SimTime::ZERO,
        until: SimTime::MAX,
    }];
    if let Some(at) = withdraw_at {
        sim.schedule_agent_timer(user_node, idx, at, TOKEN_WITHDRAW);
        partitions.push(Partition {
            src: vec![user_node],
            dst: vec![tcsp_node],
            from: at,
            until: at + WITHDRAW_CUT,
        });
    }
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed: 1,
        drop_prob: 0.0,
        dup_prob: 0.0,
        jitter_max: SimDuration::ZERO,
        outages: Vec::new(),
        partitions,
    }));
    let rec = Arc::new(Mutex::new(CpFlightRecorder::new(1 << 12)));
    sim.set_cp_trace_sink(Box::new(rec.clone()), 1);
    sim.run_until(end);
    sim.take_cp_trace_sink();
    Run {
        sim,
        record,
        rec,
        cp,
        user_node,
        tcsp_node,
        silent_nms,
    }
}

/// How long a withdrawal's first sends are cut from the TCSP: the TCSP
/// hears it only at the user's fifth attempt, so its removal fan-in,
/// which waits out one retry budget on the silent ISP, ends after a
/// user leg of [`RetryPolicy::default`] would have given up.
const WITHDRAW_CUT: SimDuration = SimDuration::from_secs(3);

/// Terminals traced per `(origin, txn)`.
fn terminals(rec: &Mutex<CpFlightRecorder>) -> BTreeMap<(u64, u64), Vec<CpOutcome>> {
    let mut terminals: BTreeMap<(u64, u64), Vec<CpOutcome>> = BTreeMap::new();
    for e in rec.lock().unwrap().events() {
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
    terminals
}

/// Register and deploy as `user` while the TCSP cannot reach one of its
/// three ISPs for the whole run, and check the partial confirmation the
/// silent leg's give-up produces.
fn give_up_confirms_partially(user: UserId) {
    let Run {
        record,
        rec,
        cp,
        user_node,
        tcsp_node,
        silent_nms,
        ..
    } = run_silent_isp(user, None, SimTime::from_secs(30));
    let r = record.lock();
    let registered = r.registered_at.expect("registration completes");
    let confirmed = r.deploy_confirmed_at.expect("deployment confirms");
    // The user deploys as soon as it is registered, and the other two ISPs
    // ack within milliseconds; the confirmation waits for the silent
    // leg's give-up, plus the user → TCSP → user path delays.
    let waited = confirmed.saturating_since(registered);
    // At least every timeout of the default policy without jitter, at
    // most its budget.
    let p = RetryPolicy::default();
    let backoff = (0..p.max_attempts).map(|k| p.base.0.saturating_mul(1 << k).min(p.cap.0));
    let (least, most) = (SimDuration(backoff.sum()), p.budget());
    let paths = SimDuration::from_millis(100);
    assert!(
        waited >= least && waited < most + paths,
        "the retry budget ends the wait: {waited:?}"
    );
    assert_eq!(r.isps_missing, 1, "{r:?}");
    assert!(r.devices_configured > 0, "{r:?}");
    let gave_up: Vec<(NodeId, NodeId)> = rec
        .lock()
        .unwrap()
        .events()
        .filter_map(|e| match e {
            CpTraceEvent::RetryGaveUp { node, dest, .. } => Some((*node, *dest)),
            _ => None,
        })
        .collect();
    // One terminal per transaction: a user whose deploy leg gave up first
    // takes the late partial confirmation as a duplicate response.
    let terminals = terminals(&rec);
    assert!(
        terminals.contains_key(&(user.0, (user.0 << 16) | 2)),
        "the deploy has a terminal: {terminals:?}"
    );
    assert!(terminals.values().all(|t| t.len() == 1), "{terminals:?}");
    let cp = cp.lock();
    assert_eq!(cp.partial_confirms, 1, "{cp:?}");
    assert_eq!(cp.give_ups, gave_up.len() as u64, "{cp:?}");
    let tcsp_leg = (tcsp_node, silent_nms);
    assert_eq!(
        gave_up.iter().filter(|&&g| g == tcsp_leg).count(),
        1,
        "the TCSP gave up on the silent ISP once: {gave_up:?}"
    );
    // The user's own deploy leg has the same budget from an earlier start,
    // so its jitter may end it just before the TCSP's answer lands.
    assert!(
        gave_up
            .iter()
            .all(|&g| g == tcsp_leg || g == (user_node, tcsp_node)),
        "{gave_up:?}"
    );
}

#[test]
fn silent_isp_is_confirmed_missing_after_its_retry_budget() {
    give_up_confirms_partially(UserId(7));
}

/// A user id above 2^32 puts transaction-id bits where a timer token keeps
/// its family; the retransmitter arms by slot, not by txn, and still gives
/// up.
#[test]
fn give_up_confirms_for_user_ids_above_32_bits() {
    give_up_confirms_partially(UserId(1 << 33));
}

/// A withdrawal the TCSP hears late is answered after its removal fan-in
/// gives up on the silent ISP — later than a user leg of the default
/// budget would have waited. The user's leg is still live for that
/// answer, so the withdrawal has one terminal, `withdrawn`, and every
/// other transaction one too.
#[test]
fn a_withdrawal_answered_after_the_default_budget_has_one_terminal() {
    let user = UserId(7);
    let withdraw_at = SimTime::from_secs(20);
    let run = run_silent_isp(user, Some(withdraw_at), SimTime::from_secs(60));
    assert!(run.record.lock().withdraw_confirmed_at.is_some());
    assert!(run.sim.stats.cp_partition_dropped > 0);
    let withdraw_txn = (user.0 << 16) | 3;
    let terminals = terminals(&run.rec);
    assert_eq!(
        terminals.get(&(user.0, withdraw_txn)),
        Some(&vec![CpOutcome::Withdrawn]),
        "{terminals:?}"
    );
    assert!(terminals.values().all(|t| t.len() == 1), "{terminals:?}");
    // The premise: the answer came after the instant a default leg gives
    // up at, where the user's leg retransmitted past the default's last
    // attempt (events are recorded in time order).
    let rec = run.rec.lock().unwrap();
    let position = |wanted: &dyn Fn(&CpTraceEvent) -> bool| rec.events().position(wanted);
    let past_default = position(&|e| {
        matches!(e, CpTraceEvent::RetryFire { txn, attempt, .. }
            if *txn == withdraw_txn && *attempt == RetryPolicy::default().max_attempts)
    });
    let answered =
        position(&|e| matches!(e, CpTraceEvent::Terminal { txn, .. } if *txn == withdraw_txn));
    let past_default = past_default.expect("the user's leg outlasts the default budget");
    assert!(
        Some(past_default) < answered,
        "{past_default} vs {answered:?}"
    );
}

#[test]
#[should_panic(expected = "leaves no room")]
fn user_ids_that_would_lose_bits_are_refused() {
    UserAgent::new(
        UserId(1 << 48),
        Vec::new(),
        dtcs_netsim::NodeId(0),
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
    );
}
