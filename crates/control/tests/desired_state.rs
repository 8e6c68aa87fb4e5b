//! An NMS records what should stand when it accepts a deployment, not when
//! a device answers: the record outlives an install the NMS gave up on, a
//! withdrawal takes back an install that is still retrying, and a device
//! that rebooted gets its services back as soon as it says it is up. All
//! run in E13's configuration — a 2 s anti-entropy sweep, no leases, no
//! sweep removals — so only desired state can repair or refuse.

use std::sync::{Arc, Mutex};

use dtcs_control::{
    partition_by_provider, CatalogService, ControlPlane, ControlPlaneConfig, DeployScope,
    InternetNumberAuthority, UserId, RECONCILE_TXN, RENEW_TXN,
};
use dtcs_netsim::{
    CpFlightRecorder, CpTraceEvent, FaultConfig, FaultPlane, NodeId, Outage, Partition, Prefix,
    SimDuration, SimTime, Simulator, Topology,
};

/// E13's sweep period.
const SWEEP: SimDuration = SimDuration::from_secs(2);

/// A plane in E13's configuration, leased if `leases` names a `(lease,
/// renew_every)` pair, whose one user registers at 100 ms and deploys
/// `AntiSpoofing` everywhere, withdrawing at `withdraw_at` if given.
/// Returns the plane, one ISP's NMS and one device that NMS manages, on
/// neither its node nor the user's; no fault plane yet.
fn one_user_plane(
    withdraw_at: Option<SimTime>,
    leases: Option<(SimDuration, SimDuration)>,
) -> (Simulator, ControlPlane, NodeId, NodeId) {
    let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
    let mut sim = Simulator::new(topo, 3);
    let user_node = sim.topo.stub_nodes()[0];
    let prefix = Prefix::of_node(user_node);
    let mut authority = InternetNumberAuthority::new();
    // `ControlPlane::add_user*` hands out this id first.
    authority.allocate(prefix, UserId(0xAA01));
    let isps = partition_by_provider(&sim);
    let nms = isps[0].nms_node;
    // Not the user's node: the cut would silence the TCSP's answers too
    // when the TCSP shares the NMS's node.
    let device = *isps[0]
        .managed
        .iter()
        .find(|&&n| n != nms && n != user_node)
        .expect("the ISP manages a router besides its NMS's and the user's");
    let transit = sim.topo.transit_nodes();
    let mut cp = ControlPlane::install_with(
        &mut sim,
        authority,
        0x5EC,
        transit[0],
        transit[1],
        isps,
        ControlPlaneConfig {
            reconcile_every: Some(SWEEP),
            leases,
            ..ControlPlaneConfig::default()
        },
    );
    let (claim, service, scope) = (
        vec![prefix],
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
    );
    let register_at = SimTime::from_millis(100);
    match withdraw_at {
        Some(at) => cp.add_user_withdrawing(
            &mut sim,
            user_node,
            claim,
            service,
            scope,
            register_at,
            at,
            false,
            |a| a,
        ),
        None => cp.add_user(
            &mut sim,
            user_node,
            claim,
            service,
            scope,
            register_at,
            false,
        ),
    };
    (sim, cp, nms, device)
}

/// [`one_user_plane`] where the NMS cannot reach its device until `heal`.
fn cut_off_device(
    heal: SimTime,
    withdraw_at: Option<SimTime>,
) -> (Simulator, ControlPlane, NodeId) {
    let (mut sim, cp, nms, device) = one_user_plane(withdraw_at, None);
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed: 1,
        drop_prob: 0.0,
        dup_prob: 0.0,
        jitter_max: SimDuration::ZERO,
        outages: Vec::new(),
        partitions: vec![Partition {
            src: vec![nms],
            dst: vec![device],
            from: SimTime::ZERO,
            until: heal,
        }],
    }));
    (sim, cp, device)
}

/// The cut outlasts the install leg's retry budget (under 9.7 s), so the
/// NMS gives up on the device; once the cut heals, the next sweep finds
/// the service missing and installs it.
#[test]
fn an_install_given_up_on_is_repaired_within_a_sweep_of_the_heal() {
    let heal = SimTime::from_secs(15);
    let (mut sim, cp, device) = cut_off_device(heal, None);
    sim.run_until(heal);
    assert_eq!(cp.devices[&device].lock().rule_count, 0, "cut off");
    let stats = cp.cp_stats.lock().clone();
    assert!(stats.give_ups >= 1, "the install leg gave up: {stats:?}");
    assert_eq!(
        cp.devices_configured(),
        sim.topo.n() - 1,
        "every other device holds the service"
    );

    sim.run_until(heal + SWEEP + SimDuration::from_millis(200));
    assert_eq!(
        cp.devices[&device].lock().rule_count,
        1,
        "the sweep repaired the install the NMS gave up on"
    );
    assert_eq!(cp.total_rules(), sim.topo.n());
    assert!(cp.cp_stats.lock().reconcile_reinstalls >= 1);
}

/// The owner withdraws while the install leg to the cut-off device is still
/// retrying and the cut heals inside that leg's budget: the withdrawal
/// refuses the leg's next retransmit, so nothing is installed after the
/// heal, and the device ends with no filter.
#[test]
fn a_withdrawal_refuses_an_install_still_retrying() {
    let heal = SimTime::from_secs(3);
    let (mut sim, cp, device) = cut_off_device(heal, Some(SimTime::from_secs(1)));
    sim.run_until(SimTime::from_secs(20));
    let stats = cp.cp_stats.lock().clone();
    assert_eq!(stats.withdrawals, 1, "{stats:?}");
    assert!(
        sim.stats.cp_partition_dropped > 0,
        "the cut swallowed sends"
    );
    assert_eq!(
        cp.devices[&device].lock().rule_count,
        0,
        "no filter outlives the withdrawal on the cut-off device"
    );
    assert_eq!(cp.total_rules(), 0, "nor anywhere else");
}

/// A device crashes just after a sweep and reboots 200 ms later. Up again,
/// it tells its NMS it holds nothing, and the NMS re-installs the owner's
/// service within one round trip, not at the next sweep, 1.7 s on.
#[test]
fn a_rebooted_device_holds_its_rules_again_within_a_round_trip() {
    let (from, until) = (SimTime::from_millis(4_100), SimTime::from_millis(4_300));
    let (mut sim, cp, _, device) = one_user_plane(None, None);
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        outages: vec![Outage {
            node: device,
            from,
            until,
            crash: true,
        }],
        ..FaultConfig::default()
    }));
    let rules = |cp: &ControlPlane| cp.devices[&device].lock().rule_count;
    sim.run_until(from);
    assert_eq!(rules(&cp), 0, "the crash wiped the device");
    assert_eq!(
        cp.total_rules(),
        sim.topo.n() - 1,
        "every other device holds it"
    );
    sim.run_until(until);
    let sweeps = cp.cp_stats.lock().reconcile_sweeps;

    sim.run_until(until + SimDuration::from_millis(100));
    assert_eq!(rules(&cp), 1, "the NMS answered the reboot");
    assert_eq!(cp.total_rules(), sim.topo.n());
    let stats = cp.cp_stats.lock().clone();
    assert_eq!(stats.reconcile_sweeps, sweeps, "no sweep ran meanwhile");
    assert_eq!(stats.reconcile_reinstalls, 1, "{stats:?}");
}

/// Nothing waits for a repair or a renewal, so no device answers one. E13's
/// lossy, jittered, duplicating channel with a device crash: the sweep and
/// the reboot announcement re-install untracked; then the same plane
/// leased, on a clean channel, renewing every second. Neither trace holds
/// an `InstallOk` (13), `InstallRejected` (14) or `RemoveOk` (22) under the
/// untracked keys, and every device holds the service at the end.
#[test]
fn repairs_and_renewals_are_applied_and_unanswered() {
    let lease = (SimDuration::from_secs(3), SimDuration::from_secs(1));
    for (leases, drop_prob, untracked) in
        [(None, 0.2, RECONCILE_TXN), (Some(lease), 0.0, RENEW_TXN)]
    {
        let (mut sim, cp, _, device) = one_user_plane(None, leases);
        sim.install_fault_plane(FaultPlane::new(FaultConfig {
            seed: 1,
            drop_prob,
            dup_prob: drop_prob / 2.0,
            jitter_max: SimDuration::from_millis(10),
            outages: vec![Outage {
                node: device,
                from: SimTime::from_millis(4_100),
                until: SimTime::from_millis(4_300),
                crash: true,
            }],
            partitions: Vec::new(),
        }));
        let rec = Arc::new(Mutex::new(CpFlightRecorder::new(1 << 20)));
        sim.set_cp_trace_sink(Box::new(rec.clone()), 1);
        sim.run_until(SimTime::from_secs(20));
        sim.take_cp_trace_sink();

        // The premise: the lossy arm really drops, and the device crashed.
        assert_eq!(sim.stats.cp_fault_dropped > 0, drop_prob > 0.0);
        assert_eq!(sim.stats.node_crashes, 1);
        let rec = rec.lock().expect("recorder mutex");
        assert_eq!(rec.evicted(), 0);
        let (mut sent, mut answered) = (0, Vec::new());
        for ev in rec.events() {
            let CpTraceEvent::Send { meta: Some(m), .. } = ev else {
                continue;
            };
            if m.origin != 0 || (m.txn != RECONCILE_TXN && m.txn != RENEW_TXN) {
                continue;
            }
            match m.kind {
                11 if m.txn == untracked => sent += 1,
                13 | 14 | 22 => answered.push(ev.clone()),
                _ => {}
            }
        }
        assert!(sent > 0, "{leases:?}: no untracked install was sent");
        assert!(answered.is_empty(), "{leases:?}: {answered:?}");
        assert_eq!(cp.total_rules(), sim.topo.n(), "{leases:?}");
    }
}
