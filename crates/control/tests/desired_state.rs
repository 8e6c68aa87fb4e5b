//! An NMS records what should stand when it accepts a deployment, not when
//! a device answers: the record outlives an install the NMS gave up on, a
//! withdrawal takes back an install that is still retrying, and a device
//! that rebooted gets its services back as soon as it is heard saying it
//! is up. All run in E13's configuration — a 2 s refresh round, no
//! leases — so only desired state can repair or refuse. Each round is one
//! refresh per managed device.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dtcs_control::{
    partition_by_provider, CatalogService, ControlPlane, ControlPlaneConfig, CpMsg, DeployScope,
    Envelope, InternetNumberAuthority, MsgKey, Role, UserId, RECONCILE_TXN,
};
use dtcs_device::OwnerId;
use dtcs_netsim::{
    CpFlightRecorder, CpTraceEvent, FaultConfig, FaultPlane, NodeId, Outage, Partition, Prefix,
    SimDuration, SimTime, Simulator, Topology,
};

/// E13's refresh period.
const SWEEP: SimDuration = SimDuration::from_secs(2);

/// Flight-recorder message kinds of the device protocol: a tracked
/// install, a refresh, and the three answers an untracked send never gets
/// (`InstallOk`, `InstallRejected`, `RemoveOk`).
const INSTALL: u8 = 11;
const REFRESH: u8 = 12;
const ANSWERS: [u8; 3] = [13, 14, 22];

/// Run `sim` to `until` with every control event recorded.
fn record(sim: &mut Simulator, until: SimTime) -> Arc<Mutex<CpFlightRecorder>> {
    let rec = Arc::new(Mutex::new(CpFlightRecorder::new(1 << 20)));
    sim.set_cp_trace_sink(Box::new(rec.clone()), 1);
    sim.run_until(until);
    sim.take_cp_trace_sink();
    assert_eq!(rec.lock().unwrap().evicted(), 0);
    rec
}

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
/// NMS gives up on the device; once the cut heals, the next refresh round
/// carries the service to it.
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
        "the refresh repaired the install the NMS gave up on"
    );
    assert_eq!(cp.total_rules(), sim.topo.n());
    let stats = cp.cp_stats.lock().clone();
    assert_eq!(stats.reconcile_reinstalls, 0, "no reboot: {stats:?}");
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

/// Every NMS accepts the owner's withdrawal 1 ms after a round, while that
/// round's refreshes, which carry the owner's service, are still on the
/// wire. Each removal, one processing step behind, overtakes its device's
/// refresh, which then re-installs the service. The next round's refresh
/// leaves it out, the device lists it, and the NMS removes it: no filter
/// stands a round later, though the plane has no leases.
#[test]
fn a_refresh_that_lands_behind_a_withdrawal_is_undone_by_the_next_round() {
    let (mut sim, cp, _, _) = one_user_plane(None, None);
    let accepted = SimTime::from_millis(4_001);
    for isp in &cp.isps {
        let withdraw = Envelope {
            to: Role::Nms,
            key: MsgKey::first(0xAA01, 1),
            msg: CpMsg::NmsWithdraw {
                owner: OwnerId(0xAA01),
            },
        };
        sim.deliver_control(accepted, cp.tcsp_node, isp.nms_node, withdraw);
    }
    sim.run_until(accepted + SimDuration::from_millis(500));
    assert_eq!(cp.cp_stats.lock().withdraw_removes, sim.topo.n() as u64);
    assert_eq!(
        cp.total_rules(),
        sim.topo.n(),
        "each refresh in flight re-installed the service behind its removal"
    );

    sim.run_until(accepted + SWEEP + SimDuration::from_millis(500));
    assert_eq!(cp.total_rules(), 0, "the next round's answers removed it");
    let stats = cp.cp_stats.lock().clone();
    assert_eq!(stats.reconcile_removals, sim.topo.n() as u64, "{stats:?}");
}

/// A device crashes just after a round and reboots 200 ms later. Up again,
/// it tells its NMS it holds nothing, and the NMS re-installs the owner's
/// service within one round trip, not at the next round, 1.7 s on.
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
    assert_eq!(stats.reconcile_sweeps, sweeps, "no round ran meanwhile");
    assert_eq!(stats.reconcile_reinstalls, 1, "{stats:?}");
}

/// The device's way to its NMS is cut from its crash until 900 ms later,
/// across its reboot at 4.3 s: its announcements at 4.3 and 4.55 s are
/// lost, the one at 5.05 s, the first after the heal, is answered, and its
/// rules stand by 5.5 s, not at the next round at 6 s.
#[test]
fn a_reboot_cut_from_its_nms_stands_again_within_an_announcement_of_the_heal() {
    let [crash, reboot, heal] = [4_100, 4_300, 5_000].map(SimTime::from_millis);
    let (mut sim, cp, nms, device) = one_user_plane(None, None);
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        outages: vec![Outage {
            node: device,
            from: crash,
            until: reboot,
            crash: true,
        }],
        partitions: vec![Partition {
            src: vec![device],
            dst: vec![nms],
            from: crash,
            until: heal,
        }],
        ..FaultConfig::default()
    }));
    let rules = |cp: &ControlPlane| cp.devices[&device].lock().rule_count;
    sim.run_until(heal);
    assert_eq!(rules(&cp), 0, "the crash wiped the device");
    assert!(sim.stats.cp_partition_dropped >= 2, "announcements lost");
    let sweeps = cp.cp_stats.lock().reconcile_sweeps;

    sim.run_until(heal + SimDuration::from_millis(500));
    assert_eq!(
        rules(&cp),
        1,
        "the NMS answered the announcement after the heal"
    );
    let stats = cp.cp_stats.lock().clone();
    assert_eq!(stats.reconcile_sweeps, sweeps, "no round ran meanwhile");
    assert_eq!(stats.reconcile_reinstalls, 1, "{stats:?}");
}

/// A lossless, leased run renewing every second: at each round every NMS
/// sends each device it manages exactly one message, its refresh, and
/// nothing else goes out untracked — no per-entry renewal, no query.
#[test]
fn each_nms_sends_one_refresh_per_managed_device_per_round() {
    let lease = (SimDuration::from_secs(3), SimDuration::from_secs(1));
    let (mut sim, cp, _, _) = one_user_plane(None, Some(lease));
    sim.install_fault_plane(FaultPlane::new(FaultConfig::default()));
    let rec = record(&mut sim, SimTime::from_millis(10_500));
    let rec = rec.lock().unwrap();
    let mut rounds = BTreeMap::new();
    let mut untracked: BTreeMap<(u64, NodeId), Vec<(NodeId, u8)>> = BTreeMap::new();
    for ev in rec.events() {
        match ev {
            CpTraceEvent::Sweep { t, node } => *rounds.entry((*t, *node)).or_insert(0) += 1,
            CpTraceEvent::Send {
                t,
                meta: Some(m),
                from,
                to,
            } if m.origin == 0 => untracked
                .entry((*t, *from))
                .or_default()
                .push((*to, m.kind)),
            _ => {}
        }
    }
    let isps = cp.isps.len();
    assert_eq!(rounds.len(), 10 * isps, "a round a second per NMS");
    assert!(rounds.values().all(|&n| n == 1));
    assert_eq!(
        untracked.len(),
        rounds.len(),
        "untracked sends only at rounds"
    );
    for isp in &cp.isps {
        let refreshes: Vec<_> = isp.managed.iter().map(|&d| (d, REFRESH)).collect();
        for (&(t, from), sent) in untracked.iter().filter(|(k, _)| k.1 == isp.nms_node) {
            assert!(rounds.contains_key(&(t, from)), "{t}: {sent:?}");
            assert_eq!(*sent, refreshes, "at {t} ns");
        }
    }
    let renewed = cp.cp_stats.lock().lease_renewals;
    assert_eq!(
        renewed,
        10 * sim.topo.n() as u64,
        "one entry a device a round"
    );
}

/// Nothing waits for a refresh or a repair, so no device answers one with
/// an install's or a removal's answer. E13's lossy, jittered, duplicating
/// channel with a device crash: the rounds and the reboot announcement's
/// answer refresh untracked; then the same plane leased, on a clean
/// channel, renewing every second. Neither trace holds an `InstallOk`,
/// `InstallRejected` or `RemoveOk` under the untracked key, and every
/// device holds the service at the end.
#[test]
fn repairs_and_renewals_are_applied_and_unanswered() {
    let lease = (SimDuration::from_secs(3), SimDuration::from_secs(1));
    for (leases, drop_prob) in [(None, 0.2), (Some(lease), 0.0)] {
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
        let rec = record(&mut sim, SimTime::from_secs(20));

        // The premise: the lossy arm really drops, and the device crashed.
        assert_eq!(sim.stats.cp_fault_dropped > 0, drop_prob > 0.0);
        assert_eq!(sim.stats.node_crashes, 1);
        let rec = rec.lock().expect("recorder mutex");
        let (mut sent, mut answered) = (0, Vec::new());
        for ev in rec.events() {
            let CpTraceEvent::Send { meta: Some(m), .. } = ev else {
                continue;
            };
            if m.origin != 0 || m.txn != RECONCILE_TXN {
                continue;
            }
            match m.kind {
                REFRESH => sent += 1,
                INSTALL => panic!("{leases:?}: a per-entry install went untracked: {ev:?}"),
                k if ANSWERS.contains(&k) => answered.push(ev.clone()),
                _ => {}
            }
        }
        assert!(sent > 0, "{leases:?}: no refresh was sent");
        assert!(answered.is_empty(), "{leases:?}: {answered:?}");
        assert_eq!(cp.total_rules(), sim.topo.n(), "{leases:?}");
    }
}
