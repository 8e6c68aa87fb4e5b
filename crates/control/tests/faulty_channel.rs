//! Fault-tolerance acceptance tests: the Fig. 4/5 protocol running over a
//! faulty control channel ([`dtcs_netsim::FaultPlane`]) must still deliver
//! exactly-once configuration — lossy links are repaired by retransmission,
//! duplicated messages are absorbed by dedup and idempotency, and device
//! crashes are healed by the NMS's refresh rounds.

use dtcs_netsim::rng::check_cases;

use dtcs_control::{
    partition_by_provider, CatalogService, ControlPlane, ControlPlaneConfig, DeployScope,
    InternetNumberAuthority, UserHandle, UserId,
};
use dtcs_netsim::{
    FaultConfig, FaultPlane, Outage, Partition, Prefix, SimDuration, SimTime, Simulator, Topology,
};

/// Standard fixture: transit-stub topology, control plane installed, one
/// legitimate user deploying `AntiSpoofing` to all managed devices.
struct Fixture {
    sim: Simulator,
    cp: ControlPlane,
    record: UserHandle,
}

fn fixture(transit: usize, stubs: usize, reconcile_every: Option<SimDuration>) -> Fixture {
    let topo = Topology::transit_stub_multihomed(transit, stubs, 0.2, 7);
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
            reconcile_every,
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
    Fixture { sim, cp, record }
}

fn lossy_plane(seed: u64, drop: f64, dup: f64, jitter_ms: u64) -> FaultPlane {
    FaultPlane::new(FaultConfig {
        seed,
        drop_prob: drop,
        dup_prob: dup,
        jitter_max: SimDuration::from_millis(jitter_ms),
        outages: Vec::new(),
        partitions: Vec::new(),
    })
}

#[test]
fn lossy_channel_converges_to_full_coverage() {
    // The headline acceptance check: 20% loss + 10% duplication + jitter,
    // and the retried protocol still configures every managed device
    // exactly once.
    let mut fx = fixture(3, 5, None);
    fx.sim.install_fault_plane(lossy_plane(42, 0.20, 0.10, 20));
    fx.sim.run_until(SimTime::from_secs(60));

    let n = fx.sim.topo.n();
    assert_eq!(fx.cp.devices_configured(), n, "every device configured");
    for (node, dev) in &fx.cp.devices {
        assert_eq!(
            dev.lock().rule_count,
            1,
            "exactly one rule on {node:?} despite retries + duplicates"
        );
    }
    let r = fx.record.lock();
    assert!(r.registered_at.is_some(), "registration survives loss");
    assert!(!r.denied);

    // The channel really was faulty, and the protocol really did repair it.
    assert!(fx.sim.stats.cp_fault_dropped > 0, "drops occurred");
    assert!(fx.sim.stats.cp_fault_duplicated > 0, "duplicates occurred");
    let cp_stats = fx.cp.cp_stats.lock().clone();
    assert!(
        cp_stats.retransmits > 0,
        "drops must have triggered retransmits: {cp_stats:?}"
    );
}

#[test]
fn duplicate_and_retried_messages_never_double_count() {
    // Duplicate every single control message (dup_prob = 1) with zero
    // loss: every DeployConfirm, NmsAck, InstallOk … arrives twice. The
    // user's coverage report and the devices themselves must not
    // double-count anything.
    let mut fx = fixture(3, 5, None);
    fx.sim.install_fault_plane(lossy_plane(7, 0.0, 1.0, 0));
    fx.sim.run_until(SimTime::from_secs(30));

    let n = fx.sim.topo.n();
    let r = fx.record.lock();
    assert!(r.deploy_confirmed_at.is_some(), "deployment confirms");
    assert_eq!(
        r.devices_configured, n,
        "confirmed coverage counts each device once: {r:?}"
    );
    assert_eq!(fx.cp.devices_configured(), n);
    assert_eq!(fx.cp.total_rules(), n, "one rule per device, never two");

    assert!(fx.sim.stats.cp_fault_duplicated > 0);
    let cp_stats = fx.cp.cp_stats.lock().clone();
    assert!(
        cp_stats.dup_requests + cp_stats.dup_responses > 0,
        "protocol-layer dedup must have absorbed duplicates: {cp_stats:?}"
    );
}

#[test]
fn fault_counters_reconcile_with_channel_activity() {
    // Protocol-layer reliability counters must line up with what the
    // channel actually did: no faults → no retries/dedup hits; faults →
    // both layers agree something happened.
    let mut clean = fixture(3, 5, None);
    clean.sim.install_fault_plane(lossy_plane(1, 0.0, 0.0, 0));
    clean.sim.run_until(SimTime::from_secs(30));
    assert_eq!(clean.sim.stats.cp_fault_dropped, 0);
    assert_eq!(clean.sim.stats.cp_fault_duplicated, 0);
    let cs = clean.cp.cp_stats.lock().clone();
    assert_eq!(cs.give_ups, 0, "lossless channel: nothing abandoned");
    assert_eq!(cs.dup_responses, 0, "lossless channel: no dup responses");
    assert_eq!(cs.reconcile_reinstalls, 0);

    let mut faulty = fixture(3, 5, None);
    faulty
        .sim
        .install_fault_plane(lossy_plane(9, 0.15, 0.15, 10));
    faulty.sim.run_until(SimTime::from_secs(60));
    let dropped = faulty.sim.stats.cp_fault_dropped;
    let duplicated = faulty.sim.stats.cp_fault_duplicated;
    assert!(dropped > 0 && duplicated > 0);
    let cs = faulty.cp.cp_stats.lock().clone();
    // Every retransmit exists because some message went missing; the
    // retry layer can only have fired after actual channel loss.
    assert!(
        cs.retransmits > 0,
        "{dropped} drops must surface as retransmits: {cp:?}",
        cp = cs
    );
    // And despite it all: exactly-once effects.
    assert_eq!(faulty.cp.devices_configured(), faulty.sim.topo.n());
    assert_eq!(faulty.cp.total_rules(), faulty.sim.topo.n());
}

#[test]
fn device_crash_is_repaired_by_reconciliation_sweep() {
    // A managed device crashes mid-run and loses its installed services;
    // its reboot announcement and the NMS's refresh rounds re-install.
    let mut fx = fixture(3, 5, Some(SimDuration::from_secs(2)));
    let crashed = fx.sim.topo.stub_nodes()[1];
    fx.sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed: 5,
        drop_prob: 0.0,
        dup_prob: 0.0,
        jitter_max: SimDuration::ZERO,
        outages: vec![Outage {
            node: crashed,
            from: SimTime::from_secs(5),
            until: SimTime::from_millis(5200),
            crash: true,
        }],
        partitions: Vec::new(),
    }));
    fx.sim.run_until(SimTime::from_secs(20));

    assert_eq!(fx.sim.stats.node_crashes, 1);
    let dev = fx.cp.devices[&crashed].lock();
    assert_eq!(dev.crashes, 1, "the device recorded its crash");
    assert_eq!(
        dev.rule_count, 1,
        "service re-installed after the crash wiped it"
    );
    drop(dev);
    assert_eq!(fx.cp.devices_configured(), fx.sim.topo.n());
    let cs = fx.cp.cp_stats.lock().clone();
    assert!(cs.reconcile_sweeps > 0, "sweeps ran: {cs:?}");
    assert!(
        cs.reconcile_reinstalls >= 1,
        "the announcement's refresh repaired the crashed device: {cs:?}"
    );
}

#[test]
fn nms_outage_window_is_ridden_out_by_retries() {
    // A non-crash outage: the first ISP's NMS goes deaf for 1.5 s right
    // as deployment fan-out begins. Retransmits from the TCSP (and the
    // NMS's own install retries) repair the gap once the window closes.
    let mut fx = fixture(3, 5, None);
    let nms = fx.cp.isps[0].nms_node;
    fx.sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed: 3,
        drop_prob: 0.0,
        dup_prob: 0.0,
        jitter_max: SimDuration::ZERO,
        outages: vec![Outage {
            node: nms,
            from: SimTime::from_millis(150),
            until: SimTime::from_millis(1650),
            crash: false,
        }],
        partitions: Vec::new(),
    }));
    fx.sim.run_until(SimTime::from_secs(60));

    assert!(
        fx.sim.stats.cp_outage_dropped > 0,
        "the window ate messages"
    );
    assert_eq!(
        fx.cp.devices_configured(),
        fx.sim.topo.n(),
        "coverage completes after the outage closes"
    );
    assert_eq!(fx.cp.total_rules(), fx.sim.topo.n());
}

#[test]
fn control_partition_window_is_ridden_out_by_retries() {
    // A directed control-plane cut — TCSP → first ISP's NMS goes dark
    // for 1.5 s right as deployment fan-out begins, while the reverse
    // direction stays up. Unlike an outage, only that ordered pair is
    // affected; retransmits repair the gap once the window lifts.
    let mut fx = fixture(3, 5, None);
    let nms = fx.cp.isps[0].nms_node;
    let tcsp = fx.sim.topo.transit_nodes()[0];
    fx.sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed: 11,
        drop_prob: 0.0,
        dup_prob: 0.0,
        jitter_max: SimDuration::ZERO,
        outages: Vec::new(),
        partitions: vec![Partition {
            src: vec![tcsp],
            dst: vec![nms],
            from: SimTime::from_millis(100),
            until: SimTime::from_millis(1600),
        }],
    }));
    fx.sim.run_until(SimTime::from_secs(60));

    assert!(
        fx.sim.stats.cp_partition_dropped > 0,
        "the cut swallowed messages"
    );
    assert_eq!(
        fx.sim.stats.cp_outage_dropped, 0,
        "a partition is not an outage: the buckets must not bleed"
    );
    assert_eq!(
        fx.cp.devices_configured(),
        fx.sim.topo.n(),
        "coverage completes after the partition heals"
    );
    assert_eq!(fx.cp.total_rules(), fx.sim.topo.n());
}

/// Satellite (d), part 1: any loss/dup/jitter schedule below the
/// retry budget converges — every scoped device ends up configured
/// exactly once.
#[test]
fn random_fault_schedules_converge_to_exactly_once() {
    let (mut dropped, mut duplicated) = (0, 0);
    check_cases(0..12, |rng| {
        let seed = rng.gen_range(0..10_000u64);
        let drop = rng.gen_range(0.0..0.18);
        let dup = rng.gen_range(0.0..0.30);
        let jitter_ms = rng.gen_range(0..40u64);
        let mut fx = fixture(2, 4, None);
        fx.sim
            .install_fault_plane(lossy_plane(seed, drop, dup, jitter_ms));
        fx.sim.run_until(SimTime::from_secs(60));
        let n = fx.sim.topo.n();
        assert_eq!(fx.cp.devices_configured(), n);
        for (node, dev) in &fx.cp.devices {
            assert_eq!(
                dev.lock().rule_count,
                1,
                "device {node:?} configured exactly once (seed {seed}, drop {drop}, dup {dup})",
            );
        }
        dropped += fx.sim.stats.cp_fault_dropped;
        duplicated += fx.sim.stats.cp_fault_duplicated;
    });
    // The premise: the schedules really drop and duplicate.
    assert!(dropped > 0 && duplicated > 0, "{dropped} / {duplicated}");
}

/// Satellite (d), part 2: duplicated DeployConfirm / NmsAck traffic
/// never double-counts `devices_configured` in the user's record.
#[test]
fn duplicated_confirms_never_inflate_coverage() {
    check_cases(0..12, |rng| {
        let seed = rng.gen_range(0..10_000u64);
        let dup = rng.gen_range(0.3..1.0);
        let mut fx = fixture(2, 4, None);
        fx.sim.install_fault_plane(lossy_plane(seed, 0.0, dup, 0));
        fx.sim.run_until(SimTime::from_secs(30));
        let n = fx.sim.topo.n();
        let r = fx.record.lock();
        assert!(r.deploy_confirmed_at.is_some());
        assert_eq!(
            r.devices_configured, n,
            "coverage inflated: {r:?} (seed {seed}, dup {dup})"
        );
        assert_eq!(fx.cp.total_rules(), n);
        // The premise: duplicated answers reached their receivers.
        let dup_responses = fx.cp.cp_stats.lock().dup_responses;
        assert!(dup_responses > 0, "seed {seed}, dup {dup}");
    });
}

/// Retired work takes its timers along: on a small `cp_churn`-shaped plane
/// — leases renewed every 2 s, 20 % loss, 10 % duplication, crashing
/// devices, half the owners withdrawing, and one ISP's devices cut off
/// from their NMS for longer than a lease — no retry timer fires into an
/// empty slot (the retransmitter refuses one with a panic), and the cut
/// devices reap.
#[test]
fn a_churning_plane_fires_no_idle_timer() {
    const OWNERS: usize = 8;
    let ms = SimTime::from_millis;
    let topo = Topology::transit_stub_multihomed(4, 6, 0.2, 11);
    let mut sim = Simulator::new(topo, 5);
    let stubs = sim.topo.stub_nodes();
    let mut authority = InternetNumberAuthority::new();
    for (u, &node) in stubs.iter().take(OWNERS).enumerate() {
        // `ControlPlane::add_user*` hands out user ids in this order.
        authority.allocate(Prefix::of_node(node), UserId(0xAA01 + u as u64));
    }
    let isps = partition_by_provider(&sim);
    let cut = isps[0].clone();
    let transit = sim.topo.transit_nodes();
    let mut cp = ControlPlane::install_with(
        &mut sim,
        authority,
        0x5EC,
        transit[0],
        transit[1],
        isps,
        ControlPlaneConfig {
            reconcile_every: Some(SimDuration::from_secs(2)),
            leases: Some((SimDuration::from_secs(8), SimDuration::from_secs(2))),
            ..ControlPlaneConfig::default()
        },
    );
    for (u, &node) in stubs.iter().take(OWNERS).enumerate() {
        let claim = vec![Prefix::of_node(node)];
        let (service, scope) = (CatalogService::AntiSpoofing, DeployScope::AllManaged);
        let at = ms(100 + 37 * u as u64);
        if u % 2 == 0 {
            let withdraw = ms(15_000 + 37 * u as u64);
            cp.add_user_withdrawing(
                &mut sim,
                node,
                claim,
                service,
                scope,
                at,
                withdraw,
                false,
                |a| a,
            );
        } else {
            cp.add_user(&mut sim, node, claim, service, scope, at, false);
        }
    }
    let mut outages = Vec::new();
    for (i, &node) in stubs.iter().enumerate() {
        for start in (3_000 + 700 * i as u64..30_000).step_by(10_000) {
            outages.push(Outage {
                node,
                from: ms(start),
                until: ms(start + 300),
                crash: true,
            });
        }
    }
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed: 5,
        drop_prob: 0.2,
        dup_prob: 0.1,
        jitter_max: SimDuration::from_millis(10),
        outages,
        partitions: vec![Partition {
            src: vec![cut.nms_node],
            dst: cut.managed.clone(),
            from: ms(18_000),
            until: ms(30_000),
        }],
    }));
    sim.run_until(ms(40_650));

    let cs = cp.cp_stats.lock().clone();
    assert!(cs.retransmits > 0 && cs.lease_renewals > 0 && cs.withdrawals > 0);
    assert!(cs.give_ups > 0, "{cs:?}");
    assert!(sim.stats.node_crashes > 0);
    assert!(sim.stats.cp_fault_dropped > 0 && sim.stats.cp_fault_duplicated > 0);
    assert!(sim.stats.cp_partition_dropped > 0);
    let reaps: u64 = cp.devices.values().map(|d| d.lock().lease_reaps).sum();
    assert!(
        reaps > 0,
        "the devices cut off for longer than a lease reaped"
    );
}
