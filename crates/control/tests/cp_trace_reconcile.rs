//! Flight-recorder ↔ counter reconciliation: with full (unsampled)
//! control tracing, folding the recorded event stream must reproduce
//! every `cp_*` channel counter in [`dtcs_netsim::Stats`] and every
//! protocol-layer counter in [`dtcs_control::CpStats`] *exactly*. The
//! trace is not a best-effort log — it is a second, independent account
//! of the same run, and the two books must balance. The same runs hold
//! the TCSP to answering every deployment within one retry budget, and
//! every agent to tracing a request under the key its requester chose.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dtcs_control::{
    partition_by_provider, CatalogService, ControlPlane, ControlPlaneConfig, DeployScope,
    InternetNumberAuthority, RetryPolicy, UserId, RECONCILE_TXN,
};
use dtcs_netsim::{
    CpFlightRecorder, CpState, CpTraceEvent, CpVerdict, FaultConfig, FaultPlane, Outage, Partition,
    Prefix, SimDuration, SimTime, Simulator, Topology, TraceRecord,
};

/// Event-stream fold mirroring the counter registry: one bucket per
/// counter the recorder claims to account for.
#[derive(Debug, Default, PartialEq, Eq)]
struct Folded {
    sends: u64,
    drops: u64,
    outage_drops: u64,
    partition_drops: u64,
    dups: u64,
    jittered: u64,
    crashes: u64,
    retry_fires: u64,
    give_ups: u64,
    dup_requests: u64,
    dup_responses: u64,
    partial_confirms: u64,
    sweeps: u64,
    reinstalls: u64,
    lease_renewals: u64,
    lease_expirations: u64,
    withdrawals: u64,
    withdraw_removes: u64,
    reconcile_removals: u64,
    expired_deploys: u64,
}

fn fold(rec: &CpFlightRecorder) -> Folded {
    let mut f = Folded::default();
    for ev in rec.events() {
        match ev {
            CpTraceEvent::Send { .. } => f.sends += 1,
            CpTraceEvent::Verdict { verdict, .. } => match verdict {
                CpVerdict::Drop => f.drops += 1,
                CpVerdict::Outage { .. } => f.outage_drops += 1,
                CpVerdict::Partition { .. } => f.partition_drops += 1,
                CpVerdict::Deliver {
                    jitter_ns,
                    dup_extra_ns,
                    ..
                } => {
                    if *jitter_ns > 0 {
                        f.jittered += 1;
                    }
                    if dup_extra_ns.is_some() {
                        f.dups += 1;
                    }
                }
            },
            CpTraceEvent::DedupHit { response, .. } => {
                if *response {
                    f.dup_responses += 1;
                } else {
                    f.dup_requests += 1;
                }
            }
            CpTraceEvent::RetryFire { .. } => f.retry_fires += 1,
            CpTraceEvent::RetryGaveUp { .. } => f.give_ups += 1,
            CpTraceEvent::State { state, .. } => match state {
                CpState::PartialConfirm => f.partial_confirms += 1,
                CpState::Reinstall => f.reinstalls += 1,
                CpState::Renew => f.lease_renewals += 1,
                CpState::DesiredExpired => f.lease_expirations += 1,
                CpState::WithdrawFanout => f.withdrawals += 1,
                CpState::DeviceRemoved => f.withdraw_removes += 1,
                CpState::RemoveOrphan => f.reconcile_removals += 1,
                CpState::CertExpired => f.expired_deploys += 1,
                _ => {}
            },
            CpTraceEvent::Sweep { .. } => f.sweeps += 1,
            CpTraceEvent::Crash { .. } => f.crashes += 1,
            CpTraceEvent::RetrySchedule { .. } | CpTraceEvent::Terminal { .. } => {}
        }
    }
    f
}

/// Every deployment the TCSP fans out settles within one retry budget:
/// each ISP leg acks or gives up by then, and the TCSP sends its
/// `DeployConfirm` (message kind 8) for the same `(origin, txn)`.
fn assert_deploys_settle_within_budget(rec: &CpFlightRecorder) {
    let budget = RetryPolicy::default().budget().0;
    let mut fanouts = Vec::new();
    let mut confirms: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for ev in rec.events() {
        match ev {
            CpTraceEvent::State {
                t,
                origin,
                txn,
                state: CpState::DeployFanout,
                ..
            } => fanouts.push(((*origin, *txn), *t)),
            CpTraceEvent::Send {
                t, meta: Some(m), ..
            } if m.kind == 8 => {
                confirms.entry((m.origin, m.txn)).or_insert(*t);
            }
            _ => {}
        }
    }
    assert!(!fanouts.is_empty(), "the users' deploys fan out");
    for (key, at) in fanouts {
        let confirmed = confirms.get(&key).copied();
        assert!(
            confirmed.is_some_and(|c| c <= at + budget),
            "{key:?} fanned out at {at} ns, confirmed at {confirmed:?}"
        );
    }
}

/// Every transaction is one its requester keyed: no traced key has origin 0
/// but the NMS's refreshes and repairs, so no agent mints ids of its
/// own, and every registration (a key with a `RegisterRequest` send,
/// message kind 1) ends in exactly one terminal, the legs it relays
/// included.
fn assert_requests_keep_their_keys(rec: &CpFlightRecorder) {
    let mut registrations: BTreeMap<[u64; 2], usize> = BTreeMap::new();
    for ev in rec.events() {
        let Some(key) = ev.sample_key() else { continue };
        assert!(
            key[0] != 0 || key[1] == RECONCILE_TXN,
            "an agent minted the key {key:?}: {ev:?}"
        );
        if let CpTraceEvent::Send { meta: Some(m), .. } = ev {
            if m.kind == 1 {
                registrations.entry(key).or_default();
            }
        }
    }
    assert!(!registrations.is_empty(), "the users register");
    for ev in rec.events() {
        if let CpTraceEvent::Terminal { origin, txn, .. } = ev {
            if let Some(n) = registrations.get_mut(&[*origin, *txn]) {
                *n += 1;
            }
        }
    }
    for (key, terminals) in registrations {
        assert_eq!(terminals, 1, "registration {key:?} ends {terminals} times");
    }
}

/// One traced run's full yield: the exported JSONL, the folded trace,
/// and the expected fold rebuilt from the counters. Fold equality is
/// only meaningful at sampling multiplier 1 (full trace).
struct TracedRun {
    jsonl: String,
    folded: Folded,
    expected: Folded,
}

/// Run a register → deploy → renew → withdraw scenario under the given
/// fault schedule with tracing at sampling multiplier `mult`. Three
/// users exercise every counter: one keeps renewing, one withdraws
/// mid-run, one presents an expired certificate; a partition window
/// cuts TCSP → first-NMS traffic.
fn run_traced(seed: u64, drop: f64, dup: f64, jitter_ms: u64, crash: bool, mult: u64) -> TracedRun {
    let topo = Topology::transit_stub_multihomed(2, 4, 0.2, 7);
    let mut sim = Simulator::new(topo, 3);
    let stubs = sim.topo.stub_nodes();
    let mut authority = InternetNumberAuthority::new();
    let prefixes: Vec<Prefix> = stubs.iter().map(|&n| Prefix::of_node(n)).collect();
    authority.allocate(prefixes[0], UserId(0xAA01));
    authority.allocate(prefixes[1], UserId(0xAA02));
    authority.allocate(prefixes[2], UserId(0xAA03));
    let isps = partition_by_provider(&sim);
    let tcsp_node = sim.topo.transit_nodes()[0];
    let authority_node = sim.topo.transit_nodes()[1];
    let first_nms = isps[0].nms_node;
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
            // Short credential lifetime: desired state expires late in
            // the run (lease_expirations) and the delayed third deploy
            // is rejected as stale (expired_deploys).
            cert_lifetime: Some(SimDuration::from_secs(6)),
            ..ControlPlaneConfig::default()
        },
    );
    // User 1: deploys and stays; renewals run until the credential dies.
    cp.add_user(
        &mut sim,
        stubs[0],
        vec![prefixes[0]],
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
        SimTime::from_millis(100),
        false,
    );
    // User 2: withdraws at t = 4 s (tracked, retried, fanned-in).
    cp.add_user_withdrawing(
        &mut sim,
        stubs[1],
        vec![prefixes[1]],
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
        SimTime::from_millis(150),
        SimTime::from_secs(4),
        false,
        |a| a,
    );
    // User 3: holds its deploy until after the certificate expired.
    cp.add_user_with(
        &mut sim,
        stubs[2],
        vec![prefixes[2]],
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
        SimTime::from_millis(200),
        false,
        |a| a.with_deploy_delay(SimDuration::from_secs(7)),
    );
    let outages = if crash {
        vec![Outage {
            node: stubs[3],
            from: SimTime::from_secs(5),
            until: SimTime::from_millis(5200),
            crash: true,
        }]
    } else {
        Vec::new()
    };
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed,
        drop_prob: drop,
        dup_prob: dup,
        jitter_max: SimDuration::from_millis(jitter_ms),
        outages,
        partitions: vec![Partition {
            src: vec![tcsp_node],
            dst: vec![first_nms],
            from: SimTime::from_millis(300),
            until: SimTime::from_millis(1100),
        }],
    }));

    let rec = Arc::new(Mutex::new(CpFlightRecorder::new(1 << 20)));
    sim.set_cp_trace_sink(Box::new(rec.clone()), mult);
    sim.run_until(SimTime::from_secs(30));
    sim.take_cp_trace_sink();

    let guard = rec.lock().expect("recorder mutex");
    assert_eq!(guard.evicted(), 0, "capacity must hold the whole run");
    let jsonl = guard.export_jsonl_string();
    let folded = fold(&guard);
    if mult == 1 {
        assert_deploys_settle_within_budget(&guard);
        assert_requests_keep_their_keys(&guard);
    }

    let cs = cp.cp_stats.lock().clone();
    let expected = Folded {
        sends: sim.stats.cp_msgs,
        drops: sim.stats.cp_fault_dropped,
        outage_drops: sim.stats.cp_outage_dropped,
        partition_drops: sim.stats.cp_partition_dropped,
        dups: sim.stats.cp_fault_duplicated,
        jittered: sim.stats.cp_fault_jittered,
        crashes: sim.stats.node_crashes,
        retry_fires: cs.retransmits,
        give_ups: cs.give_ups,
        dup_requests: cs.dup_requests,
        dup_responses: cs.dup_responses,
        partial_confirms: cs.partial_confirms,
        sweeps: cs.reconcile_sweeps,
        reinstalls: cs.reconcile_reinstalls,
        lease_renewals: cs.lease_renewals,
        lease_expirations: cs.lease_expirations,
        withdrawals: cs.withdrawals,
        withdraw_removes: cs.withdraw_removes,
        reconcile_removals: cs.reconcile_removals,
        expired_deploys: cs.expired_deploys,
    };
    TracedRun {
        jsonl,
        folded,
        expected,
    }
}

fn run_and_fold(seed: u64, drop: f64, dup: f64, jitter_ms: u64, crash: bool) -> (Folded, Folded) {
    let r = run_traced(seed, drop, dup, jitter_ms, crash, 1);
    (r.folded, r.expected)
}

#[test]
fn crash_run_trace_reconciles_and_is_busy() {
    // Deterministic anchor: a lossy run with a device crash exercises
    // every bucket the proptest folds — and the books still balance.
    let (folded, expected) = run_and_fold(42, 0.20, 0.10, 20, true);
    assert_eq!(folded, expected);
    assert!(folded.sends > 0);
    assert!(folded.drops > 0, "20% loss must drop something");
    assert!(folded.crashes == 1, "the scheduled crash must be recorded");
    assert!(folded.sweeps > 0, "reconcile sweeps ran");
    assert!(
        folded.partition_drops > 0,
        "the partition window must cut TCSP→NMS traffic"
    );
    assert!(folded.lease_renewals > 0, "renewal rounds ran");
    assert!(
        folded.lease_expirations > 0,
        "the 6 s certificate must expire desired state"
    );
    assert_eq!(folded.withdrawals, 1, "user 2 withdrew once");
    assert!(folded.withdraw_removes > 0, "devices confirmed removals");
    assert!(
        folded.expired_deploys > 0,
        "user 3's stale deploy must be rejected and counted"
    );
}

#[test]
fn cp_trace_jsonl_is_byte_identical_across_runs_and_covers_new_kinds() {
    // Same seed → byte-for-byte identical JSONL, including every event
    // kind this PR added to the wire schema.
    let a = run_traced(42, 0.20, 0.10, 20, true, 1);
    let b = run_traced(42, 0.20, 0.10, 20, true, 1);
    assert!(!a.jsonl.is_empty());
    assert_eq!(
        a.jsonl, b.jsonl,
        "fixed seed must reproduce the JSONL byte-for-byte"
    );
    for needle in [
        "\"outcome\":\"partition\"",
        "\"state\":\"renew\"",
        "\"state\":\"desired_expired\"",
        "\"state\":\"withdraw_fanout\"",
        "\"state\":\"device_removed\"",
        "\"state\":\"cert_expired\"",
        "\"outcome\":\"withdrawn\"",
        "\"outcome\":\"renewed\"",
        "\"outcome\":\"expired\"",
    ] {
        assert!(a.jsonl.contains(needle), "trace must contain {needle}");
    }
}

#[test]
fn sampled_cp_trace_is_subset_of_full() {
    // A sampled trace (every 3rd keyed transaction) of the same seeded
    // run must be a strict, line-exact subset of the full trace — the
    // new withdraw/renew/partition kinds sample like everything else.
    let full = run_traced(42, 0.20, 0.10, 20, true, 1);
    let sampled = run_traced(42, 0.20, 0.10, 20, true, 3);
    let full_lines: std::collections::HashSet<&str> = full.jsonl.lines().collect();
    let sampled_lines: Vec<&str> = sampled.jsonl.lines().collect();
    assert!(!sampled_lines.is_empty());
    assert!(sampled_lines.len() < full.jsonl.lines().count());
    for line in sampled_lines {
        assert!(
            full_lines.contains(line),
            "sampled event missing from full trace: {line}"
        );
    }
}

/// The TCSP verifies ownership as a leg of the user's registration: over a
/// lossless run and lossy, crashing ones, every key but the NMS rounds'
/// is a requester's, and each registration ends once
/// ([`assert_requests_keep_their_keys`], which every full-trace run checks).
#[test]
fn registrations_trace_under_the_users_key_alone() {
    run_traced(7, 0.0, 0.0, 0, false, 1);
    for seed in [1, 2, 3] {
        run_traced(seed, 0.25, 0.2, 30, true, 1);
    }
}

/// Satellite (3): folding the full trace reproduces every channel
/// (`cp_*`) and protocol (`CpStats`) counter exactly, across random
/// fault schedules — nothing is double-recorded, nothing is missed.
#[test]
fn cp_trace_reconciles_with_cpstats_exactly() {
    let mut faults = Folded::default();
    dtcs_netsim::rng::check_cases(0..8, |rng| {
        let seed = rng.gen_range(0..10_000u64);
        let drop = rng.gen_range(0.0..0.25);
        let dup = rng.gen_range(0.0..0.30);
        let jitter_ms = rng.gen_range(0..40u64);
        let crashes = rng.gen_range(0..2u8) == 1;
        let (folded, expected) = run_and_fold(seed, drop, dup, jitter_ms, crashes);
        assert_eq!(folded, expected);
        faults.drops += folded.drops;
        faults.dups += folded.dups;
        faults.give_ups += folded.give_ups;
    });
    // The premise: the schedules drop, duplicate and exhaust legs, so the
    // books balance over real faults.
    assert!(
        faults.drops > 0 && faults.dups > 0 && faults.give_ups > 0,
        "{faults:?}"
    );
}
