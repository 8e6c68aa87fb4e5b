//! `cp_churn`: the TCSP / NMS / device control plane under loss,
//! duplication, jitter and crashing devices, with no data packets at all.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dtcs::control::{
    partition_by_provider, CatalogService, ControlPlane, ControlPlaneConfig, DeployScope,
    InternetNumberAuthority, RetryPolicy, UserHandle, UserId,
};
use dtcs::device::ServiceGraph;
use dtcs::netsim::rng::child_seed;
use dtcs::netsim::{
    CpFlightRecorder, FaultConfig, FaultPlane, Outage, Prefix, SimDuration, SimTime, Simulator,
    Topology,
};
use dtcs_bench::trace_report;
use dtcs_bench::util::control_metrics;

use crate::harness::{Ctx, Gen, Outcome};

pub const OWNERS: usize = 64;
/// Off the 2 s renewal grid: `run_until` is inclusive, so a horizon on the
/// grid would start a renewal round whose acks can never land (as E14).
const HORIZON: SimTime = SimTime::from_millis(60_650);
const LEASE: SimDuration = SimDuration::from_secs(8);
const RENEW_EVERY: SimDuration = SimDuration::from_secs(2);
const CRASH_EVERY_MS: u64 = 15_000;
const CRASH_DOWN_MS: u64 = 300;

fn register_at(u: usize) -> SimTime {
    SimTime::from_millis(100 + 37 * u as u64)
}

/// Even owners withdraw; odd ones stay deployed.
fn withdraw_at(u: usize) -> Option<SimTime> {
    u.is_multiple_of(2)
        .then(|| SimTime::from_millis(30_000 + 37 * u as u64))
}

/// Summed over the steady-state probes and all devices.
#[derive(Clone, Copy, Default)]
struct Probes {
    /// Rules above what the staying owners account for.
    orphans: usize,
    /// Placements of staying owners' rules that stand.
    standing: usize,
    /// Placements that should stand.
    intended: usize,
}

#[derive(Clone, Copy)]
pub struct Channel {
    /// Drop 20 % and duplicate 10 % of control messages.
    pub lossy: bool,
    /// Record every control transaction (the traced arm).
    pub record: bool,
}

pub const CP_CHURN: Channel = Channel {
    lossy: true,
    record: false,
};

/// The longest a transaction can stay unanswered before its sender gives
/// up: every timeout at its largest jitter, a quarter above the backoff.
fn retry_budget() -> SimDuration {
    let policy = RetryPolicy::default();
    SimDuration::from_nanos(
        (0..policy.max_attempts)
            .map(|k| (policy.base.as_nanos() << k).min(policy.cap.as_nanos()) * 5 / 4)
            .sum(),
    )
}

/// Run `trace_report::analyze` over the exported record, leaving out the
/// transactions still inside their retry budget at the horizon: with 20 %
/// loss and a renewal round every 2 s some retry is always in flight, at
/// any cutoff. Returns how many older transactions have no outcome.
fn analyze_settled(jsonl: &str) -> Result<usize, String> {
    let settled_before = HORIZON.as_nanos() - retry_budget().as_nanos();
    let evs = jsonl
        .lines()
        .map(trace_report::parse_line)
        .collect::<Result<Vec<_>, _>>()?;
    // As the analyzer does: a transaction is every event under one
    // (origin, txn) key, terminal once any terminal event carries it.
    let mut open = BTreeMap::new();
    for ev in &evs {
        if let ("send", Some(key)) = (ev.kind.as_str(), ev.key()) {
            open.entry(key).or_insert(ev.t);
        }
    }
    for ev in &evs {
        if let ("terminal", Some(key)) = (ev.kind.as_str(), ev.key()) {
            open.remove(&key);
        }
    }
    let stuck = open.values().filter(|&&t| t < settled_before).count();
    let settled: Vec<_> = evs
        .into_iter()
        .filter(|ev| ev.key().is_none_or(|key| !open.contains_key(&key)))
        .collect();
    trace_report::analyze(&settled)?;
    Ok(stuck)
}

/// 8 transit and 128 stub nodes.
pub fn topology(seed: u64) -> Topology {
    Topology::transit_stub_multihomed(8, 16, 0.2, seed)
}

pub fn cp_churn(ctx: &mut Ctx, seed: u64, channel: Channel) -> Outcome {
    let mut out = Outcome::default();
    ctx.setup("setup.topology");
    let topo = topology(seed);
    ctx.setup("setup.routing");
    let mut sim = Simulator::new(topo, seed);

    ctx.setup("setup.deploy");
    let mut stubs = sim.topo.stub_nodes();
    Gen::new(seed, 0xC9).shuffle(&mut stubs);
    let mut authority = InternetNumberAuthority::new();
    for (u, &node) in stubs.iter().take(OWNERS).enumerate() {
        // `ControlPlane::add_user*` hands out user ids in this order.
        authority.allocate(Prefix::of_node(node), UserId(0xAA01 + u as u64));
    }
    let isps = partition_by_provider(&sim);
    let transit = sim.topo.transit_nodes();
    let install = Instant::now();
    let mut cp = ControlPlane::install_with(
        &mut sim,
        authority,
        0x5EC,
        transit[0],
        transit[1],
        isps,
        ControlPlaneConfig {
            reconcile_every: Some(SimDuration::from_secs(2)),
            leases: Some((LEASE, RENEW_EVERY)),
            sweep_removals: true,
            cert_lifetime: None,
        },
    );
    out.set("plane_install_ns", install.elapsed().as_nanos() as f64);

    ctx.setup("setup.workload");
    let records: Vec<UserHandle> = stubs
        .iter()
        .take(OWNERS)
        .enumerate()
        .map(|(u, &node)| {
            let claim = vec![Prefix::of_node(node)];
            let (service, scope) = (CatalogService::AntiSpoofing, DeployScope::AllManaged);
            match withdraw_at(u) {
                Some(at) => cp.add_user_withdrawing(
                    &mut sim,
                    node,
                    claim,
                    service,
                    scope,
                    register_at(u),
                    at,
                    false,
                    |a| a,
                ),
                None => cp.add_user(&mut sim, node, claim, service, scope, register_at(u), false),
            }
            .1
        })
        .collect();
    // Every stub device reboots for 300 ms every 15 s, at a hashed phase.
    let mut outages = Vec::new();
    for node in sim.topo.stub_nodes() {
        let mut at_ms = 5_000 + child_seed(seed, node.0 as u64) % CRASH_EVERY_MS;
        while at_ms + CRASH_DOWN_MS < HORIZON.as_nanos() / 1_000_000 {
            outages.push(Outage {
                node,
                from: SimTime::from_millis(at_ms),
                until: SimTime::from_millis(at_ms + CRASH_DOWN_MS),
                crash: true,
            });
            at_ms += CRASH_EVERY_MS;
        }
    }
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed,
        drop_prob: if channel.lossy { 0.2 } else { 0.0 },
        dup_prob: if channel.lossy { 0.1 } else { 0.0 },
        jitter_max: SimDuration::from_millis(10),
        outages,
        partitions: Vec::new(),
    }));
    let recorder = channel.record.then(|| {
        let rec = Arc::new(Mutex::new(CpFlightRecorder::new(1 << 22)));
        sim.set_cp_trace_sink(Box::new(rec.clone()), 1);
        rec
    });
    // The last withdrawal reaches every NMS within one retry budget, and
    // one lease later no device may hold more than the rules of the owners
    // that stay: anything above is a filter that outlived its authority
    // (a withdrawal that exhausted its retries on the way to an NMS leaves
    // some, on about one seed in thirty; reported, not a failed check).
    // From then on, four times a second, count the placements that stand
    // (crashes wipe them, reconcile restores them).
    let staying = (0..OWNERS).filter(|&u| withdraw_at(u).is_none()).count();
    let allowed =
        staying * ServiceGraph::from_spec(&CatalogService::AntiSpoofing.compile()).rule_count;
    let probes = Arc::new(Mutex::new(Probes::default()));
    let last = (0..OWNERS)
        .filter_map(withdraw_at)
        .max()
        .expect("some owner withdraws");
    let mut at = last + retry_budget() + LEASE;
    while at < HORIZON {
        let devices = cp.devices.clone();
        let probes = probes.clone();
        sim.schedule(at, move |_| {
            let mut p = probes.lock().expect("probe");
            for d in devices.values() {
                let rules = d.lock().rule_count;
                p.orphans += rules.saturating_sub(allowed);
                p.standing += rules.min(allowed);
                p.intended += allowed;
            }
        });
        at += SimDuration::from_millis(250);
    }

    ctx.run(&mut sim, HORIZON);

    if recorder.is_some() {
        sim.take_cp_trace_sink();
    }
    out.absorb_stats(&sim.stats);
    let cs = cp.cp_stats.lock().clone();
    out.mix(control_metrics(&sim.stats, &cs).to_json_string().as_bytes());
    let mut latencies: Vec<u64> = Vec::with_capacity(OWNERS);
    let (mut confirmed, mut withdrawn) = (0u64, 0u64);
    for (u, record) in records.iter().enumerate() {
        let r = record.lock();
        let done = r.deploy_confirmed_at.unwrap_or(HORIZON);
        confirmed += u64::from(r.deploy_confirmed_at.is_some());
        withdrawn += u64::from(r.withdraw_confirmed_at.is_some());
        latencies.push(done.saturating_since(register_at(u)).as_nanos());
    }
    latencies.sort_unstable();
    for &l in &latencies {
        out.mix_u64(l);
    }
    let withdrawing = (OWNERS - staying) as u64;
    let Probes {
        orphans,
        standing,
        intended,
    } = *probes.lock().expect("probe");
    out.mix_u64(orphans as u64);
    out.mix_u64(standing as u64);
    out.set("ops", OWNERS as f64 + withdrawing as f64);
    out.set("served", standing as f64);
    out.set("served_of", intended as f64);
    // Nearest-rank percentiles over the 64 owners.
    out.set("deploy_p50_sim_s", latencies[OWNERS / 2 - 1] as f64 / 1e9);
    out.set("deploy_p80_sim_s", latencies[OWNERS * 4 / 5] as f64 / 1e9);
    out.set("confirmed_owners", confirmed as f64);
    out.set("withdrawn_owners", withdrawn as f64);
    out.set("orphan_filters", orphans as f64);
    out.set("reconcile_reinstalls", cs.reconcile_reinstalls as f64);
    out.set("lease_renewals", cs.lease_renewals as f64);
    out.set("retransmits", cs.retransmits as f64);
    out.set("give_ups", cs.give_ups as f64);
    out.set("dedup_hits", (cs.dup_requests + cs.dup_responses) as f64);
    out.set("topology_nodes", sim.topo.n() as f64);
    for d in cp.devices.values() {
        out.absorb_device(&d.lock());
    }

    if let Some(rec) = recorder {
        let rec = Arc::into_inner(rec)
            .expect("recorder uniquely owned once the sink is detached")
            .into_inner()
            .expect("control recorder mutex poisoned");
        out.set("cp_trace_events", rec.recorded() as f64);
        let t = Instant::now();
        let text = rec.export_jsonl_string();
        out.set("cp_trace_export_ns", t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let report = analyze_settled(&text);
        out.set("trace_report_ns", t.elapsed().as_nanos() as f64);
        out.set("unterminated_txns", *report.as_ref().unwrap_or(&1) as f64);
        out.check(report == Ok(0), || match report {
            Ok(n) => format!("{n} transactions outlived their retry budget with no outcome"),
            Err(e) => format!("trace-report: {e}"),
        });
    }
    out
}
