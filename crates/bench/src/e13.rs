//! E13 — Control-plane fault sweep (loss rate × device MTBF).
//!
//! The paper's "filters deployed within seconds, worldwide" claim
//! (Sec. 5.1) is exercised here on the channel the paper never stresses:
//! control messages are dropped, duplicated, and jittered by a seeded
//! [`FaultPlane`](dtcs::netsim::FaultPlane), and devices crash on an MTBF
//! schedule, losing installed services. The retried, idempotent Fig. 4/5
//! protocol plus the NMS anti-entropy sweep must still *converge*: the
//! sweep measures time-to-full-coverage and steady-state coverage per
//! (loss, MTBF) cell, and reconciles protocol-layer retry/dedup counters
//! against the channel's ground-truth drop/dup counts.

use std::cell::Cell;
use std::rc::Rc;

use dtcs::control::{
    partition_by_provider, CatalogService, ControlPlane, ControlPlaneConfig, DeployScope,
    InternetNumberAuthority, UserId,
};
use dtcs::netsim::rng::child_seed;
use dtcs::netsim::{
    FaultConfig, FaultPlane, Outage, Prefix, SimDuration, SimTime, Simulator, Topology,
};

use crate::sweep::{cells_of, metrics_of, Case};
use crate::util::{f, fopt, run_cp_cases, wheel_health, CpOutcome, CpTrace, Report, Table};

const SEED: u64 = 13;
/// Crash outage length: long enough to be a real window, short enough
/// that the device is back before the next reconcile sweep.
const CRASH_DOWNTIME_MS: u64 = 300;
/// Anti-entropy sweep period.
const RECONCILE_EVERY_S: u64 = 2;

dtcs::netsim::json_record! {
    struct CellRow {
        loss_pct: f64,
        mtbf_s: Option<u64>,
        crashes: u64,
        t_full_coverage_s: Option<f64>,
        steady_coverage_pct: f64,
        retransmits: u64,
        reinstalls: u64,
        cp_dropped: u64,
        cp_duplicated: u64,
        dedup_hits: u64,
    }
}

/// Deterministic crash schedule: each stub device crashes every ~`mtbf`
/// seconds with a per-node phase offset hashed from the seed, starting
/// after the initial deployment has had time to land.
fn crash_schedule(sim: &Simulator, mtbf_s: u64, horizon_s: u64, seed: u64) -> Vec<Outage> {
    let mut outages = Vec::new();
    for &node in &sim.topo.stub_nodes()[1..] {
        let phase_ms = child_seed(seed, node.0 as u64) % (mtbf_s * 1000);
        let mut at_ms = 5_000 + phase_ms;
        while at_ms + CRASH_DOWNTIME_MS < horizon_s * 1000 {
            outages.push(Outage {
                node,
                from: SimTime::from_millis(at_ms),
                until: SimTime::from_millis(at_ms + CRASH_DOWNTIME_MS),
                crash: true,
            });
            at_ms += mtbf_s * 1000;
        }
    }
    outages
}

/// One grid point: `(loss probability, device MTBF, quick)`.
type Params = (f64, Option<u64>, bool);

fn run_cell(
    &(loss, mtbf_s, quick): &Params,
    seed: u64,
    trace: CpTrace,
) -> (CpOutcome<CellRow>, dtcs::netsim::Stats) {
    let (transit, stubs) = if quick { (2, 4) } else { (3, 6) };
    let horizon_s: u64 = if quick { 30 } else { 60 };
    let topo = Topology::transit_stub_multihomed(transit, stubs, 0.2, seed);
    let mut sim = Simulator::new(topo, seed);
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
            reconcile_every: Some(SimDuration::from_secs(RECONCILE_EVERY_S)),
            ..ControlPlaneConfig::default()
        },
    );
    let (_user, _record) = cp.add_user(
        &mut sim,
        victim_node,
        vec![user_prefix],
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
        SimTime::from_millis(100),
        false,
    );
    let outages = match mtbf_s {
        Some(m) => crash_schedule(&sim, m, horizon_s, seed),
        None => Vec::new(),
    };
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed,
        drop_prob: loss,
        dup_prob: loss / 2.0,
        jitter_max: SimDuration::from_millis(10),
        outages,
        partitions: Vec::new(),
    }));
    if let Some(rec) = trace {
        sim.set_cp_trace_sink(Box::new(rec.clone()), 1);
    }

    // Probe coverage every 250 ms: first instant all devices hold a rule.
    let n = sim.topo.n();
    let probe_devices = cp.devices.clone();
    let first_full: Rc<Cell<Option<u64>>> = Rc::default();
    let mut at_ms = 250;
    while at_ms <= horizon_s * 1000 {
        let devices = probe_devices.clone();
        let hit = first_full.clone();
        sim.schedule(SimTime::from_millis(at_ms), move |sim| {
            if hit.get().is_none() && devices.values().all(|d| d.lock().rule_count > 0) {
                hit.set(Some(sim.now().0 / 1_000_000)); // ns → ms
            }
        });
        at_ms += 250;
    }
    sim.run_until(SimTime::from_secs(horizon_s));
    if trace.is_some() {
        sim.take_cp_trace_sink();
    }

    let steady = cp.devices_configured() as f64 / n as f64 * 100.0;
    let cs = cp.cp_stats.lock().clone();
    let row = CellRow {
        loss_pct: loss * 100.0,
        mtbf_s,
        crashes: sim.stats.node_crashes,
        t_full_coverage_s: first_full.get().map(|ms| ms as f64 / 1000.0),
        steady_coverage_pct: steady,
        retransmits: cs.retransmits,
        reinstalls: cs.reconcile_reinstalls,
        cp_dropped: sim.stats.cp_fault_dropped,
        cp_duplicated: sim.stats.cp_fault_duplicated,
        dedup_hits: cs.dup_requests + cs.dup_responses,
    };
    ((row, cs), sim.stats)
}

/// The grid: one case per (loss, MTBF) fault-plane setting.
fn cases(quick: bool) -> Vec<Case<Params>> {
    let (losses, mtbfs): (&[f64], &[Option<u64>]) = if quick {
        (&[0.0, 0.2], &[None, Some(15)])
    } else {
        (&[0.0, 0.05, 0.2, 0.3], &[None, Some(30), Some(10)])
    };
    let grid = losses
        .iter()
        .flat_map(|&loss| mtbfs.iter().map(move |&mtbf| (loss, mtbf)));
    grid.map(|(loss, mtbf)| {
        let mtbf_label = mtbf.map_or("inf".into(), |m| m.to_string());
        let label = format!("loss={loss:.2}/mtbf={mtbf_label}");
        Case::new(label, SEED, (loss, mtbf, quick))
    })
    .collect()
}

fn metrics((r, _): &CpOutcome<CellRow>) -> std::collections::BTreeMap<String, f64> {
    let fields = [
        "crashes",
        "t_full_coverage_s",
        "steady_coverage_pct",
        "retransmits",
        "reinstalls",
        "cp_dropped",
        "cp_duplicated",
        "dedup_hits",
    ];
    metrics_of(r, &fields)
}

/// Sweep-grid adapter over [`cases`].
pub struct Sweep;

impl crate::sweep::GridExperiment for Sweep {
    fn cells(&self, opts: &crate::RunOpts) -> Vec<crate::sweep::SweepCell> {
        cells_of(
            "e13",
            cases(opts.quick),
            |p, seed| run_cell(p, seed, None),
            metrics,
        )
    }
}

/// Run E13.
pub fn run(opts: &crate::RunOpts) -> Report {
    let quick = opts.quick;
    let mut report = Report::new(
        "e13",
        "Control-plane fault sweep: loss × device MTBF vs deployment convergence",
        "Sec. 5.1 under adversarial channels",
    );
    // `--cp-trace` designates the 20%-loss crash-churn cell — the one
    // that exercises every lifecycle event kind.
    let traced = if quick {
        "loss=0.20/mtbf=15"
    } else {
        "loss=0.20/mtbf=30"
    };
    let (outs, traced_line) = run_cp_cases("e13", &cases(quick), opts, traced, run_cell);
    // health, not note: notes serialise into the golden JSON.
    report.health.extend(traced_line);
    let rows: Vec<&CellRow> = outs.iter().map(|((row, _), _)| row).collect();
    let all_stats: Vec<&dtcs::netsim::Stats> = outs.iter().map(|o| &o.1).collect();

    let mut t = Table::new(
        "time to 100% device coverage and steady-state coverage per (loss, MTBF) cell \
         (dup rate = loss/2, 10 ms jitter, 2 s reconcile sweep)",
        &[
            "loss_%",
            "mtbf_s",
            "crashes",
            "t_full_cov_s",
            "steady_cov_%",
            "retransmits",
            "reinstalls",
            "ch_drops",
            "ch_dups",
            "dedup_hits",
        ],
    );
    for r in &rows {
        t.push(
            vec![
                format!("{:.0}", r.loss_pct),
                r.mtbf_s.map_or("∞".into(), |m| m.to_string()),
                r.crashes.to_string(),
                fopt(r.t_full_coverage_s),
                f(r.steady_coverage_pct),
                r.retransmits.to_string(),
                r.reinstalls.to_string(),
                r.cp_dropped.to_string(),
                r.cp_duplicated.to_string(),
                r.dedup_hits.to_string(),
            ],
            *r,
        );
    }
    report.table(t);

    report.note(
        "Loss-only cells converge to 100% coverage — within one probe tick on the \
         happy path, after a few retransmit rounds at 20–30% loss. Crash-churn cells \
         (finite MTBF) reach full coverage the same way, then oscillate: each crash \
         wipes a device until the next anti-entropy sweep reinstalls it, so \
         steady-state coverage settles below 100% by roughly downtime-plus-repair-lag \
         over MTBF, dipping further when channel loss also delays the sweep's \
         query/reinstall round. Retransmits track the channel drop count, reinstalls \
         the crash count, and dedup hits absorb duplicated deliveries — the \
         exactly-once ledger the protocol keeps over an at-least-once channel.",
    );
    let (drops, dups): (u64, u64) = all_stats.iter().fold((0, 0), |(d, p), s| {
        (d + s.cp_fault_dropped, p + s.cp_fault_duplicated)
    });
    let (retx, rein): (u64, u64) = rows.iter().fold((0, 0), |(r, i), row| {
        (r + row.retransmits, i + row.reinstalls)
    });
    report.health(format!(
        "control faults over {} cells: {} channel drops, {} channel duplicates, \
         {} retransmits, {} reconcile reinstalls, {} crashes",
        rows.len(),
        drops,
        dups,
        retx,
        rein,
        all_stats.iter().map(|s| s.node_crashes).sum::<u64>(),
    ));
    report.health(wheel_health(all_stats.iter().copied()));
    report
}
