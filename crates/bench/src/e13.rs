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

use std::sync::{Arc, Mutex as StdMutex};

use dtcs::netsim::sync::Mutex;
use serde::Serialize;

use dtcs::control::{
    partition_by_provider, CatalogService, ControlPlane, DeployScope, InternetNumberAuthority,
    UserId,
};
use dtcs::netsim::rng::child_seed;
use dtcs::netsim::{
    CpFlightRecorder, FaultConfig, FaultPlane, Outage, Prefix, SimDuration, SimTime, Simulator,
    Topology,
};

use crate::util::{control_metrics, f, fopt, wheel_health, Report, Table};

const SEED: u64 = 13;
/// Crash outage length: long enough to be a real window, short enough
/// that the device is back before the next reconcile sweep.
const CRASH_DOWNTIME_MS: u64 = 300;
/// Anti-entropy sweep period.
const RECONCILE_EVERY_S: u64 = 2;

#[derive(Serialize, Clone)]
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

struct CellOutcome {
    row: CellRow,
    stats: dtcs::netsim::Stats,
    cp: dtcs::control::CpStats,
}

/// Shared-handle control-trace recorder plus its 1-in-n sampling rate,
/// attached to one designated cell run (`--cp-trace`). Observation-only:
/// the cell's outcome is identical with or without it.
type CellTrace<'a> = Option<(&'a Arc<StdMutex<CpFlightRecorder>>, u64)>;

fn run_cell(
    loss: f64,
    mtbf_s: Option<u64>,
    quick: bool,
    seed: u64,
    trace: CellTrace,
) -> CellOutcome {
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
    let mut cp = ControlPlane::install_with_reconcile(
        &mut sim,
        authority,
        0x5EC,
        tcsp_node,
        authority_node,
        isps,
        SimDuration::from_secs(RECONCILE_EVERY_S),
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
    if let Some((rec, one_in)) = trace {
        sim.set_cp_trace_sink(Box::new(rec.clone()), one_in);
    }

    // Probe coverage every 250 ms: first instant all devices hold a rule.
    let n = sim.topo.n();
    let probe_devices = cp.devices.clone();
    let first_full: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    let mut at_ms = 250;
    while at_ms <= horizon_s * 1000 {
        let devices = probe_devices.clone();
        let hit = first_full.clone();
        sim.schedule(SimTime::from_millis(at_ms), move |sim| {
            let mut slot = hit.lock();
            if slot.is_none() && devices.values().all(|d| d.lock().rule_count > 0) {
                *slot = Some(sim.now().0 / 1_000_000); // ns → ms
            }
        });
        at_ms += 250;
    }
    sim.run_until(SimTime::from_secs(horizon_s));
    if trace.is_some() {
        sim.take_cp_trace_sink();
    }
    crate::util::enforce_run_invariants("e13", &sim.stats);

    let steady = cp.devices_configured() as f64 / n as f64 * 100.0;
    let cs = cp.cp_stats.lock().clone();
    let row = CellRow {
        loss_pct: loss * 100.0,
        mtbf_s,
        crashes: sim.stats.node_crashes,
        t_full_coverage_s: first_full.lock().map(|ms| ms as f64 / 1000.0),
        steady_coverage_pct: steady,
        retransmits: cs.retransmits,
        reinstalls: cs.reconcile_reinstalls,
        cp_dropped: sim.stats.cp_fault_dropped,
        cp_duplicated: sim.stats.cp_fault_duplicated,
        dedup_hits: cs.dup_requests + cs.dup_responses,
    };
    CellOutcome {
        row,
        stats: sim.stats,
        cp: cs,
    }
}

/// The (loss, MTBF) grid axes shared by `run()` and the sweep adapter.
fn grid(quick: bool) -> (&'static [f64], &'static [Option<u64>]) {
    let losses: &[f64] = if quick {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.05, 0.2, 0.3]
    };
    let mtbfs: &[Option<u64>] = if quick {
        &[None, Some(15)]
    } else {
        &[None, Some(30), Some(10)]
    };
    (losses, mtbfs)
}

/// Sweep-grid adapter: one cell per (loss, MTBF) fault-plane setting.
pub struct Sweep;

impl crate::sweep::GridExperiment for Sweep {
    fn id(&self) -> &'static str {
        "e13"
    }

    fn cells(&self, opts: &crate::RunOpts) -> Vec<crate::sweep::SweepCell> {
        let quick = opts.quick;
        let (losses, mtbfs) = grid(quick);
        let mut cells = Vec::new();
        for &loss in losses {
            for &mtbf in mtbfs {
                cells.push(crate::sweep::SweepCell {
                    experiment: "e13",
                    scenario: format!(
                        "loss={loss:.2}/mtbf={}",
                        mtbf.map_or("inf".into(), |m| m.to_string())
                    ),
                    base_seed: SEED,
                    run: Box::new(move |seed| {
                        let out = run_cell(loss, mtbf, quick, seed, None);
                        let r = &out.row;
                        let mut metrics = std::collections::BTreeMap::new();
                        metrics.insert("crashes".to_string(), r.crashes as f64);
                        if let Some(t) = r.t_full_coverage_s {
                            metrics.insert("t_full_coverage_s".to_string(), t);
                        }
                        metrics.insert("steady_coverage_pct".to_string(), r.steady_coverage_pct);
                        metrics.insert("retransmits".to_string(), r.retransmits as f64);
                        metrics.insert("reinstalls".to_string(), r.reinstalls as f64);
                        metrics.insert("cp_dropped".to_string(), r.cp_dropped as f64);
                        metrics.insert("cp_duplicated".to_string(), r.cp_duplicated as f64);
                        metrics.insert("dedup_hits".to_string(), r.dedup_hits as f64);
                        crate::sweep::CellRun {
                            metrics,
                            stats: out.stats,
                        }
                    }),
                });
            }
        }
        cells
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
    let (losses, mtbfs) = grid(quick);

    // `--cp-trace` designates the 20%-loss crash-churn cell — the one
    // that exercises every lifecycle event kind — and attaches a full
    // (1-in-1) recorder to its normal grid run. Tracing observes without
    // perturbing, so the report rows below are byte-identical either way
    // (the CI golden-invariance check holds us to that).
    let traced_cell: Option<(f64, Option<u64>)> = opts.cp_trace.as_ref().map(|_| {
        if quick {
            (0.2, Some(15))
        } else {
            (0.2, Some(30))
        }
    });
    let recorder = opts
        .cp_trace
        .as_ref()
        .map(|_| Arc::new(StdMutex::new(CpFlightRecorder::new(1 << 22))));

    let mut rows = Vec::new();
    let mut all_stats = Vec::new();
    for &loss in losses {
        for &mtbf in mtbfs {
            let trace_here = traced_cell == Some((loss, mtbf));
            let trace = if trace_here {
                recorder.as_ref().map(|r| (r, 1))
            } else {
                None
            };
            let out = run_cell(loss, mtbf, quick, SEED, trace);
            if trace_here {
                let path = opts.cp_trace.as_ref().expect("traced_cell implies path");
                let rec = recorder
                    .as_ref()
                    .expect("traced_cell implies recorder")
                    .lock()
                    .expect("cp recorder mutex");
                let mut file = std::fs::File::create(path).expect("create cp trace file");
                rec.export_jsonl(&mut file).expect("write cp trace");
                let snap = control_metrics(&out.stats, &out.cp);
                let mut json = snap.to_json_string();
                json.push('\n');
                std::fs::write(format!("{}.metrics.json", path.display()), json)
                    .expect("write metrics snapshot");
                std::fs::write(format!("{}.prom", path.display()), snap.to_prometheus())
                    .expect("write prometheus snapshot");
                // health, not note: notes serialise into the golden JSON.
                report.health(format!(
                    "cp-trace: {} events recorded ({} evicted) from cell loss={loss:.2}/mtbf={} \
                     -> {}",
                    rec.recorded(),
                    rec.evicted(),
                    mtbf.map_or("inf".into(), |m| m.to_string()),
                    path.display(),
                ));
            }
            rows.push(out.row);
            all_stats.push(out.stats);
        }
    }

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
            r,
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
    report.health(wheel_health(all_stats.iter()));
    report
}
