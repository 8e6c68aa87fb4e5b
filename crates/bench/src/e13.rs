//! E13 — Control-plane fault sweep (loss rate × device MTBF).
//!
//! The paper's "filters deployed within seconds, worldwide" claim
//! (Sec. 5.1) is exercised here on the channel the paper never stresses:
//! control messages are dropped, duplicated, and jittered by a seeded
//! [`FaultPlane`](dtcs::netsim::FaultPlane), and devices crash on an MTBF
//! schedule, losing installed services. The retried, idempotent Fig. 4/5
//! protocol, the NMS's answer to a rebooted device announcing itself and
//! the NMS anti-entropy sweep must still *converge*: the
//! sweep measures time-to-full-coverage and steady-state coverage per
//! (loss, MTBF) cell, and reconciles protocol-layer retry/dedup counters
//! against the channel's ground-truth drop/dup counts.

use std::cell::Cell;
use std::rc::Rc;

use dtcs::control::{
    partition_by_provider, CatalogService, ControlPlane, ControlPlaneConfig, DeployScope,
    InternetNumberAuthority, UserHandle, UserId,
};
use dtcs::netsim::rng::child_seed;
use dtcs::netsim::{
    FaultConfig, FaultPlane, Outage, Prefix, SimDuration, SimTime, Simulator, Stats, Topology,
};

use crate::sweep::{metrics_of, Case, Experiment};
use crate::util::{cp_trace_replay, f, fopt, CpOutcome, CpTrace, Report, Table};
use crate::RunOpts;

const SEED: u64 = 13;
/// Crash outage length: long enough to be a real window, short enough
/// that the device is back before the next reconcile sweep.
const CRASH_DOWNTIME_MS: u64 = 300;
/// Anti-entropy sweep period.
const RECONCILE_EVERY_S: u64 = 2;

dtcs::netsim::json_record! {
    /// One (loss, MTBF) cell's coverage and protocol counters.
    pub struct CellRow {
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

fn run_cell(params: &Params, seed: u64, trace: CpTrace) -> (CpOutcome<CellRow>, Stats) {
    let (out, stats, _owner) = run_owner(params, seed, trace);
    (out, stats)
}

/// [`run_cell`], with the owner's record.
fn run_owner(
    &(loss, mtbf_s, quick): &Params,
    seed: u64,
    trace: CpTrace,
) -> (CpOutcome<CellRow>, Stats, UserHandle) {
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
    let (_user, owner) = cp.add_user(
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
    ((row, cs), sim.stats, owner)
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

/// E13's declaration. The performance ledger sweeps its cells as
/// [`Sweep`] through [`GridExperiment::cells`](crate::sweep::GridExperiment::cells),
/// so its type is the declaration's own, not `&dyn GridExperiment`.
pub static EXPERIMENT: Experiment<Params, CpOutcome<CellRow>> = Experiment {
    id: "e13",
    title: "Control-plane fault sweep: loss × device MTBF vs deployment convergence",
    anchor: "Sec. 5.1 under adversarial channels",
    cases,
    one: |p, seed| run_cell(p, seed, None),
    metrics: |(row, _)| metrics_of(row, &["loss_pct", "mtbf_s"]),
    render,
};

pub use EXPERIMENT as Sweep;

fn render(
    report: &mut Report,
    opts: &RunOpts,
    cases: &[Case<Params>],
    outs: &[(CpOutcome<CellRow>, Stats)],
) {
    // `--cp-trace` designates the first 20%-loss crash-churn cell — the
    // kind that exercises every lifecycle event kind.
    let traced = cases
        .iter()
        .find(|c| c.params.0 == 0.2 && c.params.1.is_some());
    cp_trace_replay(report, opts, traced, run_cell);
    report.table(Table::of(
        "time to 100% device coverage and steady-state coverage per (loss, MTBF) cell \
         (dup rate = loss/2, 10 ms jitter, 2 s reconcile sweep)",
        outs.iter().map(|((row, _), _)| row),
        &[
            ("loss_%", &|r| format!("{:.0}", r.loss_pct)),
            ("mtbf_s", &|r| {
                r.mtbf_s.map_or("∞".into(), |m| m.to_string())
            }),
            ("crashes", &|r| r.crashes.to_string()),
            ("t_full_cov_s", &|r| fopt(r.t_full_coverage_s)),
            ("steady_cov_%", &|r| f(r.steady_coverage_pct)),
            ("retransmits", &|r| r.retransmits.to_string()),
            ("reinstalls", &|r| r.reinstalls.to_string()),
            ("ch_drops", &|r| r.cp_dropped.to_string()),
            ("ch_dups", &|r| r.cp_duplicated.to_string()),
            ("dedup_hits", &|r| r.dedup_hits.to_string()),
        ],
    ));
    report.note(
        "Loss-only cells converge to 100% coverage — within one probe tick on the \
         happy path, after a few retransmit rounds at 20–30% loss. Crash-churn cells \
         (finite MTBF) reach full coverage the same way, then oscillate: each crash \
         wipes a device until, rebooted, it tells its NMS it holds nothing and the NMS \
         reinstalls its services a round trip later, so steady-state coverage settles \
         below 100% by roughly downtime-plus-repair-lag over MTBF, dipping further \
         when channel loss eats that announcement or its reinstall and the repair \
         waits for the next anti-entropy sweep. Retransmits track the channel drop count, reinstalls \
         the crash count, and dedup hits absorb duplicated deliveries — the \
         exactly-once ledger the protocol keeps over an at-least-once channel.",
    );
    let sum = |field: fn(&CellRow, &Stats) -> u64| {
        outs.iter().map(|((r, _), s)| field(r, s)).sum::<u64>()
    };
    report.health(format!(
        "control faults over {} cells: {} channel drops, {} channel duplicates, \
         {} retransmits, {} reconcile reinstalls, {} crashes",
        outs.len(),
        sum(|_, s| s.cp_fault_dropped),
        sum(|_, s| s.cp_fault_duplicated),
        sum(|r, _| r.retransmits),
        sum(|r, _| r.reinstalls),
        sum(|_, s| s.node_crashes),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::replicate_seed;

    /// The crash-free 20 %-loss cell at full scale.
    const LOSSY: Params = (0.2, None, false);

    /// Two replicates of [`LOSSY`] whose owner's first registration gives
    /// up: the owner registers again a retry budget later, deploys, and
    /// every device holds its rule at the end.
    #[test]
    fn an_owner_whose_registration_gave_up_registers_and_deploys() {
        for r in [236, 325] {
            let ((row, _), _, owner) = run_owner(&LOSSY, replicate_seed(SEED, r), None);
            let owner = owner.lock();
            let first_leg = dtcs::control::RetryPolicy::default().max_attempts as usize - 1;
            assert!(
                owner.register_retries >= first_leg,
                "replicate {r}: {owner:?}"
            );
            assert!(
                owner.deploy_confirmed_at.is_some(),
                "replicate {r}: {owner:?}"
            );
            assert_eq!(row.steady_coverage_pct, 100.0, "replicate {r}");
        }
    }

    /// Every owner of 1,600 replicates of [`LOSSY`] registers and sees its
    /// deployment confirmed (`--ignored`; about a second in release).
    #[test]
    #[ignore]
    fn every_owner_of_the_lossy_cell_deploys() {
        let short: Vec<u32> = (0..1600)
            .filter(|&r| {
                let (_, _, owner) = run_owner(&LOSSY, replicate_seed(SEED, r), None);
                let owner = owner.lock();
                owner.registered_at.is_none() || owner.deploy_confirmed_at.is_none()
            })
            .collect();
        assert_eq!(short, [] as [u32; 0]);
    }
}
