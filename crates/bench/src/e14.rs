//! E14 — Leased mitigations under control-plane partitions
//! (partition duration × lease length).
//!
//! The paper's withdrawal story (Sec. 4.3: the user "may remove the
//! service at any time") silently assumes the control channel is up when
//! the removal happens. This sweep breaks that assumption: owner A
//! withdraws its service *while* a directed NMS → device partition is
//! swallowing every RemoveService command, so the devices keep running a
//! filter whose authority is gone — an orphan. The lease machinery is
//! the backstop under test: every install carries `lease_until`, devices
//! reap un-renewed slots autonomously, so no filter can outlive its
//! authority by more than one lease length even when the network never
//! delivers the removal. Owner B keeps its service deployed throughout
//! and pays the collateral price: its renewals are cut by the same
//! partition, its filters are reaped mid-partition once the lease runs
//! out, and the availability gap until renewal traffic re-installs them
//! is the robustness cost of short leases.
//!
//! Hard invariants, asserted per cell (not merely reported):
//! * **zero immortal installs** — at `withdraw + lease + ε` no device
//!   holds more than owner B's single rule, and at the horizon every
//!   device holds exactly one rule (B restored, A gone everywhere);
//! * **dwell bound** — no lease reap fires later than one lease length
//!   after the withdrawal instant.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dtcs::control::{
    partition_by_provider, CatalogService, ControlPlane, ControlPlaneConfig, DeployScope,
    InternetNumberAuthority, UserId,
};
use dtcs::netsim::{
    FaultConfig, FaultPlane, NodeId, Partition, Prefix, SimDuration, SimTime, Simulator, Topology,
};

use crate::sweep::{cells_of, metrics_of, Case};
use crate::util::{f, fopt, run_cp_cases, wheel_health, CpOutcome, CpTrace, Report, Table};

const SEED: u64 = 14;
/// Owner A withdraws at this instant; the partition opens 500 ms before
/// so the RemoveService fan-out runs straight into the cut.
const WITHDRAW_S: u64 = 10;
/// Anti-entropy sweep period (reinstall + bidirectional removal).
const RECONCILE_EVERY_S: u64 = 2;

dtcs::netsim::json_record! {
    struct CellRow {
        partition_s: f64,
        lease_s: u64,
        lease_reaps: u64,
        max_reap_dwell_s: Option<f64>,
        withdraw_removes: u64,
        sweep_removals: u64,
        renewals: u64,
        partition_dropped: u64,
        retransmits: u64,
        give_ups: u64,
        withdraw_latency_s: Option<f64>,
        cov_gap_device_s: f64,
    }
}

/// One grid point: `(partition duration in ms, lease length in s,
/// quick)` — ms so sub-second cuts are expressible.
type Params = (u64, u64, bool);

fn run_cell(
    &(partition_ms, lease_s, quick): &Params,
    seed: u64,
    trace: CpTrace,
) -> (CpOutcome<CellRow>, dtcs::netsim::Stats) {
    let (transit, stubs) = if quick { (2, 4) } else { (3, 6) };
    // Off the renewal grid on purpose: `run_until` is inclusive, so a
    // horizon that is a multiple of `renew_every` would process one last
    // renewal round whose acks can never land — an unterminated
    // transaction the trace-report gate would (rightly) flag.
    let horizon_ms: u64 = if quick { 34_650 } else { 44_650 };
    let topo = Topology::transit_stub_multihomed(transit, stubs, 0.2, seed);
    let mut sim = Simulator::new(topo, seed);
    let stub_nodes = sim.topo.stub_nodes();
    let mut authority = InternetNumberAuthority::new();
    let a_prefix = Prefix::of_node(stub_nodes[0]);
    let b_prefix = Prefix::of_node(stub_nodes[1]);
    authority.allocate(a_prefix, UserId(0xAA01));
    authority.allocate(b_prefix, UserId(0xAA02));
    let isps = partition_by_provider(&sim);
    let tcsp_node = sim.topo.transit_nodes()[0];
    let authority_node = sim.topo.transit_nodes()[1];
    let nms_nodes: Vec<NodeId> = isps.iter().map(|i| i.nms_node).collect();
    let lease = SimDuration::from_secs(lease_s);
    let renew_every = SimDuration::from_millis((lease_s * 1000 / 4).max(500));
    let mut cp = ControlPlane::install_with(
        &mut sim,
        authority,
        0x5EC,
        tcsp_node,
        authority_node,
        isps,
        ControlPlaneConfig {
            reconcile_every: Some(SimDuration::from_secs(RECONCILE_EVERY_S)),
            leases: Some((lease, renew_every)),
            sweep_removals: true,
            cert_lifetime: None,
        },
    );
    // Owner A: deploys everywhere, then withdraws into the partition.
    let (_a_user, a_record) = cp.add_user_withdrawing(
        &mut sim,
        stub_nodes[0],
        vec![a_prefix],
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
        SimTime::from_millis(100),
        SimTime::from_secs(WITHDRAW_S),
        false,
        |a| a,
    );
    // Owner B: deploys everywhere and stays; its renewals ride the same
    // cut, so its filters measure the availability cost of the lease.
    let (_b_user, _b_record) = cp.add_user(
        &mut sim,
        stub_nodes[1],
        vec![b_prefix],
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
        SimTime::from_millis(150),
        false,
    );
    // Directed cut: NMS → managed devices only. Replies, TCSP traffic
    // and user traffic keep flowing — the removal commands (and renewal
    // installs) are exactly what the partition swallows.
    let device_nodes: Vec<NodeId> = cp
        .devices
        .keys()
        .copied()
        .filter(|n| !nms_nodes.contains(n) && *n != tcsp_node && *n != authority_node)
        .collect();
    let cut_from = SimTime::from_millis(WITHDRAW_S * 1000 - 500);
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed,
        drop_prob: 0.0,
        dup_prob: 0.0,
        jitter_max: SimDuration::ZERO,
        outages: Vec::new(),
        partitions: vec![Partition {
            src: nms_nodes.clone(),
            dst: device_nodes,
            from: cut_from,
            until: cut_from + SimDuration::from_millis(partition_ms),
        }],
    }));
    if let Some(rec) = trace {
        sim.set_cp_trace_sink(Box::new(rec.clone()), 1);
    }

    // Probe 1 — the dwell gate: at withdraw + lease + ε every device must
    // be down to at most owner B's single rule. A second rule here is a
    // filter that outlived its authority.
    let immortal: Rc<RefCell<Vec<(NodeId, usize)>>> = Rc::default();
    {
        let devices = cp.devices.clone();
        let immortal = immortal.clone();
        let at = SimTime::from_millis(WITHDRAW_S * 1000 + lease_s * 1000 + 500);
        sim.schedule(at, move |_sim| {
            for (node, dev) in &devices {
                let rules = dev.lock().rule_count;
                if rules > 1 {
                    immortal.borrow_mut().push((*node, rules));
                }
            }
        });
    }
    // Probe 2 — owner B's availability gap: every 250 ms after the
    // withdrawal, each device holding zero rules is 250 ms of lost
    // coverage (before `withdraw + lease` a zero can only mean B's lease
    // ran out mid-partition; after it, A is gone and zero is exactly
    // "B not yet re-deployed").
    let gap_probes: Rc<Cell<u64>> = Rc::default();
    {
        let mut at_ms = WITHDRAW_S * 1000 + 250;
        while at_ms <= horizon_ms {
            let devices = cp.devices.clone();
            let gap = gap_probes.clone();
            sim.schedule(SimTime::from_millis(at_ms), move |_sim| {
                let zeros = devices
                    .values()
                    .filter(|d| d.lock().rule_count == 0)
                    .count();
                gap.set(gap.get() + zeros as u64);
            });
            at_ms += 250;
        }
    }
    sim.run_until(SimTime::from_millis(horizon_ms));
    if trace.is_some() {
        sim.take_cp_trace_sink();
    }

    // -- Hard invariants ------------------------------------------------
    let immortal = immortal.take();
    assert!(
        immortal.is_empty(),
        "e14 partition={partition_ms}ms lease={lease_s}s: filters outlived their \
         authority past one lease length: {immortal:?}"
    );
    let n = sim.topo.n();
    assert_eq!(
        cp.total_rules(),
        n,
        "e14 partition={partition_ms}ms lease={lease_s}s: horizon state must be \
         exactly owner B everywhere (A fully withdrawn, B fully restored)"
    );
    for (node, dev) in &cp.devices {
        assert_eq!(
            dev.lock().rule_count,
            1,
            "e14: device {node:?} must hold exactly owner B's rule at horizon"
        );
    }
    let withdraw_at = SimTime::from_secs(WITHDRAW_S);
    let mut reaps = 0u64;
    let mut max_dwell_ns: Option<u64> = None;
    for dev in cp.devices.values() {
        let d = dev.lock();
        reaps += d.lease_reaps;
        if let Some(at) = d.last_reap_at {
            let dwell = at.saturating_since(withdraw_at).0;
            max_dwell_ns = Some(max_dwell_ns.map_or(dwell, |m| m.max(dwell)));
        }
    }
    if let Some(dwell) = max_dwell_ns {
        assert!(
            dwell <= (lease_s * 1000 + 500) * 1_000_000,
            "e14: a lease reap fired {dwell} ns after withdrawal — later than one \
             lease length ({lease_s} s)"
        );
    }

    let cs = cp.cp_stats.lock().clone();
    let row = CellRow {
        partition_s: partition_ms as f64 / 1000.0,
        lease_s,
        lease_reaps: reaps,
        max_reap_dwell_s: max_dwell_ns.map(|ns| ns as f64 / 1e9),
        withdraw_removes: cs.withdraw_removes,
        sweep_removals: cs.reconcile_removals,
        renewals: cs.lease_renewals,
        partition_dropped: sim.stats.cp_partition_dropped,
        retransmits: cs.retransmits,
        give_ups: cs.give_ups,
        withdraw_latency_s: a_record
            .lock()
            .withdraw_confirmed_at
            .map(|t| t.saturating_since(withdraw_at).0 as f64 / 1e9),
        cov_gap_device_s: gap_probes.get() as f64 * 0.25,
    };
    ((row, cs), sim.stats)
}

/// The grid: one case per (partition duration, lease length).
fn cases(quick: bool) -> Vec<Case<Params>> {
    let (partitions_ms, leases_s): (&[u64], &[u64]) = if quick {
        (&[1_000, 8_000], &[2, 6])
    } else {
        (&[500, 4_000, 12_000], &[2, 5, 10])
    };
    let grid = partitions_ms
        .iter()
        .flat_map(|&p_ms| leases_s.iter().map(move |&lease_s| (p_ms, lease_s)));
    grid.map(|(p_ms, lease_s)| {
        let label = format!("partition={}s/lease={lease_s}s", p_ms as f64 / 1000.0);
        Case::new(label, SEED, (p_ms, lease_s, quick))
    })
    .collect()
}

fn metrics((r, _): &CpOutcome<CellRow>) -> std::collections::BTreeMap<String, f64> {
    let fields = [
        "lease_reaps",
        "max_reap_dwell_s",
        "withdraw_removes",
        "sweep_removals",
        "renewals",
        "partition_dropped",
        "retransmits",
        "withdraw_latency_s",
        "cov_gap_device_s",
    ];
    metrics_of(r, &fields)
}

/// Sweep-grid adapter over [`cases`].
pub struct Sweep;

impl crate::sweep::GridExperiment for Sweep {
    fn cells(&self, opts: &crate::RunOpts) -> Vec<crate::sweep::SweepCell> {
        cells_of(
            "e14",
            cases(opts.quick),
            |p, seed| run_cell(p, seed, None),
            metrics,
        )
    }
}

/// Run E14.
pub fn run(opts: &crate::RunOpts) -> Report {
    let quick = opts.quick;
    let mut report = Report::new(
        "e14",
        "Leased mitigations under partition: orphan dwell vs renewal cost",
        "Sec. 4.3 withdrawal under adversarial channels",
    );
    // `--cp-trace` designates the longest-partition shortest-lease cell —
    // the one where the lease, not the network, does the teardown.
    let traced = if quick {
        "partition=8s/lease=2s"
    } else {
        "partition=12s/lease=2s"
    };
    let (outs, traced_line) = run_cp_cases("e14", &cases(quick), opts, traced, run_cell);
    // health, not note: notes serialise into the golden JSON.
    report.health.extend(traced_line);
    let rows: Vec<&CellRow> = outs.iter().map(|((row, _), _)| row).collect();
    let all_stats: Vec<&dtcs::netsim::Stats> = outs.iter().map(|o| &o.1).collect();

    let mut t = Table::new(
        "orphan-filter dwell, renewal traffic, and owner-B availability gap per \
         (partition duration, lease length) cell (withdraw at 10 s, cut opens 9.5 s, \
         renew every lease/4, 2 s reconcile sweep)",
        &[
            "partition_s",
            "lease_s",
            "reaps",
            "max_dwell_s",
            "wd_removes",
            "sweep_rm",
            "renewals",
            "part_drops",
            "retransmits",
            "give_ups",
            "wd_latency_s",
            "cov_gap_dev_s",
        ],
    );
    for r in &rows {
        t.push(
            vec![
                f(r.partition_s),
                r.lease_s.to_string(),
                r.lease_reaps.to_string(),
                fopt(r.max_reap_dwell_s),
                r.withdraw_removes.to_string(),
                r.sweep_removals.to_string(),
                r.renewals.to_string(),
                r.partition_dropped.to_string(),
                r.retransmits.to_string(),
                r.give_ups.to_string(),
                fopt(r.withdraw_latency_s),
                f(r.cov_gap_device_s),
            ],
            *r,
        );
    }
    report.table(t);

    report.note(
        "Short partitions let the RemoveService fan-out land after a few retries: \
         withdrawals complete over the network, reaps stay rare, and the availability \
         gap is near zero. Once the cut outlasts the remove retry budget the lease \
         becomes the only teardown path — every orphaned filter is reaped within one \
         lease length of the withdrawal (hard-asserted per cell; no install is ever \
         immortal). The same lease that bounds orphan dwell bills owner B for the \
         partition: leases shorter than the cut expire mid-partition, opening a \
         coverage gap until post-heal renewal traffic re-installs the service, while \
         long leases ride the cut out untouched at the price of a longer worst-case \
         orphan dwell. Renewal message volume scales inversely with lease length — \
         the dwell/traffic trade-off this grid maps.",
    );
    let (reaps, renewals): (u64, u64) = rows
        .iter()
        .fold((0, 0), |(a, b), r| (a + r.lease_reaps, b + r.renewals));
    report.health(format!(
        "leases over {} cells: {} orphan reaps, {} renewals, {} partition-swallowed \
         messages",
        rows.len(),
        reaps,
        renewals,
        all_stats
            .iter()
            .map(|s| s.cp_partition_dropped)
            .sum::<u64>(),
    ));
    report.health(wheel_health(all_stats.iter().copied()));
    report
}
