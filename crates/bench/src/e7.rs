//! E7 — Control-plane latency (Figs. 4 & 5 / Sec. 5.1).
//!
//! Measures the end-to-end time of the paper's two sequences —
//! registration (user → TCSP → number authority → back) and scoped
//! worldwide deployment (user → TCSP → per-ISP NMS → devices → acks) — as
//! the number of contracted ISPs grows, plus the direct-ISP fallback when
//! the TCSP is itself under DDoS. The "single registration instead of a
//! separate one with each ISP" argument is rendered as the contrast with
//! per-ISP manual provisioning (modelled at 30 simulated minutes of
//! operator handling per ISP, sequential — generous for 2005-era NOCs).

use dtcs::control::{
    partition_by_provider, CatalogService, ControlPlane, DeployScope, InternetNumberAuthority,
    TcspAgent, UserId,
};
use dtcs::netsim::{Prefix, SimTime, Simulator, Topology};

use crate::sweep::{cells_of, metrics_of, run_cases, Case};
use crate::util::{f, Report, Table};

dtcs::netsim::json_record! {
    struct Row {
        isps: usize,
        nodes: usize,
        registration_ms: f64,
        deployment_ms: f64,
        devices: usize,
        manual_estimate_hours: f64,
        fallback_used: bool,
    }
}

/// Base seed shared by the single-run tables and the sweep cells
/// (historically the literal `77` for both topology and simulator).
const SEED: u64 = 77;

/// The grid: `(ISP count, TCSP outage)` — every ISP count on the TCSP
/// path, then again on the direct-ISP fallback; the two tables, in order.
fn cases(quick: bool) -> Vec<Case<(usize, bool)>> {
    let isp_counts: &[usize] = if quick {
        &[2, 5, 10]
    } else {
        &[2, 5, 10, 20, 50]
    };
    let paths = [("tcsp", false), ("fallback", true)];
    paths
        .iter()
        .flat_map(|&(path, outage)| {
            isp_counts
                .iter()
                .map(move |&k| Case::new(format!("isps={k}/path={path}"), SEED, (k, outage)))
        })
        .collect()
}

fn one(&(n_isps, outage): &(usize, bool), seed: u64) -> (Row, dtcs::netsim::Stats) {
    let stubs_per = 10;
    let topo = Topology::transit_stub_multihomed(n_isps, stubs_per, 0.15, seed);
    let n_nodes = topo.n();
    let mut sim = Simulator::new(topo, seed);
    let victim_node = sim.topo.stub_nodes()[0];
    let prefix = Prefix::of_node(victim_node);
    let mut authority = InternetNumberAuthority::new();
    authority.allocate(prefix, UserId(0xAA01));
    let isps = partition_by_provider(&sim);
    let tcsp_node = sim.topo.transit_nodes()[0];
    let authority_node = sim.topo.transit_nodes()[n_isps.min(2) - 1];
    let mut cp = ControlPlane::install(&mut sim, authority, 0x5EC, tcsp_node, authority_node, isps);
    let register_at = SimTime::from_millis(100);
    let (_user, record) = cp.add_user_with(
        &mut sim,
        victim_node,
        vec![prefix],
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
        register_at,
        true,
        |a| {
            if outage {
                a.with_deploy_delay(dtcs::netsim::SimDuration::from_secs(1))
            } else {
                a
            }
        },
    );
    if outage {
        sim.schedule(SimTime::from_millis(500), move |s| {
            let tcsp = s.agent_mut::<TcspAgent>(cp.tcsp_node).expect("a TCSP");
            tcsp.set_available(false);
        });
    }
    sim.run_until(SimTime::from_secs(30));
    let r = record.lock();
    let reg = r
        .registered_at
        .map(|t| (t.as_nanos() - register_at.as_nanos()) as f64 / 1e6)
        .unwrap_or(f64::NAN);
    let deploy_start_nanos = r
        .registered_at
        .map(|t| t.as_nanos() + if outage { 1_000_000_000 } else { 0 })
        .unwrap_or(0);
    let dep = r
        .deploy_confirmed_at
        .map(|t| (t.as_nanos().saturating_sub(deploy_start_nanos)) as f64 / 1e6)
        .unwrap_or(f64::NAN);
    let row = Row {
        isps: n_isps,
        nodes: n_nodes,
        registration_ms: reg,
        deployment_ms: dep,
        devices: r.devices_configured,
        manual_estimate_hours: n_isps as f64 * 0.5,
        fallback_used: r.used_fallback,
    };
    drop(r);
    (row, sim.stats)
}

/// The latency fields are simulated times, hence deterministic; they are
/// absent only when the sequence never completed (NaN, a `null` row field).
fn metrics(row: &Row) -> std::collections::BTreeMap<String, f64> {
    let fields = [
        "registration_ms",
        "deployment_ms",
        "devices",
        "fallback_used",
    ];
    metrics_of(row, &fields)
}

/// Sweep-grid adapter over [`cases`].
pub struct Sweep;

impl crate::sweep::GridExperiment for Sweep {
    fn cells(&self, opts: &crate::RunOpts) -> Vec<crate::sweep::SweepCell> {
        cells_of("e7", cases(opts.quick), one, metrics)
    }
}

/// Run E7.
pub fn run(opts: &crate::RunOpts) -> Report {
    let mut report = Report::new(
        "e7",
        "Control-plane latency: registration + worldwide deployment",
        "Figs. 4-5 / Sec. 5.1",
    );
    let outs = run_cases("e7", &cases(opts.quick), opts.pool_threads(), one);
    let (tcsp, fallback) = outs.split_at(outs.len() / 2);
    let mut t = Table::new(
        "TCSP path: one registration, scoped fan-out",
        &[
            "isps",
            "nodes",
            "register_ms",
            "deploy_ms",
            "devices",
            "manual_est_hours",
        ],
    );
    for (r, _) in tcsp {
        t.push(
            vec![
                r.isps.to_string(),
                r.nodes.to_string(),
                f(r.registration_ms),
                f(r.deployment_ms),
                r.devices.to_string(),
                f(r.manual_estimate_hours),
            ],
            r,
        );
    }
    report.table(t);

    // Fallback path under TCSP outage.
    let mut t = Table::new(
        "direct-ISP fallback (TCSP under DDoS; 5 s user timeout included)",
        &["isps", "deploy_ms", "devices", "fallback_used"],
    );
    for (r, _) in fallback {
        t.push(
            vec![
                r.isps.to_string(),
                f(r.deployment_ms),
                r.devices.to_string(),
                r.fallback_used.to_string(),
            ],
            r,
        );
    }
    report.table(t);
    report.note(
        "Deployment latency stays within tens of milliseconds of control-plane RTTs even at \
         50 ISPs (fan-out is parallel), versus hours of sequential manual provisioning — the \
         'almost instantly deploy worldwide ingress filtering rules' claim of Sec. 4.3. The \
         fallback adds the detection timeout but still configures every device.",
    );
    report
}
