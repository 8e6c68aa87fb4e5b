//! E12 — Deployment incentives (Sec. 4.6).
//!
//! "Malicious or illegitimate traffic can now be filtered closer to the
//! source. This frees valuable bandwidth resources…" — the paper's pitch
//! to ISPs. This experiment measures it from the ISP's chair: partition
//! the internet into provider cones, run the same reflector attack with
//! and without a partial TCS deployment, and account each ISP's attack
//! bytes carried (from the per-link ground-truth counters). The split
//! between deployers and non-deployers quantifies both the direct benefit
//! and the free-rider effect.

use std::collections::BTreeMap;

use dtcs::attack::{install_clients, ReflectorAttack, ReflectorAttackConfig};
use dtcs::control::partition_by_provider;
use dtcs::mitigation::Placement;
use dtcs::netsim::{NodeId, Prefix, SimDuration, SimTime, Simulator, Stats, Topology};
use dtcs::{deploy_tcs_static, TcsStaticConfig};

use crate::sweep::{Case, Experiment, GridExperiment};
use crate::util::{f, Report, Table};
use crate::RunOpts;

dtcs::netsim::json_record! {
    struct IspRow {
        isp: usize,
        routers: usize,
        deployed: bool,
        attack_mb_undefended: f64,
        attack_mb_defended: f64,
        saved_pct: f64,
    }
}

/// Attack bytes carried per ISP (sum over its routers' incident links,
/// halved since both endpoints count each link once here via ownership by
/// lower node id).
fn attack_bytes_per_isp(sim: &Simulator, isp_of: &BTreeMap<usize, usize>) -> BTreeMap<usize, u64> {
    let mut per_isp: BTreeMap<usize, u64> = BTreeMap::new();
    for link in &sim.topo.links {
        let bytes: u64 = link.dirs.iter().map(|d| d.attack_bytes_sent).sum();
        // Attribute half to each endpoint's ISP (a link burdens both).
        for end in [link.a, link.b] {
            if let Some(&isp) = isp_of.get(&end.0) {
                *per_isp.entry(isp).or_insert(0) += bytes / 2;
            }
        }
    }
    per_isp
}

/// Base seed shared by the single-run tables and the sweep cells.
const SEED: u64 = 88;

fn run_once(deploy: bool, quick: bool, seed: u64) -> (Simulator, Vec<NodeId>) {
    let n = if quick { 120 } else { 250 };
    let topo = Topology::barabasi_albert(n, 2, 0.1, seed);
    let mut sim = Simulator::new(topo, seed);
    let victim_node = sim.topo.stub_nodes()[2];
    let mut deployed_nodes = Vec::new();
    if deploy {
        let dep = deploy_tcs_static(
            &mut sim,
            Prefix::of_node(victim_node),
            &TcsStaticConfig {
                fraction: 0.25,
                // Random placement: entire provider cones stay undeployed,
                // making the free-rider group visible.
                placement: Placement::Random,
                seed,
                ..Default::default()
            },
        );
        deployed_nodes = dep.nodes;
    }
    let dur = if quick { 15u64 } else { 25 };
    let _attack = ReflectorAttack::install(
        &mut sim,
        victim_node,
        &ReflectorAttackConfig {
            n_agents: if quick { 60 } else { 100 },
            n_reflectors: if quick { 80 } else { 150 },
            agent_rate_pps: 60.0,
            start_at: SimTime::from_secs(2),
            stop_at: SimTime::from_secs(dur - 2),
            seed,
            ..Default::default()
        },
    );
    let _clients = install_clients(
        &mut sim,
        dtcs::netsim::Addr::new(victim_node, dtcs::attack::hosts::SERVICE),
        15,
        SimDuration::from_millis(250),
        SimTime::from_secs(dur),
        seed,
    );
    sim.run_until(SimTime::from_secs(dur));
    (sim, deployed_nodes)
}

/// Per-ISP accounting of the undefended vs defended runs, sorted by
/// undefended load (descending).
fn isp_rows(sim_base: &Simulator, sim_tcs: &Simulator, deployed: &[NodeId]) -> Vec<IspRow> {
    // ISP partition (identical for both runs: same topology/seed).
    let isps = partition_by_provider(sim_base);
    let mut isp_of: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, isp) in isps.iter().enumerate() {
        for &node in &isp.managed {
            isp_of.insert(node.0, i);
        }
    }
    let base = attack_bytes_per_isp(sim_base, &isp_of);
    let with = attack_bytes_per_isp(sim_tcs, &isp_of);

    let mut rows: Vec<IspRow> = isps
        .iter()
        .enumerate()
        .map(|(i, isp)| {
            let b = *base.get(&i).unwrap_or(&0) as f64 / 1e6;
            let w = *with.get(&i).unwrap_or(&0) as f64 / 1e6;
            IspRow {
                isp: i,
                routers: isp.managed.len(),
                deployed: isp.managed.iter().any(|n| deployed.contains(n)),
                attack_mb_undefended: b,
                attack_mb_defended: w,
                saved_pct: saved_pct(b, w),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.attack_mb_undefended.total_cmp(&a.attack_mb_undefended));
    rows
}

/// (bytes before, bytes after) summed over deployers (`pred == true`) or
/// free riders.
fn aggregate(rows: &[IspRow], pred: bool) -> (f64, f64) {
    rows.iter()
        .filter(|r| r.deployed == pred)
        .fold((0.0, 0.0), |(b, w), r| {
            (b + r.attack_mb_undefended, w + r.attack_mb_defended)
        })
}

/// Share of `before` no longer carried `after`, in percent.
fn saved_pct(before: f64, after: f64) -> f64 {
    if before > 0.0 {
        (1.0 - after / before) * 100.0
    } else {
        0.0
    }
}

/// The grid is a single case: the undefended/defended pair at 25%
/// coverage.
fn cases(quick: bool) -> Vec<Case<bool>> {
    vec![Case::new("incentives/fraction=0.25", SEED, quick)]
}

/// Run the pair and account it per ISP; the two simulations' stats are
/// folded with [`Stats::merge`].
fn one(&quick: &bool, seed: u64) -> (Vec<IspRow>, Stats) {
    let (sim_base, _) = run_once(false, quick, seed);
    let (sim_tcs, deployed) = run_once(true, quick, seed);
    let rows = isp_rows(&sim_base, &sim_tcs, &deployed);
    let mut stats = sim_base.stats;
    stats.merge(&sim_tcs.stats);
    (rows, stats)
}

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e12",
    title: "ISP incentives: attack bandwidth saved per provider",
    anchor: "Sec. 4.6",
    cases,
    one,
    // The deployer vs free-rider aggregates.
    metrics: |rows| {
        let (db, dw) = aggregate(rows, true);
        let (fb, fw) = aggregate(rows, false);
        let deployer_isps = rows.iter().filter(|r| r.deployed).count();
        let pairs = [
            ("deployers_mb_before", db),
            ("deployers_mb_after", dw),
            ("free_riders_mb_before", fb),
            ("free_riders_mb_after", fw),
            ("deployers_saved_pct", saved_pct(db, dw)),
            ("free_riders_saved_pct", saved_pct(fb, fw)),
            ("deployer_isps", deployer_isps as f64),
        ];
        pairs.map(|(k, v)| (k.to_string(), v)).into()
    },
    render,
};

fn render(report: &mut Report, _: &RunOpts, _: &[Case<bool>], outs: &[(Vec<IspRow>, Stats)]) {
    let rows = &outs[0].0;
    report.table(Table::of(
        "attack megabytes carried per ISP, without vs with a 25% TCS deployment",
        rows.iter().take(12),
        &[
            ("isp", &|r| r.isp.to_string()),
            ("routers", &|r| r.routers.to_string()),
            ("deployed", &|r| r.deployed.to_string()),
            ("attack_MB_before", &|r| f(r.attack_mb_undefended)),
            ("attack_MB_after", &|r| f(r.attack_mb_defended)),
            ("saved_%", &|r| format!("{:.1}", r.saved_pct)),
        ],
    ));

    // Aggregate: deployers vs free riders.
    let (db, dw) = aggregate(rows, true);
    let (fb, fw) = aggregate(rows, false);
    report.table(Table::of(
        "aggregate: deployers vs non-deployers",
        &[("deployers", db, dw), ("free-riders", fb, fw)],
        &[
            ("group", &|r| r.0.to_string()),
            ("attack_MB_before", &|r| f(r.1)),
            ("attack_MB_after", &|r| f(r.2)),
            ("saved_%", &|r| format!("{:.1}", saved_pct(r.1, r.2))),
        ],
    ));
    report.note(
        "Deploying ISPs shed the bulk of the attack bytes they previously hauled (the \
         premium-service pitch of Sec. 4.6), and the savings spill over to non-deployers \
         too — filtering near the source frees everyone's links, which is simultaneously \
         the incentive and the free-rider tension of incremental roll-out.",
    );
}
