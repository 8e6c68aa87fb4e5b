//! E9 — Pushback misattribution under reflector attacks (Sec. 3.1).
//!
//! Two claims are measured. First, under the default reflector attack the
//! victim's *server* dies while its links stay clear, so pushback — which
//! triggers on link drops — never engages ("an attacked server's resources
//! are exhausted before its uplink is overloaded"). Second, when the
//! attack IS bandwidth-heavy (DNS amplification into a skinny uplink),
//! pushback engages but classifies dropped packets by *source address*,
//! which names the innocent reflectors — its rate limits land on reflector
//! prefixes, not agent prefixes. The destination-keyed ablation
//! (ACC-style) is included for contrast.

use dtcs::attack::{install_clients, mean_success, ReflectorAttack, ReflectorAttackConfig};
use dtcs::mitigation::{deploy_pushback_everywhere, AggregateKey, PushbackConfig, PushbackStats};
use dtcs::netsim::{DropReason, Proto, SimDuration, SimTime, Simulator, Stats, Topology};

use crate::sweep::{metrics_of, Case, Experiment, GridExperiment};
use crate::util::{f, Report, Table};
use crate::RunOpts;

dtcs::netsim::json_record! {
    struct Row {
        case: String,
        limits_installed: usize,
        limits_on_reflector_prefixes: usize,
        limits_on_agent_prefixes: usize,
        pushback_drops: u64,
        drops_on_reflector_traffic: u64,
        legit_success: f64,
        victim_overloaded: u64,
    }
}

/// Base seed shared by the single-run tables and the sweep cells.
const SEED: u64 = 55;

/// One grid point: `(aggregate key, skinny uplink, table label, quick)`.
type Params = (AggregateKey, bool, &'static str, bool);

/// The three misattribution cases.
fn cases(quick: bool) -> Vec<Case<Params>> {
    [
        (
            AggregateKey::SrcPrefix,
            false,
            "server-bound attack (fat uplink)",
            "fat-uplink/src-keyed",
        ),
        (
            AggregateKey::SrcPrefix,
            true,
            "bandwidth-bound, src-keyed (paper's pushback)",
            "skinny-uplink/src-keyed",
        ),
        (
            AggregateKey::DstPrefix,
            true,
            "bandwidth-bound, dst-keyed (ACC ablation)",
            "skinny-uplink/dst-keyed",
        ),
    ]
    .into_iter()
    .map(|(key, skinny, label, scenario)| Case::new(scenario, SEED, (key, skinny, label, quick)))
    .collect()
}

fn one(&(key, skinny_uplink, label, quick): &Params, seed: u64) -> (Row, Stats) {
    let n = if quick { 120 } else { 250 };
    let mut topo = Topology::barabasi_albert(n, 2, 0.1, seed);
    // Pre-compute the victim (same convention every run: first stub).
    let victim_node = topo
        .nodes
        .iter()
        .find(|nd| nd.role == dtcs::netsim::NodeRole::Stub)
        .map(|nd| nd.id)
        .expect("stub exists");
    if skinny_uplink {
        // The victim's uplink(s) become 2 Mbit/s: the bandwidth-bound case.
        let links: Vec<_> = topo.nodes[victim_node.0].links.clone();
        for l in links {
            topo.links[l.0].bandwidth_bps = 2e6;
            topo.links[l.0].queue_limit_bytes = 30_000;
        }
    }
    let mut sim = Simulator::new(topo, seed);
    deploy_pushback_everywhere(
        &mut sim,
        PushbackConfig {
            key,
            drop_threshold: 30,
            limit_bytes_per_sec: 10_000.0,
            burst_bytes: 5_000,
        },
    );
    let dur = if quick { 15 } else { 25 };
    // DNS amplification: 60-byte queries become 480-byte responses.
    let attack = ReflectorAttack::install(
        &mut sim,
        victim_node,
        &ReflectorAttackConfig {
            n_agents: if quick { 60 } else { 120 },
            n_reflectors: if quick { 60 } else { 120 },
            agent_rate_pps: 80.0,
            proto: Proto::DnsQuery,
            start_at: SimTime::from_secs(3),
            stop_at: SimTime::from_secs(dur as u64 - 2),
            // Fat-uplink case: the server is the bottleneck (500 pps);
            // skinny-uplink case: the link is (capacity effectively inf).
            victim_capacity_pps: if skinny_uplink { 100_000.0 } else { 500.0 },
            seed,
            ..Default::default()
        },
    );
    let clients = install_clients(
        &mut sim,
        attack.victim,
        20,
        SimDuration::from_millis(250),
        SimTime::from_secs(dur as u64),
        seed,
    );
    sim.run_until(SimTime::from_secs(dur as u64));

    let s = PushbackStats::gather(&sim);
    let reflector_prefixes: Vec<u32> = attack
        .reflector_nodes
        .iter()
        .map(|n| (n.0 as u32) << 16)
        .collect();
    let agent_prefixes: Vec<u32> = attack
        .agent_nodes
        .iter()
        .map(|n| (n.0 as u32) << 16)
        .collect();
    let on_reflectors = s
        .limits_installed
        .iter()
        .filter(|(_, p)| reflector_prefixes.contains(&p.bits))
        .count();
    let on_agents = s
        .limits_installed
        .iter()
        .filter(|(_, p)| agent_prefixes.contains(&p.bits))
        .count();
    let drops_on_reflectors: u64 = s
        .dropped_per_aggregate
        .iter()
        .filter(|(bits, _)| reflector_prefixes.contains(bits))
        .map(|(_, c)| c)
        .sum();
    let victim_overloaded = attack.victim_stats.lock().overloaded;
    let row = Row {
        case: label.to_string(),
        limits_installed: s.limits_installed.len(),
        limits_on_reflector_prefixes: on_reflectors,
        limits_on_agent_prefixes: on_agents,
        pushback_drops: sim.stats.drops_for_reason(DropReason::PushbackLimit).pkts,
        drops_on_reflector_traffic: drops_on_reflectors,
        legit_success: mean_success(&clients),
        victim_overloaded,
    };
    drop(s);
    (row, sim.stats)
}

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e9",
    title: "Pushback against reflector attacks: no trigger, then misattribution",
    anchor: "Sec. 3.1",
    cases,
    one,
    metrics: |row| metrics_of(row, &[]),
    render,
};

fn render(report: &mut Report, _: &RunOpts, _: &[Case<Params>], outs: &[(Row, Stats)]) {
    report.table(Table::of(
        "what pushback limits, and whom it hits",
        outs.iter().map(|o| &o.0),
        &[
            ("case", &|r| r.case.clone()),
            ("limits", &|r| r.limits_installed.to_string()),
            ("on_reflectors", &|r| {
                r.limits_on_reflector_prefixes.to_string()
            }),
            ("on_agents", &|r| r.limits_on_agent_prefixes.to_string()),
            ("pb_drops", &|r| r.pushback_drops.to_string()),
            ("drops_refl_traffic", &|r| {
                r.drops_on_reflector_traffic.to_string()
            }),
            ("legit_ok", &|r| f(r.legit_success)),
        ],
    ));
    report.note(
        "Row 1: zero limits installed — the server died with clear links, pushback's blind \
         spot. Rows 2-3: every source-keyed limit lands on an innocent reflector prefix and \
         none on an agent prefix ('will yield a wrong attack source — the reflectors'); \
         dst-keyed limits at least confine the victim-bound aggregate but throttle legitimate \
         clients inside it too.",
    );
}
