//! Reflector-attack anatomy and defense comparison (Figs. 1 vs Sec. 4.3).
//!
//! Dissects one DDoS reflector attack — amplification factors, who the
//! victim *appears* to be attacked by — then replays it under each
//! mitigation scheme of the paper's Sec. 3 analysis and prints the
//! comparison table (the interactive version of experiment E2).
//!
//! Run with: `cargo run --release -p dtcs --example reflector_defense`

use dtcs::attack::{ReflectorAttack, ReflectorAttackConfig};
use dtcs::netsim::{SimTime, Simulator, Topology, TrafficClass};
use dtcs::{print_table, run_scenario, OutcomeRow, ScenarioConfig, Scheme};

fn main() {
    anatomy();
    comparison();
}

/// Part 1: anatomy of the attack (Fig. 1 made measurable).
fn anatomy() {
    println!("== Part 1: anatomy of a reflector attack ==\n");
    let topo = Topology::barabasi_albert(150, 2, 0.1, 11);
    let mut sim = Simulator::new(topo, 11);
    let victim_node = sim.topo.stub_nodes()[3];
    let attack = ReflectorAttack::install(
        &mut sim,
        victim_node,
        &ReflectorAttackConfig {
            n_agents: 50,
            n_reflectors: 100,
            agent_rate_pps: 40.0,
            start_at: SimTime::from_secs(1),
            stop_at: SimTime::from_secs(11),
            seed: 11,
            ..Default::default()
        },
    );
    sim.run_until(SimTime::from_secs(12));

    let control = sim.stats.class(TrafficClass::AttackControl);
    let direct = sim.stats.class(TrafficClass::AttackDirect);
    let reflected = sim.stats.class(TrafficClass::AttackReflected);
    println!("attacker control packets sent: {:>10}", control.sent_pkts);
    println!("agent (spoofed) requests sent: {:>10}", direct.sent_pkts);
    println!("reflected packets at victim:   {:>10}", reflected.sent_pkts);
    println!(
        "packet-rate amplification attacker->network: {:.0}x",
        (direct.sent_pkts + reflected.sent_pkts) as f64 / control.sent_pkts.max(1) as f64
    );
    println!(
        "byte amplification request->reply: {:.2}x",
        reflected.sent_bytes as f64 / direct.sent_bytes.max(1) as f64
    );
    let (reqs, attack_reqs) = attack.reflector_totals();
    println!(
        "reflector pool: {} servers, {} requests absorbed (all {} attack traffic)",
        attack.reflectors.len(),
        reqs,
        attack_reqs
    );
    // The crucial property: the packets hitting the victim carry REAL
    // reflector sources, not spoofed ones. Source-based blocking would hit
    // the innocent reflectors.
    let v = attack.victim_stats.lock();
    println!(
        "victim received {} packets, none from the true agents — all from innocent reflectors\n",
        v.received
    );
}

/// Part 2: every Sec. 3 scheme against the same attack (E2 interactive).
fn comparison() {
    println!("== Part 2: mitigation schemes vs the same attack ==\n");
    let cfg = ScenarioConfig::default();
    let schemes = Scheme::comparison_set(cfg.attack.start_at);
    let rows: Vec<Vec<String>> = schemes
        .iter()
        .map(|s| {
            eprintln!("  running {} ...", s.label());
            run_scenario(&cfg, s).row.cells()
        })
        .collect();
    print_table(&OutcomeRow::header(), &rows);
    println!(
        "\nReading guide: 'legit_ok' is victim-client success, 'collateral_ok' is third-party
success through reflector-hosted services, 'stop_dist' is mean hops from an attack
source at which its packets died (lower = closer to the source)."
    );
}
