//! E3 — Anti-spoofing effectiveness vs deployment coverage
//! (Sec. 3.2's Park & Lee citation: route-based filtering on power-law
//! internets is "highly effective … even if only approximately 20% of the
//! autonomous systems have it in place").
//!
//! Spoofed probes (claiming the victim's source address, as reflector
//! agents do) are injected from random stub ASes toward random
//! destinations; the metric is the fraction that survive. Swept over the
//! deployment fraction for four strategies: static ingress filtering vs
//! the TCS anti-spoofing service, each placed randomly or at top-degree
//! ASes first. The TCS rows measure *one victim's* on-demand deployment;
//! the ingress rows require whole-AS altruism for the same effect.

use std::sync::{Arc, Mutex};

use dtcs::attack::hosts;
use dtcs::mitigation::{deploy_ingress, Placement};
use dtcs::netsim::rng::{child_seed, seeded};
use dtcs::netsim::{
    Addr, PacketBuilder, Prefix, Proto, SimTime, Simulator, Topology, TrafficClass,
};
use dtcs::{deploy_tcs_static, TcsStaticConfig};

use crate::sweep::{cells_of, metrics_of, run_cases, Case};
use crate::util::{f, Report, Table};

dtcs::netsim::json_record! {
    pub(crate) struct Row {
        strategy: String,
        fraction: f64,
        probes: u64,
        survived: u64,
        survival_ratio: f64,
        mean_stop_distance: Option<f64>,
    }
}

#[derive(Clone, Copy)]
pub(crate) enum Strategy {
    Ingress(Placement),
    Tcs(Placement),
}

impl Strategy {
    fn label(self) -> String {
        match self {
            Strategy::Ingress(Placement::Random) => "ingress/random".into(),
            Strategy::Ingress(_) => "ingress/top-degree".into(),
            Strategy::Tcs(Placement::Random) => "tcs/random".into(),
            Strategy::Tcs(_) => "tcs/top-degree".into(),
        }
    }
}

/// The internet a probe run is built on, with its node count.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum TopoKind {
    PowerLaw(usize),
    Waxman(usize),
    /// At least this many nodes (E15's 100k-node internet).
    TransitStub(usize),
}

/// One grid point.
#[derive(Clone, Copy)]
pub(crate) struct Params {
    kind: TopoKind,
    strategy: Strategy,
    fraction: f64,
    probes: u64,
}

/// One probe run, optionally exporting its packet flight record.
pub(crate) fn one(
    &Params {
        kind,
        strategy,
        fraction,
        probes,
    }: &Params,
    seed: u64,
    trace: Option<&std::path::Path>,
) -> (Row, dtcs::netsim::Stats) {
    let topo = match kind {
        TopoKind::PowerLaw(n) => Topology::barabasi_albert(n, 2, 0.1, seed),
        TopoKind::Waxman(n) => Topology::waxman(n, 0.4, 0.15, 0.1, seed),
        TopoKind::TransitStub(n) => Topology::transit_stub_at_least(n, seed),
    };
    let mut sim = Simulator::new(topo, seed);
    // --trace: attach a flight recorder directly to this simulator (the
    // bare-sim wiring, vs e2's ScenarioConfig route) and record every
    // probe's lifecycle.
    let recorder = trace.map(|_| {
        let rec = Arc::new(Mutex::new(dtcs::netsim::FlightRecorder::new(1 << 20)));
        sim.set_trace_sink(Box::new(Arc::clone(&rec)), 1);
        rec
    });
    let stubs = sim.topo.stub_nodes();
    let victim_node = stubs[3 % stubs.len()];
    let victim = Addr::new(victim_node, hosts::SERVICE);

    match strategy {
        Strategy::Ingress(p) => {
            deploy_ingress(&mut sim, fraction, p, child_seed(seed, 3));
        }
        Strategy::Tcs(p) => {
            deploy_tcs_static(
                &mut sim,
                Prefix::of_node(victim_node),
                &TcsStaticConfig {
                    fraction,
                    placement: p,
                    dst_firewall: false, // isolate the anti-spoofing effect
                    seed: child_seed(seed, 3),
                    ..Default::default()
                },
            );
        }
    }

    // Targets: service hosts on random stubs (with listeners, so
    // deliveries are counted as deliveries, not NoListener drops).
    let mut rng = seeded(child_seed(seed, 9));
    let mut targets: Vec<Addr> = stubs
        .iter()
        .filter(|&&n| n != victim_node)
        .map(|&n| Addr::new(n, hosts::SERVICE))
        .collect();
    rng.shuffle(&mut targets);
    targets.truncate(40.min(targets.len()));
    for &t in &targets {
        sim.install_app(t, Box::new(dtcs::netsim::SinkApp));
    }

    // Spoofed probes claiming the victim's address, from random stubs —
    // exactly the packets a reflector agent emits.
    for k in 0..probes {
        let from = stubs[rng.gen_range(0..stubs.len())];
        if from == victim_node {
            continue;
        }
        let dst = targets[rng.gen_range(0..targets.len())];
        let at = SimTime(k * 500_000); // 2000 pps total, spread out
        sim.schedule(at, move |s| {
            s.emit_now(
                from,
                PacketBuilder::new(victim, dst, Proto::TcpSyn, TrafficClass::AttackDirect)
                    .size(40)
                    .flow(k),
            );
        });
    }
    sim.run_until(SimTime::from_secs(10));

    let c = sim.stats.class(TrafficClass::AttackDirect);
    let row = Row {
        strategy: strategy.label(),
        fraction,
        probes: c.sent_pkts,
        survived: c.delivered_pkts,
        survival_ratio: c.delivered_pkts as f64 / c.sent_pkts.max(1) as f64,
        mean_stop_distance: sim.stats.mean_stop_distance_all(TrafficClass::AttackDirect),
    };
    if let (Some(path), Some(rec)) = (trace, recorder) {
        drop(sim.take_trace_sink());
        let rec = Arc::try_unwrap(rec)
            .unwrap_or_else(|_| panic!("recorder uniquely owned once the sink is detached"))
            .into_inner()
            .expect("flight recorder mutex poisoned");
        let mut file = std::fs::File::create(path).expect("create trace file");
        rec.export_jsonl(&mut file).expect("write trace file");
    }
    (row, sim.stats)
}

/// Base seed shared by the single-run tables and the sweep cells.
const SEED: u64 = 33;

const TCS_STRATEGIES: [Strategy; 2] = [
    Strategy::Tcs(Placement::Random),
    Strategy::Tcs(Placement::TopDegree),
];

/// Static ingress filtering and the TCS, each placed randomly or at
/// top-degree ASes first.
pub(crate) const STRATEGIES: [Strategy; 4] = [
    Strategy::Ingress(Placement::Random),
    Strategy::Ingress(Placement::TopDegree),
    TCS_STRATEGIES[0],
    TCS_STRATEGIES[1],
];

/// The deployment fractions of a `--quick` run (and of E15).
pub(crate) const QUICK_FRACTIONS: [f64; 5] = [0.0, 0.1, 0.2, 0.4, 0.8];

/// Every strategy × every fraction on `kind`, `probes` probes each.
pub(crate) fn strategy_cases(
    kind: TopoKind,
    strategies: &[Strategy],
    fractions: &[f64],
    probes: u64,
) -> Vec<Case<Params>> {
    let family = match kind {
        TopoKind::PowerLaw(_) => "powerlaw",
        TopoKind::Waxman(_) => "waxman",
        TopoKind::TransitStub(_) => "transit-stub",
    };
    let case = |strategy: Strategy, fraction: f64| {
        let label = format!("{family}/{}/fraction={fraction:.2}", strategy.label());
        let params = Params {
            kind,
            strategy,
            fraction,
            probes,
        };
        Case::new(label, SEED, params)
    };
    strategies
        .iter()
        .flat_map(|&s| fractions.iter().map(move |&fraction| case(s, fraction)))
        .collect()
}

/// The grid: all four strategies × the deployment fractions on a BA
/// power-law internet, then the Waxman contrast over the two TCS
/// strategies. Returns the main-sweep case count too.
fn cases(quick: bool) -> (Vec<Case<Params>>, usize) {
    let (fractions, n, probes): (&[f64], _, _) = if quick {
        (&QUICK_FRACTIONS, 150, 1200)
    } else {
        (
            &[0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0],
            400,
            4000,
        )
    };
    let mut cases = strategy_cases(TopoKind::PowerLaw(n), &STRATEGIES, fractions, probes);
    let n_main = cases.len();
    cases.extend(strategy_cases(
        TopoKind::Waxman(n),
        &TCS_STRATEGIES,
        fractions,
        probes,
    ));
    (cases, n_main)
}

pub(crate) fn metrics(row: &Row) -> std::collections::BTreeMap<String, f64> {
    let mut m = metrics_of(row, &["probes", "survived", "survival_ratio"]);
    m.extend(
        row.mean_stop_distance
            .map(|d| ("stop_distance".to_string(), d)),
    );
    m
}

/// Sweep-grid adapter over [`cases`].
pub struct Sweep;

impl crate::sweep::GridExperiment for Sweep {
    fn cells(&self, opts: &crate::RunOpts) -> Vec<crate::sweep::SweepCell> {
        cells_of(
            "e3",
            cases(opts.quick).0,
            |p, seed| one(p, seed, None),
            metrics,
        )
    }
}

/// Run E3.
pub fn run(opts: &crate::RunOpts) -> Report {
    let mut report = Report::new(
        "e3",
        "Spoofed-packet survival vs deployment coverage",
        "Sec. 3.2 (Park & Lee)",
    );
    let (cases, n_main) = cases(opts.quick);
    let outs = run_cases("e3", &cases, opts.pool_threads(), |p, seed| {
        one(p, seed, None)
    });
    let (main, waxman) = outs.split_at(n_main);
    report.health(crate::util::wheel_health(main.iter().map(|o| &o.1)));
    report.health(crate::util::hist_health(main.iter().map(|o| &o.1)));

    // --trace: one representative traced run (ingress filtering at 20%
    // top-degree coverage — the Park & Lee headline point), wired straight
    // into the bare simulator.
    if let Some(path) = &opts.trace {
        let traced = Params {
            strategy: Strategy::Ingress(Placement::TopDegree),
            fraction: 0.2,
            ..cases[0].params
        };
        let (_, stats) = one(&traced, SEED, Some(path));
        crate::util::enforce_run_invariants("e3/trace", &stats);
        report.health(format!("trace: wrote JSONL to {}", path.display()));
    }

    report.table(survival_table(
        "spoofed-probe survival, power-law (BA) internet",
        main,
    ));

    // Topology-family contrast: Park & Lee's striking 20% number is a
    // *power-law* phenomenon (a few hubs cover most paths). On a Waxman
    // random-geometric internet there are no such hubs, so top-degree
    // placement loses most of its edge — measured here with the TCS rows.
    let mut t = Table::new(
        "same sweep on a Waxman (no-hub) internet",
        &["strategy", "fraction", "survival", "stop_dist"],
    );
    for (r, _) in waxman {
        t.push(
            vec![
                r.strategy.clone(),
                format!("{:.2}", r.fraction),
                f(r.survival_ratio),
                crate::util::fopt(r.mean_stop_distance),
            ],
            r,
        );
    }
    report.table(t);
    headline_note(&mut report, main);
    report
}

/// The main survival table over `rows`.
pub(crate) fn survival_table(title: &str, rows: &[(Row, dtcs::netsim::Stats)]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "strategy",
            "fraction",
            "probes",
            "survived",
            "survival",
            "stop_dist",
        ],
    );
    for (r, _) in rows {
        t.push(
            vec![
                r.strategy.clone(),
                format!("{:.2}", r.fraction),
                r.probes.to_string(),
                r.survived.to_string(),
                f(r.survival_ratio),
                crate::util::fopt(r.mean_stop_distance),
            ],
            r,
        );
    }
    t
}

/// The headline check: top-degree placement at 20%.
pub(crate) fn headline_note(report: &mut Report, rows: &[(Row, dtcs::netsim::Stats)]) {
    if let Some((r, _)) = rows
        .iter()
        .find(|(r, _)| r.strategy == "tcs/top-degree" && (r.fraction - 0.2).abs() < 1e-9)
    {
        report.note(format!(
            "At 20% coverage (top-degree), TCS anti-spoofing already stops {:.0}% of spoofed \
             probes — the Park & Lee shape the paper leans on.",
            (1.0 - r.survival_ratio) * 100.0
        ));
    }
}
