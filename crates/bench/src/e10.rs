//! E10 — Emerging applications: traceback accuracy and anomaly-reaction
//! latency (Sec. 4.4).
//!
//! (a) SPIE-style digest traceback: accuracy of locating the true origin
//! of spoofed packets vs backlog retention and deployment coverage.
//! (b) Automated reaction: time from attack onset to a device trigger
//! firing (and auto-activating a dormant limiter) vs trigger threshold.

use rayon::prelude::*;
use serde::Serialize;

use dtcs::control::CatalogService;
use dtcs::device::view::digest_packet;
use dtcs::device::{AdaptiveDevice, DeviceCommand, DeviceEvent, OwnerId};
use dtcs::mitigation::{choose_nodes, Placement, SpieConfig, SpieFleet};
use dtcs::netsim::rng::{child_seed, seeded};
use dtcs::netsim::{
    Addr, NodeId, PacketBuilder, Prefix, Proto, SimDuration, SimTime, Simulator, Topology,
    TrafficClass,
};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::util::{f, fopt, Report, Table};

#[derive(Serialize, Clone)]
struct TraceRow {
    coverage: f64,
    windows_retained: usize,
    queries: usize,
    exact_hits: usize,
    truncated: usize,
    misses: usize,
    accuracy: f64,
}

/// Base seed for the traceback half (historically the literal `66` used
/// for topology, simulator, node choice, and — via `child_seed(66, 4)` —
/// the probe RNG).
const TRACE_SEED: u64 = 66;

/// Base seed for the anomaly-trigger half (historically the literal `9`).
const TRIGGER_SEED: u64 = 9;

/// Traceback (coverage, retained windows) grid shared by `run()` and the
/// sweep adapter.
fn trace_cases(quick: bool) -> Vec<(f64, usize)> {
    if quick {
        vec![(1.0, 30), (0.5, 30), (1.0, 4)]
    } else {
        vec![
            (1.0, 30),
            (0.75, 30),
            (0.5, 30),
            (0.25, 30),
            (1.0, 8),
            (1.0, 4),
        ]
    }
}

/// Trigger thresholds (pps) against the fixed 5000 pps flood.
const TRIGGER_THRESHOLDS: [f64; 3] = [100.0, 500.0, 2000.0];

fn trace_case(
    coverage: f64,
    retain: usize,
    quick: bool,
    seed: u64,
) -> (TraceRow, dtcs::netsim::Stats) {
    let n = if quick { 100 } else { 250 };
    let topo = Topology::barabasi_albert(n, 2, 0.1, seed);
    let mut sim = Simulator::new(topo, seed);
    let stubs = sim.topo.stub_nodes();
    let victim_node = stubs[0];
    let victim = Addr::new(victim_node, 1);
    sim.install_app(victim, Box::new(dtcs::netsim::SinkApp));
    let mut nodes = choose_nodes(&sim.topo, coverage, Placement::TopDegree, seed);
    if !nodes.contains(&victim_node) {
        nodes.push(victim_node);
    }
    let fleet = SpieFleet::deploy(
        &mut sim,
        &nodes,
        SpieConfig {
            retain,
            ..Default::default()
        },
    );
    // Spoofed probes from random stubs, each with a unique tag.
    let mut rng = seeded(child_seed(seed, 4));
    let n_probes = if quick { 60 } else { 150 };
    let mut probes = Vec::new();
    for k in 0..n_probes as u64 {
        let from = *stubs[1..].choose(&mut rng).expect("stubs");
        let spoof = Addr(rng.gen());
        let b = PacketBuilder::new(spoof, victim, Proto::Udp, TrafficClass::AttackDirect)
            .size(100)
            .tag(0xE10_000 + k);
        let at = SimTime(k * 20_000_000);
        probes.push((from, b, at));
        sim.schedule(at, move |s| s.emit_now(from, b));
    }
    sim.run_until(SimTime::from_secs(10));
    crate::util::enforce_run_invariants("e10/traceback", &sim.stats);

    let mut exact = 0;
    let mut truncated = 0;
    let mut misses = 0;
    for (from, b, at) in &probes {
        let digest = digest_packet(&b.build(0, *from));
        let found = fleet.trace(
            &sim.topo,
            victim_node,
            digest,
            *at,
            SimDuration::from_secs(2),
        );
        if found.contains(from) {
            exact += 1;
        } else if !found.is_empty() {
            truncated += 1;
        } else {
            misses += 1;
        }
    }
    let row = TraceRow {
        coverage,
        windows_retained: retain,
        queries: probes.len(),
        exact_hits: exact,
        truncated,
        misses,
        accuracy: exact as f64 / probes.len() as f64,
    };
    (row, sim.stats)
}

#[derive(Serialize, Clone)]
struct TriggerRow {
    threshold_pps: f64,
    attack_rate_pps: f64,
    reaction_ms: Option<f64>,
    limiter_drops: u64,
}

fn trigger_case(
    threshold_pps: f64,
    attack_rate_pps: f64,
    seed: u64,
) -> (TriggerRow, dtcs::netsim::Stats) {
    let topo = Topology::star(4);
    let mut sim = Simulator::new(topo, seed);
    let me = NodeId(1);
    let my_addr = Addr::new(me, 1);
    sim.install_app(my_addr, Box::new(dtcs::netsim::SinkApp));
    let owner = OwnerId(3);
    let (tx, rx) = std::sync::mpsc::channel::<DeviceEvent>();
    let (mut dev, _h) = AdaptiveDevice::new(NodeId(0), None);
    dev.set_event_tap(tx);
    dev.apply(DeviceCommand::RegisterOwner {
        owner,
        prefixes: vec![Prefix::of_node(me)],
        contact: me,
    });
    let svc = CatalogService::AnomalyReaction {
        threshold_pps,
        window: SimDuration::from_millis(200),
        limit_bytes_per_sec: 20_000.0,
    };
    dev.apply(DeviceCommand::InstallService {
        txn: 0,
        lease_until: SimTime::MAX,
        owner,
        stage: svc.stage(),
        spec: svc.compile(),
    });
    sim.add_agent(NodeId(0), Box::new(dev));
    let attack_start = SimTime::from_secs(2);
    use dtcs::attack::{AgentApp, AgentMode, AgentTrigger, SpoofMode};
    sim.install_app(
        Addr::new(NodeId(2), 4),
        Box::new(
            AgentApp::new(
                AgentMode::Direct {
                    victim: my_addr,
                    spoof: SpoofMode::None,
                },
                AgentTrigger::AtTime(attack_start),
                attack_rate_pps,
                200,
            )
            .until(SimTime::from_secs(10)),
        ),
    );
    sim.run_until(SimTime::from_secs(12));
    crate::util::enforce_run_invariants("e10/trigger", &sim.stats);
    let fired_at = rx.try_iter().find_map(|ev| match ev {
        DeviceEvent::TriggerFired { at, .. } => Some(at),
        _ => None,
    });
    let row = TriggerRow {
        threshold_pps,
        attack_rate_pps,
        reaction_ms: fired_at
            .map(|t| (t.as_nanos().saturating_sub(attack_start.as_nanos())) as f64 / 1e6),
        limiter_drops: sim
            .stats
            .drops_for_reason(dtcs::netsim::DropReason::DeviceRateLimit)
            .pkts,
    };
    (row, sim.stats)
}

/// Sweep-grid adapter: the traceback grid (base seed 66) plus the
/// anomaly-trigger thresholds (base seed 9 — per-cell base seeds let each
/// half keep its historical literal at replicate 0).
pub struct Sweep;

impl crate::sweep::GridExperiment for Sweep {
    fn id(&self) -> &'static str {
        "e10"
    }

    fn cells(&self, opts: &crate::RunOpts) -> Vec<crate::sweep::SweepCell> {
        let quick = opts.quick;
        let mut cells = Vec::new();
        for (coverage, windows) in trace_cases(quick) {
            cells.push(crate::sweep::SweepCell {
                experiment: "e10",
                scenario: format!("traceback/coverage={coverage:.2}/windows={windows}"),
                base_seed: TRACE_SEED,
                run: Box::new(move |seed| {
                    let (row, stats) = trace_case(coverage, windows, quick, seed);
                    let mut metrics = std::collections::BTreeMap::new();
                    metrics.insert("queries".to_string(), row.queries as f64);
                    metrics.insert("exact_hits".to_string(), row.exact_hits as f64);
                    metrics.insert("truncated".to_string(), row.truncated as f64);
                    metrics.insert("misses".to_string(), row.misses as f64);
                    metrics.insert("accuracy".to_string(), row.accuracy);
                    crate::sweep::CellRun { metrics, stats }
                }),
            });
        }
        for threshold in TRIGGER_THRESHOLDS {
            cells.push(crate::sweep::SweepCell {
                experiment: "e10",
                scenario: format!("trigger/threshold={threshold}"),
                base_seed: TRIGGER_SEED,
                run: Box::new(move |seed| {
                    let (row, stats) = trigger_case(threshold, 5000.0, seed);
                    let mut metrics = std::collections::BTreeMap::new();
                    if let Some(ms) = row.reaction_ms {
                        metrics.insert("reaction_ms".to_string(), ms);
                    }
                    metrics.insert("limiter_drops".to_string(), row.limiter_drops as f64);
                    crate::sweep::CellRun { metrics, stats }
                }),
            });
        }
        cells
    }
}

/// Run E10.
pub fn run(opts: &crate::RunOpts) -> Report {
    let quick = opts.quick;
    let mut report = Report::new(
        "e10",
        "TCS applications: traceback accuracy, anomaly-reaction latency",
        "Sec. 4.4",
    );

    let rows: Vec<TraceRow> = trace_cases(quick)
        .par_iter()
        .map(|&(c, w)| trace_case(c, w, quick, TRACE_SEED).0)
        .collect();
    let mut t = Table::new(
        "digest-backlog traceback of spoofed packets",
        &[
            "coverage",
            "windows",
            "queries",
            "exact",
            "truncated",
            "missed",
            "accuracy",
        ],
    );
    for r in &rows {
        t.push(
            vec![
                format!("{:.2}", r.coverage),
                r.windows_retained.to_string(),
                r.queries.to_string(),
                r.exact_hits.to_string(),
                r.truncated.to_string(),
                r.misses.to_string(),
                f(r.accuracy),
            ],
            r,
        );
    }
    report.table(t);

    let rows: Vec<TriggerRow> = TRIGGER_THRESHOLDS
        .par_iter()
        .map(|&th| trigger_case(th, 5000.0, TRIGGER_SEED).0)
        .collect();
    let mut t = Table::new(
        "anomaly-reaction latency (5000 pps flood, 200 ms windows)",
        &[
            "threshold_pps",
            "attack_pps",
            "reaction_ms",
            "limiter_drops",
        ],
    );
    for r in &rows {
        t.push(
            vec![
                f(r.threshold_pps),
                f(r.attack_rate_pps),
                fopt(r.reaction_ms),
                r.limiter_drops.to_string(),
            ],
            r,
        );
    }
    report.table(t);
    report.note(
        "Full coverage traces every spoofed probe to its true origin AS; partial coverage \
         truncates traces at the instrumented frontier (still narrowing the search), and \
         short retention loses old packets — the qualitative SPIE trade-offs. Trigger \
         reaction completes within one observation window of attack onset.",
    );
    report
}
