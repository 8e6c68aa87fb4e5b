//! E10 — Emerging applications: traceback accuracy and anomaly-reaction
//! latency (Sec. 4.4).
//!
//! (a) SPIE-style digest traceback on the TCS's own backlog: adaptive
//! devices keep the victim's `DigestBacklog`, the victim asks each of them
//! about each spoofed probe over the control plane (`QueryDigest`), and
//! [`dtcs::trace_origins`] walks the answers; accuracy of locating the
//! true origin vs backlog retention and deployment coverage.
//! (b) Automated reaction: time from attack onset to a device trigger
//! firing (and auto-activating a dormant limiter) vs trigger threshold,
//! read from the `TriggerFired` event at the owner's contact node.

use std::collections::BTreeSet;

use dtcs::control::CatalogService;
use dtcs::device::view::digest_packet;
use dtcs::device::{
    AdaptiveDevice, DeviceCommand, DeviceEvent, Heard, Inbox, ModuleSpec, OwnerId, ServiceSpec,
    Stage,
};
use dtcs::mitigation::{choose_nodes, Placement};
use dtcs::netsim::rng::{child_seed, seeded};
use dtcs::netsim::{
    Addr, NodeId, PacketBuilder, Prefix, Proto, SimDuration, SimTime, Simulator, Stats, Topology,
    TrafficClass,
};

use crate::sweep::{metrics_of, Case, Experiment, GridExperiment};
use crate::util::{f, fopt, Report, Table};
use crate::RunOpts;

dtcs::netsim::json_record! {
    struct TraceRow {
        coverage: f64,
        windows_retained: usize,
        queries: usize,
        exact_hits: usize,
        truncated: usize,
        misses: usize,
        accuracy: f64,
    }
}

/// Base seed of the traceback half.
const TRACE_SEED: u64 = 66;

/// Base seed of the anomaly-trigger half.
const TRIGGER_SEED: u64 = 9;

/// Trigger thresholds (pps) against the fixed 5000 pps flood.
const TRIGGER_THRESHOLDS: [f64; 3] = [100.0, 500.0, 2000.0];

/// One grid point of the two halves.
#[derive(Clone, Copy)]
enum Params {
    /// Traceback at `(coverage, retained windows, quick)`.
    Trace(f64, usize, bool),
    /// Anomaly trigger at this threshold (pps).
    Trigger(f64),
}

enum Row {
    Trace(TraceRow),
    Trigger(TriggerRow),
}

/// The grid: the traceback (coverage, retention) points (base seed 66),
/// then the trigger thresholds (base seed 9 — per-case base seeds let
/// each half keep its historical literal).
fn cases(quick: bool) -> Vec<Case<Params>> {
    let trace_points: &[(f64, usize)] = if quick {
        &[(1.0, 30), (0.5, 30), (1.0, 4)]
    } else {
        &[
            (1.0, 30),
            (0.75, 30),
            (0.5, 30),
            (0.25, 30),
            (1.0, 8),
            (1.0, 4),
        ]
    };
    let trace = trace_points.iter().map(|&(coverage, windows)| {
        let label = format!("traceback/coverage={coverage:.2}/windows={windows}");
        Case::new(label, TRACE_SEED, Params::Trace(coverage, windows, quick))
    });
    let trigger = TRIGGER_THRESHOLDS.iter().map(|&threshold| {
        let label = format!("trigger/threshold={threshold}");
        Case::new(label, TRIGGER_SEED, Params::Trigger(threshold))
    });
    trace.chain(trigger).collect()
}

fn one(params: &Params, seed: u64) -> (Row, Stats) {
    match *params {
        Params::Trace(coverage, windows, quick) => {
            let (row, stats) = trace_case(coverage, windows, quick, seed);
            (Row::Trace(row), stats)
        }
        Params::Trigger(threshold) => {
            let (row, stats) = trigger_case(threshold, 5000.0, seed);
            (Row::Trigger(row), stats)
        }
    }
}

fn trace_case(coverage: f64, retain: usize, quick: bool, seed: u64) -> (TraceRow, Stats) {
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
    // The victim's backlog of its inbound traffic on every covered node,
    // sized as SPIE sizes a router's (the catalog's `TracebackSupport`
    // keeps 2^16 bits, which would move the false-positive rates).
    let owner = OwnerId(0xE10);
    let backlog = ServiceSpec::chain(
        "traceback",
        vec![ModuleSpec::DigestBacklog {
            window: SimDuration::from_secs(1),
            windows: retain,
            bits: 1 << 18,
            hashes: 4,
        }],
    );
    for &node in &nodes {
        let (mut dev, _) = AdaptiveDevice::new(node, None);
        dev.apply(DeviceCommand::RegisterOwner {
            owner,
            prefixes: vec![Prefix::of_node(victim_node)],
            contact: victim_node,
        });
        dev.apply(DeviceCommand::InstallService {
            owner,
            stage: Stage::Dst,
            spec: backlog.clone(),
            txn: 0,
            lease_until: SimTime::MAX,
        });
        sim.add_agent(node, Box::new(dev));
    }
    Inbox::attach(&mut sim, victim_node);
    // Spoofed probes from random stubs, each with a unique tag.
    let mut rng = seeded(child_seed(seed, 4));
    let n_probes = if quick { 60 } else { 150 };
    let mut probes = Vec::new();
    let slack = SimDuration::from_secs(2);
    for k in 0..n_probes as u64 {
        let origin = *rng.choose(&stubs[1..]).expect("stubs");
        let spoof = Addr(rng.gen());
        let b = PacketBuilder::new(spoof, victim, Proto::Udp, TrafficClass::AttackDirect)
            .size(100)
            .tag(0xE10_000 + k);
        let at = SimTime(k * 20_000_000);
        sim.schedule(at, move |s| s.emit_now(origin, b));
        // At 10 s the victim asks every device whether it saw the probe
        // within 2 s of its send time; the answers come back to its inbox.
        let digest = digest_packet(&b.build(0, origin));
        for &node in &nodes {
            let query = DeviceCommand::QueryDigest {
                owner,
                digest,
                from: SimTime(at.as_nanos().saturating_sub(slack.as_nanos())),
                to: at + slack,
                reply_to: victim_node,
            };
            sim.deliver_control(SimTime::from_secs(10), victim_node, node, query);
        }
        probes.push((origin, digest));
    }
    sim.run_until(SimTime::from_secs(12));

    let inbox = sim.agent::<Inbox>(victim_node).expect("inbox attached");
    let hits: BTreeSet<(u64, NodeId)> =
        inbox.heard().iter().filter_map(Heard::digest_hit).collect();
    let mut exact = 0;
    let mut truncated = 0;
    let mut misses = 0;
    for &(origin, digest) in &probes {
        let found = dtcs::trace_origins(&sim.topo, victim_node, |n| hits.contains(&(digest, n)));
        if found.contains(&origin) {
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

dtcs::netsim::json_record! {
    struct TriggerRow {
        threshold_pps: f64,
        attack_rate_pps: f64,
        reaction_ms: Option<f64>,
        limiter_drops: u64,
    }
}

fn trigger_case(threshold_pps: f64, attack_rate_pps: f64, seed: u64) -> (TriggerRow, Stats) {
    let topo = Topology::star(4);
    let mut sim = Simulator::new(topo, seed);
    let me = NodeId(1);
    let my_addr = Addr::new(me, 1);
    sim.install_app(my_addr, Box::new(dtcs::netsim::SinkApp));
    let owner = OwnerId(3);
    Inbox::attach(&mut sim, me);
    let (mut dev, _h) = AdaptiveDevice::new(NodeId(0), None);
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
    let inbox = sim.agent::<Inbox>(me).expect("inbox attached");
    let fired_at = inbox.heard().iter().find_map(|heard| match *heard {
        Heard::Event(DeviceEvent::TriggerFired { at, .. }) => Some(at),
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

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e10",
    title: "TCS applications: traceback accuracy, anomaly-reaction latency",
    anchor: "Sec. 4.4",
    cases,
    one,
    metrics: |row| match row {
        Row::Trace(r) => metrics_of(r, &["coverage", "windows_retained"]),
        Row::Trigger(r) => metrics_of(r, &["threshold_pps", "attack_rate_pps"]),
    },
    render,
};

fn render(report: &mut Report, _: &RunOpts, _: &[Case<Params>], outs: &[(Row, Stats)]) {
    let trace = outs.iter().filter_map(|(row, _)| match row {
        Row::Trace(r) => Some(r),
        Row::Trigger(_) => None,
    });
    report.table(Table::of(
        "digest-backlog traceback of spoofed packets",
        trace,
        &[
            ("coverage", &|r| format!("{:.2}", r.coverage)),
            ("windows", &|r| r.windows_retained.to_string()),
            ("queries", &|r| r.queries.to_string()),
            ("exact", &|r| r.exact_hits.to_string()),
            ("truncated", &|r| r.truncated.to_string()),
            ("missed", &|r| r.misses.to_string()),
            ("accuracy", &|r| f(r.accuracy)),
        ],
    ));
    let trigger = outs.iter().filter_map(|(row, _)| match row {
        Row::Trigger(r) => Some(r),
        Row::Trace(_) => None,
    });
    report.table(Table::of(
        "anomaly-reaction latency (5000 pps flood, 200 ms windows)",
        trigger,
        &[
            ("threshold_pps", &|r| f(r.threshold_pps)),
            ("attack_pps", &|r| f(r.attack_rate_pps)),
            ("reaction_ms", &|r| fopt(r.reaction_ms)),
            ("limiter_drops", &|r| r.limiter_drops.to_string()),
        ],
    ));
    report.note(
        "Full coverage traces every spoofed probe to its true origin AS; partial coverage \
         truncates traces at the instrumented frontier (still narrowing the search), and \
         short retention loses old packets — the qualitative SPIE trade-offs. Trigger \
         reaction completes within one observation window of attack onset.",
    );
}
