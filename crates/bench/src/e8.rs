//! E8 — Safety of delegation (Sec. 4.5).
//!
//! The acceptance argument of the paper is that delegated control *cannot*
//! be misused. Three layers are exercised: the deployment-time verifier
//! (misuse-class specs rejected with structured reasons), the
//! by-construction runtime restrictions (headers immutable, payloads
//! shrink-only), and the telemetry budget (event storms suppressed, no
//! amplifying-network effect from the control side).

use std::collections::BTreeMap;

use dtcs::device::{
    AdaptiveDevice, DeviceCommand, DeviceReply, MatchExpr, ModuleSpec, OwnerId, SafetyVerifier,
    ServiceSpec, Stage, TriggerAction, TriggerMetric,
};
use dtcs::netsim::{
    Addr, NodeId, PacketBuilder, Prefix, Proto, SimDuration, SimTime, Simulator, Stats, Topology,
    TrafficClass,
};

use crate::sweep::{Case, Experiment, GridExperiment};
use crate::util::{Report, Table, With};
use crate::RunOpts;

/// Base seed for the storm simulators (historically the literal `1`).
const SEED: u64 = 1;

/// Telemetry allowance grid: (ratio, floor KiB).
const ALLOWANCES: [(f64, u64); 4] = [(0.0, 0), (0.001, 16), (0.01, 64), (0.1, 64)];

dtcs::netsim::json_record! {
    struct CaseRow {
        case: String,
        expected: String,
        got: String,
        ok: bool,
    }
}

fn adversarial_corpus() -> Vec<(String, ModuleSpec, &'static str)> {
    vec![
        (
            "rewrite-src (transparent spoofing)".into(),
            ModuleSpec::RewriteHeader {
                new_src: Some(Addr::new(NodeId(9), 9)),
                new_dst: None,
            },
            "HeaderRewrite",
        ),
        (
            "rewrite-dst (rerouting)".into(),
            ModuleSpec::RewriteHeader {
                new_src: None,
                new_dst: Some(Addr::new(NodeId(9), 9)),
            },
            "HeaderRewrite",
        ),
        (
            "ttl-boost (resource-bound evasion)".into(),
            ModuleSpec::TtlModify { delta: 64 },
            "TtlModification",
        ),
        (
            "amplify x100 (amplifying network)".into(),
            ModuleSpec::Amplify { factor: 100 },
            "Amplification",
        ),
        (
            "redirect (attack forwarding)".into(),
            ModuleSpec::Redirect {
                to: Addr::new(NodeId(9), 9),
            },
            "Redirection",
        ),
        (
            "logger 1GB (state exhaustion)".into(),
            ModuleSpec::Logger {
                capacity: 64_000_000,
                sample_one_in: 1,
            },
            "ExcessiveState",
        ),
        (
            "trigger self-loop".into(),
            ModuleSpec::Trigger {
                expr: MatchExpr::any(),
                metric: TriggerMetric::PacketRate,
                threshold: 1.0,
                window: SimDuration::from_secs(1),
                action: TriggerAction::ActivateModule(0),
                tag: 0,
            },
            "SelfTrigger",
        ),
        (
            "rate-limit rate=0 (blackhole-by-parameter)".into(),
            ModuleSpec::RateLimit {
                expr: MatchExpr::any(),
                rate_bytes_per_sec: 0.0,
                burst_bytes: 0,
            },
            "InvalidParameter",
        ),
    ]
}

/// One grid point.
#[derive(Clone, Copy)]
enum Params {
    /// The adversarial corpus against the verifier and a device (pure).
    Verifier,
    /// An event storm of this many bursts against a telemetry allowance
    /// of `(ratio, floor KiB)`.
    Storm(u64, f64, u64),
}

enum Row {
    /// Verifier verdicts, then the device-level (rejected installs,
    /// rules left in the table).
    Verifier(Vec<CaseRow>, usize, usize),
    /// (events emitted, events suppressed, telemetry bytes, data bytes).
    Storm(u64, u64, u64, u64),
}

/// The grid: the verifier corpus, the 10k-burst headline storm under the
/// default allowance (1% + 64 KiB, footnote 1), then the 5k-burst storm
/// under each allowance of the sweep.
fn cases() -> Vec<Case<Params>> {
    let mut cases = vec![
        Case::new("verifier", SEED, Params::Verifier),
        Case::new("storm/headline", SEED, Params::Storm(10_000, 0.01, 64)),
    ];
    cases.extend(ALLOWANCES.iter().map(|&(ratio, floor_kib)| {
        let label = format!("storm/ratio={ratio}/floor={floor_kib}");
        Case::new(label, SEED, Params::Storm(5_000, ratio, floor_kib))
    }));
    cases
}

fn one(params: &Params, seed: u64) -> (Row, Stats) {
    match *params {
        Params::Verifier => (verify_corpus(), Default::default()),
        Params::Storm(bursts, ratio, floor_kib) => storm(bursts, ratio, floor_kib * 1024, seed),
    }
}

/// The acceptance argument end to end: every adversarial spec is
/// rejected by the deployment-time verifier with the expected reason,
/// and the same rejection holds through a device's install path.
fn verify_corpus() -> Row {
    let verifier = SafetyVerifier::default();
    let (mut dev, handle) = AdaptiveDevice::new(NodeId(0), None);
    let mut rows = Vec::new();
    let mut rejected = 0;
    for (case, spec, expected) in adversarial_corpus() {
        let svc = ServiceSpec::chain("adversarial", vec![spec]);
        let got = match verifier.verify(&svc) {
            Ok(()) => "Accepted".to_string(),
            Err(v) => format!("{v:?}")
                .split(['{', ' '])
                .next()
                .unwrap_or("rejected")
                .to_string(),
        };
        let reply = dev.apply(DeviceCommand::InstallService {
            txn: 0,
            lease_until: SimTime::MAX,
            owner: OwnerId(1),
            stage: Stage::Dst,
            spec: svc,
        });
        if matches!(reply, Some(DeviceReply::InstallRejected { .. })) {
            rejected += 1;
        }
        rows.push(CaseRow {
            case,
            expected: expected.to_string(),
            ok: got.starts_with(expected),
            got,
        });
    }
    let rules_left = handle.lock().rule_count;
    Row::Verifier(rows, rejected, rules_left)
}

/// Runtime guard: an owner flooding telemetry cannot amplify. A
/// hair-trigger that fires/relieves constantly meets bursty traffic:
/// every 50 ms burst trips the 10 ms trigger and then relieves it, two
/// telemetry events per burst against the `(ratio, floor)` budget.
fn storm(bursts: u64, ratio: f64, floor: u64, seed: u64) -> (Row, Stats) {
    let topo = Topology::line(3);
    let mut sim = Simulator::new(topo, seed);
    let owner = OwnerId(5);
    let (mut dev, handle) = AdaptiveDevice::new(NodeId(1), None);
    dev.set_telemetry_budget(ratio, floor);
    dev.apply(DeviceCommand::RegisterOwner {
        owner,
        prefixes: vec![Prefix::of_node(NodeId(2))],
        contact: NodeId(2),
    });
    dev.apply(DeviceCommand::InstallService {
        txn: 0,
        lease_until: SimTime::MAX,
        owner,
        stage: Stage::Dst,
        spec: ServiceSpec::chain(
            "storm",
            vec![ModuleSpec::Trigger {
                expr: MatchExpr::any(),
                metric: TriggerMetric::PacketRate,
                threshold: 0.5,
                window: SimDuration::from_millis(10),
                action: TriggerAction::Notify,
                tag: 1,
            }],
        ),
    });
    sim.add_agent(NodeId(1), Box::new(dev));
    let dst = Addr::new(NodeId(2), 1);
    sim.install_app(dst, Box::new(dtcs::netsim::SinkApp));
    for burst in 0..bursts {
        for j in 0..2u64 {
            let at = SimTime(burst * 50_000_000 + j * 1_000_000);
            let k = burst * 2 + j;
            sim.schedule(at, move |s| {
                s.emit_now(
                    NodeId(0),
                    PacketBuilder::new(
                        Addr::new(NodeId(0), 1),
                        dst,
                        Proto::Udp,
                        TrafficClass::Background,
                    )
                    .size(100)
                    .flow(k),
                );
            });
        }
    }
    sim.run_until(SimTime::from_millis(bursts * 52));
    let s = handle.lock();
    let row = Row::Storm(
        s.telemetry_events,
        s.suppressed_events,
        s.telemetry_bytes,
        s.redirected_bytes,
    );
    drop(s);
    (row, sim.stats)
}

fn metrics(row: &Row) -> BTreeMap<String, f64> {
    let pairs: Vec<(&str, f64)> = match *row {
        Row::Verifier(ref rows, ..) => vec![
            ("cases", rows.len() as f64),
            (
                "rejected_as_expected",
                rows.iter().filter(|r| r.ok).count() as f64,
            ),
        ],
        Row::Storm(emitted, suppressed, tbytes, dbytes) => vec![
            ("events_emitted", emitted as f64),
            ("events_suppressed", suppressed as f64),
            ("telemetry_bytes", tbytes as f64),
            ("data_bytes", dbytes as f64),
            ("telemetry_ratio", tbytes as f64 / dbytes.max(1) as f64),
        ],
    };
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e8",
    title: "Safety of delegated control",
    anchor: "Sec. 4.5",
    cases: |_| cases(),
    one,
    metrics,
    render,
};

fn render(report: &mut Report, _: &RunOpts, _: &[Case<Params>], outs: &[(Row, Stats)]) {
    let mut rows = outs.iter().map(|o| &o.0);

    // 1. Verifier corpus, and the same rejection end-to-end through a
    // device.
    let Some(Row::Verifier(verdicts, rejected, rules_left)) = rows.next() else {
        unreachable!("the verifier case comes first")
    };
    report.table(Table::of(
        "adversarial service specs vs the verifier",
        verdicts,
        &[
            ("case", &|r| r.case.clone()),
            ("expected", &|r| r.expected.clone()),
            ("got", &|r| r.got.clone()),
            ("ok", &|r| r.ok.to_string()),
        ],
    ));
    report.note(format!(
        "device-level installs: {rejected}/{} adversarial specs rejected, rule table still \
         holds {rules_left} rules (nothing leaked through).",
        verdicts.len(),
    ));

    // 2. The headline storm: 10k bursts try to emit ~20k events against a
    // ~1k-event budget.
    let Some(&Row::Storm(emitted, suppressed, telemetry_bytes, processed_bytes)) = rows.next()
    else {
        unreachable!("the headline storm comes second")
    };
    let budget = (processed_bytes as f64 * 0.01) as u64 + 64 * 1024;
    let storm = [
        ("data bytes processed", processed_bytes),
        ("telemetry bytes emitted", telemetry_bytes),
        ("telemetry budget", budget),
        ("events suppressed", suppressed),
        ("events emitted", emitted),
    ];
    report.table(Table::of(
        "telemetry budget under an event storm (footnote 1 allowance)",
        &storm,
        &[
            ("metric", &|r| r.0.to_string()),
            ("value", &|r| r.1.to_string()),
        ],
    ));
    report.note(format!(
        "telemetry stayed at {:.2}% of processed traffic (allowance 1% + 64 KiB floor); \
         the filter rules of Sec. 4.5 held by construction: headers immutable, packets \
         shrink-only, no device-originated data-plane packets.",
        100.0 * telemetry_bytes as f64 / processed_bytes.max(1) as f64
    ));

    // 3. Allowance sweep (DESIGN.md §5): the telemetry/data ratio bounds
    // the worst-case control-side amplification a hostile owner can
    // extract, linearly and predictably.
    let sweep: Vec<_> = ALLOWANCES
        .into_iter()
        .zip(rows)
        .map(|((ratio, floor_kib), row)| {
            let &Row::Storm(emitted, suppressed, tbytes, dbytes) = row else {
                unreachable!("allowance storms come last")
            };
            let share = tbytes as f64 / dbytes.max(1) as f64;
            With((ratio, floor_kib, emitted, suppressed), share)
        })
        .collect();
    report.table(Table::of(
        "telemetry allowance sweep under the same event storm",
        &sweep,
        &[
            ("ratio", &|r| format!("{}", r.0 .0)),
            ("floor_kib", &|r| r.0 .1.to_string()),
            ("events_emitted", &|r| r.0 .2.to_string()),
            ("events_suppressed", &|r| r.0 .3.to_string()),
            ("telemetry/data", &|r| format!("{:.4}", r.1)),
        ],
    ));
    report.note(
        "Control-side amplification is capped by the configured allowance: even a \
         hair-trigger storm emits at most ratio x data-bytes (+floor) of telemetry.",
    );
}
