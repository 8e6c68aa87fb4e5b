//! E15 — The defence at Internet scale: the hybrid fluid/packet engine
//! (Sec. 4.3's "within seconds and worldwide", Sec. 5.3's sizing).
//!
//! Three grids, the same with or without `--quick`:
//!
//! * **cross-check** — the E2 scenario on BA-400 with 200 background
//!   flows, under no defence and under ingress filtering at 30% of ASes
//!   (top-degree), each run once with background traffic as discrete CBR
//!   packets and once as fluid aggregates (50 ms tick). The two engines
//!   must agree on every victim metric and on the background volume
//!   within the tolerances below, or the run fails: that agreement is what
//!   licenses carrying background as aggregates at 100k nodes.
//! * **E2 at 100k nodes** — E2's scheme line-up on a transit-stub
//!   internet of at least 100,000 nodes with 5,000 fluid background flows.
//! * **E3 at 100k nodes** — E3's four strategies over five deployment
//!   fractions on the same internet, 1,200 spoofed probes each.

use dtcs::mitigation::Placement;
use dtcs::netsim::stats::ClassCounters;
use dtcs::netsim::{SimDuration, Stats, TrafficClass};
use dtcs::{OutcomeRow, Scheme, TopologyChoice};

use crate::e2::{outcome_metrics, scenario_one, ScenarioParams};
use crate::e3::{QUICK_FRACTIONS, STRATEGIES};
use crate::sweep::{Case, Experiment, GridExperiment};
use crate::util::{Report, Table};
use crate::RunOpts;

/// Absolute |Δ| tolerance on success-ratio metrics (legit, collateral,
/// attack-delivered): the two engines must agree on every headline
/// outcome to within five percentage points.
const TOL_RATIO: f64 = 0.05;

/// Relative tolerance on background volume *offered* (sent bytes). The
/// fluid layer integrates the same rate the CBR emitter quantizes, so
/// the offered volumes must track each other tightly.
const TOL_BG_SENT: f64 = 0.02;

/// Relative tolerance on background volume *delivered*. Looser than the
/// offered bound: admission under attack load is where the closed-form
/// proportional share and per-packet queueing legitimately diverge.
const TOL_BG_DELIVERED: f64 = 0.05;

/// Nodes of the Internet-scale transit-stub graph.
const INTERNET_NODES: usize = 100_000;

/// Admission tick of every fluid run.
const TICK: SimDuration = SimDuration::from_millis(50);

dtcs::netsim::json_record! {
    /// One metric of one scheme under both engines.
    struct Check {
        scheme: String,
        metric: String,
        off: f64,
        on: f64,
        delta: f64,
        limit: f64,
        ok: bool,
    }
}

/// The cross-check schemes.
fn check_schemes() -> [Scheme; 2] {
    [
        Scheme::None,
        Scheme::Ingress {
            fraction: 0.3,
            placement: Placement::TopDegree,
        },
    ]
}

/// One grid point: a scenario-harness run or an E3 probe run.
#[allow(clippy::large_enum_variant)] // a few dozen cases, built once
enum Params {
    Scenario(ScenarioParams),
    Probe(crate::e3::Params),
}

/// What a grid point measured.
enum Row {
    Outcome(OutcomeRow),
    Probe(crate::e3::Row),
}

/// The grid, the same with or without `--quick`: the cross-check pairs
/// (discrete, then fluid, per scheme), E2's line-up at 100k nodes, then
/// E3's strategies on the same internet.
fn cases(_quick: bool) -> Vec<Case<Params>> {
    let mut check = crate::e2::scenario(false);
    check.n_nodes = 400;
    check.background_flows = 200;
    let mut cases = Vec::new();
    for scheme in check_schemes() {
        for (engine, fluid) in [("discrete", None), ("fluid", Some(TICK))] {
            let cfg = dtcs::ScenarioConfig {
                fluid,
                ..check.clone()
            };
            let label = format!("cross-check/scheme={}/{engine}", scheme.label());
            let params = Params::Scenario((cfg, scheme.clone()));
            cases.push(Case::new(label, check.seed, params));
        }
    }

    let mut internet = crate::e2::scenario(true);
    internet.topology = TopologyChoice::TransitStub { n: INTERNET_NODES };
    internet.background_flows = 5_000;
    internet.fluid = Some(TICK);
    cases.extend(crate::e2::cases(&internet).into_iter().map(|c| {
        let label = format!("100k/{}", c.scenario);
        Case::new(label, c.base_seed, Params::Scenario(c.params))
    }));
    let probes = crate::e3::strategy_cases(
        crate::e3::TopoKind::TransitStub(INTERNET_NODES),
        &STRATEGIES,
        &QUICK_FRACTIONS,
        1_200,
    );
    cases.extend(
        probes
            .into_iter()
            .map(|c| Case::new(c.scenario, c.base_seed, Params::Probe(c.params))),
    );
    cases
}

fn one(params: &Params, seed: u64) -> (Row, Stats) {
    match params {
        Params::Scenario(p) => {
            let (row, stats) = scenario_one(p, seed);
            (Row::Outcome(row), stats)
        }
        Params::Probe(p) => {
            let (row, stats) = crate::e3::one(p, seed, None);
            (Row::Probe(row), stats)
        }
    }
}

/// The checks of one scheme's discrete and fluid runs.
fn checks(
    (off, off_stats): (&OutcomeRow, &Stats),
    (on, on_stats): (&OutcomeRow, &Stats),
) -> Vec<Check> {
    let check = |metric: &str, a: f64, b: f64, limit: f64, relative: bool| {
        let delta = if relative {
            (a - b).abs() / a.abs().max(1.0)
        } else {
            (a - b).abs()
        };
        Check {
            scheme: off.scheme.clone(),
            metric: metric.to_string(),
            off: a,
            on: b,
            delta,
            limit,
            ok: delta <= limit,
        }
    };
    let ratio =
        |metric, of: fn(&OutcomeRow) -> f64| check(metric, of(off), of(on), TOL_RATIO, false);
    let background = |metric, of: fn(&ClassCounters) -> u64, limit| {
        let class = |s: &Stats| of(s.class(TrafficClass::Background)) as f64;
        check(metric, class(off_stats), class(on_stats), limit, true)
    };
    vec![
        ratio("legit_success", |r| r.legit_success),
        ratio("collateral_success", |r| r.collateral_success),
        ratio("attack_delivered_ratio", |r| r.attack_delivered_ratio),
        background("background_sent_bytes", |c| c.sent_bytes, TOL_BG_SENT),
        background(
            "background_delivered_bytes",
            |c| c.delivered_bytes,
            TOL_BG_DELIVERED,
        ),
    ]
}

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e15",
    title: "The defence at Internet scale: hybrid fluid/packet engine",
    anchor: "Secs. 4.3 / 5.3",
    cases,
    one,
    metrics: |row| match row {
        Row::Outcome(r) => outcome_metrics(r),
        Row::Probe(r) => crate::e3::metrics(r),
    },
    render,
};

/// Panics if the engines disagree beyond a tolerance, or if a
/// cross-check run did not use the engine it claims to.
fn render(report: &mut Report, _: &RunOpts, cases: &[Case<Params>], outs: &[(Row, Stats)]) {
    let (mut check, mut internet, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    for (case, (row, stats)) in cases.iter().zip(outs) {
        match (&case.params, row) {
            (Params::Scenario(_), Row::Outcome(r)) if case.scenario.starts_with("cross-check/") => {
                check.push((r, stats))
            }
            (Params::Scenario(p), Row::Outcome(r)) => internet.push((p, r)),
            (Params::Probe(_), Row::Probe(r)) => probes.push(r),
            _ => unreachable!("a run's row is of its case's kind"),
        }
    }

    let mut rows = Vec::new();
    for pair in check.chunks(2) {
        let (off, on) = (pair[0], pair[1]);
        assert!(
            on.1.fluid_aggregates > 0 && off.1.fluid_aggregates == 0,
            "e15 {}: the fluid run made {} aggregates and the discrete run {}; the \
             cross-check is vacuous",
            off.0.scheme,
            on.1.fluid_aggregates,
            off.1.fluid_aggregates
        );
        for c in checks(off, on) {
            assert!(
                c.ok,
                "e15 {}: {} differs by {} between the engines, over its limit {}",
                c.scheme, c.metric, c.delta, c.limit
            );
            rows.push(c);
        }
    }
    let num = |v: f64| format!("{v:.4}");
    report.table(Table::of(
        "cross-check: BA-400, 200 background flows as discrete packets (off) or fluid \
         aggregates (on)",
        &rows,
        &[
            ("scheme", &|c| c.scheme.clone()),
            ("metric", &|c| c.metric.clone()),
            ("off", &|c| num(c.off)),
            ("on", &|c| num(c.on)),
            ("delta", &|c| num(c.delta)),
            ("limit", &|c| num(c.limit)),
            ("ok", &|_| "yes".to_string()),
        ],
    ));
    report.note(format!(
        "Fluid vs discrete background on BA-400: every victim ratio within ±{TOL_RATIO}, \
         background offered within {TOL_BG_SENT} and delivered within {TOL_BG_DELIVERED} \
         (relative) — the licence to carry background as aggregates at 100k nodes."
    ));

    crate::e2::outcome_tables(
        report,
        "100k-node transit-stub, fluid background: ",
        &internet,
    );
    report.table(crate::e3::survival_table(
        &format!("spoofed-probe survival, transit-stub internet (>= {INTERNET_NODES} nodes)"),
        probes.iter().copied(),
    ));
    crate::e3::headline_note(report, &probes);
}
