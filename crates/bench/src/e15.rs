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
use dtcs::netsim::{SimDuration, Stats, TrafficClass};
use dtcs::{OutcomeRow, Scheme, TopologyChoice};

use crate::e2::{outcome_metrics, scenario_one, ScenarioParams};
use crate::e3::{QUICK_FRACTIONS, STRATEGIES};
use crate::sweep::{cells_of, run_cases, Case};
use crate::util::{hist_health, wheel_health, Report, Table};

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

/// The scenario-harness cases: the cross-check pairs (discrete, then
/// fluid, per scheme), then E2's line-up at 100k nodes. Returns the
/// cross-check case count and E2's reflector case count too.
fn scenario_cases() -> (Vec<Case<ScenarioParams>>, usize, usize) {
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
            cases.push(Case::new(label, cfg.seed, (cfg, scheme.clone())));
        }
    }
    let n_check = cases.len();

    let mut internet = crate::e2::scenario(true);
    internet.topology = TopologyChoice::TransitStub { n: INTERNET_NODES };
    internet.background_flows = 5_000;
    internet.fluid = Some(TICK);
    let (e2_cases, n_reflector) = crate::e2::cases(&internet);
    cases.extend(
        e2_cases
            .into_iter()
            .map(|c| Case::new(format!("100k/{}", c.scenario), c.base_seed, c.params)),
    );
    (cases, n_check, n_reflector)
}

/// E3's strategies on the 100k-node internet.
fn probe_cases() -> Vec<Case<crate::e3::Params>> {
    crate::e3::strategy_cases(
        crate::e3::TopoKind::TransitStub(INTERNET_NODES),
        &STRATEGIES,
        &QUICK_FRACTIONS,
        1_200,
    )
}

fn probe_one(p: &crate::e3::Params, seed: u64) -> (crate::e3::Row, Stats) {
    crate::e3::one(p, seed, None)
}

/// The checks of one scheme's discrete and fluid runs.
fn checks(
    (off, off_stats): &(OutcomeRow, Stats),
    (on, on_stats): &(OutcomeRow, Stats),
) -> Vec<Check> {
    let (bg_off, bg_on) = (
        off_stats.class(TrafficClass::Background),
        on_stats.class(TrafficClass::Background),
    );
    [
        (
            "legit_success",
            off.legit_success,
            on.legit_success,
            TOL_RATIO,
            false,
        ),
        (
            "collateral_success",
            off.collateral_success,
            on.collateral_success,
            TOL_RATIO,
            false,
        ),
        (
            "attack_delivered_ratio",
            off.attack_delivered_ratio,
            on.attack_delivered_ratio,
            TOL_RATIO,
            false,
        ),
        (
            "background_sent_bytes",
            bg_off.sent_bytes as f64,
            bg_on.sent_bytes as f64,
            TOL_BG_SENT,
            true,
        ),
        (
            "background_delivered_bytes",
            bg_off.delivered_bytes as f64,
            bg_on.delivered_bytes as f64,
            TOL_BG_DELIVERED,
            true,
        ),
    ]
    .into_iter()
    .map(|(metric, a, b, limit, relative)| {
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
    })
    .collect()
}

/// Sweep-grid adapter over all three grids.
pub struct Sweep;

impl crate::sweep::GridExperiment for Sweep {
    fn cells(&self, _opts: &crate::RunOpts) -> Vec<crate::sweep::SweepCell> {
        let (cases, ..) = scenario_cases();
        let mut cells = cells_of("e15", cases, scenario_one, outcome_metrics);
        cells.extend(cells_of(
            "e15",
            probe_cases(),
            probe_one,
            crate::e3::metrics,
        ));
        cells
    }
}

/// Run E15. Panics if the engines disagree beyond a tolerance, or if a
/// cross-check run did not use the engine it claims to.
pub fn run(opts: &crate::RunOpts) -> Report {
    let mut report = Report::new(
        "e15",
        "The defence at Internet scale: hybrid fluid/packet engine",
        "Secs. 4.3 / 5.3",
    );
    let (cases, n_check, n_reflector) = scenario_cases();
    let outs = run_cases("e15", &cases, opts.pool_threads(), scenario_one);
    let probes = run_cases("e15", &probe_cases(), opts.pool_threads(), probe_one);
    let (check, internet) = outs.split_at(n_check);
    let (reflector, direct) = internet.split_at(n_reflector);
    let at_scale = || {
        internet
            .iter()
            .map(|o| &o.1)
            .chain(probes.iter().map(|o| &o.1))
    };
    report.health(wheel_health(at_scale()));
    report.health(hist_health(at_scale()));

    let mut t = Table::new(
        "cross-check: BA-400, 200 background flows as discrete packets (off) or fluid \
         aggregates (on)",
        &["scheme", "metric", "off", "on", "delta", "limit", "ok"],
    );
    for pair in check.chunks(2) {
        let (off, on) = (&pair[0], &pair[1]);
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
            let num = |v: f64| format!("{v:.4}");
            let cells = vec![
                c.scheme.clone(),
                c.metric.clone(),
                num(c.off),
                num(c.on),
                num(c.delta),
                num(c.limit),
                "yes".to_string(),
            ];
            t.push(cells, &c);
        }
    }
    report.table(t);
    report.note(format!(
        "Fluid vs discrete background on BA-400: every victim ratio within ±{TOL_RATIO}, \
         background offered within {TOL_BG_SENT} and delivered within {TOL_BG_DELIVERED} \
         (relative) — the licence to carry background as aggregates at 100k nodes."
    ));

    crate::e2::outcome_tables(
        &mut report,
        "100k-node transit-stub, fluid background: ",
        reflector,
        direct,
    );
    report.table(crate::e3::survival_table(
        &format!("spoofed-probe survival, transit-stub internet (>= {INTERNET_NODES} nodes)"),
        &probes,
    ));
    crate::e3::headline_note(&mut report, &probes);
    report
}
