//! E5 — Stop distance and wasted bandwidth vs TCS coverage (Sec. 4.3 /
//! Sec. 6: "our system effectively stops attack traffic close to the
//! source … frees network resources that are nowadays wasted for
//! transporting attack traffic around the globe").
//!
//! Sweeps the fraction of ASes offering the TCS and two placement
//! policies; reports where spoofed attack packets die (hops from their
//! true origin) and how much bandwidth (byte·hops) the attack consumed.
//! Ablation of DESIGN.md §5: top-degree vs random placement.

use dtcs::mitigation::Placement;
use dtcs::netsim::Stats;
use dtcs::{OutcomeRow, Scheme, TcsStaticConfig};

use crate::e2::{outcome_metrics, scenario, scenario_one, ScenarioParams};
use crate::sweep::{Case, Experiment, GridExperiment};
use crate::util::{f, fopt, Report, Table};
use crate::RunOpts;

/// Placement policies under comparison.
const PLACEMENTS: [(Placement, &str); 2] = [
    (Placement::TopDegree, "top-degree"),
    (Placement::Random, "random"),
];

/// Two-stage ablation cases: (table label, scenario key, antispoof,
/// dst_firewall).
const STAGES: [(&str, &str, bool, bool); 3] = [
    ("antispoof-only (stage 1)", "antispoof-only", true, false),
    (
        "dst-firewall-only (stage 2)",
        "dst-firewall-only",
        false,
        true,
    ),
    ("both stages", "both", true, true),
];

/// A scenario grid point plus the table label its row carries
/// (placement name or stage name) and its coverage fraction.
type Params = (ScenarioParams, &'static str, f64);

/// The grid: coverage (placement × fraction, proactive), the three
/// two-stage ablation cases at 30% top-degree coverage, and the
/// no-defense baseline last.
fn cases(quick: bool) -> Vec<Case<Params>> {
    let cfg = scenario(quick);
    let fractions: &[f64] = if quick {
        &[0.05, 0.2, 0.5, 1.0]
    } else {
        &[0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0]
    };
    let mut cases = Vec::new();
    let mut push = |scenario: String, label, fraction, scheme| {
        let params = ((cfg.clone(), scheme), label, fraction);
        cases.push(Case::new(scenario, cfg.seed, params));
    };
    for (placement, name) in PLACEMENTS {
        for &fraction in fractions {
            let scheme = Scheme::Tcs(TcsStaticConfig {
                fraction,
                placement,
                ..Default::default()
            });
            push(
                format!("coverage/{name}/fraction={fraction:.2}"),
                name,
                fraction,
                scheme,
            );
        }
    }
    for (label, key, antispoof, dst_firewall) in STAGES {
        let scheme = Scheme::Tcs(TcsStaticConfig {
            fraction: 0.3,
            placement: Placement::TopDegree,
            antispoof,
            dst_firewall,
            ..Default::default()
        });
        push(format!("stage/{key}"), label, 0.3, scheme);
    }
    push("baseline/none".to_string(), "none", 0.0, Scheme::None);
    cases
}

dtcs::netsim::json_record! {
    struct Row {
        placement: String,
        fraction: f64,
        legit_success: f64,
        stop_distance: Option<f64>,
        attack_byte_hops: u64,
        attack_delivered_ratio: f64,
    }
}

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e5",
    title: "Stop distance & wasted bandwidth vs TCS coverage",
    anchor: "Secs. 4.3 / 6",
    cases,
    one: |p, seed| scenario_one(&p.0, seed),
    metrics: outcome_metrics,
    render,
};

fn render(report: &mut Report, _: &RunOpts, cases: &[Case<Params>], outs: &[(OutcomeRow, Stats)]) {
    let group = |prefix| {
        let runs = cases.iter().zip(outs);
        let runs = runs.filter(move |(c, _)| c.scenario.starts_with(prefix));
        runs.map(|(c, (out, _))| (c.params.1, c.params.2, out))
    };
    let baseline = &outs.last().expect("the baseline comes last").0;
    let coverage: Vec<Row> = group("coverage/")
        .map(|(name, fraction, out)| Row {
            placement: name.to_string(),
            fraction,
            legit_success: out.legit_success,
            stop_distance: out.stop_distance,
            attack_byte_hops: out.attack_byte_hops,
            attack_delivered_ratio: out.attack_delivered_ratio,
        })
        .collect();
    let vs_none = |r: &Row| baseline.attack_byte_hops as f64 / r.attack_byte_hops.max(1) as f64;
    report.table(Table::of(
        "TCS coverage sweep (proactive anti-spoofing + victim firewall)",
        &coverage,
        &[
            ("placement", &|r| r.placement.clone()),
            ("fraction", &|r| format!("{:.2}", r.fraction)),
            ("legit_ok", &|r| f(r.legit_success)),
            ("stop_dist", &|r| fopt(r.stop_distance)),
            ("atk_byte_hops", &|r| f(r.attack_byte_hops as f64)),
            ("vs_none", &|r| format!("{:.2}x", vs_none(r))),
            ("attack_deliv", &|r| f(r.attack_delivered_ratio)),
        ],
    ));
    report.note(format!(
        "no-defense baseline: attack byte-hops {}, legit success {}",
        f(baseline.attack_byte_hops as f64),
        f(baseline.legit_success)
    ));
    report.note(
        "Higher coverage pulls the stop distance toward 0 (the agent's own uplink) and \
         monotonically shrinks the bandwidth the attack consumes; top-degree placement \
         dominates random at equal cost (DESIGN.md §5 ablation).",
    );

    // Which processing stage does the work (DESIGN.md §5, two-stage
    // ablation): source-side anti-spoofing alone, destination-side
    // firewall alone, and both, at fixed 30% top-degree coverage.
    let stages: Vec<StageRow> = group("stage/")
        .map(|(name, _, out)| StageRow {
            case: name.to_string(),
            legit_success: out.legit_success,
            attack_byte_hops: out.attack_byte_hops,
            refl_at_victim: out.reflected_delivered_to_victim,
        })
        .collect();
    report.table(Table::of(
        "two-stage ablation at 30% coverage",
        &stages,
        &[
            ("case", &|r| r.case.clone()),
            ("legit_ok", &|r| f(r.legit_success)),
            ("atk_byte_hops", &|r| f(r.attack_byte_hops as f64)),
            ("refl@victim", &|r| r.refl_at_victim.to_string()),
        ],
    ));
    report.note(
        "Stage 1 (anti-spoofing at the sources) removes the attack from the network; \
         stage 2 (victim-side firewall) only shields the victim's host while the reflected \
         flood still crosses the backbone — the division of labour Fig. 6 implies.",
    );
}

dtcs::netsim::json_record! {
    struct StageRow {
        case: String,
        legit_success: f64,
        attack_byte_hops: u64,
        refl_at_victim: u64,
    }
}
