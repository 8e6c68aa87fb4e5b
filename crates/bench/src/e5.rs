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
use dtcs::{OutcomeRow, Scheme, TcsStaticConfig};

use crate::e2::{outcome_metrics, scenario, scenario_one, ScenarioParams};
use crate::sweep::{cells_of, run_cases, Case};
use crate::util::{f, fopt, Report, Table};

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
/// no-defense baseline last. Returns the coverage case count too.
fn cases(quick: bool) -> (Vec<Case<Params>>, usize) {
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
    (cases, PLACEMENTS.len() * fractions.len())
}

fn one(p: &Params, seed: u64) -> (OutcomeRow, dtcs::netsim::Stats) {
    scenario_one(&p.0, seed)
}

/// Sweep-grid adapter over [`cases`].
pub struct Sweep;

impl crate::sweep::GridExperiment for Sweep {
    fn cells(&self, opts: &crate::RunOpts) -> Vec<crate::sweep::SweepCell> {
        cells_of("e5", cases(opts.quick).0, one, outcome_metrics)
    }
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

/// Run E5.
pub fn run(opts: &crate::RunOpts) -> Report {
    let mut report = Report::new(
        "e5",
        "Stop distance & wasted bandwidth vs TCS coverage",
        "Secs. 4.3 / 6",
    );
    let (cases, n_coverage) = cases(opts.quick);
    let outs = run_cases("e5", &cases, opts.pool_threads(), one);
    let labelled: Vec<_> = cases.iter().map(|c| &c.params).zip(&outs).collect();
    let (coverage, rest) = labelled.split_at(n_coverage);
    let (stages, baseline) = rest.split_at(STAGES.len());
    report.health(crate::util::wheel_health(
        coverage.iter().map(|(_, o)| &o.1),
    ));
    report.health(crate::util::hist_health(coverage.iter().map(|(_, o)| &o.1)));
    let baseline = &baseline[0].1 .0;

    let mut t = Table::new(
        "TCS coverage sweep (proactive anti-spoofing + victim firewall)",
        &[
            "placement",
            "fraction",
            "legit_ok",
            "stop_dist",
            "atk_byte_hops",
            "vs_none",
            "attack_deliv",
        ],
    );
    for &(&(_, name, fraction), (out, _)) in coverage {
        let r = Row {
            placement: name.to_string(),
            fraction,
            legit_success: out.legit_success,
            stop_distance: out.stop_distance,
            attack_byte_hops: out.attack_byte_hops,
            attack_delivered_ratio: out.attack_delivered_ratio,
        };
        t.push(
            vec![
                r.placement.clone(),
                format!("{:.2}", r.fraction),
                f(r.legit_success),
                fopt(r.stop_distance),
                f(r.attack_byte_hops as f64),
                format!(
                    "{:.2}x",
                    baseline.attack_byte_hops as f64 / r.attack_byte_hops.max(1) as f64
                ),
                f(r.attack_delivered_ratio),
            ],
            &r,
        );
    }
    report.table(t);
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
    let mut t = Table::new(
        "two-stage ablation at 30% coverage",
        &["case", "legit_ok", "atk_byte_hops", "refl@victim"],
    );
    for &(&(_, name, _), (out, _)) in stages {
        let r = StageRow {
            case: name.to_string(),
            legit_success: out.legit_success,
            attack_byte_hops: out.attack_byte_hops,
            refl_at_victim: out.reflected_delivered_to_victim,
        };
        t.push(
            vec![
                r.case.clone(),
                f(r.legit_success),
                f(r.attack_byte_hops as f64),
                r.refl_at_victim.to_string(),
            ],
            &r,
        );
    }
    report.table(t);
    report.note(
        "Stage 1 (anti-spoofing at the sources) removes the attack from the network; \
         stage 2 (victim-side firewall) only shields the victim's host while the reflected \
         flood still crosses the backbone — the division of labour Fig. 6 implies.",
    );
    report
}

dtcs::netsim::json_record! {
    struct StageRow {
        case: String,
        legit_success: f64,
        attack_byte_hops: u64,
        refl_at_victim: u64,
    }
}
