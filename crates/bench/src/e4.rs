//! E4 — Collateral damage per scheme (Secs. 1 and 3: prior systems "may
//! completely cut off legitimate servers or complete networks under a DDoS
//! reflector attack, thus amplifying the effects of the attack").
//!
//! Focused on the reactive filtering schemes and their intensity: the
//! metric is the success of *third-party* clients using reflector-hosted
//! services, alongside the victim's own service.

use dtcs::mitigation::{BlockScope, Placement, PushbackConfig};
use dtcs::netsim::{Prefix, SimTime, Stats};
use dtcs::{
    run_scenario, topology_and_victim, OutcomeRow, ScenarioConfig, Scheme, TcsStaticConfig,
};

use crate::e2::{outcome_metrics, outcome_table, scenario};
use crate::sweep::{Case, Experiment, GridExperiment};
use crate::util::{f, Report};
use crate::RunOpts;

/// The scheme line-up under comparison. Seed-dependent via the
/// victim-scoped traceback filter (the victim is the one `run_scenario`
/// picks for this config), hence a function of the config.
fn schemes(cfg: &dtcs::ScenarioConfig) -> Vec<Scheme> {
    let reconstruct_at = SimTime(cfg.attack.start_at.as_nanos() + 5_000_000_000);
    let (_, victim_node) = topology_and_victim(cfg);
    vec![
        Scheme::None,
        Scheme::TracebackFilter {
            marking_p: 0.04,
            reconstruct_at,
            scope: BlockScope::AllTraffic,
        },
        Scheme::TracebackFilter {
            marking_p: 0.04,
            reconstruct_at,
            scope: BlockScope::TowardVictim(Prefix::of_node(victim_node)),
        },
        Scheme::Pushback(PushbackConfig::default()),
        Scheme::Tcs(TcsStaticConfig {
            fraction: 0.3,
            placement: Placement::TopDegree,
            activate_at: reconstruct_at,
            ..Default::default()
        }),
    ]
}

/// The grid: one case per position in the [`schemes`] line-up.
fn cases(quick: bool) -> Vec<Case<(ScenarioConfig, usize)>> {
    let cfg = scenario(quick);
    let labelled = schemes(&cfg).into_iter().enumerate();
    labelled
        .map(|(i, scheme)| {
            let label = format!("scheme={}", scheme.label());
            Case::new(label, cfg.seed, (cfg.clone(), i))
        })
        .collect()
}

/// Run line-up position `i` under `seed`, re-deriving the seed-dependent
/// victim prefix.
fn one((cfg, i): &(ScenarioConfig, usize), seed: u64) -> (OutcomeRow, Stats) {
    let cfg = ScenarioConfig {
        seed,
        ..cfg.clone()
    };
    let out = run_scenario(&cfg, &schemes(&cfg)[*i]);
    (out.row, out.stats)
}

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e4",
    title: "Collateral damage of reactive filtering",
    anchor: "Secs. 1 / 3.1 / 3.4",
    cases,
    one,
    metrics: outcome_metrics,
    render,
};

fn render(
    report: &mut Report,
    _: &RunOpts,
    _: &[Case<(ScenarioConfig, usize)>],
    outs: &[(OutcomeRow, Stats)],
) {
    let rows: Vec<&OutcomeRow> = outs.iter().map(|o| &o.0).collect();
    report.table(outcome_table(
        "victim service vs third-party collateral",
        rows.iter().copied(),
    ));
    let null_route = rows
        .iter()
        .find(|r| r.scheme == "traceback+null-route")
        .expect("row");
    let tcs = rows
        .iter()
        .find(|r| r.scheme.starts_with("tcs"))
        .expect("row");
    report.note(format!(
        "Null-routing the traceback verdict (the reflectors) costs third parties {:.0}% of \
         their service while barely helping the victim; the TCS keeps collateral at {:.1}%.",
        (1.0 - null_route.collateral_success) * 100.0,
        (1.0 - tcs.collateral_success) * 100.0
    ));
    report.note(format!(
        "Sources identified by traceback: {} (all innocent reflector ASes — the 'wrong attack \
         source' of Sec. 3.1).",
        f(*null_route.extra.get("identified_sources").unwrap_or(&0.0))
    ));
}
