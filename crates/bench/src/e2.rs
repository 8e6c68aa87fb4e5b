//! E2 — Mitigation-scheme effectiveness under a DDoS reflector attack
//! (the paper's Sec. 3 analysis plus Sec. 4.3 defense, made quantitative).
//!
//! Every scheme faces the identical attack and workload; the table is the
//! paper's qualitative comparison as measured rows. Expected shape:
//! pushback and i3(known-ip) do not help (server resources die before
//! links; no network perimeter), traceback-driven filtering *hurts*
//! third parties, SOS protects members at trust cost, and the TCS restores
//! service with no collateral while stopping attack traffic near its
//! sources.

use std::collections::BTreeMap;

use dtcs::attack::SpoofMode;
use dtcs::mitigation::{BlockScope, Placement};
use dtcs::netsim::{SimTime, Stats};
use dtcs::{run_scenario, AttackKind, OutcomeRow, ScenarioConfig, Scheme, TcsStaticConfig};

use crate::sweep::{metrics_of, Case, Experiment, GridExperiment};
use crate::util::{f, fopt, Report, Table, With};
use crate::RunOpts;

/// The scenario config E2/E4/E9 share.
pub fn scenario(quick: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default();
    if quick {
        cfg.n_nodes = 120;
        cfg.attack.n_agents = 50;
        cfg.attack.n_reflectors = 80;
        cfg.attack.stop_at = SimTime::from_secs(18);
        cfg.duration = SimTime::from_secs(20);
        cfg.n_clients = 20;
        cfg.n_collateral_clients = 15;
    }
    cfg
}

/// A table of outcome rows under the columns E2, E4 and E15 share.
pub(crate) fn outcome_table<'a>(
    title: impl Into<String>,
    rows: impl IntoIterator<Item = &'a OutcomeRow>,
) -> Table {
    Table::of(
        title,
        rows,
        &[
            ("scheme", &|r| r.scheme.clone()),
            ("legit_ok", &|r| f(r.legit_success)),
            ("collateral_ok", &|r| f(r.collateral_success)),
            ("attack_deliv", &|r| f(r.attack_delivered_ratio)),
            ("refl@victim", &|r| {
                r.reflected_delivered_to_victim.to_string()
            }),
            ("overload", &|r| r.victim_overloaded.to_string()),
            ("atk_byte_hops", &|r| f(r.attack_byte_hops as f64)),
            ("stop_dist", &|r| fopt(r.stop_distance)),
        ],
    )
}

/// Flatten an outcome row into sweep metrics (scheme-specific extras keep
/// their names under an `extra.` prefix; the optional stop distance is
/// simply absent when nothing was dropped).
pub fn outcome_metrics(row: &OutcomeRow) -> BTreeMap<String, f64> {
    let except = ["reflected_delivered_to_victim", "victim_attack_absorbed"];
    let mut m = metrics_of(row, &except);
    m.insert(
        "reflected_at_victim".into(),
        row.reflected_delivered_to_victim as f64,
    );
    m.extend(row.extra.iter().map(|(k, v)| (format!("extra.{k}"), *v)));
    m
}

/// A scenario-harness grid point: the config and the scheme facing it.
pub type ScenarioParams = (ScenarioConfig, Scheme);

/// Run one scenario-harness grid point under `seed`.
pub fn scenario_one((cfg, scheme): &ScenarioParams, seed: u64) -> (OutcomeRow, Stats) {
    let cfg = ScenarioConfig {
        seed,
        ..cfg.clone()
    };
    let out = run_scenario(&cfg, scheme);
    (out.row, out.stats)
}

/// The direct-flood contrast scenario and its scheme set.
fn direct_contrast(cfg: &ScenarioConfig) -> (ScenarioConfig, Vec<Scheme>) {
    let mut dcfg = cfg.clone();
    dcfg.attack_kind = AttackKind::Direct {
        spoof: SpoofMode::Random,
    };
    dcfg.attack.agent_rate_pps *= 2.0;
    let reconstruct_at = SimTime(dcfg.attack.start_at.as_nanos() + 5_000_000_000);
    let schemes = vec![
        Scheme::None,
        Scheme::Ingress {
            fraction: 0.2,
            placement: Placement::TopDegree,
        },
        Scheme::TracebackFilter {
            marking_p: 0.04,
            reconstruct_at,
            scope: BlockScope::AllTraffic,
        },
        Scheme::Tcs(TcsStaticConfig {
            fraction: 0.3,
            placement: Placement::TopDegree,
            activate_at: reconstruct_at,
            // The owner tailors the stage-2 firewall to the attack in
            // progress: a UDP flood gets a UDP block.
            dst_block_protos: Some(vec![dtcs::netsim::Proto::Udp]),
            ..Default::default()
        }),
    ];
    (dcfg, schemes)
}

/// The grid: the full reflector comparison set (plus the hidden-IP i3
/// row, so both halves of the paper's i3 critique appear side by side),
/// then the direct-flood contrast.
pub(crate) fn cases(cfg: &ScenarioConfig) -> Vec<Case<ScenarioParams>> {
    let mut schemes = Scheme::comparison_set(cfg.attack.start_at);
    schemes.push(Scheme::I3 { ip_hidden: true });
    let (dcfg, direct_schemes) = direct_contrast(cfg);
    let mut cases = Vec::new();
    for (shape, shape_cfg, shape_schemes) in [
        ("reflector", cfg, schemes),
        ("direct", &dcfg, direct_schemes),
    ] {
        for scheme in shape_schemes {
            let label = format!("{shape}/scheme={}", scheme.label());
            cases.push(Case::new(
                label,
                shape_cfg.seed,
                (shape_cfg.clone(), scheme),
            ));
        }
    }
    cases
}

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e2",
    title: "Scheme comparison under a reflector attack",
    anchor: "Sec. 3 + Sec. 4.3",
    cases: |quick| cases(&scenario(quick)),
    one: scenario_one,
    metrics: outcome_metrics,
    render,
};

fn render(
    report: &mut Report,
    opts: &RunOpts,
    cases: &[Case<ScenarioParams>],
    outs: &[(OutcomeRow, Stats)],
) {
    // --trace: replay the undefended baseline with a flight recorder
    // attached and export the JSONL record. A separate run so the golden
    // comparison rows stay untouched, and print-only reporting so the
    // golden report JSON does too.
    if let Some(path) = &opts.trace {
        let cfg = ScenarioConfig {
            trace: true,
            ..scenario(opts.quick)
        };
        let out = run_scenario(&cfg, &Scheme::None);
        let rec = out.trace.expect("trace requested");
        let mut file = std::fs::File::create(path).expect("create trace file");
        rec.export_jsonl(&mut file).expect("write trace file");
        report.health(format!(
            "trace: wrote {} events ({} recorded, {} evicted) to {}",
            rec.len(),
            rec.recorded(),
            rec.evicted(),
            path.display()
        ));
    }
    report.note(
        "Direct-flood contrast: traceback correctly names the agent ASes and null-routing \
         them relieves the victim — the counterproductivity of E4 is specific to reflector \
         attacks, exactly the paper's Sec. 3 argument arc.",
    );
    let runs: Vec<_> = cases
        .iter()
        .zip(outs)
        .map(|(c, o)| (&c.params, &o.0))
        .collect();
    outcome_tables(report, "", &runs);
}

/// E2's three tables and its TCS-vs-none note over the runs of its
/// [`cases`], each table title prefixed with `caption` (E15 renders E2 at
/// 100k nodes with the same tables).
pub(crate) fn outcome_tables(
    report: &mut Report,
    caption: &str,
    runs: &[(&ScenarioParams, &OutcomeRow)],
) {
    let (reflector, direct): (Vec<_>, Vec<_>) = runs
        .iter()
        .map(|&(p, row)| (p.0.attack_kind == AttackKind::Reflector, row))
        .partition(|&(reflector, _)| reflector);
    let rows: Vec<&OutcomeRow> = reflector.into_iter().map(|(_, row)| row).collect();
    let title = format!("{caption}scheme outcomes (identical attack + workload)");
    report.table(outcome_table(title, rows.iter().copied()));

    // Extras table (scheme-specific costs/diagnostics).
    let extras: Vec<_> = rows
        .iter()
        .flat_map(|r| r.extra.iter().map(|kv| With(kv, &r.scheme)))
        .collect();
    report.table(Table::of(
        format!("{caption}scheme-specific diagnostics"),
        &extras,
        &[
            ("scheme", &|r| r.1.clone()),
            ("key", &|r| r.0 .0.clone()),
            ("value", &|r| f(*r.0 .1)),
        ],
    ));

    // Contrast table: the same core schemes against a classic randomly-
    // spoofed direct flood — where traceback names the TRUE agent ASes and
    // null-routing them genuinely helps (its residual collateral is the
    // Sec. 4.6 kind: innocents inside the zombies' own access networks).
    let title = format!("{caption}contrast: classic direct flood with random spoofing");
    report.table(outcome_table(title, direct.into_iter().map(|(_, row)| row)));

    let none = rows.iter().find(|r| r.scheme == "none").expect("none row");
    let tcs = rows
        .iter()
        .find(|r| r.scheme.starts_with("tcs"))
        .expect("tcs row");
    report.note(format!(
        "TCS vs no-defense: legit success {} -> {}, attack byte-hops cut {:.1}x, collateral intact.",
        f(none.legit_success),
        f(tcs.legit_success),
        none.attack_byte_hops as f64 / tcs.attack_byte_hops.max(1) as f64
    ));
}
