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

use dtcs::attack::SpoofMode;
use dtcs::mitigation::{BlockScope, Placement};
use dtcs::netsim::SimTime;
use dtcs::{run_scenario, AttackKind, OutcomeRow, ScenarioConfig, Scheme, TcsStaticConfig};

use crate::sweep::{cells_of, run_cases, Case};
use crate::util::{f, fopt, hist_health, wheel_health, Report, Table};

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

/// Render one outcome row with the shared header.
pub fn outcome_cells(row: &OutcomeRow) -> Vec<String> {
    vec![
        row.scheme.clone(),
        f(row.legit_success),
        f(row.collateral_success),
        f(row.attack_delivered_ratio),
        row.reflected_delivered_to_victim.to_string(),
        row.victim_overloaded.to_string(),
        f(row.attack_byte_hops as f64),
        fopt(row.stop_distance),
    ]
}

/// Header matching [`outcome_cells`].
pub fn outcome_header() -> Vec<&'static str> {
    vec![
        "scheme",
        "legit_ok",
        "collateral_ok",
        "attack_deliv",
        "refl@victim",
        "overload",
        "atk_byte_hops",
        "stop_dist",
    ]
}

/// Flatten an outcome row into sweep metrics (scheme-specific extras keep
/// their names under an `extra.` prefix; the optional stop distance is
/// simply absent when nothing was dropped).
pub fn outcome_metrics(row: &OutcomeRow) -> std::collections::BTreeMap<String, f64> {
    let mut m = std::collections::BTreeMap::new();
    m.insert("legit_success".to_string(), row.legit_success);
    m.insert("collateral_success".to_string(), row.collateral_success);
    m.insert(
        "attack_delivered_ratio".to_string(),
        row.attack_delivered_ratio,
    );
    m.insert(
        "reflected_at_victim".to_string(),
        row.reflected_delivered_to_victim as f64,
    );
    m.insert(
        "victim_overloaded".to_string(),
        row.victim_overloaded as f64,
    );
    m.insert("attack_byte_hops".to_string(), row.attack_byte_hops as f64);
    if let Some(d) = row.stop_distance {
        m.insert("stop_distance".to_string(), d);
    }
    for (k, v) in &row.extra {
        m.insert(format!("extra.{k}"), *v);
    }
    m
}

/// A scenario-harness grid point: the config and the scheme facing it.
pub type ScenarioParams = (ScenarioConfig, Scheme);

/// Run one scenario-harness grid point under `seed`.
pub fn scenario_one(
    (cfg, scheme): &ScenarioParams,
    seed: u64,
) -> (OutcomeRow, dtcs::netsim::Stats) {
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
/// then the direct-flood contrast. Returns the reflector case count too.
pub(crate) fn cases(cfg: &ScenarioConfig) -> (Vec<Case<ScenarioParams>>, usize) {
    let mut schemes = Scheme::comparison_set(cfg.attack.start_at);
    schemes.push(Scheme::I3 { ip_hidden: true });
    let n_reflector = schemes.len();
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
    (cases, n_reflector)
}

/// Sweep-grid adapter (DESIGN.md §6.6) over [`cases`].
pub struct Sweep;

impl crate::sweep::GridExperiment for Sweep {
    fn cells(&self, opts: &crate::RunOpts) -> Vec<crate::sweep::SweepCell> {
        let (cases, _) = cases(&scenario(opts.quick));
        cells_of("e2", cases, scenario_one, outcome_metrics)
    }
}

/// Run E2.
pub fn run(opts: &crate::RunOpts) -> Report {
    let mut report = Report::new(
        "e2",
        "Scheme comparison under a reflector attack",
        "Sec. 3 + Sec. 4.3",
    );
    let cfg = scenario(opts.quick);
    let (cases, n_reflector) = cases(&cfg);
    let outs = run_cases("e2", &cases, opts.pool_threads(), scenario_one);
    let (reflector, direct) = outs.split_at(n_reflector);
    report.health(wheel_health(reflector.iter().map(|o| &o.1)));
    report.health(hist_health(reflector.iter().map(|o| &o.1)));

    // --trace: replay the undefended baseline with a flight recorder
    // attached and export the JSONL record. A separate run so the golden
    // comparison rows above stay untouched, and print-only reporting so
    // the golden report JSON does too.
    if let Some(path) = &opts.trace {
        let mut tcfg = cfg.clone();
        tcfg.trace = true;
        let out = run_scenario(&tcfg, &Scheme::None);
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
    outcome_tables(&mut report, "", reflector, direct);
    report
}

/// E2's three tables and its TCS-vs-none note over its reflector and
/// direct-flood outcomes, each table title prefixed with `caption` (E15
/// renders E2 at 100k nodes with the same tables).
pub(crate) fn outcome_tables(
    report: &mut Report,
    caption: &str,
    reflector: &[(OutcomeRow, dtcs::netsim::Stats)],
    direct: &[(OutcomeRow, dtcs::netsim::Stats)],
) {
    let rows: Vec<&OutcomeRow> = reflector.iter().map(|o| &o.0).collect();
    let mut t = Table::new(
        &format!("{caption}scheme outcomes (identical attack + workload)"),
        &outcome_header(),
    );
    for r in &rows {
        t.push(outcome_cells(r), *r);
    }
    report.table(t);

    // Extras table (scheme-specific costs/diagnostics).
    let mut t = Table::new(
        &format!("{caption}scheme-specific diagnostics"),
        &["scheme", "key", "value"],
    );
    for r in &rows {
        for (k, v) in &r.extra {
            t.push(vec![r.scheme.clone(), k.clone(), f(*v)], &(k, v));
        }
    }
    report.table(t);

    // Contrast table: the same core schemes against a classic randomly-
    // spoofed direct flood — where traceback names the TRUE agent ASes and
    // null-routing them genuinely helps (its residual collateral is the
    // Sec. 4.6 kind: innocents inside the zombies' own access networks).
    let mut t = Table::new(
        &format!("{caption}contrast: classic direct flood with random spoofing"),
        &outcome_header(),
    );
    for (r, _) in direct {
        t.push(outcome_cells(r), r);
    }
    report.table(t);

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
