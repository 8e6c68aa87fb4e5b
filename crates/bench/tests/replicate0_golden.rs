//! Replicate-0 ↔ golden equivalence for the sweep ports.
//!
//! `replicate_seed(base, 0) == base`, so a 1-replicate sweep runs every
//! cell at exactly the seed the single-run experiment hardcodes. These
//! tests run both paths in `--quick` mode and assert the sweep's
//! replicate-0 samples are bit-identical (`f64::to_bits`) to the numbers
//! serialized into the single-run `<id>.json` raw rows — the proof that
//! threading the seed parameter through each experiment body was
//! behavior-preserving.
//!
//! Each test is `#[ignore]`d because it runs its experiment twice
//! (single-run + sweep); CI runs them in release with `-- --ignored`.

use dtcs::netsim::json::Json as Value;
use dtcs_bench::sweep::{run_sweep, SweepCellReport};
use dtcs_bench::util::Report;
use dtcs_bench::{run_experiment, sweep_experiment, RunOpts};

fn quick() -> RunOpts {
    RunOpts {
        quick: true,
        ..Default::default()
    }
}

/// Single-run golden report for `id` (quick mode).
fn golden(id: &str) -> Report {
    run_experiment(id, &quick()).expect("known experiment id")
}

/// One-replicate sweep (= replicate 0 only) for `id`, on 2 threads to
/// exercise the shared pool too.
fn sweep_cells(id: &str) -> Vec<SweepCellReport> {
    let e = sweep_experiment(id).expect("sweep-capable experiment id");
    let opts = RunOpts {
        threads: Some(2),
        ..quick()
    };
    let mut outcome = run_sweep(&[e], &opts, 1);
    assert_eq!(outcome.reports.len(), 1);
    outcome.reports.remove(0).cells
}

/// Find the cell with the given scenario label.
fn cell<'a>(cells: &'a [SweepCellReport], scenario: &str) -> &'a SweepCellReport {
    cells
        .iter()
        .find(|c| c.scenario == scenario)
        .unwrap_or_else(|| {
            panic!(
                "no cell with scenario {scenario:?} (have: {:?})",
                cells.iter().map(|c| &c.scenario).collect::<Vec<_>>()
            )
        })
}

/// Replicate-0 sample of a metric: with one replicate, mean == min ==
/// max == the sample itself.
fn sample(c: &SweepCellReport, key: &str) -> f64 {
    let s = c
        .metrics
        .get(key)
        .unwrap_or_else(|| panic!("cell {:?} lacks metric {key:?}", c.scenario));
    assert_eq!(s.n, 1, "one replicate expected for {:?}/{key}", c.scenario);
    assert_eq!(s.mean.to_bits(), s.min.to_bits());
    assert_eq!(s.mean.to_bits(), s.max.to_bits());
    s.mean
}

/// Numeric field of a serialized raw row.
fn field(row: &Value, key: &str) -> f64 {
    row.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("row lacks numeric field {key:?}: {row}"))
}

/// Bit-exact comparison with context on failure.
fn assert_bits(sweep_v: f64, golden_v: f64, ctx: &str) {
    assert_eq!(
        sweep_v.to_bits(),
        golden_v.to_bits(),
        "{ctx}: sweep replicate-0 {sweep_v} != golden {golden_v}"
    );
}

/// Compare a set of identically named metric/row fields.
fn assert_fields(c: &SweepCellReport, row: &Value, keys: &[&str]) {
    for key in keys {
        assert_bits(
            sample(c, key),
            field(row, key),
            &format!("{}/{key}", c.scenario),
        );
    }
}

#[test]
#[ignore = "runs the experiment twice; CI runs with --ignored in release"]
fn e1_replicate0_matches_single_run() {
    let cells = sweep_cells("e1");
    let rep = golden("e1");
    let keys = [
        "control_pkts",
        "attack_pkts",
        "rate_amp",
        "byte_amp",
        "victim_inbound_pps",
    ];
    for row in &rep.tables[0].raw {
        let proto = row["proto"].as_str().expect("proto");
        assert_fields(cell(&cells, &format!("proto={proto}")), row, &keys);
    }
    for row in &rep.tables[1].raw {
        let agents = row["agents"].as_u64().expect("agents");
        assert_fields(cell(&cells, &format!("agents={agents}")), row, &keys);
    }
}

/// Shared check for experiments whose cells report `outcome_metrics`
/// over an `OutcomeRow` raw row.
fn assert_outcome(c: &SweepCellReport, row: &Value) {
    assert_fields(
        c,
        row,
        &[
            "legit_success",
            "collateral_success",
            "attack_delivered_ratio",
            "attack_byte_hops",
            "victim_overloaded",
        ],
    );
    assert_bits(
        sample(c, "reflected_at_victim"),
        field(row, "reflected_delivered_to_victim"),
        &format!("{}/reflected_at_victim", c.scenario),
    );
    match row.get("stop_distance") {
        Some(Value::Null) | None => assert!(
            !c.metrics.contains_key("stop_distance"),
            "{}: metric present but golden stop_distance is null",
            c.scenario
        ),
        Some(v) => assert_bits(
            sample(c, "stop_distance"),
            v.as_f64().expect("stop_distance"),
            &format!("{}/stop_distance", c.scenario),
        ),
    }
}

#[test]
#[ignore = "runs the experiment twice; CI runs with --ignored in release"]
fn e4_replicate0_matches_single_run() {
    let cells = sweep_cells("e4");
    let rep = golden("e4");
    for row in &rep.tables[0].raw {
        let scheme = row["scheme"].as_str().expect("scheme");
        assert_outcome(cell(&cells, &format!("scheme={scheme}")), row);
    }
}

#[test]
#[ignore = "runs the experiment twice; CI runs with --ignored in release"]
fn e5_replicate0_matches_single_run() {
    let cells = sweep_cells("e5");
    let rep = golden("e5");
    // Coverage grid: Row carries a subset of the outcome metrics.
    for row in &rep.tables[0].raw {
        let placement = row["placement"].as_str().expect("placement");
        let fraction = field(row, "fraction");
        let c = cell(
            &cells,
            &format!("coverage/{placement}/fraction={fraction:.2}"),
        );
        assert_fields(
            c,
            row,
            &[
                "legit_success",
                "attack_byte_hops",
                "attack_delivered_ratio",
            ],
        );
    }
    // Stage ablation.
    let stage_keys = [
        ("antispoof-only (stage 1)", "antispoof-only"),
        ("dst-firewall-only (stage 2)", "dst-firewall-only"),
        ("both stages", "both"),
    ];
    for row in &rep.tables[1].raw {
        let case = row["case"].as_str().expect("case");
        let key = stage_keys
            .iter()
            .find(|(label, _)| *label == case)
            .map(|(_, k)| *k)
            .expect("known stage case");
        let c = cell(&cells, &format!("stage/{key}"));
        assert_fields(c, row, &["legit_success", "attack_byte_hops"]);
        assert_bits(
            sample(c, "reflected_at_victim"),
            field(row, "refl_at_victim"),
            &format!("{}/reflected_at_victim", c.scenario),
        );
    }
    // The baseline cell has no raw-row counterpart (notes only); it must
    // still exist and carry the outcome metrics.
    sample(cell(&cells, "baseline/none"), "legit_success");
}

#[test]
#[ignore = "runs the experiment twice; CI runs with --ignored in release"]
fn e6_replicate0_matches_single_run() {
    let cells = sweep_cells("e6");
    let rep = golden("e6");
    for row in &rep.tables[0].raw {
        let subs = row["subscribers"].as_u64().expect("subscribers");
        let c = cell(&cells, &format!("rules/subscribers={subs}"));
        assert_fields(c, row, &["total_rules"]);
    }
    for row in &rep.tables[1].raw {
        let owners = row["owners"].as_u64().expect("owners");
        // Wall-clock columns are deliberately absent from the sweep; only
        // the deterministic packet count is comparable.
        let c = cell(&cells, &format!("throughput/owners={owners}"));
        assert_fields(c, row, &["pkts"]);
        assert!(!c.metrics.contains_key("wall_ms"));
        assert!(!c.metrics.contains_key("pkts_per_sec"));
    }
    // LPM cells have no timing-free golden counterpart; they must exist
    // with a deterministic hit count.
    for n in [100u64, 10_000] {
        sample(cell(&cells, &format!("lpm/entries={n}")), "hits");
    }
}

#[test]
#[ignore = "runs the experiment twice; CI runs with --ignored in release"]
fn e7_replicate0_matches_single_run() {
    let cells = sweep_cells("e7");
    let rep = golden("e7");
    for (table, path) in [(0usize, "tcsp"), (1, "fallback")] {
        for row in &rep.tables[table].raw {
            let isps = row["isps"].as_u64().expect("isps");
            let c = cell(&cells, &format!("isps={isps}/path={path}"));
            assert_fields(c, row, &["devices"]);
            for key in ["registration_ms", "deployment_ms"] {
                // NaN serializes to null in the golden row and is skipped
                // by the sweep adapter; compare only when finite.
                match row.get(key) {
                    Some(Value::Null) | None => {
                        assert!(!c.metrics.contains_key(key))
                    }
                    Some(v) => assert_bits(
                        sample(c, key),
                        v.as_f64().expect("latency"),
                        &format!("{}/{key}", c.scenario),
                    ),
                }
            }
            assert_bits(
                sample(c, "fallback_used"),
                row["fallback_used"].as_bool().expect("fallback_used") as u64 as f64,
                &format!("{}/fallback_used", c.scenario),
            );
        }
    }
}

#[test]
#[ignore = "runs the experiment twice; CI runs with --ignored in release"]
fn e8_replicate0_matches_single_run() {
    let cells = sweep_cells("e8");
    let rep = golden("e8");
    // Verifier corpus: the cell's counter equals the table's ok-count.
    let verifier_rows = &rep.tables[0].raw;
    let ok = verifier_rows
        .iter()
        .filter(|r| r["ok"].as_bool() == Some(true))
        .count();
    let c = cell(&cells, "verifier");
    assert_bits(sample(c, "cases"), verifier_rows.len() as f64, "e8 cases");
    assert_bits(
        sample(c, "rejected_as_expected"),
        ok as f64,
        "e8 rejected_as_expected",
    );
    // Allowance sweep: raw rows are (ratio, floor_kib, emitted,
    // suppressed) tuples.
    for row in &rep.tables[2].raw {
        let ratio = row[0].as_f64().expect("ratio");
        let floor = row[1].as_u64().expect("floor_kib");
        let c = cell(&cells, &format!("storm/ratio={ratio}/floor={floor}"));
        assert_bits(
            sample(c, "events_emitted"),
            row[2].as_u64().expect("emitted") as f64,
            &format!("{}/events_emitted", c.scenario),
        );
        assert_bits(
            sample(c, "events_suppressed"),
            row[3].as_u64().expect("suppressed") as f64,
            &format!("{}/events_suppressed", c.scenario),
        );
    }
}

#[test]
#[ignore = "runs the experiment twice; CI runs with --ignored in release"]
fn e9_replicate0_matches_single_run() {
    let cells = sweep_cells("e9");
    let rep = golden("e9");
    let case_keys = [
        ("server-bound attack (fat uplink)", "fat-uplink/src-keyed"),
        (
            "bandwidth-bound, src-keyed (paper's pushback)",
            "skinny-uplink/src-keyed",
        ),
        (
            "bandwidth-bound, dst-keyed (ACC ablation)",
            "skinny-uplink/dst-keyed",
        ),
    ];
    for row in &rep.tables[0].raw {
        let case = row["case"].as_str().expect("case");
        let scenario = case_keys
            .iter()
            .find(|(label, _)| *label == case)
            .map(|(_, s)| *s)
            .expect("known e9 case");
        assert_fields(
            cell(&cells, scenario),
            row,
            &[
                "limits_installed",
                "limits_on_reflector_prefixes",
                "limits_on_agent_prefixes",
                "pushback_drops",
                "drops_on_reflector_traffic",
                "legit_success",
                "victim_overloaded",
            ],
        );
    }
}

#[test]
#[ignore = "runs the experiment twice; CI runs with --ignored in release"]
fn e10_replicate0_matches_single_run() {
    let cells = sweep_cells("e10");
    let rep = golden("e10");
    for row in &rep.tables[0].raw {
        let coverage = field(row, "coverage");
        let windows = row["windows_retained"].as_u64().expect("windows");
        let c = cell(
            &cells,
            &format!("traceback/coverage={coverage:.2}/windows={windows}"),
        );
        assert_fields(
            c,
            row,
            &["queries", "exact_hits", "truncated", "misses", "accuracy"],
        );
    }
    for row in &rep.tables[1].raw {
        let threshold = field(row, "threshold_pps");
        let c = cell(&cells, &format!("trigger/threshold={threshold}"));
        assert_fields(c, row, &["limiter_drops"]);
        match row.get("reaction_ms") {
            Some(Value::Null) | None => assert!(!c.metrics.contains_key("reaction_ms")),
            Some(v) => assert_bits(
                sample(c, "reaction_ms"),
                v.as_f64().expect("reaction_ms"),
                &format!("{}/reaction_ms", c.scenario),
            ),
        }
    }
}

#[test]
#[ignore = "runs the experiment twice; CI runs with --ignored in release"]
fn e11_replicate0_matches_single_run() {
    let cells = sweep_cells("e11");
    let rep = golden("e11");
    for row in &rep.tables[0].raw {
        let beta = field(row, "beta");
        let c = cell(&cells, &format!("growth/beta={beta}"));
        assert_fields(c, row, &["t10_s", "t50_s", "t90_s"]);
    }
    for row in &rep.tables[1].raw {
        let beta = field(row, "beta");
        let c = cell(&cells, &format!("ramp/beta={beta}"));
        assert_fields(c, row, &["agents", "victim_overloaded"]);
        match row.get("time_to_overload_s") {
            Some(Value::Null) | None => {
                assert!(!c.metrics.contains_key("time_to_overload_s"))
            }
            Some(v) => assert_bits(
                sample(c, "time_to_overload_s"),
                v.as_f64().expect("time_to_overload_s"),
                &format!("{}/time_to_overload_s", c.scenario),
            ),
        }
    }
}

#[test]
#[ignore = "runs the experiment twice; CI runs with --ignored in release"]
fn e12_replicate0_matches_single_run() {
    let cells = sweep_cells("e12");
    let rep = golden("e12");
    let c = cell(&cells, "incentives/fraction=0.25");
    // The aggregate table's raw rows are (group, MB before, MB after).
    for row in &rep.tables[1].raw {
        let group = row[0].as_str().expect("group");
        let before = row[1].as_f64().expect("before");
        let after = row[2].as_f64().expect("after");
        let prefix = match group {
            "deployers" => "deployers",
            "free-riders" => "free_riders",
            other => panic!("unknown aggregate group {other:?}"),
        };
        assert_bits(
            sample(c, &format!("{prefix}_mb_before")),
            before,
            &format!("e12 {group} before"),
        );
        assert_bits(
            sample(c, &format!("{prefix}_mb_after")),
            after,
            &format!("e12 {group} after"),
        );
    }
}
