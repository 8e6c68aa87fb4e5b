//! Results digest and cross-experiment consistency checker.
//!
//! Reads `results/e*.json` (written by the `experiments` binary) and
//! prints a one-screen digest of the headline numbers, then verifies the
//! cross-experiment invariants that must hold if the suite is coherent:
//!
//! * E2's and E4's undefended baselines come from the identical scenario
//!   and must agree exactly (determinism check across runs);
//! * every E8 verifier case must be `ok`;
//! * every E15 fluid/packet cross-check row must be `ok`;
//! * E5's attack byte·hops must fall monotonically with coverage per
//!   placement;
//! * E3 survival at zero coverage must be ~1 (nothing filters).
//!
//! Usage: `summarize [--dir results]` — exits non-zero on any violation.

use std::path::PathBuf;
use std::process::ExitCode;

use dtcs::netsim::json::{self, Json as Value};

/// Parse `<dir>/<name>`. A file that is not there is `None` — and a
/// failure only if `required`: result directories need not hold every
/// report. A file that is there but cannot be read as JSON is always a
/// failure: a truncated report must not pass for an absent one and skip
/// its checks.
fn load_file(
    dir: &std::path::Path,
    name: &str,
    required: bool,
    failures: &mut Vec<String>,
) -> Option<Value> {
    let text = match std::fs::read_to_string(dir.join(name)) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            if required {
                failures.push(format!("{name} missing"));
            }
            return None;
        }
        Err(e) => {
            failures.push(format!("{name} unreadable: {e}"));
            return None;
        }
    };
    json::parse(&text)
        .map_err(|e| failures.push(format!("{name} is not valid JSON: {e}")))
        .ok()
}

/// Load `<id>.sweep.json` (the replicated-report schema written by
/// `experiments --sweep`) when one exists; pre-sweep result directories
/// simply have none.
fn load_sweep(dir: &std::path::Path, id: &str, failures: &mut Vec<String>) -> Option<Value> {
    let name = format!("{id}.sweep.json");
    let v = load_file(dir, &name, false, failures)?;
    if v["mode"].as_str() != Some("sweep") {
        failures.push(format!(
            "{name} is not a sweep report (\"mode\" != \"sweep\")"
        ));
        return None;
    }
    Some(v)
}

/// `mean ± ci95 [n]` for one metric of one sweep cell.
fn fmt_ci(metric: &Value) -> String {
    format!(
        "{:.3} ± {:.3} [n={}]",
        metric["mean"].as_f64().unwrap_or(f64::NAN),
        metric["ci95"].as_f64().unwrap_or(f64::NAN),
        metric["n"].as_u64().unwrap_or(0),
    )
}

/// Find one sweep cell by scenario label.
fn sweep_cell<'a>(sweep: &'a Value, scenario: &str) -> Option<&'a Value> {
    sweep["cells"]
        .as_array()?
        .iter()
        .find(|c| c["scenario"].as_str() == Some(scenario))
}

/// Replicate 0 reuses the single-run base seed, so a single-run value
/// must lie inside the sweep's [min, max] envelope for the same cell.
fn check_envelope(
    failures: &mut Vec<String>,
    sweep: &Value,
    scenario: &str,
    metric: &str,
    single: f64,
) {
    let Some(m) = sweep_cell(sweep, scenario).map(|c| &c["metrics"][metric]) else {
        failures.push(format!("sweep cell {scenario} missing metric {metric}"));
        return;
    };
    let (min, max) = (
        m["min"].as_f64().unwrap_or(f64::NAN),
        m["max"].as_f64().unwrap_or(f64::NAN),
    );
    // Exact containment: replicate 0 IS the single run.
    if !(min <= single && single <= max) {
        failures.push(format!(
            "sweep envelope violated: {scenario}/{metric} single-run {single} \
             outside [{min}, {max}] (replicate 0 must reuse the base seed)"
        ));
    }
}

/// The raw rows of the table whose title contains `needle`.
fn table_raw<'a>(report: &'a Value, needle: &str) -> Option<&'a Vec<Value>> {
    report["tables"].as_array()?.iter().find_map(|t| {
        if t["title"].as_str()?.contains(needle) {
            t["raw"].as_array()
        } else {
            None
        }
    })
}

fn find_row<'a>(rows: &'a [Value], key: &str, value: &str) -> Option<&'a Value> {
    rows.iter().find(|r| r[key].as_str() == Some(value))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = args
        .iter()
        .position(|a| a == "--dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));

    let mut failures: Vec<String> = Vec::new();
    let say = |line: String| println!("{line}");

    println!("== results digest ({}) ==\n", dir.display());

    // --- E2 headline -----------------------------------------------------
    let e2 = load_file(&dir, "e2.json", true, &mut failures);
    if let Some(e2) = &e2 {
        if let Some(rows) = table_raw(e2, "scheme outcomes") {
            for scheme in ["none", "pushback", "sos-overlay", "tcs(30%)"] {
                if let Some(r) = find_row(rows, "scheme", scheme) {
                    say(format!(
                        "E2  {:<22} legit={:.3}  collateral={:.3}",
                        scheme,
                        r["legit_success"].as_f64().unwrap_or(f64::NAN),
                        r["collateral_success"].as_f64().unwrap_or(f64::NAN),
                    ));
                }
            }
        }
    }

    // --- Consistency: E2 none == E4 none ---------------------------------
    if let (Some(e2), Some(e4)) = (&e2, load_file(&dir, "e4.json", false, &mut failures)) {
        let a = table_raw(e2, "scheme outcomes").and_then(|r| find_row(r, "scheme", "none"));
        let b = table_raw(&e4, "victim service").and_then(|r| find_row(r, "scheme", "none"));
        match (a, b) {
            (Some(a), Some(b)) => {
                for key in ["legit_success", "attack_byte_hops", "victim_overloaded"] {
                    if a[key] != b[key] {
                        failures.push(format!(
                            "E2/E4 'none' baselines disagree on {key}: {} vs {}",
                            a[key], b[key]
                        ));
                    }
                }
                say("\nE2/E4 shared baseline: identical (cross-run determinism holds)".into());
            }
            _ => failures.push("could not locate E2/E4 'none' rows".into()),
        }
    }

    // --- E8 and E15: every row of the checked table ok ----------------------
    for (name, needle, what) in [
        (
            "e8.json",
            "adversarial",
            "E8  safety verifier: adversarial cases rejected correctly",
        ),
        (
            "e15.json",
            "cross-check",
            "E15 fluid/packet cross-check: metrics within tolerance",
        ),
    ] {
        let Some(report) = load_file(&dir, name, true, &mut failures) else {
            continue;
        };
        let Some(rows) = table_raw(&report, needle) else {
            failures.push(format!("{name} has no {needle} table"));
            continue;
        };
        match rows
            .iter()
            .filter(|r| r["ok"].as_bool() != Some(true))
            .count()
        {
            0 => say(format!("{what}: {}/{}", rows.len(), rows.len())),
            bad => failures.push(format!("{name}: {bad} {needle} rows are not ok")),
        }
    }

    // --- E5: byte-hops monotone in coverage per placement -----------------
    let e5 = load_file(&dir, "e5.json", true, &mut failures);
    if let Some(e5) = &e5 {
        if let Some(rows) = table_raw(e5, "coverage sweep") {
            for placement in ["top-degree", "random"] {
                let mut series: Vec<(f64, f64)> = rows
                    .iter()
                    .filter(|r| r["placement"].as_str() == Some(placement))
                    .filter_map(|r| {
                        Some((r["fraction"].as_f64()?, r["attack_byte_hops"].as_f64()?))
                    })
                    .collect();
                series.sort_by(|a, b| a.0.total_cmp(&b.0));
                let monotone = series.windows(2).all(|w| w[1].1 <= w[0].1 * 1.05);
                if monotone {
                    say(format!(
                        "E5  {placement}: attack byte-hops fall monotonically over {} coverage points",
                        series.len()
                    ));
                } else {
                    failures.push(format!("E5 {placement} byte-hops not monotone: {series:?}"));
                }
            }
        }
    }

    // --- E3: zero coverage filters nothing --------------------------------
    let e3 = load_file(&dir, "e3.json", true, &mut failures);
    if let Some(e3) = &e3 {
        if let Some(rows) = table_raw(e3, "power-law") {
            for r in rows.iter().filter(|r| r["fraction"].as_f64() == Some(0.0)) {
                let surv = r["survival_ratio"].as_f64().unwrap_or(0.0);
                // TCS at fraction 0 still includes the victim's own AS.
                if surv < 0.95 {
                    failures.push(format!(
                        "E3 zero-coverage survival suspiciously low: {} = {surv}",
                        r["strategy"]
                    ));
                }
            }
            say("E3  zero-coverage baselines sane (nothing filters without deployment)".into());
        }
    }

    // --- Sweep reports (when present): mean ± CI digest + envelope check --
    // `experiments --sweep` writes `<id>.sweep.json` with per-cell
    // replicate aggregations; replicate 0 reuses the single-run seed, so
    // every single-run value must sit inside the sweep's [min, max].
    if let Some(sw) = load_sweep(&dir, "e2", &mut failures) {
        say(String::new());
        for scheme in ["none", "tcs(30%)"] {
            let scen = format!("reflector/scheme={scheme}");
            if let Some(c) = sweep_cell(&sw, &scen) {
                say(format!(
                    "E2~ {:<22} legit={}  (sweep, {} replicates)",
                    scheme,
                    fmt_ci(&c["metrics"]["legit_success"]),
                    sw["replicates"].as_u64().unwrap_or(0),
                ));
            }
        }
        if let Some(rows) = e2.as_ref().and_then(|e2| table_raw(e2, "scheme outcomes")) {
            for r in rows {
                let (Some(scheme), Some(legit)) =
                    (r["scheme"].as_str(), r["legit_success"].as_f64())
                else {
                    continue;
                };
                check_envelope(
                    &mut failures,
                    &sw,
                    &format!("reflector/scheme={scheme}"),
                    "legit_success",
                    legit,
                );
            }
            say("E2~ sweep envelope: single-run rows inside replicate [min,max]".into());
        }
    }
    if let Some(sw) = load_sweep(&dir, "e3", &mut failures) {
        if let Some(rows) = e3.as_ref().and_then(|e| table_raw(e, "power-law")) {
            for r in rows {
                let (Some(strategy), Some(fraction), Some(surv)) = (
                    r["strategy"].as_str(),
                    r["fraction"].as_f64(),
                    r["survival_ratio"].as_f64(),
                ) else {
                    continue;
                };
                check_envelope(
                    &mut failures,
                    &sw,
                    &format!("powerlaw/{strategy}/fraction={fraction:.2}"),
                    "survival_ratio",
                    surv,
                );
            }
            say("E3~ sweep envelope: single-run survival inside replicate [min,max]".into());
        }
        if let Some(c) = sweep_cell(&sw, "powerlaw/tcs/top-degree/fraction=0.20") {
            say(format!(
                "E3~ tcs/top-degree@20%: survival={}",
                fmt_ci(&c["metrics"]["survival_ratio"])
            ));
        }
    }
    if let Some(sw) = load_sweep(&dir, "e5", &mut failures) {
        if let Some(rows) = e5.as_ref().and_then(|e| table_raw(e, "coverage sweep")) {
            for r in rows {
                let (Some(placement), Some(fraction), Some(hops)) = (
                    r["placement"].as_str(),
                    r["fraction"].as_f64(),
                    r["attack_byte_hops"].as_f64(),
                ) else {
                    continue;
                };
                check_envelope(
                    &mut failures,
                    &sw,
                    &format!("coverage/{placement}/fraction={fraction:.2}"),
                    "attack_byte_hops",
                    hops,
                );
            }
            say("E5~ sweep envelope: single-run byte-hops inside replicate [min,max]".into());
        }
        if let Some(c) = sweep_cell(&sw, "coverage/top-degree/fraction=0.50") {
            say(format!(
                "E5~ top-degree@50%: legit={}",
                fmt_ci(&c["metrics"]["legit_success"])
            ));
        }
    }
    if let Some(sw) = load_sweep(&dir, "e9", &mut failures) {
        if let Some(c) = sweep_cell(&sw, "skinny-uplink/src-keyed") {
            say(format!(
                "E9~ src-keyed misattribution: limits_on_reflectors={}",
                fmt_ci(&c["metrics"]["limits_on_reflector_prefixes"])
            ));
        }
    }
    if let Some(sw) = load_sweep(&dir, "e13", &mut failures) {
        if let Some(cells) = sw["cells"].as_array() {
            for c in cells {
                let scen = c["scenario"].as_str().unwrap_or("?");
                say(format!(
                    "E13~ {:<22} steady_cov={}",
                    scen,
                    fmt_ci(&c["metrics"]["steady_coverage_pct"])
                ));
            }
        }
    }

    println!();
    if failures.is_empty() {
        println!("all cross-experiment consistency checks passed.");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("CONSISTENCY FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}
