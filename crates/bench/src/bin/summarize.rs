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
//! * E3 survival at zero coverage must be ~1 (nothing filters);
//! * where `<id>.sweep.json` is present, every single-run E2/E3/E5 value
//!   lies inside its sweep cell's `[min, max]`.
//!
//! A check never passes on data it could not read: a missing table, an
//! empty one, or a row without the field a check reads is a failure too.
//!
//! Usage: `summarize [--dir DIR]` (default `results`) — exits 1 on any
//! violation, 2 on a bad command line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use dtcs::netsim::json::{self, Json as Value};

const USAGE: &str = "usage: summarize [--dir DIR]";

/// The reports under one directory and the failures found reading them.
struct Checker {
    dir: PathBuf,
    failures: Vec<String>,
}

impl Checker {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Parse `<dir>/<name>`. A file that is not there is `None` — and a
    /// failure only if `required`: result directories need not hold every
    /// report. A file that is there but cannot be read as JSON is always a
    /// failure: a truncated report must not pass for an absent one and
    /// skip its checks.
    fn load(&mut self, name: &str, required: bool) -> Option<Value> {
        let text = match std::fs::read_to_string(self.dir.join(name)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if required {
                    self.fail(format!("{name} missing"));
                }
                return None;
            }
            Err(e) => {
                self.fail(format!("{name} unreadable: {e}"));
                return None;
            }
        };
        json::parse(&text)
            .map_err(|e| self.fail(format!("{name} is not valid JSON: {e}")))
            .ok()
    }

    /// [`table_raw`], and a failure when there is no such table or it has
    /// no rows.
    fn table<'a>(&mut self, report: &'a Value, name: &str, needle: &str) -> Option<&'a [Value]> {
        match table_raw(report, needle) {
            Some(rows) if !rows.is_empty() => Some(rows),
            Some(_) => {
                self.fail(format!("{name}: the {needle} table has no rows"));
                None
            }
            None => {
                self.fail(format!("{name} has no {needle} table"));
                None
            }
        }
    }

    /// A row's field as a number; a failure naming the row if it is not one.
    fn num(&mut self, name: &str, row: &Value, key: &str) -> Option<f64> {
        let v = row[key].as_f64();
        if v.is_none() {
            self.fail(format!("{name}: a row has no numeric {key}: {row}"));
        }
        v
    }

    /// Replicate 0 reuses the single-run base seed, so a single-run value
    /// must lie inside the sweep's [min, max] envelope for the same cell.
    fn envelope(&mut self, sweep: &Value, scenario: &str, metric: &str, single: f64) {
        let Some(m) = sweep_cell(sweep, scenario).map(|c| &c["metrics"][metric]) else {
            self.fail(format!("sweep cell {scenario} missing metric {metric}"));
            return;
        };
        let (min, max) = (
            m["min"].as_f64().unwrap_or(f64::NAN),
            m["max"].as_f64().unwrap_or(f64::NAN),
        );
        // Exact containment: replicate 0 IS the single run.
        if !(min <= single && single <= max) {
            self.fail(format!(
                "sweep envelope violated: {scenario}/{metric} single-run {single} \
                 outside [{min}, {max}] (replicate 0 must reuse the base seed)"
            ));
        }
    }
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

/// The raw rows of the table whose title contains `needle`.
fn table_raw<'a>(report: &'a Value, needle: &str) -> Option<&'a [Value]> {
    report["tables"].as_array()?.iter().find_map(|t| {
        if t["title"].as_str()?.contains(needle) {
            t["raw"].as_array().map(Vec::as_slice)
        } else {
            None
        }
    })
}

fn find_row<'a>(rows: &'a [Value], key: &str, value: &str) -> Option<&'a Value> {
    rows.iter().find(|r| r[key].as_str() == Some(value))
}

/// The single-run tables a sweep replicates: report id, table, the metric
/// compared, and the scenario label of a row's sweep cell.
type Envelope = (
    &'static str,
    &'static str,
    &'static str,
    fn(&Value) -> Option<String>,
);

const ENVELOPES: [Envelope; 3] = [
    ("e2", "scheme outcomes", "legit_success", |r| {
        Some(format!("reflector/scheme={}", r["scheme"].as_str()?))
    }),
    ("e3", "power-law", "survival_ratio", |r| {
        let (strategy, fraction) = (r["strategy"].as_str()?, r["fraction"].as_f64()?);
        Some(format!("powerlaw/{strategy}/fraction={fraction:.2}"))
    }),
    ("e5", "coverage sweep", "attack_byte_hops", |r| {
        let (placement, fraction) = (r["placement"].as_str()?, r["fraction"].as_f64()?);
        Some(format!("coverage/{placement}/fraction={fraction:.2}"))
    }),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = match args.as_slice() {
        [] => PathBuf::from("results"),
        [flag, dir] if flag == "--dir" => PathBuf::from(dir),
        _ => {
            eprintln!("cannot read the command line {args:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut c = Checker {
        dir,
        failures: Vec::new(),
    };
    println!("== results digest ({}) ==\n", c.dir.display());
    let mut reports = BTreeMap::new();
    for (id, required) in [("e2", true), ("e3", true), ("e4", false), ("e5", true)] {
        if let Some(report) = c.load(&format!("{id}.json"), required) {
            reports.insert(id, report);
        }
    }

    // --- E2 headline -----------------------------------------------------
    let e2_rows = reports
        .get("e2")
        .and_then(|e2| c.table(e2, "e2.json", "scheme outcomes"));
    for scheme in ["none", "pushback", "sos-overlay", "tcs(30%)"] {
        if let Some(r) = e2_rows.and_then(|rows| find_row(rows, "scheme", scheme)) {
            println!(
                "E2  {:<22} legit={:.3}  collateral={:.3}",
                scheme,
                r["legit_success"].as_f64().unwrap_or(f64::NAN),
                r["collateral_success"].as_f64().unwrap_or(f64::NAN),
            );
        }
    }

    // --- Consistency: E2 none == E4 none ---------------------------------
    if let (Some(e2_rows), Some(e4)) = (e2_rows, reports.get("e4")) {
        let a = find_row(e2_rows, "scheme", "none");
        let b = c.table(e4, "e4.json", "victim service");
        match (a, b.and_then(|rows| find_row(rows, "scheme", "none"))) {
            (Some(a), Some(b)) => {
                for key in ["legit_success", "attack_byte_hops", "victim_overloaded"] {
                    if a[key] != b[key] {
                        c.fail(format!(
                            "E2/E4 'none' baselines disagree on {key}: {} vs {}",
                            a[key], b[key]
                        ));
                    }
                }
                println!("\nE2/E4 shared baseline: identical (cross-run determinism holds)");
            }
            _ => c.fail("could not locate E2/E4 'none' rows".into()),
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
        let report = c.load(name, true);
        let Some(rows) = report.as_ref().and_then(|r| c.table(r, name, needle)) else {
            continue;
        };
        let ok = rows
            .iter()
            .filter(|r| r["ok"].as_bool() == Some(true))
            .count();
        if ok == rows.len() {
            println!("{what}: {ok}/{ok}");
        } else {
            c.fail(format!(
                "{name}: {} {needle} rows are not ok",
                rows.len() - ok
            ));
        }
    }

    // --- E5: byte-hops monotone in coverage per placement -----------------
    if let Some(rows) = reports
        .get("e5")
        .and_then(|e5| c.table(e5, "e5.json", "coverage sweep"))
    {
        for placement in ["top-degree", "random"] {
            let mut series = Vec::new();
            for r in rows
                .iter()
                .filter(|r| r["placement"].as_str() == Some(placement))
            {
                let fraction = c.num("e5.json coverage sweep", r, "fraction");
                let hops = c.num("e5.json coverage sweep", r, "attack_byte_hops");
                series.extend(fraction.zip(hops));
            }
            series.sort_by(|a, b| a.0.total_cmp(&b.0));
            if series.is_empty() {
                c.fail(format!("E5 {placement}: no coverage points"));
            } else if series.windows(2).all(|w| w[1].1 <= w[0].1 * 1.05) {
                println!(
                    "E5  {placement}: attack byte-hops fall monotonically over {} coverage points",
                    series.len()
                );
            } else {
                c.fail(format!("E5 {placement} byte-hops not monotone: {series:?}"));
            }
        }
    }

    // --- E3: zero coverage filters nothing --------------------------------
    if let Some(rows) = reports
        .get("e3")
        .and_then(|e3| c.table(e3, "e3.json", "power-law"))
    {
        let zero: Vec<_> = rows
            .iter()
            .filter(|r| c.num("e3.json power-law", r, "fraction") == Some(0.0))
            .collect();
        for r in &zero {
            let surv = c.num("e3.json power-law", r, "survival_ratio");
            // TCS at fraction 0 still includes the victim's own AS.
            if surv.is_some_and(|s| s < 0.95) {
                c.fail(format!(
                    "E3 zero-coverage survival suspiciously low: {} = {surv:?}",
                    r["strategy"]
                ));
            }
        }
        if zero.is_empty() {
            c.fail("E3: the power-law table has no zero-coverage rows".into());
        } else {
            println!("E3  zero-coverage baselines sane (nothing filters without deployment)");
        }
    }

    // --- Sweep reports (when present): mean ± CI digest + envelope check --
    // `experiments --sweep` writes `<id>.sweep.json` with per-cell
    // replicate aggregations; pre-sweep result directories have none.
    // Replicate 0 reuses the single-run seed, so every single-run value
    // must sit inside the sweep's [min, max].
    let mut sweeps = BTreeMap::new();
    for id in ["e2", "e3", "e5", "e9", "e13"] {
        let name = format!("{id}.sweep.json");
        match c.load(&name, false) {
            Some(sw) if sw["mode"].as_str() == Some("sweep") => {
                sweeps.insert(id, sw);
            }
            Some(_) => c.fail(format!(
                "{name} is not a sweep report (\"mode\" != \"sweep\")"
            )),
            None => {}
        }
    }
    for (id, table, metric, label) in ENVELOPES {
        let (Some(sw), Some(report)) = (sweeps.get(id), reports.get(id)) else {
            continue;
        };
        // The table's own check has already said if it is missing.
        let Some(rows) = table_raw(report, table) else {
            continue;
        };
        let name = format!("{id}.json");
        for r in rows {
            let Some(scenario) = label(r) else {
                c.fail(format!(
                    "{name}: a {table} row does not name its sweep cell: {r}"
                ));
                continue;
            };
            if let Some(single) = c.num(&name, r, metric) {
                c.envelope(sw, &scenario, metric, single);
            }
        }
        let id = id.to_uppercase();
        println!("{id}~ sweep envelope: single-run {metric} inside replicate [min,max]");
    }
    let digest = [
        ("e2", "reflector/scheme=none", "legit_success"),
        ("e2", "reflector/scheme=tcs(30%)", "legit_success"),
        (
            "e3",
            "powerlaw/tcs/top-degree/fraction=0.20",
            "survival_ratio",
        ),
        ("e5", "coverage/top-degree/fraction=0.50", "legit_success"),
        (
            "e9",
            "skinny-uplink/src-keyed",
            "limits_on_reflector_prefixes",
        ),
    ];
    for (id, scenario, metric) in digest {
        if let Some(cell) = sweeps.get(id).and_then(|sw| sweep_cell(sw, scenario)) {
            let ci = fmt_ci(&cell["metrics"][metric]);
            println!("{}~ {scenario}: {metric}={ci}", id.to_uppercase());
        }
    }
    if let Some(cells) = sweeps.get("e13").and_then(|sw| sw["cells"].as_array()) {
        for cell in cells {
            let scen = cell["scenario"].as_str().unwrap_or("?");
            let ci = fmt_ci(&cell["metrics"]["steady_coverage_pct"]);
            println!("E13~ {scen:<22} steady_cov={ci}");
        }
    }

    println!();
    if c.failures.is_empty() {
        println!("all cross-experiment consistency checks passed.");
        ExitCode::SUCCESS
    } else {
        for f in &c.failures {
            eprintln!("CONSISTENCY FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}
