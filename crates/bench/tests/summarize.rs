//! `summarize` never passes a check on data it did not check: each case
//! copies the committed `results/` into a temporary directory, breaks one
//! thing, and expects exit 1 with the failure named — or exit 2 with the
//! usage line for a command line it cannot read.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dtcs::netsim::json::{self, Json};

fn summarize(args: &[&str], dir: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_summarize"));
    cmd.args(args);
    if let Some(dir) = dir {
        cmd.arg("--dir").arg(dir);
    }
    cmd.output().expect("spawn summarize")
}

/// A copy of the committed reports under a directory of its own.
fn committed_copy(case: &str) -> PathBuf {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let dir = std::env::temp_dir().join(format!("dtcs_summarize_{case}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for entry in std::fs::read_dir(&results).expect("read results/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            std::fs::copy(&path, dir.join(path.file_name().expect("a file"))).expect("copy");
        }
    }
    dir
}

fn field<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Object(fields) = v else {
        panic!("not an object: {v}")
    };
    let found = fields.iter_mut().find(|(k, _)| k == key);
    &mut found.unwrap_or_else(|| panic!("no field {key}")).1
}

fn items(v: &mut Json) -> &mut Vec<Json> {
    let Json::Array(items) = v else {
        panic!("not an array: {v}")
    };
    items
}

/// The table of `report` whose title contains `needle`.
fn table<'a>(report: &'a mut Json, needle: &str) -> &'a mut Json {
    let titled = |t: &&mut Json| t["title"].as_str().is_some_and(|s| s.contains(needle));
    let found = items(field(report, "tables")).iter_mut().find(titled);
    found.unwrap_or_else(|| panic!("no {needle} table"))
}

fn edit(dir: &Path, file: &str, change: impl FnOnce(&mut Json)) {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).expect("read report");
    let mut report = json::parse(&text).expect("valid JSON");
    change(&mut report);
    std::fs::write(&path, report.pretty()).expect("write report");
}

/// Run `summarize` over the committed reports with one file edited; it
/// must exit 1 and name `why`.
fn assert_fails(case: &str, file: &str, change: impl FnOnce(&mut Json), why: &str) {
    let dir = committed_copy(case);
    edit(&dir, file, change);
    let out = summarize(&[], Some(&dir));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
    assert!(stderr.contains(why), "{case}: wanted {why:?} in {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_committed_reports_pass() {
    let dir = committed_copy("pass");
    let out = summarize(&[], Some(&dir));
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_non_numeric_e5_row_fails_the_monotonicity_check() {
    let spoil = |report: &mut Json| {
        let rows = items(field(table(report, "coverage sweep"), "raw"));
        let row = rows
            .iter_mut()
            .find(|r| r["placement"].as_str() == Some("top-degree"));
        *field(row.expect("a top-degree row"), "attack_byte_hops") = Json::Str("x".into());
    };
    let why = "e5.json coverage sweep: a row has no numeric attack_byte_hops";
    assert_fails("e5_row", "e5.json", spoil, why);
}

#[test]
fn an_e3_report_without_tables_fails() {
    let spoil = |report: &mut Json| items(field(report, "tables")).clear();
    assert_fails(
        "e3_tables",
        "e3.json",
        spoil,
        "e3.json has no power-law table",
    );
}

#[test]
fn a_missing_coverage_sweep_table_fails() {
    let spoil = |report: &mut Json| {
        *field(table(report, "coverage sweep"), "title") = Json::Str("renamed".into());
    };
    assert_fails(
        "e5_table",
        "e5.json",
        spoil,
        "e5.json has no coverage sweep table",
    );
}

#[test]
fn an_empty_checked_table_fails() {
    for (file, needle) in [("e8.json", "adversarial"), ("e15.json", "cross-check")] {
        let spoil = |report: &mut Json| items(field(table(report, needle), "raw")).clear();
        let why = format!("{file}: the {needle} table has no rows");
        assert_fails(needle, file, spoil, &why);
    }
}

/// A single-run row that lacks the value its sweep cell is compared on
/// fails the envelope check instead of being skipped.
#[test]
fn a_row_the_envelope_check_cannot_read_fails() {
    let dir = committed_copy("envelope");
    // A one-replicate sweep of E2 that is exactly its single-run rows.
    let text = std::fs::read_to_string(dir.join("e2.json")).expect("read e2.json");
    let mut e2 = json::parse(&text).expect("valid JSON");
    let cells = items(field(table(&mut e2, "scheme outcomes"), "raw")).iter();
    let cells = cells.map(|r| {
        let v = r["legit_success"].clone();
        let summary = vec![
            ("n", Json::U64(1)),
            ("mean", v.clone()),
            ("min", v.clone()),
            ("max", v),
        ];
        let scenario = format!("reflector/scheme={}", r["scheme"].as_str().expect("scheme"));
        Json::object(vec![
            ("experiment", Json::Str("e2".into())),
            ("scenario", Json::Str(scenario)),
            ("base_seed", Json::U64(0)),
            (
                "metrics",
                Json::object(vec![("legit_success", Json::object(summary))]),
            ),
        ])
    });
    let sweep = Json::object(vec![
        ("id", Json::Str("e2".into())),
        ("mode", Json::Str("sweep".into())),
        ("replicates", Json::U64(1)),
        ("cells", Json::Array(cells.collect())),
    ]);
    std::fs::write(dir.join("e2.sweep.json"), sweep.pretty()).expect("write sweep");
    let out = summarize(&[], Some(&dir));
    assert!(out.status.success(), "the sweep matches its rows: {out:?}");

    edit(&dir, "e2.json", |report| {
        let rows = items(field(table(report, "scheme outcomes"), "raw"));
        let row = rows
            .iter_mut()
            .find(|r| r["scheme"].as_str() == Some("pushback"));
        let Json::Object(fields) = row.expect("a pushback row") else {
            panic!("a row is an object")
        };
        fields.retain(|(k, _)| k != "legit_success");
    });
    let out = summarize(&[], Some(&dir));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("e2.json: a row has no numeric legit_success"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_command_line_it_cannot_read_exits_2() {
    for args in [
        &["--dir"][..],
        &["--verbose"],
        &["--dir", "results", "extra"],
    ] {
        let out = summarize(args, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: summarize"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
}
