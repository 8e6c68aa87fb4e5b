//! The `experiments` command line, driven as a subprocess: `--list` comes
//! from the registry, and a command line that cannot be run exits 2 with
//! the usage line before anything runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

fn assert_bad_usage(args: &[&str], why: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run anything");
}

#[test]
fn list_prints_every_registered_id() {
    let out = experiments(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, dtcs_bench::ALL);
}

#[test]
fn unknown_id_exits_2() {
    assert_bad_usage(&["--quick", "e99"], "unknown experiment id: e99");
    assert_bad_usage(&["--sweep", "e99"], "unknown experiment id: e99");
}

#[test]
fn value_flag_given_last_exits_2() {
    assert_bad_usage(&["e2", "--trace"], "--trace takes a value");
    assert_bad_usage(&["e13", "--cp-trace"], "--cp-trace takes a value");
}

#[test]
fn out_of_range_value_exits_2() {
    assert_bad_usage(
        &["--sweep", "--quick", "--replicate", "0", "e2"],
        "--replicate 0 would run nothing",
    );
}

/// A flag's operand is skipped by position, not by text: `--out e8 e8`
/// writes e8 (and only e8) into the directory `e8`.
#[test]
fn an_id_equal_to_a_flag_value_still_runs() {
    let dir = std::env::temp_dir().join(format!("dtcs_cli_operand_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--out", "e8", "e8"])
        .current_dir(&dir)
        .output()
        .expect("spawn experiments");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stdout.matches("[saved ").count(), 1, "{stdout}");
    assert!(dir.join("e8/e8.json").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_trace_file_takes_one_id() {
    assert_bad_usage(
        &["--quick", "--cp-trace", "unwritten.jsonl", "e2", "e13"],
        "--cp-trace writes ONE trace file",
    );
}

/// A trace flag nothing selected would write is refused, not dropped.
#[test]
fn trace_flag_needs_an_experiment_that_writes_it() {
    assert_bad_usage(
        &["--quick", "--trace", "unwritten.jsonl", "e4"],
        "--trace is written only by [\"e2\", \"e3\"]",
    );
    assert_bad_usage(
        &["--quick", "--cp-trace", "unwritten.jsonl", "e7"],
        "--cp-trace is written only by [\"e13\", \"e14\"]",
    );
    assert_bad_usage(
        &["--sweep", "--quick", "--trace", "unwritten.jsonl", "e2"],
        "--trace is not read by --sweep",
    );
    assert_bad_usage(
        &["--sweep", "--quick", "--cp-trace", "unwritten.jsonl", "e13"],
        "--cp-trace is not read by --sweep",
    );
}

/// An output under a regular file cannot be created: the run stops at
/// once with exit 1, naming the path, before any experiment runs.
#[test]
fn an_uncreatable_output_exits_1_before_running() {
    let file = std::env::temp_dir().join(format!("dtcs_cli_not_a_dir_{}", std::process::id()));
    std::fs::write(&file, "").expect("create temp file");
    for (flag, name, id) in [
        ("--out", "out", "e4"),
        ("--trace", "x.jsonl", "e2"),
        ("--cp-trace", "x.jsonl", "e13"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--quick", flag])
            .arg(file.join(name))
            .arg(id)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        let path = file.join(name);
        assert!(
            stderr.contains(&format!("cannot create {}", path.display())),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: must not run anything");
    }
    let _ = std::fs::remove_file(&file);
}

/// A sweep report that is there but cut short must fail the digest, not
/// pass for "no sweep was run" and skip the replicate-0 envelope check.
#[test]
fn summarize_fails_on_a_truncated_sweep_report() {
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let dir = std::env::temp_dir().join(format!("dtcs_summarize_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for id in ["e2", "e3", "e4", "e5", "e8", "e15"] {
        let name = format!("{id}.json");
        std::fs::copy(committed.join(&name), dir.join(&name)).expect("copy committed report");
    }
    let summarize = |dir: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_summarize"))
            .arg("--dir")
            .arg(dir)
            .output()
            .expect("spawn summarize")
    };
    let out = summarize(&dir);
    assert!(out.status.success(), "committed reports must pass: {out:?}");

    std::fs::write(
        dir.join("e2.sweep.json"),
        "{\n  \"id\": \"e2\",\n  \"mode\": \"sw",
    )
    .expect("write truncated sweep report");
    let out = summarize(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "truncated sweep report passed");
    assert!(
        stderr.contains("e2.sweep.json is not valid JSON"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
