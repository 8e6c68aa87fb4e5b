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
