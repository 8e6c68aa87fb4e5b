//! The golden contract, "same bytes out": the engine is deterministic
//! (integer-nanosecond clock, `(time, seq)` event order, one seeded RNG
//! stream), so a full-scale run of E2 and E3 must reproduce
//! `results/golden/*.json` byte for byte, and E13 and E14 (the
//! faulty-channel control plane) the committed `results/*.json`. This is
//! what proves an engine or control-plane refactor behaviour-preserving.
//! A change that alters behaviour on purpose regenerates the files
//! (`results/README.md`).

use dtcs::netsim::json::ToJson as _;
use dtcs_bench::{run_experiment, RunOpts};

/// Run `id` at full scale and compare its report with `results/<dir><id>.json`.
fn assert_reproduces(id: &str, dir: &str) {
    let path = format!(
        "{}/../../results/{dir}{id}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let committed = std::fs::read_to_string(&path).expect("committed report");
    let report = run_experiment(id, &RunOpts::default()).expect("known experiment id");
    assert!(
        report.to_json().pretty() == committed,
        "{id} no longer reproduces {path}; save the report with `experiments --out` and diff"
    );
}

#[test]
fn e2_reproduces_its_golden_report() {
    assert_reproduces("e2", "golden/");
}

#[test]
fn e3_reproduces_its_golden_report() {
    assert_reproduces("e3", "golden/");
}

#[test]
fn e13_and_e14_reproduce_their_committed_reports() {
    assert_reproduces("e13", "");
    assert_reproduces("e14", "");
}
