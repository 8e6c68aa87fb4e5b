//! The golden contract, "same bytes out": the engine is deterministic
//! (integer-nanosecond clock, `(time, seq)` event order, one seeded RNG
//! stream), so a full-scale run of every experiment but E6 must reproduce
//! its committed `results/<id>.json` byte for byte. E6's throughput and
//! lookup tables measure the host, so it has no pin. This is what proves
//! an engine, device, control-plane or experiment refactor
//! behaviour-preserving. A change that alters behaviour on purpose
//! regenerates the files (`results/README.md`).

use dtcs::netsim::json::ToJson as _;
use dtcs_bench::{run_experiment, RunOpts, ALL};

/// Run `id` at full scale and compare its report with `results/<id>.json`.
fn assert_reproduces(id: &str) {
    let path = format!("{}/../../results/{id}.json", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("committed report");
    let report = run_experiment(id, &RunOpts::default()).expect("known experiment id");
    assert!(
        report.to_json().pretty() == committed,
        "{id} no longer reproduces {path}; save the report with `experiments --out` and diff"
    );
}

#[test]
fn e2_reproduces_its_golden_report() {
    assert_reproduces("e2");
}

#[test]
fn e3_reproduces_its_golden_report() {
    assert_reproduces("e3");
}

#[test]
fn e13_and_e14_reproduce_their_committed_reports() {
    assert_reproduces("e13");
    assert_reproduces("e14");
}

/// The 100k-node hybrid runs and the fluid/packet cross-check.
#[test]
fn e15_reproduces_its_golden_report() {
    assert_reproduces("e15");
}

/// The ids above run in tests of their own, beside this one; E6 is host
/// time.
#[test]
fn every_other_report_but_e6_reproduces_its_committed_file() {
    let elsewhere = ["e2", "e3", "e6", "e13", "e14", "e15"];
    for id in ALL.iter().filter(|id| !elsewhere.contains(id)) {
        assert_reproduces(id);
    }
}
