//! `--cp-trace` end-to-end properties over E13 (quick mode):
//!
//! * two same-seed traced runs emit **byte-identical** JSONL (the
//!   determinism contract the CI `cp-trace-validate` job also checks
//!   through the binary);
//! * tracing is observation-only — the report's tables and notes are
//!   identical with tracing on or off (the golden-JSON invariance,
//!   asserted on the display rows so it holds offline too);
//! * the sidecar metrics snapshot (`<trace>.metrics.json` / `.prom`)
//!   is written and carries both engine and protocol counters;
//! * the captured trace satisfies the `trace-report` analyzer's gates
//!   (every transaction terminal, funnel balanced, 100% attribution).

use std::fs;
use std::path::PathBuf;

use dtcs_bench::util::Report;
use dtcs_bench::{run_experiment, trace_report, RunOpts};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dtcs_cp_trace_e13_test");
    fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(name)
}

fn run_e13(cp_trace: Option<PathBuf>) -> Report {
    let opts = RunOpts {
        quick: true,
        cp_trace,
        ..Default::default()
    };
    run_experiment("e13", &opts).expect("e13 is registered")
}

/// The serialisable face of a report: display rows and notes (health is
/// print-only by design and excluded — it is *expected* to differ, the
/// traced run appends a cp-trace line there).
fn visible(r: &Report) -> (Vec<Vec<Vec<String>>>, Vec<String>) {
    (
        r.tables.iter().map(|t| t.rows.clone()).collect(),
        r.notes.clone(),
    )
}

#[test]
fn cp_trace_is_deterministic_and_report_invariant() {
    let (p1, p2) = (tmp("a.jsonl"), tmp("b.jsonl"));

    let plain = run_e13(None);
    let traced = run_e13(Some(p1.clone()));
    let again = run_e13(Some(p2.clone()));

    // Determinism: same seed, byte-identical record.
    let t1 = fs::read(&p1).expect("trace written");
    assert!(!t1.is_empty(), "traced cell must record events");
    assert_eq!(
        t1,
        fs::read(&p2).expect("second trace"),
        "same-seed runs differ"
    );

    // Observation-only: every serialisable part of the report is
    // unchanged by tracing.
    assert_eq!(visible(&plain), visible(&traced));
    assert_eq!(visible(&plain), visible(&again));
    assert!(
        traced.health.iter().any(|h| h.contains("cp-trace:")),
        "traced run reports the capture in print-only health"
    );

    // Sidecar metrics snapshot: fixed-order registry with engine +
    // protocol counters, in both exposition formats.
    let metrics =
        fs::read_to_string(format!("{}.metrics.json", p1.display())).expect("metrics.json");
    assert!(
        metrics.starts_with('{') && metrics.ends_with("}\n"),
        "{metrics}"
    );
    assert!(metrics.contains("\"cp_msgs\":"), "engine counter missing");
    assert!(
        metrics.contains("\"cp_retransmits\":"),
        "protocol counter missing"
    );
    let prom = fs::read_to_string(format!("{}.prom", p1.display())).expect("prom");
    assert!(prom.contains("# TYPE dtcs_cp_msgs counter\n"), "{prom}");
    assert!(
        prom.contains("# TYPE dtcs_cp_reconcile_sweeps counter\n"),
        "{prom}"
    );

    // The record passes every analyzer gate and attributes the full
    // convergence window.
    let text = String::from_utf8(t1).expect("jsonl is utf-8");
    let evs: Vec<_> = text
        .lines()
        .enumerate()
        .map(|(i, l)| trace_report::parse_line(l).unwrap_or_else(|e| panic!("line {}: {e}", i + 1)))
        .collect();
    // The premise: the traced cell's channel drops and its device crashes.
    assert!(text.contains("\"outcome\":\"drop\""), "no drop traced");
    assert!(text.contains("\"kind\":\"crash\""), "no crash traced");
    let analysis = trace_report::analyze(&evs).expect("gates pass");
    assert!(analysis.groups >= 1, "the user transaction is keyed");
    assert!(analysis.window_ns() > 0, "a lossy crash cell takes time");
    assert_eq!(
        analysis.buckets.values().sum::<u64>(),
        analysis.window_ns(),
        "attribution must cover 100% of the window"
    );
    assert!(
        analysis.buckets["channel_loss"] > 0 || analysis.buckets["retry_backoff_idle"] > 0,
        "a 20%-loss cell must charge time to the fault plane: {:?}",
        analysis.buckets
    );
}
