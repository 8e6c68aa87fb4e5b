//! Experiment runner: regenerates every table/figure-equivalent of the
//! reproduced paper (see EXPERIMENTS.md).
//!
//! Usage:
//!   experiments [--quick] [--out DIR] [--trace FILE] [--cp-trace FILE]
//!               [--threads N] [all | e1 e2 ...]
//!   experiments --sweep [--replicate N] [--threads N] [--quick] [--out DIR] [ids]
//!   experiments trace-report FILE
//!   experiments --list
//!
//! Bad arguments — an unknown experiment id, a value flag with no value,
//! an out-of-range value, a trace flag nothing selected would write —
//! exit 2 before anything runs. The trace file and the `--out` directory
//! are created next, also before anything runs: a path that cannot be
//! created prints the path and the OS error and exits 1. So does a report
//! that cannot be written once its experiment has run.
//!
//! `--trace FILE` asks a trace-wired experiment (e2, e3) to capture a JSONL
//! packet flight record of one designated run into FILE. Exactly one
//! experiment id must be selected with it, and it must be a wired one —
//! each traced experiment truncates FILE, so tracing several at once
//! would silently keep only the last, and any other id would write
//! nothing. `--sweep` reads neither trace flag. Golden report JSON is
//! unaffected.
//!
//! `--cp-trace FILE` is the control-plane analogue: a wired experiment
//! (e13, e14) captures a full JSONL *control transaction* flight
//! record of one designated run into FILE, plus the unified metrics
//! snapshot as `FILE.metrics.json` / `FILE.prom`. The same
//! one-wired-id rule applies, for the same reasons. `trace-report
//! FILE` then replays that record through the convergence-attribution
//! analyzer (exit 1 if any transaction never reached a terminal state).
//!
//! `--sweep` flattens every requested experiment's (scenario × seed)
//! grid into ONE pool (every id is sweep-capable; see
//! `dtcs_bench::sweep`), replicating each cell under `--replicate N`
//! derived seeds (default 32), and writes `<out>/<id>.sweep.json` with
//! mean/stddev/95%-CI columns.
//!
//! `--threads N` (default: all cores) sets the shard count of the one
//! pool that single runs and sweeps both drain on; report bytes are
//! identical at any value.

use std::path::PathBuf;

const USAGE: &str = "usage: experiments [--quick] [--out DIR] [--trace FILE | --cp-trace FILE] \
     [--threads N] [--sweep [--replicate N]] [all | e1 e2 ...] | --list | trace-report FILE";

/// Flags that consume the next argument as their value.
const VALUE_FLAGS: [&str; 5] = ["--out", "--trace", "--cp-trace", "--replicate", "--threads"];

/// The experiments that write a `--trace` packet record; any other id
/// would drop the flag silently, so it is refused.
const TRACE_IDS: [&str; 2] = ["e2", "e3"];

/// The experiments that write a `--cp-trace` control record, likewise.
const CP_TRACE_IDS: [&str; 2] = ["e13", "e14"];

/// A command line that cannot be run: say why, show the usage, exit 2.
fn bad_usage(why: &str) -> ! {
    eprintln!("{why}\n{USAGE}");
    std::process::exit(2);
}

/// An output that cannot be created or written: say which and why, exit 1.
fn unwritable(err: impl std::fmt::Display) -> ! {
    eprintln!("{err}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for e in dtcs_bench::EXPERIMENTS {
            println!("{} {} [{}]", e.id(), e.title(), e.anchor());
        }
        return;
    }
    if args.first().map(String::as_str) == Some("trace-report") {
        let Some(path) = args.get(1) else {
            bad_usage("trace-report takes the path of a --cp-trace JSONL file");
        };
        std::process::exit(dtcs_bench::trace_report::run(std::path::Path::new(path)));
    }
    let quick = args.iter().any(|a| a == "--quick");
    let sweep = args.iter().any(|a| a == "--sweep");
    if let Some(flag) = args.last().filter(|a| VALUE_FLAGS.contains(&a.as_str())) {
        bad_usage(&format!("{flag} takes a value"));
    }
    let flag_operand = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let out_dir = flag_operand("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let trace = flag_operand("--trace").map(PathBuf::from);
    let cp_trace = flag_operand("--cp-trace").map(PathBuf::from);
    let replicates: u32 = match flag_operand("--replicate").map(|v| v.parse()) {
        None => 32,
        Some(Ok(n)) if n > 0 => n,
        Some(Ok(0)) => bad_usage(
            "--replicate 0 would run nothing; replicate 0 IS the golden base seed, \
             so the minimum is 1",
        ),
        Some(_) => bad_usage("--replicate takes a positive integer"),
    };
    let threads: Option<usize> = match flag_operand("--threads").map(|v| v.parse()) {
        None => None,
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => bad_usage("--threads takes a positive integer"),
    };
    // Ids are the non-flag args minus the operand *positions* of
    // `VALUE_FLAGS` (`--out e4 e4` names one id, e4, and a directory).
    let is_operand = |i: usize| i > 0 && VALUE_FLAGS.contains(&args[i - 1].as_str());
    let mut ids: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && !is_operand(i))
        .map(|(_, a)| a.clone())
        .collect();
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = dtcs_bench::ALL.iter().map(|s| s.to_string()).collect();
    }
    if let Some(id) = ids.iter().find(|i| !dtcs_bench::ALL.contains(&i.as_str())) {
        bad_usage(&format!(
            "unknown experiment id: {id} (known: {:?})",
            *dtcs_bench::ALL
        ));
    }
    for (flag, file, wired) in [
        ("--trace", &trace, TRACE_IDS),
        ("--cp-trace", &cp_trace, CP_TRACE_IDS),
    ] {
        if file.is_none() {
            continue;
        }
        if sweep {
            bad_usage(&format!("{flag} is not read by --sweep"));
        }
        if ids.len() != 1 {
            bad_usage(&format!(
                "{flag} writes ONE trace file; select exactly one experiment id with it \
                 (got {ids:?})"
            ));
        }
        if !wired.contains(&ids[0].as_str()) {
            bad_usage(&format!(
                "{flag} is written only by {wired:?}; {} would ignore it",
                ids[0]
            ));
        }
    }
    for file in [&trace, &cp_trace].into_iter().flatten() {
        if let Err(e) = std::fs::File::create(file) {
            unwritable(format!("cannot create {}: {e}", file.display()));
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        unwritable(format!("cannot create {}: {e}", out_dir.display()));
    }
    let opts = dtcs_bench::RunOpts {
        quick,
        trace,
        cp_trace,
        threads,
    };

    let experiments = ids.iter().map(|id| dtcs_bench::sweep_experiment(id));
    let experiments: Vec<_> = experiments
        .map(|e| e.expect("ids were checked above"))
        .collect();
    if sweep {
        let outcome = dtcs_bench::sweep::run_sweep(&experiments, &opts, replicates);
        for report in &outcome.reports {
            report.print();
            report.save(&out_dir).unwrap_or_else(|e| unwritable(e));
        }
        for line in &outcome.health {
            println!("[health] {line}");
        }
        return;
    }

    for e in experiments {
        let report = e.run(&opts);
        report.print();
        report.save(&out_dir).unwrap_or_else(|e| unwritable(e));
    }
}
