//! The performance ledger. See README.md.

mod alloc;
mod child;
mod control;
mod device;
mod harness;
mod kernels;
mod ledger;
mod packet;
mod parent;
mod report;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use child::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: dtcs-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
  no --workload: all five, interleaved
  --describe: print BENCHMARK.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    child: Option<String>,
    arm: String,
    wheel_len: u64,
    describe: bool,
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: report::RUN_SECONDS,
        traced: false,
        child: None,
        arm: String::new(),
        wheel_len: 0,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--traced" => args.traced = true,
            "--describe" => args.describe = true,
            "--workload" => args.workload = Some(it.next()?),
            "--child" => args.child = Some(it.next()?),
            "--arm" => args.arm = it.next()?,
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok()?,
            "--wheel-len" => args.wheel_len = it.next()?.parse().ok()?,
            "--trace" => {
                args.traced = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(args)
}

fn provenance(args: &Args) {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    // The stand-in `rand_chacha` is SplitMix64, one word of state; ChaCha8
    // carries a key, a counter and a block buffer.
    let rng = if std::mem::size_of_val(&dtcs::netsim::rng::seeded(0)) == 8 {
        "stub-splitmix64"
    } else {
        "chacha8"
    };
    println!(
        "provenance: seed={} seconds={} rng={rng} nproc={} {rustc}",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
}

/// `--workload NAME --trace 0`: the contract's untraced run.
fn untraced(seed: u64, workloads: &[&Workload], seconds: u64) -> bool {
    let mut all_correct = true;
    for mut runs in ledger::run_untraced(seed, workloads, seconds) {
        let (attempted, failed) = runs.operations();
        let metrics = ledger::end_to_end(&runs);
        for p in &runs.problems {
            println!("  FAILED CHECK: {p}");
        }
        all_correct &= failed == 0;
        println!(
            "{}",
            report::result_line(failed == 0, attempted, failed, &metrics)
        );
    }
    all_correct
}

/// `--trace 1`: per-layer metrics, and the spans behind them on disk.
fn traced(seed: u64, workloads: &[&Workload], seconds: u64) -> std::io::Result<bool> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)?;
    let mut trace = BufWriter::new(File::create(out_dir.join("trace.jsonl"))?);
    println!("spans: {}", out_dir.join("trace.jsonl").display());
    let mut all_correct = true;
    for workload in workloads {
        let mut t = ledger::run_traced(seed, workload, seconds);
        let (attempted, failed) = t.operations();
        let metrics = t.per_layer();
        println!(
            "{}  (sim_digest {})",
            workload.name,
            t.traced.samples.first().map_or("-", |s| &s.digest)
        );
        for (&(name, value, unit), &(_, _, better)) in metrics.iter().zip(&report::PER_LAYER) {
            println!("  {name:<42} {value:>16.4} {unit:<9} {better} is better");
        }
        for p in t.traced.problems.iter().chain(&t.plain.problems) {
            println!("  FAILED CHECK: {p}");
        }
        t.write_spans(&mut trace)?;
        all_correct &= failed == 0;
        println!(
            "{}",
            report::result_line(failed == 0, attempted, failed, &metrics)
        );
    }
    trace.flush()?;
    Ok(all_correct)
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let Some(args) = parse_args() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if args.describe {
        print!("{}", report::describe());
        return ExitCode::SUCCESS;
    }
    if let Some(workload) = &args.child {
        let known = child::run(
            t0,
            workload,
            &args.arm,
            args.seed,
            args.traced,
            args.wheel_len,
        );
        return if known {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }
    let workloads: Vec<&Workload> = match &args.workload {
        None => WORKLOADS.iter().collect(),
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    provenance(&args);
    let correct = if args.traced {
        match traced(args.seed, &workloads, args.seconds) {
            Ok(correct) => correct,
            Err(e) => {
                eprintln!("cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        untraced(args.seed, &workloads, args.seconds)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
