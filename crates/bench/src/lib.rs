//! # dtcs-bench — experiment harness
//!
//! One module per experiment of EXPERIMENTS.md (E1–E15), each regenerating
//! a table/figure-equivalent of the reproduced paper. The `experiments`
//! binary runs them and writes JSON reports under `results/`.

#![warn(missing_docs)]

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod sweep;
pub mod trace_report;
pub mod util;

use util::Report;

/// Options shared by every experiment runner.
#[derive(Clone, Debug, Default)]
pub struct RunOpts {
    /// Shrunk sweeps suitable for CI (`--quick`).
    pub quick: bool,
    /// Write a JSONL packet trace of a designated run to this path
    /// (`--trace PATH`). Only experiments that wire a flight recorder
    /// honour it — the `experiments` binary's `TRACE_IDS`, and it refuses
    /// the flag with any other id or with `--sweep`. Each traced
    /// experiment truncates and rewrites the file, so the binary also
    /// refuses `--trace` with more than one experiment id rather than
    /// silently keeping only the last trace.
    pub trace: Option<std::path::PathBuf>,
    /// Write a JSONL *control-plane* flight record (`--cp-trace PATH`):
    /// every register → deploy → install → confirm lifecycle event of one
    /// designated run, captured with full (1-in-1) transaction sampling.
    /// Only experiments that wire the control recorder honour it — the
    /// binary's `CP_TRACE_IDS`: e13, which traces its 20%-loss
    /// crash-churn cell, and e14, which traces its longest-partition
    /// shortest-lease cell.
    /// Alongside `PATH` the traced experiment writes `PATH.metrics.json`
    /// and `PATH.prom` — the unified [`dtcs::netsim::MetricsSnapshot`]
    /// registry of that run in JSON and Prometheus text form. Tracing is
    /// observation-only: golden report JSON is byte-identical with it on
    /// or off. Same single-id rule as `trace`.
    pub cp_trace: Option<std::path::PathBuf>,
    /// Shard count of the pool (`--threads N`), for single runs and
    /// sweeps alike. `None` uses every available core; report bytes are
    /// the same at any value.
    pub threads: Option<usize>,
}

impl RunOpts {
    /// Quick-mode options with no tracing.
    pub fn quick() -> RunOpts {
        RunOpts {
            quick: true,
            ..Default::default()
        }
    }

    /// Shard count of [`sweep`]'s pool under these options.
    pub fn pool_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// One registered experiment: its id, its `--list` line (title and paper
/// anchor), its single-run renderer and its sweep-grid adapter.
type ExperimentEntry = (
    &'static str,
    &'static str,
    fn(&RunOpts) -> Report,
    &'static dyn sweep::GridExperiment,
);

/// The experiment registry — the *single* source of truth for dispatch,
/// for `--sweep` and for `experiments --list`. [`ALL`],
/// [`run_experiment`] and [`sweep_experiment`] all derive from this
/// table, so adding an experiment is one new row here plus its module;
/// the id list, the index, the dispatch and the grid adapters cannot
/// drift apart.
pub const EXPERIMENTS: [ExperimentEntry; 15] = [
    (
        "e1",
        "Reflector-attack anatomy: amplification factors [Fig. 1 / Sec. 2.2]",
        e1::run,
        &e1::Sweep,
    ),
    (
        "e2",
        "Scheme comparison under reflector + direct attacks [Sec. 3 + 4.3]",
        e2::run,
        &e2::Sweep,
    ),
    (
        "e3",
        "Spoofed-packet survival vs deployment coverage [Sec. 3.2, Park & Lee]",
        e3::run,
        &e3::Sweep,
    ),
    (
        "e4",
        "Collateral damage of reactive filtering [Secs. 1 / 3.1 / 3.4]",
        e4::run,
        &e4::Sweep,
    ),
    (
        "e5",
        "Stop distance & wasted bandwidth vs TCS coverage [Secs. 4.3 / 6]",
        e5::run,
        &e5::Sweep,
    ),
    (
        "e6",
        "Device and rule-table scalability [Sec. 5.3]",
        e6::run,
        &e6::Sweep,
    ),
    (
        "e7",
        "Control-plane latency: registration + deployment [Figs. 4-5 / Sec. 5.1]",
        e7::run,
        &e7::Sweep,
    ),
    (
        "e8",
        "Safety of delegated control [Sec. 4.5]",
        e8::run,
        &e8::Sweep,
    ),
    (
        "e9",
        "Pushback vs reflector attacks [Sec. 3.1]",
        e9::run,
        &e9::Sweep,
    ),
    (
        "e10",
        "Traceback accuracy + anomaly-reaction latency [Sec. 4.4]",
        e10::run,
        &e10::Sweep,
    ),
    (
        "e11",
        "Botnet recruitment dynamics and attack ramp [Sec. 2.1]",
        e11::run,
        &e11::Sweep,
    ),
    (
        "e12",
        "ISP incentives: attack bandwidth saved per provider [Sec. 4.6]",
        e12::run,
        &e12::Sweep,
    ),
    (
        "e13",
        "Control-plane fault sweep: loss × MTBF vs convergence [Sec. 5.1]",
        e13::run,
        &e13::Sweep,
    ),
    (
        "e14",
        "Leased mitigations under partition: orphan dwell vs renewal cost [Sec. 4.3]",
        e14::run,
        &e14::Sweep,
    ),
    (
        "e15",
        "The defence at Internet scale: hybrid fluid/packet engine [Secs. 4.3 / 5.3]",
        e15::run,
        &e15::Sweep,
    ),
];

/// All experiment ids in order (derived from [`EXPERIMENTS`]).
pub const ALL: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < EXPERIMENTS.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

fn entry(id: &str) -> Option<ExperimentEntry> {
    EXPERIMENTS.iter().find(|e| e.0 == id).copied()
}

/// Run one experiment by id.
pub fn run_experiment(id: &str, opts: &RunOpts) -> Option<Report> {
    entry(id).map(|(_, _, run, _)| run(opts))
}

/// Look up an experiment's sweep-grid adapter by id.
pub fn sweep_experiment(id: &str) -> Option<&'static dyn sweep::GridExperiment> {
    entry(id).map(|(.., grid)| grid)
}
