//! # dtcs-bench — experiment harness
//!
//! One module per experiment of EXPERIMENTS.md (E1–E15), each regenerating
//! a table/figure-equivalent of the reproduced paper. The `experiments`
//! binary runs them and writes JSON reports under `results/`.
//!
//! An experiment is one declaration, its module's `EXPERIMENT`: a
//! [`sweep::Experiment`] holding its id, its report title and paper
//! anchor, its grid of cases, the function that runs one case under a
//! seed, the numbers a sweep folds per run, and the function that renders
//! the report's tables and notes. The single run and the sweep both come
//! from it; [`EXPERIMENTS`] lists the fifteen declarations.

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

use std::sync::LazyLock;

use sweep::GridExperiment;
use util::Report;

/// Options shared by every experiment runner.
#[derive(Clone, Debug, Default)]
pub struct RunOpts {
    /// Shrunk sweeps suitable for CI (`--quick`).
    pub quick: bool,
    /// Write a JSONL packet trace of one designated run to this path
    /// (`--trace PATH`): e2 and e3 replay one run with a flight recorder
    /// attached. The `experiments` binary refuses the flag with any other
    /// id, with more than one id (each traced run rewrites the file) and
    /// with `--sweep`.
    pub trace: Option<std::path::PathBuf>,
    /// Write a JSONL *control-plane* flight record (`--cp-trace PATH`):
    /// e13 replays its 20%-loss crash-churn cell, e14 its longest-partition
    /// shortest-lease cell, with full (1-in-1) transaction sampling, and
    /// writes beside it `PATH.metrics.json` and `PATH.prom`, the run's
    /// [`dtcs::netsim::MetricsSnapshot`]. Tracing only observes: report
    /// JSON is byte-identical with it on or off. Same rules as `trace`.
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

/// The experiment registry — the *single* source of truth for dispatch,
/// for `--sweep` and for `experiments --list`. [`ALL`],
/// [`run_experiment`] and [`sweep_experiment`] all derive from it, and
/// each entry is its module's one declaration, so an id, its title and
/// its grid cannot drift apart.
pub static EXPERIMENTS: [&'static dyn GridExperiment; 15] = [
    e1::EXPERIMENT,
    e2::EXPERIMENT,
    e3::EXPERIMENT,
    e4::EXPERIMENT,
    e5::EXPERIMENT,
    e6::EXPERIMENT,
    e7::EXPERIMENT,
    e8::EXPERIMENT,
    e9::EXPERIMENT,
    e10::EXPERIMENT,
    e11::EXPERIMENT,
    e12::EXPERIMENT,
    &e13::EXPERIMENT,
    e14::EXPERIMENT,
    e15::EXPERIMENT,
];

/// All experiment ids in order (derived from [`EXPERIMENTS`]).
pub static ALL: LazyLock<[&str; EXPERIMENTS.len()]> = LazyLock::new(|| EXPERIMENTS.map(|e| e.id()));

/// Run one experiment by id.
pub fn run_experiment(id: &str, opts: &RunOpts) -> Option<Report> {
    sweep_experiment(id).map(|e| e.run(opts))
}

/// Look up an experiment by id.
pub fn sweep_experiment(id: &str) -> Option<&'static dyn GridExperiment> {
    EXPERIMENTS.iter().find(|e| e.id() == id).copied()
}
