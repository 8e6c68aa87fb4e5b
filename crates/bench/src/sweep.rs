//! The bench crate's one thread pool and the (experiment × scenario ×
//! seed) sweep built on it (DESIGN.md §6.6).
//!
//! An experiment is one [`Experiment`] declaration: a list of [`Case`]s,
//! one `one(case, seed)` function and a renderer. Single-run mode
//! ([`run_cases`]) runs every case once at its base seed and renders the
//! report; sweep mode ([`run_sweep`]) flattens *every* requested
//! experiment's cases, replicated under N derived seeds, into a single
//! task list. Both drain on the same shards:
//!
//! * each **task** is one independent simulator run — a `(cell,
//!   replicate)` grid point with its own seed from [`replicate_seed`];
//! * each **shard** (worker thread) takes the next task index off one
//!   shared counter and folds what it ran into its own accumulator, so
//!   long cells (an e13 fault sweep) and short ones (an e3 probe run)
//!   interleave with no barrier in between;
//! * per-shard `Stats` fold with the commutative, associative
//!   [`Stats::merge`], so *any* schedule produces one identical
//!   aggregate;
//! * report JSON is written **shard-order-independent**: per-cell metric
//!   vectors are ordered by replicate index, cells are stably sorted by
//!   grid key `(experiment, scenario, base_seed)` before serialization —
//!   so the bytes are identical at any thread count (CI-enforced at
//!   `--threads 1` vs `--threads 4`).
//!
//! Replication (`--replicate N`, default 32 in sweep mode) turns each
//! scenario cell into N seed-varied runs and the report's single values
//! into mean / stddev / 95% confidence-interval columns — the
//! seed-replicated evaluation style of the related-work field (Li et al.;
//! El Defrawy et al.) that a single-seed table cannot provide.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dtcs::netsim::json::{Json, ToJson};
use dtcs::netsim::rng::child_seed;
use dtcs::netsim::Stats;

use crate::util::{f, hist_health, wheel_health, Report, Table, With};
use crate::RunOpts;

/// One finished grid-point run: the numeric metrics that feed the
/// replicate aggregation, plus the run's full [`Stats`] for shard
/// accumulation and invariant enforcement.
pub struct CellRun {
    /// Named numeric outcomes (a table row, flattened). Optional metrics
    /// (e.g. a stop distance with no drops) are simply absent; the
    /// aggregation tracks per-metric sample counts.
    pub metrics: BTreeMap<String, f64>,
    /// The run's engine statistics.
    pub stats: Stats,
}

/// One scenario cell of the grid: everything but the seed.
pub struct SweepCell {
    /// Owning experiment id (`"e2"`, …).
    pub experiment: &'static str,
    /// Stable scenario label, unique within the experiment — the second
    /// component of the grid key (e.g. `"reflector/scheme=tcs(30%)"`).
    pub scenario: String,
    /// The seed the single-run experiment uses for this cell; replicate 0
    /// reuses it verbatim so the sweep brackets the golden tables.
    pub base_seed: u64,
    /// Run the cell under one derived seed.
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(u64) -> CellRun + Send + Sync>,
}

/// An entry of the [`crate::EXPERIMENTS`] registry: what the experiment
/// is, its scenario grid for the sweep engine, and its single run.
/// [`Experiment`] implements it from one declaration.
pub trait GridExperiment: Sync {
    /// Registry id (`"e2"`, …), also the report's.
    fn id(&self) -> &'static str;
    /// The report's title.
    fn title(&self) -> &'static str;
    /// The paper section or figure the report reproduces.
    fn anchor(&self) -> &'static str;
    /// Enumerate the experiment's scenario cells.
    fn cells(&self, opts: &RunOpts) -> Vec<SweepCell>;
    /// Run every case once at its base seed and render the report.
    fn run(&self, opts: &RunOpts) -> Report;
}

/// Stream salt separating sweep-replicate seed derivation from every
/// other [`child_seed`] consumer (the trace sampler salts with packet
/// ids, scenario setup with small constants).
const REPLICATE_STREAM: u64 = 0x5357_4545_5000_0000; // "SWEEP"

/// Deterministic seed for replicate `r` of a cell. Replicate 0 is the
/// base seed itself, so every sweep contains the exact single-run rows
/// of the golden tables; replicates 1.. are independent SplitMix64
/// children on a dedicated stream.
pub fn replicate_seed(base_seed: u64, replicate: u32) -> u64 {
    if replicate == 0 {
        base_seed
    } else {
        child_seed(base_seed, REPLICATE_STREAM | replicate as u64)
    }
}

/// Everything one grid execution produces.
pub struct GridOutcome {
    /// Per-task metrics, sorted by task index (= `cell * replicates + r`,
    /// i.e. grid order) — independent of the schedule.
    pub task_metrics: Vec<(usize, BTreeMap<String, f64>)>,
    /// All shards' stats folded with [`Stats::merge`] (series stripped:
    /// cross-experiment series have incommensurable bucket widths, and
    /// the aggregate exists for engine-health lines only).
    pub merged_stats: Stats,
    /// Tasks each shard ran (print-only).
    pub shard_tasks: Vec<usize>,
    /// End-to-end wall time of the pool drain.
    pub wall: Duration,
}

/// The one thread pool: drain tasks `0..n_tasks` with `threads` shards,
/// each taking the next index off one shared counter and folding the
/// tasks it ran into its own `A`. Which shard ran what is
/// schedule-dependent; callers combine the accumulators with an
/// order-independent fold (sort by task index, [`Stats::merge`]).
/// Returns each shard's accumulator and task count.
fn drain<A: Default + Send>(
    n_tasks: usize,
    threads: usize,
    task: impl Fn(&mut A, usize) + Sync,
) -> (Vec<(A, usize)>, Duration) {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let shards = std::thread::scope(|scope| {
        let (next, task) = (&next, &task);
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(move || {
                    let (mut acc, mut ran) = (A::default(), 0);
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= n_tasks {
                            return (acc, ran);
                        }
                        task(&mut acc, t);
                        ran += 1;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool shard panicked"))
            .collect()
    });
    (shards, started.elapsed())
}

/// One case of an experiment's grid — what a single run renders as a
/// table row and what the sweep replicates: the scenario label (second
/// component of the grid key), the seed the single-run tables use, and
/// whatever the experiment's `one(case, seed)` needs.
pub struct Case<C> {
    /// Stable label, unique within the experiment.
    pub scenario: String,
    /// Seed of the single-run tables; replicate 0 reuses it.
    pub base_seed: u64,
    /// The experiment's own parameters.
    pub params: C,
}

impl<C> Case<C> {
    /// A case.
    pub fn new(scenario: impl Into<String>, base_seed: u64, params: C) -> Case<C> {
        Case {
            scenario: scenario.into(),
            base_seed,
            params,
        }
    }
}

/// Single-run mode: every case at its base seed on the pool, results in
/// case order whatever the schedule. Each run's [`Stats`] pass
/// [`crate::util::enforce_run_invariants`] before anything is rendered.
pub fn run_cases<C: Sync, R: Send>(
    id: &str,
    cases: &[Case<C>],
    threads: usize,
    one: impl Fn(&C, u64) -> (R, Stats) + Sync,
) -> Vec<(R, Stats)> {
    let (shards, _) = drain(cases.len(), threads, |acc: &mut Vec<_>, i| {
        let case = &cases[i];
        let out = one(&case.params, case.base_seed);
        crate::util::enforce_run_invariants(&format!("{id}/{}", case.scenario), &out.1);
        acc.push((i, out));
    });
    let mut outs: Vec<_> = shards.into_iter().flat_map(|(acc, _)| acc).collect();
    outs.sort_by_key(|&(i, _)| i);
    outs.into_iter().map(|(_, out)| out).collect()
}

/// One experiment, declared once: what it is (`id`, `title`, `anchor`),
/// its grid (`cases`), one run of a case (`one`), the numbers the sweep
/// folds per run (`metrics`) and the tables and notes of a single run
/// (`render`). Single-run mode and sweep mode both come from it.
pub struct Experiment<P, R> {
    /// Registry id, also the report's.
    pub id: &'static str,
    /// The report's title.
    pub title: &'static str,
    /// The paper section or figure the report reproduces.
    pub anchor: &'static str,
    /// The grid; the argument is `--quick`.
    pub cases: fn(bool) -> Vec<Case<P>>,
    /// Run one case under a seed.
    pub one: fn(&P, u64) -> (R, Stats),
    /// Flatten a row into the numbers the replicate aggregation folds.
    pub metrics: fn(&R) -> BTreeMap<String, f64>,
    /// Tables and notes of a single run, given every case's outcome in
    /// case order.
    #[allow(clippy::type_complexity)]
    pub render: fn(&mut Report, &RunOpts, &[Case<P>], &[(R, Stats)]),
}

impl<P: Send + Sync + 'static, R: Send + 'static> GridExperiment for Experiment<P, R> {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn anchor(&self) -> &'static str {
        self.anchor
    }

    fn cells(&self, opts: &RunOpts) -> Vec<SweepCell> {
        let (one, metrics) = (self.one, self.metrics);
        let cell = |case: Case<P>| SweepCell {
            experiment: self.id,
            scenario: case.scenario,
            base_seed: case.base_seed,
            run: Box::new(move |seed| {
                let (row, stats) = one(&case.params, seed);
                CellRun {
                    metrics: metrics(&row),
                    stats,
                }
            }),
        };
        (self.cases)(opts.quick).into_iter().map(cell).collect()
    }

    /// Single-run mode: [`run_cases`], then timing-wheel and telemetry
    /// health over every run (print-only), then `render`.
    fn run(&self, opts: &RunOpts) -> Report {
        let mut report = Report::new(self.id, self.title, self.anchor);
        let cases = (self.cases)(opts.quick);
        let outs = run_cases(self.id, &cases, opts.pool_threads(), self.one);
        report.health(wheel_health(outs.iter().map(|o| &o.1)));
        report.health(hist_health(outs.iter().map(|o| &o.1)));
        (self.render)(&mut report, opts, &cases, &outs);
        report
    }
}

/// A table row's outcomes as sweep metrics: every field but those named
/// in `except` (the case's own parameters, and anything the sweep must
/// not fold), numbers as they are, booleans as 0/1. Text is not a metric,
/// and a `null` — an optional the run did not produce, a NaN latency — is
/// simply absent; the aggregation tracks per-metric sample counts.
pub fn metrics_of(row: &impl ToJson, except: &[&str]) -> BTreeMap<String, f64> {
    let Json::Object(fields) = row.to_json() else {
        panic!("a table row is a record")
    };
    let value = |v: Json| match v {
        Json::Bool(b) => Some(f64::from(u8::from(b))),
        v => v.as_f64(),
    };
    let outcomes = fields
        .into_iter()
        .filter(|(k, _)| !except.contains(&k.as_str()));
    outcomes.filter_map(|(k, v)| Some((k, value(v)?))).collect()
}

/// Drain the flattened `(cell × replicate)` grid on the pool. Task index
/// `t` maps to cell `t / replicates`, replicate `t % replicates`.
pub fn run_grid(cells: &[SweepCell], replicates: u32, threads: usize) -> GridOutcome {
    // No silent clamp: zero replicates would mean "run nothing and report
    // it as a sweep". The CLI rejects `--replicate 0` with exit 2; a
    // library caller passing 0 has a bug worth a loud panic.
    assert!(
        replicates >= 1,
        "run_grid requires at least one replicate (replicate 0 is the golden base seed)"
    );
    let replicates = replicates as usize;
    type Acc = (Vec<(usize, BTreeMap<String, f64>)>, Stats);
    let (shard_outs, wall) = drain(cells.len() * replicates, threads, |acc: &mut Acc, t| {
        let cell = &cells[t / replicates];
        let r = (t % replicates) as u32;
        let run = (cell.run)(replicate_seed(cell.base_seed, r));
        crate::util::enforce_run_invariants(
            &format!("sweep {}/{} r{r}", cell.experiment, cell.scenario),
            &run.stats,
        );
        let mut stats = run.stats;
        stats.series = None;
        acc.1.merge(&stats);
        acc.0.push((t, run.metrics));
    });

    let mut task_metrics = Vec::with_capacity(cells.len() * replicates);
    let mut merged_stats = Stats::default();
    let mut shard_tasks = Vec::with_capacity(shard_outs.len());
    for ((results, stats), ran) in shard_outs {
        task_metrics.extend(results);
        merged_stats.merge(&stats);
        shard_tasks.push(ran);
    }
    // Canonical grid order: the schedule decided who ran what, but never
    // what the grid contains.
    task_metrics.sort_by_key(|(t, _)| *t);
    GridOutcome {
        task_metrics,
        merged_stats,
        shard_tasks,
        wall,
    }
}

/// Replicate aggregation of one metric: sample mean, sample stddev
/// (n−1), and the 95% confidence-interval half-width under the normal
/// approximation (`1.96 · stddev / √n`). `n` counts the replicates that
/// actually produced the metric (optional metrics may be absent in some
/// runs).
pub struct MetricSummary {
    /// Samples present.
    pub n: u32,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 when n < 2).
    pub stddev: f64,
    /// 95% CI half-width, `mean ± ci95` (0 when n < 2).
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl ToJson for MetricSummary {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("n", u64::from(self.n).to_json()),
            ("mean", self.mean.to_json()),
            ("stddev", self.stddev.to_json()),
            ("ci95", self.ci95.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

/// Aggregate samples given in replicate order (fixed order ⇒ bit-stable
/// float results ⇒ byte-stable report JSON).
pub fn summarize_metric(values: &[f64]) -> Option<MetricSummary> {
    if values.is_empty() {
        return None;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let (mut min, mut max) = (values[0], values[0]);
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    let (stddev, ci95) = if values.len() < 2 {
        (0.0, 0.0)
    } else {
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        let sd = var.sqrt();
        (sd, 1.96 * sd / n.sqrt())
    };
    Some(MetricSummary {
        n: values.len() as u32,
        mean,
        stddev,
        ci95,
        min,
        max,
    })
}

/// One cell of a sweep report: the grid key plus per-metric summaries.
pub struct SweepCellReport {
    /// Grid key, first component.
    pub experiment: String,
    /// Grid key, second component.
    pub scenario: String,
    /// Grid key, third component.
    pub base_seed: u64,
    /// Metric name → replicate aggregation, name-sorted.
    pub metrics: BTreeMap<String, MetricSummary>,
}

/// One experiment's sweep output (serialized to `<id>.sweep.json`).
pub struct SweepReport {
    /// Experiment id.
    pub id: String,
    /// Replicates per cell the sweep was asked for.
    pub replicates: u32,
    /// Cells, stably sorted by grid key.
    pub cells: Vec<SweepCellReport>,
}

impl SweepReport {
    /// Deterministic JSON: fixed field order, name-sorted metrics,
    /// replicate-ordered float folds, one in-tree writer — so the bytes
    /// depend only on the grid, never on thread count or steal schedule.
    pub fn to_json(&self) -> String {
        let cells = self.cells.iter().map(|c| {
            Json::object(vec![
                ("experiment", c.experiment.to_json()),
                ("scenario", c.scenario.to_json()),
                ("base_seed", c.base_seed.to_json()),
                ("metrics", c.metrics.to_json()),
            ])
        });
        let report = Json::object(vec![
            ("id", self.id.to_json()),
            ("mode", "sweep".to_json()),
            ("replicates", u64::from(self.replicates).to_json()),
            ("cells", Json::Array(cells.collect())),
        ]);
        report.pretty() + "\n"
    }

    /// Write `<dir>/<id>.sweep.json`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let path = dir.join(format!("{}.sweep.json", self.id));
        crate::util::save(&path, &self.to_json())
    }

    /// Print the mean ± CI table.
    pub fn print(&self) {
        println!("\n==================================================================");
        println!(
            "{} SWEEP: {} cells x {} replicates",
            self.id.to_uppercase(),
            self.cells.len(),
            self.replicates
        );
        println!("==================================================================");
        let mut rows = Vec::new();
        for c in &self.cells {
            rows.extend(
                c.metrics
                    .iter()
                    .map(|(name, m)| With(m, (&c.scenario, name))),
            );
        }
        let table = Table::of(
            "mean ± ci95 per cell and metric",
            &rows,
            &[
                ("scenario", &|r| r.1 .0.clone()),
                ("metric", &|r| r.1 .1.clone()),
                ("mean", &|r| f(r.0.mean)),
                ("stddev", &|r| f(r.0.stddev)),
                ("ci95", &|r| f(r.0.ci95)),
                ("n", &|r| r.0.n.to_string()),
            ],
        );
        table.print();
    }
}

/// A whole sweep invocation's output.
pub struct SweepOutcome {
    /// One report per requested experiment, request order.
    pub reports: Vec<SweepReport>,
    /// Print-only engine-health and shard-accounting lines.
    pub health: Vec<String>,
}

/// Run the full sweep: flatten every experiment's cells into ONE pool
/// (that is the point — e13's long fault cells drain alongside e3's
/// short probe cells), execute on `opts.pool_threads()` shards,
/// aggregate replicates, and assemble per-experiment reports sorted by
/// grid key.
pub fn run_sweep(
    experiments: &[&dyn GridExperiment],
    opts: &RunOpts,
    replicates: u32,
) -> SweepOutcome {
    let mut cells: Vec<SweepCell> = Vec::new();
    for grid in experiments {
        cells.extend(grid.cells(opts));
    }
    let grid = run_grid(&cells, replicates, opts.pool_threads());

    // Per-cell, per-metric sample vectors in replicate order.
    let mut per_cell: Vec<BTreeMap<String, Vec<f64>>> =
        (0..cells.len()).map(|_| BTreeMap::new()).collect();
    for (t, metrics) in &grid.task_metrics {
        let c = t / replicates as usize;
        for (k, v) in metrics {
            if v.is_finite() {
                per_cell[c].entry(k.clone()).or_default().push(*v);
            }
        }
    }

    let mut reports = Vec::new();
    for id in experiments.iter().map(|e| e.id()) {
        let mut cell_reports: Vec<SweepCellReport> = cells
            .iter()
            .zip(per_cell.iter())
            .filter(|(c, _)| c.experiment == id)
            .map(|(c, samples)| SweepCellReport {
                experiment: c.experiment.to_string(),
                scenario: c.scenario.clone(),
                base_seed: c.base_seed,
                metrics: samples
                    .iter()
                    .filter_map(|(k, vs)| summarize_metric(vs).map(|m| (k.clone(), m)))
                    .collect(),
            })
            .collect();
        cell_reports.sort_by(|a, b| (&a.scenario, a.base_seed).cmp(&(&b.scenario, b.base_seed)));
        reports.push(SweepReport {
            id: id.to_string(),
            replicates,
            cells: cell_reports,
        });
    }

    let shard_line = format!(
        "sweep pool: {} tasks ({} cells x {} replicates) over {} shards in {:.2}s; \
         per-shard tasks [{}]",
        grid.task_metrics.len(),
        cells.len(),
        replicates,
        grid.shard_tasks.len(),
        grid.wall.as_secs_f64(),
        grid.shard_tasks
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" "),
    );
    let health = vec![
        shard_line,
        wheel_health(std::iter::once(&grid.merged_stats)),
        hist_health(std::iter::once(&grid.merged_stats)),
    ];
    SweepOutcome { reports, health }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic grid: cheap deterministic "runs" whose metrics encode
    /// the seed, so schedule mix-ups are visible.
    fn toy_cells(n: usize) -> Vec<SweepCell> {
        (0..n)
            .map(|i| SweepCell {
                experiment: "toy",
                scenario: format!("cell={i:02}"),
                base_seed: 100 + i as u64,
                run: Box::new(|seed| {
                    let stats = Stats {
                        events: seed % 97,
                        ..Default::default()
                    };
                    let mut metrics = BTreeMap::new();
                    metrics.insert("seed_mod".into(), (seed % 1000) as f64);
                    metrics.insert("one".into(), 1.0);
                    CellRun { metrics, stats }
                }),
            })
            .collect()
    }

    #[test]
    fn replicate_zero_is_base_seed() {
        assert_eq!(replicate_seed(42, 0), 42);
        assert_ne!(replicate_seed(42, 1), 42);
        assert_ne!(replicate_seed(42, 1), replicate_seed(42, 2));
        // Distinct from the plain child_seed streams scenarios use.
        assert_ne!(replicate_seed(42, 1), child_seed(42, 1));
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_is_a_hard_error() {
        run_grid(&toy_cells(1), 0, 2);
    }

    /// Cell enumeration sanity for every adapter: non-empty, experiment
    /// ids match, and scenario labels are unique (they are the grid key).
    /// Enumeration only — no cell bodies run, so this stays cheap.
    #[test]
    fn sweep_cells_have_unique_scenario_labels() {
        let opts = RunOpts::quick();
        for grid in crate::EXPERIMENTS {
            let (id, cells) = (grid.id(), grid.cells(&opts));
            assert!(!cells.is_empty(), "{id} enumerates no cells");
            for c in &cells {
                assert_eq!(c.experiment, id, "cell tagged with foreign experiment");
            }
            let mut labels: Vec<&str> = cells.iter().map(|c| c.scenario.as_str()).collect();
            labels.sort_unstable();
            let n = labels.len();
            labels.dedup();
            assert_eq!(n, labels.len(), "{id} has duplicate scenario labels");
        }
    }

    #[test]
    fn grid_output_is_thread_count_invariant() {
        let cells = toy_cells(7);
        let a = run_grid(&cells, 5, 1);
        let b = run_grid(&cells, 5, 4);
        let c = run_grid(&cells, 5, 16); // more shards than tasks per cell
        assert_eq!(a.task_metrics, b.task_metrics);
        assert_eq!(a.task_metrics, c.task_metrics);
        assert_eq!(a.merged_stats, b.merged_stats);
        assert_eq!(a.merged_stats, c.merged_stats);
        assert_eq!(a.task_metrics.len(), 35);
    }

    #[test]
    fn sweep_report_bytes_are_thread_count_invariant() {
        static TOY: Experiment<(), u64> = Experiment {
            id: "toy",
            title: "toy",
            anchor: "-",
            cases: |_| {
                (0..5)
                    .map(|i| Case::new(format!("cell={i}"), 100 + i, ()))
                    .collect()
            },
            one: |_, seed| {
                let stats = Stats {
                    events: seed % 97,
                    ..Default::default()
                };
                (seed % 1000, stats)
            },
            metrics: |&v| [("seed_mod".to_string(), v as f64)].into(),
            render: |_, _, _, _| {},
        };
        let on = |threads| RunOpts {
            threads: Some(threads),
            ..RunOpts::quick()
        };
        let a = run_sweep(&[&TOY], &on(1), 4);
        let b = run_sweep(&[&TOY], &on(8), 4);
        let ja: Vec<String> = a.reports.iter().map(|r| r.to_json()).collect();
        let jb: Vec<String> = b.reports.iter().map(|r| r.to_json()).collect();
        assert_eq!(ja, jb, "report bytes must not depend on thread count");
        assert!(ja[0].contains("\"mode\": \"sweep\""));
        assert!(ja[0].contains("\"replicates\": 4"));
    }

    #[test]
    fn every_task_runs_exactly_once_on_many_shards() {
        // Uneven, serial-heavy grid with many shards racing one counter.
        let cells = toy_cells(3);
        let out = run_grid(&cells, 11, 6);
        assert_eq!(out.task_metrics.len(), 33);
        for (i, (t, _)) in out.task_metrics.iter().enumerate() {
            assert_eq!(*t, i, "task {i} missing or duplicated");
        }
        assert_eq!(out.shard_tasks.iter().sum::<usize>(), 33);
    }

    /// Real-simulator grid, smaller than `--quick`: a sharded run's merged
    /// [`Stats`] must equal the sequential run's field-for-field (the
    /// merge-algebra guarantee on actual workloads, not toy counters).
    #[test]
    fn sharded_e2_stats_equal_sequential() {
        let cells = tiny_e2_cells();
        let seq = run_grid(&cells, 2, 1);
        let par = run_grid(&cells, 2, 4);
        assert_eq!(seq.merged_stats, par.merged_stats);
        assert_eq!(seq.task_metrics, par.task_metrics);
    }

    /// A shrunken e2-style grid (two schemes over a 40-node scenario) —
    /// shared by the equality test above and small enough for CI.
    fn tiny_e2_cells() -> Vec<SweepCell> {
        use dtcs::{run_scenario, ScenarioConfig, Scheme};
        let mut cfg = ScenarioConfig {
            n_nodes: 40,
            ..Default::default()
        };
        cfg.attack.n_agents = 10;
        cfg.attack.n_reflectors = 15;
        cfg.attack.stop_at = dtcs::netsim::SimTime::from_secs(4);
        cfg.duration = dtcs::netsim::SimTime::from_secs(5);
        cfg.n_clients = 6;
        cfg.n_collateral_clients = 4;
        [
            Scheme::None,
            Scheme::Ingress {
                fraction: 0.2,
                placement: dtcs::mitigation::Placement::TopDegree,
            },
        ]
        .into_iter()
        .map(|scheme| {
            let cell_cfg = cfg.clone();
            SweepCell {
                experiment: "e2",
                scenario: format!("tiny/scheme={}", scheme.label()),
                base_seed: cell_cfg.seed,
                run: Box::new(move |seed| {
                    let mut cfg = cell_cfg.clone();
                    cfg.seed = seed;
                    let out = run_scenario(&cfg, &scheme);
                    CellRun {
                        metrics: crate::e2::outcome_metrics(&out.row),
                        stats: out.stats,
                    }
                }),
            }
        })
        .collect()
    }

    #[test]
    fn metric_summary_statistics() {
        let m = summarize_metric(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.n, 4);
        assert!((m.mean - 2.5).abs() < 1e-12);
        assert!((m.stddev - 1.2909944487358056).abs() < 1e-12);
        assert!((m.ci95 - 1.96 * m.stddev / 2.0).abs() < 1e-12);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 4.0);
        let single = summarize_metric(&[7.0]).unwrap();
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.ci95, 0.0);
        assert!(summarize_metric(&[]).is_none());
    }

    /// A report is valid JSON whatever the metrics hold: the in-tree
    /// parser reads it back, and a non-finite summary is `null`.
    #[test]
    fn json_writer_emits_valid_floats() {
        let summary = |mean: f64| MetricSummary {
            n: 1,
            mean,
            stddev: 0.0,
            ci95: 0.0,
            min: mean,
            max: mean,
        };
        let report = SweepReport {
            id: "toy".into(),
            replicates: 1,
            cells: vec![SweepCellReport {
                experiment: "toy".into(),
                scenario: "a\"b".into(),
                base_seed: 7,
                metrics: [
                    ("inf".to_string(), summary(f64::INFINITY)),
                    ("x".to_string(), summary(1e-9)),
                ]
                .into_iter()
                .collect(),
            }],
        };
        let v = dtcs::netsim::json::parse(&report.to_json()).expect("valid JSON");
        let cell = &v["cells"][0];
        assert_eq!(cell["scenario"].as_str(), Some("a\"b"));
        assert_eq!(cell["metrics"]["inf"]["mean"], Json::Null);
        assert_eq!(cell["metrics"]["x"]["mean"].as_f64(), Some(1e-9));
    }
}
