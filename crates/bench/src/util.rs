//! Experiment harness plumbing: reports, tables, JSON output.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use dtcs::netsim::json::{Json, ToJson};

use crate::sweep::Case;

/// One printable + serialisable table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Display rows.
    pub rows: Vec<Vec<String>>,
    /// Raw machine-readable rows.
    pub raw: Vec<Json>,
}

impl ToJson for Table {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("title", self.title.to_json()),
            ("header", self.header.to_json()),
            ("rows", self.rows.to_json()),
            ("raw", Json::Array(self.raw.clone())),
        ])
    }
}

impl Table {
    /// A table over raw records: each column is its header and the cell it
    /// shows for a record, listed together; each record is also kept as
    /// its machine-readable row.
    #[allow(clippy::type_complexity)]
    pub fn of<'a, T: ToJson + 'a>(
        title: impl Into<String>,
        rows: impl IntoIterator<Item = &'a T>,
        columns: &[(&str, &dyn Fn(&T) -> String)],
    ) -> Table {
        let (mut cells, mut raw) = (Vec::new(), Vec::new());
        for row in rows {
            cells.push(columns.iter().map(|(_, cell)| cell(row)).collect());
            raw.push(row.to_json());
        }
        Table {
            title: title.into(),
            header: columns.iter().map(|(h, _)| h.to_string()).collect(),
            rows: cells,
            raw,
        }
    }

    /// Print aligned.
    pub fn print(&self) {
        println!("\n--- {} ---", self.title);
        dtcs::print_table(&self.header, &self.rows);
    }
}

/// A table row whose raw record is `.0` alone: `.1` is context its
/// display cells show beside it.
pub struct With<R, C>(pub R, pub C);

impl<R: ToJson, C> ToJson for With<R, C> {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

/// A whole experiment's output.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id (e.g. "e3").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Paper anchor (section/figure the experiment reproduces).
    pub anchor: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Free-form observations recorded by the experiment.
    pub notes: Vec<String>,
    /// Engine-health lines (timing-wheel occupancy, cascade rates, route
    /// churn). Printed with the summary but **never serialised** — golden
    /// report JSON stays byte-identical whether or not health is recorded.
    pub health: Vec<String>,
}

/// Everything but [`Report::health`], in declaration order — the layout of
/// the committed `results/*.json`.
impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("id", self.id.to_json()),
            ("title", self.title.to_json()),
            ("anchor", self.anchor.to_json()),
            ("tables", self.tables.to_json()),
            ("notes", self.notes.to_json()),
        ])
    }
}

impl Report {
    /// New report.
    pub fn new(id: &str, title: &str, anchor: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            anchor: anchor.to_string(),
            tables: Vec::new(),
            notes: Vec::new(),
            health: Vec::new(),
        }
    }

    /// Attach a table.
    pub fn table(&mut self, t: Table) {
        self.tables.push(t);
    }

    /// Attach a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Attach a print-only engine-health line (see [`Report::health`]).
    pub fn health(&mut self, s: impl Into<String>) {
        self.health.push(s.into());
    }

    /// Print everything.
    pub fn print(&self) {
        println!("\n==================================================================");
        println!(
            "{}: {}   [{}]",
            self.id.to_uppercase(),
            self.title,
            self.anchor
        );
        println!("==================================================================");
        for t in &self.tables {
            t.print();
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        for h in &self.health {
            println!("health: {h}");
        }
    }

    /// Write `<dir>/<id>.json`.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        save(
            &dir.join(format!("{}.json", self.id)),
            &self.to_json().pretty(),
        )
    }
}

/// Write a report file and say so; an error names the path.
pub(crate) fn save(path: &Path, text: &str) -> io::Result<()> {
    let named =
        |e: io::Error| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()));
    fs::write(path, text).map_err(named)?;
    println!("[saved {}]", path.display());
    Ok(())
}

/// One-line timing-wheel health summary aggregated over simulator runs:
/// worst slot/queue high-water marks and the cascade rate (events refiled
/// from coarser wheel levels per processed event). A cascade rate near 0
/// means almost every event lands directly in a level-0 slot; sustained
/// growth flags a schedule horizon outgrowing the wheel's inner levels.
///
/// The runs' scalar counters fold by the rule each declares in the
/// [`dtcs::netsim::Stats`] table (DESIGN.md §6.4) — marks take the worst
/// run, totals add — so this print-only line cannot disagree with a sweep
/// aggregate or a `--cp-trace` metrics export on what a counter means.
pub fn wheel_health<'a>(runs: impl IntoIterator<Item = &'a dtcs::netsim::Stats>) -> String {
    let (mut all, mut n) = (dtcs::netsim::Stats::default(), 0usize);
    for s in runs {
        for c in dtcs::netsim::Stats::COUNTERS {
            let slot = (c.get_mut)(&mut all);
            *slot = c.rule.apply(*slot, (c.get)(s));
        }
        n += 1;
    }
    format!(
        "timing wheel over {n} runs: slot occupancy hwm {}, queue len hwm {}, \
         {} cascade moves across {} events ({:.4}/event), {} past-events clamped",
        all.wheel_slot_occupancy_hwm,
        all.wheel_len_hwm,
        all.wheel_cascade_moves,
        all.events,
        all.wheel_cascades_per_event(),
        all.past_events_clamped
    )
}

/// One-line latency-telemetry summary aggregated over simulator runs:
/// the three engine-maintained log2 histograms (per-hop queueing delay,
/// end-to-end delivery latency, delivered hop counts) merged and printed
/// as `n/mean/p50/p99/max`. Print-only — attach via [`Report::health`].
pub fn hist_health<'a>(runs: impl IntoIterator<Item = &'a dtcs::netsim::Stats>) -> String {
    let mut h = dtcs::netsim::TelemetryHistograms::default();
    let mut n = 0usize;
    for s in runs {
        h.merge(&s.hist);
        n += 1;
    }
    format!(
        "telemetry over {n} runs: queue_delay_ns[{}] e2e_latency_ns[{}] hops[{}]",
        h.queue_delay_ns.summary(),
        h.e2e_latency_ns.summary(),
        h.hop_count.summary()
    )
}

/// The unified metrics registry for a control-plane run: every scalar
/// engine counter from [`dtcs::netsim::Stats`] (wheel, route, `cp_*`
/// fault, fluid) plus the protocol-layer [`dtcs::control::CpStats`]
/// table appended under its `cp_` prefix, in fixed order. This is what
/// `--cp-trace` serialises to `<trace>.metrics.json` /`<trace>.prom`,
/// and the registry the flight-recorder reconciliation proptest balances
/// the event stream against.
pub fn control_metrics(
    stats: &dtcs::netsim::Stats,
    cp: &dtcs::control::CpStats,
) -> dtcs::netsim::MetricsSnapshot {
    let mut s = dtcs::netsim::MetricsSnapshot::from_stats(stats);
    s.push_table(dtcs::control::CpStats::COUNTERS, cp);
    s
}

/// A control-plane cell's table row plus the protocol-layer counters
/// its `--cp-trace` metrics snapshot needs.
pub type CpOutcome<R> = (R, dtcs::control::CpStats);

/// Shared-handle control-trace recorder for one designated cell run.
pub type CpTrace<'a> = Option<&'a Arc<Mutex<dtcs::netsim::CpFlightRecorder>>>;

/// `--cp-trace PATH`: replay the `traced` case with a full (1-in-1)
/// control recorder attached, write its JSONL flight record to
/// `PATH` and the run's [`control_metrics`] beside it as
/// `PATH.metrics.json` / `PATH.prom`, and say so in a health line.
/// Tracing observes without perturbing, so the replay is the grid's run
/// of that case, event for event, and the report is the same either way.
pub fn cp_trace_replay<P, R>(
    report: &mut Report,
    opts: &crate::RunOpts,
    traced: Option<&Case<P>>,
    run: impl FnOnce(&P, u64, CpTrace) -> (CpOutcome<R>, dtcs::netsim::Stats),
) {
    let Some(path) = &opts.cp_trace else { return };
    let case = traced.expect("the traced cell is in the grid");
    let rec = Arc::new(Mutex::new(dtcs::netsim::CpFlightRecorder::new(1 << 22)));
    let ((_, cp), stats) = run(&case.params, case.base_seed, Some(&rec));
    enforce_run_invariants(&format!("{}/cp-trace", report.id), &stats);
    let rec = rec.lock().expect("cp recorder mutex");
    let mut file = fs::File::create(path).expect("create cp trace file");
    rec.export_jsonl(&mut file).expect("write cp trace");
    let snap = control_metrics(&stats, &cp);
    let (json, prom) = (snap.to_json_string() + "\n", snap.to_prometheus());
    fs::write(format!("{}.metrics.json", path.display()), json).expect("write metrics");
    fs::write(format!("{}.prom", path.display()), prom).expect("write prometheus metrics");
    report.health(format!(
        "cp-trace: {} events recorded ({} evicted) from cell {} -> {}",
        rec.recorded(),
        rec.evicted(),
        case.scenario,
        path.display()
    ));
}

/// Hard-enforce the engine invariants every finished bench run must
/// satisfy: packet conservation (every sent packet is delivered, dropped,
/// or still in flight at cutoff) and a clean schedule (no event was ever
/// scheduled in the past and clamped). Violations are simulator bugs, not
/// experiment noise, so they abort the harness rather than skew a table.
pub fn enforce_run_invariants(context: &str, stats: &dtcs::netsim::Stats) {
    if let Err(e) = stats.check_conservation() {
        panic!("{context}: packet conservation violated: {e}");
    }
    assert_eq!(
        stats.past_events_clamped, 0,
        "{context}: {} event(s) were scheduled in the past and clamped",
        stats.past_events_clamped
    );
}

/// Format a float cell.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Format an optional float cell.
pub fn fopt(v: Option<f64>) -> String {
    match v {
        Some(v) => f(v),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_and_raw_stay_in_sync() {
        let records = [(1u64, 2u64), (3, 4)];
        let t = Table::of(
            "t",
            &records,
            &[("a", &|r| r.0.to_string()), ("b", &|r| r.1.to_string())],
        );
        assert_eq!(t.header, ["a", "b"]);
        assert_eq!(t.rows, [["1", "2"], ["3", "4"]]);
        assert_eq!(t.raw.len(), 2);
        assert_eq!(t.raw[1].to_string(), "[3,4]");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut r = Report::new("eX", "title", "Sec. 0");
        r.table(Table::of("t", &["v"], &[("k", &|v| v.to_string())]));
        r.note("a note");
        let v = dtcs::netsim::json::parse(&r.to_json().pretty()).unwrap();
        assert_eq!(v, r.to_json());
        assert_eq!(v["id"].as_str(), Some("eX"));
        assert_eq!(v["tables"][0]["rows"][0][0].as_str(), Some("v"));
        assert_eq!(v["tables"][0]["raw"][0].as_str(), Some("v"));
        assert_eq!(v["notes"][0].as_str(), Some("a note"));
    }

    #[test]
    fn health_lines_never_reach_the_json() {
        let mut r = Report::new("eX", "t", "a");
        r.health("timing wheel: hwm 3");
        let json = r.to_json().to_string();
        assert!(
            !json.contains("health"),
            "health must stay print-only so golden reports are unaffected: {json}"
        );
    }

    #[test]
    fn save_writes_json_file() {
        let dir = std::env::temp_dir().join("dtcs_bench_util_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dir");
        let r = Report::new("etest", "t", "a");
        r.save(&dir).expect("save");
        let content = std::fs::read_to_string(dir.join("etest.json")).unwrap();
        assert!(content.contains("\"etest\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What `--cp-trace` writes beside the trace: engine registry, then
    /// the `cp_`-prefixed protocol suffix, names, order and help pinned.
    #[test]
    fn default_control_metrics_bytes_are_pinned() {
        let s = control_metrics(&Default::default(), &Default::default());
        assert_eq!(
            s.to_json_string(),
            include_str!("../tests/golden/control_metrics_default.json")
        );
        assert_eq!(
            s.to_prometheus(),
            include_str!("../tests/golden/control_metrics_default.prom")
        );
    }

    #[test]
    fn control_metrics_appends_cp_registry_in_fixed_order() {
        let st = dtcs::netsim::Stats::new();
        let cp = dtcs::control::CpStats {
            retransmits: 2,
            reconcile_reinstalls: 5,
            expired_deploys: 9,
            ..Default::default()
        };
        let s = control_metrics(&st, &cp);
        assert_eq!(s.get("cp_retransmits"), Some(2.0));
        assert_eq!(s.get("cp_reconcile_reinstalls"), Some(5.0));
        assert_eq!(s.get("cp_lease_renewals"), Some(0.0));
        assert_eq!(s.get("cp_withdrawals"), Some(0.0));
        let json = s.to_json_string();
        // CpStats counters extend the engine registry, in declaration
        // order, with the protocol prefix.
        assert!(json.ends_with("\"cp_expired_deploys\":9}"), "{json}");
        let a = json.find("\"cp_msgs\":").expect("engine counter");
        let b = json.find("\"cp_retransmits\":").expect("protocol counter");
        assert!(a < b, "engine registry precedes the CpStats suffix");
        assert!(s
            .to_prometheus()
            .contains("# TYPE dtcs_cp_give_ups counter\n"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.5), "0.500");
        assert_eq!(f(1234.0), "1.234e3");
        assert_eq!(f(0.001), "1.000e-3");
        assert_eq!(fopt(None), "-");
        assert_eq!(fopt(Some(2.0)), "2.000");
    }
}
