//! `trace-report` — the control-plane convergence-attribution analyzer
//! (DESIGN.md §6.4).
//!
//! Reads a `--cp-trace` JSONL flight record, reconstructs each control
//! transaction's causal timeline from its `(origin, txn)`-keyed events,
//! and answers two questions the raw event stream cannot:
//!
//! 1. **Did every transaction finish?** Any keyed group that contains a
//!    `send` but no `terminal` event is a protocol bug (a transaction the
//!    retry/reconcile machinery silently lost), and the analyzer
//!    hard-fails — exit code 1 — naming the offenders. CI runs this gate
//!    over a 20%-loss E13 trace.
//! 2. **Where did the convergence time go?** The window from the first
//!    `send` to the last `terminal` that is not a refresh round's is
//!    partitioned into
//!    inter-event gaps, each attributed to the *event that ends it*:
//!    a gap closed by a drop verdict was spent losing that message, a
//!    gap closed by a retry fire was spent waiting out the backoff that
//!    the preceding verdict made necessary, and so on. The gaps
//!    telescope, so the buckets sum to the window **exactly** — 100% of
//!    E13's time-to-coverage is attributed, with nothing double-counted.
//!
//! The JSONL schema is the control stream's event table
//! ([`dtcs::netsim::CpTraceEvent`]); every line goes through the table's
//! own `check_line` before the analyzer looks at it, so the analyzer
//! doubles as the schema check.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;

use dtcs::device::RECONCILE_TXN;
use dtcs::netsim::json::Json;
use dtcs::netsim::{CpState, CpTraceEvent, CpVerdict};

/// The reconcile pseudo-transaction: the NMS's refreshes and repairs key
/// to `(0, RECONCILE_TXN)`. Its `terminal` events recur at every refresh
/// round for the whole run — repair by repetition — so the convergence
/// window must end at the last *non*-reconcile terminal, not simply the
/// last one.
pub const RECONCILE_KEY: (u64, u64) = (0, RECONCILE_TXN);

/// What the analyzer reads of one checked line; field names are the wire
/// names. Everything but `t` and `kind` is absent on kinds without it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ev {
    /// Timestamp (ns).
    pub t: u64,
    /// Event kind tag (`"send"`, `"verdict"`, …).
    pub kind: String,
    /// Transaction origin.
    pub origin: Option<u64>,
    /// Transaction id.
    pub txn: Option<u64>,
    /// Outage / partition / crash window index.
    pub window: Option<u64>,
    /// Verdict or terminal outcome.
    pub outcome: Option<String>,
    /// State entered.
    pub state: Option<String>,
}

impl Ev {
    /// The `(origin, txn)` transaction identity, when keyed.
    pub fn key(&self) -> Option<(u64, u64)> {
        self.origin.zip(self.txn)
    }
}

/// Check one JSONL line against the control stream's table
/// ([`CpTraceEvent::check_line`]: unknown kinds, unknown, missing or
/// mistyped fields and words outside their set are all errors) and keep
/// what the analyzer reads.
pub fn parse_line(line: &str) -> Result<Ev, String> {
    let Json::Object(fields) = CpTraceEvent::check_line(line)? else {
        unreachable!("check_line returns the object it checked");
    };
    let mut ev = Ev::default();
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("t", Json::U64(n)) => ev.t = n,
            ("kind", Json::Str(s)) => ev.kind = s,
            ("origin", Json::U64(n)) => ev.origin = Some(n),
            ("txn", Json::U64(n)) => ev.txn = Some(n),
            ("window", Json::U64(n)) => ev.window = Some(n),
            ("outcome", Json::Str(s)) => ev.outcome = Some(s),
            ("state", Json::Str(s)) => ev.state = Some(s),
            _ => {}
        }
    }
    Ok(ev)
}

/// Attribution bucket names, in report order. Every nanosecond of the
/// convergence window lands in exactly one.
pub const BUCKETS: [&str; 7] = [
    "baseline_protocol",
    "channel_loss",
    "dup_suppression",
    "nms_outage",
    "partition_loss",
    "device_crash_reconcile",
    "retry_backoff_idle",
];

/// The analyzer's findings over one trace.
#[derive(Debug)]
pub struct Analysis {
    /// Total events parsed.
    pub events: usize,
    /// Keyed `(origin, txn)` groups containing at least one send.
    pub groups: usize,
    /// Final terminal outcome per group, tallied.
    pub outcomes: BTreeMap<String, usize>,
    /// Convergence window start (ns): the first send.
    pub t0: u64,
    /// Convergence window end (ns): the last terminal not a refresh
    /// round's.
    pub t1: u64,
    /// Nanoseconds attributed per bucket; sums to `t1 - t0` exactly.
    pub buckets: BTreeMap<&'static str, u64>,
}

impl Analysis {
    /// The attributed window, ns.
    pub fn window_ns(&self) -> u64 {
        self.t1.saturating_sub(self.t0)
    }
}

/// Analyze a parsed event stream (file order == chronological order:
/// the recorder is fed by a single-threaded deterministic simulator).
pub fn analyze(evs: &[Ev]) -> Result<Analysis, String> {
    // -- Pass 1: terminal gate + window + crash-window inventory --------
    let mut sends = 0u64;
    let mut verdicts = 0u64;
    let mut group_send: HashSet<(u64, u64)> = HashSet::new();
    let mut group_terminal: HashMap<(u64, u64), String> = HashMap::new();
    let mut crash_windows: HashSet<u64> = HashSet::new();
    let (mut t0, mut t1) = (None::<u64>, None::<u64>);
    for ev in evs {
        match ev.kind.as_str() {
            "send" => {
                sends += 1;
                if t0.is_none() {
                    t0 = Some(ev.t);
                }
                if let Some(k) = ev.key() {
                    group_send.insert(k);
                }
            }
            "verdict" => verdicts += 1,
            "crash" => {
                if let Some(w) = ev.window {
                    crash_windows.insert(w);
                }
            }
            "terminal" => {
                let k = ev.key().expect("validated terminal is keyed");
                group_terminal.insert(k, ev.outcome.clone().expect("validated"));
                if k != RECONCILE_KEY {
                    t1 = Some(ev.t);
                }
            }
            _ => {}
        }
    }
    if sends != verdicts {
        return Err(format!(
            "unbalanced funnel: {sends} sends but {verdicts} verdicts — \
             the channel must rule on every message exactly once"
        ));
    }
    let unterminated: Vec<(u64, u64)> = group_send
        .iter()
        .filter(|k| !group_terminal.contains_key(*k))
        .copied()
        .collect();
    if !unterminated.is_empty() {
        let mut sorted = unterminated;
        sorted.sort_unstable();
        return Err(format!(
            "{} transaction(s) have sends but no terminal outcome: {:?}{}",
            sorted.len(),
            &sorted[..sorted.len().min(8)],
            if sorted.len() > 8 { " …" } else { "" },
        ));
    }
    let t0 = t0.ok_or("trace contains no send events")?;
    let t1 = t1.unwrap_or(t0); // refresh rounds only: empty window

    // -- Pass 2: gap-partition attribution over [t0, t1] ----------------
    let mut buckets: BTreeMap<&'static str, u64> = BUCKETS.iter().map(|&b| (b, 0u64)).collect();
    // The bucket whatever swallowed a message is charged to; `None` for a
    // delivery. Kept per transaction for its most recent verdict — the
    // context a later retry's gap is attributed by.
    let loss = |ev: &Ev| match ev.outcome.as_deref() {
        Some(CpVerdict::DROP) => Some("channel_loss"),
        Some(CpVerdict::OUTAGE) if ev.window.is_some_and(|w| crash_windows.contains(&w)) => {
            Some("device_crash_reconcile")
        }
        Some(CpVerdict::OUTAGE) => Some("nms_outage"),
        Some(CpVerdict::PARTITION) => Some("partition_loss"),
        _ => None,
    };
    let mut last_loss: HashMap<(u64, u64), Option<&'static str>> = HashMap::new();
    let mut prev_t = t0;
    for ev in evs {
        let bucket = match ev.kind.as_str() {
            "verdict" => {
                // Bookkeeping runs over every event, attribution (below)
                // only in-window.
                let loss = loss(ev);
                if let Some(k) = ev.key() {
                    last_loss.insert(k, loss);
                }
                loss.unwrap_or("baseline_protocol")
            }
            "dedup_hit" => "dup_suppression",
            // After a delivery (dup in flight) or with no verdict known,
            // the timer itself was the wait — pure backoff idling.
            "retry_fire" | "retry_give_up" => ev
                .key()
                .and_then(|k| last_loss.get(&k).copied().flatten())
                .unwrap_or("retry_backoff_idle"),
            // A round's `sweep` is the protocol's cadence, not a crash's.
            "crash" => "device_crash_reconcile",
            "state" if ev.state.as_deref() == Some(CpState::Reinstall.word()) => {
                "device_crash_reconcile"
            }
            _ => "baseline_protocol",
        };
        if ev.t > prev_t && ev.t <= t1 {
            *buckets.get_mut(bucket).expect("known bucket") += ev.t - prev_t;
            prev_t = ev.t;
        }
    }

    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    for (k, outcome) in &group_terminal {
        if group_send.contains(k) {
            *outcomes.entry(outcome.clone()).or_insert(0) += 1;
        }
    }
    Ok(Analysis {
        events: evs.len(),
        groups: group_send.len(),
        outcomes,
        t0,
        t1,
        buckets,
    })
}

/// Render the analysis as the human report printed by `trace-report`.
pub fn render(path: &Path, a: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace-report: {}", path.display());
    let _ = writeln!(
        out,
        "  {} events, {} keyed transactions, all terminated",
        a.events, a.groups
    );
    let _ = write!(out, "  terminal outcomes:");
    for (outcome, n) in &a.outcomes {
        let _ = write!(out, " {outcome}={n}");
    }
    out.push('\n');
    let window = a.window_ns();
    let _ = writeln!(
        out,
        "  convergence window: {:.3} ms -> {:.3} ms (Δ = {:.3} ms)",
        a.t0 as f64 / 1e6,
        a.t1 as f64 / 1e6,
        window as f64 / 1e6
    );
    let _ = writeln!(out, "  attribution (gap-partition, ends-of-gap rule):");
    let mut total = 0u64;
    for &b in &BUCKETS {
        let ns = a.buckets[b];
        total += ns;
        let pct = if window == 0 {
            0.0
        } else {
            ns as f64 / window as f64 * 100.0
        };
        let _ = writeln!(out, "    {b:<24} {:>12.3} ms  {pct:>5.1}%", ns as f64 / 1e6);
    }
    let _ = writeln!(
        out,
        "  attributed {:.1}% of the window ({total} of {window} ns)",
        if window == 0 {
            100.0
        } else {
            total as f64 / window as f64 * 100.0
        }
    );
    out
}

/// Run the analyzer over `path`, print the report (or the failure),
/// and return the process exit code: 0 on success, 1 when the trace
/// fails a gate (unterminated transaction, unbalanced funnel, schema
/// violation), 2 when the file cannot be read.
pub fn run(path: &Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-report: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let mut evs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_line(line) {
            Ok(ev) => evs.push(ev),
            Err(e) => {
                eprintln!("trace-report: {}:{}: {e}", path.display(), i + 1);
                return 1;
            }
        }
    }
    match analyze(&evs) {
        Ok(a) => {
            // The buckets telescope over the window; a mismatch here is
            // an analyzer bug, not a trace property.
            debug_assert_eq!(a.buckets.values().sum::<u64>(), a.window_ns());
            print!("{}", render(path, &a));
            0
        }
        Err(e) => {
            eprintln!("trace-report: {}: {e}", path.display());
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(line: &str) -> Ev {
        parse_line(line).expect(line)
    }

    #[test]
    fn parses_every_wire_shape() {
        let e = ev("{\"t\":5,\"kind\":\"send\",\"origin\":43521,\"txn\":9,\
             \"attempt\":2,\"mkind\":5,\"from\":1,\"to\":4}");
        assert_eq!(e.key(), Some((43521, 9)));
        assert_eq!((e.t, e.kind.as_str()), (5, "send"));
        let e = ev("{\"t\":6,\"kind\":\"send\",\"from\":2,\"to\":3}");
        assert_eq!(e.key(), None);
        let e = ev("{\"t\":7,\"kind\":\"verdict\",\"from\":2,\"to\":3,\
             \"outcome\":\"deliver\",\"deliver\":1000,\"jitter\":30,\"dup_extra\":12}");
        assert_eq!(e.outcome.as_deref(), Some("deliver"));
        let e = ev("{\"t\":7,\"kind\":\"verdict\",\"from\":2,\"to\":3,\
             \"outcome\":\"partition\",\"window\":2}");
        assert_eq!(e.window, Some(2));
        ev("{\"t\":8,\"kind\":\"crash\",\"node\":5,\"window\":3}");
        ev("{\"t\":9,\"kind\":\"sweep\",\"node\":1}");
        let e = ev("{\"t\":11,\"kind\":\"dedup_hit\",\"origin\":1,\"txn\":2,\
             \"mkind\":5,\"node\":3,\"response\":true}");
        assert_eq!(e.key(), Some((1, 2)));
        let e = ev(
            "{\"t\":12,\"kind\":\"state\",\"origin\":1,\"txn\":2,\"node\":3,\
             \"actor\":\"nms\",\"state\":\"reinstall\"}",
        );
        assert_eq!(e.state.as_deref(), Some("reinstall"));
        ev("{\"t\":13,\"kind\":\"terminal\",\"origin\":1,\"txn\":2,\
             \"node\":3,\"outcome\":\"confirmed\"}");
    }

    #[test]
    fn rejects_schema_violations() {
        assert!(parse_line("not json").is_err());
        assert!(
            parse_line("{\"kind\":\"sweep\",\"node\":1}").is_err(),
            "missing t"
        );
        assert!(
            parse_line("{\"t\":1,\"kind\":\"nope\"}").is_err(),
            "unknown kind"
        );
        assert!(
            parse_line("{\"t\":1,\"kind\":\"sweep\",\"bogus\":2,\"node\":1}").is_err(),
            "unknown field"
        );
        assert!(
            parse_line("{\"t\":1,\"kind\":\"terminal\",\"origin\":1,\"txn\":2,\"node\":3}")
                .is_err(),
            "terminal without outcome"
        );
        assert!(
            parse_line("{\"t\":1,\"kind\":\"verdict\",\"from\":0,\"to\":1,\"outcome\":\"maybe\"}")
                .is_err(),
            "unknown verdict outcome"
        );
        assert!(
            parse_line(
                "{\"t\":1,\"kind\":\"verdict\",\"from\":0,\"to\":1,\"outcome\":\"partition\"}"
            )
            .is_err(),
            "partition verdict without its window index"
        );
    }

    /// Terse builders for synthetic streams.
    fn send(t: u64, origin: u64, txn: u64) -> Ev {
        ev(&format!(
            "{{\"t\":{t},\"kind\":\"send\",\"origin\":{origin},\"txn\":{txn},\
             \"attempt\":0,\"mkind\":1,\"from\":0,\"to\":1}}"
        ))
    }
    fn verdict(t: u64, origin: u64, txn: u64, outcome: &str) -> Ev {
        let extra = if outcome == "deliver" {
            ",\"deliver\":0,\"jitter\":0"
        } else {
            ""
        };
        ev(&format!(
            "{{\"t\":{t},\"kind\":\"verdict\",\"origin\":{origin},\"txn\":{txn},\
             \"attempt\":0,\"mkind\":1,\"from\":0,\"to\":1,\"outcome\":\"{outcome}\"{extra}}}"
        ))
    }
    fn fire(t: u64, origin: u64, txn: u64) -> Ev {
        ev(&format!(
            "{{\"t\":{t},\"kind\":\"retry_fire\",\"origin\":{origin},\"txn\":{txn},\
             \"attempt\":1,\"node\":0,\"dest\":1}}"
        ))
    }
    fn terminal(t: u64, origin: u64, txn: u64, outcome: &str) -> Ev {
        ev(&format!(
            "{{\"t\":{t},\"kind\":\"terminal\",\"origin\":{origin},\"txn\":{txn},\
             \"node\":1,\"outcome\":\"{outcome}\"}}"
        ))
    }

    #[test]
    fn unterminated_transaction_fails_the_gate() {
        let evs = vec![send(10, 7, 1), verdict(10, 7, 1, "deliver")];
        let err = analyze(&evs).unwrap_err();
        assert!(err.contains("no terminal outcome"), "{err}");
        assert!(err.contains("(7, 1)"), "{err}");
    }

    #[test]
    fn unbalanced_funnel_fails_the_gate() {
        let evs = vec![send(10, 7, 1), terminal(20, 7, 1, "confirmed")];
        let err = analyze(&evs).unwrap_err();
        assert!(err.contains("unbalanced funnel"), "{err}");
    }

    #[test]
    fn gap_attribution_telescopes_to_the_exact_window() {
        // 10 → 40: drop verdict ends 30 ns of loss; 40 → 100: retry fire
        // after a drop ends 60 ns of loss; 100 → 130: deliver verdict is
        // baseline; 130 → 200: terminal is baseline. Window = 190.
        let evs = vec![
            send(10, 7, 1),
            verdict(40, 7, 1, "drop"),
            fire(100, 7, 1),
            send(100, 7, 1),
            verdict(100, 7, 1, "deliver"),
            // Late reconcile terminals must not stretch the window.
            terminal(130, RECONCILE_KEY.0, RECONCILE_KEY.1, "renewed"),
            terminal(200, 7, 1, "confirmed"),
            terminal(5000, RECONCILE_KEY.0, RECONCILE_KEY.1, "renewed"),
        ];
        let a = analyze(&evs).unwrap();
        assert_eq!((a.t0, a.t1), (10, 200));
        assert_eq!(a.window_ns(), 190);
        assert_eq!(a.buckets.values().sum::<u64>(), 190, "exact attribution");
        assert_eq!(a.buckets["channel_loss"], 30 + 60);
        // deliver verdict gap (0: same t as fire… 100→100) + 130-gap
        // (reconcile terminal = baseline) + 200-gap (keyed terminal).
        assert_eq!(a.buckets["baseline_protocol"], 30 + 70);
        assert_eq!(a.buckets["retry_backoff_idle"], 0);
        assert_eq!(a.outcomes.get("confirmed"), Some(&1));
        assert_eq!(a.groups, 1, "reconcile key never sent, not a group");
    }

    #[test]
    fn renewal_rounds_after_the_last_transaction_end_no_window() {
        // Refresh rounds recur until the horizon: a `renewed` terminal
        // after the last withdraw terminal leaves the window where that
        // withdrawal ended it.
        let evs = vec![
            send(10, 7, 1),
            verdict(10, 7, 1, "deliver"),
            terminal(50, 7, 1, "withdrawn"),
            send(60, RECONCILE_KEY.0, RECONCILE_KEY.1),
            verdict(60, RECONCILE_KEY.0, RECONCILE_KEY.1, "deliver"),
            terminal(60, RECONCILE_KEY.0, RECONCILE_KEY.1, "renewed"),
            terminal(9000, RECONCILE_KEY.0, RECONCILE_KEY.1, "renewed"),
        ];
        let a = analyze(&evs).unwrap();
        assert_eq!((a.t0, a.t1), (10, 50));
        assert_eq!(a.buckets.values().sum::<u64>(), 40, "exact attribution");
        assert_eq!(a.outcomes.get("renewed"), Some(&1), "one key, one outcome");
    }

    #[test]
    fn retry_after_deliver_is_backoff_idle_and_crash_outages_classify() {
        let evs = vec![
            ev("{\"t\":5,\"kind\":\"crash\",\"node\":9,\"window\":3}"),
            send(10, 7, 1),
            verdict(10, 7, 1, "deliver"),
            fire(60, 7, 1), // last verdict delivered → pure backoff idle
            send(60, 7, 1),
            ev("{\"t\":80,\"kind\":\"verdict\",\"origin\":7,\"txn\":1,\
                 \"attempt\":1,\"mkind\":1,\"from\":0,\"to\":1,\
                 \"outcome\":\"outage\",\"window\":3}"),
            fire(140, 7, 1), // last verdict: crash-window outage
            send(140, 7, 1),
            verdict(140, 7, 1, "deliver"),
            terminal(150, 7, 1, "confirmed"),
        ];
        let a = analyze(&evs).unwrap();
        assert_eq!(a.window_ns(), 140);
        assert_eq!(a.buckets.values().sum::<u64>(), 140);
        assert_eq!(a.buckets["retry_backoff_idle"], 50);
        // outage verdict gap (20) + retry after crash outage (60).
        assert_eq!(a.buckets["device_crash_reconcile"], 20 + 60);
        assert_eq!(a.buckets["nms_outage"], 0);
        assert_eq!(a.buckets["baseline_protocol"], 10);
    }

    #[test]
    fn refresh_rounds_without_a_crash_are_baseline() {
        // A round's `sweep` event ends the idle gap before it: with no
        // crash in the trace, none of the window is crash repair.
        let evs = vec![
            send(10, 7, 1),
            verdict(10, 7, 1, "deliver"),
            ev("{\"t\":2000,\"kind\":\"sweep\",\"node\":0}"),
            ev("{\"t\":4000,\"kind\":\"sweep\",\"node\":0}"),
            terminal(4500, 7, 1, "withdrawn"),
        ];
        let a = analyze(&evs).unwrap();
        assert_eq!(a.window_ns(), 4490);
        assert_eq!(a.buckets["baseline_protocol"], 4490);
        assert_eq!(a.buckets["device_crash_reconcile"], 0);
    }

    #[test]
    fn partition_swallows_attribute_to_partition_loss() {
        // A partition verdict ends its gap in partition_loss, and the
        // retry fired to repair it inherits the same attribution —
        // time lost to a cut is charged to the cut, not to backoff.
        let evs = vec![
            send(10, 7, 1),
            ev("{\"t\":40,\"kind\":\"verdict\",\"origin\":7,\"txn\":1,\
                 \"attempt\":0,\"mkind\":1,\"from\":0,\"to\":1,\
                 \"outcome\":\"partition\",\"window\":0}"),
            fire(100, 7, 1), // last verdict: partition → still the cut's fault
            send(100, 7, 1),
            verdict(100, 7, 1, "deliver"),
            terminal(150, 7, 1, "confirmed"),
        ];
        let a = analyze(&evs).unwrap();
        assert_eq!(a.window_ns(), 140);
        assert_eq!(a.buckets.values().sum::<u64>(), 140, "exact attribution");
        assert_eq!(a.buckets["partition_loss"], 30 + 60);
        assert_eq!(a.buckets["baseline_protocol"], 50);
        assert_eq!(a.buckets["nms_outage"], 0, "a cut is not an outage");
    }

    #[test]
    fn withdrawal_terminals_satisfy_the_gate() {
        // The withdrawal/refresh vocabulary terminates its transactions
        // like any other: sends with a "withdrawn" / "renewed" terminal
        // pass the every-transaction-terminated gate and tally.
        let evs = vec![
            send(10, 7, 1),
            verdict(10, 7, 1, "deliver"),
            terminal(20, 7, 1, "withdrawn"),
            send(30, RECONCILE_KEY.0, RECONCILE_KEY.1),
            verdict(30, RECONCILE_KEY.0, RECONCILE_KEY.1, "deliver"),
            terminal(40, RECONCILE_KEY.0, RECONCILE_KEY.1, "renewed"),
        ];
        let a = analyze(&evs).unwrap();
        assert_eq!(a.groups, 2);
        assert_eq!(a.outcomes.get("withdrawn"), Some(&1));
        assert_eq!(a.outcomes.get("renewed"), Some(&1));
    }

    #[test]
    fn render_reports_full_attribution() {
        let evs = vec![
            send(0, 7, 1),
            verdict(0, 7, 1, "deliver"),
            terminal(1_000_000, 7, 1, "confirmed"),
        ];
        let a = analyze(&evs).unwrap();
        let text = render(Path::new("x.jsonl"), &a);
        assert!(text.contains("attributed 100.0% of the window"), "{text}");
        assert!(text.contains("confirmed=1"), "{text}");
        assert!(text.contains("baseline_protocol"), "{text}");
    }
}
