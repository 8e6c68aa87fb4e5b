//! Counter tables and the unified metrics registry (DESIGN.md §6.4).
//!
//! Every scalar counter of a statistics struct is declared once, as a row
//! of its [`counters!`](crate::counters) table; the field, its merge arm
//! and its [`Counter`] row all come from that row. A [`MetricsSnapshot`]
//! collects the [`Stats`] table — wheel/route health, control-plane fault
//! counters, fluid-layer counters — plus any caller-appended table (e.g.
//! the `control` crate's `CpStats`) into one fixed-order registry
//! exportable as deterministic JSON and Prometheus text exposition. The
//! snapshot is observation-only and never feeds golden report JSON.

use std::fmt::{self, Write as _};

use crate::stats::{ClassCounters, Stats};

/// How a counter folds when two runs' statistics merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeRule {
    /// Totals add.
    Sum,
    /// High-water marks keep the worst shard.
    Max,
}

impl MergeRule {
    /// Fold `b` into `a`. Both rules commute and associate with 0 as the
    /// identity, which is what makes `merge` independent of shard order.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            MergeRule::Sum => a + b,
            MergeRule::Max => a.max(b),
        }
    }
}

/// One row of a struct's [`counters!`](crate::counters) table: everything
/// known about a scalar counter of `S`, declared once.
pub struct Counter<S> {
    /// Metric name: the table's prefix followed by the field name.
    pub name: &'static str,
    /// How the field merges.
    pub rule: MergeRule,
    /// One-line help: the field's doc and the Prometheus `# HELP` text.
    pub help: &'static str,
    /// Read the field.
    pub get: fn(&S) -> u64,
    /// Borrow the field mutably.
    pub get_mut: fn(&mut S) -> &mut u64,
}

/// Declare a statistics struct whose scalar `u64` counters are written
/// once: each row of the `counters` table gives the field name, its
/// [`MergeRule`] and its help line. From the table come the `pub` field
/// (documented by the help line), its arm of `merge`, and its
/// [`Counter`] row in `Self::COUNTERS` — which is what
/// [`MetricsSnapshot::push_table`] exports and what tests iterate.
/// Non-scalar fields are listed in the struct body with the function
/// that merges them, so no field of either kind can be added without
/// saying how it merges. The literal after `counters` prefixes every
/// metric name.
#[macro_export]
macro_rules! counters {
    (
        $(#[$sm:meta])*
        pub struct $S:ident {
            $( $(#[$fm:meta])* pub $f:ident: $ft:ty = $fmerge:path, )*
        }
        counters $prefix:literal {
            $( $(#[$cm:meta])* $c:ident: $rule:ident $help:literal, )*
        }
    ) => {
        $(#[$sm])*
        pub struct $S {
            $( $(#[$fm])* pub $f: $ft, )*
            $( #[doc = $help] #[doc = ""] $(#[$cm])* pub $c: u64, )*
        }

        impl $S {
            /// Every scalar counter of the struct, in declaration order.
            pub const COUNTERS: &'static [$crate::metrics::Counter<$S>] = &[$(
                $crate::metrics::Counter {
                    name: concat!($prefix, stringify!($c)),
                    rule: $crate::metrics::MergeRule::$rule,
                    help: $help,
                    get: |s| s.$c,
                    get_mut: |s| &mut s.$c,
                },
            )*];

            /// Fold another run's value into this one, every field by the
            /// rule declared beside it.
            pub fn merge(&mut self, other: &$S) {
                $( $fmerge(&mut self.$f, &other.$f); )*
                $( self.$c = $crate::metrics::MergeRule::$rule.apply(self.$c, other.$c); )*
            }
        }
    };
}

/// A single metric value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Instantaneous or derived value.
    Gauge(f64),
}

/// The one way a value prints, in JSON and in Prometheus text alike.
impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Counter(v) => write!(f, "{v}"),
            // {:?} prints the shortest representation that round-trips,
            // and always includes a decimal point or exponent so the JSON
            // type stays visibly float.
            MetricValue::Gauge(v) => write!(f, "{v:?}"),
        }
    }
}

/// One named metric with a help string.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricEntry {
    /// Metric name (`snake_case`, no prefix; exporters add `dtcs_`).
    pub name: &'static str,
    /// The value.
    pub value: MetricValue,
    /// One-line help text for the Prometheus exposition.
    pub help: &'static str,
}

/// Fixed-order registry of metrics captured at one instant.
///
/// Order is insertion order and [`MetricsSnapshot::from_stats`] inserts
/// in [`Stats`] table order, so two snapshots of equal state serialise
/// byte-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Snapshot the three all-class packet totals, then every scalar
    /// counter of `stats` in table order, with the derived wheel cascade
    /// rate right after the counter it divides.
    pub fn from_stats(stats: &Stats) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        let mut all = ClassCounters::default();
        for c in &stats.per_class {
            all.merge(c);
        }
        s.push_counter(
            "packets_sent",
            all.sent_pkts,
            "Packets emitted, all classes",
        );
        s.push_counter(
            "packets_delivered",
            all.delivered_pkts,
            "Packets delivered to an application, all classes",
        );
        s.push_counter(
            "packets_dropped",
            all.dropped_pkts,
            "Packets dropped, all classes",
        );
        s.push_table(Stats::COUNTERS, stats);
        let moves = s
            .entries
            .iter()
            .position(|e| e.name == "wheel_cascade_moves");
        s.entries.insert(
            moves.expect("declared in the Stats table") + 1,
            MetricEntry {
                name: "wheel_cascades_per_event",
                value: MetricValue::Gauge(stats.wheel_cascades_per_event()),
                help: "Mean cascade refiles per processed event",
            },
        );
        s
    }

    /// Append every counter of `table`, read from `s`, in table order.
    pub fn push_table<S>(&mut self, table: &[Counter<S>], s: &S) {
        for c in table {
            self.push_counter(c.name, (c.get)(s), c.help);
        }
    }

    /// Append a counter.
    pub fn push_counter(&mut self, name: &'static str, v: u64, help: &'static str) {
        self.entries.push(MetricEntry {
            name,
            value: MetricValue::Counter(v),
            help,
        });
    }

    /// Append a gauge.
    pub fn push_gauge(&mut self, name: &'static str, v: f64, help: &'static str) {
        self.entries.push(MetricEntry {
            name,
            value: MetricValue::Gauge(v),
            help,
        });
    }

    /// All entries, insertion order.
    pub fn entries(&self) -> &[MetricEntry] {
        &self.entries
    }

    /// Look up a metric's value as `f64` (counters widen losslessly up to
    /// 2^53). None if no entry has that name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| match e.value {
                MetricValue::Counter(v) => v as f64,
                MetricValue::Gauge(v) => v,
            })
    }

    /// Serialise as one fixed-order JSON object. Counters emit as
    /// integers; gauges emit with enough digits to round-trip.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 32 + 2);
        out.push('{');
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", e.name, e.value);
        }
        out.push('}');
        out
    }

    /// Serialise in Prometheus text exposition format, `dtcs_`-prefixed,
    /// with `# HELP`/`# TYPE` headers per metric.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 96);
        for e in &self.entries {
            let kind = match e.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
            };
            let _ = writeln!(out, "# HELP dtcs_{} {}", e.name, e.help);
            let _ = writeln!(out, "# TYPE dtcs_{} {kind}", e.name);
            let _ = writeln!(out, "dtcs_{} {}", e.name, e.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_stats_is_fixed_order_and_deterministic() {
        let mut st = Stats::new();
        st.events = 42;
        st.cp_msgs = 7;
        st.wheel_cascade_moves = 21;
        let a = MetricsSnapshot::from_stats(&st);
        let b = MetricsSnapshot::from_stats(&st);
        assert_eq!(a.to_json_string(), b.to_json_string());
        let json = a.to_json_string();
        // Counters serialize as integers, in Stats declaration order.
        let ev = json.find("\"events\":42").expect("events present");
        let cp = json.find("\"cp_msgs\":7").expect("cp_msgs present");
        assert!(ev < cp, "fixed field order follows Stats declaration");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(a.get("events"), Some(42.0));
        assert_eq!(a.get("wheel_cascades_per_event"), Some(0.5));
        assert_eq!(a.get("missing"), None);
    }

    /// The registry's names, order, help wording and number formatting as
    /// captured at the commit before the counter tables existed: a table
    /// edit that renames, reorders or rewords a metric fails here.
    #[test]
    fn default_snapshot_bytes_are_pinned() {
        let s = MetricsSnapshot::from_stats(&Stats::default());
        assert_eq!(
            s.to_json_string(),
            include_str!("../tests/golden/metrics_default.json")
        );
        assert_eq!(
            s.to_prometheus(),
            include_str!("../tests/golden/metrics_default.prom")
        );
    }

    #[test]
    fn appended_counters_extend_the_registry() {
        let mut s = MetricsSnapshot::from_stats(&Stats::new());
        let base = s.entries().len();
        s.push_counter("cp_retransmits", 3, "Messages retransmitted");
        assert_eq!(s.entries().len(), base + 1);
        assert_eq!(s.get("cp_retransmits"), Some(3.0));
        assert!(s.to_json_string().ends_with("\"cp_retransmits\":3}"));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut s = MetricsSnapshot::new();
        s.push_counter("cp_msgs", 9, "Control messages pushed");
        s.push_gauge("rate", 0.25, "A rate");
        let text = s.to_prometheus();
        assert!(text.contains("# HELP dtcs_cp_msgs Control messages pushed\n"));
        assert!(text.contains("# TYPE dtcs_cp_msgs counter\n"));
        assert!(text.contains("\ndtcs_cp_msgs 9\n") || text.starts_with("# HELP"));
        assert!(text.contains("dtcs_cp_msgs 9\n"));
        assert!(text.contains("# TYPE dtcs_rate gauge\n"));
        assert!(text.contains("dtcs_rate 0.25\n"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn gauges_round_trip_through_json() {
        let mut s = MetricsSnapshot::new();
        s.push_gauge("g", 1.0 / 3.0, "a third");
        let json = s.to_json_string();
        // {:?} on f64 prints the shortest round-tripping decimal, so the
        // emitted text parses back to the exact same bits.
        assert_eq!(json, format!("{{\"g\":{:?}}}", 1.0 / 3.0));
        let text: f64 = json
            .trim_start_matches("{\"g\":")
            .trim_end_matches('}')
            .parse()
            .unwrap();
        assert_eq!(text, 1.0 / 3.0);
    }
}
