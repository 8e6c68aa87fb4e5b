//! Outcome metrics: the serialisable rows the experiment harness prints.

use std::collections::BTreeMap;

use dtcs_netsim::{DropReason, Stats, TrafficClass};

dtcs_netsim::json_record! {
    /// One scheme's outcome under one scenario — the unit row of experiments
    /// E2/E4 (and, with different fields populated, most other experiments).
    #[derive(Clone, Debug)]
    pub struct OutcomeRow {
        /// Scheme label.
        pub scheme: String,
        /// Mean success ratio of legitimate clients of the victim.
        pub legit_success: f64,
        /// Mean success ratio of third-party clients using reflector-hosted
        /// services (collateral-damage metric).
        pub collateral_success: f64,
        /// Attack packets delivered anywhere / attack packets sent (both
        /// direct and reflected flavours).
        pub attack_delivered_ratio: f64,
        /// Reflected attack packets that reached the victim.
        pub reflected_delivered_to_victim: u64,
        /// Packets the victim host turned away for lack of capacity.
        pub victim_overloaded: u64,
        /// Attack packets the victim host absorbed (capacity consumed).
        pub victim_attack_absorbed: u64,
        /// Bandwidth consumed by attack traffic, byte·hops.
        pub attack_byte_hops: u64,
        /// Mean hop count from the true origin at which direct attack packets
        /// were dropped (stop distance; `None` when nothing was dropped).
        pub stop_distance: Option<f64>,
        /// Scheme-specific extras (trust relationships, deploy latency, …).
        pub extra: BTreeMap<String, f64>,
    }
}

impl OutcomeRow {
    /// Assemble the network-level part of a row from simulator stats.
    pub fn from_stats(scheme: &str, stats: &Stats) -> OutcomeRow {
        let direct = stats.class(TrafficClass::AttackDirect);
        let reflected = stats.class(TrafficClass::AttackReflected);
        let sent = direct.sent_pkts + reflected.sent_pkts;
        let delivered = direct.delivered_pkts + reflected.delivered_pkts;
        OutcomeRow {
            scheme: scheme.to_string(),
            legit_success: 1.0,
            collateral_success: 1.0,
            attack_delivered_ratio: if sent == 0 {
                0.0
            } else {
                delivered as f64 / sent as f64
            },
            reflected_delivered_to_victim: reflected.delivered_pkts,
            victim_overloaded: 0,
            victim_attack_absorbed: 0,
            attack_byte_hops: stats.attack_byte_hops(),
            stop_distance: stats.mean_stop_distance_all(TrafficClass::AttackDirect),
            extra: BTreeMap::new(),
        }
    }

    /// Attach an extra metric.
    pub fn with_extra(mut self, key: &str, value: f64) -> OutcomeRow {
        self.extra.insert(key.to_string(), value);
        self
    }

    /// Render as an aligned text table row (see [`print_table`]).
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.scheme.clone(),
            format!("{:.3}", self.legit_success),
            format!("{:.3}", self.collateral_success),
            format!("{:.3}", self.attack_delivered_ratio),
            format!("{}", self.reflected_delivered_to_victim),
            format!("{}", self.victim_overloaded),
            format!("{:.2e}", self.attack_byte_hops as f64),
            match self.stop_distance {
                Some(d) => format!("{d:.2}"),
                None => "-".to_string(),
            },
        ]
    }

    /// Header matching [`OutcomeRow::cells`].
    pub fn header() -> Vec<String> {
        [
            "scheme",
            "legit_ok",
            "collateral_ok",
            "attack_deliv",
            "refl@victim",
            "overload",
            "atk_byte_hops",
            "stop_dist",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

/// Print rows as an aligned plain-text table (experiment harness output).
pub fn print_table(header: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Fraction of drops by a given reason relative to sent packets of a class.
pub fn drop_fraction(stats: &Stats, class: TrafficClass, reason: DropReason) -> f64 {
    let sent = stats.class(class).sent_pkts;
    if sent == 0 {
        return 0.0;
    }
    stats
        .drops
        .get(&(class, reason))
        .map(|agg| agg.pkts as f64 / sent as f64)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{Addr, NodeId, PacketBuilder, Proto, SimTime};

    #[test]
    fn row_from_stats_computes_ratio() {
        let mut stats = Stats::new();
        let mk = |class| {
            PacketBuilder::new(
                Addr::new(NodeId(0), 1),
                Addr::new(NodeId(1), 1),
                Proto::Udp,
                class,
            )
            .size(100)
            .build(1, NodeId(0))
        };
        let a = mk(TrafficClass::AttackDirect);
        stats.record_sent(&a);
        stats.record_dropped(&a, DropReason::SpoofFilter);
        let b = mk(TrafficClass::AttackReflected);
        stats.record_sent(&b);
        stats.record_delivered(SimTime::ZERO, NodeId(1), &b);
        let row = OutcomeRow::from_stats("x", &stats);
        assert!((row.attack_delivered_ratio - 0.5).abs() < 1e-9);
        assert_eq!(row.reflected_delivered_to_victim, 1);
        assert_eq!(row.stop_distance, Some(0.0));
    }

    #[test]
    fn drop_fraction_math() {
        let mut stats = Stats::new();
        let p = PacketBuilder::new(
            Addr::new(NodeId(0), 1),
            Addr::new(NodeId(1), 1),
            Proto::Udp,
            TrafficClass::LegitRequest,
        )
        .build(1, NodeId(0));
        for _ in 0..4 {
            stats.record_sent(&p);
        }
        stats.record_dropped(&p, DropReason::PushbackLimit);
        assert!(
            (drop_fraction(
                &stats,
                TrafficClass::LegitRequest,
                DropReason::PushbackLimit
            ) - 0.25)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn cells_align_with_header() {
        let stats = Stats::new();
        let row = OutcomeRow::from_stats("none", &stats);
        assert_eq!(row.cells().len(), OutcomeRow::header().len());
    }
}
