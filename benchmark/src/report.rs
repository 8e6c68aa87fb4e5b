//! Metric tables (the source `BENCHMARK.json` is printed from), order
//! statistics and the result line.

use crate::child::WORKLOADS;

/// How long one contract run measures.
pub const RUN_SECONDS: u64 = 24;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// `_s` is host time. `served_share` is a simulated outcome: it repeats
/// exactly at a fixed seed.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.08,
    },
    EndToEnd {
        name: "served_share",
        unit: "ratio",
        better: "higher",
        bound: 0.10,
    },
];

/// (name, unit, better). `_ns` is host time, `_sim_s` simulated time;
/// `count` metrics repeat exactly at a fixed seed. A metric whose layer or
/// arm does not run on the workload reads 0.
pub const PER_LAYER: [(&str, &str, &str); 92] = [
    ("netsim.sim.events", "count", "lower"),
    ("netsim.sim.run_ns_per_event", "ns", "lower"),
    ("netsim.sim.slice_ns_per_event_p50", "ns", "lower"),
    ("netsim.sim.slice_ns_per_event_p95", "ns", "lower"),
    ("netsim.sim.allocs_per_event", "count", "lower"),
    ("netsim.sim.alloc_bytes_per_event", "B", "lower"),
    ("netsim.sim.setup_allocs", "count", "lower"),
    ("netsim.sim.ts20k_ns_per_event", "ns", "lower"),
    ("netsim.wheel.len_hwm", "count", "lower"),
    ("netsim.wheel.slot_occupancy_hwm", "count", "lower"),
    ("netsim.wheel.cascade_moves_per_event", "ratio", "lower"),
    ("netsim.wheel.hold_ns_per_op", "ns", "lower"),
    ("netsim.wheel.est_share", "ratio", "lower"),
    ("netsim.arena.cycle_ns_per_op", "ns", "lower"),
    ("netsim.link.offer_ns_per_op", "ns", "lower"),
    ("netsim.link.queue_drops", "count", "lower"),
    ("netsim.topology.build_ns", "ns", "lower"),
    ("netsim.topology.nodes", "count", "lower"),
    ("netsim.routing.compute_ns", "ns", "lower"),
    ("netsim.routing.flip_ns_p50", "ns", "lower"),
    ("netsim.routing.flip_ns_p95", "ns", "lower"),
    ("netsim.routing.link_flips", "count", "lower"),
    ("netsim.routing.full_recomputes", "count", "lower"),
    ("netsim.routing.trees_per_flip", "ratio", "lower"),
    ("netsim.routing.next_hop_ns_per_op", "ns", "lower"),
    ("netsim.oracle.query_ns_warm", "ns", "lower"),
    ("netsim.oracle.query_ns_after_flip", "ns", "lower"),
    ("netsim.oracle.hit_ratio", "ratio", "higher"),
    ("netsim.oracle.evicted_per_flip", "count", "lower"),
    ("netsim.fluid.ticks", "count", "lower"),
    ("netsim.fluid.aggregates", "count", "lower"),
    ("netsim.fluid.recomputes", "count", "lower"),
    ("netsim.fluid.epoch_invalidations", "count", "lower"),
    ("netsim.fluid.boundary_conversions", "count", "lower"),
    ("netsim.fluid.ns_per_tick", "ns", "lower"),
    ("netsim.fluid.rss_mb_delta", "MiB", "lower"),
    ("netsim.trace.full_overhead_ratio", "ratio", "lower"),
    ("netsim.trace.sampled64_overhead_ratio", "ratio", "lower"),
    ("netsim.trace.events_recorded", "count", "lower"),
    ("netsim.trace.export_ns_per_event", "ns", "lower"),
    ("netsim.cp_trace.full_overhead_ratio", "ratio", "lower"),
    ("netsim.cp_trace.events_recorded", "count", "lower"),
    ("netsim.cp_trace.export_ns_per_event", "ns", "lower"),
    ("bench.trace_report.ns_per_event", "ns", "lower"),
    ("bench.trace_report.unterminated_txns", "count", "lower"),
    ("netsim.faults.decide_ns_per_op", "ns", "lower"),
    ("netsim.faults.dropped", "count", "lower"),
    ("netsim.faults.duplicated", "count", "lower"),
    ("netsim.faults.outage_dropped", "count", "lower"),
    ("netsim.faults.node_crashes", "count", "lower"),
    ("netsim.metrics.snapshot_render_ns", "ns", "lower"),
    ("device.device.seen_pkts", "count", "lower"),
    ("device.device.redirect_ratio", "ratio", "lower"),
    ("device.device.dropped_pkts", "count", "lower"),
    ("device.device.lease_reaps", "count", "lower"),
    ("device.device.rule_count", "count", "lower"),
    ("device.device.ns_per_pkt_miss", "ns", "lower"),
    ("device.device.ns_per_pkt_hit", "ns", "lower"),
    ("device.device.churn_overhead_ratio", "ratio", "lower"),
    ("device.device.apply_install_ns", "ns", "lower"),
    ("device.device.apply_remove_ns", "ns", "lower"),
    ("device.trie.lookup_ns", "ns", "lower"),
    ("device.trie.insert_ns", "ns", "lower"),
    ("device.trie.remove_ns", "ns", "lower"),
    ("device.safety.verify_ns", "ns", "lower"),
    ("device.graph.from_spec_ns", "ns", "lower"),
    ("mitigation.ingress.drops", "count", "higher"),
    ("mitigation.ingress.ns_per_pkt", "ns", "lower"),
    ("attack.sent_pkts", "count", "lower"),
    ("core.tcs.deploy_ns", "ns", "lower"),
    ("control.plane.cp_msgs", "count", "lower"),
    ("control.plane.confirmed_owners", "count", "higher"),
    ("control.plane.withdrawn_owners", "count", "higher"),
    ("control.plane.reconcile_reinstalls", "count", "lower"),
    ("control.plane.lease_renewals", "count", "lower"),
    ("control.plane.orphan_filters", "count", "lower"),
    ("control.plane.run_ns_per_msg", "ns", "lower"),
    ("control.plane.lossless_run_ns_per_msg", "ns", "lower"),
    ("control.plane.install_ns", "ns", "lower"),
    ("control.retry.retransmits", "count", "lower"),
    ("control.retry.give_ups", "count", "lower"),
    ("control.retry.dedup_hits", "count", "lower"),
    ("control.retry.retransmit_ratio", "ratio", "lower"),
    ("control.retry.dedup_ns_per_op", "ns", "lower"),
    ("bench.sweep.tasks_per_s_1t", "1/s", "higher"),
    ("bench.sweep.tasks_per_s_2t", "1/s", "higher"),
    ("bench.sweep.byte_identical", "count", "higher"),
    ("bench.span_overhead_ratio", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("attack_byte_hops", "byte.hops", "lower"),
    ("cp_deploy_p50_sim_s", "sim_s", "lower"),
    ("cp_deploy_p80_sim_s", "sim_s", "lower"),
];

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of a sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (sorted.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// "median [q1 .. q3] n=.., pNN=.." — the percentile is the highest one
/// with at least ten samples beyond it, when there is such a one.
pub fn spread_note(v: Vec<f64>) -> String {
    let s = sorted(v);
    let n = s.len();
    let mut note = format!(
        "[q1 {:.4} .. q3 {:.4}] n={n}",
        quantile(&s, 0.25),
        quantile(&s, 0.75)
    );
    if n >= 20 {
        let p = 100 - 1000 / n;
        note += &format!(" p{p}={:.4}", s[n - 11]);
    }
    note
}

/// `BENCHMARK.json`, printed from the tables above so the two cannot
/// drift apart.
pub fn describe() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

/// The contract's result object: one line, the last on standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
