//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics from spans, counters, arms and kernels).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use crate::child::Workload;
use crate::parent::{spawn, Sample};
use crate::report::{median, quantile, sorted, spread_note, END_TO_END, PER_LAYER};

/// Fewest iterations a run reports from, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

/// Iterations of one workload, with what went wrong.
pub struct Runs<'a> {
    pub workload: &'a Workload,
    pub samples: Vec<Sample>,
    pub crashed: u64,
    pub problems: Vec<String>,
    spent: Duration,
    last: Duration,
}

impl<'a> Runs<'a> {
    pub fn new(workload: &'a Workload) -> Runs<'a> {
        Runs {
            workload,
            samples: Vec::new(),
            crashed: 0,
            problems: Vec::new(),
            spent: Duration::ZERO,
            last: Duration::ZERO,
        }
    }

    fn iterate(&mut self, seed: u64, traced: bool) {
        let t = Instant::now();
        match spawn(seed, self.workload.name, "", traced, 0) {
            Some(s) => self.samples.push(s),
            None => self.crashed += 1,
        }
        self.last = t.elapsed();
        self.spent += self.last;
    }

    fn median_of(&self, name: &str) -> f64 {
        median(self.samples.iter().map(|s| s.get(name)).collect())
    }

    /// Operations attempted and failed. A crashed iteration, one with a
    /// failed check, or one whose digest differs from the first fails
    /// every one of its operations.
    pub fn operations(&mut self) -> (u64, u64) {
        let per_iteration = self.samples.first().map_or(1.0, |s| s.get("ops")).max(1.0) as u64;
        let first_digest = self.samples.first().map(|s| s.digest.clone());
        let mut attempted = self.crashed * per_iteration;
        let mut failed = attempted;
        if self.crashed > 0 {
            self.problems
                .push(format!("{} iterations crashed", self.crashed));
        }
        for (i, s) in self.samples.iter().enumerate() {
            let ops = s.get("ops") as u64;
            attempted += ops;
            let mut bad = idle_layer_violations(self.workload.name, s);
            bad.extend(s.violations.iter().cloned());
            if Some(&s.digest) != first_digest.as_ref() {
                bad.push(format!(
                    "sim_digest {} differs from the first iteration's",
                    s.digest
                ));
            }
            if !bad.is_empty() {
                failed += ops;
                self.problems
                    .extend(bad.into_iter().map(|b| format!("iteration {i}: {b}")));
            }
        }
        (attempted.max(1), failed)
    }
}

/// The "layer is idle" assertions: each workload leaves named layers
/// untouched, and a counter proves it.
fn idle_layer_violations(workload: &str, s: &Sample) -> Vec<String> {
    let mut bad = Vec::new();
    let mut idle = |counter: &str| {
        if s.get(counter) != 0.0 {
            bad.push(format!(
                "{counter} is {} but the layer must be idle",
                s.get(counter)
            ));
        }
    };
    if workload != "fluid_ts100k" {
        idle("fluid_ticks");
    }
    if workload != "ingress_flap" {
        idle("route_link_flips");
    }
    idle("route_full_recomputes");
    match workload {
        "pkt_ba400" | "ingress_flap" | "fluid_ts100k" => idle("cp_msgs"),
        "cp_churn" => {
            idle("device_seen_pkts");
            idle("attack_sent_pkts");
        }
        _ => {}
    }
    bad
}

/// Untraced iterations, round-robin over the workloads so every one's
/// samples span the whole run and slow drift lands on all alike. Each
/// workload gets `seconds` of its own children's wall time.
pub fn run_untraced<'a>(seed: u64, workloads: &[&'a Workload], seconds: u64) -> Vec<Runs<'a>> {
    let budget = Duration::from_secs(seconds);
    let mut all: Vec<Runs> = workloads.iter().map(|w| Runs::new(w)).collect();
    loop {
        let mut ran = false;
        for runs in &mut all {
            let n = runs.samples.len() + runs.crashed as usize;
            if n >= MIN_ITERATIONS && runs.spent + runs.last > budget {
                continue;
            }
            runs.iterate(seed, false);
            ran = true;
        }
        if !ran {
            return all;
        }
    }
}

/// The end-to-end metrics of one workload's untraced iterations, printed
/// one per line; returns them in `END_TO_END` order.
pub fn end_to_end(runs: &Runs) -> Vec<(&'static str, f64, &'static str)> {
    let secs =
        |name: &str| -> Vec<f64> { runs.samples.iter().map(|s| s.get(name) / 1e9).collect() };
    let first = runs.samples.first();
    let values = [
        median(secs("setup_ns")),
        median(secs("run_ns")),
        runs.samples
            .iter()
            .map(|s| s.get("peak_rss_mb"))
            .fold(0.0, f64::max),
        first.map_or(0.0, |s| s.get("served") / s.get("served_of").max(1.0)),
    ];
    let notes = [
        spread_note(secs("setup_ns")),
        spread_note(secs("run_ns")),
        "max over children".to_string(),
        "simulated, exact at a fixed seed".to_string(),
    ];
    println!(
        "{}  (sim_digest {}, {} events/iteration)",
        runs.workload.name,
        first.map_or("-", |s| &s.digest),
        first.map_or(0.0, |s| s.get("events")),
    );
    END_TO_END
        .iter()
        .zip(values)
        .zip(notes)
        .map(|((m, value), note)| {
            println!(
                "  {:<14} {:>12.4} {:<6} {} is better, bound {:>4.1}%  {note}",
                m.name,
                value,
                m.unit,
                m.better,
                m.bound * 100.0
            );
            (m.name, value, m.unit)
        })
        .collect()
}

/// Everything the traced run of one workload gathers.
pub struct Traced<'a> {
    pub traced: Runs<'a>,
    pub plain: Runs<'a>,
    pub arms: BTreeMap<&'static str, Sample>,
    pub kernels: Sample,
}

/// Traced and untraced iterations in alternation (their difference is the
/// span overhead), then each arm once, then the kernels.
pub fn run_traced<'a>(seed: u64, workload: &'a Workload, seconds: u64) -> Traced<'a> {
    let mut traced = Runs::new(workload);
    let mut plain = Runs::new(workload);
    let mut pairs = MIN_ITERATIONS;
    let mut done = 0;
    while done < pairs {
        traced.iterate(seed, true);
        plain.iterate(seed, false);
        done += 1;
        // Slow iterations get two pairs, not three: arms and kernels
        // must fit in the same `seconds`.
        if (traced.last + plain.last) * 8 > Duration::from_secs(seconds) {
            pairs = 2;
        }
    }
    let mut arms = BTreeMap::new();
    for &arm in workload.arms {
        match spawn(seed, workload.name, arm, false, 0) {
            Some(s) => {
                arms.insert(arm, s);
            }
            None => traced.problems.push(format!("arm {arm} crashed")),
        }
    }
    let wheel_len = traced.median_of("wheel_len_hwm") as u64;
    let kernels = spawn(seed, workload.name, "kernels", false, wheel_len).unwrap_or_else(|| {
        traced.problems.push("kernels crashed".into());
        Sample::default()
    });
    Traced {
        traced,
        plain,
        arms,
        kernels,
    }
}

impl Traced<'_> {
    /// Operations of every child, and the checks only a traced run can
    /// make: spans and slicing must not change the simulation, tracing
    /// sinks must only observe, allocation counts must repeat.
    pub fn operations(&mut self) -> (u64, u64) {
        let (a1, f1) = self.traced.operations();
        let (a2, f2) = self.plain.operations();
        let mut failed = f1 + f2;
        let digest = |r: &Runs| r.samples.first().map(|s| s.digest.clone());
        let mut problems = Vec::new();
        if digest(&self.traced) != digest(&self.plain) {
            problems.push("traced and untraced sim_digest differ".to_string());
        }
        for arm in ["trace_full", "trace_s64", "cp_trace"] {
            if let Some(s) = self.arms.get(arm) {
                if Some(&s.digest) != digest(&self.plain).as_ref() {
                    problems.push(format!(
                        "arm {arm} changed sim_digest: a sink must only observe"
                    ));
                }
            }
        }
        for counter in ["setup_allocs", "run_allocs", "run_alloc_bytes"] {
            let mut seen = sorted(self.traced.samples.iter().map(|s| s.get(counter)).collect());
            seen.dedup();
            if seen.len() > 1 {
                problems.push(format!(
                    "{counter} does not repeat across traced iterations: {seen:?}"
                ));
            }
        }
        if let (Some(on), Some(off)) = (
            self.arms.get("honest_filters"),
            self.arms.get("honest_nofilters"),
        ) {
            if on.get("events") != off.get("events") {
                problems.push("the honest-flood arms simulated different events".to_string());
            }
        }
        for s in self.arms.values().chain([&self.kernels]) {
            problems.extend(s.violations.iter().cloned());
        }
        if !problems.is_empty() {
            failed = a1 + a2;
            self.traced.problems.extend(problems);
        }
        (a1 + a2, failed)
    }

    /// Every per-layer metric, in `PER_LAYER` order.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let t = &self.traced;
        let k = &self.kernels;
        let arm = |name: &str, value: &str| self.arms.get(name).map_or(0.0, |s| s.get(value));
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let count = |name: &str| t.median_of(name);
        let plain_run = self.plain.median_of("run_ns");
        let events = count("events");
        let run_ns = t.median_of("run_ns");
        // Host nanoseconds per event of every traced one-second slice.
        let slices = sorted(
            t.samples
                .iter()
                .flat_map(|s| &s.slices)
                .filter(|(_, events)| *events > 0.0)
                .map(|(ns, events)| ns / events)
                .collect(),
        );
        let span = |name: &str| median(t.samples.iter().map(|s| s.span_ns(name)).collect());
        // Share of the iteration that no named span covers.
        let unattributed = median(
            t.samples
                .iter()
                .map(|s| {
                    let root = s
                        .spans
                        .first()
                        .map_or(0.0, |r| (r.end_ns - r.start_ns) as f64);
                    let covered: f64 = s
                        .spans
                        .iter()
                        .filter(|c| c.parent == 0)
                        .map(|c| (c.end_ns - c.start_ns) as f64)
                        .sum();
                    ratio(root - covered, root)
                })
                .collect(),
        );
        let value = |name: &str| -> f64 {
            match name {
                "netsim.sim.events" => events,
                "netsim.sim.run_ns_per_event" => ratio(run_ns, events),
                "netsim.sim.slice_ns_per_event_p50" => quantile(&slices, 0.5),
                "netsim.sim.slice_ns_per_event_p95" => quantile(&slices, 0.95),
                "netsim.sim.allocs_per_event" => ratio(count("run_allocs"), events),
                "netsim.sim.alloc_bytes_per_event" => ratio(count("run_alloc_bytes"), events),
                "netsim.sim.setup_allocs" => count("setup_allocs"),
                "netsim.sim.ts20k_ns_per_event" => {
                    ratio(arm("ts20k", "run_ns"), arm("ts20k", "events"))
                }
                "netsim.wheel.len_hwm" => count("wheel_len_hwm"),
                "netsim.wheel.slot_occupancy_hwm" => count("wheel_slot_occupancy_hwm"),
                "netsim.wheel.cascade_moves_per_event" => {
                    ratio(count("wheel_cascade_moves"), events)
                }
                "netsim.wheel.hold_ns_per_op" => k.get("wheel_hold_ns_per_op"),
                "netsim.wheel.est_share" => ratio(k.get("wheel_hold_ns_per_op") * events, run_ns),
                "netsim.arena.cycle_ns_per_op" => k.get("arena_cycle_ns_per_op"),
                "netsim.link.offer_ns_per_op" => k.get("link_offer_ns_per_op"),
                "netsim.link.queue_drops" => count("link_queue_drops"),
                "netsim.topology.build_ns" => span("setup.topology"),
                "netsim.topology.nodes" => count("topology_nodes"),
                "netsim.routing.compute_ns" => span("setup.routing"),
                "netsim.routing.flip_ns_p50" => k.get("routing_flip_ns_p50"),
                "netsim.routing.flip_ns_p95" => k.get("routing_flip_ns_p95"),
                "netsim.routing.link_flips" => count("route_link_flips"),
                "netsim.routing.full_recomputes" => count("route_full_recomputes"),
                "netsim.routing.trees_per_flip" => {
                    ratio(count("route_trees_recomputed"), count("route_link_flips"))
                }
                "netsim.routing.next_hop_ns_per_op" => k.get("routing_next_hop_ns_per_op"),
                "netsim.oracle.query_ns_warm" => k.get("oracle_query_ns_warm"),
                "netsim.oracle.query_ns_after_flip" => k.get("oracle_query_ns_after_flip"),
                "netsim.oracle.hit_ratio" => k.get("oracle_hit_ratio"),
                "netsim.oracle.evicted_per_flip" => k.get("oracle_evicted_per_flip"),
                "netsim.fluid.ticks" => count("fluid_ticks"),
                "netsim.fluid.aggregates" => count("fluid_aggregates"),
                "netsim.fluid.recomputes" => count("fluid_recomputes"),
                "netsim.fluid.epoch_invalidations" => count("fluid_epoch_invalidations"),
                "netsim.fluid.boundary_conversions" => count("fluid_boundary_conversions"),
                // What the 5000 background aggregates add, per tick.
                "netsim.fluid.ns_per_tick" => match self.arms.get("nobg") {
                    Some(s) => ratio(plain_run - s.get("run_ns"), count("fluid_ticks")),
                    None => 0.0,
                },
                "netsim.fluid.rss_mb_delta" => match self.arms.get("nobg") {
                    Some(s) => self.plain.median_of("peak_rss_mb") - s.get("peak_rss_mb"),
                    None => 0.0,
                },
                "netsim.trace.full_overhead_ratio" => over(arm("trace_full", "run_ns"), plain_run),
                "netsim.trace.sampled64_overhead_ratio" => {
                    over(arm("trace_s64", "run_ns"), plain_run)
                }
                "netsim.trace.events_recorded" => arm("trace_full", "trace_events"),
                "netsim.trace.export_ns_per_event" => ratio(
                    arm("trace_full", "trace_export_ns"),
                    arm("trace_full", "trace_events"),
                ),
                "netsim.cp_trace.full_overhead_ratio" => over(arm("cp_trace", "run_ns"), plain_run),
                "netsim.cp_trace.events_recorded" => arm("cp_trace", "cp_trace_events"),
                "netsim.cp_trace.export_ns_per_event" => ratio(
                    arm("cp_trace", "cp_trace_export_ns"),
                    arm("cp_trace", "cp_trace_events"),
                ),
                "bench.trace_report.ns_per_event" => ratio(
                    arm("cp_trace", "trace_report_ns"),
                    arm("cp_trace", "cp_trace_events"),
                ),
                "bench.trace_report.unterminated_txns" => arm("cp_trace", "unterminated_txns"),
                "netsim.faults.decide_ns_per_op" => k.get("faults_decide_ns_per_op"),
                "netsim.faults.dropped" => count("cp_fault_dropped"),
                "netsim.faults.duplicated" => count("cp_fault_duplicated"),
                "netsim.faults.outage_dropped" => count("cp_outage_dropped"),
                "netsim.faults.node_crashes" => count("node_crashes"),
                "netsim.metrics.snapshot_render_ns" => k.get("metrics_snapshot_render_ns"),
                "device.device.seen_pkts" => count("device_seen_pkts"),
                "device.device.redirect_ratio" => {
                    ratio(count("device_redirected_pkts"), count("device_seen_pkts"))
                }
                "device.device.dropped_pkts" => count("device_dropped_pkts"),
                "device.device.lease_reaps" => count("device_lease_reaps"),
                "device.device.rule_count" => count("device_rule_count"),
                // The device's cost per packet: the arm minus the same
                // stream through a line with no device on it.
                "device.device.ns_per_pkt_miss" => ratio(
                    arm("miss", "run_ns") - arm("nodevice", "run_ns"),
                    arm("miss", "device_seen_pkts"),
                ),
                "device.device.ns_per_pkt_hit" => ratio(
                    arm("hit", "run_ns") - arm("nodevice", "run_ns"),
                    arm("hit", "device_seen_pkts"),
                ),
                "device.device.churn_overhead_ratio" => over(plain_run, arm("readonly", "run_ns")),
                "device.device.apply_install_ns" => k.get("device_apply_install_ns"),
                "device.device.apply_remove_ns" => k.get("device_apply_remove_ns"),
                "device.trie.lookup_ns" => k.get("trie_lookup_ns"),
                "device.trie.insert_ns" => k.get("trie_insert_ns"),
                "device.trie.remove_ns" => k.get("trie_remove_ns"),
                "device.safety.verify_ns" => k.get("safety_verify_ns"),
                "device.graph.from_spec_ns" => k.get("graph_from_spec_ns"),
                "mitigation.ingress.drops" => count("ingress_drops"),
                // Filters on minus filters off over the same events, per
                // attack packet sent.
                "mitigation.ingress.ns_per_pkt" => ratio(
                    arm("honest_filters", "run_ns") - arm("honest_nofilters", "run_ns"),
                    arm("honest_filters", "attack_sent_pkts"),
                ),
                "attack.sent_pkts" => count("attack_sent_pkts"),
                "core.tcs.deploy_ns" if t.workload.name == "pkt_ba400" => span("setup.deploy"),
                "control.plane.cp_msgs" => count("cp_msgs"),
                "control.plane.confirmed_owners" => count("confirmed_owners"),
                "control.plane.withdrawn_owners" => count("withdrawn_owners"),
                "control.plane.reconcile_reinstalls" => count("reconcile_reinstalls"),
                "control.plane.lease_renewals" => count("lease_renewals"),
                "control.plane.orphan_filters" => count("orphan_filters"),
                "control.plane.run_ns_per_msg" => ratio(run_ns, count("cp_msgs")),
                "control.plane.lossless_run_ns_per_msg" => {
                    ratio(arm("lossless", "run_ns"), arm("lossless", "cp_msgs"))
                }
                "control.plane.install_ns" => t.median_of("plane_install_ns"),
                "control.retry.retransmits" => count("retransmits"),
                "control.retry.give_ups" => count("give_ups"),
                "control.retry.dedup_hits" => count("dedup_hits"),
                "control.retry.retransmit_ratio" => ratio(count("retransmits"), count("cp_msgs")),
                "control.retry.dedup_ns_per_op" => k.get("dedup_ns_per_op"),
                "bench.sweep.tasks_per_s_1t" => k.get("sweep_tasks_per_s_1t"),
                "bench.sweep.tasks_per_s_2t" => k.get("sweep_tasks_per_s_2t"),
                "bench.sweep.byte_identical" => k.get("sweep_byte_identical"),
                "bench.span_overhead_ratio" => over(
                    median(t.samples.iter().map(Sample::total_ns).collect()),
                    median(self.plain.samples.iter().map(Sample::total_ns).collect()),
                ),
                "bench.unattributed_share" => unattributed,
                "attack_byte_hops" => count("attack_byte_hops"),
                "cp_deploy_p50_sim_s" => count("deploy_p50_sim_s"),
                "cp_deploy_p80_sim_s" => count("deploy_p80_sim_s"),
                _ => 0.0,
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = value(name);
                (name, if v.is_finite() { v } else { 0.0 }, unit)
            })
            .collect()
    }

    /// Append this workload's spans to `out`, one JSON object per line.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (iteration, s) in self.traced.samples.iter().enumerate() {
            for (id, span) in s.spans.iter().enumerate() {
                writeln!(
                    out,
                    "{{\"workload\":\"{}\",\"iteration\":{iteration},\"span\":{id},\"name\":\"{}\",\"index\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    self.traced.workload.name,
                    span.name,
                    span.index,
                    span.start_ns,
                    span.end_ns,
                    span.parent
                )?;
            }
        }
        Ok(())
    }
}

/// `a / b - 1`, or 0 when either side was not measured.
fn over(a: f64, b: f64) -> f64 {
    if a > 0.0 && b > 0.0 {
        a / b - 1.0
    } else {
        0.0
    }
}
