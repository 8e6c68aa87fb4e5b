//! One iteration's clock: phases (set-up, run, collect), spans recorded
//! from outside around each public call, and the result a child prints.

use std::collections::BTreeMap;
use std::time::Instant;

use dtcs::device::DeviceStats;
use dtcs::netsim::{DropReason, MetricsSnapshot, SimTime, Simulator, Stats, TrafficClass};

use crate::alloc;

/// One recorded span. `parent` indexes into the same list; the root
/// (`iter`) has none.
pub struct Span {
    pub name: &'static str,
    /// `run.slice[k]` carries its k.
    pub index: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Clock and span recorder of one iteration.
///
/// Host time is split into `setup_ns` (everything before a `run_until`:
/// topology, routing, deployment, workload installation — summed over
/// both passes on `pkt_ba400`) and `run_ns` (inside `run_until`). Time
/// spent reading results out is neither.
pub struct Ctx {
    t0: Instant,
    traced: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Reading results out: the set-up clock is stopped.
    collecting: bool,
    mark: Instant,
    pub setup_ns: u64,
    pub run_ns: u64,
    /// (host ns, events) of every traced one-simulated-second slice.
    pub slices: Vec<(u64, u64)>,
    pub setup_allocs: u64,
    pub run_allocs: u64,
    pub run_alloc_bytes: u64,
    generate_allocs: u64,
}

impl Ctx {
    /// `t0` is the child's first instant, so `setup_ns` includes what
    /// little happens before the workload function is entered.
    pub fn start(t0: Instant, traced: bool) -> Ctx {
        let mut ctx = Ctx {
            t0,
            traced,
            // Reserved up front so recording a span never allocates while
            // the allocator is counting.
            spans: Vec::with_capacity(1024),
            open: Vec::with_capacity(8),
            collecting: false,
            mark: t0,
            setup_ns: 0,
            run_ns: 0,
            slices: Vec::with_capacity(256),
            setup_allocs: 0,
            run_allocs: 0,
            run_alloc_bytes: 0,
            generate_allocs: 0,
        };
        ctx.enter("iter", None);
        ctx
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, index: Option<u32>) {
        if !self.traced {
            return;
        }
        // The root starts with the process, not with this call.
        let start_ns = if self.spans.is_empty() {
            0
        } else {
            self.now_ns()
        };
        self.spans.push(Span {
            name,
            index,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let i = self.open.pop().expect("open span");
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Begin a named set-up step (`setup.topology`, `setup.routing`,
    /// `setup.deploy`, `setup.workload`); ends the previous step.
    pub fn setup(&mut self, name: &'static str) {
        self.exit_to(1);
        if self.collecting {
            self.mark = Instant::now();
            self.collecting = false;
        }
        self.enter(name, None);
    }

    /// Run `f`, which generates inputs, with the set-up clock stopped:
    /// that is this benchmark's work, not the system's, and neither its
    /// time nor its allocations count as set-up. Traced, it is a `generate`
    /// span inside the current set-up step.
    pub fn generate<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let depth = self.open.len();
        self.enter("generate", None);
        let allocs = alloc::totals().0;
        let t = Instant::now();
        let v = f();
        self.mark += t.elapsed();
        self.generate_allocs += alloc::totals().0 - allocs;
        self.exit_to(depth);
        v
    }

    /// Run `sim` to `horizon`. Untraced this is one `run_until`; traced it
    /// is one `run_until` per simulated second, each in its own span. The
    /// two must leave the simulator in the same state (`sim_digest`).
    pub fn run(&mut self, sim: &mut Simulator, horizon: SimTime) {
        self.exit_to(1);
        let (a0, b0) = alloc::totals();
        let begin = Instant::now();
        self.setup_ns += (begin - self.mark).as_nanos() as u64;
        self.setup_allocs = a0 - self.run_allocs - self.generate_allocs;
        self.enter("run", None);
        if self.traced {
            let mut k = 0u32;
            let mut at = sim.now();
            while at < horizon {
                at = SimTime::from_nanos((at.as_nanos() + 1_000_000_000).min(horizon.as_nanos()));
                let events = sim.stats.events;
                self.enter("run.slice", Some(k));
                let s = Instant::now();
                sim.run_until(at);
                let ns = s.elapsed().as_nanos() as u64;
                self.exit_to(2);
                self.slices.push((ns, sim.stats.events - events));
                k += 1;
            }
        } else {
            sim.run_until(horizon);
        }
        self.run_ns += begin.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc::totals();
        self.run_allocs += a1 - a0;
        self.run_alloc_bytes += b1 - b0;
        self.exit_to(1);
        self.enter("collect", None);
        self.collecting = true;
    }

    /// Close every span; the iteration is over.
    pub fn finish(&mut self) {
        self.exit_to(0);
    }
}

/// What one child process reports: flat `name value` pairs plus spans.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    /// Hash of the simulated outcome; equal seeds must give equal digests.
    pub digest: u64,
    /// Correctness checks that failed, in words.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The checks every finished simulator must pass, the engine counters
    /// every workload reports, and the simulator's share of the digest.
    pub fn absorb_stats(&mut self, stats: &Stats) {
        self.check(stats.check_conservation().is_ok(), || {
            format!("conservation: {:?}", stats.check_conservation())
        });
        self.check(stats.past_events_clamped == 0, || {
            format!("{} events clamped to the past", stats.past_events_clamped)
        });
        self.add("events", stats.events as f64);
        self.add("wheel_cascade_moves", stats.wheel_cascade_moves as f64);
        for (name, v) in [
            ("wheel_len_hwm", stats.wheel_len_hwm),
            ("wheel_slot_occupancy_hwm", stats.wheel_slot_occupancy_hwm),
        ] {
            let e = self.values.entry(name).or_insert(0.0);
            *e = e.max(v as f64);
        }
        self.add(
            "link_queue_drops",
            stats.drops_for_reason(DropReason::QueueOverflow).pkts as f64,
        );
        self.add("route_link_flips", stats.route_link_flips as f64);
        self.add("route_full_recomputes", stats.route_full_recomputes as f64);
        self.add(
            "route_trees_recomputed",
            stats.route_trees_recomputed as f64,
        );
        self.add("fluid_ticks", stats.fluid_ticks as f64);
        self.add("fluid_aggregates", stats.fluid_aggregates as f64);
        self.add("fluid_recomputes", stats.fluid_recomputes as f64);
        self.add(
            "fluid_epoch_invalidations",
            stats.fluid_epoch_invalidations as f64,
        );
        self.add(
            "fluid_boundary_conversions",
            stats.fluid_boundary_conversions as f64,
        );
        self.add("cp_msgs", stats.cp_msgs as f64);
        self.add("cp_fault_dropped", stats.cp_fault_dropped as f64);
        self.add("cp_fault_duplicated", stats.cp_fault_duplicated as f64);
        self.add("cp_outage_dropped", stats.cp_outage_dropped as f64);
        self.add("node_crashes", stats.node_crashes as f64);
        let attack = stats.class(TrafficClass::AttackDirect).sent_pkts
            + stats.class(TrafficClass::AttackReflected).sent_pkts;
        self.add("attack_sent_pkts", attack as f64);
        self.mix(
            MetricsSnapshot::from_stats(stats)
                .to_json_string()
                .as_bytes(),
        );
        for c in &stats.per_class {
            for v in [
                c.sent_pkts,
                c.delivered_pkts,
                c.dropped_pkts,
                c.delivered_byte_hops,
                c.dropped_byte_hops,
            ] {
                self.mix(&v.to_le_bytes());
            }
        }
    }

    /// One adaptive device's counters, summed over the devices absorbed.
    pub fn absorb_device(&mut self, d: &DeviceStats) {
        self.add("device_seen_pkts", d.seen_pkts as f64);
        self.add("device_redirected_pkts", d.redirected_pkts as f64);
        self.add(
            "device_dropped_pkts",
            d.dropped.values().sum::<u64>() as f64,
        );
        self.add("device_lease_reaps", d.lease_reaps as f64);
        self.add("device_rule_count", d.rule_count as f64);
    }

    /// FNV-1a, continued from the current digest.
    pub fn mix(&mut self, bytes: &[u8]) {
        let mut h = if self.digest == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.digest
        };
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.digest = h;
    }

    pub fn mix_u64(&mut self, v: u64) {
        self.mix(&v.to_le_bytes());
    }
}

/// SplitMix64: the benchmark's own input generator, so generated inputs
/// do not depend on which `rand` the repository was built against.
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Gen {
        Gen(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
