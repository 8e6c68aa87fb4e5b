//! E6 — Device scalability (Sec. 5.3).
//!
//! The paper argues the service scales because (a) rules grow with
//! *subscribers*, not with Internet users ("no additional rules must be
//! installed … when more users join the Internet"), and (b) redirection is
//! a prefix lookup whose cost is independent of the rule count. Measured
//! here: rule count vs subscriber count, per-packet device cost vs
//! registered-owner count, and the rule-table ablation (prefix trie vs
//! linear scan).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use dtcs::control::CatalogService;
use dtcs::device::trie::LinearTable;
use dtcs::device::{AdaptiveDevice, DeviceCommand, OwnerId, Stage};
use dtcs::netsim::rng::seeded;
use dtcs::netsim::{
    Addr, NodeId, PacketBuilder, Prefix, Proto, SimTime, Simulator, Stats, Topology, TrafficClass,
};

use crate::sweep::{metrics_of, Case, Experiment, GridExperiment};
use crate::util::{f, Report, Table};
use crate::RunOpts;

/// Base seed of the throughput simulator.
const SIM_SEED: u64 = 5;

/// Base seed of the LPM ablation's random prefixes and probes.
const LPM_SEED: u64 = 99;

dtcs::netsim::json_record! {
    struct RuleRow {
        subscribers: usize,
        services_per_subscriber: usize,
        total_rules: usize,
    }
}

dtcs::netsim::json_record! {
    struct ThroughputRow {
        owners: usize,
        pkts: u64,
        wall_ms: f64,
        pkts_per_sec: f64,
    }
}

dtcs::netsim::json_record! {
    struct LookupRow {
        structure: String,
        entries: usize,
        lookups: u64,
        ns_per_lookup: f64,
    }
}

/// Rules installed on one device once `n` subscribers have signed up.
fn rules_vs_subscribers(n: usize) -> RuleRow {
    let (mut dev, handle) = AdaptiveDevice::new(NodeId(0), None);
    let services = [
        CatalogService::AntiSpoofing,
        CatalogService::FirewallBlock {
            protos: vec![Proto::Udp, Proto::TcpRst],
        },
        CatalogService::Statistics {
            capacity: 1024,
            sample_one_in: 64,
        },
    ];
    for i in 0..n {
        let owner = OwnerId(i as u64 + 1);
        dev.apply(DeviceCommand::RegisterOwner {
            owner,
            prefixes: vec![Prefix::new((i as u32) << 16, 16)],
            contact: NodeId(0),
        });
        for s in &services {
            dev.apply(DeviceCommand::InstallService {
                txn: 0,
                lease_until: SimTime::MAX,
                owner,
                stage: s.stage(),
                spec: s.compile(),
            });
        }
    }
    let total_rules = handle.lock().rule_count;
    drop(dev);
    RuleRow {
        subscribers: n,
        services_per_subscriber: services.len(),
        total_rules,
    }
}

/// Per-packet device cost with `owners` registered owners, measured by
/// streaming packets through a 3-node simulator whose middle node carries
/// the device. Most packets are unowned (the redirect-miss fast path),
/// mirroring a transit device's reality.
fn device_throughput(owners: usize, pkts: u64, seed: u64) -> (ThroughputRow, Stats) {
    let topo = Topology::line(3);
    let mut sim = Simulator::new(topo, seed);
    let (mut dev, _handle) = AdaptiveDevice::new(NodeId(1), None);
    for i in 0..owners {
        let owner = OwnerId(i as u64 + 1);
        dev.apply(DeviceCommand::RegisterOwner {
            owner,
            prefixes: vec![Prefix::new(((i as u32) + 100) << 16, 16)],
            contact: NodeId(0),
        });
        dev.apply(DeviceCommand::InstallService {
            txn: 0,
            lease_until: SimTime::MAX,
            owner,
            stage: Stage::Dst,
            spec: CatalogService::FirewallBlock {
                protos: vec![Proto::TcpRst],
            }
            .compile(),
        });
    }
    sim.add_agent(NodeId(1), Box::new(dev));
    let dst = Addr::new(NodeId(2), 1);
    sim.install_app(dst, Box::new(dtcs::netsim::SinkApp));
    for k in 0..pkts {
        let at = SimTime(k * 1000);
        sim.schedule(at, move |s| {
            s.emit_now(
                NodeId(0),
                PacketBuilder::new(
                    Addr::new(NodeId(0), 1),
                    dst,
                    Proto::Udp,
                    TrafficClass::Background,
                )
                .size(100)
                .flow(k),
            );
        });
    }
    let start = Instant::now();
    sim.run_until(SimTime::from_secs(3600));
    let wall = start.elapsed().as_secs_f64();
    let row = ThroughputRow {
        owners,
        pkts,
        wall_ms: wall * 1e3,
        pkts_per_sec: pkts as f64 / wall,
    };
    (row, sim.stats)
}

/// Trie vs linear LPM lookup cost. Also returns the (deterministic,
/// timing-free) hit count so the sweep has a seed-sensitive metric.
fn lookup_ablation(entries: usize, lookups: u64, seed: u64) -> (Vec<LookupRow>, u64) {
    let mut rng = seeded(seed);
    let mut trie = dtcs::device::trie::PrefixTrie::new();
    let mut linear = LinearTable::new();
    for i in 0..entries {
        let p = Prefix::new(rng.gen::<u32>(), rng.gen_range(8..=24));
        trie.insert(p, i);
        linear.insert(p, i);
    }
    let probes: Vec<Addr> = (0..lookups).map(|_| Addr(rng.gen())).collect();

    let start = Instant::now();
    let mut hits = 0u64;
    for &a in &probes {
        if trie.lookup(a).is_some() {
            hits += 1;
        }
    }
    let trie_ns = start.elapsed().as_nanos() as f64 / lookups as f64;

    let start = Instant::now();
    let mut hits2 = 0u64;
    for &a in &probes {
        if linear.lookup(a).is_some() {
            hits2 += 1;
        }
    }
    let lin_ns = start.elapsed().as_nanos() as f64 / lookups as f64;
    assert_eq!(hits, hits2, "structures must agree");

    let rows = vec![
        LookupRow {
            structure: "prefix-trie".into(),
            entries,
            lookups,
            ns_per_lookup: trie_ns,
        },
        LookupRow {
            structure: "linear-scan".into(),
            entries,
            lookups,
            ns_per_lookup: lin_ns,
        },
    ];
    (rows, hits)
}

/// One grid point of the three measurements.
#[derive(Clone, Copy)]
enum Params {
    /// Rule count with this many subscribers.
    Rules(usize),
    /// Throughput with this many registered owners over this many packets.
    Throughput(usize, u64),
    /// LPM ablation at this table size over this many lookups.
    Lpm(usize, u64),
}

/// What a grid point measured, plus the deterministic, timing-free
/// number the sweep folds where the table row has none: packets
/// delivered (`Throughput`), lookup hits (`Lpm`).
enum Row {
    Rules(RuleRow),
    Throughput(ThroughputRow, u64),
    Lpm(Vec<LookupRow>, u64),
}

/// The grid: subscriber counts, then owner counts, then LPM table sizes
/// — the three tables, in order.
fn cases(quick: bool) -> Vec<Case<Params>> {
    let (subscribers, owners, sizes): (&[usize], &[usize], &[usize]) = if quick {
        (&[10, 100, 1000], &[0, 100, 10_000], &[100, 10_000])
    } else {
        (
            &[10, 100, 1000, 10_000, 50_000],
            &[0, 10, 100, 1000, 10_000, 100_000],
            &[100, 1000, 10_000, 100_000],
        )
    };
    let pkts = if quick { 50_000 } else { 200_000 };
    let lookups = if quick { 200_000 } else { 1_000_000 };
    let rules = subscribers
        .iter()
        .map(|&n| Case::new(format!("rules/subscribers={n}"), SIM_SEED, Params::Rules(n)));
    let throughput = owners.iter().map(|&o| {
        let params = Params::Throughput(o, pkts);
        Case::new(format!("throughput/owners={o}"), SIM_SEED, params)
    });
    let lpm = sizes.iter().map(|&n| {
        let params = Params::Lpm(n, lookups);
        Case::new(format!("lpm/entries={n}"), LPM_SEED, params)
    });
    rules.chain(throughput).chain(lpm).collect()
}

/// Held through every E6 run: two of the three tables are wall-clock
/// measurements, which must not share the machine with a neighbouring
/// case, so E6's cases take turns whatever the pool's shard count.
static ALONE: Mutex<()> = Mutex::new(());

fn one(params: &Params, seed: u64) -> (Row, Stats) {
    let _alone = ALONE.lock();
    match *params {
        Params::Rules(n) => (Row::Rules(rules_vs_subscribers(n)), Default::default()),
        Params::Throughput(owners, pkts) => {
            let (row, stats) = device_throughput(owners, pkts, seed);
            let delivered = stats.class(TrafficClass::Background).delivered_pkts;
            (Row::Throughput(row, delivered), stats)
        }
        Params::Lpm(entries, lookups) => {
            let (rows, hits) = lookup_ablation(entries, lookups, seed);
            (Row::Lpm(rows, hits), Default::default())
        }
    }
}

/// Only deterministic counters are sweep metrics (rule counts, packet
/// totals, LPM hit counts): sweep output must be byte-identical across
/// thread counts, so wall-clock timings are left out.
fn metrics(row: &Row) -> BTreeMap<String, f64> {
    let (mut m, derived, value) = match row {
        Row::Rules(r) => (
            metrics_of(r, &["subscribers", "services_per_subscriber"]),
            "rules_per_sub",
            r.total_rules as f64 / r.subscribers as f64,
        ),
        Row::Throughput(r, delivered) => (
            metrics_of(r, &["owners", "wall_ms", "pkts_per_sec"]),
            "delivered_pkts",
            *delivered as f64,
        ),
        Row::Lpm(rows, hits) => (
            [("hits".to_string(), *hits as f64)].into(),
            "hit_ratio",
            *hits as f64 / rows[0].lookups as f64,
        ),
    };
    m.insert(derived.to_string(), value);
    m
}

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e6",
    title: "Device and rule-table scalability",
    anchor: "Sec. 5.3",
    cases,
    one,
    metrics,
    render,
};

fn render(report: &mut Report, _: &RunOpts, _: &[Case<Params>], outs: &[(Row, Stats)]) {
    let rules = outs.iter().filter_map(|(row, _)| match row {
        Row::Rules(r) => Some(r),
        _ => None,
    });
    report.table(Table::of(
        "rules vs subscribers (3 services each)",
        rules,
        &[
            ("subscribers", &|r| r.subscribers.to_string()),
            ("services_each", &|r| r.services_per_subscriber.to_string()),
            ("total_rules", &|r| r.total_rules.to_string()),
            ("rules_per_sub", &|r| {
                f(r.total_rules as f64 / r.subscribers as f64)
            }),
        ],
    ));
    let throughput = outs.iter().filter_map(|(row, _)| match row {
        Row::Throughput(r, _) => Some(r),
        _ => None,
    });
    report.table(Table::of(
        "end-to-end device throughput vs registered owners (unowned traffic)",
        throughput,
        &[
            ("owners", &|r| r.owners.to_string()),
            ("pkts", &|r| r.pkts.to_string()),
            ("wall_ms", &|r| f(r.wall_ms)),
            ("pkts_per_sec", &|r| f(r.pkts_per_sec)),
        ],
    ));
    let lpm = outs.iter().flat_map(|(row, _)| match row {
        Row::Lpm(rows, _) => &rows[..],
        _ => &[],
    });
    report.table(Table::of(
        "LPM rule-table ablation (DESIGN.md §5)",
        lpm,
        &[
            ("structure", &|r| r.structure.clone()),
            ("entries", &|r| r.entries.to_string()),
            ("ns_per_lookup", &|r| f(r.ns_per_lookup)),
        ],
    ));
    report.note(
        "Rules grow linearly with subscribers and not with traffic or Internet size; trie \
         lookup cost is flat in the entry count while linear scan degrades by orders of \
         magnitude — the Sec. 5.3 scaling argument, measured. A sanity check that unowned \
         traffic pays only the lookup: throughput stays roughly constant from 0 to 100k owners.",
    );
}
