//! Kernels: one layer's public functions called directly, at the
//! population the workload was measured to reach. They do not sum to the
//! whole run; what they leave over is reported, not hidden.

use std::hint::black_box;
use std::time::Instant;

use dtcs::control::{CatalogService, Dedup};
use dtcs::device::trie::PrefixTrie;
use dtcs::device::{AdaptiveDevice, DeviceCommand, OwnerId, SafetyVerifier, ServiceGraph, Stage};
use dtcs::netsim::{
    Addr, Arena, FaultConfig, FaultPlane, Link, MetricsSnapshot, NodeId, PacketBuilder, Proto,
    RouteOracle, Routing, SimDuration, SimTime, Simulator, Stats, TimingWheel, Topology,
    TrafficClass,
};
use dtcs_bench::sweep::{run_grid, GridExperiment};

use crate::device::{owner_prefix, OWNERS};
use crate::harness::{Gen, Outcome};
use crate::packet::{flap_links, flap_schedule};
use crate::report::{median, quantile, sorted};

const OPS: u64 = 1_000_000;

/// Mean host nanoseconds per call of `f` over `n` calls.
fn per_op(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Kernels that need no topology.
pub fn standalone(out: &mut Outcome, seed: u64, wheel_len: u64) {
    let mut gen = Gen::new(seed, 0x4B);

    // Hold model: pop the earliest, push it back a random step later, at
    // a constant population.
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0u64;
    for i in 0..wheel_len.max(1) {
        wheel.push(gen.below(10_000_000), seq, i);
        seq += 1;
    }
    let hold = per_op(OPS, |_| {
        let e = wheel.pop_next(u64::MAX).expect("population is constant");
        wheel.push(e.time + 1 + gen.below(10_000_000), seq, e.kind);
        seq += 1;
    });
    out.set("wheel_hold_ns_per_op", hold);

    let mut arena = Arena::new();
    let pkt = PacketBuilder::new(Addr(1), Addr(2), Proto::Udp, TrafficClass::Background)
        .build(1, NodeId(0));
    let live: Vec<_> = (0..256).map(|_| arena.alloc(pkt)).collect();
    let cycle = per_op(OPS, |_| {
        let h = arena.alloc(pkt);
        let mut p = arena.take(h);
        p.ttl -= 1;
        arena.store(h, p);
        arena.free(h);
    });
    black_box((&arena, live));
    out.set("arena_cycle_ns_per_op", cycle);

    let mut link = Link::new(
        NodeId(0),
        NodeId(1),
        1e9,
        SimDuration::from_millis(5),
        625_000,
    );
    let offer = per_op(OPS, |i| {
        black_box(link.offer(NodeId(0), SimTime::from_nanos(i * 1_000), 100, i % 4 == 0));
    });
    out.set("link_offer_ns_per_op", offer);

    let mut plane = FaultPlane::new(FaultConfig {
        seed,
        drop_prob: 0.2,
        dup_prob: 0.1,
        jitter_max: SimDuration::from_millis(10),
        outages: Vec::new(),
        partitions: Vec::new(),
    });
    let decide = per_op(OPS, |i| {
        black_box(plane.decide(NodeId((i % 136) as usize), NodeId((i % 17) as usize)));
    });
    out.set("faults_decide_ns_per_op", decide);

    let stats = Stats::new();
    let render = per_op(1_000, |_| {
        black_box(MetricsSnapshot::from_stats(&stats).to_json_string());
    });
    out.set("metrics_snapshot_render_ns", render);

    let mut dedup = Dedup::new();
    let first_time = per_op(OPS, |i| {
        black_box(dedup.first_time(0xAA01 + i % 64, i / 2, (i % 7) as u8, 0));
    });
    out.set("dedup_ns_per_op", first_time);

    device_kernels(out, &mut gen);
}

/// Rule-table operations at `dev_churn`'s owner count.
fn device_kernels(out: &mut Outcome, gen: &mut Gen) {
    let mut trie = PrefixTrie::new();
    out.set(
        "trie_insert_ns",
        per_op(OWNERS, |i| {
            trie.insert(owner_prefix(i), i);
        }),
    );
    let probes: Vec<Addr> = (0..4096)
        .map(|i| {
            if i % 4 == 0 {
                Addr(owner_prefix(gen.below(OWNERS)).bits | gen.below(1 << 12) as u32)
            } else {
                Addr(gen.next() as u32 & 0x00FF_FFFF)
            }
        })
        .collect();
    out.set(
        "trie_lookup_ns",
        per_op(OPS, |i| {
            black_box(trie.lookup(probes[i as usize & 4095]));
        }),
    );
    out.set(
        "trie_remove_ns",
        per_op(OWNERS, |i| {
            trie.remove(owner_prefix(i));
        }),
    );

    let antispoof = CatalogService::AntiSpoofing.compile();
    let verifier = SafetyVerifier::default();
    out.set(
        "safety_verify_ns",
        per_op(100_000, |_| {
            black_box(verifier.verify(&antispoof)).expect("catalog service verifies");
        }),
    );
    out.set(
        "graph_from_spec_ns",
        per_op(100_000, |_| {
            black_box(ServiceGraph::from_spec(&antispoof));
        }),
    );

    let (mut dev, _) = AdaptiveDevice::new(NodeId(1), None);
    for i in 0..OWNERS {
        dev.apply(DeviceCommand::RegisterOwner {
            owner: OwnerId(i + 1),
            prefixes: vec![owner_prefix(i)],
            contact: NodeId(0),
        });
    }
    out.set(
        "device_apply_install_ns",
        per_op(OWNERS, |i| {
            black_box(dev.apply(DeviceCommand::InstallService {
                owner: OwnerId(i + 1),
                stage: Stage::Dst,
                spec: antispoof.clone(),
                txn: i,
                lease_until: SimTime::MAX,
            }));
        }),
    );
    out.set(
        "device_apply_remove_ns",
        per_op(OWNERS, |i| {
            black_box(dev.apply(DeviceCommand::RemoveService {
                owner: OwnerId(i + 1),
                stage: Stage::Dst,
                txn: i,
            }));
        }),
    );
}

/// Forwarding-table lookups on the workload's own topology.
pub fn next_hop(out: &mut Outcome, seed: u64, topo: &Topology, routing: &Routing) {
    let mut gen = Gen::new(seed, 0x4E);
    let n = topo.n() as u64;
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| (NodeId(gen.below(n) as usize), NodeId(gen.below(n) as usize)))
        .collect();
    out.set(
        "routing_next_hop_ns_per_op",
        per_op(OPS, |i| {
            let (at, dst) = pairs[i as usize & 4095];
            black_box(routing.next_hop(at, dst));
        }),
    );
}

/// `ingress_flap`'s flip schedule replayed on the routing tables alone,
/// with a route oracle answering a fixed query mix between flips.
pub fn flips_and_oracle(out: &mut Outcome, seed: u64, sim: &Simulator) {
    let mut topo = sim.topo.clone();
    let mut routing = Routing::compute(&topo);
    let links = flap_links(sim);
    let mut gen = Gen::new(seed, 0x0A);
    let n = topo.n() as u64;
    let queries: Vec<(NodeId, NodeId)> = (0..2048)
        .map(|_| (NodeId(gen.below(n) as usize), NodeId(gen.below(n) as usize)))
        .collect();
    let mut oracle = RouteOracle::new(topo.top_degree(1)[0]);
    let ask = |oracle: &mut RouteOracle, routing: &Routing, topo: &Topology| {
        per_op(queries.len() as u64, |i| {
            let (src, dst) = queries[i as usize];
            black_box(oracle.enters_via(routing, topo, src, dst));
        })
    };
    ask(&mut oracle, &routing, &topo); // cold pass fills the cache
    let warm: Vec<f64> = (0..32).map(|_| ask(&mut oracle, &routing, &topo)).collect();

    let mut flip_ns = Vec::new();
    let mut after_flip = Vec::new();
    for (_, link) in flap_schedule(&links) {
        topo.links[link.0].up = !topo.links[link.0].up;
        let t = Instant::now();
        black_box(routing.apply_link_flip(&topo, link));
        flip_ns.push(t.elapsed().as_nanos() as f64);
        after_flip.push(ask(&mut oracle, &routing, &topo));
    }
    let (hits, misses) = oracle.stats();
    let (_, _, evicted) = oracle.invalidation_stats();
    let flip_ns = sorted(flip_ns);
    out.set("routing_flip_ns_p50", quantile(&flip_ns, 0.5));
    out.set("routing_flip_ns_p95", quantile(&flip_ns, 0.95));
    out.set("oracle_query_ns_warm", median(warm));
    out.set("oracle_query_ns_after_flip", median(after_flip));
    out.set(
        "oracle_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set(
        "oracle_evicted_per_flip",
        evicted as f64 / flip_ns.len() as f64,
    );
}

/// The sweep engine on the quick E13 grid, eight replicates, on one and
/// on two shards; both must produce the same task metrics.
pub fn sweep(out: &mut Outcome) {
    let cells = dtcs_bench::e13::Sweep.cells(&dtcs_bench::RunOpts::quick());
    let one = run_grid(&cells, 8, 1);
    let two = run_grid(&cells, 8, 2);
    let tasks = one.task_metrics.len() as f64;
    out.set("sweep_tasks_per_s_1t", tasks / one.wall.as_secs_f64());
    out.set("sweep_tasks_per_s_2t", tasks / two.wall.as_secs_f64());
    let same = format!("{:?}", one.task_metrics) == format!("{:?}", two.task_metrics);
    out.set("sweep_byte_identical", f64::from(u8::from(same)));
    out.check(same, || {
        "sweep: 1-shard and 2-shard task metrics differ".into()
    });
}
