//! Property tests over the whole stack: simulator conservation laws,
//! device safety invariants, routing soundness, and determinism — the
//! invariants DESIGN.md commits to, fuzzed with seeded loops over
//! [`dtcs::netsim::rng::check_cases`].

use dtcs::device::{
    FilterRule, GraphNodeSpec, MatchExpr, ModuleSpec, PacketView, SafetyVerifier, ServiceGraph,
    ServiceSpec, TriggerAction, TriggerMetric,
};
use dtcs::netsim::rng::{check_cases, ChaCha8Rng};
use dtcs::netsim::{
    Addr, NodeId, Packet, PacketBuilder, Prefix, Proto, Routing, SimDuration, SimTime, Simulator,
    Topology, TrafficClass,
};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// `len` draws of `item`, `len` uniform in `lens`.
fn vec_of<T>(
    rng: &mut ChaCha8Rng,
    lens: std::ops::Range<usize>,
    mut item: impl FnMut(&mut ChaCha8Rng) -> T,
) -> Vec<T> {
    (0..rng.gen_range(lens)).map(|_| item(rng)).collect()
}

/// `Some(item)` half the time.
fn option_of<T>(rng: &mut ChaCha8Rng, item: impl FnOnce(&mut ChaCha8Rng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| item(rng))
}

fn arb_proto(rng: &mut ChaCha8Rng) -> Proto {
    const PROTOS: [Proto; 9] = [
        Proto::TcpSyn,
        Proto::TcpSynAck,
        Proto::TcpRst,
        Proto::TcpData,
        Proto::Udp,
        Proto::DnsQuery,
        Proto::DnsResponse,
        Proto::IcmpEcho,
        Proto::IcmpEchoReply,
    ];
    *rng.choose(&PROTOS).expect("non-empty")
}

fn arb_prefix(rng: &mut ChaCha8Rng) -> Prefix {
    Prefix::new(rng.gen(), rng.gen_range(0..=32))
}

fn arb_match(rng: &mut ChaCha8Rng) -> MatchExpr {
    MatchExpr {
        src_in: option_of(rng, arb_prefix),
        dst_in: option_of(rng, arb_prefix),
        protos: vec_of(rng, 0..3, arb_proto),
        min_size: option_of(rng, |rng| rng.gen_range(0..2000)),
        max_size: option_of(rng, |rng| rng.gen_range(0..4000)),
        payload_hashes: vec![],
    }
}

/// Only safe (verifier-passing) module kinds.
fn arb_safe_module(rng: &mut ChaCha8Rng) -> ModuleSpec {
    match rng.gen_range(0..7u32) {
        0 => ModuleSpec::Filter {
            rules: vec_of(rng, 0..4, |rng| FilterRule {
                expr: arb_match(rng),
                drop: rng.gen_bool(0.5),
            }),
        },
        1 => ModuleSpec::RateLimit {
            expr: arb_match(rng),
            rate_bytes_per_sec: rng.gen_range(1.0..1e7),
            burst_bytes: rng.gen_range(1..100_000),
        },
        2 => ModuleSpec::Blacklist {
            sources: vec_of(rng, 0..4, arb_prefix),
        },
        3 => ModuleSpec::AntiSpoof,
        4 => ModuleSpec::PayloadDelete {
            expr: arb_match(rng),
            keep_bytes: rng.gen_range(0..200),
        },
        5 => ModuleSpec::Logger {
            capacity: rng.gen_range(1..2000),
            sample_one_in: rng.gen_range(1..64),
        },
        _ => ModuleSpec::DigestBacklog {
            window: SimDuration(rng.gen_range(1..3_000_000_000)),
            windows: rng.gen_range(1..8),
            bits: rng.gen_range(64..(1 << 16)),
            hashes: rng.gen_range(1..6),
        },
    }
}

/// Any module kind, including the forbidden ones.
fn arb_any_module(rng: &mut ChaCha8Rng) -> ModuleSpec {
    match rng.gen_range(0..5u32) {
        0 => arb_safe_module(rng),
        1 => ModuleSpec::RewriteHeader {
            new_src: Some(Addr(rng.gen())),
            new_dst: Some(Addr(rng.gen())),
        },
        2 => ModuleSpec::TtlModify {
            delta: rng.gen::<u32>() as i16,
        },
        3 => ModuleSpec::Amplify {
            factor: rng.gen_range(1..1000),
        },
        _ => ModuleSpec::Redirect {
            to: Addr(rng.gen()),
        },
    }
}

fn arb_packet(rng: &mut ChaCha8Rng) -> Packet {
    let (src, dst) = (Addr(rng.gen()), Addr(rng.gen()));
    PacketBuilder::new(src, dst, arb_proto(rng), TrafficClass::Background)
        .size(rng.gen_range(40..3000))
        .flow(rng.gen())
        .tag(rng.gen())
        .build(1, src.node())
}

fn is_forbidden(m: &ModuleSpec) -> bool {
    matches!(
        m,
        ModuleSpec::RewriteHeader { .. }
            | ModuleSpec::TtlModify { .. }
            | ModuleSpec::Amplify { .. }
            | ModuleSpec::Redirect { .. }
    )
}

// ---------------------------------------------------------------------
// Device safety properties (Sec. 4.5)
// ---------------------------------------------------------------------

/// The verifier rejects every forbidden module regardless of context,
/// and every verified spec instantiates without panicking.
#[test]
fn verifier_is_sound() {
    check_cases(0..64, |rng| {
        let modules = vec_of(rng, 1..6, arb_any_module);
        let spec = ServiceSpec::chain("fuzz", modules.clone());
        let verifier = SafetyVerifier::default();
        match verifier.verify(&spec) {
            Ok(()) => {
                assert!(
                    modules.iter().all(|m| !is_forbidden(m)),
                    "verified spec contained a forbidden module"
                );
                let _graph = ServiceGraph::from_spec(&spec); // must not panic
            }
            Err(_) => {
                // Rejection must have a cause: either a forbidden module
                // or an out-of-bounds parameter; safe modules as generated
                // here have valid parameters, so the cause must be a
                // forbidden module... unless the generator made an
                // oversized logger/backlog, which it cannot (bounds above).
                assert!(
                    modules.iter().any(is_forbidden),
                    "spec of only-safe modules was rejected"
                );
            }
        }
    });
}

/// No safe graph can grow a packet or touch its protected headers.
#[test]
fn graphs_never_amplify_or_rewrite() {
    check_cases(0..64, |rng| {
        let modules = vec_of(rng, 1..6, arb_safe_module);
        let mut packets = vec_of(rng, 1..30, arb_packet);
        let spec = ServiceSpec::chain("fuzz", modules);
        if SafetyVerifier::default().verify(&spec).is_err() {
            return;
        }
        let mut graph = ServiceGraph::from_spec(&spec);
        let ctx = dtcs::device::DeviceContext { node: NodeId(0) };
        let mut events = Vec::new();
        for (i, pkt) in packets.iter_mut().enumerate() {
            let before = *pkt;
            let mut view = PacketView::wrap(pkt);
            let _ = graph.process(
                SimTime(i as u64 * 1_000_000),
                &ctx,
                false,
                dtcs::device::OwnerId(1),
                &mut events,
                &mut view,
            );
            let _ = view;
            assert_eq!(pkt.src, before.src, "source must be immutable");
            assert_eq!(pkt.dst, before.dst, "destination must be immutable");
            assert_eq!(pkt.ttl, before.ttl, "TTL must be immutable");
            assert!(pkt.size <= before.size, "packets may only shrink");
        }
    });
}

/// A spec's stored fingerprint is FNV-1a over its `Debug` rendering, and
/// that rendering is the plain `name` + `modules` struct's — rebuilt here
/// from the accessors, for any module mix and enable bits.
#[test]
fn spec_fingerprint_is_fnv1a_of_the_struct_rendering() {
    check_cases(0..128, |rng| {
        let name = format!("svc-{}", rng.gen::<u32>());
        let modules = vec_of(rng, 0..6, |rng| GraphNodeSpec {
            module: arb_any_module(rng),
            enabled: rng.gen_bool(0.5),
        });
        let spec = ServiceSpec::new(&name, modules.clone());
        let rendering = format!("ServiceSpec {{ name: {name:?}, modules: {modules:?} }}");
        assert_eq!(format!("{spec:?}"), rendering);
        let fnv1a = rendering.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!(spec.content_hash(), fnv1a);
        assert_eq!(spec.clone().content_hash(), fnv1a);
        assert_eq!(ServiceSpec::new(&name, modules), spec);
    });
}

/// Trigger graphs with valid targets also hold the invariants.
#[test]
fn trigger_graphs_hold_invariants() {
    check_cases(0..64, |rng| {
        let threshold = rng.gen_range(1.0..10_000.0);
        let window = rng.gen_range(1..2_000_000_000u64);
        let mut packets = vec_of(rng, 1..40, arb_packet);
        let spec = ServiceSpec::new(
            "fuzz-trigger",
            vec![
                GraphNodeSpec {
                    module: ModuleSpec::Trigger {
                        expr: MatchExpr::any(),
                        metric: TriggerMetric::PacketRate,
                        threshold,
                        window: SimDuration(window),
                        action: TriggerAction::ActivateModule(1),
                        tag: 1,
                    },
                    enabled: true,
                },
                GraphNodeSpec {
                    module: ModuleSpec::PayloadDelete {
                        expr: MatchExpr::any(),
                        keep_bytes: 40,
                    },
                    enabled: false,
                },
            ],
        );
        assert!(SafetyVerifier::default().verify(&spec).is_ok());
        let mut graph = ServiceGraph::from_spec(&spec);
        let ctx = dtcs::device::DeviceContext { node: NodeId(0) };
        let mut events = Vec::new();
        for (i, pkt) in packets.iter_mut().enumerate() {
            let before = *pkt;
            let mut view = PacketView::wrap(pkt);
            let _ = graph.process(
                SimTime(i as u64 * 10_000_000),
                &ctx,
                false,
                dtcs::device::OwnerId(1),
                &mut events,
                &mut view,
            );
            let _ = view;
            assert!(pkt.size <= before.size);
            assert_eq!(
                (pkt.src, pkt.dst, pkt.ttl),
                (before.src, before.dst, before.ttl)
            );
        }
    });
}

// ---------------------------------------------------------------------
// Simulator conservation + routing soundness
// ---------------------------------------------------------------------

/// Sent = delivered + dropped + in-flight for every class, on random
/// topologies with random traffic.
#[test]
fn stats_conservation() {
    check_cases(0..16, |rng| {
        let n = rng.gen_range(20..80usize);
        let seed = rng.gen_range(0..1000u64);
        let n_pkts = rng.gen_range(10..200u64);
        let topo = Topology::barabasi_albert(n, 2, 0.1, seed);
        let mut sim = Simulator::new(topo, seed);
        // Listeners on every node's service host.
        for i in 0..n {
            sim.install_app(Addr::new(NodeId(i), 1), Box::new(dtcs::netsim::SinkApp));
        }
        let mut rngstate = seed;
        let mut next = move || {
            rngstate = rngstate
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rngstate >> 33
        };
        for k in 0..n_pkts {
            let from = NodeId((next() as usize) % n);
            let to = Addr::new(NodeId((next() as usize) % n), 1);
            let at = SimTime(k * 1_000_000);
            sim.schedule(at, move |s| {
                s.emit_now(
                    from,
                    PacketBuilder::new(
                        Addr::new(from, 2),
                        to,
                        Proto::Udp,
                        TrafficClass::Background,
                    )
                    .size(100)
                    .flow(k),
                );
            });
        }
        sim.run_until(SimTime::from_secs(30));
        assert!(sim.stats.check_conservation().is_ok());
        let c = sim.stats.class(TrafficClass::Background);
        // Everything resolved by now (30 s >> any path delay).
        assert_eq!(c.sent_pkts, c.delivered_pkts + c.dropped_pkts);
    });
}

/// Routing: next hops strictly decrease the recorded distance, and
/// paths terminate.
#[test]
fn routing_is_sound() {
    check_cases(0..16, |rng| {
        let n = rng.gen_range(10..100usize);
        let seed = rng.gen_range(0..500u64);
        let topo = Topology::barabasi_albert(n, 2, 0.15, seed);
        let routing = Routing::compute(&topo);
        for u in 0..n {
            let dst = NodeId((u * 7 + 3) % n);
            if NodeId(u) == dst {
                continue;
            }
            let path = routing.path(&topo, NodeId(u), dst);
            assert!(path.is_some(), "connected BA graph must route");
            let path = path.unwrap();
            assert_eq!(*path.last().unwrap(), dst);
            assert_eq!(
                path.len() as u16 - 1,
                routing.distance(NodeId(u), dst).unwrap()
            );
            // No loops.
            let mut sorted = path.clone();
            sorted.sort_by_key(|p| p.0);
            sorted.dedup();
            assert_eq!(sorted.len(), path.len(), "path must be loop-free");
        }
    });
}

/// The trie agrees with the linear table on arbitrary rule sets.
#[test]
fn trie_matches_linear_reference() {
    check_cases(0..16, |rng| {
        let entries: Vec<(u32, u8)> = vec_of(rng, 0..60, |rng| (rng.gen(), rng.gen_range(0..=32)));
        let probes: Vec<u32> = vec_of(rng, 0..200, |rng| rng.gen());
        let mut trie = dtcs::device::trie::PrefixTrie::new();
        let mut linear = dtcs::device::trie::LinearTable::new();
        for (i, &(bits, len)) in entries.iter().enumerate() {
            let p = Prefix::new(bits, len);
            trie.insert(p, i);
            linear.insert(p, i);
        }
        for &a in &probes {
            let t = trie.lookup(Addr(a)).map(|(p, v)| (p.len, *v));
            let l = linear.lookup(Addr(a)).map(|(p, v)| (p.len, *v));
            assert_eq!(t, l, "LPM length and value must agree at {:#x}", a);
        }
    });
}
