//! One child process: one iteration of a workload, or one of its arms,
//! or its kernels. Results go to standard output as `key value` lines.

use std::time::Instant;

use dtcs::netsim::{Simulator, Topology};

use crate::harness::{peak_rss_mb, Ctx, Outcome};
use crate::packet::{Attack, Defence, Graph, Pass, FLUID_TS100K, INGRESS_FLAP, PKT_BA400};
use crate::{alloc, control, device, kernels, packet};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The same workload with one layer added or bypassed through public
    /// configuration; run once each in the traced run.
    pub arms: &'static [&'static str],
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "pkt_ba400",
        why: "E2 reflector attack on BA-400, undefended then static TCS: the packet engine (event loop, wheel, arena, links, device graphs on the path) does all the work; fluid and control idle",
        arms: &["ts20k", "trace_full", "trace_s64"],
    },
    Workload {
        name: "ingress_flap",
        why: "spoofed flood on BA-400 against 200 ingress filters while 16 access links flap every 50 ms: routing repair and oracle eviction race route-consistency lookups; writes beside reads on the routing tables",
        arms: &["honest_filters", "honest_nofilters"],
    },
    Workload {
        name: "fluid_ts100k",
        why: "100k-node transit-stub internet with 5000 fluid background flows: topology build, hierarchical routing and the fluid tick own the time; the memory and set-up headline, few discrete events",
        arms: &["nobg"],
    },
    Workload {
        name: "dev_churn",
        why: "one adaptive device with 10000 owners, 1M packets (75% unowned, 20% owned UDP, 5% owned RST) and a leased install every 50th packet: rule-table lookups beside installs and lease reaps; no routing work",
        arms: &["miss", "hit", "nodevice", "readonly"],
    },
    Workload {
        name: "cp_churn",
        why: "64 owners deploy and 32 withdraw through TCSP, NMS and 136 devices under 20% loss, 10% duplication, jitter and crashing devices: control plane, retry and fault layers only; no data packets",
        arms: &["lossless", "cp_trace"],
    },
];

/// The graph a workload runs on, for the kernels that need one.
fn topology(workload: &str, seed: u64) -> Option<Topology> {
    Some(match workload {
        "pkt_ba400" => packet::build_topology(PKT_BA400.graph, seed),
        "ingress_flap" => packet::build_topology(INGRESS_FLAP.graph, seed),
        "fluid_ts100k" => packet::build_topology(FLUID_TS100K.graph, seed),
        "dev_churn" => Topology::line(3),
        "cp_churn" => control::topology(seed),
        _ => return None,
    })
}

fn kernels(workload: &str, seed: u64, wheel_len: u64) -> Option<Outcome> {
    let mut out = Outcome::default();
    let topo = topology(workload, seed)?;
    kernels::standalone(&mut out, seed, wheel_len);
    let sim = Simulator::new(topo, seed);
    kernels::next_hop(&mut out, seed, &sim.topo, &sim.routing);
    // The flip schedule exists on BA-400 only; finding the low-coverage
    // links of the 100k-node graph would outlast the whole run.
    if matches!(workload, "pkt_ba400" | "ingress_flap") {
        kernels::flips_and_oracle(&mut out, seed, &sim);
    }
    if workload == "cp_churn" {
        kernels::sweep(&mut out);
    }
    Some(out)
}

/// Time `export_jsonl_string` of the defended pass's packet record.
fn packet_trace(ctx: &mut Ctx, seed: u64, one_in: u64) -> Outcome {
    let pass = Pass {
        packet_trace: Some(one_in),
        ..PKT_BA400
    };
    let (mut out, recorder) = packet::pkt_ba400(ctx, seed, pass);
    let recorder = recorder.expect("traced pass returns its recorder");
    out.set("trace_events", recorder.recorded() as f64);
    let t = Instant::now();
    let text = recorder.export_jsonl_string();
    out.set("trace_export_ns", t.elapsed().as_nanos() as f64);
    out.check(text.lines().count() == recorder.len(), || {
        "packet trace export lost events".into()
    });
    out
}

fn iteration(ctx: &mut Ctx, workload: &str, arm: &str, seed: u64) -> Option<Outcome> {
    Some(match (workload, arm) {
        ("pkt_ba400", "") => packet::pkt_ba400(ctx, seed, PKT_BA400).0,
        ("pkt_ba400", "ts20k") => {
            let pass = Pass {
                graph: Graph::TransitStub(20_000),
                background_flows: 100,
                ..PKT_BA400
            };
            packet::pkt_ba400(ctx, seed, pass).0
        }
        ("pkt_ba400", "trace_full") => packet_trace(ctx, seed, 1),
        ("pkt_ba400", "trace_s64") => packet_trace(ctx, seed, 64),
        ("ingress_flap", "") => packet::single_pass(ctx, seed, INGRESS_FLAP),
        // No flaps and honest sources: the filters check every packet and
        // drop none, so both arms simulate the same events.
        ("ingress_flap", "honest_filters" | "honest_nofilters") => {
            let pass = Pass {
                flaps: false,
                attack: Attack::Flood { spoofed: false },
                defence: if arm == "honest_filters" {
                    Defence::Ingress
                } else {
                    Defence::None
                },
                ..INGRESS_FLAP
            };
            packet::single_pass(ctx, seed, pass)
        }
        ("fluid_ts100k", "") => packet::single_pass(ctx, seed, FLUID_TS100K),
        ("fluid_ts100k", "nobg") => {
            let pass = Pass {
                background_flows: 0,
                ..FLUID_TS100K
            };
            packet::single_pass(ctx, seed, pass)
        }
        ("dev_churn", arm) => {
            let mix = match arm {
                "" => device::DEV_CHURN,
                "readonly" => device::Mix {
                    writes: false,
                    ..device::DEV_CHURN
                },
                "miss" | "nodevice" => device::Mix {
                    owned_udp_pct: 0,
                    owned_rst_pct: 0,
                    device: arm == "miss",
                    writes: false,
                },
                "hit" => device::Mix {
                    owned_udp_pct: 100,
                    owned_rst_pct: 0,
                    device: true,
                    writes: false,
                },
                _ => return None,
            };
            device::dev_churn(ctx, seed, mix)
        }
        ("cp_churn", arm) => {
            let channel = match arm {
                "" => control::CP_CHURN,
                "lossless" => control::Channel {
                    lossy: false,
                    ..control::CP_CHURN
                },
                "cp_trace" => control::Channel {
                    record: true,
                    ..control::CP_CHURN
                },
                _ => return None,
            };
            control::cp_churn(ctx, seed, channel)
        }
        _ => return None,
    })
}

/// Run and print; `false` when the workload or arm is unknown.
pub fn run(
    t0: Instant,
    workload: &str,
    arm: &str,
    seed: u64,
    traced: bool,
    wheel_len: u64,
) -> bool {
    if arm == "kernels" {
        let Some(out) = kernels(workload, seed, wheel_len) else {
            return false;
        };
        print_outcome(&out);
        return true;
    }
    if traced {
        alloc::enable();
    }
    let mut ctx = Ctx::start(t0, traced);
    let Some(out) = iteration(&mut ctx, workload, arm, seed) else {
        return false;
    };
    ctx.finish();
    println!("setup_ns {}", ctx.setup_ns);
    println!("run_ns {}", ctx.run_ns);
    println!("setup_allocs {}", ctx.setup_allocs);
    println!("run_allocs {}", ctx.run_allocs);
    println!("run_alloc_bytes {}", ctx.run_alloc_bytes);
    println!("peak_rss_mb {}", peak_rss_mb());
    print_outcome(&out);
    for (ns, events) in &ctx.slices {
        println!("slice {ns} {events}");
    }
    if traced {
        for s in &ctx.spans {
            println!(
                "span {} {} {} {} {}",
                s.name,
                s.index.map_or(-1, i64::from),
                s.start_ns,
                s.end_ns,
                s.parent.map_or(-1, |p| p as i64)
            );
        }
    }
    true
}

fn print_outcome(out: &Outcome) {
    for (k, v) in &out.values {
        println!("{k} {v}");
    }
    println!("digest {:016x}", out.digest);
    for v in &out.violations {
        println!("violation {v}");
    }
}
