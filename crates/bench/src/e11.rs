//! E11 — Worm-driven botnet growth and time-to-mitigation (Sec. 2.1).
//!
//! The paper motivates the threat with worm outbreaks that "build up a
//! huge amplifying network of several ten thousand hosts in a short time".
//! Here the SI recruitment model drives agent activation: the experiment
//! reports the growth curve (time to 10/50/90% of the susceptible
//! population per infection rate β) and, downstream, how quickly the
//! ramping attack overwhelms the victim vs how quickly a TCS anomaly
//! trigger could have reacted.

use dtcs::attack::{ReflectorAttack, ReflectorAttackConfig, SiModel};
use dtcs::netsim::{SimDuration, SimTime, Simulator, Stats, Topology};

use crate::sweep::{metrics_of, Case, Experiment, GridExperiment};
use crate::util::{f, fopt, Report, Table};
use crate::RunOpts;

dtcs::netsim::json_record! {
    struct GrowthRow {
        beta: f64,
        susceptible: usize,
        t10_s: f64,
        t50_s: f64,
        t90_s: f64,
    }
}

dtcs::netsim::json_record! {
    struct RampRow {
        beta: f64,
        agents: usize,
        time_to_overload_s: Option<f64>,
        victim_overloaded: u64,
    }
}

/// Initially infected hosts in the SI model (the literal `2` in both
/// halves). A population parameter of the deterministic ODE, not an RNG
/// seed — it stays fixed across replicates.
const SI_SEED_HOSTS: usize = 2;

/// Base seed of the ramp simulation.
const RAMP_SEED: u64 = 44;

/// Infection rates for the pure growth curves.
const GROWTH_BETAS: [f64; 4] = [0.2, 0.5, 1.0, 2.0];

/// One grid point of the two halves.
#[derive(Clone, Copy)]
enum Params {
    /// Pure SI growth curve at this β.
    Growth(f64),
    /// Ramping attack at `(β, quick)`.
    Ramp(f64, bool),
}

enum Row {
    Growth(GrowthRow),
    Ramp(RampRow),
}

/// The grid: growth curves (deterministic — the SI model has no RNG, so
/// every replicate reproduces the same curve, like e6's rule counting),
/// then the ramping attacks, which replicate over the whole simulation.
fn cases(quick: bool) -> Vec<Case<Params>> {
    let ramp_betas: &[f64] = if quick {
        &[0.3, 1.0]
    } else {
        &[0.2, 0.4, 0.8, 1.6]
    };
    let growth = GROWTH_BETAS.iter().map(|&beta| {
        Case::new(
            format!("growth/beta={beta}"),
            RAMP_SEED,
            Params::Growth(beta),
        )
    });
    let ramp = ramp_betas.iter().map(|&beta| {
        let params = Params::Ramp(beta, quick);
        Case::new(format!("ramp/beta={beta}"), RAMP_SEED, params)
    });
    growth.chain(ramp).collect()
}

fn one(params: &Params, seed: u64) -> (Row, Stats) {
    match *params {
        Params::Growth(beta) => (Row::Growth(growth_case(beta)), Default::default()),
        Params::Ramp(beta, quick) => {
            let (row, stats) = ramp_case(beta, quick, seed);
            (Row::Ramp(row), stats)
        }
    }
}

/// Pure SI growth curve at one infection rate (no simulator involved;
/// the model is a deterministic integration, so there is no seed to
/// thread).
fn growth_case(beta: f64) -> GrowthRow {
    let s = 10_000;
    let m = SiModel {
        susceptible: s,
        seed: SI_SEED_HOSTS,
        beta,
        dt: SimDuration::from_millis(50),
    };
    GrowthRow {
        beta,
        susceptible: s,
        t10_s: m.time_to_fraction(0.1).as_secs_f64(),
        t50_s: m.time_to_fraction(0.5).as_secs_f64(),
        t90_s: m.time_to_fraction(0.9).as_secs_f64(),
    }
}

/// Ramping reflector attack at one infection rate. The SI seed
/// population is a fixed model parameter; the replicate seed drives the
/// topology, simulator, and attack config.
fn ramp_case(beta: f64, quick: bool, seed: u64) -> (RampRow, Stats) {
    let n = if quick { 120 } else { 200 };
    let agents = if quick { 60 } else { 120 };
    let topo = Topology::barabasi_albert(n, 2, 0.1, seed);
    let mut sim = Simulator::new(topo, seed);
    let victim_node = sim.topo.stub_nodes()[0];
    let dur = if quick { 25u64 } else { 40 };
    let attack = ReflectorAttack::install(
        &mut sim,
        victim_node,
        &ReflectorAttackConfig {
            n_agents: agents,
            n_reflectors: agents,
            agent_rate_pps: 40.0,
            start_at: SimTime::from_secs(2),
            stop_at: SimTime::from_secs(dur - 2),
            victim_capacity_pps: 500.0,
            si_recruitment: Some(SiModel {
                susceptible: agents,
                seed: SI_SEED_HOSTS,
                beta,
                dt: SimDuration::from_millis(100),
            }),
            seed,
            ..Default::default()
        },
    );
    sim.run_until(SimTime::from_secs(dur));
    let v = attack.victim_stats.lock();
    let row = RampRow {
        beta,
        agents,
        time_to_overload_s: v.first_overload_nanos.map(|ns| (ns as f64 / 1e9) - 2.0),
        victim_overloaded: v.overloaded,
    };
    drop(v);
    (row, sim.stats)
}

pub(crate) static EXPERIMENT: &dyn GridExperiment = &Experiment {
    id: "e11",
    title: "Botnet recruitment dynamics and attack ramp",
    anchor: "Sec. 2.1",
    cases,
    one,
    metrics: |row| match row {
        Row::Growth(r) => metrics_of(r, &["beta", "susceptible"]),
        Row::Ramp(r) => metrics_of(r, &["beta"]),
    },
    render,
};

fn render(report: &mut Report, _: &RunOpts, _: &[Case<Params>], outs: &[(Row, Stats)]) {
    // Growth curves (pure model; cheap, so always full).
    let growth = outs.iter().filter_map(|(row, _)| match row {
        Row::Growth(r) => Some(r),
        Row::Ramp(_) => None,
    });
    report.table(Table::of(
        "SI recruitment: time to reach fraction of susceptible pool (10k hosts)",
        growth,
        &[
            ("beta", &|r| f(r.beta)),
            ("t_10%", &|r| f(r.t10_s)),
            ("t_50%", &|r| f(r.t50_s)),
            ("t_90%", &|r| f(r.t90_s)),
        ],
    ));
    // Ramping attack: time until the victim first overloads.
    let ramp = outs.iter().filter_map(|(row, _)| match row {
        Row::Ramp(r) => Some(r),
        Row::Growth(_) => None,
    });
    report.table(Table::of(
        "ramping reflector attack: time from outbreak to victim overload",
        ramp,
        &[
            ("beta", &|r| f(r.beta)),
            ("agents", &|r| r.agents.to_string()),
            ("t_overload_s", &|r| fopt(r.time_to_overload_s)),
            ("overload_pkts", &|r| r.victim_overloaded.to_string()),
        ],
    ));
    report.note(
        "Faster worms compress the victim's reaction window to seconds — compare E10's \
         trigger reaction (sub-second) and E7's deployment latency (tens of ms): the TCS \
         control loop is faster than every recruitment curve measured here, which is the \
         operational requirement for reactive deployment (Sec. 4.3).",
    );
}
