//! Fluid/discrete equivalence cross-check (`experiments --fluid-equivalence`).
//!
//! The fluid layer's contract (DESIGN.md §6.8) is that carrying steady
//! background traffic as rate aggregates must not change what the paper
//! measures at the victim. This module runs the E2 scenario per scheme
//! twice — background as discrete CBR packets vs as fluid aggregates —
//! and enforces pinned tolerances on the victim-side metrics and on the
//! background volume itself. The CI `fluid-equivalence` job runs it and
//! fails the build on any breach; the tolerances are deliberately
//! constants here, not CLI knobs, so loosening them is a reviewed diff.

use dtcs::mitigation::Placement;
use dtcs::netsim::{SimDuration, TrafficClass};
use dtcs::{run_scenario, Scheme};

/// Absolute |Δ| tolerance on success-ratio metrics (legit, collateral,
/// attack-delivered): the two engines must agree on every headline
/// outcome to within five percentage points.
pub const TOL_RATIO: f64 = 0.05;

/// Relative tolerance on background volume *offered* (sent bytes). The
/// fluid layer integrates the same rate the CBR emitter quantizes, so
/// the offered volumes must track each other tightly.
pub const TOL_BG_SENT: f64 = 0.02;

/// Relative tolerance on background volume *delivered*. Looser than the
/// offered bound: admission under attack load is where the closed-form
/// proportional share and per-packet queueing legitimately diverge.
pub const TOL_BG_DELIVERED: f64 = 0.05;

/// Run the cross-check grid and print one row per (scheme, metric).
/// Returns `true` iff every check passed.
pub fn run_fluid_equivalence(quick: bool) -> bool {
    let mut cfg = crate::e2::scenario(quick);
    if !quick {
        // The pinned cross-check grid is a BA-400 internet — the size
        // the discrete engine's golden results are anchored at.
        cfg.n_nodes = 400;
    }
    cfg.background_flows = if quick { 60 } else { 200 };
    let schemes = [
        Scheme::None,
        Scheme::Ingress {
            fraction: 0.3,
            placement: Placement::TopDegree,
        },
    ];
    println!(
        "fluid-equivalence cross-check: {} nodes, {} background flows, \
         tolerances ratio<= {TOL_RATIO}, bg sent<= {TOL_BG_SENT} rel, \
         bg delivered<= {TOL_BG_DELIVERED} rel",
        cfg.n_nodes, cfg.background_flows
    );
    println!(
        "{:<22} {:<26} {:>12} {:>12} {:>9} {:>7}  ok",
        "scheme", "metric", "fluid-off", "fluid-on", "delta", "limit"
    );
    let mut all_ok = true;
    for scheme in schemes {
        let off_cfg = cfg.clone();
        let mut on_cfg = cfg.clone();
        on_cfg.fluid = Some(SimDuration::from_millis(50));
        let off = run_scenario(&off_cfg, &scheme);
        let on = run_scenario(&on_cfg, &scheme);
        let label = scheme.label();
        let mut check = |metric: &str, a: f64, b: f64, limit: f64, relative: bool| {
            let delta = if relative {
                (a - b).abs() / a.abs().max(1.0)
            } else {
                (a - b).abs()
            };
            let ok = delta <= limit;
            all_ok &= ok;
            println!(
                "{label:<22} {metric:<26} {a:>12.4} {b:>12.4} {delta:>9.4} {limit:>7.4}  {}",
                if ok { "yes" } else { "NO" }
            );
        };
        check(
            "legit_success",
            off.row.legit_success,
            on.row.legit_success,
            TOL_RATIO,
            false,
        );
        check(
            "collateral_success",
            off.row.collateral_success,
            on.row.collateral_success,
            TOL_RATIO,
            false,
        );
        check(
            "attack_delivered_ratio",
            off.row.attack_delivered_ratio,
            on.row.attack_delivered_ratio,
            TOL_RATIO,
            false,
        );
        let boff = off.stats.class(TrafficClass::Background);
        let bon = on.stats.class(TrafficClass::Background);
        check(
            "background_sent_bytes",
            boff.sent_bytes as f64,
            bon.sent_bytes as f64,
            TOL_BG_SENT,
            true,
        );
        check(
            "background_delivered_bytes",
            boff.delivered_bytes as f64,
            bon.delivered_bytes as f64,
            TOL_BG_DELIVERED,
            true,
        );
        // The comparison is vacuous unless each run used the engine it
        // claims to: the fluid run must carry aggregates, the discrete
        // run must not.
        if on.stats.fluid_aggregates == 0 {
            println!("{label:<22} fluid run created no aggregates — check is vacuous  NO");
            all_ok = false;
        }
        if off.stats.fluid_aggregates != 0 {
            println!("{label:<22} discrete run unexpectedly used the fluid layer  NO");
            all_ok = false;
        }
    }
    println!(
        "fluid-equivalence: {}",
        if all_ok { "PASS" } else { "FAIL" }
    );
    all_ok
}
