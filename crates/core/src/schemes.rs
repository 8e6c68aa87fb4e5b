//! The mitigation schemes compared by the paper's Sec. 3 analysis, as one
//! enum. [`run_scenario`](crate::run_scenario) installs each at the right
//! lifecycle point: before the attack, and for traceback again at its
//! reconstruction instant.

use dtcs_mitigation::{BlockScope, Placement, PushbackConfig};
use dtcs_netsim::SimTime;

use crate::tcs::TcsStaticConfig;

/// A mitigation scheme under comparison (experiment E2's row dimension).
#[derive(Clone, Debug)]
pub enum Scheme {
    /// No defense at all.
    None,
    /// Static RFC 2267 ingress filtering at a fraction of ASes (Sec. 3.2).
    Ingress {
        /// Deployment fraction.
        fraction: f64,
        /// Placement policy.
        placement: Placement,
    },
    /// Pushback on every router (Sec. 3.1).
    Pushback(PushbackConfig),
    /// PPM traceback + reactive filters on the identified sources
    /// (Sec. 3.1 — counterproductive for reflector attacks).
    TracebackFilter {
        /// Router marking probability.
        marking_p: f64,
        /// When the victim reconstructs and filters.
        reconstruct_at: SimTime,
        /// Filter intensity.
        scope: BlockScope,
    },
    /// SOS/Mayday secure overlay (Sec. 3.2): three access points, two
    /// secret servlets.
    Sos,
    /// i3-style indirection defense (Sec. 3.1).
    I3 {
        /// Is the victim's real address hidden from the attacker?
        /// (The paper's critique: it realistically is not.)
        ip_hidden: bool,
    },
    /// The paper's contribution: distributed traffic control service,
    /// statically deployed.
    Tcs(TcsStaticConfig),
}

impl Scheme {
    /// Stable label for report rows.
    pub fn label(&self) -> String {
        match self {
            Scheme::None => "none".into(),
            Scheme::Ingress { fraction, .. } => format!("ingress({:.0}%)", fraction * 100.0),
            Scheme::Pushback(_) => "pushback".into(),
            Scheme::TracebackFilter { scope, .. } => match scope {
                BlockScope::AllTraffic => "traceback+null-route".into(),
                BlockScope::TowardVictim(_) => "traceback+filter".into(),
            },
            Scheme::Sos => "sos-overlay".into(),
            Scheme::I3 { ip_hidden } => {
                if *ip_hidden {
                    "i3(hidden-ip)".into()
                } else {
                    "i3(known-ip)".into()
                }
            }
            Scheme::Tcs(cfg) => format!("tcs({:.0}%)", cfg.fraction * 100.0),
        }
    }

    /// The standard comparison set for experiment E2.
    pub fn comparison_set(attack_start: SimTime) -> Vec<Scheme> {
        let reconstruct_at = SimTime(attack_start.as_nanos() + 5_000_000_000);
        vec![
            Scheme::None,
            Scheme::Ingress {
                fraction: 0.2,
                placement: Placement::Random,
            },
            Scheme::Pushback(PushbackConfig::default()),
            Scheme::TracebackFilter {
                marking_p: 0.04,
                reconstruct_at,
                scope: BlockScope::AllTraffic,
            },
            Scheme::Sos,
            Scheme::I3 { ip_hidden: false },
            Scheme::Tcs(TcsStaticConfig {
                fraction: 0.3,
                placement: Placement::TopDegree,
                activate_at: reconstruct_at, // reactive: deployed mid-attack
                ..Default::default()
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let set = Scheme::comparison_set(SimTime::from_secs(5));
        let mut labels: Vec<String> = set.iter().map(Scheme::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), set.len());
    }
}
