//! Botnet recruitment via a susceptible–infected (SI) epidemic.
//!
//! Sec. 2.1 of the paper: worms like MyDoom "build up a huge amplifying
//! network of several ten thousand hosts in a short time". We do not model
//! worm payloads — only the *growth curve* of the agent population matters
//! to mitigation timing — so recruitment follows the standard logistic SI
//! dynamics dI/dt = β·I·(1 − I/S), discretised deterministically. The
//! output is a sorted list of activation times, one per recruited agent,
//! consumed by [`crate::agent::AgentApp`].

use dtcs_netsim::{SimDuration, SimTime};

/// SI recruitment parameters.
#[derive(Clone, Copy, Debug)]
pub struct SiModel {
    /// Susceptible population (maximum botnet size).
    pub susceptible: usize,
    /// Initially infected hosts (seed population, >= 1).
    pub seed: usize,
    /// Contact/infection rate β in 1/second.
    pub beta: f64,
    /// Integration step.
    pub dt: SimDuration,
}

impl SiModel {
    /// A fast worm: 1000 susceptible hosts, 2 seeds, β=0.8/s.
    pub fn fast(susceptible: usize) -> SiModel {
        SiModel {
            susceptible,
            seed: 2.min(susceptible.max(1)),
            beta: 0.8,
            dt: SimDuration::from_millis(100),
        }
    }

    /// Activation times for `n` agents: the instants at which the
    /// cumulative infected count crosses 1, 2, …, n. Agents beyond the
    /// carrying capacity never activate and are omitted.
    pub fn activation_times(&self, n: usize) -> Vec<SimTime> {
        let s = self.susceptible.max(1) as f64;
        let mut infected = (self.seed.max(1) as f64).min(s);
        let dt_s = self.dt.as_secs_f64().max(1e-9);
        let mut out = Vec::with_capacity(n.min(self.susceptible));
        let mut t = SimTime::ZERO;
        // Seeds activate immediately.
        while out.len() < n && (out.len() as f64) < infected {
            out.push(t);
        }
        let mut steps: u64 = 0;
        // Hard cap to guarantee termination even for tiny beta.
        let max_steps = 10_000_000u64;
        while out.len() < n.min(self.susceptible) && steps < max_steps {
            infected += self.beta * infected * (1.0 - infected / s) * dt_s;
            infected = infected.min(s);
            t += self.dt;
            steps += 1;
            while out.len() < n.min(self.susceptible) && ((out.len() + 1) as f64) <= infected {
                out.push(t);
            }
            if infected >= s - 1e-9 {
                // Saturated: everything remaining activates now.
                while out.len() < n.min(self.susceptible) {
                    out.push(t);
                }
            }
        }
        out
    }

    /// Time for the infection to reach a fraction `frac` of the
    /// susceptible population (closed-form logistic solution).
    pub fn time_to_fraction(&self, frac: f64) -> SimDuration {
        let s = self.susceptible.max(1) as f64;
        let i0 = (self.seed.max(1) as f64).min(s);
        let frac = frac.clamp(1e-9, 1.0 - 1e-9);
        let target = frac * s;
        // Logistic: I(t) = S / (1 + (S/I0 - 1) e^{-βt})
        let ratio = (s / i0 - 1.0) / (s / target - 1.0);
        let t = ratio.ln() / self.beta;
        SimDuration::from_secs_f64(t.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_activate_at_zero() {
        let m = SiModel {
            susceptible: 100,
            seed: 3,
            beta: 1.0,
            dt: SimDuration::from_millis(10),
        };
        let times = m.activation_times(10);
        assert_eq!(times.len(), 10);
        assert_eq!(times[0], SimTime::ZERO);
        assert_eq!(times[2], SimTime::ZERO);
        assert!(times[3] > SimTime::ZERO);
    }

    #[test]
    fn activation_times_sorted_and_bounded() {
        let m = SiModel::fast(500);
        let times = m.activation_times(500);
        assert_eq!(times.len(), 500);
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn growth_is_s_shaped() {
        let m = SiModel::fast(1000);
        let times = m.activation_times(1000);
        // Time from 10% to 50% should be much shorter than from 0.2% to
        // 10% (exponential take-off), and the tail (90%→100%) slow again.
        let t10 = times[100].as_secs_f64();
        let t50 = times[500].as_secs_f64();
        let t90 = times[900].as_secs_f64();
        let t99 = times[990].as_secs_f64();
        assert!(t50 - t10 < t10, "take-off phase dominates early time");
        assert!(t99 - t90 > (t50 - t10) / 4.0, "saturation slows down");
    }

    #[test]
    fn closed_form_matches_simulation() {
        let m = SiModel {
            susceptible: 1000,
            seed: 2,
            beta: 0.5,
            dt: SimDuration::from_millis(10),
        };
        let times = m.activation_times(1000);
        let t_half_sim = times[499].as_secs_f64();
        let t_half_cf = m.time_to_fraction(0.5).as_secs_f64();
        let rel = (t_half_sim - t_half_cf).abs() / t_half_cf;
        assert!(rel < 0.05, "sim {t_half_sim} vs closed-form {t_half_cf}");
    }

    #[test]
    fn capped_by_susceptible_population() {
        let m = SiModel::fast(10);
        let times = m.activation_times(50);
        assert_eq!(times.len(), 10);
    }
}
