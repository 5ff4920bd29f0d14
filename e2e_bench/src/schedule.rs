//! How an untraced run spends its `--seconds`.
//!
//! The host's speed changes from one second to the next (other tenants
//! share its two cores), so the phases are not run one after the other:
//! the run is cut into rounds of about [`ROUND_S`], and every round runs
//! one set-up, the calibration job (`stats::Slowdown`) and a slice of each
//! phase — `sat`, then `low`, then `high`.
//! Each metric is then a median over rounds (or groups of rounds), and a
//! slow spell of the host moves a few rounds of every metric rather than
//! the whole of one.

use std::time::Duration;

/// Target length of one round, in seconds.
const ROUND_S: f64 = 1.25;
/// Shares of a round given to the `sat`, `low` and `high` slices.
const SAT_SHARE: f64 = 0.4;
const LOW_SHARE: f64 = 0.35;
const HIGH_SHARE: f64 = 0.25;

pub struct Schedule {
    pub rounds: usize,
    pub sat: Duration,
    pub low: Duration,
    pub high: Duration,
}

impl Schedule {
    pub fn new(seconds: f64) -> Schedule {
        let rounds = ((seconds / ROUND_S).round() as usize).max(1);
        let round = seconds / rounds as f64;
        Schedule {
            rounds,
            sat: Duration::from_secs_f64(round * SAT_SHARE),
            low: Duration::from_secs_f64(round * LOW_SHARE),
            high: Duration::from_secs_f64(round * HIGH_SHARE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_fill_the_run() {
        let s = Schedule::new(20.0);
        assert_eq!(s.rounds, 16);
        let total = (s.sat + s.low + s.high).as_secs_f64() * s.rounds as f64;
        assert!((total - 20.0).abs() < 1e-6);
        assert_eq!(Schedule::new(0.5).rounds, 1);
    }
}
