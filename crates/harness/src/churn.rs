//! Churn generation following Rhea et al. ("Handling Churn in a DHT"), the
//! methodology cited by §5.2 of the paper.
//!
//! Node session times are drawn from an exponential distribution with the
//! configured mean; when a session ends the node crashes and is immediately
//! replaced by a fresh node at the same address, which rejoins through the
//! landmark. The population therefore stays constant while membership turns
//! over, exactly as in the paper's churn experiments.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use p2_value::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Schedule of upcoming churn events for a fixed node population.
///
/// Every time is a whole-microsecond [`SimTime`], the simulator's own
/// clock: sessions are rounded up to at least 1 µs, so a rescheduled death
/// is always strictly later than the one that produced it and a driver
/// loop stepping to [`ChurnSchedule::next_event_at`] always makes progress.
#[derive(Debug)]
pub struct ChurnSchedule {
    mean_session_us: f64,
    rng: SmallRng,
    /// Min-heap of (death time in µs, node index). The landmark (index 0)
    /// is never churned so rejoining nodes always have a working entry
    /// point.
    deaths: BinaryHeap<Reverse<(u64, usize)>>,
}

impl ChurnSchedule {
    /// Creates a schedule for `n` nodes with the given mean session time,
    /// drawing first sessions from `start`.
    pub fn new(n: usize, mean_session: SimTime, start: SimTime, seed: u64) -> ChurnSchedule {
        let mut schedule = ChurnSchedule {
            mean_session_us: mean_session.as_micros() as f64,
            rng: SmallRng::seed_from_u64(seed),
            deaths: BinaryHeap::with_capacity(n.saturating_sub(1)),
        };
        for i in 1..n {
            let at = schedule.death_after(start);
            schedule.deaths.push(Reverse((at, i)));
        }
        schedule
    }

    /// A death time (µs) one exponential session after `t`, at least 1 µs
    /// later.
    fn death_after(&mut self, t: SimTime) -> u64 {
        let session = sample_exponential(&mut self.rng, self.mean_session_us);
        t.as_micros() + (session.ceil() as u64).max(1)
    }

    /// The time of the next churn event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.deaths
            .peek()
            .map(|Reverse((at, _))| SimTime::from_micros(*at))
    }

    /// Pops one churn event due at or before `now`, returning its node
    /// index and scheduling that node's next death (after it rejoins).
    pub fn pop_due(&mut self, now: SimTime) -> Option<usize> {
        let Reverse((at, idx)) = *self.deaths.peek()?;
        if at > now.as_micros() {
            return None;
        }
        self.deaths.pop();
        let next = self.death_after(SimTime::from_micros(at));
        self.deaths.push(Reverse((next, idx)));
        Some(idx)
    }

    /// Expected number of churn events per second across the population.
    pub fn expected_rate(&self, population: usize) -> f64 {
        if self.mean_session_us <= 0.0 {
            return 0.0;
        }
        population.saturating_sub(1) as f64 / (self.mean_session_us / 1e6)
    }
}

fn sample_exponential(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_time_ordered_and_continuous() {
        let start = SimTime::from_secs(100);
        let mut schedule = ChurnSchedule::new(50, SimTime::from_secs(600), start, 7);
        let mut last = SimTime::ZERO;
        for _ in 0..200 {
            let at = schedule.next_event_at().unwrap();
            let idx = schedule.pop_due(at).unwrap();
            assert!(at >= last, "events must be non-decreasing in time");
            assert!(at > start);
            assert!((1..50).contains(&idx), "landmark must never churn");
            last = at;
        }
    }

    /// A sub-microsecond mean session is the case where a float schedule
    /// rounds to zero-length steps: every death must still be rescheduled
    /// strictly later, and nothing is due before its time.
    #[test]
    fn every_death_is_rescheduled_strictly_later() {
        let start = SimTime::from_secs(500);
        let mut schedule = ChurnSchedule::new(20, SimTime::from_micros(1), start, 3);
        let mut now = start;
        for _ in 0..5_000 {
            let next = schedule.next_event_at().unwrap();
            assert!(next > start);
            assert_eq!(
                schedule.pop_due(SimTime::from_micros(next.as_micros() - 1)),
                None
            );
            now = now.max(next);
            while schedule.pop_due(now).is_some() {}
            assert!(schedule.next_event_at().unwrap() > now);
        }
    }

    #[test]
    fn mean_lifetime_approximates_the_configured_session_time() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mean = 480.0;
        let samples: Vec<f64> = (0..20_000)
            .map(|_| sample_exponential(&mut rng, mean))
            .collect();
        let observed = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (observed - mean).abs() / mean < 0.05,
            "observed mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn expected_rate_scales_inversely_with_session_time() {
        let short = ChurnSchedule::new(100, SimTime::from_secs(8 * 60), SimTime::ZERO, 1);
        let long = ChurnSchedule::new(100, SimTime::from_secs(128 * 60), SimTime::ZERO, 1);
        assert!(short.expected_rate(100) > long.expected_rate(100) * 10.0);
    }
}
