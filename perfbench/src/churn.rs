//! Crash/rejoin churn on the simulator's integer clock.
//!
//! The harness's `ChurnSchedule` keeps death times in `f64` seconds; mixed
//! with the µs `SimTime` clock its experiment loop can stop advancing. This
//! schedule keeps every time in whole microseconds, and [`Progress`] turns
//! a stalled clock into an error instead of a spin.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use p2_value::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Exponential session times (Rhea et al.) for nodes `1..n`; node 0, the
/// landmark, never churns so a rejoining node always has an entry point.
#[derive(Debug)]
pub struct Schedule {
    mean_us: f64,
    rng: SmallRng,
    /// Min-heap of (death time in µs, node index).
    deaths: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Schedule {
    /// Draws a first session for each churned node, starting at `start`.
    pub fn new(n: usize, mean_session: SimTime, start: SimTime, seed: u64) -> Schedule {
        let mut schedule = Schedule {
            mean_us: mean_session.as_micros() as f64,
            rng: SmallRng::seed_from_u64(seed),
            deaths: BinaryHeap::with_capacity(n.saturating_sub(1)),
        };
        for i in 1..n {
            let at = schedule.after(start);
            schedule.deaths.push(Reverse((at, i)));
        }
        schedule
    }

    /// A death time strictly after `t`: the session is rounded up to whole
    /// microseconds and is at least one.
    fn after(&mut self, t: SimTime) -> u64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let session = (-self.mean_us * u.ln()).ceil().max(1.0) as u64;
        t.as_micros() + session
    }

    /// When the next node crashes.
    pub fn next_at(&self) -> Option<SimTime> {
        self.deaths
            .peek()
            .map(|Reverse((at, _))| SimTime::from_micros(*at))
    }

    /// Pops one node due at or before `now` and schedules its next death
    /// (its replacement's session) strictly after its crash time.
    pub fn pop_due(&mut self, now: SimTime) -> Option<usize> {
        let Reverse((at, idx)) = *self.deaths.peek()?;
        if at > now.as_micros() {
            return None;
        }
        self.deaths.pop();
        let next = self.after(SimTime::from_micros(at));
        self.deaths.push(Reverse((next, idx)));
        Some(idx)
    }
}

/// Aborts a driver loop whose clock stops advancing: every iteration must
/// either act on something due or move virtual time forward.
#[derive(Debug, Default)]
pub struct Progress {
    last: Option<SimTime>,
}

impl Progress {
    /// Records one loop iteration ending at `now`.
    pub fn step(&mut self, now: SimTime, acted: bool) -> Result<(), String> {
        let stalled = !acted && self.last.is_some_and(|last| now <= last);
        self.last = Some(now);
        if stalled {
            Err(format!(
                "virtual clock stopped advancing at {} µs",
                now.as_micros()
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_death_is_rescheduled_strictly_later() {
        // A tiny mean session makes 1 µs sessions common: the case where a
        // float schedule rounds to a zero-length step.
        let mut s = Schedule::new(50, SimTime::from_micros(2), SimTime::from_secs(500), 7);
        let mut last_per_node = vec![0u64; 50];
        let mut now = SimTime::from_secs(500);
        let mut popped = 0;
        while popped < 20_000 {
            let next = s.next_at().expect("churned nodes never run out");
            assert!(next >= now, "schedule went back in time");
            now = next;
            while let Some(idx) = s.pop_due(now) {
                assert_ne!(idx, 0, "the landmark never churns");
                assert!(now.as_micros() > last_per_node[idx]);
                last_per_node[idx] = now.as_micros();
                popped += 1;
            }
            assert!(s.next_at().expect("rescheduled") > now);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let mut s = Schedule::new(20, SimTime::from_secs(480), SimTime::ZERO, seed);
            let mut out = Vec::new();
            for _ in 0..100 {
                let at = s.next_at().expect("non-empty");
                out.push((at, s.pop_due(at).expect("due")));
            }
            out
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn nothing_is_due_before_its_time() {
        let mut s = Schedule::new(3, SimTime::from_secs(60), SimTime::from_secs(10), 1);
        let first = s.next_at().expect("two churned nodes");
        assert!(first > SimTime::from_secs(10));
        assert_eq!(s.pop_due(SimTime::from_micros(first.as_micros() - 1)), None);
        assert!(s.pop_due(first).is_some());
    }

    #[test]
    fn progress_guard_rejects_a_stalled_clock() {
        let mut g = Progress::default();
        assert!(g.step(SimTime::from_secs(1), false).is_ok());
        assert!(g.step(SimTime::from_secs(1), true).is_ok());
        assert!(g.step(SimTime::from_secs(2), false).is_ok());
        assert!(g.step(SimTime::from_secs(2), false).is_err());
    }
}
