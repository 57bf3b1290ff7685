//! The four workloads and the step driver every run shares.
//!
//! A run sets a ring up, warms it, then executes *steps* of fixed virtual
//! length. During its issue window each step runs same-key probe rounds
//! (consistency) and a uniform open-loop lookup stream, both on a fixed
//! virtual-time schedule; it applies churn when the workload has it, and
//! ends with a harvest: every lookup of the step is scored against the
//! correct owner and the lookup taps are cleared. The first `min_steps` steps form the
//! deterministic window the paper's metrics come from; untraced runs keep
//! stepping until the wall-clock budget is spent, for `sim_speed` only.

use std::time::Instant;

use p2_harness::cluster::expected_owner;
use p2_harness::{LookupHandle, LookupOutcome};
use p2_netsim::NetStats;
use p2_value::{SimTime, Uint160};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::churn::{Progress, Schedule};
use crate::stats::{consistency, Accounting, Answer};

/// Which overlay a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlay {
    /// The declarative (OverLog) Chord ring.
    P2,
    /// The hand-coded baseline Chord ring.
    Baseline,
}

/// One workload's parameters (all times virtual).
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub overlay: Overlay,
    pub nodes: usize,
    /// Set-ups per untraced run; `setup_s` is their median. Short set-ups
    /// are repeated more often, so each run's median is as steady.
    pub setups: usize,
    /// Virtual time run after set-up, before the window.
    pub warmup: SimTime,
    /// Virtual length of one step.
    pub step: SimTime,
    /// Uniform lookups are issued during the first `issue` of each step;
    /// the rest of the step is their answer deadline.
    pub issue: SimTime,
    /// Uniform-random lookups per step.
    pub lookups: usize,
    /// Same-key probe rounds per step, spread evenly over the issue window.
    pub rounds: usize,
    /// Probes (origins) per round.
    pub probes: usize,
    /// Steps in the deterministic window.
    pub min_steps: usize,
    /// Mean session time under crash/rejoin churn.
    pub churn: Option<SimTime>,
    /// A converged ring: it must be one cycle after warm-up, and every
    /// lookup must reach the key's owner (a wrong or missing answer is a
    /// failed operation). Under churn, or on a ring that has not
    /// converged, the protocol promises neither; lookup outcomes there are
    /// measured (`lookup_ok_rate`, `lookup_consistency`), not checked.
    pub stable_ring: bool,
}

/// The seed every ring and churn trace is built from. A run's `--seed`
/// draws its request stream, so runs with different seeds do the same
/// set-up and maintenance work and differ only in the lookups they issue.
pub const RING_SEED: u64 = 1;

impl Spec {
    /// Seconds a lookup has to answer: the step's tail after its issue
    /// window, which every lookup of the step waits through at least.
    pub fn deadline_s(&self) -> f64 {
        self.step.saturating_sub(self.issue).as_secs_f64()
    }
}

/// The benchmark's workloads.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "chord_steady",
            overlay: Overlay::P2,
            nodes: 256,
            setups: 3,
            warmup: SimTime::from_secs(120),
            step: SimTime::from_secs(15),
            issue: SimTime::from_secs(10),
            lookups: 20,
            rounds: 1,
            probes: 8,
            min_steps: 16,
            churn: None,
            stable_ring: true,
        },
        Spec {
            name: "chord_lookups",
            overlay: Overlay::P2,
            nodes: 160,
            setups: 3,
            warmup: SimTime::from_secs(90),
            step: SimTime::from_secs(15),
            issue: SimTime::from_secs(10),
            lookups: 400,
            rounds: 1,
            probes: 8,
            min_steps: 10,
            churn: None,
            stable_ring: true,
        },
        Spec {
            name: "chord_churn",
            overlay: Overlay::P2,
            nodes: 160,
            setups: 3,
            warmup: SimTime::from_secs(60),
            step: SimTime::from_secs(20),
            issue: SimTime::from_secs(10),
            lookups: 200,
            rounds: 4,
            probes: 16,
            min_steps: 15,
            churn: Some(SimTime::from_secs(8 * 60)),
            stable_ring: false,
        },
        Spec {
            name: "baseline_ring",
            overlay: Overlay::Baseline,
            nodes: 1000,
            setups: 9,
            warmup: SimTime::from_secs(300),
            step: SimTime::from_secs(30),
            issue: SimTime::from_secs(20),
            lookups: 160,
            rounds: 1,
            probes: 16,
            min_steps: 30,
            churn: None,
            stable_ring: false,
        },
    ]
}

/// What the driver needs from a ring: the public harness clusters and the
/// traced replicas both implement it.
pub trait Ring {
    fn now(&self) -> SimTime;
    fn run_until(&mut self, t: SimTime);
    fn addrs(&self) -> &[String];
    fn issue(&mut self, origin: &str, key: Uint160) -> LookupHandle;
    /// The answer to a lookup, if it has arrived. Replicas that only
    /// replay the requests keep the default and are never harvested.
    fn outcome(&self, _handle: &LookupHandle) -> Option<LookupOutcome> {
        None
    }
    fn clear_observations(&mut self);
    /// Share of nodes whose successor is correct (sampled only when
    /// harvesting, like `outcome`).
    fn ring_correctness(&self) -> f64 {
        f64::NAN
    }
    /// Crashes the node and replaces it with a fresh one that rejoins.
    fn churn(&mut self, addr: &str);
    fn net(&self) -> &NetStats;
    fn reset_net(&mut self);
    /// (events processed, wakeups processed) since construction.
    fn events(&self) -> (u64, u64);
}

/// The same-seed request stream: probe keys and origins, uniform lookups.
struct Requests {
    rng: SmallRng,
}

impl Requests {
    fn new(seed: u64) -> Requests {
        Requests {
            rng: SmallRng::seed_from_u64(seed ^ 0x0B5E_55ED),
        }
    }

    fn key(&mut self) -> Uint160 {
        Uint160::hash_of(&self.rng.gen::<[u8; 16]>())
    }

    fn origin(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

/// Counts at the end of the deterministic window, compared between the
/// untraced run and its traced replica.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub events: u64,
    pub wakeups: u64,
    pub messages_sent: u64,
    pub messages_delivered: u64,
    pub messages_dropped: u64,
    pub bytes_sent: u64,
    pub bytes_by_name: Vec<(String, u64)>,
}

impl Fingerprint {
    fn of(ring: &dyn Ring) -> Fingerprint {
        let net = ring.net();
        let (events, wakeups) = ring.events();
        let mut bytes_by_name: Vec<(String, u64)> = net
            .bytes_by_name
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        bytes_by_name.sort();
        Fingerprint {
            events,
            wakeups,
            messages_sent: net.messages_sent,
            messages_delivered: net.messages_delivered,
            messages_dropped: net.messages_dropped,
            bytes_sent: net.bytes_sent,
            bytes_by_name,
        }
    }
}

/// Wall time the driver spent in each kind of call, and call counts.
#[derive(Debug, Clone, Default)]
pub struct DriverTimes {
    /// Inside `run_until` (the simulator and the nodes it drives).
    pub sim_s: f64,
    /// Issuing lookups.
    pub issue_s: f64,
    /// Harvesting answers, scoring them, clearing the taps.
    pub harvest_s: f64,
    /// Crash/rejoin calls.
    pub churn_s: f64,
    /// Sampling ring correctness.
    pub sample_s: f64,
    pub outcome_calls: u64,
    pub rejoins: u64,
}

/// Everything a window produced.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Steps run in total, and in the deterministic window.
    pub steps: usize,
    /// Wall seconds of every step.
    pub step_wall_s: Vec<f64>,
    /// Peak resident memory (VmHWM, MB) at the end of the deterministic
    /// window: set-ups and window, not the wall-clock extension.
    pub peak_rss_mb: f64,
    pub times: DriverTimes,
    pub lookups: Accounting,
    pub hops: Vec<f64>,
    pub consistency: Vec<f64>,
    pub ring_samples: Vec<f64>,
    /// Maintenance bytes over the deterministic window.
    pub maint_bytes: u64,
    pub fingerprint: Option<Fingerprint>,
}

/// Runs the window on a warmed-up ring. With `observe` off (the traced
/// replica) the requests and churn are identical but nothing is harvested.
/// Steps continue past `min_steps` until `budget_s` of wall time is spent.
pub fn run_window(
    ring: &mut dyn Ring,
    spec: &Spec,
    seed: u64,
    observe: bool,
    budget_s: f64,
) -> Result<Window, String> {
    let mut req = Requests::new(seed);
    let mut schedule = spec
        .churn
        .map(|mean| Schedule::new(spec.nodes, mean, ring.now(), RING_SEED ^ 0xC0FF_EE00));
    let mut progress = Progress::default();
    let mut w = Window::default();
    let n = ring.addrs().len();
    let gap = spec.issue.as_micros() / spec.lookups.max(1) as u64;
    let round_gap = spec.issue.as_micros() / spec.rounds.max(1) as u64;
    ring.reset_net();
    let started = Instant::now();
    loop {
        let det = w.steps < spec.min_steps;
        if !det && started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        let step_wall = Instant::now();
        let start = ring.now();
        let end = start + spec.step;
        // (due time, origin index, key, probe round) in time order.
        let mut due: Vec<(SimTime, usize, Uint160, Option<usize>)> = Vec::new();
        for round in 0..spec.rounds {
            let at = start + SimTime::from_micros(round_gap * round as u64);
            let key = req.key();
            for _ in 0..spec.probes {
                due.push((at, req.origin(n), key, Some(round)));
            }
        }
        for i in 0..spec.lookups {
            let at = start + SimTime::from_micros(gap * i as u64);
            due.push((at, req.origin(n), req.key(), None));
        }
        due.sort_by_key(|d| d.0);
        let mut next_req = 0;
        let mut pending: Vec<(LookupHandle, Option<usize>)> = Vec::with_capacity(due.len());
        loop {
            let now = ring.now();
            let mut next = end;
            if let Some(&(at, ..)) = due.get(next_req) {
                next = next.min(at);
            }
            if let Some(at) = schedule.as_ref().and_then(Schedule::next_at) {
                next = next.min(at);
            }
            if next > now {
                let t = Instant::now();
                ring.run_until(next);
                w.times.sim_s += t.elapsed().as_secs_f64();
            }
            let now = ring.now();
            let mut acted = false;
            if let Some(s) = schedule.as_mut() {
                while let Some(idx) = s.pop_due(now) {
                    let addr = ring.addrs()[idx].clone();
                    let t = Instant::now();
                    ring.churn(&addr);
                    w.times.churn_s += t.elapsed().as_secs_f64();
                    w.times.rejoins += 1;
                    acted = true;
                }
            }
            while let Some(&(at, origin, key, probe)) = due.get(next_req) {
                if at > now {
                    break;
                }
                let origin = ring.addrs()[origin].clone();
                let t = Instant::now();
                let handle = ring.issue(&origin, key);
                w.times.issue_s += t.elapsed().as_secs_f64();
                pending.push((handle, probe));
                next_req += 1;
                acted = true;
            }
            if now >= end && !acted {
                break;
            }
            progress.step(now, acted)?;
        }
        // The harness calls (sampling, answers, clearing the taps) are part
        // of the step; scoring them against the correct owners is the
        // benchmark's own check and is left out of the step's time.
        let mut answered = Vec::new();
        let mut sample = f64::NAN;
        if observe {
            let t = Instant::now();
            sample = ring.ring_correctness();
            w.times.sample_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            answered = pending.iter().map(|(h, _)| ring.outcome(h)).collect();
            w.times.outcome_calls += pending.len() as u64;
            ring.clear_observations();
            w.times.harvest_s += t.elapsed().as_secs_f64();
        } else {
            ring.clear_observations();
        }
        w.step_wall_s.push(step_wall.elapsed().as_secs_f64());
        if observe && det {
            w.ring_samples.push(sample);
            score(ring.addrs(), spec, &pending, answered, &mut w);
        }

        w.steps += 1;
        if w.steps == spec.min_steps {
            w.maint_bytes = ring.net().maintenance_bytes();
            w.fingerprint = Some(Fingerprint::of(ring));
            w.peak_rss_mb = peak_rss_mb()?;
        }
    }
    Ok(w)
}

/// Scores a step's answers against the keys' owners among the up nodes.
fn score(
    up: &[String],
    spec: &Spec,
    pending: &[(LookupHandle, Option<usize>)],
    answered: Vec<Option<LookupOutcome>>,
    w: &mut Window,
) {
    let deadline = spec.deadline_s();
    let mut rounds: Vec<Vec<Option<String>>> = vec![Vec::new(); spec.rounds];
    for ((handle, round), outcome) in pending.iter().zip(answered) {
        let answer = match &outcome {
            Some(o) => Answer::Got {
                owner: o.owner.clone(),
                latency_s: o.latency,
            },
            None => Answer::Missing,
        };
        let expected = expected_owner(handle.key, up);
        w.lookups.record(&answer, expected.as_deref(), deadline);
        if let Some(o) = &outcome {
            if o.latency <= deadline {
                w.hops.push(o.hops as f64);
            }
        }
        if let Some(r) = round {
            rounds[*r].push(outcome.map(|o| o.owner));
        }
    }
    w.consistency
        .extend(rounds.iter().map(|answers| consistency(answers)));
}

/// VmHWM of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
