//! The public harness clusters as driver rings (the untraced runs).

use p2_harness::{BaselineCluster, ChordCluster, LookupHandle, LookupOutcome};
use p2_netsim::NetStats;
use p2_value::{SimTime, Uint160};

use crate::workload::Ring;

impl Ring for ChordCluster {
    fn now(&self) -> SimTime {
        ChordCluster::now(self)
    }

    fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    fn addrs(&self) -> &[String] {
        ChordCluster::addrs(self)
    }

    fn issue(&mut self, origin: &str, key: Uint160) -> LookupHandle {
        self.issue_lookup_from(origin, key)
    }

    fn outcome(&self, handle: &LookupHandle) -> Option<LookupOutcome> {
        ChordCluster::outcome(self, handle)
    }

    fn clear_observations(&mut self) {
        ChordCluster::clear_observations(self);
    }

    fn ring_correctness(&self) -> f64 {
        ChordCluster::ring_correctness(self)
    }

    fn churn(&mut self, addr: &str) {
        self.crash(addr);
        self.rejoin(addr);
    }

    fn net(&self) -> &NetStats {
        self.sim.stats()
    }

    fn reset_net(&mut self) {
        self.sim.reset_stats();
    }

    fn events(&self) -> (u64, u64) {
        (self.sim.events_processed(), self.sim.wakeups_processed())
    }
}

impl Ring for BaselineCluster {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    fn addrs(&self) -> &[String] {
        BaselineCluster::addrs(self)
    }

    fn issue(&mut self, origin: &str, key: Uint160) -> LookupHandle {
        self.issue_lookup_from(origin, key)
    }

    fn outcome(&self, handle: &LookupHandle) -> Option<LookupOutcome> {
        BaselineCluster::outcome(self, handle)
    }

    /// The baseline keeps its answers in node state, not in taps.
    fn clear_observations(&mut self) {}

    fn ring_correctness(&self) -> f64 {
        BaselineCluster::ring_correctness(self)
    }

    fn churn(&mut self, _addr: &str) {
        unreachable!("no workload churns the baseline ring")
    }

    fn net(&self) -> &NetStats {
        self.sim.stats()
    }

    fn reset_net(&mut self) {
        self.sim.reset_stats();
    }

    fn events(&self) -> (u64, u64) {
        (self.sim.events_processed(), self.sim.wakeups_processed())
    }
}

/// Plans and brings up the workload's ring through the harness, without
/// warm-up; returns it with the set-up's wall seconds.
pub fn set_up_chord(nodes: usize, seed: u64) -> (ChordCluster, f64) {
    let t = std::time::Instant::now();
    let cluster = ChordCluster::builder(nodes, seed).build_fast(0);
    (cluster, t.elapsed().as_secs_f64())
}

/// Brings up the hand-coded ring through the harness, without warm-up.
pub fn set_up_baseline(nodes: usize, seed: u64) -> (BaselineCluster, f64) {
    let t = std::time::Instant::now();
    let cluster = BaselineCluster::build(nodes, 0, seed);
    (cluster, t.elapsed().as_secs_f64())
}

/// Runs a harness ring's warm-up and starts its measurement afresh, as
/// `build_fast(n, warmup, ..)` would.
pub fn warm_up(ring: &mut dyn Ring, warmup: SimTime) {
    let until = ring.now() + warmup;
    ring.run_until(until);
    ring.clear_observations();
    ring.reset_net();
}
