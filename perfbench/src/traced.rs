//! The traced run: benchmark-local replicas of the harness clusters whose
//! nodes sit behind a timing [`Host`] wrapper.
//!
//! Nothing inside the program is instrumented. The wrapper times each call
//! the simulator makes into a node (`start`, `deliver`, `deliver_many`,
//! `advance_to`, `next_deadline`), per delivered relation; the replicas time
//! node instantiation and bring-up. The replicas repeat the harness's
//! bring-up, event numbering and rejoin seeding call for call, so a traced
//! window processes the same events and the same traffic as the untraced
//! one; the run reports whether it did (`trace.matches`).

use std::cell::RefCell;
use std::time::Instant;

use p2_baseline::{BaselineChord, BaselineConfig};
use p2_core::{P2Node, PlanConfig, PlannedProgram};
use p2_harness::LookupHandle;
use p2_netsim::{Envelope, Host, NetStats, NetworkConfig, Simulator};
use p2_obs::ElemCounters;
use p2_overlays::{chord, P2Host};
use p2_value::{SimTime, Tuple, TupleBuilder, Uint160, Value};

use crate::workload::Ring;

/// Wall time and calls per kind of node entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timer {
    pub secs: f64,
    pub calls: u64,
}

impl Timer {
    fn add(&mut self, secs: f64) {
        self.secs += secs;
        self.calls += 1;
    }
}

/// Node-side time collected by [`Timed`] and the replicas.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub start: Timer,
    pub deliver: Timer,
    pub advance: Timer,
    pub deadline: Timer,
    /// Delivery time per relation, in first-seen order.
    pub by_relation: Vec<(String, Timer)>,
    pub instantiate: Timer,
}

impl Ledger {
    /// Time inside the node's simulator entry points.
    pub fn node_s(&self) -> f64 {
        self.start.secs + self.deliver.secs + self.advance.secs + self.deadline.secs
    }

    fn relation(&mut self, name: &str) -> usize {
        match self.by_relation.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.by_relation.push((name.to_string(), Timer::default()));
                self.by_relation.len() - 1
            }
        }
    }

    /// Delivery timer of one relation (zero when never delivered).
    pub fn relation_timer(&self, name: &str) -> Timer {
        self.by_relation
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Runs `f` on this thread's ledger.
pub fn with_ledger<R>(f: impl FnOnce(&mut Ledger) -> R) -> R {
    LEDGER.with(|l| f(&mut l.borrow_mut()))
}

/// A host whose simulator entry points are timed into the ledger.
pub struct Timed<H> {
    pub inner: H,
}

impl<H: Host> Host for Timed<H> {
    fn start(&mut self, now: SimTime) -> Vec<Envelope> {
        let t = Instant::now();
        let out = self.inner.start(now);
        let secs = t.elapsed().as_secs_f64();
        with_ledger(|l| l.start.add(secs));
        out
    }

    fn deliver(&mut self, tuple: Tuple, now: SimTime) -> Vec<Envelope> {
        let rel = with_ledger(|l| l.relation(tuple.name()));
        let t = Instant::now();
        let out = self.inner.deliver(tuple, now);
        let secs = t.elapsed().as_secs_f64();
        with_ledger(|l| {
            l.deliver.add(secs);
            l.by_relation[rel].1.add(secs);
        });
        out
    }

    /// A batch's time is split evenly over its tuples' relations.
    fn deliver_many(&mut self, tuples: Vec<Tuple>, now: SimTime) -> Vec<Envelope> {
        let rels: Vec<usize> =
            with_ledger(|l| tuples.iter().map(|t| l.relation(t.name())).collect());
        let t = Instant::now();
        let out = self.inner.deliver_many(tuples, now);
        let secs = t.elapsed().as_secs_f64();
        with_ledger(|l| {
            l.deliver.add(secs);
            let share = secs / rels.len().max(1) as f64;
            for rel in rels {
                l.by_relation[rel].1.add(share);
            }
        });
        out
    }

    fn advance_to(&mut self, now: SimTime) -> Vec<Envelope> {
        let t = Instant::now();
        let out = self.inner.advance_to(now);
        let secs = t.elapsed().as_secs_f64();
        with_ledger(|l| l.advance.add(secs));
        out
    }

    fn next_deadline(&self) -> Option<SimTime> {
        let t = Instant::now();
        let out = self.inner.next_deadline();
        let secs = t.elapsed().as_secs_f64();
        with_ledger(|l| l.deadline.add(secs));
        out
    }
}

/// Runs the simulator to `t`, adding its own time (wall time in
/// `run_until` minus the node time inside it) to `self_s`.
fn timed_run_until<H: Host>(sim: &mut Simulator<H>, t: SimTime, self_s: &mut f64) {
    let node_before = with_ledger(|l| l.node_s());
    let start = Instant::now();
    sim.run_until(t);
    let wall = start.elapsed().as_secs_f64();
    let node = with_ledger(|l| l.node_s()) - node_before;
    *self_s += wall - node;
}

/// Engine counters of the dataflow layer, summed over nodes.
pub const ENGINE_COUNTERS: [&str; 3] = ["handoffs", "timers_fired", "dropped_no_entry"];

/// Storage counters of the table layer, summed over nodes.
pub const TABLE_COUNTERS: [&str; 7] = [
    "primary_lookups",
    "indexed_lookups",
    "full_scans",
    "expired",
    "evicted",
    "overflows",
    "rebuilds",
];

fn node_counts(node: &P2Node) -> ([u64; 3], [u64; 7]) {
    let e = node.stats();
    let t = node.catalog().stats_total();
    (
        [e.handoffs, e.timers_fired, e.dropped_no_entry],
        [
            t.primary_lookups,
            t.indexed_lookups,
            t.full_scans,
            t.expired,
            t.evicted,
            t.overflows,
            t.rebuilds,
        ],
    )
}

fn add_diff<const K: usize>(into: &mut [u64; K], now: &[u64; K], base: &[u64; K]) {
    for i in 0..K {
        into[i] += now[i] - base[i];
    }
}

/// Counter deltas over the window, including nodes replaced by churn.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub engine: [u64; 3],
    pub table: [u64; 7],
    /// Profiler counters per element index of the shared plan.
    pub elems: Vec<ElemCounters>,
}

/// The harness's `ChordCluster` rebuilt over timed hosts.
pub struct TracedChord {
    pub sim: Simulator<Timed<P2Host>>,
    addrs: Vec<String>,
    seed: u64,
    next_event: i64,
    opts: chord::ChordOpts,
    /// Simulator self time since the last reset.
    pub sim_self_s: f64,
    /// Per-node counter values at window start (zero for replacements).
    base: Vec<([u64; 3], [u64; 7])>,
    /// Counter deltas of nodes replaced during the window.
    retired: Counters,
    observing: bool,
}

/// Compiles the Chord plan afresh (the harness caches one per process) and
/// returns the seconds it took.
pub fn time_plan() -> f64 {
    let t = Instant::now();
    let config = PlanConfig::new().watch("lookupResults").watch("lookup");
    let plan = PlannedProgram::compile(chord::program(), &config);
    let secs = t.elapsed().as_secs_f64();
    assert!(plan.is_ok(), "the shipped Chord program must plan");
    secs
}

impl TracedChord {
    fn node(&self, addr: &str, landmark: Option<&str>, seed: u64) -> Timed<P2Host> {
        let t = Instant::now();
        let node = P2Node::from_plan(
            chord::shared_plan_for(self.opts),
            addr,
            seed,
            chord::base_facts(addr, landmark),
        );
        let secs = t.elapsed().as_secs_f64();
        with_ledger(|l| l.instantiate.add(secs));
        Timed {
            inner: P2Host::new(node),
        }
    }

    /// `ChordCluster::builder(n, seed).build_fast(0)`, call for call.
    pub fn build_fast(n: usize, seed: u64) -> TracedChord {
        let mut c = TracedChord {
            sim: Simulator::new(NetworkConfig::emulab_default(seed)),
            addrs: (0..n).map(|i| format!("node{i}:11111")).collect(),
            seed,
            next_event: 1_000_000,
            opts: chord::ChordOpts::default(),
            sim_self_s: 0.0,
            base: Vec::new(),
            retired: Counters::default(),
            observing: false,
        };
        for i in 0..n {
            let addr = c.addrs[i].clone();
            let landmark = (i > 0).then(|| c.addrs[0].clone());
            let host = c.node(&addr, landmark.as_deref(), seed.wrapping_add(i as u64));
            c.sim.add_node(addr, host);
        }
        c.sim.start_all();
        let settle = SimTime::from_secs(5);
        let mut joined = 0usize;
        let max_waves = 4 * (usize::BITS - n.max(1).leading_zeros()) as usize + 16;
        for _ in 0..max_waves {
            let wave = joined.max(4).min(n);
            let joins = c.join_batch(wave);
            if joins.is_empty() {
                break;
            }
            c.sim.inject_many(joins);
            for _ in 0..24 {
                c.sim.run_for(settle);
                if c.joined_ring_correctness() >= 0.97 {
                    break;
                }
            }
            joined = c.addrs.iter().filter(|a| c.is_joined(a)).count();
        }
        c.sim.run_for(SimTime::ZERO);
        c.clear_observations();
        c.sim.reset_stats();
        c
    }

    fn fresh_event(&mut self) -> i64 {
        self.next_event += 1;
        self.next_event
    }

    fn join_batch(&mut self, limit: usize) -> Vec<(String, Tuple)> {
        let mut out = Vec::new();
        for i in 0..self.addrs.len() {
            if out.len() >= limit {
                break;
            }
            if !self.is_joined(&self.addrs[i]) {
                let addr = self.addrs[i].clone();
                let event = self.fresh_event();
                out.push((addr.clone(), chord::join_tuple(&addr, event)));
            }
        }
        out
    }

    fn is_joined(&self, addr: &str) -> bool {
        self.sim
            .node(addr)
            .and_then(|h| h.inner.node().table("bestSucc"))
            .is_some_and(|t| !t.lock().is_empty())
    }

    fn best_successor(&self, addr: &str) -> Option<String> {
        let table = self.sim.node(addr)?.inner.node().table("bestSucc")?;
        let guard = table.lock();
        let out = guard
            .scan_iter()
            .next()
            .map(|t| t.field(2).to_display_string());
        out
    }

    fn joined_ring_correctness(&self) -> f64 {
        let mut ids: Vec<(Uint160, &str)> = self
            .addrs
            .iter()
            .filter(|a| self.is_joined(a))
            .map(|a| (chord::node_id(a), a.as_str()))
            .collect();
        if ids.len() < 2 {
            return 1.0;
        }
        ids.sort();
        let correct = (0..ids.len())
            .filter(|&pos| {
                self.best_successor(ids[pos].1).as_deref() == Some(ids[(pos + 1) % ids.len()].1)
            })
            .count();
        correct as f64 / ids.len() as f64
    }

    /// Turns on the profiler and records every counter's window-start value.
    pub fn start_observing(&mut self) {
        let meta = chord::shared_plan_for(self.opts).obs_meta();
        for addr in self.addrs.clone() {
            if let Some(h) = self.sim.node_mut(&addr) {
                h.inner.node_mut().enable_obs(meta.clone());
            }
        }
        self.base = self
            .addrs
            .iter()
            .map(|a| node_counts(self.sim.node(a).expect("added").inner.node()))
            .collect();
        self.observing = true;
    }

    fn retire(&mut self, idx: usize) {
        let node = self.sim.node(&self.addrs[idx]).expect("added").inner.node();
        let (e, t) = node_counts(node);
        let (be, bt) = self.base[idx];
        add_diff(&mut self.retired.engine, &e, &be);
        add_diff(&mut self.retired.table, &t, &bt);
        if let Some(obs) = node.obs() {
            p2_obs::merge_counters(&mut self.retired.elems, obs.counters());
        }
        self.base[idx] = ([0; 3], [0; 7]);
    }

    /// Counter deltas since [`TracedChord::start_observing`].
    pub fn counters(&self) -> Counters {
        let mut total = self.retired.clone();
        for (i, addr) in self.addrs.iter().enumerate() {
            let node = self.sim.node(addr).expect("added").inner.node();
            let (e, t) = node_counts(node);
            add_diff(&mut total.engine, &e, &self.base[i].0);
            add_diff(&mut total.table, &t, &self.base[i].1);
            if let Some(obs) = node.obs() {
                p2_obs::merge_counters(&mut total.elems, obs.counters());
            }
        }
        total
    }

    /// Element metadata of the plan every node runs.
    pub fn obs_meta(&self) -> std::sync::Arc<p2_obs::ObsMeta> {
        chord::shared_plan_for(self.opts).obs_meta()
    }

    /// Mean resident table bytes per up node.
    pub fn state_bytes_per_node(&self) -> f64 {
        let ids: Vec<_> = self.sim.up_ids().collect();
        let total: usize = ids
            .iter()
            .map(|&id| self.sim.node_by_id(id).inner.node().resident_table_bytes())
            .sum();
        total as f64 / ids.len().max(1) as f64
    }
}

impl Ring for TracedChord {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn run_until(&mut self, t: SimTime) {
        timed_run_until(&mut self.sim, t, &mut self.sim_self_s);
    }

    fn addrs(&self) -> &[String] {
        &self.addrs
    }

    fn issue(&mut self, origin: &str, key: Uint160) -> LookupHandle {
        let event = self.fresh_event();
        let handle = LookupHandle {
            origin: origin.to_string(),
            key,
            event,
            issued_at: self.sim.now(),
        };
        self.sim
            .inject(origin, chord::lookup_tuple(origin, key, origin, event));
        handle
    }

    fn clear_observations(&mut self) {
        for addr in &self.addrs {
            if let Some(h) = self.sim.node(addr) {
                for name in ["lookup", "lookupResults"] {
                    if let Some(c) = h.inner.node().collector(name) {
                        c.lock().clear();
                    }
                }
            }
        }
    }

    fn churn(&mut self, addr: &str) {
        let idx = self
            .addrs
            .iter()
            .position(|a| a == addr)
            .expect("churned node exists");
        if self.observing {
            self.retire(idx);
        }
        self.sim.take_down(addr);
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        let landmark = (idx > 0).then(|| self.addrs[0].clone());
        let host = self.node(addr, landmark.as_deref(), self.seed);
        self.sim.replace_node(addr, host);
        if self.observing {
            let meta = self.obs_meta();
            if let Some(h) = self.sim.node_mut(addr) {
                h.inner.node_mut().enable_obs(meta);
            }
        }
        let event = self.fresh_event();
        self.sim.inject(addr, chord::join_tuple(addr, event));
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

/// The harness's `BaselineCluster` rebuilt over timed hosts.
pub struct TracedBaseline {
    pub sim: Simulator<Timed<BaselineChord>>,
    addrs: Vec<String>,
    next_event: i64,
    /// Simulator self time since the last reset.
    pub sim_self_s: f64,
}

impl TracedBaseline {
    /// `BaselineCluster::build(n, 0, seed)`, call for call.
    pub fn build(n: usize, seed: u64) -> TracedBaseline {
        let mut sim = Simulator::new(NetworkConfig::emulab_default(seed));
        let addrs: Vec<String> = (0..n).map(|i| format!("node{i}:11111")).collect();
        for (i, addr) in addrs.iter().enumerate() {
            let landmark = (i > 0).then(|| addrs[0].as_str());
            let t = Instant::now();
            let node = BaselineChord::new(
                addr,
                landmark,
                seed.wrapping_add(1000 + i as u64),
                BaselineConfig::default(),
            );
            let secs = t.elapsed().as_secs_f64();
            with_ledger(|l| l.instantiate.add(secs));
            sim.add_node(addr.clone(), Timed { inner: node });
        }
        for addr in &addrs {
            sim.start_node(addr);
            sim.run_for(SimTime::from_millis(500));
        }
        sim.run_for(SimTime::ZERO);
        sim.reset_stats();
        TracedBaseline {
            sim,
            addrs,
            next_event: 5_000_000,
            sim_self_s: 0.0,
        }
    }
}

impl Ring for TracedBaseline {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn run_until(&mut self, t: SimTime) {
        timed_run_until(&mut self.sim, t, &mut self.sim_self_s);
    }

    fn addrs(&self) -> &[String] {
        &self.addrs
    }

    fn issue(&mut self, origin: &str, key: Uint160) -> LookupHandle {
        self.next_event += 1;
        let event = self.next_event;
        let handle = LookupHandle {
            origin: origin.to_string(),
            key,
            event,
            issued_at: self.sim.now(),
        };
        let tuple = TupleBuilder::new("lookup")
            .push(origin)
            .push(Value::Id(key))
            .push(origin)
            .push(event)
            .build();
        self.sim.inject(origin, tuple);
        handle
    }

    fn clear_observations(&mut self) {}

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
