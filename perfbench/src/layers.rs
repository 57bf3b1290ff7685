//! The traced run and its per-layer ledger.
//!
//! Layers are named after the crates: `netsim` (the event loop), `core`
//! (calls into a P2 node), `dataflow` (engine and element counters), `table`
//! (storage counters), `harness` (the driver's calls into the public
//! clusters), `baseline` (calls into a hand-coded node) and `trace` (the
//! ledger's own audit).

use std::time::Instant;

use p2_obs::ElemKind;

use crate::traced::{
    time_plan, with_ledger, Counters, Ledger, Timer, TracedBaseline, TracedChord, ENGINE_COUNTERS,
    TABLE_COUNTERS,
};
use crate::workload::{run_window, Overlay, Ring, Spec, Window, RING_SEED};
use crate::{rings, Harness, Report};

/// Relations whose delivery time and traffic are reported one by one. The
/// hand-coded baseline reuses the Chord program's wire names; `join` is only
/// ever injected. Anything else is summed under `other`.
pub const RELATIONS: [&str; 10] = [
    "lookup",
    "lookupResults",
    "stabilizeRequest",
    "sendSuccessors",
    "returnSuccessor",
    "sendPredecessor",
    "notifyPredecessor",
    "pingReq",
    "pingResp",
    "join",
];

/// Element kinds whose invocations are reported.
const KINDS: [ElemKind; 15] = [
    ElemKind::Demux,
    ElemKind::Insert,
    ElemKind::Delete,
    ElemKind::Join,
    ElemKind::AntiJoin,
    ElemKind::Select,
    ElemKind::Project,
    ElemKind::AggProbe,
    ElemKind::TableAgg,
    ElemKind::Strand,
    ElemKind::Pad,
    ElemKind::MatView,
    ElemKind::Periodic,
    ElemKind::NetOut,
    ElemKind::Collector,
];

fn take_ledger() -> Ledger {
    with_ledger(std::mem::take)
}

/// What the traced replica measured.
struct Replica {
    window: Window,
    ledger: Ledger,
    setup_ledger: Ledger,
    sim_self_s: f64,
    events: u64,
    wakeups: u64,
    /// Engine, storage and profiler counters of a P2 replica.
    chord: Option<ChordCounts>,
}

struct ChordCounts {
    counters: Counters,
    state_bytes_per_node: f64,
    meta: std::sync::Arc<p2_obs::ObsMeta>,
}

fn replica_window<R: Ring>(
    ring: &mut R,
    spec: &Spec,
    seed: u64,
    start: impl FnOnce(&mut R),
) -> Result<(Window, Ledger, Ledger, u64, u64), String> {
    rings::warm_up(ring, spec.warmup);
    start(ring);
    let (e0, w0) = ring.events();
    let setup = take_ledger();
    let w = run_window(ring, spec, seed, false, 0.0)?;
    let fp = w.fingerprint.as_ref().expect("the window ran its steps");
    let (events, wakeups) = (fp.events - e0, fp.wakeups - w0);
    Ok((w, take_ledger(), setup, events, wakeups))
}

fn run_replica(spec: &Spec, seed: u64) -> Result<Replica, String> {
    take_ledger();
    match spec.overlay {
        Overlay::P2 => {
            let mut c = TracedChord::build_fast(spec.nodes, RING_SEED);
            let (window, ledger, setup_ledger, events, wakeups) =
                replica_window(&mut c, spec, seed, |c| {
                    c.sim_self_s = 0.0;
                    c.start_observing();
                })?;
            Ok(Replica {
                window,
                ledger,
                setup_ledger,
                sim_self_s: c.sim_self_s,
                events,
                wakeups,
                chord: Some(ChordCounts {
                    counters: c.counters(),
                    state_bytes_per_node: c.state_bytes_per_node(),
                    meta: c.obs_meta(),
                }),
            })
        }
        Overlay::Baseline => {
            let mut c = TracedBaseline::build(spec.nodes, RING_SEED);
            let (window, ledger, setup_ledger, events, wakeups) =
                replica_window(&mut c, spec, seed, |c| c.sim_self_s = 0.0)?;
            Ok(Replica {
                window,
                ledger,
                setup_ledger,
                sim_self_s: c.sim_self_s,
                events,
                wakeups,
                chord: None,
            })
        }
    }
}

/// Runs the workload untraced through the harness, then on the traced
/// replica, and reports the ledger.
pub fn run_traced(spec: &Spec, seed: u64) -> Result<Report, String> {
    let mut r = Report::default();

    // Untraced, through the public harness: the harness layer's numbers
    // and the reference the replica must match.
    let (mut h, bringup_s) = Harness::set_up(spec);
    let t = Instant::now();
    h.warm_up(spec, &mut r);
    let warmup_s = t.elapsed().as_secs_f64();
    let plain = run_window(h.ring(), spec, seed, true, 0.0)?;
    drop(h);

    let plan_s = match spec.overlay {
        Overlay::P2 => time_plan(),
        Overlay::Baseline => 0.0,
    };
    let rep = run_replica(spec, seed)?;
    let traced = &rep.window;
    let matches = plain.fingerprint == traced.fingerprint;
    if !matches {
        eprintln!(
            "  trace mismatch: untraced {:?}\n                  traced   {:?}",
            plain.fingerprint, traced.fingerprint
        );
    }
    let fp = traced
        .fingerprint
        .as_ref()
        .expect("the window ran its steps");
    let ledger = &rep.ledger;
    let node_s = ledger.node_s();
    let p2 = spec.overlay == Overlay::P2;

    // netsim
    r.push("netsim.self_s", rep.sim_self_s, "s");
    r.push(
        "netsim.ns_per_event",
        rep.sim_self_s * 1e9 / rep.events.max(1) as f64,
        "ns",
    );
    r.push("netsim.events", rep.events as f64, "count");
    r.push("netsim.wakeups", rep.wakeups as f64, "count");
    r.push("netsim.msgs_dropped", fp.messages_dropped as f64, "count");
    let other_bytes: u64 = fp
        .bytes_by_name
        .iter()
        .filter(|(n, _)| !RELATIONS.contains(&n.as_str()))
        .map(|(_, b)| *b)
        .sum();
    for rel in RELATIONS {
        let bytes = fp
            .bytes_by_name
            .iter()
            .find(|(n, _)| n == rel)
            .map_or(0, |(_, b)| *b);
        r.push(format!("netsim.bytes.{rel}"), bytes as f64, "B");
    }
    r.push("netsim.bytes.other", other_bytes as f64, "B");

    // core (P2 nodes) or baseline (hand-coded nodes)
    let (core, base) = if p2 { (1.0, 0.0) } else { (0.0, 1.0) };
    r.push("core.deliver_s", core * ledger.deliver.secs, "s");
    r.push(
        "core.deliver_calls",
        core * ledger.deliver.calls as f64,
        "count",
    );
    r.push("core.advance_s", core * ledger.advance.secs, "s");
    r.push(
        "core.advance_calls",
        core * ledger.advance.calls as f64,
        "count",
    );
    r.push("core.deadline_s", core * ledger.deadline.secs, "s");
    let other = ledger
        .by_relation
        .iter()
        .filter(|(n, _)| !RELATIONS.contains(&n.as_str()))
        .fold(Timer::default(), |acc, (_, t)| Timer {
            secs: acc.secs + t.secs,
            calls: acc.calls + t.calls,
        });
    let per_relation = RELATIONS
        .iter()
        .map(|rel| (*rel, ledger.relation_timer(rel)))
        .chain([("other", other)]);
    for (rel, t) in per_relation {
        r.push(format!("core.deliver_s.{rel}"), core * t.secs, "s");
        let us = if t.calls == 0 {
            0.0
        } else {
            t.secs * 1e6 / t.calls as f64
        };
        r.push(format!("core.deliver_us.{rel}"), core * us, "us");
    }
    let inst = rep.setup_ledger.instantiate.secs + ledger.instantiate.secs;
    let inst_calls = rep.setup_ledger.instantiate.calls + ledger.instantiate.calls;
    r.push("core.plan_s", plan_s, "s");
    r.push("core.instantiate_s", core * inst, "s");
    r.push("core.instantiate_calls", core * inst_calls as f64, "count");
    r.push("baseline.deliver_s", base * ledger.deliver.secs, "s");
    r.push("baseline.advance_s", base * ledger.advance.secs, "s");
    r.push("baseline.instantiate_s", base * inst, "s");

    // dataflow and table
    let counts = rep.chord.as_ref();
    let engine = counts.map_or([0; 3], |c| c.counters.engine);
    let table = counts.map_or([0; 7], |c| c.counters.table);
    let mut pokes = 0u64;
    let mut wasted = 0u64;
    let mut suppressed = 0u64;
    let mut by_kind = [0u64; KINDS.len()];
    if let Some(counts) = counts {
        for (em, c) in counts.meta.elems.iter().zip(&counts.counters.elems) {
            if em.kind.pokeable() {
                pokes += c.invocations;
                wasted += c.wasted_pokes;
            }
            suppressed += c.suppressed_pokes;
            if let Some(k) = KINDS.iter().position(|k| *k == em.kind) {
                by_kind[k] += c.invocations;
            }
        }
    }
    r.push(
        "dataflow.handoffs_per_event",
        engine[0] as f64 / rep.events.max(1) as f64,
        "count",
    );
    r.push("dataflow.pokes", pokes as f64, "count");
    r.push(
        "dataflow.useful_poke_rate",
        if pokes == 0 {
            0.0
        } else {
            1.0 - wasted as f64 / pokes as f64
        },
        "fraction",
    );
    r.push("dataflow.suppressed_pokes", suppressed as f64, "count");
    for (name, n) in ENGINE_COUNTERS.iter().zip(engine).skip(1) {
        r.push(format!("dataflow.{name}"), n as f64, "count");
    }
    for (k, n) in KINDS.iter().zip(by_kind) {
        r.push(
            format!("dataflow.invocations.{}", k.as_str()),
            n as f64,
            "count",
        );
    }
    for (name, n) in TABLE_COUNTERS.iter().zip(table) {
        r.push(format!("table.{name}"), n as f64, "count");
    }
    r.push(
        "table.state_bytes_per_node",
        counts.map_or(0.0, |c| c.state_bytes_per_node),
        "B",
    );

    // harness: the driver's calls into the public clusters (untraced run)
    let t = &plain.times;
    r.push("harness.bringup_s", bringup_s, "s");
    r.push("harness.warmup_s", warmup_s, "s");
    r.push("harness.issue_s", t.issue_s, "s");
    r.push("harness.harvest_s", t.harvest_s, "s");
    r.push("harness.sample_s", t.sample_s, "s");
    r.push("harness.outcome_calls", t.outcome_calls as f64, "count");
    r.push("harness.churn_s", t.churn_s, "s");
    r.push("harness.rejoins", t.rejoins as f64, "count");
    r.push("harness.hops_mean", crate::stats::mean(&plain.hops), "hops");

    // trace: the ledger's audit
    let overhead = traced.times.sim_s / plain.times.sim_s.max(f64::MIN_POSITIVE);
    r.push("trace.overhead", overhead, "ratio");
    r.push("trace.matches", if matches { 1.0 } else { 0.0 }, "bool");

    eprintln!(
        "  traced window: {:.3} s in simulator ({:.3} s in nodes, {:.3} s netsim self); untraced {:.3} s; matches {}",
        traced.times.sim_s, node_s, rep.sim_self_s, plain.times.sim_s, matches
    );
    r.attempted = plain.lookups.issued;
    if spec.stable_ring {
        r.failed = plain.lookups.failed();
    }
    Ok(r)
}
