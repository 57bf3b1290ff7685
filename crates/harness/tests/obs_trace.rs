//! Observability determinism gates: the rule-level profiler and the
//! provenance trace must be pure observers. The JSONL trace and the merged
//! profiler counters of a tagged lookup are bit-identical between the
//! sequential simulator and the sharded one at every worker count, and the
//! profile's wasted-poke audit must agree with the static analyzer's
//! refresh-transparency classification.

use p2_harness::ChordCluster;
use p2_obs::{ElemCounters, TraceKind};
use p2_value::Uint160;

/// Builds a 16-node ring, profiles a settle window, then traces one tagged
/// lookup; returns everything the observability layer produced.
fn traced_run(workers: Option<usize>) -> (String, Vec<ElemCounters>, Option<String>) {
    let builder = ChordCluster::builder(16, 23);
    let builder = match workers {
        None => builder,
        Some(w) => builder.par_threads(w),
    };
    let mut cluster = builder.build_fast(120);
    cluster.enable_observability();
    cluster.run_for(30.0);
    let key = Uint160::hash_of(b"traced determinism object");
    let origin = cluster.addrs()[5].clone();
    let handle = cluster.issue_traced_lookup(&origin, key);
    cluster.run_for(10.0);
    let owner = cluster.outcome(&handle).map(|o| o.owner);
    (cluster.drain_trace_jsonl(), cluster.obs_counters(), owner)
}

#[test]
fn trace_and_profile_are_identical_across_worker_counts() {
    let (jsonl, counters, owner) = traced_run(None);
    assert!(owner.is_some(), "sequential traced lookup did not complete");
    assert!(!jsonl.is_empty(), "tagged lookup left no trace");
    assert!(
        jsonl.lines().any(|l| l.contains("lookupResults")),
        "trace never derived the lookup result"
    );
    assert!(
        counters.iter().any(|c| c.invocations > 0),
        "profiler recorded no work"
    );
    for w in [1, 2, 4] {
        let (j, c, o) = traced_run(Some(w));
        assert_eq!(o, owner, "{w}-worker lookup owner diverged");
        assert_eq!(j, jsonl, "{w}-worker JSONL trace diverged");
        assert_eq!(c, counters, "{w}-worker profiler counters diverged");
    }
}

/// The wasted-poke audit in both scheduling regimes, on the default
/// lowering (the scheduler-off ring keeps the default's elements and only
/// turns the engines' wake guards off, so the two element graphs — and
/// their poke counts — are comparable). With the delta
/// scheduler off, the historical PR 9 claim holds: refresh-transparent
/// rules carry the bulk of the ran-and-wasted pokes. With the scheduler on
/// (the default), those same invocations are counted as suppressed-never-ran
/// instead of ran-and-wasted — the audit's PR 10 blind-spot fix — and
/// because the two runs process identical event streams, pokes are
/// conserved: every poke the scheduler suppressed is one the unscheduled
/// engine ran.
#[test]
fn wasted_poke_audit_matches_rule_classification() {
    let profile = |schedule: bool| {
        let mut cluster = ChordCluster::builder(16, 23)
            .scheduling(schedule)
            .build_fast(120);
        cluster.enable_observability();
        cluster.run_for(60.0);
        cluster.obs_report()
    };

    let off = profile(false);
    assert!(off.total_pokes > 0, "no pokes profiled");
    assert_eq!(
        off.total_suppressed_pokes, 0,
        "poke-everything run reported suppressed pokes"
    );
    assert!(
        off.total_wasted_pokes > 0,
        "steady-state maintenance should contain refresh no-ops"
    );
    // The PR-8 classification predicted that refresh-transparent rules
    // (the SU0/SU1-style soft-state refresh paths) account for the bulk of
    // the no-op pokes; the measured audit must agree.
    assert!(
        off.refresh_transparent.wasted_pokes >= off.other_rules.wasted_pokes,
        "refresh-transparent rules no longer dominate wasted pokes: {} vs {}",
        off.refresh_transparent.wasted_pokes,
        off.other_rules.wasted_pokes
    );
    // Every rule the analyzer classified appears in the profile.
    assert!(
        off.rules.iter().filter(|r| r.class.is_some()).count() > 30,
        "rule attribution lost most rules"
    );

    let on = profile(true);
    assert!(
        on.total_suppressed_pokes > 0,
        "delta scheduling suppressed no pokes"
    );
    // Poke conservation across regimes: identical event streams mean every
    // suppressed poke corresponds to an invocation the unscheduled engine
    // performed (suppressed pokes are counted separately, never as ran).
    assert_eq!(
        on.total_pokes + on.total_suppressed_pokes,
        off.total_pokes,
        "ran + suppressed pokes with scheduling on must equal the \
         poke-everything run's invocations"
    );
    // The scheduler's whole point: the refresh-transparent bucket's
    // ran-and-wasted pokes collapse (the `would_wake` guards catch the
    // refresh no-ops before they run) and the overall wasted rate drops.
    assert!(
        on.refresh_transparent.wasted_pokes < off.refresh_transparent.wasted_pokes,
        "scheduling did not reduce refresh-transparent waste: {} vs {}",
        on.refresh_transparent.wasted_pokes,
        off.refresh_transparent.wasted_pokes
    );
    assert!(
        on.wasted_rate < off.wasted_rate,
        "scheduling did not reduce the wasted-poke rate: {:.3} vs {:.3}",
        on.wasted_rate,
        off.wasted_rate
    );
}

#[test]
fn observability_is_off_by_default_and_trace_is_scoped_to_the_tag() {
    let mut cluster = ChordCluster::builder(8, 7).build_fast(120);
    // Off by default: no counters exist, draining yields nothing.
    assert!(cluster.obs_counters().is_empty());
    assert!(cluster.drain_trace().is_empty());

    cluster.enable_observability();
    let key = Uint160::hash_of(b"scoped trace");
    let origin = cluster.addrs()[3].clone();
    let handle = cluster.issue_traced_lookup(&origin, key);
    cluster.run_for(10.0);
    let events = cluster.drain_trace();
    assert!(!events.is_empty());
    // Every traced tuple carries the tag (the lookup's event id).
    let tag = format!("{}", handle.event);
    for e in &events {
        assert!(
            e.tuple.contains(&tag),
            "untagged tuple in trace: {}",
            e.tuple
        );
    }
    // The cascade re-enters remote nodes: arrivals recorded on more than
    // one node, and the sends pair up with them.
    let recv_nodes: std::collections::BTreeSet<_> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Recv)
        .map(|e| e.node.clone())
        .collect();
    assert!(recv_nodes.len() > 1, "trace never left the origin");
    assert!(events.iter().any(|e| e.kind == TraceKind::Send));
    // Draining consumed the rings.
    assert!(cluster.drain_trace().is_empty());
}
