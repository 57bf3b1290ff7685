//! Property test pinning the delta-fed `AggProbe` to the
//! recompute-per-event scan path it replaces: two identical rigs — one
//! probe built with `AggProbe::new` (counted full scan per event), one
//! with `AggProbe::new_incremental` (a table mirror fed by the table's
//! delta stream, evaluated once per distinct projection of the read row
//! columns) — receive the same arbitrary interleaving of inserts, deletes,
//! expirations, evictions, and probe events, and must produce
//! bit-identical emission streams for every aggregate function.
//!
//! Rows are `row(ID, B, V)` keyed by `ID`, which the programs never read,
//! so rows with equal `(B, V)` share a projection while differing in `ID`.
//! `V` mixes `Int`, `Double` and `Id` values that `Value::eq` equates
//! (`Int(1)`, `Double(1.0)`, `Id(1)`) but the programs can tell apart, and
//! fractional doubles whose `sum`/`avg` depend on the fold order.

use p2_dataflow::elements::{AggProbe, Collector, CollectorHandle, Delete, Demux, Insert};
use p2_dataflow::{Engine, Graph, Route};
use p2_pel::{BinOp, Expr, Program};
use p2_table::{AggFunc, Table, TableRef, TableSpec};
use p2_value::{SimTime, Tuple, TupleBuilder, Uint160, Value};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Action {
    /// Insert `row(id, b, v)` (same `id` replaces; over-capacity evicts).
    Insert {
        id: i64,
        b: i64,
        v: Value,
        at_secs: u64,
    },
    /// Delete the row keyed `id`.
    Delete { id: i64 },
    /// Expire soft state (observable only through the delta stream).
    Expire { at_secs: u64 },
    /// Deliver the probe event `ev(k)`: aggregate over matching rows.
    Probe { k: i64, at_secs: u64 },
}

fn arb_action() -> impl Strategy<Value = Action> {
    // The vendored proptest has no weighted arms; duplication stands in
    // for weights (inserts and probes dominate).
    let insert =
        || {
            (0i64..10, 0i64..5, arb_value(), 0u64..150)
                .prop_map(|(id, b, v, at_secs)| Action::Insert { id, b, v, at_secs })
        };
    let probe = || (0i64..10, 0u64..150).prop_map(|(k, at_secs)| Action::Probe { k, at_secs });
    prop_oneof![
        insert(),
        insert(),
        insert(),
        probe(),
        probe(),
        probe(),
        (0i64..10).prop_map(|id| Action::Delete { id }),
        (0u64..200).prop_map(|at_secs| Action::Expire { at_secs }),
    ]
}

/// A `V` column value: few distinct magnitudes in four guises, so equal
/// projections recur and `Value::eq`-equal values of different variants
/// meet in one table.
fn arb_value() -> impl Strategy<Value = Value> {
    (0i64..4, 0i64..4).prop_map(|(kind, x)| match kind {
        0 => Value::Int(x),
        1 => Value::Double(x as f64),
        2 => Value::Double(x as f64 / 3.0 + 0.1),
        _ => Value::Id(Uint160::from_u64(x as u64)),
    })
}

fn arb_func() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::Sum),
        Just(AggFunc::Avg),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
    ]
}

/// One probe rig: demuxed insert/delete bridges into the table plus the
/// probe on the event stream. The joined tuple is `ev(K) ++ row(ID, B, V)`,
/// so field 0 is the event key, fields 1-3 the row.
struct Rig {
    engine: Engine,
    table: TableRef,
    buf: CollectorHandle,
}

impl Rig {
    fn new(func: AggFunc, max_size: usize, incremental: bool) -> Rig {
        let spec = TableSpec::new("row", vec![0])
            .with_lifetime_secs(40)
            .with_max_size(max_size);
        let table: TableRef = Arc::new(parking_lot::Mutex::new(Table::new(spec)));
        // Filter: B > K (event-dependent). Aggregate expression: V - K.
        // Neither reads ID.
        let filter = Program::compile(&Expr::bin(BinOp::Gt, Expr::Field(2), Expr::Field(0)));
        let agg_expr = Program::compile(&Expr::bin(BinOp::Sub, Expr::Field(3), Expr::Field(0)));
        let probe = if incremental {
            AggProbe::new_incremental(table.clone(), 3, func, Some(filter), agg_expr, "out", 1)
        } else {
            AggProbe::new(table.clone(), 3, func, Some(filter), agg_expr, "out")
        };
        assert_eq!(probe.is_incremental(), incremental);

        let mut g = Graph::new();
        let demux = g.add(
            "demux",
            Box::new(Demux::new(vec!["row".into(), "zap".into(), "ev".into()])),
        );
        let ins = g.add("insert", Box::new(Insert::new(table.clone())));
        let del = g.add("delete", Box::new(Delete::new(table.clone())));
        let probe_id = g.add("probe", Box::new(probe));
        let (c, buf) = Collector::new();
        let tap = g.add("tap", Box::new(c));
        g.connect(demux, 0, ins, 0);
        g.connect(demux, 1, del, 0);
        g.connect(demux, 2, probe_id, 0);
        g.connect(probe_id, 0, tap, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: demux,
            port: 0,
        });
        engine.start(SimTime::ZERO);
        Rig { engine, table, buf }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn incremental_agg_probe_matches_scan_probe(
        func in arb_func(),
        actions in proptest::collection::vec(arb_action(), 1..80),
        max_size in 2usize..8,
    ) {
        let mut scan = Rig::new(func, max_size, false);
        let mut inc = Rig::new(func, max_size, true);
        let mut now = SimTime::ZERO;
        for action in actions {
            match action {
                Action::Insert { id, b, v, at_secs } => {
                    now = now.max(SimTime::from_secs(at_secs));
                    for rig in [&mut scan, &mut inc] {
                        let t = TupleBuilder::new("row").push(id).push(b).push(v.clone()).build();
                        rig.engine.deliver(t, now);
                    }
                }
                Action::Delete { id } => {
                    for rig in [&mut scan, &mut inc] {
                        let pattern =
                            Tuple::new("zap", vec![Value::Int(id), Value::Null, Value::Null]);
                        rig.engine.deliver(pattern, now);
                    }
                }
                Action::Expire { at_secs } => {
                    now = now.max(SimTime::from_secs(at_secs));
                    scan.table.lock().expire(now);
                    inc.table.lock().expire(now);
                }
                Action::Probe { k, at_secs } => {
                    now = now.max(SimTime::from_secs(at_secs));
                    for rig in [&mut scan, &mut inc] {
                        let ev = TupleBuilder::new("ev").push(k).build();
                        rig.engine.deliver(ev, now);
                    }
                }
            }
            scan.table.lock().check_consistency().unwrap();
            inc.table.lock().check_consistency().unwrap();
            let a = scan.buf.lock();
            let b = inc.buf.lock();
            // Debug renderings compare strictly: `Value::eq` would equate
            // `Int(1)` and `Double(1.0)`.
            prop_assert_eq!(
                format!("{:?}", &*a),
                format!("{:?}", &*b),
                "probe divergence for {:?} at {:?}",
                func,
                now
            );
        }
    }
}
