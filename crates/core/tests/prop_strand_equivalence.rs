//! Property test pinning the default lowering to the reference one: a node
//! planned with fused strands and scheduling on (the default) and a node
//! planned with the generic element chains and scheduling off
//! (`PlanConfig::reference`) must produce **identical** output streams — same outgoing
//! tuples, in the same order (the simulator's determinism contract keys
//! packet ordering on the per-sender emission index, so order is
//! semantics) — and identical final table state, under arbitrary input
//! tuple sequences covering every fused shape: select-project with
//! assignments, single-join with join checks and conditions, anti-joins,
//! and delete routing.

use p2_overlog::compile_checked;
use p2_value::{SimTime, Tuple, Value};
use proptest::prelude::*;

/// One rule per fused shape; `score`/`member` give the joins and
/// anti-joins real state to probe.
const PROGRAM: &str = r#"
    materialize(member, 30, 6, keys(2)).
    materialize(score, infinity, infinity, keys(2)).
    R1 member@X(X, Y, S) :- add@X(X, Y, S).
    R2 out@X(X, Y, D) :- ev@X(X, Y), member@X(X, Y, S), S > 2, D := S + 1.
    R3 far@Y(Y, X) :- ev@X(X, Y), X != Y.
    R4 delete member@X(X, Y, S) :- del@X(X, Y), member@X(X, Y, S).
    R5 lone@Y(Y, X) :- probe@X(X, Y), not score@X(X, Y).
    R6 score@X(X, Y) :- mark@X(X, Y).
"#;

#[derive(Debug, Clone)]
enum Input {
    Add { y: usize, s: i64 },
    Ev { y: usize },
    Del { y: usize },
    Probe { y: usize },
    Mark { y: usize },
    Advance { secs: u64 },
}

fn arb_input() -> impl Strategy<Value = Input> {
    prop_oneof![
        (0usize..4, -3i64..8).prop_map(|(y, s)| Input::Add { y, s }),
        (0usize..4).prop_map(|y| Input::Ev { y }),
        (0usize..4).prop_map(|y| Input::Del { y }),
        (0usize..4).prop_map(|y| Input::Probe { y }),
        (0usize..4).prop_map(|y| Input::Mark { y }),
        (1u64..40).prop_map(|secs| Input::Advance { secs }),
    ]
}

fn peer(y: usize) -> Value {
    // y == 0 maps to the local address, exercising the local wrap-around.
    let names = ["n1", "n2", "n3", "n4"];
    Value::str(names[y])
}

fn tuple(input: &Input) -> Option<Tuple> {
    let me = Value::str("n1");
    Some(match input {
        Input::Add { y, s } => Tuple::new("add", vec![me, peer(*y), Value::Int(*s)]),
        Input::Ev { y } => Tuple::new("ev", vec![me, peer(*y)]),
        Input::Del { y } => Tuple::new("del", vec![me, peer(*y)]),
        Input::Probe { y } => Tuple::new("probe", vec![me, peer(*y)]),
        Input::Mark { y } => Tuple::new("mark", vec![me, peer(*y)]),
        Input::Advance { .. } => return None,
    })
}

fn table_rows(node: &p2_core::P2Node, name: &str) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = node
        .table(name)
        .map(|t| {
            t.lock()
                .scan_iter()
                .map(|tu| tu.values().to_vec())
                .collect()
        })
        .unwrap_or_default();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fused_and_generic_nodes_are_observationally_identical(
        inputs in proptest::collection::vec(arb_input(), 1..60),
    ) {
        let program = compile_checked(PROGRAM).expect("test program compiles");
        let build = |fuse: bool| {
            let mut config = p2_core::PlanConfig::new().without_jitter();
            if !fuse {
                config = config.reference();
            }
            let shared = p2_core::PlannedProgram::compile(&program, &config)
                .expect("test program plans");
            let mut node = p2_core::P2Node::from_plan(&shared, "n1", 7, vec![]);
            node.start(SimTime::ZERO);
            node
        };
        let mut fused = build(true);
        let mut generic = build(false);

        let mut now = SimTime::from_secs(1);
        for input in &inputs {
            match input {
                Input::Advance { secs } => {
                    now += SimTime::from_secs(*secs);
                    let a = fused.advance_to(now);
                    let b = generic.advance_to(now);
                    prop_assert_eq!(a, b, "advance_to diverged at {:?}", now);
                }
                _ => {
                    let t = tuple(input).expect("non-advance inputs carry a tuple");
                    let a = fused.deliver(t.clone(), now);
                    let b = generic.deliver(t, now);
                    prop_assert_eq!(a, b, "deliver diverged for {:?}", input);
                }
            }
        }
        for table in ["member", "score"] {
            prop_assert_eq!(
                table_rows(&fused, table),
                table_rows(&generic, table),
                "final `{}` state diverged",
                table
            );
        }
    }
}

#[test]
fn the_test_program_actually_fuses() {
    let program = compile_checked(PROGRAM).unwrap();
    let fused =
        p2_core::PlannedProgram::compile(&program, &p2_core::PlanConfig::new().without_jitter())
            .unwrap();
    // R2, R3, R4, R5 fuse (R1/R6 are bare head projections, which stay
    // generic by design).
    assert_eq!(fused.fused_strand_count(), 4, "fusion coverage changed");
}
