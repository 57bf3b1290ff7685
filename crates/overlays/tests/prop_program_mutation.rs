//! No-panic property test for the OverLog front end and planner: mutated
//! copies of the five shipped programs go through `compile_checked`
//! (lex, parse, validate), the whole-program analyzer, and
//! `PlannedProgram::compile` in both lowerings. Each stage may reject its
//! input with an error, but none may panic.

use p2_core::{PlanConfig, PlannedProgram};
use p2_overlays::{chord, gossip, monitor, narada};
use p2_overlog::{analyze, compile_checked};
use proptest::prelude::*;

/// Fragments spliced into programs: OverLog punctuation, keywords and
/// literals, so mutants get past the lexer and reach the later stages.
const SPLICES: [&str; 24] = [
    "(",
    ")",
    ",",
    ".",
    ":-",
    "@",
    "X",
    "0",
    "\"",
    "<",
    ">",
    ":=",
    "-1",
    "count<*>",
    "max<",
    "f_now()",
    "delete ",
    "not ",
    "infinity",
    "materialize(",
    "periodic@X(X, E, 0)",
    "99999999999999999999",
    "1e309",
    "R9 a@X(X) :- a@X(X).\n",
];

#[derive(Debug, Clone)]
enum Mutation {
    /// Removes up to `len` characters at `at`.
    Delete { at: u64, len: usize },
    /// Inserts `SPLICES[splice]` at `at`.
    Insert { at: u64, splice: usize },
    /// Copies the line at `from` over the line at `to`.
    CopyLine { from: u64, to: u64 },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u64>(), 1usize..12).prop_map(|(at, len)| Mutation::Delete { at, len }),
        (any::<u64>(), 0usize..SPLICES.len())
            .prop_map(|(at, splice)| Mutation::Insert { at, splice }),
        (any::<u64>(), any::<u64>()).prop_map(|(from, to)| Mutation::CopyLine { from, to }),
    ]
}

fn apply(source: &str, mutation: &Mutation) -> String {
    let mut chars: Vec<char> = source.chars().collect();
    let pick = |at: u64, len: usize| (at % (len as u64 + 1)) as usize;
    match mutation {
        Mutation::Delete { at, len } => {
            let start = pick(*at, chars.len());
            let end = (start + len).min(chars.len());
            chars.drain(start..end);
        }
        Mutation::Insert { at, splice } => {
            let at = pick(*at, chars.len());
            chars.splice(at..at, SPLICES[*splice].chars());
        }
        Mutation::CopyLine { from, to } => {
            let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
            if !lines.is_empty() {
                let from = (*from % lines.len() as u64) as usize;
                let to = (*to % lines.len() as u64) as usize;
                lines[to] = lines[from].clone();
            }
            return lines.join("\n");
        }
    }
    chars.into_iter().collect()
}

/// Runs every front-end and planning stage the source gets through.
fn compile_all_stages(source: &str) {
    let Ok(program) = compile_checked(source) else {
        return;
    };
    let _ = analyze(&program);
    let _ = PlannedProgram::compile(&program, &PlanConfig::new());
    let _ = PlannedProgram::compile(&program, &PlanConfig::new().reference());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_shipped_programs_never_panic(
        program in 0usize..5,
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let joined;
        let source = match program {
            0 => chord::CHORD_OLG,
            1 => {
                joined = format!("{}\n{}", chord::CHORD_OLG, chord::CHORD_JOIN_SEED_OLG);
                joined.as_str()
            }
            2 => narada::NARADA_OLG,
            3 => gossip::GOSSIP_OLG,
            _ => monitor::MONITOR_OLG,
        };
        let mutant = mutations.iter().fold(source.to_string(), |s, m| apply(&s, m));
        compile_all_stages(&mutant);
    }
}

#[test]
fn unmutated_programs_compile_through_every_stage() {
    for source in [
        chord::CHORD_OLG,
        narada::NARADA_OLG,
        gossip::GOSSIP_OLG,
        monitor::MONITOR_OLG,
    ] {
        let program = compile_checked(source).expect("shipped program compiles");
        PlannedProgram::compile(&program, &PlanConfig::new()).expect("shipped program plans");
    }
}
