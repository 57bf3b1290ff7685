//! No-panic property tests for the wire decoder: `unmarshal` sees bytes
//! straight off the network, so on any input it must return `Ok` or `Err`,
//! never panic. Covered inputs: arbitrary byte strings, and truncated or
//! bit-flipped encodings of real tuples (every tag, every length prefix).

use p2_value::wire::{marshal, unmarshal};
use p2_value::{SimTime, Tuple, Uint160, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Double),
        "[a-z0-9:.]{0,12}".prop_map(Value::str),
        any::<[u8; 8]>().prop_map(|b| Value::Id(Uint160::hash_of(&b))),
        any::<u64>().prop_map(|us| Value::Time(SimTime::from_micros(us))),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (
        "[a-zA-Z]{1,10}",
        proptest::collection::vec(arb_value(), 0..8),
    )
        .prop_map(|(name, values)| Tuple::new(name, values))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = unmarshal(&bytes);
    }

    #[test]
    fn intact_encodings_round_trip(tuple in arb_tuple()) {
        let back = unmarshal(&marshal(&tuple)).expect("a marshalled tuple decodes");
        prop_assert_eq!(back.name(), tuple.name());
        // Compare bit patterns: NaN doubles are not equal to themselves.
        prop_assert_eq!(marshal(&back), marshal(&tuple));
    }

    #[test]
    fn truncated_encodings_are_rejected(tuple in arb_tuple(), cut in any::<u64>()) {
        let bytes = marshal(&tuple);
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(unmarshal(&bytes[..cut]).is_err(), "prefix of {} bytes decoded", cut);
    }

    #[test]
    fn bit_flipped_encodings_never_panic(
        tuple in arb_tuple(),
        flips in proptest::collection::vec((any::<u64>(), 0u32..8), 1..4),
    ) {
        let mut bytes = marshal(&tuple);
        for (at, bit) in flips {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << bit;
        }
        let _ = unmarshal(&bytes);
    }
}
