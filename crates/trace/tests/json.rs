//! `adm_trace::json`: writer/parser round trips on generated values, the
//! grammar's edges, and the depth cap.

use adm_trace::json::{self, obj, ParseError, Value, MAX_DEPTH};
use proptest::prelude::*;
use proptest::TestRng;

/// Strings that exercise the escaper: quotes, backslashes, every control
/// byte class, non-ASCII (2-, 3- and 4-byte UTF-8), and text that looks
/// like an escape.
const STRINGS: &[&str] = &[
    "",
    "plain",
    "quo\"te",
    "back\\slash",
    "\\u0041 is not an escape here",
    "tab\tnewline\nreturn\r",
    "\u{0}\u{1}\u{8}\u{c}\u{1f}",
    "\u{7f}é—\u{fffd}",
    "𝄞 astral",
    "serve.hits_mem",
];

/// A value in the parser's canonical form (non-negative integers are
/// `UInt`, floats are finite), nested at most `depth` levels.
fn gen_value(rng: &mut TestRng, depth: usize) -> Value {
    let string = |rng: &mut TestRng| STRINGS[rng.usize_in(0, STRINGS.len())].to_string();
    let leaves = 6;
    match rng.usize_in(0, if depth == 0 { leaves } else { leaves + 2 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        // Half of these sit above 2^53, where an f64 detour would round.
        2 => Value::UInt(rng.next_u64() >> (rng.usize_in(0, 2) * 32)),
        3 => Value::Int(-((rng.next_u64() >> 1) as i64) - 1),
        4 => {
            let f = f64::from_bits(rng.next_u64());
            Value::Float(if f.is_finite() { f } else { 0.1 })
        }
        5 => Value::Str(string(rng)),
        6 => Value::arr((0..rng.usize_in(0, 4)).map(|_| gen_value(rng, depth - 1))),
        _ => Value::Obj(
            (0..rng.usize_in(0, 4))
                .map(|_| (string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn both_writers_round_trip_through_parse(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&seed.to_string());
        let v = gen_value(&mut rng, 6);
        prop_assert_eq!(json::parse(&v.to_string()), Ok(v.clone()));
        prop_assert_eq!(json::parse(&v.to_string_pretty()), Ok(v));
    }
}

#[test]
fn floats_render_shortest_and_stay_floats() {
    let floats = Value::arr([1.0, 0.1, 1e-7, f64::NAN, -0.0, 1e21, 0.1 + 0.2]);
    assert_eq!(
        floats.to_string(),
        "[1.0,0.1,0.0000001,null,-0.0,1000000000000000000000.0,0.30000000000000004]"
    );
    assert_eq!(Value::from(f64::INFINITY).to_string(), "null");
}

#[test]
fn integers_stay_exact() {
    let doc = json::parse("[18446744073709551615, -9223372036854775808, 0, -0]").unwrap();
    let expected = Value::Arr(vec![
        Value::UInt(u64::MAX),
        Value::Int(i64::MIN),
        Value::UInt(0),
        Value::Int(0),
    ]);
    assert_eq!(doc, expected);
    // One past either end is still a number, no longer an exact one.
    assert_eq!(
        json::parse("18446744073709551616"),
        Ok(Value::Float(18446744073709551616.0))
    );
    assert_eq!(Value::UInt(u64::MAX).as_u64(), Some(u64::MAX));
    assert_eq!(Value::Int(-1).as_u64(), None);
    assert_eq!(Value::Float(1.0).as_u64(), None);
}

#[test]
fn every_string_escape_parses() {
    let doc = json::parse(r#""\" \\ \/ \b \f \n \r \t é 𝄞""#).unwrap();
    assert_eq!(doc.as_str(), Some("\" \\ / \u{8} \u{c} \n \r \t é 𝄞"));
    for bad in [
        r#""\x""#,
        r#""\u12""#,
        r#""\ud834""#,
        r#""\ud834A""#,
        r#""\udd1e""#,
        "\"raw\nnewline\"",
        "\"open",
    ] {
        assert!(
            matches!(json::parse(bad), Err(ParseError::Syntax { .. })),
            "{bad:?}"
        );
    }
}

#[test]
fn grammar_edges_are_rejected_with_an_offset() {
    for bad in [
        "", " ", "{", "[1,]", "[1 2]", "{\"a\"}", "{\"a\":}", "{a:1}", "[01]", "1.", ".5", "+1",
        "1e", "-", "tru", "nul", "NaN", "'s'",
    ] {
        assert!(
            matches!(json::parse(bad), Err(ParseError::Syntax { .. })),
            "{bad:?}"
        );
    }
    for (trailing, at) in [("{} x", 3), ("[1][2]", 3), ("01", 1)] {
        let expected = "the end of the input";
        let err = ParseError::Syntax { at, expected };
        assert_eq!(json::parse(trailing), Err(err), "{trailing:?}");
    }
    assert_eq!(json::parse(" \t\r\n[ ] \n"), Ok(Value::Arr(vec![])));
}

#[test]
fn nesting_is_capped_at_max_depth() {
    let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
    assert!(json::parse(&nest(MAX_DEPTH)).is_ok());
    assert_eq!(
        json::parse(&nest(MAX_DEPTH + 1)),
        Err(ParseError::TooDeep { at: MAX_DEPTH })
    );
    // The cap, not the stack, stops a hostile document: 200,000 open
    // brackets on a 256 kB thread.
    let hostile = "[".repeat(200_000);
    let verdict = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || json::parse(&hostile))
        .unwrap()
        .join()
        .expect("parse must not overflow the stack");
    assert_eq!(verdict, Err(ParseError::TooDeep { at: MAX_DEPTH }));
    let mixed = "{\"a\":[".repeat(100_000);
    assert!(matches!(
        json::parse(&mixed),
        Err(ParseError::TooDeep { .. })
    ));
}

#[test]
fn accessors_and_literals_agree() {
    let doc = obj! {
        "name": "x",
        "n": 3usize,
        "neg": Value::Int(-3),
        "ratio": 0.5,
        "none": None::<f64>,
        "pair": (1u64, 2.0),
        "list": vec![1u64, 2],
        "dup": 1u64,
        "dup": 2u64,
    };
    assert_eq!(doc.get("name").and_then(Value::as_str), Some("x"));
    assert_eq!(doc.get("n").and_then(Value::as_u64), Some(3));
    assert_eq!(doc.get("neg").and_then(Value::as_u64), None);
    assert_eq!(doc.get("none"), Some(&Value::Null));
    assert_eq!(doc.get("dup").and_then(Value::as_u64), Some(1));
    assert_eq!(doc.get("missing"), None);
    assert_eq!(
        doc.get("list").and_then(Value::as_array).map(<[_]>::len),
        Some(2)
    );
    assert_eq!(
        doc.to_string(),
        r#"{"name":"x","n":3,"neg":-3,"ratio":0.5,"none":null,"pair":[1,2.0],"list":[1,2],"dup":1,"dup":2}"#
    );
    assert_eq!(
        Value::obj([("a", 1u64)]).to_string_pretty(),
        "{\n  \"a\": 1\n}"
    );
    assert_eq!(obj! {}.to_string_pretty(), "{}");
}
