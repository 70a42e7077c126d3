//! The JSON text layer: the shortest-digit float writer against the
//! `core::fmt` writer it replaced, the writer's power-of-five table
//! rebuilt by exact big-integer arithmetic, and the parser under
//! arbitrary input (it must return `Ok` or a typed error, never panic or
//! overflow its stack).

use aerothermo_numerics::json::{self, push_f64, write_f64, Value, MAX_DEPTH};
use aerothermo_numerics::shortest::{POW5_INV_SPLIT, POW5_SPLIT};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The two-`format!` writer `push_f64` replaced, kept verbatim as the
/// byte-for-byte oracle.
fn write_f64_oracle(v: f64) -> String {
    if v.is_finite() {
        let plain = format!("{v}");
        let exp = format!("{v:e}");
        if exp.len() < plain.len() {
            exp
        } else {
            plain
        }
    } else {
        "null".to_string()
    }
}

/// `push_f64` (appending to existing text) and `write_f64` print the
/// oracle's bytes, and those bytes parse back to the same bits.
fn check(v: f64) {
    let want = write_f64_oracle(v);
    let mut out = String::from("[");
    push_f64(&mut out, v);
    assert_eq!(&out[1..], want, "bits {:#018x}", v.to_bits());
    assert_eq!(write_f64(v), want);
    match json::parse(&want) {
        Ok(Value::Number(x)) => assert_eq!(x.to_bits(), v.to_bits(), "{want} round trip"),
        Ok(Value::Null) => assert!(!v.is_finite()),
        other => panic!("{want} parsed as {other:?}"),
    }
}

fn check_with_neighbours(v: f64) {
    for x in [v, v.next_up(), v.next_down()] {
        check(x);
        check(-x);
    }
}

/// SplitMix64, for reproducible bit patterns without a dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn float_writer_matches_oracle_on_edge_values() {
    for v in [
        0.0,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        1.5e-12,
        0.1,
        0.25,
        123_456.789,
    ] {
        check_with_neighbours(v);
    }
    for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        check(v);
    }
    // Every power of ten (correctly rounded by the parser) and of two,
    // subnormals included, with their neighbours.
    for k in -323..=308 {
        check_with_neighbours(format!("1e{k}").parse().unwrap());
    }
    for k in -330..=310 {
        check(10f64.powi(k));
        check(-1.234_567_890_123_456_7 * 10f64.powi(k));
    }
    for k in -1074i32..=1023 {
        let bits = if k >= -1022 {
            ((k + 1023) as u64) << 52
        } else {
            1 << (k + 1074)
        };
        check_with_neighbours(f64::from_bits(bits));
    }
    // Integers around 2^53, where the spacing goes from 1 to 2.
    for k in -10_000i64..=10_000 {
        check(((1i64 << 53) + k) as f64);
        check(-(((1i64 << 53) + 2 * k) as f64));
    }
    for i in -100_000i64..=100_000 {
        check(i as f64);
    }
    for k in 0..64 {
        check((1u64 << k) as f64);
        check(((1u64 << k) - 1) as f64);
    }
}

#[test]
fn float_writer_rounds_exact_ties_up_like_core_fmt() {
    // 2^52 + k over 2^s has s fractional bits, so its exact decimal ends
    // in 5 and the two shortest candidates can be equally close: `1.25`
    // written with one decimal place is a tie between `1.2` and `1.3`.
    for s in 1..=4 {
        for k in 0..20_000u64 {
            let v = ((1u64 << 52) + k) as f64 / f64::from(1 << s);
            check(v);
            if s == 2 && k % 4 == 1 {
                assert!(write_f64(v).ends_with(".3"), "{v}: x.25 ties round up");
            }
        }
    }
}

#[test]
fn float_writer_matches_oracle_on_a_million_random_bit_patterns() {
    let mut rng = SplitMix(0x5eed_f10a_7000_0001);
    for _ in 0..1_000_000 {
        check(f64::from_bits(rng.next()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    #[test]
    fn float_writer_matches_oracle_on_decimal_scales(m in -1.0e6..1.0e6, e in -330i32..310) {
        check(m * 10f64.powi(e));
        check((m as i64) as f64 * 10f64.powi(e));
    }
}

/// Little-endian base-2^32 digits of a non-negative integer.
type Big = Vec<u32>;

fn big_mul_small(x: &mut Big, m: u32) {
    let mut carry = 0u64;
    for limb in x.iter_mut() {
        let t = u64::from(*limb) * u64::from(m) + carry;
        *limb = t as u32;
        carry = t >> 32;
    }
    if carry > 0 {
        x.push(carry as u32);
    }
}

fn big_div_small(x: &mut Big, d: u32) {
    let mut rem = 0u64;
    for limb in x.iter_mut().rev() {
        let t = (rem << 32) | u64::from(*limb);
        *limb = (t / u64::from(d)) as u32;
        rem = t % u64::from(d);
    }
    while x.last() == Some(&0) {
        x.pop();
    }
}

fn big_bit_len(x: &Big) -> i32 {
    x.last()
        .map_or(0, |top| 32 * x.len() as i32 - top.leading_zeros() as i32)
}

fn big_pow2(j: i32) -> Big {
    let mut x = vec![0; j as usize / 32 + 1];
    x[j as usize / 32] = 1 << (j % 32);
    x
}

/// `x >> s`, which must fit in 128 bits.
fn big_shr_to_u128(x: &Big, s: i32) -> u128 {
    let mut out = 0u128;
    for bit in s..big_bit_len(x) {
        let (limb, off) = (bit as usize / 32, bit % 32);
        if x[limb] >> off & 1 == 1 {
            assert!(bit - s < 128, "shifted value wider than 128 bits");
            out |= 1 << (bit - s);
        }
    }
    out
}

#[test]
fn power_of_five_tables_match_exact_big_integer_arithmetic() {
    let pow5 = |i: usize| {
        let mut p: Big = vec![1];
        for _ in 0..i {
            big_mul_small(&mut p, 5);
        }
        p
    };
    for (i, &entry) in POW5_SPLIT.iter().enumerate() {
        // The top 125 bits of 5^i.
        let p = pow5(i);
        let s = big_bit_len(&p) - 125;
        let want = if s >= 0 {
            big_shr_to_u128(&p, s)
        } else {
            big_shr_to_u128(&p, 0) << -s
        };
        assert_eq!(entry, want, "POW5_SPLIT[{i}]");
    }
    for (q, &entry) in POW5_INV_SPLIT.iter().enumerate() {
        // floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1, dividing by 5 one
        // factor at a time (floor(floor(x / a) / b) = floor(x / ab)).
        let mut x = big_pow2(big_bit_len(&pow5(q)) - 1 + 125);
        for _ in 0..q {
            big_div_small(&mut x, 5);
        }
        assert_eq!(entry, big_shr_to_u128(&x, 0) + 1, "POW5_INV_SPLIT[{q}]");
    }
}

#[test]
fn nesting_deeper_than_the_cap_is_a_parse_error() {
    let nested = |open: &str, close: &str, depth: usize| open.repeat(depth) + &close.repeat(depth);
    assert!(json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
    let objects = |depth: usize| r#"{"a": "#.repeat(depth) + "1" + &"}".repeat(depth);
    assert!(json::parse(&objects(MAX_DEPTH)).is_ok());
    assert!(json::parse(&objects(MAX_DEPTH + 1)).is_err());
    let err = json::parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
    assert_eq!(err.offset, MAX_DEPTH);
    assert!(err.message.contains("nesting"), "{}", err.message);
    // Far past the cap: an error, not a stack overflow.
    assert!(json::parse(&"[".repeat(100_000)).is_err());
    assert!(json::parse(&r#"{"k": "#.repeat(100_000)).is_err());
    let doc = format!(r#"{{"x": {}}}"#, nested("[", "]", MAX_DEPTH - 1));
    assert!(json::parse(&doc).is_ok());
    assert!(json::parse(&format!("[{doc}]")).is_err());
}

/// Pieces of JSON and near-JSON, glued at random into token soups.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\n",
    "\"",
    "\"a\"",
    "\"op\"",
    "\"é😀\"",
    "\"\\u00e9\"",
    "\"\\ud83d\\ude00\"",
    "\"\\ud800\"",
    "\"\\ud800\\u0041\"",
    "\"\\u12",
    "\\",
    "\"\\q\"",
    "0",
    "-",
    "1",
    "-0.5e3",
    "1e400",
    "1e",
    ".",
    "e+",
    "01",
    "true",
    "tru",
    "null",
    "nul",
    "false",
    "\u{7}",
    "\u{0}",
    "NaN",
    "[[[[",
    "]]]]",
    "{\"a\":",
    "é",
    "😀",
];

fn token_soup(rng: &mut SplitMix) -> String {
    let n = rng.next() % 48;
    (0..n)
        .map(|_| TOKENS[(rng.next() % TOKENS.len() as u64) as usize])
        .collect()
}

fn arbitrary_text(rng: &mut SplitMix) -> String {
    let n = rng.next() % 64;
    (0..n)
        .map(|_| {
            let r = rng.next();
            match r % 4 {
                0 => {
                    let alphabet = b"{}[],:\"\\-.e0123456789 tfnlrsu";
                    char::from(alphabet[(r >> 8) as usize % alphabet.len()])
                }
                1 => char::from((r >> 8) as u8 & 0x7f),
                _ => char::from_u32((r >> 8) as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
            }
        })
        .collect()
}

/// `parse` returns (a panic fails the test), and an error's offset lies
/// inside the input.
fn parse_is_total(doc: &str) -> Result<(), TestCaseError> {
    if let Err(e) = json::parse(doc) {
        prop_assert!(e.offset <= doc.len(), "offset {} past {doc:?}", e.offset);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    #[test]
    fn parser_survives_arbitrary_text(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix(seed);
        parse_is_total(&arbitrary_text(&mut rng))?;
    }

    #[test]
    fn parser_survives_json_token_soup(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix(seed);
        let soup = token_soup(&mut rng);
        parse_is_total(&soup)?;
        // The same soup wrapped in an otherwise valid request.
        parse_is_total(&format!(r#"{{"op": "query", "altitude": {soup}}}"#))?;
    }
}
