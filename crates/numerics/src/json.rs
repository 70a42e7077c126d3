//! Minimal recursive-descent JSON parser and writer primitives.
//!
//! The workspace emits all of its machine-readable artifacts (run reports,
//! perf snapshots, sweep result streams, Chrome traces) with hand-rolled
//! writers; this is the matching reader, used by the perf-snapshot
//! comparator, the sweep resume path, and the report regression tests. It
//! supports the full JSON grammar the writers produce — objects, arrays,
//! strings with escapes, numbers, booleans, `null` — and nothing more
//! exotic (no comments, no trailing commas, no NaN literals; non-finite
//! floats are written as `null`).
//!
//! The writer side is deliberately tiny: [`write_string`] and [`write_f64`]
//! are the two primitives every hand-rolled emitter in the workspace needs
//! to agree on (escaping, and the NaN/Inf → `null` convention the parser
//! round-trips).

use std::collections::BTreeMap;
use std::fmt;

/// Serialize a string as a JSON string literal with minimal escaping
/// (quotes, backslashes, and control characters).
#[must_use]
pub fn write_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serialize a float: finite values as shortest-roundtrip decimals,
/// NaN/Inf (illegal in JSON) as `null` — the convention [`parse`] maps
/// back to [`Value::Null`]. Allocates; hot emitters use [`push_f64`].
#[must_use]
pub fn write_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// Append [`write_f64`]'s bytes for `v` to `out` without a heap
/// allocation.
///
/// `{v}` always prints positionally ("0.0000000000015"); the exponent
/// form wins whenever it is strictly shorter. Both forms carry the same
/// shortest-roundtrip digits, so the float is formatted once (`{v:e}`,
/// into a stack buffer) and the positional form, when it is the shorter
/// one, is laid out from those digits.
pub fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let mut buf = StackBuf::default();
    fmt::write(&mut buf, format_args!("{v:e}")).expect("a float's exponent form fits 32 bytes");
    let exp_form = buf.as_str();
    let (mantissa, exp) = exp_form.split_once('e').expect("`{:e}` prints an 'e'");
    let exp: i32 = exp.parse().expect("`{:e}` prints an integer exponent");
    let (sign, mantissa) = match mantissa.strip_prefix('-') {
        Some(m) => ("-", m),
        None => ("", mantissa),
    };
    // Digits d1 d2 … dn with value d1.d2…dn × 10^exp.
    let (lead, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let n = 1 + frac.len() as i32;
    let plain_len = sign.len() as i32
        + if exp >= n - 1 {
            exp + 1
        } else if exp < 0 {
            1 - exp + n
        } else {
            n + 1
        };
    if (exp_form.len() as i32) < plain_len {
        out.push_str(exp_form);
        return;
    }
    out.push_str(sign);
    if exp >= n - 1 {
        out.push_str(lead);
        out.push_str(frac);
        push_zeros(out, exp - (n - 1));
    } else if exp < 0 {
        out.push_str("0.");
        push_zeros(out, -exp - 1);
        out.push_str(lead);
        out.push_str(frac);
    } else {
        let split = exp as usize;
        out.push_str(lead);
        out.push_str(&frac[..split]);
        out.push('.');
        out.push_str(&frac[split..]);
    }
}

fn push_zeros(out: &mut String, n: i32) {
    for _ in 0..n {
        out.push('0');
    }
}

/// A fixed stack buffer for one `{:e}`-formatted float (at most 24
/// bytes: sign, 17 digits, point, `e-324`).
#[derive(Default)]
struct StackBuf {
    bytes: [u8; 32],
    len: usize,
}

impl StackBuf {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("fmt writes UTF-8")
    }
}

impl fmt::Write for StackBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.bytes
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also how the writers encode NaN/Inf).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like JavaScript).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is not preserved (sorted map).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` on anything else or missing key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number as `f64` if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string slice if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The member map if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True when this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// A parse failure with its byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
/// Returns a [`ParseError`] with a byte offset on any grammar violation.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // byte in one go. Those are all ASCII, so the run ends
                    // on a UTF-8 boundary of the `&str` input.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("bad hex in \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn assert_matches_oracle(v: f64) {
        let mut out = String::from("[");
        push_f64(&mut out, v);
        assert_eq!(&out[1..], write_f64_oracle(v), "bits {:#018x}", v.to_bits());
        assert_eq!(write_f64(v), write_f64_oracle(v));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        #[test]
        fn push_f64_matches_oracle_on_random_bits(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            let mut out = String::new();
            push_f64(&mut out, v);
            prop_assert_eq!(out, write_f64_oracle(v));
        }

        #[test]
        fn push_f64_matches_oracle_on_decimal_scales(m in -1.0e6..1.0e6, e in -330i32..310) {
            assert_matches_oracle(m * 10f64.powi(e));
            assert_matches_oracle((m as i64) as f64 * 10f64.powi(e));
        }
    }

    #[test]
    fn push_f64_matches_oracle_on_edge_values() {
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5e-12,
            0.1,
            0.25,
            123_456.789,
            9_007_199_254_740_993.0,
        ];
        for v in edges {
            assert_matches_oracle(v);
        }
        for k in -330..=310 {
            assert_matches_oracle(10f64.powi(k));
            assert_matches_oracle(-1.234_567_890_123_456_7 * 10f64.powi(k));
        }
        for i in -100_000i64..=100_000 {
            assert_matches_oracle(i as f64);
        }
        for k in 0..64 {
            assert_matches_oracle((1u64 << k) as f64);
            assert_matches_oracle(((1u64 << k) - 1) as f64);
        }
    }

    #[test]
    fn escapes_next_to_multibyte_runs() {
        let doc = r#""é\"😀\n\u00e9x\\Ω""#;
        assert_eq!(parse(doc).unwrap().as_str(), Some("é\"😀\néx\\Ω"));
        let doc = r#"{"ключ\t": "\u0041ß\ud83d\ude00末"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("ключ\t").unwrap().as_str(), Some("Aß😀末"));
        let s = "ü\"\\\n\u{1}€😀";
        assert_eq!(parse(&write_string(s)).unwrap().as_str(), Some(s));
    }

    #[test]
    fn raw_control_character_rejected_at_its_offset() {
        // The offset is that of the control byte itself, after a
        // multi-byte run and an escape.
        let doc = "[\"é\\n€\u{7}x\"]";
        let err = parse(doc).unwrap_err();
        assert_eq!(err.offset, doc.find('\u{7}').unwrap());
        assert_eq!(err.offset, 9);
        assert_eq!(err.message, "raw control character in string");
        let err = parse("\"ab\ncd\"").unwrap_err();
        assert_eq!(err.offset, 3);
    }

    #[test]
    fn scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5e3, null, true, "x\ny"], "b": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert!(a[2].is_null());
        assert_eq!(a[3], Value::Bool(true));
        assert_eq!(a[4].as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().as_object().unwrap().len(), 0);
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("nul").is_err());
        let err = parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn writer_primitives_roundtrip_through_parse() {
        let s = write_string("a \"quoted\"\nline\t\u{1}");
        let v = parse(&s).unwrap();
        assert_eq!(v.as_str(), Some("a \"quoted\"\nline\t\u{1}"));
        assert_eq!(write_f64(1.5e-12), "1.5e-12");
        assert_eq!(write_f64(f64::NAN), "null");
        assert_eq!(write_f64(f64::INFINITY), "null");
        let doc = format!("[{}, {}]", write_f64(0.25), write_f64(f64::NAN));
        let arr = parse(&doc).unwrap();
        assert_eq!(arr.as_array().unwrap()[0].as_f64(), Some(0.25));
        assert!(arr.as_array().unwrap()[1].is_null());
    }

    #[test]
    fn roundtrips_report_style_output() {
        let doc = "{\n  \"x\": 1e-12,\n  \"y\": [1, 0.5, null],\n  \"s\": \"q\\\"n\\\"\"\n}\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1e-12));
        assert!(v.get("y").unwrap().as_array().unwrap()[2].is_null());
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"n\""));
    }
}
