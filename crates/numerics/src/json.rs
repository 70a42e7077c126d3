//! Minimal recursive-descent JSON parser and the one JSON writer.
//!
//! Every artifact the workspace emits (reports, snapshots, stores, events,
//! plans, black boxes, traces, daemon responses and client requests) is
//! written here and read back by [`parse`], which takes exactly the grammar
//! the writer produces (no comments, no trailing commas, no NaN literals).
//! The writer appends to a `&mut String`: [`push_object`] opens an
//! [`Object`], which with its nested [`Array`]s owns the separators and
//! the [`Layout`], and each value prints through [`Put`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Serialize a string as a JSON string literal with minimal escaping
/// (quotes, backslashes, and control characters). Allocates; emitters
/// use [`push_string`].
#[must_use]
pub fn write_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Append [`write_string`]'s bytes for `s` to `out` without a heap
/// allocation.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
/// The digits are the shortest round-trip ones of [`crate::shortest`],
/// the same digits `core::fmt` prints. They are laid out in exponent form
/// (`1.5e-12`, what `{v:e}` prints) when that is strictly shorter than
/// the positional form (`0.0000000000015`, what `{v}` prints), and
/// positionally otherwise.
pub fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let (digits, exp10) = crate::shortest::shortest(v);
    let n = decimal_len(digits);
    // v = ±d1.d2…dn × 10^exp.
    let exp = exp10 + n as i32 - 1;
    let exp_abs = exp.unsigned_abs();
    let exp_digits = 1 + usize::from(exp_abs >= 10) + usize::from(exp_abs >= 100);
    let sign = usize::from(v.is_sign_negative());
    let exp_len = sign + n + usize::from(n > 1) + 1 + usize::from(exp < 0) + exp_digits;
    let plain_len = sign
        + if exp >= n as i32 - 1 {
            exp as usize + 1
        } else if exp < 0 {
            1 + exp_abs as usize + n
        } else {
            n + 1
        };

    // Either form is at most 24 bytes (sign, 17 digits, point, `e-324`),
    // the positional one being taken only when it is no longer. The
    // buffer starts as zeros, which are the positional form's padding.
    let mut buf = [b'0'; 32];
    if sign == 1 {
        buf[0] = b'-';
    }
    let len = if exp_len < plain_len {
        // d1 d2…dn written one place right, then d1 moved before the point.
        write_digits(digits, &mut buf, sign + 1 + n);
        buf[sign] = buf[sign + 1];
        let mut at = sign + 1;
        if n > 1 {
            buf[at] = b'.';
            at += n;
        }
        buf[at] = b'e';
        at += 1;
        if exp < 0 {
            buf[at] = b'-';
            at += 1;
        }
        write_digits(u64::from(exp_abs), &mut buf, at + exp_digits);
        at + exp_digits
    } else if exp >= n as i32 - 1 {
        // d1…dn 0…0
        write_digits(digits, &mut buf, sign + n);
        plain_len
    } else if exp < 0 {
        // 0.0…0 d1…dn
        buf[sign + 1] = b'.';
        write_digits(digits, &mut buf, plain_len);
        plain_len
    } else {
        // d1…d(exp+1) . d(exp+2)…dn
        write_digits(digits, &mut buf, plain_len);
        let point = sign + 1 + exp as usize;
        for k in sign..point {
            buf[k] = buf[k + 1];
        }
        buf[point] = b'.';
        plain_len
    };
    out.push_str(std::str::from_utf8(&buf[..len]).expect("float text is ASCII"));
}

/// `"00"`, `"01"`, …, `"99"` back to back.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0; 200];
    let mut k = 0;
    while k < 100 {
        t[2 * k] = b'0' + (k / 10) as u8;
        t[2 * k + 1] = b'0' + (k % 10) as u8;
        k += 1;
    }
    t
};

/// `POW10[k] = 10^k`.
const POW10: [u64; 20] = {
    let mut t = [1; 20];
    let mut k = 1;
    while k < 20 {
        t[k] = t[k - 1] * 10;
        k += 1;
    }
    t
};

/// The number of decimal digits of `x` (1 for zero): `1233 / 4096`
/// approximates `log10(2)`, so the bit length gives the count to within
/// one, and one comparison settles it.
fn decimal_len(x: u64) -> usize {
    let x = x | 1;
    let guess = (((64 - x.leading_zeros()) * 1233) >> 12) as usize;
    guess + usize::from(x >= POW10[guess])
}

/// Write the decimal digits of `x` so that they end just before
/// `buf[end]`: eight-digit chunks split off by one `u64` division each,
/// then two independent four-digit halves per chunk in `u32`.
fn write_digits(mut x: u64, buf: &mut [u8; 32], end: usize) {
    let mut put_pair = |at: usize, pair: u32| {
        let k = 2 * pair as usize;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[k..k + 2]);
    };
    let mut at = end;
    while x >= 100_000_000 {
        let chunk = (x % 100_000_000) as u32;
        x /= 100_000_000;
        let (hi, lo) = (chunk / 10_000, chunk % 10_000);
        at -= 8;
        put_pair(at, hi / 100);
        put_pair(at + 2, hi % 100);
        put_pair(at + 4, lo / 100);
        put_pair(at + 6, lo % 100);
    }
    let mut x = x as u32;
    while x >= 100 {
        at -= 2;
        put_pair(at, x % 100);
        x /= 100;
    }
    if x >= 10 {
        put_pair(at - 2, x);
    } else {
        buf[at - 1] = b'0' + x as u8;
    }
}

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// All on one line: `{"a": 1, "b": [2, 3]}`.
    Inline,
    /// One member per line, indented two spaces past the opening line.
    Block,
}

/// A value the writer prints: escaped strings, floats (non-finite as
/// `null`), integers, booleans, options, slices, [`Value`]s, [`Raw`] text.
pub trait Put {
    /// Append the JSON text of `self` to `out`.
    fn put(&self, out: &mut String);
}

/// Text that is already JSON, written as is.
pub struct Raw<'a>(pub &'a str);

impl Put for Raw<'_> {
    fn put(&self, out: &mut String) {
        out.push_str(self.0);
    }
}

impl Put for str {
    fn put(&self, out: &mut String) {
        push_string(out, self);
    }
}

impl Put for String {
    fn put(&self, out: &mut String) {
        push_string(out, self);
    }
}

impl Put for f64 {
    fn put(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

/// Types whose `Display` text is their JSON text.
macro_rules! put_display {
    ($($t:ty),*) => {$(
        impl Put for $t {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
put_display!(bool, u32, u64, usize);

impl<T: Put> Put for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("null"),
        }
    }
}

/// An inline array.
impl<T: Put> Put for [T] {
    fn put(&self, out: &mut String) {
        push_array(out, Layout::Inline, 0, |a| {
            for x in self {
                a.put(x);
            }
        });
    }
}

impl<T: Put + ?Sized> Put for &T {
    fn put(&self, out: &mut String) {
        (**self).put(out);
    }
}

/// Inline JSON, objects in key order.
impl Put for Value {
    fn put(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.put(out),
            Value::Number(x) => x.put(out),
            Value::String(s) => s.put(out),
            Value::Array(xs) => xs.as_slice().put(out),
            Value::Object(members) => push_object(out, Layout::Inline, |o| {
                for (k, x) in members {
                    o.put(k, x);
                }
            }),
        }
    }
}

/// The separator and indentation state of one object or array.
struct Container<'a> {
    out: &'a mut String,
    layout: Layout,
    /// Indentation of the line the container opens on.
    indent: usize,
    empty: bool,
}

impl<'a> Container<'a> {
    fn open(out: &'a mut String, layout: Layout, indent: usize, bracket: char) -> Self {
        out.push(bracket);
        Self {
            out,
            layout,
            indent,
            empty: true,
        }
    }

    /// Start the next member: its separator, then in a block its line.
    fn next(&mut self) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        match self.layout {
            Layout::Inline if !self.empty => self.out.push(' '),
            Layout::Inline => {}
            Layout::Block => self.line(self.indent + 2),
        }
        self.empty = false;
        self.out
    }

    fn line(&mut self, indent: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', indent));
    }

    /// Indentation of the line a nested container opens on.
    fn inner_indent(&self) -> usize {
        self.indent + 2 * usize::from(self.layout == Layout::Block)
    }

    fn close(mut self, bracket: char) {
        if self.layout == Layout::Block {
            self.line(self.indent);
        }
        self.out.push(bracket);
    }
}

/// A JSON object being appended to a `String`; see [`push_object`].
pub struct Object<'a>(Container<'a>);

/// A JSON array being appended to a `String`; see [`Object::array`].
pub struct Array<'a>(Container<'a>);

impl Object<'_> {
    /// Start the member `key` and return the text to write its value to.
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        push_string(out, key);
        out.push_str(": ");
        out
    }

    /// Write the member `key: v`.
    pub fn put(&mut self, key: &str, v: impl Put) -> &mut Self {
        v.put(self.key(key));
        self
    }

    /// Write the member `key: v` when `v` is `Some`; omit it otherwise.
    pub fn put_some(&mut self, key: &str, v: Option<impl Put>) -> &mut Self {
        if let Some(v) = v {
            self.put(key, v);
        }
        self
    }

    /// Write one member per `(key, value)` pair.
    pub fn members<'p, K, V>(&mut self, pairs: impl IntoIterator<Item = &'p (K, V)>)
    where
        K: AsRef<str> + 'p,
        V: Put + 'p,
    {
        for (k, v) in pairs {
            self.put(k.as_ref(), v);
        }
    }

    /// Write the member `key: {...}`, its members written by `f`.
    pub fn object(&mut self, key: &str, layout: Layout, f: impl FnOnce(&mut Object)) -> &mut Self {
        let indent = self.0.inner_indent();
        push_object_at(self.key(key), layout, indent, f);
        self
    }

    /// Write the member `key: [...]`, its elements written by `f`.
    pub fn array(&mut self, key: &str, layout: Layout, f: impl FnOnce(&mut Array)) -> &mut Self {
        let indent = self.0.inner_indent();
        push_array(self.key(key), layout, indent, f);
        self
    }
}

impl Array<'_> {
    /// Write the element `v`.
    pub fn put(&mut self, v: impl Put) -> &mut Self {
        v.put(self.0.next());
        self
    }

    /// Write an inline object element, its members written by `f`.
    pub fn object(&mut self, f: impl FnOnce(&mut Object)) -> &mut Self {
        push_object(self.0.next(), Layout::Inline, f);
        self
    }
}

fn push_object_at(out: &mut String, layout: Layout, indent: usize, f: impl FnOnce(&mut Object)) {
    let mut o = Object(Container::open(out, layout, indent, '{'));
    f(&mut o);
    o.0.close('}');
}

fn push_array(out: &mut String, layout: Layout, indent: usize, f: impl FnOnce(&mut Array)) {
    let mut a = Array(Container::open(out, layout, indent, '['));
    f(&mut a);
    a.0.close(']');
}

/// Append an object to `out`, its members written by `f`. A block object
/// opened here starts at indentation zero and ends without a newline.
pub fn push_object(out: &mut String, layout: Layout, f: impl FnOnce(&mut Object)) {
    push_object_at(out, layout, 0, f);
}

/// [`push_object`] into a new `String`.
#[must_use]
pub fn write_object(layout: Layout, f: impl FnOnce(&mut Object)) -> String {
    let mut out = String::new();
    push_object(&mut out, layout, f);
    out
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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap bounds its stack use (a line of 100 000
/// `[` would otherwise overflow a 2 MiB thread stack); every artifact the
/// workspace writes nests a handful of levels.
pub const MAX_DEPTH: usize = 256;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
/// Returns a [`ParseError`] with a byte offset on any grammar violation,
/// and on nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
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
    /// Arrays and objects open around `pos`.
    depth: usize,
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
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than MAX_DEPTH (256) levels"));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
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
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        self.pos -= 6;
                                        return Err(self.err(
                                            "high surrogate not followed by a low surrogate",
                                        ));
                                    }
                                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
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

    #[test]
    fn escapes_next_to_multibyte_runs() {
        let doc = r#""é\"😀\n\u00e9x\\Ω""#;
        assert_eq!(parse(doc).unwrap().as_str(), Some("é\"😀\néx\\Ω"));
        let doc = r#"{"ключ\t": "\u0041ß\ud83d\ude00末"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("ключ\t").unwrap().as_str(), Some("Aß😀末"));
        let s = "ü\"\\\n\u{1}€😀";
        assert_eq!(parse(&write_string(s)).unwrap().as_str(), Some(s));
        // A high surrogate pairs only with a low one; the error points at
        // the second escape.
        for doc in [
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""x\ud83d\uE000""#,
        ] {
            let err = parse(doc).unwrap_err();
            assert!(err.message.contains("low surrogate"), "{doc}");
            assert_eq!(err.offset, doc.len() - 7, "{doc}");
        }
        assert!(parse(r#""\ud83d\udbff""#).is_err());
        assert_eq!(
            parse(r#""\udbff\udfff""#).unwrap().as_str(),
            Some("\u{10ffff}")
        );
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
