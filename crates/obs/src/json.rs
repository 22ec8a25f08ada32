//! A minimal JSON value type, parser and writer — the workspace's stand-in
//! for `serde_json`.
//!
//! Scope is deliberately small: everything the workspace serializes
//! (complexes, subdivisions, tasks, trace events, bench reports) is built
//! from objects, arrays, strings, numbers and booleans. Numbers are stored
//! as `f64`; integers round-trip exactly up to 2^53, far beyond anything a
//! simplicial complex produces. Parsing is recursive-descent with a depth
//! limit; writing offers compact and pretty forms.
//!
//! Text that is already compact JSON can travel without a tree: the
//! parser's skip mode ([`validate`], [`layout`]) checks a document and
//! cuts it into byte spans, and [`ObjectWriter`] splices such text into a
//! new object — how stored records reach the socket unchanged.
//!
//! Conversions go through [`ToJson`] / [`FromJson`], the local analogue of
//! `Serialize` / `Deserialize`. `FromJson` impls are expected to
//! re-validate: a `Complex` parsed from JSON goes back through the same
//! invariant checks as one built programmatically.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::ops::Range;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

/// A parse or conversion error, with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// An error carrying `msg`.
    pub fn new(msg: impl Into<String>) -> JsonError {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Converts a value to its JSON representation.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Reconstructs (and re-validates) a value from its JSON representation.
pub trait FromJson: Sized {
    /// Parses `v` back into `Self`, re-checking invariants.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Parses a JSON document from `text`.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::<true>::new(text);
        p.skip_ws();
        let v = p.value(0)?;
        p.finish()?;
        Ok(v)
    }

    /// Parses and converts in one step.
    pub fn parse_as<T: FromJson>(text: &str) -> Result<T, JsonError> {
        T::from_json(&Json::parse(text)?)
    }

    /// Indented multi-line rendering (two-space indent).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Member `key` of an object (`None` for other variants or absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member `key`, or an error naming the missing field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as a signed integer, if exact.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// An object built from `(key, value)` pairs.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Compact single-line rendering (`to_string` gives the canonical wire form).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..depth * step {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-surprising degradation.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        write_int(out, n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Decimal digits of `v` from a stack buffer — the bytes `format!("{v}")`
/// gives, without a heap string per number.
fn write_int(out: &mut String, v: i64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut m = v.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// Quotes `s`, pushing each run that needs no escape as one slice (a
/// string with nothing to escape is pushed whole).
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A compact JSON object written member by member, where a member's value
/// may be text that is *already* compact JSON. This is the splicing writer
/// behind replies that carry a stored record verbatim: the output is
/// byte-identical to building the `Json::obj` and calling `to_string`,
/// provided every spliced text is itself the compact rendering of its
/// value (as every `to_string` output is).
///
/// # Examples
///
/// ```
/// use iis_obs::json::{Json, ObjectWriter};
/// let record = Json::parse(r#"{"ok":true}"#).unwrap();
/// let spliced = ObjectWriter::new()
///     .field("cached", &Json::Bool(true))
///     .raw("result", &record.to_string())
///     .finish();
/// let rendered = Json::obj([("cached", Json::Bool(true)), ("result", record)]).to_string();
/// assert_eq!(spliced, rendered);
/// ```
#[derive(Debug)]
pub struct ObjectWriter {
    out: String,
}

impl Default for ObjectWriter {
    fn default() -> Self {
        ObjectWriter::new()
    }
}

impl ObjectWriter {
    /// An empty object.
    pub fn new() -> ObjectWriter {
        ObjectWriter::with_capacity(0)
    }

    /// An empty object whose buffer holds `bytes` without reallocating.
    pub fn with_capacity(bytes: usize) -> ObjectWriter {
        let mut out = String::with_capacity(bytes + 2);
        out.push('{');
        ObjectWriter { out }
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        write_string(&mut self.out, key);
        self.out.push(':');
    }

    /// Appends member `key` with `value` rendered compactly.
    #[must_use]
    pub fn field(mut self, key: &str, value: &Json) -> ObjectWriter {
        self.key(key);
        value.write(&mut self.out, None, 0);
        self
    }

    /// Appends member `key` whose value is `json`, copied verbatim. The
    /// caller vouches that `json` is one compact JSON value.
    #[must_use]
    pub fn raw(mut self, key: &str, json: &str) -> ObjectWriter {
        self.key(key);
        self.out.push_str(json);
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// The top level of a valid document, as byte spans into its text: what a
/// relay needs to cut a document into pieces without building a tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Layout {
    /// An object: each member's decoded key and the span of its value, in
    /// document order (duplicates kept).
    Object(Vec<(String, Range<usize>)>),
    /// An array: the span of each item.
    Array(Vec<Range<usize>>),
    /// A string, number, literal or `null`.
    Scalar,
}

/// Checks that `text` is a document [`Json::parse`] accepts — the same
/// grammar, depth limit and error messages — without building a tree.
///
/// # Errors
///
/// The error `Json::parse` would return.
pub fn validate(text: &str) -> Result<(), JsonError> {
    let mut p = Parser::<false>::new(text);
    p.skip_ws();
    p.value(0)?;
    p.finish()
}

/// Validates `text` exactly as [`validate`] does and returns its top-level
/// [`Layout`]: member or item spans, so `&text[span]` is each child's text.
///
/// # Errors
///
/// The error `Json::parse` would return.
///
/// # Examples
///
/// ```
/// use iis_obs::json::{layout, Layout};
/// let text = r#"{"a": [1, 2], "b": "x"}"#;
/// let Layout::Object(members) = layout(text).unwrap() else { panic!() };
/// assert_eq!(members[0].0, "a");
/// assert_eq!(&text[members[0].1.clone()], "[1, 2]");
/// assert!(layout("[1,").is_err());
/// ```
pub fn layout(text: &str) -> Result<Layout, JsonError> {
    let mut p = Parser::<false>::new(text);
    p.skip_ws();
    let layout = match p.peek() {
        Some(b'{') => {
            let mut members = Vec::new();
            p.object(0, Some(&mut members))?;
            Layout::Object(members)
        }
        Some(b'[') => {
            let mut items = Vec::new();
            p.array(0, Some(&mut items))?;
            Layout::Array(items)
        }
        _ => {
            p.value(0)?;
            Layout::Scalar
        }
    };
    p.finish()?;
    Ok(layout)
}

/// Integers with at most this many digits (and no fraction or exponent)
/// are accumulated exactly in a `u64`: every such value is below 2^53, so
/// the `f64` equals what `str::parse::<f64>` returns.
const FAST_INT_DIGITS: usize = 15;

/// The one JSON grammar. With `BUILD` it produces a [`Json`] tree; without
/// it, it only validates (returning `Json::Null` placeholders, allocating
/// nothing) — the skip mode behind [`validate`] and [`layout`].
struct Parser<'a, const BUILD: bool> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a, const BUILD: bool> Parser<'a, BUILD> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    /// Accepts only trailing whitespace after the document.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') if BUILD => {
                let mut s = String::new();
                self.string(Some(&mut s))?;
                Ok(Json::Str(s))
            }
            Some(b'"') => self.string(None).map(|()| Json::Null),
            Some(b'[') => self.array(depth, None),
            Some(b'{') => self.object(depth, None),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// An array; `spans` (top level only) collects each item's span.
    fn array(
        &mut self,
        depth: usize,
        mut spans: Option<&mut Vec<Range<usize>>>,
    ) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let start = self.pos;
            let item = self.value(depth + 1)?;
            if BUILD {
                items.push(item);
            }
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(start..self.pos);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// An object; `spans` (top level only) collects each member's key and
    /// value span.
    fn object(
        &mut self,
        depth: usize,
        mut spans: Option<&mut Vec<(String, Range<usize>)>>,
    ) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let mut key = String::new();
            let keep_key = BUILD || spans.is_some();
            self.string(keep_key.then_some(&mut key))?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let start = self.pos;
            let value = self.value(depth + 1)?;
            match spans.as_deref_mut() {
                Some(spans) => spans.push((key, start..self.pos)),
                None if BUILD => members.push((key, value)),
                None => {}
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// A string, decoded into `out` when given. Runs without escapes are
    /// copied as one slice of the (valid UTF-8) source.
    fn string(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        self.expect(b'"')?;
        loop {
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[run..self.pos]);
            }
            let escaped = match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            if let Some(out) = out.as_deref_mut() {
                                out.push(c);
                            }
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            };
            if let Some(out) = out.as_deref_mut() {
                out.push(escaped);
            }
            self.pos += 1;
        }
    }

    /// The scalar of a `\u` escape whose `\u` has been consumed, joining a
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect \uXXXX low half.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                char::from_u32(cp)
            } else {
                None
            }
        } else {
            char::from_u32(hi)
        };
        c.ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let digits = self.pos - int_start;
        if digits == 0 {
            return Err(self.err("expected digits"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        if !BUILD {
            return Ok(Json::Null);
        }
        if integral && digits <= FAST_INT_DIGITS {
            let magnitude = self.bytes[int_start..self.pos]
                .iter()
                .fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0'));
            // exact below 2^53; `-0` stays negative zero, as parse gives
            let n = magnitude as f64;
            return Ok(Json::Num(if negative { -n } else { n }));
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

// ---- ToJson / FromJson for primitives and containers --------------------

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| JsonError::new("expected unsigned integer"))?;
                <$t>::try_from(n)
                    .map_err(|_| JsonError::new("integer out of range"))
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for i64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_i64()
            .ok_or_else(|| JsonError::new("expected signed integer"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new("expected number"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::new("expected boolean")),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_array()
            .ok_or_else(|| JsonError::new("expected pair"))?;
        if items.len() != 2 {
            return Err(JsonError::new("expected 2-element array"));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::new("expected object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic_document() {
        let src = r#"{"name":"kset","input":[[0,1],[2,3]],"ok":true,"n":null,"x":-1.5}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.field("name").unwrap().as_str(), Some("kset"));
        assert_eq!(v.get("missing"), None);
        let reparsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
        let reparsed_pretty = Json::parse(&v.to_string_pretty()).unwrap();
        assert_eq!(v, reparsed_pretty);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::Str("line\n\"quoted\"\t\\ \u{1F980} \u{7}".to_string());
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // And escapes produced by other writers parse too.
        let parsed = Json::parse(r#""A🦀\/""#).unwrap();
        assert_eq!(parsed.as_str(), Some("A\u{1F980}/"));
    }

    #[test]
    fn integers_write_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
    }

    /// Documents every parser must refuse.
    const MALFORMED: [&str; 10] = [
        "",
        "{",
        "[1,",
        "{\"a\":}",
        "[1 2]",
        "tru",
        "01x",
        "\"abc",
        "{\"a\":1,}",
        "1 2",
    ];

    #[test]
    fn rejects_malformed_documents() {
        for bad in MALFORMED {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn signed_integer_conversions() {
        assert_eq!(Json::Num(-42.0).as_i64(), Some(-42));
        assert_eq!(Json::Num(1.5).as_i64(), None);
        assert_eq!(i64::from_json(&Json::Num(-9.0)).unwrap(), -9);
        assert!(i64::from_json(&Json::Str("x".to_string())).is_err());
        assert_eq!((-3i64).to_json().to_string(), "-3");
    }

    #[test]
    fn primitive_conversions() {
        assert_eq!(u32::from_json(&Json::Num(7.0)).unwrap(), 7);
        assert!(u8::from_json(&Json::Num(300.0)).is_err());
        assert!(u32::from_json(&Json::Num(-1.0)).is_err());
        assert!(u32::from_json(&Json::Num(1.5)).is_err());
        let v: Vec<(u32, u32)> =
            FromJson::from_json(&Json::parse("[[1,2],[3,4]]").unwrap()).unwrap();
        assert_eq!(v, vec![(1, 2), (3, 4)]);
        assert_eq!(v.to_json().to_string(), "[[1,2],[3,4]]");
    }

    /// The writer before its fast paths, kept as the byte-level oracle.
    fn reference_number(n: f64) -> String {
        if !n.is_finite() {
            "null".to_string()
        } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    fn reference_string(s: &str) -> String {
        let mut out = String::from("\"");
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

    /// A numeric literal of every shape the grammar allows.
    fn random_number_text(rng: &mut crate::Rng) -> String {
        let digits = rng.random_range(1usize..21);
        let mut text = String::new();
        if rng.random_bool(0.4) {
            text.push('-');
        }
        for _ in 0..digits {
            text.push(char::from(b'0' + rng.random_range(0u8..10)));
        }
        if rng.random_bool(0.2) {
            text.push('.');
            for _ in 0..rng.random_range(1usize..6) {
                text.push(char::from(b'0' + rng.random_range(0u8..10)));
            }
        }
        if rng.random_bool(0.15) {
            text.push(*rng.choose(&['e', 'E']).unwrap());
            if rng.random_bool(0.5) {
                text.push(*rng.choose(&['+', '-']).unwrap());
            }
            text.push_str(&rng.random_range(0u32..40).to_string());
        }
        text
    }

    #[test]
    fn integer_fast_path_equals_str_parse() {
        let mut texts: Vec<String> = [
            "0",
            "-0",
            "7",
            "-7",
            "000123",
            "-000",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9999999999999999",
            "12345678901234567",
            "18446744073709551615",
            "18446744073709551616",
            "-99999999999999999999",
            "9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "-9007199254740993",
            "1.5",
            "-0.0",
            "1e3",
            "-2E-2",
            "123456789012345.5",
        ]
        .iter()
        .map(|t| t.to_string())
        .collect();
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0001);
        texts.extend((0..20_000).map(|_| random_number_text(&mut rng)));
        for text in &texts {
            let expected = text.parse::<f64>().unwrap();
            match Json::parse(text) {
                Ok(Json::Num(got)) => assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{text}: {got} vs {expected}"
                ),
                other => panic!("{text}: {other:?}"),
            }
        }
    }

    #[test]
    fn writer_is_byte_identical_to_the_format_path() {
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0002);
        let mut numbers = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            9_007_199_254_740_992.0,
            -9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            1e300,
            0.1,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            i64::MAX as f64,
        ];
        for _ in 0..20_000 {
            numbers.push(random_number_text(&mut rng).parse().unwrap());
            numbers.push(f64::from_bits(rng.next_u64()));
            numbers.push(rng.next_u64() as i64 as f64 / 1024.0);
        }
        for n in numbers {
            assert_eq!(Json::Num(n).to_string(), reference_number(n), "{n:?}");
        }
        let alphabet: Vec<char> = "ab\"\\/\n\r\t\u{0}\u{1f}\u{7f} é🦀\u{8}\u{c}"
            .chars()
            .collect();
        for _ in 0..5_000 {
            let len = rng.random_range(0usize..12);
            let s: String = (0..len).map(|_| *rng.choose(&alphabet).unwrap()).collect();
            let written = Json::Str(s.clone()).to_string();
            assert_eq!(written, reference_string(&s), "{s:?}");
            assert_eq!(Json::parse(&written).unwrap(), Json::Str(s));
        }
    }

    /// A random document, rendered compactly or pretty.
    fn random_value(rng: &mut crate::Rng, depth: usize) -> Json {
        match rng.random_range(0u32..if depth > 3 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.random_bool(0.5)),
            2 => Json::Num(random_number_text(rng).parse().unwrap()),
            3 => Json::Str(
                (0..rng.random_range(0usize..5))
                    .map(|_| *rng.choose(&['a', '"', '\\', '\n', 'é', '\u{1}']).unwrap())
                    .collect(),
            ),
            4 => Json::Arr(
                (0..rng.random_range(0usize..4))
                    .map(|_| random_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.random_range(0usize..4))
                    .map(|i| (format!("k{i}"), random_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// `text` with one random edit: a cut, a dropped byte, or an inserted
    /// JSON-ish byte.
    fn mutate(rng: &mut crate::Rng, text: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.random_range(0usize..bytes.len() + 1);
        match rng.random_range(0u32..3) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, *rng.choose(b"{}[]:,\"\\ -.e0u1tfn").unwrap()),
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn span_scanner_accepts_exactly_what_parse_accepts() {
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0003);
        let mut docs: Vec<String> = MALFORMED.iter().map(|d| d.to_string()).collect();
        docs.push("[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2));
        docs.push("[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1));
        docs.push(r#""\ud800""#.to_string());
        docs.push(r#""\ud800\u0041""#.to_string());
        docs.push(r#""\udc00""#.to_string());
        docs.push(r#" {"a" : [1, {"b": "\u00e9\ud83e\udd80"}] , "c":-0.5e+3 } "#.to_string());
        for _ in 0..3_000 {
            let v = random_value(&mut rng, 0);
            let text = if rng.random_bool(0.5) {
                v.to_string()
            } else {
                v.to_string_pretty()
            };
            docs.push(mutate(&mut rng, &text));
            docs.push(text);
        }
        for doc in &docs {
            let parsed = Json::parse(doc);
            assert_eq!(
                validate(doc).err(),
                parsed.clone().err(),
                "validate disagrees on {doc:?}"
            );
            let Ok(value) = parsed else {
                assert!(layout(doc).is_err(), "layout accepted {doc:?}");
                continue;
            };
            // every span is exactly the text of the child it names
            match (layout(doc).unwrap(), &value) {
                (Layout::Object(spans), Json::Obj(members)) => {
                    assert_eq!(spans.len(), members.len(), "{doc:?}");
                    for ((key, span), (k, v)) in spans.iter().zip(members) {
                        assert_eq!(key, k, "{doc:?}");
                        assert_eq!(&Json::parse(&doc[span.clone()]).unwrap(), v, "{doc:?}");
                    }
                }
                (Layout::Array(spans), Json::Arr(items)) => {
                    assert_eq!(spans.len(), items.len(), "{doc:?}");
                    for (span, v) in spans.iter().zip(items) {
                        assert_eq!(&Json::parse(&doc[span.clone()]).unwrap(), v, "{doc:?}");
                    }
                }
                (Layout::Scalar, v) => {
                    assert!(!matches!(v, Json::Obj(_) | Json::Arr(_)), "{doc:?}");
                }
                (l, v) => panic!("layout {l:?} for {v:?}"),
            }
        }
    }

    #[test]
    fn object_writer_equals_rendering_the_tree() {
        assert_eq!(ObjectWriter::new().finish(), Json::obj([]).to_string());
        let record = Json::parse(r#"{"results":[[0,false],[1,true]],"task":"t\"1"}"#).unwrap();
        let spliced = ObjectWriter::with_capacity(8)
            .field("cached", &Json::Bool(true))
            .field("key", &Json::Str("00ff".into()))
            .raw("result", &record.to_string())
            .finish();
        let rendered = Json::obj([
            ("cached", Json::Bool(true)),
            ("key", Json::Str("00ff".into())),
            ("result", record),
        ])
        .to_string();
        assert_eq!(spliced, rendered);
    }

    #[test]
    fn parse_as_combines_parse_and_convert() {
        let v: Vec<u64> = Json::parse_as("[1,2,3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert!(Json::parse_as::<Vec<u64>>("[1,\"x\"]").is_err());
    }
}
