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
//! There is one grammar, the pull reader [`Reader`]: [`Json::parse`] builds
//! a tree with it, and a decoder that needs no tree reads its value
//! straight from the text with it. Text that is already compact JSON can
//! travel without a tree: the reader's skip mode ([`validate`],
//! [`Reader::skip`]) checks a value, [`Reader::pos`] before and after it
//! cuts out its byte span, and [`ObjectWriter`] splices such text into a
//! new object — how stored records reach the socket unchanged.
//!
//! Conversions go through [`ToJson`] / [`FromJson`], the local analogue of
//! `Serialize` / `Deserialize`. `FromJson` impls are expected to
//! re-validate: a `Complex` parsed from JSON goes back through the same
//! invariant checks as one built programmatically.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

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
    syntax: bool,
}

impl JsonError {
    /// A conversion error carrying `msg`: the text is JSON, but not a
    /// value of the type asked for.
    pub fn new(msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            syntax: false,
        }
    }

    /// `true` for an error of the grammar (the text is not JSON), `false`
    /// for a conversion error.
    pub fn is_syntax(&self) -> bool {
        self.syntax
    }

    /// The message, without the `json error: ` that `Display` puts first.
    pub fn message(&self) -> &str {
        &self.msg
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
        let mut r = Reader::new(text);
        let v = build(&mut r)?;
        r.finish()?;
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
        member(self.get(key).map(Ok), key)
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

/// Appends the decimal digits of `v` from a stack buffer — the bytes
/// `format!("{v}")` gives, without a heap string per number. For an
/// integer `|v| ≤ 2⁵³` this is exactly how `Json::Num(v as f64)` renders,
/// so callers writing JSON text directly stay byte-identical to the tree.
pub fn write_int(out: &mut String, v: i64) {
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

/// Appends `s` as a JSON string literal, exactly as `Json::Str` renders it:
/// each run that needs no escape is pushed as one slice (a string with
/// nothing to escape is pushed whole).
pub fn write_string(out: &mut String, s: &str) {
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

/// Appends a compact JSON array with one item per element of `items`, each
/// written by `item` — the text `Json::Arr(..).to_string()` gives when
/// `item` writes what the element's compact rendering would be.
///
/// # Examples
///
/// ```
/// use iis_obs::json::{write_array, write_int, Json};
/// let mut out = String::new();
/// write_array(&mut out, [1i64, 2, 3], |out, v| write_int(out, v));
/// let tree = Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Num(3.0)]);
/// assert_eq!(out, tree.to_string());
/// ```
pub fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
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

/// Checks that `text` is a document [`Json::parse`] accepts — the same
/// grammar, depth limit and error messages — without building a tree.
///
/// # Errors
///
/// The error `Json::parse` would return.
pub fn validate(text: &str) -> Result<(), JsonError> {
    let mut r = Reader::new(text);
    r.skip()?;
    r.finish()
}

/// Integers with at most this many digits (and no fraction or exponent)
/// are accumulated exactly in a `u64`: every such value is below 2^53, so
/// the `f64` equals what `str::parse::<f64>` returns.
const FAST_INT_DIGITS: usize = 15;

/// The kind of the next value a [`Reader`] holds, told by its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    /// `null` (or a malformed literal starting with `n`).
    Null,
    /// `true` / `false` (or a malformed literal starting with `t`/`f`).
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull reader over JSON text: the one grammar of this module. The tree
/// builder ([`Json::parse`]), the skip mode ([`validate`], [`Reader::skip`])
/// and every decoder that reads a value straight from its text are clients of
/// it, so all of them accept the same documents, under the same depth
/// limit, with the same error messages at the same byte offsets.
///
/// A client reads one value at a time: [`Reader::peek`] says what comes
/// next, a scalar method consumes it, and [`Reader::array`] /
/// [`Reader::object`] hand each item or member to a callback. Errors of
/// the grammar are *syntax* errors ([`JsonError::is_syntax`]) and end the
/// read. A decoder may also fail a value it does not accept — a
/// *conversion* error, made with [`JsonError::new`] — after consuming that
/// whole value; a container whose callback fails that way reads the rest
/// of itself in skip mode before passing the error up, so a syntax error
/// later in the text still wins, as it does when the text is parsed first
/// and converted after.
///
/// The reader also counts the lexemes the compact writer would not have
/// written ([`Reader::irregular`]): whitespace, a number that is not a
/// shortest integer, a string escape [`write_string`] does not use. A
/// decoder that checks the structure itself can then tell that the span
/// it read is byte for byte what rendering its value would give.
///
/// # Examples
///
/// ```
/// use iis_obs::json::{Reader, Token};
/// let mut r = Reader::new(r#"{"ids": [3, 1], "skip": {"x": null}}"#);
/// let mut ids = Vec::new();
/// r.object(|r, key| match key.as_ref() {
///     "ids" => r.array(|r| {
///         ids.push(r.number()?);
///         Ok(())
///     }),
///     _ => r.skip(),
/// })
/// .unwrap();
/// r.finish().unwrap();
/// assert_eq!(ids, [3.0, 1.0]);
/// ```
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the position.
    depth: usize,
    irregular: u64,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            irregular: 0,
        }
    }

    /// The byte offset of the next unread byte. Inside an [`array`] or
    /// [`object`] callback it is the start of the item or member value.
    ///
    /// [`array`]: Reader::array
    /// [`object`]: Reader::object
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The whole text being read.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// How many lexemes read so far the compact writer would have written
    /// otherwise: whitespace runs, numbers that are not a shortest integer
    /// (`-?[1-9][0-9]*` or `0`, at most 15 digits), and string escapes
    /// other than `\"`, `\\`, `\n`, `\r`, `\t` and the lowercase `\u00xx`
    /// of any other control character. Unchanged over a span means the
    /// span has none of them.
    pub fn irregular(&self) -> u64 {
        self.irregular
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: format!("{msg} at byte {}", self.pos),
            syntax: true,
        }
    }

    /// Accepts only whitespace after the document.
    ///
    /// # Errors
    ///
    /// `trailing characters after document` otherwise.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos != start {
            self.irregular += 1;
        }
    }

    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Skips whitespace and tells what the next value is.
    ///
    /// # Errors
    ///
    /// A value nested past the depth limit, an unexpected character, or
    /// the end of the text.
    pub fn peek(&mut self) -> Result<Token, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.byte() {
            Some(b'n') => Ok(Token::Null),
            Some(b't' | b'f') => Ok(Token::Bool),
            Some(b'"') => Ok(Token::String),
            Some(b'[') => Ok(Token::Array),
            Some(b'{') => Ok(Token::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Token::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads `null`.
    ///
    /// # Errors
    ///
    /// A syntax error when the next value is not `null`.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.peek()?;
        self.literal("null")
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// A syntax error when the next value is not a boolean.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        self.peek()?;
        self.bool_here()
    }

    fn bool_here(&mut self) -> Result<bool, JsonError> {
        if self.byte() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Reads a number, as [`Json::parse`] would store it.
    ///
    /// # Errors
    ///
    /// A syntax error when the next value is not a well-formed number.
    pub fn number(&mut self) -> Result<f64, JsonError> {
        self.peek()?;
        self.number_here()
    }

    fn number_here(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let (negative, digits) = self.scan_number()?;
        if let Some(magnitude) = self.short_int(start + usize::from(negative), digits) {
            // exact below 2^53; `-0` stays negative zero, as parse gives
            let n = magnitude as f64;
            return Ok(if negative { -n } else { n });
        }
        self.float(start)
    }

    /// The magnitude of the number just scanned, whose integer part of
    /// `digits` digits starts at `int_start`, when it has no fraction or
    /// exponent and at most [`FAST_INT_DIGITS`] digits.
    fn short_int(&self, int_start: usize, digits: usize) -> Option<u64> {
        (self.pos == int_start + digits && digits <= FAST_INT_DIGITS).then(|| {
            self.bytes[int_start..self.pos]
                .iter()
                .fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0'))
        })
    }

    /// The number just scanned from `start`, as `str::parse` reads it.
    fn float(&self, start: usize) -> Result<f64, JsonError> {
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))
    }

    /// Consumes a number's text; returns its sign and integer digit count,
    /// and counts it irregular unless it is a shortest integer.
    fn scan_number(&mut self) -> Result<(bool, usize), JsonError> {
        let negative = self.byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let digits = self.pos - int_start;
        if digits == 0 {
            return Err(self.err("expected digits"));
        }
        let mut integral = true;
        if self.byte() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.byte(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.byte(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let leading_zero = digits > 1 && self.bytes[int_start] == b'0';
        let negative_zero = negative && digits == 1 && self.bytes[int_start] == b'0';
        if !integral || leading_zero || negative_zero || digits > FAST_INT_DIGITS {
            self.irregular += 1;
        }
        Ok((negative, digits))
    }

    /// Reads a string: borrowed from the text when it has no escape.
    ///
    /// # Errors
    ///
    /// A syntax error when the next value is not a well-formed string.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.peek()?;
        self.string_here()
    }

    /// A string starting at the position (an object key is not a value:
    /// no depth check).
    fn string_here(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.scan_run();
        if self.byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        self.string_rest(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Advances over bytes a string holds verbatim.
    fn scan_run(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
    }

    /// The rest of a string whose opening quote is consumed, decoded into
    /// `out` when given. Runs without escapes are copied as one slice of
    /// the (valid UTF-8) source.
    fn string_rest(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        loop {
            let run = self.pos;
            self.scan_run();
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[run..self.pos]);
            }
            let escaped = match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.byte() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            if let Some(out) = out.as_deref_mut() {
                                out.push(c);
                            }
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    if matches!(c, '/' | '\u{8}' | '\u{c}') {
                        // `write_string` writes these raw or as `\u00xx`
                        self.irregular += 1;
                    }
                    c
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
        let lowercase = self.bytes[self.pos - 4..self.pos]
            .iter()
            .all(|b| !b.is_ascii_uppercase());
        if hi >= 0x20 || matches!(hi, 0x09 | 0x0a | 0x0d) || !lowercase {
            self.irregular += 1;
        }
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
            let d = match self.byte() {
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

    /// Reads an array, calling `item` once per item with the reader at
    /// the item's first byte; `item` must consume exactly that value.
    ///
    /// # Errors
    ///
    /// The first syntax error, or the first conversion error `item`
    /// returns — reported once the array has been read to its end.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.peek()?;
        self.array_here(item)
    }

    fn array_here(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.byte() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        let mut failed = None;
        loop {
            self.skip_ws();
            if failed.is_some() {
                self.skip()?;
            } else {
                match item(self) {
                    Err(e) if !e.syntax => failed = Some(e),
                    other => other?,
                }
            }
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return failed.map_or(Ok(()), Err);
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Reads an object, calling `member` once per member (duplicates
    /// included, in document order) with its decoded key and the reader at
    /// the value's first byte; `member` must consume exactly that value.
    ///
    /// # Errors
    ///
    /// As [`Reader::array`].
    pub fn object(
        &mut self,
        member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.peek()?;
        self.object_here(member)
    }

    fn object_here(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.byte() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        let mut failed = None;
        loop {
            self.skip_ws();
            let key = self.string_here()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            if failed.is_some() {
                self.skip()?;
            } else {
                match member(self, key) {
                    Err(e) if !e.syntax => failed = Some(e),
                    other => other?,
                }
            }
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return failed.map_or(Ok(()), Err);
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Reads past one value of any kind, checking it and allocating
    /// nothing for it.
    ///
    /// # Errors
    ///
    /// The first syntax error in the value.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Token::Null => self.literal("null"),
            Token::Bool => self.bool_here().map(drop),
            Token::Number => self.scan_number().map(drop),
            Token::String => {
                self.pos += 1;
                self.string_rest(None)
            }
            Token::Array => self.array_here(Reader::skip),
            Token::Object => self.object_here(|r, _| r.skip()),
        }
    }

    /// Reads a value as [`Json::as_u64`] takes it: a number that is a
    /// whole value in `0..=2^53`, converted to `T`.
    ///
    /// # Errors
    ///
    /// The conversion errors of `T::from_json` (`expected unsigned
    /// integer`, `integer out of range`), with the value consumed.
    pub fn uint<T: TryFrom<u64>>(&mut self) -> Result<T, JsonError> {
        let n = match self.peek()? {
            Token::Number => {
                let start = self.pos;
                let (negative, digits) = self.scan_number()?;
                match self.short_int(start + usize::from(negative), digits) {
                    // as `as_u64` takes a short integer, with no float:
                    // `-0` is 0, and any other negative is refused
                    Some(magnitude) => (!negative || magnitude == 0).then_some(magnitude),
                    None => Json::Num(self.float(start)?).as_u64(),
                }
            }
            _ => {
                self.skip()?;
                None
            }
        };
        let n = n.ok_or_else(|| JsonError::new("expected unsigned integer"))?;
        T::try_from(n).map_err(|_| JsonError::new("integer out of range"))
    }

    /// Reads an array as [`Reader::array`] does, or refuses any other
    /// value with the conversion error `refusal` after consuming it (the
    /// `expected array` of `Vec::from_json`, say).
    ///
    /// # Errors
    ///
    /// As [`Reader::array`], or `refusal`.
    pub fn array_or(
        &mut self,
        refusal: &str,
        item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek()? == Token::Array {
            return self.array_here(item);
        }
        self.skip()?;
        Err(JsonError::new(refusal))
    }

    /// Reads a two-item array as `<(A, B)>::from_json` does: `a` reads the
    /// first item and `b` the second, and the refusals come in its order —
    /// `expected pair` for a non-array, `expected 2-element array` for any
    /// other length, then `a`'s error, then `b`'s.
    ///
    /// # Errors
    ///
    /// The first syntax error, or the refusal above.
    pub fn pair<A, B>(
        &mut self,
        a: impl FnOnce(&mut Self) -> Result<A, JsonError>,
        b: impl FnOnce(&mut Self) -> Result<B, JsonError>,
    ) -> Result<(A, B), JsonError> {
        let (mut a, mut b) = (Some(a), Some(b));
        let (mut first, mut second) = (None, None);
        let mut items = 0;
        self.array_or("expected pair", |r| {
            items += 1;
            // a refused item is kept, not returned: the length refusal
            // outranks it, so the pair reads on to its end
            match items {
                1 => match a.take().map(|a| a(r)) {
                    Some(Err(e)) if e.syntax => return Err(e),
                    got => first = got,
                },
                2 => match b.take().map(|b| b(r)) {
                    Some(Err(e)) if e.syntax => return Err(e),
                    got => second = got,
                },
                _ => return r.skip(),
            }
            Ok(())
        })?;
        match (items, first, second) {
            (2, Some(first), Some(second)) => Ok((first?, second?)),
            _ => Err(JsonError::new("expected 2-element array")),
        }
    }
}

/// Sorts a decoder's result for a reader that reads on past a refused
/// value: a syntax error ends the read (the outer `Err`); the value or its
/// conversion error is kept (the inner result) for the caller to rank.
///
/// # Errors
///
/// `got`'s error, when it is a syntax error.
pub fn kept<T>(got: Result<T, JsonError>) -> Result<Result<T, JsonError>, JsonError> {
    match got {
        Err(e) if e.syntax => Err(e),
        got => Ok(got),
    }
}

/// Reads all of `text` as one value with `read`, a syntax error anywhere
/// outranking a refusal of `read`'s, as parsing first and converting
/// after would have it.
///
/// # Errors
///
/// The first syntax error in `text`, else `read`'s refusal.
///
/// # Examples
///
/// ```
/// use iis_obs::json::{read_all, Reader};
/// let ids = |r: &mut Reader<'_>| r.pair(|r| r.uint::<u8>(), |r| r.uint::<u8>());
/// assert_eq!(read_all("[1, 2]", ids), Ok((1, 2)));
/// assert!(read_all("[1, 300]", ids).is_err_and(|e| !e.is_syntax()));
/// assert!(read_all("[1, 300] x", ids).is_err_and(|e| e.is_syntax()));
/// ```
pub fn read_all<'a, T>(
    text: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let mut r = Reader::new(text);
    let got = kept(read(&mut r))?;
    r.finish()?;
    got
}

/// The first-read value of member `key`, or the error [`Json::field`]
/// gives for a missing one.
///
/// # Errors
///
/// `missing field `key`` when `got` is `None`, else `got`'s error.
pub fn member<T>(got: Option<Result<T, JsonError>>, key: &str) -> Result<T, JsonError> {
    got.unwrap_or_else(|| Err(JsonError::new(format!("missing field `{key}`"))))
}

/// Builds the tree of the value at `r`.
fn build(r: &mut Reader<'_>) -> Result<Json, JsonError> {
    Ok(match r.peek()? {
        Token::Null => {
            r.literal("null")?;
            Json::Null
        }
        Token::Bool => Json::Bool(r.bool_here()?),
        Token::Number => Json::Num(r.number_here()?),
        Token::String => Json::Str(r.string_here()?.into_owned()),
        Token::Array => {
            let mut items = Vec::new();
            r.array_here(|r| {
                items.push(build(r)?);
                Ok(())
            })?;
            Json::Arr(items)
        }
        Token::Object => {
            let mut members = Vec::new();
            r.object_here(|r, key| {
                members.push((key.into_owned(), build(r)?));
                Ok(())
            })?;
            Json::Obj(members)
        }
    })
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
            // `uint` takes a number exactly as `as_u64` takes the tree's
            let uint = read_all(text, |r| r.uint::<u64>());
            assert_eq!(uint.ok(), Json::Num(expected).as_u64(), "{text}");
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
                continue;
            };
            // a child's span, cut by `pos` around `skip`, is exactly the
            // text of the child
            let mut r = Reader::new(doc);
            let mut spans = Vec::new();
            let mut cut = |r: &mut Reader<'_>, key: Option<String>| {
                let start = r.pos();
                r.skip()?;
                spans.push((key, start..r.pos()));
                Ok(())
            };
            let children: Vec<(Option<String>, &Json)> = match &value {
                Json::Obj(members) => {
                    r.object(|r, key| cut(r, Some(key.into_owned()))).unwrap();
                    members.iter().map(|(k, v)| (Some(k.clone()), v)).collect()
                }
                Json::Arr(items) => {
                    r.array(|r| cut(r, None)).unwrap();
                    items.iter().map(|v| (None, v)).collect()
                }
                _ => {
                    r.skip().unwrap();
                    Vec::new()
                }
            };
            r.finish().unwrap();
            assert_eq!(spans.len(), children.len(), "{doc:?}");
            for ((key, span), (k, v)) in spans.into_iter().zip(children) {
                assert_eq!(key, k, "{doc:?}");
                assert_eq!(&Json::parse(&doc[span]).unwrap(), v, "{doc:?}");
            }
        }
    }

    #[test]
    fn a_refused_value_reads_on_and_a_later_syntax_error_wins() {
        let ids = |text: &str| {
            read_all(text, |r| {
                let mut got = Vec::new();
                r.array_or("expected array", |r| {
                    got.push(r.uint::<u8>()?);
                    Ok(())
                })?;
                Ok(got)
            })
        };
        assert_eq!(ids("[1, 2]"), Ok(vec![1, 2]));
        assert_eq!(ids("[1.0, 2e0]"), Ok(vec![1, 2]));
        let refused = ids(r#"[1, "x", {"deep": [300]}, 2]"#).unwrap_err();
        assert_eq!(refused, JsonError::new("expected unsigned integer"));
        assert!(!refused.is_syntax());
        assert_eq!(
            ids("[1, 300]").unwrap_err().to_string(),
            "json error: integer out of range"
        );
        assert_eq!(
            ids("{}").unwrap_err().to_string(),
            "json error: expected array"
        );
        // the array is refused at "x", but the text is not JSON at all:
        // the error is the one parsing the text gives
        for bad in [r#"[1, "x", 2"#, r#"[1, "x"] 3"#, r#"[1, "x", {"a" 2}]"#] {
            let read = ids(bad).unwrap_err();
            assert!(read.is_syntax(), "{bad}");
            assert_eq!(Err(read), Json::parse(bad), "{bad}");
        }
    }

    #[test]
    fn a_pair_refuses_in_the_tree_order() {
        let pair = |text: &str| read_all(text, |r| r.pair(|r| r.uint::<u8>(), |r| r.uint::<u8>()));
        let tree = |text: &str| <(u8, u8)>::from_json(&Json::parse(text).unwrap());
        for text in [
            "[1, 2]",
            "[1.0, 2]",
            "[1]",
            "[]",
            "[1, 2, 3]",
            "[300, 2]",
            "[1, -2]",
            "[\"a\", -2]",
            "[\"a\", 2, 3]",
            "7",
            "{\"a\": 1}",
        ] {
            assert_eq!(pair(text), tree(text), "{text}");
        }
    }

    /// `true` iff every number in `v` renders as a shortest integer.
    fn short_ints(v: &Json) -> bool {
        match v {
            Json::Num(n) => n.fract() == 0.0 && n.abs() < 1e15,
            Json::Arr(items) => items.iter().all(short_ints),
            Json::Obj(members) => members.iter().all(|(_, v)| short_ints(v)),
            _ => true,
        }
    }

    #[test]
    fn compact_renderings_read_as_regular() {
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0004);
        for _ in 0..2_000 {
            let v = random_value(&mut rng, 0);
            let (compact, pretty) = (v.to_string(), v.to_string_pretty());
            let irregular = |text: &str| {
                let mut r = Reader::new(text);
                r.skip().unwrap();
                r.irregular()
            };
            assert_eq!(irregular(&compact) == 0, short_ints(&v), "{compact}");
            if pretty != compact {
                assert!(irregular(&pretty) > 0, "{pretty}");
            }
        }
        for (text, regular) in [
            (r#""a\"\\\n\r\t\u0001\u001f\u0008""#, true),
            (r#""\/""#, false),
            (r#""\b""#, false),
            (r#""\u0041""#, false),
            (r#""\u000a""#, false),
            (r#""\u001F""#, false),
            (r#""é🦀""#, true),
            ("0", true),
            ("-7", true),
            ("-0", false),
            ("007", false),
            ("1.0", false),
            ("1e0", false),
            ("1234567890123456", false),
        ] {
            let mut r = Reader::new(text);
            r.skip().unwrap();
            assert_eq!(r.irregular() == 0, regular, "{text}");
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
