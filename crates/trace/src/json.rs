//! The workspace's one JSON codec, dependency-free: a streaming
//! [`Writer`] every encoder emits through, a recursive-descent parser,
//! typed range-checked field accessors on [`Json`] every decoder reads
//! through, and a small schema-subset validator. `tracetool check-schema`
//! and `tests/trace_determinism.rs` check the trace report against
//! `schemas/trace_report.schema.json` in CI.
//!
//! A decoder is three steps: [`parse_checked`] (parse, then validate
//! against the document's embedded schema) and typed reads. The typed
//! reads own every float→integer conversion: a decoded number becomes an
//! id, a count or a size only if it is integral, non-negative and in
//! range, and errors name the key path (`frames[3]: nx: expected …`).
//!
//! The validator understands the subset of JSON Schema the checked-in
//! schemas use: `type` (including `"integer"` = number with zero
//! fractional part), `required`, `properties`, `items`, `minItems` and
//! `enum`. Unknown keywords are ignored, matching JSON Schema's
//! open-world convention.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

fn push_escaped(out: &mut String, s: &str) {
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
}

fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Escapes a string for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Formats an `f64` as a JSON number: finite values via the shortest
/// round-trip `{}` formatting (with a `.0` appended to integral values so
/// they stay floats on re-read), non-finite values as `null` (JSON has no
/// NaN/Infinity).
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// How one open container lays out its items. The committed documents
/// use four layouts between them; each container picks one when opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `{"k":v,"k":v}`
    Compact,
    /// `{"k": v, "k": v}`
    Spaced,
    /// `{ "k": v, "k": v }`
    Padded,
    /// One item per line, indented two spaces per open container.
    Lines,
}

/// A streaming JSON writer: containers are opened and closed, keys and
/// values arrive in call order, and the writer owns every comma, quote
/// and escape. Nothing is buffered but the output text, so a report of
/// a million records costs its bytes, not a tree.
///
/// ```
/// let mut w = cp_trace::json::Writer::new();
/// w.object().key("id").u64(7).key("tags").array().str("a\"b").end().end();
/// assert_eq!(w.finish(), r#"{"id":7,"tags":["a\"b"]}"#);
/// ```
///
/// Closing more containers than were opened, or writing a key outside an
/// object, is a caller bug; the output is then not JSON, which every
/// encoder's schema test catches.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Per open container: closing bracket, layout, items written.
    open: Vec<(char, Layout, usize)>,
    /// A key was just written; the next value follows it directly.
    after_key: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose output buffer holds `bytes` before growing.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: String::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// The text written so far; every opened container should be closed.
    pub fn finish(self) -> String {
        self.out
    }

    /// Separator and indentation owed before the next key or value.
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.open.len();
        let Some((_, layout, count)) = self.open.last_mut() else {
            return;
        };
        let first = *count == 0;
        *count += 1;
        match layout {
            Layout::Compact if first => {}
            Layout::Compact => self.out.push(','),
            Layout::Spaced if first => {}
            Layout::Padded if first => self.out.push(' '),
            Layout::Spaced | Layout::Padded => self.out.push_str(", "),
            Layout::Lines => {
                if !first {
                    self.out.push_str(",\n");
                }
                self.out.extend(std::iter::repeat_n("  ", depth));
            }
        }
    }

    fn begin(&mut self, brackets: (char, char), layout: Layout) -> &mut Self {
        self.item();
        self.out.push(brackets.0);
        if layout == Layout::Lines {
            self.out.push('\n');
        }
        self.open.push((brackets.1, layout, 0));
        self
    }

    /// Opens a compact object: `{"k":v,"k":v}`.
    pub fn object(&mut self) -> &mut Self {
        self.begin(('{', '}'), Layout::Compact)
    }

    /// Opens a compact array: `[a,b]`.
    pub fn array(&mut self) -> &mut Self {
        self.begin(('[', ']'), Layout::Compact)
    }

    /// Opens an object with a space after each colon and comma:
    /// `{"k": v, "k": v}`.
    pub fn object_spaced(&mut self) -> &mut Self {
        self.begin(('{', '}'), Layout::Spaced)
    }

    /// Opens an array with a space after each comma: `[a, b]`.
    pub fn array_spaced(&mut self) -> &mut Self {
        self.begin(('[', ']'), Layout::Spaced)
    }

    /// Opens a spaced object that also pads its braces:
    /// `{ "k": v, "k": v }` (the checkpoint's second level).
    pub fn object_padded(&mut self) -> &mut Self {
        self.begin(('{', '}'), Layout::Padded)
    }

    /// Opens an object with one `"k": v` member per line, indented two
    /// spaces per open container.
    pub fn object_lines(&mut self) -> &mut Self {
        self.begin(('{', '}'), Layout::Lines)
    }

    /// Opens an array with one item per line, indented like
    /// [`object_lines`](Self::object_lines). An empty one keeps the blank
    /// line the committed `REPRO.json` has between its brackets.
    pub fn array_lines(&mut self) -> &mut Self {
        self.begin(('[', ']'), Layout::Lines)
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        if let Some((close, layout, _)) = self.open.pop() {
            match layout {
                Layout::Compact | Layout::Spaced => {}
                Layout::Padded => self.out.push(' '),
                Layout::Lines => {
                    self.out.push('\n');
                    self.out.extend(std::iter::repeat_n("  ", self.open.len()));
                }
            }
            self.out.push(close);
        }
        self
    }

    /// Writes a member key; the member's value is the next call.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        self.out.push('"');
        push_escaped(&mut self.out, key);
        let compact = matches!(self.open.last(), Some((_, Layout::Compact, _)));
        self.out.push_str(if compact { "\":" } else { "\": " });
        self.after_key = true;
        self
    }

    /// Writes a string value, escaped.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.item();
        self.out.push('"');
        push_escaped(&mut self.out, v);
        self.out.push('"');
        self
    }

    /// Writes a float as [`fmt_f64`] formats it (`null` when non-finite).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.item();
        push_f64(&mut self.out, v);
        self
    }

    /// Writes already-formatted value text.
    fn raw(&mut self, text: std::fmt::Arguments<'_>) -> &mut Self {
        self.item();
        let _ = self.out.write_fmt(text);
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(format_args!("{v}"))
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.raw(format_args!("{v}"))
    }

    /// Writes `true` / `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(format_args!("{v}"))
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw(format_args!("null"))
    }

    /// Writes a 64-bit id as a 16-digit hex string — a `u64` exceeds the
    /// integer range a float-based JSON parser preserves. Read back with
    /// [`Json::hex64`].
    pub fn hex64(&mut self, v: u64) -> &mut Self {
        self.raw(format_args!("\"{v:016x}\""))
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced by [`fmt_f64`] for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is normalized.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, when it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value's elements, when it is an array.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    // -- typed reads of this value ------------------------------------

    /// What a typed read found instead of what it expected.
    fn found(&self) -> String {
        match self {
            Json::Num(n) => format!("number {n}"),
            other => other.type_name().to_string(),
        }
    }

    /// The value as a finite number.
    pub fn to_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(n) if n.is_finite() => Ok(*n),
            other => Err(format!("expected a finite number, found {}", other.found())),
        }
    }

    /// The value as an integral number in `lo..hi` (`hi` exclusive, so a
    /// power of two bounds a 64-bit range exactly).
    fn to_integral(&self, lo: f64, hi: f64) -> Result<f64, String> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= lo && *n < hi => Ok(*n),
            other => Err(format!(
                "expected an integer in {lo}..{hi}, found {}",
                other.found()
            )),
        }
    }

    /// The value as a `u64`: integral, non-negative, below 2⁶⁴.
    pub fn to_u64(&self) -> Result<u64, String> {
        // The checked range makes the casts below exact.
        self.to_integral(0.0, 18_446_744_073_709_551_616.0)
            .map(|n| n as u64)
    }

    /// The value as a `u32`: integral, non-negative, below 2³².
    pub fn to_u32(&self) -> Result<u32, String> {
        self.to_integral(0.0, 4_294_967_296.0).map(|n| n as u32)
    }

    /// The value as a `usize`: integral, non-negative, addressable.
    pub fn to_usize(&self) -> Result<usize, String> {
        let n = self.to_u64()?;
        usize::try_from(n).map_err(|_| format!("expected a size, found number {n}"))
    }

    /// The value as an `i64`: integral, in −2⁶³..2⁶³.
    pub fn to_i64(&self) -> Result<i64, String> {
        self.to_integral(-9_223_372_036_854_775_808.0, 9_223_372_036_854_775_808.0)
            .map(|n| n as i64)
    }

    /// The value as a boolean.
    pub fn to_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, found {}", other.found())),
        }
    }

    /// The value as a string.
    pub fn to_str(&self) -> Result<&str, String> {
        self.as_str()
            .ok_or_else(|| format!("expected a string, found {}", self.found()))
    }

    /// The value's elements.
    pub fn to_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("expected an array, found {}", other.found())),
        }
    }

    // -- typed reads of a field ---------------------------------------

    /// Reads the required field `key` through `read`; a missing field or
    /// a failed read is reported under the key.
    pub fn at<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        let value = self.get(key).ok_or_else(|| format!("{key}: missing"))?;
        read(value).map_err(|e| format!("{key}: {e}"))
    }

    /// Reads the optional field `key` through `read`: `None` when it is
    /// absent or `null` (how the writer spells a non-finite float).
    pub fn opt<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => read(value).map(Some).map_err(|e| format!("{key}: {e}")),
        }
    }

    /// Reads every element of the required array field `key` through
    /// `read`; a failed read is reported as `key[i]`.
    pub fn each<'a, T>(
        &'a self,
        key: &str,
        mut read: impl FnMut(&'a Json) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.array(key)?
            .iter()
            .enumerate()
            .map(|(i, item)| read(item).map_err(|e| format!("{key}[{i}]: {e}")))
            .collect()
    }

    /// The required finite-number field `key`.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.at(key, Json::to_f64)
    }

    /// The required `u64` field `key` (see [`to_u64`](Self::to_u64)).
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.at(key, Json::to_u64)
    }

    /// The required `u32` field `key` (see [`to_u32`](Self::to_u32)).
    pub fn u32(&self, key: &str) -> Result<u32, String> {
        self.at(key, Json::to_u32)
    }

    /// The required `usize` field `key` (see [`to_usize`](Self::to_usize)).
    pub fn usize(&self, key: &str) -> Result<usize, String> {
        self.at(key, Json::to_usize)
    }

    /// The required `i64` field `key` (see [`to_i64`](Self::to_i64)).
    pub fn i64(&self, key: &str) -> Result<i64, String> {
        self.at(key, Json::to_i64)
    }

    /// The required boolean field `key`.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.at(key, Json::to_bool)
    }

    /// The required string field `key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.at(key, Json::to_str)
    }

    /// The required array field `key`.
    pub fn array(&self, key: &str) -> Result<&[Json], String> {
        self.at(key, Json::to_array)
    }

    /// The required 64-bit id field `key`, as [`Writer::hex64`] wrote it.
    pub fn hex64(&self, key: &str) -> Result<u64, String> {
        self.at(key, |v| {
            let hex = v.to_str()?;
            u64::from_str_radix(hex, 16).map_err(|_| format!("expected 64-bit hex, found {hex:?}"))
        })
    }

    /// JSON Schema type name of this value ("integer" is reported as
    /// "number"; the validator special-cases it).
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Parses a JSON document, requiring it to be fully consumed.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// The first two steps of every decoder: parses `input` and validates
/// it against the document's embedded schema, which is parsed once into
/// `cache` (one `static` per decoder).
///
/// # Errors
///
/// The parse error, or every schema violation joined with `; `.
pub fn parse_checked(
    input: &str,
    schema_src: &str,
    cache: &OnceLock<Result<Json, String>>,
) -> Result<Json, String> {
    let schema = cache
        .get_or_init(|| parse(schema_src))
        .as_ref()
        .map_err(|e| format!("embedded schema is invalid: {e}"))?;
    let doc = parse(input).map_err(|e| format!("malformed JSON: {e}"))?;
    let errors = validate(&doc, schema);
    if errors.is_empty() {
        Ok(doc)
    } else {
        Err(format!("schema violations: {}", errors.join("; ")))
    }
}

/// Containers may nest this deep (the repo's documents need six); the
/// parser recurses per level, so unbounded nesting in a crafted file
/// would overflow the stack instead of returning an error.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let container = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                container
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            // Safe: we only stopped on ASCII delimiters, so the run is
            // valid UTF-8 (the input already was).
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "invalid \\u escape".to_string())?;
                            // Surrogate pairs aren't needed for our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
                _ => unreachable!("scan stops only on '\"' or '\\\\'"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

/// Validates `value` against a JSON-Schema-subset `schema`, returning the
/// list of violations (empty = valid). Paths in messages use `/`-joined
/// pointers rooted at `$`.
pub fn validate(value: &Json, schema: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    validate_at(value, schema, "$", &mut errors);
    errors
}

fn validate_at(value: &Json, schema: &Json, path: &str, errors: &mut Vec<String>) {
    let Some(Json::Str(ty)) = schema.get("type") else {
        // No (or non-string) "type": only structural keywords apply.
        validate_keywords(value, schema, path, errors);
        return;
    };
    let ok = match ty.as_str() {
        "integer" => matches!(value, Json::Num(n) if n.fract() == 0.0),
        t => value.type_name() == t,
    };
    if !ok {
        errors.push(format!(
            "{path}: expected {ty}, found {}",
            value.type_name()
        ));
        return;
    }
    validate_keywords(value, schema, path, errors);
}

fn validate_keywords(value: &Json, schema: &Json, path: &str, errors: &mut Vec<String>) {
    if let (Some(Json::Arr(req)), Json::Obj(obj)) = (schema.get("required"), value) {
        for r in req {
            if let Json::Str(key) = r {
                if !obj.contains_key(key) {
                    errors.push(format!("{path}: missing required field \"{key}\""));
                }
            }
        }
    }
    if let (Some(Json::Obj(props)), Json::Obj(obj)) = (schema.get("properties"), value) {
        for (key, sub) in props {
            if let Some(v) = obj.get(key) {
                validate_at(v, sub, &format!("{path}/{key}"), errors);
            }
        }
    }
    if let Json::Arr(items) = value {
        if let Some(Json::Num(min)) = schema.get("minItems") {
            if (items.len() as f64) < *min {
                errors.push(format!(
                    "{path}: expected at least {min} items, found {}",
                    items.len()
                ));
            }
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                validate_at(item, item_schema, &format!("{path}/{i}"), errors);
            }
        }
    }
    if let Some(Json::Arr(allowed)) = schema.get("enum") {
        if !allowed.contains(value) {
            errors.push(format!("{path}: value not in enum"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip_of_writer_output() {
        let doc = parse(
            "{\"a\":1,\"b\":[true,false,null],\"c\":{\"nested\":\"q\\\"uote\"},\"d\":-1.5e3}",
        )
        .expect("parses");
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("b").and_then(Json::as_array).map(Vec::len), Some(3));
        assert_eq!(
            doc.get("c")
                .and_then(|c| c.get("nested"))
                .and_then(Json::as_str),
            Some("q\"uote")
        );
        assert_eq!(doc.get("d").and_then(Json::as_f64), Some(-1500.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        // Nesting is bounded: an error, not a stack overflow.
        assert!(parse(&format!("{}1{}", "[".repeat(128), "]".repeat(128))).is_ok());
        let deep = "[".repeat(1 << 20);
        assert!(parse(&deep).expect_err("too deep").contains("nesting"));
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let parsed = parse(&format!("\"{}\"", escape("tab\there"))).expect("parses");
        assert_eq!(parsed.as_str(), Some("tab\there"));
    }

    #[test]
    fn fmt_f64_keeps_floats_floats() {
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
        let round = parse(&fmt_f64(1e300)).expect("parses");
        assert_eq!(round.as_f64(), Some(1e300));
    }

    #[test]
    fn writer_owns_commas_escapes_and_the_four_layouts() {
        let mut w = Writer::new();
        w.object_lines().key("a\"b").str("tab\t").key("n").null();
        w.key("padded").object_padded();
        w.key("ids").array().u64(1).i64(-2).end();
        w.key("ok").bool(true).end();
        w.key("rows").array_lines();
        w.object_spaced().key("x").f64(2.0);
        w.key("id").hex64(255).end();
        w.array_spaced().f64(f64::NAN).f64(0.5).end();
        w.end().key("none").array_lines().end();
        w.key("empty").object().end().end();
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"a\\\"b\": \"tab\\t\",\n  \"n\": null,\n  \
             \"padded\": { \"ids\": [1,-2], \"ok\": true },\n  \"rows\": [\n    \
             {\"x\": 2.0, \"id\": \"00000000000000ff\"},\n    [null, 0.5]\n  ],\n  \
             \"none\": [\n\n  ],\n  \"empty\": {}\n}"
        );
        let doc = parse(&text).expect("writer output parses");
        assert_eq!(
            doc.hex64("a\"b").ok(),
            None,
            "not hex: {:?}",
            doc.str("a\"b")
        );
        assert_eq!(doc.at("rows", |r| r.to_array()?[0].hex64("id")), Ok(255));
    }

    #[test]
    fn typed_reads_reject_what_a_cast_would_mangle() {
        let doc = parse(
            "{\"neg\":-1,\"frac\":2.7,\"huge\":1e300,\"u32\":4294967296,\
             \"u64\":18446744073709551616,\"ok\":7,\"inf\":1e999,\"s\":\"x\",\
             \"null\":null,\"items\":[1,2,-3],\"obj\":{\"n\":0.5}}",
        )
        .expect("parses");
        for key in ["neg", "frac", "huge", "u64", "inf", "s", "null", "missing"] {
            assert!(doc.u64(key).is_err(), "{key} as u64");
            assert!(doc.usize(key).is_err(), "{key} as usize");
        }
        assert!(doc.u32("u32").is_err());
        assert_eq!(doc.u64("u32"), Ok(4_294_967_296));
        assert_eq!(
            (doc.u32("ok"), doc.usize("ok"), doc.i64("neg")),
            (Ok(7), Ok(7), Ok(-1))
        );
        assert!(doc.i64("huge").is_err() && doc.f64("inf").is_err());
        assert_eq!(doc.opt("null", Json::to_u32), Ok(None));
        assert_eq!(doc.opt("missing", Json::to_u32), Ok(None));
        assert_eq!(doc.opt("ok", Json::to_u32), Ok(Some(7)));
        // Errors name the key path.
        assert_eq!(
            doc.each("items", Json::to_u32).expect_err("negative item"),
            "items[2]: expected an integer in 0..4294967296, found number -3"
        );
        assert_eq!(
            doc.at("obj", |o| o.u64("n")).expect_err("fractional"),
            "obj: n: expected an integer in 0..18446744073709552000, found number 0.5"
        );
        assert_eq!(
            doc.bool("s").expect_err("a string"),
            "s: expected a boolean, found string"
        );
        assert_eq!(doc.str("gone").expect_err("absent"), "gone: missing");
    }

    #[test]
    fn parse_checked_validates_against_the_cached_schema() {
        static SCHEMA: OnceLock<Result<Json, String>> = OnceLock::new();
        let schema = "{\"type\":\"object\",\"required\":[\"v\"]}";
        assert!(parse_checked("{\"v\":1}", schema, &SCHEMA).is_ok());
        let err = parse_checked("{}", schema, &SCHEMA).expect_err("missing v");
        assert!(err.starts_with("schema violations: $: missing"), "{err}");
        let err = parse_checked("{", schema, &SCHEMA).expect_err("truncated");
        assert!(err.starts_with("malformed JSON: "), "{err}");
    }

    #[test]
    fn validator_checks_types_required_and_items() {
        let schema = parse(
            "{\"type\":\"object\",\"required\":[\"version\",\"spans\"],\"properties\":{\
             \"version\":{\"type\":\"integer\"},\
             \"spans\":{\"type\":\"array\",\"minItems\":1,\"items\":{\
               \"type\":\"object\",\"required\":[\"name\"],\"properties\":{\
                 \"name\":{\"type\":\"string\"}}}}}}",
        )
        .expect("schema parses");
        let good = parse("{\"version\":1,\"spans\":[{\"name\":\"flow\"}]}").expect("parses");
        assert!(validate(&good, &schema).is_empty());

        let bad = parse("{\"version\":1.5,\"spans\":[]}").expect("parses");
        let errs = validate(&bad, &schema);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("expected integer")));
        assert!(errs.iter().any(|e| e.contains("at least 1")));

        let missing = parse("{\"spans\":[{\"nom\":true}]}").expect("parses");
        let errs = validate(&missing, &schema);
        assert!(errs
            .iter()
            .any(|e| e.contains("missing required field \"version\"")));
        assert!(errs
            .iter()
            .any(|e| e.contains("missing required field \"name\"")));
    }
}
