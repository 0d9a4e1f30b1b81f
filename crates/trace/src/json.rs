//! The workspace's one JSON: an insertion-ordered [`Value`] tree, a
//! compact and a pretty writer, and a bounded [`parse`]. Shard manifests,
//! Chrome traces, the daemon's `STATS` and the bench reports are all a
//! `Value` written here, and whatever is read back goes through `parse`.
//! DESIGN.md "Dependency policy" states the contract in full; in short:
//!
//! * writers: keys in insertion order, integers exact, a finite float in
//!   its shortest round-trip decimal form (never an exponent, `.0` kept),
//!   a non-finite float as `null`;
//! * parser: RFC 8259, integers that fit kept exact, nesting capped at
//!   [`MAX_DEPTH`], trailing bytes rejected, memory O(input). The caller
//!   bounds the input size.

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer (the parser never yields a non-negative one).
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys in insertion (document) order, duplicates kept.
    Obj(Vec<(String, Value)>),
}

/// Builds a [`Value::Obj`] from `"key": value` pairs, each value through
/// [`Value::from`].
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Value::Obj(vec![
            $(($key.to_string(), $crate::json::Value::from($value))),*
        ])
    };
}
pub use crate::obj;

macro_rules! from_scalar {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::$variant(v.into())
            }
        }
    )*};
}
from_scalar!(u32 => UInt, u64 => UInt, f64 => Float, bool => Bool, &str => Str, String => Str);

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::UInt(v as u64)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::arr(v)
    }
}

impl<A: Into<Value>, B: Into<Value>> From<(A, B)> for Value {
    fn from((a, b): (A, B)) -> Value {
        Value::Arr(vec![a.into(), b.into()])
    }
}

impl Value {
    /// An array of the items, each through [`Value::from`].
    pub fn arr<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }

    /// An object of the `(key, value)` entries, each value through
    /// [`Value::from`].
    pub fn obj<K: Into<String>, T: Into<Value>>(
        entries: impl IntoIterator<Item = (K, T)>,
    ) -> Value {
        let entry = |(k, v): (K, T)| (k.into(), v.into());
        Value::Obj(entries.into_iter().map(entry).collect())
    }

    /// The first value under `key`, if `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact non-negative integer, if `self` is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The pretty form: one element per line, 2-space indent, no trailing
    /// newline; empty containers stay `[]` / `{}`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0))
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes `self`; `indent` is `None` for the compact form, else the
    /// nesting level of the pretty form.
    fn write(&self, out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(b) => write!(out, "{b}"),
            Value::Int(i) => write!(out, "{i}"),
            Value::UInt(u) => write!(out, "{u}"),
            Value::Float(f) if !f.is_finite() => out.write_str("null"),
            // `{}` is the shortest round-trip decimal and never an exponent.
            Value::Float(f) if f.fract() == 0.0 => write!(out, "{f}.0"),
            Value::Float(f) => write!(out, "{f}"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => write_seq(out, indent, "[]", items.iter().map(|v| (None, v))),
            Value::Obj(entries) => {
                let entries = entries.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_seq(out, indent, "{}", entries)
            }
        }
    }
}

/// The compact form: no whitespace at all.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

/// Writes an array (every `key` is `None`) or an object between `brackets`.
fn write_seq<'v>(
    out: &mut impl fmt::Write,
    indent: Option<usize>,
    brackets: &str,
    entries: impl ExactSizeIterator<Item = (Option<&'v str>, &'v Value)>,
) -> fmt::Result {
    // In the pretty form, starts a line at the given nesting level.
    let newline = |out: &mut dyn fmt::Write, level: Option<usize>| match level {
        Some(level) => write!(out, "\n{:1$}", "", 2 * level),
        None => Ok(()),
    };
    let inner = indent.map(|level| level + 1);
    let empty = entries.len() == 0;
    out.write_str(&brackets[..1])?;
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        newline(out, inner)?;
        if let Some(key) = key {
            write_str(out, key)?;
            out.write_str(if indent.is_some() { ": " } else { ":" })?;
        }
        value.write(out, inner)?;
    }
    if !empty {
        newline(out, indent)?;
    }
    out.write_str(&brackets[1..])
}

/// Writes `s` as a JSON string literal.
fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Why [`parse`] rejected its input; `at` is a byte offset into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input is not JSON: `expected` names what the grammar allows at
    /// `at` (which is the input's length if it ends inside a value).
    Syntax { at: usize, expected: &'static str },
    /// The array or object opening at `at` is [`MAX_DEPTH`] levels down.
    TooDeep { at: usize },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { at, expected } => {
                write!(f, "invalid JSON at byte {at}: expected {expected}")
            }
            ParseError::TooDeep { at } => {
                write!(f, "JSON nested deeper than {MAX_DEPTH} at byte {at}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (the module doc has the contract).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => p.syntax("the end of the input"),
    }
}

/// `at` only ever rests on an ASCII byte or the end, so it is always a
/// `char` boundary of `text`.
struct Parser<'t> {
    text: &'t str,
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn syntax<T>(&self, expected: &'static str) -> Result<T, ParseError> {
        let at = self.at;
        Err(ParseError::Syntax { at, expected })
    }

    /// Consumes `literal` or fails.
    fn eat(&mut self, literal: &'static str) -> Result<(), ParseError> {
        if !self.text[self.at..].starts_with(literal) {
            return self.syntax(literal);
        }
        self.at += literal.len();
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(ParseError::TooDeep { at: self.at }),
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut entries = Vec::new();
                self.sequence(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(":")?;
                    entries.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Obj(entries))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.syntax("a value"),
        }
    }

    /// The comma-separated body of an array or object, from its opening
    /// bracket through `close`; `element` parses one element.
    fn sequence(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.at += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return self.syntax("',' or the closing bracket"),
            }
        }
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return self.syntax("a digit");
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        let negative = self.peek() == Some(b'-');
        self.at += usize::from(negative);
        // A leading 0 stands alone: "01" is 0 followed by a stray 1.
        if self.peek() == Some(b'0') {
            self.at += 1;
        } else {
            self.digits()?;
        }
        let mut integer = true;
        if self.peek() == Some(b'.') {
            self.at += 1;
            self.digits()?;
            integer = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            self.at += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits()?;
            integer = false;
        }
        let token = &self.text[start..self.at];
        let exact = match (integer, negative) {
            (true, false) => token.parse().ok().map(Value::UInt),
            (true, true) => token.parse().ok().map(Value::Int),
            (false, _) => None,
        };
        // An integer too wide to keep exact falls through to here too. The
        // JSON number grammar is inside Rust's, and magnitude saturates.
        Ok(exact.unwrap_or_else(|| Value::Float(token.parse().expect("a JSON number"))))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return self.syntax("a string");
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte.
            let run = self.at;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    out.push(self.escape()?);
                }
                _ => return self.syntax("the closing quote"),
            }
        }
    }

    /// The character an escape stands for; `at` is just past the `\`.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.at += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    self.eat("\\u")?;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return self.syntax("a low surrogate before here");
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                // Only a lone low surrogate is left to fail here.
                return match char::from_u32(code) {
                    Some(c) => Ok(c),
                    None => self.syntax("a high surrogate before here"),
                };
            }
            _ => return self.syntax("an escape character"),
        };
        self.at += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self.text.as_bytes().get(self.at..self.at + 4);
        let Some(digits) = digits.filter(|d| d.iter().all(u8::is_ascii_hexdigit)) else {
            return self.syntax("four hex digits");
        };
        self.at += 4;
        Ok(digits.iter().fold(0, |code, &d| {
            code * 16 + (d as char).to_digit(16).expect("a hex digit")
        }))
    }
}
