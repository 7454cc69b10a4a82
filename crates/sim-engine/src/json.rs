//! Zero-dependency JSON: one value tree, one parser, one string quoter.
//!
//! Every JSON document the workspace reads — campaign run records and
//! manifests, bench baselines and trajectory lines — goes through
//! [`parse`]. Callers keep their own schema checks and error
//! types on top of the [`Value`] tree. Writers stay `format!` strings,
//! because their exact bytes are each file's compatibility contract; they
//! share only [`quote`].
//!
//! The parser is total: malformed input yields a [`JsonError`], never a
//! panic. Nesting is capped at [`MAX_DEPTH`], so a corrupt file of a
//! million `[` cannot overflow the stack.
//!
//! Integer counters stay exact: a bare digit run that fits `u64` parses to
//! [`Value::Int`] (an `f64` would silently round above 2^53), and every
//! other numeric token is a [`Value::Num`]. A numeric token that overflows
//! to infinity (`1e999`) is [`JsonError::NonFinite`], distinct from a
//! syntax error, because it means corrupt data rather than a corrupt
//! document.

use core::fmt;

/// Maximum nesting depth of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their keys in document order.
///
/// Strings and containers are boxed so a `Value` is 16 bytes: a run
/// record's sample arrays hold ~10k numbers, and a 32-byte element would
/// double the tree's share of a warm campaign's peak memory.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A bare digit run that fits `u64`, kept exact.
    Int(u64),
    /// Any other (finite) number.
    Num(f64),
    /// A string, escapes decoded.
    Str(Box<String>),
    /// An array.
    Arr(Box<Vec<Value>>),
    /// An object's `(key, value)` pairs in document order.
    Obj(Box<Vec<(String, Value)>>),
}

impl Value {
    /// The first value under `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The exact value of an [`Value::Int`]. Negative, fractional, and
    /// exponent-form numbers are `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number as `f64` ([`Value::Int`] or [`Value::Num`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The contents of a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The items of a [`Value::Arr`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// The `(key, value)` pairs of a [`Value::Obj`].
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs.as_slice()),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input; each variant carries a byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonError {
    /// Not JSON: the message names what went wrong at the offset.
    Syntax(&'static str, usize),
    /// A numeric token at the offset overflowed to infinity (`1e999`).
    NonFinite(usize),
    /// Arrays and objects nest deeper than [`MAX_DEPTH`] at the offset.
    TooDeep(usize),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax(what, at) => write!(f, "{what} at byte {at}"),
            JsonError::NonFinite(at) => write!(f, "non-finite number at byte {at}"),
            JsonError::TooDeep(at) => write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document. Surrounding whitespace is allowed; any other
/// trailing byte is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    if p.peek().is_some() {
        return Err(p.syntax("trailing characters"));
    }
    Ok(value)
}

/// `s` as a JSON string literal: `"` and `\` escaped, `\n` `\r` `\t` by
/// name, every other control character as `\u00XX`.
pub fn quote(s: &str) -> String {
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn syntax(&self, what: &'static str) -> JsonError {
        JsonError::Syntax(what, self.pos)
    }

    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    /// One value; `depth` counts the containers already open around it.
    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(JsonError::TooDeep(self.pos)),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::Str(Box::new(self.string()?))),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err(self.syntax("expected a value")),
        }
    }

    fn literal(&mut self, word: &'static str, value: Value) -> Result<Value, JsonError> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) != Some(word.as_bytes()) {
            return Err(self.syntax("expected a value"));
        }
        self.pos = end;
        Ok(value)
    }

    /// An object; the cursor is on its `{`.
    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(Box::new(pairs)));
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.syntax("expected a string key"));
            }
            let key = self.string()?;
            if self.peek() != Some(b':') {
                return Err(self.syntax("expected ':' after key"));
            }
            self.pos += 1;
            pairs.push((key, self.value(depth)?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(Box::new(pairs)));
                }
                _ => return Err(self.syntax("expected ',' or '}'")),
            }
        }
    }

    /// An array; the cursor is on its `[`.
    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(Box::new(items)));
        }
        loop {
            items.push(self.value(depth)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(Box::new(items)));
                }
                _ => return Err(self.syntax("expected ',' or ']'")),
            }
        }
    }

    /// A string literal; the cursor is on its opening quote.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // Both are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(self.text.get(start..self.pos).unwrap_or_default());
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                None => return Err(self.syntax("unterminated string")),
            }
        }
    }

    /// One escape sequence; the cursor is just past its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let byte = self.bytes.get(self.pos).copied();
        self.pos += 1;
        Ok(match byte {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) {
                    // A high surrogate must pair with an escaped low one.
                    if self.bytes.get(self.pos..self.pos + 2) != Some(&b"\\u"[..]) {
                        return Err(self.syntax("expected a low surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.syntax("expected a low surrogate"));
                    }
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
                char::from_u32(code).ok_or_else(|| self.syntax("expected a Unicode scalar"))?
            }
            _ => return Err(self.syntax("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.syntax("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// A numeric token, parsed straight from its byte slice.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        // The token is ASCII, so the slice is on char boundaries.
        let token = self.text.get(start..self.pos).unwrap_or_default();
        if !token.is_empty() && token.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            Ok(_) => Err(JsonError::NonFinite(start)),
            Err(_) => Err(JsonError::Syntax("expected a value", start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let v = parse(r#" {"a": [null, true, false, 7, -2, 1.5, 2e3, "x\u0041"], "b": {}} "#)
            .expect("valid");
        let items = v.get("a").and_then(Value::as_array).expect("array");
        assert_eq!(
            items,
            &[
                Value::Null,
                Value::Bool(true),
                Value::Bool(false),
                Value::Int(7),
                Value::Num(-2.0),
                Value::Num(1.5),
                Value::Num(2000.0),
                Value::Str(Box::new("xA".to_string())),
            ][..]
        );
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(items[7].as_str(), Some("xA"));
        assert_eq!(v.get("b").and_then(Value::as_object), Some(&[][..]));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Int(1).get("a"), None);
    }

    #[test]
    fn integers_stay_exact_and_only_digit_runs_are_ints() {
        let big = u64::MAX - 7;
        assert_eq!(parse(&big.to_string()), Ok(Value::Int(big)));
        // One past u64 falls back to a (rounded) float.
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Value::Num(18446744073709551616.0))
        );
        for not_u64 in ["-3", "1.9", "1e2", "0.0"] {
            let v = parse(not_u64).expect("number");
            assert_eq!(v.as_u64(), None, "{not_u64}");
            assert!(v.as_f64().is_some(), "{not_u64}");
        }
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Bool(true).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn non_finite_tokens_get_their_own_error() {
        assert_eq!(parse("[1, 1e999]"), Err(JsonError::NonFinite(4)));
        assert_eq!(parse("-1e999"), Err(JsonError::NonFinite(0)));
    }

    #[test]
    fn escapes_decode_and_quote_roundtrips() {
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00""#),
            Ok(Value::Str(Box::new("\"\\/\u{8}\u{c}\n\r\té😀".to_string())))
        );
        for s in [
            "plain",
            "a\"b\\c",
            "line\nfeed\r\ttab",
            "\u{1}\u{1f}",
            "ünï😀",
        ] {
            assert_eq!(
                parse(&quote(s)).ok().as_ref().and_then(Value::as_str),
                Some(s)
            );
        }
        assert_eq!(quote("a\"\n\u{1}"), r#""a\"\n\u0001""#);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "{a:1}",
            "\"open",
            "\"bad \\x escape\"",
            "\"\\ud800 lone\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "tru",
            "nul",
            "-",
            "{\"a\":1} extra",
            "[]]",
        ] {
            assert!(
                matches!(parse(bad), Err(JsonError::Syntax(..))),
                "accepted or misclassified: {bad:?} -> {:?}",
                parse(bad)
            );
        }
    }

    #[test]
    fn nesting_is_capped() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&past), Err(JsonError::TooDeep(MAX_DEPTH)));
        // Deep enough to overflow the stack of an unbounded recursive reader.
        for deep in ["{\"a\":".repeat(200_000), "[".repeat(200_000)] {
            assert!(matches!(parse(&deep), Err(JsonError::TooDeep(_))));
        }
    }
}
