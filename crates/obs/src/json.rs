//! Minimal JSON writer and parser.
//!
//! The workspace deliberately has no serde (nothing can be fetched in
//! this build environment), but the observability layer must *round-trip*
//! its artifacts: `metrics.json` and the benchmark's result files are read
//! back by `benchmark/` and by property tests. This module implements
//! exactly the subset both sides need — objects, arrays, strings with standard
//! escapes, `f64` numbers, booleans, and null — with a recursive-descent
//! parser and a writer whose output is byte-deterministic for a given
//! [`Value`]. The parser is linear in the input and refuses nesting
//! deeper than `MAX_DEPTH`, so no document can exhaust the stack.
//!
//! Numbers are stored as `f64` and written with Rust's shortest
//! round-trip `Display`, so any `f64` (and any integer with magnitude
//! below 2^53) survives `parse ∘ render` exactly.

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// workspace's own documents nest at most 6 levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON document. Object keys keep their textual order, so a
/// document written from sorted maps parses back into the same order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match), `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number payload as an unsigned integer (exact for < 2^53);
    /// `None` for a fraction, a negative number, or one ≥ 2^64.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            // `u64::MAX as f64` is exactly 2^64.
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64 => Some(n as u64),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with no whitespace. Deterministic: the same `Value`
    /// always yields the same bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(*n, out),
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    if n.is_finite() {
        // Shortest round-trip representation; integral values print
        // without a fractional part ("3", not "3.0"), which is valid
        // JSON and parses back to the same f64.
        let _ = write!(out, "{n}");
    } else {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    /// Parses one array or object with `f`, one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nested past {MAX_DEPTH} at offset {}", self.pos));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // No surrogate-pair support: the writer never
                            // emits \u for characters above U+001F.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next
                    // quote or backslash in one step: both are ASCII, so
                    // the run is a `&str` slice, valid without a check.
                    let rest = self
                        .src
                        .get(self.pos..)
                        .ok_or_else(|| format!("split character at offset {}", self.pos))?;
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    s.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self.src.get(start..self.pos).unwrap_or_default();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for src in ["null", "true", "false", "0", "-1.5", "1e3", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(parse(&v.render()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn shortest_float_repr_round_trips() {
        for n in [0.1, 1.0 / 3.0, 1234.5678, f64::MAX, f64::MIN_POSITIVE] {
            let v = Value::Num(n);
            assert_eq!(parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Arr(vec![Value::Num(1.0), Value::Null])),
            (
                "b \"quoted\"\n".into(),
                Value::Obj(vec![("x".into(), Value::Bool(true))]),
            ),
        ]);
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        // Byte-deterministic: render ∘ parse ∘ render is the identity.
        assert_eq!(parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = parse(" { \"k\" : [ 1 , \"a\\u0041\\t\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[1].as_str().unwrap(),
            "aA\t"
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested past 128"), "{err}");
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(200_000)).is_err());
    }

    #[test]
    fn megabyte_strings_parse() {
        // Runs of plain characters between escapes, multi-byte ones
        // among them, in one string of more than 1 MB.
        let want = "ab\"é\\".repeat(1 << 18);
        let doc = Value::Str(want.clone()).render();
        assert!(doc.len() > 1 << 20);
        assert_eq!(parse(&doc).unwrap().as_str(), Some(want.as_str()));
    }

    #[test]
    fn as_u64_refuses_what_does_not_fit() {
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn control_characters_escape() {
        let v = Value::Str("\u{1}".into());
        assert_eq!(v.render(), "\"\\u0001\"");
        assert_eq!(parse(&v.render()).unwrap(), v);
    }
}
