//! A dependency-free JSON value, writer, and parser.
//!
//! The harness needs machine-readable run reports (`rpb all --json ...`)
//! and must parse them back (`rpb report`, tests), but the workspace's
//! offline dependency policy (DESIGN.md §3) does not include `serde_json`.
//! This module implements the small JSON subset the reports use — objects,
//! arrays, strings, numbers, booleans, null — in both directions. It is a
//! report-generation utility, never on a benchmark hot path, so it is
//! compiled regardless of the `obs` feature.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive descent and `rpb serve` feeds it frames off the network, so
/// without a bound a frame of `[[[[…` overflows the connection thread's
/// stack; the reports and wire messages this module exists for nest 4 deep.
pub const MAX_NESTING: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 are exact,
    /// which covers every nanosecond total the harness emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered list of `(key, value)` pairs (insertion
    /// order preserved; duplicate keys are not merged).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a number from a `u64` (values above 2^53 lose precision,
    /// far beyond any value the harness produces).
    pub fn from_u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Builds a number from a `u128`, saturating at 2^53-ish precision.
    pub fn from_u128(v: u128) -> Json {
        Json::Num(v as f64)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset this module writes, which is the
    /// standard grammar minus exotic number forms it never needs). Nesting
    /// beyond [`MAX_NESTING`] is an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') | Some(b'f') | Some(b'n') => {
                if self.eat_keyword("true") {
                    Ok(Json::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(Json::Bool(false))
                } else if self.eat_keyword("null") {
                    Ok(Json::Null)
                } else {
                    Err(format!("unexpected keyword at byte {}", self.pos))
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one container with the nesting bound applied.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the longest escape-free, quote-free run in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_scalars() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Bool(false), "false"),
            (Json::from_u64(42), "42"),
            (Json::Str("hi".into()), "\"hi\""),
        ] {
            assert_eq!(v.to_string(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let s = v.to_string();
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    #[test]
    fn nested_round_trip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("bw".into())),
            ("best_ns".into(), Json::from_u64(123_456_789)),
            (
                "arr".into(),
                Json::Arr(vec![Json::from_u64(1), Json::Null, Json::Bool(false)]),
            ),
            (
                "nested".into(),
                Json::Obj(vec![("k".into(), Json::Num(1.5))]),
            ),
        ]);
        let s = v.to_string();
        assert_eq!(Json::parse(&s).unwrap(), v);
        assert_eq!(
            Json::parse(&s).unwrap().get("best_ns").unwrap().as_u64(),
            Some(123_456_789)
        );
    }

    #[test]
    fn parses_whitespace_and_negatives() {
        let v = Json::parse(" { \"a\" : [ -1.5 , 2e3 ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(-1.5));
        assert_eq!(arr[1].as_f64(), Some(2000.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&arrays(MAX_NESTING)).is_ok());
        assert_eq!(
            Json::parse(&arrays(MAX_NESTING + 1)).unwrap_err(),
            format!("nesting deeper than {MAX_NESTING} at byte {MAX_NESTING}")
        );
        let objects = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(Json::parse(&objects(MAX_NESTING)).is_ok());
        assert!(Json::parse(&objects(MAX_NESTING + 1)).is_err());
        // Siblings do not accumulate depth.
        assert!(Json::parse(&format!("[{}]", vec!["[[]]"; 1000].join(","))).is_ok());
        // What used to overflow the stack is a typed error.
        assert!(Json::parse(&"[".repeat(1_000_000))
            .unwrap_err()
            .starts_with("nesting deeper than"));
    }

    #[test]
    fn large_nanosecond_totals_are_exact() {
        // An hour in ns is ~3.6e12, far inside f64's 2^53 exact range.
        let ns: u64 = 3_600_000_000_000;
        let v = Json::from_u64(ns);
        assert_eq!(Json::parse(&v.to_string()).unwrap().as_u64(), Some(ns));
    }
}
