//! Minimal JSON support: string escaping for the writers and a small
//! recursive-descent parser for the readers (`summary`, the [`schema`]
//! checker, serve and dist frames). Hand-rolled so the crate stays
//! dependency-free.
//!
//! [`schema`]: crate::schema

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The nesting bound every ingress parser enforces: arrays and objects
/// here, and the `.imp` syntax tree of `air_lang::parse_program`.
///
/// A stack overflow aborts the process and cannot be caught, so hostile
/// input must be cut off before it nests deep. The bound is sized for the
/// smallest stack that runs engines — serve pool workers on the default
/// 2 MiB thread stack — with room left for the engines' own recursion
/// over a program this deep: in a release build such a worker first
/// overflows between 1,000 and 2,000 levels (nested `if`s), a margin of
/// four or more. Real programs and documents nest a few dozen levels.
pub const MAX_NESTING: usize = 256;

/// Append `s` to `out` as a JSON string literal (including the quotes).
pub fn escape_str(s: &str, out: &mut String) {
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

/// Renders `s` as a freestanding JSON string literal (including the
/// quotes). Convenience over [`escape_str`] for `write!`-style renderers
/// that want an expression rather than an out-parameter.
pub fn str_lit(s: &str) -> String {
    let mut out = String::new();
    escape_str(s, &mut out);
    out
}

/// A parsed JSON value. Numbers are kept as `f64`, which is exact for the
/// integer ranges the trace format uses (< 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Field lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a complete JSON document; trailing garbage and arrays or objects
/// nested deeper than [`MAX_NESTING`] are errors.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a char boundary of `text`: the parser steps over single
    /// ASCII bytes and over string runs that stop at an ASCII byte.
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object a level deeper than the current one.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let hex = self
                                .bytes()
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the trace
                            // format; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash
                    // verbatim; both are ASCII, so the cut is a char
                    // boundary.
                    let rest = &self.bytes()[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
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
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parser() {
        let raw = "a\"b\\c\nd\te\u{1}f — π";
        let mut doc = String::from("{\"k\":");
        escape_str(raw, &mut doc);
        doc.push('}');
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(raw));
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":true,"d":null},"e":"x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-3.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn nesting_is_bounded() {
        let doc = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&doc(MAX_NESTING)).is_ok());
        let err = parse(&doc(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Far past the bound the parser stops at the bound, not the stack.
        assert!(parse(&doc(300_000)).is_err());
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn strings_copy_whole_runs_between_escapes() {
        let v = parse(r#"["ascii", "π≈3.14 — ok", "🦀 astral 𝔸", "a\"b\\c\u00e9d\n🦀e"]"#).unwrap();
        let strs: Vec<&str> = v
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(
            strs,
            ["ascii", "π≈3.14 — ok", "🦀 astral 𝔸", "a\"b\\céd\n🦀e"]
        );
        assert_eq!(parse("\"abc").unwrap_err(), "unterminated string");
        assert_eq!(parse("\"é\\").unwrap_err(), "unterminated escape");
        assert_eq!(parse("\"\\q\"").unwrap_err(), "bad escape '\\q'");
        // A 1 MiB string parses in one pass, not one re-validation of the
        // rest of the input per character.
        let big = "abcπ🦀".repeat((1 << 20) / 9 + 1);
        assert!(big.len() >= 1 << 20);
        let doc = format!("{{\"k\":\"{big}\"}}");
        assert_eq!(
            parse(&doc).unwrap().get("k").unwrap().as_str(),
            Some(big.as_str())
        );
    }
}
