//! A small JSON reader and the number/string formatting the writers share.
//!
//! The workspace has no serde_json and its two existing readers are private
//! to `hsan` and `hs-obs`; `compare` and the smoke test need to read
//! `BENCHMARK.json` and result records, so the benchmark carries its own.
//! Input is a file the user names: depth and size are bounded and nothing
//! panics on malformed text.

use std::collections::BTreeMap;

/// Nesting deeper than this is refused (the files read here nest 4 deep).
const MAX_DEPTH: usize = 32;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing text at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.b.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nested too deeply".to_string());
        }
        self.skip_ws();
        match self.b.get(self.pos) {
            None => Err("unexpected end of text".to_string()),
            Some(b'{') => {
                self.pos += 1;
                let mut m = BTreeMap::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Object(m));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.expect(b':')?;
                    m.insert(k, self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Object(m));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut v = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Array(v));
                }
                loop {
                    v.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Array(v));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.b.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.b.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs do not occur in the files read
                            // here; a lone surrogate becomes U+FFFD.
                            let ch = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// A finite `f64` with every digit it has (Rust prints the shortest text
/// that reads back to the same value). JSON has no NaN or infinity: those
/// print as 0 and the caller has already counted them as failures.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let v = parse(r#"{"a": [1, 2.5e-3, true, null], "b": {"c": "x\"\n"}}"#).expect("parses");
        let a = v.get("a").and_then(Value::as_array).expect("array");
        assert_eq!(a[1].as_f64(), Some(0.0025));
        assert_eq!(a[2].as_bool(), Some(true));
        let c = v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str);
        assert_eq!(c, Some("x\"\n"));
        assert_eq!(
            parse(&quote("x\"\n\u{1}")).expect("parses").as_str(),
            Some("x\"\n\u{1}")
        );
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn malformed_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"abc",
            "1 2",
            "nul",
            "\"\\u12\"",
            "--",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
        assert!(parse(&"[".repeat(100)).is_err());
    }
}
