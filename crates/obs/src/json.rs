//! A minimal JSON reader (the workspace has no serde_json) — enough to
//! re-parse the Chrome traces this workspace emits ([`crate::chrome::validate`],
//! the `validate_trace` binary) and to reject malformed hand edits, with the
//! byte offset of whatever was wrong.

use std::collections::BTreeMap;

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
    /// Member `key` of an object (`None` for a missing key or a
    /// non-object).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
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
}

/// How many arrays and objects may nest. The reader recurses once per
/// level, so a cap keeps hostile input from overflowing the stack; the
/// documents this workspace writes nest four deep at most.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document; anything but whitespace after it is an error,
/// and so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<Value, String> {
    let mut pos = 0usize;
    let v = value(s, &mut pos, 0)?;
    skip_ws(s.as_bytes(), &mut pos);
    if pos != s.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

/// The value at `pos`, inside `depth` enclosing arrays and objects.
fn value(s: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => object(s, pos, depth + 1),
        Some(b'[') => array(s, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(string(s, pos)?)),
        Some(b't') => lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => lit(b, pos, "null", Value::Null),
        Some(_) => number(b, pos),
    }
}

fn lit(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

/// The string whose opening quote is at `pos`. Copied a run at a time
/// between escapes: a run ends at an ASCII byte, so it is whole UTF-8
/// scalars and slices out of `s` as it stands.
fn string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        let run = *pos;
        while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
            *pos += 1;
        }
        out.push_str(&s[run..*pos]);
        match b.get(*pos) {
            None => return Err(format!("unterminated string at byte {pos}")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                let e = *b
                    .get(*pos + 1)
                    .ok_or_else(|| format!("unterminated escape at byte {pos}"))?;
                out.push(match e {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    // Surrogate pairs are not supported; none of our
                    // writers emits them.
                    b'u' => b
                        .get(*pos + 2..*pos + 6)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?,
                    _ => return Err(format!("unknown escape at byte {pos}")),
                });
                *pos += if e == b'u' { 6 } else { 2 };
            }
        }
    }
}

fn array(s: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(value(s, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected , or ] at byte {pos}")),
        }
    }
}

fn object(s: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    *pos += 1; // {
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = string(s, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected : at byte {pos}"));
        }
        *pos += 1;
        map.insert(key, value(s, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(format!("expected , or }} at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\nd\u0041é\u00e9\b\f""#).expect("parses");
        assert_eq!(v, Value::Str(String::from("a\"b\\c\ndAéé\u{8}\u{c}")));
    }

    #[test]
    fn reports_offsets_on_garbage() {
        let err = parse("{\"ordering\": zzz}").expect_err("garbage rejected");
        assert!(err.contains("byte 13"), "{err}");
        let err = parse("[1, 2] x").expect_err("trailing data rejected");
        assert!(err.contains("byte 7"), "{err}");
    }

    #[test]
    fn rejects_malformed_strings() {
        for bad in [
            r#""open"#,
            r#""esc\"#,
            r#""\q""#,
            r#""\u12""#,
            r#""\ud800""#,
            r#""\uzzzz""#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\": ".repeat(n) + "1" + &"}".repeat(n);
        for doc in [arrays, objects] {
            assert!(parse(&doc(MAX_DEPTH)).is_ok(), "{MAX_DEPTH} deep parses");
            let err = parse(&doc(MAX_DEPTH + 1)).expect_err("one deeper is refused");
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        // Far past the cap: an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
    }
}
