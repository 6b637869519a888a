//! A minimal JSON parser and writer, so sidecars, wire protocols and
//! result files can be read and written without pulling a serialization
//! dependency into the workspace. The telemetry schema itself lives in
//! [`crate::event`]; this module only knows JSON.
//!
//! Supports the full JSON grammar except `\u` surrogate pairs (lone
//! escapes decode to the replacement character). Not built for speed.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. `BTreeMap` keeps key order deterministic for tests.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is a number that names
    /// exactly one: integral, not negative, and below 2^53 — from there on
    /// neighbouring integers parse to the same `f64`, so the digits on the
    /// wire are no longer known.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value's items, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Append this value as compact JSON to `out` (numbers through
    /// [`write_f64`]); everything written here re-parses with [`parse`].
    pub fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_f64(out, *n),
            Json::String(s) => escape_into(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write_json(&mut s);
        f.write_str(&s)
    }
}

/// Append `x` as a JSON number: a finite value in Rust's shortest
/// round-trip form, anything else as `null` (JSON has no NaN/Infinity).
/// The one copy of that rule — the telemetry encoder, [`Json::write_json`]
/// and the dist frame codec all write floats through it.
#[inline]
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = std::fmt::Write::write_fmt(out, format_args!("{x}"));
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a quoted, escaped JSON string to `out`.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting the recursive-descent parser accepts. The
/// parser recurses once per `[`/`{` level, so without a cap a short
/// adversarial input like `[[[[…` overflows the thread stack (an abort,
/// not a catchable error). 128 is far beyond any telemetry or protocol
/// payload while keeping worst-case stack use a few tens of KiB.
pub const MAX_DEPTH: usize = 128;

/// Parse one complete JSON value; trailing non-whitespace is an error.
/// Inputs nested deeper than [`MAX_DEPTH`] are rejected, not recursed into.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos).map(Json::String),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let tok = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    tok.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| format!("invalid number {tok:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
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
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        *pos += 4;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unknown escape \\{}", esc as char)),
                }
            }
            Some(&c) => {
                // Copy one UTF-8 character starting at `pos`.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = s.chars().next().expect("non-empty slice");
                if c < 0x20 {
                    return Err("unescaped control character in string".into());
                }
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("valid JSON");
        assert_eq!(
            v.get("a"),
            Some(&Json::Array(vec![
                Json::Number(1.0),
                Json::Number(2.5),
                Json::Number(-300.0)
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").and_then(Json::as_str), Some("x\ny"));
    }

    #[test]
    fn as_u64_is_only_an_integer_the_digits_name_exactly() {
        let int = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(int("0"), Some(0));
        assert_eq!(int("9007199254740991"), Some((1 << 53) - 1));
        assert_eq!(int("2e3"), Some(2000));
        // 2^53 and 2^53 + 1 are one f64: neither is known.
        for text in [
            "9007199254740992",
            "9007199254740993",
            "1e300",
            "-1",
            "-0.5",
            "1.9",
        ] {
            assert_eq!(int(text), None, "{text}");
        }
        assert_eq!(int("\"7\""), None);
        assert_eq!(int("null"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse(r#"{"a": 1} extra"#).is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Well past MAX_DEPTH: must return Err, not recurse to an abort.
        let deep_array = "[".repeat(100_000);
        assert!(parse(&deep_array).is_err());
        let mut deep_object = String::new();
        for _ in 0..100_000 {
            deep_object.push_str("{\"a\":");
        }
        assert!(parse(&deep_object).is_err());
        // Mixed nesting trips the same cap.
        let mixed: String = "[{\"k\":".repeat(50_000);
        assert!(parse(&mixed).is_err());
    }

    #[test]
    fn nesting_just_under_the_cap_still_parses() {
        let depth = MAX_DEPTH - 1;
        let text = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&text).is_ok());
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&over).is_err());
    }

    #[test]
    fn writer_output_reparses_to_the_same_value() {
        let cases = [
            r#"{"a": [1, 2.5, -300], "b": {"c": true, "d": null}, "e": "x\ny"}"#,
            r#"[]"#,
            r#"{}"#,
            r#""quote \" backslash \\ tab \t""#,
            r#"[0.125, -7, 1e300]"#,
        ];
        for case in cases {
            let v = parse(case).expect("valid JSON");
            let mut s = String::new();
            v.write_json(&mut s);
            assert_eq!(parse(&s).expect("writer emits valid JSON"), v, "{case}");
        }
    }

    #[test]
    fn writer_escapes_control_characters() {
        let v = Json::String("a\u{1}b".into());
        let mut s = String::new();
        v.write_json(&mut s);
        assert_eq!(s, r#""a\u0001b""#);
        assert_eq!(parse(&s).unwrap(), v);
        // Display goes through the same encoder.
        assert_eq!(v.to_string(), s);
    }

    #[test]
    fn writer_maps_non_finite_numbers_to_null() {
        let mut s = String::new();
        Json::Number(f64::INFINITY).write_json(&mut s);
        assert_eq!(s, "null");
    }
}
