//! A minimal JSON parser, used to *validate* telemetry JSONL output in
//! tests and CI without pulling a serialization dependency into the
//! workspace.
//!
//! Supports the full JSON grammar except `\u` surrogate pairs (lone
//! escapes decode to the replacement character). Not built for speed —
//! it exists so a smoke run's sidecar file can be machine-checked.

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

    /// Append this value as compact JSON to `out`. Non-finite numbers
    /// encode as `null` (JSON has no NaN/Infinity), matching the telemetry
    /// encoder; everything written here re-parses with [`parse`].
    pub fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => {
                if n.is_finite() {
                    let _ = std::fmt::Write::write_fmt(out, format_args!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
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

/// Validate one telemetry JSONL line against the documented schema:
/// an object with a known `kind`, a string `name`, a finite number `t`,
/// and the kind's payload field. Returns the parsed object.
pub fn validate_telemetry_line(line: &str) -> Result<Json, String> {
    let v = parse(line)?;
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing string field \"kind\"")?
        .to_string();
    v.get("name")
        .and_then(Json::as_str)
        .ok_or("missing string field \"name\"")?;
    let t = v
        .get("t")
        .and_then(Json::as_f64)
        .ok_or("missing numeric field \"t\"")?;
    if !t.is_finite() || t < 0.0 {
        return Err(format!("timestamp {t} is not a finite non-negative number"));
    }
    let payload: &[&str] = match kind.as_str() {
        "span_open" => &[],
        "span_close" => &["dur"],
        "counter" => &["delta"],
        "gauge" | "histogram" => &["value"],
        "heartbeat" => &["epoch", "eps"],
        "registry_snapshot" => &["counters", "gauges", "histograms"],
        "trace_promoted" => &["spans"],
        "flight_record" => &["shard", "batch_seq", "generation", "start_ns", "end_ns"],
        other => return Err(format!("unknown event kind {other:?}")),
    };
    for field in payload {
        let present = matches!(
            v.get(field),
            Some(Json::Number(_)) | Some(Json::Null) // non-finite values encode as null
        );
        if !present {
            return Err(format!("kind {kind:?} requires numeric field {field:?}"));
        }
    }
    // Integer-valued fields must actually be non-negative integers.
    let integral: &[&str] = match kind.as_str() {
        "counter" => &["delta"],
        "heartbeat" => &["epoch"],
        "registry_snapshot" => &["counters", "gauges", "histograms"],
        "trace_promoted" => &["spans"],
        "flight_record" => &["shard", "batch_seq", "generation", "start_ns", "end_ns"],
        _ => &[],
    };
    for field in integral {
        if let Some(n) = v.get(field).and_then(Json::as_f64) {
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!(
                    "kind {kind:?} field {field:?} must be a non-negative integer, got {n}"
                ));
            }
        }
    }
    // Trace events carry 64-bit ids as 16-hex-digit strings; trace id 0
    // is reserved (= unsampled) and must never appear on a span line.
    let hex_ids: &[(&str, bool)] = match kind.as_str() {
        // (field, zero_allowed)
        "trace_promoted" => &[("trace", false)],
        "flight_record" => &[("trace", false), ("span", false), ("parent", true)],
        _ => &[],
    };
    for (field, zero_allowed) in hex_ids {
        let raw = v
            .get(field)
            .and_then(Json::as_str)
            .ok_or(format!("kind {kind:?} requires hex string field {field:?}"))?;
        let id = crate::trace::parse_hex16(raw).ok_or(format!(
            "kind {kind:?} field {field:?} is not a hex id: {raw:?}"
        ))?;
        if id == 0 && !zero_allowed {
            return Err(format!(
                "kind {kind:?} field {field:?} is 0 (reserved = unsampled)"
            ));
        }
    }
    if kind == "trace_promoted" {
        v.get("reason")
            .and_then(Json::as_str)
            .ok_or("kind \"trace_promoted\" requires string field \"reason\"")?;
    }
    if kind == "flight_record" {
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or("kind \"flight_record\" requires string field \"status\"")?;
        crate::trace::SpanStatus::parse(status).ok_or(format!("unknown span status {status:?}"))?;
    }
    Ok(v)
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

    #[test]
    fn validates_event_lines() {
        validate_telemetry_line(r#"{"kind":"counter","name":"x","t":0.5,"delta":2}"#)
            .expect("valid counter");
        validate_telemetry_line(r#"{"kind":"span_open","name":"epoch","t":0.0}"#)
            .expect("valid span open");
        assert!(validate_telemetry_line(r#"{"kind":"counter","name":"x","t":0.5}"#).is_err());
        assert!(validate_telemetry_line(r#"{"kind":"bogus","name":"x","t":0.5}"#).is_err());
        assert!(validate_telemetry_line(r#"{"name":"x","t":0.5}"#).is_err());
        assert!(
            validate_telemetry_line(r#"{"kind":"gauge","name":"x","t":-1,"value":1}"#).is_err()
        );
    }

    #[test]
    fn validates_heartbeat_and_registry_snapshot_lines() {
        validate_telemetry_line(
            r#"{"kind":"heartbeat","name":"train","t":1.0,"epoch":4,"eps":88.5}"#,
        )
        .expect("valid heartbeat");
        validate_telemetry_line(
            r#"{"kind":"registry_snapshot","name":"metrics_exporter","t":2.0,"counters":5,"gauges":3,"histograms":2}"#,
        )
        .expect("valid snapshot");
        // Missing payload fields.
        assert!(validate_telemetry_line(
            r#"{"kind":"heartbeat","name":"train","t":1.0,"epoch":4}"#
        )
        .is_err());
        assert!(validate_telemetry_line(
            r#"{"kind":"registry_snapshot","name":"m","t":2.0,"counters":5,"gauges":3}"#
        )
        .is_err());
        // Integer fields reject fractional or negative values.
        assert!(validate_telemetry_line(
            r#"{"kind":"heartbeat","name":"train","t":1.0,"epoch":4.5,"eps":1.0}"#
        )
        .is_err());
        assert!(validate_telemetry_line(
            r#"{"kind":"registry_snapshot","name":"m","t":2.0,"counters":-1,"gauges":0,"histograms":0}"#
        )
        .is_err());
    }

    #[test]
    fn validates_trace_event_lines_and_rejects_zero_trace_ids() {
        validate_telemetry_line(
            r#"{"kind":"trace_promoted","name":"serve.trace","t":0.5,"trace":"00000000000000ff","reason":"slow","spans":5}"#,
        )
        .expect("valid trace_promoted");
        validate_telemetry_line(
            r#"{"kind":"flight_record","name":"queue","t":0.5,"trace":"00000000000000ff","span":"0000000000000001","parent":"0000000000000000","status":"ok","shard":1,"batch_seq":3,"generation":2,"start_ns":10,"end_ns":20}"#,
        )
        .expect("valid flight_record");
        // Trace id 0 is reserved (= unsampled): reject on both kinds.
        assert!(validate_telemetry_line(
            r#"{"kind":"trace_promoted","name":"serve.trace","t":0.5,"trace":"0000000000000000","reason":"slow","spans":5}"#,
        )
        .is_err());
        assert!(validate_telemetry_line(
            r#"{"kind":"flight_record","name":"queue","t":0.5,"trace":"0000000000000000","span":"0000000000000001","parent":"0000000000000000","status":"ok","shard":1,"batch_seq":3,"generation":2,"start_ns":10,"end_ns":20}"#,
        )
        .is_err());
        // Span id 0 is equally invalid; parent 0 (root) is fine.
        assert!(validate_telemetry_line(
            r#"{"kind":"flight_record","name":"queue","t":0.5,"trace":"00000000000000ff","span":"0000000000000000","parent":"0000000000000000","status":"ok","shard":1,"batch_seq":3,"generation":2,"start_ns":10,"end_ns":20}"#,
        )
        .is_err());
        // Non-hex trace id, missing reason, unknown status.
        assert!(validate_telemetry_line(
            r#"{"kind":"trace_promoted","name":"serve.trace","t":0.5,"trace":"zz","reason":"slow","spans":5}"#,
        )
        .is_err());
        assert!(validate_telemetry_line(
            r#"{"kind":"trace_promoted","name":"serve.trace","t":0.5,"trace":"00000000000000ff","spans":5}"#,
        )
        .is_err());
        assert!(validate_telemetry_line(
            r#"{"kind":"flight_record","name":"queue","t":0.5,"trace":"00000000000000ff","span":"0000000000000001","parent":"0000000000000000","status":"exploded","shard":1,"batch_seq":3,"generation":2,"start_ns":10,"end_ns":20}"#,
        )
        .is_err());
    }

    #[test]
    fn every_event_kind_round_trips_through_the_validator() {
        use crate::Event;
        let events = [
            Event::SpanOpen { name: "s", t: 0.0 },
            Event::SpanClose {
                name: "s",
                t: 1.0,
                dur: 1.0,
            },
            Event::Counter {
                name: "c",
                t: 1.5,
                delta: 7,
            },
            Event::Gauge {
                name: "g",
                t: 2.0,
                value: -0.25,
            },
            Event::Histogram {
                name: "h",
                t: 2.5,
                value: 1e9,
            },
        ];
        for e in &events {
            let mut line = String::new();
            e.write_json(&mut line);
            let v = validate_telemetry_line(&line).expect("event encodes to valid line");
            assert_eq!(v.get("kind").and_then(Json::as_str), Some(e.kind()));
            assert_eq!(v.get("name").and_then(Json::as_str), Some(e.name()));
        }
    }
}
