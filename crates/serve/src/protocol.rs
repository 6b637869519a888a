//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line. Requests are parsed with
//! the hand-rolled `obs::json` codec; responses are emitted with the same
//! codec (structured payloads) or direct formatting (the infer hot path,
//! mirroring `obs::Event::write_json`).
//!
//! # Grammar
//!
//! ```text
//! request  = infer | stats | ping | shutdown
//! infer    = {"verb":"infer","id":N,"features":[x, ...][,"deadline_ms":N][,"trace":HEX16]}
//! stats    = {"verb":"stats"}
//! ping     = {"verb":"ping"}
//! shutdown = {"verb":"shutdown"}
//!
//! response = decision | error | pong | stats-reply | draining
//! decision = {"id":N,"ok":true,"decision":"accept"|"reject","p_reject":x[,"trace":HEX16]}
//! error    = {"id":N|null,"ok":false,"error":CODE,"detail":S[,"retry_after_ms":N]}
//! pong     = {"ok":true,"pong":true}
//! stats-reply = {"ok":true,"stats":{...}}
//! draining = {"ok":true,"draining":true}
//! ```
//!
//! Responses to one connection are written in the order its requests were
//! received. Clients should nevertheless correlate by `id`: ids are chosen
//! by the client and echoed verbatim. An `id` (or `deadline_ms`) is a
//! non-negative integer below 2^53, the range a JSON number carries
//! exactly; a line with any other number there is `malformed`, never
//! answered under the id a cast would have made of it.
//!
//! `trace` is an optional 64-bit trace context, encoded as a 16-hex-digit
//! string (JSON numbers go through f64 and would lose precision). Absent
//! means untraced — internally represented as trace id 0, which is
//! reserved and rejected if sent explicitly. A server echoes the id on the
//! decision so clients can correlate flight-recorder dumps with replies;
//! lines without the field are byte-identical to the pre-trace protocol.

use obs::json::{escape_into, parse, Json};
use obs::trace::{hex16, parse_hex16};

use inspector::Decision;

/// Error code: the request line was not valid protocol JSON.
pub const ERR_MALFORMED: &str = "malformed";
/// Error code: the request parsed but is semantically invalid (wrong
/// feature dimension, unknown verb, bad field type).
pub const ERR_BAD_REQUEST: &str = "bad_request";
/// Error code: the request queue is full; retry after `retry_after_ms`.
pub const ERR_OVERLOADED: &str = "overloaded";
/// Error code: the request sat in the queue past its deadline.
pub const ERR_DEADLINE: &str = "deadline_exceeded";
/// Error code: the server is draining and takes no new work.
pub const ERR_SHUTTING_DOWN: &str = "shutting_down";
/// Error code: the inference engine died (should never happen).
pub const ERR_INTERNAL: &str = "internal";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Decide accept/reject for one feature vector.
    Infer {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// The feature vector (must match the model's input dimension).
        features: Vec<f32>,
        /// Optional per-request deadline, milliseconds from receipt.
        deadline_ms: Option<u64>,
        /// Trace context (0 = untraced; the field is omitted on the wire).
        trace: u64,
    },
    /// Snapshot the server's counters and latency histograms.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and exit (if enabled in its config).
    Shutdown,
}

/// Parse one request line. The error string is safe to echo back in an
/// [`ERR_MALFORMED`]/[`ERR_BAD_REQUEST`] response's `detail`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse(line)?;
    let verb = v
        .get("verb")
        .and_then(Json::as_str)
        .ok_or("missing string field \"verb\"")?;
    match verb {
        "infer" => {
            let id = uint_field(&v, "id")?.ok_or("infer requires a numeric \"id\"")?;
            let raw = v
                .get("features")
                .and_then(Json::as_array)
                .ok_or("infer requires an array \"features\"")?;
            let mut features = Vec::with_capacity(raw.len());
            for x in raw {
                features.push(x.as_f64().ok_or("\"features\" must contain only numbers")? as f32);
            }
            let deadline_ms = uint_field(&v, "deadline_ms")?;
            let trace = parse_trace_field(&v)?;
            Ok(Request::Infer {
                id,
                features,
                deadline_ms,
                trace,
            })
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown verb {other:?}")),
    }
}

/// An integer field of a request or response: absent → `None`; present →
/// a value the sender's digits name exactly ([`Json::as_u64`]), never one
/// a cast made up — an `id` is echoed verbatim or not at all.
fn uint_field(v: &Json, key: &str) -> Result<Option<u64>, String> {
    let Some(x) = v.get(key) else { return Ok(None) };
    match (x.as_u64(), x.as_f64()) {
        (Some(n), _) => Ok(Some(n)),
        (None, Some(n)) => Err(format!(
            "\"{key}\" must be a non-negative integer below 2^53, got {n}"
        )),
        (None, None) => Err(format!("\"{key}\" must be a number")),
    }
}

/// Parse the optional `trace` field shared by requests and decisions:
/// absent → 0 (untraced); present → a nonzero 16-hex-digit string.
fn parse_trace_field(v: &Json) -> Result<u64, String> {
    match v.get("trace") {
        None => Ok(0),
        Some(t) => {
            let s = t
                .as_str()
                .ok_or("\"trace\" must be a hex string, not a number")?;
            match parse_hex16(s) {
                Some(0) => Err("trace id 0 is reserved (means untraced; omit the field)".into()),
                Some(id) => Ok(id),
                None => Err(format!("\"trace\" is not a 64-bit hex id: {s:?}")),
            }
        }
    }
}

/// Append a decision response line (with trailing newline). A nonzero
/// `trace` echoes the request's trace context; 0 keeps the legacy line
/// byte-identical.
pub fn write_decision(out: &mut String, id: u64, d: Decision, trace: u64) {
    use std::fmt::Write as _;
    let decision = if d.reject { "reject" } else { "accept" };
    let _ = write!(
        out,
        "{{\"id\":{id},\"ok\":true,\"decision\":\"{decision}\",\"p_reject\":{}",
        d.p_reject
    );
    if trace != 0 {
        let _ = write!(out, ",\"trace\":\"{}\"", hex16(trace));
    }
    out.push_str("}\n");
}

/// Append an error response line (with trailing newline). `detail` is
/// escaped; `id` of `None` encodes as `null` (line-level failures where no
/// id could be recovered).
pub fn write_error(
    out: &mut String,
    id: Option<u64>,
    code: &str,
    detail: &str,
    retry_after_ms: Option<u64>,
) {
    use std::fmt::Write as _;
    match id {
        Some(id) => {
            let _ = write!(out, "{{\"id\":{id},\"ok\":false,\"error\":\"{code}\"");
        }
        None => {
            let _ = write!(out, "{{\"id\":null,\"ok\":false,\"error\":\"{code}\"");
        }
    }
    out.push_str(",\"detail\":");
    escape_into(detail, out);
    if let Some(ms) = retry_after_ms {
        let _ = write!(out, ",\"retry_after_ms\":{ms}");
    }
    out.push_str("}\n");
}

/// Append a pong response line.
pub fn write_pong(out: &mut String) {
    out.push_str("{\"ok\":true,\"pong\":true}\n");
}

/// Append a draining acknowledgement line.
pub fn write_draining(out: &mut String) {
    out.push_str("{\"ok\":true,\"draining\":true}\n");
}

/// Append a stats response line wrapping the given snapshot.
pub fn write_stats(out: &mut String, stats: &Json) {
    out.push_str("{\"ok\":true,\"stats\":");
    stats.write_json(out);
    out.push_str("}\n");
}

/// A parsed server response (client side: loadgen, tests, tooling).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A served decision.
    Decision {
        /// Echoed request id.
        id: u64,
        /// `true` when the inspector rejected the scheduling decision.
        reject: bool,
        /// The policy's reject probability.
        p_reject: f32,
        /// Echoed trace context (0 = untraced).
        trace: u64,
    },
    /// A request- or line-level error.
    Error {
        /// Echoed request id (absent for unparseable lines).
        id: Option<u64>,
        /// One of the `ERR_*` codes.
        code: String,
        /// Backpressure hint, present with [`ERR_OVERLOADED`].
        retry_after_ms: Option<u64>,
    },
    /// Reply to `ping`.
    Pong,
    /// Reply to `stats`: the snapshot object.
    Stats(Json),
    /// Reply to `shutdown`: the server is draining.
    Draining,
}

/// Parse one response line.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = parse(line)?;
    let ok = v
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or("missing bool field \"ok\"")?;
    if !ok {
        let id = match v.get("id") {
            Some(Json::Null) => None,
            _ => uint_field(&v, "id")?,
        };
        let code = v
            .get("error")
            .and_then(Json::as_str)
            .ok_or("error response missing \"error\"")?
            .to_string();
        let retry_after_ms = uint_field(&v, "retry_after_ms")?;
        return Ok(Response::Error {
            id,
            code,
            retry_after_ms,
        });
    }
    if v.get("pong").is_some() {
        return Ok(Response::Pong);
    }
    if v.get("draining").is_some() {
        return Ok(Response::Draining);
    }
    if let Some(stats) = v.get("stats") {
        return Ok(Response::Stats(stats.clone()));
    }
    let id = uint_field(&v, "id")?.ok_or("decision response missing \"id\"")?;
    let reject = match v.get("decision").and_then(Json::as_str) {
        Some("reject") => true,
        Some("accept") => false,
        _ => return Err("decision response missing \"decision\"".into()),
    };
    let p_reject = v
        .get("p_reject")
        .and_then(Json::as_f64)
        .ok_or("decision response missing \"p_reject\"")? as f32;
    let trace = parse_trace_field(&v)?;
    Ok(Response::Decision {
        id,
        reject,
        p_reject,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request(r#"{"verb":"infer","id":7,"features":[0.5,1]}"#).unwrap(),
            Request::Infer {
                id: 7,
                features: vec![0.5, 1.0],
                deadline_ms: None,
                trace: 0
            }
        );
        assert_eq!(
            parse_request(r#"{"verb":"infer","id":1,"features":[],"deadline_ms":250}"#).unwrap(),
            Request::Infer {
                id: 1,
                features: vec![],
                deadline_ms: Some(250),
                trace: 0
            }
        );
        assert_eq!(
            parse_request(r#"{"verb":"infer","id":1,"features":[1],"trace":"00ff0000000000ab"}"#)
                .unwrap(),
            Request::Infer {
                id: 1,
                features: vec![1.0],
                deadline_ms: None,
                trace: 0x00ff_0000_0000_00ab
            }
        );
        assert_eq!(
            parse_request(r#"{"verb":"stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(parse_request(r#"{"verb":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"verb":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("{").is_err());
        assert!(parse_request(r#"{"verb":"nope"}"#).is_err());
        assert!(parse_request(r#"{"verb":"infer","features":[1]}"#).is_err());
        assert!(parse_request(r#"{"verb":"infer","id":1,"features":[true]}"#).is_err());
        assert!(parse_request(r#"{"verb":"infer","id":1}"#).is_err());
        // Trace ids must be nonzero hex strings.
        assert!(
            parse_request(r#"{"verb":"infer","id":1,"features":[1],"trace":7}"#).is_err(),
            "numeric trace must be rejected"
        );
        assert!(parse_request(r#"{"verb":"infer","id":1,"features":[1],"trace":"xyz"}"#).is_err());
        assert!(
            parse_request(r#"{"verb":"infer","id":1,"features":[1],"trace":"0000000000000000"}"#)
                .is_err(),
            "trace id 0 is reserved"
        );
    }

    #[test]
    fn an_integer_field_is_checked_not_cast() {
        // Each of these was answered under another id (0, 1, 2^64 - 1,
        // 2^53) or, for the deadline, as 0 ms.
        for (field, value) in [
            ("id", "-5"),
            ("id", "1.9"),
            ("id", "1e300"),
            ("id", "9007199254740993"),
            ("deadline_ms", "-1"),
        ] {
            let id = if field == "id" { value } else { "1" };
            let deadline = if field == "id" { "250" } else { value };
            let line =
                format!(r#"{{"verb":"infer","id":{id},"features":[1],"deadline_ms":{deadline}}}"#);
            let detail = parse_request(&line).expect_err(&line);
            assert!(detail.contains(&format!("{field:?}")), "{line}: {detail}");
            let got = value.parse::<f64>().unwrap().to_string();
            assert!(detail.contains(&got), "{line}: {detail}");
        }
        // The largest id a JSON number carries exactly is still echoed.
        let max = (1u64 << 53) - 1;
        match parse_request(&format!(r#"{{"verb":"infer","id":{max},"features":[1]}}"#)) {
            Ok(Request::Infer { id, .. }) => assert_eq!(id, max),
            other => panic!("unexpected {other:?}"),
        }
        // The same rule reads replies: an id a client could not have sent
        // is not turned into one it did.
        assert!(
            parse_response(r#"{"id":-5,"ok":true,"decision":"accept","p_reject":0.5}"#).is_err()
        );
        assert!(
            parse_response(r#"{"id":1.5,"ok":false,"error":"overloaded","detail":""}"#).is_err()
        );
    }

    #[test]
    fn decision_roundtrip() {
        let mut out = String::new();
        write_decision(
            &mut out,
            42,
            Decision {
                reject: true,
                p_reject: 0.8125,
            },
            0,
        );
        assert!(out.ends_with('\n'));
        assert!(
            !out.contains("trace"),
            "untraced decision must keep the legacy wire shape: {out}"
        );
        match parse_response(out.trim()).unwrap() {
            Response::Decision {
                id,
                reject,
                p_reject,
                trace,
            } => {
                assert_eq!(id, 42);
                assert!(reject);
                assert_eq!(p_reject, 0.8125);
                assert_eq!(trace, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn traced_decision_echoes_full_width_trace_id() {
        let mut out = String::new();
        write_decision(
            &mut out,
            9,
            Decision {
                reject: false,
                p_reject: 0.25,
            },
            0xdead_beef_0000_0001,
        );
        assert!(out.contains("\"trace\":\"deadbeef00000001\""), "{out}");
        match parse_response(out.trim()).unwrap() {
            Response::Decision { trace, .. } => assert_eq!(trace, 0xdead_beef_0000_0001),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn float_payloads_survive_the_wire_bit_exactly() {
        // `{}` prints the shortest representation that re-parses to the
        // same f32 — including through an f64 intermediate.
        for p in [0.1f32, 1.0 / 3.0, f32::MIN_POSITIVE, 0.999_999_94] {
            let mut out = String::new();
            write_decision(
                &mut out,
                1,
                Decision {
                    reject: false,
                    p_reject: p,
                },
                0,
            );
            match parse_response(out.trim()).unwrap() {
                Response::Decision { p_reject, .. } => assert_eq!(p_reject, p),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn error_roundtrip_with_retry_hint() {
        let mut out = String::new();
        write_error(
            &mut out,
            Some(3),
            ERR_OVERLOADED,
            "queue full \"now\"",
            Some(12),
        );
        match parse_response(out.trim()).unwrap() {
            Response::Error {
                id,
                code,
                retry_after_ms,
            } => {
                assert_eq!(id, Some(3));
                assert_eq!(code, ERR_OVERLOADED);
                assert_eq!(retry_after_ms, Some(12));
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut out = String::new();
        write_error(&mut out, None, ERR_MALFORMED, "bad line", None);
        match parse_response(out.trim()).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!(id, None);
                assert_eq!(code, ERR_MALFORMED);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn control_responses_roundtrip() {
        let mut out = String::new();
        write_pong(&mut out);
        assert_eq!(parse_response(out.trim()).unwrap(), Response::Pong);
        out.clear();
        write_draining(&mut out);
        assert_eq!(parse_response(out.trim()).unwrap(), Response::Draining);
        out.clear();
        let snapshot = crate::stats::ServerStats::new(8, 16).to_json();
        write_stats(&mut out, &snapshot);
        match parse_response(out.trim()).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.get("input_dim").and_then(Json::as_f64), Some(8.0))
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
