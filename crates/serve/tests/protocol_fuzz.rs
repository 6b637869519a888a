//! Protocol fuzzing: arbitrary byte junk, truncated JSON, mutated valid
//! lines, and interleaved pipelined requests against both the pure codec
//! (`serve::protocol`) and a live server. The decoder must answer every
//! line with a typed protocol response — never panic, never desynchronize
//! the connection, never hang.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use inspector::{FeatureBuilder, FeatureMode, Normalizer, SchedInspector};
use proptest::prelude::*;
use rlcore::BinaryPolicy;
use serve::protocol::{self, parse_request, parse_response, Response};
use serve::{serve, ServeConfig, ServerHandle};
use simhpc::Metric;

fn tiny_inspector() -> SchedInspector {
    let fb = FeatureBuilder {
        mode: FeatureMode::Manual,
        metric: Metric::Bsld,
        norm: Normalizer::new(64, 3600.0),
    };
    SchedInspector::new(BinaryPolicy::new(fb.dim(), 17), fb)
}

/// A syntactically valid infer line for the given dimension.
fn valid_infer(id: u64, dim: usize) -> String {
    let payload = (0..dim)
        .map(|i| format!("{:.3}", (i as f32) / (dim as f32)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"verb\":\"infer\",\"id\":{id},\"features\":[{payload}]}}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte junk through the request parser: `Ok` or `Err`,
    /// never a panic.
    #[test]
    fn parse_request_never_panics_on_junk(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_request(&line);
    }

    /// Same for the client-side response parser.
    #[test]
    fn parse_response_never_panics_on_junk(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_response(&line);
    }

    /// Every strict prefix of a valid request is a clean parse error:
    /// truncated JSON is rejected, not misread.
    #[test]
    fn truncated_requests_error_cleanly(
        // An id a JSON number carries exactly; beyond that the whole line
        // is refused, not only its prefixes.
        id in 0u64..(1 << 53),
        dim in 1usize..12,
        cut in any::<u64>(),
    ) {
        let line = valid_infer(id, dim);
        prop_assert!(parse_request(&line).is_ok());
        let at = (cut as usize) % line.len();
        // Cut on a char boundary (the line is pure ASCII).
        prop_assert!(parse_request(&line[..at]).is_err());
    }

    /// The wire `trace` field round-trips bit-exactly through the 16-hex
    /// string encoding on both requests and decision responses, for every
    /// nonzero 64-bit id.
    #[test]
    fn trace_ids_round_trip_bit_exactly(
        // Wire ids ride JSON numbers (f64), so stay in the exact range;
        // trace ids are hex *strings* precisely to dodge this.
        id in 0u64..(1 << 53),
        dim in 1usize..12,
        raw_trace in any::<u64>(),
        p in 0.0f32..1.0,
        reject in any::<bool>(),
    ) {
        let trace = raw_trace.max(1); // 0 is reserved (= untraced)
        let mut line = valid_infer(id, dim);
        line.truncate(line.len() - 1); // strip the closing brace
        line.push_str(&format!(",\"trace\":\"{trace:016x}\"}}"));
        match parse_request(&line) {
            Ok(serve::protocol::Request::Infer { trace: got, .. }) => {
                prop_assert_eq!(got, trace)
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut out = String::new();
        protocol::write_decision(
            &mut out,
            id,
            inspector::Decision { reject, p_reject: p },
            trace,
        );
        match parse_response(out.trim()) {
            Ok(Response::Decision { trace: got, .. }) => prop_assert_eq!(got, trace),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Legacy requests and responses — no `trace` field anywhere — parse
    /// exactly as before (trace 0), and the untraced response encoder
    /// emits a byte-identical legacy line.
    #[test]
    fn legacy_lines_parse_unchanged(id in 0u64..(1 << 53), dim in 1usize..12, p in 0.0f32..1.0) {
        let line = valid_infer(id, dim);
        match parse_request(&line) {
            Ok(serve::protocol::Request::Infer { id: got, trace, .. }) => {
                prop_assert_eq!(got, id);
                prop_assert_eq!(trace, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut out = String::new();
        protocol::write_decision(
            &mut out,
            id,
            inspector::Decision { reject: false, p_reject: p },
            0,
        );
        prop_assert!(!out.contains("trace"), "legacy line must not grow a trace field: {}", out);
        let legacy = format!(
            "{{\"id\":{id},\"ok\":true,\"decision\":\"accept\",\"p_reject\":{p}}}\n"
        );
        prop_assert_eq!(&out, &legacy, "untraced decision must stay byte-identical");
    }

    /// Single-byte mutations (insert, delete, flip) never panic the
    /// parser, and whatever parses still satisfies the request grammar.
    #[test]
    fn mutated_requests_never_panic(
        id in any::<u64>(),
        dim in 1usize..12,
        pos in any::<u64>(),
        byte in any::<u8>(),
        kind in 0u8..3,
    ) {
        let line = valid_infer(id, dim);
        let mut bytes = line.into_bytes();
        let at = (pos as usize) % bytes.len();
        match kind {
            0 => bytes.insert(at, byte),
            1 => {
                bytes.remove(at);
            }
            _ => bytes[at] ^= byte | 1,
        }
        let mutated = String::from_utf8_lossy(&bytes);
        // Parsing must terminate with Ok or Err — a mutation that happens
        // to survive is fine; a panic or hang is the bug.
        let _ = parse_request(&mutated);
    }
}

fn start(max_line_bytes: usize) -> (ServerHandle, usize) {
    let inspector = tiny_inspector();
    let dim = inspector.input_dim();
    let handle = serve(
        inspector,
        ServeConfig {
            max_line_bytes,
            ..ServeConfig::default()
        },
        obs::Telemetry::disabled(),
    )
    .expect("bind ephemeral port");
    (handle, dim)
}

/// What the fuzzer expects back for one pipelined line.
enum Expect {
    Decision(u64),
    BadDim(u64),
    Pong,
    Malformed,
}

/// A live server answering interleaved pipelined garbage: exactly one
/// typed response per non-empty line, in request order, and the
/// connection survives every malformed line.
#[test]
fn pipelined_junk_gets_one_typed_response_per_line() {
    let (handle, dim) = start(1 << 20);
    // A tiny deterministic generator keeps this reproducible without
    // threading proptest through socket setup.
    let mut state = 0xF022_5EEDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };

    for round in 0..48 {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        let mut batch = String::new();
        let mut expects = Vec::new();
        for i in 0..(1 + next() % 9) {
            let id = round * 100 + i;
            match next() % 6 {
                0 | 1 => {
                    batch.push_str(&valid_infer(id, dim));
                    expects.push(Expect::Decision(id));
                }
                2 => {
                    batch.push_str(&format!(
                        "{{\"verb\":\"infer\",\"id\":{id},\"features\":[1,2,3]}}"
                    ));
                    expects.push(Expect::BadDim(id));
                }
                3 => {
                    batch.push_str("{\"verb\":\"ping\"}");
                    expects.push(Expect::Pong);
                }
                4 => {
                    // Truncated valid JSON.
                    let line = valid_infer(id, dim);
                    let cut = 1 + (next() as usize) % (line.len() - 1);
                    batch.push_str(&line[..cut]);
                    expects.push(Expect::Malformed);
                }
                _ => {
                    // Raw junk: newline-free printable bytes, first char
                    // non-space so the server doesn't skip it as a blank
                    // line (blank lines get no response by design).
                    let mut junk = String::from("!");
                    junk.extend((0..(next() % 40)).map(|_| (0x20 + (next() % 0x5F)) as u8 as char));
                    // A junk draw could accidentally be valid JSON with a
                    // verb; overwhelmingly it is not, and the assertion
                    // below only demands *some* typed response.
                    batch.push_str(&junk);
                    expects.push(Expect::Malformed);
                }
            }
            batch.push('\n');
        }

        Write::write_all(&mut stream, batch.as_bytes()).unwrap();
        for (i, expect) in expects.iter().enumerate() {
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("round {round} line {i}: read failed: {e}"));
            assert!(
                !line.is_empty(),
                "round {round} line {i}: connection closed early"
            );
            let resp = parse_response(line.trim())
                .unwrap_or_else(|e| panic!("round {round} line {i}: bad response {line:?}: {e}"));
            match (expect, resp) {
                (Expect::Decision(want), Response::Decision { id, .. }) => {
                    assert_eq!(id, *want, "round {round} line {i}")
                }
                (Expect::BadDim(want), Response::Error { id, code, .. }) => {
                    assert_eq!(id, Some(*want), "round {round} line {i}");
                    assert_eq!(code, protocol::ERR_BAD_REQUEST, "round {round} line {i}");
                }
                (Expect::Pong, Response::Pong) => {}
                (Expect::Malformed, Response::Error { id, code, .. }) => {
                    assert_eq!(id, None, "round {round} line {i}");
                    assert_eq!(code, protocol::ERR_MALFORMED, "round {round} line {i}");
                }
                (_, other) => panic!("round {round} line {i}: unexpected {other:?}"),
            }
        }
    }
    handle.shutdown();
}

/// An oversized line (beyond `max_line_bytes`) gets a typed `malformed`
/// error and a clean close — not an unbounded buffer or a hang.
#[test]
fn oversized_line_is_rejected_with_typed_error() {
    let (handle, _dim) = start(4096);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let huge = "x".repeat(8192);
    Write::write_all(&mut stream, huge.as_bytes()).unwrap();
    Write::write_all(&mut stream, b"\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match parse_response(line.trim()).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(id, None);
            assert_eq!(code, protocol::ERR_MALFORMED);
        }
        other => panic!("unexpected {other:?}"),
    }
    // The server closes after flushing the error. Closing with unread
    // client bytes in its receive buffer surfaces as RST, so accept
    // either a clean EOF or a connection reset.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}
        Ok(n) => panic!("expected close, got {n} more bytes: {rest:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }
    handle.shutdown();
}
