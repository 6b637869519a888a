//! The chaos soak: drive a real [`serve`] server through a seeded
//! [`FaultPlan`](crate::FaultPlan) and check the invariants that must
//! survive *any* fault sequence:
//!
//! 1. no server thread panics;
//! 2. every accepted infer request terminates exactly once — the ledger
//!    `requests == ok + deadline_exceeded + overloaded + bad_dim +
//!    draining_rejected` balances after the drain;
//! 3. per connection, responses are an in-order prefix of the expected
//!    response sequence (nothing reordered, nothing duplicated, nothing
//!    invented);
//! 4. clients never observe more outcomes of a category than the server
//!    counted;
//! 5. the `/metrics` exposition agrees exactly with the `stats` counters
//!    (same atomics, zero drift);
//! 6. graceful shutdown still drains — enforced by a watchdog that prints
//!    the `(fault_seed, workload_seed)` reproduction pair and exits if the
//!    drain hangs.
//!
//! Every failure message embeds the seed pair, and
//! [`ChaosConfig::new`] derives everything else from it, so a red run is
//! reproducible from the printed seeds alone.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use inspector::{FeatureBuilder, FeatureMode, Normalizer, SchedInspector};
use obs::trace::{derive_trace_id, hex16, splitmix64, summarize};
use obs::{SpanStatus, Telemetry};
use rlcore::BinaryPolicy;
use serve::protocol::{self, Response};
use serve::{serve_with, ServeConfig, TraceConfig};
use simhpc::Metric;

use crate::fault::{render_fault_log, FaultConfig, FaultPlan, SplitMix64};

/// What one request line expects back.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// Infer with this id: a decision or a typed id-carrying error.
    /// `trace` is the id stamped on the wire (0 = untraced soak).
    Infer { id: u64, trace: u64 },
    /// A pong.
    Ping,
    /// Junk: a `malformed` error with no id.
    Junk,
}

/// Soak parameters. All randomness derives from the two seeds.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault schedule.
    pub fault: FaultConfig,
    /// Seed of the client workload (request mix, feature values).
    pub workload_seed: u64,
    /// Concurrent client threads (each owns its connections serially).
    pub clients: usize,
    /// Connections each client opens, one after another.
    pub conns_per_client: usize,
    /// Request lines pipelined per connection.
    pub requests_per_conn: usize,
    /// Engine shards (consistent per-connection routing). The default soak
    /// uses 2 so every run exercises the sharded handoff path and the
    /// per-shard ledger reconciliation below.
    pub shards: usize,
    /// Abort the run (exit code 3, after printing the seed pair) if the
    /// post-soak drain takes longer than this. 0 disables the watchdog.
    pub watchdog_secs: u64,
    /// Mid-soak model hot-swaps to publish while clients hammer the
    /// server (0 disables). Each swap installs a differently-seeded
    /// network of the same shape; the harness then asserts the exact
    /// request ledger *still* balances, `serve.model.generation` advanced
    /// by exactly this count, and `/metrics` agrees — i.e. zero requests
    /// were dropped or misrouted across any swap.
    pub swaps: u64,
    /// Stamp a trace id on every infer line and, after the drain, assert
    /// that every request a client saw a terminal answer for reconstructs
    /// from the flight recorder as a complete span chain — gap-free
    /// decision chain or deliberate `dropped` terminal — whose status
    /// matches the observed outcome and whose model generation is one the
    /// server actually published.
    pub trace: bool,
}

impl ChaosConfig {
    /// The standard soak for a `(fault_seed, workload_seed)` pair.
    pub fn new(fault_seed: u64, workload_seed: u64) -> Self {
        ChaosConfig {
            fault: FaultConfig::standard(fault_seed),
            workload_seed,
            clients: 4,
            conns_per_client: 8,
            requests_per_conn: 6,
            shards: 2,
            watchdog_secs: 60,
            swaps: 0,
            trace: false,
        }
    }
}

/// Client-side tallies, accumulated across all connections.
#[derive(Debug, Default, Clone)]
pub struct ClientTally {
    /// Infer lines written (whether or not a response arrived).
    pub infer_sent: u64,
    /// Decisions received.
    pub decisions: u64,
    /// `deadline_exceeded` errors received.
    pub deadline: u64,
    /// `overloaded` errors with an id (queue-full rejections).
    pub overloaded: u64,
    /// `overloaded` errors without an id (accept-time connection-limit rejections).
    pub accept_overloaded: u64,
    /// `bad_request` errors received (wrong-dimension infers).
    pub bad_request: u64,
    /// `malformed` errors received (junk lines).
    pub malformed: u64,
    /// `shutting_down` errors received.
    pub draining: u64,
    /// Pongs received.
    pub pongs: u64,
    /// Connections that ended early (reset, EOF, timeout).
    pub conn_errors: u64,
    /// `(trace_id, terminal status)` for every traced infer the client got
    /// an answer for — the population the flight-recorder audit replays.
    pub traced: Vec<(u64, SpanStatus)>,
    /// Ordering/correlation violations (must stay empty).
    pub violations: Vec<String>,
}

impl ClientTally {
    fn merge(&mut self, other: ClientTally) {
        self.infer_sent += other.infer_sent;
        self.decisions += other.decisions;
        self.deadline += other.deadline;
        self.overloaded += other.overloaded;
        self.accept_overloaded += other.accept_overloaded;
        self.bad_request += other.bad_request;
        self.malformed += other.malformed;
        self.draining += other.draining;
        self.pongs += other.pongs;
        self.conn_errors += other.conn_errors;
        self.traced.extend(other.traced);
        self.violations.extend(other.violations);
    }
}

/// Everything the soak observed, plus the invariant verdict.
#[derive(Debug)]
pub struct ChaosReport {
    /// The seed pair that reproduces this run.
    pub fault_seed: u64,
    /// See [`ChaosReport::fault_seed`].
    pub workload_seed: u64,
    /// Aggregated client observations.
    pub client: ClientTally,
    /// Server counters after the drain, as `(name, value)` pairs.
    pub server: Vec<(String, u64)>,
    /// Invariant violations (empty = green run).
    pub violations: Vec<String>,
    /// Rendered fault log (the CI artifact on failure).
    pub fault_log: String,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary (one screen).
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos soak: fault_seed={} workload_seed={}\n",
            self.fault_seed, self.workload_seed
        );
        out.push_str(&format!(
            "client: {} infers sent, {} decisions, {} deadline, {} overloaded, {} bad_request, \
             {} malformed, {} draining, {} pongs, {} conn errors\n",
            self.client.infer_sent,
            self.client.decisions,
            self.client.deadline,
            self.client.overloaded,
            self.client.bad_request,
            self.client.malformed,
            self.client.draining,
            self.client.pongs,
            self.client.conn_errors
        ));
        out.push_str("server: ");
        for (name, value) in &self.server {
            out.push_str(&format!("{name}={value} "));
        }
        out.push('\n');
        out.push_str(&format!(
            "faults injected: {}\n",
            self.fault_log.lines().count()
        ));
        if self.violations.is_empty() {
            out.push_str("PASS: all invariants held\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
            out.push_str(&format!(
                "reproduce with: cargo run -p testkit --bin chaos -- \
                 --fault-seed {} --workload-seed {}\n",
                self.fault_seed, self.workload_seed
            ));
        }
        out
    }
}

fn tiny_inspector(seed: u64) -> SchedInspector {
    let fb = FeatureBuilder {
        mode: FeatureMode::Manual,
        metric: Metric::Bsld,
        norm: Normalizer::new(64, 3600.0),
    };
    SchedInspector::new(BinaryPolicy::new(fb.dim(), seed), fb)
}

/// Run one soak to completion and report.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let inspector = tiny_inspector(cfg.workload_seed);
    let dim = inspector.input_dim();
    let plan = FaultPlan::new(cfg.fault);
    let fault_log_handle = plan.log();
    // Traced soaks keep promotion out of the picture (unreachable slow
    // threshold, no journal): the audit below reads the ring directly, so
    // it exercises recording under faults without conflating sink I/O.
    let trace = cfg.trace.then_some(TraceConfig {
        ring_capacity: 1 << 13,
        slow_us: u64::MAX,
        store_dir: None,
        dump_path: None,
    });
    let handle = serve_with(
        inspector,
        ServeConfig {
            shards: cfg.shards.max(1),
            // Shutdown is driven by the harness, not by a (possibly
            // corrupted) wire verb.
            allow_shutdown_verb: false,
            read_timeout_ms: 10,
            trace,
            ..ServeConfig::default()
        },
        Telemetry::disabled(),
        plan,
    )
    .expect("bind chaos server");
    let addr = handle.addr();

    let mut client = ClientTally::default();
    let mut swap_violations: Vec<String> = Vec::new();
    // Scoped so the mid-soak swapper can borrow the server handle while
    // client threads hammer it.
    let swaps_done: u64 = std::thread::scope(|s| {
        let mut threads = Vec::new();
        for client_idx in 0..cfg.clients.max(1) {
            let cfg = cfg.clone();
            threads.push(s.spawn(move || {
                let mut rng = SplitMix64::for_conn(cfg.workload_seed, client_idx as u64);
                let mut tally = ClientTally::default();
                for conn in 0..cfg.conns_per_client {
                    // Request ids restart at 1 per connection, so trace
                    // ids are derived under a globally unique tag.
                    let conn_tag = (client_idx * cfg.conns_per_client + conn) as u64;
                    run_connection(addr, dim, &cfg, conn_tag, &mut rng, &mut tally);
                }
                tally
            }));
        }
        let swapper = (cfg.swaps > 0).then(|| {
            s.spawn(|| -> Result<u64, String> {
                let base = handle.model_generation();
                for i in 1..=cfg.swaps {
                    // A different same-shape network per generation,
                    // derived from the workload seed for reproducibility.
                    let net = tiny_inspector(cfg.workload_seed ^ (0xA11C_E000 + i))
                        .policy
                        .mlp()
                        .clone();
                    handle
                        .swap_model(base + i, net)
                        .map_err(|e| format!("mid-soak swap {i} rejected: {e}"))?;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(cfg.swaps)
            })
        });
        for t in threads {
            match t.join() {
                Ok(tally) => client.merge(tally),
                Err(_) => client.violations.push("client thread panicked".to_string()),
            }
        }
        match swapper.map(|sw| sw.join()) {
            None => 0,
            Some(Ok(Ok(done))) => done,
            Some(Ok(Err(msg))) => {
                swap_violations.push(msg);
                0
            }
            Some(Err(_)) => {
                swap_violations.push("swapper thread panicked".to_string());
                0
            }
        }
    });

    // The drain must finish; a hang is itself an invariant violation. The
    // watchdog prints the reproduction pair before killing the process so
    // CI logs are actionable.
    let drained = Arc::new(AtomicBool::new(false));
    if cfg.watchdog_secs > 0 {
        let drained = Arc::clone(&drained);
        let (fs, ws) = (cfg.fault.seed, cfg.workload_seed);
        let deadline = cfg.watchdog_secs * 10;
        std::thread::spawn(move || {
            for _ in 0..deadline {
                if drained.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            eprintln!(
                "chaos watchdog: drain hung; reproduce with \
                 --fault-seed {fs} --workload-seed {ws}"
            );
            std::process::exit(3);
        });
    }
    let stats = handle.stats();
    let registry = handle.registry();
    let final_generation = handle.model_generation();
    let recorder = handle.recorder();
    handle.shutdown();
    drained.store(true, Ordering::SeqCst);

    // Invariant checks against the post-drain counters.
    let mut violations = std::mem::take(&mut client.violations);
    violations.extend(swap_violations);
    // Flight-recorder audit: every request a client holds a terminal
    // answer for is ledgered, so its spans must reconstruct into a
    // complete chain (gap-free decision chain, or a deliberate `dropped`
    // terminal) whose status matches the outcome the client observed and
    // whose model generation is one the server actually published.
    if cfg.trace {
        for (trace_id, want) in &client.traced {
            let spans = recorder.collect(*trace_id);
            match summarize(&spans) {
                Err(e) => violations.push(format!(
                    "trace {} ({} spans) does not reconstruct: {e} \
                     (fault_seed {}, workload_seed {})",
                    hex16(*trace_id),
                    spans.len(),
                    cfg.fault.seed,
                    cfg.workload_seed
                )),
                Ok(s) => {
                    if s.status != *want {
                        violations.push(format!(
                            "trace {} reconstructs as {:?} but the client observed {:?}",
                            hex16(*trace_id),
                            s.status,
                            want
                        ));
                    }
                    if s.model_generation > final_generation {
                        violations.push(format!(
                            "trace {} claims generation {} but the server only reached {}",
                            hex16(*trace_id),
                            s.model_generation,
                            final_generation
                        ));
                    }
                }
            }
        }
    }
    if cfg.swaps > 0 {
        if swaps_done != cfg.swaps {
            violations.push(format!(
                "only {swaps_done} of {} mid-soak swaps were published",
                cfg.swaps
            ));
        }
        if stats.model_swaps.get() != swaps_done {
            violations.push(format!(
                "server counted {} model swaps, harness published {swaps_done}",
                stats.model_swaps.get()
            ));
        }
        if final_generation != swaps_done {
            violations.push(format!(
                "serve.model.generation is {final_generation} after {swaps_done} swaps"
            ));
        }
        if stats.model_generation.get() != final_generation as f64 {
            violations.push(format!(
                "model generation gauge {} disagrees with engine generation {final_generation}",
                stats.model_generation.get()
            ));
        }
    }
    if stats.thread_panics.get() != 0 {
        violations.push(format!(
            "{} server thread(s) panicked",
            stats.thread_panics.get()
        ));
    }
    if stats.accounted_requests() != stats.requests.get() {
        violations.push(format!(
            "request ledger does not balance: {} requests vs {} accounted \
             (ok {} + deadline {} + overloaded {} + bad_dim {} + draining {})",
            stats.requests.get(),
            stats.accounted_requests(),
            stats.ok.get(),
            stats.deadline_exceeded.get(),
            stats.overloaded.get(),
            stats.bad_dim.get(),
            stats.draining_rejected.get(),
        ));
    }
    let bounded = [
        ("decisions", client.decisions, "ok", stats.ok.get()),
        (
            "deadline errors",
            client.deadline,
            "deadline_exceeded",
            stats.deadline_exceeded.get(),
        ),
        (
            "overloaded errors",
            client.overloaded,
            "overloaded",
            stats.overloaded.get(),
        ),
        (
            "accept-overload errors",
            client.accept_overloaded,
            "accept_overloaded",
            stats.accept_overloaded.get(),
        ),
        (
            "bad_request errors",
            client.bad_request,
            "bad_dim",
            stats.bad_dim.get(),
        ),
        (
            "draining errors",
            client.draining,
            "draining_rejected",
            stats.draining_rejected.get(),
        ),
    ];
    for (what, seen, counter, counted) in bounded {
        if seen > counted {
            violations.push(format!(
                "clients observed {seen} {what} but the server only counted {counted} ({counter})"
            ));
        }
    }
    // Per-shard ledger: the engine-owned outcome counters must reconcile
    // exactly with their shard-level breakdown — a lost or double-counted
    // handoff between the lock-free rings and a shard's inference thread
    // would show up here first.
    if stats.shards.len() != cfg.shards.max(1) {
        violations.push(format!(
            "expected {} shard stat blocks, found {}",
            cfg.shards.max(1),
            stats.shards.len()
        ));
    }
    for (what, global, per_shard) in [
        (
            "ok",
            stats.ok.get(),
            stats.shards.iter().map(|s| s.ok.get()).sum::<u64>(),
        ),
        (
            "deadline_exceeded",
            stats.deadline_exceeded.get(),
            stats
                .shards
                .iter()
                .map(|s| s.deadline_exceeded.get())
                .sum::<u64>(),
        ),
        (
            "overloaded",
            stats.overloaded.get(),
            stats.shards.iter().map(|s| s.overloaded.get()).sum::<u64>(),
        ),
        (
            "batched_requests",
            stats.batched_requests.get(),
            stats
                .shards
                .iter()
                .map(|s| s.batched_requests.get())
                .sum::<u64>(),
        ),
        (
            "batches",
            stats.batches.get(),
            stats.shards.iter().map(|s| s.batches.get()).sum::<u64>(),
        ),
    ] {
        if global != per_shard {
            violations.push(format!(
                "shard ledger does not reconcile: global {what} {global} vs shard sum {per_shard}"
            ));
        }
    }
    // Wire totals: the server cannot have received more infer requests
    // than clients wrote (faults drop bytes, never invent them).
    if stats.requests.get() > client.infer_sent {
        violations.push(format!(
            "server counted {} infer requests but clients only sent {}",
            stats.requests.get(),
            client.infer_sent
        ));
    }
    // /metrics must expose the exact same atomics as the stats verb.
    let mut exposition = String::new();
    registry.render(&mut exposition);
    for (metric, value) in [
        ("schedinspector_serve_requests_total", stats.requests.get()),
        ("schedinspector_serve_ok_total", stats.ok.get()),
        (
            "schedinspector_serve_malformed_total",
            stats.malformed.get(),
        ),
        (
            "schedinspector_serve_thread_panics_total",
            stats.thread_panics.get(),
        ),
    ] {
        match exposition_value(&exposition, metric) {
            Some(got) if got == value as f64 => {}
            Some(got) => violations.push(format!(
                "/metrics disagrees with stats: {metric} exposes {got} vs counter {value}"
            )),
            None => violations.push(format!("/metrics is missing {metric}")),
        }
    }
    match exposition_value(&exposition, "schedinspector_serve_model_generation") {
        Some(got) if got == final_generation as f64 => {}
        Some(got) => violations.push(format!(
            "/metrics model generation {got} disagrees with engine generation {final_generation}"
        )),
        None => violations.push("/metrics is missing schedinspector_serve_model_generation".into()),
    }

    let fault_log = {
        let records = fault_log_handle.lock().unwrap();
        render_fault_log(&records)
    };
    let server = vec![
        ("requests".to_string(), stats.requests.get()),
        ("ok".to_string(), stats.ok.get()),
        (
            "deadline_exceeded".to_string(),
            stats.deadline_exceeded.get(),
        ),
        ("overloaded".to_string(), stats.overloaded.get()),
        (
            "accept_overloaded".to_string(),
            stats.accept_overloaded.get(),
        ),
        ("bad_dim".to_string(), stats.bad_dim.get()),
        (
            "draining_rejected".to_string(),
            stats.draining_rejected.get(),
        ),
        ("malformed".to_string(), stats.malformed.get()),
        ("connections".to_string(), stats.connections.get()),
        ("thread_panics".to_string(), stats.thread_panics.get()),
        ("model_swaps".to_string(), stats.model_swaps.get()),
        ("model_generation".to_string(), final_generation),
        ("traced_requests".to_string(), client.traced.len() as u64),
    ];
    ChaosReport {
        fault_seed: cfg.fault.seed,
        workload_seed: cfg.workload_seed,
        client,
        server,
        violations,
        fault_log,
    }
}

/// Extract a sample value from rendered Prometheus text.
fn exposition_value(text: &str, metric: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(metric)?;
        rest.trim().parse::<f64>().ok()
    })
}

/// One connection: pipeline a seeded request mix, then read responses and
/// check they form an in-order prefix of the expected sequence.
fn run_connection(
    addr: std::net::SocketAddr,
    dim: usize,
    cfg: &ChaosConfig,
    conn_tag: u64,
    rng: &mut SplitMix64,
    tally: &mut ClientTally,
) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        tally.conn_errors += 1;
        return;
    };
    let _ = stream.set_nodelay(true);
    // Bounded patience: a faulted connection that goes quiet is abandoned,
    // never waited on indefinitely.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            tally.conn_errors += 1;
            return;
        }
    };

    // Trace-id derivation: request ids restart at 1 on every connection,
    // so the per-connection tag keeps ids globally unique for the ring.
    let trace_seed = splitmix64(cfg.workload_seed ^ (0x72AC_E000 + conn_tag));
    let trace_for = |id: u64| {
        if cfg.trace {
            derive_trace_id(trace_seed, id)
        } else {
            0
        }
    };
    let trace_suffix = |trace: u64| {
        if trace != 0 {
            format!(",\"trace\":\"{}\"", hex16(trace))
        } else {
            String::new()
        }
    };
    let mut expected: Vec<Expect> = Vec::new();
    let mut batch = String::new();
    let mut next_id = 1u64;
    for _ in 0..cfg.requests_per_conn {
        let roll = rng.unit();
        if roll < 0.70 {
            let id = next_id;
            next_id += 1;
            let trace = trace_for(id);
            let features: Vec<String> = (0..dim).map(|_| format!("{:.3}", rng.unit())).collect();
            let deadline = if rng.chance(0.2) {
                ",\"deadline_ms\":0"
            } else {
                ""
            };
            batch.push_str(&format!(
                "{{\"verb\":\"infer\",\"id\":{id},\"features\":[{}]{deadline}{}}}\n",
                features.join(","),
                trace_suffix(trace)
            ));
            expected.push(Expect::Infer { id, trace });
            tally.infer_sent += 1;
        } else if roll < 0.80 {
            let id = next_id;
            next_id += 1;
            let trace = trace_for(id);
            batch.push_str(&format!(
                "{{\"verb\":\"infer\",\"id\":{id},\"features\":[1,2,3]{}}}\n",
                trace_suffix(trace)
            ));
            expected.push(Expect::Infer { id, trace });
            tally.infer_sent += 1;
        } else if roll < 0.90 {
            batch.push_str("{\"verb\":\"ping\"}\n");
            expected.push(Expect::Ping);
        } else {
            batch.push_str("this is not protocol json\n");
            expected.push(Expect::Junk);
        }
    }
    if Write::write_all(&mut stream, batch.as_bytes()).is_err() {
        tally.conn_errors += 1;
        return;
    }

    let mut reader = BufReader::new(reader_stream);
    let mut pos = 0usize;
    while pos < expected.len() {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {
                tally.conn_errors += 1;
                return; // prefix ended early — allowed under faults
            }
            Ok(_) => {}
            Err(_) => {
                tally.conn_errors += 1;
                return;
            }
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Ok(resp) = protocol::parse_response(trimmed) else {
            // A torn write may truncate the final line of a dying
            // connection; a *parseable but wrong* line is a violation,
            // an unparseable one only if the connection then stays alive.
            let mut probe = String::new();
            if reader.read_line(&mut probe).unwrap_or(0) > 0 {
                tally.violations.push(format!(
                    "mid-stream garbage response {trimmed:?} (fault_seed {}, workload_seed {})",
                    cfg.fault.seed, cfg.workload_seed
                ));
            } else {
                tally.conn_errors += 1;
            }
            return;
        };
        // An accept-time rejection arrives before any request is
        // answered and the connection is closed after it.
        if pos == 0 {
            if let Response::Error {
                id: None, ref code, ..
            } = resp
            {
                if code == protocol::ERR_OVERLOADED {
                    tally.accept_overloaded += 1;
                    return;
                }
            }
        }
        match check_response(&expected[pos], &resp, tally) {
            Ok(()) => pos += 1,
            Err(msg) => {
                tally.violations.push(format!(
                    "{msg} (position {pos}, fault_seed {}, workload_seed {})",
                    cfg.fault.seed, cfg.workload_seed
                ));
                return;
            }
        }
    }
}

/// Check one response against its slot in the expected sequence.
fn check_response(expect: &Expect, resp: &Response, tally: &mut ClientTally) -> Result<(), String> {
    match (expect, resp) {
        (
            Expect::Infer { id: want, trace },
            Response::Decision {
                id, trace: echoed, ..
            },
        ) if id == want => {
            if echoed != trace {
                return Err(format!(
                    "decision for infer {want} echoed trace {} instead of {}",
                    hex16(*echoed),
                    hex16(*trace)
                ));
            }
            if *trace != 0 {
                tally.traced.push((*trace, SpanStatus::Ok));
            }
            tally.decisions += 1;
            Ok(())
        }
        (
            Expect::Infer { id: want, trace },
            Response::Error {
                id: Some(id), code, ..
            },
        ) if id == want => {
            let status = match code.as_str() {
                protocol::ERR_DEADLINE => {
                    tally.deadline += 1;
                    SpanStatus::DeadlineExceeded
                }
                protocol::ERR_OVERLOADED => {
                    tally.overloaded += 1;
                    SpanStatus::Overloaded
                }
                protocol::ERR_BAD_REQUEST => {
                    tally.bad_request += 1;
                    SpanStatus::BadDim
                }
                protocol::ERR_SHUTTING_DOWN => {
                    tally.draining += 1;
                    SpanStatus::Draining
                }
                other => return Err(format!("unexpected error code {other:?} for infer {want}")),
            };
            if *trace != 0 {
                tally.traced.push((*trace, status));
            }
            Ok(())
        }
        (Expect::Ping, Response::Pong) => {
            tally.pongs += 1;
            Ok(())
        }
        (Expect::Junk, Response::Error { id: None, code, .. })
            if code == protocol::ERR_MALFORMED =>
        {
            tally.malformed += 1;
            Ok(())
        }
        (expect, resp) => Err(format!("expected {expect:?}, got {resp:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_soak_is_fully_accounted() {
        let cfg = ChaosConfig {
            fault: FaultConfig::none(1),
            workload_seed: 2,
            clients: 2,
            conns_per_client: 3,
            requests_per_conn: 5,
            shards: 1,
            watchdog_secs: 60,
            swaps: 0,
            trace: false,
        };
        let report = run_chaos(&cfg);
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.client.conn_errors, 0, "{}", report.render());
        assert_eq!(report.fault_log, "");
        // Without faults every infer got a terminal answer at the client.
        assert_eq!(
            report.client.decisions
                + report.client.deadline
                + report.client.overloaded
                + report.client.bad_request
                + report.client.draining,
            report.client.infer_sent,
            "{}",
            report.render()
        );
    }

    #[test]
    fn standard_fault_mix_soak_holds_invariants() {
        let report = run_chaos(&ChaosConfig::new(7, 11));
        assert!(report.ok(), "{}", report.render());
        assert!(
            !report.fault_log.is_empty(),
            "the standard mix should inject at least one fault"
        );
    }

    #[test]
    fn mid_soak_hot_swaps_keep_the_ledger_exact() {
        // Publish 8 model generations while clients hammer the server
        // under the standard fault mix: run_chaos asserts the exact
        // request ledger, that serve.model.generation advanced by exactly
        // 8, and that /metrics agrees — zero drops across every swap.
        let mut cfg = ChaosConfig::new(13, 17);
        cfg.swaps = 8;
        let report = run_chaos(&cfg);
        assert!(report.ok(), "{}", report.render());
        let get = |name: &str| {
            report
                .server
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("model_swaps"), 8);
        assert_eq!(get("model_generation"), 8);
    }

    /// Traced soak under the standard fault mix with mid-soak hot-swaps:
    /// run_chaos replays every client-observed outcome against the flight
    /// recorder and demands a complete, status-matching span chain with a
    /// published model generation — so this test passing means 100% of
    /// ledgered requests reconstructed.
    #[test]
    fn traced_fault_soak_reconstructs_every_ledgered_request() {
        let mut cfg = ChaosConfig::new(19, 23);
        cfg.trace = true;
        cfg.swaps = 4;
        let report = run_chaos(&cfg);
        assert!(report.ok(), "{}", report.render());
        let traced = report
            .server
            .iter()
            .find(|(n, _)| n == "traced_requests")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(
            traced > 0,
            "the soak should have audited at least one traced request\n{}",
            report.render()
        );
    }

    /// Sharded soak under a stall-heavy plan: long `WouldBlock` runs park
    /// a subset of connections — and, through consistent routing, starve
    /// the shard(s) those connections map to — while the other shards keep
    /// serving. The drain must still be bounded (watchdog), the exact
    /// ledger must balance globally, and the per-shard sums must reconcile
    /// with it even though the stalled connections' requests raced the
    /// shutdown handshake.
    #[test]
    fn stall_heavy_sharded_soak_drains_bounded_with_exact_ledger() {
        let mut fault = FaultConfig::none(23);
        fault.stall = 0.6;
        fault.max_stall_ops = 12;
        let cfg = ChaosConfig {
            fault,
            workload_seed: 29,
            clients: 4,
            conns_per_client: 6,
            requests_per_conn: 8,
            shards: 4,
            watchdog_secs: 60,
            swaps: 0,
            trace: false,
        };
        let report = run_chaos(&cfg);
        assert!(report.ok(), "{}", report.render());
        assert!(
            !report.fault_log.is_empty(),
            "the stall-heavy plan should inject at least one stall"
        );
        // One response per request: clients never see more terminal infer
        // outcomes than infers they wrote (run_chaos also checks each
        // category against the server's counters).
        let outcomes = report.client.decisions
            + report.client.deadline
            + report.client.overloaded
            + report.client.bad_request
            + report.client.draining;
        assert!(
            outcomes <= report.client.infer_sent,
            "{} outcomes for {} infers\n{}",
            outcomes,
            report.client.infer_sent,
            report.render()
        );
    }
}
