//! The TCP front end: an acceptor and one thread per admitted connection.
//!
//! ```text
//! acceptor thread ──spawn (≤ max_conns live)──▶ connection thread (1 per connection)
//!                                                 │  split lines, parse, validate
//!                                                 ▼
//!                                    BatchEngine shard (conn id % shards)
//! ```
//!
//! Backpressure is explicit at both layers: the acceptor answers
//! connection `max_conns + 1` with `overloaded` and closes it, and the
//! engine's bounded request queue answers `overloaded` with a
//! `retry_after_ms` hint. Every admitted connection has a thread reading
//! it, so an open connection is never parked unread. Graceful shutdown
//! sets a flag and pokes the listener with a loopback connection so the
//! blocking `accept` wakes; connection threads notice the flag within one
//! read-timeout tick, the acceptor joins them, and the engine drains
//! everything already queued before its thread exits.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use inspector::SchedInspector;
use obs::clock::deadline_after_ms;
use obs::trace::{hex16, span_id};
use obs::{Clock, Recorder, SpanKind, SpanRecord, SpanStatus, SystemClock, Telemetry};

use crate::engine::{shard_for, BatchEngine, Completion, EngineConfig, SubmitError};
use crate::protocol::{self, Request};
use crate::stats::ServerStats;
use crate::transport::{AcceptPolicy, DirectAccept, Transport};

/// Server configuration. The defaults suit tests and local benchmarking;
/// production deployments mainly tune `shards`, `max_batch` and
/// `queue_capacity`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Connections served at once, each by its own thread; one more gets
    /// an `overloaded` line with `retry_after_ms` and is closed.
    pub max_conns: usize,
    /// Micro-batch cap for the inference engine.
    pub max_batch: usize,
    /// Bounded inference queue depth (per engine shard).
    pub queue_capacity: usize,
    /// Engine shards (per-core inference threads); connections are routed
    /// to shards consistently by connection id.
    pub shards: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Socket read timeout; also the shutdown-flag polling period.
    pub read_timeout_ms: u64,
    /// Whether the `shutdown` protocol verb is honoured.
    pub allow_shutdown_verb: bool,
    /// Longest protocol line accepted (bytes, newline excluded). A client
    /// streaming junk without a newline is answered with a typed
    /// `malformed` error and disconnected once it exceeds this, instead of
    /// growing the accumulation buffer without bound.
    pub max_line_bytes: usize,
    /// Time source for request deadlines. Production keeps the default
    /// [`SystemClock`]; tests inject an [`obs::VirtualClock`] to drive
    /// deadline and drain behavior without wall-clock sleeps.
    pub clock: Arc<dyn Clock>,
    /// Run-store directory to watch for new model generations
    /// (`schedinspector train --store DIR` publishes there). When set, a
    /// watcher thread polls the store's manifest and hot-swaps each new
    /// checkpoint into the engine mid-traffic — zero dropped requests.
    pub model_dir: Option<String>,
    /// Registry poll period for `model_dir`, in milliseconds.
    pub model_poll_ms: u64,
    /// Generation of the model the server starts with (`0` unless the
    /// initial model was loaded from the run store). The watcher only
    /// reports generations strictly newer than this.
    pub initial_model_generation: u64,
    /// End-to-end request tracing. `None` (the default) disables the
    /// flight recorder entirely: traced requests still echo their id on
    /// the wire, but no spans are recorded and the hot path pays only a
    /// branch on the trace id.
    pub trace: Option<TraceConfig>,
}

/// Flight-recorder and tail-sampling settings (see [`obs::Recorder`]).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Per-shard flight-recorder ring capacity, in span records. Every
    /// traced request's spans land here; the ring overwrites its oldest
    /// records when full (counted as `obs.trace.ring_overwrites`).
    pub ring_capacity: usize,
    /// Tail-sampling threshold: traces whose end-to-end latency exceeds
    /// this many microseconds are promoted to the telemetry sink (and the
    /// journal, when configured).
    pub slow_us: u64,
    /// Journal promoted traces into this run-store directory under
    /// `trace/<16-hex trace id>` keys; `schedinspector trace DIR`
    /// reconstructs them.
    pub store_dir: Option<String>,
    /// On shutdown, dump the whole flight-recorder ring (every shard) to
    /// this file as `flight_record` JSONL — the post-mortem escape hatch
    /// for traces that were never promoted.
    pub dump_path: Option<String>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 4096,
            slow_us: 50_000,
            store_dir: None,
            dump_path: None,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_conns: 64,
            max_batch: 16,
            queue_capacity: 4096,
            shards: 1,
            default_deadline_ms: None,
            read_timeout_ms: 25,
            allow_shutdown_verb: true,
            max_line_bytes: 1 << 20,
            clock: SystemClock::shared(),
            model_dir: None,
            model_poll_ms: 50,
            initial_model_generation: 0,
            trace: None,
        }
    }
}

/// The trace context of one request from accept to reply. Untraced
/// requests carry `trace` 0 and never read the clock.
#[derive(Clone, Copy)]
struct Traced {
    /// Trace id (0 = untraced).
    trace: u64,
    /// Clock tick at accept, the root request span's start.
    accept_ns: u64,
    /// Model generation at accept; a differing generation on the
    /// completion means the request straddled a hot swap.
    accept_gen: u64,
}

/// The engine's side of a traced request the engine answered.
struct Served {
    /// Generation of the model that answered.
    generation: u64,
    /// Clock tick at which reply assembly began.
    write_start_ns: u64,
}

/// Shared server-side tracing state: the flight recorder the engine also
/// writes into, the tail-sampling threshold, and the promotion sinks.
struct Tracing {
    recorder: Recorder,
    clock: Arc<dyn Clock>,
    slow_ns: u64,
    telemetry: Telemetry,
    /// Journal for promoted traces (`trace/<16hex>` keys).
    store: Option<Mutex<store::RunStore>>,
    dump_path: Option<String>,
    finalized: AtomicBool,
}

impl Tracing {
    /// Fails when the configured trace journal cannot be opened: a server
    /// asked to journal must not run silently without one.
    fn new(cfg: &ServeConfig, telemetry: Telemetry) -> io::Result<Tracing> {
        let (recorder, slow_ns, store, dump_path) = match &cfg.trace {
            Some(tc) => {
                let store = match &tc.store_dir {
                    Some(dir) => Some(Mutex::new(store::RunStore::open(dir).map_err(|e| {
                        io::Error::other(format!("cannot open trace store {dir}: {e}"))
                    })?)),
                    None => None,
                };
                (
                    Recorder::new(cfg.shards.max(1), tc.ring_capacity),
                    tc.slow_us.saturating_mul(1_000),
                    store,
                    tc.dump_path.clone(),
                )
            }
            None => (Recorder::disabled(), u64::MAX, None, None),
        };
        Ok(Tracing {
            recorder,
            clock: Arc::clone(&cfg.clock),
            slow_ns,
            telemetry,
            store,
            dump_path,
            finalized: AtomicBool::new(false),
        })
    }

    /// Server-side completion of one traced request, ending now with
    /// `status`: records the root request span (for decisions, the reply
    /// `write` span too), then applies the tail-sampling rules. `served`
    /// is `None` for a request refused before the engine saw it
    /// (overloaded / draining / bad dimension), whose terminal `dropped`
    /// span is recorded here. No-op for untraced requests or when tracing
    /// is disabled.
    fn finish(&self, t: Traced, shard: usize, status: SpanStatus, served: Option<Served>) {
        let trace = t.trace;
        if trace == 0 || !self.recorder.is_enabled() {
            return;
        }
        let now_ns = self.clock.now_ns();
        let generation = served.as_ref().map_or(t.accept_gen, |s| s.generation);
        let span = |kind, parent_id, status, start_ns, end_ns| SpanRecord {
            trace_id: trace,
            span_id: span_id(trace, kind),
            parent_id,
            kind,
            status,
            shard: shard as u32,
            batch_seq: 0,
            model_generation: generation,
            start_ns,
            end_ns,
        };
        match served {
            // The write span covers reply assembly; the socket write
            // itself is shared across pipelined replies and not
            // attributable to one request.
            Some(s) if status == SpanStatus::Ok => self.recorder.record(
                shard,
                &span(
                    SpanKind::Write,
                    span_id(trace, SpanKind::Forward),
                    SpanStatus::Ok,
                    s.write_start_ns,
                    now_ns,
                ),
            ),
            // Expired in the queue: the engine recorded the terminal span.
            Some(_) => {}
            // Refused before the engine: the terminal span hangs off the
            // request root.
            None => self.recorder.record(
                shard,
                &span(
                    SpanKind::Dropped,
                    span_id(trace, SpanKind::Request),
                    status,
                    now_ns,
                    now_ns,
                ),
            ),
        }
        self.recorder.record(
            shard,
            &span(SpanKind::Request, 0, status, t.accept_ns, now_ns),
        );

        // Tail-based sampling: everything above recorded into the ring;
        // only error / swap-coincident / slow traces get promoted out.
        let reason = if status != SpanStatus::Ok {
            Some("error")
        } else if generation != t.accept_gen {
            Some("swap")
        } else if now_ns.saturating_sub(t.accept_ns) > self.slow_ns {
            Some("slow")
        } else {
            None
        };
        let Some(reason) = reason else { return };
        let spans = self.recorder.collect(trace);
        self.recorder.note_promoted();
        self.telemetry
            .trace_promoted("serve.trace", trace, reason, spans.len() as u64);
        for s in &spans {
            self.telemetry.flight_record(s);
        }
        if let Some(store) = &self.store {
            let value = flight_record_lines(&spans).into_bytes();
            let mut store = store.lock().unwrap();
            store.put(format!("trace/{}", hex16(trace)), value);
            let _ = store.commit();
        }
    }

    /// Emit the trace/sink counters once as telemetry `count` events (so
    /// `schedinspector report` can surface them from the sidecar) and dump
    /// the ring if configured. Idempotent.
    fn finalize(&self, registry: &obs::Registry) {
        if self.finalized.swap(true, Ordering::SeqCst) || !self.recorder.is_enabled() {
            return;
        }
        let ts = self.recorder.stats();
        self.telemetry.count("obs.trace.recorded", ts.recorded);
        self.telemetry.count("obs.trace.promoted", ts.promoted);
        self.telemetry
            .count("obs.trace.ring_overwrites", ts.ring_overwrites);
        // Sidecar write failures never reach the sidecar themselves; the
        // registry counter is the only record, so surface its final value
        // as one delta event. (The registry copy double-counts from the
        // echo, but the process is shutting down.)
        let dropped = registry
            .counter(
                "obs.sink.dropped_events",
                "telemetry events dropped by sidecar write failures",
            )
            .get();
        if dropped > 0 {
            self.telemetry.count("obs.sink.dropped_events", dropped);
        }
        if let Some(path) = &self.dump_path {
            let _ = std::fs::write(path, flight_record_lines(&self.recorder.dump()));
        }
        if let Some(store) = &self.store {
            let _ = store.lock().unwrap().flush();
        }
    }
}

/// `spans` as sidecar-format lines for the trace journal and the ring
/// dump, which have no telemetry clock (`t` = 0).
fn flight_record_lines(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for &span in spans {
        obs::Event::FlightRecord { t: 0.0, span }.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Flag + wake-pipe pair that unblocks the acceptor. Cloneable via `Arc`;
/// safe to trigger from any thread (including a connection handler serving
/// the `shutdown` verb).
#[derive(Debug)]
pub struct ShutdownSignal {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl ShutdownSignal {
    fn new(addr: SocketAddr) -> Self {
        ShutdownSignal {
            flag: AtomicBool::new(false),
            addr,
        }
    }

    /// Begin draining: no new connections, no new requests. Idempotent.
    pub fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            // Wake the blocking accept() with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Whether draining has begun.
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// What the acceptor, the model watcher and every connection thread
/// share, behind one `Arc`.
struct Server {
    engine: Arc<BatchEngine>,
    stats: Arc<ServerStats>,
    signal: Arc<ShutdownSignal>,
    cfg: ServeConfig,
    tracing: Tracing,
}

impl Server {
    /// Start the engine for a server listening on `addr`.
    fn start(
        inspector: SchedInspector,
        cfg: ServeConfig,
        telemetry: Telemetry,
        addr: SocketAddr,
    ) -> io::Result<Arc<Server>> {
        let stats = Arc::new(ServerStats::sharded(
            inspector.input_dim(),
            cfg.max_batch,
            cfg.shards.max(1),
        ));
        let tracing = Tracing::new(&cfg, telemetry.clone())?;
        let engine = BatchEngine::start(
            inspector,
            EngineConfig {
                max_batch: cfg.max_batch,
                queue_capacity: cfg.queue_capacity,
                shards: cfg.shards.max(1),
                model_generation: cfg.initial_model_generation,
                trace: tracing.recorder.clone(),
            },
            Arc::clone(&stats),
            telemetry,
            Arc::clone(&cfg.clock),
        );
        Ok(Arc::new(Server {
            engine,
            stats,
            signal: Arc::new(ShutdownSignal::new(addr)),
            cfg,
            tracing,
        }))
    }
}

/// Join a server thread, counting it in `thread_panics` if it panicked.
fn join(handle: JoinHandle<()>, stats: &ServerStats) {
    if handle.join().is_err() {
        stats.thread_panics.inc();
    }
}

/// A running server. Dropping the handle shuts the server down; call
/// [`ServerHandle::wait`] to instead block until something else (the
/// `shutdown` verb, [`ShutdownSignal::trigger`]) stops it.
pub struct ServerHandle {
    addr: SocketAddr,
    server: Arc<Server>,
    /// Joins every connection thread before it returns.
    acceptor: Option<JoinHandle<()>>,
    model_watcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters (shared with the running threads).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.server.stats)
    }

    /// The metrics registry backing [`ServerHandle::stats`]; share it with
    /// an [`obs::MetricsExporter`] to expose the live counters on
    /// `/metrics`.
    pub fn registry(&self) -> Arc<obs::Registry> {
        Arc::clone(self.server.stats.registry())
    }

    /// A signal that shuts this server down; hand it to e.g. a Ctrl-C
    /// handler.
    pub fn shutdown_signal(&self) -> Arc<ShutdownSignal> {
        Arc::clone(&self.server.signal)
    }

    /// Generation of the model currently serving decisions.
    pub fn model_generation(&self) -> u64 {
        self.server.engine.model_generation()
    }

    /// The flight recorder behind this server (a disabled handle when
    /// [`ServeConfig::trace`] is `None`). Tests and the chaos harness use
    /// it to collect span chains without going through promotion.
    pub fn recorder(&self) -> Recorder {
        self.server.tracing.recorder.clone()
    }

    /// Hot-swap the serving model mid-traffic (same contract as
    /// [`BatchEngine::swap_model`]): validates the network shape and that
    /// `generation` strictly advances, then publishes with zero dropped
    /// or misrouted requests. This is the admin-path twin of the
    /// `model_dir` registry watcher; the chaos harness drives it to
    /// assert the swap invariant deterministically.
    pub fn swap_model(&self, generation: u64, model: tinynn::Mlp) -> Result<(), String> {
        self.server.engine.swap_model(generation, model)
    }

    /// Drain and stop: close the listener, finish queued inference, join
    /// every thread.
    pub fn shutdown(mut self) {
        self.server.signal.trigger();
        self.join_threads();
    }

    /// Block until the server stops on its own (e.g. via the `shutdown`
    /// verb), then join every thread.
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        let threads = [self.acceptor.take(), self.model_watcher.take()];
        for handle in threads.into_iter().flatten() {
            join(handle, &self.server.stats);
        }
        self.server.engine.shutdown();
        self.server.tracing.finalize(self.server.stats.registry());
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.server.signal.trigger();
        self.join_threads();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("draining", &self.server.signal.is_triggered())
            .finish()
    }
}

/// Bind, spawn the engine + acceptor, and return immediately. Production
/// entry point: plain TCP connections, no fault layer ([`DirectAccept`]).
pub fn serve(
    inspector: SchedInspector,
    cfg: ServeConfig,
    telemetry: Telemetry,
) -> io::Result<ServerHandle> {
    serve_with(inspector, cfg, telemetry, DirectAccept)
}

/// [`serve`] with an explicit [`AcceptPolicy`], the seam a fault-injection
/// harness uses to wrap every connection in a deterministic failure shim.
/// The server code under test is byte-for-byte the production path —
/// `serve` is this function monomorphized over [`DirectAccept`].
pub fn serve_with<A: AcceptPolicy>(
    inspector: SchedInspector,
    cfg: ServeConfig,
    telemetry: Telemetry,
    accept: A,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let server = Server::start(inspector, cfg, telemetry, addr)?;

    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::Builder::new()
            .name("serve-acceptor".into())
            .spawn(move || accept_loop(listener, accept, &server))
            .expect("spawn acceptor")
    };

    let model_watcher = server.cfg.model_dir.as_ref().map(|dir| {
        let dir = std::path::PathBuf::from(dir);
        let server = Arc::clone(&server);
        std::thread::Builder::new()
            .name("serve-model-watcher".into())
            .spawn(move || model_watcher_loop(&dir, &server))
            .expect("spawn model watcher")
    });

    Ok(ServerHandle {
        addr,
        server,
        acceptor: Some(acceptor),
        model_watcher,
    })
}

/// Registry-watcher thread: poll the run store's manifest and hot-swap
/// each new model generation into the engine. A bad checkpoint (corrupt
/// text, wrong dimensions) or a transient store error is counted and
/// skipped — serving continues on the previous generation.
fn model_watcher_loop(dir: &std::path::Path, server: &Server) {
    let Server { engine, stats, .. } = server;
    let poll = Duration::from_millis(server.cfg.model_poll_ms.max(1));
    let mut watcher = store::ModelWatcher::starting_after(dir, engine.model_generation());
    while !server.signal.is_triggered() {
        match watcher.poll() {
            Ok(Some((generation, text))) => match inspector::model_io::from_text(&text) {
                // A rejected swap (shape/generation) is already counted
                // by swap_model itself.
                Ok(insp) => {
                    let _ = engine.swap_model(generation, insp.policy.mlp().clone());
                }
                Err(_) => stats.model_swap_errors.inc(),
            },
            Ok(None) => {}
            Err(_) => stats.model_swap_errors.inc(),
        }
        std::thread::sleep(poll);
    }
}

/// Acceptor thread: admit each connection, give it an id and a thread of
/// its own, refuse it when `max_conns` are already being served; on
/// shutdown, join every connection thread still running.
fn accept_loop<A: AcceptPolicy>(listener: TcpListener, mut accept: A, server: &Arc<Server>) {
    let stats = &*server.stats;
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    // Connection ids, in accept order: the routing key that pins a
    // connection to one engine shard for its whole lifetime.
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if server.signal.is_triggered() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // The policy may drop the connection outright (accept-time fault)
        // before it counts for anything.
        let Some(conn) = accept.admit(stream) else {
            continue;
        };
        let (done, live): (Vec<_>, Vec<_>) = conns.into_iter().partition(JoinHandle::is_finished);
        conns = live;
        for handle in done {
            join(handle, stats);
        }
        if conns.len() >= server.cfg.max_conns.max(1) {
            turn_away(conn, stats);
            continue;
        }
        // The thread takes its connection through a channel, so a spawn
        // that fails leaves the connection here to be answered.
        let (give, take) = mpsc::channel();
        let (id, shared) = (next_id, Arc::clone(server));
        let spawned = std::thread::Builder::new()
            .name(format!("serve-conn-{id}"))
            .spawn(move || {
                if let Ok(stream) = take.recv() {
                    let _ = Conn::new(&shared, stream, id).run();
                }
            });
        match spawned {
            Ok(handle) => {
                stats.connections.inc();
                next_id += 1;
                let _ = give.send(conn);
                conns.push(handle);
            }
            Err(_) => turn_away(conn, stats),
        }
    }
    // Stop listening before waiting for the handlers to see the flag.
    drop(listener);
    for handle in conns {
        join(handle, stats);
    }
}

/// Answer a connection the server has no thread for: one typed
/// `overloaded` line, then close.
fn turn_away(mut conn: impl Transport, stats: &ServerStats) {
    stats.accept_overloaded.inc();
    let mut line = String::new();
    protocol::write_error(
        &mut line,
        None,
        protocol::ERR_OVERLOADED,
        "connection limit reached",
        Some(50),
    );
    let _ = conn.write_all(line.as_bytes());
}

/// One in-order response slot for a processed request line.
enum Part {
    /// Response text already decided (errors, pong, stats, draining).
    Ready(String),
    /// Waiting on the engine.
    Pending {
        /// Engine completion token.
        token: u64,
        /// Client-chosen request id, echoed in the reply.
        id: u64,
        traced: Traced,
    },
}

/// One admitted connection, owned by its thread for as long as it is open.
struct Conn<'s, T: Transport> {
    server: &'s Server,
    stream: T,
    /// Accept-order id; routes every request of this connection to `shard`.
    id: u64,
    shard: usize,
    /// The engine answers this connection's requests here, in the order
    /// they were submitted.
    done_tx: Sender<(u64, Completion)>,
    done_rx: Receiver<(u64, Completion)>,
    next_token: u64,
    /// Replies owed for the lines read so far, in request order.
    parts: Vec<Part>,
    close_after_flush: bool,
}

impl<'s, T: Transport> Conn<'s, T> {
    fn new(server: &'s Server, stream: T, id: u64) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        Conn {
            server,
            stream,
            id,
            shard: shard_for(id, server.engine.shards()),
            done_tx,
            done_rx,
            next_token: 0,
            parts: Vec::new(),
            close_after_flush: false,
        }
    }

    /// Read lines and answer them in order until the peer closes, the
    /// server drains or a line cannot be framed.
    fn run(mut self) -> io::Result<()> {
        let server = self.server;
        let cfg = &server.cfg;
        self.stream
            .configure(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))?;

        let mut acc: Vec<u8> = Vec::with_capacity(4096);
        // Bytes at the head of `acc` already searched for a newline, so a
        // line that arrives in many reads is scanned once, not once a read.
        let mut scanned = 0usize;
        let mut chunk = [0u8; 8192];
        let mut out = String::new();

        loop {
            if server.signal.is_triggered() {
                return Ok(());
            }
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(()), // client closed
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            };
            acc.extend_from_slice(&chunk[..n]);

            // Split off every complete line and process it; what stays is
            // the one partial line, moved to the front once.
            let mut start = 0usize;
            while let Some(nl) = acc[scanned..].iter().position(|&b| b == b'\n') {
                let end = scanned + nl;
                let line = String::from_utf8_lossy(&acc[start..end]);
                self.process_line(line.trim());
                start = end + 1;
                scanned = start;
            }
            acc.drain(..start);
            scanned = acc.len();

            // An unterminated line beyond the cap will never become valid;
            // answer with a typed error and hang up instead of buffering an
            // unbounded amount of junk.
            if acc.len() > cfg.max_line_bytes {
                server.stats.malformed.inc();
                let mut line = String::new();
                protocol::write_error(
                    &mut line,
                    None,
                    protocol::ERR_MALFORMED,
                    &format!("line exceeds {} bytes", cfg.max_line_bytes),
                    None,
                );
                self.parts.push(Part::Ready(line));
                self.close_after_flush = true;
            }

            // Assemble responses in request order. This thread is the only
            // producer into its shard's ring and the shard answers in pop
            // order, so completions arrive in submission order and this
            // never blocks longer than the engine takes to reach our
            // newest submission.
            out.clear();
            let mut parts = std::mem::take(&mut self.parts);
            for part in parts.drain(..) {
                match part {
                    Part::Ready(text) => out.push_str(&text),
                    Part::Pending { token, id, traced } => {
                        let completion = match self.done_rx.recv() {
                            Ok((answered, completion)) => {
                                debug_assert_eq!(answered, token, "completion out of order");
                                completion
                            }
                            Err(_) => Completion::DeadlineExceeded,
                        };
                        self.complete(&mut out, id, traced, completion);
                    }
                }
            }
            self.parts = parts; // emptied; keeps its capacity
            if !out.is_empty() {
                self.stream.write_all(out.as_bytes())?;
            }
            if self.close_after_flush {
                return Ok(());
            }
        }
    }

    /// Append the reply to a request the engine has answered, and close
    /// its trace.
    fn complete(&self, out: &mut String, id: u64, traced: Traced, completion: Completion) {
        let Server {
            engine,
            cfg,
            tracing,
            ..
        } = self.server;
        let write_start_ns = if traced.trace != 0 {
            cfg.clock.now_ns()
        } else {
            0
        };
        let (status, generation) = match completion {
            Completion::Decision {
                decision,
                generation,
            } => {
                protocol::write_decision(out, id, decision, traced.trace);
                (SpanStatus::Ok, generation)
            }
            Completion::DeadlineExceeded => {
                protocol::write_error(
                    out,
                    Some(id),
                    protocol::ERR_DEADLINE,
                    "request expired in queue",
                    None,
                );
                (SpanStatus::DeadlineExceeded, engine.model_generation())
            }
        };
        let served = Served {
            generation,
            write_start_ns,
        };
        tracing.finish(traced, self.shard, status, Some(served));
    }

    /// Queue the reply to one request line (blank lines have none).
    fn process_line(&mut self, line: &str) {
        if line.is_empty() {
            return;
        }
        let Server {
            stats, signal, cfg, ..
        } = self.server;
        let mut ready = String::new();
        match protocol::parse_request(line) {
            Err(msg) => {
                stats.malformed.inc();
                protocol::write_error(&mut ready, None, protocol::ERR_MALFORMED, &msg, None);
            }
            Ok(Request::Ping) => protocol::write_pong(&mut ready),
            Ok(Request::Stats) => protocol::write_stats(&mut ready, &stats.to_json()),
            Ok(Request::Shutdown) => {
                if cfg.allow_shutdown_verb {
                    protocol::write_draining(&mut ready);
                    signal.trigger();
                    self.close_after_flush = true;
                } else {
                    protocol::write_error(
                        &mut ready,
                        None,
                        protocol::ERR_BAD_REQUEST,
                        "shutdown verb disabled",
                        None,
                    );
                }
            }
            Ok(Request::Infer {
                id,
                features,
                deadline_ms,
                trace,
            }) => {
                let part = self.infer(id, features, deadline_ms, trace);
                self.parts.push(part);
                return;
            }
        }
        self.parts.push(Part::Ready(ready));
    }

    /// Hand one `infer` request to the engine, or answer it here when the
    /// engine cannot take it.
    fn infer(&mut self, id: u64, features: Vec<f32>, deadline_ms: Option<u64>, trace: u64) -> Part {
        let Server {
            engine,
            stats,
            cfg,
            tracing,
            ..
        } = self.server;
        stats.requests.inc();
        // Traced requests stamp their root span's start here and note the
        // serving generation, so a completion served by a newer generation
        // is recognisably swap-coincident.
        let accept_ns = if trace != 0 { cfg.clock.now_ns() } else { 0 };
        let accept_gen = if trace != 0 {
            engine.model_generation()
        } else {
            0
        };
        let traced = Traced {
            trace,
            accept_ns,
            accept_gen,
        };
        let shard = self.shard;
        let refuse = |status, code, detail: &str, retry_after_ms| {
            let mut line = String::new();
            protocol::write_error(&mut line, Some(id), code, detail, retry_after_ms);
            tracing.finish(traced, shard, status, None);
            Part::Ready(line)
        };
        if features.len() != engine.input_dim() {
            stats.malformed.inc();
            stats.bad_dim.inc();
            let msg = format!(
                "expected {} features, got {}",
                engine.input_dim(),
                features.len()
            );
            return refuse(SpanStatus::BadDim, protocol::ERR_BAD_REQUEST, &msg, None);
        }
        let deadline_ns = deadline_ms
            .or(cfg.default_deadline_ms)
            .map(|ms| deadline_after_ms(cfg.clock.now_ns(), ms));
        let token = self.next_token;
        self.next_token += 1;
        let done = self.done_tx.clone();
        match engine.submit(self.id, token, features, deadline_ns, trace, done) {
            Ok(()) => Part::Pending { token, id, traced },
            Err(SubmitError::Overloaded { retry_after_ms }) => {
                stats.overloaded.inc();
                refuse(
                    SpanStatus::Overloaded,
                    protocol::ERR_OVERLOADED,
                    "inference queue full",
                    Some(retry_after_ms),
                )
            }
            Err(SubmitError::ShuttingDown) => {
                stats.draining_rejected.inc();
                refuse(
                    SpanStatus::Draining,
                    protocol::ERR_SHUTTING_DOWN,
                    "server is draining",
                    None,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_response, Response};
    use inspector::{FeatureBuilder, FeatureMode, Normalizer};
    use rlcore::{BinaryPolicy, PolicyScratch};
    use simhpc::Metric;
    use std::io::{BufRead, BufReader, Write};

    fn tiny_inspector() -> SchedInspector {
        let fb = FeatureBuilder {
            mode: FeatureMode::Manual,
            metric: Metric::Bsld,
            norm: Normalizer::new(64, 3600.0),
        };
        SchedInspector::new(BinaryPolicy::new(fb.dim(), 13), fb)
    }

    fn start() -> (ServerHandle, SchedInspector) {
        let inspector = tiny_inspector();
        let handle = serve(
            inspector.clone(),
            ServeConfig::default(),
            Telemetry::disabled(),
        )
        .expect("bind ephemeral port");
        (handle, inspector)
    }

    fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn roundtrip(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        line: &str,
    ) -> Response {
        Write::write_all(stream, line.as_bytes()).unwrap();
        Write::write_all(stream, b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        parse_response(reply.trim()).expect("server replies with valid protocol JSON")
    }

    #[test]
    fn ping_stats_and_infer_roundtrip() {
        let (handle, inspector) = start();
        let (mut stream, mut reader) = connect(&handle);

        assert_eq!(
            roundtrip(&mut stream, &mut reader, r#"{"verb":"ping"}"#),
            Response::Pong
        );

        let dim = inspector.input_dim();
        let features: Vec<f32> = (0..dim).map(|i| i as f32 / dim as f32).collect();
        let mut scratch = PolicyScratch::default();
        let expect = inspector.decide(&features, &mut scratch);
        let payload = features
            .iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(",");
        let reply = roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"verb":"infer","id":5,"features":[{payload}]}}"#),
        );
        match reply {
            Response::Decision {
                id,
                reject,
                p_reject,
                trace,
            } => {
                assert_eq!(id, 5);
                assert_eq!(reject, expect.reject);
                assert_eq!(p_reject, expect.p_reject);
                assert_eq!(trace, 0, "untraced request must stay untraced");
            }
            other => panic!("unexpected {other:?}"),
        }

        match roundtrip(&mut stream, &mut reader, r#"{"verb":"stats"}"#) {
            Response::Stats(s) => {
                use obs::json::Json;
                assert_eq!(s.get("requests").and_then(Json::as_f64), Some(1.0));
                assert_eq!(s.get("ok").and_then(Json::as_f64), Some(1.0));
                assert_eq!(s.get("input_dim").and_then(Json::as_f64), Some(dim as f64));
            }
            other => panic!("unexpected {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn malformed_and_bad_dim_lines_keep_the_connection_alive() {
        let (handle, inspector) = start();
        let (mut stream, mut reader) = connect(&handle);

        match roundtrip(&mut stream, &mut reader, "this is not json") {
            Response::Error { id, code, .. } => {
                assert_eq!(id, None);
                assert_eq!(code, protocol::ERR_MALFORMED);
            }
            other => panic!("unexpected {other:?}"),
        }
        match roundtrip(
            &mut stream,
            &mut reader,
            r#"{"verb":"infer","id":9,"features":[1,2]}"#,
        ) {
            Response::Error { id, code, .. } => {
                assert_eq!(id, Some(9));
                assert_eq!(code, protocol::ERR_BAD_REQUEST);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Still serving after both errors.
        assert_eq!(
            roundtrip(&mut stream, &mut reader, r#"{"verb":"ping"}"#),
            Response::Pong
        );
        let _ = inspector;
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let (handle, inspector) = start();
        let (mut stream, mut reader) = connect(&handle);
        let dim = inspector.input_dim();
        let mut batch = String::new();
        for id in 0..64 {
            let payload = vec![format!("{}", id as f32 / 64.0); dim].join(",");
            batch.push_str(&format!(
                "{{\"verb\":\"infer\",\"id\":{id},\"features\":[{payload}]}}\n"
            ));
        }
        Write::write_all(&mut stream, batch.as_bytes()).unwrap();
        for id in 0..64 {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            match parse_response(reply.trim()).unwrap() {
                Response::Decision { id: got, .. } => assert_eq!(got, id),
                other => panic!("unexpected {other:?}"),
            }
        }
        handle.shutdown();
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let (handle, inspector) = start();
        let (mut stream, mut reader) = connect(&handle);
        let dim = inspector.input_dim();
        let payload = vec!["0.5"; dim].join(",");
        match roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"verb":"infer","id":1,"features":[{payload}],"deadline_ms":0}}"#),
        ) {
            Response::Error { id, code, .. } => {
                assert_eq!(id, Some(1));
                assert_eq!(code, protocol::ERR_DEADLINE);
            }
            // A fast enough engine may still beat a 0ms deadline's clock
            // granularity; either outcome is protocol-correct.
            Response::Decision { id, .. } => assert_eq!(id, 1),
            other => panic!("unexpected {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn shutdown_verb_drains_and_stops_the_server() {
        let (handle, _inspector) = start();
        let addr = handle.addr();
        let (mut stream, mut reader) = connect(&handle);
        assert_eq!(
            roundtrip(&mut stream, &mut reader, r#"{"verb":"shutdown"}"#),
            Response::Draining
        );
        handle.wait(); // returns only because the verb triggered the signal
        assert!(
            TcpStream::connect(addr).is_err()
                || TcpStream::connect(addr)
                    .and_then(|mut s| {
                        Write::write_all(&mut s, b"{\"verb\":\"ping\"}\n")?;
                        let mut buf = String::new();
                        BufReader::new(s).read_line(&mut buf)
                    })
                    .map(|n| n == 0)
                    .unwrap_or(true),
            "server must stop accepting after shutdown"
        );
    }

    #[test]
    fn oversized_unterminated_line_gets_typed_error_and_close() {
        let inspector = tiny_inspector();
        let handle = serve(
            inspector,
            ServeConfig {
                max_line_bytes: 4096,
                ..ServeConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap();
        let (mut stream, mut reader) = connect(&handle);
        // Stream 64 KiB of junk with no newline.
        let junk = vec![b'x'; 64 * 1024];
        // The server may hang up mid-write; that's the point.
        let _ = Write::write_all(&mut stream, &junk);
        let mut reply = String::new();
        let n = reader.read_line(&mut reply).unwrap_or(0);
        if n > 0 {
            match parse_response(reply.trim()).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, protocol::ERR_MALFORMED),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Connection is closed afterwards.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0);
        assert!(handle.stats().malformed.get() >= 1);
        handle.shutdown();
    }

    #[test]
    fn request_ledger_balances_after_drain() {
        let (handle, inspector) = start();
        let (mut stream, mut reader) = connect(&handle);
        let dim = inspector.input_dim();
        let good = vec!["0.5"; dim].join(",");
        // 1 ok + 1 bad_dim; malformed junk is not an infer request.
        roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"verb":"infer","id":1,"features":[{good}]}}"#),
        );
        roundtrip(
            &mut stream,
            &mut reader,
            r#"{"verb":"infer","id":2,"features":[1,2]}"#,
        );
        roundtrip(&mut stream, &mut reader, "junk line");
        drop(stream);
        drop(reader);
        let stats = handle.stats();
        handle.shutdown();
        assert_eq!(stats.requests.get(), 2);
        assert_eq!(stats.bad_dim.get(), 1);
        assert_eq!(stats.thread_panics.get(), 0);
        assert_eq!(
            stats.accounted_requests(),
            stats.requests.get(),
            "every request accounted exactly once after drain"
        );
    }

    #[test]
    fn virtual_clock_expires_server_deadlines_without_sleeping() {
        // Thread a VirtualClock through ServeConfig, advance it past the
        // default deadline before submitting, and observe a deterministic
        // deadline_exceeded — no wall-clock dependence at all.
        let inspector = tiny_inspector();
        let dim = inspector.input_dim();
        let (vc, clock) = obs::VirtualClock::shared();
        let handle = serve(
            inspector,
            ServeConfig {
                default_deadline_ms: Some(10),
                clock,
                ..ServeConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap();
        let (mut stream, mut reader) = connect(&handle);
        let payload = vec!["0.5"; dim].join(",");
        // Clock at 0: the deadline (10ms from "now") cannot expire no
        // matter how slow the wall-clock machine is.
        match roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"verb":"infer","id":1,"features":[{payload}]}}"#),
        ) {
            Response::Decision { id, .. } => assert_eq!(id, 1),
            other => panic!("unexpected {other:?}"),
        }
        // Now pin the clock far ahead: the *next* request's deadline is
        // computed at now_ns, so expire it by advancing between submit
        // and the engine pass is racy — instead give it an explicit
        // deadline already in the past relative to a further advance.
        vc.advance_ns(1_000_000_000);
        match roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"verb":"infer","id":2,"features":[{payload}],"deadline_ms":0}}"#),
        ) {
            // deadline = now; engine sees now > deadline only if the
            // engine reads a later tick — with a static virtual clock the
            // decision wins. Either is protocol-correct; assert the reply
            // arrived and the ledger balances below.
            Response::Decision { id, .. } => assert_eq!(id, 2),
            Response::Error { id, code, .. } => {
                assert_eq!(id, Some(2));
                assert_eq!(code, protocol::ERR_DEADLINE);
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = handle.stats();
        handle.shutdown();
        assert_eq!(stats.accounted_requests(), stats.requests.get());
    }

    #[test]
    fn model_dir_watcher_hot_swaps_new_generations() {
        let dir = std::env::temp_dir().join(format!("serve-model-watch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut registry = store::RunStore::open(&dir).unwrap();
        let handle = serve(
            tiny_inspector(),
            ServeConfig {
                model_dir: Some(dir.display().to_string()),
                model_poll_ms: 2,
                ..ServeConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(handle.model_generation(), 0);

        // Publish a retrained model (same shape, different weights): the
        // watcher must hot-swap it in while the server keeps answering.
        let fb = FeatureBuilder {
            mode: FeatureMode::Manual,
            metric: Metric::Bsld,
            norm: Normalizer::new(64, 3600.0),
        };
        let retrained = SchedInspector::new(BinaryPolicy::new(fb.dim(), 91), fb);
        let generation = registry
            .publish_model(&inspector::model_io::to_text(&retrained))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.model_generation() < generation && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(handle.model_generation(), generation);
        assert_eq!(handle.stats().model_swaps.get(), 1);
        assert_eq!(
            handle.stats().model_generation.get(),
            generation as f64,
            "serve.model.generation gauge advanced with the swap"
        );

        // A generation whose text claims 2^64 - 1 layers is counted and
        // skipped — the watcher thread survives it — and the good
        // generation after it still swaps in.
        let text = inspector::model_io::to_text(&retrained);
        let hostile = text.replacen("layers 4", "layers 18446744073709551615", 1);
        assert_ne!(hostile, text);
        registry.publish_model(&hostile).unwrap();
        let errors = || handle.stats().model_swap_errors.get();
        while errors() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(errors(), 1);
        assert_eq!(handle.model_generation(), generation, "still serving");
        let retrained = SchedInspector::new(BinaryPolicy::new(fb.dim(), 92), fb);
        let generation = registry
            .publish_model(&inspector::model_io::to_text(&retrained))
            .unwrap();
        while handle.model_generation() < generation && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(handle.model_generation(), generation);
        assert_eq!(handle.stats().model_swaps.get(), 2);
        assert_eq!(errors(), 1);

        // Decisions now come from the retrained network, bit-exactly.
        let (mut stream, mut reader) = connect(&handle);
        let dim = retrained.input_dim();
        let features: Vec<f32> = (0..dim).map(|i| i as f32 / dim as f32).collect();
        let mut scratch = PolicyScratch::default();
        let expect = retrained.decide(&features, &mut scratch);
        let payload = features
            .iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(",");
        match roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"verb":"infer","id":1,"features":[{payload}]}}"#),
        ) {
            Response::Decision { id, p_reject, .. } => {
                assert_eq!(id, 1);
                assert_eq!(p_reject.to_bits(), expect.p_reject.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The spans of a cleanly decoded journal value or ring dump.
    fn flight_spans(
        (events, malformed): (Vec<obs::Event<String>>, Vec<String>),
    ) -> Vec<SpanRecord> {
        assert!(malformed.is_empty(), "{malformed:?}");
        events
            .iter()
            .filter_map(|e| match e {
                obs::Event::FlightRecord { span, .. } => Some(*span),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn unopenable_trace_store_fails_server_start_naming_the_directory() {
        let file =
            std::env::temp_dir().join(format!("serve-trace-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"a regular file, not a run store").unwrap();
        let err = serve(
            tiny_inspector(),
            ServeConfig {
                trace: Some(TraceConfig {
                    store_dir: Some(file.display().to_string()),
                    ..TraceConfig::default()
                }),
                ..ServeConfig::default()
            },
            Telemetry::disabled(),
        )
        .expect_err("a journal that cannot be opened must fail the start");
        assert!(
            err.to_string().contains(&file.display().to_string()),
            "{err}"
        );
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn traced_request_echoes_id_promotes_and_journals_a_complete_chain() {
        use obs::trace::{hex16, summarize};
        let dir = std::env::temp_dir().join(format!("serve-trace-store-{}", std::process::id()));
        let dump =
            std::env::temp_dir().join(format!("serve-trace-dump-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&dump);
        let inspector = tiny_inspector();
        let dim = inspector.input_dim();
        let (telemetry, sink) = Telemetry::in_memory();
        let handle = serve(
            inspector,
            ServeConfig {
                trace: Some(TraceConfig {
                    ring_capacity: 256,
                    slow_us: 0, // promote everything: every trace is "slow"
                    store_dir: Some(dir.display().to_string()),
                    dump_path: Some(dump.display().to_string()),
                }),
                ..ServeConfig::default()
            },
            telemetry,
        )
        .unwrap();
        let recorder = handle.recorder();
        assert!(recorder.is_enabled());

        let trace_id = 0xabcd_0000_0000_1234u64;
        let (mut stream, mut reader) = connect(&handle);
        let payload = vec!["0.5"; dim].join(",");
        match roundtrip(
            &mut stream,
            &mut reader,
            &format!(
                r#"{{"verb":"infer","id":7,"features":[{payload}],"trace":"{trace_id:016x}"}}"#
            ),
        ) {
            Response::Decision { id, trace, .. } => {
                assert_eq!(id, 7);
                assert_eq!(trace, trace_id, "decision must echo the trace context");
            }
            other => panic!("unexpected {other:?}"),
        }
        // An untraced request on the same connection stays untraced.
        match roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"verb":"infer","id":8,"features":[{payload}]}}"#),
        ) {
            Response::Decision { id, trace, .. } => {
                assert_eq!(id, 8);
                assert_eq!(trace, 0);
            }
            other => panic!("unexpected {other:?}"),
        }

        // The flight recorder holds the full chain and it reconstructs.
        let spans = recorder.collect(trace_id);
        let summary = summarize(&spans).expect("complete request/queue/batch/forward/write chain");
        assert_eq!(summary.trace_id, trace_id);
        assert_eq!(summary.status, obs::SpanStatus::Ok);
        assert_eq!(summary.model_generation, 0);
        assert!(summary.batch_seq != 0);

        drop(stream);
        drop(reader);
        handle.shutdown();

        // Tail sampling promoted it (slow_us = 0): telemetry carries the
        // promotion and its spans, and shutdown emitted the counters.
        let events = sink.events();
        assert!(
            events.iter().any(
                |e| matches!(e, obs::Event::TracePromoted { trace, reason, .. }
                    if *trace == trace_id && *reason == "slow")
            ),
            "promotion event missing"
        );
        assert!(
            events
                .iter()
                .filter(
                    |e| matches!(e, obs::Event::FlightRecord { span, .. } if span.trace_id == trace_id)
                )
                .count()
                >= 5,
            "promoted trace must ship its span chain"
        );
        assert!(sink.counter_total("obs.trace.recorded") >= 5);
        assert!(sink.counter_total("obs.trace.promoted") >= 1);

        // The journal holds the same chain under trace/<16hex>.
        let store = store::RunStore::open(&dir).unwrap();
        let value = store
            .get(&format!("trace/{}", hex16(trace_id)))
            .unwrap()
            .expect("promoted trace journaled");
        let journaled = flight_spans(obs::event::read_lines(
            "journal",
            &String::from_utf8(value).unwrap(),
        ));
        let journal_summary = summarize(&journaled).expect("journaled chain reconstructs");
        assert_eq!(journal_summary.trace_id, trace_id);

        // The shutdown dump reads back through the same reader.
        let dumped = flight_spans(obs::event::read_file(&dump).unwrap());
        assert!(
            dumped.iter().any(|s| s.trace_id == trace_id),
            "ring dump contains the traced request"
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&dump).ok();
    }

    #[test]
    fn shutdown_verb_can_be_disabled() {
        let inspector = tiny_inspector();
        let handle = serve(
            inspector,
            ServeConfig {
                allow_shutdown_verb: false,
                ..ServeConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap();
        let (mut stream, mut reader) = connect(&handle);
        match roundtrip(&mut stream, &mut reader, r#"{"verb":"shutdown"}"#) {
            Response::Error { code, .. } => assert_eq!(code, protocol::ERR_BAD_REQUEST),
            other => panic!("unexpected {other:?}"),
        }
        // Still alive.
        assert_eq!(
            roundtrip(&mut stream, &mut reader, r#"{"verb":"ping"}"#),
            Response::Pong
        );
        handle.shutdown();
    }

    fn infer_line(id: u64, dim: usize) -> String {
        let payload = vec!["0.5"; dim].join(",");
        format!(r#"{{"verb":"infer","id":{id},"features":[{payload}]}}"#)
    }

    #[test]
    fn every_open_connection_is_served() {
        // Default configuration, more connections than the worker pool
        // ever had threads, all held open: each one is read and answered.
        let (handle, inspector) = start();
        let dim = inspector.input_dim();
        let mut conns: Vec<_> = (0..12).map(|_| connect(&handle)).collect();
        for (stream, _) in &conns {
            stream
                .set_read_timeout(Some(Duration::from_secs(1)))
                .unwrap();
        }
        for (i, (stream, reader)) in conns.iter_mut().enumerate() {
            assert_eq!(
                roundtrip(stream, reader, r#"{"verb":"ping"}"#),
                Response::Pong,
                "connection {i}"
            );
            match roundtrip(stream, reader, &infer_line(i as u64, dim)) {
                Response::Decision { id, .. } => assert_eq!(id, i as u64),
                other => panic!("connection {i}: unexpected {other:?}"),
            }
        }
        assert_eq!(handle.stats().connections.get(), 12);
        handle.shutdown();
    }

    #[test]
    fn connection_past_the_limit_is_refused_with_a_retry_hint_until_one_closes() {
        let handle = serve(
            tiny_inspector(),
            ServeConfig {
                max_conns: 2,
                ..ServeConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap();
        let mut held: Vec<_> = (0..2).map(|_| connect(&handle)).collect();
        for (stream, reader) in held.iter_mut() {
            // A reply proves the acceptor has given this one its thread.
            assert_eq!(
                roundtrip(stream, reader, r#"{"verb":"ping"}"#),
                Response::Pong
            );
        }

        let (_third, mut reader) = connect(&handle);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with(r#"{"id":null,"ok":false,"error":"overloaded","#),
            "{line}"
        );
        match parse_response(line.trim()).unwrap() {
            Response::Error {
                id, retry_after_ms, ..
            } => {
                assert_eq!(id, None);
                assert!(retry_after_ms.is_some(), "{line}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "then EOF: {rest}");
        assert_eq!(handle.stats().accept_overloaded.get(), 1);

        // One of the two leaves; once its thread has seen the close, the
        // next connection takes its place.
        drop(held.pop());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let (mut stream, mut reader) = connect(&handle);
            Write::write_all(&mut stream, b"{\"verb\":\"ping\"}\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            match parse_response(reply.trim()).unwrap() {
                Response::Pong => break,
                Response::Error { code, .. } => assert_eq!(code, protocol::ERR_OVERLOADED),
                other => panic!("unexpected {other:?}"),
            }
            assert!(std::time::Instant::now() < deadline, "never admitted");
            std::thread::yield_now();
        }
        handle.shutdown();
    }

    #[test]
    fn shutdown_joins_idle_open_connections_within_a_few_read_timeouts() {
        let (handle, _inspector) = start();
        let mut idle: Vec<_> = (0..8).map(|_| connect(&handle)).collect();
        for (stream, reader) in idle.iter_mut() {
            assert_eq!(
                roundtrip(stream, reader, r#"{"verb":"ping"}"#),
                Response::Pong
            );
        }
        let stats = handle.stats();
        let tick = Duration::from_millis(ServeConfig::default().read_timeout_ms);
        let started = std::time::Instant::now();
        handle.shutdown();
        let took = started.elapsed();
        // Every thread polls the flag on its own tick, concurrently: the
        // wait is one tick plus scheduling on a busy machine, and a thread
        // that missed the flag would never come back at all.
        assert!(took < 20 * tick, "shutdown took {took:?}");
        assert_eq!(stats.connections.get(), 8);
        assert_eq!(stats.thread_panics.get(), 0);
        for (_, reader) in idle.iter_mut() {
            let mut rest = String::new();
            assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0);
        }
    }

    #[test]
    fn an_id_that_is_not_an_exact_integer_is_malformed_not_echoed_as_another() {
        let (handle, inspector) = start();
        let (mut stream, mut reader) = connect(&handle);
        let good = infer_line(7, inspector.input_dim());
        for bad in ["-5", "1.9", "1e300", "9007199254740993"] {
            let line = good.replace(r#""id":7"#, &format!(r#""id":{bad}"#));
            match roundtrip(&mut stream, &mut reader, &line) {
                Response::Error { id, code, .. } => {
                    assert_eq!(id, None, "{bad}");
                    assert_eq!(code, protocol::ERR_MALFORMED, "{bad}");
                }
                other => panic!("{bad}: unexpected {other:?}"),
            }
        }
        match roundtrip(&mut stream, &mut reader, &good) {
            Response::Decision { id, .. } => assert_eq!(id, 7),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(handle.stats().malformed.get(), 4);
        handle.shutdown();
    }

    /// A connection held in memory: the server reads `input` one byte per
    /// `read`, then end of stream, and its replies collect in `output`.
    struct Dribble {
        input: std::vec::IntoIter<u8>,
        output: Arc<Mutex<Vec<u8>>>,
    }

    impl Transport for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            Ok(self.input.next().map_or(0, |byte| {
                buf[0] = byte;
                1
            }))
        }

        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.output.lock().unwrap().extend_from_slice(buf);
            Ok(())
        }

        fn configure(&mut self, _read_timeout: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_dribbled_in_single_bytes_costs_its_length_not_its_square() {
        // 256 KiB arriving a byte at a time. A splitter that rescans the
        // unterminated head after every read makes 2^35 byte compares for
        // each half of this test: the pool-era handler took 8.8 s per half
        // at 64 KiB in a debug build and four times that per doubling.
        // Scanning each byte once takes about 70 ms per half.
        const LINE: usize = 256 << 10;
        let inspector = tiny_inspector();
        let dim = inspector.input_dim();
        let cfg = ServeConfig {
            max_line_bytes: LINE,
            ..ServeConfig::default()
        };
        let addr = "127.0.0.1:0".parse().unwrap();
        let server = Server::start(inspector, cfg, Telemetry::disabled(), addr).unwrap();
        let replies = |input: Vec<u8>| {
            let output = Arc::new(Mutex::new(Vec::new()));
            let conn = Dribble {
                input: input.into_iter(),
                output: Arc::clone(&output),
            };
            let started = std::time::Instant::now();
            Conn::new(&server, conn, 0).run().unwrap();
            let took = started.elapsed();
            assert!(took < Duration::from_secs(10), "took {took:?}");
            let bytes = std::mem::take(&mut *output.lock().unwrap());
            String::from_utf8(bytes).unwrap()
        };

        // A valid request padded with blanks to the longest line allowed.
        let mut valid = infer_line(3, dim).into_bytes();
        valid.resize(LINE, b' ');
        valid.push(b'\n');
        let reply = replies(valid);
        match parse_response(reply.trim()).unwrap() {
            Response::Decision { id, .. } => assert_eq!(id, 3),
            other => panic!("unexpected {other:?}"),
        }

        // Past the limit with no newline: the typed refusal, then close
        // (the byte after it is never read).
        let reply = replies(vec![b'x'; LINE + 2]);
        match parse_response(reply.trim()).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!(id, None);
                assert_eq!(code, protocol::ERR_MALFORMED);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(reply.lines().count(), 1);
        assert_eq!(server.stats.malformed.get(), 1);
    }
}
