//! `serve_open` and `serve_closed`: the decision service on TCP loopback,
//! in process, one engine shard, JSON lines, default `ServeConfig`
//! otherwise. Load comes from this process: one client thread per
//! connection, [`conns`] connections.
//!
//! * open loop — requests are sent when they are due on a Poisson schedule
//!   read from the inputs, whatever the server does; latency runs from the
//!   due time, so a stalled generator or server is charged to the request;
//! * closed loop — every connection keeps [`PIPELINE`] requests in flight
//!   and sends the next when a reply arrives: saturation.
//!
//! Every reply is compared byte for byte with the line the in-process
//! `SchedInspector` would have produced for the same features.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::trace::{derive_trace_id, hex16, summarize, SpanKind, SpanRecord, SpanStatus};
use rlcore::PolicyScratch;
use serve::protocol::{self, Response};
use serve::{ServeConfig, ServerHandle, TraceConfig};

use crate::gen::{self, ServeInputs};
use crate::names::*;
use crate::probes;
use crate::report::Outcome;
use crate::stats::{highest_percentile, median, nearest_rank, percentile};
use crate::{peak_rss_mb, RunSpec, Setups};

/// Segments a timed run is cut into by time; even ones are never traced.
pub const SEGMENTS: usize = 40;
/// The closed loop keeps the latency of every this-many-th reply, so that
/// the sample store stays small beside the server's own memory.
const LATENCY_EVERY: u64 = 8;
/// Requests each closed-loop connection keeps in flight: deep enough that
/// the socket buffers on both sides never run dry, so the run is bound by
/// processor time rather than by thread wake-up latency (which on a shared
/// host varies twice as much; `README.md` has the measurements).
pub const PIPELINE: usize = 1024;
/// In traced segments every this-many-th request carries a trace id.
pub const TRACE_EVERY: u64 = 64;
/// How long a client waits for outstanding replies after its last send.
const DRAIN_GRACE: Duration = Duration::from_secs(3);
/// An idle open-loop client sleeps until this long before its next send
/// is due (a sleep overshoots by tens of microseconds), then polls.
const WAKE_EARLY_NS: u64 = 200_000;
/// Flight-recorder slots of a traced pass, and the request id beyond which
/// nothing is traced any more, so that five spans per traced request always
/// fit the ring however fast the host is.
const TRACE_RING: usize = 1 << 19;
const TRACE_ID_LIMIT: u64 = TRACE_RING as u64 / 5 * TRACE_EVERY;

/// Connections (and client threads): two, or one on a single-core host.
pub fn conns() -> usize {
    crate::cores().min(2)
}

pub fn features_json(features: &[f32]) -> String {
    let body: Vec<String> = features.iter().map(f32::to_string).collect();
    format!("[{}]", body.join(","))
}

/// Append one infer request line to `out`. A zero `trace` leaves the field
/// out.
pub fn write_request(out: &mut Vec<u8>, id: u64, features_json: &str, trace: u64) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "{{\"verb\":\"infer\",\"id\":{id},\"features\":{features_json}"
    );
    if trace != 0 {
        let _ = write!(out, ",\"trace\":\"{}\"", hex16(trace));
    }
    out.extend_from_slice(b"}\n");
}

/// What the clients share: the request pool and the replies it must draw.
struct Pool {
    /// Feature arrays as JSON text, one per pool entry.
    features: Vec<String>,
    /// The in-process decision for each entry.
    decisions: Vec<inspector::Decision>,
    /// Reply text after `{"id":N` for an untraced request of each entry.
    tails: Vec<String>,
    seed: u64,
    traced: bool,
    seg_ns: u64,
}

impl Pool {
    fn new(inputs: &ServeInputs, spec: &RunSpec) -> Pool {
        let mut scratch = PolicyScratch::default();
        let mut decisions: Vec<inspector::Decision> = inputs
            .features
            .iter()
            .map(|f| inputs.inspector.decide(f, &mut scratch))
            .collect();
        if spec.corrupt_expected {
            decisions[0].reject = !decisions[0].reject;
        }
        let tails = decisions
            .iter()
            .map(|d| {
                let mut line = String::new();
                protocol::write_decision(&mut line, 0, *d, 0);
                line["{\"id\":0".len()..].to_string()
            })
            .collect();
        Pool {
            features: inputs.features.iter().map(|f| features_json(f)).collect(),
            decisions,
            tails,
            seed: spec.seed,
            traced: spec.traced,
            seg_ns: (spec.seconds * 1e9 / SEGMENTS as f64) as u64,
        }
    }

    fn segment(&self, at_ns: u64) -> usize {
        ((at_ns / self.seg_ns.max(1)) as usize).min(SEGMENTS - 1)
    }

    /// Trace id request `id` carries when it falls in segment `seg`: odd
    /// segments of a traced pass stamp every [`TRACE_EVERY`]-th request.
    fn trace_for(&self, id: u64, seg: usize) -> u64 {
        if self.traced && seg % 2 == 1 && id.is_multiple_of(TRACE_EVERY) && id < TRACE_ID_LIMIT {
            derive_trace_id(self.seed, id)
        } else {
            0
        }
    }

    fn request(&self, id: u64, trace: u64, out: &mut Vec<u8>) {
        let entry = id as usize % self.features.len();
        write_request(out, id, &self.features[entry], trace);
    }
}

/// What one client connection saw.
#[derive(Default)]
struct Tally {
    sent: u64,
    ok: u64,
    overloaded: u64,
    errors: u64,
    traced_sent: u64,
    /// Latency samples in ns, by segment.
    lat_ns: Vec<Vec<u32>>,
    /// How late the generator sent each request, ns (open loop).
    late_ns: Vec<u32>,
    /// Correct replies per segment.
    done: Vec<u64>,
    first_problem: Option<String>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            lat_ns: vec![Vec::new(); SEGMENTS],
            done: vec![0; SEGMENTS],
            ..Default::default()
        }
    }

    fn problem(&mut self, what: String) {
        self.errors += 1;
        self.first_problem.get_or_insert(what);
    }

    /// Judge one reply line against the expected one. Returns the request
    /// id when the line could be attributed to a request.
    fn judge(&mut self, pool: &Pool, line: &[u8], trace_of: impl Fn(u64) -> u64) -> Option<u64> {
        let text = std::str::from_utf8(line).ok()?;
        if let Some(rest) = text.strip_prefix("{\"id\":") {
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            if let Ok(id) = rest[..digits].parse::<u64>() {
                let entry = id as usize % pool.tails.len();
                let trace = trace_of(id);
                let matches = if trace == 0 {
                    rest[digits..] == pool.tails[entry]
                } else {
                    let mut want = String::new();
                    protocol::write_decision(&mut want, id, pool.decisions[entry], trace);
                    text == want
                };
                if matches {
                    self.ok += 1;
                    return Some(id);
                }
            }
        }
        // Not the expected line: find out what it is instead.
        match protocol::parse_response(text.trim_end()) {
            Ok(Response::Error { id, code, .. }) if code == protocol::ERR_OVERLOADED => {
                self.overloaded += 1;
                id
            }
            Ok(Response::Error { id, code, .. }) => {
                self.problem(format!("request {id:?} answered with error {code}"));
                id
            }
            Ok(Response::Decision { id, .. }) => {
                self.problem(format!(
                    "request {id}: reply {:?} differs from the in-process decision",
                    text.trim_end()
                ));
                Some(id)
            }
            other => {
                self.problem(format!("unexpected reply {other:?}"));
                None
            }
        }
    }
}

/// Split complete lines off the front of `buf`, calling `f` on each.
fn drain_lines(buf: &mut Vec<u8>, mut f: impl FnMut(&[u8])) {
    let mut start = 0;
    while let Some(nl) = buf[start..].iter().position(|b| *b == b'\n') {
        f(&buf[start..=start + nl]);
        start += nl + 1;
    }
    buf.drain(..start);
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Open loop on one connection: request `first_id + k * stride` is due
/// `due_ns[k]` after `t0`. Non-blocking socket; send when due, read when
/// ready, sleep only when nothing is in flight and nothing is due soon.
fn open_conn(
    addr: SocketAddr,
    pool: &Pool,
    first_id: u64,
    stride: u64,
    due_ns: &[u64],
    t0: Instant,
) -> Result<Tally, String> {
    let mut stream = connect(addr)?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut tally = Tally::new();
    tally.late_ns.reserve(due_ns.len());
    let due_of = |id: u64| {
        let k = id.checked_sub(first_id)? / stride;
        (first_id + k * stride == id)
            .then(|| due_ns.get(k as usize))
            .flatten()
    };
    let (mut out, mut out_pos) = (Vec::<u8>::new(), 0usize);
    let mut inbuf = Vec::<u8>::with_capacity(1 << 16);
    let mut chunk = [0u8; 1 << 14];
    let mut next = 0usize;
    let mut answered = 0u64;
    let mut last_send = t0;
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        while next < due_ns.len() && due_ns[next] <= now {
            let id = first_id + next as u64 * stride;
            let trace = pool.trace_for(id, pool.segment(due_ns[next]));
            tally.traced_sent += u64::from(trace != 0);
            pool.request(id, trace, &mut out);
            tally
                .late_ns
                .push((now - due_ns[next]).min(u32::MAX as u64) as u32);
            tally.sent += 1;
            next += 1;
            last_send = Instant::now();
        }
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                let got = t0.elapsed().as_nanos() as u64;
                inbuf.extend_from_slice(&chunk[..n]);
                drain_lines(&mut inbuf, |line| {
                    answered += 1;
                    let trace_of =
                        |id: u64| due_of(id).map_or(0, |d| pool.trace_for(id, pool.segment(*d)));
                    let ok_before = tally.ok;
                    if let Some(due) = tally.judge(pool, line, trace_of).and_then(due_of) {
                        // A refused or wrong reply misses the latency metrics.
                        if tally.ok > ok_before {
                            let lat = got.saturating_sub(*due).min(u32::MAX as u64) as u32;
                            tally.lat_ns[pool.segment(*due)].push(lat);
                            tally.done[pool.segment(*due)] += 1;
                        }
                    }
                });
                continue;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        let in_flight = tally.sent - answered;
        if next == due_ns.len() {
            if in_flight == 0 {
                break;
            }
            if last_send.elapsed() > DRAIN_GRACE {
                for _ in 0..in_flight {
                    tally.problem("request never answered".into());
                }
                break;
            }
        }
        let until_due = due_ns.get(next).map_or(u64::MAX, |d| d.saturating_sub(now));
        if in_flight == 0 && out.is_empty() && until_due > 2 * WAKE_EARLY_NS && next < due_ns.len()
        {
            std::thread::sleep(Duration::from_nanos(until_due - WAKE_EARLY_NS));
        } else {
            std::thread::yield_now();
        }
    }
    Ok(tally)
}

/// Closed loop on one connection: [`PIPELINE`] requests in flight until
/// `run_ns` have passed, then drain. Blocking socket. Request ids are
/// `first_id`, `first_id + stride`, ….
fn closed_conn(
    addr: SocketAddr,
    pool: &Pool,
    first_id: u64,
    stride: u64,
    run_ns: u64,
    t0: Instant,
) -> Result<Tally, String> {
    let mut stream = connect(addr)?;
    stream
        .set_read_timeout(Some(DRAIN_GRACE))
        .map_err(|e| e.to_string())?;
    let mut tally = Tally::new();
    // Replies come back in request order on one connection, so the send
    // times form a queue.
    let mut sent_at = std::collections::VecDeque::<(u64, u64)>::with_capacity(PIPELINE);
    let mut out = Vec::<u8>::new();
    let mut inbuf = Vec::<u8>::with_capacity(1 << 16);
    let mut chunk = [0u8; 1 << 14];
    let mut next_id = first_id;
    let mut want = PIPELINE;
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now < run_ns {
            let seg = pool.segment(now);
            for _ in 0..want {
                let trace = pool.trace_for(next_id, seg);
                tally.traced_sent += u64::from(trace != 0);
                pool.request(next_id, trace, &mut out);
                sent_at.push_back((next_id, now));
                tally.sent += 1;
                next_id += stride;
            }
            stream.write_all(&out).map_err(|e| format!("write: {e}"))?;
            out.clear();
        }
        if sent_at.is_empty() {
            break;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                for _ in 0..sent_at.len() {
                    tally.problem("request never answered".into());
                }
                break;
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        let got = t0.elapsed().as_nanos() as u64;
        inbuf.extend_from_slice(&chunk[..n]);
        want = 0;
        drain_lines(&mut inbuf, |line| {
            want += 1;
            let Some((id, at)) = sent_at.pop_front() else {
                tally.problem("reply without a request".into());
                return;
            };
            let trace_of = |i: u64| pool.trace_for(i, pool.segment(at));
            let ok_before = tally.ok;
            if tally.judge(pool, line, trace_of) != Some(id) {
                tally.problem(format!("reply out of order, expected request {id}"));
            } else if tally.ok > ok_before && got < run_ns {
                // Replies that arrive while the pipeline drains after the
                // timed run are checked but not measured.
                let seg = pool.segment(got);
                tally.done[seg] += 1;
                if tally.ok.is_multiple_of(LATENCY_EVERY) {
                    tally.lat_ns[seg].push(got.saturating_sub(at).min(u32::MAX as u64) as u32);
                }
            }
        });
    }
    Ok(tally)
}

struct Running {
    inputs: ServeInputs,
    server: ServerHandle,
}

fn setup(spec: &RunSpec, open: bool) -> Result<Running, String> {
    spec.prepare_inputs()?;
    let inputs = gen::load_serve(&spec.inputs, open)?;
    let cfg = ServeConfig {
        shards: 1,
        trace: spec.traced.then_some(TraceConfig {
            ring_capacity: TRACE_RING,
            slow_us: u64::MAX,
            store_dir: None,
            dump_path: None,
        }),
        ..ServeConfig::default()
    };
    let server = serve::serve(inputs.inspector.clone(), cfg, obs::Telemetry::disabled())
        .map_err(|e| format!("start server: {e}"))?;
    // A first connection proves the acceptor and a worker are up.
    drop(connect(server.addr())?);
    Ok(Running { inputs, server })
}

/// Requests the server has received, once every one of them is accounted
/// for. The engine bumps its outcome counters just after it hands a
/// completion over, so a client can hold a reply a moment before the ledger
/// shows it; a ledger that still does not balance after [`DRAIN_GRACE`] is
/// wrong.
fn settled_requests(server: &ServerHandle) -> Result<u64, String> {
    let deadline = Instant::now() + DRAIN_GRACE;
    loop {
        let stats = server.stats();
        let (requests, accounted) = (stats.requests.get(), stats.accounted_requests());
        if requests == accounted {
            return Ok(requests);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "server ledger: {requests} requests received, {accounted} accounted"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Per-stage server times of the traced requests, from the flight recorder.
struct CriticalPath {
    complete: u64,
    broken: u64,
    queue_us: f64,
    batch_wait_us: f64,
    forward_us: f64,
    write_us: f64,
}

fn critical_path(spans: Vec<SpanRecord>) -> CriticalPath {
    let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let (mut queue, mut batch_wait, mut forward, mut write) = (vec![], vec![], vec![], vec![]);
    let (mut complete, mut broken) = (0u64, 0u64);
    for chain in by_trace.values() {
        match summarize(chain) {
            Ok(s) if s.status == SpanStatus::Ok => {
                complete += 1;
                let ns = |kind: SpanKind| {
                    chain
                        .iter()
                        .find(|r| r.kind == kind)
                        .map_or(0.0, |r| r.end_ns.saturating_sub(r.start_ns) as f64)
                };
                queue.push(ns(SpanKind::Queue));
                forward.push(ns(SpanKind::Forward));
                batch_wait.push((ns(SpanKind::Batch) - ns(SpanKind::Forward)).max(0.0));
                write.push(ns(SpanKind::Write));
            }
            _ => broken += 1,
        }
    }
    CriticalPath {
        complete,
        broken,
        queue_us: median(&queue) / 1e3,
        batch_wait_us: median(&batch_wait) / 1e3,
        forward_us: median(&forward) / 1e3,
        write_us: median(&write) / 1e3,
    }
}

pub fn run(spec: &RunSpec, open: bool) -> Result<Outcome, String> {
    let (setups, running) = Setups::before(|| setup(spec, open))?;
    let Running { inputs, server } = running;
    let mut out = Outcome::default();
    let pool = Arc::new(Pool::new(&inputs, spec));
    let addr = server.addr();
    let conns = conns();
    let run_ns = (spec.seconds * 1e9) as u64;

    // Warm-up: a short closed loop fills caches and starts every thread.
    // It ends inside segment 0, which never stamps trace ids.
    closed_conn(
        addr,
        &pool,
        1 << 40,
        1,
        pool.seg_ns.min(200_000_000),
        Instant::now(),
    )?;
    let warm = settled_requests(&server)?;

    let t0 = Instant::now() + Duration::from_millis(5);
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let pool = Arc::clone(&pool);
            if open {
                // The aggregate stream is Poisson; arrivals alternate
                // between the connections.
                let due: Vec<u64> = inputs
                    .arrivals
                    .iter()
                    .skip(c)
                    .step_by(conns)
                    .copied()
                    .collect();
                std::thread::spawn(move || open_conn(addr, &pool, c as u64, conns as u64, &due, t0))
            } else {
                std::thread::spawn(move || {
                    while Instant::now() < t0 {
                        std::thread::yield_now();
                    }
                    closed_conn(addr, &pool, c as u64, conns as u64, run_ns, t0)
                })
            }
        })
        .collect();
    let mut tallies = Vec::new();
    for h in handles {
        tallies.push(
            h.join()
                .map_err(|_| "client thread panicked".to_string())??,
        );
    }

    let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
    let (sent, ok) = (sum(|t| t.sent), sum(|t| t.ok));
    let (overloaded, errors) = (sum(|t| t.overloaded), sum(|t| t.errors));
    out.attempted = sent;
    out.failed = sent - ok;
    for problem in tallies.iter().filter_map(|t| t.first_problem.as_ref()) {
        out.note(format!("client: {problem}"));
    }
    out.check(
        "client ledger: sent = ok + overloaded + errors",
        sent == ok + overloaded + errors,
    );
    out.check(
        "server ledger: requests received and accounted equal requests sent",
        settled_requests(&server).is_ok_and(|requests| requests - warm == sent),
    );
    let stats = server.stats();
    if open {
        out.check(
            "every scheduled arrival was sent",
            sent == inputs.arrivals.len() as u64,
        );
    }

    // Per segment: replies, and p50 and p90 of the latency samples.
    // Untraced segments feed the end-to-end metrics. Every hand-off between
    // threads waits on the host's scheduler, and a shared host takes
    // processors away for seconds at a time, so the estimate is the fast
    // decile of the segments: what the code does when the host leaves it
    // alone. The open loop's rate is the offered one, so there it is the
    // mean.
    let untraced = |seg: usize| !(spec.traced && seg % 2 == 1);
    let seg_secs = spec.seconds / SEGMENTS as f64;
    let (mut rates, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_rates, mut traced_p50) = (Vec::new(), Vec::new());
    for seg in 0..SEGMENTS {
        let mut lat: Vec<u64> = tallies
            .iter()
            .flat_map(|t| t.lat_ns[seg].iter().map(|x| *x as u64))
            .collect();
        let done: u64 = tallies.iter().map(|t| t.done[seg]).sum();
        if lat.is_empty() || done == 0 {
            continue;
        }
        lat.sort_unstable();
        let (r, m) = (done as f64 / seg_secs, percentile(&lat, 50.0) as f64 / 1e3);
        if untraced(seg) {
            rates.push(r);
            p50.push(m);
            p90.push(percentile(&lat, 90.0) as f64 / 1e3);
        } else {
            traced_rates.push(r);
            traced_p50.push(m);
        }
    }
    if rates.is_empty() {
        return Err("no request completed".into());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let rate = if open {
        mean(&rates)
    } else {
        nearest_rank(&rates, 90.0)
    };
    let lat = nearest_rank(&p50, 10.0);
    out.note(format!(
        "{conns} connections, {sent} requests, {ok} ok, {overloaded} overloaded, {errors} errors, {} segments; decisions/s mean {:.0}, median segment {:.0}, fast decile {:.0}; p50 median segment {:.1} us, fast decile {:.1} us; p90 median segment {:.1} us",
        rates.len(),
        mean(&rates),
        median(&rates),
        nearest_rank(&rates, 90.0),
        median(&p50),
        nearest_rank(&p50, 10.0),
        median(&p90),
    ));
    out.set_sampled(WORK_PER_S, rate, rates.clone());
    out.set_sampled(LAT_P50_US, lat, p50.clone());
    out.set(PEAK_RSS_MB, peak_rss_mb());

    let mut late: Vec<u64> = tallies
        .iter()
        .flat_map(|t| t.late_ns.iter().map(|x| *x as u64))
        .collect();
    late.sort_unstable();
    if open {
        out.note(format!(
            "generator lateness: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
            percentile(&late, 50.0) as f64 / 1e3,
            percentile(&late, 90.0) as f64 / 1e3,
            percentile(&late, 99.0) as f64 / 1e3
        ));
    }

    if spec.traced {
        let mut lat: Vec<u64> = (0..SEGMENTS)
            .filter(|seg| untraced(*seg))
            .flat_map(|seg| tallies.iter().flat_map(move |t| &t.lat_ns[seg]))
            .map(|x| *x as u64)
            .collect();
        lat.sort_unstable();
        // The tail worth quoting is the highest percentile that still has
        // ten samples beyond it.
        if let Some(p) = highest_percentile(lat.len()) {
            out.note(format!(
                "latency p{p} = {:.1} us over {} samples (highest percentile with ten samples beyond it)",
                percentile(&lat, p) as f64 / 1e3,
                lat.len()
            ));
        }
        out.set("serve.lat_p90_us", median(&p90));
        out.set("serve.lat_p99_us", percentile(&lat, 99.0) as f64 / 1e3);
        out.set("serve.lat_p999_us", percentile(&lat, 99.9) as f64 / 1e3);
        out.set(
            "serve.gen_late_p99_us",
            percentile(&late, 99.0) as f64 / 1e3,
        );
        out.set("serve.sent", sent as f64);
        out.set("serve.ok", ok as f64);
        out.set("serve.overloaded", overloaded as f64);
        out.set("serve.errors", errors as f64);
        out.set("serve.mean_batch", stats.mean_batch_size());
        out.set("serve.batches", stats.batches.get() as f64);

        let path = critical_path(server.recorder().dump());
        let traced_sent = sum(|t| t.traced_sent);
        out.check(
            "every traced request left a complete span chain",
            path.broken == 0 && path.complete == traced_sent,
        );
        out.set("serve.queue_us", path.queue_us);
        out.set("serve.batch_wait_us", path.batch_wait_us);
        out.set("serve.forward_us", path.forward_us);
        out.set("serve.write_us", path.write_us);
        probes::serve_protocol(&mut out, &inputs);
        probes::engine_rtt(&mut out, &inputs)?;
        probes::nn_forward(&mut out);
        let get = |o: &Outcome, k: &str| o.metrics.get(k).copied().unwrap_or(0.0);
        let client_p50 = median(&traced_p50);
        let server_side = path.queue_us + path.batch_wait_us + path.forward_us + path.write_us;
        let codec = (get(&out, "serve.parse_ns") + get(&out, "serve.encode_ns")) / 1e3;
        let remainder = client_p50 - server_side - codec;
        out.set("serve.remainder_us", remainder);
        out.set("spine.unattributed_share", remainder / client_p50);
        let overhead = if open {
            median(&traced_p50) / median(&p50)
        } else {
            mean(&rates) / mean(&traced_rates)
        };
        out.set("spine.trace_overhead", overhead);
        out.note(format!(
            "client p50 {client_p50:.1} us = queue {:.1} + batch wait {:.1} + forward {:.1} + write {:.1} (flight recorder, {} traces) + parse/encode {codec:.1} (probes) + remainder {remainder:.1} (socket buffers, kernel, wake-ups, client); engine round trip alone {:.1} us",
            path.queue_us,
            path.batch_wait_us,
            path.forward_us,
            path.write_us,
            path.complete,
            get(&out, "serve.engine_rtt_us"),
        ));
    }
    server.shutdown();
    setups.after(&mut out, || setup(spec, open))?;
    Ok(out)
}
