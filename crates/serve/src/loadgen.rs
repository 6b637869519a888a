//! Load-generation client for the decision service.
//!
//! [`replay_profile`] is open-loop: arrivals follow an exponential
//! inter-arrival process at a target QPS regardless of how fast the server
//! answers (the honest way to measure latency under load: a closed loop
//! hides queueing by self-throttling). Saturation capacity is measured by
//! the `spine` benchmark's `serve_closed` workload, not here.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::json::Json;
use obs::trace::{derive_trace_id, hex16};
use obs::LogLinearHistogram;
use rand::{RngExt, SeedableRng, StdRng};
use scenario::{FairnessReport, LoadProfile, TenantMetrics};
use workload::distributions::{Exponential, Sample};

use crate::protocol::{self, Response};

/// Outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Human label (`replay:<profile name>` unless overridden).
    pub label: String,
    /// Target rate.
    pub offered_qps: f64,
    /// Decisions per second actually completed.
    pub achieved_qps: f64,
    /// Requests sent.
    pub sent: u64,
    /// Decisions received.
    pub ok: u64,
    /// `overloaded` responses received.
    pub overloaded: u64,
    /// Any other error responses.
    pub errors: u64,
    /// Decisions that echoed the expected trace id (0 unless tracing).
    pub traced: u64,
    /// Traced decisions whose echoed trace id was wrong or missing.
    pub trace_mismatch: u64,
    /// First send → last response, seconds.
    pub elapsed_s: f64,
    /// Client-observed mean latency (µs).
    pub mean_us: f64,
    /// Client-observed p50 latency (µs).
    pub p50_us: f64,
    /// Client-observed p95 latency (µs).
    pub p95_us: f64,
    /// Client-observed p99 latency (µs).
    pub p99_us: f64,
}

impl RunReport {
    /// The report as a JSON object (for `loadgen --out`).
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("label".into(), Json::String(self.label.clone()));
        m.insert("offered_qps".into(), Json::Number(self.offered_qps));
        m.insert("achieved_qps".into(), Json::Number(self.achieved_qps));
        m.insert("sent".into(), Json::Number(self.sent as f64));
        m.insert("ok".into(), Json::Number(self.ok as f64));
        m.insert("overloaded".into(), Json::Number(self.overloaded as f64));
        m.insert("errors".into(), Json::Number(self.errors as f64));
        m.insert("traced".into(), Json::Number(self.traced as f64));
        m.insert(
            "trace_mismatch".into(),
            Json::Number(self.trace_mismatch as f64),
        );
        m.insert("elapsed_s".into(), Json::Number(self.elapsed_s));
        m.insert("mean_us".into(), Json::Number(self.mean_us));
        m.insert("p50_us".into(), Json::Number(self.p50_us));
        m.insert("p95_us".into(), Json::Number(self.p95_us));
        m.insert("p99_us".into(), Json::Number(self.p99_us));
        Json::Object(m)
    }
}

/// Fetch the server's stats snapshot over the wire.
pub fn query_stats(addr: &str) -> Result<Json, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(b"{\"verb\":\"stats\"}\n")
        .map_err(|e| format!("send stats: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read stats: {e}"))?;
    match protocol::parse_response(line.trim())? {
        Response::Stats(s) => Ok(s),
        other => Err(format!("expected stats reply, got {other:?}")),
    }
}

/// The loaded model's feature dimension, read from the `stats` verb.
pub fn query_input_dim(addr: &str) -> Result<usize, String> {
    query_stats(addr)?
        .get("input_dim")
        .and_then(Json::as_f64)
        .map(|x| x as usize)
        .ok_or_else(|| "stats reply missing input_dim".into())
}

/// Ask the server to drain and exit.
pub fn send_shutdown(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(b"{\"verb\":\"shutdown\"}\n")
        .map_err(|e| format!("send shutdown: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let _ = reader.read_line(&mut line);
    Ok(())
}

/// Pre-rendered infer-line payload pool so the send path does no float
/// formatting.
fn payload_pool(dim: usize, rng: &mut StdRng) -> Vec<String> {
    (0..64)
        .map(|_| {
            (0..dim)
                .map(|_| format!("{}", rng.random_range(-1.0f32..1.0)))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

/// Sleep-then-spin until the deadline; plain `sleep` oversleeps by more
/// than an inter-arrival gap at tens of kQPS.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_millis(1) {
            std::thread::sleep(left - Duration::from_micros(500));
        } else {
            // Yield rather than spin: on small machines a spinning sender
            // starves the very server it is measuring.
            std::thread::yield_now();
        }
    }
}

struct ConnOutcome {
    sent: u64,
    ok: u64,
    overloaded: u64,
    errors: u64,
    traced: u64,
    trace_mismatch: u64,
    last_response_ns: u64,
}

/// The trace id request `id` must carry (and its decision must echo)
/// under `trace_sample`-rate sampling, or 0 for an untraced request.
/// Sender and receiver both compute this, so nothing extra rides the wire
/// and a dropped or corrupted echo is detectable.
fn expected_trace(trace_sample: u64, seed: u64, id: u64) -> u64 {
    if trace_sample > 0 && id.is_multiple_of(trace_sample) {
        derive_trace_id(seed, id)
    } else {
        0
    }
}

/// Replay a [`LoadProfile`] open-loop against a server with `shards`
/// engine shards and report both the aggregate latency numbers and a
/// per-tenant [`FairnessReport`].
///
/// The connection count is [`LoadProfile::balanced_conns`] — rounded up to
/// a multiple of the shard count so the engine's `conn_id % shards`
/// pinning loads every shard with the same number of connections; the
/// tenant mix rides on deterministic request-id attribution
/// ([`LoadProfile::tenant_for`]) instead of on connection placement, so an
/// uneven mix cannot skew per-shard batch statistics. Arrivals are
/// per-connection exponential gaps thinned through the profile's phase
/// histogram, with per-tenant latency recording.
pub fn replay_profile(
    addr: &str,
    profile: &LoadProfile,
    shards: usize,
    trace_sample: u64,
) -> Result<(RunReport, FairnessReport), String> {
    profile.validate().map_err(|e| e.to_string())?;
    // The model dimension comes over a connection of its own, opened
    // before the load connections: their ids then form one contiguous
    // run, which `balanced_conns` spreads evenly over `shards`.
    let dim = query_input_dim(addr)?;
    let n_tenants = profile.tenants.len().max(1);
    let hist = Arc::new(LogLinearHistogram::new());
    let tenant_hists: Arc<Vec<LogLinearHistogram>> =
        Arc::new((0..n_tenants).map(|_| LogLinearHistogram::new()).collect());
    let profile = Arc::new(profile.clone());
    let t0 = Instant::now();
    let conns = profile.balanced_conns(shards) as usize;
    let per_conn_qps = profile.qps / conns as f64;
    let peak_mult = profile.phases.iter().copied().fold(1.0f64, f64::max);
    // Generous id-space bound per connection; senders stop at the cap.
    let cap = ((per_conn_qps * profile.secs * 2.0 * peak_mult) as usize).max(1024);

    let mut handles = Vec::new();
    for c in 0..conns {
        let addr = addr.to_string();
        let hist = Arc::clone(&hist);
        let tenant_hists = Arc::clone(&tenant_hists);
        let profile = Arc::clone(&profile);
        // Globally disjoint id ranges per connection: tenant attribution
        // hashes the request id, so ids must not repeat across connections.
        let base_id = (c * cap) as u64;
        handles.push(std::thread::spawn(
            move || -> Result<ConnOutcome, String> {
                let stream =
                    TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
                stream.set_nodelay(true).ok();
                let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
                let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);

                let sent_at: Arc<Vec<AtomicU64>> =
                    Arc::new((0..cap).map(|_| AtomicU64::new(0)).collect());
                let recv_hist = Arc::clone(&hist);
                let recv_tenant_hists = Arc::clone(&tenant_hists);
                let recv_profile = Arc::clone(&profile);
                let recv_sent_at = Arc::clone(&sent_at);
                let profile_seed = profile.seed;
                let receiver = std::thread::spawn(move || {
                    let mut ok = 0u64;
                    let mut overloaded = 0u64;
                    let mut errors = 0u64;
                    let mut traced = 0u64;
                    let mut trace_mismatch = 0u64;
                    let mut last_ns = 0u64;
                    let mut reader = reader;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {}
                        }
                        match protocol::parse_response(line.trim()) {
                            Ok(Response::Decision { id, trace, .. }) => {
                                // Round-trip check: the decision must echo
                                // exactly the id this request was stamped
                                // with (0 for unsampled requests).
                                let want = expected_trace(trace_sample, profile_seed, id);
                                if trace != want {
                                    trace_mismatch += 1;
                                } else if want != 0 {
                                    traced += 1;
                                }
                                let now_ns = t0.elapsed().as_nanos() as u64;
                                let sent_ns = id
                                    .checked_sub(base_id)
                                    .and_then(|slot| recv_sent_at.get(slot as usize))
                                    .map(|a| a.load(Ordering::Relaxed))
                                    .unwrap_or(now_ns);
                                let lat = now_ns.saturating_sub(sent_ns);
                                recv_hist.record(lat);
                                // Same id → tenant mapping as the sender
                                // side; nothing rides the wire.
                                let tenant = recv_profile.tenant_for(id);
                                recv_tenant_hists[tenant.min(recv_tenant_hists.len() - 1)]
                                    .record(lat);
                                last_ns = now_ns;
                                ok += 1;
                            }
                            Ok(Response::Error { code, .. }) => {
                                if code == protocol::ERR_OVERLOADED {
                                    overloaded += 1;
                                } else {
                                    errors += 1;
                                }
                                last_ns = t0.elapsed().as_nanos() as u64;
                            }
                            _ => errors += 1,
                        }
                    }
                    (ok, overloaded, errors, traced, trace_mismatch, last_ns)
                });

                let mut rng = StdRng::seed_from_u64(profile.seed.wrapping_add(c as u64));
                let pool = payload_pool(dim, &mut rng);
                let gap = Exponential::with_mean(1.0 / per_conn_qps.max(1e-9));
                let mut t = 0.0f64;
                let mut sent = 0u64;
                let mut line = String::with_capacity(128);
                while t0.elapsed().as_secs_f64() < profile.secs && (sent as usize) < cap {
                    // Inhomogeneous arrivals: stretch the exponential gap
                    // by the inverse phase multiplier at the current point
                    // of the run (a drained phase ≈ no arrivals).
                    let mult = profile.phase_multiplier(t / profile.secs).max(1e-3);
                    t += gap.sample(&mut rng) / mult;
                    if t >= profile.secs {
                        break;
                    }
                    wait_until(t0 + Duration::from_secs_f64(t));
                    let slot = sent as usize;
                    let id = base_id + sent;
                    line.clear();
                    line.push_str("{\"verb\":\"infer\",\"id\":");
                    line.push_str(&id.to_string());
                    line.push_str(",\"features\":[");
                    line.push_str(&pool[slot % pool.len()]);
                    line.push(']');
                    let trace = expected_trace(trace_sample, profile.seed, id);
                    if trace != 0 {
                        line.push_str(",\"trace\":\"");
                        line.push_str(&hex16(trace));
                        line.push('"');
                    }
                    line.push_str("}\n");
                    sent_at[slot].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    if writer.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                    sent += 1;
                }
                let _ = stream.shutdown(Shutdown::Write);
                let (ok, overloaded, errors, traced, trace_mismatch, last_ns) =
                    receiver.join().map_err(|_| "receiver thread panicked")?;
                Ok(ConnOutcome {
                    sent,
                    ok,
                    overloaded,
                    errors,
                    traced,
                    trace_mismatch,
                    last_response_ns: last_ns,
                })
            },
        ));
    }

    let mut sent = 0;
    let mut ok = 0;
    let mut overloaded = 0;
    let mut errors = 0;
    let mut traced = 0;
    let mut trace_mismatch = 0;
    let mut last_ns = 0u64;
    for h in handles {
        let o = h.join().map_err(|_| "sender thread panicked")??;
        sent += o.sent;
        ok += o.ok;
        overloaded += o.overloaded;
        errors += o.errors;
        traced += o.traced;
        trace_mismatch += o.trace_mismatch;
        last_ns = last_ns.max(o.last_response_ns);
    }
    let elapsed_s = (last_ns as f64 / 1e9).max(1e-9);
    let report = RunReport {
        label: format!("replay:{}", profile.name),
        offered_qps: profile.qps,
        achieved_qps: ok as f64 / elapsed_s,
        sent,
        ok,
        overloaded,
        errors,
        traced,
        trace_mismatch,
        elapsed_s,
        mean_us: hist.mean() / 1_000.0,
        p50_us: hist.quantile(0.50) as f64 / 1_000.0,
        p95_us: hist.quantile(0.95) as f64 / 1_000.0,
        p99_us: hist.quantile(0.99) as f64 / 1_000.0,
    };

    let rows: Vec<TenantMetrics> = (0..n_tenants)
        .map(|i| {
            let name = profile
                .tenants
                .get(i)
                .map(|t| t.name.clone())
                .unwrap_or_else(|| "(all)".to_string());
            let h = &tenant_hists[i];
            TenantMetrics {
                name,
                jobs: h.count(),
                mean_wait_s: h.mean() / 1e9,
                p99_wait_s: h.quantile(0.99) as f64 / 1e9,
                mean_bsld: 0.0,
                p99_bsld: 0.0,
            }
        })
        .collect();
    let fairness = FairnessReport::from_rows(profile.name.clone(), "serve", rows);
    Ok((report, fairness))
}
