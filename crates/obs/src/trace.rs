//! `obs::trace` — end-to-end request tracing: a per-shard flight
//! recorder with tail-based sampling.
//!
//! Every traced request writes compact [`SpanRecord`]s into a
//! fixed-size per-shard ring (the *flight recorder*) using only atomic
//! stores — wait-free, no locks, no allocation on the hot path — and,
//! like the registry handles, a disabled [`Recorder`] costs a single
//! `Option` branch. Sampling is **tail-based**: the keep/drop decision
//! is made at reply time, when the request's latency and outcome are
//! known, so the ring records everything cheaply and only slow, error
//! or swap-coincident traces are collected out of it and promoted to a
//! sink or journaled to a store.
//!
//! Trace id `0` is reserved and means "unsampled". Span ids derive
//! deterministically from the trace id and span kind via a splitmix64
//! mix ([`span_id`]), so every component — and an offline reader —
//! can compute parent links without coordination: the wire carries only
//! the 64-bit trace id.
//!
//! Each ring slot is a block of plain `AtomicU64`s guarded by a
//! sequence word (seqlock style): a writer takes a position with one
//! `fetch_add`, claims the slot by exchanging its sequence for an odd
//! one, stores the fields, and marks it even. A writer that finds the
//! slot held, or already passed by a later lap, drops its record rather
//! than wait (counted with the overwrites: the ring was too small). A
//! reader that observes an odd or changed sequence discards the slot —
//! dumps are best-effort snapshots, never blocking writers.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// The splitmix64 output finalizer on its own, for callers that fold
/// their own increment or salt into `z` first.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64 — one golden-ratio increment, then [`mix64`]; good enough
/// to decorrelate ids and cheap enough for the hot path. The workspace's
/// one copy: scenario seeding, tenant attribution and fault plans call it.
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Derive a non-zero trace id for request `n` under `seed` (used by
/// loadgen and the chaos harness so the expected id for any request is
/// recomputable without shared state).
pub fn derive_trace_id(seed: u64, n: u64) -> u64 {
    let id = splitmix64(seed ^ splitmix64(n.wrapping_add(1)));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Deterministic span id for (`trace_id`, `kind`). Each kind appears at
/// most once per trace, so the pair is unique; id 0 is avoided so "no
/// parent" stays unambiguous.
pub fn span_id(trace_id: u64, kind: SpanKind) -> u64 {
    let id = splitmix64(trace_id ^ ((kind as u64 + 1) << 56));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Format an id as the 16-hex-digit wire form (`"00cafe..."`).
pub fn hex16(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a wire trace/span id: 1–16 hex digits. Returns `None` for
/// empty, overlong or non-hex input. Note id 0 parses fine — callers
/// that treat 0 as reserved must check.
pub fn parse_hex16(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The stage of the request lifecycle a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// Whole request: server accept → reply written.
    Request = 0,
    /// Time on the shard ring: enqueue → batch formation.
    Queue = 1,
    /// Batch membership: formation → completions handed back.
    Batch = 2,
    /// Model forward for the batch that served this request.
    Forward = 3,
    /// Reply serialization + socket write.
    Write = 4,
    /// Deliberate terminal span for a request that got a typed error
    /// instead of a decision; its status says why.
    Dropped = 5,
}

impl SpanKind {
    /// Stable wire/JSONL name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Queue => "queue",
            SpanKind::Batch => "batch",
            SpanKind::Forward => "forward",
            SpanKind::Write => "write",
            SpanKind::Dropped => "dropped",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<SpanKind> {
        Some(match s {
            "request" => SpanKind::Request,
            "queue" => SpanKind::Queue,
            "batch" => SpanKind::Batch,
            "forward" => SpanKind::Forward,
            "write" => SpanKind::Write,
            "dropped" => SpanKind::Dropped,
            _ => return None,
        })
    }

    fn from_u8(v: u8) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::Request,
            1 => SpanKind::Queue,
            2 => SpanKind::Batch,
            3 => SpanKind::Forward,
            4 => SpanKind::Write,
            5 => SpanKind::Dropped,
            _ => return None,
        })
    }
}

/// Outcome carried by a span (mirrors the serve request ledger).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanStatus {
    Ok = 0,
    DeadlineExceeded = 1,
    Overloaded = 2,
    Draining = 3,
    BadDim = 4,
}

impl SpanStatus {
    /// Stable wire/JSONL name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::DeadlineExceeded => "deadline_exceeded",
            SpanStatus::Overloaded => "overloaded",
            SpanStatus::Draining => "draining",
            SpanStatus::BadDim => "bad_dim",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<SpanStatus> {
        Some(match s {
            "ok" => SpanStatus::Ok,
            "deadline_exceeded" => SpanStatus::DeadlineExceeded,
            "overloaded" => SpanStatus::Overloaded,
            "draining" => SpanStatus::Draining,
            "bad_dim" => SpanStatus::BadDim,
            _ => return None,
        })
    }

    fn from_u8(v: u8) -> Option<SpanStatus> {
        Some(match v {
            0 => SpanStatus::Ok,
            1 => SpanStatus::DeadlineExceeded,
            2 => SpanStatus::Overloaded,
            3 => SpanStatus::Draining,
            4 => SpanStatus::BadDim,
            _ => return None,
        })
    }
}

/// One compact span: what happened to one trace at one stage, on which
/// shard, under which model generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Wire-propagated trace id (never 0 for a recorded span).
    pub trace_id: u64,
    /// Deterministic id of this span ([`span_id`]).
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_id: u64,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// Outcome.
    pub status: SpanStatus,
    /// Shard the request was routed to.
    pub shard: u32,
    /// Engine batch sequence linking the N request spans that shared a
    /// batch (0 when the span never reached a batch).
    pub batch_seq: u64,
    /// Generation of the model that (would have) served the request.
    pub model_generation: u64,
    /// Span start, clock ns.
    pub start_ns: u64,
    /// Span end, clock ns.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in integer microseconds (saturating).
    pub fn dur_us(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns) / 1_000
    }
}

/// Seqlock-guarded ring slot. `seq` is 0 while empty, `pos*2+1` while
/// being written, `pos*2+2` once position `pos`'s record is published.
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_id: AtomicU64,
    /// kind | status<<8 | shard<<32, packed.
    meta: AtomicU64,
    batch_seq: AtomicU64,
    generation: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            batch_seq: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
        }
    }

    /// Store a record's fields; the caller holds the claim.
    fn fill(&self, rec: &SpanRecord) {
        self.trace_id.store(rec.trace_id, Ordering::Relaxed);
        self.span_id.store(rec.span_id, Ordering::Relaxed);
        self.parent_id.store(rec.parent_id, Ordering::Relaxed);
        let meta = rec.kind as u64 | ((rec.status as u64) << 8) | ((rec.shard as u64) << 32);
        self.meta.store(meta, Ordering::Relaxed);
        self.batch_seq.store(rec.batch_seq, Ordering::Relaxed);
        self.generation
            .store(rec.model_generation, Ordering::Relaxed);
        self.start_ns.store(rec.start_ns, Ordering::Relaxed);
        self.end_ns.store(rec.end_ns, Ordering::Relaxed);
    }

    /// End the claim on position `pos`. Release: a reader whose first
    /// (acquire) load sees this `seq` sees every field stored before it.
    fn publish(&self, pos: u64) {
        self.seq.store(pos * 2 + 2, Ordering::Release);
    }
}

/// One shard's flight-recorder ring.
struct Ring {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::empty()).collect(),
        }
    }

    /// Wait-free write: take the next position, claim its slot, fill it,
    /// publish. `Some(overwrote)` when the record was published (`true`
    /// when it replaced an older one); `None` when it was dropped because
    /// a writer a lap away holds the slot or has already passed it.
    fn record(&self, rec: &SpanRecord) -> Option<bool> {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = self.claim(pos)?;
        slot.fill(rec);
        slot.publish(pos);
        Some(pos >= self.slots.len() as u64)
    }

    /// Make position `pos`'s slot this writer's alone, or refuse. A ring
    /// has several writers, and one descheduled between two field stores
    /// can be lapped: without the claim, both would write the slot and
    /// the slower one would publish an even `seq` over a mixed record.
    /// Refused — one attempt, never a wait — when the slot is mid-write
    /// (`seq` odd), when a later lap got there first (`seq > 2·pos`), or
    /// when another writer wins the exchange.
    fn claim(&self, pos: u64) -> Option<&Slot> {
        let slot = &self.slots[(pos % self.slots.len() as u64) as usize];
        let cur = slot.seq.load(Ordering::Relaxed);
        if cur % 2 == 1 || cur > pos * 2 {
            return None;
        }
        slot.seq
            .compare_exchange(cur, pos * 2 + 1, Ordering::AcqRel, Ordering::Relaxed)
            .ok()?;
        // Orders the odd `seq` before the field stores that follow; pairs
        // with the reader's acquire fence: a snapshot that read any of
        // those fields finds `seq` changed at its second load.
        fence(Ordering::Release);
        Some(slot)
    }

    /// Snapshot one slot; `None` when empty, mid-write, or torn by a
    /// concurrent overwrite.
    fn snapshot(&self, idx: usize) -> Option<SpanRecord> {
        let slot = &self.slots[idx];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let trace_id = slot.trace_id.load(Ordering::Relaxed);
        let span_id = slot.span_id.load(Ordering::Relaxed);
        let parent_id = slot.parent_id.load(Ordering::Relaxed);
        let meta = slot.meta.load(Ordering::Relaxed);
        let batch_seq = slot.batch_seq.load(Ordering::Relaxed);
        let generation = slot.generation.load(Ordering::Relaxed);
        let start_ns = slot.start_ns.load(Ordering::Relaxed);
        let end_ns = slot.end_ns.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != s1 {
            return None; // overwritten while reading
        }
        let kind = SpanKind::from_u8((meta & 0xff) as u8)?;
        let status = SpanStatus::from_u8(((meta >> 8) & 0xff) as u8)?;
        Some(SpanRecord {
            trace_id,
            span_id,
            parent_id,
            kind,
            status,
            shard: (meta >> 32) as u32,
            batch_seq,
            model_generation: generation,
            start_ns,
            end_ns,
        })
    }
}

struct Inner {
    rings: Box<[Ring]>,
    recorded: AtomicU64,
    promoted: AtomicU64,
    overwrites: AtomicU64,
}

/// Counter snapshot for reporting ([`Recorder::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Spans published into the flight recorder.
    pub recorded: u64,
    /// Traces promoted out of the ring (tail-sampled keeps).
    pub promoted: u64,
    /// Spans that overwrote an older record, or were dropped because a
    /// writer a lap away held their slot — non-zero means the ring was
    /// sized too small for the window you care about.
    pub ring_overwrites: u64,
}

/// The flight recorder handle. Cheap to clone; a disabled recorder
/// (`Recorder::disabled()`, also `Default`) makes every call a single
/// branch on `None`, mirroring the telemetry/registry pattern.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(inner) => f
                .debug_struct("Recorder")
                .field("rings", &inner.rings.len())
                .field("capacity", &inner.rings[0].slots.len())
                .finish(),
        }
    }
}

impl Recorder {
    /// An enabled recorder with `rings` per-shard rings of `capacity`
    /// slots each.
    pub fn new(rings: usize, capacity: usize) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                rings: (0..rings.max(1)).map(|_| Ring::new(capacity)).collect(),
                recorded: AtomicU64::new(0),
                promoted: AtomicU64::new(0),
                overwrites: AtomicU64::new(0),
            })),
        }
    }

    /// The ~0-cost disabled recorder.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether spans are being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record a span into shard `shard`'s ring. Wait-free; a no-op when
    /// disabled or when the span's trace id is 0 (unsampled).
    pub fn record(&self, shard: usize, rec: &SpanRecord) {
        let Some(inner) = &self.inner else { return };
        if rec.trace_id == 0 {
            return;
        }
        let ring = &inner.rings[shard % inner.rings.len()];
        let written = ring.record(rec);
        if written.is_some() {
            inner.recorded.fetch_add(1, Ordering::Relaxed);
        }
        // Replacing an older record and being dropped say the same thing.
        if written != Some(false) {
            inner.overwrites.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count a promoted trace (the caller decides promotion; this only
    /// maintains the counter).
    pub fn note_promoted(&self) {
        if let Some(inner) = &self.inner {
            inner.promoted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Collect every published span for `trace_id` across all rings,
    /// sorted by (start_ns, kind). Promotion-path only — O(ring size).
    pub fn collect(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut out = self.scan(|rec| rec.trace_id == trace_id);
        out.sort_by_key(|r| (r.start_ns, r.kind));
        out
    }

    /// Snapshot the whole flight recorder, sorted by (start_ns, kind).
    pub fn dump(&self) -> Vec<SpanRecord> {
        let mut out = self.scan(|_| true);
        out.sort_by_key(|r| (r.start_ns, r.kind));
        out
    }

    fn scan(&self, keep: impl Fn(&SpanRecord) -> bool) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for ring in inner.rings.iter() {
            for idx in 0..ring.slots.len() {
                if let Some(rec) = ring.snapshot(idx) {
                    if keep(&rec) {
                        out.push(rec);
                    }
                }
            }
        }
        out
    }

    /// Counter snapshot (all zeros when disabled).
    pub fn stats(&self) -> TraceStats {
        match &self.inner {
            None => TraceStats::default(),
            Some(inner) => TraceStats {
                recorded: inner.recorded.load(Ordering::Relaxed),
                promoted: inner.promoted.load(Ordering::Relaxed),
                ring_overwrites: inner.overwrites.load(Ordering::Relaxed),
            },
        }
    }
}

/// Per-request critical-path breakdown reconstructed from a complete
/// span chain ([`summarize`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    pub trace_id: u64,
    /// Shard that handled the request.
    pub shard: u32,
    /// Model generation that served (or would have served) it.
    pub model_generation: u64,
    /// Terminal status (Ok for a decision, otherwise the drop reason).
    pub status: SpanStatus,
    /// Batch sequence (0 when the request never joined a batch).
    pub batch_seq: u64,
    /// Time queued on the shard ring, µs.
    pub queue_us: u64,
    /// Batch residency excluding the forward itself, µs.
    pub batch_wait_us: u64,
    /// Model forward, µs.
    pub forward_us: u64,
    /// Reply serialization + write, µs.
    pub write_us: u64,
    /// End-to-end request span, µs.
    pub total_us: u64,
}

/// Reconstruct one trace's critical path from its spans, validating the
/// chain is complete and gap-free: a decision chain is
/// `request → queue → batch → forward` plus `write`, all `ok` and all
/// stamped with the same model generation; a drop chain ends in a
/// `dropped` terminal span whose status names the reason. Returns a
/// human-readable error describing the first broken link otherwise.
pub fn summarize(spans: &[SpanRecord]) -> Result<TraceSummary, String> {
    if spans.is_empty() {
        return Err("no spans".into());
    }
    let trace_id = spans[0].trace_id;
    if spans.iter().any(|s| s.trace_id != trace_id) {
        return Err("mixed trace ids".into());
    }
    let find = |kind: SpanKind| spans.iter().find(|s| s.kind == kind);
    let request = find(SpanKind::Request).ok_or("missing request span")?;
    if request.parent_id != 0 {
        return Err("request span is not a root".into());
    }

    if let Some(dropped) = find(SpanKind::Dropped) {
        // Drop chain: the terminal span names the reason; a deadline
        // drop additionally shows its queue residency.
        let queue = find(SpanKind::Queue);
        if dropped.status == SpanStatus::Ok {
            return Err("dropped span with ok status".into());
        }
        if request.status != dropped.status {
            return Err("request/dropped status mismatch".into());
        }
        let expected_parent = match queue {
            Some(q) => q.span_id,
            None => request.span_id,
        };
        if dropped.parent_id != expected_parent {
            return Err("dropped span parent does not chain".into());
        }
        if let Some(q) = queue {
            if q.parent_id != request.span_id {
                return Err("queue span parent is not the request span".into());
            }
        }
        return Ok(TraceSummary {
            trace_id,
            shard: dropped.shard,
            model_generation: dropped.model_generation,
            status: dropped.status,
            batch_seq: 0,
            queue_us: queue.map(|q| q.dur_us()).unwrap_or(0),
            batch_wait_us: 0,
            forward_us: 0,
            write_us: 0,
            total_us: request.dur_us(),
        });
    }

    // Decision chain.
    let queue = find(SpanKind::Queue).ok_or("missing queue span")?;
    let batch = find(SpanKind::Batch).ok_or("missing batch span")?;
    let forward = find(SpanKind::Forward).ok_or("missing forward span")?;
    let write = find(SpanKind::Write).ok_or("missing write span")?;
    for (name, span, parent) in [
        ("queue", queue, request.span_id),
        ("batch", batch, queue.span_id),
        ("forward", forward, batch.span_id),
        ("write", write, forward.span_id),
    ] {
        if span.parent_id != parent {
            return Err(format!("{name} span parent does not chain"));
        }
        if span.status != SpanStatus::Ok {
            return Err(format!("{name} span not ok in a decision chain"));
        }
    }
    let generation = forward.model_generation;
    for (name, span) in [
        ("request", request),
        ("queue", queue),
        ("batch", batch),
        ("write", write),
    ] {
        if span.model_generation != generation {
            return Err(format!(
                "{name} span generation {} != forward generation {generation}",
                span.model_generation
            ));
        }
    }
    if batch.batch_seq == 0 || batch.batch_seq != forward.batch_seq {
        return Err("batch/forward batch_seq do not link".into());
    }
    if queue.start_ns > queue.end_ns || batch.start_ns > batch.end_ns {
        return Err("span time went backwards".into());
    }
    Ok(TraceSummary {
        trace_id,
        shard: forward.shard,
        model_generation: generation,
        status: SpanStatus::Ok,
        batch_seq: batch.batch_seq,
        queue_us: queue.dur_us(),
        batch_wait_us: batch.dur_us().saturating_sub(forward.dur_us()),
        forward_us: forward.dur_us(),
        write_us: write.dur_us(),
        total_us: request.dur_us(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answer() {
        // First output of the reference SplitMix64 generator seeded 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    fn span(trace: u64, kind: SpanKind, start: u64, end: u64) -> SpanRecord {
        let parent = match kind {
            SpanKind::Request => 0,
            SpanKind::Queue => span_id(trace, SpanKind::Request),
            SpanKind::Batch => span_id(trace, SpanKind::Queue),
            SpanKind::Forward => span_id(trace, SpanKind::Batch),
            SpanKind::Write => span_id(trace, SpanKind::Forward),
            SpanKind::Dropped => span_id(trace, SpanKind::Request),
        };
        SpanRecord {
            trace_id: trace,
            span_id: span_id(trace, kind),
            parent_id: parent,
            kind,
            status: SpanStatus::Ok,
            shard: 1,
            batch_seq: 7,
            model_generation: 3,
            start_ns: start,
            end_ns: end,
        }
    }

    fn full_chain(trace: u64) -> Vec<SpanRecord> {
        vec![
            span(trace, SpanKind::Request, 0, 50_000),
            span(trace, SpanKind::Queue, 1_000, 10_000),
            span(trace, SpanKind::Batch, 10_000, 40_000),
            span(trace, SpanKind::Forward, 12_000, 30_000),
            span(trace, SpanKind::Write, 41_000, 45_000),
        ]
    }

    #[test]
    fn ids_are_stable_nonzero_and_distinct() {
        let t = derive_trace_id(42, 7);
        assert_ne!(t, 0);
        assert_eq!(t, derive_trace_id(42, 7));
        assert_ne!(t, derive_trace_id(42, 8));
        assert_ne!(t, derive_trace_id(43, 7));
        let kinds = [
            SpanKind::Request,
            SpanKind::Queue,
            SpanKind::Batch,
            SpanKind::Forward,
            SpanKind::Write,
            SpanKind::Dropped,
        ];
        let mut ids: Vec<u64> = kinds.iter().map(|&k| span_id(t, k)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), kinds.len(), "span ids collide within a trace");
        assert!(ids.iter().all(|&id| id != 0));
    }

    #[test]
    fn hex_round_trips_and_rejects_junk() {
        for id in [1u64, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_hex16(&hex16(id)), Some(id));
            assert_eq!(hex16(id).len(), 16);
        }
        assert_eq!(parse_hex16(""), None);
        assert_eq!(parse_hex16("xyz"), None);
        assert_eq!(parse_hex16("00000000000000000"), None); // 17 digits
        assert_eq!(parse_hex16("0"), Some(0));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.record(0, &span(9, SpanKind::Request, 0, 1));
        r.note_promoted();
        assert_eq!(r.stats(), TraceStats::default());
        assert!(r.dump().is_empty());
        assert!(r.collect(9).is_empty());
    }

    #[test]
    fn record_collect_and_dump_round_trip() {
        let r = Recorder::new(2, 64);
        for rec in full_chain(0xabc) {
            r.record(rec.shard as usize, &rec);
        }
        for rec in full_chain(0xdef) {
            r.record(0, &rec);
        }
        assert_eq!(r.stats().recorded, 10);
        assert_eq!(r.stats().ring_overwrites, 0);
        let got = r.collect(0xabc);
        assert_eq!(got.len(), 5);
        assert_eq!(got, {
            let mut want = full_chain(0xabc);
            want.sort_by_key(|s| (s.start_ns, s.kind));
            want
        });
        assert_eq!(r.dump().len(), 10);
    }

    #[test]
    fn zero_trace_id_is_never_recorded() {
        let r = Recorder::new(1, 8);
        let mut rec = span(5, SpanKind::Request, 0, 1);
        rec.trace_id = 0;
        r.record(0, &rec);
        assert_eq!(r.stats().recorded, 0);
        assert!(r.dump().is_empty());
    }

    #[test]
    fn ring_overwrites_are_counted_and_old_records_evicted() {
        let r = Recorder::new(1, 4);
        for n in 0..10u64 {
            r.record(0, &span(derive_trace_id(1, n), SpanKind::Request, n, n + 1));
        }
        let st = r.stats();
        assert_eq!(st.recorded, 10);
        assert_eq!(st.ring_overwrites, 6);
        let dump = r.dump();
        assert_eq!(dump.len(), 4, "ring keeps exactly its capacity");
        // The survivors are the newest four records.
        let newest: Vec<u64> = (6..10).map(|n| derive_trace_id(1, n)).collect();
        assert!(dump.iter().all(|s| newest.contains(&s.trace_id)));
    }

    /// The interleaving the stress test below can only hope for, held
    /// open by hand: a writer stalled mid-record is lapped.
    #[test]
    fn a_lapped_writer_and_its_lapper_never_share_a_slot() {
        let cap = 4u64;
        let ring = Ring::new(cap as usize);
        let (p, idx) = (1u64, 1usize);
        let (mine, theirs) = (
            span(0xA, SpanKind::Queue, 1, 2),
            span(0xB, SpanKind::Queue, 3, 4),
        );

        let held = ring.claim(p).expect("an empty slot is free");
        held.fill(&theirs); // stalled here, half-written as far as anyone can tell
        assert!(ring.snapshot(idx).is_none(), "mid-write is not readable");
        assert!(
            ring.claim(p + cap).is_none(),
            "refused while the slot is odd"
        );
        held.fill(&mine);
        held.publish(p);
        assert_eq!(ring.snapshot(idx), Some(mine));

        assert!(ring.claim(p).is_none(), "a published position is stale");
        assert!(
            ring.claim(p - 1 + cap).is_some(),
            "other slots are unaffected"
        );
        let next = ring.claim(p + 2 * cap).expect("a later lap may overwrite");
        assert!(
            ring.claim(p + cap).is_none(),
            "and the lap it passed is stale"
        );
        next.fill(&theirs);
        next.publish(p + 2 * cap);
        assert_eq!(ring.snapshot(idx), Some(theirs));

        // Through the recorder: a dropped span is counted as an overwrite
        // and not as recorded.
        let r = Recorder::new(1, 1);
        let ring = &r.inner.as_ref().expect("enabled").rings[0];
        let held = ring.claim(ring.head.fetch_add(1, Ordering::Relaxed));
        r.record(0, &mine);
        assert_eq!((r.stats().recorded, r.stats().ring_overwrites), (0, 1));
        held.expect("free").publish(0);
        r.record(0, &mine);
        assert_eq!((r.stats().recorded, r.stats().ring_overwrites), (1, 2));
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        use std::sync::atomic::AtomicBool;
        let r = Recorder::new(2, 128);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let r = r.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Self-describing record: every field derives
                        // from trace_id, so a torn read is detectable.
                        let t = derive_trace_id(w, n);
                        let rec = SpanRecord {
                            trace_id: t,
                            span_id: splitmix64(t),
                            parent_id: splitmix64(t ^ 1),
                            kind: SpanKind::Queue,
                            status: SpanStatus::Ok,
                            shard: (t % 7) as u32,
                            batch_seq: t ^ 2,
                            model_generation: t ^ 3,
                            start_ns: t ^ 4,
                            end_ns: t ^ 5,
                        };
                        r.record((w % 2) as usize, &rec);
                        n += 1;
                    }
                });
            }
            // Stops the writers however this closure is left: the scope
            // joins them before a failed assertion below can propagate, and
            // a writer nobody stops spins forever.
            struct StopOnDrop<'a>(&'a AtomicBool);
            impl Drop for StopOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
            let _stop = StopOnDrop(&stop);
            // At least 200 dumps, and keep dumping until a writer has run:
            // on a loaded host 200 dumps can finish before any is scheduled.
            let mut dumps = 0;
            while dumps < 200 || r.stats().recorded == 0 {
                dumps += 1;
                for rec in r.dump() {
                    let t = rec.trace_id;
                    assert_eq!(rec.span_id, splitmix64(t), "torn span_id");
                    assert_eq!(rec.parent_id, splitmix64(t ^ 1), "torn parent_id");
                    assert_eq!(rec.shard, (t % 7) as u32, "torn shard");
                    assert_eq!(rec.batch_seq, t ^ 2, "torn batch_seq");
                    assert_eq!(rec.model_generation, t ^ 3, "torn generation");
                    assert_eq!(rec.start_ns, t ^ 4, "torn start_ns");
                    assert_eq!(rec.end_ns, t ^ 5, "torn end_ns");
                }
            }
        });
        assert!(r.stats().recorded > 0);
    }

    #[test]
    fn summarize_accepts_a_full_decision_chain() {
        let s = summarize(&full_chain(0x77)).expect("complete chain");
        assert_eq!(s.status, SpanStatus::Ok);
        assert_eq!(s.model_generation, 3);
        assert_eq!(s.shard, 1);
        assert_eq!(s.batch_seq, 7);
        assert_eq!(s.queue_us, 9);
        assert_eq!(s.forward_us, 18);
        assert_eq!(s.batch_wait_us, 12);
        assert_eq!(s.write_us, 4);
        assert_eq!(s.total_us, 50);
    }

    #[test]
    fn summarize_accepts_a_drop_chain_and_rejects_gaps() {
        let t = 0x99;
        let mut req = span(t, SpanKind::Request, 0, 20_000);
        req.status = SpanStatus::DeadlineExceeded;
        let queue = {
            let mut q = span(t, SpanKind::Queue, 1_000, 19_000);
            q.status = SpanStatus::DeadlineExceeded;
            q
        };
        let mut dropped = span(t, SpanKind::Dropped, 19_000, 19_000);
        dropped.status = SpanStatus::DeadlineExceeded;
        dropped.parent_id = span_id(t, SpanKind::Queue);
        let s = summarize(&[req, queue, dropped]).expect("drop chain");
        assert_eq!(s.status, SpanStatus::DeadlineExceeded);
        assert_eq!(s.queue_us, 18);

        // Gap: decision chain missing its forward span.
        let mut broken = full_chain(0x55);
        broken.retain(|s| s.kind != SpanKind::Forward);
        let err = summarize(&broken).unwrap_err();
        assert!(err.contains("forward"), "unexpected error: {err}");

        // Generation mismatch across a hot swap must be caught.
        let mut swapped = full_chain(0x56);
        swapped[4].model_generation = 9;
        let err = summarize(&swapped).unwrap_err();
        assert!(err.contains("generation"), "unexpected error: {err}");
    }
}
