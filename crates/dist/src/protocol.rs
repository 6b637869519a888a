//! The coordinator↔worker wire protocol: one JSON header line per frame,
//! which may announce `"bytes":L` — then exactly `L` raw payload bytes
//! follow the line's newline. Bulk text (a checkpoint) and trajectories
//! never travel inside JSON: a header is small, so parsing it costs
//! nothing, and a payload is copied, not escaped and re-parsed.
//!
//! # Grammar
//!
//! Coordinator → worker:
//!
//! ```text
//! shard    = {"verb":"shard","epoch":E,"shard":S,"seed_base":HEX16,
//!             "merge":"sync"|"decentralized","frame":"json"|"binary",
//!             "assignments":[[index,start],...],"bytes":L}
//!            followed by L bytes: the `schedinspector-checkpoint v1` text
//! shutdown = {"verb":"shutdown"}
//! ```
//!
//! Worker → coordinator:
//!
//! ```text
//! hello       = {"verb":"hello","proto":3,"input_dim":D,"seed":HEX16,
//!                "world":HEX16}
//! episode     = {"verb":"episode","epoch":E,"index":I,"base_metric":B,
//!                "inspected_metric":M,"inspections":N,"rejections":K,
//!                "reward":R,"steps":[[[f,...],a,logp],...]}
//! episode_bin = {"verb":"episode_bin","epoch":E,"index":I,"base_metric":B,
//!                "inspected_metric":M,"inspections":N,"rejections":K,
//!                "bytes":L}
//!               followed by L bytes: the binary trajectory
//! shard_done  = {"verb":"shard_done","epoch":E,"shard":S,"episodes":n
//!                [,"stats":[pi,vf,kl,ent,clip,gnorm,iters],"bytes":L]}
//!               with `stats`, followed by L bytes: the replica's
//!               checkpoint text
//! ```
//!
//! Either direction may send `{"verb":"error","message":S}` before closing.
//! `episode` and `episode_bin` are two encodings of one message
//! ([`FrameKind`]); a reader hands back [`Message::Episode`] for both.
//!
//! # Numeric encoding
//!
//! 64-bit seeds ride as 16-hex-digit strings (JSON numbers pass through
//! `f64` and lose precision above 2⁵³). Every `f32` payload is widened to
//! `f64` before formatting: `f32 → f64` is exact, Rust's `{}` prints the
//! shortest string that re-parses to the same `f64`, and casting that
//! `f64` back to `f32` is exact because the value *is* an `f32`. The
//! result: floats cross the wire bit-identically, which the determinism
//! contract depends on. The binary frame ships raw little-endian `f32`
//! bits and is exact by construction.

use inspector::EpisodeSummary;
use obs::json::{escape_into, parse, write_f64, Json};
use obs::trace::{hex16, parse_hex16};
use rlcore::{Step, Trajectory, UpdateStats};
use serve::Transport;
use std::fmt::Write as _;
use std::sync::Arc;

/// Protocol version carried in `hello`; the coordinator rejects mismatches.
pub const PROTO_VERSION: u64 = 3;

/// Ceiling on one header line, and on one payload. A full checkpoint for
/// the paper's 938-parameter network is a few tens of KiB; 16 MiB leaves
/// room for far larger models while bounding a hostile peer.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Typed wire-format failures. Every malformed input maps here — the
/// codec never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The peer closed the stream cleanly (EOF).
    Closed,
    /// A hard transport error (reset, broken pipe, ...).
    Io(String),
    /// A frame exceeded [`MAX_FRAME_BYTES`] (or the reader's limit).
    TooLong {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// A line was not valid protocol JSON, a field had the wrong
    /// type/value, or a text payload was not UTF-8.
    Malformed(String),
    /// A binary trajectory payload failed structural validation.
    Binary(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "peer closed the connection"),
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::TooLong { limit } => write!(f, "frame exceeds {limit} bytes"),
            ProtoError::Malformed(e) => write!(f, "malformed frame: {e}"),
            ProtoError::Binary(e) => write!(f, "bad binary payload: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// How per-shard results fold back into one model per epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeMode {
    /// Workers ship trajectories; the coordinator runs one central PPO
    /// update over the full batch — byte-identical to in-process training
    /// for any worker count.
    #[default]
    Sync,
    /// DD-PPO style: each worker runs a local PPO update over its shard
    /// and ships the replica; the coordinator installs the weighted
    /// parameter average. Deterministic for a fixed (seed, shard count).
    Decentralized,
}

impl MergeMode {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            MergeMode::Sync => "sync",
            MergeMode::Decentralized => "decentralized",
        }
    }

    /// Parse a wire/CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sync" => Some(MergeMode::Sync),
            "decentralized" => Some(MergeMode::Decentralized),
            _ => None,
        }
    }
}

/// Episode frame encoding the coordinator asks workers to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameKind {
    /// Human-readable JSON steps (the default; exact, see module docs).
    #[default]
    Json,
    /// Length-prefixed little-endian binary payload — compact for long
    /// trajectories.
    Binary,
}

impl FrameKind {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            FrameKind::Json => "json",
            FrameKind::Binary => "binary",
        }
    }

    /// Parse a wire/CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "json" => Some(FrameKind::Json),
            "binary" => Some(FrameKind::Binary),
            _ => None,
        }
    }
}

/// A worker's post-local-update state, attached to `shard_done` in
/// decentralized mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Replica {
    /// Full checkpoint text (`schedinspector-checkpoint v1`) of the
    /// replica after its local update.
    pub checkpoint: String,
    /// The local update's diagnostics.
    pub stats: UpdateStats,
}

/// One parsed protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker join announcement (first frame on every connection).
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u64,
        /// Worker's feature dimension — must match the coordinator's.
        input_dim: usize,
        /// Worker's training seed — must match the coordinator's.
        seed: u64,
        /// Worker's [`inspector::Trainer::world_digest`] — must match the
        /// coordinator's, or its episodes are functions of another world.
        world: u64,
    },
    /// Shard assignment: roll out these `(episode index, start offset)`
    /// pairs under the shipped checkpoint.
    Shard {
        /// Epoch the assignment belongs to.
        epoch: usize,
        /// Logical shard index (the merge key, not the worker identity).
        shard: usize,
        /// Base of per-episode seeds (episode `i` uses `base + i`).
        seed_base: u64,
        /// Merge discipline for this epoch.
        merge: MergeMode,
        /// Episode frame encoding to reply with.
        frame: FrameKind,
        /// `(episode index, start offset)` pairs, in episode order.
        assignments: Vec<(usize, usize)>,
        /// Checkpoint text to install before rolling out — one
        /// serialisation per epoch, shared by every shard's frame.
        checkpoint: Arc<str>,
    },
    /// One rolled-out episode, in either [`FrameKind`].
    Episode {
        /// Epoch the episode belongs to.
        epoch: usize,
        /// The episode's summary, exact to the bit.
        summary: EpisodeSummary,
    },
    /// A shard's rollout (and, decentralized, local update) finished.
    ShardDone {
        /// Epoch the shard belongs to.
        epoch: usize,
        /// Logical shard index.
        shard: usize,
        /// Episodes the worker produced for this shard.
        episodes: u64,
        /// Replica state (decentralized mode only).
        replica: Option<Replica>,
    },
    /// Orderly end of session.
    Shutdown,
    /// Fatal condition report; the sender closes after this.
    Error {
        /// Human-readable description (safe to log).
        message: String,
    },
}

/// Append `msg`'s wire form: its header line and, where the header
/// announces one, the checkpoint text after it (text, so the whole frame
/// is still a `String`). An episode is written as JSON here;
/// [`write_episode`] writes it in either encoding.
pub fn write_message(msg: &Message, out: &mut String) {
    match msg {
        Message::Hello {
            proto,
            input_dim,
            seed,
            world,
        } => {
            let _ = writeln!(
                out,
                "{{\"verb\":\"hello\",\"proto\":{proto},\"input_dim\":{input_dim},\"seed\":\"{}\",\"world\":\"{}\"}}",
                hex16(*seed),
                hex16(*world)
            );
        }
        Message::Shard {
            epoch,
            shard,
            seed_base,
            merge,
            frame,
            assignments,
            checkpoint,
        } => {
            let _ = write!(
                out,
                "{{\"verb\":\"shard\",\"epoch\":{epoch},\"shard\":{shard},\"seed_base\":\"{}\",\
                 \"merge\":\"{}\",\"frame\":\"{}\",\"assignments\":[",
                hex16(*seed_base),
                merge.as_str(),
                frame.as_str()
            );
            for (i, (index, start)) in assignments.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{index},{start}]");
            }
            let _ = writeln!(out, "],\"bytes\":{}}}", checkpoint.len());
            out.push_str(checkpoint);
        }
        Message::Episode { epoch, summary } => write_episode_json(out, *epoch, summary),
        Message::ShardDone {
            epoch,
            shard,
            episodes,
            replica,
        } => {
            let _ = write!(
                out,
                "{{\"verb\":\"shard_done\",\"epoch\":{epoch},\"shard\":{shard},\"episodes\":{episodes}"
            );
            let Some(r) = replica else {
                out.push_str("}\n");
                return;
            };
            out.push_str(",\"stats\":[");
            for x in [
                r.stats.pi_loss,
                r.stats.vf_loss,
                r.stats.approx_kl,
                r.stats.entropy,
                r.stats.clip_frac,
                r.stats.grad_norm,
            ] {
                write_f64(out, x as f64);
                out.push(',');
            }
            let _ = writeln!(
                out,
                "{}],\"bytes\":{}}}",
                r.stats.pi_iters,
                r.checkpoint.len()
            );
            out.push_str(&r.checkpoint);
        }
        Message::Shutdown => out.push_str("{\"verb\":\"shutdown\"}\n"),
        Message::Error { message } => {
            out.push_str("{\"verb\":\"error\",\"message\":");
            escape_into(message, out);
            out.push_str("}\n");
        }
    }
}

/// Append one episode's wire form in the encoding the coordinator asked
/// for: the JSON line, or the `episode_bin` header and its payload.
pub fn write_episode(epoch: usize, summary: &EpisodeSummary, frame: FrameKind, out: &mut Vec<u8>) {
    let mut head = String::new();
    match frame {
        FrameKind::Json => {
            write_episode_json(&mut head, epoch, summary);
            out.extend_from_slice(head.as_bytes());
        }
        FrameKind::Binary => {
            let payload = encode_trajectory(&summary.trajectory);
            write_episode_head(&mut head, "episode_bin", epoch, summary);
            let _ = writeln!(head, ",\"bytes\":{}}}", payload.len());
            out.extend_from_slice(head.as_bytes());
            out.extend_from_slice(&payload);
        }
    }
}

fn write_episode_json(out: &mut String, epoch: usize, summary: &EpisodeSummary) {
    write_episode_head(out, "episode", epoch, summary);
    out.push_str(",\"reward\":");
    write_f64(out, summary.trajectory.reward as f64);
    out.push_str(",\"steps\":[");
    for (i, s) in summary.trajectory.steps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("[[");
        for (j, x) in s.state.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_f64(out, *x as f64);
        }
        let _ = write!(out, "],{},", s.action);
        write_f64(out, s.logp as f64);
        out.push(']');
    }
    out.push_str("]}\n");
}

/// The fields `episode` and `episode_bin` share, up to but excluding the
/// trajectory.
fn write_episode_head(out: &mut String, verb: &str, epoch: usize, s: &EpisodeSummary) {
    let _ = write!(
        out,
        "{{\"verb\":\"{verb}\",\"epoch\":{epoch},\"index\":{},\"base_metric\":",
        s.index
    );
    write_f64(out, s.base_metric);
    out.push_str(",\"inspected_metric\":");
    write_f64(out, s.inspected_metric);
    let _ = write!(
        out,
        ",\"inspections\":{},\"rejections\":{}",
        s.inspections, s.rejections
    );
}

fn bad(msg: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(msg.into())
}

fn num_field(v: &Json, key: &str) -> Result<f64, ProtoError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("missing numeric field {key:?}")))
}

fn count_field(v: &Json, key: &str) -> Result<u64, ProtoError> {
    let n = num_field(v, key)?;
    v.get(key).and_then(Json::as_u64).ok_or_else(|| {
        bad(format!(
            "field {key:?} must be a non-negative integer, got {n}"
        ))
    })
}

fn index_field(v: &Json, key: &str) -> Result<usize, ProtoError> {
    Ok(count_field(v, key)? as usize)
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, ProtoError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing string field {key:?}")))
}

fn hex_field(v: &Json, key: &str) -> Result<u64, ProtoError> {
    let s = str_field(v, key)?;
    parse_hex16(s).ok_or_else(|| bad(format!("field {key:?} is not a 64-bit hex id: {s:?}")))
}

/// An episode from the fields `episode` and `episode_bin` share, around
/// `trajectory`.
fn episode_fields(v: &Json, trajectory: Trajectory) -> Result<Message, ProtoError> {
    Ok(Message::Episode {
        epoch: index_field(v, "epoch")?,
        summary: EpisodeSummary {
            index: index_field(v, "index")?,
            trajectory,
            base_metric: num_field(v, "base_metric")?,
            inspected_metric: num_field(v, "inspected_metric")?,
            inspections: count_field(v, "inspections")?,
            rejections: count_field(v, "rejections")?,
        },
    })
}

/// Parse one header line (without its newline) into the message it
/// opens and the length of the payload it announces, if any. A message
/// with a payload comes back with that part empty; [`attach`] fills it.
fn parse_header(line: &str) -> Result<(Message, Option<usize>), ProtoError> {
    let v = parse(line).map_err(bad)?;
    let verb = str_field(&v, "verb")?;
    let whole = |msg| Ok((msg, None));
    match verb {
        "hello" => whole(Message::Hello {
            proto: count_field(&v, "proto")?,
            input_dim: index_field(&v, "input_dim")?,
            seed: hex_field(&v, "seed")?,
            world: hex_field(&v, "world")?,
        }),
        "shard" => {
            let raw = v
                .get("assignments")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("shard requires an array \"assignments\""))?;
            let mut assignments = Vec::with_capacity(raw.len());
            for pair in raw {
                let items = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| bad("each assignment must be an [index, start] pair"))?;
                let as_idx = |x: &Json| -> Result<usize, ProtoError> {
                    let n = x
                        .as_f64()
                        .ok_or_else(|| bad("assignment entries must be numbers"))?;
                    x.as_u64().map(|i| i as usize).ok_or_else(|| {
                        bad(format!(
                            "assignment entries must be non-negative integers, got {n}"
                        ))
                    })
                };
                assignments.push((as_idx(&items[0])?, as_idx(&items[1])?));
            }
            let shard = Message::Shard {
                epoch: index_field(&v, "epoch")?,
                shard: index_field(&v, "shard")?,
                seed_base: hex_field(&v, "seed_base")?,
                merge: MergeMode::parse(str_field(&v, "merge")?)
                    .ok_or_else(|| bad("unknown merge mode"))?,
                frame: FrameKind::parse(str_field(&v, "frame")?)
                    .ok_or_else(|| bad("unknown frame kind"))?,
                assignments,
                checkpoint: Arc::from(""),
            };
            Ok((shard, Some(index_field(&v, "bytes")?)))
        }
        "episode" => {
            let raw = v
                .get("steps")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("episode requires an array \"steps\""))?;
            let mut steps = Vec::with_capacity(raw.len());
            for s in raw {
                let parts = s
                    .as_array()
                    .filter(|p| p.len() == 3)
                    .ok_or_else(|| bad("each step must be a [state, action, logp] triple"))?;
                let state_raw = parts[0]
                    .as_array()
                    .ok_or_else(|| bad("step state must be an array of numbers"))?;
                let mut state = Vec::with_capacity(state_raw.len());
                for x in state_raw {
                    state.push(
                        x.as_f64()
                            .ok_or_else(|| bad("step state must contain only numbers"))?
                            as f32,
                    );
                }
                let action = parts[1]
                    .as_f64()
                    .filter(|a| *a == 0.0 || *a == 1.0)
                    .ok_or_else(|| bad("step action must be 0 or 1"))?
                    as u8;
                let logp = parts[2]
                    .as_f64()
                    .ok_or_else(|| bad("step logp must be a number"))?
                    as f32;
                steps.push(Step {
                    state,
                    action,
                    logp,
                });
            }
            let reward = num_field(&v, "reward")? as f32;
            whole(episode_fields(&v, Trajectory { steps, reward })?)
        }
        "episode_bin" => Ok((
            episode_fields(&v, Trajectory::default())?,
            Some(index_field(&v, "bytes")?),
        )),
        "shard_done" => {
            // `stats` and `bytes` come together or not at all.
            let (replica, bytes) = match (v.get("stats"), v.get("bytes")) {
                (None, None) => (None, None),
                _ => {
                    let raw = v
                        .get("stats")
                        .and_then(Json::as_array)
                        .filter(|s| s.len() == 7)
                        .ok_or_else(|| bad("replica requires a 7-element \"stats\" array"))?;
                    let mut f = [0.0f64; 7];
                    for (slot, x) in f.iter_mut().zip(raw) {
                        *slot = x
                            .as_f64()
                            .ok_or_else(|| bad("\"stats\" must contain only numbers"))?;
                    }
                    if f[6] < 0.0 || f[6].fract() != 0.0 {
                        return Err(bad("stats pi_iters must be a non-negative integer"));
                    }
                    let replica = Replica {
                        checkpoint: String::new(),
                        stats: UpdateStats {
                            pi_loss: f[0] as f32,
                            vf_loss: f[1] as f32,
                            approx_kl: f[2] as f32,
                            entropy: f[3] as f32,
                            clip_frac: f[4] as f32,
                            grad_norm: f[5] as f32,
                            pi_iters: f[6] as usize,
                        },
                    };
                    (Some(replica), Some(index_field(&v, "bytes")?))
                }
            };
            let done = Message::ShardDone {
                epoch: index_field(&v, "epoch")?,
                shard: index_field(&v, "shard")?,
                episodes: count_field(&v, "episodes")?,
                replica,
            };
            Ok((done, bytes))
        }
        "shutdown" => whole(Message::Shutdown),
        "error" => whole(Message::Error {
            message: str_field(&v, "message")?.to_string(),
        }),
        other => Err(bad(format!("unknown verb {other:?}"))),
    }
}

/// Complete `msg` with the payload its header announced: checkpoint text
/// is checked as UTF-8 (once, here), a trajectory is decoded.
fn attach(mut msg: Message, payload: &[u8]) -> Result<Message, ProtoError> {
    let text = || std::str::from_utf8(payload).map_err(|_| bad("checkpoint payload is not UTF-8"));
    match &mut msg {
        Message::Shard { checkpoint, .. } => *checkpoint = text()?.into(),
        Message::ShardDone {
            replica: Some(r), ..
        } => r.checkpoint = text()?.into(),
        Message::Episode { summary, .. } => summary.trajectory = decode_trajectory(payload)?,
        _ => return Err(bad("payload after a frame that takes none")),
    }
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Binary trajectory payload
// ---------------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn push_f32(out: &mut Vec<u8>, x: f32) {
    out.extend_from_slice(&x.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.bytes.len())
            .ok_or_else(|| ProtoError::Binary("payload truncated".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, ProtoError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }
}

/// Encode a trajectory as the `episode_bin` payload: `u32` step count,
/// `u32` state dimension, then per step `dim × f32` state + `u8` action +
/// `f32` logp, then the `f32` terminal reward — all little-endian.
pub fn encode_trajectory(t: &Trajectory) -> Vec<u8> {
    let dim = t.steps.first().map_or(0, |s| s.state.len());
    let mut out = Vec::with_capacity(8 + t.steps.len() * (dim * 4 + 5) + 4);
    push_u32(&mut out, t.steps.len() as u32);
    push_u32(&mut out, dim as u32);
    for s in &t.steps {
        debug_assert_eq!(s.state.len(), dim, "ragged state dims in one trajectory");
        for x in &s.state {
            push_f32(&mut out, *x);
        }
        out.push(s.action);
        push_f32(&mut out, s.logp);
    }
    push_f32(&mut out, t.reward);
    out
}

/// Decode an `episode_bin` payload. Every structural violation (short
/// buffer, trailing bytes, absurd counts, non-binary action) is a typed
/// [`ProtoError::Binary`] — never a panic.
pub fn decode_trajectory(bytes: &[u8]) -> Result<Trajectory, ProtoError> {
    let mut c = Cursor { bytes, pos: 0 };
    let steps = c.u32()? as usize;
    let dim = c.u32()? as usize;
    let need = steps
        .checked_mul(dim.saturating_mul(4).saturating_add(5))
        .and_then(|n| n.checked_add(12))
        .ok_or_else(|| ProtoError::Binary("step/dim counts overflow".into()))?;
    if need != bytes.len() {
        return Err(ProtoError::Binary(format!(
            "payload holds {} bytes, header implies {need}",
            bytes.len()
        )));
    }
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut state = Vec::with_capacity(dim);
        for _ in 0..dim {
            state.push(c.f32()?);
        }
        let action = c.u8()?;
        if action > 1 {
            return Err(ProtoError::Binary(format!(
                "action byte {action} is not 0/1"
            )));
        }
        let logp = c.f32()?;
        out.push(Step {
            state,
            action,
            logp,
        });
    }
    let reward = c.f32()?;
    if c.pos != bytes.len() {
        return Err(ProtoError::Binary("trailing bytes after reward".into()));
    }
    Ok(Trajectory { steps: out, reward })
}

/// Encode an epoch's episode summaries (in ledger order) as one opaque
/// blob for the [`store::trajectory`] journal.
pub fn encode_batch(summaries: &[EpisodeSummary]) -> Vec<u8> {
    let mut out = Vec::new();
    push_u32(&mut out, summaries.len() as u32);
    for s in summaries {
        push_u32(&mut out, s.index as u32);
        out.extend_from_slice(&s.base_metric.to_le_bytes());
        out.extend_from_slice(&s.inspected_metric.to_le_bytes());
        out.extend_from_slice(&s.inspections.to_le_bytes());
        out.extend_from_slice(&s.rejections.to_le_bytes());
        let traj = encode_trajectory(&s.trajectory);
        push_u32(&mut out, traj.len() as u32);
        out.extend_from_slice(&traj);
    }
    out
}

/// Decode a blob written by [`encode_batch`].
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<EpisodeSummary>, ProtoError> {
    let mut c = Cursor { bytes, pos: 0 };
    let n = c.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let index = c.u32()? as usize;
        let base_metric = f64::from_le_bytes(c.take(8)?.try_into().unwrap());
        let inspected_metric = f64::from_le_bytes(c.take(8)?.try_into().unwrap());
        let inspections = u64::from_le_bytes(c.take(8)?.try_into().unwrap());
        let rejections = u64::from_le_bytes(c.take(8)?.try_into().unwrap());
        let len = c.u32()? as usize;
        let trajectory = decode_trajectory(c.take(len)?)?;
        out.push(EpisodeSummary {
            index,
            trajectory,
            base_metric,
            inspected_metric,
            inspections,
            rejections,
        });
    }
    if c.pos != bytes.len() {
        return Err(ProtoError::Binary("trailing bytes after batch".into()));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Frame reader
// ---------------------------------------------------------------------------

/// How far [`FrameReader`] grows its buffer at a time while the bytes
/// keep coming: one read takes a whole checkpoint, not a tenth of it.
const READ_STEP: usize = 64 << 10;

/// Incremental frame reader over a [`Transport`]. [`poll_frame`] is the
/// one way in: `Ok(Some(_))` is a whole frame — header parsed, payload
/// read and attached; `Ok(None)` means the transport's read timeout
/// elapsed with the frame still incomplete (what has arrived, and a
/// header already parsed, are kept — poll again); EOF surfaces as
/// [`ProtoError::Closed`].
///
/// [`poll_frame`]: FrameReader::poll_frame
pub struct FrameReader {
    /// Storage; the unread bytes are `buf[start..end]`. Its length only
    /// follows what has arrived (doubling, at least [`READ_STEP`]) and
    /// never passes `max` — no count a peer announces sizes it.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Unread bytes already known to hold no newline.
    scanned: usize,
    /// A header whose announced payload has not all arrived.
    pending: Option<(Message, usize)>,
    max: usize,
}

impl FrameReader {
    /// A reader that refuses a header line, or a payload, over `max` bytes.
    pub fn new(max: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            end: 0,
            scanned: 0,
            pending: None,
            max,
        }
    }

    /// Pull more bytes from `t` for a frame that may still take `limit`
    /// unread bytes in all (and holds fewer). `Ok(true)` if any arrived,
    /// `Ok(false)` on a timeout tick.
    fn fill<T: Transport>(&mut self, t: &mut T, limit: usize) -> Result<bool, ProtoError> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            let grown = (self.end * 2).max(self.end + READ_STEP).min(limit);
            self.buf.resize(grown, 0);
        }
        match t.read(&mut self.buf[self.end..]) {
            Ok(0) => Err(ProtoError::Closed),
            Ok(n) => {
                self.end += n;
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(ProtoError::Io(e.to_string())),
        }
    }

    /// Next complete line (without the newline), or `None` on a timeout.
    fn poll_line<T: Transport>(&mut self, t: &mut T) -> Result<Option<&str>, ProtoError> {
        loop {
            let unread = &self.buf[self.start..self.end];
            if let Some(at) = unread[self.scanned..].iter().position(|b| *b == b'\n') {
                let line = self.start..self.start + self.scanned + at;
                self.start = line.end + 1;
                self.scanned = 0;
                let line = &self.buf[line];
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                return std::str::from_utf8(line)
                    .map(Some)
                    .map_err(|_| bad("frame is not UTF-8"));
            }
            self.scanned = unread.len();
            if self.scanned >= self.max {
                return Err(ProtoError::TooLong { limit: self.max });
            }
            if !self.fill(t, self.max)? {
                return Ok(None);
            }
        }
    }

    /// Next `n` raw payload bytes, or `None` on a timeout with the
    /// payload still incomplete.
    fn poll_bytes<T: Transport>(
        &mut self,
        t: &mut T,
        n: usize,
    ) -> Result<Option<&[u8]>, ProtoError> {
        while self.end - self.start < n {
            if !self.fill(t, n)? {
                return Ok(None);
            }
        }
        self.start += n;
        Ok(Some(&self.buf[self.start - n..self.start]))
    }

    /// Next whole frame, or `None` on a timeout (see the type's docs).
    pub fn poll_frame<T: Transport>(&mut self, t: &mut T) -> Result<Option<Message>, ProtoError> {
        let (msg, bytes) = match self.pending.take() {
            Some(pending) => pending,
            None => {
                let Some(line) = self.poll_line(t)? else {
                    return Ok(None);
                };
                let (msg, bytes) = parse_header(line)?;
                let Some(bytes) = bytes else {
                    return Ok(Some(msg));
                };
                if bytes > self.max {
                    return Err(ProtoError::TooLong { limit: self.max });
                }
                (msg, bytes)
            }
        };
        match self.poll_bytes(t, bytes)? {
            Some(payload) => attach(msg, payload).map(Some),
            None => {
                self.pending = Some((msg, bytes));
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(index: usize) -> EpisodeSummary {
        EpisodeSummary {
            index,
            trajectory: Trajectory {
                steps: vec![
                    Step {
                        state: vec![0.1, -2.5e-7, 1.0 / 3.0],
                        action: 0,
                        logp: -std::f32::consts::LN_2,
                    },
                    Step {
                        state: vec![f32::MIN_POSITIVE, 1e30, -0.0],
                        action: 1,
                        logp: -1.25,
                    },
                ],
                reward: 0.012_345_67,
            },
            base_metric: 123.456_789_012_345,
            inspected_metric: -0.000_001_234,
            inspections: 17,
            rejections: 3,
        }
    }

    /// A peer that has sent `0` and closed; `1` is how far it was read.
    struct Replay(Vec<u8>, usize);

    impl Transport for Replay {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.0.len() - self.1);
            buf[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
            self.1 += n;
            Ok(n)
        }
        fn write_all(&mut self, _buf: &[u8]) -> std::io::Result<()> {
            Ok(())
        }
        fn configure(&mut self, _t: Option<std::time::Duration>) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The one frame in `wire`, and nothing after it.
    fn read_back(wire: &[u8]) -> Result<Message, ProtoError> {
        let mut t = Replay(wire.to_vec(), 0);
        let mut reader = FrameReader::new(MAX_FRAME_BYTES);
        let msg = reader.poll_frame(&mut t)?.expect("no timeouts in memory");
        assert_eq!(reader.poll_frame(&mut t), Err(ProtoError::Closed));
        Ok(msg)
    }

    fn roundtrip(msg: &Message) -> Message {
        let mut wire = String::new();
        write_message(msg, &mut wire);
        read_back(wire.as_bytes()).expect("wire roundtrip")
    }

    #[test]
    fn every_message_roundtrips_exactly() {
        let msgs = [
            Message::Hello {
                proto: PROTO_VERSION,
                input_dim: 7,
                seed: u64::MAX - 3,
                world: 0xFEED_FACE_0000_0001,
            },
            Message::Shard {
                epoch: 4,
                shard: 1,
                seed_base: 0xDEAD_BEEF_CAFE_F00D,
                merge: MergeMode::Decentralized,
                frame: FrameKind::Binary,
                assignments: vec![(0, 12), (1, 0), (2, 999)],
                checkpoint: "schedinspector-checkpoint v1\nline \"two\" \\ µ\n".into(),
            },
            Message::Episode {
                epoch: 2,
                summary: summary(5),
            },
            Message::ShardDone {
                epoch: 2,
                shard: 0,
                episodes: 25,
                replica: Some(Replica {
                    checkpoint: "ck\ntext".into(),
                    stats: UpdateStats {
                        pi_loss: -0.125,
                        vf_loss: 2.5,
                        approx_kl: 0.001,
                        entropy: 0.69,
                        clip_frac: 0.25,
                        grad_norm: 3.5,
                        pi_iters: 10,
                    },
                }),
            },
            Message::ShardDone {
                epoch: 0,
                shard: 3,
                episodes: 0,
                replica: None,
            },
            Message::Shutdown,
            Message::Error {
                message: "it \"broke\"\nbadly".into(),
            },
        ];
        for msg in &msgs {
            assert_eq!(&roundtrip(msg), msg);
        }
        // An episode reads back the same from either encoding.
        for frame in [FrameKind::Json, FrameKind::Binary] {
            let mut wire = Vec::new();
            write_episode(2, &summary(5), frame, &mut wire);
            assert_eq!(read_back(&wire).as_ref(), Ok(&msgs[2]), "{frame:?}");
        }
    }

    #[test]
    fn u64_seeds_survive_above_f64_precision() {
        // 2^53 + 1 is exactly the first value a JSON number would corrupt.
        let seed = (1u64 << 53) + 1;
        match roundtrip(&Message::Hello {
            proto: 1,
            input_dim: 1,
            seed,
            world: seed + 1,
        }) {
            Message::Hello {
                seed: got, world, ..
            } => assert_eq!((got, world), (seed, seed + 1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn episode_floats_cross_the_wire_bit_exactly() {
        let s = summary(0);
        match roundtrip(&Message::Episode {
            epoch: 0,
            summary: s.clone(),
        }) {
            Message::Episode { summary: got, .. } => {
                assert_eq!(got, s);
                // Spot-check the bits, not just PartialEq.
                assert_eq!(
                    got.trajectory.steps[0].logp.to_bits(),
                    s.trajectory.steps[0].logp.to_bits()
                );
                assert_eq!(got.base_metric.to_bits(), s.base_metric.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn binary_trajectory_roundtrips_and_rejects_corruption() {
        let t = summary(0).trajectory;
        let bytes = encode_trajectory(&t);
        assert_eq!(decode_trajectory(&bytes).unwrap(), t);
        // Truncations at every byte boundary fail cleanly.
        for cut in 0..bytes.len() {
            assert!(decode_trajectory(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing junk fails.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_trajectory(&long).is_err());
        // A non-binary action byte fails: flip the first step's action.
        let mut bad = bytes.clone();
        let action_at = 8 + 3 * 4;
        bad[action_at] = 7;
        assert!(decode_trajectory(&bad).is_err());
        // Empty trajectory is fine.
        let empty = Trajectory::default();
        assert_eq!(
            decode_trajectory(&encode_trajectory(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn batch_blob_roundtrips() {
        let batch = vec![summary(0), summary(1), summary(7)];
        let bytes = encode_batch(&batch);
        assert_eq!(decode_batch(&bytes).unwrap(), batch);
        assert!(decode_batch(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes;
        long.push(9);
        assert!(decode_batch(&long).is_err());
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), vec![]);
    }

    #[test]
    fn parse_rejects_malformed_lines_with_typed_errors() {
        for line in [
            "",
            "{",
            "null",
            "{\"verb\":\"nope\"}",
            "{\"verb\":\"hello\",\"proto\":2,\"input_dim\":7,\"world\":\"0a\"}", // missing seed
            "{\"verb\":\"hello\",\"proto\":2,\"input_dim\":7,\"seed\":12,\"world\":\"0a\"}", // numeric seed
            "{\"verb\":\"hello\",\"proto\":2,\"input_dim\":7,\"seed\":\"0a\"}", // missing world
            "{\"verb\":\"shard\",\"epoch\":0}",
            "{\"verb\":\"episode\",\"epoch\":0,\"index\":0,\"base_metric\":1,\
             \"inspected_metric\":1,\"inspections\":0,\"rejections\":0,\"reward\":0,\
             \"steps\":[[[1],2,0.0]]}", // action 2
            "{\"verb\":\"episode_bin\",\"epoch\":0,\"index\":0,\"base_metric\":1,\
             \"inspected_metric\":1,\"inspections\":0,\"rejections\":0,\"bytes\":-4}",
            "{\"verb\":\"shard_done\",\"epoch\":0,\"shard\":0,\"episodes\":1,\
             \"stats\":[1,2,3],\"bytes\":2}", // short stats
            "{\"verb\":\"shard_done\",\"epoch\":0,\"shard\":0,\"episodes\":1,\"bytes\":2}", // no stats
        ] {
            assert!(parse_header(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn oversized_bin_header_is_too_long() {
        let wire = format!(
            "{{\"verb\":\"episode_bin\",\"epoch\":0,\"index\":0,\"base_metric\":1,\
             \"inspected_metric\":1,\"inspections\":0,\"rejections\":0,\"bytes\":{}}}\n",
            MAX_FRAME_BYTES + 1
        );
        assert_eq!(
            read_back(wire.as_bytes()),
            Err(ProtoError::TooLong {
                limit: MAX_FRAME_BYTES
            })
        );
    }
}
