//! Trajectory wire-format fuzzing, mirroring `serve/tests/protocol_fuzz.rs`:
//! arbitrary byte junk, truncated frames, single-byte mutations, and
//! corrupted payloads through `FrameReader::poll_frame` — the one way a
//! frame is read — over an in-memory peer that splits, stalls and closes
//! where the test says; plus a live coordinator fed junk connections, a
//! hostile replica and a worker that goes quiet mid-payload, which must
//! all end as typed connection deaths while a real worker trains on.

mod common;

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{make_trainer, EPOCHS};
use dist::protocol::{
    decode_batch, decode_trajectory, encode_trajectory, write_episode, write_message, FrameReader,
    Message, Replica, MAX_FRAME_BYTES, PROTO_VERSION,
};
use dist::{
    spawn_local_workers, Coordinator, DistConfig, DistError, FrameKind, MergeMode, ProtoError,
};
use inspector::EpisodeSummary;
use obs::Telemetry;
use proptest::prelude::*;
use rlcore::{Step, Trajectory};
use serve::Transport;
use workload::{profiles, synthetic};

/// An in-memory peer: hands out `data` at most `step` bytes per `read`,
/// never across a `cuts` offset — where the read before it times out
/// once — and closes when `data` runs out.
struct Wire {
    data: Vec<u8>,
    pos: usize,
    step: usize,
    cuts: Vec<usize>,
    timed_out_at: Option<usize>,
}

impl Wire {
    fn new(data: impl Into<Vec<u8>>) -> Wire {
        Wire {
            data: data.into(),
            pos: 0,
            step: usize::MAX,
            cuts: Vec::new(),
            timed_out_at: None,
        }
    }
}

impl Transport for Wire {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        assert!(!buf.is_empty(), "a read with nowhere to put a byte");
        if self.cuts.contains(&self.pos) && self.timed_out_at != Some(self.pos) {
            self.timed_out_at = Some(self.pos);
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let stop = self
            .cuts
            .iter()
            .copied()
            .filter(|c| *c > self.pos)
            .min()
            .unwrap_or(self.data.len())
            .min(self.data.len());
        let n = buf.len().min(self.step).min(stop - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
    fn write_all(&mut self, _buf: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
    fn configure(&mut self, _t: Option<Duration>) -> std::io::Result<()> {
        Ok(())
    }
}

/// Everything `poll_frame` makes of `wire`: the frames, then the error
/// that ends every stream (`Closed` after a clean last frame).
fn frames(wire: &mut Wire) -> (Vec<Message>, ProtoError) {
    let mut reader = FrameReader::new(MAX_FRAME_BYTES);
    let mut out = Vec::new();
    loop {
        match reader.poll_frame(wire) {
            Ok(Some(msg)) => out.push(msg),
            Ok(None) => {}
            Err(e) => return (out, e),
        }
    }
}

fn wire_of(msg: &Message) -> String {
    let mut out = String::new();
    write_message(msg, &mut out);
    out
}

/// Checkpoint-shaped text with everything a JSON string would have had
/// to escape: quotes, a backslash, non-ASCII, and a trailing newline.
const CHECKPOINT: &str = "schedinspector-checkpoint v1\nline two \"quoted\" \\ µ ≡\n";

/// A valid shard frame with a non-trivial payload.
fn shard(frame: FrameKind, checkpoint: &str) -> Message {
    Message::Shard {
        epoch: 3,
        shard: 1,
        seed_base: 0xDEAD_BEEF_CAFE_F00D,
        merge: MergeMode::Decentralized,
        frame,
        assignments: vec![(0, 7), (1, 0), (2, 31)],
        checkpoint: checkpoint.into(),
    }
}

fn shard_done(checkpoint: &str) -> Message {
    Message::ShardDone {
        epoch: 3,
        shard: 1,
        episodes: 3,
        replica: Some(Replica {
            checkpoint: checkpoint.into(),
            stats: rlcore::UpdateStats {
                pi_loss: -0.125,
                vf_loss: 2.5,
                approx_kl: 0.001,
                entropy: 0.69,
                clip_frac: 0.25,
                grad_norm: 3.5,
                pi_iters: 10,
            },
        }),
    }
}

fn tiny_trajectory(steps: usize, dim: usize) -> Trajectory {
    Trajectory {
        steps: (0..steps)
            .map(|i| Step {
                state: (0..dim)
                    .map(|j| (i * dim + j) as f32 * 0.25 - 1.0)
                    .collect(),
                action: (i % 2) as u8,
                logp: -0.5 - i as f32,
            })
            .collect(),
        reward: -2.25,
    }
}

fn episode(steps: usize, dim: usize) -> EpisodeSummary {
    EpisodeSummary {
        index: 4,
        trajectory: tiny_trajectory(steps, dim),
        base_metric: 12.5,
        inspected_metric: 11.25,
        inspections: steps as u64,
        rejections: 1,
    }
}

/// One frame of every kind that carries a payload, on both `FrameKind`s,
/// as `(wire bytes, the message they must read back as)`.
fn payload_frames() -> Vec<(Vec<u8>, Message)> {
    let mut out = Vec::new();
    for frame in [FrameKind::Json, FrameKind::Binary] {
        let msg = shard(frame, CHECKPOINT);
        out.push((wire_of(&msg).into_bytes(), msg));
        let mut wire = Vec::new();
        write_episode(2, &episode(3, 4), frame, &mut wire);
        let msg = Message::Episode {
            epoch: 2,
            summary: episode(3, 4),
        };
        out.push((wire, msg));
    }
    let msg = shard_done(CHECKPOINT);
    out.push((wire_of(&msg).into_bytes(), msg));
    out
}

/// `write → poll_frame` is the identity, byte-exact, however the bytes
/// arrive: at once, one per read, or cut (with a read timeout at the
/// cut, so the half-read frame must survive it) at every offset.
#[test]
fn payload_frames_roundtrip_however_they_are_split() {
    for (wire, msg) in payload_frames() {
        let mut whole = Wire::new(wire.clone());
        assert_eq!(
            frames(&mut whole),
            (vec![msg.clone()], ProtoError::Closed),
            "{msg:?}"
        );
        let mut dribble = Wire::new(wire.clone());
        dribble.step = 1;
        assert_eq!(
            frames(&mut dribble),
            (vec![msg.clone()], ProtoError::Closed)
        );
        for cut in 1..wire.len() {
            let mut split = Wire::new(wire.clone());
            split.cuts = vec![cut];
            assert_eq!(
                frames(&mut split),
                (vec![msg.clone()], ProtoError::Closed),
                "cut at {cut} of {msg:?}"
            );
        }
    }
    // The payload is the checkpoint's bytes, not an encoding of them.
    let wire = wire_of(&shard(FrameKind::Binary, CHECKPOINT));
    let (header, payload) = wire.split_once('\n').expect("a header line");
    assert!(header.ends_with(&format!("\"bytes\":{}}}", CHECKPOINT.len())));
    assert_eq!(payload, CHECKPOINT);
}

/// The header of `wire` (its first line) with `from` replaced by `to`,
/// the rest untouched.
fn with_header(wire: &[u8], from: &str, to: &str) -> Vec<u8> {
    let at = wire.iter().position(|b| *b == b'\n').expect("a header");
    let header = std::str::from_utf8(&wire[..at]).expect("headers are text");
    assert!(header.contains(from), "{header:?} has no {from:?}");
    let mut out = header.replacen(from, to, 1).into_bytes();
    out.extend_from_slice(&wire[at..]);
    out
}

/// Every way a payload frame can be damaged ends in a typed error —
/// never a panic, a hang, or memory sized by what the header claimed.
#[test]
fn damaged_payload_frames_are_typed_errors() {
    let shutdown = wire_of(&Message::Shutdown);
    for (wire, msg) in payload_frames() {
        let at = wire.iter().position(|b| *b == b'\n').expect("a header") + 1;
        let len = wire.len() - at;
        if len == 0 {
            continue; // the JSON episode: a line, no payload to damage
        }
        let bytes = |n: usize| (format!("\"bytes\":{len}}}"), format!("\"bytes\":{n}}}"));

        // A count over the limit is refused on the header alone: the peer
        // stands ready to supply every byte, and is not asked for them.
        let (from, to) = bytes(MAX_FRAME_BYTES + 1);
        let mut greedy = with_header(&wire, &from, &to);
        greedy.resize(at + (1 << 20), b'x');
        let mut greedy = Wire::new(greedy);
        let limit = MAX_FRAME_BYTES;
        assert_eq!(frames(&mut greedy), (vec![], ProtoError::TooLong { limit }));
        assert!(greedy.pos <= 128 << 10, "read {} bytes", greedy.pos);

        // Cut short, then EOF, anywhere in the payload.
        for cut in [at, at + 1, wire.len() - 1] {
            let mut short = Wire::new(&wire[..cut]);
            assert_eq!(frames(&mut short), (vec![], ProtoError::Closed), "{cut}");
        }

        // A count one too few or one too many puts the next header in the
        // wrong place: that header is refused, nothing waits for more.
        for n in [len - 1, len + 1] {
            let (from, to) = bytes(n);
            let mut skewed = with_header(&wire, &from, &to);
            skewed.extend_from_slice(shutdown.as_bytes());
            let (_, err) = frames(&mut Wire::new(skewed));
            assert!(
                matches!(err, ProtoError::Malformed(_) | ProtoError::Binary(_)),
                "bytes {n} for {len}: {err}"
            );
        }

        // Checkpoint text is checked as UTF-8; a trajectory by its decoder.
        let mut spoiled = wire.clone();
        spoiled[at] = 0xFF;
        let (got, err) = frames(&mut Wire::new(spoiled));
        assert!(got.is_empty());
        match msg {
            Message::Episode { .. } => assert!(matches!(err, ProtoError::Binary(_)), "{err}"),
            _ => assert!(matches!(err, ProtoError::Malformed(_)), "{err}"),
        }
    }

    // The v2 forms — the text inside the line, no count — are refused by
    // name, not mistaken for a frame without a payload.
    for v2 in [
        "{\"verb\":\"shard\",\"epoch\":0,\"shard\":0,\"seed_base\":\"000000000000002a\",\
         \"merge\":\"sync\",\"frame\":\"json\",\"assignments\":[[0,0]],\"checkpoint\":\"ck\"}\n",
        "{\"verb\":\"shard_done\",\"epoch\":0,\"shard\":0,\"episodes\":1,\"replica\":\"ck\",\
         \"stats\":[1,2,3,4,5,6,7]}\n",
    ] {
        match frames(&mut Wire::new(v2)) {
            (got, ProtoError::Malformed(why)) if got.is_empty() => {
                assert!(why.contains("\"bytes\""), "{why}")
            }
            other => panic!("{v2:?} read as {other:?}"),
        }
    }
}

/// A reader's work is linear in what it is sent, however it arrives: a
/// 256 KiB line and a 256 KiB payload, one byte per `read`. (The parent
/// rescanned its whole buffer for the newline after every read — about
/// 3 × 10¹⁰ compares for the line alone.)
#[test]
fn one_byte_reads_cost_what_they_carry() {
    let start = Instant::now();
    let long = episode(3000, 12);
    let mut line = Vec::new();
    write_episode(0, &long, FrameKind::Json, &mut line);
    assert!(line.len() >= 256 << 10, "{} bytes", line.len());
    let checkpoint = "0123456789abcde\n".repeat(16 << 10);
    let payload = wire_of(&shard(FrameKind::Json, &checkpoint));
    for (wire, msg) in [
        (
            line,
            Message::Episode {
                epoch: 0,
                summary: long,
            },
        ),
        (payload.into_bytes(), shard(FrameKind::Json, &checkpoint)),
    ] {
        let mut dribble = Wire::new(wire);
        dribble.step = 1;
        assert_eq!(frames(&mut dribble), (vec![msg], ProtoError::Closed));
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "{:?}",
        start.elapsed()
    );
}

/// A `shard` costs its payload's length, not a JSON string's: 4 MiB of
/// checkpoint, written and read back, in well under a second in debug
/// (as a string field the parent's parser would have needed minutes).
#[test]
fn a_large_checkpoint_is_handled_in_proportion() {
    let checkpoint = "0123456789abcde\n".repeat(256 << 10);
    let msg = shard(FrameKind::Binary, &checkpoint);
    let start = Instant::now();
    let mut wire = Wire::new(wire_of(&msg));
    assert_eq!(frames(&mut wire), (vec![msg], ProtoError::Closed));
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "{:?}",
        start.elapsed()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte junk, arriving in arbitrary pieces: frames or a
    /// typed `ProtoError`, never a panic or a reader that does not end.
    #[test]
    fn poll_frame_never_panics_on_junk(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        cuts in prop::collection::vec(0usize..256, 0..4),
        step in 1usize..64,
    ) {
        let mut wire = Wire::new(bytes);
        wire.cuts = cuts;
        wire.step = step;
        let _ = frames(&mut wire);
    }

    /// A header and its payload split anywhere, any number of times, with
    /// a timeout at every split, are still the one frame they were; and
    /// every strict prefix is no frame at all — a truncated frame is
    /// never misread as a shorter one.
    #[test]
    fn split_and_truncated_frames_read_cleanly(
        which in 0usize..5,
        cuts in prop::collection::vec(any::<u64>(), 0..6),
        step in 1usize..64,
        cut in any::<u64>(),
    ) {
        let (bytes, msg) = payload_frames().swap_remove(which);
        let mut wire = Wire::new(bytes.clone());
        wire.cuts = cuts.iter().map(|c| (*c as usize) % bytes.len()).collect();
        wire.step = step;
        prop_assert_eq!(frames(&mut wire), (vec![msg], ProtoError::Closed));

        let mut prefix = Wire::new(&bytes[..(cut as usize) % bytes.len()]);
        prefix.step = step;
        prop_assert_eq!(frames(&mut prefix), (vec![], ProtoError::Closed));
    }

    /// Single-byte mutations (insert, delete, flip) anywhere in a frame —
    /// header, count or payload — never panic the reader; whatever still
    /// reads is a well-typed message that writes and reads back.
    #[test]
    fn mutated_frames_never_panic(
        which in 0usize..5,
        pos in any::<u64>(),
        byte in any::<u8>(),
        kind in 0u8..3,
    ) {
        let (mut bytes, _) = payload_frames().swap_remove(which);
        let at = (pos as usize) % bytes.len();
        match kind {
            0 => bytes.insert(at, byte),
            1 => {
                bytes.remove(at);
            }
            _ => bytes[at] ^= byte | 1,
        }
        for msg in frames(&mut Wire::new(bytes)).0 {
            // A surviving mutation must still round-trip exactly (but for
            // an episode float mutated past `f32`: that is written `null`).
            let again = frames(&mut Wire::new(wire_of(&msg)));
            if !matches!(msg, Message::Episode { .. }) {
                prop_assert_eq!(again, (vec![msg], ProtoError::Closed));
            }
        }
    }

    /// Binary trajectory payloads survive every truncation and byte flip
    /// as typed errors — the decoder is length-exact and never panics.
    #[test]
    fn corrupted_binary_payloads_error_cleanly(
        steps in 0usize..6,
        dim in 1usize..8,
        cut in any::<u64>(),
        flip_at in any::<u64>(),
        flip_bits in 1u8..=255,
    ) {
        let payload = encode_trajectory(&tiny_trajectory(steps, dim));
        prop_assert!(decode_trajectory(&payload).is_ok());

        let at = (cut as usize) % payload.len();
        prop_assert!(
            decode_trajectory(&payload[..at]).is_err(),
            "truncation to {at} of {} accepted", payload.len()
        );

        let mut longer = payload.clone();
        longer.push(0);
        prop_assert!(decode_trajectory(&longer).is_err(), "trailing junk accepted");

        // A bit flip may land in float payload bytes (decodes to different
        // floats — still structurally valid); it must never panic, and a
        // flip in the header/action region is rejected.
        let mut flipped = payload.clone();
        let fat = (flip_at as usize) % flipped.len();
        flipped[fat] ^= flip_bits;
        let _ = decode_trajectory(&flipped);
    }

    /// Same resilience for the journaled batch blob.
    #[test]
    fn corrupted_batch_blobs_never_panic(junk in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode_batch(&junk);
    }
}

/// A worker's side of a live connection, for the fakes below: the socket
/// and the reader that takes whole frames off it.
struct Peer {
    stream: TcpStream,
    reader: FrameReader,
}

/// What a worker of `trainer`'s world says first, at version `proto`.
fn hello(trainer: &inspector::Trainer, proto: u64) -> Message {
    Message::Hello {
        proto,
        input_dim: trainer.features().dim(),
        seed: trainer.config().seed,
        world: trainer.world_digest(),
    }
}

impl Peer {
    fn join(addr: std::net::SocketAddr, hello: &Message) -> Peer {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(wire_of(hello).as_bytes())
            .expect("send hello");
        Peer {
            stream,
            reader: FrameReader::new(MAX_FRAME_BYTES),
        }
    }

    /// The next frame the coordinator sends (the socket blocks).
    fn next(&mut self) -> Result<Message, ProtoError> {
        loop {
            if let Some(msg) = self.reader.poll_frame(&mut self.stream)? {
                return Ok(msg);
            }
        }
    }
}

/// A live coordinator fed pipelined junk on extra connections: every junk
/// connection dies a typed death, the real worker keeps training, and the
/// run completes with the same bytes as an unmolested run.
#[test]
fn live_coordinator_sheds_junk_connections_and_still_trains() {
    let trace = synthetic::generate(&profiles::SDSC_SP2, 72, 7);
    let seed = 42;
    let (clean_ckpt, _, _) = common::run_dist(&trace, seed, 1, 1, MergeMode::Sync, FrameKind::Json);

    let mut coordinator_trainer = make_trainer(trace.clone(), seed);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.addr();

    let mut wrong_world = String::new();
    write_message(
        &Message::Hello {
            proto: PROTO_VERSION,
            input_dim: coordinator_trainer.features().dim(),
            seed,
            world: !coordinator_trainer.world_digest(),
        },
        &mut wrong_world,
    );
    let worker_trainer = make_trainer(trace, seed);
    let junker = std::thread::spawn(move || {
        // A well-formed hello from another world is answered, not dropped:
        // one `error` frame naming the mismatch, then the close. The real
        // worker starts only afterwards, so the run cannot finish first.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(wrong_world.as_bytes()).expect("send hello");
        let mut reply = Vec::new();
        s.read_to_end(&mut reply).expect("read until close");
        match frames(&mut Wire::new(reply.clone())) {
            (got, ProtoError::Closed) if got.len() == 1 => match &got[0] {
                Message::Error { message } => assert!(message.contains("world"), "{message}"),
                other => panic!("expected an error frame, got {other:?}"),
            },
            other => panic!("expected one error frame, got {other:?} from {reply:?}"),
        }

        // So is a worker of the right world built before the payload
        // frames: its `hello` still parses here, and the `error` it gets
        // back parses there — one frame naming both versions, then the close.
        let mut old = Peer::join(addr, &hello(&worker_trainer, PROTO_VERSION - 1));
        match old.next() {
            Ok(Message::Error { message }) => {
                assert!(message.contains("version 2"), "{message}");
                assert!(message.contains(&PROTO_VERSION.to_string()), "{message}");
            }
            other => panic!("expected one error frame, got {other:?}"),
        }
        assert_eq!(old.next(), Err(ProtoError::Closed));

        // Junk clients race the real worker: raw garbage, a valid-verb
        // frame before hello, a truncated hello, a complete hello from
        // before the world digest existed, a payload frame before hello,
        // and an abrupt disconnect.
        let workers = spawn_local_workers(addr, vec![worker_trainer]);
        let early_shard = wire_of(&shard(FrameKind::Json, CHECKPOINT));
        let payloads: [&[u8]; 6] = [
            b"!!!! not json at all\n\x00\xff\xfe garbage\n",
            b"{\"verb\":\"episode\",\"epoch\":0}\n",
            b"{\"verb\":\"hello\",\"proto\":1,\"input_dim\"",
            b"{\"verb\":\"hello\",\"proto\":1,\"input_dim\":8,\"seed\":\"000000000000002a\"}\n",
            early_shard.as_bytes(),
            b"",
        ];
        for p in payloads {
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.write_all(p);
                // Linger briefly so the coordinator reads the junk rather
                // than seeing an instant EOF.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        workers
    });

    let cfg = DistConfig {
        shards: 1,
        ..DistConfig::default()
    };
    let report = coordinator
        .run(&mut coordinator_trainer, &cfg, None, &Telemetry::disabled())
        .expect("junk connections must not sink the run");
    let _ = junker.join().expect("junk clients").join();

    assert_eq!(
        coordinator_trainer.checkpoint_text(EPOCHS),
        clean_ckpt,
        "junk traffic must not perturb training"
    );
    assert_eq!(report.episodes, (EPOCHS * common::BATCH) as u64);
}

/// A worker that answers its shard with an `episode_bin` header and half
/// the payload, then goes quiet — alive, reading, sending nothing. The
/// watchdog hands its shard to the healthy worker and the run ends in the
/// local-equal checkpoint; and the thread serving the quiet connection
/// ends with the run: within 2 s of `run` returning, the fake has read
/// `shutdown` and then EOF.
///
/// On the parent this fails at the last step: that thread waited for the
/// rest of the payload in a loop that retried on every read timeout
/// without looking at its queue, so it never saw `Shutdown` or `Close`,
/// outlived `run` (detached, nobody joins it), and the fake's read timed
/// out with the connection still open.
#[test]
fn live_coordinator_lets_go_of_a_worker_that_stalls_mid_payload() {
    let trace = synthetic::generate(&profiles::SDSC_SP2, 72, 7);
    let seed = 42;
    let (clean_ckpt, _, _) =
        common::run_dist(&trace, seed, 1, 1, MergeMode::Sync, FrameKind::Binary);

    let mut coordinator_trainer = make_trainer(trace.clone(), seed);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.addr();
    let worker_trainer = make_trainer(trace, seed);
    let (returned_tx, returned) = std::sync::mpsc::channel::<Instant>();

    let fake = std::thread::spawn(move || {
        let mut peer = Peer::join(addr, &hello(&worker_trainer, PROTO_VERSION));
        let Ok(Message::Shard { epoch, .. }) = peer.next() else {
            panic!("expected a shard frame");
        };
        let mut answer = Vec::new();
        write_episode(epoch, &episode(8, 8), FrameKind::Binary, &mut answer);
        let header = answer.iter().position(|b| *b == b'\n').expect("a header") + 1;
        let half = header + (answer.len() - header) / 2;
        peer.stream.write_all(&answer[..half]).expect("send half");
        // Only now is there anyone to finish the epoch.
        let workers = spawn_local_workers(addr, vec![worker_trainer]);

        // From here the fake only reads: a shard per epoch (each one the
        // watchdog takes back), then `shutdown`, then the close.
        peer.stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("set timeout");
        let mut deadline = None;
        loop {
            match peer.reader.poll_frame(&mut peer.stream) {
                Ok(None | Some(Message::Shard { .. } | Message::Shutdown)) => {}
                Err(ProtoError::Closed) => break,
                other => panic!("expected shards, shutdown, then the close: {other:?}"),
            }
            if deadline.is_none() {
                deadline = returned.try_recv().ok().map(|t| t + Duration::from_secs(2));
            }
            if let Some(deadline) = deadline {
                assert!(Instant::now() < deadline, "still open 2 s after `run`");
            }
        }
        workers
    });

    let cfg = DistConfig {
        shards: 1,
        frame: FrameKind::Binary,
        shard_timeout: Duration::from_millis(200),
        ..DistConfig::default()
    };
    let report = coordinator
        .run(&mut coordinator_trainer, &cfg, None, &Telemetry::disabled())
        .expect("a quiet worker must not sink the run");
    returned_tx.send(Instant::now()).expect("fake is waiting");
    let _ = fake.join().expect("the fake's assertions").join();

    assert_eq!(coordinator_trainer.checkpoint_text(EPOCHS), clean_ckpt);
    assert!(report.reassignments >= 1, "{report:?}");
}

/// A worker that joins honestly and then answers its shard with a replica
/// whose checkpoint claims 2^64 - 1 layers: the coordinator parses every
/// replica it is sent, in either merge mode, on its scheduler thread — the
/// run must end in a typed error naming the line, not unwind.
#[test]
fn live_coordinator_refuses_a_hostile_replica_without_unwinding() {
    let seed = 42;
    let mut trainer = make_trainer(synthetic::generate(&profiles::SDSC_SP2, 72, 7), seed);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.addr();
    let good = trainer.checkpoint_text(0);
    let hostile = good.replacen("layers 4", "layers 18446744073709551615", 1);
    assert_ne!(hostile, good);
    let hello = hello(&trainer, PROTO_VERSION);

    let fake_worker = std::thread::spawn(move || {
        let mut peer = Peer::join(addr, &hello);
        let (epoch, shard) = match peer.next() {
            Ok(Message::Shard {
                epoch,
                shard,
                checkpoint,
                ..
            }) => {
                assert_eq!(&*checkpoint, good, "the payload is the checkpoint text");
                (epoch, shard)
            }
            other => panic!("expected a shard frame, got {other:?}"),
        };
        let done = wire_of(&Message::ShardDone {
            epoch,
            shard,
            episodes: 0,
            replica: Some(Replica {
                checkpoint: hostile,
                stats: Default::default(),
            }),
        });
        peer.stream
            .write_all(done.as_bytes())
            .expect("send shard_done");
    });

    let cfg = DistConfig {
        shards: 1,
        ..DistConfig::default()
    };
    let err = coordinator
        .run(&mut trainer, &cfg, None, &Telemetry::disabled())
        .expect_err("a replica that does not parse ends the run");
    fake_worker.join().expect("fake worker");
    match err {
        DistError::Train(msg) => assert!(msg.contains("line "), "{msg}"),
        other => panic!("expected DistError::Train, got {other}"),
    }
}

/// An oversized line is rejected as `TooLong` — bounded memory, no hang.
#[test]
fn oversized_lines_are_too_long_not_oom() {
    struct Endless;
    impl Transport for Endless {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            buf.fill(b'x'); // newline-free forever
            Ok(buf.len())
        }
        fn write_all(&mut self, _buf: &[u8]) -> std::io::Result<()> {
            Ok(())
        }
        fn configure(&mut self, _t: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }
    }

    let mut reader = FrameReader::new(1 << 16);
    let mut t = Endless;
    let err = loop {
        match reader.poll_frame(&mut t) {
            Ok(None) => continue,
            Ok(Some(msg)) => panic!("fabricated a frame from newline-free input: {msg:?}"),
            Err(e) => break e,
        }
    };
    match err {
        ProtoError::TooLong { limit } => assert_eq!(limit, 1 << 16),
        other => panic!("expected TooLong, got {other}"),
    }
    const {
        assert!(
            MAX_FRAME_BYTES >= 1 << 20,
            "production limit fits real frames"
        );
    }
}
