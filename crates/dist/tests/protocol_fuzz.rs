//! Trajectory wire-format fuzzing, mirroring `serve/tests/protocol_fuzz.rs`:
//! arbitrary byte junk, truncated frames, single-byte mutations, and
//! corrupted binary payloads through the pure codec — plus a live
//! coordinator fed pipelined junk connections, which must shed them as
//! typed connection deaths while a real worker trains to completion.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use common::{make_trainer, EPOCHS};
use dist::protocol::{
    decode_batch, decode_trajectory, encode_trajectory, parse_message, write_message, Message,
    Replica,
};
use dist::{
    spawn_local_workers, Coordinator, DistConfig, DistError, FrameKind, MergeMode, ProtoError,
};
use obs::Telemetry;
use proptest::prelude::*;
use rlcore::{Step, Trajectory};
use workload::{profiles, synthetic};

/// A syntactically valid shard frame with a non-trivial payload.
fn valid_shard_line() -> String {
    let mut out = String::new();
    write_message(
        &Message::Shard {
            epoch: 3,
            shard: 1,
            seed_base: 0xDEAD_BEEF_CAFE_F00D,
            merge: MergeMode::Decentralized,
            frame: FrameKind::Binary,
            assignments: vec![(0, 7), (1, 0), (2, 31)],
            checkpoint: "schedinspector-checkpoint v1\nline two \"quoted\"\n".into(),
        },
        &mut out,
    );
    out.truncate(out.len() - 1); // strip the trailing newline for slicing
    out
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte junk through the line parser: `Ok` or a typed
    /// `ProtoError`, never a panic.
    #[test]
    fn parse_message_never_panics_on_junk(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_message(&line);
    }

    /// Every strict prefix of a valid frame is a clean `Malformed` error:
    /// truncated JSON is rejected, not misread as a shorter frame.
    #[test]
    fn truncated_frames_error_cleanly(cut in any::<u64>()) {
        let line = valid_shard_line();
        prop_assert!(parse_message(&line).is_ok());
        let at = (cut as usize) % line.len();
        // The frame is pure ASCII, so every byte index is a char boundary.
        prop_assert!(parse_message(&line[..at]).is_err());
    }

    /// Single-byte mutations (insert, delete, flip) never panic the
    /// parser; whatever still parses is a well-typed message.
    #[test]
    fn mutated_frames_never_panic(
        pos in any::<u64>(),
        byte in any::<u8>(),
        kind in 0u8..3,
    ) {
        let line = valid_shard_line();
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
        if let Ok(msg) = parse_message(&mutated) {
            // A surviving mutation must still round-trip exactly.
            let mut out = String::new();
            write_message(&msg, &mut out);
            prop_assert!(parse_message(out.trim_end()).is_ok());
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
            proto: dist::protocol::PROTO_VERSION,
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
        let mut reply = String::new();
        std::io::Read::read_to_string(&mut s, &mut reply).expect("read until close");
        match parse_message(reply.trim_end()) {
            Ok(Message::Error { message }) => assert!(message.contains("world"), "{message}"),
            other => panic!("expected one error frame, got {other:?} from {reply:?}"),
        }

        // Junk clients race the real worker: raw garbage, a valid-verb
        // frame before hello, a truncated hello, a complete hello from
        // before the world digest existed, and an abrupt disconnect.
        let workers = spawn_local_workers(addr, vec![worker_trainer]);
        let payloads: [&[u8]; 5] = [
            b"!!!! not json at all\n\x00\xff\xfe garbage\n",
            b"{\"verb\":\"episode\",\"epoch\":0}\n",
            b"{\"verb\":\"hello\",\"proto\":1,\"input_dim\"",
            b"{\"verb\":\"hello\",\"proto\":1,\"input_dim\":8,\"seed\":\"000000000000002a\"}\n",
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

/// A worker that joins honestly and then answers its shard with a replica
/// whose checkpoint claims 2^64 - 1 layers: the coordinator parses every
/// replica it is sent, in either merge mode, on its scheduler thread — the
/// run must end in a typed error naming the line, not unwind.
#[test]
fn live_coordinator_refuses_a_hostile_replica_without_unwinding() {
    use std::io::{BufRead, BufReader};

    let seed = 42;
    let mut trainer = make_trainer(synthetic::generate(&profiles::SDSC_SP2, 72, 7), seed);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.addr();
    let mut hello = String::new();
    write_message(
        &Message::Hello {
            proto: dist::protocol::PROTO_VERSION,
            input_dim: trainer.features().dim(),
            seed,
            world: trainer.world_digest(),
        },
        &mut hello,
    );
    let good = trainer.checkpoint_text(0);
    let hostile = good.replacen("layers 4", "layers 18446744073709551615", 1);
    assert_ne!(hostile, good);

    let fake_worker = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(hello.as_bytes()).expect("send hello");
        let mut line = String::new();
        BufReader::new(s.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("read the shard frame");
        let Ok(Message::Shard { epoch, shard, .. }) = parse_message(line.trim_end()) else {
            panic!("expected a shard frame, got {line:?}");
        };
        let mut done = String::new();
        write_message(
            &Message::ShardDone {
                epoch,
                shard,
                episodes: 0,
                replica: Some(Replica {
                    checkpoint: hostile,
                    stats: Default::default(),
                }),
            },
            &mut done,
        );
        s.write_all(done.as_bytes()).expect("send shard_done");
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
    use dist::protocol::{FrameReader, MAX_FRAME_BYTES};
    use serve::Transport;

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
        match reader.poll_line(&mut t) {
            Ok(None) => continue,
            Ok(Some(line)) => panic!("fabricated a line from newline-free input: {line:?}"),
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
