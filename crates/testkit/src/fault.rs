//! Seeded fault plans: deterministic failure injection for [`serve`].
//!
//! A [`FaultPlan`] is an [`AcceptPolicy`] that wraps every accepted
//! connection in a [`FaultStream`] — a [`Transport`] shim around the real
//! `TcpStream` whose fault decision at transport op `k` is a pure function
//! of `(fault_seed, accept-order index, k)`. Ops advance only on
//! deterministic events (data transfer or an injected fault); a real
//! read-timeout `WouldBlock` retries the same op coordinate, so wall-clock
//! timing cannot shift the schedule. The same seed therefore replays the
//! same fault plan against the same connection arrival order, which is
//! what makes a chaos failure reproducible from its printed seed pair.
//!
//! Injected faults (all server-side, against the production code paths):
//!
//! - **accept drop** — the connection is discarded before a worker sees it;
//! - **reset** — the socket is shut down and the op fails `ConnectionReset`;
//! - **torn read** — a read delivers only a 1..k-byte prefix, exercising
//!   line reassembly across arbitrary split points (no data is lost);
//! - **torn write** — a response write delivers a strict prefix and then
//!   the connection dies, exercising client-side short-read handling;
//! - **stall** — a bounded run of `WouldBlock` returns, exercising the
//!   read-timeout/shutdown-poll path without any wall-clock sleeping.

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use obs::trace::mix64;
use serve::{AcceptPolicy, Transport};

/// SplitMix64: tiny, seedable, and stateless enough that per-connection
/// streams can be derived from `(seed, index)` without coordination.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The sub-generator for connection `conn` of fault seed `seed`.
    pub fn for_conn(seed: u64, conn: u64) -> Self {
        SplitMix64(seed ^ (conn.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The stateless sub-generator for transport op `op` of connection
    /// `conn`: the fault decision at any `(conn, op)` coordinate is a pure
    /// function of the plan seed, independent of how many timing-dependent
    /// events (real read timeouts) happened in between.
    pub fn for_op(seed: u64, conn: u64, op: u64) -> Self {
        let mut base = SplitMix64::for_conn(seed, conn);
        let lane = base.next_u64();
        SplitMix64(lane ^ (op.wrapping_add(1)).wrapping_mul(0xBF58_476D_1CE4_E5B9))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (false for `p <= 0`).
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.unit() < p
    }

    /// Uniform draw in `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi_inclusive: u64) -> u64 {
        debug_assert!(lo <= hi_inclusive);
        let span = (hi_inclusive - lo) as u128 + 1;
        lo + (self.next_u64() as u128 % span) as u64
    }
}

/// Which fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The connection was dropped at accept time.
    AcceptDrop,
    /// The socket was shut down and the op failed `ConnectionReset`.
    Reset,
    /// A read delivered only a `len`-byte prefix of the caller's buffer.
    TornRead {
        /// Bytes the shim allowed through.
        len: usize,
    },
    /// A write delivered a `wrote`-byte prefix, then the connection died.
    TornWrite {
        /// Bytes actually written before the reset.
        wrote: usize,
    },
    /// The next `ops` reads return `WouldBlock`.
    Stall {
        /// Length of the `WouldBlock` run.
        ops: u32,
    },
    /// A targeted kill: the socket was shut down mid-session, exactly as
    /// `kill -9` on the peer process looks from this side.
    Kill,
    /// A targeted freeze: the op blocked for `millis` before proceeding,
    /// simulating a wedged-but-alive peer against real watchdogs.
    Freeze {
        /// How long the op slept.
        millis: u64,
    },
}

/// One injected fault, for the post-mortem log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Accept-order index of the connection.
    pub conn: u64,
    /// Transport-op counter within the connection when the fault fired.
    pub op: u64,
    /// What happened.
    pub kind: FaultKind,
}

impl std::fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let FaultRecord { conn, op, kind } = self;
        match kind {
            FaultKind::AcceptDrop => write!(f, "conn {conn} op {op}: accept-drop"),
            FaultKind::Reset => write!(f, "conn {conn} op {op}: reset"),
            FaultKind::TornRead { len } => write!(f, "conn {conn} op {op}: torn-read {len}B"),
            FaultKind::TornWrite { wrote } => {
                write!(f, "conn {conn} op {op}: torn-write {wrote}B then reset")
            }
            FaultKind::Stall { ops } => write!(f, "conn {conn} op {op}: stall {ops} ops"),
            FaultKind::Kill => write!(f, "conn {conn} op {op}: targeted kill"),
            FaultKind::Freeze { millis } => {
                write!(f, "conn {conn} op {op}: targeted freeze {millis}ms")
            }
        }
    }
}

/// What a [`TargetedFault`] does when its coordinate is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// Shut the socket down and fail every subsequent op with
    /// `ConnectionReset` — the transport-level signature of `kill -9`.
    Kill,
    /// Block the op for this many milliseconds, once, then proceed —
    /// a stall long enough to trip (or probe) a peer's watchdog.
    Freeze {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

/// A fault aimed at one `(conn, op)` coordinate instead of drawn from the
/// seeded stream: "kill worker 0 mid-epoch" is a targeted fault, "2% of
/// ops reset" is a seeded one. Fires at the first op `>= op` (op counters
/// advance with traffic, so an exact-coordinate trigger would be brittle)
/// and at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetedFault {
    /// Accept-order index of the connection to attack.
    pub conn: u64,
    /// Fire at the first transport op whose counter is `>= op`.
    pub op: u64,
    /// What to do there.
    pub kind: TargetKind,
}

/// Render a fault log as one line per record (the CI artifact format).
pub fn render_fault_log(records: &[FaultRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

/// Per-operation fault probabilities, all driven by one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the whole plan; per-connection streams derive from it.
    pub seed: u64,
    /// P(drop a connection at accept time).
    pub accept_drop: f64,
    /// P(reset, per transport op).
    pub reset: f64,
    /// P(torn read, per read).
    pub torn_read: f64,
    /// P(torn write, per write).
    pub torn_write: f64,
    /// P(start a stall run, per read).
    pub stall: f64,
    /// Longest `WouldBlock` run a stall may inject.
    pub max_stall_ops: u32,
}

impl FaultConfig {
    /// A fault-free plan (the differential/regression baseline).
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            accept_drop: 0.0,
            reset: 0.0,
            torn_read: 0.0,
            torn_write: 0.0,
            stall: 0.0,
            max_stall_ops: 0,
        }
    }

    /// The standard chaos mix: frequent benign faults (torn reads,
    /// stalls), occasional destructive ones (resets, torn writes, accept
    /// drops).
    pub fn standard(seed: u64) -> Self {
        FaultConfig {
            seed,
            accept_drop: 0.05,
            reset: 0.01,
            torn_read: 0.25,
            torn_write: 0.02,
            stall: 0.10,
            max_stall_ops: 3,
        }
    }
}

/// The [`AcceptPolicy`] that arms every admitted connection with a seeded
/// fault stream. Construct one per server; it numbers connections in
/// accept order.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    targets: Vec<TargetedFault>,
    next_conn: u64,
    log: Arc<Mutex<Vec<FaultRecord>>>,
}

impl FaultPlan {
    /// A plan injecting per `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan::with_targets(cfg, Vec::new())
    }

    /// A plan injecting per `cfg` plus aimed one-shot faults — the chaos
    /// surface distributed-training tests use to kill or stall a specific
    /// worker connection mid-epoch.
    pub fn with_targets(cfg: FaultConfig, targets: Vec<TargetedFault>) -> Self {
        FaultPlan {
            cfg,
            targets,
            next_conn: 0,
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Shared handle to the fault log (snapshot it after the soak; the
    /// server threads stop writing once the server has drained).
    pub fn log(&self) -> Arc<Mutex<Vec<FaultRecord>>> {
        Arc::clone(&self.log)
    }
}

impl AcceptPolicy for FaultPlan {
    type Conn = FaultStream;

    fn admit(&mut self, stream: TcpStream) -> Option<FaultStream> {
        let conn = self.next_conn;
        self.next_conn += 1;
        let mut rng = SplitMix64::for_conn(self.cfg.seed, conn);
        if rng.chance(self.cfg.accept_drop) {
            self.log.lock().unwrap().push(FaultRecord {
                conn,
                op: 0,
                kind: FaultKind::AcceptDrop,
            });
            return None; // dropping the handle closes the socket
        }
        Some(FaultStream {
            inner: stream,
            cfg: self.cfg,
            targets: self
                .targets
                .iter()
                .filter(|t| t.conn == conn)
                .map(|t| (*t, false))
                .collect(),
            conn,
            op: 0,
            stall_budget: 0,
            dead: false,
            log: Arc::clone(&self.log),
        })
    }
}

/// A [`Transport`] that forwards to a real `TcpStream` but consults the
/// fault plan at every op coordinate. The op counter advances only on
/// deterministic events — data transfer or an injected fault — never on a
/// real (timing-dependent) read timeout, so the realized fault schedule is
/// replayable from the seed alone given the same traffic.
#[derive(Debug)]
pub struct FaultStream {
    inner: TcpStream,
    cfg: FaultConfig,
    /// This connection's aimed faults, each with a fired flag.
    targets: Vec<(TargetedFault, bool)>,
    conn: u64,
    op: u64,
    stall_budget: u32,
    dead: bool,
    log: Arc<Mutex<Vec<FaultRecord>>>,
}

impl FaultStream {
    fn record(&self, kind: FaultKind) {
        self.log.lock().unwrap().push(FaultRecord {
            conn: self.conn,
            op: self.op,
            kind,
        });
    }

    fn op_rng(&self) -> SplitMix64 {
        SplitMix64::for_op(self.cfg.seed, self.conn, self.op)
    }

    fn kill(&mut self) -> io::Error {
        self.dead = true;
        let _ = self.inner.shutdown(Shutdown::Both);
        io::Error::new(io::ErrorKind::ConnectionReset, "injected reset")
    }

    fn dead_err() -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            "injected reset (connection already dead)",
        )
    }

    /// Fire any armed targeted fault whose coordinate has been reached.
    /// `Some(err)` aborts the op (kill); `None` proceeds — a freeze has
    /// already done its blocking by the time this returns.
    fn targeted(&mut self) -> Option<io::Error> {
        for i in 0..self.targets.len() {
            let (t, fired) = self.targets[i];
            if fired || self.op < t.op {
                continue;
            }
            self.targets[i].1 = true;
            match t.kind {
                TargetKind::Kill => {
                    self.record(FaultKind::Kill);
                    self.op += 1;
                    return Some(self.kill());
                }
                TargetKind::Freeze { millis } => {
                    self.record(FaultKind::Freeze { millis });
                    self.op += 1;
                    std::thread::sleep(Duration::from_millis(millis));
                }
            }
        }
        None
    }
}

impl Transport for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::dead_err());
        }
        if let Some(e) = self.targeted() {
            return Err(e);
        }
        if self.stall_budget > 0 {
            self.stall_budget -= 1;
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "injected stall"));
        }
        let mut rng = self.op_rng();
        if rng.chance(self.cfg.reset) {
            self.record(FaultKind::Reset);
            self.op += 1;
            return Err(self.kill());
        }
        if rng.chance(self.cfg.stall) {
            let ops = rng.range_u64(1, self.cfg.max_stall_ops.max(1) as u64) as u32;
            self.record(FaultKind::Stall { ops });
            self.op += 1;
            self.stall_budget = ops.saturating_sub(1);
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "injected stall"));
        }
        // A torn read shrinks the destination window: bytes are delivered
        // in full, just across more reads — a pure framing fault.
        let torn = (buf.len() > 1 && rng.chance(self.cfg.torn_read))
            .then(|| rng.range_u64(1, (buf.len() - 1) as u64) as usize);
        let window = torn.unwrap_or(buf.len());
        match self.inner.read(&mut buf[..window]) {
            // The peer's close is not data. Whether the server gets to
            // observe it before the harness shuts it down is timing, so it
            // neither logs a fault nor consumes the op coordinate.
            Ok(0) => Ok(0),
            Ok(n) => {
                if let Some(len) = torn {
                    self.record(FaultKind::TornRead { len });
                }
                self.op += 1;
                Ok(n)
            }
            // Real timeouts (and hard errors) retry/abort without
            // consuming the op coordinate.
            Err(e) => Err(e),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.dead {
            return Err(Self::dead_err());
        }
        if let Some(e) = self.targeted() {
            return Err(e);
        }
        let mut rng = self.op_rng();
        if rng.chance(self.cfg.reset) {
            self.record(FaultKind::Reset);
            self.op += 1;
            return Err(self.kill());
        }
        if buf.len() > 1 && rng.chance(self.cfg.torn_write) {
            // A torn write is only observable as a fault if the connection
            // then dies: deliver a strict prefix, then reset.
            let wrote = rng.range_u64(1, (buf.len() - 1) as u64) as usize;
            self.record(FaultKind::TornWrite { wrote });
            self.op += 1;
            let _ = Write::write_all(&mut self.inner, &buf[..wrote]);
            return Err(self.kill());
        }
        self.op += 1;
        Write::write_all(&mut self.inner, buf)
    }

    fn configure(&mut self, read_timeout: Option<Duration>) -> io::Result<()> {
        // Setup is never faulted: the shim attacks the data path, not the
        // server's ability to install its shutdown-poll timeout.
        self.inner.set_nodelay(true)?;
        self.inner.set_read_timeout(read_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server, _) = listener.accept().unwrap();
        (server, client.join().unwrap())
    }

    #[test]
    fn per_conn_rng_is_reproducible_and_distinct() {
        let mut a = SplitMix64::for_conn(42, 0);
        let mut a2 = SplitMix64::for_conn(42, 0);
        let mut b = SplitMix64::for_conn(42, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, xs2);
        assert_ne!(xs, ys);
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let mut plan = FaultPlan::new(FaultConfig::none(7));
        let (server, mut client) = pair();
        let mut conn = plan.admit(server).expect("fault-free plan admits");
        Write::write_all(&mut client, b"ping\n").unwrap();
        let mut buf = [0u8; 16];
        let n = Transport::read(&mut conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping\n");
        Transport::write_all(&mut conn, b"pong\n").unwrap();
        let mut back = [0u8; 16];
        let n = Read::read(&mut client, &mut back).unwrap();
        assert_eq!(&back[..n], b"pong\n");
        assert!(plan.log().lock().unwrap().is_empty());
    }

    #[test]
    fn torn_reads_preserve_every_byte() {
        let cfg = FaultConfig {
            torn_read: 1.0,
            ..FaultConfig::none(3)
        };
        let mut plan = FaultPlan::new(cfg);
        let (server, mut client) = pair();
        let mut conn = plan.admit(server).unwrap();
        let msg = b"the quick brown fox jumps over the lazy dog\n";
        Write::write_all(&mut client, msg).unwrap();
        drop(client);
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match Transport::read(&mut conn, &mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    assert!(n < buf.len(), "torn read must shrink the window");
                    got.extend_from_slice(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, msg);
        assert!(!plan.log().lock().unwrap().is_empty());
    }

    #[test]
    fn reset_kills_the_connection_permanently() {
        let cfg = FaultConfig {
            reset: 1.0,
            ..FaultConfig::none(9)
        };
        let mut plan = FaultPlan::new(cfg);
        let (server, _client) = pair();
        let mut conn = plan.admit(server).unwrap();
        let mut buf = [0u8; 8];
        let e = Transport::read(&mut conn, &mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        let e = Transport::write_all(&mut conn, b"x").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        let log = plan.log();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 1, "dead-connection ops are not re-logged");
        assert_eq!(log[0].kind, FaultKind::Reset);
    }

    #[test]
    fn stalls_are_bounded_wouldblock_runs() {
        let cfg = FaultConfig {
            stall: 0.5,
            max_stall_ops: 4,
            ..FaultConfig::none(11)
        };
        let mut plan = FaultPlan::new(cfg);
        let (server, mut client) = pair();
        let mut conn = plan.admit(server).unwrap();
        Write::write_all(&mut client, b"data\n").unwrap();
        let mut buf = [0u8; 16];
        let mut would_block = 0usize;
        for _ in 0..1000 {
            match Transport::read(&mut conn, &mut buf) {
                Ok(n) => {
                    assert_eq!(&buf[..n], b"data\n");
                    return; // data eventually flows
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => would_block += 1,
                Err(e) => panic!("{e}"),
            }
        }
        panic!("stalled forever ({would_block} WouldBlocks): stall runs must be bounded");
    }

    #[test]
    fn accept_drop_logs_and_discards() {
        let cfg = FaultConfig {
            accept_drop: 1.0,
            ..FaultConfig::none(5)
        };
        let mut plan = FaultPlan::new(cfg);
        let (server, _client) = pair();
        assert!(plan.admit(server).is_none());
        let log = plan.log();
        let log = log.lock().unwrap();
        assert_eq!(log[0].kind, FaultKind::AcceptDrop);
    }

    #[test]
    fn targeted_kill_fires_once_at_its_op_coordinate() {
        let targets = vec![TargetedFault {
            conn: 0,
            op: 2,
            kind: TargetKind::Kill,
        }];
        let mut plan = FaultPlan::with_targets(FaultConfig::none(1), targets);
        let (server, mut client) = pair();
        let mut conn = plan.admit(server).unwrap();
        Write::write_all(&mut client, b"one\ntwo\nthree\n").unwrap();
        let mut buf = [0u8; 4]; // small buffer: one line per read, three ops
        assert!(Transport::read(&mut conn, &mut buf).is_ok()); // op 0
        assert!(Transport::read(&mut conn, &mut buf).is_ok()); // op 1
        let e = Transport::read(&mut conn, &mut buf).unwrap_err(); // op 2: boom
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        // Permanently dead, but the kill is only logged once.
        assert_eq!(
            Transport::read(&mut conn, &mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        let log = plan.log();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, FaultKind::Kill);
        assert_eq!((log[0].conn, log[0].op), (0, 2));
    }

    #[test]
    fn targeted_freeze_delays_without_harming_data() {
        let targets = vec![TargetedFault {
            conn: 0,
            op: 0,
            kind: TargetKind::Freeze { millis: 30 },
        }];
        let mut plan = FaultPlan::with_targets(FaultConfig::none(1), targets);
        let (server, mut client) = pair();
        let mut conn = plan.admit(server).unwrap();
        Write::write_all(&mut client, b"payload\n").unwrap();
        let start = std::time::Instant::now();
        let mut buf = [0u8; 16];
        let n = Transport::read(&mut conn, &mut buf).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "freeze skipped"
        );
        assert_eq!(&buf[..n], b"payload\n");
        // One-shot: the next op is fault-free and instant.
        Write::write_all(&mut client, b"more\n").unwrap();
        let n = Transport::read(&mut conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"more\n");
        let log = plan.log();
        assert_eq!(log.lock().unwrap().len(), 1);
    }

    #[test]
    fn targets_only_hit_their_connection() {
        let targets = vec![TargetedFault {
            conn: 1,
            op: 0,
            kind: TargetKind::Kill,
        }];
        let mut plan = FaultPlan::with_targets(FaultConfig::none(1), targets);
        let (server0, mut client0) = pair();
        let mut conn0 = plan.admit(server0).unwrap();
        let (server1, _client1) = pair();
        let mut conn1 = plan.admit(server1).unwrap();
        Write::write_all(&mut client0, b"safe\n").unwrap();
        let mut buf = [0u8; 16];
        assert!(Transport::read(&mut conn0, &mut buf).is_ok());
        assert_eq!(
            Transport::read(&mut conn1, &mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn fault_log_renders_one_line_per_record() {
        let records = vec![
            FaultRecord {
                conn: 0,
                op: 0,
                kind: FaultKind::AcceptDrop,
            },
            FaultRecord {
                conn: 1,
                op: 3,
                kind: FaultKind::TornRead { len: 7 },
            },
        ];
        let text = render_fault_log(&records);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("torn-read 7B"));
    }
}
