//! Byte-stream and accept-time abstractions for the TCP front end.
//!
//! The server's connection handlers are generic over [`Transport`] — the
//! minimal read/write surface they actually use — with [`TcpStream`] as
//! the production implementation (every call forwards directly; the
//! abstraction is monomorphized away). A fault-injection harness wraps the
//! same `TcpStream` in a deterministic failure shim and hands it back
//! through an [`AcceptPolicy`], exercising torn reads, torn writes, stalls
//! and resets against the *real* server code, not a mock of it.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The byte-stream operations a connection handler performs. Implementors
/// must be `Send` (the acceptor hands each connection to its own thread).
pub trait Transport: Send + 'static {
    /// Read up to `buf.len()` bytes. Returning `Ok(0)` means the peer
    /// closed; `WouldBlock`/`TimedOut` mean the configured read timeout
    /// elapsed and the caller should poll its shutdown flag and retry.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Write the whole buffer or fail.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// One-time connection setup: disable Nagle and install the read
    /// timeout that doubles as the shutdown-flag polling period.
    fn configure(&mut self, read_timeout: Option<Duration>) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        Write::write_all(self, buf)
    }

    fn configure(&mut self, read_timeout: Option<Duration>) -> io::Result<()> {
        self.set_nodelay(true)?;
        self.set_read_timeout(read_timeout)
    }
}

/// Decides what happens to each accepted connection before it gets its
/// thread: pass it through (production), wrap it in a fault shim
/// (chaos tests), or drop it on the floor (accept-time faults).
pub trait AcceptPolicy: Send + 'static {
    /// The connection type connection threads serve.
    type Conn: Transport;

    /// Admit (possibly wrapping) or drop (`None`) a freshly accepted
    /// connection. Called on the acceptor thread, once per connection, in
    /// accept order — a deterministic place to key per-connection fault
    /// schedules.
    fn admit(&mut self, stream: TcpStream) -> Option<Self::Conn>;
}

/// The production policy: every connection is admitted unchanged.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectAccept;

impl AcceptPolicy for DirectAccept {
    type Conn = TcpStream;

    fn admit(&mut self, stream: TcpStream) -> Option<TcpStream> {
        Some(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn tcp_stream_transport_round_trips_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut stream = stream;
            Write::write_all(&mut stream, line.as_bytes()).unwrap();
        });
        let mut conn: TcpStream = TcpStream::connect(addr).unwrap();
        Transport::configure(&mut conn, Some(Duration::from_millis(500))).unwrap();
        Transport::write_all(&mut conn, b"hello transport\n").unwrap();
        let mut buf = [0u8; 64];
        let mut got = Vec::new();
        while !got.ends_with(b"\n") {
            match Transport::read(&mut conn, &mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, b"hello transport\n");
        echo.join().unwrap();
    }

    #[test]
    fn direct_accept_admits_everything() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let _ = TcpStream::connect(addr).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        assert!(DirectAccept.admit(stream).is_some());
        client.join().unwrap();
    }
}
