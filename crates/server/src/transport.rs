//! Message transports: in-process channels and TCP.
//!
//! Both carry length-prefixed frames (`u32` length + `u64` trace id +
//! payload; [`FrameCodec`] is the workspace's only framer) so the marshalling
//! cost is identical; the channel transport adds an optional simulated
//! one-way latency per frame, letting experiments model the paper's
//! local-area-network workstation/server setups without real network
//! variance.
//!
//! Trace propagation: [`Transport::send`] stamps each outgoing frame
//! with the calling thread's current trace id (`obs::trace::current`),
//! and [`Transport::recv`] installs the received frame's trace id as
//! current — so a blocking server thread dispatches inside the client's
//! trace, and a client thread reading a reply rejoins the trace it sent.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use hypermodel::error::{HmError, Result};

/// Largest accepted frame payload, on both client and server.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes of the frame header carrying the trace id, counted in the
/// length prefix ahead of the payload.
pub const TRACE_HEADER: usize = 8;

/// A bidirectional, framed message pipe.
pub trait Transport: Send {
    /// Send one frame.
    fn send(&mut self, frame: &[u8]) -> Result<()>;
    /// Receive one frame (blocking). `Ok(None)` means the peer closed.
    fn recv(&mut self) -> Result<Option<Vec<u8>>>;
    /// Receive one frame, waiting at most `timeout`. Returns
    /// [`HmError::Timeout`] when the deadline passes with no frame.
    /// After a timeout the connection should be considered suspect
    /// (a frame may arrive half-read on stream transports); retrying
    /// callers reconnect rather than resume.
    ///
    /// The default ignores the deadline and blocks — correct for
    /// transports that cannot wait bounded, and harmless for tests.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>> {
        let _ = timeout;
        self.recv()
    }

    /// Receive one frame into a caller-owned buffer (cleared first),
    /// so a looping caller reuses one allocation across frames. Returns
    /// `false` when the peer closed. The default delegates to
    /// [`Transport::recv`]; buffered transports override it to skip the
    /// intermediate `Vec`.
    fn recv_into(&mut self, out: &mut Vec<u8>) -> Result<bool> {
        match self.recv()? {
            Some(frame) => {
                out.clear();
                out.extend_from_slice(&frame);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// [`Transport::recv_timeout`] into a caller-owned buffer; same
    /// contract as [`Transport::recv_into`].
    fn recv_timeout_into(&mut self, timeout: Duration, out: &mut Vec<u8>) -> Result<bool> {
        match self.recv_timeout(timeout)? {
            Some(frame) => {
                out.clear();
                out.extend_from_slice(&frame);
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

/// Cached handles for the process-wide wire-traffic counters, resolved
/// once per connection so the hot path pays one relaxed add, not a
/// registry lookup. Every framed byte stream, client or server side,
/// feeds the same three names.
pub struct NetCounters {
    handles: Option<(Arc<obs::Counter>, Arc<obs::Counter>, Arc<obs::Counter>)>,
}

impl NetCounters {
    /// Resolve (and thereby pre-register) the counter handles.
    pub fn new() -> NetCounters {
        NetCounters {
            handles: obs::enabled().then(|| {
                let reg = obs::registry();
                (
                    reg.counter("net.bytes_sent"),
                    reg.counter("net.bytes_recv"),
                    reg.counter("net.write_batches"),
                )
            }),
        }
    }

    /// Account one successful write syscall of `n` bytes.
    pub fn wrote(&self, n: usize) {
        if let Some((sent, _, batches)) = &self.handles {
            sent.add(n as u64);
            batches.incr();
        }
    }

    /// Account one successful read syscall of `n` bytes.
    pub fn read(&self, n: usize) {
        if let Some((_, recv, _)) = &self.handles {
            recv.add(n as u64);
        }
    }
}

impl Default for NetCounters {
    fn default() -> NetCounters {
        NetCounters::new()
    }
}

/// How much to read per syscall once the stream buffer is drained.
/// Large enough that a burst of back-to-back responses (or one mid-size
/// batch reply) arrives in a single syscall.
const READ_CHUNK: usize = 64 * 1024;

/// Framing state for one byte-stream connection: a reusable scratch
/// buffer that assembles `[u32 len][u64 trace][payload]` so a frame
/// goes out in **one** write syscall, and a growable inbound buffer
/// that large reads fill and complete frames are parsed out of — three
/// header/body reads per frame collapse into (amortized) less than one.
///
/// Used by [`TcpTransport`] and shared with any framed stream (the
/// torture tests drive it over one-byte-at-a-time readers/writers).
pub struct FrameCodec {
    sbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// `rbuf[rpos..rlen]` holds received, not-yet-parsed bytes.
    rpos: usize,
    rlen: usize,
    net: NetCounters,
}

impl FrameCodec {
    /// Fresh per-connection state.
    pub fn new() -> FrameCodec {
        FrameCodec {
            sbuf: Vec::new(),
            rbuf: Vec::new(),
            rpos: 0,
            rlen: 0,
            net: NetCounters::new(),
        }
    }

    /// Frame `payload` with its length prefix and `trace` id and write
    /// it in a single `write_all` call.
    pub fn send_frame<W: Write>(&mut self, w: &mut W, payload: &[u8], trace: u64) -> Result<()> {
        self.sbuf.clear();
        self.sbuf
            .extend_from_slice(&(((payload.len() + TRACE_HEADER) as u32).to_le_bytes()));
        self.sbuf.extend_from_slice(&trace.to_le_bytes());
        self.sbuf.extend_from_slice(payload);
        w.write_all(&self.sbuf)
            .map_err(|e| HmError::Backend(format!("tcp send: {e}")))?;
        self.net.wrote(self.sbuf.len());
        Ok(())
    }

    /// True when a complete frame is already buffered (the next
    /// `recv_frame` will not touch the stream).
    pub fn has_buffered_frame(&self) -> bool {
        self.peek_frame_len().ok().flatten().is_some()
    }

    /// Length (including trace header) of the buffered frame at the
    /// cursor, if the buffer holds all of it.
    fn peek_frame_len(&self) -> Result<Option<usize>> {
        let avail = &self.rbuf[self.rpos..self.rlen];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME {
            return Err(HmError::Backend(format!("oversized frame: {len} bytes")));
        }
        if len < TRACE_HEADER {
            return Err(HmError::Backend(format!("truncated frame: {len} bytes")));
        }
        Ok((avail.len() >= 4 + len).then_some(len))
    }

    /// Read the next frame's payload into `out` (cleared first) and
    /// install its trace id. Returns `false` on clean EOF at a frame
    /// boundary; EOF mid-frame is an error. Reads from the stream only
    /// when the buffer does not already hold a complete frame.
    pub fn recv_frame<R: Read>(&mut self, r: &mut R, out: &mut Vec<u8>) -> Result<bool> {
        loop {
            if let Some(len) = self.peek_frame_len()? {
                let start = self.rpos + 4 + TRACE_HEADER;
                let t = self.rpos + 4;
                let trace = u64::from_le_bytes([
                    self.rbuf[t],
                    self.rbuf[t + 1],
                    self.rbuf[t + 2],
                    self.rbuf[t + 3],
                    self.rbuf[t + 4],
                    self.rbuf[t + 5],
                    self.rbuf[t + 6],
                    self.rbuf[t + 7],
                ]);
                obs::trace::set(trace);
                out.clear();
                out.extend_from_slice(&self.rbuf[start..self.rpos + 4 + len]);
                self.rpos += 4 + len;
                return Ok(true);
            }
            // Partial header/frame: work out how much is still missing
            // so one read can cover it (plus slack for whatever rides
            // behind it).
            let avail = self.rlen - self.rpos;
            let want = if avail >= 4 {
                let p = self.rpos;
                let len = u32::from_le_bytes([
                    self.rbuf[p],
                    self.rbuf[p + 1],
                    self.rbuf[p + 2],
                    self.rbuf[p + 3],
                ]) as usize;
                (4 + len - avail).max(READ_CHUNK)
            } else {
                READ_CHUNK
            };
            if !self.fill(r, want)? {
                if self.rpos == self.rlen {
                    return Ok(false); // clean close between frames
                }
                return Err(HmError::Backend("tcp recv: eof mid-frame".into()));
            }
        }
    }

    /// One read syscall into the buffer tail; `false` on EOF.
    fn fill<R: Read>(&mut self, r: &mut R, want: usize) -> Result<bool> {
        // Drained: rewind instead of growing forever. Otherwise compact
        // once the dead prefix outweighs a read chunk — an occasional
        // memmove, not a per-frame one.
        if self.rpos == self.rlen {
            self.rpos = 0;
            self.rlen = 0;
        } else if self.rpos >= READ_CHUNK {
            self.rbuf.copy_within(self.rpos..self.rlen, 0);
            self.rlen -= self.rpos;
            self.rpos = 0;
        }
        if self.rbuf.len() < self.rlen + want {
            self.rbuf.resize(self.rlen + want, 0);
        }
        match r.read(&mut self.rbuf[self.rlen..]) {
            Ok(0) => Ok(false),
            Ok(n) => {
                self.rlen += n;
                self.net.read(n);
                Ok(true)
            }
            Err(e) => Err(tcp_io_err("tcp recv", e)),
        }
    }
}

impl Default for FrameCodec {
    fn default() -> FrameCodec {
        FrameCodec::new()
    }
}

/// One end of an in-process channel transport.
pub struct ChannelTransport {
    tx: Sender<(u64, Vec<u8>)>,
    rx: Receiver<(u64, Vec<u8>)>,
    /// Simulated one-way latency applied before each send.
    pub latency: Duration,
    /// When set, latency is *accounted* on this shared virtual clock
    /// instead of slept — see [`ChannelTransport::pair_virtual`].
    clock: Option<Arc<AtomicU64>>,
}

impl ChannelTransport {
    /// A connected pair of endpoints with the given simulated one-way
    /// latency (applied on both directions, so a request/response round
    /// trip costs `2 × latency`). The latency is really slept; use
    /// [`ChannelTransport::pair_virtual`] in tests that only need the
    /// accounting.
    pub fn pair(latency: Duration) -> (ChannelTransport, ChannelTransport) {
        let (tx_a, rx_b) = unbounded();
        let (tx_b, rx_a) = unbounded();
        (
            ChannelTransport {
                tx: tx_a,
                rx: rx_a,
                latency,
                clock: None,
            },
            ChannelTransport {
                tx: tx_b,
                rx: rx_b,
                latency,
                clock: None,
            },
        )
    }

    /// Like [`ChannelTransport::pair`], but the simulated latency is
    /// accumulated on a shared **virtual clock** instead of being slept,
    /// so tests assert on exact simulated nanoseconds without depending
    /// on wall-clock scheduling (flaky on loaded single-core hosts).
    /// Returns both endpoints and the clock; read it with
    /// [`ChannelTransport::virtual_ns`].
    pub fn pair_virtual(latency: Duration) -> (ChannelTransport, ChannelTransport, Arc<AtomicU64>) {
        let clock = Arc::new(AtomicU64::new(0));
        let (mut a, mut b) = ChannelTransport::pair(latency);
        a.clock = Some(Arc::clone(&clock));
        b.clock = Some(Arc::clone(&clock));
        (a, b, clock)
    }

    /// Total simulated latency in nanoseconds accumulated on `clock`.
    pub fn virtual_ns(clock: &Arc<AtomicU64>) -> u64 {
        clock.load(Ordering::Relaxed)
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        if !self.latency.is_zero() {
            match &self.clock {
                Some(clock) => {
                    clock.fetch_add(self.latency.as_nanos() as u64, Ordering::Relaxed);
                }
                None => std::thread::sleep(self.latency),
            }
        }
        self.tx
            .send((obs::trace::current(), frame.to_vec()))
            .map_err(|_| HmError::Backend("peer disconnected".into()))
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        match self.rx.recv() {
            Ok((trace, frame)) => {
                obs::trace::set(trace);
                Ok(Some(frame))
            }
            Err(_) => Ok(None), // peer dropped: clean shutdown
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>> {
        match self.rx.recv_timeout(timeout) {
            Ok((trace, frame)) => {
                obs::trace::set(trace);
                Ok(Some(frame))
            }
            Err(RecvTimeoutError::Timeout) => {
                Err(HmError::Timeout(format!("no frame within {timeout:?}")))
            }
            Err(RecvTimeoutError::Disconnected) => Ok(None),
        }
    }
}

/// A TCP transport (length-prefixed frames over a stream socket),
/// buffered on both sides through a [`FrameCodec`]: one write syscall
/// per outgoing frame, large chunked reads on the inbound side.
pub struct TcpTransport {
    stream: TcpStream,
    codec: FrameCodec,
}

impl TcpTransport {
    /// Wrap a connected stream. Disables Nagle so request/response
    /// round trips are not delayed.
    pub fn new(stream: TcpStream) -> Result<TcpTransport> {
        stream
            .set_nodelay(true)
            .map_err(|e| HmError::Backend(format!("set_nodelay: {e}")))?;
        Ok(TcpTransport {
            stream,
            codec: FrameCodec::new(),
        })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.codec
            .send_frame(&mut self.stream, frame, obs::trace::current())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        let mut out = Vec::new();
        Ok(self.recv_into(&mut out)?.then_some(out))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>> {
        let mut out = Vec::new();
        Ok(self.recv_timeout_into(timeout, &mut out)?.then_some(out))
    }

    fn recv_into(&mut self, out: &mut Vec<u8>) -> Result<bool> {
        self.codec.recv_frame(&mut self.stream, out)
    }

    fn recv_timeout_into(&mut self, timeout: Duration, out: &mut Vec<u8>) -> Result<bool> {
        // A buffered frame answers without touching the socket (and
        // without the two timeout fcntls).
        if self.codec.has_buffered_frame() {
            return self.codec.recv_frame(&mut self.stream, out);
        }
        // A zero Duration means "no timeout" to the OS; clamp up.
        let timeout = timeout.max(Duration::from_millis(1));
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| HmError::Backend(format!("set_read_timeout: {e}")))?;
        let got = self.codec.recv_frame(&mut self.stream, out);
        self.stream
            .set_read_timeout(None)
            .map_err(|e| HmError::Backend(format!("clear_read_timeout: {e}")))?;
        got
    }
}

/// Map a socket error to [`HmError`], classifying read-deadline expiry
/// (reported as `WouldBlock` on Unix, `TimedOut` on Windows) as
/// [`HmError::Timeout`] so retry policies can tell it from a dead peer.
fn tcp_io_err(what: &str, e: std::io::Error) -> HmError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HmError::Timeout(format!("{what}: {e}"))
        }
        _ => HmError::Backend(format!("{what}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_round_trips() {
        let (mut a, mut b) = ChannelTransport::pair(Duration::ZERO);
        a.send(b"hello").unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"hello");
        b.send(b"world").unwrap();
        assert_eq!(a.recv().unwrap().unwrap(), b"world");
    }

    #[test]
    fn channel_close_reads_as_none() {
        let (mut a, b) = ChannelTransport::pair(Duration::ZERO);
        drop(b);
        assert!(a.send(b"x").is_err());
        let (a2, mut b2) = ChannelTransport::pair(Duration::ZERO);
        drop(a2);
        assert_eq!(b2.recv().unwrap(), None);
    }

    #[test]
    fn channel_latency_is_accounted_on_virtual_clock() {
        // Virtual time instead of sleeping: exact, and immune to
        // scheduling jitter on loaded single-core hosts.
        let (mut a, mut b, clock) = ChannelTransport::pair_virtual(Duration::from_millis(5));
        a.send(b"slow").unwrap();
        b.recv().unwrap().unwrap();
        b.send(b"reply").unwrap();
        a.recv().unwrap().unwrap();
        assert_eq!(
            ChannelTransport::virtual_ns(&clock),
            2 * 5_000_000,
            "one send each way, 5 ms simulated latency per frame"
        );
    }

    #[test]
    fn channel_recv_timeout_times_out_and_delivers() {
        let (mut a, mut b) = ChannelTransport::pair(Duration::ZERO);
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(1)),
            Err(HmError::Timeout(_))
        ));
        a.send(b"late").unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)).unwrap().unwrap(),
            b"late"
        );
        drop(a);
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), None);
    }

    #[test]
    fn tcp_recv_timeout_expires_without_killing_connection() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            let frame = t.recv().unwrap().unwrap();
            t.send(&frame).unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::new(stream).unwrap();
        // Nothing sent yet: the bounded wait must expire as a Timeout.
        assert!(matches!(
            t.recv_timeout(Duration::from_millis(10)),
            Err(HmError::Timeout(_))
        ));
        // The socket still works afterwards.
        t.send(b"after timeout").unwrap();
        assert_eq!(
            t.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(),
            b"after timeout"
        );
        server.join().unwrap();
    }

    #[test]
    fn tcp_round_trip_on_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            let frame = t.recv().unwrap().unwrap();
            t.send(&frame).unwrap(); // echo
            assert_eq!(t.recv().unwrap(), None, "client closed");
        });
        {
            let stream = TcpStream::connect(addr).unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            t.send(b"ping over tcp").unwrap();
            assert_eq!(t.recv().unwrap().unwrap(), b"ping over tcp");
        }
        server.join().unwrap();
    }

    #[test]
    fn tcp_large_frame() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            assert_eq!(t.recv().unwrap().unwrap(), expect);
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::new(stream).unwrap();
        t.send(&payload).unwrap();
        drop(t);
        server.join().unwrap();
    }
}
