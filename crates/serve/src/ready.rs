//! Per-connection state machine for the readiness-driven serve core.
//!
//! ```text
//!            fill()/take_batch()          mark_dispatched()
//!   Reading ───────────────────▶ batch ──────────────────▶ Dispatched
//!      ▲                                                        │
//!      │                flush() drains `out`                    │ complete()
//!      └──── keep-alive ◀──────────────────────────────────────┘
//!                │
//!                └── close-after-write / reap (timeouts) / peer EOF
//! ```
//!
//! [`Conn`] is generic over any `Read + Write` transport and never
//! blocks: reads and writes run until `WouldBlock` and surface progress
//! to the caller, which is what lets the unit tests drive the whole
//! machine over an in-memory fake socket with hand-written readiness
//! transitions — no real TCP, no timing. Time is an explicit `now_ns`
//! argument for the same reason.
//!
//! Timeout taxonomy (checked by [`Conn::check_deadline`]):
//!
//! * **read** — total budget from the first byte of a partial request to
//!   its completion; a slow-loris peer trickling header bytes is reaped
//!   when the budget expires no matter how often it sends.
//! * **idle** — keep-alive gap between complete requests.
//! * **write** — budget since the last byte of write progress; a peer
//!   that stops draining its receive window is reaped.

use std::io::{self, Read, Write};
use std::time::Duration;
use webre_substrate::http::{HttpError, Request, RequestParser};

/// Why a connection was closed by the server side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// A partial request outlived the read budget (slow-loris).
    ReadTimeout,
    /// A keep-alive connection sat idle past the idle budget.
    IdleTimeout,
    /// The peer stopped draining our response bytes.
    WriteTimeout,
    /// The peer closed (EOF) with no response owed.
    PeerClosed,
    /// Transport error (reset, broken pipe, …).
    Error,
}

/// The per-connection timeout budgets, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Timeouts {
    /// Budget for one request to arrive completely.
    pub read_ns: u64,
    /// Keep-alive idle budget between requests.
    pub idle_ns: u64,
    /// Budget since the last write progress.
    pub write_ns: u64,
}

impl Timeouts {
    /// Converts the server configuration's `Duration`s.
    pub fn new(read: Duration, idle: Duration, write: Duration) -> Timeouts {
        let ns = |d: Duration| d.as_nanos().min(u64::MAX as u128) as u64;
        Timeouts { read_ns: ns(read), idle_ns: ns(idle), write_ns: ns(write) }
    }
}

/// Coarse connection state, as seen by the event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Owned by the loop: buffering and parsing request bytes.
    Reading,
    /// A batch of this connection's requests is with the worker pool;
    /// the loop buffers (bounded) further bytes but parses nothing.
    Dispatched,
}

/// What [`Conn::fill`] observed on the transport.
#[derive(Clone, Copy, Debug, Default)]
pub struct Filled {
    /// Bytes moved into the parse buffer.
    pub received: usize,
    /// The peer half-closed or closed (EOF). Complete buffered requests
    /// are still served; the connection closes once they drain.
    pub eof: bool,
    /// Hard transport error; the connection is dead.
    pub error: bool,
}

/// Result of [`Conn::flush`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flush {
    /// Output buffer fully drained.
    Done,
    /// The transport would block; write interest is needed.
    Pending,
    /// Transport error; the connection is dead.
    Error,
}

/// Extra headroom over `max_body` for buffered pipelined requests
/// before the loop drops read interest (backpressure).
const PIPELINE_SLACK: usize = 64 * 1024;

/// One connection owned by the event loop.
#[derive(Debug)]
pub struct Conn<S> {
    socket: S,
    parser: RequestParser,
    state: ConnState,
    /// Serialized responses awaiting the transport.
    out: Vec<u8>,
    /// Prefix of `out` already written.
    written: usize,
    close_after_write: bool,
    peer_eof: bool,
    /// Buffered-byte ceiling: one max body plus pipeline slack.
    buf_cap: usize,
    /// When the current partial request's first byte arrived.
    request_started_ns: Option<u64>,
    /// Last moment the connection became idle (no partial request).
    idle_since_ns: u64,
    /// Last moment a write made progress while output is pending.
    write_since_ns: Option<u64>,
}

impl<S: Read + Write> Conn<S> {
    /// Wraps a (non-blocking) transport.
    pub fn new(socket: S, max_body: usize, now_ns: u64) -> Conn<S> {
        Conn {
            socket,
            parser: RequestParser::new(max_body),
            state: ConnState::Reading,
            out: Vec::new(),
            written: 0,
            close_after_write: false,
            peer_eof: false,
            buf_cap: max_body.saturating_add(PIPELINE_SLACK),
            request_started_ns: None,
            idle_since_ns: now_ns,
            write_since_ns: None,
        }
    }

    /// Current coarse state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Whether the loop should keep read interest registered: not after
    /// EOF, and not once the parse buffer exceeds its cap (a pipelining
    /// peer outrunning the workers gets TCP backpressure instead of
    /// unbounded memory).
    pub fn wants_read(&self) -> bool {
        !self.peer_eof && self.parser.buffered() < self.buf_cap
    }

    /// Whether response bytes are waiting for the transport.
    pub fn has_output(&self) -> bool {
        self.written < self.out.len()
    }

    /// Whether the peer reached EOF.
    pub fn peer_eof(&self) -> bool {
        self.peer_eof
    }

    /// Whether a request is partially buffered (drives the read budget).
    pub fn mid_request(&self) -> bool {
        self.parser.mid_request()
    }

    /// Direct transport access (courtesy replies during reaping).
    pub fn socket_mut(&mut self) -> &mut S {
        &mut self.socket
    }

    /// Reads until `WouldBlock`, EOF, error, or the buffer cap.
    pub fn fill(&mut self, now_ns: u64) -> Filled {
        let mut outcome = Filled::default();
        let mut chunk = [0u8; 16 * 1024];
        while self.parser.buffered() < self.buf_cap && !self.peer_eof {
            match self.socket.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    outcome.eof = true;
                }
                Ok(n) => {
                    self.parser.push(&chunk[..n]);
                    outcome.received += n;
                    if self.request_started_ns.is_none() && self.parser.mid_request() {
                        self.request_started_ns = Some(now_ns);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    outcome.error = true;
                    break;
                }
            }
        }
        outcome
    }

    /// Parses up to `max_batch` complete requests (only meaningful in
    /// [`ConnState::Reading`]). An empty vec means more bytes are
    /// needed; an error means framing is lost and the connection must
    /// answer once and close.
    pub fn take_batch(&mut self, max_batch: usize, now_ns: u64) -> Result<Vec<Request>, HttpError> {
        debug_assert_eq!(self.state, ConnState::Reading);
        let mut batch = Vec::new();
        while batch.len() < max_batch {
            match self.parser.next() {
                Ok(Some(request)) => batch.push(request),
                Ok(None) => break,
                // Requests parsed before the framing broke must still
                // be served; the poisoned parser re-raises the error on
                // the next call, which finds the batch empty.
                Err(err) if batch.is_empty() => return Err(err),
                Err(_) => break,
            }
        }
        if !batch.is_empty() {
            // The trailing partial request (if any) gets a fresh read
            // budget starting now — biased in the peer's favour.
            self.request_started_ns = if self.parser.mid_request() { Some(now_ns) } else { None };
            self.idle_since_ns = now_ns;
        }
        Ok(batch)
    }

    /// Marks a just-taken batch as handed to the worker pool.
    pub fn mark_dispatched(&mut self) {
        debug_assert_eq!(self.state, ConnState::Reading);
        self.state = ConnState::Dispatched;
    }

    /// Delivers the worker pool's serialized responses for the
    /// dispatched batch; the connection returns to [`ConnState::Reading`].
    pub fn complete(&mut self, bytes: Vec<u8>, keep_alive: bool, now_ns: u64) {
        debug_assert_eq!(self.state, ConnState::Dispatched);
        self.state = ConnState::Reading;
        self.enqueue(bytes, keep_alive, now_ns);
    }

    /// Appends serialized response bytes (inline fast path and error
    /// replies). `keep_alive == false` latches close-after-write.
    pub fn enqueue(&mut self, bytes: Vec<u8>, keep_alive: bool, now_ns: u64) {
        if self.write_since_ns.is_none() {
            self.write_since_ns = Some(now_ns);
        }
        self.out.extend_from_slice(&bytes);
        if !keep_alive {
            self.close_after_write = true;
        }
    }

    /// Whether the connection must close once output drains.
    pub fn close_pending(&self) -> bool {
        self.close_after_write
    }

    /// Whether output has drained and close-after-write is latched.
    pub fn should_close(&self) -> bool {
        self.close_after_write && !self.has_output()
    }

    /// Writes pending output until done or `WouldBlock`.
    pub fn flush(&mut self, now_ns: u64) -> Flush {
        while self.written < self.out.len() {
            match self.socket.write(&self.out[self.written..]) {
                Ok(0) => return Flush::Error,
                Ok(n) => {
                    self.written += n;
                    self.write_since_ns = Some(now_ns);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flush::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Flush::Error,
            }
        }
        if !self.out.is_empty() {
            self.out.clear();
            self.written = 0;
        }
        self.write_since_ns = None;
        self.idle_since_ns = now_ns;
        Flush::Done
    }

    /// Which budget, if any, `now_ns` has blown. Write progress is
    /// checked first (a response is owed), then the read budget of a
    /// partial request, then keep-alive idleness. A dispatched batch has
    /// no deadline of its own — the worker pool bounds it.
    pub fn check_deadline(&self, now_ns: u64, timeouts: &Timeouts) -> Option<CloseReason> {
        if self.has_output() {
            let since = self.write_since_ns.unwrap_or(now_ns);
            return (now_ns.saturating_sub(since) > timeouts.write_ns)
                .then_some(CloseReason::WriteTimeout);
        }
        if self.state == ConnState::Dispatched {
            return None;
        }
        if let Some(started) = self.request_started_ns {
            return (now_ns.saturating_sub(started) > timeouts.read_ns)
                .then_some(CloseReason::ReadTimeout);
        }
        (now_ns.saturating_sub(self.idle_since_ns) > timeouts.idle_ns)
            .then_some(CloseReason::IdleTimeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::{Read, Write};
    use std::time::Duration;

    /// An in-memory transport with hand-controlled readiness: reads
    /// drain scripted chunks (then `WouldBlock`), writes fill a sink up
    /// to a scriptable window (then `WouldBlock`).
    #[derive(Default)]
    struct FakeSocket {
        /// Chunks a read call may consume, one per call.
        readable: VecDeque<Vec<u8>>,
        /// EOF after the scripted chunks drain.
        eof: bool,
        /// Bytes the peer has "received".
        sink: Vec<u8>,
        /// How many bytes writes may currently make progress on.
        window: usize,
    }

    impl Read for FakeSocket {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.readable.pop_front() {
                Some(chunk) => {
                    assert!(chunk.len() <= buf.len(), "test chunks fit the read buffer");
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                None if self.eof => Ok(0),
                None => Err(io::Error::new(io::ErrorKind::WouldBlock, "no data")),
            }
        }
    }

    impl Write for FakeSocket {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.window == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "window closed"));
            }
            let n = buf.len().min(self.window);
            self.window -= n;
            self.sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn timeouts() -> Timeouts {
        Timeouts::new(
            Duration::from_secs(1),
            Duration::from_secs(10),
            Duration::from_secs(2),
        )
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn reading_to_dispatched_to_writing_to_keep_alive() {
        let mut socket = FakeSocket::default();
        socket.readable.push_back(b"POST /convert HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi".to_vec());
        socket.window = usize::MAX;
        let mut conn = Conn::new(socket, 1024, 0);

        assert_eq!(conn.state(), ConnState::Reading);
        let filled = conn.fill(10);
        assert!(filled.received > 0 && !filled.eof && !filled.error);

        let batch = conn.take_batch(32, 0).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].body, b"hi");
        assert!(!conn.mid_request(), "request fully consumed");

        conn.mark_dispatched();
        assert_eq!(conn.state(), ConnState::Dispatched);
        // While dispatched there is no deadline: the pool owns the work.
        assert_eq!(conn.check_deadline(100 * SEC, &timeouts()), None);

        conn.complete(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n".to_vec(), true, 20);
        assert_eq!(conn.state(), ConnState::Reading);
        assert!(conn.has_output());
        assert_eq!(conn.flush(30), Flush::Done);
        assert!(!conn.should_close(), "keep-alive survives the response");
        assert!(conn.socket_mut().sink.starts_with(b"HTTP/1.1 200"));
    }

    #[test]
    fn close_after_write_latches_and_fires_after_drain() {
        let mut socket = FakeSocket::default();
        socket.window = 10; // only part of the response fits at first
        let mut conn: Conn<FakeSocket> = Conn::new(socket, 1024, 0);
        conn.enqueue(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n".to_vec(), false, 0);
        assert_eq!(conn.flush(1), Flush::Pending);
        assert!(!conn.should_close(), "bytes still owed to the peer");
        // The peer drains its window: writable again.
        conn.socket_mut().window = usize::MAX;
        assert_eq!(conn.flush(2), Flush::Done);
        assert!(conn.should_close(), "close-after-write fires once drained");
    }

    #[test]
    fn split_request_arrives_across_many_readable_transitions() {
        let mut socket = FakeSocket::default();
        socket.readable.push_back(b"POST /a HTTP/1.1\r\nconte".to_vec());
        let mut conn = Conn::new(socket, 1024, 0);
        conn.fill(5);
        assert!(conn.take_batch(32, 0).unwrap().is_empty());
        assert!(conn.mid_request(), "read budget clock must be running");

        conn.socket_mut().readable.push_back(b"nt-length: 3\r\n\r\nab".to_vec());
        conn.fill(6);
        assert!(conn.take_batch(32, 0).unwrap().is_empty());

        conn.socket_mut().readable.push_back(b"c".to_vec());
        conn.fill(7);
        let batch = conn.take_batch(32, 0).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].body, b"abc");
    }

    #[test]
    fn pipelined_requests_come_out_as_one_batch_in_order() {
        let mut wire = Vec::new();
        for i in 0..5 {
            wire.extend_from_slice(
                format!("POST /corpus/xml HTTP/1.1\r\ncontent-length: 1\r\n\r\n{i}").as_bytes(),
            );
        }
        let mut socket = FakeSocket::default();
        socket.readable.push_back(wire);
        let mut conn = Conn::new(socket, 1024, 0);
        conn.fill(0);
        let batch = conn.take_batch(32, 0).unwrap();
        assert_eq!(batch.len(), 5);
        for (i, request) in batch.iter().enumerate() {
            assert_eq!(request.body, format!("{i}").as_bytes());
        }
        // A batch cap splits the burst instead of dropping requests.
        let mut socket = FakeSocket::default();
        socket.readable.push_back(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec());
        let mut conn = Conn::new(socket, 1024, 0);
        conn.fill(0);
        assert_eq!(conn.take_batch(1, 0).unwrap().len(), 1);
        assert_eq!(conn.take_batch(1, 0).unwrap().len(), 1);
    }

    #[test]
    fn slow_loris_partial_head_hits_the_read_budget() {
        let mut socket = FakeSocket::default();
        socket.readable.push_back(b"GET / HT".to_vec());
        let mut conn = Conn::new(socket, 1024, 0);
        conn.fill(0);
        assert!(conn.take_batch(32, 0).unwrap().is_empty());
        // Trickling one more byte later does NOT reset the budget.
        conn.socket_mut().readable.push_back(b"T".to_vec());
        conn.fill(SEC / 2);
        assert_eq!(conn.check_deadline(SEC / 2, &timeouts()), None);
        assert_eq!(
            conn.check_deadline(SEC + 1, &timeouts()),
            Some(CloseReason::ReadTimeout),
            "budget runs from the FIRST byte of the request"
        );
    }

    #[test]
    fn idle_keep_alive_hits_the_idle_budget_only() {
        let socket = FakeSocket::default();
        let conn: Conn<FakeSocket> = Conn::new(socket, 1024, 0);
        assert_eq!(conn.check_deadline(9 * SEC, &timeouts()), None);
        assert_eq!(
            conn.check_deadline(10 * SEC + 1, &timeouts()),
            Some(CloseReason::IdleTimeout)
        );
    }

    #[test]
    fn stalled_peer_hits_the_write_budget() {
        let mut socket = FakeSocket::default();
        socket.window = 4; // peer accepts a few bytes then stalls
        let mut conn: Conn<FakeSocket> = Conn::new(socket, 1024, 0);
        conn.enqueue(vec![b'x'; 64], true, 0);
        assert_eq!(conn.flush(0), Flush::Pending);
        assert_eq!(conn.check_deadline(SEC, &timeouts()), None);
        assert_eq!(
            conn.check_deadline(2 * SEC + 1, &timeouts()),
            Some(CloseReason::WriteTimeout)
        );
    }

    #[test]
    fn eof_with_buffered_requests_still_serves_them() {
        let mut socket = FakeSocket::default();
        socket.readable.push_back(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec());
        socket.eof = true;
        socket.window = usize::MAX;
        let mut conn = Conn::new(socket, 1024, 0);
        let filled = conn.fill(0);
        assert!(filled.eof);
        let batch = conn.take_batch(32, 0).unwrap();
        assert_eq!(batch.len(), 1, "the request sent before EOF is served");
        assert!(conn.take_batch(32, 0).unwrap().is_empty());
        assert!(conn.peer_eof());
        assert!(!conn.wants_read(), "no read interest after EOF");
    }

    #[test]
    fn mid_body_disconnect_surfaces_as_eof_with_partial() {
        let mut socket = FakeSocket::default();
        socket.readable.push_back(b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nab".to_vec());
        socket.eof = true;
        let mut conn = Conn::new(socket, 1024, 0);
        let filled = conn.fill(0);
        assert!(filled.eof);
        assert!(conn.take_batch(32, 0).unwrap().is_empty());
        // Partial + EOF: the loop reaps this as PeerClosed — no worker
        // ever saw the request, nothing can hang.
        assert!(conn.mid_request() && conn.peer_eof());
    }

    #[test]
    fn backpressure_drops_read_interest_past_the_buffer_cap() {
        let mut socket = FakeSocket::default();
        // Never-completing request head, far beyond the cap for a tiny
        // max_body (cap = max_body + 64 KiB slack).
        socket.readable.push_back(vec![b'a'; 16 * 1024]);
        for _ in 0..8 {
            socket.readable.push_back(vec![b'b'; 16 * 1024]);
        }
        let mut conn = Conn::new(socket, 1024, 0);
        conn.fill(0);
        assert!(!conn.wants_read(), "cap reached; interest must drop");
    }

    #[test]
    fn parse_error_is_reported_once() {
        let mut socket = FakeSocket::default();
        socket.readable.push_back(b"NONSENSE\r\n\r\n".to_vec());
        let mut conn = Conn::new(socket, 1024, 0);
        conn.fill(0);
        assert!(conn.take_batch(32, 0).is_err());
    }

    #[test]
    fn requests_parsed_before_a_framing_error_are_still_served() {
        let mut socket = FakeSocket::default();
        socket
            .readable
            .push_back(b"GET /healthz HTTP/1.1\r\n\r\nTRAILING GARBAGE\r\n\r\n".to_vec());
        let mut conn = Conn::new(socket, 1024, 0);
        conn.fill(0);
        // First drain yields the good request; the error waits its turn.
        let batch = conn.take_batch(32, 0).expect("good request first");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].path(), "/healthz");
        // Next drain surfaces the poisoned parser's error.
        assert!(conn.take_batch(32, 0).is_err());
    }
}
