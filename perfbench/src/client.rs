//! The load generator's HTTP side and the in-process server harness.
//!
//! Open-loop connections send every request at its due time whether or
//! not earlier ones have been answered (HTTP/1.1 pipelining), so a stall
//! in the server builds a backlog there instead of slowing the sender.
//! Closed-loop clients send the next request only after the previous
//! response. Response bodies are reduced to a checksum on arrival so a
//! long run keeps little memory; the correctness gates compare checksums
//! of the expected bytes.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use webre::serve::handlers::App;
use webre::serve::server::{ServeConfig, Server};
use webre_substrate::http::{read_response, write_request, ParsedResponse, ResponseParser};
use webre_substrate::wal::checksum;

/// Largest response body the client accepts.
const MAX_BODY: usize = 16 << 20;
/// Pause before retrying a write the server is not yet draining.
const WRITE_RETRY: Duration = Duration::from_micros(50);
/// Receiver wake-up interval when no response arrives.
const IDLE_WAIT: Duration = Duration::from_millis(20);
/// A connection silent this long with answers outstanding fails the run.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct Answer {
    /// When the request was due.
    pub due: Instant,
    /// When its last byte was handed to the socket.
    pub sent: Instant,
    /// When its response had fully arrived.
    pub done: Instant,
    pub status: u16,
    /// Checksum of the response body.
    pub body_hash: u64,
}

impl Answer {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Serializes one keep-alive request.
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    write_request(&mut out, method, target, body, true).expect("writing to a Vec cannot fail");
    out
}

fn would_block(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::WouldBlock
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Requests of one connection waiting to be written.
#[derive(Default)]
struct Outbox {
    bytes: Vec<u8>,
    written: usize,
    /// (end offset in `bytes`, request index) not yet fully written.
    ends: VecDeque<(usize, usize)>,
}

impl Outbox {
    /// Writes what the socket takes without blocking; stamps requests
    /// whose last byte went out.
    fn flush(&mut self, stream: &mut TcpStream, sent: &mut [Option<Instant>]) -> io::Result<()> {
        while self.written < self.bytes.len() {
            match stream.write(&self.bytes[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => self.written += k,
                Err(e) if would_block(&e) => break,
                Err(e) => return Err(e),
            }
        }
        let at = Instant::now();
        while let Some(&(end, i)) = self.ends.front() {
            if end > self.written {
                break;
            }
            sent[i] = Some(at);
            self.ends.pop_front();
        }
        if self.written == self.bytes.len() {
            self.bytes.clear();
            self.written = 0;
        }
        Ok(())
    }
}

/// The sending half: sleeps until each request is due, then hands it to
/// its connection without waiting for earlier answers.
fn send_all(
    writers: &mut [TcpStream],
    schedules: &[Vec<(Instant, &[u8])>],
) -> io::Result<Vec<Vec<Instant>>> {
    let mut order: Vec<(Instant, usize, usize)> = schedules
        .iter()
        .enumerate()
        .flat_map(|(c, s)| s.iter().enumerate().map(move |(i, (due, _))| (*due, c, i)))
        .collect();
    order.sort_unstable();
    let mut sent: Vec<Vec<Option<Instant>>> =
        schedules.iter().map(|s| vec![None; s.len()]).collect();
    let mut outboxes: Vec<Outbox> = schedules.iter().map(|_| Outbox::default()).collect();
    for (due, c, i) in order {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let outbox = &mut outboxes[c];
        outbox.bytes.extend_from_slice(schedules[c][i].1);
        outbox.ends.push_back((outbox.bytes.len(), i));
        for (c, outbox) in outboxes.iter_mut().enumerate() {
            outbox.flush(&mut writers[c], &mut sent[c])?;
        }
    }
    while outboxes.iter().any(|o| !o.bytes.is_empty()) {
        std::thread::sleep(WRITE_RETRY);
        for (c, outbox) in outboxes.iter_mut().enumerate() {
            outbox.flush(&mut writers[c], &mut sent[c])?;
        }
    }
    sent.into_iter()
        .map(|s| {
            s.into_iter()
                .map(|t| t.ok_or_else(|| invalid("request never sent")))
                .collect()
        })
        .collect()
}

/// The receiving half: waits for readiness on every connection and
/// stamps each response as its last byte arrives.
fn receive_all(
    readers: &mut [TcpStream],
    expected: &[usize],
    sender_failed: &AtomicBool,
) -> io::Result<Vec<Vec<(Instant, u16, u64)>>> {
    use std::os::fd::AsRawFd;
    use webre_substrate::poll::Poller;
    let mut poller = Poller::new()?;
    for (c, r) in readers.iter().enumerate() {
        poller.register(r.as_raw_fd(), c as u64, true, false)?;
    }
    let mut parsers: Vec<ResponseParser> = readers
        .iter()
        .map(|_| ResponseParser::new(MAX_BODY))
        .collect();
    let mut got: Vec<Vec<(Instant, u16, u64)>> =
        expected.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut buf = vec![0u8; 64 << 10];
    let mut events = Vec::new();
    let mut progress = Instant::now();
    while got.iter().zip(expected).any(|(g, &n)| g.len() < n) {
        if sender_failed.load(Ordering::SeqCst) {
            return Err(invalid("sender failed"));
        }
        if progress.elapsed() > STALL_LIMIT {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "server stopped answering",
            ));
        }
        poller.wait(&mut events, Some(IDLE_WAIT))?;
        for event in &events {
            let c = event.token as usize;
            loop {
                match readers[c].read(&mut buf) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(k) => {
                        let done = Instant::now();
                        progress = done;
                        parsers[c].push(&buf[..k]);
                        while let Some(response) =
                            parsers[c].next().map_err(|e| invalid(format!("{e:?}")))?
                        {
                            got[c].push((done, response.status, checksum(&response.body)));
                        }
                    }
                    Err(e) if would_block(&e) => break,
                    Err(e) => return Err(e),
                }
            }
        }
    }
    for (c, r) in readers.iter().enumerate() {
        poller.deregister(r.as_raw_fd())?;
        if got[c].len() != expected[c] {
            return Err(invalid("more responses than requests"));
        }
    }
    Ok(got)
}

/// Sends each connection's schedule (due time, request bytes) as an open
/// loop — one sending and one receiving thread for all connections — and
/// returns every connection's answers in request order.
pub fn open_loop(
    conns: &[TcpStream],
    schedules: &[Vec<(Instant, &[u8])>],
) -> io::Result<Vec<Vec<Answer>>> {
    let mut writers = Vec::with_capacity(conns.len());
    let mut readers = Vec::with_capacity(conns.len());
    for conn in conns {
        conn.set_nonblocking(true)?;
        writers.push(conn.try_clone()?);
        readers.push(conn.try_clone()?);
    }
    let expected: Vec<usize> = schedules.iter().map(Vec::len).collect();
    let sender_failed = AtomicBool::new(false);
    let (sent, got) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive_all(&mut readers, &expected, &sender_failed));
        let sent = send_all(&mut writers, schedules);
        sender_failed.store(sent.is_err(), Ordering::SeqCst);
        (sent, receiver.join().expect("receiver thread panicked"))
    });
    let (sent, got) = (sent?, got?);
    Ok(schedules
        .iter()
        .zip(sent.iter().zip(&got))
        .map(|(schedule, (sent, got))| {
            schedule
                .iter()
                .zip(sent.iter().zip(got))
                .map(|((due, _), (sent, &(done, status, body_hash)))| Answer {
                    due: *due,
                    sent: *sent,
                    done,
                    status,
                    body_hash,
                })
                .collect()
        })
        .collect())
}

/// A blocking keep-alive client for closed loops and set-up traffic.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends pre-serialized request bytes and waits for the response.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<ParsedResponse> {
        self.writer.write_all(bytes)?;
        read_response(&mut self.reader, MAX_BODY)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
    }

    /// Sends one request and waits for the response.
    pub fn call(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<ParsedResponse> {
        self.send(&request_bytes(method, target, body))
    }
}

/// Server configuration shared by the serve workloads: `workers`
/// threads, an ephemeral port, and a durable corpus under `dir`.
pub fn serve_config(
    workers: usize,
    dir: &Path,
    sync_every: usize,
    compact_min: usize,
) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        data_dir: Some(dir.to_path_buf()),
        shards: 2,
        sync_every,
        compact_min,
        ..ServeConfig::default()
    }
}

/// Drains and joins a server.
pub fn stop(server: Server) -> io::Result<()> {
    let mut client = Client::connect(server.local_addr())?;
    let response = client.call("POST", "/shutdown", b"")?;
    drop(client);
    server.join();
    if response.status == 200 {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "shutdown answered {}",
            response.status
        )))
    }
}

/// Server-side counters read from the in-process server's metrics.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Requests per endpoint label.
    pub requests: BTreeMap<String, u64>,
    /// Summed handler microseconds per endpoint label.
    pub handler_us: BTreeMap<String, u64>,
    pub busy_ns: u64,
    /// Queue-full rejections plus admission-control sheds.
    pub refused: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

fn label(line: &str, metric: &str) -> Option<(String, u64)> {
    let rest = line.strip_prefix(metric)?.strip_prefix("{endpoint=\"")?;
    let (endpoint, value) = rest.split_once("\"} ")?;
    Some((endpoint.to_owned(), value.trim().parse().ok()?))
}

/// Reads the counters of `app` (the text exposition `/metrics` serves).
pub fn counters(app: &App) -> Counters {
    let text = app.metrics.render("");
    let mut c = Counters::default();
    for line in text.lines() {
        if let Some((endpoint, v)) = label(line, "requests_total") {
            c.requests.insert(endpoint, v);
        } else if let Some((endpoint, v)) = label(line, "latency_us_sum") {
            c.handler_us.insert(endpoint, v);
        }
    }
    c.busy_ns = app.metrics.busy_ns.load(Ordering::Relaxed);
    c.refused =
        app.metrics.rejected.load(Ordering::Relaxed) + app.metrics.shed.load(Ordering::Relaxed);
    let cache = app.cache.stats();
    c.cache_hits = cache.hits;
    c.cache_misses = cache.misses;
    c
}

impl Counters {
    /// Mean handler time of `endpoint` between `before` and `self`, in
    /// microseconds (0 with no requests).
    pub fn handler_mean_us(&self, before: &Counters, endpoint: &str) -> f64 {
        let get = |m: &BTreeMap<String, u64>| m.get(endpoint).copied().unwrap_or(0);
        let requests = get(&self.requests) - get(&before.requests);
        let us = get(&self.handler_us) - get(&before.handler_us);
        crate::stats::ratio(us as f64, requests as f64)
    }

    /// Requests and summed handler microseconds over every endpoint
    /// between `before` and `self`.
    pub fn handler_totals(&self, before: &Counters) -> (u64, u64) {
        let sum = |m: &BTreeMap<String, u64>| m.values().sum::<u64>();
        (
            sum(&self.requests) - sum(&before.requests),
            sum(&self.handler_us) - sum(&before.handler_us),
        )
    }
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
