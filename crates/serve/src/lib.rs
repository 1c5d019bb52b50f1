//! `webre-serve` — the pipeline as a long-running, concurrent daemon.
//!
//! The batch CLI converts a corpus and exits; this crate turns the same
//! pipeline into an online service: a std-only HTTP/1.1 server built
//! around a readiness-driven event loop (`std::net` non-blocking
//! sockets multiplexed by [`webre_substrate::poll`], no external
//! dependencies, consistent with the workspace's hermetic-build rule).
//! The loop owns every connection and parses requests incrementally;
//! only *complete* requests reach the fixed pool of worker threads
//! through a bounded MPMC job queue ([`webre_substrate::sync`]), so an
//! idle keep-alive connection costs a buffer, not a thread.
//!
//! # Endpoints
//!
//! | Route | Behaviour |
//! |---|---|
//! | `POST /convert` | HTML body → concept-tagged XML, through a sharded content-hash LRU cache |
//! | `POST /corpus/docs` | convert, then accrete the document into the live corpus |
//! | `POST /corpus/xml` | accrete an already-converted XML document (high-throughput ingest) |
//! | `GET /corpus/table` | merged frequent-path table over every shard, as canonical JSON |
//! | `GET /schema` | current majority-schema snapshot (recomputed lazily, versioned) |
//! | `GET /schema/dtd` | current derived DTD snapshot |
//! | `GET /metrics` | plain-text counters: requests, cache, queue depth, latency histograms, worker utilization |
//! | `GET /healthz` | liveness probe |
//! | `POST /shutdown` | graceful drain: stop accepting, finish queued + in-flight work, exit |
//!
//! # Robustness invariants
//!
//! * **Backpressure, not collapse** — the job queue is bounded
//!   (`queue_cap`) and guarded by deadline-based admission control:
//!   work whose estimated queue delay exceeds the `deadline` budget is
//!   shed up front with `429 Too Many Requests` + `retry-after`, and a
//!   full queue answers `429` instead of buffering unboundedly.
//! * **Bounded requests** — bodies beyond `max_body` get an early `413`
//!   (from the headers, before the body streams in); slow-loris peers,
//!   idle keep-alive connections, and stalled readers are reaped by
//!   per-connection read/idle/write budgets (`408` where a reply is
//!   still possible).
//! * **Panic isolation** — each request runs under `catch_unwind`; a
//!   panicking conversion yields `500` and the worker thread survives
//!   (shared locks recover from poisoning because all fallible work
//!   happens before any lock is taken).
//! * **Graceful drain** — `POST /shutdown` stops the accept loop, the
//!   queue is closed, workers finish every queued and in-flight request,
//!   the corpus log takes a final fsync, then the server joins. No
//!   accepted request is dropped.
//! * **Durability (opt-in)** — with a data directory configured, every
//!   accreted document is appended to a per-shard write-ahead log
//!   (batched fsync, run after the corpus lock is released); a restart
//!   replays the logs into a byte-identical corpus, tolerating a torn
//!   or corrupted tail from a crash mid-append.
//! * **Serve ≡ batch** — responses are byte-identical to the batch
//!   pipeline's output for the same input; the `serve-vs-batch`
//!   differential oracle in `webre-check` hammers the server with
//!   concurrent clients and compares against `Pipeline` output.
//!
//! # Module map
//!
//! | Module | Responsibility |
//! |---|---|
//! | [`engine`] | the pipeline bundle (converter + miner + DTD config) |
//! | [`cache`] | sharded LRU keyed by content hash |
//! | [`state`] | live corpus: sharded incremental index + versioned, lazily recomputed schema snapshot |
//! | [`persist`] | per-shard append-only WAL persistence with crash-tolerant replay |
//! | [`metrics`] | atomic counters and log-scale latency histograms |
//! | [`obs`] | per-request span recording: stats aggregation + optional trace tee |
//! | [`router`] | method/path → route resolution |
//! | [`handlers`] | per-route request handling over shared [`handlers::App`] state |
//! | [`ready`] | per-connection state machine: buffers, budgets, transitions |
//! | [`admission`] | queue-delay estimation and deadline-based shedding |
//! | [`pool`] | panic-isolated worker threads draining the job queue |
//! | [`server`] | readiness event loop, dispatch, graceful shutdown |
//! | [`load`] | fault-injecting load harness (`webre load`) |

pub mod admission;
pub mod cache;
pub mod engine;
pub mod handlers;
pub mod load;
pub mod metrics;
pub mod obs;
pub mod persist;
pub mod pool;
pub mod ready;
pub mod router;
pub mod server;
pub mod state;

pub use engine::Engine;
pub use server::{Server, ServeConfig};
