//! `serve_ingest`: durable ingest with schema reads beside it.
//!
//! A server on a fresh data directory is seeded with [`BASE_DOCS`]
//! ground-truth documents at set-up. Then [`CLIENTS`] closed-loop
//! clients each send their share of the run's writes (`POST /corpus/xml`
//! with generator ground-truth XML, so the converter under test plays no
//! part) and, after every [`READ_EVERY`] of their own writes, one `GET
//! /schema/dtd`. Each write invalidates the schema snapshot, so each read
//! re-mines the corpus and derives the DTD under the corpus write lock.
//! The run is a fixed amount of work, [`WRITES_PER_SECOND`] writes per
//! second of `--seconds`, so the corpus every read mines has the same size
//! on every run and on every version of the program.
//!
//! After the run the server drains, the data directory is replayed, and
//! the acknowledged operation sequence is replayed in process through
//! `LiveCorpus::durable` to check every read against the writes it saw.

use crate::client::{self, request_bytes, Client, Counters};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{mean, median, ratio, summarize};
use crate::trace::Tracer;
use crate::warm::KeepWarm;
use crate::Args;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use webre::convert::accuracy::logical_errors;
use webre::convert::ConvertStats;
use webre::corpus::CorpusGenerator;
use webre::map::MapPlanner;
use webre::schema::{derive_dtd_sharded, extract_paths, MajoritySchema, PathTable, ShardedCorpus};
use webre::serve::persist::{CorpusStore, StoreConfig};
use webre::serve::server::Server;
use webre::serve::state::LiveCorpus;
use webre::xml::{parse_xml, to_xml, validate, Dtd};
use webre::Pipeline;
use webre_substrate::json::ToJson;
use webre_substrate::wal::checksum;

/// Closed-loop clients (and connections): one per CPU of the reference
/// box, which has two.
pub const CLIENTS: usize = 2;
/// Ground-truth documents seeded at set-up.
pub const BASE_DOCS: usize = 1000;
/// Writes per second of `--seconds`.
pub const WRITES_PER_SECOND: f64 = 500.0;
/// Each client reads the DTD after this many of its own writes.
pub const READ_EVERY: usize = 250;
/// Store settings: an fsync batch every 16 records per shard; compaction
/// from 512 tail records, so several of each happen per run.
const SHARDS: usize = 2;
const SYNC_EVERY: usize = 16;
const COMPACT_MIN: usize = 512;
/// Times the data directory is replayed for `replay_s` (the median is
/// reported).
const REPLAY_OPENS: usize = 5;
/// Set-ups timed for `setup_s`.
const SETUPS: usize = 3;
/// Written documents mapped for the conformance figure.
const MAPPED_DOCS: usize = 1000;
/// Generator index base of the seeded documents.
const BASE_INDEX: usize = 30_000_000;

/// One acknowledged operation.
#[derive(Clone, Copy, Debug)]
struct Op {
    /// Generator index of the written document; `None` for a read.
    doc: Option<usize>,
    latency_ms: f64,
    status: u16,
    /// Corpus version after the write, or the version the read saw.
    version: u64,
    body_hash: u64,
}

fn store_config(dir: &Path) -> StoreConfig {
    StoreConfig {
        data_dir: dir.to_path_buf(),
        shards: SHARDS,
        sync_every: SYNC_EVERY,
        compact_min: COMPACT_MIN,
    }
}

fn header_u64(response: &webre_substrate::http::ParsedResponse, name: &str) -> u64 {
    response
        .header(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Starts a durable server on a fresh directory and seeds it.
fn set_up(pipeline: &Pipeline, base: &[Vec<u8>], dir: &Path) -> Result<(Server, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let config = client::serve_config(client::cpus(), dir, SYNC_EVERY, COMPACT_MIN);
    let server =
        Server::start(config, pipeline.serve_engine()).map_err(|e| format!("server start: {e}"))?;
    let mut c = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    for r in base {
        let response = c.send(r).map_err(|e| format!("seeding: {e}"))?;
        if response.status != 202 {
            return Err(format!("seeding answered {}", response.status));
        }
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// One client's closed loop: its writes, with a read after every
/// [`READ_EVERY`] of them (at least one read on a run too short for that).
fn client_loop(
    addr: std::net::SocketAddr,
    writes: &[(usize, Vec<u8>)],
) -> std::io::Result<Vec<Op>> {
    let mut c = Client::connect(addr)?;
    let read = request_bytes("GET", "/schema/dtd", b"");
    let every = READ_EVERY.min(writes.len()).max(1);
    let mut ops = Vec::with_capacity(writes.len() + writes.len() / every);
    for (j, (doc, bytes)) in writes.iter().enumerate() {
        let t = Instant::now();
        let r = c.send(bytes)?;
        ops.push(Op {
            doc: Some(*doc),
            latency_ms: t.elapsed().as_secs_f64() * 1e3,
            status: r.status,
            version: header_u64(&r, "x-corpus-version"),
            body_hash: 0,
        });
        if (j + 1) % every == 0 {
            let t = Instant::now();
            let r = c.send(&read)?;
            ops.push(Op {
                doc: None,
                latency_ms: t.elapsed().as_secs_f64() * 1e3,
                status: r.status,
                version: header_u64(&r, "x-corpus-version"),
                body_hash: checksum(&r.body),
            });
        }
    }
    Ok(ops)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let root =
        std::path::Path::new(crate::OUT_DIR).join(format!("serve_ingest-{}", std::process::id()));
    let warm = KeepWarm::start(client::cpus());
    let result = run_in(args, &root).map(|mut r| {
        r.note(format!("keep-warm spinners: {}", warm.count()));
        r
    });
    drop(warm);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(args: &Args, root: &Path) -> Result<Report, String> {
    let generator = CorpusGenerator::new(args.seed);
    let writes = ((WRITES_PER_SECOND * args.seconds).round() as usize).max(CLIENTS);
    let base_xml: Vec<String> = (0..BASE_DOCS)
        .map(|i| to_xml(&generator.generate_one(BASE_INDEX + i).truth))
        .collect();
    let write_xml: Vec<String> = (0..writes)
        .map(|i| to_xml(&generator.generate_one(i).truth))
        .collect();
    let base_requests: Vec<Vec<u8>> = base_xml
        .iter()
        .map(|x| request_bytes("POST", "/corpus/xml", x.as_bytes()))
        .collect();
    let per_client: Vec<Vec<(usize, Vec<u8>)>> = (0..CLIENTS)
        .map(|c| {
            (c..writes)
                .step_by(CLIENTS)
                .map(|i| {
                    (
                        i,
                        request_bytes("POST", "/corpus/xml", write_xml[i].as_bytes()),
                    )
                })
                .collect()
        })
        .collect();

    let dir = root.join("data");
    let mut setups = Vec::with_capacity(SETUPS);
    let mut running = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let pipeline = Pipeline::resume_domain();
        let build = t.elapsed().as_secs_f64();
        let (server, seeded) = set_up(&pipeline, &base_requests, &dir)?;
        setups.push(build + seeded);
        if i + 1 < SETUPS {
            client::stop(server).map_err(|e| e.to_string())?;
        } else {
            running = Some((pipeline, server));
        }
    }
    let (pipeline, server) = running.expect("at least one set-up");

    let app = server.app();
    let addr = server.local_addr();
    let before = client::counters(&app);
    let start = Instant::now();
    let results: Vec<std::io::Result<Vec<Op>>> = std::thread::scope(|s| {
        let handles: Vec<_> = per_client
            .iter()
            .map(|w| s.spawn(move || client_loop(addr, w)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let after = client::counters(&app);
    // Peak memory of the run itself, before the gates allocate theirs.
    let rss_mb = peak_rss_mb();
    let mut ops = Vec::new();
    for r in results {
        ops.extend(r.map_err(|e| format!("client failed: {e}"))?);
    }
    let mut table_client = Client::connect(addr).map_err(|e| e.to_string())?;
    let table = table_client
        .call("GET", "/corpus/table", b"")
        .map_err(|e| e.to_string())?;
    drop(table_client);
    drop(app);
    client::stop(server).map_err(|e| format!("shutdown: {e}"))?;

    let mut report = Report::default();
    report.attempted = ops.len() as u64;
    let failed_ops = ops
        .iter()
        .filter(|o| o.status != if o.doc.is_some() { 202 } else { 200 })
        .count() as u64;
    if failed_ops > 0 {
        report.fail(
            failed_ops,
            format!("{failed_ops} operations were refused or failed"),
        );
    }
    let acked = ops
        .iter()
        .filter(|o| o.doc.is_some() && o.status == 202)
        .count();

    // The data directory replays exactly the acknowledged documents.
    let mut replays = Vec::new();
    for _ in 0..REPLAY_OPENS {
        let t = Instant::now();
        let (_, _, replay) =
            CorpusStore::open(&store_config(&dir)).map_err(|e| format!("replay: {e}"))?;
        replays.push(t.elapsed().as_secs_f64());
        report.check(
            replay.docs == BASE_DOCS + acked && replay.warnings.is_empty(),
            || {
                format!(
                    "replay restored {} docs, acknowledged {}; warnings {:?}",
                    replay.docs,
                    BASE_DOCS + acked,
                    replay.warnings
                )
            },
        );
    }
    let disk = client::dir_bytes(&dir).map_err(|e| e.to_string())?;

    // The final table equals batch mining of every acknowledged document.
    let all_paths: Vec<_> = base_xml
        .iter()
        .chain(&write_xml)
        .map(|x| parse_xml(x).map(|d| extract_paths(&d)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("generated xml: {e}"))?;
    let batch_table = format!("{}\n", PathTable::from_docs(&all_paths).to_json());
    report.check(
        table.status == 200 && table.body == batch_table.as_bytes(),
        || {
            format!(
                "final /corpus/table ({} bytes) differs from batch mining",
                table.body.len()
            )
        },
    );

    // Every read equals the snapshot of the acknowledged writes before it.
    let replay_dir = root.join("replay");
    let untraced = replay_ops(
        &pipeline,
        &base_xml,
        &write_xml,
        &ops,
        &replay_dir,
        None,
        &mut report,
    )?;

    let writes_ms: Vec<f64> = ops
        .iter()
        .filter(|o| o.doc.is_some())
        .map(|o| o.latency_ms)
        .collect();
    let reads_ms: Vec<f64> = ops
        .iter()
        .filter(|o| o.doc.is_none())
        .map(|o| o.latency_ms)
        .collect();
    let all_ms: Vec<f64> = ops.iter().map(|o| o.latency_ms).collect();
    let write_busy = after.handler_mean_us(&before, "corpus_xml") * writes_ms.len() as f64;
    let read_busy = after.handler_mean_us(&before, "schema_dtd") * reads_ms.len() as f64;
    report.note(format!(
        "serve_ingest: {acked} writes + {} reads in {:.3} s; handler time {:.3} s writes + {:.3} s reads: {:.1}% writes / {:.1}% re-mining reads",
        reads_ms.len(),
        wall.as_secs_f64(),
        write_busy / 1e6,
        read_busy / 1e6,
        100.0 * ratio(write_busy, write_busy + read_busy),
        100.0 * ratio(read_busy, write_busy + read_busy)
    ));

    if args.trace {
        let traced = replay_ops(
            &pipeline,
            &base_xml,
            &write_xml,
            &ops,
            &root.join("replay-traced"),
            Some(Tracer::new(Instant::now())),
            &mut report,
        )?;
        let tr = traced
            .tracer
            .as_ref()
            .expect("traced replay keeps its tracer");
        report.check(traced.digest == untraced.digest, || {
            "traced replay digest differs from the untraced one".to_owned()
        });
        let times = tr.self_times();
        let self_ns = |name: &str| times.get(name).map_or(0, |l| l.self_ns) as f64;
        let per_call = |name: &str| {
            times
                .get(name)
                .map_or(0.0, |l| ratio(l.self_ns as f64, l.calls as f64))
        };
        report.set("xml.parse_us", per_call("xml.parse") / 1e3);
        report.set(
            "schema.extract_paths_us",
            per_call("schema.extract_paths") / 1e3,
        );
        report.set("persist.accrete_us", per_call("persist.accrete") / 1e3);
        report.set("schema.snapshot_ms", per_call("schema.snapshot") / 1e6);
        report.set("schema.mine_ms", per_call("schema.mine") / 1e6);
        report.set("schema.derive_dtd_ms", per_call("schema.derive_dtd") / 1e6);
        report.set("schema.candidates", mean(&traced.candidates));
        report.set("persist.disk_bytes", disk as f64);
        for (metric, endpoint) in [
            ("serve.handler_us.convert", "convert"),
            ("serve.handler_us.map", "map"),
            ("serve.handler_us.corpus_xml", "corpus_xml"),
            ("serve.handler_us.schema_dtd", "schema_dtd"),
        ] {
            report.set(metric, after.handler_mean_us(&before, endpoint));
        }
        serve_layers(&mut report, &before, &after, &all_ms, wall);
        // Shadow mining is extra work the untraced replay does not do.
        let shadow = self_ns("schema.mine") + self_ns("schema.derive_dtd");
        let replay_traced = traced.elapsed.as_nanos() as f64 - shadow;
        report.set(
            "trace.overhead_frac",
            replay_traced / untraced.elapsed.as_nanos() as f64 - 1.0,
        );
        let path = std::path::Path::new(crate::OUT_DIR)
            .join(format!("spans-serve_ingest-seed{}.tsv", args.seed));
        tr.write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
        return Ok(report);
    }

    // Quality figures, outside every timed region.
    // Every written document's HTML converted against its ground truth,
    // and a sample of the written XML mapped onto the final schema as
    // `POST /map` would.
    let (schema, dtd) = untraced
        .final_mapping
        .as_ref()
        .ok_or("replayed corpus has no schema")?;
    let planner = MapPlanner::default();
    let mut errors = 0u64;
    for i in 0..writes {
        let doc = generator.generate_one(i);
        errors += logical_errors(&pipeline.convert_html(&doc.html).0, &doc.truth).errors;
    }
    let (mut sampled, mut conforming) = (0u64, 0u64);
    for (i, xml) in write_xml.iter().enumerate().take(MAPPED_DOCS) {
        let written = parse_xml(xml).map_err(|e| format!("generated xml: {e}"))?;
        let plan = planner.plan(&written, schema, dtd);
        if plan.conforms {
            conforming += 1;
            let errors = validate(&plan.document, dtd);
            report.check(errors.is_empty(), || {
                format!("doc {i} counted as conforming fails the DTD: {errors:?}")
            });
        }
        sampled += 1;
    }

    let w = summarize(&writes_ms, 0.99).ok_or("no writes")?;
    let r = summarize(&reads_ms, 0.9).ok_or("no reads")?;
    let a = summarize(&all_ms, 0.99).ok_or("no operations")?;
    report.note(format!(
        "write ack: p50 {:.4} ms, p{:.1} {:.4} ms over n={}; reads: p50 {:.4} ms, p{:.1} {:.4} ms over n={}; all ops p{:.1} {:.4} ms",
        w.p50, w.q * 100.0, w.tail, w.n, r.p50, r.q * 100.0, r.tail, r.n, a.q * 100.0, a.tail
    ));
    let secs = wall.as_secs_f64();
    let total_docs = (BASE_DOCS + acked) as f64;
    report.set("setup_s", median(&setups));
    report.set("docs_per_s", acked as f64 / secs);
    // Wall-clock figures here, unlike `batch_cold`'s (see `speed.rs`).
    report.set("setup_s_wall", median(&setups));
    report.set("docs_per_s_wall", acked as f64 / secs);
    report.set("p50_ms", w.p50);
    report.set("p99_ms", w.tail);
    report.set("p99_ms_high", a.tail);
    report.set("max_rate_rps", ops.len() as f64 / secs);
    report.set("read_p50_ms", r.p50);
    report.set("read_p90_ms", r.tail);
    report.set(
        "logical_errors_per_doc",
        ratio(errors as f64, writes as f64),
    );
    report.set("conform_ratio", ratio(conforming as f64, sampled as f64));
    report.set("replay_s", median(&replays) * 1000.0 / total_docs);
    report.set("disk_bytes_per_doc", disk as f64 / total_docs);
    report.set("rss_mb", rss_mb);
    Ok(report)
}

/// Server-side per-layer figures shared with the traced run.
fn serve_layers(
    report: &mut Report,
    before: &Counters,
    after: &Counters,
    client_ms: &[f64],
    wall: Duration,
) {
    let (requests, handler_us) = after.handler_totals(before);
    let client_us = mean(client_ms) * 1e3;
    let outside = client_us - ratio(handler_us as f64, requests as f64);
    report.set("serve.outside_handler_us", outside);
    report.set("layers.unattributed_frac", ratio(outside, client_us));
    report.set(
        "serve.worker_busy_frac",
        (after.busy_ns - before.busy_ns) as f64 / (wall.as_nanos() as f64 * client::cpus() as f64),
    );
    report.set("serve.refused", (after.refused - before.refused) as f64);
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    report.set("cache.hit_ratio", ratio(hits, hits + misses));
}

/// What an in-process replay of the acknowledged operations produced.
struct Replayed {
    digest: u64,
    elapsed: Duration,
    final_mapping: Option<(MajoritySchema, Dtd)>,
    candidates: Vec<f64>,
    tracer: Option<Tracer>,
}

/// Replays the seeded documents and the acknowledged writes, in the
/// order the server applied them (their corpus versions), through a
/// durable `LiveCorpus` on `dir`. At each version a read saw, the
/// replayed snapshot's DTD must equal the served one. With a tracer,
/// each call is spanned and a shadow `ShardedCorpus` is mined at every
/// read to time mining and DTD derivation apart (and must agree too).
#[allow(clippy::too_many_arguments)]
fn replay_ops(
    pipeline: &Pipeline,
    base_xml: &[String],
    write_xml: &[String],
    ops: &[Op],
    dir: &Path,
    mut tracer: Option<Tracer>,
    report: &mut Report,
) -> Result<Replayed, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut order: Vec<&Op> = ops
        .iter()
        .filter(|o| o.doc.is_some() && o.status == 202)
        .collect();
    order.sort_by_key(|o| o.version);
    let mut reads: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for o in ops.iter().filter(|o| o.doc.is_none() && o.status == 200) {
        reads.entry(o.version).or_default().push(o.body_hash);
    }
    let engine = pipeline.serve_engine();
    let (store, sharded, _) =
        CorpusStore::open(&store_config(dir)).map_err(|e| format!("replay store: {e}"))?;
    let mut shadow = ShardedCorpus::new(sharded.shard_count());
    let live = LiveCorpus::durable(sharded, store);
    let mut digest = 0u64;
    let mut candidates = Vec::new();
    let stats = ConvertStats::default();
    let start = Instant::now();
    let docs = base_xml
        .iter()
        .map(|x| (None, x))
        .chain(order.iter().map(|o| {
            (
                Some(o.version),
                &write_xml[o.doc.expect("writes carry a doc")],
            )
        }));
    for (req, (expected_version, xml)) in docs.enumerate() {
        let req = req as u64;
        let hash = checksum(xml.as_bytes());
        let (parsed, paths, accreted) = match tracer.as_mut() {
            Some(tr) => {
                let parsed = tr.time("xml.parse", req, || parse_xml(xml));
                let paths = parsed
                    .as_ref()
                    .ok()
                    .map(|d| tr.time("schema.extract_paths", req, || extract_paths(d)));
                let accreted = paths.clone().map(|p| {
                    tr.time("persist.accrete", req, || {
                        live.accrete_paths(hash, p, &stats)
                    })
                });
                (parsed.is_ok(), paths, accreted)
            }
            None => {
                let paths = parse_xml(xml).ok().map(|d| extract_paths(&d));
                let accreted = paths.clone().map(|p| live.accrete_paths(hash, p, &stats));
                (paths.is_some(), paths, accreted)
            }
        };
        let Some(Ok((version, _))) = accreted else {
            return Err(format!(
                "replay could not accrete document {req} (parsed: {parsed})"
            ));
        };
        if tracer.is_some() {
            shadow.push(hash, paths.expect("accreted documents have paths"));
        }
        if let Some(expected) = expected_version {
            report.check(version == expected, || {
                format!("replayed write landed at version {version}, served at {expected}")
            });
        }
        let Some(served) = reads.get(&version) else {
            continue;
        };
        let snapshot = match tracer.as_mut() {
            Some(tr) => tr.time("schema.snapshot", version, || live.snapshot(&engine)),
            None => live.snapshot(&engine),
        };
        let text = snapshot.dtd_text.clone().unwrap_or_default();
        let want = checksum(text.as_bytes());
        digest = (digest ^ want).wrapping_mul(0x0000_0100_0000_01b3);
        for got in served {
            report.check(*got == want, || {
                format!("read at version {version} served a DTD other than the replayed one")
            });
        }
        if let Some(tr) = tracer.as_mut() {
            let outcome = tr.time("schema.mine", version, || {
                pipeline.miner().mine_view(&shadow)
            });
            if let Some(outcome) = outcome {
                candidates.push(outcome.nodes_explored as f64);
                let dtd = tr.time("schema.derive_dtd", version, || {
                    derive_dtd_sharded(
                        &outcome.schema,
                        &shadow.docs_by_shard(),
                        pipeline.dtd_config(),
                    )
                });
                report.check(dtd.to_dtd_string() == text, || {
                    format!("shadow mining at version {version} disagrees with the snapshot")
                });
            }
        }
    }
    let elapsed = start.elapsed();
    let final_mapping = live.snapshot(&engine).mapping.clone();
    drop(live);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Replayed {
        digest,
        elapsed,
        final_mapping,
        candidates,
        tracer,
    })
}
