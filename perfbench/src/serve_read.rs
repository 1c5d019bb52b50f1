//! `serve_read`: an open-loop request mix against an in-process server.
//!
//! The server (`Server::start`, one worker per CPU, durable corpus) is
//! seeded at set-up with generator ground-truth XML so `/map` has a
//! schema, and the hot set is converted once so its repeats hit the
//! cache. The mix is mostly cold `POST /convert` of never-repeated
//! documents, repeats from a hot set far smaller than the cache, `POST
//! /map` of distinct documents and a few `GET /schema/dtd` reads of the
//! cached snapshot. No writes arrive during the run, so mining stays idle.
//!
//! Requests go out on [`CONNECTIONS`] pipelined keep-alive connections at
//! evenly spaced due times; latency counts from the due time. The run is
//! a nominal-rate step, a high-rate step, then a ladder of rising rates
//! that stops at the first rate whose tail latency misses
//! [`LATENCY_LIMIT_MS`] or whose backlog grows.

use crate::batch::{convert_traced, CONVERT_LAYERS};
use crate::client::{self, open_loop, request_bytes, Answer, Client, Counters};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{mean, median, ratio, summarize};
use crate::trace::Tracer;
use crate::warm::KeepWarm;
use crate::Args;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use webre::convert::accuracy::logical_errors;
use webre::corpus::CorpusGenerator;
use webre::map::{render_json, MapPlanner, MapTier};
use webre::serve::persist::{CorpusStore, StoreConfig};
use webre::serve::server::{ServeConfig, Server};
use webre::xml::{parse_xml, to_xml, to_xml_pretty, validate};
use webre::{DiscoveryResult, Pipeline};
use webre_substrate::rand::rngs::StdRng;
use webre_substrate::rand::{Rng, SeedableRng};
use webre_substrate::wal::checksum;

/// Load connections (and generator threads): one per CPU of the
/// reference box, which has two.
pub const CONNECTIONS: usize = 2;
/// Ground-truth documents seeded into the corpus at set-up.
const SEED_DOCS: usize = 400;
/// Documents in the hot set; the cache holds [`CACHE_CAP`] entries.
const HOT_DOCS: usize = 32;
const CACHE_CAP: usize = 1024;
/// Request mix, per mille: cold convert, hot convert, map; the rest are
/// schema reads.
const MIX_COLD: u32 = 620;
const MIX_HOT: u32 = 200;
const MIX_MAP: u32 = 130;
// The mix leaves room for schema reads, and the hot set fits the cache.
const _: () = assert!(MIX_HOT + MIX_MAP + MIX_COLD < 1000 && HOT_DOCS * 4 < CACHE_CAP);
/// Nominal and high rates (requests/s) and their shares of `--seconds`.
pub const NOMINAL_RPS: f64 = 2000.0;
pub const HIGH_RPS: f64 = 3000.0;
const NOMINAL_SHARE: f64 = 0.4;
const HIGH_SHARE: f64 = 0.2;
/// Ladder rates (requests/s), 10% apart. Each step lasts
/// [`LADDER_STEP_SHARE`] of `--seconds`; the ladder stops at the first
/// failing step.
pub const LADDER_RPS: [f64; 14] = [
    3500.0, 3850.0, 4240.0, 4660.0, 5120.0, 5640.0, 6200.0, 6820.0, 7500.0, 8250.0, 9080.0, 9990.0,
    10990.0, 12090.0,
];
const LADDER_STEP_SHARE: f64 = 1.0 / 15.0;
/// Saturation bursts: [`BURSTS`] steps whose requests are all due at
/// once, each as many as [`BURST_RPS`] for [`BURST_SHARE`] of
/// `--seconds` would send.
const BURSTS: usize = 9;
const BURST_RPS: f64 = 6000.0;
const BURST_SHARE: f64 = 0.05;
/// Tail latency a ladder step must stay within to pass: well above the
/// scheduling stalls of a shared two-core box, well below the backlog
/// one step at 10% overload builds.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// The generator fell behind when its median lateness at the nominal or
/// high rate exceeds this. Its tail lateness is reported, not judged:
/// host stalls that delay the sender delay the server just as much, and
/// latency counts from the due time either way.
pub const LATE_P50_LIMIT_MS: f64 = 1.0;
/// Scheduled runs start this long after their inputs are ready.
const LEAD: Duration = Duration::from_millis(5);
/// Store settings: fsync every record batch, compaction off for seeding.
const SYNC_EVERY: usize = 64;
const COMPACT_MIN: usize = 1 << 30;
/// Times the seeded data directory is replayed for `replay_s` (the
/// median is reported; one replay takes tens of milliseconds).
const REPLAY_OPENS: usize = 9;
/// Set-ups timed for `setup_s`.
const SETUPS: usize = 3;
/// Generator index bases keeping the document streams disjoint.
const HOT_BASE: usize = 10_000_000;
const SEED_BASE: usize = 20_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Cold,
    Hot,
    Map,
    Schema,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Cold => "client.convert_cold",
            Kind::Hot => "client.convert_hot",
            Kind::Map => "client.map",
            Kind::Schema => "client.schema_dtd",
        }
    }
}

/// One scheduled request: its kind and the generator index of its body.
#[derive(Clone, Copy, Debug)]
struct Planned {
    kind: Kind,
    doc: usize,
}

/// A running, seeded server plus what the gates need to know about it.
struct Served {
    server: Server,
    dir: PathBuf,
    hot_html: Vec<String>,
    hot_hash: Vec<u64>,
    setup_s: f64,
}

/// Starts a server on a fresh data directory, seeds it, computes the
/// schema snapshot and warms the hot set.
fn set_up(
    pipeline: &Pipeline,
    generator: &CorpusGenerator,
    seed_xml: &[String],
    dir: &Path,
) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(dir);
    let hot: Vec<String> = (0..HOT_DOCS)
        .map(|i| generator.generate_one(HOT_BASE + i).html)
        .collect();
    let requests: Vec<Vec<u8>> = seed_xml
        .iter()
        .map(|x| request_bytes("POST", "/corpus/xml", x.as_bytes()))
        .collect();
    let start = Instant::now();
    let config = ServeConfig {
        cache_cap: CACHE_CAP,
        ..client::serve_config(client::cpus(), dir, SYNC_EVERY, COMPACT_MIN)
    };
    let server =
        Server::start(config, pipeline.serve_engine()).map_err(|e| format!("server start: {e}"))?;
    let mut c = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    for r in &requests {
        let response = c.send(r).map_err(|e| format!("seeding: {e}"))?;
        if response.status != 202 {
            return Err(format!("seeding answered {}", response.status));
        }
    }
    let dtd = c
        .call("GET", "/schema/dtd", b"")
        .map_err(|e| e.to_string())?;
    if dtd.status != 200 {
        return Err(format!("schema read after seeding answered {}", dtd.status));
    }
    let mut hot_hash = Vec::with_capacity(HOT_DOCS);
    for html in &hot {
        let response = c
            .call("POST", "/convert", html.as_bytes())
            .map_err(|e| e.to_string())?;
        if response.status != 200 {
            return Err(format!("hot-set warm-up answered {}", response.status));
        }
        hot_hash.push(checksum(&response.body));
    }
    let setup_s = start.elapsed().as_secs_f64();
    Ok(Served {
        server,
        dir: dir.to_path_buf(),
        hot_html: hot,
        hot_hash,
        setup_s,
    })
}

/// One step of the schedule and what came back.
struct Step {
    rate: f64,
    planned: Vec<Planned>,
    answers: Vec<Answer>,
    before: Counters,
    after: Counters,
    wall: Duration,
}

impl Step {
    fn latencies(&self) -> Vec<f64> {
        self.answers.iter().map(Answer::latency_ms).collect()
    }

    /// Passes when the p99 (under the percentile rule) is within the
    /// limit and the last tenth of the step was not still queueing.
    fn passes(&self) -> bool {
        let lat = self.latencies();
        let Some(all) = summarize(&lat, 0.99) else {
            return false;
        };
        let tail_start = lat.len() - lat.len() / 10;
        let last = median(&lat[tail_start..]);
        all.tail <= LATENCY_LIMIT_MS
            && last <= LATENCY_LIMIT_MS
            && self.answers.iter().all(|a| a.status == 200)
    }

    fn p99(&self) -> f64 {
        summarize(&self.latencies(), 0.99).map_or(f64::INFINITY, |s| s.tail)
    }
}

/// Plans, sends and collects one step of `count` requests at `rate`
/// (all due at once when the rate is infinite).
#[allow(clippy::too_many_arguments)]
fn run_step(
    served: &Served,
    conns: &[TcpStream],
    generator: &CorpusGenerator,
    rng: &mut StdRng,
    next_doc: &mut usize,
    rate: f64,
    count: usize,
) -> Result<Step, String> {
    let count = count.max(CONNECTIONS);
    let mut planned = Vec::with_capacity(count);
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(count);
    for _ in 0..count {
        let roll = rng.gen_range(0..1000u32);
        let kind = if roll < MIX_HOT {
            Kind::Hot
        } else if roll < MIX_HOT + MIX_MAP {
            Kind::Map
        } else if roll < MIX_HOT + MIX_MAP + MIX_COLD {
            Kind::Cold
        } else {
            Kind::Schema
        };
        let (doc, bytes) = match kind {
            Kind::Hot => {
                let doc = rng.gen_range(0..HOT_DOCS);
                (
                    doc,
                    request_bytes("POST", "/convert", served.hot_html[doc].as_bytes()),
                )
            }
            Kind::Cold | Kind::Map => {
                let doc = *next_doc;
                *next_doc += 1;
                let target = if kind == Kind::Map {
                    "/map"
                } else {
                    "/convert"
                };
                let html = generator.generate_one(doc).html;
                (doc, request_bytes("POST", target, html.as_bytes()))
            }
            Kind::Schema => (0, request_bytes("GET", "/schema/dtd", b"")),
        };
        planned.push(Planned { kind, doc });
        bodies.push(bytes);
    }
    let start = Instant::now() + LEAD;
    let due = |i: usize| {
        if rate.is_finite() {
            start + Duration::from_secs_f64(i as f64 / rate)
        } else {
            start
        }
    };
    let schedules: Vec<Vec<(Instant, &[u8])>> = (0..CONNECTIONS)
        .map(|c| {
            (c..count)
                .step_by(CONNECTIONS)
                .map(|i| (due(i), bodies[i].as_slice()))
                .collect()
        })
        .collect();
    let app = served.server.app();
    let before = client::counters(&app);
    let per_conn =
        open_loop(conns, &schedules).map_err(|e| format!("load connection failed: {e}"))?;
    let wall = start.elapsed();
    let after = client::counters(&app);
    // Interleave back into request order.
    let answers: Vec<Answer> = (0..count)
        .map(|i| per_conn[i % CONNECTIONS][i / CONNECTIONS])
        .collect();
    Ok(Step {
        rate,
        planned,
        answers,
        before,
        after,
        wall,
    })
}

/// Highest ladder rate meeting the limit, interpolated on p99 between
/// the last passing and the first failing step.
fn max_rate(ladder: &[(f64, f64, bool)]) -> f64 {
    let mut last_pass = (0.0, 0.0);
    for &(rate, p99, pass) in ladder {
        if !pass {
            let (r0, l0) = last_pass;
            let frac = if p99.is_finite() && p99 > l0 {
                ((LATENCY_LIMIT_MS - l0) / (p99 - l0)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            return r0 + (rate - r0) * frac;
        }
        last_pass = (rate, p99);
    }
    last_pass.0
}

/// Expected-output recomputation for the gates, traced or not.
#[derive(Default)]
struct Recompute {
    /// Checksums of the expected response bodies, per planned request.
    hashes: Vec<u64>,
    logical_errors: u64,
    converted: u64,
    mapped: u64,
    conforming: u64,
    decided: u64,
    nonconforming_valid: Vec<String>,
    elapsed: Duration,
}

fn recompute(
    pipeline: &Pipeline,
    generator: &CorpusGenerator,
    discovery: &DiscoveryResult,
    planned: &[Planned],
    hot_hash: &[u64],
    mut tracer: Option<&mut Tracer>,
) -> Recompute {
    let planner = MapPlanner::default();
    let dtd_hash = checksum(discovery.dtd.to_dtd_string().as_bytes());
    let mut out = Recompute::default();
    let start = Instant::now();
    {
        for p in planned {
            let hash = match p.kind {
                Kind::Hot => hot_hash[p.doc],
                Kind::Schema => dtd_hash,
                Kind::Cold | Kind::Map => {
                    let doc = generator.generate_one(p.doc);
                    let req = p.doc as u64;
                    let converted = match tracer.as_deref_mut() {
                        Some(tr) => convert_traced(pipeline, &doc.html, tr, req),
                        None => pipeline.convert_html(&doc.html).0,
                    };
                    if p.kind == Kind::Cold {
                        out.converted += 1;
                        out.logical_errors += logical_errors(&converted, &doc.truth).errors;
                        let xml = match tracer.as_deref_mut() {
                            Some(tr) => tr.time("xml.serialize", req, || to_xml_pretty(&converted)),
                            None => to_xml_pretty(&converted),
                        };
                        checksum(xml.as_bytes())
                    } else {
                        out.mapped += 1;
                        let plan = match tracer.as_deref_mut() {
                            Some(tr) => tr.time("map.plan", req, || {
                                pipeline.plan_document(&converted, discovery, &planner)
                            }),
                            None => pipeline.plan_document(&converted, discovery, &planner),
                        };
                        out.decided += u64::from(plan.tier != MapTier::Exact);
                        if plan.conforms {
                            out.conforming += 1;
                            if !validate(&plan.document, &discovery.dtd).is_empty() {
                                out.nonconforming_valid.push(format!("map doc {}", p.doc));
                            }
                        }
                        checksum(format!("{}\n", render_json(&plan, None)).as_bytes())
                    }
                }
            };
            out.hashes.push(hash);
        }
    }
    out.elapsed = start.elapsed();
    out
}

/// [`recompute`] untraced, split across `threads` threads.
fn recompute_parallel(
    pipeline: &Pipeline,
    generator: &CorpusGenerator,
    discovery: &DiscoveryResult,
    planned: &[Planned],
    hot_hash: &[u64],
    threads: usize,
) -> Recompute {
    let start = Instant::now();
    let chunk = planned.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Recompute> = std::thread::scope(|s| {
        let handles: Vec<_> = planned
            .chunks(chunk)
            .map(|c| s.spawn(move || recompute(pipeline, generator, discovery, c, hot_hash, None)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recompute thread panicked"))
            .collect()
    });
    let mut out = Recompute::default();
    for part in parts {
        out.hashes.extend(part.hashes);
        out.logical_errors += part.logical_errors;
        out.converted += part.converted;
        out.mapped += part.mapped;
        out.conforming += part.conforming;
        out.decided += part.decided;
        out.nonconforming_valid.extend(part.nonconforming_valid);
    }
    out.elapsed = start.elapsed();
    out
}

pub fn run(args: &Args) -> Result<Report, String> {
    let warm = KeepWarm::start(client::cpus());
    let generator = CorpusGenerator::new(args.seed);
    let seed_xml: Vec<String> = (0..SEED_DOCS)
        .map(|i| to_xml(&generator.generate_one(SEED_BASE + i).truth))
        .collect();
    let root =
        std::path::Path::new(crate::OUT_DIR).join(format!("serve_read-{}", std::process::id()));
    let dir = root.join("data");
    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let pipeline = Pipeline::resume_domain();
        let build = t.elapsed().as_secs_f64();
        let s = set_up(&pipeline, &generator, &seed_xml, &dir)?;
        setups.push(build + s.setup_s);
        if i + 1 < SETUPS {
            client::stop(s.server).map_err(|e| e.to_string())?;
        } else {
            served = Some((pipeline, s));
        }
    }
    let (pipeline, served) = served.expect("at least one set-up");
    let result = measure(
        args,
        &pipeline,
        &generator,
        &seed_xml,
        served,
        median(&setups),
    )
    .map(|mut r| {
        r.note(format!("keep-warm spinners: {}", warm.count()));
        r
    });
    drop(warm);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn measure(
    args: &Args,
    pipeline: &Pipeline,
    generator: &CorpusGenerator,
    seed_xml: &[String],
    served: Served,
    setup_s: f64,
) -> Result<Report, String> {
    let mut report = Report::default();
    let addr = served.server.local_addr();
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let c = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        c.set_nodelay(true).map_err(|e| e.to_string())?;
        conns.push(c);
    }
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5EED_5EED_5EED_5EED);
    let mut next_doc = 0usize;
    let mut tracer = args.trace.then(|| Tracer::new(Instant::now()));
    let secs = args.seconds;
    let mut steps = Vec::new();
    let count = |rate: f64, share: f64| (rate * secs * share).round() as usize;
    for (rate, share) in [(NOMINAL_RPS, NOMINAL_SHARE), (HIGH_RPS, HIGH_SHARE)] {
        steps.push(run_step(
            &served,
            &conns,
            generator,
            &mut rng,
            &mut next_doc,
            rate,
            count(rate, share),
        )?);
    }
    for _ in 0..BURSTS {
        steps.push(run_step(
            &served,
            &conns,
            generator,
            &mut rng,
            &mut next_doc,
            f64::INFINITY,
            count(BURST_RPS, BURST_SHARE),
        )?);
    }
    let mut ladder = Vec::new();
    for rate in LADDER_RPS {
        let step = run_step(
            &served,
            &conns,
            generator,
            &mut rng,
            &mut next_doc,
            rate,
            count(rate, LADDER_STEP_SHARE),
        )?;
        let pass = step.passes();
        ladder.push((rate, step.p99(), pass));
        steps.push(step);
        if !pass {
            break;
        }
    }
    drop(conns);
    // Peak memory of the run itself, before the gates allocate theirs.
    let rss_mb = peak_rss_mb();
    let app = served.server.app();
    let end_counters = client::counters(&app);
    drop(app);

    // Generator health: a run whose sender fell behind is refused.
    for step in &steps[..2] {
        let late: Vec<f64> = step.answers.iter().map(Answer::late_ms).collect();
        let late = summarize(&late, 0.99).expect("steps are never empty");
        report.note(format!(
            "generator lateness at {} rps: p50 {:.4} ms, p{:.1} {:.4} ms over n={}",
            step.rate,
            late.p50,
            late.q * 100.0,
            late.tail,
            late.n
        ));
        if late.p50 > LATE_P50_LIMIT_MS {
            return Err(format!(
                "load generator fell behind at {} rps: lateness p50 {:.3} ms, p99 {:.3} ms",
                step.rate, late.p50, late.tail
            ));
        }
    }

    client::stop(served.server).map_err(|e| format!("shutdown: {e}"))?;
    let store = StoreConfig {
        data_dir: served.dir.clone(),
        shards: 2,
        sync_every: SYNC_EVERY,
        compact_min: COMPACT_MIN,
    };
    let mut replays = Vec::new();
    for _ in 0..REPLAY_OPENS {
        let t = Instant::now();
        let (_, _, replay) = CorpusStore::open(&store).map_err(|e| format!("replay: {e}"))?;
        replays.push(t.elapsed().as_secs_f64());
        report.check(
            replay.docs == SEED_DOCS && replay.warnings.is_empty(),
            || {
                format!(
                    "replay restored {} docs (seeded {SEED_DOCS}), warnings {:?}",
                    replay.docs, replay.warnings
                )
            },
        );
    }
    let disk = client::dir_bytes(&served.dir).map_err(|e| e.to_string())?;

    // Gates: every served body equals the in-process pipeline's bytes.
    let seeds: Vec<_> = seed_xml
        .iter()
        .map(|x| parse_xml(x).map_err(|e| format!("seed xml: {e}")))
        .collect::<Result<_, _>>()?;
    let discovery = pipeline
        .discover_schema(&seeds)
        .ok_or("seed corpus has no schema")?;
    let all_planned: Vec<Planned> = steps
        .iter()
        .flat_map(|s| s.planned.iter().copied())
        .collect();
    // The hot set's cached bodies equal the in-process conversion.
    let hot_hash: Vec<u64> = served
        .hot_html
        .iter()
        .map(|html| checksum(to_xml_pretty(&pipeline.convert_html(html).0).as_bytes()))
        .collect();
    report.check(hot_hash == served.hot_hash, || {
        "hot-set warm-up bodies differ from the in-process conversion".to_owned()
    });
    // The traced run compares traced and untraced recomputation on one
    // thread each; otherwise the gate may use every CPU.
    let threads = if args.trace { 1 } else { client::cpus() };
    let expected = recompute_parallel(
        pipeline,
        generator,
        &discovery,
        &all_planned,
        &hot_hash,
        threads,
    );
    let answers: Vec<&Answer> = steps.iter().flat_map(|s| &s.answers).collect();
    report.attempted = answers.len() as u64;
    let mut mismatched = 0u64;
    for ((a, p), want) in answers.iter().zip(&all_planned).zip(&expected.hashes) {
        if a.status != 200 || a.body_hash != *want {
            mismatched += 1;
            if mismatched <= 5 {
                report.gate_failures.push(format!(
                    "{:?} request for doc {} answered {} with body {:016x}, expected {want:016x}",
                    p.kind, p.doc, a.status, a.body_hash
                ));
            }
        }
    }
    report.failed += mismatched;
    for doc in &expected.nonconforming_valid {
        report.fail(1, format!("{doc} counted as conforming fails the DTD"));
    }
    let refused = end_counters.refused;
    report.check(refused == 0, || {
        format!("server refused {refused} requests")
    });

    let nominal = &steps[0];
    let high = &steps[1];
    report.note(format!(
        "steps: {}",
        steps
            .iter()
            .map(|s| format!(
                "{}rps/p99={:.3}ms/{}",
                s.rate,
                s.p99(),
                if s.passes() { "pass" } else { "fail" }
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    if let Some(tr) = tracer.as_mut() {
        let traced = recompute(
            pipeline,
            generator,
            &discovery,
            &all_planned,
            &hot_hash,
            Some(&mut *tr),
        );
        report.check(traced.hashes == expected.hashes, || {
            "traced recomputation digest differs from the untraced one".to_owned()
        });
        for step in &steps {
            for (a, p) in step.answers.iter().zip(&step.planned) {
                tr.record(p.kind.span(), p.doc as u64, a.due, a.done);
            }
        }
        layer_metrics(&mut report, tr, nominal, &expected, &traced, disk);
        let path = std::path::Path::new(crate::OUT_DIR)
            .join(format!("spans-serve_read-seed{}.tsv", args.seed));
        tr.write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
        return Ok(report);
    }

    let lat = summarize(&nominal.latencies(), 0.99).expect("steps are never empty");
    report.note(format!(
        "nominal {} rps: p50 {:.4} ms, p{:.1} {:.4} ms over n={}",
        nominal.rate,
        lat.p50,
        lat.q * 100.0,
        lat.tail,
        lat.n
    ));
    let hi = summarize(&high.latencies(), 0.99).expect("steps are never empty");
    report.note(format!(
        "high {} rps: p{:.1} {:.4} ms over n={}",
        high.rate,
        hi.q * 100.0,
        hi.tail,
        hi.n
    ));
    let reads: Vec<f64> = nominal
        .answers
        .iter()
        .zip(&nominal.planned)
        .filter(|(_, p)| p.kind == Kind::Schema)
        .map(|(a, _)| a.latency_ms())
        .collect();
    let reads = summarize(&reads, 0.9).ok_or("no schema reads at the nominal rate")?;
    report.note(format!(
        "cached schema reads: p50 {:.4} ms, p{:.1} {:.4} ms over n={}",
        reads.p50,
        reads.q * 100.0,
        reads.tail,
        reads.n
    ));
    // Throughput at saturation: a burst's documents over the time the
    // server took to answer all of them; the median burst.
    let bursts: Vec<f64> = steps[2..2 + BURSTS]
        .iter()
        .map(|b| {
            let docs = b.planned.iter().filter(|p| p.kind != Kind::Schema).count();
            docs as f64 / b.wall.as_secs_f64()
        })
        .collect();
    report.note(format!("saturation bursts: {bursts:?} docs/s"));
    report.set("setup_s", setup_s);
    report.set("docs_per_s", median(&bursts));
    // Wall-clock figures here, unlike `batch_cold`'s (see `speed.rs`).
    report.set("setup_s_wall", setup_s);
    report.set("docs_per_s_wall", median(&bursts));
    report.set("p50_ms", lat.p50);
    report.set("p99_ms", lat.tail);
    report.set("p99_ms_high", hi.tail);
    report.set("max_rate_rps", max_rate(&ladder));
    report.set("read_p50_ms", reads.p50);
    report.set("read_p90_ms", reads.tail);
    report.set(
        "logical_errors_per_doc",
        ratio(expected.logical_errors as f64, expected.converted as f64),
    );
    report.set(
        "conform_ratio",
        ratio(expected.conforming as f64, expected.mapped as f64),
    );
    report.set("replay_s", median(&replays) * 1000.0 / SEED_DOCS as f64);
    report.set("disk_bytes_per_doc", disk as f64 / SEED_DOCS as f64);
    report.set("rss_mb", rss_mb);
    Ok(report)
}

/// Per-layer metrics of the traced run. Server-side figures come from
/// the nominal step's counter deltas; engine layers from the traced
/// recomputation of the same documents.
fn layer_metrics(
    report: &mut Report,
    tr: &Tracer,
    nominal: &Step,
    untraced: &Recompute,
    traced: &Recompute,
    disk: u64,
) {
    let times = tr.self_times();
    let per_call = |name: &str| {
        times
            .get(name)
            .map_or(0.0, |l| ratio(l.self_ns as f64, l.calls as f64) / 1e3)
    };
    for (metric, span) in CONVERT_LAYERS {
        report.set(metric, per_call(span));
    }
    report.set("map.plan_us", per_call("map.plan"));
    report.set(
        "map.filter_decided_ratio",
        ratio(traced.decided as f64, traced.mapped as f64),
    );
    let (before, after) = (&nominal.before, &nominal.after);
    for (metric, endpoint) in [
        ("serve.handler_us.convert", "convert"),
        ("serve.handler_us.map", "map"),
        ("serve.handler_us.corpus_xml", "corpus_xml"),
        ("serve.handler_us.schema_dtd", "schema_dtd"),
    ] {
        report.set(metric, after.handler_mean_us(before, endpoint));
    }
    let (requests, handler_us) = after.handler_totals(before);
    let client_us = mean(&nominal.latencies()) * 1e3;
    let outside = client_us - ratio(handler_us as f64, requests as f64);
    report.set("serve.outside_handler_us", outside);
    report.set("layers.unattributed_frac", ratio(outside, client_us));
    let busy = (after.busy_ns - before.busy_ns) as f64;
    report.set(
        "serve.worker_busy_frac",
        busy / (nominal.wall.as_nanos() as f64 * client::cpus() as f64),
    );
    report.set("serve.refused", (after.refused - before.refused) as f64);
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    report.set("cache.hit_ratio", ratio(hits, hits + misses));
    report.set("persist.disk_bytes", disk as f64);
    report.set(
        "trace.overhead_frac",
        traced.elapsed.as_secs_f64() / untraced.elapsed.as_secs_f64() - 1.0,
    );
    let late: Vec<f64> = nominal.answers.iter().map(Answer::late_ms).collect();
    report.set(
        "loadgen.late_ms",
        summarize(&late, 0.99).map_or(0.0, |s| s.tail),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_interpolates_between_last_pass_and_first_fail() {
        let l = LATENCY_LIMIT_MS;
        assert_eq!(
            max_rate(&[(100.0, 1.0, true), (200.0, 1.0 + 2.0 * (l - 1.0), false)]),
            150.0
        );
        // A failing step with a runaway tail pins the result to the last pass.
        assert_eq!(
            max_rate(&[(100.0, 1.0, true), (200.0, f64::INFINITY, false)]),
            100.0
        );
        // Never failing reports the top of the ladder.
        assert_eq!(max_rate(&[(100.0, 1.0, true), (200.0, 2.0, true)]), 200.0);
        // Failing at once interpolates from zero.
        assert_eq!(max_rate(&[(100.0, 2.0 * l, false)]), 50.0);
    }

    #[test]
    fn ladder_rises() {
        assert!(LADDER_RPS.windows(2).all(|w| w[0] < w[1]));
    }
}
