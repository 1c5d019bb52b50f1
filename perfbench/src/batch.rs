//! `batch_cold`: the work `webre run` does, called in-process.
//!
//! Each pass takes [`PASS_DOCS`] distinct, never-seen generator documents
//! and converts every one, discovers the schema (path extraction, mining,
//! DTD derivation), maps every document onto the DTD and pretty-prints
//! it. Passes repeat until `--seconds` of pass time has been measured;
//! generating a pass's inputs, probing the host's speed and checking its
//! outputs happen between passes, outside the timed region.
//!
//! The untraced run calls the `Pipeline` facade. The traced run calls
//! the same layers one public function at a time under spans, on the
//! same documents, and must produce the same output digest.

use crate::report::{peak_rss_mb, Report};
use crate::speed;
use crate::stats::{mean, median, ratio, summarize};
use crate::trace::Tracer;
use crate::Args;
use std::time::{Duration, Instant};
use webre::convert::accuracy::logical_errors;
use webre::convert::node::{finalize, ingest_owned};
use webre::convert::structure_rules::{consolidation_rule_with, grouping_rule};
use webre::convert::text_rules::{concept_instance_rule, tokenization_rule};
use webre::convert::ConvertStats;
use webre::corpus::{CorpusGenerator, GeneratedResume};
use webre::map::{map_to_dtd, MapPlanner, MapTier};
use webre::schema::{derive_dtd, extract_paths, DocPaths};
use webre::xml::{parse_xml, to_xml_pretty, validate, XmlDocument};
use webre::{DiscoveryResult, Pipeline};
use webre_substrate::wal::checksum;

/// Documents per pass: the corpus size of one `webre run`.
pub const PASS_DOCS: usize = 200;
/// Pipeline constructions timed for `setup_s` (each takes well under a
/// millisecond, so many are needed for a steady median).
const SETUPS: usize = 41;
/// Passes of the traced run that also plan every document through the
/// tiered `MapPlanner` (outside the pass span) for `map.plan_us`.
const PLAN_PASSES: usize = 10;

/// Per-document layer metrics of [`convert_traced`] (and serialization):
/// metric name and span name.
pub const CONVERT_LAYERS: [(&str, &str); 9] = [
    ("html.parse_us", "html.parse"),
    ("html.tidy_us", "html.tidy"),
    ("convert.ingest_us", "convert.ingest"),
    ("convert.tokenization_us", "convert.tokenization"),
    ("convert.concept_instance_us", "convert.concept_instance"),
    ("convert.grouping_us", "convert.grouping"),
    ("convert.consolidation_us", "convert.consolidation"),
    ("convert.finalize_us", "convert.finalize"),
    ("xml.serialize_us", "xml.serialize"),
];

/// Converts one document through the converter's layers one public
/// function at a time, exactly as `Converter::convert_owned` composes
/// them, with one span per layer.
pub fn convert_traced(pipeline: &Pipeline, html: &str, tr: &mut Tracer, req: u64) -> XmlDocument {
    let converter = pipeline.converter();
    let config = converter.config();
    let mut doc = tr.time("html.parse", req, || webre::html::parse(html));
    if config.tidy {
        tr.time("html.tidy", req, || webre::html::tidy(&mut doc));
    }
    let mut conv = tr.time("convert.ingest", req, || ingest_owned(doc));
    tr.time("convert.tokenization", req, || {
        tokenization_rule(&mut conv, &config.delimiters)
    });
    let mut stats = ConvertStats::default();
    tr.time("convert.concept_instance", req, || {
        concept_instance_rule(
            &mut conv,
            converter.matcher(),
            &config.classifier,
            config.constraints.as_ref(),
            &mut stats,
        )
    });
    if config.grouping {
        tr.time("convert.grouping", req, || grouping_rule(&mut conv.tree));
    }
    if config.consolidation {
        tr.time("convert.consolidation", req, || {
            consolidation_rule_with(&mut conv.tree, config.constraints.as_ref())
        });
    }
    tr.time("convert.finalize", req, || {
        finalize(&conv, &config.root_concept)
    })
}

/// What one pass produced.
struct Pass {
    converted: Vec<XmlDocument>,
    discovery: Option<DiscoveryResult>,
    /// Mapped document and whether the mapper reported it conformant.
    mapped: Vec<(XmlDocument, bool)>,
    outputs: Vec<String>,
    /// Per-document latency (convert + map + serialize), ms.
    doc_ms: Vec<f64>,
    /// Discovery time, ms.
    discover_ms: f64,
    elapsed: Duration,
}

fn pass_untraced(pipeline: &Pipeline, docs: &[GeneratedResume]) -> Pass {
    let start = Instant::now();
    let mut doc_ms = Vec::with_capacity(docs.len());
    let mut converted = Vec::with_capacity(docs.len());
    for d in docs {
        let t = Instant::now();
        converted.push(pipeline.convert_html(&d.html).0);
        doc_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    let discovery = pipeline.discover_schema(&converted);
    let discover_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut mapped = Vec::with_capacity(docs.len());
    let mut outputs = Vec::with_capacity(docs.len());
    if let Some(discovery) = &discovery {
        for (doc, ms) in converted.iter().zip(doc_ms.iter_mut()) {
            let t = Instant::now();
            let outcome = pipeline.map_document(doc, discovery);
            outputs.push(to_xml_pretty(&outcome.document));
            *ms += t.elapsed().as_secs_f64() * 1e3;
            mapped.push((outcome.document, outcome.conforms));
        }
    }
    Pass {
        converted,
        discovery,
        mapped,
        outputs,
        doc_ms,
        discover_ms,
        elapsed: start.elapsed(),
    }
}

fn pass_traced(pipeline: &Pipeline, docs: &[GeneratedResume], tr: &mut Tracer, pass: u64) -> Pass {
    let start = Instant::now();
    let root = tr.open("batch.pass", pass);
    let base = pass * PASS_DOCS as u64;
    let converted: Vec<XmlDocument> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| convert_traced(pipeline, &d.html, tr, base + i as u64))
        .collect();
    let paths: Vec<DocPaths> = tr.time("schema.extract_paths", pass, || {
        converted.iter().map(extract_paths).collect()
    });
    let outcome = tr.time("schema.mine", pass, || pipeline.miner().mine(&paths));
    let discovery = outcome.map(|outcome| {
        let dtd = tr.time("schema.derive_dtd", pass, || {
            derive_dtd(&outcome.schema, &paths, pipeline.dtd_config())
        });
        DiscoveryResult {
            schema: outcome.schema,
            dtd,
            paths,
            nodes_explored: outcome.nodes_explored,
        }
    });
    let mut mapped = Vec::with_capacity(docs.len());
    let mut outputs = Vec::with_capacity(docs.len());
    if let Some(discovery) = &discovery {
        for (i, doc) in converted.iter().enumerate() {
            let req = base + i as u64;
            let outcome = tr.time("map.exact", req, || {
                map_to_dtd(doc, &discovery.schema, &discovery.dtd)
            });
            outputs.push(tr.time("xml.serialize", req, || to_xml_pretty(&outcome.document)));
            mapped.push((outcome.document, outcome.conforms));
        }
    }
    tr.close(root);
    Pass {
        converted,
        discovery,
        mapped,
        outputs,
        doc_ms: Vec::new(),
        discover_ms: 0.0,
        elapsed: start.elapsed(),
    }
}

/// Folds a pass's DTD and outputs into the run digest.
fn fold_digest(digest: u64, pass: &Pass) -> u64 {
    let dtd = pass
        .discovery
        .as_ref()
        .map_or(String::new(), |d| d.dtd.to_dtd_string());
    std::iter::once(dtd.as_bytes())
        .chain(pass.outputs.iter().map(|o| o.as_bytes()))
        .fold(digest, |acc, bytes| {
            (acc ^ checksum(bytes)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Quality and output figures accumulated outside the timed region.
#[derive(Default)]
struct Checked {
    docs: u64,
    logical_errors: u64,
    conforming: u64,
    output_bytes: u64,
    /// Seconds to re-parse each pass's outputs.
    reparse: Vec<f64>,
}

/// Checks one pass's outputs against the ground truth and the DTD.
fn check_pass(pass: &Pass, docs: &[GeneratedResume], report: &mut Report, acc: &mut Checked) {
    let Some(discovery) = &pass.discovery else {
        report.fail(docs.len() as u64, "discovery found no schema for a pass");
        return;
    };
    let mut reparse = Duration::ZERO;
    for ((converted, truth), ((mapped, conforms), output)) in pass
        .converted
        .iter()
        .zip(docs)
        .zip(pass.mapped.iter().zip(&pass.outputs))
    {
        acc.docs += 1;
        acc.logical_errors += logical_errors(converted, &truth.truth).errors;
        acc.output_bytes += output.len() as u64;
        if *conforms {
            acc.conforming += 1;
            let errors = validate(mapped, &discovery.dtd);
            report.check(errors.is_empty(), || {
                format!(
                    "doc {} counted as conforming fails the DTD: {errors:?}",
                    truth.id
                )
            });
        }
        let t = Instant::now();
        let reparsed = parse_xml(output);
        reparse += t.elapsed();
        report.check(reparsed.is_ok(), || {
            format!("doc {} output is not well-formed XML", truth.id)
        });
    }
    acc.reparse.push(reparse.as_secs_f64());
}

fn generate(generator: &CorpusGenerator, pass: usize) -> Vec<GeneratedResume> {
    (pass * PASS_DOCS..(pass + 1) * PASS_DOCS)
        .map(|i| generator.generate_one(i))
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let generator = CorpusGenerator::new(args.seed);
    // Each set-up and each pass is timed right after a probe of the
    // host's speed; the guarded figures are at the reference speed, the
    // wall-clock ones are kept beside them.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setups_ref = Vec::with_capacity(SETUPS);
    let mut pipeline = None;
    for _ in 0..SETUPS {
        let probe = speed::probe();
        let t = Instant::now();
        pipeline = Some(std::hint::black_box(Pipeline::resume_domain()));
        let secs = t.elapsed().as_secs_f64();
        setups.push(secs);
        setups_ref.push(speed::at_reference(secs, probe));
    }
    let pipeline = pipeline.expect("at least one set-up");
    let budget = Duration::from_secs_f64(args.seconds);

    let mut report = Report::default();
    let mut checked = Checked::default();
    let mut doc_ms = Vec::new();
    let mut sizes = Vec::new();
    let mut discover_ms = Vec::new();
    let mut measured = Duration::ZERO;
    let mut pass_secs = Vec::new();
    let mut pass_secs_ref = Vec::new();
    let mut probes = Vec::new();
    let mut digest = 0u64;
    let mut passes = 0usize;
    while measured < budget {
        let docs = generate(&generator, passes);
        let probe = speed::probe();
        probes.push(probe);
        let pass = pass_untraced(&pipeline, &docs);
        measured += pass.elapsed;
        pass_secs.push(pass.elapsed.as_secs_f64());
        pass_secs_ref.push(speed::at_reference(pass.elapsed.as_secs_f64(), probe));
        digest = fold_digest(digest, &pass);
        check_pass(&pass, &docs, &mut report, &mut checked);
        doc_ms.extend_from_slice(&pass.doc_ms);
        sizes.extend(docs.iter().map(|d| d.html.len()));
        discover_ms.push(pass.discover_ms);
        passes += 1;
    }
    report.attempted = checked.docs.max(1);
    report.note(format!(
        "batch_cold: {passes} passes x {PASS_DOCS} docs, {:.3} s measured, digest {digest:016x}",
        measured.as_secs_f64()
    ));

    if args.trace {
        trace_run(
            args,
            &pipeline,
            &generator,
            passes,
            measured,
            digest,
            &mut report,
        )?;
        return Ok(report);
    }

    let docs = checked.docs as f64;
    // A median pass, so a stall of the shared machine during a few passes
    // does not move the figure.
    let docs_per_s = PASS_DOCS as f64 / median(&pass_secs);
    report.note(format!(
        "host speed probe: median {:.4} ms over n={} (reference {:.4} ms)",
        median(&probes) * 1e3,
        probes.len(),
        speed::REFERENCE_S * 1e3
    ));
    report.set("setup_s", median(&setups_ref));
    report.set("docs_per_s", PASS_DOCS as f64 / median(&pass_secs_ref));
    report.set("setup_s_wall", median(&setups));
    report.set("docs_per_s_wall", docs_per_s);
    report.set("max_rate_rps", docs_per_s);
    let all = summarize(&doc_ms, 0.99).ok_or("no documents measured")?;
    report.set("p50_ms", all.p50);
    report.set("p99_ms", all.tail);
    report.note(format!(
        "per-doc latency: p50 {:.4} ms, p{:.1} {:.4} ms over n={}",
        all.p50,
        all.q * 100.0,
        all.tail,
        all.n
    ));
    // The heaviest tenth of the inputs by HTML size.
    let mut by_size: Vec<(usize, f64)> =
        sizes.iter().copied().zip(doc_ms.iter().copied()).collect();
    by_size.sort_by_key(|&(size, _)| std::cmp::Reverse(size));
    let heavy: Vec<f64> = by_size[..by_size.len().div_ceil(10)]
        .iter()
        .map(|p| p.1)
        .collect();
    let heavy = summarize(&heavy, 0.99).ok_or("no documents measured")?;
    report.set("p99_ms_high", heavy.tail);
    report.note(format!(
        "largest-tenth docs: p{:.1} {:.4} ms over n={}",
        heavy.q * 100.0,
        heavy.tail,
        heavy.n
    ));
    let reads = summarize(&discover_ms, 0.9).ok_or("no passes measured")?;
    report.set("read_p50_ms", reads.p50);
    report.set("read_p90_ms", reads.tail);
    report.note(format!(
        "discovery per pass: p50 {:.4} ms, p{:.1} {:.4} ms over n={}",
        reads.p50,
        reads.q * 100.0,
        reads.tail,
        reads.n
    ));
    report.set(
        "logical_errors_per_doc",
        ratio(checked.logical_errors as f64, docs),
    );
    report.set("conform_ratio", ratio(checked.conforming as f64, docs));
    report.set(
        "replay_s",
        median(&checked.reparse) * 1000.0 / PASS_DOCS as f64,
    );
    report.set(
        "disk_bytes_per_doc",
        ratio(checked.output_bytes as f64, docs),
    );
    report.set("rss_mb", peak_rss_mb());
    Ok(report)
}

/// The traced run: the same passes again under spans, then a planner
/// shadow over the first passes.
fn trace_run(
    args: &Args,
    pipeline: &Pipeline,
    generator: &CorpusGenerator,
    passes: usize,
    untraced: Duration,
    untraced_digest: u64,
    report: &mut Report,
) -> Result<(), String> {
    let mut tr = Tracer::new(Instant::now());
    let planner = MapPlanner::default();
    let mut digest = 0u64;
    let mut docs_total = 0u64;
    let mut candidates = Vec::new();
    let (mut planned, mut decided) = (0u64, 0u64);
    for p in 0..passes {
        let docs = generate(generator, p);
        let pass = pass_traced(pipeline, &docs, &mut tr, p as u64);
        digest = fold_digest(digest, &pass);
        docs_total += docs.len() as u64;
        if let Some(discovery) = &pass.discovery {
            candidates.push(discovery.nodes_explored as f64);
            if p < PLAN_PASSES {
                for (i, doc) in pass.converted.iter().enumerate() {
                    let plan = tr.time("map.plan", (p * PASS_DOCS + i) as u64, || {
                        pipeline.plan_document(doc, discovery, &planner)
                    });
                    planned += 1;
                    decided += u64::from(plan.tier != MapTier::Exact);
                }
            }
        }
    }
    report.check(digest == untraced_digest, || {
        format!("traced digest {digest:016x} differs from untraced {untraced_digest:016x}")
    });

    let times = tr.self_times();
    let self_ns = |name: &str| times.get(name).map_or(0, |l| l.self_ns) as f64;
    let per_call = |name: &str| {
        times
            .get(name)
            .map_or(0.0, |l| ratio(l.self_ns as f64, l.calls as f64))
    };
    let docs = docs_total as f64;
    for (metric, span) in CONVERT_LAYERS
        .into_iter()
        .chain([("map.exact_us", "map.exact"), ("map.plan_us", "map.plan")])
    {
        report.set(metric, per_call(span) / 1e3);
    }
    report.set(
        "schema.extract_paths_us",
        self_ns("schema.extract_paths") / docs / 1e3,
    );
    report.set("schema.mine_ms", per_call("schema.mine") / 1e6);
    report.set("schema.derive_dtd_ms", per_call("schema.derive_dtd") / 1e6);
    report.set("schema.candidates", mean(&candidates));
    report.set(
        "map.filter_decided_ratio",
        ratio(decided as f64, planned as f64),
    );

    // The pass spans partition the traced end-to-end time: every layer's
    // self time plus the pass span's own (unattributed) self time.
    let total = tr.root_ns("batch.pass") as f64;
    let unattributed = self_ns("batch.pass");
    let layers: f64 = times
        .iter()
        .filter(|(name, _)| !matches!(**name, "batch.pass" | "map.plan"))
        .map(|(_, l)| l.self_ns as f64)
        .sum();
    report.check(
        (layers + unattributed - total).abs() <= total * 1e-6,
        || {
            format!(
                "layer self times {layers} + unattributed {unattributed} != traced total {total}"
            )
        },
    );
    report.set("layers.unattributed_frac", ratio(unattributed, total));
    report.set(
        "trace.overhead_frac",
        total / 1e9 / untraced.as_secs_f64() - 1.0,
    );
    report.note(format!(
        "traced: {passes} passes, {:.3} s in pass spans vs {:.3} s untraced, digest {digest:016x}",
        total / 1e9,
        untraced.as_secs_f64()
    ));
    for (name, l) in &times {
        report.note(format!(
            "self {name}: {:.3} ms total, {} calls, {:.2}% of pass time",
            l.self_ns as f64 / 1e6,
            l.calls,
            100.0 * ratio(l.self_ns as f64, total)
        ));
    }
    let path = std::path::Path::new(crate::OUT_DIR)
        .join(format!("spans-batch_cold-seed{}.tsv", args.seed));
    tr.write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.note(format!("spans written to {}", path.display()));
    Ok(())
}
