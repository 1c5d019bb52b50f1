//! Digest pin on the DTD a live, sharded corpus serves as it grows.
//!
//! 3,000 ground-truth resumes are accreted into 2-shard live corpora;
//! at every 250th version the snapshot DTD is taken under the default
//! configuration and under a low-repetition, optional-element one. Any
//! change to a served DTD byte — ordering, repetition, optionality or
//! unification — moves the digest.

use webre_convert::ConvertStats;
use webre_corpus::CorpusGenerator;
use webre_schema::{extract_paths, DtdConfig};
use webre_serve::state::LiveCorpus;
use webre_serve::Engine;
use webre_substrate::wal::checksum;

const DOCS: usize = 3_000;
const EVERY: usize = 250;

/// `checksum` of every served DTD text, in version order, default
/// configuration first at each checkpoint.
const SERVED_DTD_DIGEST: u64 = 1_966_044_065_530_112_923;

#[test]
fn served_dtds_match_pinned_digest() {
    let engines = [
        Engine::resume_domain(),
        Engine {
            dtd_config: DtdConfig {
                rep_threshold: 1,
                optional_below: Some(0.6),
                ..DtdConfig::default()
            },
            ..Engine::resume_domain()
        },
    ];
    // A snapshot is cached per corpus version, so each configuration
    // reads its own corpus.
    let corpora = [LiveCorpus::in_memory(2), LiveCorpus::in_memory(2)];
    let generator = CorpusGenerator::new(1);
    let stats = ConvertStats::default();
    let mut bytes = Vec::new();
    for i in 0..DOCS {
        let truth = generator.generate_one(i).truth;
        let hash = checksum(webre_xml::to_xml(&truth).as_bytes());
        let paths = extract_paths(&truth);
        for corpus in &corpora {
            corpus.accrete_paths(hash, paths.clone(), &stats).unwrap();
        }
        if (i + 1) % EVERY != 0 {
            continue;
        }
        for (corpus, engine) in corpora.iter().zip(&engines) {
            let snapshot = corpus.snapshot(engine);
            assert_eq!(snapshot.docs, i + 1);
            let dtd = snapshot.dtd_text.as_deref().expect("a schema at every checkpoint");
            bytes.extend_from_slice(dtd.as_bytes());
            bytes.push(b'\n');
        }
    }
    assert_eq!(checksum(&bytes), SERVED_DTD_DIGEST, "served DTD drifted");
}
