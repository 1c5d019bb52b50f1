//! Digest pin on the bytes a durable, sharded live corpus writes.
//!
//! 2,000 ground-truth resumes are accreted into a 2-shard durable
//! corpus with an fsync batch of 3. For each shard, the bytes of its
//! `shard-<i>.snapshot` (empty when absent) followed by its
//! `shard-<i>.wal` are hashed. A change to the record framing, the
//! record encoding, shard routing or the order records reach disk moves
//! the digest; how the records are split between the two files does
//! not.

use std::path::Path;
use webre_convert::ConvertStats;
use webre_corpus::CorpusGenerator;
use webre_schema::extract_paths;
use webre_serve::persist::{CorpusStore, StoreConfig};
use webre_serve::state::LiveCorpus;
use webre_substrate::wal::checksum;

const DOCS: usize = 2_000;

/// `checksum` of each shard's snapshot bytes followed by its WAL bytes.
const SHARD_DIGESTS: [u64; 2] = [3_814_996_695_893_936_632, 9_167_490_353_438_423_504];

fn shard_bytes(dir: &Path, shard: usize) -> Vec<u8> {
    let mut bytes = std::fs::read(dir.join(format!("shard-{shard}.snapshot"))).unwrap_or_default();
    bytes.extend(std::fs::read(dir.join(format!("shard-{shard}.wal"))).unwrap());
    bytes
}

#[test]
fn stored_bytes_match_pinned_digest() {
    let dir = std::env::temp_dir().join(format!("webre-store-digest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        data_dir: dir.clone(),
        shards: 2,
        sync_every: 3,
        compact_min: 8,
    };
    let (store, sharded, report) = CorpusStore::open(&config).unwrap();
    assert_eq!(report.docs, 0);
    let corpus = LiveCorpus::durable(sharded, store);
    let generator = CorpusGenerator::new(1);
    let stats = ConvertStats::default();
    for i in 0..DOCS {
        let truth = generator.generate_one(i).truth;
        let hash = checksum(webre_xml::to_xml(&truth).as_bytes());
        corpus.accrete_paths(hash, extract_paths(&truth), &stats).unwrap();
    }
    corpus.sync_to_disk().unwrap();
    drop(corpus);
    let digests = [0, 1].map(|shard| checksum(&shard_bytes(&dir, shard)));
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(digests, SHARD_DIGESTS, "stored bytes drifted");
}
