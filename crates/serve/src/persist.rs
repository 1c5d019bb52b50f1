//! Durable corpus storage: one append-only write-ahead log per shard,
//! built on [`webre_substrate::wal`].
//!
//! # Layout
//!
//! A data directory holds, per shard `i`:
//!
//! ```text
//! <data-dir>/meta.json            shard count + format version
//! <data-dir>/shard-<i>.wal        every doc logged to the shard, in accretion order
//! ```
//!
//! Records are [`webre_substrate::wal`] frames whose payloads are
//! canonical [`webre_schema::doc_to_record`] JSON. The live corpus never
//! deletes or merges documents, so the log is never rewritten: a
//! compacted copy would hold the same bytes. Directories written by
//! older builds may also hold a `shard-<i>.snapshot` in the same framing;
//! replay applies it before the log, and nothing writes it again.
//!
//! # Recovery
//!
//! Replay tolerates a crash at any byte: the torn or corrupt suffix of a
//! log is reported as a warning, skipped, and truncated away before the
//! appender reopens, so the next append never hides fresh records behind
//! a corrupt region. Every record before the corruption is replayed —
//! the recovered corpus is exactly the live corpus at the moment the
//! last intact record was appended.
//!
//! # Durability policy
//!
//! Appends reach the file descriptor immediately; `fsync` is batched
//! every `sync_every` records per shard ([`webre_substrate::wal::WalWriter`]).
//! The append that closes a batch returns a [`SyncHandle`] that the
//! caller runs before acknowledging, after releasing whatever lock
//! orders the appends. [`CorpusStore::sync_to_disk`] forces the
//! remainder out — the server calls it on drain.

use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};
use webre_schema::{doc_from_record, ShardedCorpus};
use webre_substrate::json::Json;
use webre_substrate::wal::{decode_records, write_file_atomic, SyncHandle, WalWriter};

/// On-disk format version, bumped on incompatible layout changes.
const FORMAT_VERSION: u64 = 1;

/// How a [`CorpusStore`] is opened.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding the meta file and per-shard logs; created if
    /// absent.
    pub data_dir: PathBuf,
    /// Shard count for a *fresh* directory. An existing directory's
    /// recorded count always wins (documents must replay into the shard
    /// they were logged under).
    pub shards: usize,
    /// Records per fsync batch, per shard (`1` = fsync every append).
    pub sync_every: usize,
    /// Has no effect: logs are never compacted. Kept so existing
    /// configurations still build.
    pub compact_min: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            data_dir: PathBuf::from("webre-data"),
            shards: 4,
            sync_every: 64,
            compact_min: 1024,
        }
    }
}

/// What replay found when the store was opened.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Documents restored across all shards.
    pub docs: usize,
    /// Shard count in effect (from the meta file, or the config for a
    /// fresh directory).
    pub shards: usize,
    /// Human-readable recovery notes: corrupt logs skipped, undecodable
    /// records dropped, shard-count overrides. Empty on a clean open.
    pub warnings: Vec<String>,
}

/// The durable half of a sharded live corpus: one WAL per shard. All
/// methods take `&mut self`; the serving layer appends from inside the
/// corpus write lock so log order matches accretion order.
pub struct CorpusStore {
    shards: Vec<WalWriter>,
}

fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.json")
}

/// Reads the recorded shard count, or stamps the directory with
/// `configured` on first open. A mismatch between the two is resolved in
/// favour of the disk (and noted), because records already routed to N
/// shards cannot be re-routed without rewriting every log.
fn resolve_shards(
    dir: &Path,
    configured: usize,
    warnings: &mut Vec<String>,
) -> io::Result<usize> {
    let path = meta_path(dir);
    if let Ok(text) = std::fs::read_to_string(&path) {
        let recorded = Json::parse(&text)
            .ok()
            .and_then(|m| m.get("shards").and_then(Json::as_f64))
            .map(|n| n as usize)
            .filter(|n| *n >= 1);
        match recorded {
            Some(n) => {
                if n != configured {
                    warnings.push(format!(
                        "data dir was created with {n} shard(s); ignoring --shards {configured}"
                    ));
                }
                return Ok(n);
            }
            None => warnings.push(format!(
                "unreadable meta file {}; rewriting with {configured} shard(s)",
                path.display()
            )),
        }
    }
    let shards = configured.max(1);
    let meta = Json::Obj(vec![
        ("format".to_owned(), Json::Num(FORMAT_VERSION as f64)),
        ("shards".to_owned(), Json::Num(shards as f64)),
    ]);
    write_file_atomic(&path, format!("{meta}\n").as_bytes())?;
    Ok(shards)
}

/// Replays one log file into `corpus` shard `shard`. Returns the number
/// of records applied and, for the live log, truncates any corrupt
/// suffix so the reopened appender continues from the intact prefix.
fn replay_log(
    path: &Path,
    shard: usize,
    corpus: &mut ShardedCorpus,
    truncate_corruption: bool,
    warnings: &mut Vec<String>,
) -> io::Result<usize> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let decoded = decode_records(&bytes);
    let mut applied = 0usize;
    for record in &decoded.records {
        match doc_from_record(record) {
            Ok(doc) => {
                corpus.push_to(shard, doc);
                applied += 1;
            }
            // The frame checksum passed, so the payload is as written;
            // an undecodable record is version skew, not bit rot. Drop
            // it loudly rather than refusing to start.
            Err(e) => warnings.push(format!(
                "{}: skipping undecodable record: {e}",
                path.display()
            )),
        }
    }
    if let Some(corruption) = decoded.corruption {
        warnings.push(format!(
            "{}: {corruption}; recovered {applied} record(s), dropping {} corrupt byte(s)",
            path.display(),
            bytes.len() - decoded.clean_len
        ));
        if truncate_corruption {
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(decoded.clean_len as u64)?;
        }
    }
    Ok(applied)
}

impl CorpusStore {
    /// Opens (or initializes) a data directory, replaying its contents.
    /// Returns the store, the recovered corpus, and a replay report.
    pub fn open(config: &StoreConfig) -> io::Result<(CorpusStore, ShardedCorpus, ReplayReport)> {
        let dir = &config.data_dir;
        std::fs::create_dir_all(dir)?;
        let mut report = ReplayReport::default();
        let shard_count = resolve_shards(dir, config.shards, &mut report.warnings)?;
        report.shards = shard_count;
        let mut corpus = ShardedCorpus::new(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let legacy_snapshot = dir.join(format!("shard-{shard}.snapshot"));
            for (path, live) in [(legacy_snapshot, false), (wal_path(dir, shard), true)] {
                report.docs += replay_log(&path, shard, &mut corpus, live, &mut report.warnings)?;
            }
            shards.push(WalWriter::open_append(&wal_path(dir, shard), config.sync_every)?);
        }
        Ok((CorpusStore { shards }, corpus, report))
    }

    /// Shard count this store was opened with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Appends one document record to `shard`'s log. When the append
    /// closes an fsync batch, returns the handle the caller must run
    /// before acknowledging the document as durable.
    pub fn log_doc(&mut self, shard: usize, record: &[u8]) -> io::Result<Option<SyncHandle>> {
        self.shards[shard].write_record(record)
    }

    /// Records appended and fsyncs issued across every shard since the
    /// store was opened.
    pub fn wal_counters(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(records, fsyncs), wal| {
            (records + wal.records_appended(), fsyncs + wal.fsyncs())
        })
    }

    /// Forces every shard's batched appends to stable storage.
    pub fn sync_to_disk(&mut self) -> io::Result<()> {
        for wal in &mut self.shards {
            wal.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_schema::{doc_to_record, extract_paths};
    use webre_substrate::wal::append_record;
    use webre_xml::parse_xml;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "webre-persist-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path, shards: usize) -> StoreConfig {
        StoreConfig {
            data_dir: dir.to_path_buf(),
            shards,
            sync_every: 2,
            // Older builds compacted a shard from 4 tail records on;
            // the setting has no effect now.
            compact_min: 4,
        }
    }

    fn ingest(store: &mut CorpusStore, corpus: &mut ShardedCorpus, hash: u64, xml: &str) {
        let doc = extract_paths(&parse_xml(xml).unwrap());
        let record = doc_to_record(&doc);
        let shard = corpus.shard_of(hash);
        corpus.push_to(shard, doc);
        if let Some(handle) = store.log_doc(shard, &record).unwrap() {
            handle.sync().unwrap();
        }
    }

    #[test]
    fn replay_restores_exactly_what_was_logged() {
        let dir = temp_dir("replay");
        let cfg = config(&dir, 3);
        let (mut store, mut corpus, report) = CorpusStore::open(&cfg).unwrap();
        assert_eq!(report.docs, 0);
        assert!(report.warnings.is_empty());
        for i in 0..20u64 {
            ingest(&mut store, &mut corpus, i, "<r><a/><b><c/></b></r>");
        }
        store.sync_to_disk().unwrap();
        drop(store);
        let (_, restored, report) = CorpusStore::open(&cfg).unwrap();
        assert_eq!(report.docs, 20);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert_eq!(restored.len(), corpus.len());
        assert_eq!(restored.table(), corpus.table());
        // Shard layout survives too, not just the union.
        for (a, b) in restored.shards().iter().zip(corpus.shards()) {
            assert!(a.docs().eq(b.docs()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_legacy_snapshot_replays_before_the_log_and_is_never_written() {
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        // The layout older builds left after a compaction: the meta
        // file, a snapshot holding the first documents and a tail log
        // holding the rest.
        std::fs::write(meta_path(&dir), "{\"format\":1,\"shards\":1}\n").unwrap();
        let xmls = ["<r><a/></r>", "<r><a/><b/></r>", "<r><c/></r>", "<r><a/><c/></r>"];
        let (mut snapshot, mut tail) = (Vec::new(), Vec::new());
        let mut expected = ShardedCorpus::new(1);
        for (i, xml) in xmls.iter().enumerate() {
            let doc = extract_paths(&parse_xml(xml).unwrap());
            append_record(if i < 3 { &mut snapshot } else { &mut tail }, &doc_to_record(&doc));
            expected.push_to(0, doc);
        }
        std::fs::write(dir.join("shard-0.snapshot"), &snapshot).unwrap();
        std::fs::write(wal_path(&dir, 0), &tail).unwrap();

        let (mut store, mut corpus, report) = CorpusStore::open(&config(&dir, 1)).unwrap();
        assert_eq!(report.docs, 4);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(corpus.shards()[0].docs().eq(expected.shards()[0].docs()));
        for i in 0..6u64 {
            ingest(&mut store, &mut corpus, i, "<r><d/></r>");
            expected.push_to(0, extract_paths(&parse_xml("<r><d/></r>").unwrap()));
        }
        store.sync_to_disk().unwrap();
        drop(store);
        // New appends land only in the log.
        assert_eq!(std::fs::read(dir.join("shard-0.snapshot")).unwrap(), snapshot);
        assert!(std::fs::read(wal_path(&dir, 0)).unwrap().starts_with(&tail));
        let (_, restored, report) = CorpusStore::open(&config(&dir, 1)).unwrap();
        assert_eq!(report.docs, 10);
        assert!(restored.shards()[0].docs().eq(expected.shards()[0].docs()));
        assert_eq!(restored.table(), expected.table());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_fresh_store_writes_only_the_meta_file_and_one_log_per_shard() {
        let dir = temp_dir("fresh");
        let (mut store, mut corpus, _) = CorpusStore::open(&config(&dir, 2)).unwrap();
        for i in 0..50u64 {
            ingest(&mut store, &mut corpus, i, "<r><x/><y/></r>");
        }
        store.sync_to_disk().unwrap();
        assert_eq!(store.wal_counters().0, 50);
        drop(store);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["meta.json", "shard-0.wal", "shard-1.wal"]);
        let (_, restored, report) = CorpusStore::open(&config(&dir, 2)).unwrap();
        assert_eq!(report.docs, 50);
        assert_eq!(restored.table(), corpus.table());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_is_skipped_with_a_warning_and_truncated() {
        let dir = temp_dir("corrupt");
        let cfg = config(&dir, 1);
        let (mut store, mut corpus, _) = CorpusStore::open(&cfg).unwrap();
        for i in 0..5u64 {
            ingest(&mut store, &mut corpus, i, "<r><a/></r>");
        }
        store.sync_to_disk().unwrap();
        drop(store);
        // Tear the last record: chop a few bytes off the tail log.
        let path = wal_path(&dir, 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut store, mut restored, report) = CorpusStore::open(&cfg).unwrap();
        assert_eq!(report.docs, 4, "torn final record costs exactly itself");
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(report.warnings[0].contains("torn"), "{:?}", report.warnings);
        // The corrupt suffix is gone: appending and replaying again must
        // yield 5 docs (4 recovered + 1 new), not resurrect garbage.
        ingest(&mut store, &mut restored, 99, "<r><b/></r>");
        store.sync_to_disk().unwrap();
        drop(store);
        let (_, again, report) = CorpusStore::open(&cfg).unwrap();
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert_eq!(again.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recorded_shard_count_beats_the_config() {
        let dir = temp_dir("meta");
        let (mut store, mut corpus, _) = CorpusStore::open(&config(&dir, 2)).unwrap();
        for i in 0..6u64 {
            ingest(&mut store, &mut corpus, i, "<r><a/></r>");
        }
        store.sync_to_disk().unwrap();
        drop(store);
        // Reopen asking for 5 shards; the directory says 2.
        let (store, restored, report) = CorpusStore::open(&config(&dir, 5)).unwrap();
        assert_eq!(store.shard_count(), 2);
        assert_eq!(restored.shard_count(), 2);
        assert_eq!(report.docs, 6);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(report.warnings[0].contains("2 shard"), "{:?}", report.warnings);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
