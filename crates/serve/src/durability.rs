//! Durable ingestion: journaling and checkpointing for the refresh
//! engine.
//!
//! The [`crate::RefreshEngine`] journals every [`crate::EdgeDelta`] to a
//! [`qrank_wal::Wal`] *before* applying it (write-ahead ordering), and
//! periodically checkpoints its full state so recovery replays only a
//! short WAL tail. This module owns the glue: delta ↔ WAL-record
//! conversion, the checkpoint payload codec, and the journal
//! bookkeeping around the raw log.
//!
//! ## Layout
//!
//! Segments and checkpoints sit directly under `--data-dir` (see
//! [`qrank_wal`]). Older releases could split the journal into
//! `shard-NNN/` subtrees; a directory holding `shard-000/` is refused
//! with [`ServeError::Config`] rather than read as an empty journal.
//!
//! ## What a checkpoint stores
//!
//! Not the dynamic graph's event history — only what future snapshots
//! can observe of it:
//!
//! * the page list in node order (which fixes the node numbering),
//! * the set of currently alive edges,
//! * the snapshot window itself (via `qrank_graph::io::encode_series`),
//! * the published generation counter and the newest snapshot time.
//!
//! Rebuilding the graph as "every known page born at the last snapshot
//! time, every alive edge added then" yields *bitwise identical* future
//! snapshots, because `DynamicGraph::snapshot_at(t)` only asks which
//! births and edge events are `≤ t`, ingest times never decrease, and
//! the CSR construction orders edges canonically. Combined with the
//! stage engine's fingerprint-keyed caching discipline (equal snapshots
//! ⇒ equal columns, bit for bit), a recovered engine publishes exactly
//! the scores the uninterrupted process would have — the recovery tests
//! assert this down to the last bit.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, BytesMut};
use qrank_graph::SnapshotSeries;
use qrank_wal::{DeltaRecord, FsyncPolicy, Wal, WalError, WalOptions, WalStats};

use crate::error::ServeError;
use crate::refresh::EdgeDelta;

/// How the refresh engine persists its ingest stream.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and checkpoints (created if
    /// absent).
    pub dir: PathBuf,
    /// When journal appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Take an automatic checkpoint after this many ingested deltas
    /// (0 = only on explicit request / clean shutdown).
    pub checkpoint_every: u64,
}

impl DurabilityConfig {
    /// Defaults (`fsync every:64`, checkpoint every 256 deltas) rooted
    /// at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            checkpoint_every: 256,
        }
    }
}

/// What recovery found and did, for operators and benchmarks.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Generation restored from the checkpoint (`None`: no checkpoint,
    /// the log was replayed from the beginning).
    pub checkpoint_generation: Option<u64>,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Why the newest segment's tail was truncated, if it was.
    pub torn_tail: Option<String>,
    /// Checkpoints that failed validation and were skipped.
    pub skipped_checkpoints: u64,
    /// Replayed deltas the engine rejected (exactly as the original
    /// process rejected them — state is unaffected either way).
    pub replay_errors: Vec<String>,
}

/// Bounded exponential-backoff retry for *transient* journal I/O
/// errors (`WalError::Io` only — decode/corruption/config errors are
/// never retried; retrying can't fix a bad byte).
///
/// Backoff doubles per attempt from [`RetryPolicy::base_ms`] up to
/// [`RetryPolicy::max_ms`], with deterministic seeded jitter in
/// `[50%, 100%]` of the exponential value — equal seeds and equal
/// failure histories sleep for identical durations, which keeps chaos
/// runs reproducible while still decorrelating real-world retries.
///
/// Retry soundness: [`qrank_wal::Wal::append`] rolls a partially
/// written frame back before returning an error, so a retried append
/// always lands on a clean tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (0 or 1 = no retry).
    pub attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Cap on any single backoff, in milliseconds.
    pub max_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// No retry — errors surface immediately, the engine's historical
    /// behavior.
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            base_ms: 5,
            max_ms: 200,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A sensible production policy: 5 attempts, 5ms → 200ms backoff.
    pub fn standard(seed: u64) -> Self {
        RetryPolicy {
            attempts: 5,
            seed,
            ..RetryPolicy::default()
        }
    }

    /// Is retrying on at all?
    pub fn enabled(&self) -> bool {
        self.attempts > 1
    }

    /// The backoff before retry number `attempt` (1-based), salted so
    /// successive retries in one process jitter independently.
    pub fn backoff_ms(&self, attempt: u32, salt: u64) -> u64 {
        let exp = self
            .base_ms
            .max(1)
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.max_ms.max(1));
        // jitter in [50%, 100%] of the exponential value
        let r = splitmix64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (exp / 2 + (r % (exp / 2 + 1))).max(1)
    }
}

/// SplitMix64 — the workspace's standard cheap deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Run `op` under `policy`, sleeping between attempts. `retries` is the
/// journal's cumulative retry counter (drives the jitter salt).
fn with_retry<T>(
    policy: &RetryPolicy,
    retries: &mut u64,
    mut op: impl FnMut() -> Result<T, WalError>,
) -> Result<T, WalError> {
    let attempts = policy.attempts.max(1);
    let mut attempt = 1u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(WalError::Io(_)) if attempt < attempts => {
                *retries += 1;
                if qrank_obs::enabled() {
                    qrank_obs::global().counter("wal.retry").inc();
                }
                std::thread::sleep(std::time::Duration::from_millis(
                    policy.backoff_ms(attempt, *retries),
                ));
                attempt += 1;
            }
            Err(e) => {
                if attempt > 1 && qrank_obs::enabled() {
                    qrank_obs::global().counter("wal.retry.exhausted").inc();
                }
                return Err(e);
            }
        }
    }
}

/// Refuse a data dir written by a sharded release: its journal lives
/// in `shard-NNN/` subtrees this build does not read, and opening the
/// top level would silently start an empty journal beside it.
pub fn reject_sharded_layout(dir: &Path) -> Result<(), ServeError> {
    if dir.join("shard-000").is_dir() {
        return Err(ServeError::Config(format!(
            "data dir {} holds a sharded journal (shard-000/); \
             sharded journals are no longer read",
            dir.display()
        )));
    }
    Ok(())
}

/// The engine's handle on its write-ahead log plus the
/// automatic-checkpoint countdown.
#[derive(Debug)]
pub(crate) struct Journal {
    wal: Wal,
    checkpoint_every: u64,
    since_checkpoint: u64,
    retry: RetryPolicy,
    /// Cumulative backoffs taken — salts the jitter and feeds stats.
    retries: u64,
}

impl Journal {
    /// Install a retry policy for transient append/sync I/O errors.
    pub(crate) fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Append one delta (write-ahead: callers do this *before* mutating
    /// engine state). Transient I/O errors are retried per the installed
    /// [`RetryPolicy`] ([`Wal::append`] rolls back its own partial
    /// frames).
    pub(crate) fn append(&mut self, delta: &EdgeDelta) -> Result<(), WalError> {
        let frame = qrank_wal::encode_delta(&record_of_delta(delta));
        let wal = &mut self.wal;
        with_retry(&self.retry, &mut self.retries, || wal.append(&frame))?;
        self.since_checkpoint += 1;
        Ok(())
    }

    /// Has the automatic-checkpoint interval elapsed?
    pub(crate) fn due(&self) -> bool {
        self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every
    }

    /// Write a checkpoint with `payload` and compact. Returns its LSN.
    pub(crate) fn checkpoint(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let lsn = self.wal.checkpoint(payload)?;
        self.since_checkpoint = 0;
        Ok(lsn)
    }

    /// Flush outstanding appends to stable storage. Transient I/O errors
    /// retry per the installed [`RetryPolicy`] (`sync` is idempotent, so
    /// whole-call retry is safe).
    pub(crate) fn sync(&mut self) -> Result<(), WalError> {
        let wal = &mut self.wal;
        with_retry(&self.retry, &mut self.retries, || wal.sync())
    }

    /// Journal geometry.
    pub(crate) fn stats(&self) -> WalStats {
        self.wal.stats()
    }
}

/// Everything [`open_journal`] recovered: the journal to keep writing
/// through, the newest valid checkpoint payload, the deltas to replay
/// in LSN order, and the report.
pub(crate) struct OpenedJournal {
    pub(crate) journal: Journal,
    pub(crate) checkpoint: Option<Vec<u8>>,
    pub(crate) deltas: Vec<(u64, EdgeDelta)>,
    pub(crate) report: RecoveryReport,
}

/// Open (and recover) the journal under `cfg.dir`.
pub(crate) fn open_journal(cfg: &DurabilityConfig) -> Result<OpenedJournal, ServeError> {
    reject_sharded_layout(&cfg.dir)?;
    let opts = WalOptions {
        fsync: cfg.fsync,
        ..WalOptions::default()
    };
    let (wal, recovery) = Wal::open(&cfg.dir, opts)?;
    let mut deltas = Vec::with_capacity(recovery.records.len());
    for (lsn, payload) in &recovery.records {
        deltas.push((*lsn, delta_of_record(qrank_wal::decode_delta(payload)?)));
    }
    let report = RecoveryReport {
        torn_tail: recovery.torn_tail,
        skipped_checkpoints: recovery.skipped_checkpoints,
        ..RecoveryReport::default()
    };
    Ok(OpenedJournal {
        journal: Journal {
            wal,
            checkpoint_every: cfg.checkpoint_every,
            since_checkpoint: 0,
            retry: RetryPolicy::default(),
            retries: 0,
        },
        checkpoint: recovery.checkpoint.map(|c| c.payload),
        deltas,
        report,
    })
}

/// Serving-layer delta → journal record (field-identical twins; the WAL
/// crate cannot depend on this one).
pub(crate) fn record_of_delta(d: &EdgeDelta) -> DeltaRecord {
    DeltaRecord {
        time: d.time,
        new_pages: d.new_pages.clone(),
        added: d.added.clone(),
        removed: d.removed.clone(),
    }
}

/// Journal record → serving-layer delta.
pub(crate) fn delta_of_record(r: DeltaRecord) -> EdgeDelta {
    EdgeDelta {
        time: r.time,
        new_pages: r.new_pages,
        added: r.added,
        removed: r.removed,
    }
}

/// Engine state as stored in (and restored from) a checkpoint payload.
#[derive(Debug)]
pub(crate) struct CheckpointState {
    /// Published generation counter at checkpoint time.
    pub generation: u64,
    /// Newest snapshot time (`NEG_INFINITY` when the window is empty);
    /// rebuilt nodes and edges are all stamped with this time.
    pub last_time: f64,
    /// Page of each node, in node order (fixes the node numbering).
    pub page_of_node: Vec<u64>,
    /// Edges alive at checkpoint time.
    pub alive_edges: Vec<(u64, u64)>,
    /// The snapshot window.
    pub series: SnapshotSeries,
}

const STATE_VERSION: u16 = 1;

/// Encode engine state into a checkpoint payload.
pub(crate) fn encode_state(
    generation: u64,
    page_of_node: &[u64],
    alive_edges: &BTreeSet<(u64, u64)>,
    series: &SnapshotSeries,
) -> Vec<u8> {
    let series_bytes = qrank_graph::io::encode_series(series);
    let last_time = series
        .snapshots()
        .last()
        .map_or(f64::NEG_INFINITY, |s| s.time);
    let mut buf = BytesMut::with_capacity(
        2 + 8
            + 8
            + 8
            + page_of_node.len() * 8
            + 8
            + alive_edges.len() * 16
            + 8
            + series_bytes.len(),
    );
    buf.put_u16_le(STATE_VERSION);
    buf.put_u64_le(generation);
    buf.put_f64_le(last_time);
    buf.put_u64_le(page_of_node.len() as u64);
    for &p in page_of_node {
        buf.put_u64_le(p);
    }
    buf.put_u64_le(alive_edges.len() as u64);
    for &(s, d) in alive_edges {
        buf.put_u64_le(s);
        buf.put_u64_le(d);
    }
    buf.put_u64_le(series_bytes.len() as u64);
    buf.put_slice(&series_bytes);
    buf.to_vec()
}

fn short(msg: &str) -> ServeError {
    ServeError::Wal(WalError::Decode(format!("checkpoint state: {msg}")))
}

/// Decode a checkpoint payload back into engine state.
pub(crate) fn decode_state(mut buf: &[u8]) -> Result<CheckpointState, ServeError> {
    let need = |buf: &&[u8], n: usize, what: &str| -> Result<(), ServeError> {
        if buf.remaining() < n {
            Err(short(&format!("truncated while reading {what}")))
        } else {
            Ok(())
        }
    };
    need(&buf, 2 + 8 + 8 + 8, "header")?;
    let version = buf.get_u16_le();
    if version != STATE_VERSION {
        return Err(short(&format!("unsupported version {version}")));
    }
    let generation = buf.get_u64_le();
    let last_time = buf.get_f64_le();
    let n_pages = buf.get_u64_le();
    let page_bytes = n_pages
        .checked_mul(8)
        .ok_or_else(|| short("page count overflows"))?;
    need(&buf, page_bytes as usize + 8, "page ids")?;
    let mut page_of_node = Vec::with_capacity(n_pages as usize);
    for _ in 0..n_pages {
        page_of_node.push(buf.get_u64_le());
    }
    let n_edges = buf.get_u64_le();
    let edge_bytes = n_edges
        .checked_mul(16)
        .ok_or_else(|| short("edge count overflows"))?;
    need(&buf, edge_bytes as usize + 8, "alive edges")?;
    let mut alive_edges = Vec::with_capacity(n_edges as usize);
    for _ in 0..n_edges {
        alive_edges.push((buf.get_u64_le(), buf.get_u64_le()));
    }
    let series_len = buf.get_u64_le();
    if series_len != buf.remaining() as u64 {
        return Err(short(&format!(
            "series length {series_len} disagrees with {} remaining bytes",
            buf.remaining()
        )));
    }
    let series = qrank_graph::io::decode_series(buf).map_err(ServeError::Graph)?;
    Ok(CheckpointState {
        generation,
        last_time,
        page_of_node,
        alive_edges,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_graph::{CsrGraph, PageId, Snapshot};

    #[test]
    fn state_roundtrips() {
        let mut series = SnapshotSeries::new();
        let pages: Vec<PageId> = (0..3).map(PageId).collect();
        series
            .push(Snapshot::new(2.5, CsrGraph::from_edges(3, &[(0, 1), (2, 0)]), pages).unwrap())
            .unwrap();
        let alive: BTreeSet<(u64, u64)> = [(0, 1), (2, 0)].into_iter().collect();
        let payload = encode_state(7, &[0, 1, 2], &alive, &series);
        let state = decode_state(&payload).unwrap();
        assert_eq!(state.generation, 7);
        assert_eq!(state.last_time, 2.5);
        assert_eq!(state.page_of_node, vec![0, 1, 2]);
        assert_eq!(state.alive_edges, vec![(0, 1), (2, 0)]);
        assert_eq!(state.series.len(), 1);
        assert_eq!(state.series.snapshots()[0].time, 2.5);
    }

    #[test]
    fn state_rejects_truncation_at_every_prefix() {
        let payload = encode_state(1, &[4, 9], &BTreeSet::new(), &SnapshotSeries::new());
        for cut in 0..payload.len() {
            assert!(
                decode_state(&payload[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        assert!(decode_state(&payload).is_ok());
    }

    #[test]
    fn delta_record_conversion_is_lossless() {
        let delta = EdgeDelta {
            time: 3.25,
            new_pages: vec![5],
            added: vec![(1, 2)],
            removed: vec![(3, 4)],
        };
        assert_eq!(delta_of_record(record_of_delta(&delta)), delta);
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrank_dur_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = RetryPolicy::standard(42);
        for attempt in 1..8 {
            for salt in 0..50 {
                let a = p.backoff_ms(attempt, salt);
                let b = p.backoff_ms(attempt, salt);
                assert_eq!(a, b, "equal seeds and history sleep identically");
                let exp = (p.base_ms << (attempt - 1).min(20)).min(p.max_ms);
                assert!(
                    a >= 1 && a >= exp / 2 && a <= exp,
                    "jitter window: {a} vs {exp}"
                );
            }
        }
        assert_ne!(
            p.backoff_ms(3, 1),
            RetryPolicy::standard(43).backoff_ms(3, 1),
            "different seeds jitter differently"
        );
    }

    #[test]
    fn with_retry_retries_transient_io_and_gives_up() {
        let p = RetryPolicy {
            attempts: 4,
            base_ms: 1,
            max_ms: 1,
            seed: 7,
        };
        let mut retries = 0;
        let mut calls = 0;
        let out: Result<u32, WalError> = with_retry(&p, &mut retries, || {
            calls += 1;
            if calls < 3 {
                Err(WalError::Io(std::io::Error::other("flaky")))
            } else {
                Ok(99)
            }
        });
        assert_eq!(out.unwrap(), 99);
        assert_eq!(calls, 3);
        assert_eq!(retries, 2);

        // exhaustion surfaces the final error
        let mut calls = 0;
        let out: Result<u32, WalError> = with_retry(&p, &mut retries, || {
            calls += 1;
            Err(WalError::Io(std::io::Error::other("still down")))
        });
        assert!(out.is_err());
        assert_eq!(calls, 4, "total attempts honored");

        // non-I/O errors are never retried
        let mut calls = 0;
        let out: Result<u32, WalError> = with_retry(&p, &mut retries, || {
            calls += 1;
            Err(WalError::Decode("bad version".into()))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "decode failures are not transient");

        // disabled policy = single attempt
        let mut calls = 0;
        let _: Result<(), WalError> = with_retry(&RetryPolicy::default(), &mut retries, || {
            calls += 1;
            Err(WalError::Io(std::io::Error::other("down")))
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn sharded_data_dirs_are_config_errors() {
        let dir = tmp("sharded");
        std::fs::create_dir_all(dir.join("shard-000")).unwrap();
        let opened = crate::RefreshEngine::open_durable(
            crate::RefreshConfig::default(),
            &DurabilityConfig::at(&dir),
            std::sync::Arc::new(crate::ShardedStore::new(1)),
            None,
        );
        match opened {
            Err(ServeError::Config(msg)) => {
                assert!(msg.contains(&dir.display().to_string()), "{msg}");
                assert!(msg.contains("sharded journals are no longer read"), "{msg}");
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a sharded data dir opened"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
