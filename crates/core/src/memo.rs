//! Memoization and checkpointing (§3.7, §4.1, §4.6).
//!
//! Parsl computes "a hash of the App's function body and performs a lookup
//! in a checkpoint file or memoization table using the function name, body
//! hash, and arguments as the key". The reproduction keys on the app's
//! identity hash (name + signature, see [`crate::registry::RegisteredApp`])
//! plus the wire-encoded argument bytes.
//!
//! Checkpointing is write-through: when a checkpoint file is configured,
//! every successful result is appended as it completes ("checkpointing of
//! execution state whenever a task completes"), so a crashed program
//! re-executed with `load_checkpoint` skips all finished work.
//!
//! Checkpoint file format: a stream of `wire` frames, each
//! `[8-byte LE key][result bytes]`.

use crate::error::ParslError;
use crate::registry::RegisteredApp;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// Compute the memoization key for an app invocation.
pub fn memo_key(app: &RegisteredApp, args: &[u8]) -> u64 {
    let mut h = wire::Fnv1aHasher::new();
    h.update(&app.body_hash.to_le_bytes());
    h.update(app.name.as_bytes());
    h.update(b"\0");
    h.update(args);
    h.digest()
}

/// Number of lock shards in the memo table — a power of two, masked by
/// the low bits of the (already well-mixed FNV-1a) memo key. Matches the
/// task-table design in `dfk/record.rs`: the lookup/record pair sits on the
/// submit hot path, and one global mutex would serialize every batch.
pub const MEMO_SHARDS: usize = 16;

/// The memoization table with optional write-through checkpointing. The
/// table is split into [`MEMO_SHARDS`] lock shards keyed by memo key, so
/// concurrent lookups from the batch dispatcher and records from the
/// collector only contend when they hash to the same shard.
pub struct Memoizer {
    default_enabled: bool,
    shards: Vec<Mutex<HashMap<u64, Bytes>>>,
    writer: Mutex<Option<wire::FrameWriter<BufWriter<File>>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl Memoizer {
    /// Create; `default_enabled` is the DFK-wide memoization default,
    /// overridable per app.
    pub fn new(default_enabled: bool) -> Self {
        Memoizer {
            default_enabled,
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            writer: Mutex::new(None),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The shard holding `key`'s entry.
    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Bytes>> {
        &self.shards[(key as usize) & (MEMO_SHARDS - 1)]
    }

    /// Should this app's results be cached?
    pub fn enabled_for(&self, app: &RegisteredApp) -> bool {
        app.options.memoize.unwrap_or(self.default_enabled)
    }

    /// Seed the table from a checkpoint file written by a previous run.
    /// Returns the number of entries loaded.
    pub fn load_checkpoint(&self, path: &Path) -> Result<usize, ParslError> {
        let file = File::open(path).map_err(ParslError::Checkpoint)?;
        let mut reader = wire::FrameReader::new(BufReader::new(file));
        let mut loaded = 0;
        let mut frame = Vec::new();
        while reader
            .read_into(&mut frame)
            .map_err(|e| ParslError::Config(format!("corrupt checkpoint {path:?}: {e}")))?
        {
            if frame.len() < 8 {
                return Err(ParslError::Config(format!(
                    "corrupt checkpoint {path:?}: frame shorter than key"
                )));
            }
            let key = u64::from_le_bytes(frame[..8].try_into().expect("8 bytes"));
            self.shard(key)
                .lock()
                .insert(key, Bytes::copy_from_slice(&frame[8..]));
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Open `path` for write-through checkpointing (appending).
    pub fn set_checkpoint_file(&self, path: &Path) -> Result<(), ParslError> {
        let file = File::options()
            .create(true)
            .append(true)
            .open(path)
            .map_err(ParslError::Checkpoint)?;
        *self.writer.lock() = Some(wire::FrameWriter::new(BufWriter::new(file)));
        Ok(())
    }

    /// Look up a previous result. Locks only the key's shard.
    pub fn lookup(&self, key: u64) -> Option<Bytes> {
        let found = self.shard(key).lock().get(&key).cloned();
        use std::sync::atomic::Ordering;
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Record a successful result (and append it to the checkpoint file if
    /// one is configured).
    pub fn record(&self, key: u64, result: &Bytes) {
        self.shard(key).lock().insert(key, result.clone());
        if let Some(w) = self.writer.lock().as_mut() {
            // Checkpoint write failures must not fail the task; they are
            // reported on flush()/checkpoint() instead.
            let _ = w.write_parts(&[&key.to_le_bytes(), result]);
        }
    }

    /// Record one completion batch's worth of successful results.
    ///
    /// Table inserts still go to each key's own shard, but the checkpoint
    /// append amortizes: the writer lock is taken once for the whole batch
    /// and every frame lands in the same buffered write stream, instead of
    /// a lock/append round-trip per task (§3.7's "checkpointing ...
    /// whenever a task completes", paid once per completion *batch*). The
    /// file contents are byte-identical to per-task appends modulo frame
    /// order, so checkpoints stay interchangeable between both collection
    /// modes.
    pub fn record_batch(&self, entries: &[(u64, Bytes)]) {
        for (key, result) in entries {
            self.shard(*key).lock().insert(*key, result.clone());
        }
        let mut writer = self.writer.lock();
        if let Some(w) = writer.as_mut() {
            for (key, result) in entries {
                // As in record(): failures surface on flush(), not here.
                let _ = w.write_parts(&[&key.to_le_bytes(), result]);
            }
        }
    }

    /// Flush the checkpoint file. Returns the current table size.
    pub fn flush(&self) -> Result<usize, ParslError> {
        if let Some(w) = self.writer.lock().as_mut() {
            w.flush()
                .map_err(|e| ParslError::Config(format!("checkpoint flush: {e}")))?;
        }
        Ok(self.len())
    }

    /// Entries currently cached (sums the shards; not a snapshot).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AppOptions, AppRegistry};
    use crate::types::AppKind;
    use std::sync::Arc;

    fn app(reg: &AppRegistry, name: &str) -> Arc<RegisteredApp> {
        reg.register(
            name,
            AppKind::Native,
            "(u32)->u32",
            Arc::new(|_| Ok(vec![])),
            AppOptions::default(),
        )
    }

    #[test]
    fn keys_differ_by_app_and_args() {
        let reg = AppRegistry::new();
        let a = app(&reg, "a");
        let b = app(&reg, "b");
        assert_ne!(memo_key(&a, b"xyz"), memo_key(&b, b"xyz"));
        assert_ne!(memo_key(&a, b"xyz"), memo_key(&a, b"xyw"));
        assert_eq!(memo_key(&a, b"xyz"), memo_key(&a, b"xyz"));
    }

    #[test]
    fn lookup_and_record() {
        let m = Memoizer::new(true);
        assert!(m.lookup(1).is_none());
        m.record(1, &Bytes::from_static(b"result"));
        assert_eq!(m.lookup(1).unwrap().as_ref(), b"result");
        assert_eq!(m.stats(), (1, 1));
    }

    #[test]
    fn per_app_override_beats_default() {
        let reg = AppRegistry::new();
        let on = reg.register(
            "on",
            AppKind::Native,
            "()",
            Arc::new(|_| Ok(vec![])),
            AppOptions {
                memoize: Some(true),
                ..Default::default()
            },
        );
        let off = reg.register(
            "off",
            AppKind::Native,
            "()",
            Arc::new(|_| Ok(vec![])),
            AppOptions {
                memoize: Some(false),
                ..Default::default()
            },
        );
        let default_on = Memoizer::new(true);
        let default_off = Memoizer::new(false);
        assert!(default_off.enabled_for(&on));
        assert!(!default_on.enabled_for(&off));
        assert!(default_on.enabled_for(&app(&reg, "plain")));
        assert!(!default_off.enabled_for(&app(&reg, "plain2")));
    }

    #[test]
    fn checkpoint_roundtrip() {
        let dir = std::env::temp_dir().join(format!("parsl-memo-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.dat");
        let _ = std::fs::remove_file(&path);

        let m = Memoizer::new(true);
        m.set_checkpoint_file(&path).unwrap();
        m.record(7, &Bytes::from_static(b"seven"));
        m.record(8, &Bytes::from_static(b"eight"));
        m.flush().unwrap();

        let m2 = Memoizer::new(true);
        assert_eq!(m2.load_checkpoint(&path).unwrap(), 2);
        assert_eq!(m2.lookup(7).unwrap().as_ref(), b"seven");
        assert_eq!(m2.lookup(8).unwrap().as_ref(), b"eight");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_appends_across_sessions() {
        let dir = std::env::temp_dir().join(format!("parsl-memo-app-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt2.dat");
        let _ = std::fs::remove_file(&path);

        {
            let m = Memoizer::new(true);
            m.set_checkpoint_file(&path).unwrap();
            m.record(1, &Bytes::from_static(b"one"));
            m.flush().unwrap();
        }
        {
            let m = Memoizer::new(true);
            m.set_checkpoint_file(&path).unwrap();
            m.record(2, &Bytes::from_static(b"two"));
            m.flush().unwrap();
        }
        let m = Memoizer::new(true);
        assert_eq!(m.load_checkpoint(&path).unwrap(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sharded_table_holds_entries_across_all_shards() {
        let m = Memoizer::new(true);
        // Consecutive keys cover every shard (the mask is the low bits).
        let n = (MEMO_SHARDS * 4) as u64;
        for key in 0..n {
            m.record(key, &Bytes::from(key.to_le_bytes().to_vec()));
        }
        assert_eq!(m.len(), n as usize);
        for key in 0..n {
            assert_eq!(m.lookup(key).unwrap().as_ref(), key.to_le_bytes());
        }
        assert!(!m.is_empty());
    }

    #[test]
    fn concurrent_record_and_lookup_stay_coherent() {
        let m = Arc::new(Memoizer::new(true));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        let key = t * 1000 + i;
                        m.record(key, &Bytes::from(key.to_le_bytes().to_vec()));
                        assert_eq!(m.lookup(key).unwrap().as_ref(), key.to_le_bytes());
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(m.len(), 4 * 256);
    }

    #[test]
    fn record_batch_matches_per_task_checkpoints() {
        let dir = std::env::temp_dir().join(format!("parsl-memo-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let batch_path = dir.join("batch.dat");
        let single_path = dir.join("single.dat");
        let _ = std::fs::remove_file(&batch_path);
        let _ = std::fs::remove_file(&single_path);

        let entries: Vec<(u64, Bytes)> = (0..40u64)
            .map(|k| (k, Bytes::from(format!("result-{k}").into_bytes())))
            .collect();

        let batched = Memoizer::new(true);
        batched.set_checkpoint_file(&batch_path).unwrap();
        batched.record_batch(&entries);
        batched.flush().unwrap();
        assert_eq!(batched.len(), entries.len());

        let single = Memoizer::new(true);
        single.set_checkpoint_file(&single_path).unwrap();
        for (k, v) in &entries {
            single.record(*k, v);
        }
        single.flush().unwrap();

        // Same frames on disk (order preserved here, so bytes match too).
        assert_eq!(
            std::fs::read(&batch_path).unwrap(),
            std::fs::read(&single_path).unwrap()
        );

        // And the batch-written file loads like any checkpoint.
        let reloaded = Memoizer::new(true);
        assert_eq!(
            reloaded.load_checkpoint(&batch_path).unwrap(),
            entries.len()
        );
        for (k, v) in &entries {
            assert_eq!(&reloaded.lookup(*k).unwrap(), v);
        }
        std::fs::remove_file(&batch_path).unwrap();
        std::fs::remove_file(&single_path).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_reported() {
        let dir = std::env::temp_dir().join(format!("parsl-memo-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.dat");
        std::fs::write(&path, [5, 0, 0, 0, 1, 2]).unwrap(); // truncated frame
        let m = Memoizer::new(true);
        assert!(m.load_checkpoint(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
