//! Sweep checkpoints: one JSON line per completed experiment point,
//! appended to `results/checkpoints/<exhibit>-<hash>.jsonl` as a batch
//! runs, so an interrupted sweep can resume from its completed prefix.
//!
//! The file is keyed by the ledger's FNV-1a [`config_hash`] over the
//! batch's `(label, seed)` pairs: a checkpoint only replays into a
//! batch that would simulate the *exact same points*. Each line carries
//! the hash again, so stale files (from an older point list that hashed
//! differently) are detected entry-by-entry and skipped rather than
//! trusted.
//!
//! Crash-safety contract:
//!
//! * every append is flushed before the runner reports the point done,
//!   so a `SIGKILL` loses at most the line being written;
//! * [`load`] tolerates a torn final line (the partial write a kill
//!   leaves behind) by ignoring it with a warning — earlier lines are
//!   still replayed;
//! * the payload is an opaque [`serde::Value`]: this crate stores and
//!   replays results without depending on the experiment layer's types.
//!
//! [`config_hash`]: crate::ledger::config_hash

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use crate::ledger::hash_hex;

/// Default directory for sweep checkpoints, relative to the working
/// directory (override per-runner or with `MIRA_CHECKPOINT_DIR`).
pub const DEFAULT_CHECKPOINT_DIR: &str = "results/checkpoints";

/// The checkpoint file for one `(exhibit, config hash)` batch identity.
pub fn path_for(dir: &Path, exhibit: &str, config_hash: u64) -> PathBuf {
    dir.join(format!("{exhibit}-{}.jsonl", hash_hex(config_hash)))
}

/// One completed point, replayable into a future run of the same batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// The batch identity this point belongs to, as 16 hex digits
    /// (entries from a different point list are skipped on load).
    pub config_hash: String,
    /// Label of the completed point.
    pub label: String,
    /// Seed the point ran with.
    pub seed: u64,
    /// The point's result, as the experiment layer serialized it.
    pub result: Value,
}

/// An open checkpoint file, appending one entry per completed point.
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    file: File,
}

impl CheckpointWriter {
    /// Opens (creating directories and the file as needed) the
    /// checkpoint at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers degrade to running without
    /// checkpoints rather than aborting the batch.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(CheckpointWriter { path: path.to_path_buf(), file })
    }

    /// The file being appended to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one entry as a JSON line and flushes it to the OS, so a
    /// crash after this call returns cannot lose the point.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem errors.
    pub fn append(&mut self, entry: &CheckpointEntry) -> std::io::Result<()> {
        let line = serde_json::to_string(entry)
            .map_err(|e| std::io::Error::other(format!("checkpoint entry serialization: {e}")))?;
        writeln!(self.file, "{line}")?;
        self.file.flush()
    }
}

/// What [`load`] recovered from a checkpoint file.
#[derive(Debug, Clone, Default)]
pub struct LoadedCheckpoint {
    /// Entries whose `config_hash` matched, in file order.
    pub entries: Vec<CheckpointEntry>,
    /// Lines skipped because their hash named a different batch.
    pub stale_lines: usize,
    /// Lines skipped because they did not parse (normally at most one:
    /// the torn final line of a killed run).
    pub torn_lines: usize,
}

/// Reads every verified entry of the checkpoint at `path`.
///
/// Lines are filtered to `expected_hash`; unparsable lines are counted
/// in [`LoadedCheckpoint::torn_lines`] and skipped, which is what makes
/// resume safe after `SIGKILL` mid-append. A missing file is an empty
/// checkpoint, not an error.
///
/// # Errors
///
/// Propagates read errors other than the file not existing.
pub fn load(path: &Path, expected_hash: u64) -> std::io::Result<LoadedCheckpoint> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LoadedCheckpoint::default())
        }
        Err(e) => return Err(e),
    };
    let expected = hash_hex(expected_hash);
    let mut out = LoadedCheckpoint::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<CheckpointEntry>(line) {
            Ok(entry) if entry.config_hash == expected => out.entries.push(entry),
            Ok(_) => out.stale_lines += 1,
            Err(_) => out.torn_lines += 1,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::config_hash;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mira_ckpt_{name}_{}.jsonl", std::process::id()))
    }

    fn entry(hash: u64, label: &str, seed: u64) -> CheckpointEntry {
        CheckpointEntry {
            config_hash: hash_hex(hash),
            label: label.to_string(),
            seed,
            result: Value::Object(vec![("avg_latency".into(), Value::F64(12.5))]),
        }
    }

    #[test]
    fn append_load_round_trips_and_filters_by_hash() {
        let path = scratch("roundtrip");
        let _ = std::fs::remove_file(&path);
        let hash = config_hash("t", [("a", 1u64), ("b", 2)].into_iter());
        let other = config_hash("t", [("a", 1u64)].into_iter());
        {
            let mut w = CheckpointWriter::open(&path).expect("open");
            w.append(&entry(hash, "a", 1)).expect("append a");
            w.append(&entry(other, "x", 9)).expect("append stale");
            w.append(&entry(hash, "b", 2)).expect("append b");
        }
        let loaded = load(&path, hash).expect("load");
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.stale_lines, 1, "other batch's entry is skipped");
        assert_eq!(loaded.torn_lines, 0);
        assert_eq!(loaded.entries[0].label, "a");
        assert_eq!(loaded.entries[1].seed, 2);
        assert_eq!(loaded.entries[0].result.field("avg_latency").as_f64().unwrap(), 12.5);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_final_line_is_skipped_not_fatal() {
        let path = scratch("torn");
        let _ = std::fs::remove_file(&path);
        let hash = config_hash("t", [("a", 1u64)].into_iter());
        {
            let mut w = CheckpointWriter::open(&path).expect("open");
            w.append(&entry(hash, "a", 1)).expect("append");
        }
        // Simulate a SIGKILL mid-append: a truncated trailing line.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"config_hash\":\"dead");
        std::fs::write(&path, text).expect("write torn");
        let loaded = load(&path, hash).expect("load survives");
        assert_eq!(loaded.entries.len(), 1);
        assert_eq!(loaded.torn_lines, 1);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn missing_file_is_empty_checkpoint() {
        let loaded = load(Path::new("/nonexistent/mira/ckpt.jsonl"), 7).expect("missing is empty");
        assert!(loaded.entries.is_empty());
        assert_eq!(loaded.stale_lines + loaded.torn_lines, 0);
    }

    #[test]
    fn path_for_is_stable() {
        let p = path_for(Path::new("results/checkpoints"), "fig11a", 0xdead_beef);
        assert_eq!(p, PathBuf::from("results/checkpoints/fig11a-00000000deadbeef.jsonl"));
    }
}
