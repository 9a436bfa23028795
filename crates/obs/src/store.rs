//! The results store: one JSON-lines file per runner batch,
//! `<dir>/<exhibit>-<hash16>.jsonl` (default dir `results/checkpoints`),
//! keyed by the FNV-1a [`config_hash`] over the exhibit name, the
//! options that shaped the batch and its `(label, seed)` pairs. A file
//! holds two kinds of line:
//!
//! * **point lines** ([`PointLine`]), one per completed point:
//!   `{config_hash, git_rev, label, seed, result}`. They are the replay
//!   substrate of the runner's `--resume` (DESIGN.md §16);
//! * **batch lines** ([`BatchLine`]), one per finished run, appended
//!   after the pool joins: `{config_hash, exhibit, options, ts_ms,
//!   batch}`, where `options` echoes the hashed options rendering and
//!   `batch` is the run's summary (provenance, throughput, failures,
//!   resumes, anomalies). They are a record, never replayed.
//!
//! Crash-safety contract:
//!
//! * every append is flushed before the runner reports the point done,
//!   so a `SIGKILL` loses at most the line being written;
//! * [`load`] skips a torn line of either kind (the partial write a kill
//!   leaves behind); earlier lines still replay;
//! * a point line replays only into the batch *and build* that wrote it:
//!   another `config_hash` or another `git_rev` (including none, as in
//!   lines written before points carried one) makes it stale;
//! * payloads are opaque [`serde::Value`]s: this crate stores results
//!   without depending on the experiment layer's types.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use crate::provenance::Provenance;

/// Default store directory, relative to the working directory (override
/// per runner; the bench binaries' `--checkpoint-dir` sets it).
pub const DEFAULT_DIR: &str = "results/checkpoints";

/// FNV-1a 64-bit over the exhibit name, the canonical rendering of the
/// options that shaped the batch's results (simulation window, grids,
/// fault and recorder settings) and every `(label, seed)` pair — a
/// stable, dependency-free fingerprint of what a batch simulated.
/// Identical batches hash identically across runs and platforms; the
/// same points under other options do not.
pub fn config_hash<'a>(
    exhibit: &str,
    options: &str,
    points: impl Iterator<Item = (&'a str, u64)>,
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(exhibit.as_bytes());
    eat(&[0xff]);
    eat(options.as_bytes());
    for (label, seed) in points {
        eat(&[0xff]); // field separator, not valid UTF-8 inside labels
        eat(label.as_bytes());
        eat(&seed.to_le_bytes());
    }
    h
}

/// Renders a hash as the store's 16-hex-digit form.
pub fn hash_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// The store file for one `(exhibit, config hash)` batch identity.
pub fn path_for(dir: &Path, exhibit: &str, config_hash: u64) -> PathBuf {
    dir.join(format!("{exhibit}-{}.jsonl", hash_hex(config_hash)))
}

/// One completed point, replayable into a later run of the same batch
/// from the same build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointLine {
    /// The batch identity, as 16 hex digits.
    pub config_hash: String,
    /// Git revision of the build that produced the result; `None` on
    /// lines written before points carried one.
    pub git_rev: Option<String>,
    /// Label of the completed point.
    pub label: String,
    /// Seed the point ran with.
    pub seed: u64,
    /// The point's result, as the experiment layer serialized it.
    pub result: Value,
}

/// One finished run of a batch: what ran, when, and how it went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchLine {
    /// The batch identity, as 16 hex digits.
    pub config_hash: String,
    /// Producing exhibit (the runner's exhibit name).
    pub exhibit: String,
    /// The options rendering hashed into `config_hash`: what shaped the
    /// results, so the record names its configuration.
    pub options: String,
    /// Unix timestamp of the append, milliseconds.
    pub ts_ms: u64,
    /// The run's summary, as the experiment layer serialized it.
    pub batch: Value,
}

/// An open store file, appending the lines of one batch.
#[derive(Debug)]
pub struct StoreWriter {
    path: PathBuf,
    file: File,
    config_hash: String,
    git_rev: String,
}

impl StoreWriter {
    /// Opens (creating directories and the file as needed) the store
    /// file at `path` for appending the lines of batch `config_hash`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers degrade to running without
    /// a store rather than aborting the batch.
    pub fn open(path: &Path, config_hash: u64) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(StoreWriter {
            path: path.to_path_buf(),
            file,
            config_hash: hash_hex(config_hash),
            git_rev: Provenance::current().git_rev,
        })
    }

    /// The file being appended to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one point line stamped with this build's revision and
    /// flushes it, so a crash after this call returns cannot lose the
    /// point.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem errors.
    pub fn append_point(&mut self, label: &str, seed: u64, result: Value) -> std::io::Result<()> {
        let line = PointLine {
            config_hash: self.config_hash.clone(),
            git_rev: Some(self.git_rev.clone()),
            label: label.to_string(),
            seed,
            result,
        };
        self.append(&line)
    }

    /// Appends the batch line: `options` is the rendering the batch was
    /// hashed with, `batch` the run's serialized summary.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem errors.
    pub fn append_batch(
        &mut self,
        exhibit: &str,
        options: &str,
        batch: Value,
    ) -> std::io::Result<()> {
        let line = BatchLine {
            config_hash: self.config_hash.clone(),
            exhibit: exhibit.to_string(),
            options: options.to_string(),
            ts_ms: unix_millis(),
            batch,
        };
        self.append(&line)
    }

    fn append(&mut self, line: &impl Serialize) -> std::io::Result<()> {
        let text = serde_json::to_string(line)
            .map_err(|e| std::io::Error::other(format!("store line serialization: {e}")))?;
        writeln!(self.file, "{text}")?;
        self.file.flush()
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn unix_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// What [`load`] recovered from a store file.
#[derive(Debug, Clone, Default)]
pub struct Loaded {
    /// Point lines of the expected batch from this build, in file order.
    pub points: Vec<PointLine>,
    /// Every batch line, in file order (never replayed).
    pub batches: Vec<BatchLine>,
    /// Point lines skipped because they name another batch or build.
    pub stale_lines: usize,
    /// Lines skipped because they did not parse (normally at most one:
    /// the torn final line of a killed run).
    pub torn_lines: usize,
}

/// Reads the store file at `path`, keeping the point lines of batch
/// `expected_hash` written by this build.
///
/// A missing file is an empty store, not an error.
///
/// # Errors
///
/// Propagates read errors other than the file not existing.
pub fn load(path: &Path, expected_hash: u64) -> std::io::Result<Loaded> {
    // Bytes, not a string: a line of invalid UTF-8 is one torn line,
    // not a reason to drop the whole file.
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Loaded::default()),
        Err(e) => return Err(e),
    };
    let text = String::from_utf8_lossy(&bytes);
    let expected = hash_hex(expected_hash);
    let rev = Provenance::current().git_rev;
    let mut out = Loaded::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(value) = serde_json::from_str::<Value>(line) else {
            out.torn_lines += 1;
            continue;
        };
        if !matches!(value.field("batch"), Value::Null) {
            match BatchLine::from_value(&value) {
                Ok(batch) => out.batches.push(batch),
                Err(_) => out.torn_lines += 1,
            }
            continue;
        }
        match PointLine::from_value(&value) {
            Ok(p) if p.config_hash == expected && p.git_rev.as_deref() == Some(rev.as_str()) => {
                out.points.push(p);
            }
            Ok(_) => out.stale_lines += 1,
            Err(_) => out.torn_lines += 1,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mira_store_{name}_{}.jsonl", std::process::id()))
    }

    fn result() -> Value {
        Value::Object(vec![("avg_latency".into(), Value::F64(12.5))])
    }

    fn summary() -> Value {
        Value::Object(vec![("cycles_simulated".into(), Value::U64(7_800))])
    }

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let hash = |exhibit: &str, options: &str, points: [(&'static str, u64); 2]| {
            config_hash(exhibit, options, points.into_iter())
        };
        let a = hash("fig11a", "quick=true", [("x", 1), ("y", 2)]);
        assert_eq!(a, hash("fig11a", "quick=true", [("x", 1), ("y", 2)]), "same batch, same hash");
        assert_ne!(a, hash("fig11a", "quick=true", [("x", 1), ("y", 3)]), "seed change");
        assert_ne!(a, hash("fig11a", "quick=true", [("x", 1), ("z", 2)]), "label change");
        assert_ne!(a, hash("fig12a", "quick=true", [("x", 1), ("y", 2)]), "exhibit change");
        assert_ne!(a, hash("fig11a", "quick=false", [("x", 1), ("y", 2)]), "options change");
        assert_eq!(hash_hex(a).len(), 16);
    }

    #[test]
    fn points_and_batch_round_trip() {
        let path = scratch("roundtrip");
        let _ = std::fs::remove_file(&path);
        let hash = config_hash("t", "", [("a", 1u64), ("b", 2)].into_iter());
        {
            let mut w = StoreWriter::open(&path, hash).expect("open");
            w.append_point("a", 1, result()).expect("append a");
            w.append_point("b", 2, result()).expect("append b");
            w.append_batch("t", "quick=true", summary()).expect("append batch");
        }
        let loaded = load(&path, hash).expect("load");
        assert_eq!((loaded.stale_lines, loaded.torn_lines), (0, 0));
        assert_eq!(loaded.points.len(), 2);
        assert_eq!(loaded.points[0].label, "a");
        assert_eq!(loaded.points[1].seed, 2);
        assert_eq!(loaded.points[0].git_rev.as_deref(), Some(env!("MIRA_GIT_REV")));
        assert_eq!(loaded.points[0].result.field("avg_latency").as_f64().unwrap(), 12.5);
        assert_eq!(loaded.batches.len(), 1);
        let batch = &loaded.batches[0];
        assert_eq!((batch.config_hash.as_str(), batch.exhibit.as_str()), (&*hash_hex(hash), "t"));
        assert_eq!(batch.options, "quick=true");
        assert!(batch.ts_ms > 0);
        assert_eq!(batch.batch, summary());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn other_batches_and_builds_are_stale_but_batch_lines_are_not() {
        let path = scratch("stale");
        let _ = std::fs::remove_file(&path);
        let hash = config_hash("t", "", [("a", 1u64)].into_iter());
        let other = config_hash("t", "", [("x", 9u64)].into_iter());
        {
            let mut w = StoreWriter::open(&path, other).expect("open other");
            w.append_point("x", 9, result()).expect("other batch's point");
            w.append_batch("t", "quick=true", summary()).expect("other batch's batch line");
            let mut w = StoreWriter::open(&path, hash).expect("open");
            w.git_rev = "another-build".into();
            w.append_point("a", 1, result()).expect("another build's point");
            w.git_rev = Provenance::current().git_rev;
            w.append_point("a", 1, result()).expect("this build's point");
            w.append_batch("t", "quick=true", summary()).expect("batch line");
        }
        // A line from before points carried their build revision.
        let mut text = std::fs::read_to_string(&path).expect("read");
        let legacy = format!(
            "{{\"config_hash\":\"{}\",\"label\":\"a\",\"seed\":1,\"result\":{{}}}}\n",
            hash_hex(hash)
        );
        text.push_str(&legacy);
        std::fs::write(&path, text).expect("write legacy line");
        let loaded = load(&path, hash).expect("load");
        assert_eq!(loaded.points.len(), 1, "only this build's point of this batch replays");
        assert_eq!(loaded.stale_lines, 3, "other batch, other build, no build");
        assert_eq!(loaded.batches.len(), 2, "batch lines are kept, not counted stale");
        assert_eq!(loaded.torn_lines, 0);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_final_line_of_either_kind_is_skipped() {
        let hash = config_hash("t", "", [("a", 1u64)].into_iter());
        let hex = hash_hex(hash);
        let torn_point = format!("{{\"config_hash\":\"{hex}\",\"git_rev\":\"ab");
        let torn_batch = format!("{{\"config_hash\":\"{hex}\",\"exhibit\":\"t\",\"batch\":{{\"jo");
        for (kind, torn) in [("point", torn_point), ("batch", torn_batch)] {
            let path = scratch(kind);
            let _ = std::fs::remove_file(&path);
            {
                let mut w = StoreWriter::open(&path, hash).expect("open");
                w.append_point("a", 1, result()).expect("append");
            }
            // Simulate a SIGKILL mid-append: a truncated trailing line.
            let mut text = std::fs::read_to_string(&path).expect("read");
            text.push_str(&torn);
            std::fs::write(&path, text).expect("write torn");
            let loaded = load(&path, hash).expect("load survives");
            assert_eq!(loaded.points.len(), 1, "{kind}: the intact point still replays");
            assert!(loaded.batches.is_empty(), "{kind}");
            assert_eq!((loaded.torn_lines, loaded.stale_lines), (1, 0), "{kind}");
            std::fs::remove_file(&path).expect("cleanup");
        }
    }

    #[test]
    fn missing_file_is_empty_store() {
        let loaded = load(Path::new("/nonexistent/mira/store.jsonl"), 7).expect("missing is empty");
        assert!(loaded.points.is_empty() && loaded.batches.is_empty());
        assert_eq!(loaded.stale_lines + loaded.torn_lines, 0);
    }

    #[test]
    fn path_for_is_stable() {
        let p = path_for(Path::new("results/checkpoints"), "fig11a", 0xdead_beef);
        assert_eq!(p, PathBuf::from("results/checkpoints/fig11a-00000000deadbeef.jsonl"));
    }
}
