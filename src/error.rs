//! Host-side error handling for the experiment layer.
//!
//! [`mira_noc::error::NocError`] covers what goes wrong *inside* a
//! simulation; [`HostError`] covers what goes wrong *around* one — file
//! IO, flag and file parsing, and batches whose points failed. The
//! idiom mirrors `NocError`: a typed, `#[non_exhaustive]` enum whose
//! `Display` names the exact file, flag or point involved, so binaries
//! can exit non-zero with an actionable message instead of panicking
//! through an `unwrap()`.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// Result alias for host-side experiment plumbing.
pub type HostResult<T> = Result<T, HostError>;

/// Errors produced by the experiment harness around simulations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HostError {
    /// A filesystem operation failed.
    Io {
        /// What was being done (e.g. `"write trace"`).
        action: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The OS error text.
        source: String,
    },
    /// A file or value did not parse.
    Parse {
        /// What was being parsed (a file path or a value description).
        what: String,
        /// Why it failed.
        detail: String,
    },
    /// A command-line flag or the `MIRA_JOBS` environment variable was
    /// malformed, missing its value or inconsistent with another flag.
    Flag {
        /// The flag or environment variable, as typed (e.g.
        /// `"--metrics-window"` or `"MIRA_JOBS"`).
        flag: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// A runner batch finished with failed points (each rendered by
    /// [`PointFailure::to_string`](crate::experiments::runner::PointFailure)).
    Batch {
        /// The exhibit whose batch failed.
        exhibit: String,
        /// Points submitted.
        points: usize,
        /// One rendered line per failed point.
        failures: Vec<String>,
    },
}

impl HostError {
    /// Wraps an [`std::io::Error`] with the action and path it broke on.
    pub fn io(action: &'static str, path: impl Into<PathBuf>, source: &std::io::Error) -> Self {
        HostError::Io { action, path: path.into(), source: source.to_string() }
    }

    /// Prints the error to stderr and exits non-zero — the binaries'
    /// clean replacement for panicking on a host-side failure.
    pub fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(1);
    }
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Io { action, path, source } => {
                write!(f, "cannot {action} {}: {source}", path.display())
            }
            HostError::Parse { what, detail } => write!(f, "cannot parse {what}: {detail}"),
            HostError::Flag { flag, detail } => write!(f, "invalid {flag}: {detail}"),
            HostError::Batch { exhibit, points, failures } => {
                write!(f, "{exhibit}: {} of {points} points failed", failures.len())?;
                for line in failures {
                    write!(f, "\n  {line}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for HostError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_file_and_flag() {
        let e = HostError::Io {
            action: "write trace",
            path: PathBuf::from("out/trace.json"),
            source: "No space left on device (os error 28)".into(),
        };
        let s = e.to_string();
        assert!(s.contains("out/trace.json") && s.contains("No space left"), "{s}");

        let e =
            HostError::Flag { flag: "--metrics-window", detail: "needs cycles, got \"x\"".into() };
        assert!(e.to_string().contains("--metrics-window"), "{e}");
    }

    #[test]
    fn batch_error_itemizes_failures() {
        let e = HostError::Batch {
            exhibit: "fig11a".into(),
            points: 5,
            failures: vec!["point 2 `ur 3DM @ 0.15` (seed 9) panicked: boom".into()],
        };
        let s = e.to_string();
        assert!(s.contains("1 of 5 points failed"), "{s}");
        assert!(s.contains("ur 3DM @ 0.15"), "{s}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HostError>();
    }
}
