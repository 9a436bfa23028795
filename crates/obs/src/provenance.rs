//! Build provenance: which source revision, compiler, and profile
//! produced this binary. Stamped at compile time by `build.rs` (git
//! revision with a `-dirty` suffix for uncommitted trees, rustc
//! version) and surfaced in `RunSummary` JSON, observability snapshots,
//! and every results-store line — resume replays a stored point only
//! into the build whose `git_rev` wrote it.

use serde::{Deserialize, Serialize};

/// Provenance of the running binary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Provenance {
    /// Git revision the binary was built from (`-dirty` suffixed when
    /// the tree had uncommitted changes; `unknown` outside a checkout).
    pub git_rev: String,
    /// `rustc --version` of the building compiler.
    pub rustc: String,
    /// `debug` or `release`.
    pub profile: String,
    /// Workspace package version.
    pub version: String,
}

impl Provenance {
    /// The provenance stamped into this build.
    pub fn current() -> Self {
        Provenance {
            git_rev: env!("MIRA_GIT_REV").to_string(),
            rustc: env!("MIRA_RUSTC").to_string(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_stamped() {
        let p = Provenance::current();
        assert!(!p.git_rev.is_empty());
        assert!(!p.rustc.is_empty());
        assert!(p.profile == "debug" || p.profile == "release");
        assert!(!p.version.is_empty());
    }
}
