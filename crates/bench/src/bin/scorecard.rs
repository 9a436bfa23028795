//! The reproduction scorecard: every headline claim of the paper checked
//! against a live run, with PASS/FAIL verdicts; exits 1 if a claim
//! falls outside its band.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("scorecard")]);
}
