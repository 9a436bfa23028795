//! Table 3: ST+LT pipeline-combining delay validation.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("tab3_delay")]);
}
