//! Extension: tail latency (p50/p95/p99/p99.9) per architecture under
//! UR, plus — when `--span-sample-rate` enables journey sampling — the
//! attribution mode: a per-bucket breakdown of where tail packets spend
//! their cycles (source queue, stall causes, pipeline, link, ARQ).
use mira_bench::{named, run, Cli};

fn main() {
    let cli = Cli::parse();
    let mut exhibits = vec![named("ext_tail_latency")];
    if cli.span_sample_ppm.is_some_and(|ppm| ppm > 0) {
        exhibits.push(named("ext_tail_attribution"));
    }
    run(cli, exhibits);
}
