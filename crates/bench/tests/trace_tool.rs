//! `trace_tool` as a process: a handful of inputs, run one after
//! another, each ending in the exit code its kind of failure names —
//! 2 with the usage text for bad arguments or input, 1 for an I/O
//! failure, 0 with the rendering otherwise. The subcommands' own
//! robustness is fuzzed in-process by the binary's unit tests.

use std::path::PathBuf;
use std::process::Command;

use mira::arch::Arch;
use mira::noc::anomaly::{AnomalyAbort, AnomalyConfig};
use mira::noc::recorder::BlackBox;
use mira::noc::sim::{SimConfig, Simulator};
use mira::noc::telemetry::TelemetryConfig;
use mira::noc::traffic::UniformRandom;
use serde::{Serialize, Value};

/// Runs `trace_tool` on `args`; returns its exit code and stderr.
fn trace_tool(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tool")).args(args).output().expect("runs");
    (out.status.code().expect("an exit code"), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A metrics dump holding one window of a short run, with `edit`
/// applied to the window's JSON fields.
fn metrics_dump(edit: impl Fn(&mut Vec<(String, Value)>)) -> String {
    let cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 300,
        drain_cycles: 1_000,
        ..SimConfig::default()
    };
    let arch = Arch::TwoDB;
    let mut sim = Simulator::new(
        arch.topology(),
        arch.network_config(false),
        cfg.with_telemetry(TelemetryConfig::windows(200)),
    );
    let report = sim.run(Box::new(UniformRandom::new(0.05, 5, 1)));
    let Value::Object(mut window) = report.windows[0].to_value() else { panic!("a window object") };
    edit(&mut window);
    let dump = Value::Object(vec![("windows".into(), Value::Array(vec![Value::Object(window)]))]);
    serde_json::to_string(&dump).expect("serializes")
}

fn set(window: &mut [(String, Value)], key: &str, value: Value) {
    window.iter_mut().find(|(k, _)| k == key).expect("the field").1 = value;
}

#[test]
fn each_failure_exits_with_its_code() {
    let dir = std::env::temp_dir().join(format!("mira_trace_tool_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = |name: &str, text: &str| -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write input");
        path
    };
    let arg = |p: &PathBuf| p.to_str().expect("a UTF-8 path").to_string();

    let (code, err) = trace_tool(&[]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("usage: trace_tool"), "{err}");

    let inverted = metrics_dump(|w| {
        set(w, "start_cycle", Value::U64(500));
        set(w, "end_cycle", Value::U64(0));
    });
    let inverted = file("inverted.json", &inverted);
    let (code, err) = trace_tool(&["netview", &arg(&inverted)]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("before it starts"), "{err}");

    let far = metrics_dump(|w| {
        let Some((_, Value::Array(routers))) = w.iter_mut().find(|(k, _)| k == "routers") else {
            panic!("a router list")
        };
        let Value::Object(router) = &mut routers[0] else { panic!("a router object") };
        set(router, "x", Value::U64(1_000_000_000_000));
    });
    let (code, err) = trace_tool(&["netview", &arg(&file("far.json", &far))]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("lies outside"), "{err}");

    let corrupt = arg(&file("corrupt.jsonl", "{\"cycle\": 1,"));
    let (code, err) = trace_tool(&["stats", &corrupt]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("InvalidData"), "{err}");
    assert!(err.contains(&format!("{corrupt}: ")), "the error names the file: {err}");

    let (code, err) =
        trace_tool(&["obs", &arg(&file("obs.json", &mira_obs::snapshot().to_json()))]);
    assert_eq!(code, 0, "{err}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The black box of a short 2DB run whose central switch allocator
/// freezes at cycle 300.
fn stalled_dump() -> BlackBox {
    let cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 600,
        drain_cycles: 2_000,
        chaos_stall: Some((300, None)),
        ..SimConfig::default()
    }
    .with_anomaly(AnomalyConfig::detect());
    let arch = Arch::TwoDB;
    let halted = std::panic::catch_unwind(|| {
        let mut sim = Simulator::new(arch.topology(), arch.network_config(false), cfg);
        sim.run(Box::new(UniformRandom::new(0.15, 5, 1)))
    });
    let abort = halted.expect_err("the stall halts the run");
    let dump = &abort.downcast_ref::<AnomalyAbort>().expect("an anomaly halt").dump;
    serde_json::from_str(dump).expect("the dump parses")
}

/// A dump that breaks one invariant of `BlackBox::check` is invalid
/// data: `trace_tool blackbox` exits 1 and names the rule. Each case
/// below breaks one rule of an otherwise valid dump, which renders.
#[test]
fn each_broken_blackbox_rule_exits_1_naming_it() {
    let dir = std::env::temp_dir().join(format!("mira_blackbox_rules_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let valid = stalled_dump();
    assert!(!valid.arena.is_empty() && !valid.stuck_packets.is_empty(), "a wedged fabric");
    let run = |name: &str, bb: &BlackBox| {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, serde_json::to_string(bb).expect("serializes")).expect("write");
        trace_tool(&["blackbox", path.to_str().expect("a UTF-8 path")])
    };
    let (code, err) = run("valid", &valid);
    assert_eq!(code, 0, "{err}");

    let broken = |name: &str, rule: &str, damage: &dyn Fn(&mut BlackBox)| {
        let mut bb = valid.clone();
        damage(&mut bb);
        let (code, err) = run(name, &bb);
        assert_eq!(code, 1, "{name}: {err}");
        assert!(err.contains(rule), "{name}: expected {rule:?} in {err}");
        assert!(err.contains(&format!("{name}.json: ")), "{name}: the error names the file: {err}");
    };
    let busy = valid.routers.iter().position(|r| !r.vcs.is_empty()).expect("a busy VC");
    let arena_packet = valid.arena[0].packet;
    broken("version", "version 2 is not 1", &|bb| bb.version = 2);
    broken("detector", "is not a detector name", &|bb| bb.trigger.kind = "hang".into());
    broken("vc_state", "is not a VC state", &|bb| bb.routers[busy].vcs[0].state = "x".into());
    broken("flit_kind", "is not a flit kind", &|bb| bb.arena[0].kind = "middle".into());
    broken("fired", "the firing log is empty", &|bb| bb.fired.clear());
    broken("routers", "the router list is empty", &|bb| bb.routers.clear());
    broken("len_flits", "has no flits", &|bb| bb.stuck_packets[0].len_flits = 0);
    broken("trigger", "is not in the firing log", &|bb| bb.trigger.cycle += 1);
    broken("counts", "is below its 1 logged firings", &|bb| bb.counts.no_progress = 0);
    broken("age", "is not capture-relative", &|bb| bb.stuck_packets[0].age += 1);
    broken("arena", "is not in the stuck set", &|bb| {
        bb.stuck_packets.retain(|s| s.packet != arena_packet);
    });
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
