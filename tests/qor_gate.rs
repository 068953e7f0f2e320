//! QoR gate end-to-end: the pinned gate flow is bitwise-deterministic
//! across thread counts, the committed baseline matches a fresh run, the
//! `tracetool gate` binary passes against a baseline it just wrote and
//! exits nonzero against a doctored one, the binaries keep their exit
//! codes when stdout closes early, and the self-time table reconciles
//! with the report's stage accounting on a real trace.
//!
//! The trace level is process-global state, so every test here
//! serializes on one mutex (see `tests/trace_determinism.rs`).

use cp_bench::qor_gate::{self, Baseline};
use cp_trace::json::parse;
use cp_trace::TraceReport;
use std::process::{Command, Stdio};
use std::sync::Mutex;

/// Serializes tests that flip the process-global trace level.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn gate_trace() -> TraceReport {
    let report = qor_gate::run_traced(&qor_gate::gate_bench(), &qor_gate::gate_options())
        .expect("gate flow runs");
    report.trace.expect("gate flow is fully traced")
}

#[test]
fn gate_flow_is_thread_invariant_and_matches_committed_baseline() {
    let _guard = LEVEL_LOCK.lock().expect("level lock");
    let t1 = cp_parallel::with_threads(1, gate_trace);
    let t4 = cp_parallel::with_threads(4, gate_trace);

    // Bitwise-deterministic outputs: every qor.* gauge matches exactly
    // across thread counts.
    let g1 = t1.gauges_with_prefix("qor.");
    let g4 = t4.gauges_with_prefix("qor.");
    assert_eq!(g1, g4, "qor gauges must not depend on the thread count");
    assert!(g1.len() >= 10, "expected a full QoR snapshot, got {g1:?}");

    // A baseline recorded at one thread count gates the other.
    let baseline = Baseline::from_trace(&t1, "aes", qor_gate::GATE_SCALE);
    let failures = baseline.check(&t4);
    assert!(
        failures.is_empty(),
        "cross-thread gate failed: {failures:?}"
    );

    // The committed baseline is what a fresh run produces.
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../baselines/QOR_baseline.json"
    ))
    .expect("read committed baseline");
    let committed = Baseline::from_json(&committed).expect("committed baseline parses");
    let failures = committed.check(&t1);
    assert!(
        failures.is_empty(),
        "fresh gate run violates the committed baseline: {failures:?}"
    );
}

#[test]
fn committed_baseline_conforms_to_its_schema() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let doc = std::fs::read_to_string(format!("{root}/baselines/QOR_baseline.json"))
        .expect("read committed baseline");
    let violations = cp_trace::json::validate(
        &parse(&doc).expect("baseline parses"),
        &parse(cp_bench::qor_gate::SCHEMA_JSON).expect("schema parses"),
    );
    assert!(violations.is_empty(), "{violations:?}");
}

/// `gate --write` records the baseline `gate` then passes against; a
/// baseline whose legalized HPWL is 10% off fails naming the gauge.
#[test]
fn tracetool_gate_passes_clean_and_rejects_doctored_reports() {
    let dir = std::env::temp_dir().join(format!("qor_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let baseline_path = dir.join("baseline.json");
    let doctored_path = dir.join("doctored.json");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_tracetool"))
            .args(args)
            .output()
            .expect("tracetool runs")
    };
    let baseline_arg = baseline_path.to_str().expect("utf-8 temp path");
    let doctored_arg = doctored_path.to_str().expect("utf-8 temp path");

    let out = run(&["gate", "--baseline", baseline_arg, "--write"]);
    assert!(out.status.success(), "write failed: {out:?}");
    let out = run(&["gate", "--baseline", baseline_arg]);
    assert!(out.status.success(), "clean gate must pass: {out:?}");

    // +10% on the legalized-HPWL gauge: the gate must exit 1.
    let clean = std::fs::read_to_string(&baseline_path).expect("read baseline");
    let mut doctored = Baseline::from_json(&clean).expect("written baseline parses");
    let hpwl = doctored
        .qor
        .iter_mut()
        .find(|e| e.name == "qor.legalized.hpwl")
        .expect("hpwl gauge recorded");
    hpwl.value *= 1.1;
    std::fs::write(&doctored_path, doctored.to_json()).expect("write doctored baseline");
    let out = run(&["gate", "--baseline", doctored_arg]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "doctored +10% HPWL must fail the gate: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("qor.legalized.hpwl"),
        "failure must name the regressed gauge: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every numeric flag rejects negative, non-finite and out-of-range
/// values with a usage error (exit 2) naming the flag, never a panic, and
/// a deleted subcommand or flag is a usage error too.
#[test]
fn tracetool_rejects_bad_numeric_flags_with_a_usage_error() {
    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let cases: &[(&[&str], &str)] = &[
        (&["explain", "--run", "aes@0"], "--run"),
        (&["trend"], "unknown subcommand"),
        (&["harvest"], "unknown subcommand"),
        (&["chaos"], "unknown subcommand"),
        (&["summarize", "r.json"], "unknown subcommand"),
        (&["diff", "a.json", "b.json"], "unknown subcommand"),
        (&["flamegraph", "r.json"], "unknown subcommand"),
        (&["render", "f.json"], "unknown subcommand"),
        (&["explain", "f.json"], "usage: tracetool explain --run"),
        (
            &["explain", "--run", "aes@0.01", "--fields-out", "f"],
            "unknown option",
        ),
        (&["gate", "--from", "x"], "unknown option"),
        (&["gate", "--reps", "2"], "unknown option"),
        (&["gate", "--timeout-s", "1"], "unknown option"),
    ];
    for (args, flag) in cases {
        let out = Command::new(tracetool)
            .args(*args)
            .output()
            .expect("tracetool runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{args:?} must name `{flag}`: {stderr}"
        );
    }
}

/// A reader that closes the pipe before reading ends the output, not the
/// command: each binary exits with its own code, never a panic's 101.
#[test]
fn closed_stdout_keeps_the_exit_code() {
    let dir = std::env::temp_dir().join(format!("qor_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    };
    let (doc, schema) = (path("doc.json"), path("schema.json"));
    // A document that violates its schema: check-schema's exit 1.
    std::fs::write(&doc, r#"{"version": 2}"#).expect("write document");
    std::fs::write(&schema, r#"{"type": "array"}"#).expect("write schema");

    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let repro = env!("CARGO_BIN_EXE_repro");
    let cases: &[(&str, &[&str], i32)] = &[
        (tracetool, &["check-schema", &doc, &schema], 1),
        (tracetool, &["explain", "--run", "aes@0.01"], 0),
        (repro, &["--table", "1", "--scale", "0.01"], 0),
    ];
    for (bin, args, code) in cases {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(*args)
            .stdout(Stdio::from(writer))
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// On a real gate trace the self-time table accounts for the whole run:
/// each flow stage's row carries the stage's wall clock as
/// `stage_seconds` reports it, and the self column sums to the root's
/// wall time.
#[test]
fn analysis_reconciles_with_stage_seconds_on_a_real_trace() {
    let _guard = LEVEL_LOCK.lock().expect("level lock");
    let trace = gate_trace();
    let rows = trace.self_seconds_by_name();
    let stages = trace.stage_seconds();
    for stage in cp_core::stages::ALL {
        let row = rows.iter().find(|t| t.name == stage);
        let wall = stages.iter().find(|&&(name, _)| name == stage);
        let (Some(row), Some(&(_, wall))) = (row, wall) else {
            panic!("stage `{stage}` missing: {row:?}, {wall:?}");
        };
        assert_eq!((row.count, row.wall_s), (1, wall), "stage `{stage}`");
    }
    let self_ns: i64 = rows.iter().map(|t| (t.self_s * 1e9).round() as i64).sum();
    let root = trace.root_span().expect("root captured");
    assert_eq!(self_ns, (root.end_ns - root.start_ns) as i64);
}
