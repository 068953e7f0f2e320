//! QoR gate end-to-end: the pinned gate flow is bitwise-deterministic
//! across thread counts, the committed baseline matches a fresh run, the
//! `tracetool gate` binary passes on a clean report and exits nonzero on
//! a doctored one, the binaries keep their exit codes when stdout closes
//! early, and
//! the analysis layer's self-time/flamegraph output reconciles with the
//! report's stage accounting on a real trace.
//!
//! The trace level is process-global state, so every test here
//! serializes on one mutex (see `tests/trace_determinism.rs`).

use cp_bench::qor_gate::{self, Baseline};
use cp_trace::json::parse;
use cp_trace::{Analysis, MetricSnapshot, MetricValue, SpanRecord, TraceReport};
use std::process::{Command, Stdio};
use std::sync::Mutex;

/// Serializes tests that flip the process-global trace level.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn gate_trace() -> TraceReport {
    let report = qor_gate::run_gate_flow().expect("gate flow runs");
    report.trace.expect("gate flow is fully traced")
}

#[test]
fn gate_flow_is_thread_invariant_and_matches_committed_baseline() {
    let _guard = LEVEL_LOCK.lock().expect("level lock");
    let t1 = cp_parallel::with_threads(1, gate_trace);
    let t4 = cp_parallel::with_threads(4, gate_trace);
    let a1 = Analysis::from_report(&t1).expect("analyzes");
    let a4 = Analysis::from_report(&t4).expect("analyzes");

    // Bitwise-deterministic outputs: every qor.* gauge matches exactly
    // across thread counts.
    let g1 = a1.gauges_with_prefix("qor.");
    let g4 = a4.gauges_with_prefix("qor.");
    assert_eq!(g1, g4, "qor gauges must not depend on the thread count");
    assert!(g1.len() >= 10, "expected a full QoR snapshot, got {g1:?}");

    // A baseline recorded at one thread count gates the other.
    let baseline = Baseline::from_analysis(&a1, "aes", qor_gate::GATE_SCALE);
    let failures = baseline.check(&a4);
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
    let failures = committed.check(&a1);
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

#[test]
fn tracetool_gate_passes_clean_and_rejects_doctored_reports() {
    let _guard = LEVEL_LOCK.lock().expect("level lock");
    let trace = gate_trace();
    let dir = std::env::temp_dir().join(format!("qor_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let report_path = dir.join("report.json");
    let baseline_path = dir.join("baseline.json");
    let clean = trace.to_json();
    std::fs::write(&report_path, &clean).expect("write report");

    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let run = |args: &[&str]| {
        Command::new(tracetool)
            .args(args)
            .output()
            .expect("tracetool runs")
    };
    let report_arg = report_path.to_str().expect("utf-8 temp path");
    let baseline_arg = baseline_path.to_str().expect("utf-8 temp path");

    // Record a baseline from the report, then gate the same report: pass.
    let out = run(&[
        "gate",
        "--from",
        report_arg,
        "--baseline",
        baseline_arg,
        "--write",
    ]);
    assert!(out.status.success(), "write failed: {out:?}");
    let out = run(&["gate", "--from", report_arg, "--baseline", baseline_arg]);
    assert!(out.status.success(), "clean gate must pass: {out:?}");

    // +10% on the legalized-HPWL gauge: the gate must exit nonzero.
    let needle = "\"name\":\"qor.legalized.hpwl\",\"kind\":\"gauge\",\"value\":";
    let start = clean.find(needle).expect("hpwl gauge present") + needle.len();
    let end = start
        + clean[start..]
            .find([',', '}'])
            .expect("number is delimited");
    let value: f64 = clean[start..end].parse().expect("gauge value parses");
    let doctored = format!("{}{}{}", &clean[..start], value * 1.1, &clean[end..]);
    let doctored_path = dir.join("doctored.json");
    std::fs::write(&doctored_path, &doctored).expect("write doctored report");
    let out = run(&[
        "gate",
        "--from",
        doctored_path.to_str().expect("utf-8 temp path"),
        "--baseline",
        baseline_arg,
    ]);
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
/// a deleted subcommand or flag is a usage error too; a tiny valid
/// timeout still expires with exit 3.
#[test]
fn tracetool_rejects_bad_numeric_flags_with_a_usage_error() {
    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let cases: &[(&[&str], &str)] = &[
        (&["gate", "--timeout-s", "-1"], "--timeout-s"),
        (&["gate", "--timeout-s", "nan"], "--timeout-s"),
        (&["gate", "--timeout-s", "1e300"], "--timeout-s"),
        (&["diff", "a.json", "b.json", "--rel", "NaN"], "--rel"),
        (&["diff", "a.json", "b.json", "--abs", "-1"], "--abs"),
        (
            &["diff", "a.json", "b.json", "--metric-rel", "inf"],
            "--metric-rel",
        ),
        (&["explain", "--run", "aes@0"], "--run"),
        (&["trend"], "unknown subcommand"),
        (&["harvest"], "unknown subcommand"),
        (&["chaos"], "unknown subcommand"),
        (&["gate", "--reps", "2"], "unknown option"),
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
    let out = Command::new(tracetool)
        .args(["gate", "--timeout-s", "0.01"])
        .output()
        .expect("tracetool runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}

/// A frames document of a version the reader no longer knows is refused
/// with the version error, exit 2, by both frame readers.
#[test]
fn a_version_1_frames_document_exits_2() {
    let v1 = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/regressions/frames_v1.json"
    );
    for args in [["explain", v1], ["render", v1]] {
        let out = Command::new(env!("CARGO_BIN_EXE_tracetool"))
            .args(args)
            .output()
            .expect("tracetool runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("$/version: value not in enum"), "{stderr}");
    }
}

/// A one-span report whose only metric is the legalized-HPWL gauge.
fn tiny_report(hpwl: f64) -> TraceReport {
    TraceReport {
        root: 1,
        spans: vec![SpanRecord {
            id: 1,
            parent: 0,
            name: "flow.flat",
            thread: 0,
            start_ns: 0,
            end_ns: 1_000,
            args: vec![],
        }],
        instants: vec![],
        series: vec![],
        metrics: vec![MetricSnapshot {
            name: "qor.legalized.hpwl",
            slot: None,
            value: MetricValue::Gauge(hpwl),
        }],
        dropped_events: 0,
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
    let (base, new, frames) = (path("base.json"), path("new.json"), path("frames.json"));
    std::fs::write(&base, tiny_report(1e6).to_json()).expect("write report");
    std::fs::write(&new, tiny_report(2e6).to_json()).expect("write report");
    let capture = cp_trace::FrameCapture::default();
    std::fs::write(&frames, cp_trace::fields::to_json(&capture)).expect("write frames");

    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let repro = env!("CARGO_BIN_EXE_repro");
    let cases: &[(&str, &[&str], i32)] = &[
        (tracetool, &["summarize", &base], 0),
        (tracetool, &["diff", &base, &new], 1),
        (tracetool, &["flamegraph", &base], 0),
        (tracetool, &["explain", &frames], 0),
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

#[test]
fn analysis_reconciles_with_stage_seconds_on_a_real_trace() {
    let _guard = LEVEL_LOCK.lock().expect("level lock");
    let trace = gate_trace();
    let a = Analysis::from_report(&trace).expect("analyzes");

    // Subtree self-time per stage telescopes back to the stage's wall
    // clock as reported by `stage_seconds`, to nanosecond precision.
    let stage_walls = trace.stage_seconds();
    let stage_self = a.stage_self_seconds();
    for (name, wall) in &stage_walls {
        let (_, self_total) = stage_self
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("stage `{name}` missing from analysis"));
        assert!(
            (wall - self_total).abs() < 1e-9,
            "stage `{name}`: wall {wall} vs subtree self {self_total}"
        );
    }

    // The folded export is loadable collapsed-stack format: every line is
    // `frame(;frame)* count` with a non-negative integer count and
    // frames free of `;` and newlines.
    let folded = a.folded();
    assert!(!folded.is_empty(), "real trace must produce stacks");
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("count separated by space");
        assert!(count.parse::<u64>().is_ok(), "bad count in `{line}`");
        assert!(!stack.is_empty() && stack.split(';').all(|f| !f.is_empty()));
    }
    // Root frame of every stack is the flow root.
    assert!(folded
        .lines()
        .all(|l| l.starts_with("flow.clustered") || l.starts_with("flow.clustered;")));
}
