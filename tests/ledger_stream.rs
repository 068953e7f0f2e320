//! Tracing + run-ledger acceptance suite.
//!
//! Tracing must be invisible to the flow: outputs are bitwise identical
//! at 1/4/8 threads with tracing off or at `Full`, and the run ledger
//! written by `run_flow_resilient` round-trips losslessly and gates a
//! doctored QoR regression through `cp_trace::ledger::trend`.
//!
//! The trace level is process-global, so every test serializes on one
//! mutex and restores `Off` when done.

use cp_core::flow::{
    run_flow, run_flow_resilient, FlowOptions, FlowReport, ResilienceOptions, ShapeMode,
};
use cp_core::ClusteringOptions;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::{Constraints, Netlist};
use cp_trace::{DiffOptions, LedgerEntry, Level};
use std::sync::Mutex;

/// Serializes tests that flip the process-global trace level.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at the given trace level, restoring `Off` afterwards (also on
/// panic, so a failing assertion doesn't poison the next test's global
/// state).
fn at_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            cp_trace::set_level(Level::Off);
        }
    }
    let _reset = Reset;
    cp_trace::set_level(level);
    f()
}

fn small_design() -> (Netlist, Constraints) {
    GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 128.0)
        .seed(7)
        .generate_with_constraints()
}

fn opts() -> FlowOptions {
    FlowOptions {
        clustering: ClusteringOptions {
            avg_cluster_size: 50,
            path_count: 1000,
            ..Default::default()
        },
        vpr_min_instances: 60,
        ..Default::default()
    }
    .shape_mode(ShapeMode::Vpr)
}

fn assert_same_outputs(a: &FlowReport, b: &FlowReport) {
    assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
    assert_eq!(a.ppa, b.ppa);
    assert_eq!(a.cluster_count, b.cluster_count);
    assert_eq!(a.diagnostics, b.diagnostics);
    assert_eq!(a.shaping, b.shaping);
}

/// Acceptance pin: flow outputs are bitwise identical at 1, 4 and 8
/// threads, tracing on or off.
#[test]
fn traced_outputs_bitwise_identical_at_1_4_8_threads() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, c) = small_design();
    let o = opts();
    let base = at_level(Level::Off, || {
        cp_parallel::with_threads(1, || run_flow(&n, &c, &o).expect("flow runs"))
    });
    for threads in [4usize, 8] {
        for level in [Level::Off, Level::Full] {
            let r = at_level(level, || {
                cp_parallel::with_threads(threads, || run_flow(&n, &c, &o).expect("flow runs"))
            });
            assert_same_outputs(&base, &r);
        }
    }
}

/// `run_flow_resilient` writes one schema-valid ledger entry per run;
/// the JSONL store round-trips losslessly, identical reruns trend clean,
/// and a doctored QoR value trips the trend gate.
#[test]
fn resilient_ledger_roundtrips_and_trend_gates_doctored_runs() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, c) = small_design();
    let o = opts();
    let path = std::env::temp_dir().join(format!("cp_ledger_stream_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let res = ResilienceOptions {
        ledger: Some(path.clone()),
        ..Default::default()
    };
    for _ in 0..2 {
        at_level(Level::Full, || {
            run_flow_resilient(&n, &c, &o, &res).expect("flow runs")
        });
    }
    let entries = cp_trace::ledger::load(&path).expect("ledger loads");
    assert_eq!(entries.len(), 2, "one entry per run");
    assert_eq!(entries[0].fingerprint, entries[1].fingerprint);
    assert_eq!(entries[0].source, "flow");
    assert_eq!(entries[0].status, "completed");
    for e in &entries {
        // Lossless through the line format, and the integer-ns stage
        // partition reconciles to the root wall exactly.
        let back = LedgerEntry::parse_line(&e.to_json_line()).expect("line parses");
        assert_eq!(&back, e);
        let sum: i64 = e.stages.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sum, e.root_wall_ns as i64);
        assert!(e.qor_value("qor.legalized.hpwl").is_some());
    }
    // Identical reruns: the same bits, so zero regressions at zero
    // tolerance.
    let clean = cp_trace::ledger::trend(&entries, &DiffOptions::default());
    assert_eq!(clean.groups, 1);
    assert!(
        clean.regressions().is_empty(),
        "identical reruns trend clean"
    );

    // A doctored HPWL must trip the gate, and nothing else.
    let doctored = entries[1].clone().doctor("qor.legalized.hpwl", 1.1);
    cp_trace::ledger::append(&path, &doctored).expect("append doctored entry");
    let entries = cp_trace::ledger::load(&path).expect("ledger reloads");
    let gated = cp_trace::ledger::trend(&entries, &DiffOptions::default());
    let regs = gated.regressions();
    assert_eq!(regs.len(), 1, "exactly the doctored metric regresses");
    assert_eq!(regs[0].metric, "qor.legalized.hpwl");
    let _ = std::fs::remove_file(&path);
}
