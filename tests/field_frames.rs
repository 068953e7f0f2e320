//! Field frames must be a pure observer: the flow's outputs are bitwise
//! identical at `Level::Full` and `Level::Off`, at 1, 4 and 8 worker
//! threads — and the recorded frames themselves (names, stages,
//! iteration indices, dims and every f32 bit) are identical across
//! thread counts and across repeat runs, because record sites only fire
//! on the flow thread under an open stage scope. Below `Full` no frame
//! records.
//!
//! The trace level is process-global state, so every test serializes on
//! one mutex and restores the off state when done. The doctor's verdicts
//! on one real run are pinned here too.

use cp_core::flow::{run_flow, FlowOptions, FlowReport, ShapeMode};
use cp_core::ClusteringOptions;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::{Constraints, Netlist};
use cp_trace::{Frame, Level};
use std::sync::Mutex;

/// Serializes tests that flip the process-global trace level.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

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

/// Runs the flow at `level` with `threads` workers, restoring the off
/// state (and clearing trace buffers) afterwards.
fn run_at(
    n: &Netlist,
    c: &Constraints,
    o: &FlowOptions,
    threads: usize,
    level: Level,
) -> FlowReport {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            cp_trace::set_level(Level::Off);
            cp_trace::clear();
        }
    }
    let _reset = Reset;
    cp_trace::set_level(level);
    cp_parallel::with_threads(threads, || run_flow(n, c, o).expect("flow runs"))
}

/// A bit-exact, comparable view of one frame.
type FrameSig = (&'static str, &'static str, u64, usize, usize, Vec<u32>);

fn signatures(frames: &[Frame]) -> Vec<FrameSig> {
    frames
        .iter()
        .map(|f| {
            let bits = f.values.iter().map(|v| v.to_bits()).collect();
            (f.name, f.stage, f.iter, f.nx, f.ny, bits)
        })
        .collect()
}

/// The frames of a traced run, with nothing dropped.
fn frames_of(report: &FlowReport) -> Vec<FrameSig> {
    let trace = report.trace.as_ref().expect("trace present at Full");
    assert_eq!(trace.dropped_events, 0, "the cap is generous for this flow");
    signatures(&trace.frames)
}

#[test]
fn field_capture_leaves_flow_outputs_bitwise_identical() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, c) = small_design();
    let o = opts();

    let mut first: Option<Vec<FrameSig>> = None;
    for threads in [1usize, 4, 8] {
        let off = run_at(&n, &c, &o, threads, Level::Off);
        let full = run_at(&n, &c, &o, threads, Level::Full);
        assert_same_outputs(&off, &full);
        let sigs = frames_of(&full);
        let names: Vec<&str> = sigs.iter().map(|(name, ..)| *name).collect();
        for name in [
            "place.density_overflow",
            "place.displacement",
            "route.congestion",
        ] {
            assert!(names.contains(&name), "{name} recorded, got {names:?}");
        }
        // Frames are deterministic per flow, independent of the
        // worker-thread count: candidate placements on helper threads
        // never record.
        match &first {
            Some(base) => assert_eq!(base, &sigs, "frames differ at {threads} threads"),
            None => first = Some(sigs),
        }
    }

    // Repeat run at one thread: the frames reproduce exactly.
    let again = run_at(&n, &c, &o, 1, Level::Full);
    assert_eq!(
        first.expect("first run recorded"),
        frames_of(&again),
        "frames differ across runs"
    );
}

/// Frames are a record kind of `Full`: a run traced at `Spans` has a
/// trace but no frames, and its outputs match the untraced run.
#[test]
fn field_capture_composes_with_full_tracing() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, c) = small_design();
    let o = opts();
    let off = run_at(&n, &c, &o, 4, Level::Off);
    assert!(off.trace.is_none());
    let spans = run_at(&n, &c, &o, 4, Level::Spans);
    assert_same_outputs(&off, &spans);
    let trace = spans.trace.as_ref().expect("trace present at Spans");
    assert!(trace.frames.is_empty(), "no frames below Full");
    let full = run_at(&n, &c, &o, 4, Level::Full);
    assert!(!frames_of(&full).is_empty(), "frames recorded at Full");
}

/// The doctor on a real run: the hermetic gate-options Aes flow at
/// scale 0.01 yields exactly these verdicts.
#[test]
fn doctor_verdicts_on_a_real_capture_are_pinned() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let bench = cp_bench::support::Bench::generate_at(DesignProfile::Aes, 0.01);
    let report = cp_bench::qor_gate::run_traced(&bench, &cp_bench::qor_gate::gate_options())
        .expect("hermetic flow runs");
    let trace = report.trace.expect("trace present at Full");
    let verdicts = cp_trace::fields::diagnose(&trace.frames);
    let got: Vec<(&str, &str, &str)> = verdicts
        .iter()
        .map(|v| (v.kind.as_str(), v.stage.as_str(), v.evidence.as_str()))
        .collect();
    assert_eq!(
        got,
        [
            (
                "hotspot-persistence",
                "cluster placement",
                "1 bin(s) stay overloaded in >= 12/12 density frames; worst at bin (1, 0) of 2x2, final overflow 133.4951"
            ),
            (
                "hotspot-persistence",
                "flat placement",
                "1 bin(s) stay overloaded in >= 4/5 density frames; worst at bin (5, 5) of 7x7, final overflow 3.6100"
            ),
            (
                "displacement-conflict",
                "cluster placement",
                "spreading displacement is not decaying: last-quarter mean 6.6704e1 vs first-quarter 4.4063e1 over 12 frames"
            ),
        ]
    );
}
