//! Spatial field-frame capture must be a pure observer: the flow's
//! outputs are bitwise identical with capture on and off, at 1, 4 and 8
//! worker threads — and the captured frames themselves (names, stages,
//! iteration indices, dims and every f32 bit) are identical across
//! thread counts and across repeat runs, because record sites only fire
//! on the flow thread under an open stage scope.
//!
//! Field capture is process-global state (like the trace level), so
//! every test serializes on one mutex and restores the off state when
//! done. The doctor's verdicts on one real capture are pinned here too.

use cp_core::flow::{run_flow, FlowOptions, FlowReport, ShapeMode};
use cp_core::ClusteringOptions;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::{Constraints, Netlist};
use cp_trace::{FrameCapture, Level};
use std::sync::Mutex;

/// Serializes tests that flip the process-global capture/trace state.
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

/// Runs the flow with field capture enabled at `threads` workers,
/// restoring the off state (and clearing trace buffers) afterwards.
fn run_with_fields(
    n: &Netlist,
    c: &Constraints,
    o: &FlowOptions,
    threads: usize,
    level: Level,
) -> (FlowReport, FrameCapture) {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            cp_trace::set_level(Level::Off);
            cp_trace::fields::disable();
            cp_trace::clear();
        }
    }
    let _reset = Reset;
    cp_trace::fields::enable(cp_trace::fields::DEFAULT_FRAME_BUDGET);
    cp_trace::set_level(level);
    let report = cp_parallel::with_threads(threads, || run_flow(n, c, o).expect("flow runs"));
    cp_trace::set_level(Level::Off);
    let capture = cp_trace::fields::take();
    (report, capture)
}

/// A bit-exact, comparable view of one frame.
type FrameSig = (String, String, u64, usize, usize, Vec<u32>);

fn signatures(capture: &FrameCapture) -> Vec<FrameSig> {
    capture
        .frames
        .iter()
        .map(|f| {
            let bits = f.values.iter().map(|v| v.to_bits()).collect();
            (f.name.clone(), f.stage.clone(), f.iter, f.nx, f.ny, bits)
        })
        .collect()
}

#[test]
fn field_capture_leaves_flow_outputs_bitwise_identical() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, c) = small_design();
    let o = opts();
    let off = run_flow(&n, &c, &o).expect("flow runs");

    let mut first: Option<(Vec<FrameSig>, String)> = None;
    for threads in [1usize, 4, 8] {
        let (report, capture) = run_with_fields(&n, &c, &o, threads, Level::Off);
        assert_same_outputs(&off, &report);
        assert!(
            report.trace.is_none(),
            "field capture must not imply tracing"
        );
        assert_eq!(capture.dropped_frames, 0, "budget generous for this flow");
        let sigs = signatures(&capture);
        assert!(
            !sigs.is_empty(),
            "record sites must fire when capture is on"
        );
        let names: Vec<&str> = sigs.iter().map(|(name, ..)| name.as_str()).collect();
        assert!(
            names.contains(&"place.density_overflow"),
            "density-overflow grids recorded, got {names:?}"
        );
        assert!(
            names.contains(&"place.displacement"),
            "displacement fields recorded, got {names:?}"
        );
        assert!(
            names.contains(&"route.congestion"),
            "router congestion map recorded, got {names:?}"
        );
        // Frames — and their serialized artifact — are deterministic per
        // flow, independent of the worker-thread count: candidate
        // placements on pool threads never record.
        let json = cp_trace::fields::to_json(&capture);
        match &first {
            Some((base_sigs, base_json)) => {
                assert_eq!(base_sigs, &sigs, "frames differ at {threads} threads");
                assert_eq!(base_json, &json, "artifact differs at {threads} threads");
            }
            None => first = Some((sigs, json)),
        }
    }

    // Repeat run at one thread: the capture reproduces exactly.
    let (report, capture) = run_with_fields(&n, &c, &o, 1, Level::Off);
    assert_same_outputs(&off, &report);
    let (base_sigs, base_json) = first.expect("first capture recorded");
    // The flow's artifact conforms to the schema `tracetool render` reads.
    let doc = cp_trace::json::parse(&base_json).expect("artifact parses");
    let schema = cp_trace::json::parse(cp_trace::fields::SCHEMA_JSON).expect("schema parses");
    assert_eq!(
        cp_trace::json::validate(&doc, &schema),
        Vec::<String>::new()
    );
    assert_eq!(base_sigs, signatures(&capture), "frames differ across runs");
    assert_eq!(
        base_json,
        cp_trace::fields::to_json(&capture),
        "artifact differs across runs"
    );
    // The written artifact reads back as the live capture.
    assert_eq!(cp_trace::fields::decode_json(&base_json), Ok(capture));
}

#[test]
fn field_capture_composes_with_full_tracing() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, c) = small_design();
    let o = opts();
    let off = run_flow(&n, &c, &o).expect("flow runs");
    let (report, capture) = run_with_fields(&n, &c, &o, 4, Level::Full);
    assert_same_outputs(&off, &report);
    assert!(report.trace.is_some(), "trace present at Full");
    assert!(
        !capture.frames.is_empty(),
        "frames captured alongside trace"
    );
    // With capture off again, nothing records even inside open scopes.
    let after = run_flow(&n, &c, &o).expect("flow runs");
    assert_same_outputs(&off, &after);
    assert!(cp_trace::fields::take().frames.is_empty());
}

/// The doctor on a real capture: the hermetic gate-options Aes flow at
/// scale 0.01 yields exactly these verdicts.
#[test]
fn doctor_verdicts_on_a_real_capture_are_pinned() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, capture) = cp_bench::qor_gate::run_hermetic_fields(DesignProfile::Aes, 0.01)
        .expect("hermetic flow runs");
    let verdicts = cp_trace::fields::diagnose(&capture.frames);
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
