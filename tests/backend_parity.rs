//! Backend parity contract of the spreading seam (`PlacerBackendKind`):
//! the default options run the incumbent B2B spreading bitwise-identically
//! to an explicit `PlacerBackendKind::B2b` at every thread count, the eDensity
//! backend is itself bitwise thread-invariant, and checkpoint/resume
//! reproduces an eDensity run bit for bit — the refactor added a
//! dispatch point, not a numerics change. Under either backend the
//! placer's `place.cg.*` telemetry counts its lower-bound solves only.
//!
//! The trace level and the metrics registry are process-global, so every
//! test here holds one lock: the telemetry test then counts only its own
//! placements.

mod common;

use cp_bench::qor_gate;
use cp_core::flow::{run_flow, FlowOptions, ShapeMode};
use cp_core::ClusteringOptions;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::Floorplan;
use cp_place::{GlobalPlacer, PlacementProblem, PlacerBackendKind, PlacerOptions};
use cp_trace::{Level, MetricValue, TraceReport};
use std::sync::{Mutex, MutexGuard};

const THREADS: [usize; 3] = [1, 4, 8];

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn default_options_match_explicit_b2b_backend_at_every_thread_count() {
    let _lock = serialized();
    let b = qor_gate::gate_bench();
    let default_opts = qor_gate::gate_options();
    assert_eq!(
        default_opts.placer.backend,
        PlacerBackendKind::B2b,
        "b2b must stay the default backend"
    );
    let reference = run_flow(&b.netlist, &b.constraints, &default_opts).expect("flow runs");
    let mut explicit = qor_gate::gate_options();
    explicit.placer.backend = PlacerBackendKind::B2b;
    for threads in THREADS {
        let report = cp_parallel::with_threads(threads, || {
            run_flow(&b.netlist, &b.constraints, &explicit).expect("flow runs")
        });
        assert!(
            report.deterministic_eq(&reference),
            "explicit B2b backend at {threads} threads must be bitwise-identical to the \
             default options"
        );
    }
}

#[test]
fn edensity_flow_is_thread_count_invariant() {
    let _lock = serialized();
    let b = qor_gate::gate_bench();
    let mut opts = qor_gate::gate_options();
    opts.placer.backend = PlacerBackendKind::EDensity;
    let reference = run_flow(&b.netlist, &b.constraints, &opts).expect("flow runs");
    assert!(
        reference.hpwl.is_finite() && reference.hpwl > 0.0,
        "eDensity flow must produce a real placement"
    );
    for threads in THREADS {
        let report = cp_parallel::with_threads(threads, || {
            run_flow(&b.netlist, &b.constraints, &opts).expect("flow runs")
        });
        assert!(
            report.deterministic_eq(&reference),
            "eDensity backend at {threads} threads must be bitwise-identical"
        );
    }
}

/// Reduced-effort options on a tiny design for the checkpoint/resume loop,
/// mirroring `tests/resilience.rs` but with the eDensity backend.
fn edensity_resume_opts() -> FlowOptions {
    let mut opts = FlowOptions {
        clustering: ClusteringOptions {
            avg_cluster_size: 50,
            path_count: 1000,
            ..Default::default()
        },
        vpr_min_instances: 60,
        ..Default::default()
    }
    .shape_mode(ShapeMode::Vpr);
    opts.placer.backend = PlacerBackendKind::EDensity;
    opts
}

#[test]
fn edensity_checkpoint_resume_is_bitwise_identical() {
    let _lock = serialized();
    let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 128.0)
        .seed(11)
        .generate_with_constraints();
    let opts = edensity_resume_opts();
    let reference = run_flow(&n, &c, &opts).expect("plain eDensity flow runs");

    common::assert_resumes_bitwise(&n, &c, &opts, &reference, "edensity");
}

/// One placement traced at `Full` from a cleared registry; the level is
/// back at `Off` afterwards, also when the placement panics.
fn traced_place(problem: &PlacementProblem, backend: PlacerBackendKind) -> (usize, TraceReport) {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            cp_trace::set_level(Level::Off);
        }
    }
    let _reset = Reset;
    cp_trace::set_level(Level::Full);
    cp_trace::clear();
    let root = cp_trace::span("test.place");
    let placed = GlobalPlacer::new(PlacerOptions {
        backend,
        ..PlacerOptions::default()
    })
    .place(problem)
    .expect("placement succeeds");
    let report = cp_trace::take_report(root).expect("traced at Full");
    (placed.iterations, report)
}

/// `place.cg.*` describes the B2B lower bound: two solves (X and Y) per
/// outer iteration. The eDensity spreader's Poisson solves run on the same
/// CG loop and must not be counted with them.
#[test]
fn cg_telemetry_counts_two_lower_bound_solves_per_iteration() {
    let _lock = serialized();
    let netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(0.01)
        .seed(3)
        .generate();
    let fp = Floorplan::try_for_netlist(&netlist, 0.6, 1.0).expect("valid geometry");
    let problem = PlacementProblem::from_netlist(&netlist, &fp);
    for backend in [PlacerBackendKind::B2b, PlacerBackendKind::EDensity] {
        let (iterations, report) = traced_place(&problem, backend);
        assert!(iterations > 0, "{backend:?}: the placer iterated");
        let solves = 2 * iterations as u64;
        let metric = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value.clone())
        };
        assert_eq!(
            metric("place.cg.solves"),
            Some(MetricValue::Counter(solves)),
            "{backend:?}: {iterations} outer iterations"
        );
        for hist in ["place.cg.iterations", "place.cg.residual"] {
            match metric(hist) {
                Some(MetricValue::Histogram { count, .. }) => {
                    assert_eq!(count, solves, "{backend:?}: {hist}");
                }
                other => panic!("{backend:?}: {hist} is {other:?}"),
            }
        }
    }
}
