//! Tracing must never change results: the flow's outputs are bitwise
//! identical with tracing off, spans-only and full telemetry, at one
//! thread and at four. The trace level is process-global state, so every
//! test here serializes on one mutex before touching it and restores
//! `Off` when done.

use cp_core::cluster::ppa_aware_clustering;
use cp_core::flow::{
    run_default_flow, run_flow, run_flow_resilient, run_flow_with_assignment, FlowOptions,
    FlowReport, ResilienceOptions, ShapeMode, ShapingStats,
};
use cp_core::{Checkpoint, ClusteringOptions};
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::{Constraints, Netlist};
use cp_place::hpwl::raw_hpwl;
use cp_place::problem::PlacementProblem;
use cp_place::{legalize, GlobalPlacer, PlacerOptions};
use cp_route::{route_placed_netlist, RouterOptions};
use cp_timing::propagate_activity;
use cp_trace::Level;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the process-global trace level.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at the given trace level, restoring `Off` afterwards (also on
/// panic, so a failing assertion doesn't poison the next test's level).
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
}

fn assert_same_outputs(a: &FlowReport, b: &FlowReport) {
    assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
    assert_eq!(a.ppa, b.ppa);
    assert_eq!(a.cluster_count, b.cluster_count);
    assert_eq!(a.diagnostics, b.diagnostics);
    assert_eq!(a.shaping, b.shaping);
}

/// The contract every flow entry point shares: outputs ignore the trace
/// level and the thread count, and the trace is `root` over exactly the
/// stages that ran, in pipeline order, with the timings derived from them.
/// A clustering runtime that came from outside the run (a supplied
/// assignment, a checkpoint) is `carried` into the timings without a span.
/// Returns the untraced report.
fn assert_tracing_is_inert(
    run: &dyn Fn() -> FlowReport,
    root: &str,
    stages: &[&str],
    carried: Option<f64>,
) -> FlowReport {
    let off = at_level(Level::Off, run);
    assert!(off.trace.is_none(), "no trace when tracing is off");
    for (threads, level) in [
        (1, Level::Spans),
        (4, Level::Spans),
        (1, Level::Full),
        (4, Level::Full),
    ] {
        let traced = at_level(level, || cp_parallel::with_threads(threads, run));
        assert_same_outputs(&off, &traced);
        let trace = traced
            .trace
            .as_ref()
            .expect("trace present when tracing is on");
        assert_eq!(trace.root_span().map(|s| s.name), Some(root));
        // The stage spans are the flow's stages, in pipeline order, and
        // the timings are derived from them (direct root children that
        // aren't stages — e.g. netlist.validate — are filtered out).
        let stage_names: Vec<&str> = trace
            .stage_seconds()
            .iter()
            .map(|&(s, _)| s)
            .filter(|s| cp_core::stages::ALL.contains(s))
            .collect();
        assert_eq!(stage_names, stages);
        let timed: Vec<&str> = traced.timings.stages.iter().map(|&(n, _)| n).collect();
        let carried_stage = carried.map(|_| cp_core::stages::CLUSTERING);
        assert_eq!(timed, [carried_stage.as_slice(), stages].concat());
        for (name, s) in &traced.timings.stages {
            let measured = trace
                .stage_seconds()
                .iter()
                .find(|(n2, _)| n2 == name)
                .map(|&(_, s2)| s2);
            assert_eq!(measured.or(carried), Some(*s));
        }
        assert_eq!(
            trace.spans_named("vpr.cluster").count() > 0,
            stages.contains(&cp_core::stages::SHAPING),
            "per-cluster shape-search spans recorded exactly when shaping ran"
        );
        if level == Level::Full && stages.contains(&cp_core::stages::FLAT_PLACEMENT) {
            assert!(
                trace.series.iter().any(|r| r.name == "place.outer"),
                "placer convergence series recorded at Full"
            );
        }
    }
    off
}

#[test]
fn tracing_leaves_flow_outputs_bitwise_identical() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, c) = small_design();
    let o = opts().shape_mode(ShapeMode::Vpr);
    let all = cp_core::stages::ALL;
    let clustered = assert_tracing_is_inert(
        &|| run_flow(&n, &c, &o).expect("flow runs"),
        "flow.clustered",
        &all,
        None,
    );

    // The artifacts `tracetool explain --run … --report-out/--chrome-out`
    // writes from such a run: the structured report conforms to its
    // schema, the Chrome timeline holds one complete event per stage, and
    // the stage spans partition the root span up to inter-stage glue.
    let full = at_level(Level::Full, || run_flow(&n, &c, &o).expect("flow runs"));
    let trace = full.trace.as_ref().expect("traced at Full");
    // The decoder validates against the schema before it reads, and what
    // it reads is what the live report converts to.
    let decoded = cp_trace::ReportDoc::from_json(&trace.to_json()).expect("report decodes");
    assert!(decoded == cp_trace::ReportDoc::from(trace));
    let chrome = cp_trace::json::parse(&cp_trace::chrome_trace(&[trace])).expect("timeline parses");
    let events = chrome
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    for stage in all {
        let complete = events.iter().filter(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some(stage)
                && e.get("ph").and_then(|p| p.as_str()) == Some("X")
        });
        assert_eq!(complete.count(), 1, "one complete event for `{stage}`");
    }
    let stage_sum: f64 = trace.stage_seconds().iter().map(|&(_, s)| s).sum();
    let ratio = stage_sum / trace.duration_seconds();
    assert!(
        (0.95..=1.05).contains(&ratio),
        "stage spans sum to {:.1}% of the root span",
        ratio * 100.0
    );

    // The flat baseline: the same sequence minus the three cluster stages.
    let flat = assert_tracing_is_inert(
        &|| run_default_flow(&n, &c, &o).expect("flow runs"),
        "flow.flat",
        &all[3..],
        None,
    );
    assert_eq!(flat.cluster_count, 0);
    assert_eq!(flat.shaping, ShapingStats::default());

    // A supplied assignment: no clustering stage, its runtime carried.
    let clustering = ppa_aware_clustering(&n, &c, &o.clustering).expect("clusters");
    let given = assert_tracing_is_inert(
        &|| {
            run_flow_with_assignment(&n, &c, &clustering.assignment, clustering.runtime, &o)
                .expect("flow runs")
        },
        "flow.clustered",
        &all[1..],
        Some(clustering.runtime),
    );
    assert!(given.deterministic_eq(&clustered));
    assert_eq!(
        given.timings.get(cp_core::stages::CLUSTERING),
        Some(clustering.runtime)
    );

    // The resilient entry point with nothing to be resilient against.
    let passive = ResilienceOptions::default();
    let resilient = assert_tracing_is_inert(
        &|| run_flow_resilient(&n, &c, &o, &passive).expect("flow runs"),
        "flow.clustered",
        &all,
        None,
    );
    assert!(resilient.deterministic_eq(&clustered));

    // A resumed run: the stages restored from the checkpoint (everything
    // up to flat placement, after a complete run) have no span and no
    // timing entry; clustering's runtime is the checkpoint's.
    let dir = std::env::temp_dir().join("cp-trace-determinism-tests");
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let path = dir.join(format!("{}-resume.json", std::process::id()));
    let writing = ResilienceOptions {
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    run_flow_resilient(&n, &c, &o, &writing).expect("flow runs");
    let saved = Checkpoint::load(&path).expect("a complete run leaves a checkpoint");
    let resuming = ResilienceOptions {
        resume_from: Some(path.clone()),
        ..Default::default()
    };
    let resumed = assert_tracing_is_inert(
        &|| run_flow_resilient(&n, &c, &o, &resuming).expect("flow resumes"),
        "flow.clustered",
        &all[4..],
        Some(saved.clustering_runtime),
    );
    assert!(resumed.deterministic_eq(&clustered));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_off_runs_match_across_thread_counts() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, c) = small_design();
    let o = opts().shape_mode(ShapeMode::Hybrid {
        selector: None,
        top_k: 4,
    });
    let seq = at_level(Level::Full, || {
        cp_parallel::with_threads(1, || run_flow(&n, &c, &o).expect("flow runs"))
    });
    let par = at_level(Level::Full, || {
        cp_parallel::with_threads(4, || run_flow(&n, &c, &o).expect("flow runs"))
    });
    assert_same_outputs(&seq, &par);
    // The traced outputs also match the untraced ones.
    let off = at_level(Level::Off, || run_flow(&n, &c, &o).expect("flow runs"));
    assert_same_outputs(&off, &seq);
}

/// The router's work counts ride on its `route.global` span and in the
/// metrics registry; routing itself cannot see the trace level.
#[test]
fn routing_ignores_the_trace_level_and_publishes_its_maze_counts() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, _) = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 32.0)
        .seed(7)
        .generate_with_constraints();
    let fp = cp_netlist::Floorplan::try_for_netlist(&n, 0.6, 1.0).expect("floorplan");
    // Cells alternate between the two ends of the middle row, so every
    // net crosses the same corridor and most segments need the maze.
    let die = fp.die;
    let mid = 0.5 * (die.lly + die.ury);
    let mut positions: Vec<(f64, f64)> = (0..n.cell_count())
        .map(|k| {
            (
                if k % 2 == 0 {
                    die.llx + 1.0
                } else {
                    die.urx - 1.0
                },
                mid,
            )
        })
        .collect();
    positions.extend_from_slice(&fp.port_positions);
    let route =
        || route_placed_netlist(&n, &positions, &fp, &RouterOptions::default()).expect("routes");

    let off = at_level(Level::Off, route);
    assert!(
        off.mazed_segments > 0,
        "the placement must exercise the maze"
    );
    for level in [Level::Spans, Level::Full] {
        let (routed, trace) = at_level(level, || {
            let root = cp_trace::span("test.route");
            let routed = route();
            (routed, cp_trace::take_report(root).expect("tracing is on"))
        });
        assert_eq!(routed, off);
        let span = trace
            .spans_named("route.global")
            .next()
            .expect("router span");
        let count = |key: &str| match span.args.iter().find(|(k, _)| *k == key) {
            Some((_, cp_trace::ArgValue::U(v))) => *v,
            other => panic!("{key} missing from route.global: {other:?}"),
        };
        assert_eq!(count("route.mazed_segments"), off.mazed_segments as u64);
        assert_eq!(
            count("route.segments"),
            count("route.pattern_segments") + count("route.mazed_segments")
        );
        let (settled, window) = (
            count("route.maze.settled_nodes"),
            count("route.maze.window_nodes"),
        );
        assert!(0 < settled && settled <= window, "{settled} of {window}");
        // Every maze call is either certified by its bounds or searched.
        assert_eq!(
            count("route.maze.certified") + count("route.maze.searched"),
            count("route.mazed_segments")
        );
        assert!(count("route.maze.improved") <= count("route.maze.searched"));
        assert!(count("route.maze.bbox_nodes") <= window);
        // The span alone shows how saturated the routed field is.
        assert_eq!(
            count("route.overflow_edges"),
            off.congestion.overflow_edges() as u64
        );
        assert!(span.args.contains(&(
            "route.max_utilization",
            cp_trace::ArgValue::F(off.congestion.max_utilization())
        )));
        if level == Level::Full {
            assert!(cp_trace::counter_value("route.maze.settled_nodes") >= settled);
        }
    }
    cp_trace::clear();
}

/// The legalizer and the activity propagation publish their work counts
/// on their spans and cannot see the trace level.
#[test]
fn legalize_and_activity_ignore_the_trace_level_and_publish_their_counts() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 32.0)
        .seed(7)
        .generate_with_constraints();
    let fp = cp_netlist::Floorplan::try_for_netlist(&n, 0.6, 1.0).expect("floorplan");
    let problem = PlacementProblem::from_netlist(&n, &fp);
    let placer = PlacerOptions {
        max_iterations: 8,
        ..Default::default()
    };
    let placed = GlobalPlacer::new(placer)
        .place(&problem)
        .expect("places")
        .positions;
    let tail = || {
        let mut positions = placed.clone();
        let displacement = legalize(&problem, &fp, &mut positions).expect("legalizes");
        (positions, displacement, propagate_activity(&n, &c))
    };

    let off = at_level(Level::Off, tail);
    for level in [Level::Spans, Level::Full] {
        let (traced, trace) = at_level(level, || {
            let root = cp_trace::span("test.tail");
            let traced = tail();
            (traced, cp_trace::take_report(root).expect("tracing is on"))
        });
        assert_eq!(traced, off);
        let arg = |span: &str, key: &str| {
            let span = trace.spans_named(span).next().expect("span recorded");
            match span.args.iter().find(|(k, _)| *k == key) {
                Some((_, cp_trace::ArgValue::U(v))) => *v as f64,
                Some((_, cp_trace::ArgValue::F(v))) => *v,
                other => panic!("{key} missing from {}: {other:?}", span.name),
            }
        };
        let rows = arg("place.legalize", "rows");
        let cells = arg("place.legalize", "movables");
        let scored = arg("place.legalize", "rows_scored");
        assert_eq!(rows, fp.row_count() as f64);
        assert!(
            cells <= scored && scored < rows * cells,
            "the outward search stops early: {scored} of {rows} x {cells}"
        );
        assert_eq!(arg("place.legalize", "displacement_um"), off.1);
        let iterations = arg("timing.activity", "iterations");
        assert_eq!(arg("timing.activity", "nets"), n.net_count() as f64);
        assert_eq!(iterations, off.2.iterations as f64);
        let evals = arg("timing.activity", "gate_evals");
        assert!(evals > 0.0 && evals <= 2.0 * iterations * n.net_count() as f64);
        assert!(arg("timing.activity", "delta") >= 0.0);
    }
    cp_trace::clear();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Placement — the numerically hottest instrumented path (CG solves,
    /// spreading, series emission) — is bitwise invariant to the trace
    /// level and the thread budget on random problem seeds.
    #[test]
    fn placement_bits_ignore_trace_level(seed in 0u64..500) {
        let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (n, _) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(1.0 / 256.0)
            .seed(seed)
            .generate_with_constraints();
        let fp = cp_netlist::Floorplan::try_for_netlist(&n, 0.6, 1.0).expect("floorplan");
        let problem = PlacementProblem::from_netlist(&n, &fp);
        let placer = PlacerOptions {
            max_iterations: 8,
            cg_iterations: 20,
            ..Default::default()
        };
        let base = at_level(Level::Off, || {
            GlobalPlacer::new(placer).place(&problem).expect("places")
        });
        let base_hpwl = raw_hpwl(&problem, &base.positions);
        for (threads, level) in [(1usize, Level::Full), (4, Level::Full), (4, Level::Spans)] {
            let traced = at_level(level, || {
                cp_parallel::with_threads(threads, || {
                    GlobalPlacer::new(placer).place(&problem).expect("places")
                })
            });
            for (a, b) in base.positions.iter().zip(&traced.positions) {
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            let hpwl = raw_hpwl(&problem, &traced.positions);
            prop_assert_eq!(base_hpwl.to_bits(), hpwl.to_bits());
        }
        // Drain anything the traced placements buffered so later tests
        // start from a clean capture state.
        cp_trace::clear();
    }
}
