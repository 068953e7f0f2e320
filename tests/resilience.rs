//! Resilience contract of the flow, without the `fault-injection`
//! feature: cancellation surfaces as a typed error (never a panic or a
//! partially-mutated report), checkpoints written at stage boundaries
//! resume to bitwise-identical results at any thread count, and
//! deadline/budget interrupts carry their diagnosis.

use std::path::PathBuf;

use cp_core::flow::{run_flow, FlowOptions, FlowReport, ShapeMode};
use cp_core::{
    run_flow_resilient, stages, Checkpoint, ClusteringOptions, FlowError, RecoveryEvent,
    ResilienceOptions, RunControl,
};
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::{Constraints, Netlist};
use cp_resilience::sites;
use std::time::Duration;

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

fn bench() -> (Netlist, Constraints) {
    GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 128.0)
        .seed(7)
        .generate_with_constraints()
}

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cp-resilience-tests");
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir.join(format!("{}-{tag}.json", std::process::id()))
}

fn resilient(
    n: &Netlist,
    c: &Constraints,
    res: &ResilienceOptions,
) -> Result<FlowReport, FlowError> {
    run_flow_resilient(n, c, &opts(), res)
}

/// Total counted checks of a clean run: boundary checks + placer outer
/// iterations.
fn clean_run_checks(n: &Netlist, c: &Constraints) -> u64 {
    let control = RunControl::unlimited();
    let clean = ResilienceOptions {
        control: control.clone(),
        ..Default::default()
    };
    resilient(n, c, &clean).expect("clean resilient run");
    control.checks()
}

#[test]
fn resilient_run_is_passive_and_thread_count_invariant() {
    let (n, c) = bench();
    let reference = run_flow(&n, &c, &opts()).expect("plain flow runs");
    for threads in [1usize, 4] {
        let report = cp_parallel::with_threads(threads, || {
            resilient(&n, &c, &ResilienceOptions::default()).expect("resilient flow runs")
        });
        assert!(
            report.deterministic_eq(&reference),
            "unlimited resilient run must match the plain flow at {threads} threads"
        );
    }
}

#[test]
fn resume_is_bitwise_identical_at_stage_boundaries() {
    let (n, c) = bench();
    let reference = run_flow(&n, &c, &opts()).expect("plain flow runs");

    // Cancelling on the k-th check for k across the clean run's range
    // interrupts at every kind of boundary the flow has.
    let total = clean_run_checks(&n, &c);
    assert!(total > 6, "flow should count more than the 6 stage checks");

    let mut stages_seen = Vec::new();
    for k in [2, 3, 4, total - 2, total - 1, total] {
        let path = ckpt_path(&format!("boundary-{k}"));
        let _ = std::fs::remove_file(&path);
        let interrupted = ResilienceOptions {
            control: RunControl::unlimited().cancel_after_checks(k),
            checkpoint: Some(path.clone()),
            resume_from: None,
        };
        let err = resilient(&n, &c, &interrupted).expect_err("run must be cancelled");
        let flow = err
            .interrupted()
            .expect("cancellation is a typed interrupt");
        assert_eq!(flow.checkpoint.as_deref(), Some(path.as_path()));
        let ckpt = Checkpoint::load(&path).expect("interrupted run leaves a loadable checkpoint");
        if !stages_seen.contains(&ckpt.stage) {
            stages_seen.push(ckpt.stage);
        }

        // Resume across thread counts: both must reproduce the
        // reference bit for bit and record the resume.
        for threads in [1usize, 4] {
            let resume = ResilienceOptions {
                control: RunControl::unlimited(),
                checkpoint: None,
                resume_from: Some(path.clone()),
            };
            let resumed = cp_parallel::with_threads(threads, || {
                resilient(&n, &c, &resume).expect("resume completes")
            });
            assert!(
                resumed.deterministic_eq(&reference),
                "resume from `{}` (cancel at check {k}, {threads} threads) must be \
                 bitwise-identical to the clean run",
                ckpt.stage
            );
            assert!(
                resumed
                    .diagnostics
                    .events
                    .iter()
                    .any(|e| matches!(e, RecoveryEvent::Resumed { stage } if *stage == ckpt.stage)),
                "resumed run must record where it picked up"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    assert!(
        stages_seen.contains(&stages::CLUSTERING)
            && stages_seen.contains(&stages::SHAPING)
            && stages_seen.contains(&stages::FLAT_PLACEMENT),
        "boundary sweep should checkpoint early, middle and late stages, saw {stages_seen:?}"
    );
    assert!(
        stages_seen.len() >= 3,
        "expected at least 3 distinct checkpoint stages, saw {stages_seen:?}"
    );
}

/// A checkpoint written before the format change (version 1, with the
/// two sub-netlist cache counters) and a file that is not a checkpoint
/// are refused by the resume with typed errors, not resumed on a guess.
#[test]
fn unusable_checkpoints_are_refused_on_resume() {
    let (n, c) = bench();
    let path = ckpt_path("refused");
    for (text, reason) in [
        (
            include_str!("regressions/checkpoint_v1.json"),
            "unsupported checkpoint version 1 (expected 2)",
        ),
        (
            include_str!("regressions/checkpoint_negative_assignment.json"),
            "clustering: assignment[1]: expected an integer",
        ),
        ("{\"version\": 2}", "schema violations"),
    ] {
        std::fs::write(&path, text).expect("write checkpoint");
        let resume = ResilienceOptions {
            resume_from: Some(path.clone()),
            ..Default::default()
        };
        match resilient(&n, &c, &resume) {
            Err(FlowError::Checkpoint { reason: got }) => {
                assert!(got.contains(reason), "{got}");
            }
            other => panic!("expected a checkpoint error ({reason}), got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The six stage boundaries are checked in pipeline order, each under its
/// own stage label: cancelling on the k-th counted check for every k of a
/// clean run walks through them, with only the placer's per-iteration
/// checks and the shaping fan-out's polls in between.
#[test]
fn cancellation_walks_the_stage_boundaries_in_pipeline_order() {
    let (n, c) = bench();
    let total = clean_run_checks(&n, &c);
    let boundaries = [
        (sites::FLOW_START, stages::CLUSTERING),
        (sites::FLOW_SHAPING, stages::SHAPING),
        (sites::FLOW_CLUSTER_PLACEMENT, stages::CLUSTER_PLACEMENT),
        (sites::FLOW_FLAT_PLACEMENT, stages::FLAT_PLACEMENT),
        (sites::FLOW_LEGALIZE, stages::LEGALIZE_REFINE),
        (sites::FLOW_PPA, stages::PPA),
    ];
    let mut seen = Vec::new();
    for k in 1..=total {
        let res = ResilienceOptions {
            control: RunControl::unlimited().cancel_after_checks(k),
            ..Default::default()
        };
        let err = resilient(&n, &c, &res).expect_err("run must be cancelled");
        let flow = err
            .interrupted()
            .expect("cancellation is a typed interrupt");
        let site = flow.interrupt.site;
        if site.starts_with("flow.") {
            if !seen.contains(&(site, flow.stage)) {
                seen.push((site, flow.stage));
            }
        } else {
            assert!(
                [sites::PLACE_OUTER, sites::VPR_CANDIDATE, sites::POOL_CHUNK].contains(&site),
                "unexpected interruption site `{site}` at check {k}"
            );
        }
    }
    assert_eq!(seen, boundaries);
}

#[test]
fn cancellation_is_always_typed_and_never_partial() {
    let (n, c) = bench();
    for k in [1u64, 2, 3, 5, 8] {
        let res = ResilienceOptions {
            control: RunControl::unlimited().cancel_after_checks(k),
            ..Default::default()
        };
        match resilient(&n, &c, &res) {
            Ok(_) => panic!("cancel at check {k} must not complete"),
            Err(FlowError::Cancelled(flow)) => {
                assert!(
                    stages::ALL.contains(&flow.stage),
                    "interrupt stage `{}` must be a pipeline stage",
                    flow.stage
                );
                assert!(flow.checkpoint.is_none(), "no checkpoint was configured");
                // The partial diagnostics carry only events from stages
                // that ran to completion — rendering them must not panic.
                let _ = format!(
                    "{} / {:?} / {:?}",
                    flow.interrupt, flow.best, flow.diagnostics
                );
            }
            Err(other) => panic!("cancel at check {k} surfaced as {other}"),
        }
    }
}

#[test]
fn expired_deadline_is_a_typed_interrupt() {
    let (n, c) = bench();
    let res = ResilienceOptions {
        control: RunControl::unlimited().with_deadline(Duration::ZERO),
        ..Default::default()
    };
    match resilient(&n, &c, &res) {
        Err(FlowError::DeadlineExceeded(flow)) => {
            assert_eq!(
                flow.stage,
                stages::CLUSTERING,
                "nothing ran before the check"
            );
        }
        other => panic!("expected a deadline interrupt, got {other:?}"),
    }
}

#[test]
fn tripped_memory_budget_reports_heap_and_budget() {
    let (n, c) = bench();
    let res = ResilienceOptions {
        // Deterministic fake probe: 2 bytes live against a 1-byte budget
        // trips on the first counted check, no allocator feature needed.
        control: RunControl::unlimited()
            .with_memory_budget(1)
            .with_heap_probe(|| 2),
        ..Default::default()
    };
    match resilient(&n, &c, &res) {
        Err(FlowError::BudgetExceeded(flow)) => {
            assert_eq!(flow.interrupt.heap_bytes, 2);
            assert_eq!(flow.interrupt.budget_bytes, 1);
        }
        other => panic!("expected a budget interrupt, got {other:?}"),
    }
}
