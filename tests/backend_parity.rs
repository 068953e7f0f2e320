//! Backend parity contract of the spreading seam (`PlacerBackendKind`):
//! the default options run the incumbent B2B spreading bitwise-identically
//! to an explicit `PlacerBackendKind::B2b` at every thread count, the eDensity
//! backend is itself bitwise thread-invariant, and checkpoint/resume
//! reproduces an eDensity run bit for bit — the refactor added a
//! dispatch point, not a numerics change.

use cp_bench::qor_gate;
use cp_core::flow::{run_flow, FlowOptions, ShapeMode};
use cp_core::{run_flow_resilient, Checkpoint, ClusteringOptions, ResilienceOptions, RunControl};
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_place::PlacerBackendKind;
use std::path::PathBuf;

const THREADS: [usize; 3] = [1, 4, 8];

#[test]
fn default_options_match_explicit_b2b_backend_at_every_thread_count() {
    let b = qor_gate::gate_bench();
    let default_opts = qor_gate::gate_options();
    assert_eq!(
        default_opts.placer.backend,
        PlacerBackendKind::B2b,
        "b2b must stay the default backend"
    );
    let reference = run_flow(&b.netlist, &b.constraints, &default_opts).expect("flow runs");
    let explicit = qor_gate::gate_options().backend(PlacerBackendKind::B2b);
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
    let b = qor_gate::gate_bench();
    let opts = qor_gate::gate_options().backend(PlacerBackendKind::EDensity);
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

/// Reduced-effort options on a tiny design for the interrupt/resume loop,
/// mirroring `tests/resilience.rs` but with the eDensity backend.
fn edensity_resume_opts() -> FlowOptions {
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
    .backend(PlacerBackendKind::EDensity)
}

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cp-backend-parity-tests");
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir.join(format!("{}-{tag}.json", std::process::id()))
}

#[test]
fn edensity_checkpoint_resume_is_bitwise_identical() {
    let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 128.0)
        .seed(11)
        .generate_with_constraints();
    let opts = edensity_resume_opts();
    let reference = run_flow(&n, &c, &opts).expect("plain eDensity flow runs");

    // Count the clean run's cancellation checks, then interrupt in the
    // middle and at the tail, checkpointing at the boundary.
    let control = RunControl::unlimited();
    let clean = ResilienceOptions {
        control: control.clone(),
        ..Default::default()
    };
    run_flow_resilient(&n, &c, &opts, &clean).expect("clean resilient run");
    let total = control.checks();
    assert!(total > 2, "flow should count cancellation checks");

    for k in [total / 2, total - 1] {
        let path = ckpt_path(&format!("edensity-{k}"));
        let _ = std::fs::remove_file(&path);
        let interrupted = ResilienceOptions {
            control: RunControl::unlimited().cancel_after_checks(k),
            checkpoint: Some(path.clone()),
            resume_from: None,
        };
        let err =
            run_flow_resilient(&n, &c, &opts, &interrupted).expect_err("run must be cancelled");
        err.interrupted()
            .expect("cancellation is a typed interrupt");
        let ckpt = Checkpoint::load(&path).expect("interrupted run leaves a loadable checkpoint");

        for threads in [1usize, 4] {
            let resume = ResilienceOptions {
                control: RunControl::unlimited(),
                checkpoint: None,
                resume_from: Some(path.clone()),
            };
            let resumed = cp_parallel::with_threads(threads, || {
                run_flow_resilient(&n, &c, &opts, &resume).expect("resume completes")
            });
            assert!(
                resumed.deterministic_eq(&reference),
                "eDensity resume from `{}` (cancel at check {k}, {threads} threads) must be \
                 bitwise-identical to the clean run",
                ckpt.stage
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
