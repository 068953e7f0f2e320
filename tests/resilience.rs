//! Checkpoint/resume contract of the flow: a run with checkpointing is
//! passive and thread-count invariant, a resume from any stage boundary
//! reproduces the clean run bitwise at any thread count, and a checkpoint
//! that cannot be resumed is refused with a typed error.

mod common;

use cp_core::flow::{run_flow, FlowOptions, FlowReport, ShapeMode};
use cp_core::{run_flow_resilient, Checkpoint, ClusteringOptions, FlowError, ResilienceOptions};
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::{ClusterShape, Constraints, Netlist};

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

fn resilient(
    n: &Netlist,
    c: &Constraints,
    res: &ResilienceOptions,
) -> Result<FlowReport, FlowError> {
    run_flow_resilient(n, c, &opts(), res)
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
            "a run without checkpoints must match the plain flow at {threads} threads"
        );
    }
}

#[test]
fn resume_is_bitwise_identical_at_stage_boundaries() {
    let (n, c) = bench();
    let reference = run_flow(&n, &c, &opts()).expect("plain flow runs");
    common::assert_resumes_bitwise(&n, &c, &opts(), &reference, "boundaries");
}

/// A checkpoint written before the format change (version 1, with the
/// two sub-netlist cache counters), a file that is not a checkpoint and
/// checkpoints of this run whose restored state does not fit the design
/// are refused by the resume with typed errors, not resumed on a guess.
#[test]
fn unusable_checkpoints_are_refused_on_resume() {
    let (n, c) = bench();
    let path = common::ckpt_path("refused");
    let checkpointed = ResilienceOptions {
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    resilient(&n, &c, &checkpointed).expect("checkpointed flow runs");
    let own = Checkpoint::load(&path).expect("the run leaves a loadable checkpoint");
    let edited = |edit: fn(&mut Checkpoint)| {
        let mut cp = own.clone();
        edit(&mut cp);
        cp.to_json()
    };
    // One cluster position short, as a run that died after cluster
    // placement would have left it.
    let short_clusters = edited(|cp| {
        cp.flat_placement = None;
        let placed = cp
            .cluster_placement
            .as_mut()
            .expect("cluster placement ran");
        placed.pop();
    });
    let foreign_cluster = edited(|cp| {
        let shaping = cp.shaping.as_mut().expect("shaping ran");
        shaping.shapes.push((1_000_000, ClusterShape::UNIFORM));
    });
    let short_cells = edited(|cp| {
        let placed = cp.flat_placement.as_mut().expect("flat placement ran");
        placed.pop();
    });
    for (text, reason) in [
        (
            include_str!("regressions/checkpoint_v1.json"),
            "unsupported checkpoint version 1 (expected 3)",
        ),
        (
            include_str!("regressions/checkpoint_negative_assignment.json"),
            "clustering: assignment[1]: expected an integer",
        ),
        ("{\"version\": 3}", "schema violations"),
        (
            short_clusters.as_str(),
            "cluster placement state does not fit the design",
        ),
        (
            foreign_cluster.as_str(),
            "shaping state does not fit the design: cluster 1000000 of",
        ),
        (
            short_cells.as_str(),
            "flat placement state does not fit the design",
        ),
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

/// A version-2 checkpoint (with the `stage`, `shaped` and `diverged` keys
/// version 3 dropped) is refused with a typed error naming its version,
/// before its fingerprint or state is looked at.
#[test]
fn version_2_checkpoint_is_refused_naming_its_version() {
    let (n, c) = bench();
    let path = common::ckpt_path("v2");
    std::fs::write(&path, include_str!("regressions/checkpoint_v2.json")).expect("write");
    let resume = ResilienceOptions {
        resume_from: Some(path.clone()),
        ..Default::default()
    };
    match resilient(&n, &c, &resume) {
        Err(FlowError::Checkpoint { reason }) => {
            assert!(
                reason.contains("unsupported checkpoint version 2"),
                "{reason}"
            );
        }
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}
