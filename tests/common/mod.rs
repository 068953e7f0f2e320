//! Resume checks shared by the flow's test suites.
//!
//! A run writes one progressive checkpoint, so a clean run leaves only the
//! file of its last checkpointed stage (flat placement). The checkpoint a
//! run that died after an earlier stage would have left is that file with
//! the later stages' outputs cleared: every stage's output is the
//! deterministic output of the stages before it, and a checkpoint's stage
//! is the last one whose output is present. The recovery events match too
//! when the clean run recorded none.

use std::path::PathBuf;

use cp_core::flow::{FlowOptions, FlowReport};
use cp_core::{run_flow_resilient, stages, Checkpoint, ResilienceOptions};
use cp_netlist::{Constraints, Netlist};

/// A per-process checkpoint path under the system temp directory.
pub fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cp-resume-tests");
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir.join(format!("{}-{tag}.json", std::process::id()))
}

/// The checkpoint of every stage boundary, in pipeline order, derived from
/// the final checkpoint of a clean run.
fn checkpoints_by_stage(last: &Checkpoint) -> Vec<Checkpoint> {
    let mut derived = vec![last.clone()];
    let mut cp = last.clone();
    cp.flat_placement = None;
    derived.push(cp.clone());
    cp.cluster_placement = None;
    derived.push(cp.clone());
    cp.shaping = None;
    derived.push(cp);
    derived.reverse();
    let derived_stages: Vec<&str> = derived.iter().map(Checkpoint::stage).collect();
    assert_eq!(derived_stages, stages::ALL[..4], "a complete clustered run");
    derived
}

/// Runs the flow once with checkpointing and requires a resume from each
/// stage boundary's checkpoint, at 1 and 4 threads, to reproduce
/// `reference` bit for bit and to time only the stages after it.
pub fn assert_resumes_bitwise(
    netlist: &Netlist,
    constraints: &Constraints,
    options: &FlowOptions,
    reference: &FlowReport,
    tag: &str,
) {
    let path = ckpt_path(tag);
    let checkpointed = ResilienceOptions {
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    let clean = run_flow_resilient(netlist, constraints, options, &checkpointed)
        .expect("checkpointed flow runs");
    assert!(
        clean.deterministic_eq(reference),
        "checkpointing is passive"
    );
    assert!(
        clean.diagnostics.is_clean(),
        "derived checkpoints carry no recovery events, so the run must record none: {:?}",
        clean.diagnostics
    );
    let last = Checkpoint::load(&path).expect("the run leaves a loadable checkpoint");
    let resume = ResilienceOptions {
        resume_from: Some(path.clone()),
        ..Default::default()
    };
    for cp in checkpoints_by_stage(&last) {
        cp.save(&path).expect("write derived checkpoint");
        for threads in [1usize, 4] {
            let resumed = cp_parallel::with_threads(threads, || {
                run_flow_resilient(netlist, constraints, options, &resume)
                    .expect("resume completes")
            });
            assert!(
                resumed.deterministic_eq(reference),
                "resume from `{}` at {threads} threads must be bitwise-identical to the clean run",
                cp.stage()
            );
            // Restored stages have no timing entry.
            let timed: Vec<&str> = resumed.timings.stages.iter().map(|&(s, _)| s).collect();
            let after = stages::ALL
                .iter()
                .position(|&s| s == cp.stage())
                .expect("a stage");
            assert_eq!(
                timed,
                stages::ALL[after + 1..],
                "resume from `{}` times only the later stages",
                cp.stage()
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
