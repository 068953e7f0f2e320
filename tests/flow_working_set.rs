//! Working-set ratchet for the clustered flow's flat placement
//! (`alloc-telemetry` only).
//!
//! Runs the clustered flow on Jpeg at scale 0.25 under two threads, in
//! the benchmark's `ariane_clustered` regime (`FlowOptions::fast()`,
//! uniform shapes), and reads the flat-placement stage's live-heap
//! high-water mark (`heap_peak_bytes` on its span) less the live heap as
//! the flow starts. That is what the flow holds at the peak of Algorithm
//! 1's seeded placement beyond its inputs: the free problem, the seeded
//! problem the placer runs on, the cluster assignment and the placer's
//! working set. It must stay within the recorded bound (EXPERIMENTS.md,
//! "Placer working set"), so a copy of the problem's per-cell data that a
//! clone stops sharing, or a placer buffer that stops sharing memory with
//! another, fails here; `crates/place/tests/working_set.rs` measures the
//! placer alone and cannot see the first.
//!
//! The counting allocator is process-wide, so this binary holds one test:
//! nothing else allocates while it measures.
//!
//! ```text
//! cargo test --release -p cp-bench --features alloc-telemetry --test flow_working_set -- --nocapture
//! ```

use cp_core::alloc::heap_stats;
use cp_core::flow::{run_flow, FlowOptions};
use cp_core::{qor, stages};
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_trace::{ArgValue, Level};

/// Heap the flow may hold at flat placement's peak beyond its inputs: the
/// measured 5,163,021 B (385.9 B per cell) plus 10%. While the seeded
/// problem copied the movable objects, spreading kept sort buffers of its
/// own beside the lower bound's and the per-net extreme pins grew by
/// doubling, it held 6,270,597 B (468.7 B per cell).
const MAX_FLAT_PLACEMENT_HELD_BYTES: u64 = 5_680_000;

#[test]
fn flat_placement_holds_one_problem_and_one_placer_working_set() {
    let (n, c) = GeneratorConfig::from_profile(DesignProfile::Jpeg)
        .scale(0.25)
        .seed(1)
        .generate_with_constraints();
    cp_trace::set_level(Level::Spans);
    let start = heap_stats().current_bytes;
    let report = cp_parallel::with_threads(2, || run_flow(&n, &c, &FlowOptions::fast()));
    cp_trace::set_level(Level::Off);
    cp_trace::clear();
    let report = report.expect("flow runs");
    let trace = report.trace.as_ref().expect("a traced run keeps its trace");
    let span = trace
        .spans
        .iter()
        .find(|s| s.parent == trace.root && s.name == stages::FLAT_PLACEMENT)
        .expect("the flow has a flat-placement stage");
    let peak = span
        .args
        .iter()
        .find_map(|&(key, value)| match value {
            ArgValue::U(bytes) if key == qor::HEAP_PEAK_ARG => Some(bytes),
            _ => None,
        })
        .expect("alloc-telemetry puts the heap peak on the stage span");
    let held = peak.saturating_sub(start);
    println!(
        "flat placement heap peak: {peak} B, {held} B over the flow's start \
         ({:.1} B/cell)",
        held as f64 / n.cell_count() as f64
    );
    assert!(
        held <= MAX_FLAT_PLACEMENT_HELD_BYTES,
        "flat placement held {held} B over the flow's start (bound {MAX_FLAT_PLACEMENT_HELD_BYTES} B)"
    );
}
