//! Working-set ratchet for cluster shaping (`alloc-telemetry` only).
//!
//! Runs the clustered flow on Jpeg at scale 0.25 under two threads twice —
//! exact V-P&R shaping and uniform shapes, on the same design and
//! clustering — and reads the shaping stage's live-heap high-water mark
//! (`heap_peak_bytes` on its span) from each. The difference is what
//! shaping itself holds at its peak: the sub-netlists and V-P&R solves of
//! the clusters in flight. It must stay within the recorded bound
//! (EXPERIMENTS.md, "Shaping working set"), so a change that goes back to
//! inducing every sub-netlist before the sweep, or keeps them alive until
//! it ends, fails here.
//!
//! The counting allocator is process-wide, so this binary holds one test:
//! nothing else allocates while it measures.
//!
//! ```text
//! cargo test --release -p cp-bench --features alloc-telemetry --test shaping_working_set -- --nocapture
//! ```

use cp_core::flow::{run_flow, FlowOptions, ShapeMode};
use cp_core::{qor, stages};
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::netlist::Netlist;
use cp_netlist::Constraints;
use cp_trace::{ArgValue, Level};

/// Shaping's heap growth allowed over the uniform-shape run: the measured
/// 1,138,908–1,145,516 B (ten runs) plus 4.8% headroom, eight times
/// their spread. With spreading's sort buffers beside the lower bound's
/// it grew 1,226,552–1,233,032 B and fails it; with four CG vectors, each
/// system's right-hand side and row pointers and spreading's output copy,
/// 1,308,872–1,313,576 B; with the placer holding its lower bound up to
/// three times, 1,390,952–1,397,544 B; when the bound was first set,
/// 2,072,944–2,082,208 B; and inducing every sub-netlist before the sweep
/// and holding them all until it ended, 4,806,467–4,812,803 B.
const MAX_SHAPING_GROWTH_BYTES: u64 = 1_200_000;

/// The benchmark's V-P&R regime: clusters of a few hundred instances,
/// capped at 800, shaped above 200.
fn options(mode: ShapeMode) -> FlowOptions {
    let mut o = FlowOptions::fast().shape_mode(mode);
    o.clustering.avg_cluster_size = 400;
    o.clustering.max_cluster_factor = 2.0;
    o.vpr_min_instances = 200;
    o
}

/// The shaping stage's heap high-water mark in one traced run of `mode`,
/// and the clusters it shaped.
fn shaping_heap_peak(n: &Netlist, c: &Constraints, mode: ShapeMode) -> (u64, usize) {
    cp_trace::set_level(Level::Spans);
    let report = cp_parallel::with_threads(2, || run_flow(n, c, &options(mode)));
    cp_trace::set_level(Level::Off);
    cp_trace::clear();
    let report = report.expect("flow runs");
    let trace = report.trace.as_ref().expect("a traced run keeps its trace");
    let span = trace
        .spans
        .iter()
        .find(|s| s.parent == trace.root && s.name == stages::SHAPING)
        .expect("the clustered flow has a shaping stage");
    let peak = span
        .args
        .iter()
        .find_map(|&(key, value)| match value {
            ArgValue::U(bytes) if key == qor::HEAP_PEAK_ARG => Some(bytes),
            _ => None,
        })
        .expect("alloc-telemetry puts the heap peak on the stage span");
    (peak, report.shaping.clusters_shaped)
}

#[test]
fn shaping_holds_only_the_clusters_in_flight() {
    let (n, c) = GeneratorConfig::from_profile(DesignProfile::Jpeg)
        .scale(0.25)
        .seed(1)
        .generate_with_constraints();
    let (uniform, none) = shaping_heap_peak(&n, &c, ShapeMode::Uniform);
    let (vpr, shaped) = shaping_heap_peak(&n, &c, ShapeMode::Vpr);
    assert_eq!(none, 0);
    assert!(shaped > 1, "the ratchet needs several shaped clusters");
    let growth = vpr.saturating_sub(uniform);
    println!(
        "shaping heap peak: uniform {uniform} B, vpr {vpr} B, growth {growth} B \
         over {shaped} shaped clusters"
    );
    assert!(
        growth <= MAX_SHAPING_GROWTH_BYTES,
        "shaping grew the heap by {growth} B (bound {MAX_SHAPING_GROWTH_BYTES} B)"
    );
}
