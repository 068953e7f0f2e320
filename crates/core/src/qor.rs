//! Structured QoR snapshot gauges.
//!
//! Each flow stage boundary records the quality numbers the paper's
//! tables care about (per-stage HPWL, routing overflow/congestion,
//! WNS/TNS, power, cluster count, shaping-effort counters) into the
//! cp-trace metric registry as `qor.*` gauges, plus `mem.*` heap gauges
//! when the `alloc-telemetry` feature is enabled. `tracetool gate` then
//! extracts every `qor.`-prefixed gauge from a run's `TraceReport` and
//! compares it against `baselines/QOR_baseline.json`.
//!
//! All recording is a no-op below [`cp_trace::Level::Full`]; values that
//! cost something to compute (re-running [`raw_hpwl`] on an intermediate
//! placement) are additionally guarded on [`cp_trace::telemetry_enabled`]
//! so the spans-only overhead contract of PR 4 is untouched.

use crate::flow::{PpaReport, ShapingStats};
use cp_place::hpwl::raw_hpwl;
use cp_place::PlacementProblem;

/// Prefix that marks a gauge as gate-relevant.
pub const PREFIX: &str = "qor.";

/// Clusters formed by the clustering stage.
pub const CLUSTER_COUNT: &str = "qor.cluster.count";
/// HPWL of the placed cluster-level netlist (clustered flow only).
pub const CLUSTER_PLACEMENT_HPWL: &str = "qor.cluster_placement.hpwl";
/// HPWL right after global placement, before legalization.
pub const FLAT_PLACEMENT_HPWL: &str = "qor.flat_placement.hpwl";
/// Final legalized+refined HPWL (the `FlowReport::hpwl` headline).
pub const LEGALIZED_HPWL: &str = "qor.legalized.hpwl";
/// Routed wirelength incl. the clock tree, µm.
pub const ROUTE_RWL: &str = "qor.route.rwl";
/// Peak GCell-edge utilization from global routing.
pub const ROUTE_MAX_UTILIZATION: &str = "qor.route.max_utilization";
/// GCell edges whose demand exceeds capacity.
pub const ROUTE_OVERFLOW_EDGES: &str = "qor.route.overflow_edges";
/// Worst negative slack, ps.
pub const TIMING_WNS: &str = "qor.timing.wns";
/// Total negative slack, ps.
pub const TIMING_TNS: &str = "qor.timing.tns";
/// Worst hold slack, ps.
pub const TIMING_HOLD_WNS: &str = "qor.timing.hold_wns";
/// Total power, W.
pub const POWER_TOTAL: &str = "qor.power.total";
/// Clock skew from CTS, ps.
pub const CTS_SKEW: &str = "qor.cts.skew";
/// Clusters that went through shape selection.
pub const SHAPING_CLUSTERS: &str = "qor.shaping.clusters_shaped";
/// Exact V-P&R evaluations the shape mode ran.
pub const SHAPING_EXACT_EVALS: &str = "qor.shaping.exact_evals";
/// Candidates pruned before exact evaluation.
pub const SHAPING_EXACT_AVOIDED: &str = "qor.shaping.exact_evals_avoided";

/// Live heap bytes at the last [`record_heap`] call.
pub const MEM_HEAP_CURRENT: &str = "mem.heap.current_bytes";
/// Peak live heap bytes since process start.
pub const MEM_HEAP_PEAK: &str = "mem.heap.peak_bytes";
/// Total allocations since process start.
pub const MEM_ALLOC_COUNT: &str = "mem.alloc.count";

/// Records the HPWL of an intermediate placement under `gauge`. The
/// [`raw_hpwl`] pass costs a full net sweep, so it only runs when
/// telemetry is on.
pub(crate) fn record_placement_hpwl(
    gauge: &'static str,
    problem: &PlacementProblem,
    positions: &[(f64, f64)],
) {
    if cp_trace::telemetry_enabled() {
        cp_trace::gauge_set(gauge, raw_hpwl(problem, positions));
    }
}

/// Records the clustering/shaping snapshot at the end of the shaping
/// stage.
pub(crate) fn record_shaping(cluster_count: usize, shaping: &ShapingStats) {
    cp_trace::gauge_set(CLUSTER_COUNT, cluster_count as f64);
    cp_trace::gauge_set(SHAPING_CLUSTERS, shaping.clusters_shaped as f64);
    cp_trace::gauge_set(SHAPING_EXACT_EVALS, shaping.exact_evals as f64);
    cp_trace::gauge_set(SHAPING_EXACT_AVOIDED, shaping.exact_evals_avoided as f64);
}

/// Records the post-route PPA snapshot (Algorithm 1, lines 27-30).
pub(crate) fn record_ppa(ppa: &PpaReport) {
    cp_trace::gauge_set(ROUTE_RWL, ppa.rwl);
    cp_trace::gauge_set(TIMING_WNS, ppa.wns);
    cp_trace::gauge_set(TIMING_TNS, ppa.tns);
    cp_trace::gauge_set(TIMING_HOLD_WNS, ppa.hold_wns);
    cp_trace::gauge_set(POWER_TOTAL, ppa.power);
    cp_trace::gauge_set(CTS_SKEW, ppa.skew);
}

/// Publishes the counting allocator's heap statistics as `mem.*` gauges.
/// Compiles to nothing without the `alloc-telemetry` feature, so the
/// stage-boundary call sites stay unconditional.
#[cfg(feature = "alloc-telemetry")]
pub fn record_heap() {
    let stats = crate::alloc::heap_stats();
    cp_trace::gauge_set(MEM_HEAP_CURRENT, stats.current_bytes as f64);
    cp_trace::gauge_set(MEM_HEAP_PEAK, stats.peak_bytes as f64);
    cp_trace::gauge_set(MEM_ALLOC_COUNT, stats.alloc_count as f64);
}

/// Publishes the counting allocator's heap statistics as `mem.*` gauges.
/// Compiles to nothing without the `alloc-telemetry` feature, so the
/// stage-boundary call sites stay unconditional.
#[cfg(not(feature = "alloc-telemetry"))]
pub fn record_heap() {}

/// Span argument of each flow stage: the stage's live-heap high-water
/// mark in bytes (`alloc-telemetry` only; varies with the thread count
/// and is never gated).
pub const HEAP_PEAK_ARG: &str = "heap_peak_bytes";

/// Restarts the stage-local heap high-water mark as a stage begins; a
/// no-op without `alloc-telemetry`.
pub fn start_stage_heap() {
    #[cfg(feature = "alloc-telemetry")]
    crate::alloc::reset_stage_peak();
}

/// Attaches the stage's heap high-water mark to its span as
/// [`HEAP_PEAK_ARG`]; a no-op without `alloc-telemetry`.
pub fn record_stage_heap(span: &mut cp_trace::SpanGuard) {
    #[cfg(feature = "alloc-telemetry")]
    span.arg(
        HEAP_PEAK_ARG,
        cp_trace::ArgValue::U(crate::alloc::stage_peak_bytes()),
    );
    #[cfg(not(feature = "alloc-telemetry"))]
    let _ = span;
}
