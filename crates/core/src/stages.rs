//! Canonical stage and span names for the flow.
//!
//! One constant per pipeline stage, shared by the trace spans, the
//! [`StageTimings`](crate::flow::StageTimings) labels and the recovery
//! events — so the flat and clustered paths can never drift apart on
//! labels again, and trace-derived timings line up with the
//! `timings.get(...)` keys `repro` and the benchmark read.

/// Root span of the flat (default) flow.
pub const FLOW_FLAT: &str = "flow.flat";
/// Root span of the clustered flow (Algorithm 1).
pub const FLOW_CLUSTERED: &str = "flow.clustered";

/// PPA-aware clustering (incl. STA/activity extraction).
pub const CLUSTERING: &str = "clustering";
/// Cluster shape selection (V-P&R sweep / surrogate / hybrid).
pub const SHAPING: &str = "shaping";
/// Placement of the clustered netlist (seed positions).
pub const CLUSTER_PLACEMENT: &str = "cluster placement";
/// Flat placement (seeded in the clustered flow, from scratch in the
/// default flow).
pub const FLAT_PLACEMENT: &str = "flat placement";
/// Legalization + detailed refinement.
pub const LEGALIZE_REFINE: &str = "legalize+refine";
/// CTS, global routing, post-route STA and power.
pub const PPA: &str = "ppa";
/// Congestion-driven refinement pass (recovery-event label; its time is
/// part of [`FLAT_PLACEMENT`]).
pub const CONGESTION_REFINEMENT: &str = "congestion refinement";

/// Every per-stage timing label, in pipeline order. Trace-derived
/// [`StageTimings`](crate::flow::StageTimings) are filtered to this set.
pub const ALL: [&str; 6] = [
    CLUSTERING,
    SHAPING,
    CLUSTER_PLACEMENT,
    FLAT_PLACEMENT,
    LEGALIZE_REFINE,
    PPA,
];

/// Span wrapping one cluster's shape search (args: `cluster`, `ranker`).
pub const SPAN_VPR_CLUSTER: &str = "vpr.cluster";
/// Span wrapping one cluster×candidate evaluation (args: `ar`, `util`,
/// `verdict` ∈ exact/proxy/screening).
pub const SPAN_VPR_CANDIDATE: &str = "vpr.candidate";
