//! PPA-aware clustering, ML-accelerated virtualized P&R and the
//! clustered-placement flow — the paper's primary contribution.
//!
//! The crate mirrors the paper's structure:
//!
//! - [`cluster::dendrogram`] — hierarchy-based clustering (Algorithm 2),
//!   selecting the dendrogram level that minimizes the weighted-average
//!   Rent exponent (Eq. 1, [`cluster::rent`]).
//! - [`cluster::costs`] — timing cost `t_e` from the top-|P| critical
//!   paths and switching cost `s_e` (Eq. 2), combined in the heavy-edge
//!   rating (Eq. 3).
//! - [`cluster::fc`] — enhanced multilevel First-Choice coarsening with
//!   hierarchy grouping constraints.
//! - [`vpr`] — the virtualized P&R framework: induce each cluster's
//!   sub-netlist, sweep the 20 (aspect ratio, utilization) candidates
//!   through place + global route, and score `Cost_HPWL + δ·Cost_Congestion`
//!   (Eqs. 4–5); [`vpr::ml`] replaces the 20 P&R runs with a GNN that
//!   predicts Total Cost from 35 node features.
//! - [`flow`] — Algorithm 1 end to end: PPA-aware clustering →
//!   ML-accelerated V-P&R → seeded placement (OpenROAD-like or
//!   Innovus-like) → CTS, routing and post-route PPA.
//! - [`baselines`] — blob placement \[9\] (Louvain), Leiden and plain
//!   multilevel-FC flows for the paper's comparisons.
//! - [`checkpoint`] — the stage checkpoint [`run_flow_resilient`] writes
//!   and resumes from (format version 3: each completed stage's output
//!   once, the stage implied by which outputs are present).
//!
//! Every public entry point is fallible: degenerate inputs surface as a
//! typed [`FlowError`] instead of a panic deep inside a stage, and
//! recoveries the flow performed on its own (divergence reverts, V-P&R
//! shape fallbacks, dropped region constraints) are reported on
//! [`FlowReport::diagnostics`](crate::flow::FlowReport::diagnostics) —
//! they and nothing else: checkpoint writes and resumes are trace
//! instants.
//!
//! # Examples
//!
//! ```
//! use cp_core::flow::{run_default_flow, run_flow, FlowOptions, Tool};
//! use cp_netlist::generator::{DesignProfile, GeneratorConfig};
//!
//! let (netlist, constraints) = GeneratorConfig::from_profile(DesignProfile::Aes)
//!     .scale(0.005)
//!     .generate_with_constraints();
//! let default =
//!     run_default_flow(&netlist, &constraints, &FlowOptions::fast()).expect("flow runs");
//! let ours = run_flow(&netlist, &constraints, &FlowOptions::fast().tool(Tool::OpenRoadLike))
//!     .expect("flow runs");
//! assert!(ours.hpwl > 0.0 && default.hpwl > 0.0);
//! assert!(ours.diagnostics.is_clean());
//! ```

#![deny(unsafe_code)]

#[cfg(feature = "alloc-telemetry")]
pub mod alloc;
pub mod baselines;
pub mod checkpoint;
pub mod cluster;
pub mod error;
pub mod flow;
pub mod qor;
pub mod stages;
pub mod vpr;

pub use crate::checkpoint::Checkpoint;
pub use crate::cluster::{ClusteringOptions, ClusteringResult};
pub use crate::error::{FlowDiagnostics, FlowError, RecoveryEvent};
pub use crate::flow::{
    run_default_flow, run_flow, run_flow_resilient, FlowOptions, FlowReport, PpaReport,
    ResilienceOptions, Tool,
};
