//! Static timing analysis, switching activity and power — the OpenSTA
//! stand-in.
//!
//! The paper's flow (Algorithm 1, lines 4–5) extracts from OpenSTA:
//!
//! 1. the top `|P|` timing-critical paths (one worst path per endpoint,
//!    sorted by slack — `findPathEnds` with `endpoint_count = 1`,
//!    `unique_pins = true`, `sort_by_slack = true`);
//! 2. per-net slacks (for the timing cost `t_e` of \[5\]);
//! 3. vectorless switching activity of every net (for the switching cost
//!    `s_e`, Eq. 2).
//!
//! This crate computes all three on our netlist database, plus the
//! post-route metrics the evaluation reports (WNS, TNS, power):
//!
//! - [`sta::Sta`] — graph-based STA with the linear delay model
//!   `d = intrinsic + R_drive · C_load` and placement-dependent wire
//!   parasitics ([`wire::WireModel`]);
//! - [`activity`] — exact truth-table (Boolean-difference) vectorless
//!   activity propagation;
//! - [`power`] — switching + internal + leakage power report.
//!
//! # Examples
//!
//! ```
//! use cp_netlist::generator::{DesignProfile, GeneratorConfig};
//! use cp_timing::sta::Sta;
//! use cp_timing::wire::WireModel;
//!
//! let (netlist, constraints) = GeneratorConfig::from_profile(DesignProfile::Aes)
//!     .scale(0.01)
//!     .generate_with_constraints();
//! let sta = Sta::new(&netlist, &constraints).expect("acyclic netlist");
//! let report = sta.run(&WireModel::Estimate);
//! assert!(report.endpoint_count > 0);
//! assert!(report.tns <= 0.0);
//! ```
//!
//! [`Sta::new`](sta::Sta::new) is fallible: a combinational cycle surfaces
//! as [`TimingError::CombinationalCycle`](error::TimingError) instead of a
//! panic.

pub mod activity;
pub mod error;
pub mod power;
pub mod report;
pub mod sta;
pub mod wire;

pub use crate::activity::{propagate_activity, ActivityReport};
pub use crate::error::TimingError;
pub use crate::power::{power_report, PowerReport};
pub use crate::report::{format_timing_report, timing_report_text};
pub use crate::sta::{Sta, TimingPath, TimingReport};
pub use crate::wire::WireModel;
