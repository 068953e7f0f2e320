//! Analytic global placement, legalization and clock tree synthesis — the
//! OpenROAD (RePlAce/TritonCTS) stand-in.
//!
//! The placer follows the SimPL/bound-to-bound recipe:
//!
//! 1. **Lower bound**: minimize quadratic wirelength under the
//!    bound-to-bound (B2B) net model, solved per axis with preconditioned
//!    conjugate gradients ([`solver`]).
//! 2. **Upper bound**: spread cells to meet density by recursive-bisection
//!    look-ahead legalization ([`spreading`]).
//! 3. Anchor pseudo-nets pull the next lower bound toward the spread
//!    positions; iterate until density overflow converges ([`global`]).
//!
//! Incremental (seeded) mode starts from given positions and anchors to
//! them with a reduced iteration budget — this is what makes the paper's
//! *seeded placement* (Algorithm 1 lines 15–25) fast. Region constraints
//! (Innovus mode, line 18) clamp chosen cells into rectangles each
//! iteration.
//!
//! [`legalize()`] snaps standard cells to rows (Tetris), and [`cts`] builds a
//! recursive-bisection clock tree whose per-sink insertion delays feed STA.
//!
//! # Examples
//!
//! ```
//! use cp_netlist::generator::{DesignProfile, GeneratorConfig};
//! use cp_netlist::Floorplan;
//! use cp_place::{GlobalPlacer, PlacementProblem, PlacerOptions};
//!
//! let netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
//!     .scale(0.01)
//!     .generate();
//! let fp = Floorplan::for_netlist(&netlist, 0.6, 1.0);
//! let problem = PlacementProblem::from_netlist(&netlist, &fp);
//! let result = GlobalPlacer::new(PlacerOptions::default())
//!     .place(&problem)
//!     .expect("well-formed problem places");
//! assert!(result.hpwl > 0.0);
//! assert_eq!(result.positions.len(), netlist.cell_count());
//! ```
//!
//! Every stage entry point returns `Result<_, PlaceError>`: degenerate
//! cores, malformed seeds and NaN coordinates surface as typed errors, and
//! a diverging global-placement loop reverts to its best snapshot when
//! [`PlacerOptions::revert_if_diverge`] is set (the default).

pub mod backend;
pub mod cts;
pub mod detailed;
pub mod error;
pub mod global;
pub mod hpwl;
pub mod kernels;
pub mod legalize;
pub mod problem;
pub mod soa;
pub mod solver;
pub mod spreading;
pub mod svg;

pub use crate::backend::PlacerBackendKind;
pub use crate::cts::{synthesize_clock_tree, ClockTree, CtsOptions};
pub use crate::detailed::{refine, DetailedOptions};
pub use crate::error::{BestSnapshot, PlaceError};
pub use crate::global::{GlobalPlacer, PlacementResult, PlacerOptions};
pub use crate::legalize::legalize;
pub use crate::problem::{Object, PlacementProblem};
pub use crate::soa::{PlacementSoa, VertexCoords};
pub use crate::solver::{CgStats, IcPreconditioner};
pub use crate::svg::placement_svg;
