//! GCell-grid global routing and congestion analysis — the FastRoute
//! stand-in.
//!
//! Nets are decomposed into two-pin segments over a rectilinear minimum
//! spanning tree, then routed on a GCell grid with congestion-aware
//! L-shapes and, where both cross a full edge, a cheapest path in a window
//! around the segment (monotone-staircase DP, cut lower bound, bounded maze
//! search). The router produces the two quantities the paper's V-P&R cost
//! needs (Eqs. 4–5): routed wirelength and a per-GCell congestion map whose
//! top-X% average is the congestion cost. Post-route STA uses the global
//! detour factor to scale wire parasitics.
//!
//! # Examples
//!
//! ```
//! use cp_netlist::generator::{DesignProfile, GeneratorConfig};
//! use cp_netlist::Floorplan;
//! use cp_place::{GlobalPlacer, PlacementProblem, PlacerOptions};
//! use cp_route::{route_placed_netlist, RouterOptions};
//!
//! let netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
//!     .scale(0.01)
//!     .generate();
//! let fp = Floorplan::try_for_netlist(&netlist, 0.6, 1.0)?;
//! let problem = PlacementProblem::from_netlist(&netlist, &fp);
//! let placed = GlobalPlacer::new(PlacerOptions::default())
//!     .place(&problem)
//!     .expect("well-formed problem places");
//! let mut all_pos = placed.positions.clone();
//! all_pos.extend_from_slice(&fp.port_positions);
//! let routed = route_placed_netlist(&netlist, &all_pos, &fp, &RouterOptions)
//!     .expect("finite positions route");
//! assert!(routed.wirelength > 0.0);
//! assert!(routed.congestion.max_utilization() >= 0.0);
//! # Ok::<(), cp_netlist::ValidationError>(())
//! ```
//!
//! The routing grid — origin, GCell size, per-edge capacity, the macro
//! derate and the position→GCell map — is a [`CongestionMap`], and a
//! placed design's grid is decided in one place,
//! [`CongestionMap::for_design`]. [`route_placed_netlist`] routes a placed
//! netlist on it; [`route_nets`] routes pin lists on any grid its caller
//! built.
//!
//! All routing entry points are fallible: NaN pin coordinates and
//! too-short position arrays surface as [`RouteError`] instead of a panic
//! or a silently garbage route.

#![forbid(unsafe_code)]

pub mod congestion;
pub mod error;
pub mod router;

pub use crate::congestion::CongestionMap;
pub use crate::error::RouteError;
pub use crate::router::{route_nets, route_placed_netlist, RouterOptions, RoutingResult};
