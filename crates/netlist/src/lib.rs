//! Gate-level netlist database for the clustered-placement toolkit.
//!
//! This crate plays the role OpenDB plays for OpenROAD: it owns the design
//! data every other crate reads. It provides:
//!
//! - [`library`]: a synthetic standard-cell library standing in for the
//!   NanGate45 enablement — ~20 combinational/sequential cells with
//!   area, pin capacitance, drive resistance, intrinsic delay, internal
//!   energy and leakage, plus truth tables for vectorless activity
//!   propagation.
//! - [`Netlist`]: cells, nets, pins, top-level ports and the logical
//!   hierarchy tree ([`hierarchy::HierTree`]), with a hypergraph view for
//!   clustering ([`Netlist::to_hypergraph`]).
//! - [`floorplan`]: die/core geometry, rows and IO pin placement — the
//!   `.def`-equivalent input of Algorithm 1.
//! - [`sdc`]: clock period and primary-input activity — the `.sdc`
//!   equivalent.
//! - [`shapes`]: cluster shape (aspect ratio × utilization) models — the
//!   cluster `.lef` equivalent.
//! - [`clustered`]: building the clustered netlist from a cluster
//!   assignment (Algorithm 1 line 10).
//! - [`generator`]: a hierarchical synthetic design generator with profiles
//!   matching the paper's six benchmarks (Table 1) at configurable scale.
//! - [`verilog`]: a minimal structural-netlist text format for interchange.
//!
//! # Examples
//!
//! ```
//! use cp_netlist::generator::{DesignProfile, GeneratorConfig};
//!
//! let netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
//!     .scale(0.01)
//!     .seed(7)
//!     .generate();
//! assert!(netlist.cell_count() > 50);
//! let hg = netlist.to_hypergraph();
//! assert_eq!(hg.vertex_count(), netlist.cell_count() + netlist.port_count());
//! ```

pub mod clustered;
pub mod floorplan;
pub mod generator;
pub mod hierarchy;
pub mod ids;
pub mod library;
pub mod netlist;
pub mod sdc;
pub mod shapes;
pub mod validate;
pub mod verilog;

pub use crate::floorplan::Floorplan;
pub use crate::hierarchy::HierTree;
pub use crate::ids::{CellId, CellTypeId, HierNodeId, NetId, PortId};
pub use crate::library::{CellClass, CellType, Library, LogicFunction};
pub use crate::netlist::{Net, Netlist, NetlistBuilder, PinRef, Port, PortDir};
pub use crate::sdc::Constraints;
pub use crate::shapes::ClusterShape;
pub use crate::validate::ValidationError;
