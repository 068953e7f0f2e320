//! Shared harness for the paper reproduction binary, the QoR gates and the
//! benches.
//!
//! `repro` (see [`repro`]) regenerates every table and figure of the paper;
//! it and the Criterion benches pull their designs and flow settings from
//! [`support`] so results are consistent and reproducible. The design scale
//! is always an explicit argument — `repro --scale`, or the constant a
//! bench or gate generates at — and the flow options are sized from it.

pub mod chaos;
pub mod qor_gate;
pub mod repro;
pub mod support;

pub use support::*;
