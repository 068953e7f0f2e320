//! Shared harness for the paper reproduction binary and the QoR gates.
//!
//! `repro` (see [`repro`]) regenerates every table and figure of the paper;
//! it and the gates pull their designs and flow settings from [`support`]
//! so results are consistent and reproducible. The design scale is always
//! an explicit argument — `repro --scale`, or the constant a gate
//! generates at — and the flow options are sized from it. Timing is the
//! standalone benchmark's job (`benchmark/`).

#![forbid(unsafe_code)]

pub mod qor_gate;
pub mod repro;
pub mod stdout;
pub mod support;

pub use support::*;
