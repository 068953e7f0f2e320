//! QoR regression gating against a committed baseline.
//!
//! `tracetool gate` runs the pinned gate flow (or loads an existing
//! `TRACE_report.json`), extracts every `qor.*` gauge from the trace and
//! compares them against [`Baseline`] as committed in
//! `baselines/QOR_baseline.json`. Each gauge is compared two-sided with a
//! per-metric relative tolerance (default [`QOR_REL_TOL`], near-exact).
//! The flow is bitwise-deterministic across thread counts, so any drift
//! means the algorithm changed — improvements fail the gate too, on
//! purpose: the baseline must be regenerated (`tracetool gate --write`) so
//! the change is visible in review. The gate judges QoR only; time is the
//! benchmark's question (`benchmark/`, `BENCHMARK.json`).

use cp_core::flow::{run_flow, FlowOptions, FlowReport, ShapeMode};
use cp_core::FlowError;
use cp_netlist::generator::DesignProfile;
use cp_trace::json::{fmt_f64, parse_checked, Json, Writer};
use cp_trace::{Analysis, Level};
use std::sync::OnceLock;

use crate::support::Bench;

/// Pinned design scale for the gate flow — a constant, not an argument, so
/// the committed baseline means the same thing on every machine.
pub const GATE_SCALE: f64 = 0.02;
/// Pinned scale of the large gate flow (`--large`): Ariane at half the
/// paper's instance count, ~60k cells — big enough that the CSR solver,
/// the SoA kernels and the clustering coarsener all carry real load,
/// small enough for a CI smoke job.
pub const GATE_LARGE_SCALE: f64 = 0.5;
/// Default two-sided relative tolerance on QoR gauges. Near-exact: it
/// absorbs last-ulp libm variance across toolchains, nothing more.
pub const QOR_REL_TOL: f64 = 1e-6;

/// The checked-in schema a loaded baseline is validated against.
pub const SCHEMA_JSON: &str = include_str!("../../../schemas/qor_baseline.schema.json");

/// The pinned gate design (Aes at [`GATE_SCALE`], generator defaults).
pub fn gate_bench() -> Bench {
    Bench::generate_at(DesignProfile::Aes, GATE_SCALE)
}

/// The pinned large-gate design (Ariane at [`GATE_LARGE_SCALE`]).
pub fn gate_bench_large() -> Bench {
    Bench::generate_at(DesignProfile::Ariane, GATE_LARGE_SCALE)
}

/// The pinned gate flow configuration: reduced-effort settings with the
/// exact V-P&R sweep, so every stage (and its `qor.*` gauges) runs.
/// Deterministic — no environment knobs consulted.
pub fn gate_options() -> FlowOptions {
    FlowOptions::fast().shape_mode(ShapeMode::Vpr)
}

/// The large gate flow's configuration: reduced-effort with uniform
/// shapes — the large gate exists to pin the scaling hot paths (solver,
/// spreading, clustering), not the V-P&R sweep the small gate already
/// covers, and skipping the sweep keeps the ~60k-cell run inside a CI
/// smoke budget.
pub fn gate_large_options() -> FlowOptions {
    FlowOptions::fast()
}

/// Runs a flow once at [`Level::Full`] and returns the report (its
/// `trace` is always present).
fn run_traced(b: &Bench, options: &FlowOptions) -> Result<FlowReport, FlowError> {
    cp_trace::set_level(Level::Full);
    let r = run_flow(&b.netlist, &b.constraints, options);
    cp_trace::set_level(Level::Off);
    cp_trace::clear();
    r
}

/// Runs the gate flow once at [`Level::Full`] and returns the report
/// (its `trace` is always present).
///
/// # Errors
///
/// Propagates any [`FlowError`] from the flow.
pub fn run_gate_flow() -> Result<FlowReport, FlowError> {
    run_traced(&gate_bench(), &gate_options())
}

/// Runs the large gate flow ([`gate_bench_large`]) once at
/// [`Level::Full`].
///
/// # Errors
///
/// Propagates any [`FlowError`] from the flow.
pub fn run_gate_flow_large() -> Result<FlowReport, FlowError> {
    run_traced(&gate_bench_large(), &gate_large_options())
}

/// Parses a profile name as accepted by `tracetool explain --run`
/// (case-insensitive: `aes`, `jpeg`, `ariane`, `blackparrot`,
/// `megaboom`, `mempool`/`mempoolgroup`).
pub fn parse_profile(name: &str) -> Option<DesignProfile> {
    match name.to_ascii_lowercase().as_str() {
        "aes" => Some(DesignProfile::Aes),
        "jpeg" => Some(DesignProfile::Jpeg),
        "ariane" => Some(DesignProfile::Ariane),
        "blackparrot" => Some(DesignProfile::BlackParrot),
        "megaboom" => Some(DesignProfile::MegaBoom),
        "mempool" | "mempoolgroup" => Some(DesignProfile::MemPoolGroup),
        _ => None,
    }
}

/// Runs one hermetic, fully-traced flow of `profile` at `scale` with the
/// pinned gate options and spatial field-frame capture enabled, returning
/// the report (its `trace` is always present) and the captured
/// [`FrameCapture`](cp_trace::FrameCapture). This is the `tracetool
/// explain --run` backend. Frames are drained *before* the trace buffers
/// are cleared — [`cp_trace::clear`] wipes buffered frames too.
///
/// # Errors
///
/// Propagates any [`FlowError`] from the flow.
pub fn run_hermetic_fields(
    profile: DesignProfile,
    scale: f64,
) -> Result<(FlowReport, cp_trace::FrameCapture), FlowError> {
    let b = Bench::generate_at(profile, scale);
    cp_trace::fields::enable(cp_trace::fields::DEFAULT_FRAME_BUDGET);
    cp_trace::set_level(Level::Full);
    let r = run_flow(&b.netlist, &b.constraints, &gate_options());
    cp_trace::set_level(Level::Off);
    let capture = cp_trace::fields::take();
    cp_trace::fields::disable();
    cp_trace::clear();
    Ok((r?, capture))
}

/// One gated QoR gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct QorEntry {
    /// Gauge name (`qor.*`).
    pub name: String,
    /// Baseline value.
    pub value: f64,
    /// Two-sided relative tolerance.
    pub rel_tol: f64,
}

/// The committed QoR baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Design short name (informational).
    pub design: String,
    /// Design scale the baseline was recorded at.
    pub scale: f64,
    /// Gated QoR gauges, sorted by name.
    pub qor: Vec<QorEntry>,
}

impl Baseline {
    /// Records a fresh baseline from an analyzed gate run, with the
    /// default tolerances.
    pub fn from_analysis(a: &Analysis, design: &str, scale: f64) -> Self {
        let mut qor: Vec<QorEntry> = a
            .gauges_with_prefix(cp_core::qor::PREFIX)
            .into_iter()
            .map(|(name, value)| QorEntry {
                name,
                value,
                rel_tol: QOR_REL_TOL,
            })
            .collect();
        qor.sort_by(|x, y| x.name.cmp(&y.name));
        Self {
            design: design.to_string(),
            scale,
            qor,
        }
    }

    /// Checks an analyzed run against the baseline. Returns one line per
    /// violation; empty means the gate passes.
    pub fn check(&self, a: &Analysis) -> Vec<String> {
        let mut failures = Vec::new();
        let gauges = a.gauges_with_prefix(cp_core::qor::PREFIX);
        for e in &self.qor {
            let Some(&(_, new)) = gauges.iter().find(|(n, _)| *n == e.name) else {
                failures.push(format!("qor gauge `{}` missing from the run", e.name));
                continue;
            };
            let limit = (e.rel_tol * e.value.abs()).max(1e-12);
            if !new.is_finite() || (new - e.value).abs() > limit {
                failures.push(format!(
                    "qor gauge `{}` changed: baseline {} -> run {} (tol ±{})",
                    e.name,
                    fmt_f64(e.value),
                    fmt_f64(new),
                    fmt_f64(limit)
                ));
            }
        }
        for (name, _) in &gauges {
            if !self.qor.iter().any(|e| &e.name == name) {
                failures.push(format!(
                    "qor gauge `{name}` not in the baseline — regenerate with `tracetool gate --write`"
                ));
            }
        }
        failures
    }

    /// Serializes the baseline (validates against
    /// `schemas/qor_baseline.schema.json`).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object_lines().key("version").u64(2);
        w.key("design").str(&self.design);
        w.key("scale").f64(self.scale);
        w.key("qor").array_lines();
        for e in &self.qor {
            w.object_spaced().key("name").str(&e.name);
            w.key("value").f64(e.value);
            w.key("rel_tol").f64(e.rel_tol).end();
        }
        w.end().end();
        let mut text = w.finish();
        text.push('\n');
        text
    }

    /// Parses a committed baseline.
    ///
    /// # Errors
    ///
    /// Malformed JSON, or the violations of
    /// `schemas/qor_baseline.schema.json` — among them any version but 2.
    pub fn from_json(src: &str) -> Result<Self, String> {
        static SCHEMA: OnceLock<Result<Json, String>> = OnceLock::new();
        let doc = parse_checked(src, SCHEMA_JSON, &SCHEMA)?;
        let qor = doc.each("qor", |e| {
            Ok(QorEntry {
                name: e.str("name")?.to_string(),
                value: e.f64("value")?,
                rel_tol: e.f64("rel_tol")?,
            })
        })?;
        Ok(Self {
            design: doc.str("design")?.to_string(),
            scale: doc.f64("scale")?,
            qor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_baseline() -> Baseline {
        Baseline {
            design: "aes".into(),
            scale: 0.02,
            qor: vec![
                QorEntry {
                    name: "qor.legalized.hpwl".into(),
                    value: 1000.0,
                    rel_tol: 1e-6,
                },
                QorEntry {
                    name: "qor.timing.wns".into(),
                    value: -50.0,
                    rel_tol: 1e-6,
                },
            ],
        }
    }

    #[test]
    fn baseline_json_round_trips() {
        let b = sample_baseline();
        let parsed = Baseline::from_json(&b.to_json()).expect("round trip parses");
        assert_eq!(b, parsed);
    }

    #[test]
    fn baseline_json_matches_its_golden_bytes() {
        assert_eq!(
            sample_baseline().to_json(),
            r#"{
  "version": 2,
  "design": "aes",
  "scale": 0.02,
  "qor": [
    {"name": "qor.legalized.hpwl", "value": 1000.0, "rel_tol": 0.000001},
    {"name": "qor.timing.wns", "value": -50.0, "rel_tol": 0.000001}
  ]
}
"#
        );
    }

    #[test]
    fn baseline_json_matches_schema() {
        use cp_trace::json::{parse, validate};
        let schema = parse(SCHEMA_JSON).expect("schema parses");
        let doc = parse(&sample_baseline().to_json()).expect("baseline parses");
        assert_eq!(validate(&doc, &schema), Vec::<String>::new());
        // A baseline without gauges gates nothing; the schema refuses it.
        let mut empty = sample_baseline();
        empty.qor.clear();
        assert!(Baseline::from_json(&empty.to_json()).is_err());
        // A version-1 baseline, which carried a runtime model, is refused
        // by its version.
        let v1 = include_str!("../../../tests/regressions/qor_baseline_v1.json");
        let err = Baseline::from_json(v1).expect_err("version 1 is refused");
        assert!(err.contains("$/version"), "{err}");
    }
}
