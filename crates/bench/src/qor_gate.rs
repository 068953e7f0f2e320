//! QoR regression gating against a committed baseline.
//!
//! `tracetool gate` runs the pinned gate flow (or loads an existing
//! `TRACE_report.json`), extracts every `qor.*` gauge plus per-stage
//! runtime self-time shares from the trace, and compares them against
//! [`Baseline`] as committed in `baselines/QOR_baseline.json`.
//!
//! The noise model is per-quantity:
//!
//! - **QoR gauges** are compared two-sided with a per-metric relative
//!   tolerance (default [`QOR_REL_TOL`], near-exact). The flow is
//!   bitwise-deterministic across thread counts, so any drift means the
//!   algorithm changed — improvements fail the gate too, on purpose: the
//!   baseline must be regenerated (`tracetool gate --write`) so the
//!   change is visible in review.
//! - **Runtime** is gated one-sided (only slower fails) on total traced
//!   seconds with a generous relative tolerance, and on per-name
//!   self-time *work shares* (see [`self_shares`]) with an absolute
//!   tolerance — shares are independent of both machine speed and thread
//!   count, and min-of-N reduction across repetitions rejects scheduling
//!   jitter.

use cp_core::flow::{run_flow, FlowOptions, FlowReport, ShapeMode};
use cp_core::{stages, FlowError};
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
/// Default one-sided absolute tolerance on per-stage self-time shares.
pub const SHARE_ABS_TOL: f64 = 0.35;
/// Default one-sided relative tolerance on total traced seconds. Loose —
/// the baseline records one machine's wall-clock; the share gates carry
/// the real signal. This only catches order-of-magnitude blowups.
pub const TOTAL_REL_TOL: f64 = 25.0;

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

/// Parses a profile name as accepted by `tracetool harvest --run`
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
/// pinned gate options, returning the report (its `trace` is always
/// present) and the run's checkpoint fingerprint. This is the
/// `tracetool harvest --run` backend — the ledger-smoke corpus seeder.
///
/// # Errors
///
/// Propagates any [`FlowError`] from the flow.
pub fn run_hermetic(profile: DesignProfile, scale: f64) -> Result<(FlowReport, u64), FlowError> {
    let b = Bench::generate_at(profile, scale);
    let options = gate_options();
    let fingerprint = cp_core::checkpoint::fingerprint(&b.netlist, &options);
    let report = run_traced(&b, &options)?;
    Ok((report, fingerprint))
}

/// [`run_hermetic`] with spatial field-frame capture enabled: returns
/// the report, the captured [`FrameCapture`](cp_trace::FrameCapture)
/// and the checkpoint fingerprint. This is the `tracetool explain
/// --run` backend. Frames are drained *before* the trace buffers are
/// cleared — [`cp_trace::clear`] wipes buffered frames too.
///
/// # Errors
///
/// Propagates any [`FlowError`] from the flow.
pub fn run_hermetic_fields(
    profile: DesignProfile,
    scale: f64,
) -> Result<(FlowReport, cp_trace::FrameCapture, u64), FlowError> {
    let b = Bench::generate_at(profile, scale);
    let options = gate_options();
    let fingerprint = cp_core::checkpoint::fingerprint(&b.netlist, &options);
    cp_trace::fields::enable(cp_trace::fields::DEFAULT_FRAME_BUDGET);
    cp_trace::set_level(Level::Full);
    let r = run_flow(&b.netlist, &b.constraints, &options);
    cp_trace::set_level(Level::Off);
    let capture = cp_trace::fields::take();
    cp_trace::fields::disable();
    cp_trace::clear();
    Ok((r?, capture, fingerprint))
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

/// One gated per-stage self-time share.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareEntry {
    /// Span name (a stage from [`stages::ALL`] or a heavy leaf span).
    pub name: String,
    /// Baseline work share (see [`self_shares`]), in `[0, 1]`.
    pub share: f64,
    /// One-sided absolute tolerance (only a larger share fails).
    pub abs_tol: f64,
}

/// The committed QoR/runtime baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Design short name (informational).
    pub design: String,
    /// Design scale the baseline was recorded at.
    pub scale: f64,
    /// Gated QoR gauges, sorted by name.
    pub qor: Vec<QorEntry>,
    /// Total traced seconds on the recording machine.
    pub total_s: f64,
    /// One-sided relative tolerance on `total_s`.
    pub total_rel_tol: f64,
    /// Gated per-stage self-time shares, sorted by name.
    pub self_shares: Vec<ShareEntry>,
}

/// Self-time share of a span name below which it is not worth gating
/// (unless it is a stage name): tiny spans carry no runtime signal.
pub const SHARE_FLOOR: f64 = 0.02;

/// Per-name *work shares*: each name's clamped-positive self-time over
/// the total clamped-positive self-time of the whole tree. The
/// denominator is the work the run performed, which — unlike root
/// wall-clock — is invariant under the thread count: spans running in
/// parallel sum their self-time regardless of how they overlap. Covers
/// every stage name plus any span name at or above [`SHARE_FLOOR`] — the
/// leaf spans (solver, V-P&R evaluations) hold most of the work, so
/// gating only stage wrappers would miss real regressions. Sorted by
/// name.
pub fn self_shares(a: &Analysis) -> Vec<(String, f64)> {
    let rows = a.self_time_by_name();
    let total: f64 = rows.iter().map(|g| g.self_s.max(0.0)).sum();
    let total = total.max(1e-12);
    let mut out: Vec<(String, f64)> = rows
        .into_iter()
        .map(|g| (g.name, g.self_s.max(0.0) / total))
        .filter(|(name, share)| stages::ALL.contains(&name.as_str()) || *share >= SHARE_FLOOR)
        .collect();
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
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
        let self_shares = self_shares(a)
            .into_iter()
            .map(|(name, share)| ShareEntry {
                name,
                share,
                abs_tol: SHARE_ABS_TOL,
            })
            .collect();
        Self {
            design: design.to_string(),
            scale,
            qor,
            total_s: a.duration_seconds(),
            total_rel_tol: TOTAL_REL_TOL,
            self_shares,
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
        let total = a.duration_seconds();
        if total > self.total_s * (1.0 + self.total_rel_tol) {
            failures.push(format!(
                "total traced runtime regressed: baseline {:.3}s -> run {:.3}s (limit {:.3}s)",
                self.total_s,
                total,
                self.total_s * (1.0 + self.total_rel_tol)
            ));
        }
        let shares = self_shares(a);
        for e in &self.self_shares {
            let new = shares
                .iter()
                .find(|(n, _)| *n == e.name)
                .map_or(0.0, |&(_, s)| s);
            if new > e.share + e.abs_tol {
                failures.push(format!(
                    "stage `{}` self-time share regressed: baseline {:.3} -> run {:.3} (tol +{:.3})",
                    e.name, e.share, new, e.abs_tol
                ));
            }
        }
        failures
    }

    /// Serializes the baseline (validates against
    /// `schemas/qor_baseline.schema.json`).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object_lines().key("version").f64(1.0);
        w.key("design").str(&self.design);
        w.key("scale").f64(self.scale);
        w.key("qor").array_lines();
        for e in &self.qor {
            w.object_spaced().key("name").str(&e.name);
            w.key("value").f64(e.value);
            w.key("rel_tol").f64(e.rel_tol).end();
        }
        w.end().key("runtime").object_lines();
        w.key("total_s").f64(self.total_s);
        w.key("total_rel_tol").f64(self.total_rel_tol);
        w.key("self_shares").array_lines();
        for e in &self.self_shares {
            w.object_spaced().key("name").str(&e.name);
            w.key("share").f64(e.share);
            w.key("abs_tol").f64(e.abs_tol).end();
        }
        w.end().end().end();
        let mut text = w.finish();
        text.push('\n');
        text
    }

    /// Parses a committed baseline.
    ///
    /// # Errors
    ///
    /// Malformed JSON, or the violations of
    /// `schemas/qor_baseline.schema.json`.
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
        let (total_s, total_rel_tol, self_shares) = doc.at("runtime", |rt| {
            let self_shares = rt.each("self_shares", |e| {
                Ok(ShareEntry {
                    name: e.str("name")?.to_string(),
                    share: e.f64("share")?,
                    abs_tol: e.f64("abs_tol")?,
                })
            })?;
            Ok((rt.f64("total_s")?, rt.f64("total_rel_tol")?, self_shares))
        })?;
        Ok(Self {
            design: doc.str("design")?.to_string(),
            scale: doc.f64("scale")?,
            qor,
            total_s,
            total_rel_tol,
            self_shares,
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
            total_s: 1.0,
            total_rel_tol: 25.0,
            self_shares: vec![ShareEntry {
                name: "flat placement".into(),
                share: 0.4,
                abs_tol: 0.35,
            }],
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
  "version": 1.0,
  "design": "aes",
  "scale": 0.02,
  "qor": [
    {"name": "qor.legalized.hpwl", "value": 1000.0, "rel_tol": 0.000001},
    {"name": "qor.timing.wns", "value": -50.0, "rel_tol": 0.000001}
  ],
  "runtime": {
    "total_s": 1.0,
    "total_rel_tol": 25.0,
    "self_shares": [
      {"name": "flat placement", "share": 0.4, "abs_tol": 0.35}
    ]
  }
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
    }
}
