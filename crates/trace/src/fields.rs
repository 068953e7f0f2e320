//! Spatial field frames: per-bin grid snapshots on the trace plane.
//!
//! Every observability layer below this one is scalar — spans, counters,
//! series rows. Fields add the missing spatial axis: a [`Frame`] is one
//! dense f32 grid (density overflow, displacement, eDensity charge, GCell
//! congestion) stamped with the stage it was recorded in and an
//! iteration index. The same type runs from [`record_with`] through
//! [`take`], [`to_json`] and [`decode_json`] to [`diagnose`], so a live
//! capture and a written one are the same value.
//!
//! The discipline mirrors spans:
//!
//! - **Free when off.** Every record site is gated on [`enabled`] — a
//!   single relaxed atomic load — before anything is computed. The
//!   grid-building closure passed to [`record_with`] never runs while
//!   fields are off.
//! - **Inert when on.** Recording copies values out of the flow; nothing
//!   recorded ever feeds back into placement or routing, so flow outputs
//!   are bitwise identical with fields on and off.
//! - **Scoped.** Frames are only captured inside a [`scope`] — a
//!   thread-local stage label the flow opens around its top-level
//!   placement and PPA stages. Worker threads (V-P&R candidate
//!   placements) never see an open scope, which keeps the captured
//!   sequence deterministic in content *and order* for a given flow.
//! - **Budgeted.** A per-run frame budget bounds memory; frames past the
//!   budget are counted in `dropped_frames`, never silently lost.
//!
//! [`diagnose`] is the convergence doctor: it reads frames only and
//! reports bins that stay overloaded and spreading that never settles.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::{parse_checked, Json, Writer};
use crate::lock;

/// JSON Schema for the frames artifact, compiled into the binary so the
/// writer and the checker cannot drift apart.
pub const SCHEMA_JSON: &str = include_str!("../../../schemas/field_frames.schema.json");

/// Default per-run frame budget: enough for a full clustered flow's
/// density/displacement/charge/congestion movies at every stage, small
/// enough that a runaway loop cannot exhaust memory.
pub const DEFAULT_FRAME_BUDGET: usize = 4096;

// ---------------------------------------------------------------------------
// Gating

/// One relaxed load at every record site, exactly like the level byte.
static FIELDS_ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The ambient stage label. `None` outside any [`scope`] — notably
    /// on pool worker threads, whose placements are never captured.
    static SCOPE: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// Whether field capture is enabled. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    FIELDS_ON.load(Ordering::Relaxed)
}

/// Whether a frame recorded *here, now* would be kept: fields enabled
/// (one relaxed load; the fast path out) and an ambient [`scope`] open
/// on this thread.
#[inline]
pub fn recording() -> bool {
    enabled() && SCOPE.with(Cell::get).is_some()
}

/// Enables field capture with the given frame budget, clearing any
/// frames left from a previous run.
pub fn enable(budget: usize) {
    let mut s = lock(store());
    s.frames.clear();
    s.dropped = 0;
    s.budget = budget;
    drop(s);
    FIELDS_ON.store(true, Ordering::Relaxed);
}

/// Disables field capture. Buffered frames stay until [`take`] or
/// [`clear`].
pub fn disable() {
    FIELDS_ON.store(false, Ordering::Relaxed);
}

/// An RAII guard holding the ambient stage label open on this thread.
pub struct FieldScope {
    prev: Option<&'static str>,
}

impl Drop for FieldScope {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev));
    }
}

/// Opens a field-recording scope labelled with `stage` on the current
/// thread, restoring the previous label when the guard drops. The flow
/// opens one around each stage whose spatial state is worth capturing;
/// record sites inherit the label so the placer never needs to know
/// which stage it is running under.
#[must_use = "the scope closes when the guard drops"]
pub fn scope(stage: &'static str) -> FieldScope {
    FieldScope {
        prev: SCOPE.with(|s| s.replace(Some(stage))),
    }
}

// ---------------------------------------------------------------------------
// Frames

/// The frames document's format version; [`decode_json`] refuses every
/// other.
const VERSION: u64 = 2;

/// One grid snapshot: the full `nx × ny` grid, row-major.
#[derive(Debug, Clone)]
pub struct Frame {
    /// What the grid measures, e.g. `place.density_overflow`.
    pub name: String,
    /// The stage label of the enclosing [`scope`].
    pub stage: String,
    /// Iteration index within the sequence (the placer's outer
    /// iteration, the backend's spread call, …).
    pub iter: u64,
    /// Grid width (cells per row).
    pub nx: usize,
    /// Grid height (rows).
    pub ny: usize,
    /// Exactly `nx * ny` values, row-major.
    pub values: Vec<f32>,
}

impl PartialEq for Frame {
    /// Cells compare bit for bit, except that every NaN equals every
    /// other: the document spells a non-finite cell `null`, which reads
    /// back as NaN.
    fn eq(&self, other: &Self) -> bool {
        let same = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        (&self.name, &self.stage, self.iter, self.nx, self.ny)
            == (&other.name, &other.stage, other.iter, other.nx, other.ny)
            && self.values.len() == other.values.len()
            && self.values.iter().zip(&other.values).all(same)
    }
}

/// Everything [`take`] drains: the frames in record order plus the
/// budget accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameCapture {
    /// Frames in record order.
    pub frames: Vec<Frame>,
    /// Frames refused because the budget was exhausted.
    pub dropped_frames: u64,
    /// The budget the capture ran under.
    pub budget: usize,
}

struct FieldStore {
    frames: Vec<Frame>,
    dropped: u64,
    budget: usize,
}

fn store() -> &'static Mutex<FieldStore> {
    static STORE: OnceLock<Mutex<FieldStore>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(FieldStore {
            frames: Vec::new(),
            dropped: 0,
            budget: DEFAULT_FRAME_BUDGET,
        })
    })
}

/// Records one frame, building the grid only if it will be kept: the
/// closure runs after the [`recording`] gate passes, so a disabled site
/// costs one relaxed load. The closure must return exactly `nx * ny`
/// row-major values; a mismatched grid is dropped and counted.
pub fn record_with<F>(name: &'static str, iter: u64, nx: usize, ny: usize, values: F)
where
    F: FnOnce() -> Vec<f32>,
{
    if !enabled() {
        return;
    }
    let Some(stage) = SCOPE.with(Cell::get) else {
        return;
    };
    let values = values();
    let mut s = lock(store());
    if s.frames.len() >= s.budget || values.len() != nx * ny {
        s.dropped += 1;
        return;
    }
    s.frames.push(Frame {
        name: name.to_string(),
        stage: stage.to_string(),
        iter,
        nx,
        ny,
        values,
    });
}

/// Drains every buffered frame, returning them with the budget
/// accounting. The store resets so the next run starts clean.
pub fn take() -> FrameCapture {
    let mut s = lock(store());
    let budget = s.budget;
    FrameCapture {
        frames: std::mem::take(&mut s.frames),
        dropped_frames: std::mem::take(&mut s.dropped),
        budget,
    }
}

/// Discards all buffered frames (the [`crate::clear`] hook). The enabled
/// flag and budget are untouched.
pub fn clear() {
    let mut s = lock(store());
    s.frames.clear();
    s.dropped = 0;
}

// ---------------------------------------------------------------------------
// JSON

/// Serializes a capture as the `field_frames.schema.json` document.
/// Byte-deterministic for a given capture.
pub fn to_json(capture: &FrameCapture) -> String {
    let mut w = Writer::new();
    w.object().key("version").u64(VERSION);
    w.key("budget").u64(capture.budget as u64);
    w.key("dropped_frames").u64(capture.dropped_frames);
    w.key("frames").array();
    for f in &capture.frames {
        w.object()
            .key("name")
            .str(&f.name)
            .key("stage")
            .str(&f.stage);
        w.key("iter").u64(f.iter);
        w.key("nx").u64(f.nx as u64).key("ny").u64(f.ny as u64);
        w.key("values").array();
        for &v in &f.values {
            w.f64(f64::from(v));
        }
        w.end().end();
    }
    w.end().end();
    w.finish()
}

/// Decodes a frames document: `decode_json(&to_json(&c)) == Ok(c)` for
/// every capture `c` (JSON has no infinity, so an infinite cell, like a
/// NaN one, reads back as NaN).
///
/// # Errors
///
/// Malformed JSON, a violation of `schemas/field_frames.schema.json`
/// (among them any version but 2), a size or count that is not an
/// in-range integer, or a frame whose value count is not `nx * ny`. No
/// allocation is sized by a number the file merely claims.
pub fn decode_json(input: &str) -> Result<FrameCapture, String> {
    static SCHEMA: OnceLock<Result<Json, String>> = OnceLock::new();
    let doc = parse_checked(input, SCHEMA_JSON, &SCHEMA)?;
    let frames = doc.each("frames", |f| {
        let (name, stage) = (f.str("name")?.to_string(), f.str("stage")?.to_string());
        let (nx, ny) = (f.usize("nx")?, f.usize("ny")?);
        let n = nx
            .checked_mul(ny)
            .ok_or_else(|| format!("a {nx}x{ny} grid overflows"))?;
        let values = f.each("values", |v| match v {
            Json::Null => Ok(f32::NAN),
            v => v.to_f64().map(|v| v as f32),
        })?;
        if values.len() != n {
            return Err(format!("{} values for a {nx}x{ny} grid", values.len()));
        }
        Ok(Frame {
            name,
            stage,
            iter: f.u64("iter")?,
            nx,
            ny,
            values,
        })
    })?;
    Ok(FrameCapture {
        frames,
        dropped_frames: doc.u64("dropped_frames")?,
        budget: doc.usize("budget")?,
    })
}

// ---------------------------------------------------------------------------
// Diagnosis

/// A bin is *hot* in a density frame when its value is at least this
/// fraction of the frame maximum.
const HOT_THRESHOLD: f32 = 0.5;

/// A hot bin is *persistent* when hot in at least this fraction of its
/// sequence's density frames.
const HOT_PERSISTENCE: f64 = 0.8;

/// Density frames a sequence needs before the hotspot check speaks.
const MIN_FRAMES: usize = 4;

/// Displacement frames a sequence needs before the conflict check speaks.
const MIN_DISPLACEMENT_FRAMES: usize = 6;

/// What a [`Verdict`] diagnoses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// The same bins stay overloaded across most density frames — a
    /// spatial bottleneck spreading never clears.
    HotspotPersistence,
    /// Spreading keeps displacing cells as hard late in the run as it
    /// did at the start: the lower bound and the upper bound fight.
    DisplacementConflict,
}

impl VerdictKind {
    /// Stable machine-readable label.
    pub fn as_str(self) -> &'static str {
        match self {
            VerdictKind::HotspotPersistence => "hotspot-persistence",
            VerdictKind::DisplacementConflict => "displacement-conflict",
        }
    }
}

/// One structured diagnosis: what went wrong, where, the numbers that
/// prove it, and what to try.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// What was diagnosed.
    pub kind: VerdictKind,
    /// The stage label of the frame sequence the anomaly lives in.
    pub stage: String,
    /// The numbers behind the diagnosis.
    pub evidence: String,
    /// What to try next.
    pub suggestion: String,
}

/// The convergence doctor: hotspot-persistence verdicts over each
/// `place.density_overflow` sequence, then displacement-conflict verdicts
/// over each `place.displacement` sequence, sequences in first-appearance
/// order. Empty means nothing anomalous.
pub fn diagnose(frames: &[Frame]) -> Vec<Verdict> {
    let mut out = Vec::new();
    check_hotspots(frames, &mut out);
    check_displacement(frames, &mut out);
    out
}

/// The frames named `name`, grouped by stage in first-appearance order.
fn frame_sequences<'f>(frames: &'f [Frame], name: &str) -> Vec<(String, Vec<&'f Frame>)> {
    let mut seqs: Vec<(String, Vec<&Frame>)> = Vec::new();
    for f in frames.iter().filter(|f| f.name == name) {
        match seqs.iter_mut().find(|(stage, _)| *stage == f.stage) {
            Some((_, v)) => v.push(f),
            None => seqs.push((f.stage.clone(), vec![f])),
        }
    }
    seqs
}

fn check_hotspots(frames: &[Frame], out: &mut Vec<Verdict>) {
    for (stage, seq) in frame_sequences(frames, "place.density_overflow") {
        if seq.len() < MIN_FRAMES {
            continue;
        }
        let n = seq[0].values.len();
        if seq.iter().any(|f| f.values.len() != n) || n == 0 {
            continue;
        }
        let mut hot_counts = vec![0usize; n];
        for f in &seq {
            let max = f.values.iter().copied().fold(0.0f32, f32::max);
            if max <= 0.0 {
                continue;
            }
            for (c, &v) in hot_counts.iter_mut().zip(f.values.iter()) {
                if v >= HOT_THRESHOLD * max && v > 0.0 {
                    *c += 1;
                }
            }
        }
        let need = (HOT_PERSISTENCE * seq.len() as f64).ceil() as usize;
        let last = seq[seq.len() - 1];
        let final_max = last.values.iter().copied().fold(0.0f32, f32::max);
        let worst = hot_counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= need)
            .max_by_key(|&(i, &c)| (c, last.values[i].to_bits()));
        if let Some((bin, &count)) = worst {
            if final_max > 0.0 {
                let persistent = hot_counts.iter().filter(|&&c| c >= need).count();
                let (bx, by) = (bin % last.nx.max(1), bin / last.nx.max(1));
                out.push(Verdict {
                    kind: VerdictKind::HotspotPersistence,
                    stage,
                    evidence: format!(
                        "{persistent} bin(s) stay overloaded in >= {count}/{} density frames; \
                         worst at bin ({bx}, {by}) of {}x{}, final overflow {:.4}",
                        seq.len(),
                        last.nx,
                        last.ny,
                        last.values[bin]
                    ),
                    suggestion: "spreading never clears this region — look for blockages, \
                                 region constraints or oversized macros there, or lower the \
                                 density target"
                        .to_string(),
                });
            }
        }
    }
}

fn check_displacement(frames: &[Frame], out: &mut Vec<Verdict>) {
    for (stage, seq) in frame_sequences(frames, "place.displacement") {
        if seq.len() < MIN_DISPLACEMENT_FRAMES {
            continue;
        }
        let totals: Vec<f64> = seq
            .iter()
            .map(|f| f.values.iter().map(|&v| f64::from(v)).sum())
            .collect();
        let q = totals.len().div_ceil(4);
        let early: f64 = totals[..q].iter().sum::<f64>() / q as f64;
        let late: f64 = totals[totals.len() - q..].iter().sum::<f64>() / q as f64;
        if early > 0.0 && late > 0.75 * early {
            out.push(Verdict {
                kind: VerdictKind::DisplacementConflict,
                stage,
                evidence: format!(
                    "spreading displacement is not decaying: last-quarter mean {late:.4e} \
                     vs first-quarter {early:.4e} over {} frames",
                    totals.len()
                ),
                suggestion: "the lower bound and the spreader keep fighting; relax the \
                             density target so late iterations settle"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-global fields flag.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        crate::test_serial()
    }

    fn grid(vals: &[f32]) -> Vec<f32> {
        vals.to_vec()
    }

    #[test]
    fn off_is_inert_and_scope_required() {
        let _g = serial();
        disable();
        clear();
        let ran = std::cell::Cell::new(false);
        record_with("t.field", 0, 2, 2, || {
            ran.set(true);
            grid(&[1.0, 2.0, 3.0, 4.0])
        });
        assert!(!ran.get(), "closure must not run while fields are off");
        // Enabled but no scope: still nothing recorded.
        enable(16);
        record_with("t.field", 0, 2, 2, || {
            ran.set(true);
            grid(&[1.0, 2.0, 3.0, 4.0])
        });
        assert!(!ran.get(), "closure must not run outside a scope");
        assert!(take().frames.is_empty());
        disable();
    }

    #[test]
    fn budget_drops_and_counts() {
        let _g = serial();
        enable(2);
        {
            let _s = scope("stage-b");
            for it in 0..5u64 {
                record_with("t.budget", it, 1, 1, || grid(&[it as f32]));
            }
        }
        let cap = take();
        disable();
        assert_eq!(cap.frames.len(), 2);
        assert_eq!(cap.dropped_frames, 3);
        assert_eq!(cap.budget, 2);
    }

    #[test]
    fn scope_nests_and_restores() {
        let _g = serial();
        enable(16);
        {
            let _outer = scope("outer");
            {
                let _inner = scope("inner");
                record_with("t.scope", 0, 1, 1, || grid(&[1.0]));
            }
            record_with("t.scope", 1, 1, 1, || grid(&[2.0]));
        }
        assert!(!recording(), "scope must close when the guard drops");
        let cap = take();
        disable();
        assert_eq!(cap.frames[0].stage, "inner");
        assert_eq!(cap.frames[1].stage, "outer");
    }

    #[test]
    fn json_roundtrips_and_validates() {
        let _g = serial();
        enable(16);
        {
            let _s = scope("stage-j");
            record_with("t.json", 0, 2, 1, || grid(&[0.5, -1.25]));
            record_with("t.json", 1, 2, 1, || grid(&[f32::NAN, 2.0]));
        }
        let cap = take();
        disable();
        assert_eq!(decode_json(&to_json(&cap)), Ok(cap));
    }

    fn golden_capture() -> FrameCapture {
        let frame = |name: &str, stage: &str, iter, (nx, ny), values| Frame {
            name: name.to_string(),
            stage: stage.to_string(),
            iter,
            nx,
            ny,
            values,
        };
        FrameCapture {
            frames: vec![
                frame(
                    "place.density_overflow",
                    "flat placement",
                    0,
                    (2, 2),
                    vec![0.5, -1.25, 0.0, 3.0],
                ),
                frame(
                    "place.density_overflow",
                    "flat placement",
                    1,
                    (2, 2),
                    vec![0.5, 2.0, 0.0, f32::NAN],
                ),
                frame("route.\"congestion\"", "ppa", 7, (1, 1), vec![1e-3]),
            ],
            dropped_frames: 2,
            budget: 16,
        }
    }

    #[test]
    fn document_matches_its_golden_bytes() {
        assert_eq!(
            to_json(&golden_capture()),
            r#"{"version":2,"budget":16,"dropped_frames":2,"frames":[{"name":"place.density_overflow","stage":"flat placement","iter":0,"nx":2,"ny":2,"values":[0.5,-1.25,0.0,3.0]},{"name":"place.density_overflow","stage":"flat placement","iter":1,"nx":2,"ny":2,"values":[0.5,2.0,0.0,null]},{"name":"route.\"congestion\"","stage":"ppa","iter":7,"nx":1,"ny":1,"values":[0.0010000000474974513]}]}"#
        );
    }

    /// The crafted files that used to reach a multiply overflow and an
    /// allocation sized by two unchecked numbers, and a version-1
    /// document (`tests/regressions/`).
    #[test]
    fn crafted_frames_are_typed_errors() {
        let negative = include_str!("../../../tests/regressions/frames_negative_grid.json");
        let golden = to_json(&golden_capture());
        for (file, reason) in [
            (
                include_str!("../../../tests/regressions/frames_huge_grid.json"),
                "frames[0]: a 4294967296x4294967296 grid overflows",
            ),
            (negative, "$/frames/0/ny: expected integer"),
            (
                &negative.replace("2.7", "2"),
                "frames[0]: nx: expected an integer in 0..",
            ),
            (
                include_str!("../../../tests/regressions/frames_v1.json"),
                "schema violations: $/version: value not in enum",
            ),
            (
                &golden.replace("\"nx\":1,", "\"nx\":2,"),
                "frames[2]: 1 values for a 2x1 grid",
            ),
            (&golden.replace("\"budget\":16", "\"budget\":-1"), "budget:"),
        ] {
            let err = decode_json(file).expect_err(reason);
            assert!(err.contains(reason), "{err}");
        }
    }

    #[test]
    fn mismatched_grid_is_dropped() {
        let _g = serial();
        enable(16);
        {
            let _s = scope("stage-m");
            record_with("t.bad", 0, 3, 3, || grid(&[1.0]));
        }
        let cap = take();
        disable();
        assert!(cap.frames.is_empty());
        assert_eq!(cap.dropped_frames, 1);
    }

    // -- doctor --

    fn frame(name: &str, stage: &str, iter: u64, values: Vec<f32>) -> Frame {
        Frame {
            name: name.to_string(),
            stage: stage.to_string(),
            iter,
            nx: 2,
            ny: 2,
            values,
        }
    }

    #[test]
    fn doctor_flags_persistent_hotspot_bins() {
        let frames: Vec<Frame> = (0..6)
            .map(|i| {
                // Bin 3 always dominates; bin 0 cools off.
                frame(
                    "place.density_overflow",
                    "flat placement",
                    i,
                    vec![if i < 2 { 0.9 } else { 0.0 }, 0.0, 0.1, 1.0],
                )
            })
            .collect();
        let v = diagnose(&frames);
        let hot = v
            .iter()
            .find(|v| v.kind == VerdictKind::HotspotPersistence)
            .unwrap_or_else(|| panic!("no hotspot verdict: {v:?}"));
        assert!(hot.evidence.contains("bin (1, 1)"), "{}", hot.evidence);
    }

    #[test]
    fn doctor_flags_undamped_displacement() {
        let frames: Vec<Frame> = (0..8)
            .map(|i| frame("place.displacement", "flat placement", i, vec![2.0; 4]))
            .collect();
        let v = diagnose(&frames);
        assert!(
            v.iter()
                .any(|v| v.kind == VerdictKind::DisplacementConflict),
            "{v:?}"
        );
        // Decaying displacement passes.
        let frames: Vec<Frame> = (0..8)
            .map(|i| {
                frame(
                    "place.displacement",
                    "flat placement",
                    i,
                    vec![2.0 * 0.5f32.powi(i as i32); 4],
                )
            })
            .collect();
        let v = diagnose(&frames);
        assert!(v.is_empty(), "{v:?}");
    }
}
