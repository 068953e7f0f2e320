//! Spatial field frames: per-bin grid snapshots on the trace plane.
//!
//! Every observability layer below this one is scalar — spans, counters,
//! series rows. Fields add the missing spatial axis: a [`FieldFrame`] is
//! one f32 grid (density overflow, displacement, eDensity charge, GCell
//! congestion) stamped with the stage it was recorded in and an
//! iteration index. Consecutive frames of the same `(name, stage)`
//! sequence are stored as sparse deltas against the previous frame when
//! that is smaller, so a 30-iteration convergence movie costs little
//! more than its first frame plus what actually changed.
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
//! [`diagnose`] is the convergence doctor: it reads decoded frames only
//! and reports bins that stay overloaded and spreading that never settles.

use std::cell::Cell;
use std::collections::BTreeMap;
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
    s.last.clear();
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

/// How one frame's values are stored.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameData {
    /// The full `nx × ny` grid, row-major.
    Dense(Vec<f32>),
    /// Cells that changed since the previous frame of the same
    /// `(name, stage)` sequence: parallel `(index, new value)` arrays.
    Delta {
        /// Row-major cell indices, strictly increasing.
        indices: Vec<u32>,
        /// New values, one per index.
        values: Vec<f32>,
    },
}

/// One grid snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldFrame {
    /// What the grid measures, e.g. `place.density_overflow`.
    pub name: &'static str,
    /// The stage label of the enclosing [`scope`].
    pub stage: &'static str,
    /// Iteration index within the sequence (the placer's outer
    /// iteration, the backend's spread call, …).
    pub iter: u64,
    /// Grid width (cells per row).
    pub nx: u32,
    /// Grid height (rows).
    pub ny: u32,
    /// Values, dense or delta-encoded against the previous frame.
    pub data: FrameData,
}

/// Everything [`take`] drains: the frames in record order plus the
/// budget accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameCapture {
    /// Frames in record order.
    pub frames: Vec<FieldFrame>,
    /// Frames refused because the budget was exhausted.
    pub dropped_frames: u64,
    /// The budget the capture ran under.
    pub budget: usize,
}

/// A frame decoded back to a dense grid — the analysis/render plane's
/// view, also produced when parsing a frames JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// What the grid measures.
    pub name: String,
    /// Stage label the frame was recorded under.
    pub stage: String,
    /// Iteration index within its sequence.
    pub iter: u64,
    /// Grid width.
    pub nx: usize,
    /// Grid height.
    pub ny: usize,
    /// The full row-major grid.
    pub values: Vec<f32>,
}

struct FieldStore {
    frames: Vec<FieldFrame>,
    /// Last dense grid per `(name, stage)` with its width, the
    /// delta-encoding base.
    last: BTreeMap<(&'static str, &'static str), (usize, Vec<f32>)>,
    dropped: u64,
    budget: usize,
}

fn store() -> &'static Mutex<FieldStore> {
    static STORE: OnceLock<Mutex<FieldStore>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(FieldStore {
            frames: Vec::new(),
            last: BTreeMap::new(),
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
    let grid = values();
    let mut s = lock(store());
    if s.frames.len() >= s.budget {
        s.dropped += 1;
        return;
    }
    if grid.len() != nx * ny {
        s.dropped += 1;
        return;
    }
    let data = match s.last.get(&(name, stage)) {
        // Same width and cell count: the same shape, which the decoder
        // requires of a delta's base.
        Some((prev_nx, prev)) if *prev_nx == nx && prev.len() == grid.len() => {
            let mut indices = Vec::new();
            let mut vals = Vec::new();
            for (i, (&new, &old)) in grid.iter().zip(prev.iter()).enumerate() {
                if new.to_bits() != old.to_bits() {
                    indices.push(i as u32);
                    vals.push(new);
                }
            }
            // A delta entry costs an index and a value; past half the
            // grid changed, dense is smaller.
            if indices.len() * 2 >= grid.len() {
                FrameData::Dense(grid.clone())
            } else {
                FrameData::Delta {
                    indices,
                    values: vals,
                }
            }
        }
        _ => FrameData::Dense(grid.clone()),
    };
    s.last.insert((name, stage), (nx, grid));
    s.frames.push(FieldFrame {
        name,
        stage,
        iter,
        nx: nx as u32,
        ny: ny as u32,
        data,
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

/// Discards all buffered frames and delta bases (the [`crate::clear`]
/// hook). The enabled flag and budget are untouched.
pub fn clear() {
    let mut s = lock(store());
    s.frames.clear();
    s.last.clear();
    s.dropped = 0;
}

/// Decodes a capture's frames back to dense grids, applying deltas per
/// `(name, stage)` sequence in record order. A delta without a base (or
/// with an out-of-range index) yields zeros for the missing cells — the
/// decoder never fails on its own writer's output.
pub fn decode(capture: &FrameCapture) -> Vec<DecodedFrame> {
    let mut last: BTreeMap<(&str, &str), Vec<f32>> = BTreeMap::new();
    let mut out = Vec::with_capacity(capture.frames.len());
    for f in &capture.frames {
        let n = f.nx as usize * f.ny as usize;
        let values = match &f.data {
            FrameData::Dense(v) => v.clone(),
            FrameData::Delta { indices, values } => {
                let mut base = last
                    .get(&(f.name, f.stage))
                    .cloned()
                    .unwrap_or_else(|| vec![0.0; n]);
                base.resize(n, 0.0);
                for (&i, &v) in indices.iter().zip(values.iter()) {
                    if let Some(cell) = base.get_mut(i as usize) {
                        *cell = v;
                    }
                }
                base
            }
        };
        last.insert((f.name, f.stage), values.clone());
        out.push(DecodedFrame {
            name: f.name.to_string(),
            stage: f.stage.to_string(),
            iter: f.iter,
            nx: f.nx as usize,
            ny: f.ny as usize,
            values,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// JSON

/// Serializes a capture as the `field_frames.schema.json` document.
/// Byte-deterministic for a given capture.
pub fn to_json(capture: &FrameCapture) -> String {
    let mut w = Writer::new();
    w.object().key("version").u64(1);
    w.key("budget").u64(capture.budget as u64);
    w.key("dropped_frames").u64(capture.dropped_frames);
    w.key("frames").array();
    for f in &capture.frames {
        w.object().key("name").str(f.name).key("stage").str(f.stage);
        w.key("iter").u64(f.iter);
        w.key("nx").u64(f.nx.into()).key("ny").u64(f.ny.into());
        let values = match &f.data {
            FrameData::Dense(values) => {
                w.key("encoding").str("dense");
                values
            }
            FrameData::Delta { indices, values } => {
                w.key("encoding").str("delta").key("indices").array();
                for &ix in indices {
                    w.u64(ix.into());
                }
                w.end();
                values
            }
        };
        w.key("values").array();
        for &v in values {
            w.f64(f64::from(v));
        }
        w.end().end();
    }
    w.end().end();
    w.finish()
}

/// Decodes a frames document ([`to_json`] output) to dense grids,
/// applying deltas per `(name, stage)` sequence in file order.
///
/// # Errors
///
/// Malformed JSON, a violation of `schemas/field_frames.schema.json`, a
/// grid size that is not a pair of in-range integers, a dense frame whose
/// value count is not `nx * ny`, or a delta frame that has no previous
/// frame of the same sequence and shape or indexes outside it. No
/// allocation is sized by a number the file merely claims.
pub fn decode_json(input: &str) -> Result<Vec<DecodedFrame>, String> {
    static SCHEMA: OnceLock<Result<Json, String>> = OnceLock::new();
    let doc = parse_checked(input, SCHEMA_JSON, &SCHEMA)?;
    let mut last: BTreeMap<(String, String), (usize, usize, Vec<f32>)> = BTreeMap::new();
    doc.each("frames", |f| {
        let key = (f.str("name")?.to_string(), f.str("stage")?.to_string());
        let (nx, ny) = (f.usize("nx")?, f.usize("ny")?);
        let n = nx
            .checked_mul(ny)
            .ok_or_else(|| format!("a {nx}x{ny} grid overflows"))?;
        let raw = f.each("values", |v| v.to_f64().map(|v| v as f32))?;
        let values = if f.str("encoding")? == "dense" {
            if raw.len() != n {
                return Err(format!("{} values for a {nx}x{ny} dense frame", raw.len()));
            }
            raw
        } else {
            let indices = f.each("indices", Json::to_usize)?;
            if indices.len() != raw.len() {
                let (i, v) = (indices.len(), raw.len());
                return Err(format!("{i} indices for {v} delta values"));
            }
            let mut base = match last.get(&key) {
                Some((bx, by, base)) if (*bx, *by) == (nx, ny) => base.clone(),
                _ => return Err(format!("delta frame without a previous {nx}x{ny} frame")),
            };
            for (&i, &v) in indices.iter().zip(&raw) {
                *base
                    .get_mut(i)
                    .ok_or_else(|| format!("delta index {i} outside {n} cells"))? = v;
            }
            base
        };
        last.insert(key.clone(), (nx, ny, values.clone()));
        Ok(DecodedFrame {
            name: key.0,
            stage: key.1,
            iter: f.u64("iter")?,
            nx,
            ny,
            values,
        })
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
pub fn diagnose(frames: &[DecodedFrame]) -> Vec<Verdict> {
    let mut out = Vec::new();
    check_hotspots(frames, &mut out);
    check_displacement(frames, &mut out);
    out
}

/// The frames named `name`, grouped by stage in first-appearance order.
fn frame_sequences<'f>(
    frames: &'f [DecodedFrame],
    name: &str,
) -> Vec<(String, Vec<&'f DecodedFrame>)> {
    let mut seqs: Vec<(String, Vec<&DecodedFrame>)> = Vec::new();
    for f in frames.iter().filter(|f| f.name == name) {
        match seqs.iter_mut().find(|(stage, _)| *stage == f.stage) {
            Some((_, v)) => v.push(f),
            None => seqs.push((f.stage.clone(), vec![f])),
        }
    }
    seqs
}

fn check_hotspots(frames: &[DecodedFrame], out: &mut Vec<Verdict>) {
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

fn check_displacement(frames: &[DecodedFrame], out: &mut Vec<Verdict>) {
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
                suggestion: "the lower bound and the spreader keep fighting; raise the \
                             anchor ramp (anchor_base) so late iterations settle, or relax \
                             the density target"
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
    fn delta_encoding_roundtrips() {
        let _g = serial();
        enable(16);
        {
            let _s = scope("stage-a");
            record_with("t.delta", 0, 2, 2, || grid(&[1.0, 2.0, 3.0, 4.0]));
            record_with("t.delta", 1, 2, 2, || grid(&[1.0, 2.5, 3.0, 4.0]));
            record_with("t.delta", 2, 2, 2, || grid(&[9.0, 8.0, 7.0, 6.0]));
        }
        let cap = take();
        disable();
        assert_eq!(cap.frames.len(), 3);
        assert!(matches!(cap.frames[0].data, FrameData::Dense(_)));
        match &cap.frames[1].data {
            FrameData::Delta { indices, values } => {
                assert_eq!(indices, &[1]);
                assert_eq!(values, &[2.5]);
            }
            other => panic!("one-cell change must delta-encode, got {other:?}"),
        }
        // Every cell changed: dense wins.
        assert!(matches!(cap.frames[2].data, FrameData::Dense(_)));
        let decoded = decode(&cap);
        assert_eq!(decoded[1].values, grid(&[1.0, 2.5, 3.0, 4.0]));
        assert_eq!(decoded[2].values, grid(&[9.0, 8.0, 7.0, 6.0]));
        assert_eq!(decoded[1].stage, "stage-a");
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
            record_with("t.json", 1, 2, 1, || grid(&[0.5, 2.0]));
        }
        let cap = take();
        disable();
        let text = to_json(&cap);
        let decoded = decode_json(&text).expect("parses, validates and decodes");
        assert_eq!(decoded, decode(&cap));
    }

    fn golden_capture() -> FrameCapture {
        let frame = |name, stage, iter, (nx, ny), data| FieldFrame {
            name,
            stage,
            iter,
            nx,
            ny,
            data,
        };
        let delta = FrameData::Delta {
            indices: vec![1, 3],
            values: vec![2.0, f32::NAN],
        };
        FrameCapture {
            frames: vec![
                frame(
                    "place.density_overflow",
                    "flat placement",
                    0,
                    (2, 2),
                    FrameData::Dense(vec![0.5, -1.25, 0.0, 3.0]),
                ),
                frame("place.density_overflow", "flat placement", 1, (2, 2), delta),
                frame(
                    "route.\"congestion\"",
                    "ppa",
                    7,
                    (1, 1),
                    FrameData::Dense(vec![1e-3]),
                ),
            ],
            dropped_frames: 2,
            budget: 16,
        }
    }

    #[test]
    fn document_matches_its_golden_bytes() {
        assert_eq!(
            to_json(&golden_capture()),
            r#"{"version":1,"budget":16,"dropped_frames":2,"frames":[{"name":"place.density_overflow","stage":"flat placement","iter":0,"nx":2,"ny":2,"encoding":"dense","values":[0.5,-1.25,0.0,3.0]},{"name":"place.density_overflow","stage":"flat placement","iter":1,"nx":2,"ny":2,"encoding":"delta","indices":[1,3],"values":[2.0,null]},{"name":"route.\"congestion\"","stage":"ppa","iter":7,"nx":1,"ny":1,"encoding":"dense","values":[0.0010000000474974513]}]}"#
        );
    }

    /// The crafted files that used to reach a multiply overflow, an
    /// out-of-bounds index and an allocation sized by two unchecked
    /// numbers (`tests/regressions/`).
    #[test]
    fn crafted_frames_are_typed_errors() {
        let negative = include_str!("../../../tests/regressions/frames_negative_grid.json");
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
                include_str!("../../../tests/regressions/frames_delta_without_base.json"),
                "frames[0]: delta frame without a previous 65536x65536 frame",
            ),
        ] {
            let err = decode_json(file).expect_err(reason);
            assert!(err.contains(reason), "{err}");
        }
        // A delta only applies to a predecessor of its own shape.
        let reshaped = to_json(&golden_capture()).replace("null", "1.0").replace(
            "\"iter\":1,\"nx\":2,\"ny\":2",
            "\"iter\":1,\"nx\":4,\"ny\":1",
        );
        let err = decode_json(&reshaped).expect_err("reshaped delta");
        assert!(err.contains("frames[1]: delta frame without"), "{err}");
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

    fn frame(name: &str, stage: &str, iter: u64, values: Vec<f32>) -> DecodedFrame {
        DecodedFrame {
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
        let frames: Vec<DecodedFrame> = (0..6)
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
        let frames: Vec<DecodedFrame> = (0..8)
            .map(|i| frame("place.displacement", "flat placement", i, vec![2.0; 4]))
            .collect();
        let v = diagnose(&frames);
        assert!(
            v.iter()
                .any(|v| v.kind == VerdictKind::DisplacementConflict),
            "{v:?}"
        );
        // Decaying displacement passes.
        let frames: Vec<DecodedFrame> = (0..8)
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
