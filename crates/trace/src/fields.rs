//! Spatial field frames: per-bin grid snapshots, one record kind of the
//! trace.
//!
//! The trace's other records are scalar — spans, counters, series rows.
//! Frames add the spatial axis: a [`Frame`] is one dense f32 grid
//! (density overflow, displacement, eDensity charge, GCell congestion)
//! stamped with the stage it was recorded in and an iteration index.
//! [`record_with`] pushes it into the trace collector under the ambient
//! span, [`crate::take_report`] moves it into
//! [`TraceReport::frames`](crate::TraceReport::frames) with the rest of
//! its subtree, and [`diagnose`] reads it there.
//!
//! - **Free below `Full`.** [`record_with`] checks the level byte first
//!   (one relaxed load); the grid-building closure never runs below
//!   [`Level::Full`](crate::Level::Full).
//! - **Inert.** Recording copies values out of the flow; nothing
//!   recorded feeds back into placement or routing, so flow outputs are
//!   bitwise identical at every level.
//! - **Scoped.** Frames are only recorded inside a [`scope`] — a
//!   thread-local stage label the flow opens around its top-level
//!   placement and PPA stages. Helper threads (V-P&R candidate
//!   placements) never see an open scope, which keeps the recorded
//!   sequence deterministic in content *and order* for a given flow.
//! - **Capped.** At most [`MAX_FRAMES`] frames are buffered; a frame past
//!   the cap, or one whose grid is not `nx * ny` values, is counted in
//!   [`TraceReport::dropped_events`](crate::TraceReport::dropped_events).
//!
//! [`diagnose`] is the convergence doctor: it reads frames only and
//! reports bins that stay overloaded and spreading that never settles.

use std::cell::Cell;

use crate::{collector, lock, telemetry_enabled, CURRENT};

/// Per-run cap on buffered frames: enough for a full clustered flow's
/// density/displacement/charge/congestion movies at every stage, small
/// enough that a runaway loop cannot exhaust memory.
pub const MAX_FRAMES: usize = 4096;

thread_local! {
    /// The ambient stage label. `None` outside any [`scope`] — notably
    /// on `cp-parallel` helper threads, whose placements are never
    /// recorded.
    static SCOPE: Cell<Option<&'static str>> = const { Cell::new(None) };
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
/// opens one around each stage whose spatial state is worth recording;
/// record sites inherit the label so the placer never needs to know
/// which stage it is running under.
#[must_use = "the scope closes when the guard drops"]
pub fn scope(stage: &'static str) -> FieldScope {
    FieldScope {
        prev: SCOPE.with(|s| s.replace(Some(stage))),
    }
}

/// One grid snapshot: the full `nx × ny` grid, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the grid measures, e.g. `place.density_overflow`.
    pub name: &'static str,
    /// The stage label of the enclosing [`scope`].
    pub stage: &'static str,
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

/// Records one frame under the ambient span, building the grid only if
/// it will be kept: `grid` runs only at [`Level::Full`](crate::Level::Full)
/// inside a [`scope`], so anywhere else a record site costs one relaxed
/// load. `grid` returns `(nx, ny, values)`, the values row-major.
pub fn record_with<F>(name: &'static str, iter: u64, grid: F)
where
    F: FnOnce() -> (usize, usize, Vec<f32>),
{
    if !telemetry_enabled() {
        return;
    }
    let Some(stage) = SCOPE.with(Cell::get) else {
        return;
    };
    let (nx, ny, values) = grid();
    let span = CURRENT.with(Cell::get);
    let mut c = lock(collector());
    if c.frames.len() >= MAX_FRAMES || nx.checked_mul(ny) != Some(values.len()) {
        c.dropped += 1;
        return;
    }
    let frame = Frame {
        name,
        stage,
        iter,
        nx,
        ny,
        values,
    };
    c.frames.push((span, frame));
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
fn frame_sequences<'f>(frames: &'f [Frame], name: &str) -> Vec<(&'static str, Vec<&'f Frame>)> {
    let mut seqs: Vec<(&'static str, Vec<&Frame>)> = Vec::new();
    for f in frames.iter().filter(|f| f.name == name) {
        match seqs.iter_mut().find(|(stage, _)| *stage == f.stage) {
            Some((_, v)) => v.push(f),
            None => seqs.push((f.stage, vec![f])),
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
                    stage: stage.to_string(),
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
                stage: stage.to_string(),
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
    use crate::{clear, set_level, span, take_report, Level, TraceReport};

    /// Serializes tests that flip the process-global level.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        crate::test_serial()
    }

    /// The frames and dropped-event count of `body` run at `level` under
    /// a fresh root span (none below `Spans`).
    fn capture(level: Level, body: impl FnOnce()) -> (Vec<Frame>, u64) {
        clear();
        set_level(level);
        let root = span("fields-root");
        body();
        let report = take_report(root);
        set_level(Level::Off);
        clear();
        report.map_or((vec![], 0), |r| (r.frames, r.dropped_events))
    }

    fn unit(v: f32) -> impl FnOnce() -> (usize, usize, Vec<f32>) {
        move || (1, 1, vec![v])
    }

    #[test]
    fn off_is_inert_and_scope_required() {
        let _g = serial();
        let ran = std::cell::Cell::new(false);
        let record = || {
            record_with("t.field", 0, || {
                ran.set(true);
                (2, 2, vec![1.0, 2.0, 3.0, 4.0])
            })
        };
        for level in [Level::Off, Level::Spans] {
            let (frames, _) = capture(level, || {
                let _s = scope("stage-a");
                record();
            });
            assert!(!ran.get(), "closure must not run at {level:?}");
            assert!(frames.is_empty());
        }
        // Full but no scope: still nothing recorded.
        let (frames, _) = capture(Level::Full, record);
        assert!(!ran.get(), "closure must not run outside a scope");
        assert!(frames.is_empty());
    }

    #[test]
    fn budget_drops_and_counts() {
        let _g = serial();
        let (frames, dropped) = capture(Level::Full, || {
            let _s = scope("stage-b");
            for it in 0..MAX_FRAMES as u64 + 3 {
                record_with("t.budget", it, unit(it as f32));
            }
        });
        assert_eq!(frames.len(), MAX_FRAMES);
        assert_eq!(dropped, 3);
        assert_eq!(frames[MAX_FRAMES - 1].iter, MAX_FRAMES as u64 - 1);
    }

    #[test]
    fn scope_nests_and_restores() {
        let _g = serial();
        let (frames, _) = capture(Level::Full, || {
            let _outer = scope("outer");
            {
                let _inner = scope("inner");
                record_with("t.scope", 0, unit(1.0));
            }
            record_with("t.scope", 1, unit(2.0));
        });
        assert_eq!(SCOPE.with(Cell::get), None, "scope closes with its guard");
        let stages: Vec<&str> = frames.iter().map(|f| f.stage).collect();
        assert_eq!(stages, ["inner", "outer"]);
    }

    /// Frames go with the subtree they were recorded under: another
    /// root's frames stay buffered for its own report.
    #[test]
    fn frames_land_in_the_report_of_their_subtree() {
        let _g = serial();
        clear();
        set_level(Level::Full);
        let _s = scope("stage-f");
        let foreign = span("foreign-root");
        record_with("t.foreign", 0, unit(9.0));
        let root = span("root");
        {
            let _child = span("child");
            record_with("t.mine", 0, || (2, 1, vec![0.5, f32::NAN]));
        }
        let mine = take_report(root).expect("report at Full");
        let theirs = take_report(foreign).expect("foreign report at Full");
        set_level(Level::Off);
        clear();
        let names = |r: &TraceReport| r.frames.iter().map(|f| f.name).collect::<Vec<_>>();
        assert_eq!(names(&mine), ["t.mine"]);
        assert_eq!(names(&theirs), ["t.foreign"]);
        // A non-finite cell is written as null.
        let json = mine.to_json();
        assert!(
            json.contains(r#""nx":2,"ny":1,"values":[0.5,null]"#),
            "{json}"
        );
    }

    #[test]
    fn mismatched_grid_is_dropped() {
        let _g = serial();
        let (frames, dropped) = capture(Level::Full, || {
            let _s = scope("stage-m");
            record_with("t.bad", 0, || (3, 3, vec![1.0]));
            record_with("t.bad", 1, || (usize::MAX, 2, vec![]));
        });
        assert!(frames.is_empty());
        assert_eq!(dropped, 2);
    }

    /// The report writes each frame as the object the frames document
    /// wrote before frames joined the trace.
    #[test]
    fn document_matches_its_golden_bytes() {
        let frame = |name, stage, iter, (nx, ny), values| Frame {
            name,
            stage,
            iter,
            nx,
            ny,
            values,
        };
        let report = TraceReport {
            root: 1,
            spans: vec![],
            instants: vec![],
            series: vec![],
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
            metrics: vec![],
            dropped_events: 0,
        };
        assert!(report.to_json().ends_with(
            r#""frames":[{"name":"place.density_overflow","stage":"flat placement","iter":0,"nx":2,"ny":2,"values":[0.5,-1.25,0.0,3.0]},{"name":"place.density_overflow","stage":"flat placement","iter":1,"nx":2,"ny":2,"values":[0.5,2.0,0.0,null]},{"name":"route.\"congestion\"","stage":"ppa","iter":7,"nx":1,"ny":1,"values":[0.0010000000474974513]}],"metrics":[]}"#
        ));
    }

    // -- doctor --

    fn frame(name: &'static str, stage: &'static str, iter: u64, values: Vec<f32>) -> Frame {
        Frame {
            name,
            stage,
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
