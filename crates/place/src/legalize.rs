//! Row legalization (Tetris / greedy displacement).
//!
//! Snaps single-row-height objects onto rows and sites, left-to-right, each
//! cell taking the row/site minimizing displacement from its global
//! position. Multi-row objects (cluster macros) are left untouched.
//!
//! Each row keeps one fill cursor; a cell lands at the first free segment
//! (row span minus blockages) at or past the cursor that is wide enough.
//! The winning row is the one of least `|Δx| + |Δy|`, the lowest row
//! index among equals. Rows are searched outward from the cell's own row,
//! upwards and then downwards, and a direction stops at the first row
//! whose `|Δy|` alone exceeds the best cost so far: `|Δx| ≥ 0` and
//! floating-point addition is monotone, so `|Δx| + |Δy| ≥ |Δy|` holds
//! after rounding and neither that row nor any farther one can win or
//! tie — the result is the all-rows scan's, bit for bit.

use crate::error::PlaceError;
use crate::problem::PlacementProblem;
use cp_netlist::floorplan::Floorplan;

/// Per-row fill state, one array per field: scoring a run of rows reads
/// `y`, `land_x` and `seg_end` front to back and nothing else.
struct Rows {
    /// Bottom edge of each row.
    y: Vec<f64>,
    /// Where the next cell lands in the row's current segment (site
    /// aligned); `INFINITY` once the row is full.
    land_x: Vec<f64>,
    /// Right end of the current segment, tolerance included.
    seg_end: Vec<f64>,
    /// Fill cursor, in µm.
    cursor: Vec<f64>,
    /// Index into `segs` of each row's current segment: the first one
    /// that can still take the narrowest cell.
    current: Vec<u32>,
    /// Row `r`'s free x-segments are `segs[seg_ptr[r]..seg_ptr[r + 1]]`.
    seg_ptr: Vec<u32>,
    segs: Vec<(f64, f64)>,
}

/// Left-most landing x in segment `(s0, _)` for a row filled to `cursor`:
/// the first site boundary at or past both.
fn landing_x(floorplan: &Floorplan, cursor: f64, s0: f64) -> f64 {
    let (llx, site) = (floorplan.core.llx, floorplan.site_width);
    let raw = cursor.max(s0);
    let x = llx + ((raw - llx) / site - 1e-9).ceil() * site;
    x.max(s0)
}

impl Rows {
    /// Empty rows; `min_width` is the narrowest cell they will be offered.
    fn new(floorplan: &Floorplan, rows: usize, min_width: f64) -> Self {
        let core = floorplan.core;
        let mut seg_ptr = vec![0u32];
        let mut segs: Vec<(f64, f64)> = Vec::with_capacity(rows);
        for r in 0..rows {
            // The row span minus blockage overlaps.
            let y0 = floorplan.row_y(r);
            let y1 = y0 + floorplan.row_height;
            let first = segs.len();
            segs.push((core.llx, core.urx));
            for b in &floorplan.blockages {
                if b.ury <= y0 + 1e-9 || b.lly >= y1 - 1e-9 {
                    continue;
                }
                for (s0, s1) in segs.split_off(first) {
                    if b.urx <= s0 || b.llx >= s1 {
                        segs.push((s0, s1));
                        continue;
                    }
                    if b.llx > s0 {
                        segs.push((s0, b.llx));
                    }
                    if b.urx < s1 {
                        segs.push((b.urx, s1));
                    }
                }
            }
            seg_ptr.push(segs.len() as u32);
        }
        let mut state = Self {
            y: (0..rows).map(|r| floorplan.row_y(r)).collect(),
            land_x: vec![f64::INFINITY; rows],
            seg_end: vec![f64::NEG_INFINITY; rows],
            cursor: vec![core.llx; rows],
            current: seg_ptr[..rows].to_vec(),
            seg_ptr,
            segs,
        };
        for r in 0..rows {
            state.advance(floorplan, r, core.llx, min_width);
        }
        state
    }

    /// Moves row `r`'s cursor and re-derives its current segment: segments
    /// too short for `min_width` at this cursor fit no cell now or later
    /// (the landing x only grows with the cursor), so they are dropped.
    fn advance(&mut self, floorplan: &Floorplan, r: usize, cursor: f64, min_width: f64) {
        self.cursor[r] = cursor;
        let end = self.seg_ptr[r + 1];
        while self.current[r] < end {
            let (s0, s1) = self.segs[self.current[r] as usize];
            let x = landing_x(floorplan, cursor, s0);
            if x + min_width <= s1 + 1e-9 {
                self.land_x[r] = x;
                self.seg_end[r] = s1 + 1e-9;
                return;
            }
            self.current[r] += 1;
        }
        self.land_x[r] = f64::INFINITY;
    }

    /// The landing of least `|Δx| + |Δy|` for `cell`, the lowest row among
    /// equals, and the number of rows scored to find it. Rows are scored
    /// upwards from the cell's own row, then downwards from the one
    /// below, each direction until a row on the far side of `gy` has a
    /// `|Δy|` above the best cost: every row behind it costs more still.
    fn search(&self, floorplan: &Floorplan, cell: &Cell) -> (Landing, usize) {
        let rows = self.y.len();
        let own = (((cell.gy - floorplan.core.lly) / floorplan.row_height)
            .round()
            .max(0.0) as usize)
            .min(rows - 1);
        let mut best = Landing::NONE;
        let mut scored = 0;
        for r in own..rows {
            let dy = (self.y[r] - cell.gy).abs();
            if self.y[r] >= cell.gy && dy > best.cost {
                break;
            }
            scored += 1;
            self.score(floorplan, r, dy, cell, &mut best);
        }
        for r in (0..own).rev() {
            let dy = (self.y[r] - cell.gy).abs();
            if self.y[r] <= cell.gy && dy > best.cost {
                break;
            }
            scored += 1;
            self.score(floorplan, r, dy, cell, &mut best);
        }
        (best, scored)
    }

    /// Offers row `r`, `dy` away from the cell, to `best`. The cell lands
    /// in the first segment at or past the cursor that takes it.
    ///
    /// Forced inline: as a call per row the search runs 1.3× slower
    /// (58 → 75 ms on the 119k-cell Ariane floorplan).
    #[inline(always)]
    fn score(&self, floorplan: &Floorplan, r: usize, dy: f64, cell: &Cell, best: &mut Landing) {
        let mut x = self.land_x[r];
        let fits = x + cell.width <= self.seg_end[r];
        if !fits {
            if self.current[r] + 1 >= self.seg_ptr[r + 1] {
                return; // no later segment to try
            }
            match self.later_segment(floorplan, r, cell.width) {
                Some(later) => x = later,
                None => return,
            }
        }
        let cost = (x - cell.gx).abs() + dy;
        if cost < best.cost || (cost == best.cost && r < best.row) {
            *best = Landing { cost, row: r, x };
        }
    }

    /// Landing x of a `width`-wide cell in the segments after row `r`'s
    /// current one (which has just turned it down).
    #[cold]
    fn later_segment(&self, floorplan: &Floorplan, r: usize, width: f64) -> Option<f64> {
        let later = self.current[r] as usize + 1..self.seg_ptr[r + 1] as usize;
        self.segs.get(later)?.iter().find_map(|&(s0, s1)| {
            let x = landing_x(floorplan, self.cursor[r], s0);
            (x + width <= s1 + 1e-9).then_some(x)
        })
    }
}

/// The cell being legalized: its width and global position.
struct Cell {
    width: f64,
    gx: f64,
    gy: f64,
}

/// The cheapest landing found so far for one cell.
struct Landing {
    cost: f64,
    row: usize,
    x: f64,
}

impl Landing {
    /// No landing yet: any row that fits beats it, whatever its cost.
    const NONE: Self = Self {
        cost: f64::INFINITY,
        row: usize::MAX,
        x: 0.0,
    };
}

/// Legalizes `positions` in place; returns total displacement in µm.
///
/// Cells taller than one row (macros) keep their global position. If a row
/// runs out of space the next-best row is tried; cells that fit nowhere
/// (pathological overfill) keep their global position.
///
/// # Errors
///
/// - [`PlaceError::InvalidInput`] when `positions` doesn't cover the
///   problem's movables, or the floorplan has no rows for them.
/// - [`PlaceError::NonFinite`] when a position carries NaN/Inf.
pub fn legalize(
    problem: &PlacementProblem,
    floorplan: &Floorplan,
    positions: &mut [(f64, f64)],
) -> Result<f64, PlaceError> {
    let mut span = cp_trace::span_with(
        "place.legalize",
        &[(
            "movables",
            cp_trace::ArgValue::U(problem.movable_count() as u64),
        )],
    );
    if positions.len() < problem.movable_count() {
        return Err(PlaceError::InvalidInput {
            reason: format!(
                "{} positions for {} movables",
                positions.len(),
                problem.movable_count()
            ),
        });
    }
    if positions
        .iter()
        .any(|p| !(p.0.is_finite() && p.1.is_finite()))
    {
        return Err(PlaceError::NonFinite { stage: "legalize" });
    }
    let rows = floorplan.row_count();
    if rows == 0 {
        if problem.movable_count() == 0 {
            return Ok(0.0);
        }
        return Err(PlaceError::InvalidInput {
            reason: "floorplan has no rows to legalize onto".to_string(),
        });
    }
    let is_macro = |i: usize| problem.movable[i].height > floorplan.row_height * 1.5;
    let min_width = (0..problem.movable_count())
        .filter(|&i| !is_macro(i))
        .map(|i| problem.movable[i].width)
        .fold(f64::INFINITY, f64::min);
    let mut state = Rows::new(floorplan, rows, min_width);
    // Order by x then y for the classic Tetris sweep.
    let mut order: Vec<usize> = (0..problem.movable_count()).collect();
    order.sort_by(|&a, &b| {
        positions[a]
            .0
            .total_cmp(&positions[b].0)
            .then(positions[a].1.total_cmp(&positions[b].1))
    });
    let mut total_disp = 0.0;
    let mut rows_scored = 0u64;
    for i in order {
        if is_macro(i) {
            continue; // not row-legalized
        }
        let width = problem.movable[i].width;
        let (gx, gy) = positions[i];
        let (best, scored) = state.search(floorplan, &Cell { width, gx, gy });
        rows_scored += scored as u64;
        if best.row != usize::MAX {
            positions[i] = (best.x, state.y[best.row]);
            state.advance(floorplan, best.row, best.x + width, min_width);
            total_disp += best.cost;
        }
    }
    span.arg("rows", cp_trace::ArgValue::U(rows as u64));
    span.arg("rows_scored", cp_trace::ArgValue::U(rows_scored));
    span.arg("displacement_um", cp_trace::ArgValue::F(total_disp));
    Ok(total_disp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{GlobalPlacer, PlacerOptions};
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn legalized_cells_sit_on_rows_without_overlap() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(8)
            .generate();
        let fp = Floorplan::try_for_netlist(&n, 0.6, 1.0).expect("valid geometry");
        let p = PlacementProblem::from_netlist(&n, &fp);
        let mut r = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        let disp = legalize(&p, &fp, &mut r.positions).expect("legalization succeeds");
        assert!(disp > 0.0);
        // On-row check.
        for (i, &(x, y)) in r.positions.iter().enumerate() {
            let row_offset = (y - fp.core.lly) / fp.row_height;
            assert!(
                (row_offset - row_offset.round()).abs() < 1e-6,
                "cell {i} off-row at y={y}"
            );
            assert!(x >= fp.core.llx - 1e-9);
            assert!(x + p.movable[i].width <= fp.core.urx + 1e-6);
        }
        // No overlap within each row.
        let mut by_row: std::collections::HashMap<i64, Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for (i, &(x, y)) in r.positions.iter().enumerate() {
            by_row
                .entry((y * 1000.0) as i64)
                .or_default()
                .push((x, x + p.movable[i].width));
        }
        for (_, mut spans) in by_row {
            spans.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            for w in spans.windows(2) {
                assert!(
                    w[0].1 <= w[1].0 + 1e-6,
                    "overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn displacement_is_modest() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .seed(9)
            .generate();
        let fp = Floorplan::try_for_netlist(&n, 0.5, 1.0).expect("valid geometry");
        let p = PlacementProblem::from_netlist(&n, &fp);
        let mut r = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        let disp = legalize(&p, &fp, &mut r.positions).expect("legalization succeeds");
        let per_cell = disp / p.movable_count() as f64;
        // Average displacement under a handful of row heights.
        assert!(per_cell < 8.0 * fp.row_height, "per-cell disp {per_cell}");
    }

    #[test]
    fn nan_positions_are_rejected() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .seed(9)
            .generate();
        let fp = Floorplan::try_for_netlist(&n, 0.5, 1.0).expect("valid geometry");
        let p = PlacementProblem::from_netlist(&n, &fp);
        let mut pos = vec![(0.0, 0.0); p.movable_count()];
        pos[0].0 = f64::NAN;
        assert!(matches!(
            legalize(&p, &fp, &mut pos),
            Err(crate::error::PlaceError::NonFinite { .. })
        ));
        let mut short = vec![(0.0, 0.0); 1];
        assert!(matches!(
            legalize(&p, &fp, &mut short),
            Err(crate::error::PlaceError::InvalidInput { .. })
        ));
    }
}

#[cfg(test)]
mod blockage_tests {
    use super::*;
    use crate::global::{GlobalPlacer, PlacerOptions};
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn legalized_cells_avoid_blockages() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .seed(10)
            .generate();
        let fp = Floorplan::try_for_netlist(&n, 0.6, 1.0)
            .expect("valid geometry")
            .try_with_macro_blockages(2, 0.25)
            .expect("valid fraction");
        let p = PlacementProblem::from_netlist(&n, &fp);
        let mut r = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        legalize(&p, &fp, &mut r.positions).expect("legalization succeeds");
        let mut legalized = 0;
        for (i, &(x, y)) in r.positions.iter().enumerate() {
            let off = (y - fp.core.lly) / fp.row_height;
            if (off - off.round()).abs() > 1e-6 {
                continue; // macro-height object (none expected here)
            }
            legalized += 1;
            let (x0, x1) = (x, x + p.movable[i].width);
            let (y0, y1) = (y, y + fp.row_height);
            for b in &fp.blockages {
                let ow = (x1.min(b.urx) - x0.max(b.llx)).max(0.0);
                let oh = (y1.min(b.ury) - y0.max(b.lly)).max(0.0);
                assert!(
                    ow * oh < 1e-9,
                    "cell {i} at ({x}, {y}) overlaps blockage {b:?}"
                );
            }
        }
        assert_eq!(legalized, p.movable_count());
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::problem::Object;
    use cp_graph::Hypergraph;
    use cp_netlist::floorplan::Rect;
    use proptest::prelude::*;

    /// The all-rows, all-segments loop [`legalize`] replaced, kept as the
    /// oracle it must match bit for bit.
    fn legalize_every_row(
        problem: &PlacementProblem,
        floorplan: &Floorplan,
        positions: &mut [(f64, f64)],
    ) -> f64 {
        let rows = floorplan.row_count();
        let core = floorplan.core;
        let site = floorplan.site_width;
        let segments: Vec<Vec<(f64, f64)>> = (0..rows)
            .map(|r| {
                let y0 = floorplan.row_y(r);
                let y1 = y0 + floorplan.row_height;
                let mut segs = vec![(core.llx, core.urx)];
                for b in &floorplan.blockages {
                    if b.ury <= y0 + 1e-9 || b.lly >= y1 - 1e-9 {
                        continue;
                    }
                    let mut next = Vec::with_capacity(segs.len() + 1);
                    for (s0, s1) in segs {
                        if b.urx <= s0 || b.llx >= s1 {
                            next.push((s0, s1));
                            continue;
                        }
                        if b.llx > s0 {
                            next.push((s0, b.llx));
                        }
                        if b.urx < s1 {
                            next.push((b.urx, s1));
                        }
                    }
                    segs = next;
                }
                segs
            })
            .collect();
        let mut cursor = vec![core.llx; rows];
        let mut order: Vec<usize> = (0..problem.movable_count()).collect();
        order.sort_by(|&a, &b| {
            positions[a]
                .0
                .total_cmp(&positions[b].0)
                .then(positions[a].1.total_cmp(&positions[b].1))
        });
        let mut total_disp = 0.0;
        for i in order {
            let obj = problem.movable[i];
            if obj.height > floorplan.row_height * 1.5 {
                continue;
            }
            let (gx, gy) = positions[i];
            let mut best: Option<(f64, usize, f64)> = None; // (cost, row, x)
            for r in 0..rows {
                let mut placed = None;
                for &(s0, s1) in &segments[r] {
                    let raw = cursor[r].max(s0);
                    let x = core.llx + ((raw - core.llx) / site - 1e-9).ceil() * site;
                    let x = x.max(s0);
                    if x + obj.width <= s1 + 1e-9 {
                        placed = Some(x);
                        break;
                    }
                }
                let Some(x) = placed else { continue };
                let y = floorplan.row_y(r);
                let cost = (x - gx).abs() + (y - gy).abs();
                if best.is_none_or(|(c, _, _)| cost < c) {
                    best = Some((cost, r, x));
                }
            }
            if let Some((cost, r, x)) = best {
                positions[i] = (x, floorplan.row_y(r));
                cursor[r] = x + obj.width;
                total_disp += cost;
            }
        }
        total_disp
    }

    const SITE: f64 = 0.19;
    const ROW: f64 = 1.4;

    /// A random core of 1–60 rows with 0–3 blockages — rows end up with one
    /// to four free segments, some narrower than the widest cell — and
    /// cells one site to a third of a row wide, some of them macros, filling
    /// the rows to between a fifth and 1.4× their capacity (so overfilled
    /// cases leave cells where they were). `ties` picks how positions are
    /// drawn: anywhere, on a coarse lattice of exactly equal x and y values,
    /// or all in one corner.
    fn case_strategy() -> impl Strategy<Value = (PlacementProblem, Floorplan, Vec<(f64, f64)>)> {
        (1usize..=60, 9usize..150, 0usize..6, 0.2f64..1.4, 0u32..3)
            .prop_flat_map(|(rows, sites, blockages, fill, ties)| {
                let max_w = (sites / 3).max(1);
                let cells = ((rows * sites) as f64 * fill / (0.5 * (1 + max_w) as f64)) as usize;
                (
                    Just((rows, sites, ties)),
                    // Half of the cases have three blockages.
                    prop::collection::vec(
                        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
                        blockages.min(3),
                    ),
                    prop::collection::vec(
                        (0.0f64..1.0, 0.0f64..1.0, 1usize..=max_w, 0u32..40),
                        cells.clamp(1, 1500),
                    ),
                )
            })
            .prop_map(|((rows, sites, ties), blocks, cells)| {
                let core = Rect::new(2.0 * ROW, 2.0 * ROW, sites as f64 * SITE, rows as f64 * ROW);
                let blockages: Vec<Rect> = blocks
                    .iter()
                    .enumerate()
                    .map(|(k, &(x, y, w, h))| {
                        // Off the site and row grids on purpose; one per
                        // third of the core, but free to stick out of it
                        // or into the next blockage.
                        Rect::new(
                            core.llx + ((k as f64 + x) / 3.0 * 1.06 - 0.03) * core.width(),
                            core.lly + (y * 1.1 - 0.05) * core.height(),
                            (0.02 + 0.15 * w) * core.width(),
                            (0.05 + 0.9 * h) * core.height(),
                        )
                    })
                    .collect();
                let floorplan = Floorplan {
                    die: Rect::new(0.0, 0.0, core.urx + 2.0 * ROW, core.ury + 2.0 * ROW),
                    core,
                    row_height: ROW,
                    site_width: SITE,
                    utilization: 0.6,
                    port_positions: Vec::new(),
                    blockages: blockages.clone(),
                };
                let m = cells.len();
                let problem = PlacementProblem {
                    movable: cells
                        .iter()
                        .map(|&(_, _, w, kind)| Object {
                            width: w as f64 * SITE,
                            // One cell in 40 is a two-row macro; one in 40
                            // sits just under the 1.5-row limit.
                            height: match kind {
                                0 => 2.0 * ROW,
                                1 => 1.49 * ROW,
                                _ => ROW,
                            },
                        })
                        .collect(),
                    fixed: vec![],
                    hypergraph: Hypergraph::new(m, vec![]).into(),
                    net_weights: vec![],
                    core,
                    region: vec![None; m],
                    seed_positions: None,
                    blockages,
                    density_target: 0.8,
                };
                let positions = cells
                    .iter()
                    .map(|&(x, y, _, _)| {
                        let (x, y) = match ties {
                            0 => (x, y),
                            1 => ((x * 6.0).floor() / 6.0, (y * 5.0).floor() / 5.0),
                            _ => (x * 0.05, 1.0 - y * 0.05),
                        };
                        (core.llx + x * core.width(), core.lly + y * core.height())
                    })
                    .collect();
                (problem, floorplan, positions)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn outward_search_matches_the_full_scan_bit_for_bit(
            (problem, floorplan, start) in case_strategy(),
        ) {
            let mut want = start.clone();
            let want_disp = legalize_every_row(&problem, &floorplan, &mut want);
            let mut got = start.clone();
            let got_disp = legalize(&problem, &floorplan, &mut got).expect("legalizes");
            prop_assert_eq!(got_disp.to_bits(), want_disp.to_bits());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    (g.0.to_bits(), g.1.to_bits()),
                    (w.0.to_bits(), w.1.to_bits()),
                    "cell {} of {} at {:?}, want {:?}", i, got.len(), g, w
                );
            }
        }
    }

    /// The generator above really produces what the oracle test claims to
    /// cover: multi-segment rows, a segment narrower than the widest
    /// cell, cells left unplaced and skipped macros.
    #[test]
    fn cases_cover_the_irregular_paths() {
        use proptest::Strategy as _;
        let mut rng = proptest::TestRng::seed_from_u64(5);
        let strategy = case_strategy();
        let (mut four_segments, mut narrow, mut unplaced, mut macros) = (0, 0, 0, 0);
        for _ in 0..96 {
            let (problem, floorplan, start) = strategy.generate(&mut rng);
            let widest = problem.movable.iter().map(|o| o.width).fold(0.0, f64::max);
            let rows = Rows::new(&floorplan, floorplan.row_count(), widest);
            let segments = |r: usize| rows.seg_ptr[r + 1] - rows.seg_ptr[r];
            four_segments += usize::from((0..rows.y.len()).any(|r| segments(r) == 4));
            narrow += usize::from(rows.segs.iter().any(|&(s0, s1)| s1 - s0 < widest));
            let mut placed = start.clone();
            legalize(&problem, &floorplan, &mut placed).expect("legalizes");
            let stayed = |i: usize| placed[i] == start[i];
            let tall = |i: usize| problem.movable[i].height > 1.5 * ROW;
            unplaced += usize::from((0..start.len()).any(|i| stayed(i) && !tall(i)));
            macros += usize::from((0..start.len()).any(|i| stayed(i) && tall(i)));
        }
        assert!(
            four_segments >= 6,
            "{four_segments} cases with a 4-segment row"
        );
        assert!(
            narrow >= 40,
            "{narrow} cases with a segment narrower than a cell"
        );
        assert!(
            unplaced >= 30,
            "{unplaced} cases with a cell that fits nowhere"
        );
        assert!(macros >= 50, "{macros} cases with a macro");
    }
}
