//! Look-ahead spreading by recursive bisection (SimPL-style upper bound).
//!
//! Given overlap-heavy lower-bound positions, this pass recursively splits
//! the core into two halves and partitions the cells by coordinate so each
//! half receives cell area proportional to its capacity, terminating in
//! small regions where cells are mapped linearly. The result respects the
//! density target at bin granularity while roughly preserving relative
//! order — exactly what anchor pseudo-nets need.
//!
//! A node cuts its cells in the order of `(cut coordinate, other
//! coordinate, cell)` — `total_cmp` on the coordinates, so the order is
//! total — except that the other coordinate only breaks ties once an
//! ancestor has cut on it: down the root's run of same-axis cuts the order
//! is `(cut coordinate, cell)`. (That is the order a stable per-node sort
//! of the parent's order produces, so results are unchanged from when
//! every node sorted.) The cells are sorted once per call into these
//! orders. A node owns the same index range of each: it reads the split
//! off the order of its cut axis, whose prefix *is* the left half, and
//! stable-partitions the others by rank, so all stay sorted all the way
//! down — O(n log n) overall, no per-node sort or allocation. The two
//! halves are disjoint sub-slices (`split_at_mut`) and run as pool tasks
//! above [`TASK_MIN_CELLS`].

use crate::problem::PlacementProblem;
use crate::soa::PlacementSoa;
use cp_netlist::floorplan::Rect;

/// Cells per leaf region before direct mapping.
const LEAF_CELLS: usize = 10;
/// Minimum region extent, µm.
const MIN_EXTENT: f64 = 2.0;
/// Smallest bisection node (and smallest root sort) that is handed to the
/// pool as two tasks; below it one region's set-up costs more than the
/// node (EXPERIMENTS.md, "Placer outer iteration").
const TASK_MIN_CELLS: usize = 4096;
/// Cells per parallel chunk in the density scatter.
const CELL_CHUNK: usize = 4096;
/// Bins per parallel chunk in the overflow reduction.
const BIN_CHUNK: usize = 256;

/// Reusable buffers of [`spread_soa`]; hold one across outer placement
/// iterations and spreading stops allocating.
#[derive(Debug, Clone, Default)]
pub struct SpreadScratch {
    /// Cells by `(x, y, cell)` and by `(y, x, cell)`.
    by_x: AxisOrder,
    by_y: AxisOrder,
    /// Cells by `(root's cut coordinate, cell)` and their ranks in it.
    root_order: Vec<u32>,
    root_rank: Vec<u32>,
    /// Right-half staging of one stable partition.
    tmp: Vec<u32>,
    /// Mapped position of the cell at the same index of `by_x.order`.
    mapped: Vec<(f64, f64)>,
}

/// The cells sorted along one axis.
#[derive(Debug, Clone, Default)]
struct AxisOrder {
    /// Sort staging: `(leading coordinate as an ordered integer, cell)`.
    keys: Vec<(u64, u32)>,
    /// Cells in sorted order; the bisection permutes it in place so every
    /// node's cells stay one contiguous, sorted index range.
    order: Vec<u32>,
    /// Each cell's index in the freshly sorted `order`.
    rank: Vec<u32>,
}

/// Maps a coordinate to an integer with the same order as `total_cmp`,
/// so the sort compares plain integers.
fn ordered_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    // Negative: flip everything; non-negative: set the sign bit.
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

impl AxisOrder {
    /// Sorts the cells by `(axis(position), cell)`: leading coordinate,
    /// other coordinate, cell index.
    fn sort(&mut self, positions: &[(f64, f64)], axis: impl Fn(&(f64, f64)) -> (f64, f64)) {
        self.keys.clear();
        self.keys.extend(
            positions
                .iter()
                .zip(0u32..)
                .map(|(p, i)| (ordered_bits(axis(p).0), i)),
        );
        self.keys.sort_unstable();
        self.order.clear();
        self.order.extend(self.keys.iter().map(|&(_, i)| i));
        // That is `(leading coordinate, cell)`; cells tied on the leading
        // coordinate (rare) still have to be ordered by the other one.
        let mut run = 0;
        for k in 1..=self.keys.len() {
            if k == self.keys.len() || self.keys[k].0 != self.keys[run].0 {
                if k - run > 1 {
                    self.order[run..k].sort_unstable_by(|&a, &b| {
                        let other = |i: u32| axis(&positions[i as usize]).1;
                        other(a).total_cmp(&other(b)).then(a.cmp(&b))
                    });
                }
                run = k;
            }
        }
        fill_ranks(&self.order, &mut self.rank);
    }
}

/// Sets `rank[cell]` to the cell's index in `order`.
fn fill_ranks(order: &[u32], rank: &mut Vec<u32>) {
    rank.resize(order.len(), 0);
    for (r, &i) in (0u32..).zip(order) {
        rank[i as usize] = r;
    }
}

/// The `(leading coordinate, cell)` order behind `sorted` — its sort
/// staging, before ties were ordered by the other coordinate — and each
/// cell's rank in it.
fn cell_tie_order(sorted: &AxisOrder, order: &mut Vec<u32>, rank: &mut Vec<u32>) {
    order.clear();
    order.extend(sorted.keys.iter().map(|&(_, i)| i));
    fill_ranks(order, rank);
}

/// Spreads `positions` to meet the problem's density target.
///
/// Returns one position per movable, inside the core. Convenience
/// wrapper over [`spread_soa`] that builds the area array and the
/// buffers on the fly; per-iteration callers should hold a
/// [`PlacementSoa`] and a [`SpreadScratch`] and call that directly.
pub fn spread(problem: &PlacementProblem, positions: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    spread_soa(
        problem,
        &PlacementSoa::from_problem(problem),
        positions,
        &mut SpreadScratch::default(),
        &mut out,
    );
    out
}

/// [`spread`] over a prebuilt [`PlacementSoa`] and caller-held buffers:
/// `out` is overwritten with one position per movable. The result depends
/// on the inputs alone — not on the thread count, nor on what `scratch`
/// and `out` held before.
pub fn spread_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
    scratch: &mut SpreadScratch,
    out: &mut Vec<(f64, f64)>,
) {
    let m = problem.movable_count();
    out.clear();
    out.resize(m, (0.0, 0.0));
    if m == 0 {
        return;
    }
    // Spreading runs once per outer placer iteration — including inside
    // every V-P&R candidate evaluation — so its span is gated to `Full`
    // to keep the spans-only overhead budget for the coarse stages.
    let _span = cp_trace::telemetry_enabled().then(|| cp_trace::span("place.spread"));
    let SpreadScratch {
        by_x,
        by_y,
        root_order,
        root_rank,
        tmp,
        mapped,
    } = scratch;
    let positions = &positions[..m];
    if m >= TASK_MIN_CELLS {
        cp_parallel::join(
            || by_x.sort(positions, |p| (p.0, p.1)),
            || by_y.sort(positions, |p| (p.1, p.0)),
        );
    } else {
        by_x.sort(positions, |p| (p.0, p.1));
        by_y.sort(positions, |p| (p.1, p.0));
    }
    let root_horizontal = cuts_horizontally(problem.core);
    let root_axis = if root_horizontal { &*by_x } else { &*by_y };
    cell_tie_order(root_axis, root_order, root_rank);
    tmp.resize(m, 0);
    mapped.resize(m, (0.0, 0.0));
    let bisection = Bisection {
        problem,
        areas: &soa.area,
        positions,
        rank_x: &by_x.rank,
        rank_y: &by_y.rank,
        root_horizontal,
        root_rank,
    };
    bisection.rec(
        problem.core,
        Some(root_order),
        &mut by_x.order,
        &mut by_y.order,
        tmp,
        mapped,
    );
    // Back to cell order, then honor region constraints, core bounds and
    // blockages.
    for (&i, &p) in by_x.order.iter().zip(mapped.iter()) {
        out[i as usize] = p;
    }
    for (p, region) in out.iter_mut().zip(&problem.region) {
        let r = region.unwrap_or(problem.core);
        *p = r.clamp(p.0, p.1);
        *p = problem.evict_from_blockages(p.0, p.1);
    }
}

/// The read-only inputs of one spreading call, shared by every node.
struct Bisection<'a> {
    problem: &'a PlacementProblem,
    areas: &'a [f64],
    positions: &'a [(f64, f64)],
    rank_x: &'a [u32],
    rank_y: &'a [u32],
    /// The root's cut axis, and each cell's rank in the root order.
    root_horizontal: bool,
    root_rank: &'a [u32],
}

impl Bisection<'_> {
    /// One bisection node over `region`. `by_x` and `by_y` hold the node's
    /// cells in x and y order, `root` in the root order as long as every
    /// cut down to this node was on the root's axis; `tmp` and `mapped` are
    /// the same index range of the partition staging and the output
    /// (`mapped[k]` belongs to cell `by_x[k]`).
    fn rec(
        &self,
        region: Rect,
        root: Option<&mut [u32]>,
        by_x: &mut [u32],
        by_y: &mut [u32],
        tmp: &mut [u32],
        mapped: &mut [(f64, f64)],
    ) {
        let n = by_x.len();
        if n <= LEAF_CELLS || region.width() <= MIN_EXTENT || region.height() <= MIN_EXTENT {
            map_into(region, by_x, self.positions, mapped);
            return;
        }
        // Split along the longer side, the cell list in proportion to the
        // halves' free capacities (equal halves on an unobstructed core;
        // blockage-aware otherwise).
        let horizontal = cuts_horizontally(region);
        let (r1, r2) = halves(region);
        let c1 = self.problem.free_area_in(&r1);
        let c2 = self.problem.free_area_in(&r2);
        let half_frac = if c1 + c2 <= 0.0 { 0.5 } else { c1 / (c1 + c2) };
        // The left half is a prefix of the order that decides this cut;
        // every other order is stable-partitioned to follow it.
        let root = root.filter(|_| horizontal == self.root_horizontal);
        let (cut, other, rank) = if horizontal {
            (&mut *by_x, &mut *by_y, self.rank_x)
        } else {
            (&mut *by_y, &mut *by_x, self.rank_y)
        };
        let split = match &root {
            Some(root) => {
                let split = split_index(root, self.areas, half_frac);
                let first_right = self.root_rank[root[split] as usize];
                stable_partition(cut, self.root_rank, first_right, tmp);
                stable_partition(other, self.root_rank, first_right, tmp);
                split
            }
            None => {
                let split = split_index(cut, self.areas, half_frac);
                stable_partition(other, rank, rank[cut[split] as usize], tmp);
                split
            }
        };

        let (o1, o2) = root.map(|cells| cells.split_at_mut(split)).unzip();
        let (x1, x2) = by_x.split_at_mut(split);
        let (y1, y2) = by_y.split_at_mut(split);
        let (t1, t2) = tmp.split_at_mut(split);
        let (m1, m2) = mapped.split_at_mut(split);
        if n >= TASK_MIN_CELLS {
            cp_parallel::join(
                || self.rec(r1, o1, x1, y1, t1, m1),
                || self.rec(r2, o2, x2, y2, t2, m2),
            );
        } else {
            self.rec(r1, o1, x1, y1, t1, m1);
            self.rec(r2, o2, x2, y2, t2, m2);
        }
    }
}

/// Moves the cells ranked below `first_right` to the front of `cells`,
/// keeping both groups in order: lefts compact in place, rights stage in
/// `tmp`, without a data-dependent branch.
fn stable_partition(cells: &mut [u32], rank: &[u32], first_right: u32, tmp: &mut [u32]) {
    let (mut lefts, mut rights) = (0, 0);
    for k in 0..cells.len() {
        let i = cells[k];
        let left = rank[i as usize] < first_right;
        cells[lefts] = i;
        tmp[rights] = i;
        lefts += usize::from(left);
        rights += usize::from(!left);
    }
    cells[lefts..].copy_from_slice(&tmp[..rights]);
}

/// A region is cut across its longer side; a square one across x.
fn cuts_horizontally(region: Rect) -> bool {
    region.width() >= region.height()
}

/// Where to cut `cells` (in coordinate order) so the left part carries
/// `frac` of their area: the shortest prefix whose area reaches
/// `total · frac`, kept inside `1..cells.len()` so neither half is empty.
fn split_index(cells: &[u32], areas: &[f64], frac: f64) -> usize {
    let total_area: f64 = cells.iter().map(|&i| areas[i as usize]).sum();
    let mut acc = 0.0;
    let mut split = cells.len();
    for (k, &i) in cells.iter().enumerate() {
        acc += areas[i as usize];
        if acc >= total_area * frac {
            split = k + 1;
            break;
        }
    }
    split.clamp(1, cells.len().saturating_sub(1).max(1))
}

/// Splits a region into two halves along its longer side.
fn halves(region: Rect) -> (Rect, Rect) {
    if cuts_horizontally(region) {
        (
            Rect {
                llx: region.llx,
                lly: region.lly,
                urx: region.llx + region.width() / 2.0,
                ury: region.ury,
            },
            Rect {
                llx: region.llx + region.width() / 2.0,
                lly: region.lly,
                urx: region.urx,
                ury: region.ury,
            },
        )
    } else {
        (
            Rect {
                llx: region.llx,
                lly: region.lly,
                urx: region.urx,
                ury: region.lly + region.height() / 2.0,
            },
            Rect {
                llx: region.llx,
                lly: region.lly + region.height() / 2.0,
                urx: region.urx,
                ury: region.ury,
            },
        )
    }
}

/// Linearly maps the items' bounding box onto the region, writing
/// `mapped[k]` for cell `items[k]`.
fn map_into(region: Rect, items: &[u32], positions: &[(f64, f64)], mapped: &mut [(f64, f64)]) {
    let mut lo = (f64::INFINITY, f64::INFINITY);
    let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &i in items {
        let (x, y) = positions[i as usize];
        lo = (lo.0.min(x), lo.1.min(y));
        hi = (hi.0.max(x), hi.1.max(y));
    }
    let spanx = (hi.0 - lo.0).max(1e-9);
    let spany = (hi.1 - lo.1).max(1e-9);
    for (&i, out) in items.iter().zip(mapped) {
        let (x, y) = positions[i as usize];
        let fx = (x - lo.0) / spanx;
        let fy = (y - lo.1) / spany;
        *out = (
            region.llx + fx * region.width(),
            region.lly + fy * region.height(),
        );
    }
}

/// The shared bin scatter behind the density grid and the eDensity
/// backend's charge accumulation: each fixed item chunk emits `(bin,
/// value)` contributions in item order via `emit`; the chunks are folded
/// into `acc` sequentially in chunk order, reproducing the serial
/// scatter's addition order exactly — bitwise identical at every thread
/// count.
pub fn scatter_accumulate(
    items: usize,
    chunk: usize,
    acc: &mut [f64],
    emit: impl Fn(usize, &mut Vec<(u32, f64)>) + Sync,
) {
    let scatter: Vec<Vec<(u32, f64)>> = cp_parallel::par_map_ranges(items, chunk, |range| {
        let mut part = Vec::with_capacity(range.len());
        for i in range {
            emit(i, &mut part);
        }
        part
    });
    for part in &scatter {
        for &(b, v) in part {
            acc[b as usize] += v;
        }
    }
}

/// Bins per side of the density grid for `m` movables.
pub fn density_bins(m: usize) -> usize {
    ((m as f64).sqrt() / 2.0).ceil().max(2.0) as usize
}

/// The per-bin movable-area grid of a placement on the
/// [`density_bins`]`(m) ×` [`density_bins`]`(m)` grid, row-major.
fn area_grid_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
) -> (usize, Vec<f64>) {
    let bins = density_bins(problem.movable_count());
    let core = problem.core;
    let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
    let mut area = vec![0.0f64; bins * bins];
    scatter_accumulate(positions.len(), CELL_CHUNK, &mut area, |i, part| {
        let (x, y) = positions[i];
        let bx = (((x - core.llx) / bw) as usize).min(bins - 1);
        let by = (((y - core.lly) / bh) as usize).min(bins - 1);
        part.push(((by * bins + bx) as u32, soa.area[i]));
    });
    (bins, area)
}

/// Density overflow of a placement: the fraction of movable area exceeding
/// per-bin capacity (`bin_area · density_target`), on a `bins × bins` grid
/// sized to the problem.
pub fn density_overflow(problem: &PlacementProblem, positions: &[(f64, f64)]) -> f64 {
    density_overflow_soa(problem, &PlacementSoa::from_problem(problem), positions)
}

/// Per-bin overflow amounts `(area − capacity)⁺` on the density grid —
/// the spatial view behind the scalar [`density_overflow_soa`], recorded
/// as a field frame when fields are enabled. Serial on purpose: it only
/// runs on the instrumentation path.
pub fn overflow_grid_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
) -> (usize, Vec<f32>) {
    let m = problem.movable_count();
    if m == 0 {
        return (0, Vec::new());
    }
    let (bins, area) = area_grid_soa(problem, soa, positions);
    let core = problem.core;
    let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
    let grid = area
        .iter()
        .enumerate()
        .map(|(b, &a)| {
            let (by, bx) = (b / bins, b % bins);
            let bin = Rect::new(core.llx + bx as f64 * bw, core.lly + by as f64 * bh, bw, bh);
            let cap = problem.free_area_in(&bin) * problem.density_target;
            (a - cap).max(0.0) as f32
        })
        .collect();
    (bins, grid)
}

/// Per-bin summed displacement magnitude `‖to − from‖₂` binned at the
/// destination position — the spreading-vs-lower-bound conflict field.
/// Serial on purpose: it only runs on the instrumentation path.
pub fn displacement_grid(
    problem: &PlacementProblem,
    from: &[(f64, f64)],
    to: &[(f64, f64)],
) -> (usize, Vec<f32>) {
    let m = problem.movable_count().min(from.len()).min(to.len());
    if m == 0 {
        return (0, Vec::new());
    }
    let bins = density_bins(problem.movable_count());
    let core = problem.core;
    let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
    let mut grid = vec![0.0f64; bins * bins];
    for i in 0..m {
        let (dx, dy) = (to[i].0 - from[i].0, to[i].1 - from[i].1);
        let bx = (((to[i].0 - core.llx) / bw) as usize).min(bins - 1);
        let by = (((to[i].1 - core.lly) / bh) as usize).min(bins - 1);
        grid[by * bins + bx] += (dx * dx + dy * dy).sqrt();
    }
    (bins, grid.into_iter().map(|v| v as f32).collect())
}

/// [`density_overflow`] over a prebuilt [`PlacementSoa`]: the bin scatter
/// reads cell areas from the contiguous arena and the total from the
/// precomputed sum. Bit-identical to [`density_overflow`].
pub fn density_overflow_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
) -> f64 {
    let m = problem.movable_count();
    if m == 0 {
        return 0.0;
    }
    // Bin scatter: each fixed cell chunk computes (bin, area) contributions
    // in cell order; the chunks are folded into the grid sequentially in
    // chunk order, reproducing the serial scatter's addition order exactly.
    let (bins, area) = area_grid_soa(problem, soa, positions);
    let core = problem.core;
    let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
    let total: f64 = soa.total_area.max(1e-12);
    // Per-bin capacity (blockage clipping) dominates; sum overflow with a
    // deterministic parallel reduction over the row-major bin order.
    let over = cp_parallel::par_sum(bins * bins, BIN_CHUNK, |range| {
        let mut s = 0.0;
        for b in range {
            let (by, bx) = (b / bins, b % bins);
            let bin = Rect::new(core.llx + bx as f64 * bw, core.lly + by as f64 * bh, bw, bh);
            let cap = problem.free_area_in(&bin) * problem.density_target;
            s += (area[b] - cap).max(0.0);
        }
        s
    });
    over / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Object;
    use cp_graph::Hypergraph;

    fn uniform_problem(n: usize) -> PlacementProblem {
        PlacementProblem {
            movable: vec![
                Object {
                    width: 1.0,
                    height: 1.0
                };
                n
            ],
            fixed: vec![],
            hypergraph: Hypergraph::new(n, vec![]),
            net_weights: vec![],
            core: Rect::new(0.0, 0.0, 100.0, 100.0),
            region: vec![None; n],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.5,
        }
    }

    #[test]
    fn spreading_reduces_overflow() {
        let p = uniform_problem(400);
        // All cells piled in one corner.
        let piled = vec![(1.0, 1.0); 400];
        let before = density_overflow(&p, &piled);
        let spread_pos = spread(&p, &piled);
        let after = density_overflow(&p, &spread_pos);
        assert!(before > 0.5, "piled overflow {before}");
        assert!(after < before / 4.0, "after {after} vs before {before}");
        for &(x, y) in &spread_pos {
            assert!(p.core.contains(x, y));
        }
    }

    #[test]
    fn spreading_preserves_relative_order_roughly() {
        let p = uniform_problem(100);
        // Cells on a diagonal line, crowded.
        let pos: Vec<(f64, f64)> = (0..100)
            .map(|i| (10.0 + i as f64 * 0.01, 10.0 + i as f64 * 0.01))
            .collect();
        let s = spread(&p, &pos);
        // Cell 0 should stay left of cell 99.
        assert!(s[0].0 < s[99].0);
    }

    #[test]
    fn region_constraints_clamp() {
        let mut p = uniform_problem(10);
        let box_r = Rect::new(40.0, 40.0, 10.0, 10.0);
        for i in 0..10 {
            p.set_region(i, box_r);
        }
        let piled = vec![(1.0, 1.0); 10];
        let s = spread(&p, &piled);
        for &(x, y) in &s {
            assert!(box_r.contains(x, y), "({x}, {y}) outside region");
        }
    }

    #[test]
    fn empty_problem() {
        let p = uniform_problem(0);
        assert!(spread(&p, &[]).is_empty());
        assert_eq!(density_overflow(&p, &[]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::problem::Object;
    use cp_graph::Hypergraph;
    use proptest::prelude::*;

    const CORE: f64 = 100.0;

    /// A net-less problem with varied cell sizes, a macro blockage (left
    /// of the region box, so eviction never fights a region) and region
    /// constraints on some cells, plus lower-bound positions drawn
    /// from a box wider than the core and clamped into it — so a good
    /// share of the cells sits exactly on a core edge, tied on that
    /// coordinate. Either a few cells or enough to run as pool tasks.
    fn case_strategy() -> impl Strategy<Value = (PlacementProblem, Vec<(f64, f64)>)> {
        (
            0u32..4,
            1usize..200,
            TASK_MIN_CELLS..2 * TASK_MIN_CELLS + 500,
        )
            .prop_flat_map(|(class, few, many)| {
                let m = if class == 0 { many } else { few };
                (
                    prop::collection::vec((-25.0f64..125.0, -25.0f64..125.0), m),
                    prop::collection::vec((0.4f64..3.0, 0.0f64..1.0), m),
                    (5.0f64..20.0, 10.0f64..60.0, 5.0f64..30.0, 0u32..2),
                )
            })
            .prop_map(|(raw, cells, (bx, by, bside, blocked))| {
                let m = raw.len();
                let core = Rect::new(0.0, 0.0, CORE, CORE);
                let region_box = Rect::new(55.0, 5.0, 40.0, 30.0);
                let problem = PlacementProblem {
                    movable: cells
                        .iter()
                        .map(|&(w, _)| Object {
                            width: w,
                            height: 1.4,
                        })
                        .collect(),
                    fixed: vec![],
                    hypergraph: Hypergraph::new(m, vec![]),
                    net_weights: vec![],
                    core,
                    region: cells
                        .iter()
                        .map(|&(_, r)| (r < 0.1).then_some(region_box))
                        .collect(),
                    seed_positions: None,
                    blockages: if blocked == 1 {
                        vec![Rect::new(bx, by, bside, bside)]
                    } else {
                        Vec::new()
                    },
                    density_target: 0.8,
                };
                let positions = raw.iter().map(|&(x, y)| core.clamp(x, y)).collect();
                (problem, positions)
            })
    }

    fn bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
        v.iter().map(|&(x, y)| (x.to_bits(), y.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One position per movable, inside the core, inside the cell's
        /// region when it has one, and never strictly inside a blockage.
        #[test]
        fn output_is_legal((p, pos) in case_strategy()) {
            let out = spread(&p, &pos);
            prop_assert_eq!(out.len(), p.movable_count());
            for (i, &(x, y)) in out.iter().enumerate() {
                prop_assert!(p.core.contains(x, y), "cell {} at ({}, {})", i, x, y);
                if let Some(r) = p.region[i] {
                    prop_assert!(r.contains(x, y), "cell {} left its region", i);
                }
                for b in &p.blockages {
                    let inside = x > b.llx && x < b.urx && y > b.lly && y < b.ury;
                    prop_assert!(!inside, "cell {} inside a blockage", i);
                }
            }
        }

        /// The result is a function of the inputs alone: the same at 1, 2,
        /// 4 and 8 threads — also with many cells tied on a coordinate —
        /// and on buffers that held another problem's results.
        #[test]
        fn output_ignores_threads_and_buffer_history(
            (p, pos) in case_strategy(),
            (other, other_pos) in case_strategy(),
        ) {
            let soa = PlacementSoa::from_problem(&p);
            let want = bits(&cp_parallel::with_threads(1, || spread(&p, &pos)));
            let mut scratch = SpreadScratch::default();
            let mut out = Vec::new();
            for threads in [2usize, 4, 8] {
                cp_parallel::with_threads(threads, || {
                    spread_soa(&p, &soa, &pos, &mut scratch, &mut out);
                });
                prop_assert_eq!(&bits(&out), &want, "threads = {}", threads);
                // Repeat on the now-warm buffers, then dirty them.
                spread_soa(&p, &soa, &pos, &mut scratch, &mut out);
                prop_assert_eq!(&bits(&out), &want, "repeat after {} threads", threads);
                let other_soa = PlacementSoa::from_problem(&other);
                spread_soa(&other, &other_soa, &other_pos, &mut scratch, &mut out);
            }
        }

        /// Every bisection cuts at `split_index`: the left part carries
        /// the capacity share of the area to within one cell, and neither
        /// part is empty.
        #[test]
        fn split_carries_the_capacity_share_to_within_one_cell(
            areas in prop::collection::vec(0.2f64..6.0, 2..300),
            frac in 0.0f64..1.0,
        ) {
            let cells: Vec<u32> = (0..areas.len() as u32).rev().collect();
            let split = split_index(&cells, &areas, frac);
            prop_assert!(split >= 1 && split < cells.len());
            let area = |part: &[u32]| part.iter().map(|&i| areas[i as usize]).sum::<f64>();
            let target = area(&cells) * frac;
            let tol = 1e-9 * area(&cells);
            // Enough on the left (unless that would empty the right) …
            prop_assert!(area(&cells[..split]) >= target - tol || split == cells.len() - 1);
            // … and not one cell more than needed (unless the left would
            // be empty).
            prop_assert!(area(&cells[..split - 1]) < target + tol || split == 1);
        }
    }
}
