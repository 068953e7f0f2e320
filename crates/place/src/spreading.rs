//! Look-ahead spreading by recursive bisection (SimPL-style upper bound).
//!
//! Given overlap-heavy lower-bound positions — the placer's iterate, read
//! as one coordinate slice per axis — this pass recursively splits
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
//! halves are disjoint sub-slices (`split_at_mut`) and run as `join`
//! tasks from `TASK_MIN_CELLS` (4096) cells.
//!
//! Each task writes only inside its own index range, so the leaves stage
//! their positions in x order and a scatter along that order puts them at
//! their cells. The staging is the y axis's sort keys, dead once the
//! orders are built. The density grid is a serial scatter in cell order,
//! the same addition order per bin whatever the thread count.
//!
//! Spreading owns no per-cell memory: the sort keys, orders, ranks and
//! partition staging live in arenas the caller lends ([`SpreadArenas`]),
//! and a call writes every item it reads, so the result does not depend
//! on what they held. The placer lends its two B2B systems' entry arenas,
//! which are spent from the end of a solve until the next rebuild clears
//! them; [`SpreadScratch`] owns a set for callers with nothing to lend.

use crate::problem::PlacementProblem;
use crate::soa::PlacementSoa;
use cp_netlist::floorplan::Rect;

/// Cells per leaf region before direct mapping.
const LEAF_CELLS: usize = 10;
/// Minimum region extent, µm.
const MIN_EXTENT: f64 = 2.0;
/// Smallest bisection node (and smallest root sort) that runs as two
/// `join` tasks. Each join spawns one helper thread (≈ 40 µs); on two
/// threads a 1,024- or 2,048-cell cutoff wins or loses by run at 2.2k
/// cells (270–300 vs 190–345 µs per `spread_soa`), while this one wins
/// from 4.3k (505–514 vs 805–846 µs). EXPERIMENTS.md, "Scoped regions,
/// measured" and "Placer outer iteration".
const TASK_MIN_CELLS: usize = 4096;
/// Bins per parallel chunk in the overflow reduction.
const BIN_CHUNK: usize = 256;

/// The per-cell work arrays of one [`spread_soa`] call, lent by the
/// caller. A call overwrites whatever they hold, reads nothing it did not
/// write, and grows an arena shorter than it needs; it never shrinks one.
/// Per axis (x, then y), `keys` takes two `f64` per cell: the sort keys,
/// and the y axis's then stage the spread positions. `cells` takes four
/// `u32` per cell on x (the x order and ranks, the root order and ranks)
/// and three on y (the y order and ranks, the partition staging).
#[derive(Debug)]
pub struct SpreadArenas<'a> {
    /// The x and the y axis's sort keys.
    pub keys: [&'a mut Vec<f64>; 2],
    /// The x and the y axis's cell orders, ranks and staging.
    pub cells: [&'a mut Vec<u32>; 2],
}

impl SpreadArenas<'_> {
    /// The items one [`spread_soa`] call over `m` cells takes from each
    /// arena: `[keys, cells]` of the x axis, then of the y axis. Lend
    /// arenas at least this long and a call allocates nothing.
    pub fn lengths(m: usize) -> [[usize; 2]; 2] {
        [[2 * m, 4 * m], [2 * m, 3 * m]]
    }
}

/// Owned arenas for [`spread_soa`], for a caller with none to lend: hold
/// one across calls and spreading stops allocating.
#[derive(Debug, Clone, Default)]
pub struct SpreadScratch {
    keys: [Vec<f64>; 2],
    cells: [Vec<u32>; 2],
}

impl SpreadScratch {
    /// Lends the arenas to one [`spread_soa`] call.
    pub fn arenas(&mut self) -> SpreadArenas<'_> {
        SpreadArenas {
            keys: self.keys.each_mut(),
            cells: self.cells.each_mut(),
        }
    }
}

/// The first `N · n` items of `arena` as `N` slices of `n`, whatever they
/// held. An arena too short grows to exactly `N · n`, copying nothing.
fn carve<T: Copy + Default, const N: usize>(arena: &mut Vec<T>, n: usize) -> [&mut [T]; N] {
    if arena.len() < N * n {
        arena.clear();
        if arena.capacity() < N * n {
            *arena = Vec::with_capacity(N * n);
        }
        arena.resize(N * n, T::default());
    }
    let mut rest = &mut arena[..N * n];
    std::array::from_fn(|_| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
        rest = tail;
        head
    })
}

/// The cells sorted along one axis, in lent arenas.
struct AxisOrder<'a> {
    /// Sort staging: `[leading coordinate as an ordered integer, cell]`,
    /// both as `f64` bits, ordered as the integer pair. Dead once the
    /// orders are built; the bisection's leaves then stage their
    /// positions in the y axis's.
    keys: &'a mut [[f64; 2]],
    /// Cells in sorted order; the bisection permutes it in place so every
    /// node's cells stay one contiguous, sorted index range.
    order: &'a mut [u32],
    /// Each cell's index in the freshly sorted `order`.
    rank: &'a mut [u32],
}

/// Maps a coordinate to an integer with the same order as `total_cmp`,
/// so the sort compares plain integers.
fn ordered_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    // Negative: flip everything; non-negative: set the sign bit.
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// A sort key's integer value. (A `[u64; 2]` compares in the same order;
/// the tuple sorts 5% faster.)
fn key_bits(key: &[f64; 2]) -> (u64, u64) {
    (key[0].to_bits(), key[1].to_bits())
}

/// The cell a sort key belongs to.
fn key_cell(key: &[f64; 2]) -> u32 {
    key[1].to_bits() as u32
}

impl<'a> AxisOrder<'a> {
    /// The axis's arenas for `m` cells: `2m` of `keys`, `2m` of `cells`.
    fn lend(keys: &'a mut Vec<f64>, [order, rank]: [&'a mut [u32]; 2], m: usize) -> Self {
        let [keys] = carve(keys, 2 * m);
        Self {
            keys: keys.as_chunks_mut().0,
            order,
            rank,
        }
    }

    /// Sorts the cells by `(lead[cell], other[cell], cell)`: leading
    /// coordinate, other coordinate, cell index.
    fn sort(&mut self, lead: &[f64], other: &[f64]) {
        for (k, (&c, i)) in self.keys.iter_mut().zip(lead.iter().zip(0u64..)) {
            *k = [f64::from_bits(ordered_bits(c)), f64::from_bits(i)];
        }
        self.keys.sort_unstable_by_key(key_bits);
        for (o, k) in self.order.iter_mut().zip(self.keys.iter()) {
            *o = key_cell(k);
        }
        // That is `(leading coordinate, cell)`; cells tied on the leading
        // coordinate (rare) still have to be ordered by the other one.
        let mut run = 0;
        for k in 1..=self.keys.len() {
            if k == self.keys.len() || self.keys[k][0].to_bits() != self.keys[run][0].to_bits() {
                if k - run > 1 {
                    self.order[run..k].sort_unstable_by(|&a, &b| {
                        other[a as usize]
                            .total_cmp(&other[b as usize])
                            .then(a.cmp(&b))
                    });
                }
                run = k;
            }
        }
        fill_ranks(self.order, self.rank);
    }
}

/// Sets `rank[cell]` to the cell's index in `order`.
fn fill_ranks(order: &[u32], rank: &mut [u32]) {
    for (r, &i) in (0u32..).zip(order) {
        rank[i as usize] = r;
    }
}

/// The `(leading coordinate, cell)` order behind `sorted` — its sort
/// staging, before ties were ordered by the other coordinate — and each
/// cell's rank in it.
fn cell_tie_order(sorted: &AxisOrder, order: &mut [u32], rank: &mut [u32]) {
    for (o, k) in order.iter_mut().zip(sorted.keys.iter()) {
        *o = key_cell(k);
    }
    fill_ranks(order, rank);
}

/// Spreads the positions `(xs[i], ys[i])` to meet the problem's density
/// target, reading the cell areas from `soa` and working in the lent
/// `arenas`: `out` is overwritten with one position per movable, inside
/// the core. The result depends on the inputs alone — not on the thread
/// count, nor on what the arenas and `out` held before.
pub fn spread_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    xs: &[f64],
    ys: &[f64],
    arenas: SpreadArenas<'_>,
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
    let SpreadArenas {
        keys: [keys_x, keys_y],
        cells: [cells_x, cells_y],
    } = arenas;
    let [order_x, rank_x, root_order, root_rank] = carve(cells_x, m);
    let [order_y, rank_y, tmp] = carve(cells_y, m);
    let mut by_x = AxisOrder::lend(keys_x, [order_x, rank_x], m);
    let mut by_y = AxisOrder::lend(keys_y, [order_y, rank_y], m);
    let (xs, ys) = (&xs[..m], &ys[..m]);
    if m >= TASK_MIN_CELLS {
        cp_parallel::join(|| by_x.sort(xs, ys), || by_y.sort(ys, xs));
    } else {
        by_x.sort(xs, ys);
        by_y.sort(ys, xs);
    }
    let root_horizontal = cuts_horizontally(problem.core);
    cell_tie_order(
        if root_horizontal { &by_x } else { &by_y },
        root_order,
        root_rank,
    );
    // The sort staging is spent: the leaves stage their positions in the
    // y axis's.
    let AxisOrder {
        keys: staged,
        order: y_order,
        rank: rank_y,
    } = by_y;
    let bisection = Bisection {
        problem,
        areas: &soa.area,
        xs,
        ys,
        rank_x: by_x.rank,
        rank_y,
        root_horizontal,
        root_rank,
    };
    bisection.rec(
        problem.core,
        Some(root_order),
        by_x.order,
        y_order,
        tmp,
        staged,
    );
    // Back to cell order, then honor region constraints, core bounds and
    // blockages.
    for (&i, &[x, y]) in by_x.order.iter().zip(staged.iter()) {
        out[i as usize] = (x, y);
    }
    for (i, p) in out.iter_mut().enumerate() {
        *p = problem.bounds_of(i).clamp(p.0, p.1);
        *p = problem.evict_from_blockages(p.0, p.1);
    }
}

/// The read-only inputs of one spreading call, shared by every node.
struct Bisection<'a> {
    problem: &'a PlacementProblem,
    areas: &'a [f64],
    xs: &'a [f64],
    ys: &'a [f64],
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
    /// the same index range of the partition staging and of the mapped
    /// positions (`mapped[k]` belongs to cell `by_x[k]`).
    fn rec(
        &self,
        region: Rect,
        root: Option<&mut [u32]>,
        by_x: &mut [u32],
        by_y: &mut [u32],
        tmp: &mut [u32],
        mapped: &mut [[f64; 2]],
    ) {
        let n = by_x.len();
        if n <= LEAF_CELLS || region.width() <= MIN_EXTENT || region.height() <= MIN_EXTENT {
            map_into(region, by_x, self.xs, self.ys, mapped);
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
/// `mapped[k]` for cell `items[k]` as its `[x, y]`.
fn map_into(region: Rect, items: &[u32], xs: &[f64], ys: &[f64], mapped: &mut [[f64; 2]]) {
    let mut lo = (f64::INFINITY, f64::INFINITY);
    let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &i in items {
        let (x, y) = (xs[i as usize], ys[i as usize]);
        lo = (lo.0.min(x), lo.1.min(y));
        hi = (hi.0.max(x), hi.1.max(y));
    }
    let spanx = (hi.0 - lo.0).max(1e-9);
    let spany = (hi.1 - lo.1).max(1e-9);
    for (&i, out) in items.iter().zip(mapped) {
        let (x, y) = (xs[i as usize], ys[i as usize]);
        let fx = (x - lo.0) / spanx;
        let fy = (y - lo.1) / spany;
        *out = [
            region.llx + fx * region.width(),
            region.lly + fy * region.height(),
        ];
    }
}

/// Bins per side of the density grid for `m` movables.
pub fn density_bins(m: usize) -> usize {
    ((m as f64).sqrt() / 2.0).ceil().max(2.0) as usize
}

/// Fills `area` with the per-bin movable area of a placement on the
/// [`density_bins`]`(m) ×` [`density_bins`]`(m)` grid, row-major, adding
/// the cells in order; returns the bins per side.
fn area_grid_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
    area: &mut Vec<f64>,
) -> usize {
    let bins = density_bins(problem.movable_count());
    let core = problem.core;
    let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
    area.clear();
    area.resize(bins * bins, 0.0);
    for (&(x, y), &a) in positions.iter().zip(&soa.area) {
        let bx = (((x - core.llx) / bw) as usize).min(bins - 1);
        let by = (((y - core.lly) / bh) as usize).min(bins - 1);
        area[by * bins + bx] += a;
    }
    bins
}

/// Per-bin overflow amounts `(area − capacity)⁺` on the density grid —
/// the spatial view behind the scalar [`density_overflow_soa`], recorded
/// as a field frame at `Level::Full`. Serial on purpose: it only
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
    let mut area = Vec::new();
    let bins = area_grid_soa(problem, soa, positions, &mut area);
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

/// Per-bin summed displacement magnitude `‖to − from‖₂` from the
/// positions `(from_x[i], from_y[i])`, binned at the destination position
/// — the spreading-vs-lower-bound conflict field. Serial on purpose: it
/// only runs on the instrumentation path.
pub fn displacement_grid(
    problem: &PlacementProblem,
    from_x: &[f64],
    from_y: &[f64],
    to: &[(f64, f64)],
) -> (usize, Vec<f32>) {
    let m = problem
        .movable_count()
        .min(from_x.len())
        .min(from_y.len())
        .min(to.len());
    if m == 0 {
        return (0, Vec::new());
    }
    let bins = density_bins(problem.movable_count());
    let core = problem.core;
    let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
    let mut grid = vec![0.0f64; bins * bins];
    for i in 0..m {
        let (dx, dy) = (to[i].0 - from_x[i], to[i].1 - from_y[i]);
        let bx = (((to[i].0 - core.llx) / bw) as usize).min(bins - 1);
        let by = (((to[i].1 - core.lly) / bh) as usize).min(bins - 1);
        grid[by * bins + bx] += (dx * dx + dy * dy).sqrt();
    }
    (bins, grid.into_iter().map(|v| v as f32).collect())
}

/// Density overflow of a placement: the fraction of movable area exceeding
/// per-bin capacity (`bin_area · density_target`), on a `bins × bins` grid
/// sized to the problem. The bin scatter reads cell areas from `soa` and
/// the total from its precomputed sum.
pub fn density_overflow_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
) -> f64 {
    density_overflow_in(problem, soa, positions, &mut Vec::new())
}

/// [`density_overflow_soa`] with the bin grid in `area`, a buffer the
/// placer reuses across outer iterations.
pub(crate) fn density_overflow_in(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
    area: &mut Vec<f64>,
) -> f64 {
    let m = problem.movable_count();
    if m == 0 {
        return 0.0;
    }
    // Bin scatter in cell order, then the overflow summed bin by bin.
    let bins = area_grid_soa(problem, soa, positions, area);
    let area = &*area;
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

    /// One-shot [`spread_soa`] on fresh buffers.
    pub(super) fn spread(p: &PlacementProblem, positions: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let soa = PlacementSoa::from_problem(p);
        let (xs, ys) = unzip(positions);
        spread_soa(
            p,
            &soa,
            &xs,
            &ys,
            SpreadScratch::default().arenas(),
            &mut out,
        );
        out
    }

    /// The x and the y coordinates of `positions`.
    pub(super) fn unzip(positions: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>) {
        positions.iter().copied().unzip()
    }

    fn density_overflow(p: &PlacementProblem, positions: &[(f64, f64)]) -> f64 {
        density_overflow_soa(p, &PlacementSoa::from_problem(p), positions)
    }

    fn uniform_problem(n: usize) -> PlacementProblem {
        PlacementProblem {
            movable: vec![
                Object {
                    width: 1.0,
                    height: 1.0
                };
                n
            ]
            .into(),
            fixed: vec![],
            hypergraph: Hypergraph::new(n, vec![]).into(),
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
    fn a_call_takes_exactly_the_arena_lengths() {
        for m in [1, 37, TASK_MIN_CELLS + 3] {
            let p = uniform_problem(m);
            let soa = PlacementSoa::from_problem(&p);
            let (xs, ys) = unzip(&vec![(3.0, 4.0); m]);
            let mut scratch = SpreadScratch::default();
            let mut out = Vec::new();
            spread_soa(&p, &soa, &xs, &ys, scratch.arenas(), &mut out);
            let lengths = |s: &SpreadScratch| [0, 1].map(|a| [s.keys[a].len(), s.cells[a].len()]);
            assert_eq!(lengths(&scratch), SpreadArenas::lengths(m), "m = {m}");
            // Arenas that long are worked in where they are.
            let at = |s: &SpreadScratch| [0, 1].map(|a| (s.keys[a].as_ptr(), s.cells[a].as_ptr()));
            let before = at(&scratch);
            spread_soa(&p, &soa, &xs, &ys, scratch.arenas(), &mut out);
            assert_eq!(at(&scratch), before, "m = {m}");
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
    use super::tests::{spread, unzip};
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
    /// coordinate. Either a few cells or enough to run as `join` tasks.
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
                    hypergraph: Hypergraph::new(m, vec![]).into(),
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

    /// `n` values as a spent B2B `val` arena might hold them: weights, and
    /// the odd bit pattern a sort key or an overwritten entry leaves —
    /// quiet, signalling and negative NaNs, infinities, denormals, −0.
    fn spent_entries(n: usize, salt: usize) -> Vec<f64> {
        const ODD: [u64; 7] = [
            0x7ff8_0000_0000_0000,
            0x7ff0_0000_0000_0001,
            0xfff8_0000_dead_beef,
            0x7ff0_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x000f_ffff_ffff_ffff,
            0x8000_0000_0000_0000,
        ];
        (0..n)
            .map(|i| match (i + salt) % 3 {
                0 => f64::from_bits(ODD[(i / 3 + salt) % ODD.len()]),
                1 => 1.0 / (i as f64 + 0.5),
                _ => -(i as f64),
            })
            .collect()
    }

    /// `n` column indices as a spent B2B `col_idx` arena might hold them,
    /// most of them out of any cell range.
    fn spent_columns(n: usize, salt: usize) -> Vec<u32> {
        (0..n)
            .map(|i| (i as u32 ^ salt as u32).wrapping_mul(0x9e37_79b9))
            .collect()
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
        /// on arenas that held another problem's results, and on arenas
        /// lent holding a B2B system's entries (NaN, infinite, denormal and
        /// negative-zero bit patterns among them), shorter or longer than
        /// the call needs.
        #[test]
        fn output_ignores_threads_and_buffer_history(
            (p, pos) in case_strategy(),
            (other, other_pos) in case_strategy(),
        ) {
            let soa = PlacementSoa::from_problem(&p);
            let want = bits(&cp_parallel::with_threads(1, || spread(&p, &pos)));
            let (xs, ys) = unzip(&pos);
            let (other_xs, other_ys) = unzip(&other_pos);
            let mut scratch = SpreadScratch::default();
            let mut out = Vec::new();
            for threads in [2usize, 4, 8] {
                cp_parallel::with_threads(threads, || {
                    spread_soa(&p, &soa, &xs, &ys, scratch.arenas(), &mut out);
                });
                prop_assert_eq!(&bits(&out), &want, "threads = {}", threads);
                // Repeat on the now-warm buffers, then dirty them.
                spread_soa(&p, &soa, &xs, &ys, scratch.arenas(), &mut out);
                prop_assert_eq!(&bits(&out), &want, "repeat after {} threads", threads);
                let other_soa = PlacementSoa::from_problem(&other);
                spread_soa(&other, &other_soa, &other_xs, &other_ys, scratch.arenas(), &mut out);
            }
            // A call needs 2m keys per axis and 4m (x) and 3m (y) cells.
            let m = p.movable_count();
            let lengths: [fn(usize) -> usize; 4] = [|n| n / 2, |n| n - 1, |n| n, |n| 3 * n + 5];
            for (k, len) in lengths.into_iter().enumerate() {
                let mut keys = [len(2 * m), len(2 * m)].map(|n| spent_entries(n, k));
                let mut cells = [len(4 * m), len(3 * m)].map(|n| spent_columns(n, k));
                let arenas = SpreadArenas {
                    keys: keys.each_mut(),
                    cells: cells.each_mut(),
                };
                cp_parallel::with_threads(2, || spread_soa(&p, &soa, &xs, &ys, arenas, &mut out));
                prop_assert_eq!(&bits(&out), &want, "spent arenas, length variant {}", k);
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
