//! The GCell congestion map: the routing grid and its track demand.

use cp_netlist::floorplan::{Floorplan, Rect};
use cp_netlist::netlist::Netlist;

/// Sub-unit resolution of the integer maze cost: one unit of the f64 cost
/// `1 + 8u²` is `COST_RESOLUTION` integer steps (quarter-unit).
pub(crate) const COST_RESOLUTION: u32 = 4;

/// The largest per-edge maze cost: 65 units, charged at or over capacity.
pub(crate) const MAX_EDGE_COST: u32 = 65 * COST_RESOLUTION;

/// The maze cost of crossing an edge: `1 + 8u²` for utilization `u < 1`,
/// 65 at or over capacity, rounded to `1/COST_RESOLUTION` of a unit. This
/// is the one definition; the map caches its value per edge.
fn edge_cost(demand: f64, capacity: f64) -> u16 {
    let util = demand / capacity;
    let units = 1.0 + if util >= 1.0 { 64.0 } else { 8.0 * util * util };
    (units * f64::from(COST_RESOLUTION) + 0.5) as u16
}

/// Track demand/capacity over a `nx × ny` grid of square GCells.
///
/// GCell `(i, j)` spans `[x0 + i·g, x0 + (i+1)·g) × [y0 + j·g, y0 + (j+1)·g)`
/// from the grid's origin `(x0, y0)`; [`CongestionMap::gcell_of`] is the
/// one map from a position to its GCell.
///
/// Horizontal edges connect `(i, j)`–`(i+1, j)` (there are `(nx−1)·ny`);
/// vertical edges connect `(i, j)`–`(i, j+1)` (`nx·(ny−1)`).
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionMap {
    origin: (f64, f64),
    nx: usize,
    ny: usize,
    gcell: f64,
    h_demand: Vec<f64>,
    v_demand: Vec<f64>,
    h_capacity: Vec<f64>,
    v_capacity: Vec<f64>,
    /// `edge_cost` of every edge, kept current by `add_*` and `derate`.
    h_cost: Vec<u16>,
    v_cost: Vec<u16>,
}

impl CongestionMap {
    /// An empty map over `region` at `gcell` µm per GCell: the grid starts
    /// at the region's lower-left corner and has `⌈extent / gcell⌉` (at
    /// least one) GCells per axis, every edge at `capacity` tracks.
    ///
    /// # Panics
    ///
    /// Panics unless `gcell` and `capacity` are positive.
    pub fn new(region: Rect, gcell: f64, capacity: f64) -> Self {
        assert!(gcell > 0.0, "GCell size must be positive");
        assert!(capacity > 0.0, "capacity must be positive");
        let nx = ((region.width() / gcell).ceil() as usize).max(1);
        let ny = ((region.height() / gcell).ceil() as usize).max(1);
        let (h_edges, v_edges) = ((nx - 1) * ny, nx * (ny - 1));
        let cost = edge_cost(0.0, capacity);
        Self {
            origin: (region.llx, region.lly),
            nx,
            ny,
            gcell,
            h_demand: vec![0.0; h_edges],
            v_demand: vec![0.0; v_edges],
            h_capacity: vec![capacity; h_edges],
            v_capacity: vec![capacity; v_edges],
            h_cost: vec![cost; h_edges],
            v_cost: vec![cost; v_edges],
        }
    }

    /// The routing grid of a placed design — the one place its values are
    /// decided: the die at three row heights per GCell, each edge at the
    /// library's `tracks_per_layer × horizontal_layers` tracks (10 × 3 in
    /// [`cp_netlist::Library::nangate45ish`]), and each floorplan
    /// blockage derated to 40% (macros consume the lower routing layers)
    /// over exactly the GCells it overlaps: indices from the floor of its
    /// low corner's offset to one below the ceiling of its high corner's
    /// (never below the low index), so a block ending on a GCell boundary
    /// leaves the GCell beyond it alone.
    pub fn for_design(netlist: &Netlist, floorplan: &Floorplan) -> Self {
        let library = netlist.library();
        let capacity = (library.tracks_per_layer * library.horizontal_layers) as f64;
        let region = floorplan.die;
        let gcell = 3.0 * floorplan.row_height;
        let mut map = Self::new(region, gcell, capacity);
        let (nx, ny) = (map.nx, map.ny);
        for b in &floorplan.blockages {
            let i0 = (((b.llx - region.llx) / gcell).floor().max(0.0)) as usize;
            let j0 = (((b.lly - region.lly) / gcell).floor().max(0.0)) as usize;
            let i1 = (((b.urx - region.llx) / gcell).ceil() - 1.0).max(0.0) as usize;
            let j1 = (((b.ury - region.lly) / gcell).ceil() - 1.0).max(0.0) as usize;
            let (i1, j1) = (i1.max(i0), j1.max(j0));
            map.derate(i0, j0, i1.min(nx - 1), j1.min(ny - 1), 0.4);
        }
        map
    }

    /// The GCell holding `(x, y)`; positions outside the grid clamp to its
    /// border GCells. The index is the offset in GCells truncated `as
    /// isize` and clamped to `[0, n − 1]`, which equals truncating `as
    /// usize` and capping at `n − 1`: both casts saturate, so a negative
    /// or NaN offset gives 0 and a far-out one `n − 1` either way.
    pub fn gcell_of(&self, x: f64, y: f64) -> (usize, usize) {
        let index = |offset: f64, n: usize| (offset as isize).clamp(0, n as isize - 1) as usize;
        (
            index((x - self.origin.0) / self.gcell, self.nx),
            index((y - self.origin.1) / self.gcell, self.ny),
        )
    }

    /// Scales the capacity of every edge whose GCell index falls inside
    /// `[i0, i1] × [j0, j1]` by `factor`, keeping at least one track.
    ///
    /// A one-column grid has no horizontal edges and a one-row grid no
    /// vertical ones; the absent direction is skipped.
    pub fn derate(&mut self, i0: usize, j0: usize, i1: usize, j1: usize, factor: f64) {
        if self.nx >= 2 {
            for j in j0..=j1.min(self.ny - 1) {
                for i in i0..=i1.min(self.nx - 2) {
                    let idx = self.h_idx(i, j);
                    self.h_capacity[idx] = (self.h_capacity[idx] * factor).max(1.0);
                    self.h_cost[idx] = edge_cost(self.h_demand[idx], self.h_capacity[idx]);
                }
            }
        }
        if self.ny >= 2 {
            for j in j0..=j1.min(self.ny - 2) {
                for i in i0..=i1.min(self.nx - 1) {
                    let idx = self.v_idx(i, j);
                    self.v_capacity[idx] = (self.v_capacity[idx] * factor).max(1.0);
                    self.v_cost[idx] = edge_cost(self.v_demand[idx], self.v_capacity[idx]);
                }
            }
        }
    }

    /// Grid width in GCells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in GCells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// GCell edge length, µm.
    pub fn gcell_size(&self) -> f64 {
        self.gcell
    }

    fn h_idx(&self, i: usize, j: usize) -> usize {
        j * (self.nx - 1) + i
    }

    fn v_idx(&self, i: usize, j: usize) -> usize {
        j * self.nx + i
    }

    /// Adds `amount` tracks of demand on the horizontal edge `(i,j)→(i+1,j)`.
    pub fn add_h(&mut self, i: usize, j: usize, amount: f64) {
        let idx = self.h_idx(i, j);
        self.h_demand[idx] += amount;
        self.h_cost[idx] = edge_cost(self.h_demand[idx], self.h_capacity[idx]);
    }

    /// Adds `amount` tracks of demand on the vertical edge `(i,j)→(i,j+1)`.
    pub fn add_v(&mut self, i: usize, j: usize, amount: f64) {
        let idx = self.v_idx(i, j);
        self.v_demand[idx] += amount;
        self.v_cost[idx] = edge_cost(self.v_demand[idx], self.v_capacity[idx]);
    }

    /// Cached maze costs of the horizontal edges `(i, j)→(i+1, j)` for
    /// `i` in `i0..i0 + len`.
    pub(crate) fn h_cost_row(&self, i0: usize, j: usize, len: usize) -> &[u16] {
        let start = self.h_idx(i0, j);
        &self.h_cost[start..start + len]
    }

    /// Cached maze costs of the vertical edges `(i, j)→(i, j+1)` for `i`
    /// in `i0..i0 + len`.
    pub(crate) fn v_cost_row(&self, i0: usize, j: usize, len: usize) -> &[u16] {
        let start = self.v_idx(i0, j);
        &self.v_cost[start..start + len]
    }

    /// Demand on a horizontal edge.
    #[cfg(test)]
    pub(crate) fn h_demand(&self, i: usize, j: usize) -> f64 {
        self.h_demand[self.h_idx(i, j)]
    }

    /// Demand on a vertical edge.
    #[cfg(test)]
    pub(crate) fn v_demand(&self, i: usize, j: usize) -> f64 {
        self.v_demand[self.v_idx(i, j)]
    }

    /// Capacity of a horizontal edge.
    #[cfg(test)]
    pub(crate) fn h_capacity(&self, i: usize, j: usize) -> f64 {
        self.h_capacity[self.h_idx(i, j)]
    }

    /// Capacity of a vertical edge.
    #[cfg(test)]
    pub(crate) fn v_capacity(&self, i: usize, j: usize) -> f64 {
        self.v_capacity[self.v_idx(i, j)]
    }

    /// Utilization (demand/capacity) of a horizontal edge.
    pub fn h_utilization(&self, i: usize, j: usize) -> f64 {
        let idx = self.h_idx(i, j);
        self.h_demand[idx] / self.h_capacity[idx]
    }

    /// Utilization of a vertical edge.
    pub fn v_utilization(&self, i: usize, j: usize) -> f64 {
        let idx = self.v_idx(i, j);
        self.v_demand[idx] / self.v_capacity[idx]
    }

    /// Congestion of GCell `(i, j)`: the max utilization over its incident
    /// edges (the quantity Eq. 5 averages).
    pub fn congestion_at(&self, (i, j): (usize, usize)) -> f64 {
        let mut c = 0.0f64;
        if i > 0 {
            c = c.max(self.h_utilization(i - 1, j));
        }
        if i + 1 < self.nx {
            c = c.max(self.h_utilization(i, j));
        }
        if j > 0 {
            c = c.max(self.v_utilization(i, j - 1));
        }
        if j + 1 < self.ny {
            c = c.max(self.v_utilization(i, j));
        }
        c
    }

    /// [`CongestionMap::congestion_at`] of every GCell, row-major —
    /// GCell `(i, j)` at `j · nx + i`.
    pub fn gcell_congestion(&self) -> Vec<f64> {
        (0..self.ny)
            .flat_map(|j| (0..self.nx).map(move |i| self.congestion_at((i, j))))
            .collect()
    }

    /// Eq. 5 of the paper: the average congestion over the top `x_percent`
    /// most congested GCells (default 10 in the paper).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < x_percent <= 100`.
    pub fn top_percent_average(&self, x_percent: f64) -> f64 {
        assert!(
            x_percent > 0.0 && x_percent <= 100.0,
            "percentage out of (0, 100]"
        );
        let mut c = self.gcell_congestion();
        c.sort_by(|a, b| b.total_cmp(a));
        let take = ((c.len() as f64 * x_percent / 100.0).ceil() as usize).max(1);
        c.truncate(take);
        c.iter().sum::<f64>() / take as f64
    }

    /// Maximum edge utilization anywhere.
    pub fn max_utilization(&self) -> f64 {
        let h = self
            .h_demand
            .iter()
            .zip(&self.h_capacity)
            .map(|(d, c)| d / c)
            .fold(0.0f64, f64::max);
        let v = self
            .v_demand
            .iter()
            .zip(&self.v_capacity)
            .map(|(d, c)| d / c)
            .fold(0.0f64, f64::max);
        h.max(v)
    }

    /// Number of edges with utilization above 1.
    pub fn overflow_edges(&self) -> usize {
        self.h_demand
            .iter()
            .zip(&self.h_capacity)
            .filter(|&(&d, &c)| d > c)
            .count()
            + self
                .v_demand
                .iter()
                .zip(&self.v_capacity)
                .filter(|&(&d, &c)| d > c)
                .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `nx × ny` grid of 5 µm GCells from the origin.
    fn grid(nx: usize, ny: usize, capacity: f64) -> CongestionMap {
        let region = Rect::new(0.0, 0.0, 5.0 * nx as f64, 5.0 * ny as f64);
        CongestionMap::new(region, 5.0, capacity)
    }

    #[test]
    fn demand_and_utilization() {
        let mut m = grid(3, 2, 10.0);
        assert_eq!((m.nx(), m.ny(), m.gcell_size()), (3, 2, 5.0));
        m.add_h(0, 0, 5.0);
        m.add_v(1, 0, 5.0);
        assert_eq!(m.h_utilization(0, 0), 0.5);
        assert_eq!(m.v_utilization(1, 0), 0.5);
        assert_eq!(m.h_utilization(1, 0), 0.0);
        assert_eq!(m.max_utilization(), 0.5);
        assert_eq!(m.overflow_edges(), 0);
        m.add_h(0, 0, 6.0);
        assert_eq!(m.overflow_edges(), 1);
    }

    #[test]
    fn gcell_congestion_takes_incident_max() {
        let mut m = grid(2, 1, 10.0);
        m.add_h(0, 0, 8.0);
        let c = m.gcell_congestion();
        assert_eq!(c, vec![0.8, 0.8]);
        assert_eq!(
            (m.congestion_at((0, 0)), m.congestion_at((1, 0))),
            (0.8, 0.8)
        );
    }

    #[test]
    fn top_percent_average_matches_eq5() {
        let mut m = grid(10, 10, 10.0);
        // One very hot edge.
        m.add_h(4, 4, 20.0);
        let top1 = m.top_percent_average(1.0); // 1 cell
        let top100 = m.top_percent_average(100.0);
        assert!(top1 >= 2.0 - 1e-9);
        assert!(top100 < top1);
    }

    #[test]
    fn derate_skips_the_absent_edge_direction() {
        // One column: no horizontal edges to derate.
        let mut column = grid(1, 4, 10.0);
        column.derate(0, 0, 0, 3, 0.4);
        column.add_v(0, 1, 4.0);
        assert_eq!(column.v_utilization(0, 1), 1.0);
        // One row: no vertical edges.
        let mut row = grid(4, 1, 10.0);
        row.derate(0, 0, 3, 0, 0.4);
        row.add_h(1, 0, 4.0);
        assert_eq!(row.h_utilization(1, 0), 1.0);
        // One GCell: no edges at all.
        let mut cell = grid(1, 1, 10.0);
        cell.derate(0, 0, 0, 0, 0.4);
        assert_eq!(cell.max_utilization(), 0.0);
    }

    #[test]
    fn cached_cost_tracks_demand_and_capacity() {
        let unit = COST_RESOLUTION as u16;
        let mut m = grid(3, 2, 10.0);
        assert_eq!(m.h_cost_row(0, 0, 2), [unit, unit]);
        assert_eq!(m.v_cost_row(0, 0, 3), [unit, unit, unit]);
        m.add_h(0, 0, 5.0); // u = 0.5: 1 + 8·0.25 = 3 units
        assert_eq!(m.h_cost_row(0, 0, 2), [3 * unit, unit]);
        m.add_h(0, 0, 5.0); // at capacity
        assert_eq!(m.h_cost_row(0, 0, 1), [MAX_EDGE_COST as u16]);
        m.add_h(0, 0, 50.0); // over capacity costs the same
        assert_eq!(m.h_cost_row(0, 0, 1), [MAX_EDGE_COST as u16]);
        m.add_v(2, 0, 3.0); // u = 0.3: 1.72 units, 6.88 steps → 7
        assert_eq!(m.v_cost_row(2, 0, 1), [7]);
        m.derate(2, 0, 2, 0, 0.4); // capacity 4: u = 0.75, 5.5 units
        assert_eq!(m.v_cost_row(2, 0, 1), [22]);
        assert_eq!(m.v_cost_row(1, 0, 1), [unit]);
    }

    /// A partial GCell at the far edge counts, and an empty region still
    /// gets one GCell.
    #[test]
    fn new_covers_the_region_from_its_corner() {
        let m = CongestionMap::new(Rect::new(-3.0, 7.0, 21.0, 10.0), 5.0, 8.0);
        assert_eq!((m.nx(), m.ny()), (5, 2));
        assert_eq!(m.gcell_of(-3.0, 7.0), (0, 0));
        assert_eq!(m.gcell_of(1.9, 11.9), (0, 0));
        assert_eq!(m.gcell_of(2.0, 12.0), (1, 1));
        let empty = CongestionMap::new(Rect::new(1.0, 1.0, 0.0, 0.0), 5.0, 8.0);
        assert_eq!((empty.nx(), empty.ny()), (1, 1));
    }

    /// `gcell_of` is the expression the router and the congestion refine
    /// each used to write out: in the die, below it, NaN and past it.
    #[test]
    fn gcell_of_matches_both_former_expressions() {
        let (llx, lly, g) = (-3.0, 7.0, 4.2);
        let m = CongestionMap::new(Rect::new(llx, lly, 40.0, 30.0), g, 8.0);
        let (nx, ny) = (m.nx(), m.ny());
        assert_eq!((nx, ny), (10, 8));
        let to_gcell = |x: f64, y: f64| {
            let i = (((x - llx) / g) as isize).clamp(0, nx as isize - 1) as usize;
            let j = (((y - lly) / g) as isize).clamp(0, ny as isize - 1) as usize;
            (i, j)
        };
        let refine = |x: f64, y: f64| {
            let i = (((x - llx) / g) as usize).min(nx - 1);
            let j = (((y - lly) / g) as usize).min(ny - 1);
            (i, j)
        };
        let coordinates = [
            (0.0, 10.0),
            (llx, lly),
            (llx + 4.2, lly + 4.2),
            (30.0, 30.0),
            (36.9, 36.9),
            (-50.0, -1e300),
            (f64::NAN, 20.0),
            (10.0, f64::NAN),
            (37.0, 37.0),
            (1e9, 1e300),
            (f64::INFINITY, f64::NEG_INFINITY),
        ];
        for (x, y) in coordinates {
            assert_eq!(m.gcell_of(x, y), to_gcell(x, y), "({x}, {y})");
            assert_eq!(m.gcell_of(x, y), refine(x, y), "({x}, {y})");
        }
        assert_eq!(m.gcell_of(f64::NAN, 1e9), (0, ny - 1));
    }

    /// The design grid derates every edge of a GCell a floorplan blockage
    /// overlaps to 0.4 of the library's tracks, and no other edge.
    #[test]
    fn design_grid_derates_edges_under_a_blockage() {
        use cp_netlist::generator::{DesignProfile, GeneratorConfig};
        let netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .generate();
        let mut fp = Floorplan::try_for_netlist(&netlist, 0.6, 1.0).expect("valid geometry");
        let open = CongestionMap::for_design(&netlist, &fp);
        let g = open.gcell_size();
        let (llx, lly) = (fp.die.llx, fp.die.lly);
        let full = open.h_capacity(0, 0);
        assert!(
            open.nx() > 7 && open.ny() > 6,
            "{} x {}",
            open.nx(),
            open.ny()
        );
        let at = |i: f64, j: f64| (llx + i * g, lly + j * g);
        let cases = [
            // Inside GCells 2.5..4.3 × 1.5..3.3: it overlaps 2..=4 × 1..=3.
            (at(2.5, 1.5), at(4.3, 3.3), (2..=4, 1..=3)),
            // Ending exactly on GCell boundaries (5 g, 4 g): GCells 5 and
            // 4 beyond them stay open.
            (at(2.0, 1.0), at(5.0, 4.0), (2..=4, 1..=3)),
        ];
        for ((x0, y0), (x1, y1), (is, js)) in cases {
            // The high corner's offset is exactly on a boundary or well
            // inside a GCell, never a rounding error away from one.
            for offset in [(x1 - llx) / g, (y1 - lly) / g] {
                let f = offset.fract();
                assert!(f == 0.0 || (0.2..0.8).contains(&f), "{offset}");
            }
            fp.blockages = vec![Rect {
                llx: x0,
                lly: y0,
                urx: x1,
                ury: y1,
            }];
            let blocked = CongestionMap::for_design(&netlist, &fp);
            for j in 0..open.ny() {
                for i in 0..open.nx() {
                    let inside = is.contains(&i) && js.contains(&j);
                    let want = if inside { 0.4 * full } else { full };
                    if i + 1 < open.nx() {
                        assert_eq!(open.h_capacity(i, j), full);
                        assert_eq!(blocked.h_capacity(i, j), want, "h ({i}, {j}) of {is:?}");
                    }
                    if j + 1 < open.ny() {
                        assert_eq!(open.v_capacity(i, j), full);
                        assert_eq!(blocked.v_capacity(i, j), want, "v ({i}, {j}) of {js:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn bad_percentage_panics() {
        grid(2, 2, 1.0).top_percent_average(0.0);
    }
}
