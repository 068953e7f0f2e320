//! The GCell congestion map.

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

/// Track demand/capacity over a `nx × ny` GCell grid.
///
/// Horizontal edges connect `(i, j)`–`(i+1, j)` (there are `(nx−1)·ny`);
/// vertical edges connect `(i, j)`–`(i, j+1)` (`nx·(ny−1)`).
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionMap {
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
    /// An empty map over a `nx × ny` grid with per-edge capacities.
    ///
    /// # Panics
    ///
    /// Panics unless the grid is at least 1×1 and capacities are positive.
    pub fn new(nx: usize, ny: usize, gcell: f64, h_capacity: f64, v_capacity: f64) -> Self {
        assert!(nx >= 1 && ny >= 1, "grid must be at least 1x1");
        assert!(
            h_capacity > 0.0 && v_capacity > 0.0,
            "capacities must be positive"
        );
        Self {
            nx,
            ny,
            gcell,
            h_demand: vec![0.0; (nx.saturating_sub(1)) * ny],
            v_demand: vec![0.0; nx * (ny.saturating_sub(1))],
            h_capacity: vec![h_capacity; (nx.saturating_sub(1)) * ny],
            v_capacity: vec![v_capacity; nx * (ny.saturating_sub(1))],
            h_cost: vec![edge_cost(0.0, h_capacity); (nx.saturating_sub(1)) * ny],
            v_cost: vec![edge_cost(0.0, v_capacity); nx * (ny.saturating_sub(1))],
        }
    }

    /// Scales the capacity of every edge whose GCell index falls inside
    /// `[i0, i1] × [j0, j1]` by `factor` (macro obstructions consume
    /// routing resources on the lower layers).
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

    /// Per-GCell congestion: the max utilization over the cell's incident
    /// edges (the quantity Eq. 5 averages).
    pub fn gcell_congestion(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.nx * self.ny];
        for j in 0..self.ny {
            for i in 0..self.nx {
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
                out[j * self.nx + i] = c;
            }
        }
        out
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

    #[test]
    fn demand_and_utilization() {
        let mut m = CongestionMap::new(3, 2, 5.0, 10.0, 20.0);
        m.add_h(0, 0, 5.0);
        m.add_v(1, 0, 10.0);
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
        let mut m = CongestionMap::new(2, 1, 5.0, 10.0, 10.0);
        m.add_h(0, 0, 8.0);
        let c = m.gcell_congestion();
        assert_eq!(c, vec![0.8, 0.8]);
    }

    #[test]
    fn top_percent_average_matches_eq5() {
        let mut m = CongestionMap::new(10, 10, 5.0, 10.0, 10.0);
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
        let mut column = CongestionMap::new(1, 4, 5.0, 10.0, 10.0);
        column.derate(0, 0, 0, 3, 0.4);
        column.add_v(0, 1, 4.0);
        assert_eq!(column.v_utilization(0, 1), 1.0);
        // One row: no vertical edges.
        let mut row = CongestionMap::new(4, 1, 5.0, 10.0, 10.0);
        row.derate(0, 0, 3, 0, 0.4);
        row.add_h(1, 0, 4.0);
        assert_eq!(row.h_utilization(1, 0), 1.0);
        // One GCell: no edges at all.
        let mut cell = CongestionMap::new(1, 1, 5.0, 10.0, 10.0);
        cell.derate(0, 0, 0, 0, 0.4);
        assert_eq!(cell.max_utilization(), 0.0);
    }

    #[test]
    fn cached_cost_tracks_demand_and_capacity() {
        let unit = COST_RESOLUTION as u16;
        let mut m = CongestionMap::new(3, 2, 5.0, 10.0, 10.0);
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

    #[test]
    #[should_panic(expected = "percentage")]
    fn bad_percentage_panics() {
        CongestionMap::new(2, 2, 5.0, 1.0, 1.0).top_percent_average(0.0);
    }
}
