//! The generic placement problem: movable objects, fixed terminals, a
//! hypergraph and a core region.
//!
//! Both flat netlists (cells movable, ports fixed) and clustered netlists
//! (cluster macros movable, ports fixed) lower into this form, so one
//! placement engine serves the whole flow.

use cp_graph::Hypergraph;
use cp_netlist::clustered::ClusteredNetlist;
use cp_netlist::floorplan::{Floorplan, Rect};
use cp_netlist::netlist::Netlist;
use std::sync::Arc;

/// A movable object (standard cell or cluster macro).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Object {
    /// Width in µm.
    pub width: f64,
    /// Height in µm.
    pub height: f64,
}

impl Object {
    /// Footprint area in µm².
    pub fn area(&self) -> f64 {
        self.width * self.height
    }
}

/// A placement problem instance.
///
/// Hypergraph vertices `0..movable.len()` are the movable objects;
/// `movable.len()..` are fixed terminals with known positions. Cloning a
/// problem to reweigh, seed, constrain or inflate it shares the
/// hypergraph; everything else is per copy.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementProblem {
    /// Movable objects.
    pub movable: Vec<Object>,
    /// Positions of fixed terminals (hypergraph vertices after movables).
    pub fixed: Vec<(f64, f64)>,
    /// Connectivity over `movable.len() + fixed.len()` vertices, shared
    /// between clones.
    pub hypergraph: Arc<Hypergraph>,
    /// Per-hyperedge weights.
    pub net_weights: Vec<f64>,
    /// The placeable core region.
    pub core: Rect,
    /// Region constraint per movable object (Innovus-style): empty — no
    /// object constrained — until the first
    /// [`set_region`](Self::set_region), one entry per movable after it.
    /// The placer rejects any other length. Read it through
    /// [`bounds_of`](Self::bounds_of).
    pub region: Vec<Option<Rect>>,
    /// Optional seed positions per movable object (incremental mode).
    pub seed_positions: Option<Vec<(f64, f64)>>,
    /// Preplaced macro obstructions (no movable may end up inside).
    pub blockages: Vec<Rect>,
    /// Density target inside bins (fraction of bin capacity).
    pub density_target: f64,
}

impl PlacementProblem {
    /// Lowers a flat netlist onto a floorplan: cells movable, ports fixed,
    /// unit net weights.
    pub fn from_netlist(netlist: &Netlist, floorplan: &Floorplan) -> Self {
        let movable: Vec<Object> = netlist
            .cells()
            .iter()
            .map(|c| {
                let m = netlist.library().cell(c.ty);
                Object {
                    width: m.width,
                    height: m.height,
                }
            })
            .collect();
        let hypergraph = Arc::new(netlist.to_hypergraph());
        let net_weights = vec![1.0; hypergraph.edge_count()];
        Self {
            movable,
            fixed: floorplan.port_positions.clone(),
            hypergraph,
            net_weights,
            core: floorplan.core,
            region: Vec::new(),
            seed_positions: None,
            blockages: floorplan.blockages.clone(),
            density_target: floorplan.utilization.min(0.95),
        }
    }

    /// Lowers a clustered netlist onto the *original* floorplan: cluster
    /// macros movable (footprints from their shapes), ports fixed, carrying
    /// the clustered net weights (including any IO scaling).
    pub fn from_clustered(clustered: &ClusteredNetlist, floorplan: &Floorplan) -> Self {
        let movable: Vec<Object> = (0..clustered.cluster_count() as u32)
            .map(|c| {
                let (width, height) = clustered.dims(c);
                Object { width, height }
            })
            .collect();
        Self {
            movable,
            fixed: floorplan.port_positions.clone(),
            hypergraph: Arc::new(clustered.hypergraph().clone()),
            net_weights: clustered.net_weights().to_vec(),
            core: floorplan.core,
            region: Vec::new(),
            seed_positions: None,
            blockages: floorplan.blockages.clone(),
            density_target: 0.95,
        }
    }

    /// Number of movable objects.
    pub fn movable_count(&self) -> usize {
        self.movable.len()
    }

    /// Total movable area in µm².
    pub fn movable_area(&self) -> f64 {
        self.movable.iter().map(Object::area).sum()
    }

    /// Sets seed positions, switching the placer to incremental mode.
    ///
    /// # Panics
    ///
    /// Panics if `seeds.len() != movable_count()`.
    pub fn with_seeds(mut self, seeds: Vec<(f64, f64)>) -> Self {
        assert_eq!(seeds.len(), self.movable.len(), "one seed per movable");
        self.seed_positions = Some(seeds);
        self
    }

    /// Constrains movable `i` into `rect` (clamped every iteration). The
    /// first call sizes [`region`](Self::region) to one entry per movable.
    ///
    /// # Panics
    ///
    /// Panics if `i >= movable_count()`.
    pub fn set_region(&mut self, i: usize, rect: Rect) {
        if self.region.is_empty() {
            self.region = vec![None; self.movable.len()];
        }
        self.region[i] = Some(rect);
    }

    /// The rectangle movable `i` is clamped into: its region, or the core
    /// when it has none (also for every object while `region` is empty).
    #[inline]
    pub fn bounds_of(&self, i: usize) -> Rect {
        self.region.get(i).copied().flatten().unwrap_or(self.core)
    }

    /// Area of `rect` not covered by this problem's blockages.
    pub fn free_area_in(&self, rect: &Rect) -> f64 {
        let mut blocked = 0.0;
        for b in &self.blockages {
            let w = (rect.urx.min(b.urx) - rect.llx.max(b.llx)).max(0.0);
            let h = (rect.ury.min(b.ury) - rect.lly.max(b.lly)).max(0.0);
            blocked += w * h;
        }
        (rect.area() - blocked).max(0.0)
    }

    /// Pushes a point out of any blockage to the nearest free edge.
    pub fn evict_from_blockages(&self, x: f64, y: f64) -> (f64, f64) {
        for b in &self.blockages {
            if x > b.llx && x < b.urx && y > b.lly && y < b.ury {
                // Cheapest of the four walls.
                let candidates = [
                    (b.llx, y, x - b.llx),
                    (b.urx, y, b.urx - x),
                    (x, b.lly, y - b.lly),
                    (x, b.ury, b.ury - y),
                ];
                let mut nearest = candidates[0];
                for c in &candidates[1..] {
                    if c.2 < nearest.2 {
                        nearest = *c;
                    }
                }
                let (nx, ny) = self.core.clamp(nearest.0, nearest.1);
                return (nx, ny);
            }
        }
        (x, y)
    }

    /// Position of a vertex under a candidate movable placement.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn vertex_pos(&self, v: u32, positions: &[(f64, f64)]) -> (f64, f64) {
        let v = v as usize;
        if v < self.movable.len() {
            positions[v]
        } else {
            self.fixed[v - self.movable.len()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn flat() -> (Netlist, Floorplan) {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(1)
            .generate();
        let fp = Floorplan::for_netlist(&n, 0.6, 1.0);
        (n, fp)
    }

    #[test]
    fn from_netlist_dimensions() {
        let (n, fp) = flat();
        let p = PlacementProblem::from_netlist(&n, &fp);
        assert_eq!(p.movable_count(), n.cell_count());
        assert_eq!(p.fixed.len(), n.port_count());
        assert_eq!(p.hypergraph.vertex_count(), n.cell_count() + n.port_count());
        assert!((p.movable_area() - n.total_cell_area()).abs() < 1e-6);
    }

    #[test]
    fn from_clustered_uses_shapes() {
        let (n, fp) = flat();
        let half = n.cell_count() / 2;
        let labels: Vec<u32> = (0..n.cell_count()).map(|i| u32::from(i >= half)).collect();
        let mut c = ClusteredNetlist::from_assignment(&n, &labels);
        c.set_shape(0, cp_netlist::ClusterShape::new(1.5, 0.8));
        let p = PlacementProblem::from_clustered(&c, &fp);
        assert_eq!(p.movable_count(), 2);
        let ob = p.movable[0];
        assert!((ob.height / ob.width - 1.5).abs() < 1e-9);
    }

    #[test]
    fn vertex_pos_dispatches() {
        let (n, fp) = flat();
        let p = PlacementProblem::from_netlist(&n, &fp);
        let pos = vec![(1.0, 2.0); p.movable_count()];
        assert_eq!(p.vertex_pos(0, &pos), (1.0, 2.0));
        let port_v = p.movable_count() as u32;
        assert_eq!(p.vertex_pos(port_v, &pos), fp.port_positions[0]);
    }

    #[test]
    fn regions_stay_empty_until_the_first_set_region() {
        let (n, fp) = flat();
        let mut p = PlacementProblem::from_netlist(&n, &fp);
        assert!(p.region.is_empty());
        assert_eq!(p.bounds_of(3), fp.core);
        let r = Rect::new(fp.core.llx, fp.core.lly, 5.0, 5.0);
        p.set_region(3, r);
        assert_eq!(p.region.len(), p.movable_count());
        assert_eq!(p.bounds_of(3), r);
        assert_eq!(p.bounds_of(2), fp.core);
    }

    #[test]
    fn clones_share_the_hypergraph() {
        let (n, fp) = flat();
        let p = PlacementProblem::from_netlist(&n, &fp);
        let seeded = p.clone().with_seeds(vec![(0.0, 0.0); p.movable_count()]);
        assert!(Arc::ptr_eq(&p.hypergraph, &seeded.hypergraph));
    }

    #[test]
    #[should_panic(expected = "one seed per movable")]
    fn wrong_seed_count_panics() {
        let (n, fp) = flat();
        let p = PlacementProblem::from_netlist(&n, &fp);
        let _ = p.with_seeds(vec![(0.0, 0.0)]);
    }
}
