//! The clustered netlist (Algorithm 1, line 10).
//!
//! Given a cluster assignment over cells, this module collapses the flat
//! netlist into a netlist of soft macros: one placeable object per cluster,
//! with the original top ports kept as fixed terminals and intra-cluster
//! nets absorbed. The result is what the seed placement places.

use crate::ids::{CellId, NetId, PortId};
use crate::netlist::{Netlist, PinRef};
use crate::shapes::ClusterShape;
use cp_graph::Hypergraph;

/// A netlist of cluster macros plus the original top ports.
///
/// Hypergraph vertices `0..cluster_count` are clusters;
/// `cluster_count..cluster_count + port_count` are the top ports.
///
/// # Examples
///
/// ```
/// use cp_netlist::generator::{DesignProfile, GeneratorConfig};
/// use cp_netlist::clustered::ClusteredNetlist;
///
/// let netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
///     .scale(0.01)
///     .generate();
/// // Two clusters: first half of the cells vs second half.
/// let half = netlist.cell_count() / 2;
/// let assignment: Vec<u32> = (0..netlist.cell_count())
///     .map(|i| u32::from(i >= half))
///     .collect();
/// let clustered = ClusteredNetlist::from_assignment(&netlist, &assignment);
/// assert_eq!(clustered.cluster_count(), 2);
/// assert!(clustered.hypergraph().edge_count() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredNetlist {
    name: String,
    cluster_count: usize,
    port_count: usize,
    cluster_area: Vec<f64>,
    cluster_cells: Vec<Vec<CellId>>,
    cluster_of_cell: Vec<u32>,
    shapes: Vec<ClusterShape>,
    hypergraph: Hypergraph,
    net_weights: Vec<f64>,
    edge_is_io: Vec<bool>,
    original_net_of_edge: Vec<NetId>,
}

impl ClusteredNetlist {
    /// Collapses `netlist` according to `assignment` (one cluster id per
    /// cell; ids need not be dense — they are densified here).
    ///
    /// Nets whose endpoints all fall in one cluster are absorbed; the rest
    /// become hyperedges over clusters (and ports) with weight 1.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != netlist.cell_count()`.
    pub fn from_assignment(netlist: &Netlist, assignment: &[u32]) -> Self {
        assert_eq!(
            assignment.len(),
            netlist.cell_count(),
            "assignment must cover every cell"
        );
        let mut dense = assignment.to_vec();
        let cluster_count = cp_graph::community::compact_labels(&mut dense);
        let port_count = netlist.port_count();

        let mut cluster_area = vec![0.0; cluster_count];
        let mut cluster_cells: Vec<Vec<CellId>> = vec![Vec::new(); cluster_count];
        for (i, &c) in dense.iter().enumerate() {
            let id = CellId(i as u32);
            cluster_area[c as usize] += netlist.master(id).area();
            cluster_cells[c as usize].push(id);
        }

        let nv = cluster_count + port_count;
        let mut edges = Vec::new();
        let mut net_weights = Vec::new();
        let mut edge_is_io = Vec::new();
        let mut original_net_of_edge = Vec::new();
        for (nid, net) in netlist.nets().iter().enumerate() {
            if net.is_clock {
                continue;
            }
            let mut verts: Vec<u32> = Vec::with_capacity(net.pin_count());
            let mut is_io = false;
            for p in net.driver.iter().chain(netlist.sinks(NetId(nid as u32))) {
                match *p {
                    PinRef::Cell { cell, .. } => verts.push(dense[cell.index()]),
                    PinRef::Port(port) => {
                        verts.push(cluster_count as u32 + port.0);
                        is_io = true;
                    }
                }
            }
            verts.sort_unstable();
            verts.dedup();
            if verts.len() >= 2 {
                edges.push((verts, 1.0));
                net_weights.push(1.0);
                edge_is_io.push(is_io);
                original_net_of_edge.push(NetId(nid as u32));
            }
        }
        let hypergraph = Hypergraph::new(nv, edges);
        Self {
            name: format!("{}_clustered", netlist.name()),
            cluster_count,
            port_count,
            cluster_area,
            cluster_cells,
            cluster_of_cell: dense,
            shapes: vec![ClusterShape::UNIFORM; cluster_count],
            hypergraph,
            net_weights,
            edge_is_io,
            original_net_of_edge,
        }
    }

    /// Name of the clustered design.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of clusters (placeable objects).
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Number of fixed top ports.
    pub fn port_count(&self) -> usize {
        self.port_count
    }

    /// Total cell area of cluster `c` in µm².
    pub fn area(&self, c: u32) -> f64 {
        self.cluster_area[c as usize]
    }

    /// The original cells of cluster `c`.
    pub fn cells(&self, c: u32) -> &[CellId] {
        &self.cluster_cells[c as usize]
    }

    /// The cluster each original cell belongs to.
    pub fn cluster_of_cell(&self) -> &[u32] {
        &self.cluster_of_cell
    }

    /// Number of original cells in cluster `c`.
    pub fn size(&self, c: u32) -> usize {
        self.cluster_cells[c as usize].len()
    }

    /// The shape assigned to cluster `c`.
    pub fn shape(&self, c: u32) -> ClusterShape {
        self.shapes[c as usize]
    }

    /// Overrides the shape of cluster `c` (from V-P&R, Algorithm 1 line 13).
    pub fn set_shape(&mut self, c: u32, shape: ClusterShape) {
        self.shapes[c as usize] = shape;
    }

    /// Macro footprint `(width, height)` of cluster `c` in µm.
    pub fn dims(&self, c: u32) -> (f64, f64) {
        self.shapes[c as usize].dims(self.cluster_area[c as usize])
    }

    /// The hypergraph over clusters (and ports as trailing vertices).
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hypergraph
    }

    /// Per-hyperedge weights (same order as the hypergraph edges).
    pub fn net_weights(&self) -> &[f64] {
        &self.net_weights
    }

    /// `true` for hyperedges that touch a top port.
    pub fn edge_is_io(&self) -> &[bool] {
        &self.edge_is_io
    }

    /// The original net behind each hyperedge.
    pub fn original_net_of_edge(&self) -> &[NetId] {
        &self.original_net_of_edge
    }

    /// Hypergraph vertex of a port.
    pub fn port_vertex(&self, p: PortId) -> u32 {
        self.cluster_count as u32 + p.0
    }

    /// Scales the weight of IO-touching hyperedges (the paper scales IO net
    /// weights by 4 in the OpenROAD flow, Algorithm 1 line 22, after \[9\]).
    pub fn scale_io_net_weights(&mut self, factor: f64) {
        for (w, &is_io) in self.net_weights.iter_mut().zip(&self.edge_is_io) {
            if is_io {
                *w *= factor;
            }
        }
    }

    /// Clusters larger than `min_instances`, the V-P&R shaping candidates
    /// (the paper shapes only clusters with more than 200 instances).
    pub fn shapeable_clusters(&self, min_instances: usize) -> Vec<u32> {
        (0..self.cluster_count as u32)
            .filter(|&c| self.size(c) > min_instances)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DesignProfile, GeneratorConfig};

    fn flat() -> Netlist {
        GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(2)
            .generate()
    }

    fn halves(n: &Netlist) -> Vec<u32> {
        let half = n.cell_count() / 2;
        (0..n.cell_count()).map(|i| u32::from(i >= half)).collect()
    }

    #[test]
    fn areas_partition_total() {
        let n = flat();
        let c = ClusteredNetlist::from_assignment(&n, &halves(&n));
        let sum: f64 = (0..c.cluster_count() as u32).map(|i| c.area(i)).sum();
        assert!((sum - n.total_cell_area()).abs() < 1e-6);
        assert_eq!(c.cells(0).len() + c.cells(1).len(), n.cell_count());
    }

    #[test]
    fn intra_cluster_nets_absorbed() {
        let n = flat();
        // All cells in one cluster: only IO-touching nets survive.
        let c = ClusteredNetlist::from_assignment(&n, &vec![0; n.cell_count()]);
        assert_eq!(c.cluster_count(), 1);
        assert!(c.hypergraph().edge_count() > 0);
        assert!(c.edge_is_io().iter().all(|&b| b));
    }

    #[test]
    fn io_weight_scaling() {
        let n = flat();
        let mut c = ClusteredNetlist::from_assignment(&n, &halves(&n));
        let io_edges: Vec<usize> = c
            .edge_is_io()
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        assert!(!io_edges.is_empty());
        let before: Vec<f64> = io_edges.iter().map(|&i| c.net_weights()[i]).collect();
        c.scale_io_net_weights(4.0);
        for (k, &i) in io_edges.iter().enumerate() {
            assert!((c.net_weights()[i] - before[k] * 4.0).abs() < 1e-12);
        }
        // Non-IO edges untouched.
        if let Some(i) = c.edge_is_io().iter().position(|&b| !b) {
            assert!((c.net_weights()[i] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn shapes_default_to_uniform_and_override() {
        let n = flat();
        let mut c = ClusteredNetlist::from_assignment(&n, &halves(&n));
        assert_eq!(c.shape(0), ClusterShape::UNIFORM);
        let s = ClusterShape::new(1.5, 0.8);
        c.set_shape(0, s);
        assert_eq!(c.shape(0), s);
        let (w, h) = c.dims(0);
        assert!((w * h - c.area(0) / 0.8).abs() < 1e-6);
        assert!((h / w - 1.5).abs() < 1e-9);
    }

    #[test]
    fn sparse_labels_are_densified() {
        let n = flat();
        let labels: Vec<u32> = (0..n.cell_count())
            .map(|i| if i % 3 == 0 { 10 } else { 77 })
            .collect();
        let c = ClusteredNetlist::from_assignment(&n, &labels);
        assert_eq!(c.cluster_count(), 2);
    }

    #[test]
    fn shapeable_threshold() {
        let n = flat();
        let c = ClusteredNetlist::from_assignment(&n, &halves(&n));
        assert_eq!(c.shapeable_clusters(0).len(), 2);
        assert_eq!(c.shapeable_clusters(n.cell_count()).len(), 0);
    }

    #[test]
    #[should_panic(expected = "assignment must cover every cell")]
    fn wrong_assignment_length_panics() {
        let n = flat();
        ClusteredNetlist::from_assignment(&n, &[0, 1]);
    }
}
