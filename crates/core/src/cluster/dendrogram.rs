//! Hierarchy-based clustering (Algorithm 2 of the paper).
//!
//! The logical hierarchy tree is read as a dendrogram; shallow leaves are
//! levelized by replication (a module at depth 2 still forms its own
//! cluster when the tree is cut at depth 5); every cut level is scored with
//! the weighted-average Rent exponent (Eq. 1) and the best cut is returned.
//! The resulting clusters become the *grouping constraints* of the
//! enhanced multilevel clustering, not the final clusters.

use crate::cluster::rent::weighted_average_rent;
use cp_graph::Hypergraph;
use cp_netlist::netlist::Netlist;

/// The outcome of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct DendrogramClustering {
    /// Cluster id per cell (dense).
    pub assignment: Vec<u32>,
    /// Number of clusters.
    pub cluster_count: usize,
    /// The chosen dendrogram level.
    pub level: u32,
    /// `R_avg` at the chosen level.
    pub rent: f64,
    /// `(level, R_avg)` for every evaluated level, in level order.
    pub candidates: Vec<(u32, f64)>,
}

/// Runs hierarchy-based clustering on a netlist.
///
/// The clustering at level `k` assigns each cell to its hierarchy
/// ancestor at depth `k` (or to its own module if that module is
/// shallower — the leaf-replication levelization of Algorithm 2 lines
/// 7–12). Levels `1..level_max` are evaluated with Eq. 1 and the argmin is
/// returned; designs whose hierarchy is a single level collapse to one
/// cluster per module.
///
/// # Examples
///
/// ```
/// use cp_core::cluster::dendrogram::cluster_by_hierarchy;
/// use cp_netlist::generator::{DesignProfile, GeneratorConfig};
///
/// let netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
///     .scale(0.05)
///     .generate();
/// let result = cluster_by_hierarchy(&netlist);
/// assert!(result.cluster_count > 1);
/// assert_eq!(result.assignment.len(), netlist.cell_count());
/// ```
pub fn cluster_by_hierarchy(netlist: &Netlist) -> DendrogramClustering {
    cluster_by_hierarchy_with_min(netlist, &netlist.to_hypergraph(), 0)
}

/// Like [`cluster_by_hierarchy`] on an existing hypergraph view, but
/// levels yielding fewer than `min_clusters` clusters are disqualified —
/// a cut coarser than the downstream coarsening target cannot guide it.
/// If every level is too coarse, the finest one wins.
pub fn cluster_by_hierarchy_with_min(
    netlist: &Netlist,
    hg: &Hypergraph,
    min_clusters: usize,
) -> DendrogramClustering {
    let tree = netlist.hierarchy();
    let level_max = tree.max_depth().max(1);
    let mut best: Option<DendrogramClustering> = None;
    let mut finest: Option<DendrogramClustering> = None;
    let mut candidates = Vec::new();
    for level in 1..=level_max.saturating_sub(1).max(1) {
        let mut assignment: Vec<u32> = netlist
            .cells()
            .iter()
            .map(|c| u32::from(tree.ancestor_at_depth(c.hier, level)))
            .collect();
        let k = cp_graph::community::compact_labels(&mut assignment);
        let rent = weighted_average_rent(hg, &assignment, k);
        candidates.push((level, rent));
        let entry = DendrogramClustering {
            assignment,
            cluster_count: k,
            level,
            rent,
            candidates: Vec::new(),
        };
        if finest.as_ref().is_none_or(|f| k > f.cluster_count) {
            finest = Some(entry.clone());
        }
        if k >= min_clusters && best.as_ref().is_none_or(|b| rent < b.rent) {
            best = Some(entry);
        }
    }
    // The loop above runs at least once, so `finest` is always set; the
    // degenerate arm only guards a netlist with no cells at all.
    let mut out = match best.or(finest) {
        Some(c) => c,
        None => DendrogramClustering {
            assignment: vec![0; netlist.cell_count()],
            cluster_count: usize::from(netlist.cell_count() > 0),
            level: 1,
            rent: 1.0,
            candidates: Vec::new(),
        },
    };
    out.candidates = candidates;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn netlist() -> Netlist {
        GeneratorConfig::from_profile(DesignProfile::Ariane)
            .scale(0.01)
            .seed(3)
            .generate()
    }

    #[test]
    fn picks_the_min_rent_level() {
        let n = netlist();
        let r = cluster_by_hierarchy(&n);
        for &(_, rent) in &r.candidates {
            assert!(r.rent <= rent + 1e-12);
        }
        assert!(r.candidates.iter().any(|&(l, _)| l == r.level));
    }

    #[test]
    fn assignment_is_dense_and_complete() {
        let n = netlist();
        let r = cluster_by_hierarchy(&n);
        assert_eq!(r.assignment.len(), n.cell_count());
        let max = r.assignment.iter().copied().max().unwrap() as usize;
        assert_eq!(max + 1, r.cluster_count);
    }

    #[test]
    fn clusters_respect_hierarchy() {
        // Cells in the same leaf module always share a cluster.
        let n = netlist();
        let r = cluster_by_hierarchy(&n);
        let mut by_module: std::collections::HashMap<_, u32> = std::collections::HashMap::new();
        for (cell, &label) in n.cells().iter().zip(&r.assignment) {
            let prev = by_module.insert(cell.hier, label);
            if let Some(p) = prev {
                assert_eq!(p, label, "module split across clusters");
            }
        }
    }

    #[test]
    fn beats_random_assignment_on_rent() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let n = netlist();
        let hg = n.to_hypergraph();
        let r = cluster_by_hierarchy(&n);
        let mut rng = StdRng::seed_from_u64(1);
        let random: Vec<u32> = (0..n.cell_count())
            .map(|_| rng.random_range(0..r.cluster_count as u32))
            .collect();
        let rent_rand = weighted_average_rent(&hg, &random, r.cluster_count);
        assert!(
            r.rent < rent_rand,
            "hierarchy {} vs random {rent_rand}",
            r.rent
        );
    }

    #[test]
    fn flat_hierarchy_collapses_gracefully() {
        use cp_netlist::{HierTree, Library, NetlistBuilder, PinRef, PortDir};
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("flat", lib);
        let a = b.add_port("a", PortDir::Input);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        let u1 = b.add_cell("u1", inv, HierTree::ROOT);
        b.add_net(
            "na",
            Some(PinRef::Port(a)),
            vec![PinRef::Cell { cell: u0, pin: 0 }],
        );
        b.add_net(
            "n1",
            Some(PinRef::Cell { cell: u0, pin: 0 }),
            vec![PinRef::Cell { cell: u1, pin: 0 }],
        );
        let n = b.finish().unwrap();
        let r = cluster_by_hierarchy(&n);
        assert_eq!(r.cluster_count, 1);
        assert_eq!(r.assignment, vec![0, 0]);
    }
}
