//! Clustering quality metrics.
//!
//! The paper's Section 2 argues that classic criteria — cutsize and
//! modularity — correlate poorly with PPA. This module computes those
//! classic criteria (plus balance and the Rent score) so the claim can be
//! examined directly: Table 5's PPA winner is not the cutsize/modularity
//! winner.

use crate::cluster::rent::weighted_average_rent;
use cp_graph::community::modularity;
use cp_graph::Hypergraph;

/// Classic quality metrics of a cluster assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringQuality {
    /// Number of clusters.
    pub cluster_count: usize,
    /// Hyperedges spanning more than one cluster (or touching a terminal).
    pub cutsize: usize,
    /// Sum over cut hyperedges of `(spanned clusters − 1)` (the K-1 metric).
    pub k_minus_one: usize,
    /// Newman modularity on the bounded clique expansion.
    pub modularity: f64,
    /// Largest cluster size over average cluster size.
    pub balance: f64,
    /// The paper's weighted-average Rent exponent (Eq. 1).
    pub rent: f64,
}

/// Computes quality metrics for an assignment over the first
/// `labels.len()` vertices of `hg` (trailing vertices are terminals).
///
/// # Panics
///
/// Panics if `labels` is empty.
pub fn clustering_quality(hg: &Hypergraph, labels: &[u32]) -> ClusteringQuality {
    assert!(!labels.is_empty(), "empty assignment");
    let cluster_count = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut cutsize = 0usize;
    let mut k_minus_one = 0usize;
    let mut spanned: Vec<u32> = Vec::new();
    for e in 0..hg.edge_count() as u32 {
        let verts = hg.edge(e);
        spanned.clear();
        let mut touches_terminal = false;
        for &v in verts {
            match labels.get(v as usize) {
                Some(&c) => spanned.push(c),
                None => touches_terminal = true,
            }
        }
        spanned.sort_unstable();
        spanned.dedup();
        if spanned.len() > 1 || (touches_terminal && !spanned.is_empty()) {
            cutsize += 1;
            k_minus_one += spanned.len().saturating_sub(1).max(1);
        }
    }
    // Modularity over the clique expansion restricted to clustered cells.
    let q = modularity(&hg.cell_graph(labels.len()), labels);
    let mut sizes = vec![0usize; cluster_count];
    for &l in labels {
        sizes[l as usize] += 1;
    }
    let max = sizes.iter().copied().max().unwrap_or(0) as f64;
    let avg = labels.len() as f64 / cluster_count as f64;
    ClusteringQuality {
        cluster_count,
        cutsize,
        k_minus_one,
        modularity: q,
        balance: max / avg.max(1e-12),
        rent: weighted_average_rent(hg, labels, cluster_count),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blocks() -> Hypergraph {
        let mut edges = Vec::new();
        for base in [0u32, 4u32] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((vec![base + i, base + j], 1.0));
                }
            }
        }
        edges.push((vec![3, 4], 1.0));
        Hypergraph::new(8, edges)
    }

    #[test]
    fn ideal_split_metrics() {
        let hg = two_blocks();
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let q = clustering_quality(&hg, &labels);
        assert_eq!(q.cluster_count, 2);
        assert_eq!(q.cutsize, 1); // only the bridge
        assert_eq!(q.k_minus_one, 1);
        assert!(q.modularity > 0.3);
        assert!((q.balance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interleaved_split_is_worse_everywhere() {
        let hg = two_blocks();
        let good = clustering_quality(&hg, &[0, 0, 0, 0, 1, 1, 1, 1]);
        let bad = clustering_quality(&hg, &[0, 1, 0, 1, 0, 1, 0, 1]);
        assert!(bad.cutsize > good.cutsize);
        assert!(bad.modularity < good.modularity);
        assert!(bad.rent > good.rent);
    }

    #[test]
    fn terminal_edges_count_as_cut() {
        // Vertex 2 is a terminal (not in labels).
        let hg = Hypergraph::new(3, vec![(vec![0, 1], 1.0), (vec![1, 2], 1.0)]);
        let q = clustering_quality(&hg, &[0, 0]);
        assert_eq!(q.cutsize, 1);
    }

    #[test]
    fn imbalance_is_reported() {
        let hg = Hypergraph::new(4, vec![(vec![0, 1], 1.0)]);
        let q = clustering_quality(&hg, &[0, 0, 0, 1]);
        // Sizes 3 and 1, average 2 ⇒ balance 1.5.
        assert!((q.balance - 1.5).abs() < 1e-12);
    }
}
