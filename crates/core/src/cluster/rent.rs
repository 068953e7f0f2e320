//! The weighted-average Rent exponent (Eq. 1 of the paper), the score the
//! hierarchy-driven clustering ranks dendrogram levels by.
//!
//! For a cluster `c`: `R_c = ln(E(c) / (Int(c) + Ext(c))) / ln(|c|) + 1`,
//! where `E(c)` counts external hyperedges, `Ext(c)` pins of `c` on
//! external hyperedges and `Int(c)` pins on internal hyperedges. Lower is
//! better. The clustering score is the cluster-size-weighted average.

use cp_graph::Hypergraph;

/// Per-cluster Rent statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RentStats {
    /// External hyperedges `E(c)`.
    pub external_edges: usize,
    /// Pins on external hyperedges `Ext(c)`.
    pub external_pins: usize,
    /// Pins on internal hyperedges `Int(c)`.
    pub internal_pins: usize,
    /// Cluster size `|c|`.
    pub size: usize,
    /// The Rent exponent `R_c`.
    pub exponent: f64,
}

/// Computes per-cluster Rent statistics for an assignment over the first
/// `labels.len()` vertices of `hg` (trailing vertices — fixed terminals —
/// count as "outside every cluster").
///
/// Degenerate clusters (size ≤ 1, or no pins) get the neutral exponent 1;
/// fully internal clusters (no external edges) are scored with a floor of
/// half an edge so the logarithm stays finite.
///
/// # Panics
///
/// Panics if `labels.len() > hg.vertex_count()`.
pub fn rent_stats(hg: &Hypergraph, labels: &[u32], cluster_count: usize) -> Vec<RentStats> {
    assert!(
        labels.len() <= hg.vertex_count(),
        "labels exceed vertex count"
    );
    let label_of = |v: u32| -> Option<u32> { labels.get(v as usize).copied() };
    let mut size = vec![0usize; cluster_count];
    for &l in labels {
        size[l as usize] += 1;
    }
    let mut ext_edges = vec![0usize; cluster_count];
    let mut ext_pins = vec![0usize; cluster_count];
    let mut int_pins = vec![0usize; cluster_count];
    let mut touched: Vec<(u32, u32)> = Vec::new(); // (cluster, pins in edge)
    for e in 0..hg.edge_count() as u32 {
        let verts = hg.edge(e);
        touched.clear();
        let mut outside = false;
        for &v in verts {
            match label_of(v) {
                Some(c) => match touched.iter_mut().find(|(tc, _)| *tc == c) {
                    Some((_, k)) => *k += 1,
                    None => touched.push((c, 1)),
                },
                None => outside = true,
            }
        }
        let external_for_all = outside || touched.len() > 1;
        for &(c, k) in &touched {
            if external_for_all {
                ext_edges[c as usize] += 1;
                ext_pins[c as usize] += k as usize;
            } else {
                int_pins[c as usize] += k as usize;
            }
        }
    }
    (0..cluster_count)
        .map(|c| {
            let total_pins = ext_pins[c] + int_pins[c];
            let exponent = if size[c] <= 1 || total_pins == 0 {
                1.0
            } else {
                let e = if ext_edges[c] == 0 {
                    0.5
                } else {
                    ext_edges[c] as f64
                };
                (e / total_pins as f64).ln() / (size[c] as f64).ln() + 1.0
            };
            RentStats {
                external_edges: ext_edges[c],
                external_pins: ext_pins[c],
                internal_pins: int_pins[c],
                size: size[c],
                exponent,
            }
        })
        .collect()
}

/// The weighted average `R_avg = Σ R_c · |c| / |V|` (Eq. 1).
pub fn weighted_average_rent(hg: &Hypergraph, labels: &[u32], cluster_count: usize) -> f64 {
    if labels.is_empty() {
        return 1.0;
    }
    let stats = rent_stats(hg, labels, cluster_count);
    let total: usize = stats.iter().map(|s| s.size).sum();
    stats
        .iter()
        .map(|s| s.exponent * s.size as f64)
        .sum::<f64>()
        / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two dense 4-cliques joined by one edge (as hyperedges of size 2).
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
    fn good_clustering_scores_lower() {
        let hg = two_blocks();
        let good = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let bad = vec![0, 1, 0, 1, 0, 1, 0, 1]; // interleaved
        let r_good = weighted_average_rent(&hg, &good, 2);
        let r_bad = weighted_average_rent(&hg, &bad, 2);
        assert!(r_good < r_bad, "good {r_good} should beat bad {r_bad}");
    }

    #[test]
    fn stats_are_consistent() {
        let hg = two_blocks();
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let stats = rent_stats(&hg, &labels, 2);
        // Each block: 6 internal edges (12 internal pins), 1 external edge
        // with 1 pin inside.
        for s in &stats {
            assert_eq!(s.size, 4);
            assert_eq!(s.external_edges, 1);
            assert_eq!(s.external_pins, 1);
            assert_eq!(s.internal_pins, 12);
        }
    }

    #[test]
    fn fixed_terminals_count_as_outside() {
        // Vertex 2 is beyond the labels (a port): edge {0, 2} is external.
        let hg = Hypergraph::new(3, vec![(vec![0, 1], 1.0), (vec![0, 2], 1.0)]);
        let labels = vec![0, 0];
        let s = rent_stats(&hg, &labels, 1);
        assert_eq!(s[0].external_edges, 1);
        assert_eq!(s[0].internal_pins, 2);
        assert_eq!(s[0].external_pins, 1);
    }

    #[test]
    fn singletons_are_neutral() {
        let hg = Hypergraph::new(2, vec![(vec![0, 1], 1.0)]);
        let labels = vec![0, 1];
        let stats = rent_stats(&hg, &labels, 2);
        assert!(stats.iter().all(|s| s.exponent == 1.0));
    }

    #[test]
    fn empty_labels_score_one() {
        let hg = Hypergraph::new(0, vec![]);
        assert_eq!(weighted_average_rent(&hg, &[], 0), 1.0);
    }
}
