//! Whole-graph metrics used as GNN cluster-level features.
//!
//! The paper's cluster-level feature set (Section 3.2) includes the average
//! clustering coefficient, density, diameter, radius, edge connectivity,
//! number of colors used by greedy coloring, and average global efficiency.

use crate::traversal::{bfs_distances, UNREACHABLE};
use crate::Graph;

/// Local clustering coefficient of every node.
///
/// `C(u) = 2 · triangles(u) / (deg(u) · (deg(u) - 1))`, 0 when `deg(u) < 2`.
/// Self-loops are ignored.
pub fn clustering_coefficients(g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    let mut out = vec![0.0; n];
    for u in 0..n as u32 {
        let neigh: Vec<u32> = g
            .neighbors(u)
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| v != u)
            .collect();
        let k = neigh.len();
        if k < 2 {
            continue;
        }
        let mut triangles = 0usize;
        for i in 0..k {
            for j in (i + 1)..k {
                if g.has_edge(neigh[i], neigh[j]) {
                    triangles += 1;
                }
            }
        }
        out[u as usize] = 2.0 * triangles as f64 / (k * (k - 1)) as f64;
    }
    out
}

/// Graph density `2m / (n(n-1))`, self-loops excluded; 0 for `n < 2`.
pub fn density(g: &Graph) -> f64 {
    let n = g.node_count();
    if n < 2 {
        return 0.0;
    }
    let m = g.edges().filter(|&(u, v, _)| u != v).count();
    2.0 * m as f64 / (n * (n - 1)) as f64
}

/// Hop eccentricity of every node (`u32::MAX` on disconnected graphs is
/// clamped to the largest finite distance within the node's component).
pub fn eccentricities(g: &Graph) -> Vec<u32> {
    let n = g.node_count();
    let mut out = vec![0u32; n];
    for u in 0..n as u32 {
        let dist = bfs_distances(g, u);
        out[u as usize] = dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0);
    }
    out
}

/// Average global efficiency: mean of `1/d(u,v)` over all ordered pairs,
/// with `1/∞ = 0` for disconnected pairs. 0 for `n < 2`.
pub fn global_efficiency(g: &Graph) -> f64 {
    let n = g.node_count();
    if n < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    for u in 0..n as u32 {
        let dist = bfs_distances(g, u);
        for (v, &d) in dist.iter().enumerate() {
            if v as u32 != u && d != UNREACHABLE && d > 0 {
                sum += 1.0 / d as f64;
            }
        }
    }
    sum / (n * (n - 1)) as f64
}

/// Greedy (first-fit, descending-degree order) vertex coloring.
///
/// Returns `(colors, color_count)` — the assignment and the number of
/// colors used. Self-loops are ignored.
pub fn greedy_coloring(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.node_count();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(g.degree(u)));
    let mut colors = vec![u32::MAX; n];
    let mut max_color = 0u32;
    let mut used = vec![false; n + 1];
    for &u in &order {
        for &(v, _) in g.neighbors(u) {
            let c = colors[v as usize];
            if c != u32::MAX {
                used[c as usize] = true;
            }
        }
        let mut c = 0u32;
        while used[c as usize] {
            c += 1;
        }
        colors[u as usize] = c;
        max_color = max_color.max(c);
        for &(v, _) in g.neighbors(u) {
            let cv = colors[v as usize];
            if cv != u32::MAX {
                used[cv as usize] = false;
            }
        }
    }
    let count = if n == 0 { 0 } else { max_color as usize + 1 };
    (colors, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    }

    #[test]
    fn triangle_clusters_perfectly() {
        let c = clustering_coefficients(&triangle());
        assert_eq!(c, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(clustering_coefficients(&g), vec![0.0; 3]);
    }

    #[test]
    fn density_of_complete_graph_is_one() {
        assert!((density(&triangle()) - 1.0).abs() < 1e-12);
        let g = Graph::from_edges(4, &[(0, 1, 1.0)]);
        assert!((density(&g) - 1.0 / 6.0).abs() < 1e-12);
    }

    /// Diameter and radius, as the GNN cluster features take them: the
    /// largest and smallest eccentricity.
    #[test]
    fn eccentricities_of_path() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        assert_eq!(eccentricities(&g), vec![3, 2, 2, 3]);
    }

    #[test]
    fn efficiency_of_complete_graph_is_one() {
        assert!((global_efficiency(&triangle()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_of_disconnected_pairs_is_zero() {
        assert_eq!(global_efficiency(&Graph::new(3)), 0.0);
    }

    #[test]
    fn coloring_is_proper_and_small() {
        let g = triangle();
        let (colors, k) = greedy_coloring(&g);
        assert_eq!(k, 3);
        for (u, v, _) in g.edges() {
            assert_ne!(colors[u as usize], colors[v as usize]);
        }
        // A bipartite path needs two colors.
        let p = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let (pc, pk) = greedy_coloring(&p);
        assert_eq!(pk, 2);
        for (u, v, _) in p.edges() {
            assert_ne!(pc[u as usize], pc[v as usize]);
        }
    }

    #[test]
    fn empty_graph_metrics() {
        let g = Graph::new(0);
        assert!(clustering_coefficients(&g).is_empty());
        assert_eq!(density(&g), 0.0);
        assert!(eccentricities(&g).is_empty());
        assert_eq!(greedy_coloring(&g).1, 0);
    }
}
