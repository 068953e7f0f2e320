//! Node centralities used as GNN cell-level features.
//!
//! The paper's cell-level feature set (Section 3.2) includes betweenness
//! centrality, closeness centrality, degree centrality and the average
//! neighborhood degree; all four are computed here on the (unweighted)
//! clique-expanded cluster graph.

use crate::traversal::{bfs_distances, UNREACHABLE};
use crate::Graph;
use std::collections::VecDeque;

/// Brandes' betweenness centrality on the unweighted graph.
///
/// Values are normalized by `(n-1)(n-2)/2` (undirected convention) so they
/// fall in `[0, 1]` for connected graphs. Returns zeros for `n < 3`.
///
/// # Examples
///
/// ```
/// use cp_graph::{Graph, centrality};
///
/// // Path a-b-c: b lies on the single a..c shortest path.
/// let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
/// let bc = centrality::betweenness(&g);
/// assert!(bc[1] > bc[0]);
/// assert_eq!(bc[0], 0.0);
/// ```
pub fn betweenness(g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    let mut centrality = vec![0.0; n];
    if n < 3 {
        return centrality;
    }
    let mut stack: Vec<u32> = Vec::with_capacity(n);
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![-1i64; n];
    let mut delta = vec![0.0f64; n];
    let mut queue = VecDeque::new();

    for s in 0..n as u32 {
        stack.clear();
        for p in preds.iter_mut() {
            p.clear();
        }
        sigma.fill(0.0);
        dist.fill(-1);
        delta.fill(0.0);
        sigma[s as usize] = 1.0;
        dist[s as usize] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            let dv = dist[v as usize];
            for &(w, _) in g.neighbors(v) {
                if w == v {
                    continue;
                }
                if dist[w as usize] < 0 {
                    dist[w as usize] = dv + 1;
                    queue.push_back(w);
                }
                if dist[w as usize] == dv + 1 {
                    sigma[w as usize] += sigma[v as usize];
                    preds[w as usize].push(v);
                }
            }
        }
        while let Some(w) = stack.pop() {
            for &v in &preds[w as usize] {
                delta[v as usize] +=
                    sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
            }
            if w != s {
                centrality[w as usize] += delta[w as usize];
            }
        }
    }
    // Each undirected pair was counted twice; normalize to [0, 1].
    let scale = 1.0 / ((n - 1) as f64 * (n - 2) as f64);
    for c in &mut centrality {
        *c *= scale;
    }
    centrality
}

/// Closeness centrality: `(reachable-1) / sum(dist)` scaled by the
/// reachable fraction (the Wasserman–Faust formula used by NetworkX).
///
/// Isolated nodes score 0.
pub fn closeness(g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    let mut out = vec![0.0; n];
    if n <= 1 {
        return out;
    }
    for u in 0..n as u32 {
        let dist = bfs_distances(g, u);
        let mut total = 0u64;
        let mut reachable = 0u64;
        for &d in &dist {
            if d != UNREACHABLE && d > 0 {
                total += d as u64;
                reachable += 1;
            }
        }
        if total > 0 {
            let frac = reachable as f64 / (n - 1) as f64;
            out[u as usize] = frac * reachable as f64 / total as f64;
        }
    }
    out
}

/// Degree centrality: `degree(u) / (n - 1)` (Freeman \[10\]).
pub fn degree_centrality(g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    if n <= 1 {
        return vec![0.0; n];
    }
    let scale = 1.0 / (n - 1) as f64;
    (0..n as u32).map(|u| g.degree(u) as f64 * scale).collect()
}

/// Average degree over each node's neighbors (0 for isolated nodes).
pub fn average_neighbor_degree(g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    (0..n as u32)
        .map(|u| {
            let neigh = g.neighbors(u);
            if neigh.is_empty() {
                0.0
            } else {
                neigh.iter().map(|&(v, _)| g.degree(v) as f64).sum::<f64>() / neigh.len() as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star5() -> Graph {
        Graph::from_edges(5, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)])
    }

    #[test]
    fn star_center_has_maximum_betweenness() {
        let bc = betweenness(&star5());
        assert!(
            (bc[0] - 1.0).abs() < 1e-12,
            "center of a star is on all pairs: {bc:?}"
        );
        for &leaf in &bc[1..] {
            assert_eq!(leaf, 0.0);
        }
    }

    #[test]
    fn path_betweenness_values() {
        // Path 0-1-2-3: node 1 covers pairs (0,2),(0,3); node 2 covers (0,3),(1,3).
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let bc = betweenness(&g);
        let norm = 2.0 / ((4.0 - 1.0) * (4.0 - 2.0));
        assert!((bc[1] - 2.0 * norm).abs() < 1e-12);
        assert!((bc[2] - 2.0 * norm).abs() < 1e-12);
    }

    #[test]
    fn closeness_star() {
        let c = closeness(&star5());
        assert!((c[0] - 1.0).abs() < 1e-12);
        // Leaves: distances 1 + 2+2+2 = 7, closeness 4/7.
        assert!((c[1] - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_disconnected_scaled() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0)]);
        let c = closeness(&g);
        // Node 0 reaches 1 node of 3 ⇒ (1/3) * 1/1.
        assert!((c[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c[2], 0.0);
    }

    #[test]
    fn degree_centrality_star() {
        let c = degree_centrality(&star5());
        assert!((c[0] - 1.0).abs() < 1e-12);
        assert!((c[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn average_neighbor_degree_star() {
        let d = average_neighbor_degree(&star5());
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn betweenness_small_graphs_are_zero() {
        assert_eq!(betweenness(&Graph::new(2)), vec![0.0, 0.0]);
    }
}
