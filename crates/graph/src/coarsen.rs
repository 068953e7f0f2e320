//! Multi-level graph coarsening (heavy-edge matching) and the
//! coarsen–uncoarsen wrapper for community detection.
//!
//! Louvain/Leiden cost grows with the node count per level; at 10⁵–10⁶
//! nodes the first local-moving pass dominates the whole clustering
//! stage. The standard remedy (hMETIS, TritonPart) is multi-level: shrink
//! the graph by deterministic heavy-edge matching until it fits a size
//! threshold, detect communities on the coarse graph, and project the
//! labels back through the matching hierarchy. Matching merges only
//! strongly-connected pairs, which is exactly the signal modularity
//! clustering follows, so quality loss is small while the detection cost
//! drops by the coarsening factor per level.

use crate::community;
use crate::Graph;

/// Hard cap on [`coarsen_to`]'s matching levels (a level that stops
/// shrinking also ends the loop).
const MAX_LEVELS: usize = 16;

/// One greedy heavy-edge matching pass. Returns a dense coarse id per
/// node and the coarse node count.
///
/// Nodes are visited in index order; an unmatched node pairs with its
/// heaviest unmatched neighbor (ties broken toward the smaller id).
/// Deterministic by construction — no RNG, no hashing.
pub fn heavy_edge_matching(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.node_count();
    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n];
    // Visit heaviest-edge-first (ties by id) so strong pairs claim each
    // other before a weakly-connected earlier node can steal an endpoint.
    let heaviest: Vec<f64> = (0..n as u32)
        .map(|u| {
            g.neighbors(u)
                .iter()
                .filter(|&&(v, _)| v != u)
                .map(|&(_, w)| w)
                .fold(0.0, f64::max)
        })
        .collect();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        heaviest[b as usize]
            .total_cmp(&heaviest[a as usize])
            .then(a.cmp(&b))
    });
    for u in order {
        if mate[u as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(f64, u32)> = None;
        for &(v, w) in g.neighbors(u) {
            if v == u || mate[v as usize] != UNMATCHED {
                continue;
            }
            match best {
                Some((bw, bv)) if w < bw || (w == bw && v >= bv) => {}
                _ => best = Some((w, v)),
            }
        }
        if let Some((_, v)) = best {
            mate[u as usize] = v;
            mate[v as usize] = u;
        }
    }
    // Coarse ids in first-appearance order: a matched pair shares the id
    // minted when its smaller endpoint is visited.
    let mut map = vec![UNMATCHED; n];
    let mut next = 0u32;
    for u in 0..n {
        if map[u] != UNMATCHED {
            continue;
        }
        map[u] = next;
        let v = mate[u];
        if v != UNMATCHED {
            map[v as usize] = next;
        }
        next += 1;
    }
    (map, next as usize)
}

/// Aggregates `g` by the node map `map` (into `k` coarse nodes), merging
/// parallel edges and keeping intra-group weight as self-loops — the same
/// contraction community aggregation uses, so modularity is preserved.
pub fn contract(g: &Graph, map: &[u32], k: usize) -> Graph {
    let mut coarse = Graph::new(k);
    for (u, v, w) in g.edges() {
        coarse.add_edge(map[u as usize], map[v as usize], w);
    }
    coarse.merge_parallel_edges();
    coarse
}

/// Coarsens `g` by repeated heavy-edge matching until it has at most
/// `threshold` nodes (or a level stops shrinking).
///
/// Returns the coarse graph, the composed original-node → coarse-node
/// map, and the number of matching levels applied (0 when `g` is already
/// small enough — the returned graph is then a clone of `g`).
pub fn coarsen_to(g: &Graph, threshold: usize) -> (Graph, Vec<u32>, usize) {
    let n = g.node_count();
    let mut composed: Vec<u32> = (0..n as u32).collect();
    let mut current = g.clone();
    let mut levels = 0usize;
    while current.node_count() > threshold && levels < MAX_LEVELS {
        let (map, k) = heavy_edge_matching(&current);
        if k == current.node_count() {
            break; // nothing matched; a further pass cannot shrink either
        }
        for id in composed.iter_mut() {
            *id = map[*id as usize];
        }
        current = contract(&current, &map, k);
        levels += 1;
    }
    (current, composed, levels)
}

/// Louvain (seeded with `seed`) through the multi-level wrapper: coarsen
/// to `threshold` nodes, detect on the coarse graph, project back.
///
/// Below the threshold this is exactly [`community::louvain`] (zero
/// levels, same labels bit for bit). Returns `(labels, modularity)` with
/// the modularity evaluated on the *original* graph.
pub fn louvain_multilevel(g: &Graph, seed: u64, threshold: usize) -> (Vec<u32>, f64) {
    project_communities(g, threshold, |coarse| community::louvain(coarse, seed))
}

/// Leiden through the multi-level wrapper (see [`louvain_multilevel`]).
pub fn leiden_multilevel(g: &Graph, seed: u64, threshold: usize) -> (Vec<u32>, f64) {
    project_communities(g, threshold, |coarse| community::leiden(coarse, seed))
}

/// The generic coarsen–detect–project wrapper: any community detector
/// that labels the coarse graph can run under it.
pub fn project_communities(
    g: &Graph,
    threshold: usize,
    detect: impl FnOnce(&Graph) -> (Vec<u32>, f64),
) -> (Vec<u32>, f64) {
    let _span = cp_trace::span_with(
        "graph.coarsen",
        &[("nodes", cp_trace::ArgValue::U(g.node_count() as u64))],
    );
    let (coarse, map, levels) = coarsen_to(g, threshold);
    if cp_trace::telemetry_enabled() {
        cp_trace::observe("graph.coarsen.levels", levels as f64);
    }
    if levels == 0 {
        return detect(g);
    }
    let (coarse_labels, _) = detect(&coarse);
    let mut labels: Vec<u32> = map.iter().map(|&id| coarse_labels[id as usize]).collect();
    community::compact_labels(&mut labels);
    let q = community::modularity(g, &labels);
    (labels, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques() -> Graph {
        Graph::from_edges(
            8,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (4, 5, 1.0),
                (4, 6, 1.0),
                (4, 7, 1.0),
                (5, 6, 1.0),
                (5, 7, 1.0),
                (6, 7, 1.0),
                (3, 4, 0.1),
            ],
        )
    }

    #[test]
    fn matching_halves_a_path() {
        // 0-1-2-3 path: 0 matches 1, 2 matches 3.
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let (map, k) = heavy_edge_matching(&g);
        assert_eq!(k, 2);
        assert_eq!(map, vec![0, 0, 1, 1]);
    }

    #[test]
    fn matching_prefers_heavy_edges() {
        // Triangle with one heavy edge: the heavy pair must match.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 5.0), (0, 2, 1.0)]);
        let (map, k) = heavy_edge_matching(&g);
        assert_eq!(k, 2);
        assert_eq!(map[1], map[2]);
        assert_ne!(map[0], map[1]);
    }

    #[test]
    fn contract_preserves_total_weight() {
        let g = two_cliques();
        let (map, k) = heavy_edge_matching(&g);
        let c = contract(&g, &map, k);
        assert!((c.total_weight() - g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn coarsen_to_respects_threshold() {
        let g = two_cliques();
        let (coarse, map, levels) = coarsen_to(&g, 3);
        assert!(coarse.node_count() <= 4, "{}", coarse.node_count());
        assert!(levels >= 1);
        assert_eq!(map.len(), 8);
        assert!(map.iter().all(|&m| (m as usize) < coarse.node_count()));
    }

    #[test]
    fn below_threshold_is_identity() {
        let g = two_cliques();
        let direct = community::louvain(&g, 1);
        let wrapped = louvain_multilevel(&g, 1, 100);
        assert_eq!(direct.0, wrapped.0);
        assert_eq!(direct.1.to_bits(), wrapped.1.to_bits());
    }

    #[test]
    fn multilevel_still_finds_the_cliques() {
        let g = two_cliques();
        for (labels, q) in [louvain_multilevel(&g, 1, 4), leiden_multilevel(&g, 1, 4)] {
            assert_eq!(labels[0], labels[3]);
            assert_eq!(labels[4], labels[7]);
            assert_ne!(labels[0], labels[4]);
            assert!(q > 0.3, "q = {q}");
        }
    }

    #[test]
    fn multilevel_is_deterministic() {
        let g = two_cliques();
        let a = louvain_multilevel(&g, 1, 2);
        let b = louvain_multilevel(&g, 1, 2);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }
}
