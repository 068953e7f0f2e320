//! Weighted hypergraphs and clique expansion.

use crate::Graph;

/// The largest net [`Hypergraph::cell_graph`] expands as a clique.
const CELL_GRAPH_CLIQUE_MAX: usize = 16;

/// A weighted hypergraph over vertices `0..n`.
///
/// Storage is arena-backed structure-of-arrays: hyperedge pin lists live
/// in one flat `edge_arena` indexed by `edge_ptr` (CSR layout), and the
/// vertex → hyperedge incidence lives in a second flat arena. Compared to
/// the earlier `Vec<Vec<u32>>` layout this removes one pointer chase and
/// one allocation per net, which matters when the flow walks millions of
/// nets per placement iteration. The accessor API returns slices, so the
/// layout is invisible to callers.
///
/// # Examples
///
/// ```
/// use cp_graph::Hypergraph;
///
/// let h = Hypergraph::new(4, vec![(vec![0, 1, 2], 1.0), (vec![2, 3], 2.0)]);
/// assert_eq!(h.vertex_count(), 4);
/// assert_eq!(h.edge_count(), 2);
/// assert_eq!(h.incident(2), &[0, 1]);
/// assert_eq!(h.pin_count(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hypergraph {
    vertex_count: usize,
    /// `edge_ptr[e]..edge_ptr[e+1]` bounds hyperedge `e`'s pins in
    /// `edge_arena`.
    edge_ptr: Vec<u32>,
    /// All pins, concatenated in hyperedge order (sorted within an edge).
    edge_arena: Vec<u32>,
    weights: Vec<f64>,
    /// `inc_ptr[v]..inc_ptr[v+1]` bounds vertex `v`'s incident hyperedges
    /// in `inc_arena`.
    inc_ptr: Vec<u32>,
    /// Incident hyperedge ids, concatenated in vertex order (ascending
    /// within a vertex).
    inc_arena: Vec<u32>,
}

impl Default for Hypergraph {
    fn default() -> Self {
        Self::new(0, Vec::new())
    }
}

impl Hypergraph {
    /// Builds a hypergraph from `(vertices, weight)` hyperedges.
    ///
    /// Hyperedges with fewer than one vertex are kept (degenerate but legal);
    /// duplicate vertices within a hyperedge are deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if any vertex index is `>= vertex_count`, or if the total
    /// pin count overflows the `u32` arena index space.
    pub fn new(vertex_count: usize, edges: Vec<(Vec<u32>, f64)>) -> Self {
        let mut edge_ptr = Vec::with_capacity(edges.len() + 1);
        edge_ptr.push(0u32);
        let mut edge_arena: Vec<u32> = Vec::new();
        let mut weights = Vec::with_capacity(edges.len());
        let mut degree = vec![0u32; vertex_count];
        for (mut verts, w) in edges {
            verts.sort_unstable();
            verts.dedup();
            for &v in &verts {
                assert!(
                    (v as usize) < vertex_count,
                    "vertex {v} out of range (n = {vertex_count})"
                );
                degree[v as usize] += 1;
            }
            edge_arena.extend_from_slice(&verts);
            assert!(
                edge_arena.len() < u32::MAX as usize,
                "pin count overflows the u32 arena index"
            );
            edge_ptr.push(edge_arena.len() as u32);
            weights.push(w);
        }
        // Incidence arena: prefix-sum the degrees, then scatter hyperedge
        // ids in edge order, which leaves each vertex's list ascending.
        let mut inc_ptr = Vec::with_capacity(vertex_count + 1);
        inc_ptr.push(0u32);
        let mut acc = 0u32;
        for &d in &degree {
            acc += d;
            inc_ptr.push(acc);
        }
        let mut cursor: Vec<u32> = inc_ptr[..vertex_count].to_vec();
        let mut inc_arena = vec![0u32; acc as usize];
        for e in 0..weights.len() {
            for i in edge_ptr[e]..edge_ptr[e + 1] {
                let v = edge_arena[i as usize] as usize;
                inc_arena[cursor[v] as usize] = e as u32;
                cursor[v] += 1;
            }
        }
        Self {
            vertex_count,
            edge_ptr,
            edge_arena,
            weights,
            inc_ptr,
            inc_arena,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of hyperedges.
    pub fn edge_count(&self) -> usize {
        self.weights.len()
    }

    /// Total number of pins (vertex–hyperedge incidences).
    pub fn pin_count(&self) -> usize {
        self.edge_arena.len()
    }

    /// The vertices of hyperedge `e`.
    pub fn edge(&self, e: u32) -> &[u32] {
        let e = e as usize;
        &self.edge_arena[self.edge_ptr[e] as usize..self.edge_ptr[e + 1] as usize]
    }

    /// The weight of hyperedge `e`.
    pub fn weight(&self, e: u32) -> f64 {
        self.weights[e as usize]
    }

    /// Hyperedges incident to vertex `v`.
    pub fn incident(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.inc_arena[self.inc_ptr[v] as usize..self.inc_ptr[v + 1] as usize]
    }

    /// Degree of vertex `v` (number of incident hyperedges).
    pub fn degree(&self, v: u32) -> usize {
        let v = v as usize;
        (self.inc_ptr[v + 1] - self.inc_ptr[v]) as usize
    }

    /// Clique expansion: every hyperedge `e` contributes a clique over its
    /// vertices with per-pair weight `w_e / (|e| - 1)` \[16\]. Cliques
    /// explode on high-fanout nets, so a net with more than
    /// `clique_threshold` vertices is expanded as a star around its first
    /// vertex (the driver, by netlist convention) at the same pair weight;
    /// `usize::MAX` gives the standard, unbounded expansion.
    ///
    /// Single-vertex hyperedges contribute nothing. Parallel clique edges
    /// are merged by weight summation.
    pub fn bounded_clique_expansion(&self, clique_threshold: usize) -> Graph {
        let mut g = Graph::new(self.vertex_count);
        for e in 0..self.edge_count() as u32 {
            let verts = self.edge(e);
            if verts.len() < 2 {
                continue;
            }
            let pair_w = self.weights[e as usize] / (verts.len() as f64 - 1.0);
            if verts.len() <= clique_threshold {
                for i in 0..verts.len() {
                    for j in (i + 1)..verts.len() {
                        g.add_edge(verts[i], verts[j], pair_w);
                    }
                }
            } else {
                let hub = verts[0];
                for &v in &verts[1..] {
                    g.add_edge(hub, v, pair_w);
                }
            }
        }
        g.merge_parallel_edges();
        g
    }

    /// The graph community detection and modularity run on: the
    /// hypergraph restricted to its first `cells` vertices (by netlist
    /// convention the cells, with the ports after them), hyperedges left
    /// with fewer than two of them dropped, expanded by
    /// [`Self::bounded_clique_expansion`] with nets of more than 16
    /// vertices as stars.
    pub fn cell_graph(&self, cells: usize) -> Graph {
        let keep: Vec<u32> = (0..cells as u32).collect();
        let (cells_only, _) = self.induce(&keep, 2);
        cells_only.bounded_clique_expansion(CELL_GRAPH_CLIQUE_MAX)
    }

    /// Restricts the hypergraph to `keep` vertices, renumbering them densely
    /// in the order given. Hyperedges are truncated to the kept vertices;
    /// edges left with fewer than `min_size` vertices are dropped.
    ///
    /// Returns the sub-hypergraph and, for each original hyperedge, the id
    /// it maps to (or `None` if dropped).
    pub fn induce(&self, keep: &[u32], min_size: usize) -> (Hypergraph, Vec<Option<u32>>) {
        let mut new_id = vec![u32::MAX; self.vertex_count];
        for (i, &v) in keep.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let mut edges = Vec::new();
        let mut edge_map = vec![None; self.edge_count()];
        for e in 0..self.edge_count() as u32 {
            let kept: Vec<u32> = self
                .edge(e)
                .iter()
                .filter_map(|&v| {
                    let nv = new_id[v as usize];
                    (nv != u32::MAX).then_some(nv)
                })
                .collect();
            if kept.len() >= min_size {
                edge_map[e as usize] = Some(edges.len() as u32);
                edges.push((kept, self.weights[e as usize]));
            }
        }
        (Hypergraph::new(keep.len(), edges), edge_map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        Hypergraph::new(
            5,
            vec![
                (vec![0, 1, 2], 1.0),
                (vec![2, 3], 2.0),
                (vec![3, 4], 1.0),
                (vec![4], 1.0),
            ],
        )
    }

    #[test]
    fn counts() {
        let h = sample();
        assert_eq!(h.vertex_count(), 5);
        assert_eq!(h.edge_count(), 4);
        assert_eq!(h.pin_count(), 8);
        assert_eq!(h.degree(2), 2);
        assert_eq!(h.degree(4), 2);
    }

    #[test]
    fn dedup_within_edge() {
        let h = Hypergraph::new(2, vec![(vec![0, 0, 1], 1.0)]);
        assert_eq!(h.edge(0), &[0, 1]);
    }

    #[test]
    fn incidence_lists_are_ascending() {
        let h = sample();
        for v in 0..h.vertex_count() as u32 {
            let inc = h.incident(v);
            assert!(inc.windows(2).all(|w| w[0] < w[1]), "vertex {v}: {inc:?}");
        }
        assert_eq!(h.incident(3), &[1, 2]);
    }

    #[test]
    fn default_is_empty() {
        let h = Hypergraph::default();
        assert_eq!(h.vertex_count(), 0);
        assert_eq!(h.edge_count(), 0);
        assert_eq!(h, Hypergraph::new(0, Vec::new()));
    }

    #[test]
    fn clique_expansion_weights() {
        let h = sample();
        let g = h.bounded_clique_expansion(usize::MAX);
        // Hyperedge {0,1,2} w=1 ⇒ pairs at 1/2 each.
        assert!((g.edge_weight(0, 1).unwrap() - 0.5).abs() < 1e-12);
        // Hyperedge {2,3} w=2 ⇒ pair at 2.
        assert!((g.edge_weight(2, 3).unwrap() - 2.0).abs() < 1e-12);
        // Singleton edge {4} contributes nothing.
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    fn bounded_expansion_stars_large_nets() {
        let big: Vec<u32> = (0..10).collect();
        let h = Hypergraph::new(10, vec![(big, 1.0)]);
        let g = h.bounded_clique_expansion(5);
        assert_eq!(g.degree(0), 9); // hub
        assert_eq!(g.degree(1), 1);
        let full = h.bounded_clique_expansion(usize::MAX);
        assert_eq!(full.degree(1), 9);
    }

    #[test]
    fn induce_renumbers_and_drops() {
        let h = sample();
        let (sub, emap) = h.induce(&[2, 3, 4], 2);
        assert_eq!(sub.vertex_count(), 3);
        // {0,1,2} truncated to {2}→ dropped at min_size 2.
        assert_eq!(emap[0], None);
        // {2,3} → {0,1}
        assert_eq!(emap[1], Some(0));
        assert_eq!(sub.edge(0), &[0, 1]);
        // {3,4} → {1,2}
        assert_eq!(sub.edge(emap[2].unwrap()), &[1, 2]);
        assert_eq!(emap[3], None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vertex_out_of_range_panics() {
        Hypergraph::new(1, vec![(vec![0, 1], 1.0)]);
    }
}
