//! Community detection: modularity, Louvain and Leiden.
//!
//! These serve as the clustering baselines of the paper: blob placement \[9\]
//! builds placement-relevant clusters with Louvain, and Table 5 compares the
//! PPA-aware clustering against Leiden.

use crate::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Node strength with self-loops counted twice (Newman's convention).
fn strength(g: &Graph, u: u32) -> f64 {
    g.weighted_degree(u) + g.edge_weight(u, u).unwrap_or(0.0)
}

/// Newman modularity of a labeling.
///
/// `Q = Σ_c [ Σ_in(c)/(2m) − (Σ_tot(c)/(2m))² ]` where `m` is the total
/// edge weight. Returns 0 for graphs without edges.
///
/// # Panics
///
/// Panics if `labels.len() != g.node_count()`.
pub fn modularity(g: &Graph, labels: &[u32]) -> f64 {
    assert_eq!(labels.len(), g.node_count(), "label count mismatch");
    let m = g.total_weight();
    if m <= 0.0 {
        return 0.0;
    }
    let k = labels.iter().copied().max().map_or(0, |x| x as usize + 1);
    let mut intra = vec![0.0f64; k];
    let mut tot = vec![0.0f64; k];
    for (u, v, w) in g.edges() {
        if labels[u as usize] == labels[v as usize] {
            intra[labels[u as usize] as usize] += w;
        }
    }
    for u in 0..g.node_count() as u32 {
        tot[labels[u as usize] as usize] += strength(g, u);
    }
    let two_m = 2.0 * m;
    intra
        .iter()
        .zip(&tot)
        .map(|(&i, &t)| i / m - (t / two_m) * (t / two_m))
        .sum()
}

/// Renumbers labels densely to `0..k`, preserving first-appearance order.
///
/// The remap table is a dense `Vec` indexed by the old label (sized to
/// the maximum label present), not a hash map: the clustering path calls
/// this once per coarsening pass over million-entry label arrays, where
/// hashing costs real time and — more importantly — any map whose
/// iteration order leaked into the result would be a determinism hazard.
/// The dense table has no iteration order at all; assignment order is
/// exactly first-appearance order in `labels`.
pub fn compact_labels(labels: &mut [u32]) -> usize {
    let max = match labels.iter().copied().max() {
        Some(m) => m as usize,
        None => return 0,
    };
    const UNASSIGNED: u32 = u32::MAX;
    let mut remap = vec![UNASSIGNED; max + 1];
    let mut next = 0u32;
    for l in labels.iter_mut() {
        let slot = &mut remap[*l as usize];
        if *slot == UNASSIGNED {
            *slot = next;
            next += 1;
        }
        *l = *slot;
    }
    next as usize
}

/// Options shared by [`louvain`] and [`leiden`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityOptions {
    /// Resolution parameter γ (1.0 = classic modularity).
    pub resolution: f64,
    /// RNG seed for the node-visit order.
    pub seed: u64,
    /// Maximum number of aggregation levels.
    pub max_levels: usize,
    /// Minimum modularity gain to accept a move.
    pub min_gain: f64,
}

impl Default for CommunityOptions {
    fn default() -> Self {
        Self {
            resolution: 1.0,
            seed: 1,
            max_levels: 32,
            min_gain: 1e-9,
        }
    }
}

/// One pass of greedy local moving. Returns `true` if any node moved.
fn local_move(g: &Graph, labels: &mut [u32], opts: &CommunityOptions, rng: &mut StdRng) -> bool {
    let n = g.node_count();
    let m = g.total_weight();
    if m <= 0.0 || n == 0 {
        return false;
    }
    let two_m = 2.0 * m;
    let mut tot = vec![0.0f64; n];
    for u in 0..n as u32 {
        tot[labels[u as usize] as usize] += strength(g, u);
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut neighbor_weight: Vec<f64> = vec![0.0; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut moved_any = false;
    let mut improved = true;
    while improved {
        improved = false;
        for &u in &order {
            let cu = labels[u as usize];
            let ku = strength(g, u);
            // Weights from u to each neighboring community.
            for &(v, w) in g.neighbors(u) {
                if v == u {
                    continue;
                }
                let cv = labels[v as usize];
                if neighbor_weight[cv as usize] == 0.0 {
                    touched.push(cv);
                }
                neighbor_weight[cv as usize] += w;
            }
            // Gain of staying vs moving; remove u from its community first.
            tot[cu as usize] -= ku;
            let base =
                neighbor_weight[cu as usize] - opts.resolution * tot[cu as usize] * ku / two_m;
            let mut best_comm = cu;
            let mut best_gain = base;
            for &c in &touched {
                if c == cu {
                    continue;
                }
                let gain =
                    neighbor_weight[c as usize] - opts.resolution * tot[c as usize] * ku / two_m;
                if gain > best_gain + opts.min_gain {
                    best_gain = gain;
                    best_comm = c;
                }
            }
            tot[best_comm as usize] += ku;
            if best_comm != cu {
                labels[u as usize] = best_comm;
                improved = true;
                moved_any = true;
            }
            for &c in &touched {
                neighbor_weight[c as usize] = 0.0;
            }
            touched.clear();
        }
    }
    moved_any
}

/// Builds the aggregated graph whose nodes are the communities of `labels`.
fn aggregate(g: &Graph, labels: &[u32], k: usize) -> Graph {
    let mut agg = Graph::new(k);
    for (u, v, w) in g.edges() {
        let (cu, cv) = (labels[u as usize], labels[v as usize]);
        agg.add_edge(cu, cv, w);
    }
    agg.merge_parallel_edges();
    agg
}

/// Louvain community detection [Blondel et al. 2008].
///
/// Returns `(labels, modularity)` with labels densified to `0..k`.
///
/// # Examples
///
/// ```
/// use cp_graph::{Graph, community};
///
/// // Two cliques joined by one edge split into two communities.
/// let g = Graph::from_edges(6, &[
///     (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
///     (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
///     (2, 3, 1.0),
/// ]);
/// let (labels, q) = community::louvain(&g, &community::CommunityOptions::default());
/// assert_eq!(labels[0], labels[1]);
/// assert_eq!(labels[3], labels[5]);
/// assert_ne!(labels[0], labels[3]);
/// assert!(q > 0.3);
/// ```
pub fn louvain(g: &Graph, opts: &CommunityOptions) -> (Vec<u32>, f64) {
    let _span = cp_trace::span_with(
        "graph.louvain",
        &[("nodes", cp_trace::ArgValue::U(g.node_count() as u64))],
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n = g.node_count();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut level_graph = g.clone();
    let mut level_labels: Vec<u32> = (0..n as u32).collect();
    for _ in 0..opts.max_levels {
        let moved = local_move(&level_graph, &mut level_labels, opts, &mut rng);
        let k = compact_labels(&mut level_labels);
        // Project the level labels down to original nodes.
        for l in labels.iter_mut() {
            *l = level_labels[*l as usize];
        }
        if !moved || k == level_graph.node_count() {
            break;
        }
        level_graph = aggregate(&level_graph, &level_labels, k);
        level_labels = (0..k as u32).collect();
    }
    compact_labels(&mut labels);
    let q = modularity(g, &labels);
    (labels, q)
}

/// Refinement phase of Leiden: split each community into well-connected
/// sub-communities by greedy merging of singletons (within communities).
fn refine(g: &Graph, labels: &[u32], opts: &CommunityOptions, rng: &mut StdRng) -> Vec<u32> {
    let n = g.node_count();
    let m = g.total_weight();
    let two_m = 2.0 * m;
    // Each node starts as its own refined community.
    let mut refined: Vec<u32> = (0..n as u32).collect();
    let mut ref_tot: Vec<f64> = (0..n as u32).map(|u| strength(g, u)).collect();
    let mut ref_size = vec![1u32; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut neighbor_weight = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    for &u in &order {
        // Only singleton refined communities may move (Leiden rule).
        if ref_size[refined[u as usize] as usize] != 1 {
            continue;
        }
        let cu = labels[u as usize];
        let ku = strength(g, u);
        for &(v, w) in g.neighbors(u) {
            if v == u || labels[v as usize] != cu {
                continue;
            }
            let rc = refined[v as usize];
            if neighbor_weight[rc as usize] == 0.0 {
                touched.push(rc);
            }
            neighbor_weight[rc as usize] += w;
        }
        let ru = refined[u as usize];
        let mut best = ru;
        let mut best_gain = 0.0;
        for &rc in &touched {
            if rc == ru {
                continue;
            }
            let gain =
                neighbor_weight[rc as usize] - opts.resolution * ref_tot[rc as usize] * ku / two_m;
            if gain > best_gain + opts.min_gain {
                best_gain = gain;
                best = rc;
            }
        }
        if best != ru {
            ref_tot[ru as usize] -= ku;
            ref_size[ru as usize] -= 1;
            ref_tot[best as usize] += ku;
            ref_size[best as usize] += 1;
            refined[u as usize] = best;
        }
        for &rc in &touched {
            neighbor_weight[rc as usize] = 0.0;
        }
        touched.clear();
    }
    refined
}

/// Leiden community detection [Traag et al. 2019].
///
/// Like Louvain but with a refinement phase that keeps communities
/// well-connected; aggregation happens on the *refined* partition while the
/// local-moving partition seeds the next level.
///
/// Returns `(labels, modularity)` with labels densified to `0..k`.
pub fn leiden(g: &Graph, opts: &CommunityOptions) -> (Vec<u32>, f64) {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n = g.node_count();
    // node_of[orig] = the current-level node that contains `orig`.
    let mut node_of: Vec<u32> = (0..n as u32).collect();
    let mut level_graph = g.clone();
    let mut level_labels: Vec<u32> = (0..n as u32).collect();
    for _ in 0..opts.max_levels {
        let moved = local_move(&level_graph, &mut level_labels, opts, &mut rng);
        compact_labels(&mut level_labels);
        let mut refined = refine(&level_graph, &level_labels, opts, &mut rng);
        let rk = compact_labels(&mut refined);
        if !moved || rk == level_graph.node_count() {
            break;
        }
        // Each refined community becomes one node of the next level; its
        // initial community is the coarse community it sits inside.
        let mut coarse_of_refined = vec![0u32; rk];
        for u in 0..level_graph.node_count() {
            coarse_of_refined[refined[u] as usize] = level_labels[u];
        }
        for id in node_of.iter_mut() {
            *id = refined[*id as usize];
        }
        level_graph = aggregate(&level_graph, &refined, rk);
        level_labels = coarse_of_refined;
    }
    let mut labels: Vec<u32> = node_of
        .iter()
        .map(|&id| level_labels[id as usize])
        .collect();
    compact_labels(&mut labels);
    let q = modularity(g, &labels);
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
                (3, 4, 1.0),
            ],
        )
    }

    #[test]
    fn modularity_of_singletons_is_negative_or_zero() {
        let g = two_cliques();
        let labels: Vec<u32> = (0..8).collect();
        assert!(modularity(&g, &labels) <= 0.0);
    }

    #[test]
    fn modularity_of_ideal_split() {
        let g = two_cliques();
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let q = modularity(&g, &labels);
        assert!(q > 0.3, "q = {q}");
    }

    #[test]
    fn louvain_finds_two_cliques() {
        let g = two_cliques();
        let (labels, q) = louvain(&g, &CommunityOptions::default());
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[4], labels[7]);
        assert_ne!(labels[0], labels[4]);
        assert!(q > 0.3);
    }

    #[test]
    fn leiden_finds_two_cliques() {
        let g = two_cliques();
        let (labels, q) = leiden(&g, &CommunityOptions::default());
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[4], labels[7]);
        assert_ne!(labels[0], labels[4]);
        assert!(q > 0.3);
    }

    #[test]
    fn louvain_is_deterministic_per_seed() {
        let g = two_cliques();
        let a = louvain(&g, &CommunityOptions::default());
        let b = louvain(&g, &CommunityOptions::default());
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn compact_labels_densifies() {
        let mut l = vec![7, 7, 3, 9, 3];
        let k = compact_labels(&mut l);
        assert_eq!(k, 3);
        assert_eq!(l, vec![0, 0, 1, 2, 1]);
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = Graph::new(0);
        let (labels, q) = louvain(&g, &CommunityOptions::default());
        assert!(labels.is_empty());
        assert_eq!(q, 0.0);
    }

    #[test]
    fn resolution_controls_granularity() {
        let g = two_cliques();
        let coarse = louvain(
            &g,
            &CommunityOptions {
                resolution: 0.1,
                ..Default::default()
            },
        );
        let fine = louvain(
            &g,
            &CommunityOptions {
                resolution: 4.0,
                ..Default::default()
            },
        );
        let k_coarse = coarse.0.iter().max().map_or(0, |&x| x + 1);
        let k_fine = fine.0.iter().max().map_or(0, |&x| x + 1);
        assert!(k_coarse <= k_fine, "{k_coarse} vs {k_fine}");
    }
}
