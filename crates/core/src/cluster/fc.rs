//! Enhanced multilevel First-Choice coarsening.
//!
//! The open-source FC coarsening of TritonPart \[29\], extended per the
//! paper: hierarchy-based grouping constraints seed the initial clusters,
//! and the heavy-edge rating (Eq. 3) folds in the timing cost `t_e` and
//! switching cost `s_e`:
//!
//! `r(u, v) = Σ_{e ∈ I(u) ∩ I(v)} (α·w_e + β·t_e + γ·s_e) / (|e| − 1)`.
//!
//! Singleton clusters are deliberately left unmerged (paper footnote 2).

use crate::cluster::costs::EdgeCosts;
use cp_graph::Hypergraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Nets larger than this are ignored by the rating (standard FC practice;
/// giant nets carry no locality signal).
const MAX_RATED_EDGE: usize = 64;

/// Maximum coarsening passes.
const MAX_PASSES: usize = 24;

/// Coarsening options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FcOptions {
    /// Connectivity scale α (Eq. 3).
    pub alpha: f64,
    /// Timing scale β.
    pub beta: f64,
    /// Switching scale γ.
    pub gamma: f64,
    /// Stop once the cluster count reaches this.
    pub target_clusters: usize,
    /// Hard cap on cells per cluster.
    pub max_cluster_size: usize,
    /// Visit-order seed.
    pub seed: u64,
}

impl Default for FcOptions {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0,
            target_clusters: 64,
            max_cluster_size: usize::MAX,
            seed: 11,
        }
    }
}

/// Runs enhanced multilevel FC on the first `n_cells` vertices of `hg`
/// (trailing vertices are fixed terminals and never cluster).
///
/// `groups`, when given, are the hierarchy grouping constraints: initial
/// clusters are the groups (split if they exceed the size cap) instead of
/// singletons.
///
/// Returns a dense cluster assignment per cell.
///
/// # Panics
///
/// Panics if `groups` is given with the wrong length.
pub fn multilevel_fc(
    hg: &Hypergraph,
    n_cells: usize,
    costs: &EdgeCosts,
    groups: Option<&[u32]>,
    opts: &FcOptions,
) -> Vec<u32> {
    let mut assignment: Vec<u32> = match groups {
        Some(g) => {
            assert_eq!(g.len(), n_cells, "one group per cell");
            split_oversized(g, opts.max_cluster_size)
        }
        None => (0..n_cells as u32).collect(),
    };
    let mut count = cp_graph::community::compact_labels(&mut assignment);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    for _ in 0..MAX_PASSES {
        if count <= opts.target_clusters {
            break;
        }
        let merges = fc_pass(hg, n_cells, costs, &mut assignment, count, opts, &mut rng);
        let new_count = cp_graph::community::compact_labels(&mut assignment);
        if merges == 0 || new_count == count {
            break;
        }
        count = new_count;
    }
    assignment
}

/// Splits any group above `cap` into chunks (by member order).
fn split_oversized(groups: &[u32], cap: usize) -> Vec<u32> {
    if cap == usize::MAX {
        return groups.to_vec();
    }
    let k = groups.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut seen = vec![0usize; k];
    let mut next = k as u32;
    let mut sub = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(groups.len());
    for &g in groups {
        let i = seen[g as usize];
        seen[g as usize] += 1;
        let chunk = i / cap;
        if chunk == 0 {
            out.push(g);
        } else {
            let id = *sub.entry((g, chunk)).or_insert_with(|| {
                let v = next;
                next += 1;
                v
            });
            out.push(id);
        }
    }
    out
}

/// One FC pass: greedy best-neighbor merging, limited by the size cap and
/// the remaining budget down to `target_clusters`. Returns merges done.
#[allow(clippy::too_many_arguments)]
fn fc_pass(
    hg: &Hypergraph,
    n_cells: usize,
    costs: &EdgeCosts,
    assignment: &mut [u32],
    count: usize,
    opts: &FcOptions,
    rng: &mut StdRng,
) -> usize {
    // Union-find over cluster ids for chained merges within the pass.
    let mut parent: Vec<u32> = (0..count as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut size = vec![0usize; count];
    for &a in assignment.iter() {
        size[a as usize] += 1;
    }
    // Pairwise ratings from the hyperedges (cluster-level projection).
    let mut pair_score: std::collections::HashMap<(u32, u32), f64> =
        std::collections::HashMap::new();
    let mut members: Vec<u32> = Vec::new();
    for e in 0..hg.edge_count() as u32 {
        let verts = hg.edge(e);
        if verts.len() < 2 || verts.len() > MAX_RATED_EDGE {
            continue;
        }
        members.clear();
        for &v in verts {
            if (v as usize) < n_cells {
                members.push(assignment[v as usize]);
            }
        }
        members.sort_unstable();
        members.dedup();
        if members.len() < 2 {
            continue;
        }
        let score = costs.combined(e as usize, opts.alpha, opts.beta, opts.gamma)
            / (verts.len() as f64 - 1.0);
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                *pair_score.entry((members[i], members[j])).or_insert(0.0) += score;
            }
        }
    }
    // Neighbor lists.
    let mut neighbors: Vec<Vec<(u32, f64)>> = vec![Vec::new(); count];
    for (&(a, b), &s) in &pair_score {
        neighbors[a as usize].push((b, s));
        neighbors[b as usize].push((a, s));
    }
    // FC visit: highest best-neighbor rating first so a budget-limited pass
    // (remaining close to target) spends its merges on the most critical
    // pairs; the shuffle randomizes only ties, which keeps uniform regions
    // seed-dependent without letting the seed pick over a critical edge.
    let mut order: Vec<u32> = (0..count as u32).collect();
    order.shuffle(rng);
    let best_rating: Vec<f64> = neighbors
        .iter()
        .map(|ns| ns.iter().map(|&(_, s)| s).fold(0.0, f64::max))
        .collect();
    order.sort_by(|&a, &b| best_rating[b as usize].total_cmp(&best_rating[a as usize]));
    let mut merges = 0usize;
    let mut remaining = count;
    for &u in &order {
        if remaining <= opts.target_clusters {
            break;
        }
        let ru = find(&mut parent, u);
        if ru != u {
            continue; // already absorbed this pass
        }
        // Deterministic best neighbor: highest rating, ties by id.
        let mut best: Option<(f64, u32)> = None;
        for &(v, s) in &neighbors[u as usize] {
            let rv = find(&mut parent, v);
            if rv == ru {
                continue;
            }
            if size[ru as usize] + size[rv as usize] > opts.max_cluster_size {
                continue;
            }
            match best {
                Some((bs, bv)) if s < bs || (s == bs && rv >= bv) => {}
                _ => best = Some((s, rv)),
            }
        }
        if let Some((_, rv)) = best {
            parent[ru as usize] = rv;
            size[rv as usize] += size[ru as usize];
            merges += 1;
            remaining -= 1;
        }
    }
    for a in assignment.iter_mut() {
        *a = find(&mut parent, *a);
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by a weak bridge.
    fn blocks() -> (Hypergraph, EdgeCosts) {
        let mut edges = Vec::new();
        for base in [0u32, 4u32] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((vec![base + i, base + j], 1.0));
                }
            }
        }
        edges.push((vec![3, 4], 1.0));
        let hg = Hypergraph::new(8, edges);
        let costs = EdgeCosts::uniform(hg.edge_count());
        (hg, costs)
    }

    #[test]
    fn coarsens_to_target() {
        let (hg, costs) = blocks();
        let a = multilevel_fc(
            &hg,
            8,
            &costs,
            None,
            &FcOptions {
                target_clusters: 2,
                ..Default::default()
            },
        );
        let k = a.iter().copied().max().unwrap() + 1;
        assert_eq!(k, 2);
        // The blocks should not be interleaved.
        assert_eq!(a[0], a[1]);
        assert_eq!(a[4], a[5]);
    }

    #[test]
    fn size_cap_is_respected() {
        let (hg, costs) = blocks();
        let a = multilevel_fc(
            &hg,
            8,
            &costs,
            None,
            &FcOptions {
                target_clusters: 1,
                max_cluster_size: 4,
                ..Default::default()
            },
        );
        let k = a.iter().copied().max().unwrap() as usize + 1;
        let mut sizes = vec![0usize; k];
        for &c in &a {
            sizes[c as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s <= 4), "{sizes:?}");
    }

    #[test]
    fn groups_seed_initial_clusters() {
        let (hg, costs) = blocks();
        let groups = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let a = multilevel_fc(
            &hg,
            8,
            &costs,
            Some(&groups),
            &FcOptions {
                target_clusters: 2,
                ..Default::default()
            },
        );
        assert_eq!(a, groups);
    }

    #[test]
    fn oversized_groups_are_split() {
        let groups = vec![0, 0, 0, 0, 0, 0];
        let split = split_oversized(&groups, 2);
        let k = split.iter().copied().max().unwrap() + 1;
        assert_eq!(k, 3);
        let mut sizes = std::collections::HashMap::new();
        for &g in &split {
            *sizes.entry(g).or_insert(0) += 1;
        }
        assert!(sizes.values().all(|&s| s == 2));
    }

    #[test]
    fn timing_cost_steers_merges() {
        // A 4-cycle where edge (0,1) is timing-critical: with β high,
        // 0 and 1 must merge first.
        let hg = Hypergraph::new(
            4,
            vec![
                (vec![0, 1], 1.0),
                (vec![1, 2], 1.0),
                (vec![2, 3], 1.0),
                (vec![3, 0], 1.0),
            ],
        );
        let mut costs = EdgeCosts::uniform(4);
        costs.timing = vec![1.0, 0.0, 0.0, 0.0];
        let a = multilevel_fc(
            &hg,
            4,
            &costs,
            None,
            &FcOptions {
                alpha: 0.1,
                beta: 10.0,
                gamma: 0.0,
                target_clusters: 3,
                ..Default::default()
            },
        );
        assert_eq!(a[0], a[1], "critical pair should merge: {a:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (hg, costs) = blocks();
        let opts = FcOptions {
            target_clusters: 3,
            ..Default::default()
        };
        assert_eq!(
            multilevel_fc(&hg, 8, &costs, None, &opts),
            multilevel_fc(&hg, 8, &costs, None, &opts)
        );
    }

    #[test]
    fn isolated_singletons_stay() {
        // Vertex 2 has no rateable edge: it must remain a singleton.
        let hg = Hypergraph::new(3, vec![(vec![0, 1], 1.0)]);
        let costs = EdgeCosts::uniform(1);
        let a = multilevel_fc(
            &hg,
            3,
            &costs,
            None,
            &FcOptions {
                target_clusters: 1,
                ..Default::default()
            },
        );
        assert_ne!(a[2], a[0]);
    }
}
