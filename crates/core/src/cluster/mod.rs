//! PPA-aware netlist clustering (Section 3.1 of the paper).

pub mod costs;
pub mod dendrogram;
pub mod fc;
pub mod quality;
pub mod rent;

use crate::cluster::costs::{switching_costs, timing_costs, EdgeCosts};
use crate::cluster::dendrogram::cluster_by_hierarchy_with_min;
use crate::cluster::fc::{multilevel_fc, FcOptions};
use crate::error::FlowError;
use cp_netlist::netlist::Netlist;
use cp_netlist::Constraints;
use cp_timing::activity::{propagate_activity, ActivityReport};
use cp_timing::sta::Sta;
use cp_timing::wire::WireModel;
use std::time::Instant;

/// Above this many cells, FC is seeded with heavy-edge-matched
/// pre-clusters (multi-level coarsening) so the first FC pass starts far
/// below the cell count instead of from singletons. Below it the pipeline
/// is unchanged.
const COARSEN_THRESHOLD: usize = 200_000;

/// Options for the full PPA-aware clustering stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringOptions {
    /// Connectivity scale α (Eq. 3).
    pub alpha: f64,
    /// Timing scale β. At 0 the timing term is ablated: no STA runs.
    pub beta: f64,
    /// Switching scale γ. At 0 the switching term is ablated: no activity
    /// propagation runs.
    pub gamma: f64,
    /// Switching-cost exponent µ (Eq. 2, default 2).
    pub mu: f64,
    /// Number of critical paths |P| to extract (paper: 100 000).
    pub path_count: usize,
    /// Average cells per final cluster (sets the FC target count).
    pub avg_cluster_size: usize,
    /// Size cap as a multiple of the average cluster size.
    pub max_cluster_factor: f64,
    /// Use hierarchy grouping constraints (ablation toggle).
    pub use_hierarchy: bool,
    /// RNG seed for the coarsening visit order.
    pub seed: u64,
}

impl Default for ClusteringOptions {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0,
            mu: 2.0,
            path_count: 100_000,
            avg_cluster_size: 250,
            max_cluster_factor: 4.0,
            use_hierarchy: true,
            seed: 11,
        }
    }
}

impl ClusteringOptions {
    /// The FC target cluster count for a design of `n_cells`.
    pub fn target_clusters(&self, n_cells: usize) -> usize {
        (n_cells / self.avg_cluster_size.max(1)).max(8)
    }

    /// The FC size cap for a design of `n_cells`.
    pub fn max_cluster_size(&self) -> usize {
        ((self.avg_cluster_size as f64) * self.max_cluster_factor) as usize
    }
}

/// The result of the clustering stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringResult {
    /// Dense cluster id per cell.
    pub assignment: Vec<u32>,
    /// Number of clusters.
    pub cluster_count: usize,
    /// The dendrogram level the grouping constraints came from (if used).
    pub dendrogram_level: Option<u32>,
    /// `R_avg` of the grouping constraints (if used).
    pub dendrogram_rent: Option<f64>,
    /// Wall-clock seconds spent clustering (incl. STA/activity extraction).
    pub runtime: f64,
    /// The switching activity `s_e` was built from (`None` at `gamma ==
    /// 0.0`, where none is propagated); the flow's power analysis reuses
    /// it.
    pub activity: Option<ActivityReport>,
}

/// Runs the full PPA-aware clustering pipeline (Algorithm 1, lines 2–10):
/// logical-hierarchy dendrogram clustering → grouping constraints, STA
/// path/net slacks → `t_e`, vectorless activity → `s_e`, then enhanced
/// multilevel FC.
///
/// Eq. 3's weights are the ablation switches: the STA runs only when
/// `beta != 0.0` and the activity propagation only when `gamma != 0.0`;
/// a term whose weight is zero keeps [`EdgeCosts::uniform`]'s value.
/// Both run inside this call, so its [`ClusteringResult::runtime`] — and the
/// benchmark's `cluster.ppa_aware_s` — is all of lines 2–10, not only the
/// coarsening: on the 119k-cell Ariane profile ≈ 0.035 s activity and
/// ≈ 0.045 s STA of 0.10 s (EXPERIMENTS.md, "Flow tail").
///
/// # Errors
///
/// [`FlowError::Validation`] when the netlist or constraints are
/// degenerate; [`FlowError::Timing`] when the timing-cost STA (`beta !=
/// 0.0`) finds a combinational cycle.
pub fn ppa_aware_clustering(
    netlist: &Netlist,
    constraints: &Constraints,
    options: &ClusteringOptions,
) -> Result<ClusteringResult, FlowError> {
    clustering_above(netlist, constraints, options, COARSEN_THRESHOLD)
}

/// [`ppa_aware_clustering`] with the multi-level front-end engaging above
/// `coarsen_threshold` cells.
fn clustering_above(
    netlist: &Netlist,
    constraints: &Constraints,
    options: &ClusteringOptions,
    coarsen_threshold: usize,
) -> Result<ClusteringResult, FlowError> {
    netlist.validate()?;
    constraints.validate()?;
    let start = Instant::now();
    let (hg, net_to_edge) = netlist.to_hypergraph_with_map();
    let n_cells = netlist.cell_count();

    // Lines 2-3: hierarchy-based grouping constraints. Levels coarser than
    // the coarsening target are skipped (they cannot guide it), and a
    // degenerate hierarchy (everything in one module) falls back to
    // unconstrained coarsening, as Algorithm 1 does when no logical
    // hierarchy is present.
    let target = options.target_clusters(n_cells);
    let dendro = options
        .use_hierarchy
        .then(|| cluster_by_hierarchy_with_min(netlist, &hg, target))
        .filter(|d| d.cluster_count >= 2 && 2 * d.cluster_count >= target);

    // Lines 4-5: timing paths and switching activity, each only when its
    // Eq. 3 weight can see it; a zero-weight term keeps the uniform value.
    let edges = hg.edge_count();
    let mut costs = EdgeCosts::uniform(edges);
    if options.beta != 0.0 {
        let sta = Sta::new(netlist, constraints)?;
        let report = sta.run(&WireModel::Estimate);
        let paths = sta.extract_paths(&report, options.path_count);
        costs.timing = timing_costs(&paths, &net_to_edge, edges, constraints.clock_period);
    }
    let activity = (options.gamma != 0.0).then(|| propagate_activity(netlist, constraints));
    if let Some(act) = &activity {
        costs.switching = switching_costs(act, &net_to_edge, edges, options.mu);
    }

    // Line 9: enhanced multilevel FC.
    let fc_opts = FcOptions {
        alpha: options.alpha,
        beta: options.beta,
        gamma: options.gamma,
        target_clusters: target,
        max_cluster_size: options.max_cluster_size(),
        seed: options.seed,
    };
    // Multi-level front-end: above the coarsening threshold, heavy-edge
    // matching over the cell graph produces pre-clusters that seed FC, so
    // the first FC pass rates ~threshold clusters instead of 10⁵–10⁶
    // singletons. Hierarchy groups stay inviolable: the seed id is the
    // (group, pre-cluster) composite, which splits any matched pair that
    // crosses a dendrogram group.
    let precoarse: Option<Vec<u32>> = (n_cells > coarsen_threshold).then(|| {
        let g = hg.cell_graph(n_cells);
        cp_graph::coarsen::coarsen_to(&g, coarsen_threshold).1
    });
    let seeded: Option<Vec<u32>> = match (&dendro, precoarse) {
        (Some(d), Some(pc)) => Some(compose_groups(&d.assignment, &pc)),
        (None, Some(pc)) => Some(pc),
        _ => None,
    };
    let groups = seeded
        .as_deref()
        .or_else(|| dendro.as_ref().map(|d| d.assignment.as_slice()));
    let mut assignment = multilevel_fc(&hg, n_cells, &costs, groups, &fc_opts);
    let cluster_count = cp_graph::community::compact_labels(&mut assignment);
    Ok(ClusteringResult {
        assignment,
        cluster_count,
        dendrogram_level: dendro.as_ref().map(|d| d.level),
        dendrogram_rent: dendro.as_ref().map(|d| d.rent),
        runtime: start.elapsed().as_secs_f64(),
        activity,
    })
}

/// Composes hierarchy groups with pre-coarsening clusters: two cells share
/// a seed cluster only when they agree on *both* labels. Dense ids are
/// assigned in first-seen order so the result is deterministic.
fn compose_groups(outer: &[u32], inner: &[u32]) -> Vec<u32> {
    debug_assert_eq!(outer.len(), inner.len());
    let mut dense: std::collections::HashMap<(u32, u32), u32> =
        std::collections::HashMap::with_capacity(inner.len() / 4);
    outer
        .iter()
        .zip(inner)
        .map(|(&o, &i)| {
            let next = dense.len() as u32;
            *dense.entry((o, i)).or_insert(next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    // Seed chosen so the generated hierarchy is deep enough for dendrogram
    // grouping to engage (some seeds yield a 3-module top level, which the
    // `2 * count >= target` filter rightly rejects).
    fn setup() -> (Netlist, Constraints) {
        GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .seed(6)
            .generate_with_constraints()
    }

    #[test]
    fn produces_reasonable_cluster_counts() {
        let (n, c) = setup();
        let opts = ClusteringOptions {
            avg_cluster_size: 40,
            ..Default::default()
        };
        let r = ppa_aware_clustering(&n, &c, &opts).expect("clustering runs");
        assert_eq!(r.assignment.len(), n.cell_count());
        let target = opts.target_clusters(n.cell_count());
        assert!(
            r.cluster_count >= target / 2 && r.cluster_count <= n.cell_count() / 4,
            "clusters {} target {target}",
            r.cluster_count
        );
        assert!(r.dendrogram_level.is_some());
    }

    #[test]
    fn ablations_change_the_result() {
        let (n, c) = setup();
        let base = ClusteringOptions {
            avg_cluster_size: 40,
            ..Default::default()
        };
        let ours = ppa_aware_clustering(&n, &c, &base).expect("clustering runs");
        let no_hier = ppa_aware_clustering(
            &n,
            &c,
            &ClusteringOptions {
                use_hierarchy: false,
                ..base
            },
        )
        .expect("clustering runs");
        assert_ne!(ours.assignment, no_hier.assignment);
        assert!(no_hier.dendrogram_level.is_none());
    }

    #[test]
    fn clustering_is_deterministic() {
        let (n, c) = setup();
        let opts = ClusteringOptions {
            avg_cluster_size: 40,
            ..Default::default()
        };
        let a = ppa_aware_clustering(&n, &c, &opts).expect("clustering runs");
        let b = ppa_aware_clustering(&n, &c, &opts).expect("clustering runs");
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn compose_groups_splits_cross_group_pairs() {
        // Cells 1 and 2 share a pre-cluster but sit in different hierarchy
        // groups — the composite must keep them apart.
        let outer = [0, 0, 1, 1];
        let inner = [5, 9, 9, 9];
        assert_eq!(compose_groups(&outer, &inner), vec![0, 1, 2, 2]);
    }

    #[test]
    fn precoarsened_clustering_is_deterministic_and_capped() {
        let (n, c) = setup();
        // Force the multi-level front-end on this small design.
        let opts = ClusteringOptions {
            avg_cluster_size: 30,
            max_cluster_factor: 2.0,
            ..Default::default()
        };
        let a = clustering_above(&n, &c, &opts, 64).expect("clustering runs");
        let b = clustering_above(&n, &c, &opts, 64).expect("clustering runs");
        assert_eq!(a.assignment, b.assignment);
        assert!(a.cluster_count > 1);
        let mut sizes = vec![0usize; a.cluster_count];
        for &l in &a.assignment {
            sizes[l as usize] += 1;
        }
        let cap = opts.max_cluster_size();
        assert!(sizes.iter().all(|&s| s <= cap));
    }

    #[test]
    fn cluster_sizes_respect_cap() {
        let (n, c) = setup();
        let opts = ClusteringOptions {
            avg_cluster_size: 30,
            max_cluster_factor: 2.0,
            ..Default::default()
        };
        let r = ppa_aware_clustering(&n, &c, &opts).expect("clustering runs");
        let mut sizes = vec![0usize; r.cluster_count];
        for &a in &r.assignment {
            sizes[a as usize] += 1;
        }
        let cap = opts.max_cluster_size();
        assert!(
            sizes.iter().all(|&s| s <= cap),
            "max size {} cap {cap}",
            sizes.iter().max().unwrap()
        );
    }
}
