//! Baseline clustering flows the paper compares against.
//!
//! - **Blob placement \[9\]**: Louvain communities as clusters, IO-net weight
//!   ×4, uniform shapes (Table 2).
//! - **Leiden**: Leiden communities in our overall flow (Table 5).
//! - **Multilevel FC (MFC)**: TritonPart's default coarsening — Eq. 3 with
//!   β = γ = 0 and no grouping constraints (Table 5).

use crate::cluster::costs::EdgeCosts;
use crate::cluster::fc::{multilevel_fc, FcOptions};
use crate::cluster::ClusteringOptions;
use crate::error::FlowError;
use crate::flow::{run_flow_with_assignment, FlowOptions, FlowReport};
use cp_graph::coarsen::{leiden_multilevel, louvain_multilevel, CoarsenOptions};
use cp_graph::community::CommunityOptions;
use cp_netlist::netlist::Netlist;
use cp_netlist::Constraints;
use std::time::Instant;

/// Community detection over the netlist's cells (ports dropped), using a
/// bounded clique expansion so high-fanout nets stay tractable.
fn cell_graph(netlist: &Netlist) -> cp_graph::Graph {
    let (hg, _) = netlist.to_hypergraph_with_map();
    let n_cells = netlist.cell_count();
    let keep: Vec<u32> = (0..n_cells as u32).collect();
    let (cells_only, _) = hg.induce(&keep, 2);
    cells_only.bounded_clique_expansion(16)
}

/// Louvain clustering of the cells (the clustering of blob placement \[9\]).
///
/// Runs through the multi-level coarsening wrapper: below the coarsening
/// threshold this is exact Louvain (bit-identical labels); above it the
/// detection runs on a heavy-edge-matched coarse graph and projects back,
/// keeping million-cell designs tractable.
pub fn louvain_assignment(netlist: &Netlist, seed: u64) -> (Vec<u32>, f64) {
    let t0 = Instant::now();
    let g = cell_graph(netlist);
    let (labels, _q) = louvain_multilevel(
        &g,
        &CommunityOptions {
            seed,
            ..Default::default()
        },
        &CoarsenOptions::default(),
    );
    (labels, t0.elapsed().as_secs_f64())
}

/// Leiden clustering of the cells (Table 5 baseline), through the same
/// multi-level wrapper as [`louvain_assignment`].
pub fn leiden_assignment(netlist: &Netlist, seed: u64) -> (Vec<u32>, f64) {
    let t0 = Instant::now();
    let g = cell_graph(netlist);
    let (labels, _q) = leiden_multilevel(
        &g,
        &CommunityOptions {
            seed,
            ..Default::default()
        },
        &CoarsenOptions::default(),
    );
    (labels, t0.elapsed().as_secs_f64())
}

/// Plain multilevel FC (no hierarchy, no timing, no switching — Table 5's
/// MFC baseline).
pub fn mfc_assignment(netlist: &Netlist, clustering: &ClusteringOptions) -> (Vec<u32>, f64) {
    let t0 = Instant::now();
    let hg = netlist.to_hypergraph();
    let costs = EdgeCosts::uniform(hg.edge_count());
    let mut labels = multilevel_fc(
        &hg,
        netlist.cell_count(),
        &costs,
        None,
        &FcOptions {
            alpha: clustering.alpha,
            beta: 0.0,
            gamma: 0.0,
            target_clusters: clustering.target_clusters(netlist.cell_count()),
            max_cluster_size: clustering.max_cluster_size(),
            seed: clustering.seed,
            max_passes: 24,
        },
    );
    cp_graph::community::compact_labels(&mut labels);
    (labels, t0.elapsed().as_secs_f64())
}

/// The blob-placement flow of \[9\]: Louvain clusters, uniform shapes,
/// OpenROAD-like seeded placement.
///
/// # Errors
///
/// See [`run_flow_with_assignment`].
pub fn run_blob_flow(
    netlist: &Netlist,
    constraints: &Constraints,
    options: &FlowOptions,
) -> Result<FlowReport, FlowError> {
    let (assignment, runtime) = louvain_assignment(netlist, options.clustering.seed);
    run_flow_with_assignment(netlist, constraints, &assignment, runtime, options)
}

/// Our overall flow with Leiden standing in for the PPA-aware clustering
/// (Table 5's "Leiden" row).
///
/// # Errors
///
/// See [`run_flow_with_assignment`].
pub fn run_leiden_flow(
    netlist: &Netlist,
    constraints: &Constraints,
    options: &FlowOptions,
) -> Result<FlowReport, FlowError> {
    let (assignment, runtime) = leiden_assignment(netlist, options.clustering.seed);
    run_flow_with_assignment(netlist, constraints, &assignment, runtime, options)
}

/// Our overall flow with plain multilevel FC (Table 5's "MFC" row).
///
/// # Errors
///
/// See [`run_flow_with_assignment`].
pub fn run_mfc_flow(
    netlist: &Netlist,
    constraints: &Constraints,
    options: &FlowOptions,
) -> Result<FlowReport, FlowError> {
    let (assignment, runtime) = mfc_assignment(netlist, &options.clustering);
    run_flow_with_assignment(netlist, constraints, &assignment, runtime, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn setup() -> (Netlist, Constraints) {
        GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(31)
            .generate_with_constraints()
    }

    #[test]
    fn louvain_and_leiden_find_multiple_communities() {
        let (n, _) = setup();
        let (lou, _) = louvain_assignment(&n, 1);
        let (lei, _) = leiden_assignment(&n, 1);
        assert_eq!(lou.len(), n.cell_count());
        assert_eq!(lei.len(), n.cell_count());
        let k_lou = lou.iter().copied().max().unwrap() + 1;
        let k_lei = lei.iter().copied().max().unwrap() + 1;
        assert!(k_lou > 1 && (k_lou as usize) < n.cell_count() / 2);
        assert!(k_lei > 1 && (k_lei as usize) < n.cell_count() / 2);
    }

    #[test]
    fn mfc_reaches_its_target() {
        let (n, _) = setup();
        let opts = ClusteringOptions {
            avg_cluster_size: 40,
            ..Default::default()
        };
        let (labels, _) = mfc_assignment(&n, &opts);
        let k = labels.iter().copied().max().unwrap() as usize + 1;
        let target = opts.target_clusters(n.cell_count());
        assert!(
            k >= target && k <= n.cell_count() / 4,
            "k = {k}, target {target}"
        );
    }

    #[test]
    fn baseline_flows_run_end_to_end() {
        let (n, c) = setup();
        let opts = FlowOptions::fast();
        for r in [
            run_blob_flow(&n, &c, &opts).expect("blob flow runs"),
            run_leiden_flow(&n, &c, &opts).expect("leiden flow runs"),
            run_mfc_flow(&n, &c, &opts).expect("mfc flow runs"),
        ] {
            assert!(r.hpwl > 0.0);
            assert!(r.ppa.rwl > 0.0);
            assert!(r.cluster_count > 1);
        }
    }
}
