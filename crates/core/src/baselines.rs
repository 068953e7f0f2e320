//! Baseline clusterings the paper compares against; each one's assignment
//! and runtime feed [`crate::flow::run_flow_with_assignment`].
//!
//! - **Blob placement \[9\]**: Louvain communities as clusters, IO-net weight
//!   ×4, uniform shapes (Table 2).
//! - **Leiden**: Leiden communities in our overall flow (Table 5).
//! - **Multilevel FC (MFC)**: TritonPart's default coarsening — Eq. 3 with
//!   β = γ = 0 and no grouping constraints (Table 5).

use crate::cluster::costs::EdgeCosts;
use crate::cluster::fc::{multilevel_fc, FcOptions};
use crate::cluster::ClusteringOptions;
use cp_graph::coarsen::{leiden_multilevel, louvain_multilevel};
use cp_netlist::netlist::Netlist;
use std::time::Instant;

/// Node count above which Louvain and Leiden run on a heavy-edge-matched
/// coarse graph.
const COARSEN_THRESHOLD: usize = 50_000;

/// Community detection over the netlist's cells (ports dropped), using a
/// bounded clique expansion so high-fanout nets stay tractable.
fn cell_graph(netlist: &Netlist) -> cp_graph::Graph {
    netlist.to_hypergraph().cell_graph(netlist.cell_count())
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
    let (labels, _q) = louvain_multilevel(&g, seed, COARSEN_THRESHOLD);
    (labels, t0.elapsed().as_secs_f64())
}

/// Leiden clustering of the cells (Table 5 baseline), through the same
/// multi-level wrapper as [`louvain_assignment`].
pub fn leiden_assignment(netlist: &Netlist, seed: u64) -> (Vec<u32>, f64) {
    let t0 = Instant::now();
    let g = cell_graph(netlist);
    let (labels, _q) = leiden_multilevel(&g, seed, COARSEN_THRESHOLD);
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
        },
    );
    cp_graph::community::compact_labels(&mut labels);
    (labels, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{run_flow_with_assignment, FlowOptions};
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};
    use cp_netlist::Constraints;

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
        for (assignment, secs) in [
            louvain_assignment(&n, opts.clustering.seed),
            leiden_assignment(&n, opts.clustering.seed),
            mfc_assignment(&n, &opts.clustering),
        ] {
            let r = run_flow_with_assignment(&n, &c, &assignment, secs, &opts)
                .expect("comparator flow runs");
            assert!(r.hpwl > 0.0);
            assert!(r.ppa.rwl > 0.0);
            assert!(r.cluster_count > 1);
        }
    }
}
