//! ML acceleration of V-P&R (Section 3.2, Figure 4).
//!
//! Feature extraction produces the paper's 28 logical node features — 2
//! design parameters, 17 cluster-level and 9 cell-level — with the
//! categorical cell type one-hot encoded over 8 classes, giving the 35-dim
//! convolution input of Figure 4. Training data comes from perturbing the
//! clustering hyperparameters and labeling every (cluster, shape) pair
//! with the exact V-P&R Total Cost; the trained GNN then replaces the 20
//! OpenROAD runs per cluster.

use crate::cluster::{ppa_aware_clustering, ClusteringOptions};
use crate::error::FlowError;
use crate::vpr::subnetlist::extract_subnetlist;
use crate::vpr::{ClusterVpr, VprOptions};
use cp_gnn::model::{ModelConfig, TotalCostModel};
use cp_gnn::sample::GraphSample;
use cp_gnn::sparse::SparseSym;
use cp_gnn::tensor::Matrix;
use cp_gnn::train::{train, TrainOptions, TrainStats};
use cp_graph::{centrality, connectivity, metrics, Graph};
use cp_netlist::library::{CellClass, LogicFunction};
use cp_netlist::netlist::{Netlist, PinRef};
use cp_netlist::{CellId, ClusterShape, Constraints, NetId};

/// Number of cell-type one-hot classes.
pub const TYPE_CLASSES: usize = 8;
/// Total node feature width (2 + 17 + 8 + 8).
pub const FEATURE_DIM: usize = 35;

/// Exact Stoer–Wagner is cubic; above this node count the edge
/// connectivity feature falls back to the min-degree upper bound.
const EXACT_CONNECTIVITY_LIMIT: usize = 128;

/// Cell-type class for the one-hot feature.
pub fn type_class(f: LogicFunction) -> usize {
    use LogicFunction::*;
    match f {
        Inv => 0,
        Buf => 1,
        Nand2 | Nor2 => 2,
        And2 | Or2 => 3,
        Xor2 | Xnor2 | Xor3 => 4,
        Mux2 => 5,
        Aoi21 | Oai21 | Maj3 | Opaque => 6,
        Dff => 7,
    }
}

/// Shape-independent parts of a cluster's features, reusable across the 20
/// candidates.
#[derive(Debug, Clone)]
pub struct ClusterFeatures {
    adj: SparseSym,
    /// Rows: cells; cols: the 33 shape-independent features (slots 2..35).
    base: Matrix,
}

/// Extracts the shape-independent features of a cluster sub-netlist.
pub fn cluster_features(sub: &Netlist) -> ClusterFeatures {
    let n = sub.cell_count();
    // Cells-only projection of the connectivity.
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut n_pins = 0usize;
    let mut fan5_10 = 0usize;
    let mut fan_gt10 = 0usize;
    let mut internal = 0usize;
    let mut border = 0usize;
    let mut net_sizes = 0usize;
    let mut n_nets = 0usize;
    for (i, net) in sub.nets().iter().enumerate() {
        if net.is_clock {
            continue;
        }
        n_nets += 1;
        let fanout = net.sink_count();
        n_pins += net.pin_count();
        net_sizes += net.pin_count();
        if (5..=10).contains(&fanout) {
            fan5_10 += 1;
        } else if fanout > 10 {
            fan_gt10 += 1;
        }
        let mut cells: Vec<u32> = Vec::new();
        let mut touches_port = false;
        for p in net.driver.iter().chain(sub.sinks(NetId(i as u32))) {
            match *p {
                PinRef::Cell { cell, .. } => cells.push(cell.0),
                PinRef::Port(_) => touches_port = true,
            }
        }
        if touches_port {
            border += 1;
        } else {
            internal += 1;
        }
        cells.sort_unstable();
        cells.dedup();
        if cells.len() >= 2 && cells.len() <= 32 {
            let w = 1.0 / (cells.len() as f64 - 1.0);
            for i in 0..cells.len() {
                for j in (i + 1)..cells.len() {
                    edges.push((cells[i], cells[j], w));
                }
            }
        } else if cells.len() > 32 {
            let w = 1.0 / (cells.len() as f64 - 1.0);
            for &c in &cells[1..] {
                edges.push((cells[0], c, w));
            }
        }
    }
    let g = Graph::from_edges(n, &edges);

    // Whole-cluster metrics.
    let clust_coeffs = metrics::clustering_coefficients(&g);
    let avg_clust = if n == 0 {
        0.0
    } else {
        clust_coeffs.iter().sum::<f64>() / n as f64
    };
    let density = metrics::density(&g);
    let ecc = metrics::eccentricities(&g);
    let diameter = ecc.iter().copied().max().unwrap_or(0) as f64;
    let radius = ecc.iter().copied().min().unwrap_or(0) as f64;
    let efficiency = metrics::global_efficiency(&g);
    let (_, colors) = metrics::greedy_coloring(&g);
    let edge_conn = if n <= EXACT_CONNECTIVITY_LIMIT {
        connectivity::edge_connectivity(&g) as f64
    } else {
        (0..n as u32).map(|v| g.degree(v)).min().unwrap_or(0) as f64
    };
    let total_area: f64 = (0..n as u32).map(|c| sub.master(CellId(c)).area()).sum();
    let avg_deg = if n == 0 {
        0.0
    } else {
        (0..n as u32).map(|v| g.degree(v)).sum::<usize>() as f64 / n as f64
    };
    let avg_net_deg = if n_nets == 0 {
        0.0
    } else {
        net_sizes as f64 / n_nets as f64
    };
    let ln = |x: f64| (1.0 + x).ln();
    let cluster_feats: [f64; 17] = [
        ln(n as f64),
        ln(n_nets as f64),
        ln(n_pins as f64),
        ln(fan5_10 as f64),
        ln(fan_gt10 as f64),
        ln(internal as f64),
        ln(border as f64),
        ln(total_area),
        avg_deg / 10.0,
        avg_net_deg / 10.0,
        avg_clust,
        density,
        diameter / 10.0,
        radius / 10.0,
        ln(edge_conn),
        ln(colors as f64),
        efficiency,
    ];

    // Cell-level metrics.
    let betw = centrality::betweenness(&g);
    let close = centrality::closeness(&g);
    let deg_cent = centrality::degree_centrality(&g);
    let nb_deg = centrality::average_neighbor_degree(&g);

    let base = Matrix::from_fn(n, FEATURE_DIM - 2, |r, c| {
        let cell = CellId(r as u32);
        match c {
            0..=16 => cluster_feats[c],
            17 => ln(sub.master(cell).area()),
            18 => ln(g.degree(r as u32) as f64),
            19 => ln(nb_deg[r]),
            20 => betw[r],
            21 => close[r],
            22 => deg_cent[r],
            23 => clust_coeffs[r],
            24 => ecc[r] as f64 / 10.0,
            _ => {
                let class = if sub.master(cell).class == CellClass::ClockBuffer {
                    1
                } else {
                    type_class(sub.master(cell).function)
                };
                if c - 25 == class {
                    1.0
                } else {
                    0.0
                }
            }
        }
    });
    let adj = SparseSym::normalized_from_edges(n, &edges);
    ClusterFeatures { adj, base }
}

impl ClusterFeatures {
    /// Materializes the full 35-dim sample for one shape candidate.
    pub fn with_shape(&self, shape: ClusterShape) -> GraphSample {
        let n = self.base.rows;
        let features = Matrix::from_fn(n, FEATURE_DIM, |r, c| match c {
            0 => shape.utilization,
            1 => shape.aspect_ratio,
            _ => self.base.get(r, c - 2),
        });
        GraphSample {
            adj: self.adj.clone(),
            features,
        }
    }
}

/// Dataset generation settings.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Clustering-hyperparameter perturbations to run.
    pub configs: usize,
    /// Skip clusters smaller than this.
    pub min_cells: usize,
    /// Cap clusters drawn per configuration (0 = all).
    pub max_clusters_per_config: usize,
    /// Base clustering options to perturb.
    pub base: ClusteringOptions,
    /// V-P&R settings for labeling.
    pub vpr: VprOptions,
    /// Perturbation seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            configs: 4,
            min_cells: 50,
            max_clusters_per_config: 6,
            base: ClusteringOptions::default(),
            vpr: VprOptions::default(),
            seed: 23,
        }
    }
}

/// Generates labeled `(sample, Total Cost)` pairs the way the paper does:
/// perturb the clustering seed/coarsening hyperparameters, induce each
/// large-enough cluster's sub-netlist, and run exact V-P&R on all 20 shape
/// candidates.
///
/// # Errors
///
/// Propagates the first clustering or V-P&R failure ([`FlowError`]) —
/// label generation must not silently drop samples.
pub fn generate_dataset(
    netlist: &Netlist,
    constraints: &Constraints,
    config: &DatasetConfig,
) -> Result<Vec<(GraphSample, f64)>, FlowError> {
    let mut data = Vec::new();
    for k in 0..config.configs {
        let perturbed = ClusteringOptions {
            seed: config.seed ^ (0x9E37_79B9 * (k as u64 + 1)),
            avg_cluster_size: config.base.avg_cluster_size * (2 + k % 3) / 2,
            alpha: config.base.alpha,
            beta: config.base.beta * (1.0 + k as f64 * 0.5),
            gamma: config.base.gamma * (1.0 + (k % 2) as f64),
            ..config.base
        };
        let clustering = ppa_aware_clustering(netlist, constraints, &perturbed)?;
        let mut members: Vec<Vec<CellId>> = vec![Vec::new(); clustering.cluster_count];
        for (i, &c) in clustering.assignment.iter().enumerate() {
            members[c as usize].push(CellId(i as u32));
        }
        members.retain(|m| m.len() >= config.min_cells);
        members.sort_by_key(|m| std::cmp::Reverse(m.len()));
        if config.max_clusters_per_config > 0 {
            members.truncate(config.max_clusters_per_config);
        }
        for cells in &members {
            let sub = extract_subnetlist(netlist, cells)?;
            let feats = cluster_features(&sub);
            // Label the 20-candidate grid in parallel; validation and the
            // net count are hoisted into the context, and errors propagate
            // in candidate order like the serial loop did.
            let ctx = ClusterVpr::new(&sub)?;
            let candidates = ClusterShape::candidates();
            let costs =
                cp_parallel::par_map(&candidates, 1, |&shape| ctx.evaluate(shape, &config.vpr));
            for (&shape, cost) in candidates.iter().zip(costs) {
                data.push((feats.with_shape(shape), cost?.total));
            }
        }
    }
    Ok(data)
}

/// The trained shape selector.
///
/// Labels are standardized (z-scored) for training — our simulator's Total
/// Cost values span a much narrower range than the paper's, which starves
/// gradient descent — and de-standardized on prediction, so reported
/// MAE/R² stay in the raw label scale.
#[derive(Debug, Clone)]
pub struct MlShapeSelector {
    model: TotalCostModel,
    label_mean: f64,
    label_std: f64,
}

impl MlShapeSelector {
    /// Trains a fresh model on a labeled dataset; returns the selector and
    /// the training statistics (in the raw label scale).
    ///
    /// # Panics
    ///
    /// Panics if `dataset` is empty.
    pub fn train(
        dataset: &[(GraphSample, f64)],
        options: &TrainOptions,
        model_seed: u64,
    ) -> (Self, TrainStats) {
        assert!(!dataset.is_empty(), "empty dataset");
        let mean = dataset.iter().map(|(_, l)| l).sum::<f64>() / dataset.len() as f64;
        let var = dataset
            .iter()
            .map(|(_, l)| (l - mean) * (l - mean))
            .sum::<f64>()
            / dataset.len() as f64;
        let std = var.sqrt().max(1e-9);
        let standardized: Vec<(GraphSample, f64)> = dataset
            .iter()
            .map(|(s, l)| (s.clone(), (l - mean) / std))
            .collect();
        let mut model = TotalCostModel::new(&ModelConfig::default(), model_seed);
        let z_stats = train(&mut model, &standardized, options);
        let selector = Self {
            model,
            label_mean: mean,
            label_std: std,
        };
        // Re-express statistics in the raw label scale.
        let (train_mae, train_r2) = selector.evaluate(dataset);
        let stats = TrainStats {
            final_loss: z_stats.final_loss * std * std,
            train_mae,
            train_r2,
        };
        (selector, stats)
    }

    /// The underlying model (predictions are in standardized space).
    pub fn model(&self) -> &TotalCostModel {
        &self.model
    }

    /// Predicted Total Cost per sample, in the raw label scale. Runs one
    /// batched forward pass over all samples (bit-identical to per-sample
    /// prediction, pinned by the `batched_forward` proptests in cp-gnn).
    pub fn predict_costs(&self, samples: &[GraphSample]) -> Vec<f64> {
        self.model
            .predict_batched(samples)
            .into_iter()
            .map(|z| z * self.label_std + self.label_mean)
            .collect()
    }

    /// `(MAE, R²)` of the selector on labeled data, in the raw scale.
    pub fn evaluate(&self, data: &[(GraphSample, f64)]) -> (f64, f64) {
        let (samples, labels): (Vec<_>, Vec<f64>) =
            data.iter().map(|(s, l)| (s.clone(), *l)).unzip();
        let pred = self.predict_costs(&samples);
        (
            cp_gnn::metrics::mae(&pred, &labels),
            cp_gnn::metrics::r2_score(&pred, &labels),
        )
    }

    /// Picks the best shape for a cluster by predicting Total Cost for all
    /// 20 candidates — the ML replacement for [`best_shape`](super::best_shape).
    pub fn select_shape(&self, sub: &Netlist) -> ClusterShape {
        ClusterShape::candidates()[argmin(&self.predicted_candidate_costs(sub))]
    }

    /// Predicted Total Cost (raw label scale) for the cluster's 20
    /// candidates, in [`ClusterShape::candidates`] order, scored in one
    /// forward pass over the 20 samples (the 33 shape-independent feature
    /// columns are extracted once). This is the surrogate ranking consumed
    /// by `ShapeMode::Hybrid`.
    pub fn predicted_candidate_costs(&self, sub: &Netlist) -> Vec<f64> {
        let candidates = ClusterShape::candidates();
        let _span = cp_trace::span_with(
            "vpr.surrogate_batch",
            &[("candidates", cp_trace::ArgValue::U(candidates.len() as u64))],
        );
        let feats = cluster_features(sub);
        let samples: Vec<GraphSample> = candidates.iter().map(|&s| feats.with_shape(s)).collect();
        self.predict_costs(&samples)
    }
}

/// Argmin with `total_cmp`: a NaN prediction (pathological model state)
/// orders last instead of poisoning the selection; ties break to the
/// earlier candidate.
fn argmin(costs: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, p) in costs.iter().enumerate() {
        if p.total_cmp(&costs[best]).is_lt() {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vpr::extract_subnetlist;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn sub() -> Netlist {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(13)
            .generate();
        let cells: Vec<CellId> = (0..80).map(CellId).collect();
        extract_subnetlist(&n, &cells).expect("valid sub-netlist")
    }

    #[test]
    fn feature_dimensions() {
        let s = sub();
        let f = cluster_features(&s);
        let sample = f.with_shape(ClusterShape::UNIFORM);
        assert_eq!(sample.features.cols, FEATURE_DIM);
        assert_eq!(sample.features.rows, s.cell_count());
        // Shape params land in slots 0 and 1.
        assert_eq!(sample.features.get(0, 0), 0.90);
        assert_eq!(sample.features.get(0, 1), 1.0);
    }

    #[test]
    fn one_hot_is_exactly_one() {
        let s = sub();
        let f = cluster_features(&s).with_shape(ClusterShape::UNIFORM);
        for r in 0..f.features.rows {
            let sum: f64 = (27..35).map(|c| f.features.get(r, c)).sum();
            assert_eq!(sum, 1.0, "row {r} one-hot malformed");
        }
    }

    #[test]
    fn features_are_finite() {
        let s = sub();
        let f = cluster_features(&s).with_shape(ClusterShape::new(1.75, 0.75));
        for v in f.features.data() {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn type_classes_cover_all_functions() {
        use LogicFunction::*;
        for f in [
            Buf, Inv, And2, Nand2, Or2, Nor2, Xor2, Xnor2, Mux2, Aoi21, Oai21, Maj3, Xor3, Dff,
            Opaque,
        ] {
            assert!(type_class(f) < TYPE_CLASSES);
        }
    }

    #[test]
    fn tiny_dataset_trains_and_selects() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(14)
            .generate();
        let (nl, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(14)
            .generate_with_constraints();
        assert_eq!(n.cell_count(), nl.cell_count());
        let cfg = DatasetConfig {
            configs: 1,
            min_cells: 30,
            max_clusters_per_config: 2,
            base: ClusteringOptions {
                avg_cluster_size: 60,
                ..Default::default()
            },
            ..Default::default()
        };
        let data = generate_dataset(&nl, &c, &cfg).expect("dataset generates");
        assert!(!data.is_empty());
        assert_eq!(data.len() % 20, 0, "20 shapes per cluster");
        let (selector, stats) = MlShapeSelector::train(
            &data,
            &TrainOptions {
                epochs: 3,
                ..Default::default()
            },
            5,
        );
        assert!(stats.final_loss.is_finite());
        let s = sub();
        let shape = selector.select_shape(&s);
        assert!(ClusterShape::candidates().contains(&shape));
    }
}
