//! A pure-Rust graph neural network — the PyTorch-Geometric stand-in for
//! the paper's Total-Cost predictor (Section 3.2, Figure 4).
//!
//! The architecture matches the paper: four convolution branches of three
//! hypergraph-convolution blocks each (dims 35 → 64 → 32, batch
//! normalization, skip connections where dims match), branch outputs
//! accumulated, global mean pooling to a 32-d cluster embedding, and a
//! prediction head of two linear layers (32 → 64 → 1) with batch norm.
//! Training is Adam + MSE with manual backpropagation.
//!
//! Everything here is deterministic given the seed.
//!
//! # Examples
//!
//! ```
//! use cp_gnn::model::{ModelConfig, TotalCostModel};
//! use cp_gnn::sample::GraphSample;
//! use cp_gnn::tensor::Matrix;
//! use cp_gnn::sparse::SparseSym;
//!
//! let cfg = ModelConfig::default();
//! let model = TotalCostModel::new(&cfg, 1);
//! // A 3-node toy graph with 35 features per node.
//! let adj = SparseSym::normalized_from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
//! let x = Matrix::zeros(3, cfg.in_dim);
//! let sample = GraphSample { adj, features: x };
//! let y = model.predict(&[sample]);
//! assert_eq!(y.len(), 1);
//! assert!(y[0].is_finite());
//! ```

#![forbid(unsafe_code)]

pub mod layers;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod sample;
pub mod sparse;
pub mod tensor;
pub mod train;

pub use crate::metrics::{mae, r2_score};
pub use crate::model::{ModelConfig, TotalCostModel};
pub use crate::sample::GraphSample;
pub use crate::train::{train, TrainOptions, TrainStats};
