//! The training loop with per-epoch validation.

use crate::metrics::{mae, r2_score};
use crate::model::TotalCostModel;
use crate::optim::AdamOptions;
use crate::sample::GraphSample;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOptions {
    /// Epoch count.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam settings.
    pub adam: AdamOptions,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 16,
            adam: AdamOptions::default(),
            seed: 17,
        }
    }
}

/// Per-split evaluation after training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Final epoch's mean training loss (MSE).
    pub final_loss: f64,
    /// MAE on the training split.
    pub train_mae: f64,
    /// R² on the training split.
    pub train_r2: f64,
}

/// Trains `model` on `(sample, label)` pairs.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn train(
    model: &mut TotalCostModel,
    data: &[(GraphSample, f64)],
    options: &TrainOptions,
) -> TrainStats {
    assert!(!data.is_empty(), "no training data");
    let _span = cp_trace::span_with(
        "gnn.train",
        &[
            ("samples", cp_trace::ArgValue::U(data.len() as u64)),
            ("epochs", cp_trace::ArgValue::U(options.epochs as u64)),
        ],
    );
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut final_loss = 0.0;
    for epoch in 0..options.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(options.batch_size.max(1)) {
            let batch: Vec<(&GraphSample, f64)> =
                chunk.iter().map(|&i| (&data[i].0, data[i].1)).collect();
            epoch_loss += model.train_batch(&batch, &options.adam);
            batches += 1;
        }
        final_loss = epoch_loss / batches.max(1) as f64;
        cp_trace::series("gnn.train.loss", epoch as u64, &[("loss", final_loss)]);
    }
    let (samples, labels): (Vec<_>, Vec<f64>) = data.iter().map(|(s, l)| (s.clone(), *l)).unzip();
    let pred = model.predict(&samples);
    TrainStats {
        final_loss,
        train_mae: mae(&pred, &labels),
        train_r2: r2_score(&pred, &labels),
    }
}

/// Evaluates a trained model on a held-out split, returning `(MAE, R²)`.
pub fn evaluate(model: &TotalCostModel, data: &[(GraphSample, f64)]) -> (f64, f64) {
    let (samples, labels): (Vec<_>, Vec<f64>) = data.iter().map(|(s, l)| (s.clone(), *l)).unzip();
    let pred = model.predict(&samples);
    (mae(&pred, &labels), r2_score(&pred, &labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use crate::sparse::SparseSym;
    use crate::tensor::Matrix;

    fn dataset(n: usize, cfg: &ModelConfig, seed_shift: f64) -> Vec<(GraphSample, f64)> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 + seed_shift;
                let nodes = 4 + i % 5;
                let edges: Vec<(u32, u32, f64)> =
                    (1..nodes as u32).map(|k| (k - 1, k, 1.0)).collect();
                let s = GraphSample {
                    adj: SparseSym::normalized_from_edges(nodes, &edges),
                    features: Matrix::from_fn(nodes, cfg.in_dim, |r, c| {
                        t + 0.02 * r as f64 - 0.01 * c as f64
                    }),
                };
                (s, 1.0 + t)
            })
            .collect()
    }

    #[test]
    fn training_fits_and_generalizes_to_similar_data() {
        let cfg = ModelConfig {
            in_dim: 6,
            hidden_dim: 12,
            out_dim: 6,
            branches: 2,
            head_hidden: 12,
        };
        let mut model = TotalCostModel::new(&cfg, 21);
        let train_data = dataset(48, &cfg, 0.0);
        let test_data = dataset(12, &cfg, 0.013);
        let stats = train(
            &mut model,
            &train_data,
            &TrainOptions {
                epochs: 60,
                batch_size: 8,
                adam: AdamOptions {
                    lr: 3e-3,
                    ..Default::default()
                },
                seed: 4,
            },
        );
        assert!(stats.train_r2 > 0.5, "train R² {}", stats.train_r2);
        let (test_mae, test_r2) = evaluate(&model, &test_data);
        assert!(test_r2 > 0.3, "test R² {test_r2}");
        assert!(test_mae < 0.4, "test MAE {test_mae}");
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = ModelConfig {
            in_dim: 4,
            hidden_dim: 8,
            out_dim: 4,
            branches: 1,
            head_hidden: 8,
        };
        let data = dataset(10, &cfg, 0.0);
        let run = || {
            let mut m = TotalCostModel::new(&cfg, 9);
            train(
                &mut m,
                &data,
                &TrainOptions {
                    epochs: 3,
                    ..Default::default()
                },
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "no training data")]
    fn empty_dataset_panics() {
        let cfg = ModelConfig::default();
        let mut m = TotalCostModel::new(&cfg, 1);
        train(&mut m, &[], &TrainOptions::default());
    }
}
