//! Criterion bench for V-P&R: one exact shape evaluation, the 20-shape
//! sweep, feature extraction, and GNN inference (the 30× claim of
//! Section 3.2 is the sweep/inference ratio).

use cp_bench::{flow_options, Bench};
use cp_core::cluster::ppa_aware_clustering;
use cp_core::flow::cluster_members;
use cp_core::vpr::ml::{cluster_features, MlShapeSelector};
use cp_core::vpr::{best_shape, evaluate_shape, extract_subnetlist};
use cp_gnn::model::{ModelConfig, TotalCostModel};
use cp_gnn::GraphSample;
use cp_netlist::generator::DesignProfile;
use cp_netlist::ClusterShape;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Design scale and the scale the flow options are sized for.
const SCALE: f64 = 1.0 / 32.0;

fn bench_vpr(c: &mut Criterion) {
    let b = Bench::generate_at(DesignProfile::Aes, SCALE);
    let opts = flow_options(SCALE);
    let clustering = ppa_aware_clustering(&b.netlist, &b.constraints, &opts.clustering)
        .expect("clustering runs");
    let cluster = cluster_members(&clustering.assignment, clustering.cluster_count)
        .into_iter()
        .max_by_key(|m| m.len())
        .expect("clusters exist");
    let sub = extract_subnetlist(&b.netlist, &cluster).expect("valid sub-netlist");
    // Untrained weights are fine for timing inference.
    let selector = MlShapeSelector::from_model(TotalCostModel::new(&ModelConfig::default(), 3));

    let mut group = c.benchmark_group("vpr");
    group.sample_size(10);
    group.bench_function("evaluate_one_shape", |bench| {
        bench.iter(|| {
            black_box(
                evaluate_shape(&sub, ClusterShape::UNIFORM, &opts.vpr)
                    .expect("shape evaluates")
                    .total,
            )
        })
    });
    group.bench_function("exact_sweep_20", |bench| {
        bench.iter(|| black_box(best_shape(&sub, &opts.vpr).expect("sweep runs").0))
    });
    group.bench_function("feature_extraction", |bench| {
        bench.iter(|| black_box(cluster_features(&sub)))
    });
    group.bench_function("ml_select_20", |bench| {
        bench.iter(|| black_box(selector.select_shape(&sub)))
    });
    group.bench_function("ml_inference_only", |bench| {
        let feats = cluster_features(&sub);
        let samples: Vec<GraphSample> = ClusterShape::candidates()
            .iter()
            .map(|&s| feats.with_shape(s))
            .collect();
        bench.iter(|| black_box(selector.model().predict(&samples)))
    });
    group.finish();
}

criterion_group!(benches, bench_vpr);
criterion_main!(benches);
