//! Criterion bench for the clustering stages: dendrogram (Alg. 2),
//! enhanced multilevel FC, and the Louvain/Leiden baselines.

use cp_bench::{flow_options, Bench};
use cp_core::baselines::{leiden_assignment, louvain_assignment, mfc_assignment};
use cp_core::cluster::dendrogram::cluster_by_hierarchy;
use cp_core::cluster::ppa_aware_clustering;
use cp_netlist::generator::DesignProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Design scale and the scale the flow options are sized for.
const SCALE: f64 = 1.0 / 64.0;

fn bench_clustering(c: &mut Criterion) {
    let b = Bench::generate_at(DesignProfile::Jpeg, SCALE);
    let opts = flow_options(SCALE);
    let mut group = c.benchmark_group("clustering");
    group.sample_size(10);
    group.bench_function("dendrogram", |bench| {
        bench.iter(|| black_box(cluster_by_hierarchy(&b.netlist).cluster_count))
    });
    group.bench_function("ppa_aware", |bench| {
        bench.iter(|| {
            black_box(
                ppa_aware_clustering(&b.netlist, &b.constraints, &opts.clustering)
                    .expect("clustering runs")
                    .cluster_count,
            )
        })
    });
    group.bench_function("mfc", |bench| {
        bench.iter(|| black_box(mfc_assignment(&b.netlist, &opts.clustering).0.len()))
    });
    group.bench_function("louvain", |bench| {
        bench.iter(|| black_box(louvain_assignment(&b.netlist, 1).0.len()))
    });
    group.bench_function("leiden", |bench| {
        bench.iter(|| black_box(leiden_assignment(&b.netlist, 1).0.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
