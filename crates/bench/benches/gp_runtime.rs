//! Criterion bench behind Table 2: global placement runtime, flat vs
//! clustered+seeded (the paper's headline 36% average speedup).

use cp_bench::{flow_options, Bench};
use cp_core::cluster::ppa_aware_clustering;
use cp_core::flow::{run_default_flow, run_flow_with_assignment, Tool};
use cp_netlist::generator::DesignProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Design scale and the scale the flow options are sized for.
const SCALE: f64 = 1.0 / 64.0;

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("global_placement");
    group.sample_size(10);
    for profile in [DesignProfile::Aes, DesignProfile::Jpeg] {
        let b = Bench::generate_at(profile, SCALE);
        let opts = flow_options(SCALE).tool(Tool::OpenRoadLike);
        // Clustering runs once; the bench isolates the placement phases.
        let clustering = ppa_aware_clustering(&b.netlist, &b.constraints, &opts.clustering)
            .expect("clustering runs");
        group.bench_function(format!("flat/{}", b.name()), |bench| {
            bench.iter(|| {
                black_box(
                    run_default_flow(&b.netlist, &b.constraints, &opts)
                        .expect("flow runs")
                        .hpwl,
                )
            })
        });
        group.bench_function(format!("seeded/{}", b.name()), |bench| {
            bench.iter(|| {
                black_box(
                    run_flow_with_assignment(
                        &b.netlist,
                        &b.constraints,
                        &clustering.assignment,
                        0.0,
                        &opts,
                    )
                    .expect("flow runs")
                    .hpwl,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
