//! Criterion bench for the substrates: STA, activity propagation, power,
//! global routing, CTS and a GNN training step.

use cp_bench::Bench;
use cp_gnn::model::{ModelConfig, TotalCostModel};
use cp_gnn::optim::AdamOptions;
use cp_gnn::sparse::SparseSym;
use cp_gnn::tensor::Matrix;
use cp_gnn::GraphSample;
use cp_netlist::generator::DesignProfile;
use cp_netlist::Floorplan;
use cp_place::cts::{synthesize_clock_tree, CtsOptions};
use cp_place::{GlobalPlacer, PlacementProblem, PlacerOptions};
use cp_route::{route_placed_netlist, RouterOptions};
use cp_timing::activity::propagate_activity;
use cp_timing::power::power_report;
use cp_timing::sta::Sta;
use cp_timing::wire::WireModel;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_substrates(c: &mut Criterion) {
    let b = Bench::generate_at(DesignProfile::Jpeg, 1.0 / 64.0);
    let fp = Floorplan::for_netlist(&b.netlist, 0.6, 1.0);
    let problem = PlacementProblem::from_netlist(&b.netlist, &fp);
    let placed = GlobalPlacer::new(PlacerOptions::default())
        .place(&problem)
        .expect("placement runs");
    let mut positions = placed.positions.clone();
    positions.extend_from_slice(&fp.port_positions);

    let mut group = c.benchmark_group("substrates");
    group.sample_size(10);
    group.bench_function("sta_full", |bench| {
        let sta = Sta::new(&b.netlist, &b.constraints).expect("acyclic netlist");
        bench.iter(|| black_box(sta.run(&WireModel::Placed(&positions)).tns))
    });
    group.bench_function("sta_paths_1k", |bench| {
        let sta = Sta::new(&b.netlist, &b.constraints).expect("acyclic netlist");
        let report = sta.run(&WireModel::Placed(&positions));
        bench.iter(|| black_box(sta.extract_paths(&report, 1000).len()))
    });
    group.bench_function("activity", |bench| {
        bench.iter(|| black_box(propagate_activity(&b.netlist, &b.constraints).iterations))
    });
    group.bench_function("power", |bench| {
        let act = propagate_activity(&b.netlist, &b.constraints);
        bench.iter(|| {
            black_box(
                power_report(
                    &b.netlist,
                    &b.constraints,
                    &act,
                    &WireModel::Placed(&positions),
                )
                .total(),
            )
        })
    });
    group.bench_function("global_route", |bench| {
        bench.iter(|| {
            black_box(
                route_placed_netlist(&b.netlist, &positions, &fp, &RouterOptions::default())
                    .expect("routing runs")
                    .wirelength,
            )
        })
    });
    group.bench_function("global_route_congested", |bench| {
        // Full-scale Jpeg at 60% utilisation: a fifth of the segments
        // overflow both L-shapes and take the maze (the 1/64-scale design
        // above never does).
        let big = Bench::generate_at(DesignProfile::Jpeg, 1.0);
        let fp = Floorplan::for_netlist(&big.netlist, 0.6, 1.0);
        let problem = PlacementProblem::from_netlist(&big.netlist, &fp);
        let placed = GlobalPlacer::new(PlacerOptions::default())
            .place(&problem)
            .expect("placement runs");
        let mut positions = placed.positions;
        positions.extend_from_slice(&fp.port_positions);
        let route = || {
            route_placed_netlist(&big.netlist, &positions, &fp, &RouterOptions::default())
                .expect("routing runs")
        };
        assert!(route().mazed_segments > 0, "the congested case must maze");
        bench.iter(|| black_box(route().wirelength))
    });
    group.bench_function("cts", |bench| {
        bench.iter(|| {
            black_box(
                synthesize_clock_tree(&b.netlist, &positions, &CtsOptions::default())
                    .expect("CTS runs")
                    .skew,
            )
        })
    });
    group.bench_function("gnn_train_batch", |bench| {
        let cfg = ModelConfig::default();
        let mut model = TotalCostModel::new(&cfg, 3);
        let samples: Vec<(GraphSample, f64)> = (0..8)
            .map(|i| {
                let n = 40 + i * 5;
                let edges: Vec<(u32, u32, f64)> = (1..n as u32).map(|k| (k - 1, k, 1.0)).collect();
                (
                    GraphSample {
                        adj: SparseSym::normalized_from_edges(n, &edges),
                        features: Matrix::from_fn(n, cfg.in_dim, |r, c| {
                            ((r * 7 + c) % 13) as f64 / 13.0
                        }),
                    },
                    1.0 + i as f64 / 8.0,
                )
            })
            .collect();
        let batch: Vec<(&GraphSample, f64)> = samples.iter().map(|(s, l)| (s, *l)).collect();
        bench.iter(|| black_box(model.train_batch(&batch, &AdamOptions::default())))
    });
    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
