//! Criterion bench for the substrates: STA, activity propagation, power,
//! global routing, the placer's SpMV and spreading kernels, legalization,
//! detailed refinement, CTS and a GNN training step.

use cp_bench::Bench;
use cp_gnn::model::{ModelConfig, TotalCostModel};
use cp_gnn::optim::AdamOptions;
use cp_gnn::sparse::SparseSym;
use cp_gnn::tensor::Matrix;
use cp_gnn::GraphSample;
use cp_netlist::generator::DesignProfile;
use cp_netlist::Floorplan;
use cp_place::cts::{synthesize_clock_tree, CtsOptions};
use cp_place::detailed::{refine, DetailedOptions};
use cp_place::solver::{Axis, B2bSystem};
use cp_place::spreading::{spread_soa, SpreadScratch};
use cp_place::{legalize, GlobalPlacer, PlacementProblem, PlacementSoa, PlacerOptions};
use cp_route::{route_placed_netlist, RouterOptions};
use cp_timing::activity::propagate_activity;
use cp_timing::power::power_report;
use cp_timing::sta::Sta;
use cp_timing::wire::WireModel;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A design lowered, placed and solved once more without anchors: the
/// overlap-heavy lower bound the spreader sees inside the placer loop.
struct PlacedDesign {
    problem: PlacementProblem,
    placed: Vec<(f64, f64)>,
    lower_bound: Vec<(f64, f64)>,
}

impl PlacedDesign {
    fn new(bench: &Bench, fp: &Floorplan) -> Self {
        let problem = PlacementProblem::from_netlist(&bench.netlist, fp);
        let placed = GlobalPlacer::new(PlacerOptions::default())
            .place(&problem)
            .expect("placement runs")
            .positions;
        let solve = |axis: Axis| {
            let start: Vec<f64> = placed
                .iter()
                .map(|p| if axis == Axis::X { p.0 } else { p.1 })
                .collect();
            B2bSystem::build(&problem, &placed, axis, None).solve(&start, 30, 1e-6)
        };
        let lower_bound = solve(Axis::X)
            .into_iter()
            .zip(solve(Axis::Y))
            .map(|(x, y)| fp.core.clamp(x, y))
            .collect();
        Self {
            problem,
            placed,
            lower_bound,
        }
    }

    /// One legalization of the placed design (the copy of the placement is
    /// timed with it: 0.1 ms of 18 at 53k cells).
    fn bench_legalize(&self, fp: &Floorplan, bench: &mut criterion::Bencher) {
        bench.iter(|| {
            let mut positions = self.placed.clone();
            black_box(legalize(&self.problem, fp, &mut positions).expect("legalization runs"))
        })
    }

    /// One spreading pass over the lower bound on warm buffers.
    fn bench_spread(&self, bench: &mut criterion::Bencher) {
        let soa = PlacementSoa::from_problem(&self.problem);
        let mut scratch = SpreadScratch::default();
        let mut out = Vec::new();
        bench.iter(|| {
            spread_soa(
                &self.problem,
                &soa,
                &self.lower_bound,
                &mut scratch,
                &mut out,
            );
            black_box(out.len())
        })
    }
}

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
    // Full-scale Jpeg at 60% utilisation, for the kernels whose cost the
    // 1/64-scale design above does not show.
    let big = Bench::generate_at(DesignProfile::Jpeg, 1.0);
    let big_fp = Floorplan::for_netlist(&big.netlist, 0.6, 1.0);
    let big_design = PlacedDesign::new(&big, &big_fp);
    group.bench_function("global_route_congested", |bench| {
        // A fifth of the segments overflow both L-shapes and take the
        // maze (the small design never does).
        let mut positions = big_design.placed.clone();
        positions.extend_from_slice(&big_fp.port_positions);
        let route = || {
            route_placed_netlist(&big.netlist, &positions, &big_fp, &RouterOptions::default())
                .expect("routing runs")
        };
        assert!(route().mazed_segments > 0, "the congested case must maze");
        bench.iter(|| black_box(route().wirelength))
    });
    group.bench_function("spmv", |bench| {
        // One product with the X-axis B2B matrix of the placed design.
        let sys = B2bSystem::build(&big_design.problem, &big_design.placed, Axis::X, None);
        let x: Vec<f64> = big_design.placed.iter().map(|p| p.0).collect();
        let mut out = vec![0.0; sys.len()];
        bench.iter(|| {
            sys.apply_into(&x, &mut out);
            black_box(out[0])
        })
    });
    group.bench_function("spread", |bench| big_design.bench_spread(bench));
    group.bench_function("activity", |bench| {
        bench.iter(|| black_box(propagate_activity(&big.netlist, &big.constraints).density))
    });
    group.bench_function("legalize", |bench| {
        big_design.bench_legalize(&big_fp, bench)
    });
    group.bench_function("legalize_blocked", |bench| {
        // Three macro blockages over a quarter of the core: two thirds of
        // the rows have up to four free segments, so the per-segment
        // fallback runs.
        let aes = Bench::generate_at(DesignProfile::Aes, 1.0);
        let fp = Floorplan::for_netlist(&aes.netlist, 0.6, 1.0).with_macro_blockages(3, 0.25);
        PlacedDesign::new(&aes, &fp).bench_legalize(&fp, bench)
    });
    group.bench_function("refine", |bench| {
        let mut legal = big_design.placed.clone();
        legalize(&big_design.problem, &big_fp, &mut legal).expect("legalization runs");
        bench.iter(|| {
            let mut positions = legal.clone();
            black_box(refine(
                &big_design.problem,
                &big_fp,
                &mut positions,
                &DetailedOptions::default(),
            ))
        })
    });
    group.bench_function("spread_500", |bench| {
        // The size of one V-P&R candidate evaluation.
        let small = Bench::generate_at(DesignProfile::Jpeg, 0.0094);
        let fp = Floorplan::for_netlist(&small.netlist, 0.6, 1.0);
        PlacedDesign::new(&small, &fp).bench_spread(bench)
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
