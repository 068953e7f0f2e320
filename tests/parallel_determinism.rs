//! Determinism across thread counts: every metric the flow reports must
//! be bit-identical whether the parallel layer runs on one thread
//! (`CP_THREADS=1`, exact sequential path) or many. `with_threads`
//! overrides the budget per scope, so both paths run in one process.

use cp_core::flow::{run_flow, FlowOptions, ShapeMode};
use cp_core::vpr::{best_shape, VprOptions};
use cp_core::ClusteringOptions;
use cp_gnn::tensor::Matrix;
use cp_graph::Hypergraph;
use cp_netlist::floorplan::Rect;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::{CellId, Floorplan};
use cp_place::hpwl::raw_hpwl;
use cp_place::problem::{Object, PlacementProblem};
use cp_place::solver::{Axis, B2bSystem};
use cp_place::spreading::density_overflow_soa;
use cp_place::{GlobalPlacer, PlacementSoa, PlacerOptions};
use cp_route::{route_nets, RouterOptions};
use proptest::prelude::*;

fn opts() -> FlowOptions {
    FlowOptions {
        clustering: ClusteringOptions {
            avg_cluster_size: 50,
            path_count: 1000,
            ..Default::default()
        },
        vpr_min_instances: 60,
        ..Default::default()
    }
}

#[test]
fn flow_metrics_are_thread_count_invariant() {
    let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 128.0)
        .seed(7)
        .generate_with_constraints();
    let o = opts().shape_mode(ShapeMode::Vpr);
    let seq = cp_parallel::with_threads(1, || run_flow(&n, &c, &o).expect("flow runs"));
    let par = cp_parallel::with_threads(4, || run_flow(&n, &c, &o).expect("flow runs"));
    assert_eq!(seq.hpwl.to_bits(), par.hpwl.to_bits());
    assert_eq!(seq.ppa, par.ppa);
    assert_eq!(seq.cluster_count, par.cluster_count);
    assert_eq!(seq.diagnostics, par.diagnostics);
    assert_eq!(seq.timings.threads, 1);
    assert_eq!(par.timings.threads, 4);
}

#[test]
fn vpr_sweep_is_thread_count_invariant() {
    let n = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(0.02)
        .seed(12)
        .generate();
    let cells: Vec<CellId> = (0..220).map(CellId).collect();
    let sub = cp_core::vpr::extract_subnetlist(&n, &cells).expect("valid sub-netlist");
    let v = VprOptions::default();
    let (shape1, costs1) =
        cp_parallel::with_threads(1, || best_shape(&sub, &v).expect("sweep runs"));
    let (shape4, costs4) =
        cp_parallel::with_threads(4, || best_shape(&sub, &v).expect("sweep runs"));
    assert_eq!(shape1, shape4);
    assert_eq!(costs1, costs4);
}

/// The router's working storage belongs to each call: the same congested
/// net list routed from four pool workers at once gives four results equal
/// to the one routed alone.
#[test]
fn concurrent_mazed_routes_match_the_serial_route() {
    let region = Rect::new(0.0, 0.0, 200.0, 200.0);
    let opts = RouterOptions {
        gcell_size: 10.0,
        tracks_per_layer: 2,
        layers_per_direction: 1,
        ..Default::default()
    };
    // Twelve nets per corridor on capacity-2 edges: most of them maze.
    let nets: Vec<Vec<(f64, f64)>> = (0..36)
        .map(|k| {
            let y = 45.0 + 50.0 * (k % 3) as f64;
            vec![
                (5.0 + (k % 4) as f64 * 10.0, y),
                (195.0, y + (k % 2) as f64 * 10.0),
            ]
        })
        .collect();
    let alone = route_nets(&nets, region, &opts).expect("routable");
    assert!(
        alone.mazed_segments > 0,
        "the net list must exercise the maze"
    );
    let together = cp_parallel::with_threads(4, || {
        cp_parallel::par_map(&[(); 8], 1, |()| {
            route_nets(&nets, region, &opts).expect("routable")
        })
    });
    for routed in &together {
        assert_eq!(routed, &alone);
    }
}

/// Above 1,024 movables the placer solves the X and Y lower bounds as two
/// pool tasks on half the thread budget each; up to there, back to back
/// on the caller's. On either side of that cutoff, and past the
/// 4,096-cell one where spreading hands bisection halves to the pool, the
/// placement is the one-thread placement, bit for bit.
#[test]
fn axis_parallel_lower_bound_matches_the_serial_one() {
    for (scale, axis_tasks, spread_tasks) in [
        (0.062, false, false),
        (0.064, true, false),
        (0.3, true, true),
    ] {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(scale)
            .seed(3)
            .generate();
        let cells = n.cell_count();
        assert_eq!(cells > 1024, axis_tasks, "{cells} cells");
        assert_eq!(cells >= 4096, spread_tasks, "{cells} cells");
        let fp = Floorplan::for_netlist(&n, 0.6, 1.0);
        let problem = PlacementProblem::from_netlist(&n, &fp);
        let placer = GlobalPlacer::new(PlacerOptions {
            max_iterations: 4,
            cg_iterations: 12,
            ..Default::default()
        });
        let place = |threads: usize| {
            cp_parallel::with_threads(threads, || placer.place(&problem).expect("placement runs"))
        };
        let serial = place(1);
        for threads in [2usize, 4, 8] {
            let parallel = place(threads);
            assert_eq!(serial.positions, parallel.positions, "threads = {threads}");
            assert_eq!(serial.hpwl.to_bits(), parallel.hpwl.to_bits());
            assert_eq!(serial.overflow.to_bits(), parallel.overflow.to_bits());
        }
    }
}

/// A small random placement problem with positions.
fn arb_problem() -> impl Strategy<Value = (PlacementProblem, Vec<(f64, f64)>)> {
    (4usize..40).prop_flat_map(|m| {
        let positions = prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), m);
        let edges = prop::collection::vec(
            (prop::collection::vec(0..m as u32, 2..5), 0.5f64..2.0),
            1..40,
        );
        (positions, edges).prop_map(move |(pos, edges)| {
            let weights: Vec<f64> = edges.iter().map(|(_, w)| *w).collect();
            let problem = PlacementProblem {
                movable: vec![
                    Object {
                        width: 1.0,
                        height: 1.0
                    };
                    m
                ],
                fixed: vec![],
                hypergraph: Hypergraph::new(m, edges).into(),
                net_weights: weights,
                core: Rect::new(0.0, 0.0, 100.0, 100.0),
                region: vec![None; m],
                seed_positions: None,
                blockages: Vec::new(),
                density_target: 0.7,
            };
            (problem, pos)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hpwl_bits_match_across_threads((p, pos) in arb_problem()) {
        let seq = cp_parallel::with_threads(1, || raw_hpwl(&p, &pos));
        for t in [2usize, 4, 8] {
            let par = cp_parallel::with_threads(t, || raw_hpwl(&p, &pos));
            prop_assert_eq!(seq.to_bits(), par.to_bits());
        }
    }

    #[test]
    fn solver_bits_match_across_threads((p, pos) in arb_problem()) {
        let x0: Vec<f64> = pos.iter().map(|&(x, _)| x).collect();
        let seq = cp_parallel::with_threads(1, || {
            B2bSystem::build(&p, &pos, Axis::X, None).solve(&x0, 40, 1e-9)
        });
        let par = cp_parallel::with_threads(4, || {
            B2bSystem::build(&p, &pos, Axis::X, None).solve(&x0, 40, 1e-9)
        });
        for (a, b) in seq.iter().zip(&par) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn density_bits_match_across_threads((p, pos) in arb_problem()) {
        let soa = PlacementSoa::from_problem(&p);
        let seq = cp_parallel::with_threads(1, || density_overflow_soa(&p, &soa, &pos));
        let par = cp_parallel::with_threads(4, || density_overflow_soa(&p, &soa, &pos));
        prop_assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    fn matmul_bits_match_across_threads(seed in 0u64..1000) {
        let a = Matrix::from_fn(31, 17, |r, c| {
            ((r as u64 * 131 + c as u64 * 29 + seed) % 251) as f64 * 0.017 - 1.3
        });
        let b = Matrix::from_fn(17, 13, |r, c| {
            ((r as u64 * 53 + c as u64 * 97 + seed) % 241) as f64 * 0.011 - 0.7
        });
        let seq = cp_parallel::with_threads(1, || (a.matmul(&b), a.matmul_tn(&a), a.matmul_nt(&a)));
        let par = cp_parallel::with_threads(8, || (a.matmul(&b), a.matmul_tn(&a), a.matmul_nt(&a)));
        prop_assert_eq!(seq, par);
    }
}
