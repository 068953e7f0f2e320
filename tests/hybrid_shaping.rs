//! Cross-crate tests for `ShapeMode::Hybrid`: with `top_k = 20` the
//! hybrid search degenerates to the exact 20-candidate sweep (bitwise
//! identical flow result); with `top_k < 20` it must still produce
//! finite, legal flows while provably skipping exact work. The two
//! surrogate-backed modes (`VprMl`, and `Hybrid` ranked by a trained
//! selector) run end to end on a tiny in-test model.

use cp_core::flow::{run_flow, FlowOptions, ShapeMode};
use cp_core::vpr::ml::{generate_dataset, DatasetConfig, MlShapeSelector};
use cp_core::vpr::{best_shape, best_shape_hybrid, VprOptions};
use cp_core::ClusteringOptions;
use cp_gnn::train::TrainOptions;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::netlist::Netlist;
use cp_netlist::Constraints;
use proptest::prelude::*;

fn setup() -> (Netlist, Constraints) {
    GeneratorConfig::from_profile(DesignProfile::Jpeg)
        .scale(1.0 / 128.0)
        .seed(71)
        .generate_with_constraints()
}

fn options() -> FlowOptions {
    FlowOptions {
        clustering: ClusteringOptions {
            avg_cluster_size: 60,
            path_count: 2000,
            ..Default::default()
        },
        vpr_min_instances: 50,
        ..Default::default()
    }
}

fn small_sub(seed: u64) -> Netlist {
    GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(0.02)
        .seed(seed)
        .generate()
}

#[test]
fn hybrid_top20_matches_exact_sweep_bitwise() {
    let (n, c) = setup();
    let exact = run_flow(&n, &c, &options().shape_mode(ShapeMode::Vpr)).expect("vpr flow runs");
    let hybrid = run_flow(
        &n,
        &c,
        &options().shape_mode(ShapeMode::Hybrid {
            selector: None,
            top_k: 20,
        }),
    )
    .expect("hybrid flow runs");
    // With every candidate surviving, the hybrid runs the same cold
    // evaluations as the sweep and must pick identical shapes, so the
    // whole downstream flow is bit-for-bit the same.
    assert_eq!(exact.hpwl.to_bits(), hybrid.hpwl.to_bits());
    assert_eq!(exact.ppa, hybrid.ppa);
    assert_eq!(hybrid.shaping.exact_evals_avoided, 0);
    assert_eq!(
        hybrid.shaping.exact_evals,
        20 * hybrid.shaping.clusters_shaped
    );
}

#[test]
fn hybrid_pruned_flow_is_finite_and_skips_exact_work() {
    let (n, c) = setup();
    let report = run_flow(
        &n,
        &c,
        &options().shape_mode(ShapeMode::Hybrid {
            selector: None,
            top_k: 4,
        }),
    )
    .expect("hybrid flow runs");
    assert!(report.hpwl.is_finite() && report.hpwl > 0.0);
    assert!(report.ppa.rwl > 0.0);
    assert!(report.ppa.wns.is_finite());
    let s = report.shaping;
    assert!(s.clusters_shaped > 0);
    assert!(s.exact_evals < 20 * s.clusters_shaped);
    assert!(s.exact_evals_avoided > 0);
    assert_eq!(s.proxy_evals, 20 * s.clusters_shaped);
    // top_k = 4 gives a screening round, so warm starts must engage.
    assert!(s.warm_start_hits > 0);
}

#[test]
fn surrogate_backed_modes_run_the_flow_thread_invariantly() {
    let (n, c) = setup();
    let base = options();
    // Minimal training effort: the test is about the flow around the
    // surrogate, not about its accuracy.
    let dataset = generate_dataset(
        &n,
        &c,
        &DatasetConfig {
            configs: 1,
            min_cells: base.vpr_min_instances,
            max_clusters_per_config: 2,
            base: ClusteringOptions {
                seed: 41,
                ..base.clustering
            },
            vpr: base.vpr,
            seed: 31,
        },
    )
    .expect("dataset generates");
    let train = TrainOptions {
        epochs: 3,
        ..Default::default()
    };
    let (selector, _) = MlShapeSelector::train(&dataset, &train, 13);
    let modes = [
        ShapeMode::VprMl(Box::new(selector.clone())),
        ShapeMode::Hybrid {
            selector: Some(Box::new(selector)),
            top_k: 4,
        },
    ];
    for mode in modes {
        let opts = base.clone().shape_mode(mode);
        let run = |threads| {
            cp_parallel::with_threads(threads, || run_flow(&n, &c, &opts)).expect("flow runs")
        };
        let report = run(1);
        assert!(report.hpwl.is_finite() && report.hpwl > 0.0);
        assert!(report.ppa.rwl > 0.0 && report.ppa.wns.is_finite() && report.ppa.tns.is_finite());
        let s = report.shaping;
        assert!(s.clusters_shaped > 0);
        assert_eq!(s.surrogate_batches, s.clusters_shaped);
        assert_eq!(s.surrogate_samples, 20 * s.clusters_shaped);
        match opts.shape_mode {
            ShapeMode::VprMl(_) => assert_eq!(s.exact_evals, 0),
            _ => assert!(0 < s.exact_evals && s.exact_evals < 20 * s.clusters_shaped),
        }
        assert!(
            report.deterministic_eq(&run(4)),
            "1 vs 4 threads disagree under {:?}",
            std::mem::discriminant(&opts.shape_mode)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any `top_k` (and any small netlist) yields a valid candidate
    /// shape with finite positive costs, never more exact evaluations
    /// than the sweep, and — whenever the ranking's top pick wins —
    /// the same shape the exact sweep selects.
    #[test]
    fn hybrid_is_finite_and_bounded_for_any_top_k(seed in 0u64..500, top_k in 1usize..=20) {
        let sub = small_sub(seed);
        let opts = VprOptions::default();
        let (shape, costs, stats) =
            best_shape_hybrid(&sub, &opts, top_k, None).expect("hybrid search runs");
        prop_assert!(shape.aspect_ratio > 0.0 && shape.utilization > 0.0);
        prop_assert!(!costs.is_empty());
        for c in &costs {
            prop_assert!(c.total.is_finite() && c.total > 0.0);
        }
        // Halving rounds sum to < 2·top_k evaluations, plus at most one
        // champion re-add per cut (top_k <= 20 means at most 5 cuts).
        prop_assert!(stats.exact_evals <= 2 * top_k + 5);
        prop_assert_eq!(stats.exact_evals_avoided, 20 - top_k.min(20));
        if top_k >= 20 {
            let (exact, _) = best_shape(&sub, &opts).expect("exact sweep runs");
            prop_assert_eq!(shape, exact);
        }
    }
}
