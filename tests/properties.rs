//! Property-based tests (proptest) over the core data structures and
//! algorithms: invariants that must hold for *any* input, not just the
//! crafted unit-test cases.

use cp_core::cluster::rent::weighted_average_rent;
use cp_graph::community::{compact_labels, louvain, modularity};
use cp_graph::{connectivity, metrics, traversal, Graph, Hypergraph};
use cp_netlist::floorplan::Rect;
use cp_place::hpwl::raw_hpwl;
use cp_place::problem::{Object, PlacementProblem};
use cp_place::spreading::{density_overflow_soa, spread_soa, SpreadScratch};
use cp_place::PlacementSoa;
use cp_route::{route_nets, CongestionMap};
use proptest::prelude::*;

/// A random undirected graph as an edge list over `n` vertices.
fn arb_graph(max_n: usize, max_e: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32, 0.1f64..4.0), 0..max_e);
        edges.prop_map(move |e| (n, e))
    })
}

/// A random hypergraph.
fn arb_hypergraph(max_n: usize) -> impl Strategy<Value = Hypergraph> {
    (3..max_n).prop_flat_map(move |n| {
        prop::collection::vec(
            (prop::collection::vec(0..n as u32, 1..6), 0.1f64..4.0),
            1..24,
        )
        .prop_map(move |edges| Hypergraph::new(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bfs_distances_satisfy_triangle_inequality((n, edges) in arb_graph(24, 48)) {
        let g = Graph::from_edges(n, &edges);
        let d0 = traversal::bfs_distances(&g, 0);
        for (u, v, _) in g.edges() {
            let (du, dv) = (d0[u as usize], d0[v as usize]);
            if du != traversal::UNREACHABLE && dv != traversal::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1, "adjacent nodes differ by >1 hop");
            }
        }
    }

    #[test]
    fn connected_components_partition((n, edges) in arb_graph(24, 48)) {
        let g = Graph::from_edges(n, &edges);
        let (labels, count) = traversal::connected_components(&g);
        prop_assert_eq!(labels.len(), n);
        prop_assert!(labels.iter().all(|&l| (l as usize) < count));
        // Adjacent vertices always share a component.
        for (u, v, _) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
    }

    #[test]
    fn modularity_is_bounded((n, edges) in arb_graph(20, 40)) {
        let g = Graph::from_edges(n, &edges);
        let (labels, q) = louvain(&g, 1);
        prop_assert_eq!(labels.len(), n);
        prop_assert!((-1.0..=1.0).contains(&q), "modularity {} out of range", q);
        // Louvain's result is at least as good as all-singletons.
        let singles: Vec<u32> = (0..n as u32).collect();
        prop_assert!(q >= modularity(&g, &singles) - 1e-9);
    }

    #[test]
    fn compact_labels_is_idempotent(labels in prop::collection::vec(0u32..50, 1..64)) {
        let mut a = labels.clone();
        let k1 = compact_labels(&mut a);
        let mut b = a.clone();
        let k2 = compact_labels(&mut b);
        prop_assert_eq!(k1, k2);
        prop_assert_eq!(a, b);
        prop_assert!(k1 <= labels.len());
    }

    #[test]
    fn min_cut_never_exceeds_min_weighted_degree((n, edges) in arb_graph(12, 30)) {
        let g = Graph::from_edges(n, &edges);
        if traversal::connected_components(&g).1 <= 1 {
            let cut = connectivity::min_cut(&g);
            let min_deg = (0..n as u32)
                .map(|v| g.weighted_degree(v) + g.edge_weight(v, v).unwrap_or(0.0))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(cut <= min_deg + 1e-9, "cut {} > min degree {}", cut, min_deg);
        }
    }

    #[test]
    fn greedy_coloring_is_proper((n, edges) in arb_graph(24, 60)) {
        let g = Graph::from_edges(n, &edges);
        let (colors, k) = metrics::greedy_coloring(&g);
        prop_assert!(k <= n);
        for (u, v, _) in g.edges() {
            if u != v {
                prop_assert_ne!(colors[u as usize], colors[v as usize]);
            }
        }
    }

    #[test]
    fn clique_expansion_preserves_reachability(hg in arb_hypergraph(16)) {
        let g = hg.bounded_clique_expansion(usize::MAX);
        prop_assert_eq!(g.node_count(), hg.vertex_count());
        // Vertices sharing a hyperedge are adjacent in the expansion.
        for e in 0..hg.edge_count() as u32 {
            let verts = hg.edge(e);
            for w in verts.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn rent_exponent_is_finite(hg in arb_hypergraph(16)) {
        let n = hg.vertex_count();
        let labels: Vec<u32> = (0..n as u32).map(|v| v % 3).collect();
        let r = weighted_average_rent(&hg, &labels, 3);
        prop_assert!(r.is_finite());
    }

    #[test]
    fn spreading_stays_in_core_and_lowers_overflow(
        positions in prop::collection::vec((0.0f64..20.0, 0.0f64..20.0), 8..64)
    ) {
        let n = positions.len();
        let problem = PlacementProblem {
            movable: vec![Object { width: 1.0, height: 1.0 }; n].into(),
            fixed: vec![],
            hypergraph: Hypergraph::new(n, vec![]).into(),
            net_weights: vec![],
            core: Rect::new(0.0, 0.0, 100.0, 100.0),
            region: vec![None; n],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.5,
        };
        let soa = PlacementSoa::from_problem(&problem);
        let (xs, ys): (Vec<f64>, Vec<f64>) = positions.iter().copied().unzip();
        let mut out = Vec::new();
        spread_soa(&problem, &soa, &xs, &ys, SpreadScratch::default().arenas(), &mut out);
        for &(x, y) in &out {
            prop_assert!(problem.core.contains(x, y));
        }
        let before = density_overflow_soa(&problem, &soa, &positions);
        let after = density_overflow_soa(&problem, &soa, &out);
        prop_assert!(after <= before + 1e-9, "overflow rose: {} -> {}", before, after);
    }

    #[test]
    fn hpwl_is_translation_invariant(
        positions in prop::collection::vec((0.0f64..50.0, 0.0f64..50.0), 4..32),
        dx in -10.0f64..10.0,
        dy in -10.0f64..10.0,
    ) {
        let n = positions.len();
        let mut edges = Vec::new();
        for i in 0..(n as u32).saturating_sub(1) {
            edges.push((vec![i, i + 1], 1.0));
        }
        let problem = PlacementProblem {
            movable: vec![Object { width: 1.0, height: 1.0 }; n].into(),
            fixed: vec![],
            hypergraph: Hypergraph::new(n, edges).into(),
            net_weights: vec![1.0; n.saturating_sub(1)],
            core: Rect::new(-100.0, -100.0, 300.0, 300.0),
            region: vec![None; n],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.5,
        };
        let base = raw_hpwl(&problem, &positions);
        let moved: Vec<(f64, f64)> = positions.iter().map(|&(x, y)| (x + dx, y + dy)).collect();
        let shifted = raw_hpwl(&problem, &moved);
        prop_assert!((base - shifted).abs() < 1e-6 * (1.0 + base));
    }

    #[test]
    fn router_wirelength_lower_bounded_by_grid_hpwl(
        pins in prop::collection::vec((0.0f64..99.0, 0.0f64..99.0), 2..8)
    ) {
        let nets = vec![pins.clone()];
        let grid = CongestionMap::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0, 30.0);
        let r = route_nets(&nets, grid).expect("finite pins route");
        // Grid-quantized HPWL of the pins is a lower bound on routed WL.
        let gc = |v: f64| (v / 10.0) as i64;
        let (mut lx, mut ly, mut hx, mut hy) = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
        for &(x, y) in &pins {
            lx = lx.min(gc(x));
            ly = ly.min(gc(y));
            hx = hx.max(gc(x));
            hy = hy.max(gc(y));
        }
        let grid_hpwl = ((hx - lx) + (hy - ly)) as f64 * 10.0;
        prop_assert!(r.wirelength >= grid_hpwl - 1e-9,
            "routed {} below grid HPWL {}", r.wirelength, grid_hpwl);
    }
}

// ---------------------------------------------------------------------------
// Netlist / timing / flow properties over randomized generated designs.
// ---------------------------------------------------------------------------

use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::{Floorplan, Library};
use cp_place::detailed::{refine, DetailedOptions};
use cp_place::{legalize, GlobalPlacer, PlacerOptions};
use cp_timing::activity::propagate_activity;
use cp_timing::sta::Sta;
use cp_timing::wire::WireModel;

fn profile_from_index(i: u8) -> DesignProfile {
    DesignProfile::ALL[i as usize % DesignProfile::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn slack_improves_with_a_longer_clock_period(seed in 0u64..1000) {
        let (n, mut c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(1.0 / 256.0)
            .seed(seed)
            .generate_with_constraints();
        let tight = Sta::new(&n, &c).expect("acyclic netlist").run(&WireModel::Estimate);
        c.clock_period *= 2.0;
        let relaxed = Sta::new(&n, &c).expect("acyclic netlist").run(&WireModel::Estimate);
        prop_assert!(relaxed.wns >= tight.wns - 1e-9);
        prop_assert!(relaxed.tns >= tight.tns - 1e-9);
    }

    #[test]
    fn activity_is_always_bounded(pi in 0u8..6, seed in 0u64..1000) {
        let (n, c) = GeneratorConfig::from_profile(profile_from_index(pi))
            .scale(1.0 / 512.0)
            .seed(seed)
            .generate_with_constraints();
        let act = propagate_activity(&n, &c);
        for (&p, &d) in act.probability.iter().zip(&act.density) {
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!((0.0..=4.0).contains(&d));
        }
    }

    #[test]
    fn legalize_then_refine_preserves_legality(seed in 0u64..500) {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(1.0 / 256.0)
            .seed(seed)
            .generate();
        let fp = Floorplan::try_for_netlist(&n, 0.55, 1.0).expect("valid geometry");
        let p = PlacementProblem::from_netlist(&n, &fp);
        let mut r = GlobalPlacer::new(PlacerOptions {
            max_iterations: 6,
            cg_iterations: 20,
            ..Default::default()
        })
        .place(&p)
        .expect("global placement runs");
        legalize(&p, &fp, &mut r.positions).expect("legalization runs");
        refine(&p, &fp, &mut r.positions, &DetailedOptions);
        // Legal rows, in core, no overlaps.
        let mut by_row: std::collections::HashMap<i64, Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for (i, &(x, y)) in r.positions.iter().enumerate() {
            let off = (y - fp.core.lly) / fp.row_height;
            prop_assert!((off - off.round()).abs() < 1e-6);
            prop_assert!(x >= fp.core.llx - 1e-6);
            prop_assert!(x + p.movable[i].width <= fp.core.urx + 1e-6);
            by_row
                .entry(off.round() as i64)
                .or_default()
                .push((x, x + p.movable[i].width));
        }
        for (_, mut spans) in by_row {
            spans.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0 + 1e-6, "overlap {:?}", w);
            }
        }
    }

    #[test]
    fn subnetlist_extraction_is_total(seed in 0u64..500, take in 10usize..60) {
        let n = GeneratorConfig::from_profile(DesignProfile::Jpeg)
            .scale(1.0 / 512.0)
            .seed(seed)
            .generate();
        let take = take.min(n.cell_count());
        let cells: Vec<cp_netlist::CellId> =
            (0..take as u32).map(cp_netlist::CellId).collect();
        let sub = cp_core::vpr::extract_subnetlist(&n, &cells).expect("valid sub-netlist");
        prop_assert_eq!(sub.cell_count(), take);
        // Every sub-net's pins stay within the sub-netlist.
        for net in sub.nets() {
            prop_assert!(net.pin_count() >= 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Degenerate inputs: every flow entry point must surface a typed error —
// never a panic — and injected numerical faults must be recovered with a
// diagnostics trail (robustness properties).
// ---------------------------------------------------------------------------

use cp_core::flow::{run_default_flow, run_flow, FlowOptions};
use cp_core::{FlowError, RecoveryEvent};
use cp_netlist::netlist::NetlistBuilder;
use cp_netlist::{Constraints, HierTree, ValidationError};

#[test]
fn empty_netlist_is_a_typed_error() {
    let n = NetlistBuilder::new("empty", Library::nangate45ish())
        .finish()
        .expect("an empty builder still builds");
    let c = Constraints::default();
    for r in [
        run_default_flow(&n, &c, &FlowOptions::fast()),
        run_flow(&n, &c, &FlowOptions::fast()),
    ] {
        let err = r.expect_err("no cells to place");
        assert!(matches!(
            err,
            FlowError::Validation(ValidationError::EmptyNetlist)
        ));
    }
}

#[test]
fn single_cell_netlist_is_a_typed_error() {
    let lib = Library::nangate45ish();
    let inv = lib.find("INV_X1").expect("library cell");
    let mut b = NetlistBuilder::new("lonely", lib);
    b.add_cell("u0", inv, HierTree::ROOT);
    let n = b.finish().expect("one floating cell is structurally fine");
    let err = run_flow(&n, &Constraints::default(), &FlowOptions::fast())
        .expect_err("a netless cell gives the placer nothing to optimize");
    assert!(matches!(
        err,
        FlowError::Validation(ValidationError::NoNets)
    ));
}

#[test]
fn all_fixed_problem_places_without_panicking() {
    // Every cell pre-placed (zero movables) is a legal if pointless input:
    // the placer must return an empty, converged result rather than divide
    // by the movable count.
    let problem = PlacementProblem {
        movable: vec![].into(),
        fixed: vec![(1.0, 1.0), (9.0, 9.0)],
        hypergraph: Hypergraph::new(0, vec![]).into(),
        net_weights: vec![],
        core: Rect::new(0.0, 0.0, 10.0, 10.0),
        region: vec![],
        seed_positions: None,
        blockages: Vec::new(),
        density_target: 0.5,
    };
    let r = GlobalPlacer::new(PlacerOptions::default())
        .place(&problem)
        .expect("an all-fixed problem is trivially solved");
    assert!(r.positions.is_empty());
    assert_eq!(r.hpwl, 0.0);
    assert!(!r.diverged);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn out_of_range_utilization_is_a_typed_error(
        seed in 0u64..100,
        excess in 0.0001f64..10.0,
    ) {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(1.0 / 512.0)
            .seed(seed)
            .generate_with_constraints();
        for util in [1.0 + excess, -excess, 0.0] {
            let opts = FlowOptions {
                utilization: util,
                ..FlowOptions::fast()
            };
            let err = run_default_flow(&n, &c, &opts).expect_err("utilization outside (0, 1]");
            prop_assert!(matches!(
                err,
                FlowError::Validation(ValidationError::UtilizationOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn zero_area_floorplan_is_a_typed_error(
        seed in 0u64..100,
        bad in 0.0001f64..4.0,
    ) {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(1.0 / 512.0)
            .seed(seed)
            .generate_with_constraints();
        // A zero, negative or non-finite aspect ratio all collapse the core
        // to a degenerate (zero-area) floorplan.
        for aspect in [0.0, -bad, f64::NAN] {
            let opts = FlowOptions {
                aspect_ratio: aspect,
                ..FlowOptions::fast()
            };
            let err = run_default_flow(&n, &c, &opts).expect_err("core must have positive area");
            prop_assert!(matches!(
                err,
                FlowError::Validation(ValidationError::AspectRatioOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn injected_nan_is_reverted_and_reported(seed in 0u64..50, fault in 1usize..6) {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(1.0 / 256.0)
            .seed(seed)
            .generate_with_constraints();
        let mut opts = FlowOptions::fast();
        opts.placer.fault_nan_at_iteration = Some(fault);
        let report = run_default_flow(&n, &c, &opts).expect("divergence must be recovered");
        prop_assert!(report.hpwl.is_finite() && report.hpwl > 0.0);
        prop_assert!(!report.diagnostics.is_clean());
        prop_assert!(report
            .diagnostics
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::PlacerReverted { .. })));
    }
}
