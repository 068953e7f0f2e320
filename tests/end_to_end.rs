//! Cross-crate integration tests: the full Algorithm 1 pipeline against
//! the flat baseline, on a scaled `jpeg` profile.

use cp_core::baselines::{leiden_assignment, louvain_assignment, mfc_assignment};
use cp_core::flow::{
    run_default_flow, run_flow, run_flow_with_assignment, FlowOptions, ShapeMode, Tool,
};
use cp_core::ClusteringOptions;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::netlist::Netlist;
use cp_netlist::Constraints;

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

#[test]
fn clustered_flow_matches_flat_quality() {
    let (n, c) = setup();
    let opts = options();
    let flat = run_default_flow(&n, &c, &opts).expect("flat flow runs");
    let ours = run_flow(&n, &c, &opts).expect("clustered flow runs");
    // Table 2's claim shape: similar HPWL.
    let ratio = ours.hpwl / flat.hpwl;
    assert!(
        (0.75..=1.30).contains(&ratio),
        "HPWL ratio {ratio} (flat {}, ours {})",
        flat.hpwl,
        ours.hpwl
    );
    // Both produce complete PPA reports.
    for r in [&flat, &ours] {
        assert!(r.ppa.rwl > 0.0);
        assert!(r.ppa.power > 0.0);
        assert!(r.ppa.tns <= 0.0);
        assert!(r.ppa.wns.is_finite());
    }
}

#[test]
fn seeded_placement_is_faster_than_flat() {
    let (n, c) = setup();
    let opts = options();
    let flat = run_default_flow(&n, &c, &opts).expect("flat flow runs");
    let ours = run_flow(&n, &c, &opts).expect("clustered flow runs");
    // The paper's headline: clustering + seeded placement beats flat
    // placement runtime. Allow slack for timer noise at this small scale.
    let ours_cpu = ours.clustering_runtime + ours.placement_runtime;
    assert!(
        ours_cpu < flat.placement_runtime * 1.6,
        "seeded {ours_cpu:.2}s vs flat {:.2}s",
        flat.placement_runtime
    );
}

#[test]
fn innovus_mode_runs_with_all_shape_modes() {
    let (n, c) = setup();
    for mode in [ShapeMode::Uniform, ShapeMode::Random, ShapeMode::Vpr] {
        let opts = options().tool(Tool::InnovusLike).shape_mode(mode);
        let r = run_flow(&n, &c, &opts).expect("clustered flow runs");
        assert!(r.cluster_count > 1);
        assert!(r.ppa.rwl > 0.0);
    }
}

#[test]
fn baseline_flows_are_comparable() {
    let (n, c) = setup();
    let opts = options();
    let flat = run_default_flow(&n, &c, &opts).expect("flat flow runs");
    let seed = opts.clustering.seed;
    for (name, (assignment, secs)) in [
        ("blob", louvain_assignment(&n, seed)),
        ("leiden", leiden_assignment(&n, seed)),
        ("mfc", mfc_assignment(&n, &opts.clustering)),
    ] {
        let r = run_flow_with_assignment(&n, &c, &assignment, secs, &opts)
            .expect("comparator flow runs");
        let ratio = r.hpwl / flat.hpwl;
        assert!(
            (0.6..=1.8).contains(&ratio),
            "{name} HPWL ratio {ratio} out of band"
        );
    }
}

#[test]
fn ppa_aware_clustering_is_no_worse_than_mfc_on_tns() {
    // Table 5's direction: PPA-aware clustering should not lose badly to
    // the pure-connectivity MFC on timing. (Exact orderings vary with the
    // synthetic design; the band is deliberately loose.)
    let (n, c) = setup();
    let opts = options();
    let ours = run_flow(&n, &c, &opts).expect("clustered flow runs");
    let (assignment, secs) = mfc_assignment(&n, &opts.clustering);
    let mfc = run_flow_with_assignment(&n, &c, &assignment, secs, &opts).expect("mfc flow runs");
    let ours_tns = ours.ppa.tns.abs();
    let mfc_tns = mfc.ppa.tns.abs();
    assert!(
        ours_tns <= mfc_tns * 2.0 + 1000.0,
        "ours TNS {ours_tns} vs MFC {mfc_tns}"
    );
}

#[test]
fn flow_report_runtimes_are_recorded() {
    let (n, c) = setup();
    let r = run_flow(&n, &c, &options()).expect("clustered flow runs");
    assert!(r.clustering_runtime > 0.0);
    assert!(r.placement_runtime > 0.0);
}
