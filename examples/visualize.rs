//! Renders a placement as SVG (cells colored by cluster) and prints the
//! post-placement timing report — the artifacts a designer looks at first.
//!
//! Writes `/tmp/clustered_placement.svg`.
//!
//! ```text
//! cargo run --release -p cp-bench --example visualize
//! ```

use cp_core::cluster::{ppa_aware_clustering, ClusteringOptions};
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::Floorplan;
use cp_place::{legalize, placement_svg, GlobalPlacer, PlacementProblem, PlacerOptions};
use cp_timing::timing_report_text;
use cp_timing::wire::WireModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (netlist, constraints) = GeneratorConfig::from_profile(DesignProfile::Jpeg)
        .scale(1.0 / 64.0)
        .seed(3)
        .generate_with_constraints();
    let clustering = ppa_aware_clustering(
        &netlist,
        &constraints,
        &ClusteringOptions {
            avg_cluster_size: 60,
            ..Default::default()
        },
    )?;
    let fp = Floorplan::try_for_netlist(&netlist, 0.6, 1.0)?;
    let problem = PlacementProblem::from_netlist(&netlist, &fp);
    let mut result = GlobalPlacer::new(PlacerOptions::default()).place(&problem)?;
    legalize(&problem, &fp, &mut result.positions)?;

    let svg = placement_svg(
        &problem,
        &fp,
        &result.positions,
        Some(&clustering.assignment),
    );
    std::fs::write("/tmp/clustered_placement.svg", &svg)?;
    println!(
        "wrote /tmp/clustered_placement.svg ({} cells, {} clusters, {} bytes)",
        netlist.cell_count(),
        clustering.cluster_count,
        svg.len()
    );

    let mut positions = result.positions.clone();
    positions.extend_from_slice(&fp.port_positions);
    let report = timing_report_text(&netlist, &constraints, &WireModel::Placed(&positions), 2)?;
    println!("\n{report}");
    Ok(())
}
