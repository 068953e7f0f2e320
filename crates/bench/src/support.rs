//! Experiment support: scaled designs, flow presets and table printing.

use cp_core::flow::FlowOptions;
use cp_core::ClusteringOptions;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::netlist::Netlist;
use cp_netlist::Constraints;
use cp_place::PlacerOptions;

/// A generated benchmark with its constraints.
#[derive(Debug, Clone)]
pub struct Bench {
    /// The Table 1 profile.
    pub profile: DesignProfile,
    /// The generated netlist.
    pub netlist: Netlist,
    /// Its constraints.
    pub constraints: Constraints,
}

impl Bench {
    /// Generates one benchmark at `scale` times the paper's instance count.
    pub fn generate_at(profile: DesignProfile, scale: f64) -> Self {
        let (netlist, constraints) = GeneratorConfig::from_profile(profile)
            .scale(scale)
            .generate_with_constraints();
        Self {
            profile,
            netlist,
            constraints,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self.profile {
            DesignProfile::BlackParrot => "BP",
            DesignProfile::MegaBoom => "MB",
            DesignProfile::MemPoolGroup => "MP-G",
            p => p.name(),
        }
    }
}

/// The small designs used by Tables 3 and 5 (routable in OpenROAD per the
/// paper).
pub fn small_profiles() -> Vec<DesignProfile> {
    vec![
        DesignProfile::Aes,
        DesignProfile::Jpeg,
        DesignProfile::Ariane,
    ]
}

/// The flow preset used across the experiments for designs generated at
/// `scale` (cluster sizes shrink with the netlists so cluster counts match
/// the paper's regime). Pass the scale the design was generated at.
pub fn flow_options(scale: f64) -> FlowOptions {
    // The paper shapes clusters above 200 instances and clusters average a
    // few hundred instances at full scale; scale both down, with floors
    // that keep the stages meaningful at 1/32 scale.
    let avg = ((250.0 * scale * 8.0) as usize).clamp(40, 400);
    FlowOptions {
        clustering: ClusteringOptions {
            avg_cluster_size: avg,
            path_count: 20_000,
            ..Default::default()
        },
        // The paper's tuned threshold (footnote 3): shaping clusters below
        // ~200 instances hurts PPA — that held in our substrate too.
        vpr_min_instances: 200,
        placer: PlacerOptions::default(),
        ..Default::default()
    }
}

/// Formats a ratio like the paper's normalized columns.
pub fn fmt_norm(value: f64, baseline: f64) -> String {
    if baseline.abs() < 1e-12 {
        "NA".to_string()
    } else {
        format!("{:.3}", value / baseline)
    }
}

/// Formats WNS/TNS in the paper's units (ps / ns).
pub fn fmt_wns(ps: f64) -> String {
    format!("{:.0}", ps)
}

/// TNS is reported in ns in the paper's tables.
pub fn fmt_tns(ps: f64) -> String {
    format!("{:.2}", ps / 1000.0)
}

/// Power in W.
pub fn fmt_power(w: f64) -> String {
    format!("{:.3}", w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_generation() {
        let b = Bench::generate_at(DesignProfile::Aes, 0.01);
        assert_eq!(b.name(), "aes");
        assert!(b.netlist.cell_count() > 50);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_norm(2.0, 4.0), "0.500");
        assert_eq!(fmt_norm(1.0, 0.0), "NA");
        assert_eq!(fmt_tns(-32080.0), "-32.08");
        assert_eq!(fmt_wns(-220.0), "-220");
    }

    #[test]
    fn flow_options_scale_sanely() {
        assert_eq!(flow_options(1.0 / 64.0).clustering.avg_cluster_size, 40);
        assert_eq!(flow_options(1.0 / 32.0).clustering.avg_cluster_size, 62);
        assert_eq!(flow_options(1.0).clustering.avg_cluster_size, 400);
        assert!(flow_options(1.0).vpr_min_instances == 200);
    }
}
