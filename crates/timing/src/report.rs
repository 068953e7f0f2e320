//! Human-readable timing reports (`report_checks` equivalent).
//!
//! Formats the worst paths with a per-stage breakdown — the report every
//! timing engineer reads first. The path data comes from
//! [`crate::sta::Sta::extract_paths`].

use crate::error::TimingError;
use crate::sta::{Sta, TimingReport};
use crate::wire::WireModel;
use cp_netlist::netlist::{Netlist, PinRef};
use cp_netlist::Constraints;
use std::fmt::Write as _;

/// Formats the top `top_k` violating (or least-slack) paths, with the
/// summary header (WNS/TNS/endpoint count).
pub fn format_timing_report(
    netlist: &Netlist,
    sta: &Sta<'_>,
    report: &TimingReport,
    top_k: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Timing report — {} endpoints", report.endpoint_count);
    let _ = writeln!(
        out,
        "WNS {:.1} ps | TNS {:.2} ns | {}",
        report.wns,
        report.tns / 1000.0,
        if report.is_clean() { "MET" } else { "VIOLATED" }
    );
    let paths = sta.extract_paths(report, top_k);
    for (k, p) in paths.iter().enumerate() {
        let _ = writeln!(out, "\nPath #{} (slack {:.1} ps)", k + 1, p.slack);
        let _ = writeln!(out, "  endpoint: {}", endpoint_name(netlist, &p.endpoint));
        let _ = writeln!(out, "  {:<28} {:>12}", "point", "arrival (ps)");
        // Stages run launch-to-capture: reverse the endpoint-first lists.
        for (cell, net) in p.cells.iter().rev().zip(p.nets.iter().rev()) {
            let master = netlist.master(*cell);
            let arrival = report.net_arrival[net.index()];
            let _ = writeln!(
                out,
                "  {:<28} {:>12.1}",
                format!("{} ({})", netlist.cell_name(*cell), master.name),
                arrival
            );
        }
    }
    out
}

/// One-call convenience: run STA and format the report.
///
/// # Errors
///
/// Returns [`TimingError::CombinationalCycle`] if the netlist cannot be
/// levelized.
pub fn timing_report_text(
    netlist: &Netlist,
    constraints: &Constraints,
    wire: &WireModel,
    top_k: usize,
) -> Result<String, TimingError> {
    let sta = Sta::new(netlist, constraints)?;
    let report = sta.run(wire);
    Ok(format_timing_report(netlist, &sta, &report, top_k))
}

fn endpoint_name(netlist: &Netlist, p: &PinRef) -> String {
    match *p {
        PinRef::Cell { cell, pin } => {
            let pin_name = netlist
                .master(cell)
                .input_names
                .get(pin as usize)
                .map(String::as_str)
                .unwrap_or("?");
            format!("{}/{}", netlist.cell_name(cell), pin_name)
        }
        PinRef::Port(port) => netlist.port(port).name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn report_contains_summary_and_paths() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(61)
            .generate_with_constraints();
        let text = timing_report_text(&n, &c, &WireModel::Estimate, 3).expect("acyclic netlist");
        assert!(text.contains("Timing report"));
        assert!(text.contains("WNS"));
        assert!(text.contains("Path #1"));
        assert!(text.contains("endpoint:"));
        // Three paths requested.
        assert!(text.contains("Path #3"));
        assert!(!text.contains("Path #4"));
    }

    #[test]
    fn arrivals_increase_along_each_path() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Jpeg)
            .scale(0.005)
            .seed(62)
            .generate_with_constraints();
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let report = sta.run(&WireModel::Estimate);
        for p in sta.extract_paths(&report, 5) {
            let arrivals: Vec<f64> = p
                .nets
                .iter()
                .rev()
                .map(|nid| report.net_arrival[nid.index()])
                .collect();
            for w in arrivals.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "arrival must be monotone along a path: {arrivals:?}"
                );
            }
        }
    }
}
