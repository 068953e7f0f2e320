//! Power reporting: switching + internal + leakage.
//!
//! `P_switch = ½ · C_net · V² · d · f` per net, `P_internal = E_int · d · f`
//! per cell, plus constant leakage. With capacitance in fF, frequency in
//! GHz and energy in fJ, products land in µW; totals are reported in W to
//! match the paper's tables.

use crate::activity::ActivityReport;
use crate::wire::WireModel;
use cp_netlist::library::CellClass;
use cp_netlist::netlist::{Netlist, PinRef};
use cp_netlist::{Constraints, NetId};

/// Supply voltage, V (NanGate45-like).
const VDD: f64 = 1.1;

/// A power report in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Net switching power, W.
    pub switching: f64,
    /// Cell-internal power, W.
    pub internal: f64,
    /// Leakage power, W.
    pub leakage: f64,
}

impl PowerReport {
    /// Total power, W.
    pub fn total(&self) -> f64 {
        self.switching + self.internal + self.leakage
    }
}

/// Computes the design power under a wire model and activity annotation.
///
/// # Examples
///
/// ```
/// use cp_netlist::generator::{DesignProfile, GeneratorConfig};
/// use cp_timing::{power_report, propagate_activity, WireModel};
///
/// let (netlist, constraints) = GeneratorConfig::from_profile(DesignProfile::Aes)
///     .scale(0.01)
///     .generate_with_constraints();
/// let act = propagate_activity(&netlist, &constraints);
/// let p = power_report(&netlist, &constraints, &act, &WireModel::Estimate);
/// assert!(p.total() > 0.0);
/// assert!(p.leakage < p.total());
/// ```
pub fn power_report(
    netlist: &Netlist,
    constraints: &Constraints,
    activity: &ActivityReport,
    wire: &WireModel,
) -> PowerReport {
    let f_ghz = constraints.frequency_ghz();
    let lib = netlist.library();
    let mut switching_uw = 0.0;
    for i in 0..netlist.net_count() {
        let nid = NetId(i as u32);
        let mut cap = lib.wire_cap * wire.net_length(netlist, nid);
        for s in netlist.sinks(nid) {
            cap += match *s {
                PinRef::Cell { cell, pin } => netlist
                    .master(cell)
                    .input_caps
                    .get(pin as usize)
                    .copied()
                    .unwrap_or(1.0),
                PinRef::Port(_) => 2.0,
            };
        }
        switching_uw += 0.5 * cap * VDD * VDD * activity.density[i] * f_ghz;
    }
    let mut internal_uw = 0.0;
    let mut leakage_uw = 0.0;
    for (ci, cell) in netlist.cells().iter().enumerate() {
        let master = lib.cell(cell.ty);
        leakage_uw += master.leakage;
        if master.class == CellClass::Macro {
            continue;
        }
        let d_out = netlist
            .output_net(cp_netlist::CellId(ci as u32))
            .map_or(0.0, |n| activity.density[n.index()]);
        internal_uw += master.internal_energy * d_out * f_ghz;
    }
    PowerReport {
        switching: switching_uw * 1e-6,
        internal: internal_uw * 1e-6,
        leakage: leakage_uw * 1e-6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::propagate_activity;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn setup() -> (Netlist, Constraints) {
        GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(5)
            .generate_with_constraints()
    }

    #[test]
    fn all_components_positive() {
        let (n, c) = setup();
        let act = propagate_activity(&n, &c);
        let p = power_report(&n, &c, &act, &WireModel::Estimate);
        assert!(p.switching > 0.0);
        assert!(p.internal > 0.0);
        assert!(p.leakage > 0.0);
        assert!((p.total() - (p.switching + p.internal + p.leakage)).abs() < 1e-15);
    }

    #[test]
    fn faster_clock_means_more_dynamic_power() {
        let (n, mut c) = setup();
        let act = propagate_activity(&n, &c);
        let slow = power_report(&n, &c, &act, &WireModel::Estimate);
        c.clock_period /= 2.0;
        let fast = power_report(&n, &c, &act, &WireModel::Estimate);
        assert!(fast.switching > slow.switching * 1.9);
        assert!((fast.leakage - slow.leakage).abs() < 1e-15);
    }

    #[test]
    fn longer_wires_mean_more_switching_power() {
        let (n, c) = setup();
        let act = propagate_activity(&n, &c);
        let total = n.cell_count() + n.port_count();
        let tight: Vec<(f64, f64)> = (0..total)
            .map(|i| ((i % 50) as f64, (i / 50) as f64))
            .collect();
        let spread: Vec<(f64, f64)> = (0..total)
            .map(|i| ((i % 50) as f64 * 10.0, (i / 50) as f64 * 10.0))
            .collect();
        let p_tight = power_report(&n, &c, &act, &WireModel::Placed(&tight));
        let p_spread = power_report(&n, &c, &act, &WireModel::Placed(&spread));
        assert!(p_spread.switching > p_tight.switching);
        assert!((p_spread.internal - p_tight.internal).abs() < 1e-12);
    }
}
