//! Cluster sub-netlist induction (Figure 3, left).
//!
//! For a cluster's cell set, build a standalone netlist: internal nets are
//! copied; every inter-cluster net incident to the cluster gets an input
//! port (when the driver is outside) or an output port (when a sink is
//! outside), exactly as the paper describes.

use cp_netlist::netlist::{BuildNetlistError, Netlist, NetlistBuilder, PinRef, PortDir};
use cp_netlist::{CellId, HierTree};

/// Induces the sub-netlist over `cells` (clock nets are dropped; CTS owns
/// them).
///
/// # Errors
///
/// [`BuildNetlistError`] when the projection is structurally invalid
/// (callers treat this as "cluster cannot be shaped" and fall back to the
/// uniform shape).
///
/// # Panics
///
/// Panics if `cells` contains duplicates.
pub fn extract_subnetlist(
    netlist: &Netlist,
    cells: &[CellId],
) -> Result<Netlist, BuildNetlistError> {
    let mut new_id = vec![u32::MAX; netlist.cell_count()];
    let mut builder =
        NetlistBuilder::new(format!("{}_sub", netlist.name()), netlist.library().clone());
    for (i, &c) in cells.iter().enumerate() {
        assert_eq!(new_id[c.index()], u32::MAX, "duplicate cell in cluster");
        let cell = netlist.cell(c);
        builder.add_cell(cell.name.clone(), cell.ty, HierTree::ROOT);
        new_id[c.index()] = i as u32;
    }
    let inside = |p: &PinRef| -> Option<PinRef> {
        match *p {
            PinRef::Cell { cell, pin } if new_id[cell.index()] != u32::MAX => Some(PinRef::Cell {
                cell: CellId(new_id[cell.index()]),
                pin,
            }),
            _ => None,
        }
    };
    for net in netlist.nets() {
        if net.is_clock {
            continue;
        }
        let driver_in = net.driver.as_ref().and_then(inside);
        let sinks_in: Vec<PinRef> = net.sinks.iter().filter_map(inside).collect();
        // Sinks lost in projection (cells outside the cluster or top ports)
        // make the net cross the boundary.
        let has_outside_sink = net.sinks.len() > sinks_in.len();
        match (driver_in, sinks_in.is_empty()) {
            (Some(driver), _) => {
                // Driver inside: keep internal sinks; an output port stands
                // in for any outside sinks.
                let mut sinks = sinks_in;
                if has_outside_sink {
                    let port = builder.add_port(format!("po_{}", net.name), PortDir::Output);
                    sinks.push(PinRef::Port(port));
                }
                builder.add_net(net.name.clone(), Some(driver), sinks);
            }
            (None, false) => {
                // Driver outside: an input port drives the internal sinks.
                let port = builder.add_port(format!("pi_{}", net.name), PortDir::Input);
                builder.add_net(net.name.clone(), Some(PinRef::Port(port)), sinks_in);
            }
            (None, true) => {} // net does not touch the cluster
        }
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn design() -> Netlist {
        GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(6)
            .generate()
    }

    #[test]
    fn sub_netlist_covers_the_cells() {
        let n = design();
        let cells: Vec<CellId> = (0..100).map(CellId).collect();
        let sub = extract_subnetlist(&n, &cells).expect("valid sub-netlist");
        assert_eq!(sub.cell_count(), 100);
        // Masters preserved.
        for (i, &c) in cells.iter().enumerate() {
            assert_eq!(sub.master(CellId(i as u32)).name, n.master(c).name);
        }
    }

    #[test]
    fn boundary_nets_become_ports() {
        let n = design();
        let cells: Vec<CellId> = (0..50).map(CellId).collect();
        let sub = extract_subnetlist(&n, &cells).expect("valid sub-netlist");
        assert!(
            sub.port_count() > 0,
            "a 50-cell slice must touch outside nets"
        );
        // Every port is wired.
        for p in sub.ports() {
            assert!(p.net.is_some(), "port {} unconnected", p.name);
        }
    }

    #[test]
    fn whole_design_has_io_ports_only_for_real_io() {
        let n = design();
        let all: Vec<CellId> = (0..n.cell_count() as u32).map(CellId).collect();
        let sub = extract_subnetlist(&n, &all).expect("valid sub-netlist");
        assert_eq!(sub.cell_count(), n.cell_count());
        // The sub-netlist replaces real top ports with boundary ports; the
        // count matches the nets that touched a top port.
        let io_nets = n
            .nets()
            .iter()
            .filter(|net| {
                !net.is_clock
                    && (matches!(net.driver, Some(PinRef::Port(_)))
                        || net.sinks.iter().any(|s| matches!(s, PinRef::Port(_))))
            })
            .count();
        assert_eq!(sub.port_count(), io_nets);
    }

    #[test]
    fn clock_is_dropped() {
        let n = design();
        let all: Vec<CellId> = (0..n.cell_count() as u32).map(CellId).collect();
        let sub = extract_subnetlist(&n, &all).expect("valid sub-netlist");
        assert!(sub.nets().iter().all(|net| !net.is_clock));
    }

    #[test]
    #[should_panic(expected = "duplicate cell")]
    fn duplicate_cells_panic() {
        let n = design();
        let _ = extract_subnetlist(&n, &[CellId(0), CellId(0)]);
    }
}
