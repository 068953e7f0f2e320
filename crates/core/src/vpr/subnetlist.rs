//! Cluster sub-netlist induction (Figure 3, left).
//!
//! For a cluster's cell set, build a standalone netlist: internal nets are
//! copied; every inter-cluster net incident to the cluster gets an input
//! port (when the driver is outside) or an output port (when a sink is
//! outside), exactly as the paper describes.
//!
//! Induction costs O(cluster pins), not O(design): it visits only the nets
//! on the cluster's own pins, in net-id order — the order a scan over
//! every net of the design meets them — so the builder receives the same
//! calls either way (the full scan is kept as the test oracle).

use cp_netlist::netlist::{BuildNetlistError, Netlist, NetlistBuilder, PinRef, PortDir};
use cp_netlist::{CellId, HierTree, NetId};

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
    // Cluster-sized map from design cell to sub-netlist cell, sorted by
    // design id for binary search.
    let mut local: Vec<(CellId, u32)> = cells.iter().copied().zip(0..).collect();
    local.sort_unstable();
    assert!(
        local.windows(2).all(|w| w[0].0 != w[1].0),
        "duplicate cell in cluster"
    );
    let mut builder = sub_builder(netlist, cells);
    let inside = |p: &PinRef| -> Option<PinRef> {
        let PinRef::Cell { cell, pin } = *p else {
            return None;
        };
        let i = local.binary_search_by_key(&cell, |&(c, _)| c).ok()?;
        Some(PinRef::Cell {
            cell: CellId(local[i].1),
            pin,
        })
    };
    // A net with a pin inside is on some member's inputs or output.
    let mut incident: Vec<NetId> = cells
        .iter()
        .flat_map(|&c| {
            let inputs = netlist.input_nets(c).iter().flatten().copied();
            inputs.chain(netlist.output_net(c))
        })
        .collect();
    incident.sort_unstable();
    incident.dedup();
    for id in incident {
        project_net(&mut builder, netlist, id, inside);
    }
    builder.finish()
}

/// A builder holding `cells` (in order, at the hierarchy root) over the
/// design's library.
fn sub_builder(netlist: &Netlist, cells: &[CellId]) -> NetlistBuilder {
    let mut builder =
        NetlistBuilder::new(format!("{}_sub", netlist.name()), netlist.library().clone());
    for &c in cells {
        builder.add_cell(netlist.cell_name(c), netlist.cell(c).ty, HierTree::ROOT);
    }
    builder
}

/// Adds net `id`'s projection onto the cluster, where `inside` maps a
/// design pin to its sub-netlist pin (`None` outside the cluster). A clock
/// net, or a net with no pin inside, adds nothing.
fn project_net(
    builder: &mut NetlistBuilder,
    netlist: &Netlist,
    id: NetId,
    inside: impl Fn(&PinRef) -> Option<PinRef>,
) {
    let net = netlist.net(id);
    if net.is_clock {
        return;
    }
    let name = netlist.net_name(id);
    let driver_in = net.driver.as_ref().and_then(&inside);
    let sinks_in: Vec<PinRef> = netlist.sinks(id).iter().filter_map(&inside).collect();
    // Sinks lost in projection (cells outside the cluster or top ports)
    // make the net cross the boundary.
    let has_outside_sink = net.sink_count() > sinks_in.len();
    match (driver_in, sinks_in.is_empty()) {
        (Some(driver), _) => {
            // Driver inside: keep internal sinks; an output port stands
            // in for any outside sinks.
            let mut sinks = sinks_in;
            if has_outside_sink {
                let port = builder.add_port(format!("po_{name}"), PortDir::Output);
                sinks.push(PinRef::Port(port));
            }
            builder.add_net(name, Some(driver), sinks);
        }
        (None, false) => {
            // Driver outside: an input port drives the internal sinks.
            let port = builder.add_port(format!("pi_{name}"), PortDir::Input);
            builder.add_net(name, Some(PinRef::Port(port)), sinks_in);
        }
        (None, true) => {} // net does not touch the cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};
    use cp_netlist::library::Library;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn design() -> Netlist {
        GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(6)
            .generate()
    }

    /// The induction before it walked the cluster's pins: every net of
    /// the design, through a design-sized cell map.
    fn extract_by_full_scan(
        netlist: &Netlist,
        cells: &[CellId],
    ) -> Result<Netlist, BuildNetlistError> {
        let mut new_id = vec![u32::MAX; netlist.cell_count()];
        for (i, &c) in cells.iter().enumerate() {
            assert_eq!(new_id[c.index()], u32::MAX, "duplicate cell in cluster");
            new_id[c.index()] = i as u32;
        }
        let mut builder = sub_builder(netlist, cells);
        let inside = |p: &PinRef| -> Option<PinRef> {
            match *p {
                PinRef::Cell { cell, pin } if new_id[cell.index()] != u32::MAX => {
                    Some(PinRef::Cell {
                        cell: CellId(new_id[cell.index()]),
                        pin,
                    })
                }
                _ => None,
            }
        };
        for i in 0..netlist.net_count() {
            project_net(&mut builder, netlist, NetId(i as u32), inside);
        }
        builder.finish()
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
        let io_nets = (0..n.net_count() as u32)
            .map(NetId)
            .filter(|&id| {
                let net = n.net(id);
                !net.is_clock
                    && (matches!(net.driver, Some(PinRef::Port(_)))
                        || n.sinks(id).iter().any(|s| matches!(s, PinRef::Port(_))))
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

    /// `n` rebuilt with single-pin nets appended: every fifth single-sink
    /// net hands its sink to a new driverless net, leaving a driver-only
    /// net behind, and one input port drives a net with no sinks.
    fn with_single_pin_nets(n: &Netlist) -> Netlist {
        let mut b = NetlistBuilder::new(n.name(), n.library().clone());
        for (i, cell) in n.cells().iter().enumerate() {
            b.add_cell(n.cell_name(CellId(i as u32)), cell.ty, HierTree::ROOT);
        }
        for port in n.ports() {
            b.add_port(port.name.clone(), port.dir);
        }
        let mut split = Vec::new();
        for (i, net) in n.nets().iter().enumerate() {
            let id = NetId(i as u32);
            let name = n.net_name(id);
            let mut sinks = n.sinks(id).to_vec();
            if !net.is_clock && i % 5 == 0 {
                if let [sink @ PinRef::Cell { .. }] = sinks[..] {
                    split.push((format!("{name}_split"), sink));
                    sinks.clear();
                }
            }
            if net.is_clock {
                b.add_clock_net(name, net.driver, sinks);
            } else {
                b.add_net(name, net.driver, sinks);
            }
        }
        for (name, sink) in split {
            b.add_net(name, None, vec![sink]);
        }
        let dangling = b.add_port("dangling_in", PortDir::Input);
        b.add_net("dangling", Some(PinRef::Port(dangling)), Vec::new());
        b.finish().expect("rebuilt design is valid")
    }

    /// The generated Aes and Jpeg designs with single-pin nets added.
    fn oracle_designs() -> &'static [Netlist; 2] {
        static DESIGNS: OnceLock<[Netlist; 2]> = OnceLock::new();
        DESIGNS.get_or_init(|| {
            [
                (DesignProfile::Aes, 0.02),
                (DesignProfile::Jpeg, 1.0 / 64.0),
            ]
            .map(|(p, s)| {
                with_single_pin_nets(&GeneratorConfig::from_profile(p).scale(s).seed(9).generate())
            })
        })
    }

    /// `lib` with one input pin cut off every multi-input master, so a
    /// projection that binds a cell's last input no longer builds.
    fn with_inputs_cut(lib: &Library) -> Library {
        let mut out = Library::new(lib.name.clone(), lib.row_height, lib.site_width);
        for ty in lib.cells() {
            let mut ty = ty.clone();
            if ty.input_names.len() > 1 {
                ty.input_names.pop();
                ty.input_caps.pop();
            }
            out.add(ty);
        }
        out
    }

    fn mix(seed: u64, i: u64) -> u64 {
        let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 31;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 29)
    }

    /// A random cell subset of `n` (each cell kept with probability
    /// `permille`/1000) that also holds a sink of a port-driven net, a
    /// flop on the clock, a cell on a single-pin net of each kind and the
    /// driver of a net whose sinks are all left outside. `shuffled`
    /// scrambles the order, which sets the sub-netlist's cell ids.
    fn subset(n: &Netlist, seed: u64, permille: u64, shuffled: bool) -> Vec<CellId> {
        let mut keep: Vec<bool> = (0..n.cell_count() as u64)
            .map(|i| mix(seed, i) % 1000 < permille)
            .collect();
        fn pick(nets: Vec<NetId>, seed: u64, salt: u64) -> NetId {
            nets[(mix(seed, salt) % nets.len() as u64) as usize]
        }
        let cell_of = |p: &PinRef| match *p {
            PinRef::Cell { cell, .. } => Some(cell),
            PinRef::Port(_) => None,
        };
        let nets = || {
            (0..n.net_count() as u32)
                .map(NetId)
                .filter(|&id| !n.net(id).is_clock)
        };
        // A multi-sink net driven inside with every sink outside.
        let fanout = pick(
            nets()
                .filter(|&id| {
                    let net = n.net(id);
                    net.sink_count() > 1 && net.driver.as_ref().and_then(cell_of).is_some()
                })
                .collect(),
            seed,
            1,
        );
        let mut add = |p: Option<&PinRef>| {
            if let Some(c) = p.and_then(cell_of) {
                keep[c.index()] = true;
            }
        };
        add(n.net(fanout).driver.as_ref());
        let port_driven = nets().filter(|&id| matches!(n.net(id).driver, Some(PinRef::Port(_))));
        add(n.sinks(pick(port_driven.collect(), seed, 2)).first());
        let clock = (0..n.net_count() as u32)
            .map(NetId)
            .find(|&id| n.net(id).is_clock)
            .expect("a clock net");
        let clock_sinks = n.sinks(clock);
        add(clock_sinks.get((mix(seed, 3) % clock_sinks.len() as u64) as usize));
        let single = |id: &NetId| n.net(*id).pin_count() == 1;
        let driver_only = nets().filter(|id| single(id) && n.net(*id).driver.is_some());
        add(n.net(pick(driver_only.collect(), seed, 4)).driver.as_ref());
        let sink_only = nets().filter(|id| single(id) && n.net(*id).driver.is_none());
        add(n.sinks(pick(sink_only.collect(), seed, 5)).first());
        let driver = n.net(fanout).driver.as_ref().and_then(cell_of);
        for c in n.sinks(fanout).iter().filter_map(cell_of) {
            if Some(c) != driver {
                keep[c.index()] = false;
            }
        }
        let mut cells: Vec<CellId> = (0..n.cell_count() as u32)
            .filter(|&i| keep[i as usize])
            .map(CellId)
            .collect();
        if shuffled {
            cells.sort_by_key(|c| mix(seed ^ 0xA5A5, c.0 as u64));
        }
        cells
    }

    /// Which corner cases `cells` exercises: `[port-driven net, net with
    /// every sink outside, clock net, driver-only net, sink-only net]`.
    fn corner_cases(n: &Netlist, cells: &[CellId]) -> [bool; 5] {
        let mut member = vec![false; n.cell_count()];
        for c in cells {
            member[c.index()] = true;
        }
        let on = |p: &PinRef| matches!(*p, PinRef::Cell { cell, .. } if member[cell.index()]);
        let mut seen = [false; 5];
        for (i, net) in n.nets().iter().enumerate() {
            let driver_in = net.driver.as_ref().is_some_and(on);
            let sink_in = n.sinks(NetId(i as u32)).iter().any(on);
            seen[0] |= !net.is_clock && matches!(net.driver, Some(PinRef::Port(_))) && sink_in;
            seen[1] |= !net.is_clock && driver_in && net.sink_count() > 0 && !sink_in;
            seen[2] |= net.is_clock && sink_in;
            seen[3] |= net.pin_count() == 1 && driver_in;
            seen[4] |= net.pin_count() == 1 && net.driver.is_none() && sink_in;
        }
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Walking the cluster's own pins induces exactly the sub-netlist
        /// the full scan over the design does — equal netlists on success
        /// and the same error when the projection cannot build.
        #[test]
        fn incident_nets_induce_what_the_full_scan_does(
            design in 0usize..2,
            seed in 0u64..u64::MAX,
            permille in 0u64..1000,
            shuffled in 0u8..2,
            cut_inputs in 0u8..3,
        ) {
            let mut n = oracle_designs()[design].clone();
            if cut_inputs == 0 {
                *n.library_mut() = with_inputs_cut(n.library());
            }
            let cells = subset(&n, seed, permille, shuffled == 1);
            prop_assert_eq!(corner_cases(&n, &cells), [true; 5]);
            let fast = extract_subnetlist(&n, &cells);
            prop_assert_eq!(&fast, &extract_by_full_scan(&n, &cells));
            // A member whose last input carries a signal loses that pin.
            let clipped = cells.iter().any(|&c| {
                let inputs = n.input_nets(c);
                inputs.len() > 1
                    && inputs[inputs.len() - 1].is_some_and(|id| !n.net(id).is_clock)
            });
            prop_assert_eq!(fast.is_err(), cut_inputs == 0 && clipped);
        }
    }
}
