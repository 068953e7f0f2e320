//! Wire parasitics models.
//!
//! Net capacitance and per-sink wire delay depend on placement. Before
//! placement a fanout-based estimate stands in (OpenSTA would use a
//! wireload model); after placement the net bounding box and source–sink
//! Manhattan distances drive an Elmore-flavored linear model.

use cp_netlist::netlist::{Netlist, PinRef};
use cp_netlist::NetId;

/// Positions for every hypergraph vertex of a netlist: cells first
/// (by id), then ports.
pub type Positions = [(f64, f64)];

/// How wire parasitics are derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireModel<'a> {
    /// Fanout-based wireload estimate (pre-placement).
    Estimate,
    /// Placement-driven: positions per hypergraph vertex
    /// (see [`cp_netlist::Netlist::cell_vertex`]).
    Placed(&'a Positions),
    /// Placement-driven with a detour factor (post-route estimate):
    /// lengths scale by the factor, mimicking routed wirelength.
    Routed(&'a Positions, f64),
}

/// Assumed wireload length per fanout, µm (pre-placement estimate).
const EST_LENGTH_PER_FANOUT: f64 = 8.0;

impl WireModel<'_> {
    /// Total wire length of a net in µm.
    ///
    /// Placed/routed models use half-perimeter wirelength of the net's
    /// bounding box (times the detour factor for `Routed`).
    pub fn net_length(&self, netlist: &Netlist, net: NetId) -> f64 {
        match self {
            Self::Estimate => {
                let fanout = netlist.net(net).sink_count().max(1);
                EST_LENGTH_PER_FANOUT * fanout as f64
            }
            Self::Placed(pos) => hpwl_of_net(netlist, net, pos),
            Self::Routed(pos, detour) => hpwl_of_net(netlist, net, pos) * detour,
        }
    }

    /// Manhattan distance from the net's driver to one sink, µm.
    pub fn sink_distance(&self, netlist: &Netlist, net: NetId, sink: PinRef) -> f64 {
        match self {
            Self::Estimate => EST_LENGTH_PER_FANOUT,
            Self::Placed(pos) | Self::Routed(pos, _) => {
                let n = netlist.net(net);
                let Some(driver) = n.driver else { return 0.0 };
                let (dx, dy) = endpoint_pos(netlist, driver, pos);
                let (sx, sy) = endpoint_pos(netlist, sink, pos);
                let detour = if let Self::Routed(_, d) = self {
                    *d
                } else {
                    1.0
                };
                ((dx - sx).abs() + (dy - sy).abs()) * detour
            }
        }
    }
}

/// Position of a net endpoint under a placement.
pub fn endpoint_pos(netlist: &Netlist, p: PinRef, pos: &Positions) -> (f64, f64) {
    let v = match p {
        PinRef::Cell { cell, .. } => netlist.cell_vertex(cell),
        PinRef::Port(port) => netlist.port_vertex(port),
    };
    pos[v as usize]
}

/// Half-perimeter wirelength of one net under a placement.
pub fn hpwl_of_net(netlist: &Netlist, net: NetId, pos: &Positions) -> f64 {
    let n = netlist.net(net);
    let mut lo = (f64::INFINITY, f64::INFINITY);
    let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut count = 0;
    for p in n.driver.iter().chain(netlist.sinks(net)) {
        let (x, y) = endpoint_pos(netlist, *p, pos);
        lo = (lo.0.min(x), lo.1.min(y));
        hi = (hi.0.max(x), hi.1.max(y));
        count += 1;
    }
    if count < 2 {
        0.0
    } else {
        (hi.0 - lo.0) + (hi.1 - lo.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn nl() -> Netlist {
        GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .seed(1)
            .generate()
    }

    fn grid_positions(n: &Netlist) -> Vec<(f64, f64)> {
        let total = n.cell_count() + n.port_count();
        (0..total)
            .map(|i| ((i % 100) as f64, (i / 100) as f64))
            .collect()
    }

    #[test]
    fn estimate_scales_with_fanout() {
        let n = nl();
        let m = WireModel::Estimate;
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for id in 0..n.net_count() as u32 {
            let l = m.net_length(&n, NetId(id));
            lo = lo.min(l);
            hi = hi.max(l);
        }
        assert!(lo >= EST_LENGTH_PER_FANOUT);
        assert!(hi > lo);
    }

    #[test]
    fn placed_hpwl_positive_and_routed_scales() {
        let n = nl();
        let pos = grid_positions(&n);
        let placed = WireModel::Placed(&pos);
        let routed = WireModel::Routed(&pos, 1.5);
        let total: f64 = (0..n.net_count() as u32)
            .map(|i| placed.net_length(&n, NetId(i)))
            .sum();
        let total_r: f64 = (0..n.net_count() as u32)
            .map(|i| routed.net_length(&n, NetId(i)))
            .sum();
        assert!(total > 0.0);
        assert!((total_r - 1.5 * total).abs() < 1e-6 * total);
    }

    #[test]
    fn single_pin_net_has_zero_hpwl() {
        use cp_netlist::{HierTree, Library, NetlistBuilder, PinRef};
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("t", lib);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        b.add_net("dangling", Some(PinRef::Cell { cell: u0, pin: 0 }), vec![]);
        let n = b.finish().unwrap();
        let pos = vec![(1.0, 1.0)];
        assert_eq!(hpwl_of_net(&n, NetId(0), &pos), 0.0);
    }
}
