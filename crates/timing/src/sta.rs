//! Graph-based static timing analysis.
//!
//! Delay model: cell delay `d = intrinsic + R_drive · C_load`, wire delay
//! per sink `R_wire · dist · (C_sink + ½ · C_wire · dist)` (Elmore-flavored
//! linear model). Arrival times propagate forward in topological order over
//! nets; required times propagate backward; endpoint slacks aggregate to
//! WNS/TNS; per-net slacks and the worst path per endpoint feed the
//! PPA-aware clustering.

use crate::error::TimingError;
use crate::wire::WireModel;
use cp_netlist::library::CellClass;
use cp_netlist::netlist::{Netlist, PinRef};
use cp_netlist::{CellId, Constraints, NetId, PortDir};

/// Setup time assumed at flop D pins, ps.
const SETUP_TIME: f64 = 20.0;
/// Hold time assumed at flop D pins, ps.
const HOLD_TIME: f64 = 5.0;
/// Load presented by an output port, fF.
const PORT_LOAD: f64 = 2.0;
/// Drive resistance of an input port, kΩ.
const PORT_DRIVE: f64 = 2.0;

/// One extracted critical path (one per endpoint, worst arrival chain).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Endpoint slack in ps (negative = violating).
    pub slack: f64,
    /// Nets on the path, endpoint-first.
    pub nets: Vec<NetId>,
    /// Cells traversed (the combinational chain plus launching flop if any),
    /// endpoint-first.
    pub cells: Vec<CellId>,
    /// The endpoint pin.
    pub endpoint: PinRef,
}

/// The result of an STA run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Worst endpoint slack, ps (positive when timing is met).
    pub wns: f64,
    /// Total negative slack, ps (0 when timing is met).
    pub tns: f64,
    /// Number of constrained endpoints.
    pub endpoint_count: usize,
    /// Arrival time at each net's driver output, ps.
    pub net_arrival: Vec<f64>,
    /// Worst slack through each net, ps (`f64::INFINITY` if unconstrained).
    pub net_slack: Vec<f64>,
    /// Per-endpoint `(pin, slack)` pairs.
    pub endpoints: Vec<(PinRef, f64)>,
    /// Worst hold slack over flop endpoints, ps (positive = met; 0 when
    /// there are no flop endpoints).
    pub hold_wns: f64,
    /// Total negative hold slack, ps.
    pub hold_tns: f64,
    // Worst-arrival predecessor of each net: (input net, through cell).
    worst_pred: Vec<Option<(NetId, CellId)>>,
}

impl TimingReport {
    /// `true` when no endpoint violates.
    pub fn is_clean(&self) -> bool {
        self.tns >= 0.0
    }
}

/// The analyzer. Owns the topological order; `run` may be called with
/// different wire models (pre-/post-placement) cheaply.
#[derive(Debug)]
pub struct Sta<'a> {
    netlist: &'a Netlist,
    constraints: &'a Constraints,
    /// Nets in topological order (sources first).
    topo_nets: Vec<NetId>,
}

impl<'a> Sta<'a> {
    /// Prepares STA for a netlist: levelizes nets over combinational cells.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::CombinationalCycle`] if the combinational
    /// logic contains a cycle.
    pub fn new(netlist: &'a Netlist, constraints: &'a Constraints) -> Result<Self, TimingError> {
        let topo_nets = topological_nets(netlist)?;
        Ok(Self {
            netlist,
            constraints,
            topo_nets,
        })
    }

    /// Runs STA with zero clock skew.
    pub fn run(&self, wire: &WireModel) -> TimingReport {
        self.run_with_clock(wire, None)
    }

    /// Runs STA with per-cell clock arrival times (ps, from CTS); only
    /// entries for sequential cells are read.
    pub fn run_with_clock(&self, wire: &WireModel, clock_arrival: Option<&[f64]>) -> TimingReport {
        let _span = cp_trace::span("sta.run");
        let nl = self.netlist;
        let nn = nl.net_count();
        let t = self.constraints.clock_period;
        let clk_at = |cell: CellId| clock_arrival.map_or(0.0, |c| c[cell.index()]);

        // Per-net load capacitance.
        let mut load = vec![0.0f64; nn];
        for (i, net) in nl.nets().iter().enumerate() {
            if net.is_clock {
                continue;
            }
            let mut c = nl.library().wire_cap * wire.net_length(nl, NetId(i as u32));
            for s in nl.sinks(NetId(i as u32)) {
                c += match *s {
                    PinRef::Cell { cell, pin } => nl
                        .master(cell)
                        .input_caps
                        .get(pin as usize)
                        .copied()
                        .unwrap_or(1.0),
                    PinRef::Port(_) => PORT_LOAD,
                };
            }
            load[i] = c;
        }

        // Forward: max and min arrival at each net's driver output (max
        // drives setup checks, min drives hold checks).
        let mut arrival = vec![0.0f64; nn];
        let mut arrival_min = vec![0.0f64; nn];
        let mut worst_pred: Vec<Option<(NetId, CellId)>> = vec![None; nn];
        for &nid in &self.topo_nets {
            let net = nl.net(nid);
            if net.is_clock {
                continue;
            }
            let Some(driver) = net.driver else { continue };
            match driver {
                PinRef::Port(_) => {
                    let a = self.constraints.input_delay + PORT_DRIVE * load[nid.index()];
                    arrival[nid.index()] = a;
                    arrival_min[nid.index()] = a;
                }
                PinRef::Cell { cell, .. } => {
                    let master = nl.master(cell);
                    let out_delay = master.intrinsic_delay + master.drive_res * load[nid.index()];
                    match master.class {
                        CellClass::Sequential => {
                            arrival[nid.index()] = clk_at(cell) + out_delay;
                            arrival_min[nid.index()] = clk_at(cell) + out_delay;
                        }
                        _ => {
                            // Worst/best input arrival (pin arrival includes
                            // the source wire delay).
                            let mut worst = 0.0f64;
                            let mut best = f64::INFINITY;
                            let mut pred = None;
                            for (pin, &in_net) in nl.input_nets(cell).iter().enumerate() {
                                let Some(in_net) = in_net else { continue };
                                if nl.net(in_net).is_clock {
                                    continue;
                                }
                                let wd = self.wire_delay(wire, in_net, cell, pin as u8);
                                let a = arrival[in_net.index()] + wd;
                                if a >= worst {
                                    worst = a;
                                    pred = Some((in_net, cell));
                                }
                                best = best.min(arrival_min[in_net.index()] + wd);
                            }
                            if !best.is_finite() {
                                best = 0.0;
                            }
                            arrival[nid.index()] = worst + out_delay;
                            arrival_min[nid.index()] = best + out_delay;
                            worst_pred[nid.index()] = pred;
                        }
                    }
                }
            }
        }

        // Endpoints and required times (setup), plus hold checks.
        let mut required = vec![f64::INFINITY; nn];
        let mut endpoints = Vec::new();
        let mut hold_wns = f64::INFINITY;
        let mut hold_tns = 0.0f64;
        for (i, net) in nl.nets().iter().enumerate() {
            if net.is_clock {
                continue;
            }
            let nid = NetId(i as u32);
            for s in nl.sinks(nid) {
                match *s {
                    PinRef::Cell { cell, pin } => {
                        let master = nl.master(cell);
                        if master.class == CellClass::Sequential && pin == 0 {
                            // Flop D endpoint: setup against the next edge,
                            // hold against the same edge.
                            let wd = self.wire_delay(wire, nid, cell, pin);
                            let arr = arrival[i] + wd;
                            let req = t + clk_at(cell) - SETUP_TIME;
                            endpoints.push((*s, req - arr));
                            required[i] = required[i].min(req - wd);
                            let hold_slack = (arrival_min[i] + wd) - (clk_at(cell) + HOLD_TIME);
                            hold_wns = hold_wns.min(hold_slack);
                            if hold_slack < 0.0 {
                                hold_tns += hold_slack;
                            }
                        }
                    }
                    PinRef::Port(p) => {
                        if nl.port(p).dir == PortDir::Output {
                            let arr = arrival[i]; // port sink sits on the net
                            let req = t - self.constraints.output_delay;
                            endpoints.push((*s, req - arr));
                            required[i] = required[i].min(req);
                        }
                    }
                }
            }
        }

        // Backward: propagate required through combinational cells.
        for &nid in self.topo_nets.iter().rev() {
            if nl.net(nid).is_clock {
                continue;
            }
            for s in nl.sinks(nid) {
                let PinRef::Cell { cell, pin } = *s else {
                    continue;
                };
                let master = nl.master(cell);
                if master.class == CellClass::Sequential {
                    continue; // handled as endpoint
                }
                let Some(out) = nl.output_net(cell) else {
                    continue;
                };
                let out_delay = master.intrinsic_delay + master.drive_res * load[out.index()];
                let wd = self.wire_delay(wire, nid, cell, pin);
                let r = required[out.index()] - out_delay - wd;
                if r < required[nid.index()] {
                    required[nid.index()] = r;
                }
            }
        }

        let mut net_slack = vec![f64::INFINITY; nn];
        for i in 0..nn {
            if required[i].is_finite() {
                net_slack[i] = required[i] - arrival[i];
            }
        }

        let mut wns = f64::INFINITY;
        let mut tns = 0.0;
        for &(_, s) in &endpoints {
            wns = wns.min(s);
            if s < 0.0 {
                tns += s;
            }
        }
        if endpoints.is_empty() {
            wns = 0.0;
        }
        if !hold_wns.is_finite() {
            hold_wns = 0.0;
        }
        TimingReport {
            wns,
            tns,
            endpoint_count: endpoints.len(),
            net_arrival: arrival,
            net_slack,
            endpoints,
            hold_wns,
            hold_tns,
            worst_pred,
        }
    }

    /// Extracts the worst path per endpoint for the `count` most critical
    /// endpoints (OpenSTA `findPathEnds` with `endpoint_count = 1`,
    /// `sort_by_slack = true`).
    pub fn extract_paths(&self, report: &TimingReport, count: usize) -> Vec<TimingPath> {
        let nl = self.netlist;
        let mut order: Vec<usize> = (0..report.endpoints.len()).collect();
        // total_cmp, not partial_cmp: a NaN slack (e.g. from corrupt wire
        // lengths) must not panic the sort — it orders after +inf instead.
        order.sort_by(|&a, &b| report.endpoints[a].1.total_cmp(&report.endpoints[b].1));
        order.truncate(count);
        let mut paths = Vec::with_capacity(order.len());
        for idx in order {
            let (endpoint, slack) = report.endpoints[idx];
            // The net feeding this endpoint.
            let mut cur = match endpoint {
                PinRef::Cell { cell, pin } => nl.input_net(cell, pin),
                PinRef::Port(p) => nl.port(p).net,
            };
            let mut nets = Vec::new();
            let mut cells = Vec::new();
            if let PinRef::Cell { cell, .. } = endpoint {
                cells.push(cell); // capturing flop
            }
            while let Some(nid) = cur {
                nets.push(nid);
                match report.worst_pred[nid.index()] {
                    Some((prev, through)) => {
                        cells.push(through);
                        cur = Some(prev);
                    }
                    None => {
                        // Launch point: flop or port driver.
                        if let Some(PinRef::Cell { cell, .. }) = nl.net(nid).driver {
                            cells.push(cell);
                        }
                        cur = None;
                    }
                }
            }
            paths.push(TimingPath {
                slack,
                nets,
                cells,
                endpoint,
            });
        }
        paths
    }

    fn wire_delay(&self, wire: &WireModel, net: NetId, cell: CellId, pin: u8) -> f64 {
        let nl = self.netlist;
        let dist = wire.sink_distance(nl, net, PinRef::Cell { cell, pin });
        let c_sink = nl
            .master(cell)
            .input_caps
            .get(pin as usize)
            .copied()
            .unwrap_or(1.0);
        let lib = nl.library();
        lib.wire_res * dist * (c_sink + 0.5 * lib.wire_cap * dist)
    }
}

/// Nets in topological order: port- and flop-driven nets first, then each
/// combinational cell's output once all its inputs are ordered.
///
/// Returns [`TimingError::CombinationalCycle`] when some net's in-degree
/// never reaches zero.
fn topological_nets(nl: &Netlist) -> Result<Vec<NetId>, TimingError> {
    let nn = nl.net_count();
    let mut order = Vec::with_capacity(nn);
    let mut indeg = vec![0u32; nn];
    // Dependencies: net (driven by comb cell c) depends on each input net of c.
    for (i, net) in nl.nets().iter().enumerate() {
        let Some(PinRef::Cell { cell, .. }) = net.driver else {
            order.push(NetId(i as u32)); // port-driven or floating: source
            continue;
        };
        if nl.master(cell).class == CellClass::Sequential {
            order.push(NetId(i as u32));
            continue;
        }
        let deps = nl
            .input_nets(cell)
            .iter()
            .flatten()
            .filter(|&&n| !nl.net(n).is_clock)
            .count();
        indeg[i] = deps as u32;
        if deps == 0 {
            order.push(NetId(i as u32));
        }
    }
    // Kahn relaxation.
    let mut head = 0;
    while head < order.len() {
        let nid = order[head];
        head += 1;
        for s in nl.sinks(nid) {
            let PinRef::Cell { cell, .. } = *s else {
                continue;
            };
            if nl.master(cell).class == CellClass::Sequential {
                continue;
            }
            let Some(out) = nl.output_net(cell) else {
                continue;
            };
            if indeg[out.index()] > 0 {
                indeg[out.index()] -= 1;
                if indeg[out.index()] == 0 {
                    order.push(out);
                }
            }
        }
    }
    if order.len() < nn {
        let unresolved = indeg.iter().filter(|&&d| d > 0).count();
        if unresolved > 0 {
            return Err(TimingError::CombinationalCycle {
                unresolved_nets: unresolved,
            });
        }
        // Nets never produced (duplicate dependency edges collapse): append
        // any stragglers deterministically — they are unreachable/floating.
        let mut seen = vec![false; nn];
        for &n in &order {
            seen[n.index()] = true;
        }
        for (i, &was_ordered) in seen.iter().enumerate() {
            if !was_ordered {
                order.push(NetId(i as u32));
            }
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};
    use cp_netlist::{HierTree, Library, NetlistBuilder};

    fn chain(n_inv: usize, period: f64) -> (Netlist, Constraints) {
        // in -> INV^n -> out
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("chain", lib);
        let a = b.add_port("a", PortDir::Input);
        let y = b.add_port("y", PortDir::Output);
        let cells: Vec<CellId> = (0..n_inv)
            .map(|i| b.add_cell(format!("u{i}"), inv, HierTree::ROOT))
            .collect();
        let mut driver = PinRef::Port(a);
        for (i, &c) in cells.iter().enumerate() {
            b.add_net(
                format!("n{i}"),
                Some(driver),
                vec![PinRef::Cell { cell: c, pin: 0 }],
            );
            driver = PinRef::Cell { cell: c, pin: 0 };
        }
        b.add_net("ny", Some(driver), vec![PinRef::Port(y)]);
        (b.finish().unwrap(), Constraints::with_period(period))
    }

    #[test]
    fn combinational_cycle_is_a_typed_error() {
        // Two inverters feeding each other: no topological order exists.
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("loop", lib);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        let u1 = b.add_cell("u1", inv, HierTree::ROOT);
        b.add_net(
            "n0",
            Some(PinRef::Cell { cell: u0, pin: 0 }),
            vec![PinRef::Cell { cell: u1, pin: 0 }],
        );
        b.add_net(
            "n1",
            Some(PinRef::Cell { cell: u1, pin: 0 }),
            vec![PinRef::Cell { cell: u0, pin: 0 }],
        );
        let n = b.finish().unwrap();
        let c = Constraints::with_period(1000.0);
        let err = Sta::new(&n, &c).expect_err("cycle must be rejected");
        assert!(
            matches!(err, TimingError::CombinationalCycle { unresolved_nets } if unresolved_nets > 0)
        );
    }

    #[test]
    fn inverter_chain_delay_accumulates() {
        let (n1, c1) = chain(2, 10_000.0);
        let (n2, c2) = chain(10, 10_000.0);
        let r1 = Sta::new(&n1, &c1)
            .expect("acyclic netlist")
            .run(&WireModel::Estimate);
        let r2 = Sta::new(&n2, &c2)
            .expect("acyclic netlist")
            .run(&WireModel::Estimate);
        // Longer chain ⇒ later arrival ⇒ smaller (still positive) slack.
        assert!(r1.wns > r2.wns);
        assert!(r2.wns > 0.0);
        assert_eq!(r1.tns, 0.0);
    }

    #[test]
    fn tight_period_creates_violations() {
        let (n, c) = chain(20, 50.0);
        let r = Sta::new(&n, &c)
            .expect("acyclic netlist")
            .run(&WireModel::Estimate);
        assert!(r.wns < 0.0);
        assert!(r.tns < 0.0);
        assert!(!r.is_clean());
    }

    #[test]
    fn wns_matches_hand_computation_for_one_gate() {
        // a -> INV -> y with estimate model.
        let (n, c) = chain(1, 1000.0);
        let r = Sta::new(&n, &c)
            .expect("acyclic netlist")
            .run(&WireModel::Estimate);
        let lib = n.library();
        let inv = lib.cell(lib.find("INV_X1").unwrap());
        // Net na: load = wire(8µm) + inv input cap; arrival = PORT_DRIVE*load.
        let load_na = lib.wire_cap * 8.0 + inv.input_caps[0];
        let arr_na = PORT_DRIVE * load_na;
        // Wire to pin: R*8*(cap + 0.5*wire_cap*8)
        let wd = lib.wire_res * 8.0 * (inv.input_caps[0] + 0.5 * lib.wire_cap * 8.0);
        // Net ny: load = wire + port load.
        let load_ny = lib.wire_cap * 8.0 + PORT_LOAD;
        let arr_y = arr_na + wd + inv.intrinsic_delay + inv.drive_res * load_ny;
        let expect = 1000.0 - arr_y;
        assert!((r.wns - expect).abs() < 1e-9, "wns {} vs {}", r.wns, expect);
    }

    #[test]
    fn flop_to_flop_path_has_d_endpoint() {
        // ff0 -Q-> inv -> ff1.D, with the clock net excluded from timing.
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let dff = lib.find("DFF_X1").unwrap();
        let mut b = NetlistBuilder::new("ff", lib);
        let ck = b.add_port("ck", PortDir::Input);
        let f0 = b.add_cell("f0", dff, HierTree::ROOT);
        let f1 = b.add_cell("f1", dff, HierTree::ROOT);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        b.add_clock_net(
            "ckn",
            Some(PinRef::Port(ck)),
            vec![
                PinRef::Cell { cell: f0, pin: 1 },
                PinRef::Cell { cell: f1, pin: 1 },
            ],
        );
        b.add_net(
            "q0",
            Some(PinRef::Cell { cell: f0, pin: 0 }),
            vec![PinRef::Cell { cell: u0, pin: 0 }],
        );
        b.add_net(
            "d1",
            Some(PinRef::Cell { cell: u0, pin: 0 }),
            vec![PinRef::Cell { cell: f1, pin: 0 }],
        );
        let n = b.finish().unwrap();
        let c = Constraints::with_period(1000.0).clock_port(ck);
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let r = sta.run(&WireModel::Estimate);
        assert_eq!(r.endpoint_count, 1);
        let paths = sta.extract_paths(&r, 10);
        assert_eq!(paths.len(), 1);
        // Path: capture flop, inverter, launch flop.
        assert_eq!(paths[0].cells, vec![f1, u0, f0]);
        assert_eq!(paths[0].nets.len(), 2);
        // Clock-to-q + inv + wire fits easily in 1 ns.
        assert!(r.wns > 0.0);
    }

    #[test]
    fn critical_paths_are_sorted_and_traceable() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(7)
            .generate_with_constraints();
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let r = sta.run(&WireModel::Estimate);
        let paths = sta.extract_paths(&r, 50);
        assert!(!paths.is_empty());
        for w in paths.windows(2) {
            assert!(w[0].slack <= w[1].slack);
        }
        for p in &paths {
            assert!(!p.nets.is_empty());
            assert!(!p.cells.is_empty());
            // Path slack equals the endpoint's reported slack.
            assert!(p.slack.is_finite());
        }
    }

    #[test]
    fn routed_model_is_slower_than_placed() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(7)
            .generate_with_constraints();
        let total = n.cell_count() + n.port_count();
        let pos: Vec<(f64, f64)> = (0..total)
            .map(|i| ((i % 97) as f64 * 2.0, (i / 97) as f64 * 2.0))
            .collect();
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let placed = sta.run(&WireModel::Placed(&pos));
        let routed = sta.run(&WireModel::Routed(&pos, 1.3));
        assert!(routed.wns <= placed.wns);
    }

    #[test]
    fn clock_skew_shifts_slack() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(7)
            .generate_with_constraints();
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let base = sta.run(&WireModel::Estimate);
        // Uniform insertion delay leaves slacks unchanged (launch and
        // capture shift together).
        let skews = vec![100.0; n.cell_count()];
        let shifted = sta.run_with_clock(&WireModel::Estimate, Some(&skews));
        assert!((base.wns - shifted.wns).abs() < 1e-6);
    }
}

#[cfg(test)]
mod path_tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn path_count_is_bounded_by_endpoints() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(19)
            .generate_with_constraints();
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let r = sta.run(&WireModel::Estimate);
        let paths = sta.extract_paths(&r, usize::MAX);
        assert_eq!(paths.len(), r.endpoint_count);
        // One worst path per endpoint: endpoints are unique.
        let mut eps: Vec<_> = paths.iter().map(|p| p.endpoint).collect();
        eps.sort_by_key(|e| match *e {
            PinRef::Cell { cell, pin } => (0u8, cell.0, pin as u32),
            PinRef::Port(p) => (1u8, p.0, 0),
        });
        eps.dedup();
        assert_eq!(eps.len(), paths.len());
    }

    #[test]
    fn critical_path_nets_have_the_worst_slack() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Jpeg)
            .scale(0.005)
            .seed(23)
            .generate_with_constraints();
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let r = sta.run(&WireModel::Estimate);
        let paths = sta.extract_paths(&r, 1);
        let worst = &paths[0];
        // The head net of the worst path carries the worst net slack.
        let min_net_slack = r
            .net_slack
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .fold(f64::INFINITY, f64::min);
        let head = worst.nets[0];
        assert!(
            (r.net_slack[head.index()] - min_net_slack).abs() < 1.0,
            "worst path head slack {} vs min {}",
            r.net_slack[head.index()],
            min_net_slack
        );
    }

    #[test]
    fn net_slacks_are_consistent_with_endpoint_slacks() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(29)
            .generate_with_constraints();
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let r = sta.run(&WireModel::Estimate);
        // No net can be more pessimistic than the worst endpoint.
        let min_net = r
            .net_slack
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .fold(f64::INFINITY, f64::min);
        assert!(min_net >= r.wns - 1e-6, "net {min_net} vs wns {}", r.wns);
    }
}

/// A slack histogram over endpoints: `bins` equal-width buckets between
/// the worst and best endpoint slack; returns `(bucket_edges, counts)`.
///
/// # Panics
///
/// Panics if `bins == 0`.
pub fn slack_histogram(report: &TimingReport, bins: usize) -> (Vec<f64>, Vec<usize>) {
    assert!(bins > 0, "at least one bin");
    if report.endpoints.is_empty() {
        return (vec![0.0; bins + 1], vec![0; bins]);
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, s) in &report.endpoints {
        lo = lo.min(s);
        hi = hi.max(s);
    }
    let span = (hi - lo).max(1e-9);
    let edges: Vec<f64> = (0..=bins)
        .map(|k| lo + span * k as f64 / bins as f64)
        .collect();
    let mut counts = vec![0usize; bins];
    for &(_, s) in &report.endpoints {
        let k = (((s - lo) / span) * bins as f64) as usize;
        counts[k.min(bins - 1)] += 1;
    }
    (edges, counts)
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn histogram_covers_all_endpoints() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(41)
            .generate_with_constraints();
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let r = sta.run(&WireModel::Estimate);
        let (edges, counts) = slack_histogram(&r, 10);
        assert_eq!(edges.len(), 11);
        assert_eq!(counts.iter().sum::<usize>(), r.endpoint_count);
        assert!(edges.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn empty_report_histogram() {
        let r = TimingReport {
            wns: 0.0,
            tns: 0.0,
            endpoint_count: 0,
            net_arrival: vec![],
            net_slack: vec![],
            endpoints: vec![],
            hold_wns: 0.0,
            hold_tns: 0.0,
            worst_pred: vec![],
        };
        let (_, counts) = slack_histogram(&r, 4);
        assert_eq!(counts, vec![0; 4]);
    }
}

#[cfg(test)]
mod hold_tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};
    use cp_netlist::{HierTree, Library, NetlistBuilder};

    #[test]
    fn zero_skew_design_meets_hold() {
        // With zero clock skew, min path delay (clk2q + wire) far exceeds
        // the 5 ps hold time.
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(77)
            .generate_with_constraints();
        let r = Sta::new(&n, &c)
            .expect("acyclic netlist")
            .run(&WireModel::Estimate);
        assert!(r.hold_wns > 0.0, "hold WNS {}", r.hold_wns);
        assert_eq!(r.hold_tns, 0.0);
    }

    #[test]
    fn capture_skew_creates_hold_violations() {
        // ff0 -Q-> ff1.D direct; give ff1 (the capturing flop) a huge clock
        // delay: data launched at t=0 arrives long before ff1's edge + hold.
        let lib = Library::nangate45ish();
        let dff = lib.find("DFF_X1").unwrap();
        let mut b = NetlistBuilder::new("hold", lib);
        let ck = b.add_port("ck", PortDir::Input);
        let f0 = b.add_cell("f0", dff, HierTree::ROOT);
        let f1 = b.add_cell("f1", dff, HierTree::ROOT);
        b.add_clock_net(
            "ckn",
            Some(PinRef::Port(ck)),
            vec![
                PinRef::Cell { cell: f0, pin: 1 },
                PinRef::Cell { cell: f1, pin: 1 },
            ],
        );
        b.add_net(
            "d1",
            Some(PinRef::Cell { cell: f0, pin: 0 }),
            vec![PinRef::Cell { cell: f1, pin: 0 }],
        );
        let n = b.finish().unwrap();
        let c = Constraints::with_period(10_000.0).clock_port(ck);
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let ok = sta.run_with_clock(&WireModel::Estimate, Some(&[0.0, 0.0]));
        assert!(ok.hold_wns > 0.0);
        // Capture clock 500 ps late: hold violated by roughly that much.
        let skewed = sta.run_with_clock(&WireModel::Estimate, Some(&[0.0, 500.0]));
        assert!(
            skewed.hold_wns < 0.0,
            "expected hold violation, got {}",
            skewed.hold_wns
        );
        assert!(skewed.hold_tns < 0.0);
        // Setup got easier by the same skew.
        assert!(skewed.wns > ok.wns);
    }

    #[test]
    fn min_arrival_never_exceeds_max() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Jpeg)
            .scale(0.005)
            .seed(79)
            .generate_with_constraints();
        let r = Sta::new(&n, &c)
            .expect("acyclic netlist")
            .run(&WireModel::Estimate);
        // Spot-check via the public report: hold WNS uses min arrivals, so
        // it must be at least as optimistic as setup would imply.
        assert!(r.hold_wns.is_finite());
    }
}
