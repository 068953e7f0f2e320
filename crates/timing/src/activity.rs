//! Vectorless switching-activity propagation (`findClkedActivity`
//! equivalent).
//!
//! Each net carries a static probability `p` (chance the signal is 1) and a
//! transition density `d` (toggles per clock cycle). Primary inputs seed the
//! analysis from [`cp_netlist::Constraints`]; combinational gates propagate
//! with the exact Boolean-difference method over the masters' truth tables:
//!
//! `d_y = Σ_i P(∂f/∂x_i) · d_i`, with `P(∂f/∂x_i)` the probability the
//! output is sensitized to input `i` (spatial independence assumed, the
//! standard vectorless approximation). Flop outputs resample: `p_Q = p_D`,
//! `d_Q = 2 · p_D · (1 − p_D)` (at most one toggle per cycle).
//!
//! Sequential feedback loops are handled by a fixed budget of
//! Gauss–Seidel sweeps, not iteration to a fixed point: on the generated
//! designs the densities never settle (on the full-size profiles the last
//! round still moves one by 0.6–2.1), so the sweep count is part of the
//! model.

use cp_netlist::library::{CellClass, LogicFunction};
use cp_netlist::netlist::{Netlist, PinRef};
use cp_netlist::{Constraints, NetId};

/// Per-net switching activity.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityReport {
    /// Static probability of logic 1 per net.
    pub probability: Vec<f64>,
    /// Transition density per net, toggles per clock cycle.
    pub density: Vec<f64>,
}

impl ActivityReport {
    /// Switching activity `θ_e` of a net (Eq. 2 of the paper uses this).
    pub fn activity(&self, net: NetId) -> f64 {
        self.density[net.index()]
    }
}

/// Rounds of two Gauss–Seidel sweeps over sequential feedback.
const MAX_ITERS: usize = 8;
/// Combinational density cap, toggles per cycle. The Boolean-difference
/// method counts glitching, which XOR trees amplify without bound;
/// vectorless tools clip at the clock rate (two edges per cycle).
const DENSITY_CAP: f64 = 2.0;

/// One cell-driven net, lowered for the sweep: where its inputs live and
/// which minterms of the driver's function count.
#[derive(Clone, Copy)]
struct GateRow {
    /// Input nets by pin. An unbound pin points one slot past the last
    /// net, which holds `p = 0.5`, `d = 0` for the whole run.
    inputs: [u32; 4],
    /// The driven net.
    net: u32,
    /// Minterms with `f = 1`.
    on_set: u16,
    /// Per pin, the minterms with `x_pin = 0` whose output flips with the pin.
    sensitised: [u16; 4],
    /// Signal inputs of the function; `FLOP` marks a flop (`inputs[0]` = D).
    arity: u8,
}

/// [`GateRow::arity`] of a sequential cell.
const FLOP: u8 = u8::MAX;

impl GateRow {
    /// The minterm sets of a combinational function, inputs and net still
    /// to be filled in; `None` when the function has no truth table.
    fn of_function(function: LogicFunction) -> Option<Self> {
        let table = function.truth_table()?;
        let arity = function.input_count();
        let mut sensitised = [0u16; 4];
        for (pin, set) in sensitised.iter_mut().enumerate().take(arity) {
            for m in (0..1u16 << arity).filter(|m| (m >> pin) & 1 == 0) {
                if (table >> m) & 1 != (table >> (m | 1 << pin)) & 1 {
                    *set |= 1 << m;
                }
            }
        }
        Some(Self {
            inputs: [0; 4],
            net: 0,
            on_set: table,
            sensitised,
            arity: arity as u8,
        })
    }
}

/// Propagates vectorless activity through the design.
///
/// Runs `MAX_ITERS` (8) rounds of two Gauss–Seidel sweeps in net-id order
/// over a gate table built once per call: one row per cell-driven net
/// with the function's minterm sets resolved, so a sweep touches no
/// library or connectivity structure.
///
/// # Examples
///
/// ```
/// use cp_netlist::generator::{DesignProfile, GeneratorConfig};
/// use cp_timing::activity::propagate_activity;
///
/// let (netlist, constraints) = GeneratorConfig::from_profile(DesignProfile::Aes)
///     .scale(0.01)
///     .generate_with_constraints();
/// let act = propagate_activity(&netlist, &constraints);
/// assert!(act.density.iter().all(|&d| d >= 0.0));
/// assert!(act.probability.iter().all(|&p| (0.0..=1.0).contains(&p)));
/// ```
pub fn propagate_activity(netlist: &Netlist, constraints: &Constraints) -> ActivityReport {
    let nn = netlist.net_count();
    let mut span = cp_trace::span_with(
        "timing.activity",
        &[("nets", cp_trace::ArgValue::U(nn as u64))],
    );
    // Slot `nn` is the unbound-pin sentinel.
    let mut prob = vec![0.5f64; nn + 1];
    let mut dens = vec![0.0f64; nn + 1];
    let unbound = nn as u32;
    let slot = |net: Option<NetId>| net.map_or(unbound, |n| n.index() as u32);

    // Truth tables and minterm sets once per master, not once per gate
    // evaluation.
    let functions: Vec<Option<GateRow>> = netlist
        .library()
        .cells()
        .iter()
        .map(|master| GateRow::of_function(master.function))
        .collect();

    // Seed the sources and lower every cell-driven net to a gate row.
    let mut rows: Vec<GateRow> = Vec::with_capacity(nn);
    for (i, net) in netlist.nets().iter().enumerate() {
        match net.driver {
            Some(PinRef::Port(_)) => {
                prob[i] = constraints.input_probability;
                dens[i] = if net.is_clock {
                    2.0 // the clock toggles twice per cycle
                } else {
                    constraints.input_activity
                };
            }
            Some(PinRef::Cell { cell, .. }) => {
                let master = netlist.master(cell);
                let pins = netlist.input_nets(cell);
                let mut inputs = [unbound; 4];
                match master.class {
                    CellClass::Sequential => {
                        prob[i] = 0.5;
                        dens[i] = 0.5; // refined by iteration
                        inputs[0] = slot(pins.first().copied().flatten());
                        rows.push(GateRow {
                            inputs,
                            net: i as u32,
                            on_set: 0,
                            sensitised: [0; 4],
                            arity: FLOP,
                        });
                    }
                    CellClass::Combinational | CellClass::ClockBuffer => {
                        let Some(function) = functions[netlist.cell(cell).ty.index()] else {
                            continue;
                        };
                        let arity = function.arity as usize;
                        for (input, &n) in inputs.iter_mut().zip(pins).take(arity) {
                            *input = slot(n);
                        }
                        rows.push(GateRow {
                            inputs,
                            net: i as u32,
                            ..function
                        });
                    }
                    CellClass::Macro => {}
                }
            }
            None => {}
        }
    }

    let mut delta = 0.0f64;
    for _ in 0..MAX_ITERS {
        delta = 0.0;
        // Forward sweeps in net-id order, which is roughly topological for
        // the generated pipelines. `delta` keeps the last round's largest
        // change for the span: the evidence that the budget, not a fixed
        // point, ends the loop.
        for _ in 0..2 {
            for row in &rows {
                let i = row.net as usize;
                let (new_p, new_d) = if row.arity == FLOP {
                    // Q resamples D once per cycle.
                    let p_d = prob[row.inputs[0] as usize];
                    (p_d, 2.0 * p_d * (1.0 - p_d))
                } else {
                    let k = row.arity as usize;
                    // Per pin, the factor a minterm contributes for the
                    // pin at 0 and at 1; 1.0 (exact under ×) past the arity.
                    let mut lit = [[1.0f64; 2]; 4];
                    for (l, &n) in lit.iter_mut().zip(&row.inputs).take(k) {
                        let p = prob[n as usize];
                        *l = [1.0 - p, p];
                    }
                    let new_p = minterm_sum(row.on_set, &lit);
                    let mut new_d = 0.0;
                    for pin in 0..k {
                        // The Boolean difference leaves the pin itself out
                        // of the product.
                        let own = std::mem::replace(&mut lit[pin], [1.0; 2]);
                        let sensitised = minterm_sum(row.sensitised[pin], &lit);
                        lit[pin] = own;
                        new_d += sensitised * dens[row.inputs[pin] as usize];
                    }
                    (new_p, new_d.min(DENSITY_CAP))
                };
                delta = delta.max((prob[i] - new_p).abs() + (dens[i] - new_d).abs());
                prob[i] = new_p;
                dens[i] = new_d;
            }
        }
    }
    prob.truncate(nn);
    dens.truncate(nn);
    span.arg(
        "gate_evals",
        cp_trace::ArgValue::U((rows.len() * 2 * MAX_ITERS) as u64),
    );
    span.arg("delta", cp_trace::ArgValue::F(delta));
    ActivityReport {
        probability: prob,
        density: dens,
    }
}

/// `Σ_m Π_j lit[j][bit j of m]` over the minterms in `set`, ascending,
/// each product taken in pin order: `P(f = 1)` for the on-set, `P(∂f/∂x_i)`
/// for a sensitised set with `lit[i]` neutralised.
#[inline]
fn minterm_sum(mut set: u16, lit: &[[f64; 2]; 4]) -> f64 {
    let mut total = 0.0;
    while set != 0 {
        let m = set.trailing_zeros() as usize;
        set &= set - 1;
        total += lit[0][m & 1] * lit[1][(m >> 1) & 1] * lit[2][(m >> 2) & 1] * lit[3][m >> 3];
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};
    use cp_netlist::library::LogicFunction;
    use cp_netlist::{HierTree, Library, NetlistBuilder, PortDir};

    /// `P(f = 1)` given independent input probabilities.
    fn output_probability(table: u16, k: usize, p: &[f64; 4]) -> f64 {
        let mut total = 0.0;
        for m in 0..(1u16 << k) {
            if (table >> m) & 1 == 0 {
                continue;
            }
            let mut pm = 1.0;
            for (j, &pj) in p.iter().enumerate().take(k) {
                pm *= if (m >> j) & 1 == 1 { pj } else { 1.0 - pj };
            }
            total += pm;
        }
        total
    }

    /// `P(∂f/∂x_i)`: probability the output differs when input `i` flips.
    fn boolean_difference(table: u16, k: usize, i: usize, p: &[f64; 4]) -> f64 {
        let mut total = 0.0;
        for m in 0..(1u16 << k) {
            // Only count minterms with x_i = 0; the pair (m, m | 1<<i) is
            // sensitized iff the outputs differ.
            if (m >> i) & 1 == 1 {
                continue;
            }
            let m1 = m | (1 << i);
            if ((table >> m) & 1) == ((table >> m1) & 1) {
                continue;
            }
            // Probability of the other inputs taking this assignment.
            let mut pm = 1.0;
            for (j, &pj) in p.iter().enumerate().take(k) {
                if j == i {
                    continue;
                }
                pm *= if (m >> j) & 1 == 1 { pj } else { 1.0 - pj };
            }
            total += pm;
        }
        total
    }

    /// The netlist-walking implementation [`propagate_activity`] replaced,
    /// kept as the oracle it must match bit for bit. It keeps the early
    /// exit the production loop dropped (densities settled within 1e-6),
    /// so the bit-equality tests fail on any design where that exit would
    /// have fired.
    fn reference_activity(netlist: &Netlist, constraints: &Constraints) -> ActivityReport {
        let nn = netlist.net_count();
        let mut prob = vec![0.5f64; nn];
        let mut dens = vec![0.0f64; nn];
        for (i, net) in netlist.nets().iter().enumerate() {
            match net.driver {
                Some(PinRef::Port(_)) => {
                    prob[i] = constraints.input_probability;
                    dens[i] = if net.is_clock {
                        2.0
                    } else {
                        constraints.input_activity
                    };
                }
                Some(PinRef::Cell { cell, .. })
                    if netlist.master(cell).class == CellClass::Sequential =>
                {
                    prob[i] = 0.5;
                    dens[i] = 0.5;
                }
                _ => {}
            }
        }
        for _ in 0..MAX_ITERS {
            let mut delta = 0.0f64;
            for _ in 0..2 {
                for (i, net) in netlist.nets().iter().enumerate() {
                    let Some(PinRef::Cell { cell, .. }) = net.driver else {
                        continue;
                    };
                    let master = netlist.master(cell);
                    let (new_p, new_d) = match master.class {
                        CellClass::Sequential => {
                            let d_net = netlist.input_net(cell, 0);
                            let p_d = d_net.map_or(0.5, |n| prob[n.index()]);
                            (p_d, 2.0 * p_d * (1.0 - p_d))
                        }
                        CellClass::Combinational | CellClass::ClockBuffer => {
                            let Some(table) = master.function.truth_table() else {
                                continue;
                            };
                            let k = master.function.input_count();
                            let mut p_in = [0.5f64; 4];
                            let mut d_in = [0.0f64; 4];
                            for (pin, net_opt) in netlist.input_nets(cell).iter().enumerate() {
                                if let Some(n) = net_opt {
                                    p_in[pin] = prob[n.index()];
                                    d_in[pin] = dens[n.index()];
                                }
                            }
                            let new_p = output_probability(table, k, &p_in);
                            let mut new_d = 0.0;
                            for (i_pin, &d) in d_in.iter().enumerate().take(k) {
                                new_d += boolean_difference(table, k, i_pin, &p_in) * d;
                            }
                            (new_p, new_d.min(DENSITY_CAP))
                        }
                        CellClass::Macro => continue,
                    };
                    delta = delta.max((prob[i] - new_p).abs() + (dens[i] - new_d).abs());
                    prob[i] = new_p;
                    dens[i] = new_d;
                }
            }
            if delta < 1e-6 {
                break;
            }
        }
        ActivityReport {
            probability: prob,
            density: dens,
        }
    }

    fn assert_bits_equal(got: &ActivityReport, want: &ActivityReport, what: &str) {
        assert_eq!(got.probability.len(), want.probability.len(), "{what}");
        assert_eq!(got.density.len(), want.density.len(), "{what}");
        for i in 0..want.probability.len() {
            assert_eq!(
                got.probability[i].to_bits(),
                want.probability[i].to_bits(),
                "{what}: probability of net {i}"
            );
            assert_eq!(
                got.density[i].to_bits(),
                want.density[i].to_bits(),
                "{what}: density of net {i}"
            );
        }
    }

    #[test]
    fn matches_the_reference_bit_for_bit_on_generated_designs() {
        for (profile, scale) in [
            (DesignProfile::Aes, 0.1),
            (DesignProfile::Jpeg, 0.03),
            (DesignProfile::Ariane, 0.015),
        ] {
            for seed in [1, 7, 23] {
                let (n, c) = GeneratorConfig::from_profile(profile)
                    .scale(scale)
                    .seed(seed)
                    .generate_with_constraints();
                assert_bits_equal(
                    &propagate_activity(&n, &c),
                    &reference_activity(&n, &c),
                    &format!("{profile:?} seed {seed}"),
                );
            }
        }
    }

    /// Every irregular driver at once: gates with unbound pins, a
    /// combinational master without a truth table, a macro, a flop with an
    /// unconnected D, a flop in a feedback loop, the clock net and an
    /// undriven net.
    #[test]
    fn matches_the_reference_bit_for_bit_on_irregular_nets() {
        let mut lib = Library::nangate45ish();
        let template = lib.cell(lib.find("BUF_X1").unwrap()).clone();
        let blackbox = lib.add(cp_netlist::CellType {
            name: "BLACKBOX".into(),
            function: LogicFunction::Opaque,
            ..template
        });
        let block = lib.add_macro("BLOCK", 10.0, 10.0);
        let find = |name: &str| lib.find(name).unwrap();
        let (maj3, xor2, mux2, dff, clkbuf) = (
            find("MAJ3_X1"),
            find("XOR2_X1"),
            find("MUX2_X1"),
            find("DFF_X1"),
            find("CLKBUF_X1"),
        );
        let mut b = NetlistBuilder::new("t", lib);
        let a = b.add_port("a", PortDir::Input);
        let ck = b.add_port("ck", PortDir::Input);
        let mut cell = |name: &str, ty| b.add_cell(name, ty, HierTree::ROOT);
        let u_maj = cell("u_maj", maj3);
        let u_xor = cell("u_xor", xor2);
        let u_mux = cell("u_mux", mux2);
        let u_box = cell("u_box", blackbox);
        let u_block = cell("u_block", block);
        let u_open = cell("u_open", dff);
        let u_loop = cell("u_loop", dff);
        let u_ckbuf = cell("u_ckbuf", clkbuf);
        let pin = |cell, pin| PinRef::Cell { cell, pin };
        let out = |cell| Some(PinRef::Cell { cell, pin: 0 });
        // MAJ3 with pin 1 unbound, XOR2 with pin 0 unbound, MUX2 fully
        // bound and fed by its own flop.
        b.add_net(
            "na",
            Some(PinRef::Port(a)),
            vec![pin(u_maj, 0), pin(u_xor, 1), pin(u_box, 0), pin(u_mux, 0)],
        );
        b.add_clock_net(
            "nck",
            Some(PinRef::Port(ck)),
            vec![pin(u_open, 1), pin(u_ckbuf, 0)],
        );
        b.add_net("nckb", out(u_ckbuf), vec![pin(u_loop, 1)]);
        b.add_net("nmaj", out(u_maj), vec![pin(u_mux, 1)]);
        b.add_net("nxor", out(u_xor), vec![pin(u_maj, 2)]);
        b.add_net("nloop", out(u_loop), vec![pin(u_mux, 2)]);
        b.add_net("nmux", out(u_mux), vec![pin(u_loop, 0)]);
        b.add_net("nbox", out(u_box), vec![]);
        b.add_net("nblock", out(u_block), vec![]);
        b.add_net("nopen", out(u_open), vec![]);
        b.add_net("nfloat", None, vec![]);
        let n = b.finish().unwrap();
        let c = Constraints::with_period(1000.0);
        let got = propagate_activity(&n, &c);
        assert_bits_equal(&got, &reference_activity(&n, &c), "irregular nets");
        assert_eq!(got.probability.len(), n.net_count());
    }

    #[test]
    fn and_gate_probability() {
        let table = LogicFunction::And2.truth_table().unwrap();
        let p = [0.5, 0.5, 0.0, 0.0];
        assert!((output_probability(table, 2, &p) - 0.25).abs() < 1e-12);
        // Sensitization to input 0 requires input 1 = 1.
        assert!((boolean_difference(table, 2, 0, &p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn xor_gate_is_always_sensitized() {
        let table = LogicFunction::Xor2.truth_table().unwrap();
        let p = [0.3, 0.8, 0.0, 0.0];
        assert!((boolean_difference(table, 2, 0, &p) - 1.0).abs() < 1e-12);
        assert!((boolean_difference(table, 2, 1, &p) - 1.0).abs() < 1e-12);
        // P(xor) = p0(1-p1) + p1(1-p0)
        let expect = 0.3 * 0.2 + 0.8 * 0.7;
        assert!((output_probability(table, 2, &p) - expect).abs() < 1e-12);
    }

    #[test]
    fn inverter_preserves_density() {
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("t", lib);
        let a = b.add_port("a", PortDir::Input);
        let y = b.add_port("y", PortDir::Output);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        let na = b.add_net(
            "na",
            Some(cp_netlist::PinRef::Port(a)),
            vec![cp_netlist::PinRef::Cell { cell: u0, pin: 0 }],
        );
        let ny = b.add_net(
            "ny",
            Some(cp_netlist::PinRef::Cell { cell: u0, pin: 0 }),
            vec![cp_netlist::PinRef::Port(y)],
        );
        let n = b.finish().unwrap();
        let c = Constraints::with_period(1000.0);
        let act = propagate_activity(&n, &c);
        assert!((act.density[ny.index()] - act.density[na.index()]).abs() < 1e-12);
        assert!((act.probability[ny.index()] - (1.0 - c.input_probability)).abs() < 1e-12);
    }

    #[test]
    fn activity_attenuates_through_and_chain() {
        // AND gates with random inputs attenuate switching activity.
        let lib = Library::nangate45ish();
        let and2 = lib.find("AND2_X1").unwrap();
        let mut b = NetlistBuilder::new("t", lib);
        let a = b.add_port("a", PortDir::Input);
        let c2 = b.add_port("b", PortDir::Input);
        let u0 = b.add_cell("u0", and2, HierTree::ROOT);
        let na = b.add_net(
            "na",
            Some(cp_netlist::PinRef::Port(a)),
            vec![cp_netlist::PinRef::Cell { cell: u0, pin: 0 }],
        );
        b.add_net(
            "nb",
            Some(cp_netlist::PinRef::Port(c2)),
            vec![cp_netlist::PinRef::Cell { cell: u0, pin: 1 }],
        );
        let ny = b.add_net(
            "ny",
            Some(cp_netlist::PinRef::Cell { cell: u0, pin: 0 }),
            vec![],
        );
        let n = b.finish().unwrap();
        let c = Constraints::with_period(1000.0);
        let act = propagate_activity(&n, &c);
        // d_y = P(b=1)·d_a + P(a=1)·d_b = p·(d_a + d_b) with p = 0.5.
        let expect = c.input_probability * 2.0 * c.input_activity;
        assert!((act.density[ny.index()] - expect).abs() < 1e-12);
        // P(y=1) = p_a · p_b.
        let p_expect = c.input_probability * c.input_probability;
        assert!((act.probability[ny.index()] - p_expect).abs() < 1e-12);
        assert!(act.density[na.index()] > 0.0);
    }

    #[test]
    fn full_design_converges_and_is_bounded() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Jpeg)
            .scale(0.005)
            .seed(3)
            .generate_with_constraints();
        let act = propagate_activity(&n, &c);
        for (i, (&p, &d)) in act.probability.iter().zip(&act.density).enumerate() {
            assert!((0.0..=1.0).contains(&p), "net {i} p={p}");
            assert!((0.0..=4.0).contains(&d), "net {i} d={d}");
        }
        // The clock is the most active net.
        let clock = n.nets().iter().position(|x| x.is_clock).unwrap();
        assert_eq!(act.density[clock], 2.0);
    }
}
