//! Clock tree synthesis by recursive geometric bisection.
//!
//! Builds a buffered clock tree over the design's flop positions: sinks are
//! split by the longer bounding-box axis until leaves hold few sinks; every
//! tree node hosts a clock buffer at its sinks' centroid. Per-sink insertion
//! delay follows the same linear delay model STA uses, so CTS skew plugs
//! straight into `cp_timing`-style analysis.

use crate::error::PlaceError;
use cp_netlist::library::CellClass;
use cp_netlist::netlist::Netlist;
use cp_netlist::CellId;

/// CTS settings: none. The struct stays only because
/// [`synthesize_clock_tree`]'s signature is pinned.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CtsOptions;

/// Maximum sinks driven directly by a leaf buffer.
const MAX_LEAF_SINKS: usize = 16;

/// A synthesized clock tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockTree {
    /// Clock arrival (insertion delay) per netlist cell, ps; 0 for
    /// non-sequential cells.
    pub arrival: Vec<f64>,
    /// Buffers inserted.
    pub buffer_count: usize,
    /// Total clock wirelength, µm.
    pub wirelength: f64,
    /// Global skew (max − min sink arrival), ps.
    pub skew: f64,
}

/// Synthesizes a clock tree over the sequential cells of `netlist` at the
/// given positions (indexed like hypergraph vertices: cells then ports).
///
/// # Examples
///
/// ```
/// use cp_netlist::generator::{DesignProfile, GeneratorConfig};
/// use cp_place::cts::{synthesize_clock_tree, CtsOptions};
///
/// let netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
///     .scale(0.01)
///     .generate();
/// let total = netlist.cell_count() + netlist.port_count();
/// let pos: Vec<(f64, f64)> = (0..total)
///     .map(|i| ((i % 40) as f64 * 2.0, (i / 40) as f64 * 2.0))
///     .collect();
/// let tree = synthesize_clock_tree(&netlist, &pos, &CtsOptions).unwrap();
/// assert!(tree.buffer_count > 0);
/// assert!(tree.skew >= 0.0);
/// ```
///
/// # Errors
///
/// - [`PlaceError::InvalidInput`] when the library carries no clock buffer
///   master or `positions` doesn't cover every cell.
/// - [`PlaceError::NonFinite`] when a sink position carries NaN/Inf.
pub fn synthesize_clock_tree(
    netlist: &Netlist,
    positions: &[(f64, f64)],
    _options: &CtsOptions,
) -> Result<ClockTree, PlaceError> {
    synthesize(netlist, positions, MAX_LEAF_SINKS)
}

/// [`synthesize_clock_tree`] with leaves of at most `max_leaf_sinks` sinks.
fn synthesize(
    netlist: &Netlist,
    positions: &[(f64, f64)],
    max_leaf_sinks: usize,
) -> Result<ClockTree, PlaceError> {
    let lib = netlist.library();
    let Some(buf) = lib.find("CLKBUF_X4").or_else(|| lib.find("BUF_X4")) else {
        return Err(PlaceError::InvalidInput {
            reason: "library has no clock buffer master (CLKBUF_X4 or BUF_X4)".to_string(),
        });
    };
    let buf = lib.cell(buf);
    if positions.len() < netlist.cell_count() {
        return Err(PlaceError::InvalidInput {
            reason: format!(
                "{} positions for {} cells",
                positions.len(),
                netlist.cell_count()
            ),
        });
    }
    let sinks: Vec<(CellId, (f64, f64), f64)> = netlist
        .cells()
        .iter()
        .enumerate()
        .filter(|(_, c)| lib.cell(c.ty).class == CellClass::Sequential)
        .map(|(i, c)| {
            let id = CellId(i as u32);
            let cap = lib.cell(c.ty).input_caps.get(1).copied().unwrap_or(1.0);
            (id, positions[i], cap)
        })
        .collect();
    if sinks
        .iter()
        .any(|&(_, p, _)| !(p.0.is_finite() && p.1.is_finite()))
    {
        return Err(PlaceError::NonFinite { stage: "cts sinks" });
    }
    let mut tree = ClockTree {
        arrival: vec![0.0; netlist.cell_count()],
        buffer_count: 0,
        wirelength: 0.0,
        skew: 0.0,
    };
    if sinks.is_empty() {
        return Ok(tree);
    }
    let idx: Vec<usize> = (0..sinks.len()).collect();
    build(
        netlist,
        &sinks,
        idx,
        0.0,
        max_leaf_sinks,
        (buf.intrinsic_delay, buf.drive_res, buf.input_caps[0]),
        &mut tree,
    );
    let arrivals: Vec<f64> = sinks
        .iter()
        .map(|&(c, _, _)| tree.arrival[c.index()])
        .collect();
    let max = arrivals.iter().copied().fold(f64::MIN, f64::max);
    let min = arrivals.iter().copied().fold(f64::MAX, f64::min);
    tree.skew = max - min;
    Ok(tree)
}

fn centroid(sinks: &[(CellId, (f64, f64), f64)], idx: &[usize]) -> (f64, f64) {
    let n = idx.len() as f64;
    let (sx, sy) = idx.iter().fold((0.0, 0.0), |acc, &i| {
        (acc.0 + sinks[i].1 .0, acc.1 + sinks[i].1 .1)
    });
    (sx / n, sy / n)
}

/// Recursively buffers a sink set; `arrival_here` is the insertion delay up
/// to (and including the input of) this node's buffer.
fn build(
    netlist: &Netlist,
    sinks: &[(CellId, (f64, f64), f64)],
    mut idx: Vec<usize>,
    arrival_here: f64,
    max_leaf_sinks: usize,
    buf: (f64, f64, f64), // (intrinsic ps, drive kΩ, input cap fF)
    tree: &mut ClockTree,
) {
    let lib = netlist.library();
    let (b_intr, b_res, b_cap) = buf;
    let here = centroid(sinks, &idx);
    tree.buffer_count += 1;
    if idx.len() <= max_leaf_sinks {
        // Leaf buffer drives the sinks directly.
        let mut load = 0.0;
        let mut dists = Vec::with_capacity(idx.len());
        for &i in &idx {
            let (_, p, cap) = sinks[i];
            let d = (p.0 - here.0).abs() + (p.1 - here.1).abs();
            load += cap + lib.wire_cap * d;
            dists.push((i, d, cap));
            tree.wirelength += d;
        }
        let drive_delay = b_intr + b_res * load;
        for (i, d, cap) in dists {
            let wire = lib.wire_res * d * (cap + 0.5 * lib.wire_cap * d);
            tree.arrival[sinks[i].0.index()] = arrival_here + drive_delay + wire;
        }
        return;
    }
    // Split along the longer bbox axis at the median.
    let (mut lo, mut hi) = ((f64::MAX, f64::MAX), (f64::MIN, f64::MIN));
    for &i in &idx {
        let p = sinks[i].1;
        lo = (lo.0.min(p.0), lo.1.min(p.1));
        hi = (hi.0.max(p.0), hi.1.max(p.1));
    }
    let horizontal = (hi.0 - lo.0) >= (hi.1 - lo.1);
    idx.sort_by(|&a, &b| {
        let ka = if horizontal {
            sinks[a].1 .0
        } else {
            sinks[a].1 .1
        };
        let kb = if horizontal {
            sinks[b].1 .0
        } else {
            sinks[b].1 .1
        };
        ka.total_cmp(&kb)
    });
    let right = idx.split_off(idx.len() / 2);
    let c_left = centroid(sinks, &idx);
    let c_right = centroid(sinks, &right);
    let d_left = (c_left.0 - here.0).abs() + (c_left.1 - here.1).abs();
    let d_right = (c_right.0 - here.0).abs() + (c_right.1 - here.1).abs();
    tree.wirelength += d_left + d_right;
    let load = 2.0 * b_cap + lib.wire_cap * (d_left + d_right);
    let drive_delay = b_intr + b_res * load;
    let wire_left = lib.wire_res * d_left * (b_cap + 0.5 * lib.wire_cap * d_left);
    let wire_right = lib.wire_res * d_right * (b_cap + 0.5 * lib.wire_cap * d_right);
    build(
        netlist,
        sinks,
        idx,
        arrival_here + drive_delay + wire_left,
        max_leaf_sinks,
        buf,
        tree,
    );
    build(
        netlist,
        sinks,
        right,
        arrival_here + drive_delay + wire_right,
        max_leaf_sinks,
        buf,
        tree,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn with_positions(scale: f64) -> (Netlist, Vec<(f64, f64)>) {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(scale)
            .seed(10)
            .generate();
        let total = n.cell_count() + n.port_count();
        let pos: Vec<(f64, f64)> = (0..total)
            .map(|i| ((i % 60) as f64 * 2.0, (i / 60) as f64 * 2.0))
            .collect();
        (n, pos)
    }

    #[test]
    fn every_flop_gets_an_arrival() {
        let (n, pos) = with_positions(0.01);
        let t = synthesize_clock_tree(&n, &pos, &CtsOptions).expect("cts succeeds");
        let lib = n.library();
        for (i, c) in n.cells().iter().enumerate() {
            if lib.cell(c.ty).class == CellClass::Sequential {
                assert!(t.arrival[i] > 0.0, "flop {i} has no clock arrival");
            } else {
                assert_eq!(t.arrival[i], 0.0);
            }
        }
    }

    #[test]
    fn skew_is_bounded_and_wirelength_positive() {
        let (n, pos) = with_positions(0.01);
        let t = synthesize_clock_tree(&n, &pos, &CtsOptions).expect("cts succeeds");
        assert!(t.wirelength > 0.0);
        assert!(t.skew >= 0.0);
        let max_arrival = t.arrival.iter().copied().fold(f64::MIN, f64::max);
        assert!(
            t.skew < max_arrival,
            "skew {} vs max {}",
            t.skew,
            max_arrival
        );
    }

    #[test]
    fn more_sinks_mean_more_buffers() {
        let (n1, p1) = with_positions(0.005);
        let (n2, p2) = with_positions(0.03);
        let t1 = synthesize_clock_tree(&n1, &p1, &CtsOptions).expect("cts succeeds");
        let t2 = synthesize_clock_tree(&n2, &p2, &CtsOptions).expect("cts succeeds");
        assert!(t2.buffer_count > t1.buffer_count);
    }

    #[test]
    fn no_flops_is_fine() {
        use cp_netlist::{HierTree, Library, NetlistBuilder};
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("nf", lib);
        b.add_cell("u0", inv, HierTree::ROOT);
        let n = b.finish().unwrap();
        let t = synthesize_clock_tree(&n, &[(0.0, 0.0)], &CtsOptions).expect("cts succeeds");
        assert_eq!(t.buffer_count, 0);
        assert_eq!(t.skew, 0.0);
    }

    #[test]
    fn leaf_size_affects_tree_depth() {
        let (n, pos) = with_positions(0.02);
        let small = synthesize(&n, &pos, 4).expect("cts succeeds");
        let large = synthesize(&n, &pos, 64).expect("cts succeeds");
        assert!(small.buffer_count > large.buffer_count);
    }
}
