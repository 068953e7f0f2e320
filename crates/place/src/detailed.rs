//! Detailed placement: legality-preserving HPWL refinement.
//!
//! Two classic moves, applied in alternating passes:
//!
//! 1. **Optimal-region sliding** — each cell moves to the HPWL-optimal x
//!    inside the free span between its row neighbors (the median interval
//!    of its incident nets' bounding boxes), snapped to sites.
//! 2. **Adjacent swap** — neighboring cells in a row swap when that lowers
//!    HPWL and both still fit.
//!
//! Both moves keep the placement legal (cells on rows, no overlaps, inside
//! the core), so this runs after [`crate::legalize()`].

use crate::problem::PlacementProblem;
use cp_netlist::floorplan::Floorplan;

/// Options for [`refine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetailedOptions {
    /// Slide+swap passes to run.
    pub passes: usize,
}

impl Default for DetailedOptions {
    fn default() -> Self {
        Self { passes: 2 }
    }
}

/// Refines a legalized placement in place; returns the HPWL improvement
/// (non-negative).
///
/// Multi-row objects (macros) are left untouched.
pub fn refine(
    problem: &PlacementProblem,
    floorplan: &Floorplan,
    positions: &mut [(f64, f64)],
    options: &DetailedOptions,
) -> f64 {
    let m = problem.movable_count();
    if m == 0 {
        return 0.0;
    }
    let _span = cp_trace::span_with(
        "place.refine",
        &[("passes", cp_trace::ArgValue::U(options.passes as u64))],
    );
    // Per-net HPWL cache: moves touch only their incident nets, so cost
    // deltas come from recomputing those nets instead of the full design.
    let mut cache = crate::hpwl::IncrementalHpwl::new(problem, positions);
    let before = cache.total();
    let incident = |cell: usize| problem.hypergraph.incident(cell as u32);
    // Reused by every move: the median bounds of a slide, the nets a swap
    // touches and their lengths after it.
    let mut bounds: Vec<f64> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let mut fresh: Vec<f64> = Vec::new();
    // Rows of single-row cells, each sorted by x.
    let row_of = |y: f64| ((y - floorplan.core.lly) / floorplan.row_height).round() as i64;
    let mut rows: std::collections::BTreeMap<i64, Vec<usize>> = std::collections::BTreeMap::new();
    for (i, &(_, y)) in positions.iter().take(m).enumerate() {
        if problem.movable[i].height <= floorplan.row_height * 1.5 {
            rows.entry(row_of(y)).or_default().push(i);
        }
    }
    for cells in rows.values_mut() {
        cells.sort_by(|&a, &b| positions[a].0.total_cmp(&positions[b].0));
    }
    let site = floorplan.site_width;
    let core = floorplan.core;
    for _ in 0..options.passes {
        // Pass 1: optimal-region sliding.
        for cells in rows.values() {
            for (k, &i) in cells.iter().enumerate() {
                let lo_bound = if k == 0 {
                    core.llx
                } else {
                    let p = cells[k - 1];
                    positions[p].0 + problem.movable[p].width
                };
                let hi_bound = if k + 1 == cells.len() {
                    core.urx - problem.movable[i].width
                } else {
                    positions[cells[k + 1]].0 - problem.movable[i].width
                };
                if hi_bound < lo_bound {
                    continue;
                }
                let target = optimal_x(problem, positions, incident(i), i, &mut bounds);
                let snapped = core.llx
                    + ((target.clamp(lo_bound, hi_bound) - core.llx) / site).round() * site;
                let x = snapped.clamp(lo_bound, hi_bound);
                if x != positions[i].0 {
                    positions[i].0 = x;
                    cache.update_nets(problem, positions, incident(i));
                }
            }
        }
        // Pass 2: adjacent swaps (row lists stay sorted by swapping their
        // entries together with the positions).
        for cells in rows.values_mut() {
            for k in 0..cells.len().saturating_sub(1) {
                let (a, b) = (cells[k], cells[k + 1]);
                let (wa, wb) = (problem.movable[a].width, problem.movable[b].width);
                let (xa, xb) = (positions[a].0, positions[b].0);
                // Swapped layout: b takes a's slot, a keeps the old gap.
                let (nxb, nxa) = (xa, xb + wb - wa);
                if nxa + wa > core.urx + 1e-9 || nxa < nxb + wb - 1e-9 {
                    continue;
                }
                sorted_union(incident(a), incident(b), &mut touched);
                let cost_before: f64 = touched
                    .iter()
                    .map(|&e| problem.net_weights[e as usize] * cache.net(e))
                    .sum();
                positions[a].0 = nxa;
                positions[b].0 = nxb;
                fresh.clear();
                fresh.extend(
                    touched
                        .iter()
                        .map(|&e| crate::hpwl::edge_hpwl(problem, e, positions)),
                );
                let cost_after: f64 = touched
                    .iter()
                    .zip(&fresh)
                    .map(|(&e, &h)| problem.net_weights[e as usize] * h)
                    .sum();
                if cost_after >= cost_before {
                    positions[a].0 = xa;
                    positions[b].0 = xb;
                } else {
                    cache.set_nets(&touched, &fresh);
                    cells.swap(k, k + 1);
                }
            }
        }
    }
    (before - cache.total()).max(0.0)
}

/// Merges two ascending, duplicate-free id lists into `out`, ascending and
/// duplicate-free.
fn sorted_union(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let next = a[i].min(b[j]);
        i += usize::from(a[i] == next);
        j += usize::from(b[j] == next);
        out.push(next);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// The x minimizing the cell's incident-net HPWL: the median of the other
/// pins' interval bounds, collected in `bounds`.
fn optimal_x(
    problem: &PlacementProblem,
    positions: &[(f64, f64)],
    edges: &[u32],
    cell: usize,
    bounds: &mut Vec<f64>,
) -> f64 {
    bounds.clear();
    for &e in edges {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in problem.hypergraph.edge(e) {
            if v as usize == cell {
                continue;
            }
            let (x, _) = problem.vertex_pos(v, positions);
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if lo.is_finite() {
            bounds.push(lo);
            bounds.push(hi);
        }
    }
    if bounds.is_empty() {
        return positions[cell].0;
    }
    bounds.sort_by(f64::total_cmp);
    bounds[bounds.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{GlobalPlacer, PlacerOptions};
    use crate::legalize::legalize;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};
    use cp_netlist::Floorplan;

    fn placed() -> (PlacementProblem, Floorplan, Vec<(f64, f64)>) {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(44)
            .generate();
        let fp = Floorplan::for_netlist(&n, 0.6, 1.0);
        let p = PlacementProblem::from_netlist(&n, &fp);
        let mut r = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        legalize(&p, &fp, &mut r.positions).expect("legalization succeeds");
        (p, fp, r.positions)
    }

    /// The allocating body [`refine`] replaced (own incidence lists, a
    /// sort per swap, every accepted net evaluated twice), kept as the
    /// oracle it must match bit for bit.
    fn refine_reference(
        problem: &PlacementProblem,
        floorplan: &Floorplan,
        positions: &mut [(f64, f64)],
        options: &DetailedOptions,
    ) -> f64 {
        let m = problem.movable_count();
        let mut incident: Vec<Vec<u32>> = vec![Vec::new(); m];
        for e in 0..problem.hypergraph.edge_count() as u32 {
            for &v in problem.hypergraph.edge(e) {
                if (v as usize) < m {
                    incident[v as usize].push(e);
                }
            }
        }
        let mut cache = crate::hpwl::IncrementalHpwl::new(problem, positions);
        let before = cache.total();
        let row_of = |y: f64| ((y - floorplan.core.lly) / floorplan.row_height).round() as i64;
        let mut rows: std::collections::BTreeMap<i64, Vec<usize>> = Default::default();
        for (i, &(_, y)) in positions.iter().take(m).enumerate() {
            if problem.movable[i].height <= floorplan.row_height * 1.5 {
                rows.entry(row_of(y)).or_default().push(i);
            }
        }
        for cells in rows.values_mut() {
            cells.sort_by(|&a, &b| positions[a].0.total_cmp(&positions[b].0));
        }
        let site = floorplan.site_width;
        let core = floorplan.core;
        for _ in 0..options.passes {
            for cells in rows.values() {
                for (k, &i) in cells.iter().enumerate() {
                    let lo_bound = if k == 0 {
                        core.llx
                    } else {
                        let p = cells[k - 1];
                        positions[p].0 + problem.movable[p].width
                    };
                    let hi_bound = if k + 1 == cells.len() {
                        core.urx - problem.movable[i].width
                    } else {
                        positions[cells[k + 1]].0 - problem.movable[i].width
                    };
                    if hi_bound < lo_bound {
                        continue;
                    }
                    let target = optimal_x(problem, positions, &incident[i], i, &mut Vec::new());
                    let snapped = core.llx
                        + ((target.clamp(lo_bound, hi_bound) - core.llx) / site).round() * site;
                    let x = snapped.clamp(lo_bound, hi_bound);
                    if x != positions[i].0 {
                        positions[i].0 = x;
                        cache.update_nets(problem, positions, &incident[i]);
                    }
                }
            }
            for cells in rows.values_mut() {
                for k in 0..cells.len().saturating_sub(1) {
                    let (a, b) = (cells[k], cells[k + 1]);
                    let (wa, wb) = (problem.movable[a].width, problem.movable[b].width);
                    let (xa, xb) = (positions[a].0, positions[b].0);
                    let (nxb, nxa) = (xa, xb + wb - wa);
                    if nxa + wa > core.urx + 1e-9 || nxa < nxb + wb - 1e-9 {
                        continue;
                    }
                    let mut touched: Vec<u32> = incident[a]
                        .iter()
                        .chain(incident[b].iter())
                        .copied()
                        .collect();
                    touched.sort_unstable();
                    touched.dedup();
                    let cost_before: f64 = touched
                        .iter()
                        .map(|&e| problem.net_weights[e as usize] * cache.net(e))
                        .sum();
                    positions[a].0 = nxa;
                    positions[b].0 = nxb;
                    let cost_after: f64 = touched
                        .iter()
                        .map(|&e| {
                            problem.net_weights[e as usize]
                                * crate::hpwl::edge_hpwl(problem, e, positions)
                        })
                        .sum();
                    if cost_after >= cost_before {
                        positions[a].0 = xa;
                        positions[b].0 = xb;
                    } else {
                        cache.update_nets(problem, positions, &touched);
                        cells.swap(k, k + 1);
                    }
                }
            }
        }
        (before - cache.total()).max(0.0)
    }

    /// A legalized design; with `macros`, every 40th object is a 3×2-row
    /// block the legalizer and the refinement both leave alone, and net
    /// weights vary so the weighted swap cost differs from the raw one.
    fn fixture(profile: DesignProfile, scale: f64, seed: u64, macros: bool) -> Placed {
        let n = GeneratorConfig::from_profile(profile)
            .scale(scale)
            .seed(seed)
            .generate();
        let fp = Floorplan::for_netlist(&n, 0.55, 1.0);
        let mut p = PlacementProblem::from_netlist(&n, &fp);
        if macros {
            for obj in p.movable.iter_mut().step_by(40) {
                obj.width = 3.0 * fp.row_height;
                obj.height = 2.0 * fp.row_height;
            }
            for (e, w) in p.net_weights.iter_mut().enumerate() {
                *w = 1.0 + (e % 3) as f64;
            }
        }
        let mut r = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        legalize(&p, &fp, &mut r.positions).expect("legalization succeeds");
        (p, fp, r.positions)
    }

    type Placed = (PlacementProblem, Floorplan, Vec<(f64, f64)>);

    #[test]
    fn matches_the_reference_bit_for_bit() {
        for (name, (p, fp, start)) in [
            ("aes", fixture(DesignProfile::Aes, 0.03, 5, false)),
            ("jpeg", fixture(DesignProfile::Jpeg, 0.02, 9, false)),
            ("aes+macros", fixture(DesignProfile::Aes, 0.03, 6, true)),
        ] {
            let options = DetailedOptions { passes: 3 };
            let mut want = start.clone();
            let want_gain = refine_reference(&p, &fp, &mut want, &options);
            let mut got = start.clone();
            let got_gain = refine(&p, &fp, &mut got, &options);
            assert!(want_gain > 0.0, "{name}: the fixture must leave work to do");
            assert_eq!(got_gain.to_bits(), want_gain.to_bits(), "{name}: gain");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    (g.0.to_bits(), g.1.to_bits()),
                    (w.0.to_bits(), w.1.to_bits()),
                    "{name}: cell {i}"
                );
            }
            let moved = got.iter().zip(&start).filter(|(g, s)| g != s).count();
            assert!(moved > got.len() / 20, "{name}: only {moved} cells moved");
        }
    }

    #[test]
    fn sorted_union_merges_without_duplicates() {
        let mut out = vec![99];
        sorted_union(&[1, 4, 7], &[0, 4, 5, 7, 9], &mut out);
        assert_eq!(out, [0, 1, 4, 5, 7, 9]);
        sorted_union(&[], &[2, 3], &mut out);
        assert_eq!(out, [2, 3]);
        sorted_union(&[2, 3], &[], &mut out);
        assert_eq!(out, [2, 3]);
    }

    #[test]
    fn refinement_never_hurts_hpwl() {
        let (p, fp, mut pos) = placed();
        let before = crate::hpwl::raw_hpwl(&p, &pos);
        let gain = refine(&p, &fp, &mut pos, &DetailedOptions::default());
        let after = crate::hpwl::raw_hpwl(&p, &pos);
        assert!(gain >= 0.0);
        assert!(after <= before + 1e-6, "HPWL rose: {before} -> {after}");
        assert!(
            gain > 0.0,
            "expected some improvement on a fresh legalization"
        );
    }

    #[test]
    fn refinement_preserves_legality() {
        let (p, fp, mut pos) = placed();
        refine(&p, &fp, &mut pos, &DetailedOptions { passes: 3 });
        // On rows, inside core.
        for (i, &(x, y)) in pos.iter().enumerate() {
            let off = (y - fp.core.lly) / fp.row_height;
            assert!((off - off.round()).abs() < 1e-6, "cell {i} off-row");
            assert!(x >= fp.core.llx - 1e-6);
            assert!(x + p.movable[i].width <= fp.core.urx + 1e-6);
        }
        // No overlap per row.
        let mut by_row: std::collections::HashMap<i64, Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for (i, &(x, y)) in pos.iter().enumerate() {
            by_row
                .entry((y * 1000.0).round() as i64)
                .or_default()
                .push((x, x + p.movable[i].width));
        }
        for (_, mut spans) in by_row {
            spans.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-6, "overlap {w:?}");
            }
        }
    }

    #[test]
    fn refinement_is_deterministic() {
        let (p, fp, pos0) = placed();
        let mut a = pos0.clone();
        let mut b = pos0;
        refine(&p, &fp, &mut a, &DetailedOptions::default());
        refine(&p, &fp, &mut b, &DetailedOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_problem_is_fine() {
        let (p, fp, _) = placed();
        let mut empty = p.clone();
        empty.movable.clear();
        empty.region.clear();
        empty.hypergraph = cp_graph::Hypergraph::new(empty.fixed.len(), vec![]).into();
        empty.net_weights.clear();
        let mut pos: Vec<(f64, f64)> = Vec::new();
        assert_eq!(
            refine(&empty, &fp, &mut pos, &DetailedOptions::default()),
            0.0
        );
    }
}
