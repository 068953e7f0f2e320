//! Half-perimeter wirelength over a placement problem.
//!
//! The full-design sums are parallelized over fixed net chunks with a
//! fixed-order tree reduction (see `cp-parallel`), so totals are
//! bit-identical for every `CP_THREADS` setting. [`IncrementalHpwl`]
//! additionally caches per-net bounding-box lengths so detailed placement
//! can re-evaluate moves against only the touched nets.

use crate::problem::PlacementProblem;

/// Nets per parallel chunk for full-design HPWL sums.
const NET_CHUNK: usize = 256;

/// Unweighted HPWL (every net counted at weight 1) — the metric the paper's
/// Table 2 reports.
pub fn raw_hpwl(problem: &PlacementProblem, positions: &[(f64, f64)]) -> f64 {
    cp_parallel::par_sum(problem.hypergraph.edge_count(), NET_CHUNK, |r| {
        let mut s = 0.0;
        for e in r {
            s += edge_hpwl(problem, e as u32, positions);
        }
        s
    })
}

/// HPWL of one hyperedge.
pub fn edge_hpwl(problem: &PlacementProblem, e: u32, positions: &[(f64, f64)]) -> f64 {
    let verts = problem.hypergraph.edge(e);
    if verts.len() < 2 {
        return 0.0;
    }
    let mut lo = (f64::INFINITY, f64::INFINITY);
    let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &v in verts {
        let (x, y) = problem.vertex_pos(v, positions);
        lo = (lo.0.min(x), lo.1.min(y));
        hi = (hi.0.max(x), hi.1.max(y));
    }
    (hi.0 - lo.0) + (hi.1 - lo.1)
}

/// Per-net HPWL cache with exact delta maintenance.
///
/// Detailed placement moves one or two cells at a time, touching only
/// their incident nets; recomputing the full design HPWL per move is
/// wasted work. This cache keeps each net's current (unweighted) HPWL
/// plus the running total, and [`IncrementalHpwl::update_nets`] recomputes
/// exactly the touched nets, adjusting the total by their deltas.
///
/// Cached entries are always *exact recomputes* of [`edge_hpwl`] at the
/// positions they were updated against — never approximations — so move
/// accept/reject decisions built on the cache match decisions built on
/// fresh recomputes bit for bit.
#[derive(Debug, Clone)]
pub struct IncrementalHpwl {
    net: Vec<f64>,
    total: f64,
}

impl IncrementalHpwl {
    /// Builds the cache at `positions` (parallel over net chunks).
    pub fn new(problem: &PlacementProblem, positions: &[(f64, f64)]) -> Self {
        let n = problem.hypergraph.edge_count();
        let mut net = vec![0.0; n];
        cp_parallel::par_chunks_mut(&mut net, NET_CHUNK, |_, off, slice| {
            for (k, h) in slice.iter_mut().enumerate() {
                *h = edge_hpwl(problem, (off + k) as u32, positions);
            }
        });
        let total = cp_parallel::par_sum(n, NET_CHUNK, |r| {
            let mut s = 0.0;
            for e in r {
                s += net[e];
            }
            s
        });
        Self { net, total }
    }

    /// Current unweighted HPWL total (maintained by exact per-net deltas).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Cached HPWL of one net.
    pub fn net(&self, e: u32) -> f64 {
        self.net[e as usize]
    }

    /// Recomputes the given nets at `positions` and folds their deltas
    /// into the total. Call after moving a cell, passing its incident
    /// nets; a net listed twice is simply recomputed twice (idempotent).
    pub fn update_nets(
        &mut self,
        problem: &PlacementProblem,
        positions: &[(f64, f64)],
        nets: &[u32],
    ) {
        for &e in nets {
            let fresh = edge_hpwl(problem, e, positions);
            self.total += fresh - self.net[e as usize];
            self.net[e as usize] = fresh;
        }
    }

    /// [`IncrementalHpwl::update_nets`] for a caller that has already
    /// recomputed the nets: `fresh[k]` is [`edge_hpwl`] of `nets[k]` at the
    /// current positions. Same deltas folded into the total in the same
    /// order, without evaluating the nets a second time.
    pub(crate) fn set_nets(&mut self, nets: &[u32], fresh: &[f64]) {
        for (&e, &fresh) in nets.iter().zip(fresh) {
            self.total += fresh - self.net[e as usize];
            self.net[e as usize] = fresh;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Object;
    use cp_graph::Hypergraph;
    use cp_netlist::floorplan::Rect;

    fn toy() -> PlacementProblem {
        // Two movables + one fixed terminal at (10, 0).
        PlacementProblem {
            movable: vec![
                Object {
                    width: 1.0,
                    height: 1.0,
                },
                Object {
                    width: 1.0,
                    height: 1.0,
                },
            ]
            .into(),
            fixed: vec![(10.0, 0.0)],
            hypergraph: Hypergraph::new(3, vec![(vec![0, 1], 1.0), (vec![1, 2], 1.0)]).into(),
            net_weights: vec![1.0, 3.0],
            core: Rect::new(0.0, 0.0, 10.0, 10.0),
            region: vec![None, None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        }
    }

    #[test]
    fn hand_computed_hpwl() {
        let p = toy();
        let pos = vec![(0.0, 0.0), (2.0, 1.0)];
        // Edge 0: bbox (0,0)-(2,1) ⇒ 3. Edge 1: (2,1)-(10,0) ⇒ 9.
        assert_eq!(edge_hpwl(&p, 0, &pos), 3.0);
        assert_eq!(edge_hpwl(&p, 1, &pos), 9.0);
        assert_eq!(raw_hpwl(&p, &pos), 12.0);
    }

    #[test]
    fn coincident_points_have_zero_hpwl() {
        let p = toy();
        let pos = vec![(5.0, 5.0), (5.0, 5.0)];
        assert_eq!(edge_hpwl(&p, 0, &pos), 0.0);
    }

    #[test]
    fn incremental_tracks_full_recompute() {
        let p = toy();
        let mut pos = vec![(0.0, 0.0), (2.0, 1.0)];
        let mut inc = IncrementalHpwl::new(&p, &pos);
        assert_eq!(inc.total(), raw_hpwl(&p, &pos));
        assert_eq!(inc.net(0), 3.0);
        // Move cell 1 (touches both nets) and update only those.
        pos[1] = (4.0, 2.0);
        inc.update_nets(&p, &pos, &[0, 1]);
        assert_eq!(inc.net(0), edge_hpwl(&p, 0, &pos));
        assert_eq!(inc.net(1), edge_hpwl(&p, 1, &pos));
        assert!((inc.total() - raw_hpwl(&p, &pos)).abs() < 1e-9);
    }

    #[test]
    fn set_nets_equals_update_nets_on_random_moves() {
        use cp_netlist::generator::{DesignProfile, GeneratorConfig};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .seed(12)
            .generate();
        let fp = cp_netlist::Floorplan::try_for_netlist(&n, 0.6, 1.0).expect("valid geometry");
        let p = PlacementProblem::from_netlist(&n, &fp);
        let m = p.movable_count();
        // A scattered start, then 2000 single-cell moves.
        let mut rng = StdRng::seed_from_u64(12);
        let mut unit = || rng.random::<f64>();
        let (w, h) = (fp.core.width(), fp.core.height());
        let mut pos: Vec<(f64, f64)> = (0..m)
            .map(|_| (fp.core.llx + unit() * w, fp.core.lly + unit() * h))
            .collect();
        let mut updated = IncrementalHpwl::new(&p, &pos);
        let mut set = updated.clone();
        for _ in 0..2000 {
            let cell = (unit() * m as f64) as usize;
            pos[cell] = (fp.core.llx + unit() * w, fp.core.lly + unit() * h);
            let nets = p.hypergraph.incident(cell as u32);
            updated.update_nets(&p, &pos, nets);
            let fresh: Vec<f64> = nets.iter().map(|&e| edge_hpwl(&p, e, &pos)).collect();
            set.set_nets(nets, &fresh);
            assert_eq!(set.total().to_bits(), updated.total().to_bits());
        }
        for e in 0..p.hypergraph.edge_count() as u32 {
            assert_eq!(set.net(e).to_bits(), updated.net(e).to_bits(), "net {e}");
        }
    }

    #[test]
    fn hpwl_is_thread_count_invariant() {
        let p = toy();
        let pos = vec![(0.3, 0.7), (2.9, 1.1)];
        let seq = cp_parallel::with_threads(1, || raw_hpwl(&p, &pos));
        let par = cp_parallel::with_threads(4, || raw_hpwl(&p, &pos));
        assert_eq!(seq.to_bits(), par.to_bits());
    }
}
