//! Pluggable spreading backends for the global placer.
//!
//! The SimPL loop in [`crate::global`] alternates a B2B lower bound with a
//! density-aware *upper bound* (spreading) step; anchors pull the next
//! lower bound toward the spread positions. [`PlacerBackend`] abstracts
//! exactly that spreading step, so the solver, anchor schedule, flow
//! plumbing, checkpointing and QoR gates are shared verbatim between
//! backends:
//!
//! - [`B2bBackend`] — the incumbent recursive-bisection look-ahead
//!   legalization ([`crate::spreading::spread_soa`]), bit-identical at
//!   every thread count.
//! - [`EDensityBackend`] — electrostatics-style spreading (eDensity /
//!   ePlace family): cell areas scatter as charge onto a bin grid, a
//!   Poisson-like system on the grid Laplacian is solved with the same CG
//!   kernels as the wirelength model, and cells drift along the resulting
//!   field away from density peaks. Deterministic across thread counts via
//!   `cp-parallel`'s fixed chunking and fixed-order reduction.
//!
//! A backend is instantiated per `place()` call (via
//! [`PlacerBackendKind::instantiate`]); any internal state (grid system,
//! warm-started potential) lives and dies with one placement run, which
//! keeps checkpoint/resume bitwise-deterministic.

use crate::problem::PlacementProblem;
use crate::soa::PlacementSoa;
use crate::solver::{B2bSystem, CgScratch};
use crate::spreading::{scatter_accumulate, spread_soa, SpreadScratch};

/// Cells per parallel chunk in the charge scatter and position update.
const CELL_CHUNK: usize = 4096;
/// Upper bound on the eDensity grid resolution per axis.
const MAX_BINS: usize = 128;
/// Field-drift sub-passes per spreading call.
const PASSES: usize = 6;
/// CG budget for one Poisson solve on the bin grid.
const POISSON_ITERS: usize = 100;
/// CG tolerance for the Poisson solve.
const POISSON_TOL: f64 = 1e-6;
/// Tikhonov shift added to the grid Laplacian's diagonal: the pure Neumann
/// Laplacian is singular (constant nullspace), and the shift pins it while
/// barely perturbing the field of the zero-mean right-hand side.
const GRID_EPS: f64 = 1e-3;
/// Maximum drift per sub-pass, in bin widths.
const STEP_BINS: f64 = 1.0;

/// Which spreading backend [`crate::global`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacerBackendKind {
    /// Recursive-bisection look-ahead legalization (the incumbent).
    #[default]
    B2b,
    /// Electrostatics-style density spreading.
    EDensity,
}

impl PlacerBackendKind {
    /// Fresh backend instance for one placement run.
    pub fn instantiate(self) -> Box<dyn PlacerBackend> {
        match self {
            Self::B2b => Box::new(B2bBackend::default()),
            Self::EDensity => Box::new(EDensityBackend::new()),
        }
    }

    /// Stable lowercase name (CLI flags, telemetry).
    pub fn name(self) -> &'static str {
        match self {
            Self::B2b => "b2b",
            Self::EDensity => "edensity",
        }
    }

    /// Parses the [`PlacerBackendKind::name`] spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "b2b" => Some(Self::B2b),
            "edensity" => Some(Self::EDensity),
            _ => None,
        }
    }
}

/// The spreading (upper-bound) step of one global-placement iteration.
pub trait PlacerBackend {
    /// Backend name for telemetry.
    fn name(&self) -> &'static str;

    /// Overwrites `out` with density-spread positions for the lower-bound
    /// `positions`: one in-core position per movable, deterministic
    /// across thread counts.
    fn spread(
        &mut self,
        problem: &PlacementProblem,
        soa: &PlacementSoa,
        positions: &[(f64, f64)],
        out: &mut Vec<(f64, f64)>,
    );
}

/// The incumbent recursive-bisection spreading: every call forwards to
/// [`spread_soa`] with the run's reusable buffers.
#[derive(Debug, Clone, Default)]
pub struct B2bBackend {
    scratch: SpreadScratch,
}

impl PlacerBackend for B2bBackend {
    fn name(&self) -> &'static str {
        "b2b"
    }

    fn spread(
        &mut self,
        problem: &PlacementProblem,
        soa: &PlacementSoa,
        positions: &[(f64, f64)],
        out: &mut Vec<(f64, f64)>,
    ) {
        spread_soa(problem, soa, positions, &mut self.scratch, out);
    }
}

/// Electrostatics-style spreading.
///
/// Per sub-pass: cell areas scatter bilinearly (cloud-in-cell) onto a
/// `bins × bins` grid as charge `ρ`, the potential solves
/// `(L + εI) ψ = ρ − ρ̄` on the grid Laplacian with the shared CG kernels,
/// the field `E = −∇ψ` comes from central differences, and every cell
/// drifts along `E` (normalized so the largest move is [`STEP_BINS`] bin
/// widths), pushing cells from dense regions toward sparse ones. The grid
/// system is built once per run and `ψ` warm-starts across passes and
/// outer iterations.
pub struct EDensityBackend {
    grid: Option<Grid>,
    /// Spread calls so far — the iteration stamp of the charge-grid
    /// field frames.
    calls: u64,
}

struct Grid {
    bins: usize,
    sys: B2bSystem,
    psi: Vec<f64>,
    scratch: CgScratch,
    /// Per-chunk scatter staging reused across passes.
    rho: Vec<f64>,
    ex: Vec<f64>,
    ey: Vec<f64>,
}

impl EDensityBackend {
    /// A backend with no grid yet; the first spread call sizes it.
    pub fn new() -> Self {
        Self {
            grid: None,
            calls: 0,
        }
    }
}

impl Default for EDensityBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Grid {
    /// Builds the `(L + εI)` system for a `bins × bins` 4-neighbor grid.
    /// `B2bSystem::apply` computes `diag_i x_i − Σ val_ij x_j`, so with
    /// `val = 1` per neighbor and `diag = degree + ε` the operator is the
    /// (shifted) graph Laplacian.
    fn new(bins: usize) -> Self {
        let n = bins * bins;
        let mut diag = vec![GRID_EPS; n];
        let mut row_ptr: Vec<u32> = Vec::with_capacity(n + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut val: Vec<f64> = Vec::new();
        row_ptr.push(0);
        for by in 0..bins {
            for bx in 0..bins {
                let i = by * bins + bx;
                let mut push = |j: usize| {
                    col_idx.push(j as u32);
                    val.push(1.0);
                    diag[i] += 1.0;
                };
                if bx > 0 {
                    push(i - 1);
                }
                if bx + 1 < bins {
                    push(i + 1);
                }
                if by > 0 {
                    push(i - bins);
                }
                if by + 1 < bins {
                    push(i + bins);
                }
                row_ptr.push(col_idx.len() as u32);
            }
        }
        Self {
            bins,
            sys: B2bSystem::from_parts(diag, &row_ptr, &col_idx, &val, vec![0.0; n]),
            psi: vec![0.0; n],
            scratch: CgScratch::default(),
            rho: vec![0.0; n],
            ex: vec![0.0; n],
            ey: vec![0.0; n],
        }
    }
}

impl PlacerBackend for EDensityBackend {
    fn name(&self) -> &'static str {
        "edensity"
    }

    fn spread(
        &mut self,
        problem: &PlacementProblem,
        soa: &PlacementSoa,
        positions: &[(f64, f64)],
        out: &mut Vec<(f64, f64)>,
    ) {
        let m = problem.movable_count();
        out.clear();
        out.extend_from_slice(positions);
        if m == 0 {
            return;
        }
        let _span = cp_trace::telemetry_enabled().then(|| cp_trace::span("place.spread"));
        let bins = (((m as f64).sqrt() / 2.0).ceil().max(2.0) as usize).min(MAX_BINS);
        let grid = self.grid.get_or_insert_with(|| Grid::new(bins));
        if grid.bins != bins {
            *grid = Grid::new(bins);
        }
        let core = problem.core;
        let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
        let nb = bins * bins;

        for _pass in 0..PASSES {
            // Charge scatter: bilinear (cloud-in-cell) split of each cell
            // area over the four bins around its position, through the
            // shared fixed-chunk scatter ([`scatter_accumulate`]) so the
            // accumulated field is thread-count invariant.
            let pos = &*out;
            grid.rho.iter_mut().for_each(|v| *v = 0.0);
            scatter_accumulate(m, CELL_CHUNK, &mut grid.rho, |i, part| {
                let (x, y) = pos[i];
                // Continuous bin coordinates of the cell center,
                // offset so integer values land on bin centers.
                let fx = ((x - core.llx) / bw - 0.5).clamp(0.0, (bins - 1) as f64);
                let fy = ((y - core.lly) / bh - 0.5).clamp(0.0, (bins - 1) as f64);
                let (bx, by) = (fx as usize, fy as usize);
                let (tx, ty) = (fx - bx as f64, fy - by as f64);
                let bx1 = (bx + 1).min(bins - 1);
                let by1 = (by + 1).min(bins - 1);
                let a = soa.area[i];
                part.push(((by * bins + bx) as u32, a * (1.0 - tx) * (1.0 - ty)));
                part.push(((by * bins + bx1) as u32, a * tx * (1.0 - ty)));
                part.push(((by1 * bins + bx) as u32, a * (1.0 - tx) * ty));
                part.push(((by1 * bins + bx1) as u32, a * tx * ty));
            });
            // Zero-mean right-hand side: the shifted Laplacian would
            // otherwise absorb the mean into a constant offset of ψ.
            let mean = grid.rho.iter().sum::<f64>() / nb as f64;
            for (r, q) in grid.sys.rhs_mut().iter_mut().zip(&grid.rho) {
                *r = q - mean;
            }
            grid.sys.solve_into(
                &mut grid.psi,
                &mut grid.scratch,
                POISSON_ITERS,
                POISSON_TOL,
                None,
            );
            // Field E = −∇ψ by central differences (one-sided at the
            // borders), serial over the ≤128² bins.
            let psi = &grid.psi;
            let mut fmax = 0.0f64;
            for by in 0..bins {
                for bx in 0..bins {
                    let i = by * bins + bx;
                    let (xl, xr) = (
                        by * bins + bx.saturating_sub(1),
                        by * bins + (bx + 1).min(bins - 1),
                    );
                    let (yl, yr) = (
                        by.saturating_sub(1) * bins + bx,
                        (by + 1).min(bins - 1) * bins + bx,
                    );
                    let ex = psi[xl] - psi[xr];
                    let ey = psi[yl] - psi[yr];
                    grid.ex[i] = ex;
                    grid.ey[i] = ey;
                    fmax = fmax.max(ex.abs()).max(ey.abs());
                }
            }
            if fmax <= 0.0 || !fmax.is_finite() {
                break;
            }
            // Drift: bilinear-interpolated field at the cell position (the
            // scatter's mirror image), normalized so the strongest field
            // component moves a cell STEP_BINS bin widths.
            let step = STEP_BINS / fmax;
            let (ex, ey) = (&grid.ex, &grid.ey);
            cp_parallel::par_chunks_mut(out, CELL_CHUNK, |_, _off, slice| {
                for p in slice.iter_mut() {
                    let fx = ((p.0 - core.llx) / bw - 0.5).clamp(0.0, (bins - 1) as f64);
                    let fy = ((p.1 - core.lly) / bh - 0.5).clamp(0.0, (bins - 1) as f64);
                    let (bx, by) = (fx as usize, fy as usize);
                    let (tx, ty) = (fx - bx as f64, fy - by as f64);
                    let bx1 = (bx + 1).min(bins - 1);
                    let by1 = (by + 1).min(bins - 1);
                    let (b00, b10) = (by * bins + bx, by * bins + bx1);
                    let (b01, b11) = (by1 * bins + bx, by1 * bins + bx1);
                    let lerp = |f: &[f64]| {
                        (1.0 - tx) * (1.0 - ty) * f[b00]
                            + tx * (1.0 - ty) * f[b10]
                            + (1.0 - tx) * ty * f[b01]
                            + tx * ty * f[b11]
                    };
                    let nx = p.0 + step * lerp(ex) * bw;
                    let ny = p.1 + step * lerp(ey) * bh;
                    *p = core.clamp(nx, ny);
                }
            });
        }
        // Field frame: the final sub-pass's charge grid. Free when off
        // (one relaxed load), and nothing recorded feeds back into the
        // drift, so placements are bitwise identical either way.
        let call = self.calls;
        self.calls += 1;
        if cp_trace::fields::recording() {
            if let Some(g) = self.grid.as_ref() {
                cp_trace::fields::record_with("edensity.rho", call, bins, bins, || {
                    g.rho.iter().map(|&v| v as f32).collect()
                });
            }
        }
        // Same tail as spread_soa: honor regions, core bounds, blockages.
        for (i, p) in out.iter_mut().enumerate() {
            let r = problem.region[i].unwrap_or(problem.core);
            *p = r.clamp(p.0, p.1);
            *p = problem.evict_from_blockages(p.0, p.1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Object;
    use crate::spreading::density_overflow_soa;
    use cp_graph::Hypergraph;
    use cp_netlist::floorplan::Rect;

    fn uniform_problem(n: usize) -> PlacementProblem {
        PlacementProblem {
            movable: vec![
                Object {
                    width: 1.0,
                    height: 1.0
                };
                n
            ],
            fixed: vec![],
            hypergraph: Hypergraph::new(n, vec![]),
            net_weights: vec![],
            core: Rect::new(0.0, 0.0, 100.0, 100.0),
            region: vec![None; n],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.5,
        }
    }

    #[test]
    fn edensity_reduces_overflow_and_stays_in_core() {
        let p = uniform_problem(400);
        let soa = PlacementSoa::from_problem(&p);
        // Cells crowded into one corner at distinct positions (identical
        // positions would see identical fields forever — in the real loop
        // the wirelength solve breaks that symmetry, here the start does).
        let piled: Vec<(f64, f64)> = (0..400)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (
                    0.5 + (h % 1000) as f64 * 0.012,
                    0.5 + (h / 1000 % 1000) as f64 * 0.012,
                )
            })
            .collect();
        let before = density_overflow_soa(&p, &soa, &piled);
        let mut be = EDensityBackend::new();
        // A few spreading rounds, as the outer loop would drive them.
        let mut pos = piled.clone();
        let mut next = Vec::new();
        for _ in 0..5 {
            be.spread(&p, &soa, &pos, &mut next);
            std::mem::swap(&mut pos, &mut next);
        }
        let after = density_overflow_soa(&p, &soa, &pos);
        assert!(before > 0.5, "piled overflow {before}");
        assert!(after < before * 0.6, "after {after} vs before {before}");
        for &(x, y) in &pos {
            assert!(p.core.contains(x, y));
        }
    }

    #[test]
    fn edensity_is_thread_count_invariant() {
        let p = uniform_problem(300);
        let soa = PlacementSoa::from_problem(&p);
        let start: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (2.0 + (h % 30) as f64, 3.0 + (h / 30 % 20) as f64)
            })
            .collect();
        let run = |threads: usize| {
            cp_parallel::with_threads(threads, || {
                let mut be = EDensityBackend::new();
                let (mut a, mut b) = (Vec::new(), Vec::new());
                be.spread(&p, &soa, &start, &mut a);
                be.spread(&p, &soa, &a, &mut b);
                b.iter()
                    .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                    .collect::<Vec<_>>()
            })
        };
        let t1 = run(1);
        assert_eq!(t1, run(4));
        assert_eq!(t1, run(8));
    }

    #[test]
    fn b2b_backend_forwards_to_spread_soa() {
        let p = uniform_problem(64);
        let soa = PlacementSoa::from_problem(&p);
        let piled = vec![(1.0, 1.0); 64];
        let mut via_backend = Vec::new();
        B2bBackend::default().spread(&p, &soa, &piled, &mut via_backend);
        let mut direct = Vec::new();
        spread_soa(&p, &soa, &piled, &mut SpreadScratch::default(), &mut direct);
        let bits = |v: &[(f64, f64)]| {
            v.iter()
                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&via_backend), bits(&direct));
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in [PlacerBackendKind::B2b, PlacerBackendKind::EDensity] {
            assert_eq!(PlacerBackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PlacerBackendKind::parse("nope"), None);
    }
}
