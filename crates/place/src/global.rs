//! The global placement loop (SimPL-style lower/upper bound iteration).

use crate::backend::{PlacerBackendKind, Spreader};
use crate::error::{BestSnapshot, PlaceError};
use crate::hpwl::raw_hpwl;
use crate::kernels;
use crate::problem::PlacementProblem;
use crate::soa::PlacementSoa;
use crate::solver::{Anchors, Axis, B2bRebuilder, CgScratch, CgStats};
use crate::spreading::{density_overflow_soa, displacement_grid, overflow_grid_soa};
use cp_resilience::RunControl;
use cp_trace::ArgValue;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Tuning knobs for [`GlobalPlacer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerOptions {
    /// Iterations for a from-scratch placement.
    pub max_iterations: usize,
    /// Iterations when seed positions are provided (incremental mode) —
    /// the source of the clustered flow's runtime win.
    pub incremental_iterations: usize,
    /// Conjugate-gradient iterations per axis solve.
    pub cg_iterations: usize,
    /// RNG seed for the initial scatter.
    pub seed: u64,
    /// On divergence (non-finite solve or HPWL blow-up), revert to the best
    /// snapshot and return it instead of erroring (RePlAce-style recovery).
    pub revert_if_diverge: bool,
    /// Test hook: poison the solver output with NaN at this iteration to
    /// exercise the divergence path. `None` in normal operation.
    pub fault_nan_at_iteration: Option<usize>,
    /// Which spreading step drives the upper bound. The default
    /// ([`PlacerBackendKind::B2b`]) is the incumbent recursive bisection.
    pub backend: PlacerBackendKind,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        Self {
            max_iterations: 30,
            incremental_iterations: 12,
            cg_iterations: 60,
            seed: 7,
            revert_if_diverge: true,
            fault_nan_at_iteration: None,
            backend: PlacerBackendKind::default(),
        }
    }
}

/// Stop once density overflow drops below this.
const TARGET_OVERFLOW: f64 = 0.08;
/// Anchor pseudo-net weight ramp per iteration.
const ANCHOR_BASE: f64 = 0.015;
/// Constant anchor weight toward seed positions (incremental mode).
const SEED_ANCHOR: f64 = 0.08;
/// HPWL growth over the best snapshot counted as a blow-up (while
/// overflow is also regressing).
const DIVERGENCE_FACTOR: f64 = 4.0;

/// A finished placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementResult {
    /// One position per movable object, inside the core.
    pub positions: Vec<(f64, f64)>,
    /// Unweighted HPWL of the result, µm.
    pub hpwl: f64,
    /// Lower/upper-bound iterations performed.
    pub iterations: usize,
    /// Final density overflow.
    pub overflow: f64,
    /// Wall-clock seconds spent in `place`.
    pub runtime: f64,
    /// `true` when the loop diverged and the result is the reverted best
    /// snapshot rather than the last iterate.
    pub diverged: bool,
}

/// Movable count from which the X and Y lower bounds (rebuild + solve)
/// run as two pool tasks, each on half the thread budget. Below it the
/// two axes run back to back on the calling thread, so no V-P&R
/// candidate (≤ 800 cells in the benchmark) opens a region for its
/// lower bound. On two threads the tasks beat both axes on one thread
/// at every size measured from 1,093 movables (1.3 vs 1.8–2.1 ms per
/// outer iteration; 10–11 vs 12–18 ms at 8.6k) and beat per-kernel
/// regions from 1,067 (0.72 vs 1.13 ms; 3.4 vs 9.6 ms at 8k);
/// EXPERIMENTS.md, "Parallel regions, measured" and the axis-task table
/// of "Placer outer iteration".
const AXIS_TASK_MIN_MOVABLES: usize = kernels::VEC_CHUNK + 1;

/// The best finite iterate seen so far, for divergence recovery.
struct Snapshot {
    positions: Vec<(f64, f64)>,
    hpwl: f64,
    overflow: f64,
}

fn all_finite(pos: &[(f64, f64)]) -> bool {
    pos.iter().all(|p| p.0.is_finite() && p.1.is_finite())
}

/// Feeds one lower-bound solve's stats into the metrics registry (no-op
/// below trace level `Full`). The axes may solve on two threads, so the
/// loop records X then Y after both finish and the registry sees one
/// fixed order.
fn record_cg(stats: &CgStats) {
    if !cp_trace::telemetry_enabled() {
        return;
    }
    cp_trace::counter_add("place.cg.solves", 1);
    cp_trace::observe("place.cg.iterations", stats.iterations as f64);
    cp_trace::observe("place.cg.residual", stats.relative_residual);
}

/// The global placer. See the crate docs for the algorithm outline.
#[derive(Debug, Clone, Default)]
pub struct GlobalPlacer {
    options: PlacerOptions,
}

impl GlobalPlacer {
    /// Creates a placer with the given options.
    pub fn new(options: PlacerOptions) -> Self {
        Self { options }
    }

    /// The active options.
    pub fn options(&self) -> &PlacerOptions {
        &self.options
    }

    /// Places the problem. Incremental mode engages automatically when the
    /// problem carries seed positions.
    ///
    /// # Errors
    ///
    /// - [`PlaceError::DegenerateCore`] when the core has non-finite or
    ///   non-positive dimensions.
    /// - [`PlaceError::InvalidInput`] when seed positions don't match the
    ///   movable count, or `region` is neither empty nor one entry per
    ///   movable.
    /// - [`PlaceError::NonFinite`] when the inputs carry NaN/Inf.
    /// - [`PlaceError::Diverged`] when the loop blows up and
    ///   `revert_if_diverge` is off. With it on (the default), divergence
    ///   reverts to the best snapshot and returns `Ok` with
    ///   [`PlacementResult::diverged`] set.
    pub fn place(&self, problem: &PlacementProblem) -> Result<PlacementResult, PlaceError> {
        self.place_impl(problem, None)
    }

    /// [`place`](Self::place) under a [`RunControl`]: the control is
    /// checked once per outer iteration (site
    /// [`cp_resilience::sites::PLACE_OUTER`]), so cancellation, deadline,
    /// and memory-budget interrupts land at a deterministic loop boundary.
    ///
    /// # Errors
    ///
    /// Everything [`place`](Self::place) can return, plus
    /// [`PlaceError::Interrupted`] carrying the best finite iterate seen
    /// so far so partial progress survives.
    pub fn place_with_control(
        &self,
        problem: &PlacementProblem,
        control: &RunControl,
    ) -> Result<PlacementResult, PlaceError> {
        self.place_impl(problem, Some(control))
    }

    fn place_impl(
        &self,
        problem: &PlacementProblem,
        control: Option<&RunControl>,
    ) -> Result<PlacementResult, PlaceError> {
        let start = Instant::now();
        let m = problem.movable_count();
        let _span = cp_trace::span_with(
            "place.solve",
            &[
                ("movables", ArgValue::U(m as u64)),
                (
                    "mode",
                    ArgValue::S(if problem.seed_positions.is_some() {
                        "incremental"
                    } else {
                        "scratch"
                    }),
                ),
                ("backend", ArgValue::S(self.options.backend.name())),
            ],
        );
        let core = problem.core;
        if !(core.width().is_finite() && core.height().is_finite())
            || core.width() <= 0.0
            || core.height() <= 0.0
        {
            return Err(PlaceError::DegenerateCore {
                width: core.width(),
                height: core.height(),
            });
        }
        if let Some(seeds) = &problem.seed_positions {
            if seeds.len() != m {
                return Err(PlaceError::InvalidInput {
                    reason: format!("{} seed positions for {m} movables", seeds.len()),
                });
            }
            if !all_finite(seeds) {
                return Err(PlaceError::NonFinite {
                    stage: "seed positions",
                });
            }
        }
        if !problem.region.is_empty() && problem.region.len() != m {
            return Err(PlaceError::InvalidInput {
                reason: format!("{} regions for {m} movables", problem.region.len()),
            });
        }
        if !all_finite(&problem.fixed) {
            return Err(PlaceError::NonFinite {
                stage: "fixed terminal positions",
            });
        }
        if m == 0 {
            return Ok(PlacementResult {
                positions: Vec::new(),
                hpwl: 0.0,
                iterations: 0,
                overflow: 0.0,
                runtime: start.elapsed().as_secs_f64(),
                diverged: false,
            });
        }
        let opt = &self.options;
        let incremental = problem.seed_positions.is_some();
        let iters = if incremental {
            opt.incremental_iterations
        } else {
            opt.max_iterations
        };

        // Initial positions: seeds, or a random scatter in the core.
        let mut rng = StdRng::seed_from_u64(opt.seed);
        let seeds = problem.seed_positions.as_deref();
        let mut pos: Vec<(f64, f64)> = match seeds {
            Some(seeds) => seeds.to_vec(),
            None => (0..m)
                .map(|_| {
                    (
                        core.llx + rng.random::<f64>() * core.width(),
                        core.lly + rng.random::<f64>() * core.height(),
                    )
                })
                .collect(),
        };
        self.clamp(problem, &mut pos);
        // Contiguous cell areas shared by spreading and density.
        let soa = PlacementSoa::from_problem(problem);
        // One spreading state per placement run: any internal state (the
        // eDensity grid, warm-started potential) is scoped to this call,
        // keeping repeated and resumed runs bitwise-deterministic.
        let mut spreader = Spreader::new(opt.backend);
        let mut upper = Vec::new();
        spreader.spread(problem, &soa, &pos, &mut upper);
        let mut overflow = density_overflow_soa(problem, &soa, &upper);
        let mut hpwl = raw_hpwl(problem, &upper);
        let mut done = 0;
        let mut best = if all_finite(&upper) && hpwl.is_finite() {
            Some(Snapshot {
                positions: upper.clone(),
                hpwl,
                overflow,
            })
        } else {
            None
        };
        let mut diverged = false;

        let mut anchor_w: Vec<f64> = vec![0.0; m];
        // Persistent per-axis B2B assemblers, CG scratch and coordinate
        // buffers (and the spreader's buffers and the best snapshot):
        // once they have grown to size an outer iteration allocates
        // nothing. The Y scratch is only touched — and so only sized —
        // when the axes run as two tasks.
        let mut rb_x = B2bRebuilder::new(Axis::X);
        let mut rb_y = B2bRebuilder::new(Axis::Y);
        let mut scratch_x = CgScratch::default();
        let mut scratch_y = CgScratch::default();
        let mut tx: Vec<f64> = vec![0.0; m];
        let mut ty: Vec<f64> = vec![0.0; m];
        let mut sx: Vec<f64> = vec![0.0; m];
        let mut sy: Vec<f64> = vec![0.0; m];
        for it in 0..iters {
            if let Some(ctl) = control {
                if let Err(interrupt) = ctl.check(cp_resilience::sites::PLACE_OUTER) {
                    cp_trace::instant(
                        "recovery.place_interrupted",
                        &[("iteration", ArgValue::U(it as u64))],
                    );
                    return Err(PlaceError::Interrupted {
                        interrupt,
                        iteration: it,
                        best: best.take().map(|b| BestSnapshot {
                            positions: b.positions,
                            hpwl: b.hpwl,
                        }),
                    });
                }
            }
            done = it + 1;
            // Anchor targets: spread positions (weight ramping up), blended
            // with the seed pull in incremental mode.
            let ramp = ANCHOR_BASE * (it as f64 + 1.0);
            for i in 0..m {
                let mut w_sum = ramp;
                let mut t = upper[i];
                if let Some(s) = seeds {
                    t = (
                        (t.0 * ramp + s[i].0 * SEED_ANCHOR) / (ramp + SEED_ANCHOR),
                        (t.1 * ramp + s[i].1 * SEED_ANCHOR) / (ramp + SEED_ANCHOR),
                    );
                    w_sum += SEED_ANCHOR;
                }
                anchor_w[i] = w_sum;
                upper[i] = t;
            }
            for i in 0..m {
                tx[i] = upper[i].0;
                ty[i] = upper[i].1;
                sx[i] = pos[i].0;
                sy[i] = pos[i].1;
            }
            // Lower bound: the two axes are independent systems.
            let lower_bound = |rb: &mut B2bRebuilder,
                               target: &[f64],
                               start: &mut [f64],
                               scratch: &mut CgScratch| {
                let weight = &anchor_w;
                rb.rebuild(problem, &pos, Some(Anchors { target, weight }));
                rb.system()
                    .solve_into(start, scratch, opt.cg_iterations, 1e-6)
            };
            let (cg_x, cg_y) = if m >= AXIS_TASK_MIN_MOVABLES {
                cp_parallel::join(
                    || lower_bound(&mut rb_x, &tx, &mut sx, &mut scratch_x),
                    || lower_bound(&mut rb_y, &ty, &mut sy, &mut scratch_y),
                )
            } else {
                (
                    lower_bound(&mut rb_x, &tx, &mut sx, &mut scratch_x),
                    lower_bound(&mut rb_y, &ty, &mut sy, &mut scratch_x),
                )
            };
            record_cg(&cg_x);
            record_cg(&cg_y);
            for i in 0..m {
                pos[i] = (sx[i], sy[i]);
            }
            if opt.fault_nan_at_iteration == Some(it)
                || cp_resilience::faultpoint!(cp_resilience::sites::SOLVER_NAN)
            {
                pos[0].0 = f64::NAN;
            }
            // Guard rail 1: the linear solve must stay finite.
            if !all_finite(&pos) {
                cp_trace::instant("place.revert", &[("iteration", ArgValue::U(it as u64))]);
                match self.revert(best.take(), &mut upper, &mut hpwl, &mut overflow) {
                    true => {
                        diverged = true;
                        break;
                    }
                    false => return Err(PlaceError::NonFinite { stage: "solver" }),
                }
            }
            self.clamp(problem, &mut pos);
            spreader.spread(problem, &soa, &pos, &mut upper);
            overflow = density_overflow_soa(problem, &soa, &upper);
            hpwl = raw_hpwl(problem, &upper);
            cp_trace::series(
                "place.outer",
                it as u64,
                &[
                    ("hpwl", hpwl),
                    ("overflow", overflow),
                    ("cg_x_iters", cg_x.iterations as f64),
                    ("cg_x_residual", cg_x.relative_residual),
                    ("cg_y_iters", cg_y.iterations as f64),
                    ("cg_y_residual", cg_y.relative_residual),
                ],
            );
            // Field frames: the spatial view behind the scalar series row
            // — the per-bin density overflow of the spread (upper-bound)
            // positions, and where the spreader displaced cells away from
            // the lower bound. Free when off (one relaxed load); nothing
            // recorded feeds back into the loop.
            if cp_trace::fields::recording() {
                let (bins, grid) = overflow_grid_soa(problem, &soa, &upper);
                cp_trace::fields::record_with(
                    "place.density_overflow",
                    it as u64,
                    bins,
                    bins,
                    || grid,
                );
                let (bins, grid) = displacement_grid(problem, &pos, &upper);
                cp_trace::fields::record_with("place.displacement", it as u64, bins, bins, || grid);
            }
            // Guard rail 2: HPWL blowing up while overflow regresses means
            // the anchors lost control — revert rather than walk off.
            let blown_up = match &best {
                Some(b) => {
                    !(hpwl.is_finite() && overflow.is_finite())
                        || (hpwl > b.hpwl * DIVERGENCE_FACTOR && overflow > b.overflow + 0.1)
                }
                None => !(hpwl.is_finite() && overflow.is_finite()),
            };
            if blown_up {
                cp_trace::instant("place.revert", &[("iteration", ArgValue::U(it as u64))]);
                let best_hpwl = best.as_ref().map_or(f64::NAN, |b| b.hpwl);
                match self.revert(best.take(), &mut upper, &mut hpwl, &mut overflow) {
                    true => {
                        diverged = true;
                        break;
                    }
                    false => {
                        return Err(PlaceError::Diverged {
                            iteration: it,
                            best_hpwl,
                        })
                    }
                }
            }
            let better = match &best {
                Some(b) => {
                    overflow < b.overflow - 1e-12
                        || (overflow <= b.overflow + 0.02 && hpwl < b.hpwl)
                }
                None => true,
            };
            if better {
                match &mut best {
                    Some(b) => {
                        b.positions.copy_from_slice(&upper);
                        b.hpwl = hpwl;
                        b.overflow = overflow;
                    }
                    None => {
                        best = Some(Snapshot {
                            positions: upper.clone(),
                            hpwl,
                            overflow,
                        });
                    }
                }
            }
            if overflow <= TARGET_OVERFLOW {
                break;
            }
        }
        Ok(PlacementResult {
            positions: upper,
            hpwl,
            iterations: done,
            overflow,
            runtime: start.elapsed().as_secs_f64(),
            diverged,
        })
    }

    /// Restores the best snapshot into the loop state. Returns whether the
    /// revert path is available (enabled and a snapshot exists).
    fn revert(
        &self,
        best: Option<Snapshot>,
        upper: &mut Vec<(f64, f64)>,
        hpwl: &mut f64,
        overflow: &mut f64,
    ) -> bool {
        if !self.options.revert_if_diverge {
            return false;
        }
        match best {
            Some(b) => {
                *upper = b.positions;
                *hpwl = b.hpwl;
                *overflow = b.overflow;
                true
            }
            None => false,
        }
    }

    fn clamp(&self, problem: &PlacementProblem, pos: &mut [(f64, f64)]) {
        for (i, p) in pos.iter_mut().enumerate() {
            *p = problem.bounds_of(i).clamp(p.0, p.1);
            *p = problem.evict_from_blockages(p.0, p.1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::floorplan::Floorplan;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};
    use cp_netlist::netlist::Netlist;

    fn flat(scale: f64, seed: u64) -> (Netlist, Floorplan) {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(scale)
            .seed(seed)
            .generate();
        let fp = Floorplan::for_netlist(&n, 0.6, 1.0);
        (n, fp)
    }

    #[test]
    fn placement_beats_random_scatter() {
        let (n, fp) = flat(0.01, 1);
        let p = PlacementProblem::from_netlist(&n, &fp);
        let mut rng = StdRng::seed_from_u64(99);
        let random: Vec<(f64, f64)> = (0..p.movable_count())
            .map(|_| {
                (
                    fp.core.llx + rng.random::<f64>() * fp.core.width(),
                    fp.core.lly + rng.random::<f64>() * fp.core.height(),
                )
            })
            .collect();
        let random_hpwl = raw_hpwl(&p, &random);
        let result = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        assert!(
            result.hpwl < random_hpwl * 0.8,
            "placed {} vs random {random_hpwl}",
            result.hpwl
        );
        for &(x, y) in &result.positions {
            assert!(fp.core.contains(x, y));
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let (n, fp) = flat(0.005, 2);
        let p = PlacementProblem::from_netlist(&n, &fp);
        let a = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        let b = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.hpwl, b.hpwl);
    }

    #[test]
    fn incremental_mode_is_faster_and_respects_seeds() {
        let (n, fp) = flat(0.01, 3);
        let p = PlacementProblem::from_netlist(&n, &fp);
        let full = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        // Seed with the full result: incremental should converge quickly to
        // a similar-quality placement.
        let p2 = p.clone().with_seeds(full.positions.clone());
        let inc = GlobalPlacer::new(PlacerOptions::default())
            .place(&p2)
            .expect("placement succeeds");
        assert!(inc.iterations <= PlacerOptions::default().incremental_iterations);
        assert!(
            inc.hpwl < full.hpwl * 1.25,
            "incremental {} vs full {}",
            inc.hpwl,
            full.hpwl
        );
    }

    #[test]
    fn reported_hpwl_is_raw_hpwl_of_the_positions() {
        let (n, fp) = flat(0.01, 12);
        let scratch = PlacementProblem::from_netlist(&n, &fp);
        let placed = GlobalPlacer::default()
            .place(&scratch)
            .expect("placement succeeds");
        let seeded = scratch.clone().with_seeds(placed.positions);
        for backend in [PlacerBackendKind::B2b, PlacerBackendKind::EDensity] {
            // A revert at the first iteration, one mid-run, and none.
            for fault in [None, Some(0), Some(3)] {
                for (mode, p) in [("scratch", &scratch), ("seeded", &seeded)] {
                    let r = GlobalPlacer::new(PlacerOptions {
                        backend,
                        fault_nan_at_iteration: fault,
                        ..PlacerOptions::default()
                    })
                    .place(p)
                    .expect("placement succeeds");
                    if fault == Some(0) {
                        assert!(r.diverged, "{backend:?} {mode}: the NaN reverts");
                    }
                    assert_eq!(
                        r.hpwl.to_bits(),
                        raw_hpwl(p, &r.positions).to_bits(),
                        "{backend:?} {mode} fault {fault:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn overflow_is_controlled() {
        let (n, fp) = flat(0.01, 4);
        let p = PlacementProblem::from_netlist(&n, &fp);
        let r = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        assert!(r.overflow < 0.4, "overflow {}", r.overflow);
    }

    #[test]
    fn region_constraint_is_honored() {
        let (n, fp) = flat(0.005, 5);
        let mut p = PlacementProblem::from_netlist(&n, &fp);
        let r = cp_netlist::floorplan::Rect::new(
            fp.core.llx,
            fp.core.lly,
            fp.core.width() / 4.0,
            fp.core.height() / 4.0,
        );
        for i in 0..10.min(p.movable_count()) {
            p.set_region(i, r);
        }
        let res = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        for i in 0..10.min(p.movable_count()) {
            let (x, y) = res.positions[i];
            assert!(r.contains(x, y), "cell {i} at ({x}, {y}) escaped region");
        }
    }

    #[test]
    fn empty_problem_is_ok() {
        let (n, fp) = flat(0.005, 6);
        let mut p = PlacementProblem::from_netlist(&n, &fp);
        p.movable.clear();
        p.region.clear();
        // Rebuild a consistent empty hypergraph.
        p.hypergraph = cp_graph::Hypergraph::new(p.fixed.len(), vec![]).into();
        p.net_weights.clear();
        let r = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("empty problem places");
        assert_eq!(r.positions.len(), 0);
        assert_eq!(r.hpwl, 0.0);
    }

    #[test]
    fn injected_nan_reverts_to_best_snapshot() {
        let (n, fp) = flat(0.01, 7);
        let p = PlacementProblem::from_netlist(&n, &fp);
        let clean = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("clean run succeeds");
        let faulty = GlobalPlacer::new(PlacerOptions {
            fault_nan_at_iteration: Some(6),
            ..PlacerOptions::default()
        })
        .place(&p)
        .expect("revert recovers from the injected NaN");
        assert!(faulty.diverged);
        assert!(faulty.hpwl.is_finite());
        assert!(faulty
            .positions
            .iter()
            .all(|&(x, y)| { x.is_finite() && y.is_finite() && fp.core.contains(x, y) }));
        // The reverted snapshot can't beat the clean run's final result by
        // much, nor be wildly worse: it is a genuine mid-run iterate.
        assert!(
            faulty.hpwl < clean.hpwl * 3.0,
            "reverted {} vs clean {}",
            faulty.hpwl,
            clean.hpwl
        );
    }

    #[test]
    fn injected_nan_errors_with_revert_disabled() {
        let (n, fp) = flat(0.01, 7);
        let p = PlacementProblem::from_netlist(&n, &fp);
        let err = GlobalPlacer::new(PlacerOptions {
            fault_nan_at_iteration: Some(3),
            revert_if_diverge: false,
            ..PlacerOptions::default()
        })
        .place(&p)
        .expect_err("NaN without revert must error");
        assert_eq!(err, crate::error::PlaceError::NonFinite { stage: "solver" });
    }

    #[test]
    fn cancellation_mid_loop_returns_best_snapshot() {
        let (n, fp) = flat(0.01, 9);
        let p = PlacementProblem::from_netlist(&n, &fp);
        // The placer checks PLACE_OUTER once per iteration; cancelling
        // after 5 checks interrupts at the start of iteration 5 (0-based)
        // with the best snapshot from the first 5 iterations attached.
        let ctl = RunControl::unlimited().cancel_after_checks(5);
        let err = GlobalPlacer::new(PlacerOptions::default())
            .place_with_control(&p, &ctl)
            .expect_err("cancelled run must be interrupted");
        match err {
            PlaceError::Interrupted {
                interrupt,
                iteration,
                best,
            } => {
                assert_eq!(interrupt.kind, cp_resilience::InterruptKind::Cancelled);
                assert_eq!(iteration, 4);
                let best = best.expect("5 finished iterations leave a snapshot");
                assert!(best.hpwl.is_finite());
                assert_eq!(best.positions.len(), p.movable_count());
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_interrupts_before_first_iteration() {
        let (n, fp) = flat(0.005, 10);
        let p = PlacementProblem::from_netlist(&n, &fp);
        let ctl = RunControl::unlimited().with_deadline(std::time::Duration::ZERO);
        let err = GlobalPlacer::new(PlacerOptions::default())
            .place_with_control(&p, &ctl)
            .expect_err("expired deadline must interrupt");
        match err {
            PlaceError::Interrupted {
                interrupt,
                iteration,
                ..
            } => {
                assert_eq!(
                    interrupt.kind,
                    cp_resilience::InterruptKind::DeadlineExceeded
                );
                assert_eq!(iteration, 0);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_control_matches_plain_place_bitwise() {
        let (n, fp) = flat(0.005, 11);
        let p = PlacementProblem::from_netlist(&n, &fp);
        let plain = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        let controlled = GlobalPlacer::new(PlacerOptions::default())
            .place_with_control(&p, &RunControl::unlimited())
            .expect("placement succeeds");
        assert_eq!(plain.positions, controlled.positions);
        assert_eq!(plain.hpwl.to_bits(), controlled.hpwl.to_bits());
    }

    #[test]
    fn bad_inputs_are_rejected_not_panicked() {
        let (n, fp) = flat(0.005, 8);
        let p = PlacementProblem::from_netlist(&n, &fp);
        // Degenerate core.
        let mut degenerate = p.clone();
        degenerate.core = cp_netlist::floorplan::Rect::new(0.0, 0.0, 0.0, 10.0);
        assert!(matches!(
            GlobalPlacer::default().place(&degenerate),
            Err(crate::error::PlaceError::DegenerateCore { .. })
        ));
        // Seed length mismatch (bypassing with_seeds' assert).
        let mut short_seeds = p.clone();
        short_seeds.seed_positions = Some(vec![(0.0, 0.0)]);
        assert!(matches!(
            GlobalPlacer::default().place(&short_seeds),
            Err(crate::error::PlaceError::InvalidInput { .. })
        ));
        // Non-finite seeds.
        let mut nan_seeds = p.clone();
        nan_seeds.seed_positions = Some(vec![(f64::NAN, 0.0); p.movable_count()]);
        assert!(matches!(
            GlobalPlacer::default().place(&nan_seeds),
            Err(crate::error::PlaceError::NonFinite { .. })
        ));
        // A region vector that is neither empty nor one per movable
        // (bypassing set_region), under both spreading backends.
        let mut short_regions = p.clone();
        short_regions.region = vec![None; p.movable_count() - 1];
        for backend in [PlacerBackendKind::B2b, PlacerBackendKind::EDensity] {
            assert!(matches!(
                GlobalPlacer::new(PlacerOptions {
                    backend,
                    ..PlacerOptions::default()
                })
                .place(&short_regions),
                Err(crate::error::PlaceError::InvalidInput { .. })
            ));
        }
    }
}
