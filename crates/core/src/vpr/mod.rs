//! Virtualized P&R (Section 3.2, Figure 3).
//!
//! For a cluster's sub-netlist and a candidate shape, V-P&R floorplans a
//! virtual die, runs placement and global routing, and scores the result:
//!
//! - `Cost_HPWL = HPWL_avg / (Width_core + Height_core)` (Eq. 4),
//! - `Cost_Congestion` = average congestion over the top-X% GCells (Eq. 5),
//! - `Total = Cost_HPWL + δ · Cost_Congestion` (δ = 0.01, after [13]).
//!
//! The candidate grid is the paper's 5 aspect ratios × 4 utilizations.

pub mod ml;
pub mod subnetlist;

use crate::error::FlowError;
use crate::stages;
use cp_netlist::floorplan::Rect;
use cp_netlist::netlist::Netlist;
use cp_netlist::{ClusterShape, Floorplan};
use cp_place::{GlobalPlacer, PlaceError, PlacementProblem, PlacerOptions};
use cp_resilience::RunControl;
use cp_route::{route_placed_netlist, RouterOptions};
use cp_trace::ArgValue;

pub use subnetlist::extract_subnetlist;

/// Polls the run control (when one is threaded in) at the per-candidate
/// interruption site.
fn poll_candidate(control: Option<&RunControl>) -> Option<cp_resilience::Interrupt> {
    control.and_then(|ctl| ctl.poll(cp_resilience::sites::VPR_CANDIDATE).err())
}

/// An interruption observed inside the candidate sweep, typed so the flow
/// can tell it apart from a genuine per-candidate evaluation failure
/// (which falls back to the uniform shape instead of aborting the run).
fn interrupted_candidate(interrupt: cp_resilience::Interrupt) -> FlowError {
    FlowError::Place(PlaceError::Interrupted {
        interrupt,
        iteration: 0,
        best: None,
    })
}

/// Span wrapping one cluster×candidate evaluation; `verdict` names the
/// ranking tier that paid for it (exact V-P&R, reduced-effort screening,
/// or the placement proxy).
fn candidate_span(shape: ClusterShape, verdict: &'static str) -> cp_trace::SpanGuard {
    cp_trace::span_with(
        stages::SPAN_VPR_CANDIDATE,
        &[
            ("ar", ArgValue::F(shape.aspect_ratio)),
            ("util", ArgValue::F(shape.utilization)),
            ("verdict", ArgValue::S(verdict)),
        ],
    )
}

/// V-P&R tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VprOptions {
    /// Congestion weight δ in the total cost.
    pub delta: f64,
    /// The X of "top X% GCells" in Eq. 5.
    pub top_percent: f64,
    /// Placer settings for the virtual die (reduced effort).
    pub placer: PlacerOptions,
    /// Router settings for the virtual die.
    pub router: RouterOptions,
}

impl Default for VprOptions {
    fn default() -> Self {
        Self {
            delta: 0.01,
            top_percent: 10.0,
            placer: PlacerOptions {
                max_iterations: 10,
                incremental_iterations: 5,
                cg_iterations: 30,
                ..Default::default()
            },
            router: RouterOptions::default(),
        }
    }
}

/// The cost of one shape candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeCost {
    /// The candidate.
    pub shape: ClusterShape,
    /// Eq. 4.
    pub hpwl_cost: f64,
    /// Eq. 5.
    pub congestion_cost: f64,
    /// `Cost_HPWL + δ · Cost_Congestion`.
    pub total: f64,
}

/// Counters from one shape search, aggregated into the flow's
/// `ShapingStats` so the report can show how much exact work the fast
/// path avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeSearchStats {
    /// Exact V-P&R evaluations actually run.
    pub exact_evals: usize,
    /// Candidates never exactly evaluated (pruned by the surrogate rank).
    pub exact_evals_avoided: usize,
    /// Low-effort placement-proxy evaluations (untrained ranking path).
    pub proxy_evals: usize,
    /// Exact evaluations that started from a rescaled previous solution
    /// instead of a cold random scatter.
    pub warm_start_hits: usize,
}

impl ShapeSearchStats {
    /// Accumulates another search's counters into this one.
    pub fn merge(&mut self, other: &Self) {
        self.exact_evals += other.exact_evals;
        self.exact_evals_avoided += other.exact_evals_avoided;
        self.proxy_evals += other.proxy_evals;
        self.warm_start_hits += other.warm_start_hits;
    }
}

/// A finished virtual placement, reusable as the starting point of the
/// next candidate's solve: the movable-cell positions (ports excluded)
/// plus the core they were placed in, so they can be rescaled onto a die
/// of a different shape.
#[derive(Debug, Clone)]
pub struct WarmStart {
    positions: Vec<(f64, f64)>,
    core: Rect,
}

impl WarmStart {
    /// Maps the stored positions onto `core` by rescaling each coordinate
    /// proportionally between the old and new die extents.
    fn rescaled_to(&self, core: &Rect) -> Vec<(f64, f64)> {
        let ow = self.core.width().max(1e-12);
        let oh = self.core.height().max(1e-12);
        self.positions
            .iter()
            .map(|&(x, y)| {
                (
                    core.llx + (x - self.core.llx) * core.width() / ow,
                    core.lly + (y - self.core.lly) * core.height() / oh,
                )
            })
            .collect()
    }
}

/// A cluster's sub-netlist prepared for repeated shape evaluation:
/// validation and the scoreable-net count are hoisted out of the
/// per-candidate path, so a 20-candidate sweep pays for them once.
#[derive(Debug, Clone, Copy)]
pub struct ClusterVpr<'a> {
    sub: &'a Netlist,
    net_count: usize,
}

impl<'a> ClusterVpr<'a> {
    /// Validates `sub` and precomputes per-cluster invariants.
    ///
    /// # Errors
    ///
    /// [`FlowError::Validation`] when `sub` is degenerate (no cells, no
    /// nets).
    pub fn new(sub: &'a Netlist) -> Result<Self, FlowError> {
        sub.validate()?;
        let net_count = sub
            .nets()
            .iter()
            .filter(|n| !n.is_clock && n.pin_count() >= 2)
            .count()
            .max(1);
        Ok(Self { sub, net_count })
    }

    /// Places and routes the cluster on a virtual die of the given shape
    /// and scores it (one arm of Figure 3).
    ///
    /// # Errors
    ///
    /// [`FlowError::Place`] / [`FlowError::Route`] when the virtual P&R
    /// fails for this shape.
    pub fn evaluate(
        &self,
        shape: ClusterShape,
        options: &VprOptions,
    ) -> Result<ShapeCost, FlowError> {
        self.evaluate_inner(shape, options, None, 1.0, true)
            .map(|(cost, _)| cost)
    }

    /// The one body behind every exact evaluation: [`Self::evaluate`] plus
    /// the two fast-path levers of the successive-halving rounds — an
    /// optional warm start (a previous candidate's solution rescaled to
    /// this die, engaging the placer's incremental mode) and an `effort`
    /// fraction in `(0, 1]` scaling the placement iteration budget. With
    /// `route` off the congestion term is skipped (reported as 0): the
    /// intermediate rounds only need relative order and re-score survivors
    /// with routing in the final round.
    ///
    /// Returns the cost together with a [`WarmStart`] snapshot of the
    /// solved positions for the next candidate to reuse.
    fn evaluate_inner(
        &self,
        shape: ClusterShape,
        options: &VprOptions,
        warm: Option<&WarmStart>,
        effort: f64,
        route: bool,
    ) -> Result<(ShapeCost, WarmStart), FlowError> {
        if cp_resilience::faultpoint!(cp_resilience::sites::VPR_CANDIDATE_FAIL) {
            return Err(FlowError::Place(PlaceError::InvalidInput {
                reason: "injected fault: vpr.candidate.fail".to_string(),
            }));
        }
        let sub = self.sub;
        let fp = Floorplan::try_for_netlist(sub, shape.utilization, shape.aspect_ratio)?;
        let mut problem = PlacementProblem::from_netlist(sub, &fp);
        if let Some(w) = warm {
            problem = problem.with_seeds(w.rescaled_to(&fp.core));
        }
        // Effort scales every iteration budget, including the CG solve —
        // the dominant per-iteration cost. Full effort takes the options
        // as they are (the scaling's floor of one iteration would turn a
        // zero budget into one).
        let placer = if effort == 1.0 {
            options.placer
        } else {
            let scale = |iters: usize| ((iters as f64 * effort).ceil() as usize).max(1);
            PlacerOptions {
                max_iterations: scale(options.placer.max_iterations),
                incremental_iterations: scale(options.placer.incremental_iterations),
                cg_iterations: scale(options.placer.cg_iterations),
                ..options.placer
            }
        };
        let placed = GlobalPlacer::new(placer).place(&problem)?;
        let mut positions = placed.positions;
        let congestion_cost = if route {
            let movables = positions.len();
            positions.extend_from_slice(&fp.port_positions);
            let routed = route_placed_netlist(sub, &positions, &fp, &options.router)?;
            positions.truncate(movables);
            routed.congestion.top_percent_average(options.top_percent)
        } else {
            0.0
        };
        let hpwl_avg = placed.hpwl / self.net_count as f64;
        let hpwl_cost = hpwl_avg / (fp.core.width() + fp.core.height());
        let cost = ShapeCost {
            shape,
            hpwl_cost,
            congestion_cost,
            total: hpwl_cost + options.delta * congestion_cost,
        };
        let next_warm = WarmStart {
            positions,
            core: fp.core,
        };
        Ok((cost, next_warm))
    }

    /// Cheap surrogate ranking for the untrained hybrid path: a 2-iteration
    /// placement per candidate, no routing, scored by Eq. 4 alone. The
    /// values are only used to *order* candidates, so skipping the
    /// congestion term is acceptable — exact V-P&R re-scores whatever
    /// survives the cut.
    ///
    /// # Errors
    ///
    /// Propagates the first (in candidate order) placement failure.
    pub fn proxy_costs(&self, options: &VprOptions) -> Result<Vec<f64>, FlowError> {
        let candidates = ClusterShape::candidates();
        let results = cp_parallel::par_map(&candidates, 1, |&shape| -> Result<f64, FlowError> {
            let _span = candidate_span(shape, "proxy");
            let fp = Floorplan::try_for_netlist(self.sub, shape.utilization, shape.aspect_ratio)?;
            let problem = PlacementProblem::from_netlist(self.sub, &fp);
            let placer = PlacerOptions {
                max_iterations: 1,
                cg_iterations: 5,
                ..options.placer
            };
            let placed = GlobalPlacer::new(placer).place(&problem)?;
            let hpwl_avg = placed.hpwl / self.net_count as f64;
            Ok(hpwl_avg / (fp.core.width() + fp.core.height()))
        });
        results.into_iter().collect()
    }
}

/// Places and routes `sub` on a virtual die of the given shape and scores
/// it (one arm of Figure 3).
///
/// # Errors
///
/// [`FlowError::Validation`] when `sub` is degenerate (no cells, no
/// nets); [`FlowError::Place`] / [`FlowError::Route`] when the virtual
/// P&R itself fails.
pub fn evaluate_shape(
    sub: &Netlist,
    shape: ClusterShape,
    options: &VprOptions,
) -> Result<ShapeCost, FlowError> {
    ClusterVpr::new(sub)?.evaluate(shape, options)
}

/// Sweeps the paper's 20 shape candidates through V-P&R; returns the best
/// shape and every candidate's cost (ties break toward the earlier
/// candidate, i.e. lower aspect ratio / utilization).
///
/// The candidates are independent virtual P&R runs, so they evaluate in
/// parallel (one candidate per chunk); selection and error propagation
/// happen afterwards in candidate order, preserving the serial sweep's
/// tie-breaking and first-error semantics exactly.
///
/// # Errors
///
/// Propagates the first (in candidate order) evaluation failure — with a
/// valid sub-netlist every candidate either scores or fails identically.
pub fn best_shape(
    sub: &Netlist,
    options: &VprOptions,
) -> Result<(ClusterShape, Vec<ShapeCost>), FlowError> {
    best_shape_with_control(sub, options, None)
}

/// [`best_shape`] polling a [`RunControl`] before each candidate, so a
/// cancellation or deadline interrupts the sweep between P&R runs instead
/// of after all twenty. The interruption surfaces as
/// [`PlaceError::Interrupted`] (see `poll_candidate`).
///
/// # Errors
///
/// See [`best_shape`]; additionally the interruption when `control` trips.
pub fn best_shape_with_control(
    sub: &Netlist,
    options: &VprOptions,
    control: Option<&RunControl>,
) -> Result<(ClusterShape, Vec<ShapeCost>), FlowError> {
    let ctx = ClusterVpr::new(sub)?;
    let candidates = ClusterShape::candidates();
    let results = cp_parallel::par_map(&candidates, 1, |&shape| {
        if let Some(interrupt) = poll_candidate(control) {
            return Err(interrupted_candidate(interrupt));
        }
        let _span = candidate_span(shape, "exact");
        ctx.evaluate(shape, options)
    });
    let mut costs = Vec::with_capacity(results.len());
    for r in results {
        costs.push(r?);
    }
    let mut best: Option<ShapeCost> = None;
    for &c in &costs {
        if best.is_none_or(|b| c.total < b.total) {
            best = Some(c);
        }
    }
    match best {
        Some(b) => Ok((b.shape, costs)),
        // Unreachable: `candidates()` is a non-empty constant grid.
        None => Ok((ClusterShape::UNIFORM, costs)),
    }
}

/// Surrogate-first shape search (the fast path behind
/// `ShapeMode::Hybrid`): a cheap ranking — the trained surrogate's
/// predicted Total Costs when available, otherwise the low-effort
/// placement proxy — picks the `top_k` most promising candidates, and
/// exact V-P&R runs only those, via successive halving with an effort ramp
/// and each solve warm-started from the previous candidate's solution
/// rescaled to the new die.
///
/// `surrogate_costs`, when given, must hold one predicted cost per
/// candidate in [`ClusterShape::candidates`] order (see
/// `MlShapeSelector::predicted_candidate_costs`).
///
/// With `top_k >= 20` the search delegates to [`best_shape`], so the
/// selected shape is bit-identical to the exact sweep's.
///
/// # Errors
///
/// [`FlowError::Validation`] for a degenerate sub-netlist; otherwise
/// propagates the first evaluation failure.
pub fn best_shape_hybrid(
    sub: &Netlist,
    options: &VprOptions,
    top_k: usize,
    surrogate_costs: Option<&[f64]>,
) -> Result<(ClusterShape, Vec<ShapeCost>, ShapeSearchStats), FlowError> {
    best_shape_hybrid_with_control(sub, options, top_k, surrogate_costs, None)
}

/// [`best_shape_hybrid`] polling a [`RunControl`] before each exact solve
/// (the successive-halving rounds run sequentially per cluster, so every
/// candidate is an interruption point).
///
/// # Errors
///
/// See [`best_shape_hybrid`]; additionally the interruption when
/// `control` trips.
pub fn best_shape_hybrid_with_control(
    sub: &Netlist,
    options: &VprOptions,
    top_k: usize,
    surrogate_costs: Option<&[f64]>,
    control: Option<&RunControl>,
) -> Result<(ClusterShape, Vec<ShapeCost>, ShapeSearchStats), FlowError> {
    let candidates = ClusterShape::candidates();
    let top_k = top_k.max(1);
    if top_k >= candidates.len() {
        let (best, costs) = best_shape_with_control(sub, options, control)?;
        let stats = ShapeSearchStats {
            exact_evals: candidates.len(),
            ..Default::default()
        };
        return Ok((best, costs, stats));
    }
    let ctx = ClusterVpr::new(sub)?;
    let mut stats = ShapeSearchStats::default();

    // Rank all candidates by the cheap cost; ties break to the earlier
    // candidate (stable sort), matching the exact sweep's preference for
    // lower aspect ratio / utilization.
    let ranking: Vec<f64> = match surrogate_costs {
        Some(costs) => {
            assert_eq!(costs.len(), candidates.len(), "one cost per candidate");
            costs.to_vec()
        }
        None => {
            stats.proxy_evals += candidates.len();
            ctx.proxy_costs(options)?
        }
    };
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| ranking[a].total_cmp(&ranking[b]));
    // The ranker's top pick is exempt from elimination: screening rounds
    // run at reduced effort and can misorder near-ties, so they may
    // promote candidates into the final round but never veto the
    // champion. Whenever the true winner is the ranker's #1, the cold
    // final round then selects it exactly as `best_shape` would.
    let champion = order[0];
    let mut survivors: Vec<usize> = order[..top_k].to_vec();
    survivors.sort_unstable();
    stats.exact_evals_avoided = candidates.len() - top_k;

    // Successive halving: each round halves the survivor set and raises
    // the placement effort, so full-budget solves are spent only on the
    // final contenders. Intermediate (screening) rounds skip routing —
    // they only need relative order — and warm-start every solve from one
    // shared base per round (the round's first solve, then the previous
    // round's best survivor). A shared base keeps the round comparable;
    // chaining candidate-to-candidate instead would hand later candidates
    // increasingly refined placements and bias the cut toward them. The
    // final round re-scores its survivors cold at full effort, which is
    // exactly [`ClusterVpr::evaluate`]: those costs are bitwise-equal to
    // the exact sweep's, so whenever the true winner survives the cut,
    // the hybrid selects the same shape as [`best_shape`].
    let total_rounds = (top_k as f64).log2().ceil().max(1.0) as usize;
    let mut base: Option<WarmStart> = None;
    let mut all_evals: Vec<ShapeCost> = Vec::new();
    let mut round_costs: Vec<ShapeCost> = Vec::new();
    for round in 0..total_rounds {
        let effort = (round + 1) as f64 / total_rounds as f64;
        let last = round + 1 == total_rounds;
        round_costs.clear();
        let mut round_warms: Vec<WarmStart> = Vec::new();
        for &ci in &survivors {
            if let Some(interrupt) = poll_candidate(control) {
                return Err(interrupted_candidate(interrupt));
            }
            let cost = if last {
                let _span = candidate_span(candidates[ci], "exact");
                ctx.evaluate(candidates[ci], options)?
            } else {
                let _span = candidate_span(candidates[ci], "screening");
                let (cost, w) =
                    ctx.evaluate_inner(candidates[ci], options, base.as_ref(), effort, false)?;
                if base.is_some() {
                    stats.warm_start_hits += 1;
                } else {
                    base = Some(w.clone());
                }
                round_warms.push(w);
                cost
            };
            stats.exact_evals += 1;
            round_costs.push(cost);
            all_evals.push(cost);
        }
        if !last && survivors.len() > 1 {
            let keep = survivors.len().div_ceil(2);
            let mut by_cost: Vec<usize> = (0..survivors.len()).collect();
            by_cost.sort_by(|&a, &b| {
                round_costs[a]
                    .total
                    .total_cmp(&round_costs[b].total)
                    .then(survivors[a].cmp(&survivors[b]))
            });
            base = Some(round_warms[by_cost[0]].clone());
            let mut kept: Vec<usize> = by_cost[..keep].iter().map(|&i| survivors[i]).collect();
            if !kept.contains(&champion) {
                kept.push(champion);
            }
            kept.sort_unstable();
            survivors = kept;
        }
    }

    // Select from the final round only: those costs share the full effort
    // level, so they are comparable; survivors are in candidate order, so
    // strict-less argmin keeps the earlier-candidate tie-break.
    let mut best = 0usize;
    for (i, c) in round_costs.iter().enumerate() {
        if c.total.total_cmp(&round_costs[best].total).is_lt() {
            best = i;
        }
    }
    Ok((round_costs[best].shape, all_evals, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};
    use cp_netlist::CellId;

    fn cluster_sub() -> Netlist {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .seed(12)
            .generate();
        let cells: Vec<CellId> = (0..220).map(CellId).collect();
        extract_subnetlist(&n, &cells).expect("valid sub-netlist")
    }

    #[test]
    fn shape_costs_are_finite_and_positive() {
        let sub = cluster_sub();
        let c = evaluate_shape(&sub, ClusterShape::UNIFORM, &VprOptions::default())
            .expect("shape evaluates");
        assert!(c.hpwl_cost > 0.0 && c.hpwl_cost.is_finite());
        assert!(c.congestion_cost >= 0.0 && c.congestion_cost.is_finite());
        assert!((c.total - (c.hpwl_cost + 0.01 * c.congestion_cost)).abs() < 1e-12);
    }

    #[test]
    fn sweep_evaluates_all_twenty() {
        let sub = cluster_sub();
        let (best, costs) = best_shape(&sub, &VprOptions::default()).expect("sweep runs");
        assert_eq!(costs.len(), 20);
        let min = costs.iter().map(|c| c.total).fold(f64::INFINITY, f64::min);
        let best_cost = costs
            .iter()
            .find(|c| c.shape == best)
            .expect("best is a candidate");
        assert!((best_cost.total - min).abs() < 1e-12);
    }

    #[test]
    fn costs_vary_across_shapes() {
        let sub = cluster_sub();
        let (_, costs) = best_shape(&sub, &VprOptions::default()).expect("sweep runs");
        let min = costs.iter().map(|c| c.total).fold(f64::INFINITY, f64::min);
        let max = costs.iter().map(|c| c.total).fold(0.0f64, f64::max);
        assert!(
            max > min * 1.01,
            "shape choice should matter: {min} vs {max}"
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let sub = cluster_sub();
        let a = evaluate_shape(&sub, ClusterShape::new(1.25, 0.8), &VprOptions::default());
        let b = evaluate_shape(&sub, ClusterShape::new(1.25, 0.8), &VprOptions::default());
        assert_eq!(a.expect("shape evaluates"), b.expect("shape evaluates"));
    }

    #[test]
    fn hybrid_with_full_top_k_matches_exact_sweep() {
        let sub = cluster_sub();
        let opts = VprOptions::default();
        let (exact, exact_costs) = best_shape(&sub, &opts).expect("sweep runs");
        let (hybrid, costs, stats) = best_shape_hybrid(&sub, &opts, 20, None).expect("hybrid runs");
        assert_eq!(exact, hybrid);
        assert_eq!(exact_costs, costs);
        assert_eq!(stats.exact_evals, 20);
        assert_eq!(stats.exact_evals_avoided, 0);
        assert_eq!(stats.proxy_evals, 0);
    }

    #[test]
    fn hybrid_prunes_and_warm_starts() {
        let sub = cluster_sub();
        let opts = VprOptions::default();
        let (shape, costs, stats) = best_shape_hybrid(&sub, &opts, 4, None).expect("hybrid runs");
        assert!(ClusterShape::candidates().contains(&shape));
        // top_k = 4 → 2 halving rounds: 4 screening evals (3 of them
        // warm-started) + 2 cold full-effort finals = 6 exact evals (7 if
        // the champion had to be re-added after screening), with 16
        // candidates never exactly evaluated.
        assert!(
            stats.exact_evals == 6 || stats.exact_evals == 7,
            "exact_evals = {}",
            stats.exact_evals
        );
        assert_eq!(stats.exact_evals_avoided, 16);
        assert_eq!(stats.proxy_evals, 20);
        assert_eq!(stats.warm_start_hits, 3);
        assert_eq!(costs.len(), stats.exact_evals);
        for c in &costs {
            assert!(c.total.is_finite() && c.total > 0.0);
        }
    }

    #[test]
    fn hybrid_is_deterministic() {
        let sub = cluster_sub();
        let opts = VprOptions::default();
        let a = best_shape_hybrid(&sub, &opts, 4, None).expect("hybrid runs");
        let b = best_shape_hybrid(&sub, &opts, 4, None).expect("hybrid runs");
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn hybrid_with_surrogate_ranking_skips_proxies() {
        let sub = cluster_sub();
        let opts = VprOptions::default();
        // Rank by a fake surrogate preferring the last candidates; the
        // search must still run and count zero proxy evaluations.
        let fake: Vec<f64> = (0..20).map(|i| -(i as f64)).collect();
        let (shape, _, stats) =
            best_shape_hybrid(&sub, &opts, 2, Some(&fake)).expect("hybrid runs");
        assert!(ClusterShape::candidates().contains(&shape));
        assert_eq!(stats.proxy_evals, 0);
        assert_eq!(stats.exact_evals, 2);
        assert_eq!(stats.exact_evals_avoided, 18);
    }

    #[test]
    fn empty_subnetlist_is_a_typed_error() {
        let sub = cluster_sub();
        let err = evaluate_shape(
            &extract_subnetlist(&sub, &[]).expect("empty induction builds"),
            ClusterShape::UNIFORM,
            &VprOptions::default(),
        )
        .expect_err("no cells to place");
        assert!(matches!(err, FlowError::Validation(_)));
    }
}
