//! The clustered-placement flow (Algorithm 1 of the paper).
//!
//! The pipeline — PPA-aware clustering → (ML-accelerated) V-P&R cluster
//! shaping → cluster seed placement → flat seeded placement (OpenROAD-like
//! with IO-net weight ×4, or Innovus-like with region constraints) →
//! legalization → CTS → global routing → post-route STA and power — is
//! written once, in the private `Run::drive`. The public entry points are
//! openers that say where the cluster assignment comes from and what the
//! run executes under:
//!
//! - [`run_flow`] clusters, then seeds; [`run_flow_with_assignment`] takes
//!   the assignment from the caller;
//! - [`run_default_flow`], the flat baseline every table normalizes
//!   against, has no assignment: the same sequence with the three cluster
//!   stages skipped and the free problem placed from scratch, so the two
//!   flows differ in the seed and in nothing else;
//! - [`run_flow_resilient`] is [`run_flow`] under a caller-supplied
//!   [`RunControl`], with stage checkpoints and resume.
//!
//! Every stage of every entry point passes through the same protocol: a
//! counted interruption check at its boundary, the stage span and
//! [`StageTimings`] entry, a checkpoint write when one is configured, and
//! — for the two placement stages — a field-frame scope around the one
//! global-placement call.
//!
//! Every entry point is fallible: degenerate inputs are rejected up front
//! with a [`FlowError`] instead of panicking stages later, and recoveries
//! the flow performed on its own (divergence reverts, shape fallbacks,
//! dropped regions) are reported on [`FlowReport::diagnostics`].

use crate::checkpoint::{self, Checkpoint, PlacementState, ShapingState};
use crate::cluster::costs::build_edge_costs;
use crate::cluster::{ppa_aware_clustering, ClusteringOptions};
use crate::error::{
    FlowDiagnostics, FlowError, InterruptedFlow, RecoveryEvent, DEFAULT_DIAGNOSTICS_LIMIT,
};
use crate::qor;
use crate::stages;
use crate::vpr::ml::MlShapeSelector;
use crate::vpr::{
    best_shape_hybrid_with_control, extract_subnetlist, ShapeSearchStats, VprOptions,
};
use cp_netlist::clustered::ClusteredNetlist;
use cp_netlist::floorplan::Rect;
use cp_netlist::netlist::Netlist;
use cp_netlist::{CellId, ClusterShape, Constraints, Floorplan, ValidationError};
use cp_parallel::RegionError;
use cp_place::cts::{synthesize_clock_tree, CtsOptions};
use cp_place::detailed::{refine, DetailedOptions};
use cp_place::hpwl::raw_hpwl;
use cp_place::{
    legalize, BestSnapshot, GlobalPlacer, PlaceError, PlacementProblem, PlacementResult,
    PlacerOptions,
};
use cp_resilience::{sites, Interrupt, InterruptKind, RunControl};
use cp_route::{route_placed_netlist, RouterOptions};
use cp_timing::activity::propagate_activity;
use cp_timing::power::power_report;
use cp_timing::sta::Sta;
use cp_timing::wire::WireModel;
use cp_timing::TimingError;
use cp_trace::{ArgValue, TraceReport};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::borrow::Cow;
use std::path::PathBuf;
use std::time::Instant;

/// Which tool's seeded-placement recipe to follow (Algorithm 1, lines
/// 15–25).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// IO-net weights ×4, no region constraints (lines 22–25).
    OpenRoadLike,
    /// Region constraints around shaped clusters during incremental
    /// placement (lines 16–20).
    InnovusLike,
}

/// How cluster shapes are chosen (Table 6's ablation axis).
#[derive(Debug, Clone)]
pub enum ShapeMode {
    /// Every cluster at utilization 0.9, aspect ratio 1.0.
    Uniform,
    /// Random candidate per cluster (seeded).
    Random(u64),
    /// Exact V-P&R sweep (20 place-and-route runs per cluster).
    Vpr,
    /// GNN-predicted Total Cost (the ML-accelerated path).
    VprMl(Box<MlShapeSelector>),
    /// Surrogate-first search: a cheap ranking (the trained selector when
    /// present, otherwise a low-effort placement proxy) picks `top_k`
    /// candidates, and exact V-P&R runs only those via successive halving
    /// with warm-started solves. `top_k >= 20` degenerates to the exact
    /// sweep, selecting bit-identical shapes to [`ShapeMode::Vpr`].
    Hybrid {
        /// Trained surrogate for the ranking step; `None` falls back to
        /// the placement proxy.
        selector: Option<Box<MlShapeSelector>>,
        /// Candidates that survive into exact V-P&R.
        top_k: usize,
    },
}

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Seeded-placement recipe.
    pub tool: Tool,
    /// Clustering stage options.
    pub clustering: ClusteringOptions,
    /// Cluster shape selection.
    pub shape_mode: ShapeMode,
    /// Shape only clusters with more than this many instances (paper: 200).
    pub vpr_min_instances: usize,
    /// V-P&R settings (used by `ShapeMode::Vpr`).
    pub vpr: VprOptions,
    /// Global placer settings.
    pub placer: PlacerOptions,
    /// Global router settings.
    pub router: RouterOptions,
    /// CTS settings.
    pub cts: CtsOptions,
    /// Floorplan core utilization.
    pub utilization: f64,
    /// Floorplan aspect ratio.
    pub aspect_ratio: f64,
    /// IO-net weight factor in the OpenROAD-like mode (paper: 4).
    pub io_weight: f64,
    /// Preplaced macro blockages `(count, core-area fraction)` — the
    /// `.def` macro preplacements of the paper's larger testcases.
    pub macro_blockages: (usize, f64),
    /// Timing-driven placement: scale flat-placement net weights by the
    /// nets' timing criticality (`w = 1 + 2·t_e`). Applied to both the
    /// default and the clustered flow so comparisons stay fair; the
    /// weights steer global placement only — legalization and refinement
    /// run on the unweighted problem in both.
    pub timing_driven: bool,
    /// Congestion-driven refinement: after placement, inflate cells in
    /// overflowed GCells and re-place incrementally (RePlAce-style
    /// routability pass). Applied to both flows.
    pub congestion_driven: bool,
    /// Cap on stored [`FlowDiagnostics`] events per run; recoveries past
    /// it are counted (`diagnostics.dropped`, plus the
    /// `flow.diagnostics.dropped` metric) instead of stored.
    pub diagnostics_limit: usize,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            tool: Tool::OpenRoadLike,
            clustering: ClusteringOptions::default(),
            shape_mode: ShapeMode::Uniform,
            vpr_min_instances: 200,
            vpr: VprOptions::default(),
            placer: PlacerOptions::default(),
            router: RouterOptions::default(),
            cts: CtsOptions::default(),
            utilization: 0.6,
            aspect_ratio: 1.0,
            io_weight: 4.0,
            macro_blockages: (0, 0.0),
            timing_driven: false,
            congestion_driven: false,
            diagnostics_limit: DEFAULT_DIAGNOSTICS_LIMIT,
        }
    }
}

impl FlowOptions {
    /// Reduced-effort settings for tests and small designs.
    pub fn fast() -> Self {
        Self {
            clustering: ClusteringOptions {
                avg_cluster_size: 60,
                path_count: 2000,
                ..Default::default()
            },
            vpr_min_instances: 50,
            placer: PlacerOptions {
                max_iterations: 12,
                incremental_iterations: 5,
                cg_iterations: 30,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Sets the tool (builder style).
    pub fn tool(mut self, tool: Tool) -> Self {
        self.tool = tool;
        self
    }

    /// Sets the shape mode (builder style).
    pub fn shape_mode(mut self, mode: ShapeMode) -> Self {
        self.shape_mode = mode;
        self
    }

    /// Sets the placer's spreading backend (builder style). Every
    /// placement the flow runs — clustered, flat, and V-P&R candidate
    /// evaluations — uses the chosen backend; checkpointing and QoR
    /// gating work unchanged (the backend is part of the options
    /// fingerprint, so checkpoints never mix backends).
    pub fn backend(mut self, backend: cp_place::PlacerBackendKind) -> Self {
        self.placer.backend = backend;
        self
    }
}

/// Post-route PPA metrics (the columns of Tables 3–6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpaReport {
    /// Routed wirelength, µm.
    pub rwl: f64,
    /// Worst negative slack, ps (positive = met).
    pub wns: f64,
    /// Total negative slack, ps.
    pub tns: f64,
    /// Total power, W.
    pub power: f64,
    /// Clock skew from CTS, ps.
    pub skew: f64,
    /// Worst hold slack, ps (positive = met).
    pub hold_wns: f64,
}

/// Per-stage wall-clock diagnostics: which stages ran, how long each
/// took, and the thread budget they ran under — so parallel speedup is
/// observable from every report without re-instrumenting the flow.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageTimings {
    /// Thread budget in effect (`CP_THREADS` / `cp_parallel::with_threads`).
    pub threads: usize,
    /// `(stage name, seconds)` in execution order.
    pub stages: Vec<(&'static str, f64)>,
}

impl StageTimings {
    fn new() -> Self {
        Self {
            threads: cp_parallel::current_threads(),
            stages: Vec::new(),
        }
    }

    fn record(&mut self, name: &'static str, since: Instant) {
        self.stages.push((name, since.elapsed().as_secs_f64()));
    }

    /// Replaces the `Instant`-measured stage durations with the ones the
    /// stage spans measured (when tracing ran), and prepends the
    /// clustering stage when its runtime came from outside the traced
    /// region (e.g. a precomputed assignment). Span names equal stage
    /// labels (see [`stages`]), so the two sources always agree on keys.
    fn finalize(&mut self, trace: Option<&TraceReport>, clustering_runtime: f64) {
        if let Some(tr) = trace {
            self.stages = tr
                .stage_seconds()
                .into_iter()
                .filter(|(n, _)| stages::ALL.contains(n))
                .collect();
        }
        if clustering_runtime > 0.0 && self.get(stages::CLUSTERING).is_none() {
            self.stages
                .insert(0, (stages::CLUSTERING, clustering_runtime));
        }
    }

    /// Seconds spent in the named stage, if it ran.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, s)| s)
    }

    /// Total seconds across all recorded stages.
    pub fn total(&self) -> f64 {
        self.stages.iter().map(|&(_, s)| s).sum()
    }
}

/// Shaping-stage counters: how much exact V-P&R work the configured shape
/// mode performed versus avoided. All zeros for modes that never invoke
/// V-P&R (`Uniform`, `Random`) and for the flat flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapingStats {
    /// Clusters that went through shape selection.
    pub clusters_shaped: usize,
    /// Exact V-P&R evaluations run.
    pub exact_evals: usize,
    /// Candidates pruned before exact evaluation (Hybrid only).
    pub exact_evals_avoided: usize,
    /// Low-effort placement-proxy evaluations (untrained Hybrid ranking).
    pub proxy_evals: usize,
    /// Batched surrogate forward passes.
    pub surrogate_batches: usize,
    /// Samples scored across those batches (clusters × candidates).
    pub surrogate_samples: usize,
    /// Exact evaluations warm-started from a previous candidate's solution.
    pub warm_start_hits: usize,
}

impl ShapingStats {
    fn absorb(&mut self, s: &ShapeSearchStats) {
        self.exact_evals += s.exact_evals;
        self.exact_evals_avoided += s.exact_evals_avoided;
        self.proxy_evals += s.proxy_evals;
        self.warm_start_hits += s.warm_start_hits;
    }
}

/// The flow outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Post-placement (legalized) HPWL, µm.
    pub hpwl: f64,
    /// Clusters formed (0 for the flat flow).
    pub cluster_count: usize,
    /// Seconds in clustering (incl. STA/activity extraction).
    pub clustering_runtime: f64,
    /// Seconds in placement: the wall clock from the end of pre-flight
    /// validation to the end of legalize+refine, the same interval in
    /// every flow. It covers shaping, cluster placement, seeding, the
    /// placement-problem builds, timing weights, flat placement (with the
    /// congestion re-place) and legalize+refine — everything Table 2's
    /// "CPU" column counts except clustering, which is
    /// [`Self::clustering_runtime`].
    pub placement_runtime: f64,
    /// Post-route PPA.
    pub ppa: PpaReport,
    /// Recoveries the flow performed instead of failing (empty on a clean
    /// run).
    pub diagnostics: FlowDiagnostics,
    /// Per-stage wall-clock and thread budget.
    pub timings: StageTimings,
    /// Shaping-stage work counters.
    pub shaping: ShapingStats,
    /// The run's span/telemetry subtree, when tracing was enabled
    /// ([`cp_trace::set_level`]); `None` otherwise.
    pub trace: Option<TraceReport>,
}

impl FlowReport {
    /// Bitwise equality of everything a resumed or re-executed run must
    /// reproduce: HPWL and PPA bits, cluster count, shaping counters and
    /// the non-bookkeeping recovery events. Wall-clock fields (runtimes,
    /// stage timings) and the trace are excluded — they describe a
    /// particular execution, not its result — as are the
    /// checkpoint/resume bookkeeping events, which differ by construction
    /// between an original and a resumed run.
    pub fn deterministic_eq(&self, other: &Self) -> bool {
        let bits = |a: f64, b: f64| a.to_bits() == b.to_bits();
        fn events(d: &FlowDiagnostics) -> Vec<&RecoveryEvent> {
            d.events.iter().filter(|e| !e.is_bookkeeping()).collect()
        }
        bits(self.hpwl, other.hpwl)
            && self.cluster_count == other.cluster_count
            && bits(self.ppa.rwl, other.ppa.rwl)
            && bits(self.ppa.wns, other.ppa.wns)
            && bits(self.ppa.tns, other.ppa.tns)
            && bits(self.ppa.power, other.ppa.power)
            && bits(self.ppa.skew, other.ppa.skew)
            && bits(self.ppa.hold_wns, other.ppa.hold_wns)
            && self.shaping == other.shaping
            && events(&self.diagnostics) == events(&other.diagnostics)
            && self.diagnostics.dropped == other.diagnostics.dropped
    }
}

/// Pre-flight validation shared by every flow entry point: reject the
/// netlist, constraints and floorplan request before any stage runs.
fn validated_floorplan(
    netlist: &Netlist,
    constraints: &Constraints,
    options: &FlowOptions,
) -> Result<Floorplan, FlowError> {
    netlist.validate()?;
    constraints.validate()?;
    let fp = Floorplan::try_for_netlist(netlist, options.utilization, options.aspect_ratio)?
        .try_with_macro_blockages(options.macro_blockages.0, options.macro_blockages.1)?;
    fp.validate_capacity(netlist)?;
    Ok(fp)
}

/// Runs the default (flat, no clustering) flow — the baseline of every
/// table. It is [`run_flow`]'s stage sequence with the three cluster
/// stages skipped and the free problem placed from scratch, so a flat and
/// a clustered run differ in the seed and in nothing else.
///
/// # Errors
///
/// [`FlowError::Validation`] on degenerate inputs (empty netlist,
/// utilization outside `(0, 1]`, overfull core, …); a stage error when
/// placement, timing or routing fails downstream.
pub fn run_default_flow(
    netlist: &Netlist,
    constraints: &Constraints,
    options: &FlowOptions,
) -> Result<FlowReport, FlowError> {
    Run::passive(options).drive(netlist, constraints, Clusters::Flat)
}

/// Runs the full clustered flow (Algorithm 1).
///
/// # Errors
///
/// See [`run_default_flow`]; additionally [`FlowError::Timing`] when the
/// clustering stage's STA finds a combinational cycle.
pub fn run_flow(
    netlist: &Netlist,
    constraints: &Constraints,
    options: &FlowOptions,
) -> Result<FlowReport, FlowError> {
    Run::passive(options).drive(netlist, constraints, Clusters::PpaAware)
}

/// Runs the seeded-placement flow for an externally supplied cluster
/// assignment (used by the baselines of Tables 2 and 5).
///
/// # Errors
///
/// See [`run_default_flow`]; additionally
/// [`ValidationError::AssignmentLengthMismatch`] when `assignment` does
/// not cover every cell.
pub fn run_flow_with_assignment(
    netlist: &Netlist,
    constraints: &Constraints,
    assignment: &[u32],
    clustering_runtime: f64,
    options: &FlowOptions,
) -> Result<FlowReport, FlowError> {
    let clusters = Clusters::Given(assignment, clustering_runtime);
    Run::passive(options).drive(netlist, constraints, clusters)
}

/// Cancellation, deadline and memory-budget limits plus checkpoint wiring
/// for [`run_flow_resilient`]. The default is fully passive: an unlimited
/// control, no checkpointing, no resume.
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// Cooperative cancellation / deadline / memory-budget control,
    /// checked at stage boundaries, per placer iteration and per V-P&R
    /// candidate.
    pub control: RunControl,
    /// When set, a stage-granular checkpoint is (re)written here after
    /// each completed stage (atomically — see [`Checkpoint::save`]).
    pub checkpoint: Option<PathBuf>,
    /// When set, completed stages are restored from this checkpoint
    /// instead of recomputed; the resumed run's report is bitwise
    /// identical to an uninterrupted one
    /// ([`FlowReport::deterministic_eq`]).
    pub resume_from: Option<PathBuf>,
}

/// [`run_flow`] under a [`RunControl`], with optional checkpoint/resume.
///
/// An interruption surfaces as [`FlowError::Cancelled`],
/// [`FlowError::DeadlineExceeded`] or [`FlowError::BudgetExceeded`]
/// carrying the diagnostics collected so far, the placer's best-so-far
/// snapshot when one exists, and the path of the last written checkpoint
/// — so callers can resume instead of restarting.
///
/// # Errors
///
/// See [`run_flow`]; additionally the interrupt variants above and
/// [`FlowError::Checkpoint`] when `resume_from` names a checkpoint that
/// is unreadable, malformed, or fingerprinted for a different
/// netlist/configuration.
pub fn run_flow_resilient(
    netlist: &Netlist,
    constraints: &Constraints,
    options: &FlowOptions,
    resilience: &ResilienceOptions,
) -> Result<FlowReport, FlowError> {
    install_heap_probe();
    let fingerprint = checkpoint::fingerprint(netlist, options);
    ExecContext::resilient(resilience, fingerprint)
        .and_then(|exec| Run::new(options, exec).drive(netlist, constraints, Clusters::PpaAware))
}

/// Points the interruption machinery's heap gauge at the counting
/// allocator when it is compiled in; without `alloc-telemetry` this is a
/// no-op and memory budgets never trip.
fn install_heap_probe() {
    #[cfg(feature = "alloc-telemetry")]
    cp_resilience::install_heap_probe(|| crate::alloc::heap_stats().current_bytes);
}

/// Per-run execution context: the run's interruption control, the
/// checkpoint sink and the checkpoint being resumed from. The plain entry
/// points run with [`ExecContext::passive`], whose unlimited control makes
/// every check a cheap no-op.
struct ExecContext {
    control: RunControl,
    checkpoint_path: Option<PathBuf>,
    fingerprint: u64,
    resume: Option<Checkpoint>,
}

impl ExecContext {
    fn passive() -> Self {
        Self {
            control: RunControl::unlimited(),
            checkpoint_path: None,
            fingerprint: 0,
            resume: None,
        }
    }

    /// The context of a [`run_flow_resilient`] run: the caller's control
    /// and checkpoint path, plus the checkpoint named by `resume_from`,
    /// loaded and checked against this run's `fingerprint`.
    fn resilient(resilience: &ResilienceOptions, fingerprint: u64) -> Result<Self, FlowError> {
        let resume = match &resilience.resume_from {
            Some(path) => {
                let cp =
                    Checkpoint::load(path).map_err(|reason| FlowError::Checkpoint { reason })?;
                if cp.fingerprint != fingerprint {
                    return Err(FlowError::Checkpoint {
                        reason: format!(
                            "fingerprint mismatch: checkpoint {:016x} vs run {fingerprint:016x} \
                             (different netlist or options)",
                            cp.fingerprint
                        ),
                    });
                }
                Some(cp)
            }
            None => None,
        };
        Ok(Self {
            control: resilience.control.clone(),
            checkpoint_path: resilience.checkpoint.clone(),
            fingerprint,
            resume,
        })
    }
}

/// Extracts the interruption from a per-cluster shape-search failure, if
/// it was one; a genuine evaluation failure returns `None` and falls back
/// to the uniform shape like any other V-P&R failure.
fn shape_interrupt(error: &FlowError) -> Option<Interrupt> {
    match error {
        FlowError::Place(PlaceError::Interrupted { interrupt, .. }) => Some(interrupt.clone()),
        other => other.interrupted().map(|i| i.interrupt.clone()),
    }
}

/// Where a run's cluster assignment comes from — the one thing the entry
/// points disagree on.
enum Clusters<'a> {
    /// No clusters: the flat baseline skips the three cluster stages.
    Flat,
    /// PPA-aware clustering runs as the first stage (or its result is
    /// restored from the checkpoint being resumed).
    PpaAware,
    /// A caller-supplied assignment and the seconds it took to compute.
    Given(&'a [u32], f64),
}

/// One execution of the flow: the options and execution context it runs
/// under and everything it accumulates on the way to the [`FlowReport`].
/// [`Run::drive`] is the only place the stage sequence is written; `check`,
/// `timed`, `checkpoint` and `place` are the per-stage protocol every
/// stage of every entry point goes through.
struct Run<'a> {
    options: &'a FlowOptions,
    exec: ExecContext,
    diagnostics: FlowDiagnostics,
    timings: StageTimings,
    /// The progressive checkpoint draft, rewritten after each completed
    /// stage (only when a checkpoint path is configured). A resumed run
    /// continues from the loaded checkpoint so earlier stages' state stays
    /// in the file.
    draft: Option<Checkpoint>,
}

impl<'a> Run<'a> {
    fn new(options: &'a FlowOptions, exec: ExecContext) -> Self {
        Self {
            options,
            exec,
            diagnostics: FlowDiagnostics::with_limit(options.diagnostics_limit),
            timings: StageTimings::new(),
            draft: None,
        }
    }

    fn passive(options: &'a FlowOptions) -> Self {
        Self::new(options, ExecContext::passive())
    }

    /// Stage-boundary interruption check (counted); on interruption builds
    /// the typed flow error carrying everything collected so far.
    fn check(&mut self, site: &'static str, stage: &'static str) -> Result<(), FlowError> {
        self.exec
            .control
            .check(site)
            .map_err(|interrupt| self.interrupt_error(interrupt, stage, None))
    }

    /// Records the interruption's recovery event and wraps it, the
    /// diagnostics so far, the placer's best-so-far snapshot (when the
    /// placer was what got interrupted) and the checkpoint path into the
    /// typed flow error.
    fn interrupt_error(
        &mut self,
        interrupt: Interrupt,
        stage: &'static str,
        best: Option<BestSnapshot>,
    ) -> FlowError {
        match interrupt.kind {
            InterruptKind::Cancelled => self.diagnostics.record(RecoveryEvent::Cancelled {
                site: interrupt.site,
            }),
            InterruptKind::DeadlineExceeded => {
                self.diagnostics.record(RecoveryEvent::DeadlineExceeded {
                    site: interrupt.site,
                });
            }
            InterruptKind::BudgetExceeded => {}
        }
        FlowError::from_interrupted(InterruptedFlow {
            interrupt,
            stage,
            diagnostics: self.diagnostics.clone(),
            best,
            checkpoint: self.exec.checkpoint_path.clone(),
        })
    }

    /// Runs `work` as the named stage: under the stage span, its wall
    /// clock recorded on the timings and, under `alloc-telemetry`, its
    /// heap high-water mark on the span. A stage's preparation (seeds,
    /// regions, timing weights — which opens `sta.*` spans of its own)
    /// stays outside, so the trace tree has it beside the stage span, not
    /// under it.
    fn timed<T>(
        &mut self,
        stage: &'static str,
        work: impl FnOnce(&mut Self) -> Result<T, FlowError>,
    ) -> Result<T, FlowError> {
        let started = Instant::now();
        qor::start_stage_heap();
        let mut span = cp_trace::span(stage);
        let output = work(self)?;
        qor::record_stage_heap(&mut span);
        drop(span);
        self.timings.record(stage, started);
        Ok(output)
    }

    /// Marks `stage` complete on the checkpoint draft, lets `fill` store
    /// the stage's output in it and persists it. A no-op when
    /// checkpointing is off. A failed write is reported as telemetry but
    /// never fails the flow — the run's result outranks its checkpoint.
    fn checkpoint(&mut self, stage: &'static str, fill: impl FnOnce(&mut Checkpoint)) {
        let (Some(path), Some(cp)) = (self.exec.checkpoint_path.as_ref(), self.draft.as_mut())
        else {
            return;
        };
        cp.stage = stage;
        fill(cp);
        cp.events.clone_from(&self.diagnostics.events);
        cp.dropped = self.diagnostics.dropped;
        match cp.save(path) {
            Ok(()) => self
                .diagnostics
                .record(RecoveryEvent::CheckpointWritten { stage }),
            Err(_reason) => {
                cp_trace::instant(
                    "recovery.checkpoint_failed",
                    &[("stage", ArgValue::S(stage))],
                );
            }
        }
    }

    /// The flow's one global-placement call. Field frames are scoped to
    /// the placer call alone: shaping must not open a scope (the flow
    /// thread takes a share of the V-P&R fan-out and would record
    /// candidate frames) and neither does the congestion re-place. An
    /// interrupted placement becomes the flow-level interrupt, keeping the
    /// placer's best-so-far snapshot; a divergence revert is recorded.
    fn place(
        &mut self,
        stage: &'static str,
        problem: &PlacementProblem,
    ) -> Result<PlacementResult, FlowError> {
        let fields_scope = cp_trace::fields::scope(stage);
        let placed =
            GlobalPlacer::new(self.options.placer).place_with_control(problem, &self.exec.control);
        drop(fields_scope);
        let placed = match placed {
            Ok(placed) => placed,
            Err(PlaceError::Interrupted {
                interrupt, best, ..
            }) => return Err(self.interrupt_error(interrupt, stage, best)),
            Err(other) => return Err(FlowError::Place(other)),
        };
        if placed.diverged {
            self.diagnostics
                .record(RecoveryEvent::PlacerReverted { stage });
        }
        Ok(placed)
    }

    /// Algorithm 1, once, for every entry point. `clusters` says where the
    /// assignment comes from; everything else — which stages are restored
    /// from a checkpoint, whether anything can interrupt, where checkpoints
    /// go — is in the execution context.
    fn drive(
        mut self,
        netlist: &Netlist,
        constraints: &Constraints,
        clusters: Clusters<'_>,
    ) -> Result<FlowReport, FlowError> {
        let options = self.options;
        self.check(sites::FLOW_START, stages::CLUSTERING)?;
        let root = cp_trace::span(match clusters {
            Clusters::Flat => stages::FLOW_FLAT,
            _ => stages::FLOW_CLUSTERED,
        });
        let resume = self.exec.resume.take();

        // Lines 2-9: the cluster assignment.
        let clustering;
        let (assignment, clustering_runtime) = match clusters {
            Clusters::Flat => (None, 0.0),
            Clusters::Given(assignment, runtime) => (Some(assignment), runtime),
            Clusters::PpaAware => match &resume {
                Some(cp) => (Some(cp.assignment.as_slice()), cp.clustering_runtime),
                None => {
                    clustering = self.timed(stages::CLUSTERING, |run| {
                        ppa_aware_clustering(netlist, constraints, &run.options.clustering)
                    })?;
                    (Some(clustering.assignment.as_slice()), clustering.runtime)
                }
            },
        };
        if let Some(mismatched) = assignment.filter(|a| a.len() != netlist.cell_count()) {
            return Err(FlowError::Validation(
                ValidationError::AssignmentLengthMismatch {
                    assignment: mismatched.len(),
                    cells: netlist.cell_count(),
                },
            ));
        }
        let fp = validated_floorplan(netlist, constraints, options)?;
        if let Some(cp) = &resume {
            self.diagnostics.restore(cp.events.clone(), cp.dropped);
            self.diagnostics
                .record(RecoveryEvent::Resumed { stage: cp.stage });
        }
        if let (Some(_), Some(assignment)) = (&self.exec.checkpoint_path, assignment) {
            self.draft = Some(match &resume {
                Some(cp) => cp.clone(),
                None => Checkpoint::after_clustering(
                    self.exec.fingerprint,
                    assignment.to_vec(),
                    clustering_runtime,
                ),
            });
        }
        if resume.is_none() {
            self.checkpoint(stages::CLUSTERING, |_| {});
        }
        // `FlowReport::placement_runtime` runs from here to the end of
        // legalize+refine, in both flows.
        let placement_clock = Instant::now();

        // Lines 10-14, skipped by the flat baseline: clustered netlist,
        // cluster shapes, cluster seed placement.
        let (mut cluster_count, mut shaping) = (0, ShapingStats::default());
        let mut seed = None;
        if let Some(assignment) = assignment {
            self.check(sites::FLOW_SHAPING, stages::SHAPING)?;
            let mut clustered = ClusteredNetlist::from_assignment(netlist, assignment);
            let shapes = match resume.as_ref().and_then(|r| r.shaping.as_ref()) {
                Some(state) => state.clone(),
                None => {
                    let state = self.timed(stages::SHAPING, |run| {
                        run.select_shapes(netlist, &clustered)
                    })?;
                    self.checkpoint(stages::SHAPING, |cp| cp.shaping = Some(state.clone()));
                    state
                }
            };
            for &(c, shape) in &shapes.shapes {
                clustered.set_shape(c, shape);
            }
            (cluster_count, shaping) = (clustered.cluster_count(), shapes.stats);
            qor::record_shaping(cluster_count, &shaping);
            qor::record_heap();

            // Lines 15-25: seeded placement.
            if options.tool == Tool::OpenRoadLike {
                clustered.scale_io_net_weights(options.io_weight);
            }
            self.check(sites::FLOW_CLUSTER_PLACEMENT, stages::CLUSTER_PLACEMENT)?;
            let cluster_problem = PlacementProblem::from_clustered(&clustered, &fp);
            let centers = match resume.as_ref().and_then(|r| r.cluster_placement.as_ref()) {
                Some(state) => state.positions.clone(),
                None => {
                    let placed = self.timed(stages::CLUSTER_PLACEMENT, |run| {
                        run.place(stages::CLUSTER_PLACEMENT, &cluster_problem)
                    })?;
                    self.checkpoint(stages::CLUSTER_PLACEMENT, |cp| {
                        cp.cluster_placement = Some(PlacementState {
                            positions: placed.positions.clone(),
                            diverged: placed.diverged,
                        });
                    });
                    placed.positions
                }
            };
            qor::record_placement_hpwl(qor::CLUSTER_PLACEMENT_HPWL, &cluster_problem, &centers);
            seed = Some((clustered, centers, shapes.shaped));
        }

        self.check(sites::FLOW_FLAT_PLACEMENT, stages::FLAT_PLACEMENT)?;
        // Line 20: region constraints are removed before legalization/routing,
        // so downstream stages always work on the free problem — in the
        // flat flow too, where it is also the problem that gets placed
        // (borrowed: a copy is made only to attach timing weights). The
        // seeded problem and every copy are clones of it and share its
        // hypergraph.
        let free_problem = PlacementProblem::from_netlist(netlist, &fp);
        let mut positions = match resume.as_ref().and_then(|r| r.flat_placement.as_ref()) {
            Some(state) => state.positions.clone(),
            None => {
                // The clustered netlist is dropped here, before the placer
                // allocates.
                let mut problem = match seed {
                    Some((clustered, centers, shaped)) => Cow::Owned(self.seeded_problem(
                        &free_problem,
                        &fp,
                        &clustered,
                        &centers,
                        &shaped,
                    )),
                    None => Cow::Borrowed(&free_problem),
                };
                if options.timing_driven {
                    problem.to_mut().net_weights = timing_net_weights(netlist, constraints)?;
                }
                let (positions, diverged) = self.timed(stages::FLAT_PLACEMENT, |run| {
                    let placed = run.place(stages::FLAT_PLACEMENT, &problem)?;
                    let mut positions = placed.positions;
                    if options.congestion_driven {
                        positions = congestion_driven_refine(
                            netlist,
                            &fp,
                            &free_problem,
                            positions,
                            options,
                            &mut run.diagnostics,
                        )?;
                    }
                    Ok((positions, placed.diverged))
                })?;
                self.checkpoint(stages::FLAT_PLACEMENT, |cp| {
                    cp.flat_placement = Some(PlacementState {
                        positions: positions.clone(),
                        diverged,
                    });
                });
                positions
            }
        };
        qor::record_placement_hpwl(qor::FLAT_PLACEMENT_HPWL, &free_problem, &positions);
        qor::record_heap();

        self.check(sites::FLOW_LEGALIZE, stages::LEGALIZE_REFINE)?;
        self.timed(stages::LEGALIZE_REFINE, |_| {
            legalize(&free_problem, &fp, &mut positions)?;
            refine(
                &free_problem,
                &fp,
                &mut positions,
                &DetailedOptions::default(),
            );
            Ok(())
        })?;
        let placement_runtime = placement_clock.elapsed().as_secs_f64();
        let hpwl = raw_hpwl(&free_problem, &positions);
        cp_trace::gauge_set(qor::LEGALIZED_HPWL, hpwl);
        qor::record_heap();

        self.check(sites::FLOW_PPA, stages::PPA)?;
        let ppa = self.timed(stages::PPA, |_| {
            evaluate_ppa(netlist, constraints, &positions, &fp, options)
        })?;
        let trace = cp_trace::take_report(root);
        self.timings.finalize(trace.as_ref(), clustering_runtime);
        Ok(FlowReport {
            hpwl,
            cluster_count,
            clustering_runtime,
            placement_runtime,
            ppa,
            diagnostics: self.diagnostics,
            timings: self.timings,
            shaping,
            trace,
        })
    }

    /// Lines 12-13: picks a shape for every shapeable cluster (for none in
    /// `Uniform` mode).
    fn select_shapes(
        &mut self,
        netlist: &Netlist,
        clustered: &ClusteredNetlist,
    ) -> Result<ShapingState, FlowError> {
        let shapeable = clustered.shapeable_clusters(self.options.vpr_min_instances);
        let mut stats = ShapingStats::default();
        let shapes: Vec<(u32, ClusterShape)> = match &self.options.shape_mode {
            ShapeMode::Uniform => Vec::new(),
            ShapeMode::Random(seed) => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let cands = ClusterShape::candidates();
                let mut pick = |&c| (c, cands[rng.random_range(0..cands.len())]);
                shapeable.iter().map(&mut pick).collect()
            }
            mode => {
                let subs: Vec<Option<Netlist>> = shapeable
                    .iter()
                    .map(|&c| extract_subnetlist(netlist, clustered.cells(c)).ok())
                    .collect();
                // Clusters whose extraction failed fall back to the uniform
                // shape below; the evaluators only see the ones that induced.
                let present: Vec<&Netlist> = subs.iter().flatten().collect();
                let present_ids: Vec<u32> = shapeable
                    .iter()
                    .zip(&subs)
                    .filter(|(_, sub)| sub.is_some())
                    .map(|(&c, _)| c)
                    .collect();
                let mut picked = self
                    .search_shapes(mode, &present, &present_ids, &mut stats)?
                    .into_iter();
                let mut shapes = Vec::with_capacity(shapeable.len());
                for (&c, sub) in shapeable.iter().zip(&subs) {
                    let pick = match sub {
                        Some(_) => picked.next().flatten(),
                        None => None,
                    };
                    if pick.is_none() {
                        self.diagnostics
                            .record(RecoveryEvent::ShapeFallback { cluster: c });
                    }
                    shapes.push((c, pick.unwrap_or(clustered.shape(c))));
                }
                shapes
            }
        };
        stats.clusters_shaped = shapes.len();
        Ok(ShapingState {
            shaped: shapes.iter().map(|&(c, _)| c).collect(),
            shapes,
            stats,
        })
    }

    /// The V-P&R modes' shape search: one pick per sub-netlist in
    /// `present` (`None` when the search failed and the cluster keeps the
    /// uniform shape). Clusters are independent V-P&R problems, so the
    /// exact and hybrid modes fan the per-cluster work out in parallel and
    /// collect the picks sequentially in cluster order — diagnostics and
    /// shape assignment match the serial loop exactly.
    fn search_shapes(
        &mut self,
        mode: &ShapeMode,
        present: &[&Netlist],
        present_ids: &[u32],
        stats: &mut ShapingStats,
    ) -> Result<Vec<Option<ClusterShape>>, FlowError> {
        let candidate_count = ClusterShape::candidates().len();
        let mut count_batch = || {
            if !present.is_empty() {
                stats.surrogate_batches += 1;
                stats.surrogate_samples += present.len() * candidate_count;
            }
        };
        if let ShapeMode::VprMl(selector) = mode {
            count_batch();
            let picks = selector.select_shapes_batched(present);
            if cp_trace::enabled() {
                // The batch scores all clusters in one forward pass,
                // so per-cluster attribution is an instant, not a span.
                for &c in present_ids {
                    cp_trace::instant(
                        stages::SPAN_VPR_CLUSTER,
                        &[
                            ("cluster", ArgValue::U(c as u64)),
                            ("ranker", ArgValue::S("surrogate")),
                        ],
                    );
                }
            }
            return Ok(picks.into_iter().map(Some).collect());
        }
        // The exact sweep is the hybrid search keeping every candidate:
        // from `top_k = 20` up `best_shape_hybrid_with_control` runs the
        // plain 20-candidate sweep and ranks nothing.
        let (selector, top_k, unranked) = match mode {
            ShapeMode::Hybrid { selector, top_k } => (selector.as_deref(), *top_k, "proxy"),
            _ => (None, candidate_count, "exact"),
        };
        let surrogate: Option<Vec<Vec<f64>>> = selector.map(|sel| {
            count_batch();
            sel.predicted_candidate_costs(present)
        });
        let ranker = match surrogate {
            Some(_) => "surrogate",
            None => unranked,
        };
        let (vpr, control) = (&self.options.vpr, &self.exec.control);
        let idx: Vec<usize> = (0..present.len()).collect();
        let results = cp_parallel::try_par_map(&idx, 1, control, |&i| {
            let _span = cp_trace::span_with(
                stages::SPAN_VPR_CLUSTER,
                &[
                    ("cluster", ArgValue::U(present_ids[i] as u64)),
                    ("ranker", ArgValue::S(ranker)),
                ],
            );
            let costs = surrogate.as_ref().map(|m| m[i].as_slice());
            best_shape_hybrid_with_control(present[i], vpr, top_k, costs, Some(control))
        });
        // A contained worker panic becomes `FlowError::WorkerPanic`, an
        // interruption of the region the flow-level interrupt.
        let results = results.map_err(|e| match e {
            RegionError::Panicked { message } => FlowError::WorkerPanic {
                stage: stages::SHAPING,
                message,
            },
            RegionError::Interrupted(interrupt) => {
                self.interrupt_error(interrupt, stages::SHAPING, None)
            }
        })?;
        let mut picked = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok((shape, _, search)) => {
                    stats.absorb(&search);
                    picked.push(Some(shape));
                }
                Err(e) => match shape_interrupt(&e) {
                    Some(interrupt) => {
                        return Err(self.interrupt_error(interrupt, stages::SHAPING, None))
                    }
                    None => picked.push(None),
                },
            }
        }
        Ok(picked)
    }

    /// Lines 15-18: the free flat problem seeded from the placed clusters —
    /// instances at their cluster centers, with a deterministic in-cluster
    /// jitter so the B2B linearization is non-degenerate, and in the
    /// Innovus-like recipe a region constraint around every shaped
    /// cluster.
    fn seeded_problem(
        &mut self,
        free: &PlacementProblem,
        fp: &Floorplan,
        clustered: &ClusteredNetlist,
        centers: &[(f64, f64)],
        shaped: &[u32],
    ) -> PlacementProblem {
        let mut seeds = vec![(0.0, 0.0); free.movable_count()];
        for (i, &c) in clustered.cluster_of_cell().iter().enumerate() {
            let center = centers[c as usize];
            let (w, h) = clustered.dims(c);
            let golden = (i as f64 * 0.618_033_988_749_895).fract() - 0.5;
            let golden2 = (i as f64 * 0.381_966_011_250_105).fract() - 0.5;
            seeds[i] = fp.core.clamp(center.0 + golden * w, center.1 + golden2 * h);
        }
        let mut problem = free.clone().with_seeds(seeds);
        if self.options.tool == Tool::InnovusLike {
            // Line 18: region constraints for shaped clusters.
            for &c in shaped {
                let (w, h) = clustered.dims(c);
                let (cx, cy) = centers[c as usize];
                // Regions get 25% slack over the macro footprint so
                // clusters whose seed placements overlap slightly
                // still have room.
                let (hw, hh) = (w * 0.625, h * 0.625);
                let region = Rect {
                    llx: (cx - hw).max(fp.core.llx),
                    lly: (cy - hh).max(fp.core.lly),
                    urx: (cx + hw).min(fp.core.urx),
                    ury: (cy + hh).min(fp.core.ury),
                };
                // A region clamped down to less than its cluster's
                // cell area (or collapsed entirely) would wedge the
                // spreader against an unsatisfiable constraint — drop
                // it instead and let those cells place freely.
                let member_area: f64 = clustered
                    .cells(c)
                    .iter()
                    .map(|&cell| problem.movable[cell.index()].area())
                    .sum();
                let feasible = region.width() > 0.0
                    && region.height() > 0.0
                    && region.width() * region.height() >= member_area;
                if !feasible {
                    self.diagnostics
                        .record(RecoveryEvent::RegionDropped { cluster: c });
                    continue;
                }
                for &cell in clustered.cells(c) {
                    problem.set_region(cell.index(), region);
                }
            }
        }
        problem
    }
}

/// Timing-criticality net weights for the flat hypergraph
/// (`w_e = 1 + 2·t_e`, `t_e` from the top critical paths).
///
/// # Errors
///
/// [`TimingError::CombinationalCycle`] when the netlist cannot be
/// levelized for STA.
pub fn timing_net_weights(
    netlist: &Netlist,
    constraints: &Constraints,
) -> Result<Vec<f64>, TimingError> {
    let (hg, map) = netlist.to_hypergraph_with_map();
    let sta = Sta::new(netlist, constraints)?;
    let report = sta.run(&cp_timing::wire::WireModel::Estimate);
    let paths = sta.extract_paths(&report, 20_000);
    let act = propagate_activity(netlist, constraints);
    let costs = build_edge_costs(
        netlist,
        &map,
        hg.edge_count(),
        &paths,
        constraints.clock_period,
        &act,
        2.0,
    );
    Ok(costs.timing.iter().map(|&t| 1.0 + 2.0 * t).collect())
}

/// One congestion-driven refinement pass (RePlAce-style routability
/// iteration): route the current placement, inflate the footprint of
/// cells sitting in overflowed GCells (up to 2×), and re-place
/// incrementally from the current positions so spreading relieves the
/// hotspots. A divergence revert during the incremental re-place is
/// recorded on `diagnostics`.
///
/// # Errors
///
/// [`FlowError::Route`] when the trial route rejects the positions;
/// [`FlowError::Place`] when the incremental re-place fails.
pub fn congestion_driven_refine(
    netlist: &Netlist,
    fp: &Floorplan,
    problem: &PlacementProblem,
    positions: Vec<(f64, f64)>,
    options: &FlowOptions,
    diagnostics: &mut FlowDiagnostics,
) -> Result<Vec<(f64, f64)>, FlowError> {
    let mut all = positions.clone();
    all.extend_from_slice(&fp.port_positions);
    let routed = route_placed_netlist(netlist, &all, fp, &options.router)?;
    let cong = routed.congestion.gcell_congestion();
    let (nx, gsize) = (routed.congestion.nx(), routed.congestion.gcell_size());
    if routed.congestion.max_utilization() <= 1.0 {
        return Ok(positions); // nothing overflows
    }
    let mut inflated = problem.clone();
    let mut touched = 0usize;
    for (i, &(x, y)) in positions.iter().enumerate() {
        let gi = (((x - fp.die.llx) / gsize) as usize).min(nx - 1);
        let gj = (((y - fp.die.lly) / gsize) as usize).min(cong.len() / nx - 1);
        let c = cong[gj * nx + gi];
        if c > 1.0 {
            let f = c.min(2.0);
            inflated.movable[i].width = problem.movable[i].width * f;
        }
    }
    for (a, b) in inflated.movable.iter().zip(problem.movable.iter()) {
        if a.width != b.width {
            touched += 1;
        }
    }
    if touched == 0 {
        return Ok(positions);
    }
    let replaced = GlobalPlacer::new(PlacerOptions {
        incremental_iterations: 4,
        ..options.placer
    })
    .place(&inflated.with_seeds(positions))?;
    if replaced.diverged {
        diagnostics.record(RecoveryEvent::PlacerReverted {
            stage: stages::CONGESTION_REFINEMENT,
        });
    }
    Ok(replaced.positions)
}

/// Post-placement evaluation (Algorithm 1, lines 27-30): CTS, global
/// routing, post-route STA and power.
///
/// # Errors
///
/// [`FlowError::Place`] when CTS cannot run (no clock buffer master, bad
/// positions), [`FlowError::Route`] on non-finite pin positions,
/// [`FlowError::Timing`] on a combinational cycle.
pub fn evaluate_ppa(
    netlist: &Netlist,
    constraints: &Constraints,
    cell_positions: &[(f64, f64)],
    floorplan: &Floorplan,
    options: &FlowOptions,
) -> Result<PpaReport, FlowError> {
    let mut positions = cell_positions.to_vec();
    positions.extend_from_slice(&floorplan.port_positions);
    let tree = synthesize_clock_tree(netlist, &positions, &options.cts)?;
    let routed = route_placed_netlist(netlist, &positions, floorplan, &options.router)?;
    let detour = routed.detour_factor();
    let wire = WireModel::Routed(&positions, detour);
    let sta = Sta::new(netlist, constraints)?;
    let timing = sta.run_with_clock(&wire, Some(&tree.arrival));
    let activity = propagate_activity(netlist, constraints);
    let power = power_report(netlist, constraints, &activity, &wire);
    cp_trace::gauge_set(
        qor::ROUTE_MAX_UTILIZATION,
        routed.congestion.max_utilization(),
    );
    cp_trace::gauge_set(
        qor::ROUTE_OVERFLOW_EDGES,
        routed.congestion.overflow_edges() as f64,
    );
    // Field frame: the router's per-GCell congestion map (Eq. 5). The
    // scope opens here rather than in the callers because evaluate_ppa
    // *is* the PPA stage wherever it runs; one relaxed load when off.
    if cp_trace::fields::enabled() {
        let _fields_scope = cp_trace::fields::scope(stages::PPA);
        let c = &routed.congestion;
        cp_trace::fields::record_with("route.congestion", 0, c.nx(), c.ny(), || {
            c.gcell_congestion().iter().map(|&v| v as f32).collect()
        });
    }
    let report = PpaReport {
        rwl: routed.wirelength + tree.wirelength,
        wns: timing.wns,
        tns: timing.tns,
        power: power.total(),
        skew: tree.skew,
        hold_wns: timing.hold_wns,
    };
    qor::record_ppa(&report);
    qor::record_heap();
    Ok(report)
}

/// Looks up the member cells of every cluster (inverse of the assignment).
pub fn cluster_members(assignment: &[u32], cluster_count: usize) -> Vec<Vec<CellId>> {
    let mut out = vec![Vec::new(); cluster_count];
    for (i, &c) in assignment.iter().enumerate() {
        out[c as usize].push(CellId(i as u32));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn setup(scale: f64) -> (Netlist, Constraints) {
        GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(scale)
            .seed(21)
            .generate_with_constraints()
    }

    #[test]
    fn default_flow_produces_ppa() {
        let (n, c) = setup(0.01);
        let r = run_default_flow(&n, &c, &FlowOptions::fast()).expect("flow runs");
        assert!(r.hpwl > 0.0);
        assert!(r.ppa.rwl > 0.0);
        assert!(r.ppa.power > 0.0);
        assert!(r.ppa.tns <= 0.0);
        assert_eq!(r.cluster_count, 0);
        assert!(r.diagnostics.is_clean());
    }

    #[test]
    fn clustered_flow_openroad_mode() {
        let (n, c) = setup(0.01);
        let r = run_flow(&n, &c, &FlowOptions::fast().tool(Tool::OpenRoadLike)).expect("flow runs");
        assert!(r.cluster_count > 1);
        assert!(r.hpwl > 0.0);
        assert!(r.ppa.rwl > 0.0);
        assert!(r.clustering_runtime > 0.0);
    }

    #[test]
    fn clustered_flow_innovus_mode_with_vpr_shapes() {
        let (n, c) = setup(0.01);
        let opts = FlowOptions::fast()
            .tool(Tool::InnovusLike)
            .shape_mode(ShapeMode::Vpr);
        let r = run_flow(&n, &c, &opts).expect("flow runs");
        assert!(r.cluster_count > 1);
        assert!(r.ppa.rwl > 0.0);
    }

    #[test]
    fn seeded_hpwl_is_comparable_to_flat() {
        let (n, c) = setup(0.02);
        let flat = run_default_flow(&n, &c, &FlowOptions::fast()).expect("flow runs");
        let ours = run_flow(&n, &c, &FlowOptions::fast()).expect("flow runs");
        let ratio = ours.hpwl / flat.hpwl;
        assert!(
            (0.7..=1.4).contains(&ratio),
            "clustered HPWL ratio {ratio} out of band (flat {}, ours {})",
            flat.hpwl,
            ours.hpwl
        );
    }

    #[test]
    fn random_shapes_differ_from_uniform() {
        let (n, c) = setup(0.01);
        let uni = run_flow(&n, &c, &FlowOptions::fast()).expect("flow runs");
        let rnd = run_flow(
            &n,
            &c,
            &FlowOptions::fast().shape_mode(ShapeMode::Random(3)),
        )
        .expect("flow runs");
        assert_ne!(uni.hpwl, rnd.hpwl);
    }

    #[test]
    fn flow_is_deterministic() {
        let (n, c) = setup(0.01);
        let a = run_flow(&n, &c, &FlowOptions::fast()).expect("flow runs");
        let b = run_flow(&n, &c, &FlowOptions::fast()).expect("flow runs");
        assert_eq!(a.hpwl, b.hpwl);
        assert_eq!(a.ppa, b.ppa);
    }

    #[test]
    fn injected_divergence_recovers_with_diagnostics() {
        let (n, c) = setup(0.01);
        let mut opts = FlowOptions::fast();
        opts.placer.fault_nan_at_iteration = Some(3);
        let r = run_default_flow(&n, &c, &opts).expect("flow recovers from divergence");
        assert!(r.hpwl > 0.0 && r.hpwl.is_finite());
        assert!(r.ppa.rwl.is_finite());
        assert!(
            r.diagnostics
                .events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::PlacerReverted { .. })),
            "revert must be reported: {:?}",
            r.diagnostics
        );
    }

    #[test]
    fn divergence_without_revert_is_a_typed_error() {
        let (n, c) = setup(0.01);
        let mut opts = FlowOptions::fast();
        opts.placer.fault_nan_at_iteration = Some(3);
        opts.placer.revert_if_diverge = false;
        let err = run_default_flow(&n, &c, &opts).expect_err("must fail fast");
        // Injected NaN trips the solver finiteness guard (`NonFinite`); a
        // slow HPWL blow-up would surface as `Diverged`. Either way the
        // failure is typed, not a panic.
        assert!(matches!(
            err,
            FlowError::Place(
                cp_place::PlaceError::NonFinite { .. } | cp_place::PlaceError::Diverged { .. }
            )
        ));
    }

    #[test]
    fn bad_utilization_is_rejected_up_front() {
        let (n, c) = setup(0.01);
        let opts = FlowOptions {
            utilization: 1.5,
            ..FlowOptions::fast()
        };
        let err = run_default_flow(&n, &c, &opts).expect_err("must reject");
        assert!(matches!(
            err,
            FlowError::Validation(ValidationError::UtilizationOutOfRange { .. })
        ));
    }

    #[test]
    fn short_assignment_is_rejected() {
        let (n, c) = setup(0.01);
        let err = run_flow_with_assignment(&n, &c, &[0, 1, 0], 0.0, &FlowOptions::fast())
            .expect_err("must reject");
        assert!(matches!(
            err,
            FlowError::Validation(ValidationError::AssignmentLengthMismatch { assignment: 3, .. })
        ));
    }
}

#[cfg(test)]
mod helper_tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn cluster_members_inverts_assignment() {
        let assignment = vec![1, 0, 1, 2, 0];
        let members = cluster_members(&assignment, 3);
        assert_eq!(members[0], vec![CellId(1), CellId(4)]);
        assert_eq!(members[1], vec![CellId(0), CellId(2)]);
        assert_eq!(members[2], vec![CellId(3)]);
    }

    #[test]
    fn timing_driven_weights_change_the_placement() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(34)
            .generate_with_constraints();
        let base = FlowOptions::fast();
        let mut td = FlowOptions::fast();
        td.timing_driven = true;
        let plain = run_default_flow(&n, &c, &base).expect("flow runs");
        let driven = run_default_flow(&n, &c, &td).expect("flow runs");
        assert_ne!(plain.hpwl, driven.hpwl);
        // Weights are ≥ 1 and bounded by 1 + 2·max(t_e) = 3.
        let w = timing_net_weights(&n, &c).expect("acyclic netlist");
        assert!(w.iter().all(|&x| (1.0..=3.0 + 1e-9).contains(&x)));
        assert!(w.iter().any(|&x| x > 1.0));
    }

    /// Everything downstream of global placement runs on the free problem
    /// in the flat flow too (as it always did in the clustered one): the
    /// timing weights steer the placer, not the legalizer or the detailed
    /// refinement, so both flows get the same tail.
    #[test]
    fn timing_driven_flat_flow_legalizes_on_the_free_problem() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(34)
            .generate_with_constraints();
        let mut td = FlowOptions::fast();
        td.timing_driven = true;
        let report = run_default_flow(&n, &c, &td).expect("flow runs");
        let fp = Floorplan::for_netlist(&n, td.utilization, td.aspect_ratio);
        let free = PlacementProblem::from_netlist(&n, &fp);
        let mut weighted = free.clone();
        weighted.net_weights = timing_net_weights(&n, &c).expect("acyclic netlist");
        let placed = GlobalPlacer::new(td.placer).place(&weighted);
        let mut positions = placed.expect("well-formed problem places").positions;
        legalize(&free, &fp, &mut positions).expect("legalizes");
        refine(&free, &fp, &mut positions, &DetailedOptions::default());
        assert_eq!(
            report.hpwl.to_bits(),
            raw_hpwl(&free, &positions).to_bits(),
            "flow {} vs composed {}",
            report.hpwl,
            raw_hpwl(&free, &positions)
        );
    }

    #[test]
    fn blockages_flow_end_to_end() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .seed(33)
            .generate_with_constraints();
        let mut opts = FlowOptions::fast();
        opts.macro_blockages = (2, 0.2);
        let flat = run_default_flow(&n, &c, &opts).expect("flow runs");
        let ours = run_flow(&n, &c, &opts).expect("flow runs");
        assert!(flat.ppa.rwl > 0.0);
        assert!(ours.ppa.rwl > 0.0);
        assert!(ours.cluster_count > 1);
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn setup(scale: f64) -> (Netlist, Constraints) {
        GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(scale)
            .seed(21)
            .generate_with_constraints()
    }

    fn ckpt_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cp-flow-resilience-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn resilient_flow_without_limits_matches_plain_run() {
        let (n, c) = setup(0.01);
        let plain = run_flow(&n, &c, &FlowOptions::fast()).expect("flow runs");
        let res = run_flow_resilient(&n, &c, &FlowOptions::fast(), &ResilienceOptions::default())
            .expect("flow runs");
        assert!(
            plain.deterministic_eq(&res),
            "passive control must be a no-op"
        );
    }

    #[test]
    fn cancellation_surfaces_as_typed_error_with_diagnostics() {
        let (n, c) = setup(0.01);
        let resilience = ResilienceOptions {
            control: RunControl::unlimited().cancel_after_checks(3),
            ..Default::default()
        };
        let err =
            run_flow_resilient(&n, &c, &FlowOptions::fast(), &resilience).expect_err("must cancel");
        assert!(matches!(err, FlowError::Cancelled(_)), "got {err:?}");
        let flow = err.interrupted().expect("interrupt carries state");
        assert_eq!(flow.interrupt.kind, InterruptKind::Cancelled);
        assert!(flow
            .diagnostics
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Cancelled { .. })));
    }

    #[test]
    fn expired_deadline_interrupts_before_any_stage() {
        let (n, c) = setup(0.01);
        let resilience = ResilienceOptions {
            control: RunControl::unlimited().with_deadline(std::time::Duration::ZERO),
            ..Default::default()
        };
        let err = run_flow_resilient(&n, &c, &FlowOptions::fast(), &resilience)
            .expect_err("must time out");
        assert!(matches!(err, FlowError::DeadlineExceeded(_)), "got {err:?}");
        let flow = err.interrupted().expect("interrupt carries state");
        assert_eq!(flow.stage, stages::CLUSTERING, "nothing ran yet");
    }

    #[test]
    fn checkpoint_resume_is_bitwise_identical() {
        let (n, c) = setup(0.01);
        let opts = FlowOptions::fast();
        let path = ckpt_path("full-run.json");
        let full = run_flow_resilient(
            &n,
            &c,
            &opts,
            &ResilienceOptions {
                checkpoint: Some(path.clone()),
                ..Default::default()
            },
        )
        .expect("flow runs");
        assert!(full
            .diagnostics
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::CheckpointWritten { .. })));
        // The file holds the flat-placement checkpoint; resuming replays
        // only legalization onward and must reproduce the report bitwise.
        let resumed = run_flow_resilient(
            &n,
            &c,
            &opts,
            &ResilienceOptions {
                resume_from: Some(path.clone()),
                ..Default::default()
            },
        )
        .expect("flow resumes");
        assert!(
            full.deterministic_eq(&resumed),
            "resume must be bitwise: {} vs {}",
            full.hpwl,
            resumed.hpwl
        );
        assert!(resumed
            .diagnostics
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Resumed { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancelled_run_leaves_resumable_checkpoint() {
        let (n, c) = setup(0.01);
        let opts = FlowOptions::fast();
        let path = ckpt_path("cancelled-run.json");
        let err = run_flow_resilient(
            &n,
            &c,
            &opts,
            &ResilienceOptions {
                control: RunControl::unlimited().cancel_after_checks(3),
                checkpoint: Some(path.clone()),
                ..Default::default()
            },
        )
        .expect_err("must cancel");
        let flow = err.interrupted().expect("interrupt carries state");
        assert_eq!(flow.checkpoint.as_deref(), Some(path.as_path()));
        let cp = Checkpoint::load(&path).expect("checkpoint is readable");
        assert_eq!(
            cp.stage,
            stages::SHAPING,
            "shaping completed before the cut"
        );
        // Resuming the interrupted run completes it and matches a clean
        // uninterrupted run bit for bit — no partially-mutated state leaks.
        let resumed = run_flow_resilient(
            &n,
            &c,
            &opts,
            &ResilienceOptions {
                resume_from: Some(path.clone()),
                ..Default::default()
            },
        )
        .expect("flow resumes");
        let clean = run_flow(&n, &c, &opts).expect("flow runs");
        assert!(clean.deterministic_eq(&resumed));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_with_wrong_fingerprint_is_rejected() {
        let (n, c) = setup(0.01);
        let opts = FlowOptions::fast();
        let path = ckpt_path("fingerprint.json");
        run_flow_resilient(
            &n,
            &c,
            &opts,
            &ResilienceOptions {
                checkpoint: Some(path.clone()),
                ..Default::default()
            },
        )
        .expect("flow runs");
        let mut other = FlowOptions::fast();
        other.placer.seed += 1;
        let err = run_flow_resilient(
            &n,
            &c,
            &other,
            &ResilienceOptions {
                resume_from: Some(path.clone()),
                ..Default::default()
            },
        )
        .expect_err("must reject");
        assert!(matches!(err, FlowError::Checkpoint { .. }), "got {err:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn vpr_shaping_cancellation_interrupts_the_sweep() {
        let (n, c) = setup(0.01);
        let opts = FlowOptions::fast().shape_mode(ShapeMode::Vpr);
        // Checks 1-2 pass the flow-start and shaping boundaries; the
        // shaping fan-out then trips on an uncounted poll or a later
        // counted check, depending on scheduling — either way the run
        // must end in the typed cancellation, never a partial report.
        let resilience = ResilienceOptions {
            control: RunControl::unlimited().cancel_after_checks(3),
            ..Default::default()
        };
        let err = run_flow_resilient(&n, &c, &opts, &resilience).expect_err("must cancel");
        assert!(matches!(err, FlowError::Cancelled(_)), "got {err:?}");
    }
}

#[cfg(test)]
mod congestion_tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn congestion_driven_flow_runs_and_stays_sane() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Jpeg)
            .scale(0.005)
            .seed(55)
            .generate_with_constraints();
        let mut opts = FlowOptions::fast();
        opts.congestion_driven = true;
        let r = run_default_flow(&n, &c, &opts).expect("flow runs");
        assert!(r.hpwl > 0.0);
        assert!(r.ppa.rwl > 0.0);
    }

    #[test]
    fn refinement_is_identity_without_overflow() {
        // A tiny design at generous utilization never overflows.
        let (n, _) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.003)
            .seed(56)
            .generate_with_constraints();
        let opts = FlowOptions {
            utilization: 0.3,
            ..FlowOptions::fast()
        };
        let fp = Floorplan::for_netlist(&n, opts.utilization, opts.aspect_ratio);
        let problem = PlacementProblem::from_netlist(&n, &fp);
        let placed = GlobalPlacer::new(opts.placer)
            .place(&problem)
            .expect("well-formed problem places");
        let before = placed.positions.clone();
        let mut diag = FlowDiagnostics::default();
        let after = congestion_driven_refine(&n, &fp, &problem, placed.positions, &opts, &mut diag)
            .expect("refinement runs");
        assert_eq!(before, after, "no overflow ⇒ no movement");
        assert!(diag.is_clean());
    }
}
