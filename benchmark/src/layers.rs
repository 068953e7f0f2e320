//! Every call into the repository's crates. This is the only file of the
//! benchmark that names a `cp_*` item; [`PINNED_API`] lists the functions it
//! depends on, so a later change to one of those signatures knows to keep a
//! wrapper or to precede itself with a benchmark change.

use crate::metrics::{Values, PER_LAYER};
use crate::spans::{self, Recorder};
use crate::stats;
use cp_core::checkpoint::{self, Checkpoint};
use cp_core::cluster::ppa_aware_clustering;
use cp_core::flow::{
    congestion_driven_refine, run_default_flow, run_flow, timing_net_weights, FlowOptions,
    FlowReport, ShapeMode,
};
use cp_core::vpr::ml::cluster_features;
use cp_core::vpr::subnetlist::extract_subnetlist;
use cp_core::vpr::{best_shape, best_shape_hybrid};
use cp_core::{FlowDiagnostics, FlowError};
use cp_gnn::{GraphSample, ModelConfig, TotalCostModel};
use cp_netlist::clustered::ClusteredNetlist;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::{ClusterShape, Constraints, Floorplan, Netlist};
use cp_place::cts::synthesize_clock_tree;
use cp_place::detailed::{refine, DetailedOptions};
use cp_place::hpwl::raw_hpwl;
use cp_place::{legalize, GlobalPlacer, PlacementProblem};
use cp_route::route_placed_netlist;
use cp_timing::{power_report, propagate_activity, Sta, WireModel};
use std::path::Path;
use std::time::Instant;

/// The repository's JSON codec, shared rather than rewritten.
pub use cp_trace::json;

/// The `cp_*` functions this benchmark calls; `baseline.json` records them.
pub const PINNED_API: &[&str] = &[
    "cp_netlist::generator::GeneratorConfig::{from_profile, scale, seed, generate_with_constraints}",
    "cp_netlist::Netlist::{validate, cell_count, net_count, nets, to_hypergraph_with_map}",
    "cp_netlist::Constraints::validate",
    "cp_netlist::Floorplan::{try_for_netlist, try_with_macro_blockages, validate_capacity}",
    "cp_netlist::clustered::ClusteredNetlist::{from_assignment, shapeable_clusters, cells, set_shape, scale_io_net_weights, cluster_of_cell, dims}",
    "cp_core::flow::{run_flow, run_default_flow, timing_net_weights, congestion_driven_refine}",
    "cp_core::flow::{FlowOptions::fast, FlowReport::deterministic_eq, ShapeMode}",
    "cp_core::FlowDiagnostics::with_limit",
    "cp_core::cluster::ppa_aware_clustering",
    "cp_core::vpr::{best_shape, best_shape_hybrid, subnetlist::extract_subnetlist, ml::cluster_features}",
    "cp_core::checkpoint::{fingerprint, Checkpoint::after_clustering, Checkpoint::save}",
    "cp_gnn::{TotalCostModel::new, TotalCostModel::predict_batched, ModelConfig::default}",
    "cp_place::{PlacementProblem::from_clustered, PlacementProblem::from_netlist, PlacementProblem::with_seeds, GlobalPlacer::place, legalize}",
    "cp_place::{detailed::refine, hpwl::raw_hpwl, cts::synthesize_clock_tree}",
    "cp_route::route_placed_netlist",
    "cp_timing::{Sta::new, Sta::run, Sta::run_with_clock, Sta::extract_paths, propagate_activity, power_report}",
    "cp_parallel::{with_threads, detected_cores}",
    "cp_trace::{set_level, Level, json}",
];

/// Shaped clusters the surrogate-cost measurement covers (20 samples each).
const SURROGATE_CLUSTERS: usize = 4;

/// One set of inputs and flow settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ArianeClustered,
    JpegFlat,
    JpegVpr,
    JpegFull,
}

impl Workload {
    pub const ALL: [Self; 4] = [
        Self::ArianeClustered,
        Self::JpegFlat,
        Self::JpegVpr,
        Self::JpegFull,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::ArianeClustered => "ariane_clustered",
            Self::JpegFlat => "jpeg_flat",
            Self::JpegVpr => "jpeg_vpr",
            Self::JpegFull => "jpeg_full",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Self::ArianeClustered => {
                "Algorithm 1 with uniform shapes on 119k cells: routing is over half the wall, seeded placement a quarter, shaping none"
            }
            Self::JpegFlat => {
                "the paper's flat baseline on 53k cells: from-scratch placement is half the wall; clustering and V-P&R do nothing, so their changes must not move it"
            }
            Self::JpegVpr => {
                "exact V-P&R shaping at the paper's cluster sizes: thousands of 200-800-cell place+route calls where per-call set-up dominates and the pool matters"
            }
            Self::JpegFull => {
                "hybrid shaping, timing weights and congestion refine on: a second route and re-place inside placement; guards against fast paths that special-case default options"
            }
        }
    }

    fn profile(self) -> DesignProfile {
        match self {
            Self::ArianeClustered => DesignProfile::Ariane,
            _ => DesignProfile::Jpeg,
        }
    }

    fn options(self) -> FlowOptions {
        let mut o = FlowOptions::fast();
        if matches!(self, Self::JpegVpr | Self::JpegFull) {
            // The paper's regime: clusters of a few hundred instances,
            // shaped above 200. The size cap is 800 cells, not the default
            // 1600: V-P&R memory grows faster than linearly with cluster
            // size, and with the loose cap peak memory follows whichever
            // cluster a seed happens to make largest (122-252 MB over ten
            // seeds) instead of the program under test.
            o.clustering.avg_cluster_size = 400;
            o.clustering.max_cluster_factor = 2.0;
            o.vpr_min_instances = 200;
        }
        match self {
            Self::ArianeClustered | Self::JpegFlat => {}
            Self::JpegVpr => o.shape_mode = ShapeMode::Vpr,
            Self::JpegFull => {
                o.shape_mode = ShapeMode::Hybrid {
                    selector: None,
                    top_k: 4,
                };
                o.timing_driven = true;
                o.congestion_driven = true;
            }
        }
        o
    }
}

/// A generated design. The seed reaches the generator and nothing else:
/// the flow sees only the netlist and constraints.
pub struct Design {
    config: GeneratorConfig,
    netlist: Netlist,
    constraints: Constraints,
}

impl Design {
    pub fn generate(workload: Workload, seed: u64, scale: f64) -> Self {
        let config = GeneratorConfig::from_profile(workload.profile())
            .scale(scale)
            .seed(seed);
        let (netlist, constraints) = config.generate_with_constraints();
        Self {
            config,
            netlist,
            constraints,
        }
    }

    pub fn cells(&self) -> usize {
        self.netlist.cell_count()
    }

    pub fn nets(&self) -> usize {
        self.netlist.net_count()
    }

    pub fn pins(&self) -> usize {
        let nets = self.netlist.nets();
        nets.iter().map(|n| n.pin_count()).sum()
    }
}

/// Result quality of one flow run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Qor {
    pub hpwl_um: f64,
    pub rwl_um: f64,
    pub wns_ps: f64,
    pub tns_ps: f64,
    pub power_w: f64,
}

impl Qor {
    /// Every value finite and a positive wirelength: a flow that returns
    /// anything else has failed even if it returned `Ok`.
    fn is_valid(&self) -> bool {
        let all = [
            self.hpwl_um,
            self.rwl_um,
            self.wns_ps,
            self.tns_ps,
            self.power_w,
        ];
        all.iter().all(|v| v.is_finite()) && self.hpwl_um > 0.0
    }

    fn same_bits(&self, other: &Self) -> bool {
        let bits =
            |q: &Self| [q.hpwl_um, q.rwl_um, q.wns_ps, q.tns_ps, q.power_w].map(f64::to_bits);
        bits(self) == bits(other)
    }
}

/// What one flow run returned.
pub struct Outcome(FlowReport);

impl Outcome {
    pub fn qor(&self) -> Qor {
        let r = &self.0;
        Qor {
            hpwl_um: r.hpwl,
            rwl_um: r.ppa.rwl,
            wns_ps: r.ppa.wns,
            tns_ps: r.ppa.tns,
            power_w: r.ppa.power,
        }
    }

    /// Clustering plus placement seconds as the flow reports them: the
    /// "CPU" column of the paper's Table 2.
    pub fn place_wall_s(&self) -> f64 {
        self.0.clustering_runtime + self.0.placement_runtime
    }

    /// Why this run counts as failed, if it does: QoR that is not finite
    /// or has no wirelength, or a result that differs from `reference` in
    /// anything a re-run must reproduce bit for bit.
    pub fn check(&self, reference: Option<&Self>) -> Result<(), String> {
        if !self.qor().is_valid() {
            return Err(format!("invalid QoR {:?}", self.qor()));
        }
        match reference {
            Some(first) if !first.0.deterministic_eq(&self.0) => {
                Err("the result differs from the first run's".to_string())
            }
            _ => Ok(()),
        }
    }
}

pub fn detected_cores() -> usize {
    cp_parallel::detected_cores()
}

/// Runs `f` under a fixed thread budget with the program's own tracing off.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    cp_trace::set_level(cp_trace::Level::Off);
    cp_parallel::with_threads(threads, f)
}

/// One closed-loop operation: the workload's flow on the design.
pub fn run_flow_once(workload: Workload, design: &Design) -> Result<Outcome, String> {
    let options = workload.options();
    let (n, c) = (&design.netlist, &design.constraints);
    let report = match workload {
        Workload::JpegFlat => run_default_flow(n, c, &options),
        _ => run_flow(n, c, &options),
    };
    report.map(Outcome).map_err(|e| e.to_string())
}

/// What the traced run needs from the timed reps that preceded it.
pub struct TimedContext<'a> {
    pub threads: usize,
    /// The first rep's outcome; the staged composition must reproduce it.
    pub reference: &'a Outcome,
    pub flow_wall_median_s: f64,
    pub place_wall_median_s: f64,
    /// Scratch directory for the checkpoint write.
    pub out_dir: &'a Path,
}

/// Result of the traced run.
pub struct Traced {
    pub values: Values,
    /// Flow-equivalent operations attempted and failed beyond the timed reps.
    pub attempted: u64,
    pub failed: u64,
}

/// The traced run: re-composes the workload's flow from the layers' public
/// functions with a span around each call, checks that the composition
/// reproduces the flow's result to the last bit, then takes the single
/// extra measurements that belong to one layer only.
pub fn traced_run(
    workload: Workload,
    design: &Design,
    ctx: &TimedContext,
    rec: &mut Recorder,
) -> Result<Traced, String> {
    let options = workload.options();
    let (n, c) = (&design.netlist, &design.constraints);
    let reference = &ctx.reference.0;
    let mut m = Values::default();
    let mut ops = Ops::default();
    let cells = design.cells() as f64;
    m.set("netlist.cells", cells);
    m.set("netlist.nets", design.nets() as f64);
    m.set("netlist.pins", design.pins() as f64);
    m.set("parallel.threads", ctx.threads as f64);
    m.set("cluster.count", reference.cluster_count as f64);
    m.set(
        "vpr.shaped_clusters",
        reference.shaping.clusters_shaped as f64,
    );
    m.set("vpr.exact_evals", reference.shaping.exact_evals as f64);
    m.set(
        "flow.recovery_events",
        reference.diagnostics.events.len() as f64,
    );

    let staged_run = rec.next_run();
    let mut staged = Staged::default();
    ops.attempted += 1;
    let (qor, staged_total_s) = rec.scope("flow.staged", |rec| {
        staged_flow(workload, design, &options, rec, &mut m, &mut staged)
    });
    let qor = qor.map_err(|e| format!("staged composition: {e}"))?;
    let matches = qor.same_bits(&ctx.reference.qor());
    if !matches {
        eprintln!(
            "staged composition differs from the flow: {qor:?} vs {:?}",
            ctx.reference.qor()
        );
        ops.failed += 1;
    }
    m.set("flow.staged_matches_flow", f64::from(u8::from(matches)));
    m.set("flow.staged_total_s", staged_total_s);
    m.set(
        "bench.staged_overhead_pct",
        100.0 * (staged_total_s / ctx.flow_wall_median_s - 1.0),
    );
    // A layer's time is the self time of its spans; the metric is the span's
    // name plus `_s`. The root's own self time is the driver's: validation,
    // floorplan and glue.
    let mut layer_self_s = 0.0;
    for (name, secs) in spans::self_seconds_by_name(rec.spans(), staged_run) {
        if name == "flow.staged" {
            continue;
        }
        let metric = PER_LAYER
            .iter()
            .map(|d| d.name)
            .find(|m| m.strip_suffix("_s") == Some(name))
            .unwrap_or_else(|| panic!("span {name} has no metric"));
        layer_self_s += secs;
        m.set(metric, secs);
    }
    m.set("flow.unattributed_s", ctx.flow_wall_median_s - layer_self_s);
    staged.report(&mut m, cells, design.nets() as f64);

    // Single measurements outside the flow's own sequence.
    rec.next_run();
    let (_, generate_s) = rec.call("netlist.generate", || {
        std::hint::black_box(design.config.generate_with_constraints())
    });
    m.set("netlist.generate_s", generate_s);
    let (_, hypergraph_s) = rec.call("netlist.hypergraph", || {
        std::hint::black_box(n.to_hypergraph_with_map())
    });
    m.set("netlist.hypergraph_s", hypergraph_s);
    let sta = Sta::new(n, c).map_err(|e| e.to_string())?;
    let estimate = sta.run(&WireModel::Estimate);
    let (_, extract_paths_s) = rec.call("timing.extract_paths", || {
        std::hint::black_box(sta.extract_paths(&estimate, 20_000))
    });
    m.set("timing.extract_paths_s", extract_paths_s);
    if let Some((positions, fp)) = &staged.prelegal {
        // What the congestion refine routes: the unlegalized placement.
        let (routed, prelegal_s) = rec.call("route.global_prelegal", || {
            route_placed_netlist(n, positions, fp, &options.router)
        });
        routed.map_err(|e| e.to_string())?;
        m.set("route.global_prelegal_s", prelegal_s);
    }

    let serial = ops.flow(rec, "parallel.serial_rep", Some(ctx.reference), || {
        cp_parallel::with_threads(1, || run_flow_once(workload, design))
    });
    if let Some((_, serial_s)) = serial {
        m.set("parallel.serial_wall_s", serial_s);
        m.set("parallel.speedup", serial_s / ctx.flow_wall_median_s);
    }

    match workload {
        Workload::ArianeClustered => {
            cp_trace::set_level(cp_trace::Level::Spans);
            let spans_rep = ops.flow(rec, "trace.spans_rep", Some(ctx.reference), || {
                run_flow_once(workload, design)
            });
            cp_trace::set_level(cp_trace::Level::Off);
            if let Some((outcome, spans_s)) = spans_rep {
                m.set("trace.spans_wall_s", spans_s);
                m.set(
                    "trace.spans_overhead_pct",
                    100.0 * (spans_s / ctx.flow_wall_median_s - 1.0),
                );
                let recorded = outcome.0.trace.as_ref().map_or(0, |t| t.spans.len());
                m.set("trace.spans_recorded", recorded as f64);
            }
            if let Some((assignment, runtime)) = staged.clustering.take() {
                std::fs::create_dir_all(ctx.out_dir).map_err(|e| e.to_string())?;
                let path = ctx.out_dir.join("checkpoint.scratch.json");
                let fingerprint = checkpoint::fingerprint(n, &options);
                let cp = Checkpoint::after_clustering(fingerprint, assignment, runtime);
                let (saved, save_s) = rec.call("flow.checkpoint_save", || cp.save(&path));
                saved?;
                let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                std::fs::remove_file(&path).map_err(|e| e.to_string())?;
                m.set("flow.checkpoint_save_s", save_s);
                m.set("flow.checkpoint_bytes", bytes as f64);
            }
        }
        Workload::JpegFlat => {
            // The paper's Table 2 columns: clustered over flat, same design.
            let clustered = ops.flow(rec, "flow.table2_clustered_rep", None, || {
                run_flow(n, c, &FlowOptions::fast())
                    .map(Outcome)
                    .map_err(|e| e.to_string())
            });
            if let Some((outcome, _)) = clustered {
                m.set(
                    "flow.table2_cpu_ratio",
                    outcome.place_wall_s() / ctx.place_wall_median_s,
                );
                m.set(
                    "flow.table2_hpwl_ratio",
                    outcome.qor().hpwl_um / ctx.reference.qor().hpwl_um,
                );
            }
        }
        Workload::JpegVpr => {
            // A surrogate pass over every shaped cluster costs minutes (62 ms
            // a sample on the reference host); a few clusters give the rate.
            let (features, features_s) = rec.call("vpr.features", || {
                let subs = staged.shaped_subs.iter().take(SURROGATE_CLUSTERS);
                subs.map(cluster_features).collect::<Vec<_>>()
            });
            m.set("vpr.features_s", features_s);
            let candidates = ClusterShape::candidates();
            let samples: Vec<GraphSample> = features
                .iter()
                .flat_map(|f| candidates.iter().map(|&shape| f.with_shape(shape)))
                .collect();
            // Random weights: this measures the surrogate's cost, not its
            // accuracy — the model is untrained.
            let model = TotalCostModel::new(&ModelConfig::default(), 13);
            let (_, predict_s) = rec.call("gnn.predict_batched", || {
                std::hint::black_box(model.predict_batched(&samples))
            });
            m.set("gnn.predict_batched_s", predict_s);
            m.set("gnn.samples", samples.len() as f64);
            if predict_s > 0.0 {
                m.set("gnn.ksamples_per_s", samples.len() as f64 / predict_s / 1e3);
            }
        }
        Workload::JpegFull => {}
    }
    Ok(Traced {
        values: m,
        attempted: ops.attempted,
        failed: ops.failed,
    })
}

/// Operations the traced run attempted beyond the timed reps.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// One extra flow run under a span; a run that errs or fails
    /// [`Outcome::check`] counts as failed and yields nothing.
    fn flow(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        reference: Option<&Outcome>,
        f: impl FnOnce() -> Result<Outcome, String>,
    ) -> Option<(Outcome, f64)> {
        self.attempted += 1;
        let (result, secs) = rec.call(name, f);
        match result.and_then(|o| o.check(reference).map(|()| o)) {
            Ok(outcome) => Some((outcome, secs)),
            Err(e) => {
                eprintln!("{name}: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// By-products of the staged composition that later measurements need.
#[derive(Default)]
struct Staged {
    /// Cluster assignment and the clustering's own runtime.
    clustering: Option<(Vec<u32>, f64)>,
    shaped_subs: Vec<Netlist>,
    /// Wall time of each cluster's shape search, on whichever pool thread
    /// ran it.
    best_shape_ms: Vec<f64>,
    exact_evals: usize,
    /// The placement the congestion refine started from (cells then ports).
    prelegal: Option<(Vec<(f64, f64)>, Floorplan)>,
    flat_iterations: usize,
}

impl Staged {
    /// Rates and per-cluster statistics, once the layers' times are known.
    fn report(&self, m: &mut Values, cells: f64, nets: f64) {
        let rates = [
            ("cluster.kcells_per_s", cells, "cluster.ppa_aware_s"),
            (
                "place.global_kcell_iters_per_s",
                cells * self.flat_iterations as f64,
                "place.global_flat_s",
            ),
            ("place.legalize_kcells_per_s", cells, "place.legalize_s"),
            ("route.knets_per_s", nets, "route.global_s"),
        ];
        for (rate, work, time) in rates {
            if let Some(secs) = m.get(time).filter(|&s| s > 0.0) {
                m.set(rate, work / secs / 1e3);
            }
        }
        if self.exact_evals > 0 {
            let ms = &self.best_shape_ms;
            m.set("vpr.best_shape_ms_p50", stats::percentile(ms, 50));
            m.set("vpr.best_shape_ms_p90", stats::percentile(ms, 90));
            // Wall time of the shaping region per exact evaluation, at the
            // run's thread budget.
            let region_s = m.get("vpr.best_shape_s").unwrap_or(0.0);
            m.set("vpr.eval_ms_mean", region_s * 1e3 / self.exact_evals as f64);
        }
    }
}

/// The pre-flight checks and floorplan every flow entry point starts with.
fn floorplan(n: &Netlist, c: &Constraints, o: &FlowOptions) -> Result<Floorplan, FlowError> {
    n.validate()?;
    c.validate()?;
    let fp = Floorplan::try_for_netlist(n, o.utilization, o.aspect_ratio)?
        .try_with_macro_blockages(o.macro_blockages.0, o.macro_blockages.1)?;
    fp.validate_capacity(n)?;
    Ok(fp)
}

/// The workload's flow — `run_default_flow`, or `run_flow` in its
/// OpenROAD-like mode with uniform, exact or hybrid shapes — re-composed
/// call by call from the layers' public functions. Returns the same QoR as
/// the flow, to the last bit.
fn staged_flow(
    workload: Workload,
    design: &Design,
    o: &FlowOptions,
    rec: &mut Recorder,
    m: &mut Values,
    out: &mut Staged,
) -> Result<Qor, FlowError> {
    let (n, c) = (&design.netlist, &design.constraints);
    let placer = GlobalPlacer::new(o.placer);
    let (fp, free, flat) = if workload == Workload::JpegFlat {
        // The flat workload runs with timing and congestion driving off.
        let fp = floorplan(n, c, o)?;
        let (free, _) = rec.call("place.problem_build", || {
            PlacementProblem::from_netlist(n, &fp)
        });
        let flat = rec.call("place.global_flat", || placer.place(&free)).0?;
        (fp, free, flat)
    } else {
        let clustering = rec
            .call("cluster.ppa_aware", || {
                ppa_aware_clustering(n, c, &o.clustering)
            })
            .0?;
        let fp = floorplan(n, c, o)?;
        let (mut clustered, _) = rec.call("netlist.clustered_build", || {
            ClusteredNetlist::from_assignment(n, &clustering.assignment)
        });
        if !matches!(o.shape_mode, ShapeMode::Uniform) {
            // As in the flow: sub-netlists are induced one after another,
            // then the clusters' searches share the pool. A cluster that
            // cannot be induced or shaped keeps the uniform shape.
            let shapeable = clustered.shapeable_clusters(o.vpr_min_instances);
            let mut present = Vec::new();
            for &cluster in &shapeable {
                let (sub, _) = rec.call("vpr.extract", || {
                    extract_subnetlist(n, clustered.cells(cluster))
                });
                if let Ok(sub) = sub {
                    present.push((cluster, sub));
                }
            }
            let (searched, _) = rec.call("vpr.best_shape", || {
                cp_parallel::par_map(&present, 1, |(_, sub)| {
                    let start = Instant::now();
                    let best = match &o.shape_mode {
                        ShapeMode::Vpr => {
                            best_shape(sub, &o.vpr).map(|(s, costs)| (s, costs.len()))
                        }
                        ShapeMode::Hybrid {
                            selector: None,
                            top_k,
                        } => best_shape_hybrid(sub, &o.vpr, *top_k, None)
                            .map(|(s, _, stats)| (s, stats.exact_evals)),
                        other => unreachable!("no workload shapes with {other:?}"),
                    };
                    (best.ok(), start.elapsed().as_secs_f64())
                })
            });
            for ((cluster, sub), (best, secs)) in present.into_iter().zip(searched) {
                if let Some((shape, evals)) = best {
                    clustered.set_shape(cluster, shape);
                    out.exact_evals += evals;
                    out.best_shape_ms.push(secs * 1e3);
                    out.shaped_subs.push(sub);
                }
            }
        }
        clustered.scale_io_net_weights(o.io_weight);
        let (cluster_problem, _) = rec.call("place.problem_build", || {
            PlacementProblem::from_clustered(&clustered, &fp)
        });
        let centers = rec
            .call("place.global_cluster", || placer.place(&cluster_problem))
            .0?
            .positions;
        let (free, _) = rec.call("place.problem_build", || {
            PlacementProblem::from_netlist(n, &fp)
        });
        // Cells start at their cluster's centre, with the flow's
        // deterministic golden-ratio jitter inside the cluster's outline.
        let seeds = clustered.cluster_of_cell().iter().enumerate();
        let seeds: Vec<(f64, f64)> = seeds
            .map(|(i, &cluster)| {
                let center = centers[cluster as usize];
                let (w, h) = clustered.dims(cluster);
                let golden = (i as f64 * 0.618_033_988_749_895).fract() - 0.5;
                let golden2 = (i as f64 * 0.381_966_011_250_105).fract() - 0.5;
                fp.core.clamp(center.0 + golden * w, center.1 + golden2 * h)
            })
            .collect();
        let (mut seeded, _) = rec.call("place.problem_build", || {
            PlacementProblem::from_netlist(n, &fp).with_seeds(seeds)
        });
        if o.timing_driven {
            seeded.net_weights = rec
                .call("flow.timing_net_weights", || timing_net_weights(n, c))
                .0?;
        }
        let mut flat = rec.call("place.global_flat", || placer.place(&seeded)).0?;
        if o.congestion_driven {
            let mut all = flat.positions.clone();
            all.extend_from_slice(&fp.port_positions);
            out.prelegal = Some((all, fp.clone()));
            let mut diagnostics = FlowDiagnostics::with_limit(o.diagnostics_limit);
            let start = std::mem::take(&mut flat.positions);
            flat.positions = rec
                .call("flow.congestion_refine", || {
                    congestion_driven_refine(n, &fp, &free, start, o, &mut diagnostics)
                })
                .0?;
        }
        out.clustering = Some((clustering.assignment, clustering.runtime));
        (fp, free, flat)
    };
    out.flat_iterations = flat.iterations;
    m.set("place.global_iterations", flat.iterations as f64);
    m.set("place.global_final_overflow", flat.overflow);
    let mut positions = flat.positions;
    let displacement_um = rec
        .call("place.legalize", || legalize(&free, &fp, &mut positions))
        .0?;
    m.set("place.legalize_displacement_um", displacement_um);
    let (gain_um, _) = rec.call("place.refine", || {
        refine(&free, &fp, &mut positions, &DetailedOptions::default())
    });
    m.set("place.refine_gain_um", gain_um);
    let (hpwl_um, _) = rec.call("place.hpwl_eval", || raw_hpwl(&free, &positions));

    positions.extend_from_slice(&fp.port_positions);
    let tree = rec
        .call("place.cts", || synthesize_clock_tree(n, &positions, &o.cts))
        .0?;
    let routed = rec
        .call("route.global", || {
            route_placed_netlist(n, &positions, &fp, &o.router)
        })
        .0?;
    let wire = WireModel::Routed(&positions, routed.detour_factor());
    let sta = rec.call("timing.sta_build", || Sta::new(n, c)).0?;
    let (timing, _) = rec.call("timing.sta_run", || {
        sta.run_with_clock(&wire, Some(&tree.arrival))
    });
    let (activity, _) = rec.call("timing.activity", || propagate_activity(n, c));
    let (power, _) = rec.call("timing.power", || power_report(n, c, &activity, &wire));

    let grid = &routed.congestion;
    m.set("place.cts_buffers", tree.buffer_count as f64);
    m.set("route.mazed_segments", routed.mazed_segments as f64);
    m.set("route.overflow_edges", grid.overflow_edges() as f64);
    m.set("route.max_utilization", grid.max_utilization());
    m.set("route.detour_factor", routed.detour_factor());
    m.set("route.gcells", (grid.nx() * grid.ny()) as f64);
    Ok(Qor {
        hpwl_um,
        rwl_um: routed.wirelength + tree.wirelength,
        wns_ps: timing.wns,
        tns_ps: timing.tns,
        power_w: power.total(),
    })
}
