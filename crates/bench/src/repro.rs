//! The one harness behind every paper experiment (`repro` binary).
//!
//! A [`Runner`] generates each design once and memoises every
//! [`FlowReport`] on `(flow kind, checkpoint fingerprint)`, so a flow that
//! several tables share — the flat default flow above all — runs once per
//! design. Each experiment is a plain function from the runner to a
//! [`Table`]: the rows the paper's table has, plus [`Claim`]s, predicates
//! over those rows that carry the paper's figure. "Shape holds" is a
//! computed field; a claim that fails at full scale is recorded as
//! `holds: false`.
//!
//! Every flow goes through the public entry points of the one flow driver
//! ([`run_default_flow`], [`run_flow`], and [`run_flow_with_assignment`]
//! on a comparator's clustering). Only `gnn` and `quality` take
//! stand-alone measurements (dataset labelling, clustering metrics).

use crate::{flow_options, fmt_norm, fmt_power, fmt_tns, fmt_wns, small_profiles, Bench};
use cp_core::baselines::{leiden_assignment, louvain_assignment, mfc_assignment};
use cp_core::checkpoint::fingerprint;
use cp_core::cluster::dendrogram::cluster_by_hierarchy_with_min;
use cp_core::cluster::ppa_aware_clustering;
use cp_core::cluster::quality::clustering_quality;
use cp_core::flow::{
    cluster_members, run_default_flow, run_flow, run_flow_with_assignment, FlowOptions, FlowReport,
    PpaReport, ShapeMode, Tool,
};
use cp_core::vpr::ml::{generate_dataset, DatasetConfig, MlShapeSelector};
use cp_core::vpr::{best_shape, extract_subnetlist};
use cp_core::{stages, ClusteringOptions, FlowError};
use cp_gnn::train::TrainOptions;
use cp_gnn::GraphSample;
use cp_netlist::generator::DesignProfile;
use cp_place::PlacerBackendKind;
use cp_trace::json::Writer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use DesignProfile::{Aes, Ariane, Jpeg, MegaBoom, MemPoolGroup};

/// The checked-in schema of `REPRO.json`, which [`to_json`] writes.
pub const SCHEMA_JSON: &str = include_str!("../../../schemas/repro.schema.json");

/// Every experiment id `repro --table` accepts, in print order.
pub const TABLES: [&str; 12] = [
    "1", "2", "3", "4", "5", "6", "fig5", "gnn", "ablation", "quality", "runtime", "backend",
];

/// §4.4 and Table 6 run on designs at this fixed fraction of the paper's
/// sizes whatever `--scale` says. Measured at 1.0 on the 2-core, 15 GB
/// host: §4.4's 1,920 samples and Table 6's 360 did not finish training in
/// 10 minutes; with the selector trained at 1/32 instead, the V-P&R_ML
/// flow (one surrogate batch over every cluster × 20 shapes) took 164 s at
/// 3.7 GB RSS on jpeg and was stopped at 7.5 GB on ariane.
pub const GNN_DATASET_SCALE: f64 = 1.0 / 32.0;
/// Clustering perturbations per design in the §4.4 dataset.
const GNN_CONFIGS: usize = 6;
/// Training epochs of the §4.4 model.
const GNN_EPOCHS: usize = 30;
/// Runs of each flow behind a Table 2 time cell, which reads their
/// minimum: one sub-second timing moves with host load alone.
const TIME_REPS: usize = 3;

/// Which entry point of the flow driver a memoised run went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Flow {
    /// [`run_default_flow`]: the flat baseline.
    Default,
    /// [`run_flow`]: Algorithm 1.
    Ours,
    /// [`run_flow_with_assignment`] on [`louvain_assignment`]: blob
    /// placement \[9\].
    Blob,
    /// [`run_flow_with_assignment`] on [`leiden_assignment`].
    Leiden,
    /// [`run_flow_with_assignment`] on [`mfc_assignment`].
    Mfc,
}

/// One paper-vs-measured verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The predicate, in words.
    pub text: String,
    /// The paper's figure for it.
    pub paper: String,
    /// What the rows of this run say.
    pub measured: String,
    /// Whether the predicate holds on this run; `None` when the run could
    /// not decide it.
    pub holds: Option<bool>,
    /// The claim reads post-route timing or congestion, whose models are
    /// due a re-baseline (ROADMAP items 1–2).
    pub provisional: bool,
}

/// One experiment's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The `--table` id.
    pub id: &'static str,
    /// Heading.
    pub title: String,
    /// Scale the rows were measured at.
    pub scale: f64,
    /// Designs the rows cover.
    pub designs: Vec<&'static str>,
    /// Column names.
    pub header: Vec<&'static str>,
    /// Cells, as printed.
    pub rows: Vec<Vec<String>>,
    /// Free-text context printed under the table.
    pub notes: Vec<String>,
    /// Verdicts over the rows.
    pub claims: Vec<Claim>,
}

/// Generates designs and memoises flow runs for the experiment functions.
pub struct Runner {
    /// Fraction of the paper's instance counts the designs are generated at.
    pub scale: f64,
    /// Designs the tables iterate over (each table keeps the ones the
    /// paper's table has).
    pub profiles: Vec<DesignProfile>,
    designs: Vec<Bench>,
    flows: BTreeMap<(Flow, u64), FlowReport>,
    /// Flows that actually ran, in order: `(kind, design, fingerprint)`.
    pub executed: Vec<(Flow, &'static str, u64)>,
    /// Flow results the tables asked for, hits included.
    pub requested: usize,
    /// Re-runs of memoised flows for Table 2's time cells, each of which
    /// reads the fastest of three runs.
    pub reruns: usize,
}

impl Runner {
    /// A runner over `profiles` at `scale`; nothing is generated yet.
    pub fn new(scale: f64, profiles: Vec<DesignProfile>) -> Self {
        Self {
            scale,
            profiles,
            designs: Vec::new(),
            flows: BTreeMap::new(),
            executed: Vec::new(),
            requested: 0,
            reruns: 0,
        }
    }

    /// The flow preset sized for this runner's designs.
    pub fn options(&self) -> FlowOptions {
        flow_options(self.scale)
    }

    fn design_index(&mut self, profile: DesignProfile) -> usize {
        match self.designs.iter().position(|b| b.profile == profile) {
            Some(i) => i,
            None => {
                self.designs.push(Bench::generate_at(profile, self.scale));
                self.designs.len() - 1
            }
        }
    }

    /// The design for `profile`, generated on first use.
    pub fn design(&mut self, profile: DesignProfile) -> &Bench {
        let i = self.design_index(profile);
        &self.designs[i]
    }

    /// Executed flows per design, in first-run order.
    pub fn runs_per_design(&self) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = Vec::new();
        for &(_, design, _) in &self.executed {
            match out.iter_mut().find(|d| d.0 == design) {
                Some(d) => d.1 += 1,
                None => out.push((design, 1)),
            }
        }
        out
    }

    /// The runner's profiles that are also in `wanted`, in runner order.
    fn profiles_in(&self, wanted: &[DesignProfile]) -> Vec<DesignProfile> {
        let keep = |p: &DesignProfile| wanted.contains(p);
        self.profiles.iter().copied().filter(keep).collect()
    }

    /// The report of `kind` on `profile` under `options`, run at most once
    /// per distinct `(kind, fingerprint)`. The flat flow reads neither
    /// `tool` nor `shape_mode`, so its key normalises both.
    ///
    /// # Errors
    ///
    /// Whatever the flow entry point returns.
    pub fn flow(
        &mut self,
        kind: Flow,
        profile: DesignProfile,
        options: &FlowOptions,
    ) -> Result<FlowReport, FlowError> {
        let i = self.design_index(profile);
        let b = &self.designs[i];
        let key = match kind {
            Flow::Default => {
                let flat = options.clone().tool(Tool::OpenRoadLike);
                fingerprint(&b.netlist, &flat.shape_mode(ShapeMode::Uniform))
            }
            _ => fingerprint(&b.netlist, options),
        };
        self.requested += 1;
        if let Some(report) = self.flows.get(&(kind, key)) {
            return Ok(report.clone());
        }
        let t0 = Instant::now();
        let report = execute(kind, b, options)?;
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("{} {kind:?} {key:016x}: {secs:.1}s", b.name());
        self.executed.push((kind, b.name(), key));
        self.flows.insert((kind, key), report.clone());
        Ok(report)
    }

    /// [`TIME_REPS`] reports of each of `kinds` on `profile`: the memoised
    /// one of [`Runner::flow`], then fresh runs taken round-robin across
    /// `kinds`, so a burst of host load lands on all of them alike. The
    /// re-runs are counted in [`Runner::reruns`] and not memoised; only
    /// their wall-clock fields can differ.
    ///
    /// # Errors
    ///
    /// Whatever the flow entry point returns.
    ///
    /// # Panics
    ///
    /// If a re-run is not [`FlowReport::deterministic_eq`] to the memoised
    /// run: the flow driver is deterministic, so that is a bug.
    fn flow_reps(
        &mut self,
        kinds: &[Flow],
        profile: DesignProfile,
        options: &FlowOptions,
    ) -> Result<Vec<Vec<FlowReport>>, FlowError> {
        let mut out = kinds
            .iter()
            .map(|&kind| Ok(vec![self.flow(kind, profile, options)?]))
            .collect::<Result<Vec<_>, FlowError>>()?;
        let i = self.design_index(profile);
        let b = &self.designs[i];
        for _ in 1..TIME_REPS {
            for (&kind, reps) in kinds.iter().zip(&mut out) {
                let report = execute(kind, b, options)?;
                assert!(
                    report.deterministic_eq(&reps[0]),
                    "{} {kind:?}: a re-run does not reproduce the memoised run",
                    b.name()
                );
                reps.push(report);
            }
        }
        self.reruns += kinds.len() * (TIME_REPS - 1);
        Ok(out)
    }
}

/// Runs `kind` on `b` through the flow driver; the comparators cluster
/// first and hand their assignment to [`run_flow_with_assignment`].
fn execute(kind: Flow, b: &Bench, options: &FlowOptions) -> Result<FlowReport, FlowError> {
    let (n, c) = (&b.netlist, &b.constraints);
    let (assignment, secs) = match kind {
        Flow::Default => return run_default_flow(n, c, options),
        Flow::Ours => return run_flow(n, c, options),
        Flow::Blob => louvain_assignment(n, options.clustering.seed),
        Flow::Leiden => leiden_assignment(n, options.clustering.seed),
        Flow::Mfc => mfc_assignment(n, &options.clustering),
    };
    run_flow_with_assignment(n, c, &assignment, secs, options)
}

/// Runs one experiment by its `--table` id (`None` for an unknown id).
///
/// # Errors
///
/// The first flow or stage error the experiment meets.
pub fn table(r: &mut Runner, id: &str) -> Option<Result<Table, FlowError>> {
    let mut table = match id {
        "1" => Ok(table1(r)),
        "2" => table2(r),
        "3" => post_route(r, Tool::OpenRoadLike),
        "4" => post_route(r, Tool::InnovusLike),
        "5" => table5(r),
        "6" => table6(r),
        "fig5" => fig5(r),
        "gnn" => gnn(r),
        "ablation" => ablation(r),
        "quality" => quality(r),
        "runtime" => runtime(r),
        "backend" => backend(r),
        _ => return None,
    };
    // Tables 3–6 read post-route timing and congestion (ROADMAP items 1–2).
    if let (Ok(t), "3" | "4" | "5" | "6") = (&mut table, id) {
        t.claims.iter_mut().for_each(|c| c.provisional = true);
    }
    Some(table)
}

impl Table {
    /// An empty table over `profiles` of `r`; `header` is `" | "`-separated.
    fn new(
        r: &mut Runner,
        id: &'static str,
        title: &str,
        profiles: &[DesignProfile],
        header: &'static str,
    ) -> Self {
        Self {
            id,
            title: title.to_string(),
            scale: r.scale,
            designs: profiles.iter().map(|&p| r.design(p).name()).collect(),
            header: header.split(" | ").collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            claims: Vec::new(),
        }
    }

    fn claim(&mut self, holds: Option<bool>, text: &str, paper: &str, measured: String) {
        self.claims.push(Claim {
            text: text.to_string(),
            paper: paper.to_string(),
            measured,
            holds,
            provisional: false,
        });
    }

    /// One claim per [`METRICS`] column that a per-design predicate holds on
    /// every design; `held[m]` is that column's `(design, held)` tally.
    fn claim_per_metric(&mut self, held: &[Tally], text: &str, paper: &[&str]) {
        for ((h, (metric, ..)), paper) in held.iter().zip(METRICS).zip(paper) {
            let yes: Vec<&str> = h.iter().filter(|d| d.1).map(|d| d.0).collect();
            let mut measured = format!("on {} of {}", yes.len(), h.len());
            if !yes.is_empty() {
                let _ = write!(measured, " ({})", yes.join(", "));
            }
            let text = text.replace("{metric}", metric);
            self.claim(Some(yes.len() == h.len()), &text, paper, measured);
        }
    }

    /// A post-route PPA row: design, label, rWL over `rwl_base`, WNS, TNS, power.
    fn ppa_row(&mut self, design: &str, label: &str, ppa: &PpaReport, rwl_base: f64) {
        self.rows.push(vec![
            design.to_string(),
            label.to_string(),
            fmt_norm(ppa.rwl, rwl_base),
            fmt_wns(ppa.wns),
            fmt_tns(ppa.tns),
            fmt_power(ppa.power),
        ]);
    }
}

fn min_max(values: &[f64]) -> (f64, f64) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    (lo, values.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// Per design, whether a predicate held on it.
type Tally = Vec<(&'static str, bool)>;

/// The four PPA columns of Tables 3–6: name, accessor, lower-is-better.
type Metric = (&'static str, fn(&PpaReport) -> f64, bool);
const METRICS: [Metric; 4] = [
    ("rWL", |p| p.rwl, true),
    ("WNS", |p| p.wns, false),
    ("TNS", |p| p.tns, false),
    ("power", |p| p.power, true),
];

/// `a` is at least as good as `b` on a metric.
fn no_worse(a: f64, b: f64, lower_is_better: bool) -> bool {
    if lower_is_better {
        a <= b
    } else {
        a >= b
    }
}

/// Relative gain of `ours` over `base` in percent, positive = better;
/// `None` when the baseline is zero.
fn gain_pct(base: f64, ours: f64, lower_is_better: bool) -> Option<f64> {
    let d = if lower_is_better {
        base - ours
    } else {
        ours - base
    };
    (base.abs() > 1e-12).then(|| d / base.abs() * 100.0)
}

/// Table 1: the paper's instance and net counts beside the generated ones.
fn table1(r: &mut Runner) -> Table {
    let profiles = r.profiles.clone();
    let header = "Design | #Insts (paper) | #Nets (paper) | #Insts (gen) | #Nets (gen) | #FFs | HierDepth | AvgFanout | TCP_OR (ns)";
    let title = "Table 1 — benchmark statistics (paper vs generated)";
    let mut t = Table::new(r, "1", title, &profiles, header);
    for &p in &profiles {
        let b = r.design(p);
        let stats = b.netlist.stats();
        t.rows.push(vec![
            b.name().to_string(),
            p.table1_insts().to_string(),
            p.table1_nets().to_string(),
            stats.cells.to_string(),
            stats.nets.to_string(),
            stats.flops.to_string(),
            stats.hier_depth.to_string(),
            format!("{:.2}", stats.avg_fanout),
            format!("{:.2}", b.constraints.clock_period / 1000.0),
        ]);
    }
    t
}

/// Clustering + placement seconds of each of `reports`.
fn cpu_seconds(reports: &[FlowReport]) -> Vec<f64> {
    let cpu = |f: &FlowReport| f.clustering_runtime + f.placement_runtime;
    reports.iter().map(cpu).collect()
}

/// Table 2's CPU verdict over each design's `(ours, default)` seconds, one
/// per run: it holds when on every design the slowest `ours` run beats the
/// fastest default run, does not hold when on some design the fastest
/// `ours` run is no faster than the slowest default run, and is `None`
/// when the runs overlap.
fn cpu_verdict(designs: &[(Vec<f64>, Vec<f64>)]) -> Option<bool> {
    let mut faster = true;
    for (ours, default) in designs {
        let ((ours_lo, ours_hi), (default_lo, default_hi)) = (min_max(ours), min_max(default));
        if ours_lo >= default_hi {
            return Some(false);
        }
        faster &= ours_hi < default_lo;
    }
    faster.then_some(true)
}

/// Table 2: post-place HPWL and CPU (clustering + placement), blob
/// placement [9] and ours normalised to the default flow. The paper lists
/// [9] as NA on MegaBoom and MemPool Group; so does this. A CPU cell is
/// the fastest of [`TIME_REPS`] runs over the default flow's fastest.
fn table2(r: &mut Runner) -> Result<Table, FlowError> {
    let opts = r.options().tool(Tool::OpenRoadLike);
    let profiles = r.profiles.clone();
    let title =
        "Table 2 — post-place HPWL / CPU, OpenROAD-like flow, normalized to the default flow";
    let header = "Design | [9] HPWL | [9] CPU | Ours HPWL | Ours CPU | #Clusters";
    let mut t = Table::new(r, "2", title, &profiles, header);
    let (mut hpwl, mut cpu, mut reps) = (Vec::new(), Vec::new(), Vec::new());
    for &p in &profiles {
        let kinds: &[Flow] = match p {
            MegaBoom | MemPoolGroup => &[Flow::Default, Flow::Ours],
            _ => &[Flow::Default, Flow::Ours, Flow::Blob],
        };
        let runs = r.flow_reps(kinds, p, &opts)?;
        let default_s: Vec<f64> = runs[0].iter().map(|f| f.placement_runtime).collect();
        let ours_s = cpu_seconds(&runs[1]);
        let fastest = |s: &[f64]| min_max(s).0;
        let (default, ours) = (&runs[0][0], &runs[1][0]);
        hpwl.push(ours.hpwl / default.hpwl);
        cpu.push(fastest(&ours_s) / fastest(&default_s));
        let mut row = vec![r.design(p).name().to_string()];
        match runs.get(2) {
            Some(blob) => {
                row.push(fmt_norm(blob[0].hpwl, default.hpwl));
                row.push(fmt_norm(fastest(&cpu_seconds(blob)), fastest(&default_s)));
            }
            None => row.extend(["NA".to_string(), "NA".to_string()]),
        }
        row.push(fmt_norm(ours.hpwl, default.hpwl));
        row.push(fmt_norm(fastest(&ours_s), fastest(&default_s)));
        row.push(ours.cluster_count.to_string());
        t.rows.push(row);
        reps.push((ours_s, default_s));
    }
    let ((cpu_lo, cpu_hi), (hpwl_lo, hpwl_hi)) = (min_max(&cpu), min_max(&hpwl));
    t.claim(
        cpu_verdict(&reps),
        "ours cuts CPU (clustering + placement) on every design",
        "CPU ratio 0.53–0.80",
        format!("CPU ratio {cpu_lo:.3}–{cpu_hi:.3}, fastest of {TIME_REPS} runs each"),
    );
    t.claim(
        Some(hpwl_lo >= 0.95 && hpwl_hi <= 1.05),
        "ours keeps HPWL within ±5% of the default flow on every design",
        "HPWL ratio 0.989–1.011",
        format!("HPWL ratio {hpwl_lo:.3}–{hpwl_hi:.3}"),
    );
    Ok(t)
}

const PPA_HEADER: &str = "Design | Flow | rWL | WNS (ps) | TNS (ns) | Power (W)";

/// Tables 3 and 4: post-route PPA of the default flow vs ours (exact
/// V-P&R shapes) under one tool's seeded-placement recipe.
fn post_route(r: &mut Runner, tool: Tool) -> Result<Table, FlowError> {
    // The table's id and designs (the paper routes the first four in
    // OpenROAD), and its (max, avg) improvement in percent per `METRICS`
    // column.
    let (id, tool_name, wanted, paper) = match tool {
        Tool::OpenRoadLike => {
            let paper = [(5.0, 2.0), (63.0, 26.0), (90.0, 29.0), (0.7, 0.2)];
            ("3", "OpenROAD-like", &DesignProfile::ALL[..4], paper)
        }
        Tool::InnovusLike => {
            let paper = [(1.9, 0.2), (98.0, 35.0), (99.0, 49.0), (4.0, 1.0)];
            ("4", "Innovus-like", &DesignProfile::ALL[..], paper)
        }
    };
    let opts = r.options().tool(tool).shape_mode(ShapeMode::Vpr);
    let profiles = r.profiles_in(wanted);
    let title =
        format!("Table {id} — post-route PPA, {tool_name} flow (rWL normalized to Default)");
    let mut t = Table::new(r, id, &title, &profiles, PPA_HEADER);
    let mut gains: [Vec<f64>; 4] = Default::default();
    for &p in &profiles {
        let default = r.flow(Flow::Default, p, &opts)?;
        let ours = r.flow(Flow::Ours, p, &opts)?;
        let name = r.design(p).name();
        t.ppa_row(name, "Default", &default.ppa, default.ppa.rwl);
        t.ppa_row(name, "Ours", &ours.ppa, default.ppa.rwl);
        for (g, (_, get, lower)) in gains.iter_mut().zip(METRICS) {
            g.extend(gain_pct(get(&default.ppa), get(&ours.ppa), lower));
        }
    }
    for ((g, (metric, ..)), (paper_max, paper_avg)) in gains.iter().zip(METRICS).zip(paper) {
        let avg = g.iter().sum::<f64>() / g.len().max(1) as f64;
        t.claim(
            (!g.is_empty()).then_some(avg > 0.0),
            &format!("ours improves {metric} over the default flow on average"),
            &format!("max {paper_max}% (avg {paper_avg}%) better"),
            format!("max {:+.1}% (avg {avg:+.1}%)", min_max(g).1),
        );
    }
    Ok(t)
}

/// Table 5: Leiden vs plain multilevel FC vs our PPA-aware clustering, each
/// dropped into the same OpenROAD-like flow with exact V-P&R shapes.
fn table5(r: &mut Runner) -> Result<Table, FlowError> {
    let opts = r
        .options()
        .tool(Tool::OpenRoadLike)
        .shape_mode(ShapeMode::Vpr);
    let profiles = r.profiles_in(&small_profiles());
    let title =
        "Table 5 — post-route PPA by clustering method (rWL normalized to the default flow)";
    let header = "Design | Method | rWL | WNS (ps) | TNS (ns) | Power (W)";
    let mut t = Table::new(r, "5", title, &profiles, header);
    let mut best = vec![Vec::new(); 3];
    for &p in &profiles {
        let default = r.flow(Flow::Default, p, &opts)?;
        let leiden = r.flow(Flow::Leiden, p, &opts)?;
        let mfc = r.flow(Flow::Mfc, p, &opts)?;
        let ours = r.flow(Flow::Ours, p, &opts)?;
        let name = r.design(p).name();
        for (method, rep) in [("Leiden", &leiden), ("MFC", &mfc), ("Ours", &ours)] {
            t.ppa_row(name, method, &rep.ppa, default.ppa.rwl);
        }
        for (b, (_, get, lower)) in best.iter_mut().zip(METRICS) {
            let (o, l, m) = (get(&ours.ppa), get(&leiden.ppa), get(&mfc.ppa));
            b.push((name, no_worse(o, l, lower) && no_worse(o, m, lower)));
        }
    }
    let paper = [
        "beats Leiden by up to 5%, MFC by up to 6%",
        "beats Leiden by up to 5%, MFC by up to 13%",
        "beats Leiden by up to 5%, MFC by up to 10%",
    ];
    t.claim_per_metric(
        &best,
        "ours posts the best {metric} of the three on every design",
        &paper,
    );
    Ok(t)
}

/// Table 6: Random vs Uniform vs ML-selected cluster shapes, Innovus-like
/// flow, on designs at [`GNN_DATASET_SCALE`]. The selector is trained once
/// on clusters of aes (the paper's one-time training cost) and applied to
/// every design.
fn table6(outer: &mut Runner) -> Result<Table, FlowError> {
    let mut small = Runner::new(GNN_DATASET_SCALE, outer.profiles.clone());
    let r = &mut small;
    // The shape study needs shapeable clusters at reduced scale, so the
    // threshold drops below the flow default here (the paper's 200-inst
    // floor assumes full-size designs).
    let mut base = r.options().tool(Tool::InnovusLike);
    base.vpr_min_instances = 60;
    let trainer = r.design(Aes);
    let config = DatasetConfig {
        configs: 3,
        min_cells: base.vpr_min_instances / 2,
        max_clusters_per_config: 6,
        base: base.clustering,
        vpr: base.vpr,
        seed: 29,
    };
    let dataset = generate_dataset(&trainer.netlist, &trainer.constraints, &config)?;
    let train = TrainOptions {
        epochs: 40,
        ..Default::default()
    };
    let (selector, stats) = MlShapeSelector::train(&dataset, &train, 7);

    let profiles = r.profiles_in(&[Jpeg, Ariane, MegaBoom]);
    let title = "Table 6 — post-route PPA by shape assignment, Innovus-like flow (rWL normalized to Uniform)";
    let header = "Design | Shape | rWL | WNS (ps) | TNS (ns) | Power (W)";
    let mut t = Table::new(r, "6", title, &profiles, header);
    t.notes.push(format!(
        "Designs held at scale {GNN_DATASET_SCALE} whatever `--scale` says (at 1.0 the V-P&R_ML flow needs 3.7 GB on jpeg and more than 7.5 GB on ariane). Selector trained on {} labeled samples from aes: loss {:.4}, train MAE {:.4}, train R² {:.3}.",
        dataset.len(),
        stats.final_loss,
        stats.train_mae,
        stats.train_r2
    ));
    let mut ordered = vec![Vec::new(); 4];
    for &p in &profiles {
        let mode = |m: ShapeMode| base.clone().shape_mode(m);
        let uniform = r.flow(Flow::Ours, p, &mode(ShapeMode::Uniform))?;
        let random = r.flow(Flow::Ours, p, &mode(ShapeMode::Random))?;
        let ml_mode = ShapeMode::VprMl(Box::new(selector.clone()));
        let ml = r.flow(Flow::Ours, p, &mode(ml_mode))?;
        let name = r.design(p).name();
        for (shape, rep) in [
            ("Random", &random),
            ("Uniform", &uniform),
            ("V-P&R_ML", &ml),
        ] {
            t.ppa_row(name, shape, &rep.ppa, uniform.ppa.rwl);
        }
        for (o, (_, get, lower)) in ordered.iter_mut().zip(METRICS) {
            let (m, u, rnd) = (get(&ml.ppa), get(&uniform.ppa), get(&random.ppa));
            o.push((name, no_worse(m, u, lower) && no_worse(u, rnd, lower)));
        }
    }
    let paper = ["(2, 2)%", "(44, 52)%", "(85, 73)%", "(2, 1)%"]
        .map(|p| format!("ML shapes better than (random, uniform) by {p}"));
    let paper: Vec<&str> = paper.iter().map(String::as_str).collect();
    t.claim_per_metric(
        &ordered,
        "{metric}: V-P&R_ML ≥ Uniform ≥ Random on every design",
        &paper,
    );
    outer.requested += small.requested;
    outer.executed.append(&mut small.executed);
    Ok(t)
}

/// Figure 5: multipliers 1–6 on each of α, β, γ, µ (the others at their
/// defaults); score = post-place HPWL normalised to the default setting,
/// arithmetic mean over the designs (footnote 7).
fn fig5(r: &mut Runner) -> Result<Table, FlowError> {
    let base = r.options().tool(Tool::OpenRoadLike);
    let profiles = r.profiles_in(&small_profiles());
    let title = "Figure 5 — normalized post-place HPWL vs hyperparameter multiplier (1.0 = default setting)";
    let mut t = Table::new(
        r,
        "fig5",
        title,
        &profiles,
        "Parameter | ×1 | ×2 | ×3 | ×4 | ×5 | ×6",
    );
    let mut baseline = Vec::with_capacity(profiles.len());
    for &p in &profiles {
        baseline.push(r.flow(Flow::Ours, p, &base)?.hpwl);
    }
    let mut scores = Vec::new();
    for param in ["alpha", "beta", "gamma", "mu"] {
        let mut row = vec![param.to_string()];
        for mult in 1..=6u32 {
            let m = f64::from(mult);
            let mut opts = base.clone();
            let c = &mut opts.clustering;
            match param {
                "alpha" => c.alpha *= m,
                "beta" => c.beta *= m,
                "gamma" => c.gamma *= m,
                _ => c.mu *= m,
            }
            let mut score = 0.0;
            for (&p, &base_hpwl) in profiles.iter().zip(&baseline) {
                score += r.flow(Flow::Ours, p, &opts)?.hpwl / base_hpwl;
            }
            score /= profiles.len() as f64;
            scores.push(score);
            row.push(format!("{score:.4}"));
        }
        t.rows.push(row);
    }
    let (lo, hi) = min_max(&scores);
    t.claim(
        Some(lo >= 0.95 && hi <= 1.05),
        "every multiplier lands within ±5% of the default hyperparameters",
        "a similar flat band",
        format!("scores {lo:.4}–{hi:.4}"),
    );
    Ok(t)
}

/// §4.4: dataset by perturbed clusterings of aes + jpeg (at
/// [`GNN_DATASET_SCALE`]) labelled by exact V-P&R, split by cluster
/// 70 / 17 / 13, Total-Cost GNN accuracy per split, and the exact-sweep vs
/// ML-selection wall-clock ratio on one cluster of ariane at `r.scale`.
fn gnn(r: &mut Runner) -> Result<Table, FlowError> {
    let mut small = Runner::new(GNN_DATASET_SCALE, vec![Aes, Jpeg]);
    let base = small.options();
    let mut t = Table::new(
        &mut small,
        "gnn",
        "Section 4.4 — GNN model accuracy",
        &[Aes, Jpeg],
        "Split | MAE | R2",
    );
    let mut data: Vec<(GraphSample, f64)> = Vec::new();
    for p in [Aes, Jpeg] {
        let b = small.design(p);
        let config = DatasetConfig {
            configs: GNN_CONFIGS,
            min_cells: base.vpr_min_instances / 2,
            max_clusters_per_config: 8,
            base: ClusteringOptions {
                seed: 7 + p.table1_insts() as u64,
                ..base.clustering
            },
            vpr: base.vpr,
            seed: 31,
        };
        data.extend(generate_dataset(&b.netlist, &b.constraints, &config)?);
        eprintln!("{}: {} samples so far", b.name(), data.len());
    }
    // Split by cluster (20 consecutive samples share a cluster) to avoid
    // leakage: 70% train / 17% validation / 13% test.
    let clusters = data.len() / 20;
    let train_c = (clusters as f64 * 0.70) as usize;
    let val_c = (clusters as f64 * 0.17) as usize;
    let (train_set, rest) = data.split_at(train_c * 20);
    let (val_set, test_set) = rest.split_at(val_c * 20);

    let labels: Vec<f64> = data.iter().map(|(_, l)| *l).collect();
    let mean = labels.iter().sum::<f64>() / labels.len().max(1) as f64;
    let var = labels.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>();
    let std = (var / labels.len().max(1) as f64).sqrt();
    let (lo, hi) = min_max(&labels);
    t.notes.push(format!(
        "Dataset held at scale {GNN_DATASET_SCALE} whatever `--scale` says ({GNN_CONFIGS} clustering perturbations each of aes and jpeg, {GNN_EPOCHS} epochs): {} train / {} validation / {} test samples. Label range [{lo:.3}, {hi:.3}], mean {mean:.3}, std {std:.3} (paper: [0.564, 2.96], mean 1.703, std 0.727).",
        train_set.len(),
        val_set.len(),
        test_set.len()
    ));

    let train = TrainOptions {
        epochs: GNN_EPOCHS,
        ..Default::default()
    };
    let trained = (!train_set.is_empty()).then(|| MlShapeSelector::train(train_set, &train, 13));
    // A split with no cluster has no MAE / R²: NA, not NaN.
    let eval = |set: &[(GraphSample, f64)]| match &trained {
        Some((selector, _)) if !set.is_empty() => Some(selector.evaluate(set)),
        _ => None,
    };
    let splits = [
        (
            "train",
            trained.as_ref().map(|(_, s)| (s.train_mae, s.train_r2)),
        ),
        ("validation", eval(val_set)),
        ("test", eval(test_set)),
    ];
    for (split, m) in splits {
        let cell = |v: Option<f64>| v.map_or("NA".to_string(), |v| format!("{v:.3}"));
        t.rows.push(vec![
            split.to_string(),
            cell(m.map(|m| m.0)),
            cell(m.map(|m| m.1)),
        ]);
    }
    let test_r2 = splits[2].1.map(|m| m.1);
    t.claim(
        test_r2.map(|v| v >= 0.638 - 0.05),
        "the model generalizes to unseen clusters: test R² within 0.05 of the paper's, or above",
        "R² 0.788 / 0.753 / 0.638 (MAE 0.105 / 0.113 / 0.131) on train / validation / test",
        test_r2.map_or("NA".to_string(), |v| format!("test R² {v:.3}")),
    );

    // Acceleration: the exact 20-shape sweep vs ML selection on the largest
    // shapeable cluster of ariane, at the runner's scale.
    let (opts, scale) = (r.options(), r.scale);
    let b = r.design(Ariane);
    let clustering = ppa_aware_clustering(&b.netlist, &b.constraints, &opts.clustering)?;
    let cluster = cluster_members(&clustering.assignment, clustering.cluster_count)
        .into_iter()
        .filter(|m| m.len() >= opts.vpr_min_instances)
        .max_by_key(Vec::len);
    let mut speedup = None;
    if let (Some((selector, _)), Some(cluster)) = (&trained, cluster) {
        let sub = extract_subnetlist(&b.netlist, &cluster)?;
        let t0 = Instant::now();
        best_shape(&sub, &opts.vpr)?;
        let exact_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        selector.select_shape(&sub);
        let ml_s = t1.elapsed().as_secs_f64();
        speedup = Some(exact_s / ml_s.max(1e-9));
        t.notes.push(format!(
            "Acceleration measured on a {}-cell cluster of ariane at scale {scale}: exact V-P&R {exact_s:.3}s vs ML {ml_s:.3}s.",
            sub.cell_count()
        ));
    }
    t.claim(
        speedup.map(|s| s > 1.0),
        "ML shape selection is faster than the exact 20-run V-P&R sweep it replaces",
        "~30× acceleration",
        speedup.map_or("NA".to_string(), |s| format!("{s:.1}×")),
    );
    Ok(t)
}

/// Ablation of the three PPA signals the clustering adds to connectivity
/// (hierarchy, timing-path criticality, switching activity), OpenROAD-like
/// flow. Not a paper table; its repository publishes the same study. A
/// signal of Eq. 3 is ablated by zeroing its weight (β for timing, γ for
/// switching); hierarchy is not a weight, so it keeps its toggle.
fn ablation(r: &mut Runner) -> Result<Table, FlowError> {
    let base = r.options().tool(Tool::OpenRoadLike);
    let (beta, gamma) = (base.clustering.beta, base.clustering.gamma);
    let variants = [
        ("full", (true, beta, gamma)),
        ("no hierarchy", (false, beta, gamma)),
        ("no timing", (true, 0.0, gamma)),
        ("no switching", (true, beta, 0.0)),
        ("connectivity only", (false, 0.0, 0.0)),
    ];
    let profiles = r.profiles_in(&small_profiles());
    let title = "Ablation — post-route PPA by ablated signal (normalized to the default flat flow)";
    let header = "Design | Variant | HPWL | rWL | WNS (ps) | TNS (ns) | Power (W)";
    let mut t = Table::new(r, "ablation", title, &profiles, header);
    for &p in &profiles {
        let default = r.flow(Flow::Default, p, &base)?;
        let name = r.design(p).name();
        for (variant, (use_hierarchy, beta, gamma)) in variants {
            let mut opts = base.clone();
            opts.clustering = ClusteringOptions {
                use_hierarchy,
                beta,
                gamma,
                ..base.clustering
            };
            let rep = r.flow(Flow::Ours, p, &opts)?;
            t.ppa_row(name, variant, &rep.ppa, default.ppa.rwl);
            let last = t.rows.len() - 1;
            t.rows[last].insert(2, fmt_norm(rep.hpwl, default.hpwl));
        }
        if let Some(note) = inert_hierarchy_note(r, p, &base.clustering)? {
            t.notes.push(note);
        }
    }
    Ok(t)
}

/// Says so when the hierarchy toggle cannot move `profile`'s rows:
/// `ppa_aware_clustering` under `options` keeps no dendrogram level — it
/// drops a level with fewer than half the FC target's clusters — so "no
/// hierarchy" clusters exactly as "full" does.
fn inert_hierarchy_note(
    r: &mut Runner,
    profile: DesignProfile,
    options: &ClusteringOptions,
) -> Result<Option<String>, FlowError> {
    let b = r.design(profile);
    if !options.use_hierarchy
        || ppa_aware_clustering(&b.netlist, &b.constraints, options)?
            .dendrogram_level
            .is_some()
    {
        return Ok(None);
    }
    let target = options.target_clusters(b.netlist.cell_count());
    let level = cluster_by_hierarchy_with_min(&b.netlist, &b.netlist.to_hypergraph(), target);
    Ok(Some(format!(
        "{}: \"no hierarchy\" equals \"full\". The dendrogram level has {} clusters \
         against an FC target of {target}, under half of it, so the clustering \
         drops it and runs without grouping constraints.",
        b.name(),
        level.cluster_count
    )))
}

/// Classic clustering criteria for Leiden, MFC and ours — read against
/// Table 5: the paper's §2 argument is that they do not predict PPA.
fn quality(r: &mut Runner) -> Result<Table, FlowError> {
    let opts = r.options();
    let profiles = r.profiles_in(&small_profiles());
    let title =
        "Supplementary — classic clustering criteria per method (compare with Table 5's PPA)";
    let header = "Design | Method | #Clusters | Cutsize | K−1 | Modularity | Balance | Rent";
    let mut t = Table::new(r, "quality", title, &profiles, header);
    for &p in &profiles {
        let b = r.design(p);
        let hg = b.netlist.to_hypergraph();
        let (leiden, _) = leiden_assignment(&b.netlist, opts.clustering.seed);
        let (mfc, _) = mfc_assignment(&b.netlist, &opts.clustering);
        let ours = ppa_aware_clustering(&b.netlist, &b.constraints, &opts.clustering)?;
        for (method, labels) in [
            ("Leiden", &leiden),
            ("MFC", &mfc),
            ("Ours", &ours.assignment),
        ] {
            let q = clustering_quality(&hg, labels);
            t.rows.push(vec![
                b.name().to_string(),
                method.to_string(),
                q.cluster_count.to_string(),
                q.cutsize.to_string(),
                q.k_minus_one.to_string(),
                format!("{:.3}", q.modularity),
                format!("{:.2}", q.balance),
                format!("{:.3}", q.rent),
            ]);
        }
    }
    Ok(t)
}

/// Seconds per stage of Algorithm 1: a view of [`FlowReport::timings`] of
/// Table 2's "Ours" run.
fn runtime(r: &mut Runner) -> Result<Table, FlowError> {
    let opts = r.options().tool(Tool::OpenRoadLike);
    let profiles = r.profiles.clone();
    let title = format!(
        "Runtime breakdown — seconds per stage of our flow (Table 2's run, {} threads)",
        cp_parallel::current_threads()
    );
    let mut t = Table::new(r, "runtime", &title, &profiles, "Design");
    t.header.extend(stages::ALL);
    t.header.push("total");
    for &p in &profiles {
        let ours = r.flow(Flow::Ours, p, &opts)?;
        let secs = |s: Option<f64>| s.map_or("—".to_string(), |s| format!("{s:.2}"));
        let mut row = vec![r.design(p).name().to_string()];
        row.extend(stages::ALL.iter().map(|s| secs(ours.timings.get(s))));
        row.push(secs(Some(ours.timings.total())));
        t.rows.push(row);
    }
    Ok(t)
}

/// The flat default flow under each spreading backend, otherwise identical
/// options: legalized HPWL and placement wall.
fn backend(r: &mut Runner) -> Result<Table, FlowError> {
    let opts = r.options().tool(Tool::OpenRoadLike);
    let profiles = r.profiles_in(&small_profiles());
    let title = "Spreading backend A/B — the flat default flow under b2b and eDensity";
    let header = "Design | Backend | HPWL | HPWL / b2b | Placement s | Placement / b2b";
    let mut t = Table::new(r, "backend", title, &profiles, header);
    for &p in &profiles {
        let b2b = r.flow(Flow::Default, p, &opts)?;
        for kind in [PlacerBackendKind::B2b, PlacerBackendKind::EDensity] {
            let mut with_kind = opts.clone();
            with_kind.placer.backend = kind;
            let rep = r.flow(Flow::Default, p, &with_kind)?;
            t.rows.push(vec![
                r.design(p).name().to_string(),
                kind.name().to_string(),
                format!("{:.0}", rep.hpwl),
                fmt_norm(rep.hpwl, b2b.hpwl),
                format!("{:.2}", rep.placement_runtime),
                fmt_norm(rep.placement_runtime, b2b.placement_runtime),
            ]);
        }
    }
    Ok(t)
}

impl Table {
    /// The section EXPERIMENTS.md embeds: heading, table, notes, verdicts.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("## {}\n\n", self.title);
        let designs = self.designs.join(", ");
        let _ = writeln!(s, "Scale {}; designs: {designs}.\n", self.scale);
        let _ = writeln!(s, "| {} |", self.header.join(" | "));
        let _ = writeln!(s, "|{}|", vec!["---"; self.header.len()].join("|"));
        for row in &self.rows {
            let _ = writeln!(s, "| {} |", row.join(" | "));
        }
        for note in &self.notes {
            let _ = writeln!(s, "\n{note}");
        }
        if !self.claims.is_empty() {
            s.push('\n');
        }
        for c in &self.claims {
            let verdict = match c.holds {
                Some(true) => "holds",
                Some(false) => "does not hold",
                None => "unresolved",
            };
            let provisional = if c.provisional { " (provisional)" } else { "" };
            let (text, paper, measured) = (&c.text, &c.paper, &c.measured);
            let _ = writeln!(
                s,
                "- **{verdict}{provisional}** — {text}. Paper: {paper}. Measured: {measured}."
            );
        }
        s
    }

    fn write_json(&self, w: &mut Writer) {
        fn strings<S: AsRef<str>>(w: &mut Writer, v: &[S]) {
            w.array_spaced();
            for s in v {
                w.str(s.as_ref());
            }
            w.end();
        }
        w.object_lines().key("id").str(self.id);
        w.key("title").str(&self.title);
        w.key("scale").f64(self.scale);
        w.key("designs");
        strings(w, &self.designs);
        w.key("header");
        strings(w, &self.header);
        w.key("rows").array_lines();
        for row in &self.rows {
            strings(w, row);
        }
        w.end().key("notes");
        strings(w, &self.notes);
        w.key("claims").array_lines();
        for c in &self.claims {
            w.object_spaced().key("text").str(&c.text);
            w.key("paper").str(&c.paper);
            w.key("measured").str(&c.measured).key("holds");
            match c.holds {
                Some(holds) => w.bool(holds),
                None => w.null(),
            };
            w.key("provisional").bool(c.provisional).end();
        }
        w.end().end();
    }
}

/// `REPRO.json` (`schemas/repro.schema.json`): the run's scale, host and
/// wall time, the runner's flow-run counts, and every table with its claims.
pub fn to_json(r: &Runner, tables: &[Table], wall_s: f64) -> String {
    let mut w = Writer::new();
    w.object_lines().key("version").u64(1);
    w.key("scale").f64(r.scale);
    let (threads, cores) = (
        cp_parallel::current_threads(),
        cp_parallel::detected_cores(),
    );
    w.key("threads").u64(threads as u64);
    w.key("detected_cores").u64(cores as u64);
    w.key("wall_s").f64((wall_s * 1000.0).round() / 1000.0);
    w.key("flow_runs").object_spaced();
    w.key("distinct").u64(r.executed.len() as u64);
    w.key("requested").u64(r.requested as u64);
    w.key("per_design").array_spaced();
    for (design, distinct) in r.runs_per_design() {
        w.object_spaced().key("design").str(design);
        w.key("distinct").u64(distinct as u64).end();
    }
    w.end().end().key("tables").array_lines();
    for t in tables {
        t.write_json(&mut w);
    }
    w.end().end();
    let mut text = w.finish();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_trace::json::{parse, validate};

    #[test]
    fn document_matches_its_golden_bytes() {
        let claim = |n: u32, holds, provisional| Claim {
            text: format!("t{n}"),
            paper: format!("p{n}"),
            measured: format!("m{n}"),
            holds,
            provisional,
        };
        let row = |cells: [&str; 2]| cells.map(str::to_string).to_vec();
        let t = Table {
            id: "2",
            title: "Table 2 \u{2014} \"quoted\" title".to_string(),
            scale: 0.03125,
            designs: vec!["aes", "jpeg"],
            header: vec!["Design", "HPWL"],
            rows: vec![row(["aes", "1.141"]), row(["jpeg", "0.734"])],
            notes: vec!["a note".to_string(), "tab\there".to_string()],
            claims: vec![claim(1, Some(true), false), claim(2, None, true)],
        };
        let empty = Table {
            id: "1",
            title: "empty".to_string(),
            scale: 1.0,
            designs: vec![],
            header: vec![],
            rows: vec![],
            notes: vec![],
            claims: vec![],
        };
        let mut r = Runner::new(0.03125, vec![]);
        r.executed = vec![
            (Flow::Default, "aes", 1),
            (Flow::Ours, "aes", 2),
            (Flow::Ours, "jpeg", 3),
        ];
        r.requested = 5;
        let golden = r#"{
  "version": 1,
  "scale": 0.03125,
  "threads": THREADS,
  "detected_cores": CORES,
  "wall_s": 1.235,
  "flow_runs": {"distinct": 3, "requested": 5, "per_design": [{"design": "aes", "distinct": 2}, {"design": "jpeg", "distinct": 1}]},
  "tables": [
    {
      "id": "2",
      "title": "Table 2 — \"quoted\" title",
      "scale": 0.03125,
      "designs": ["aes", "jpeg"],
      "header": ["Design", "HPWL"],
      "rows": [
        ["aes", "1.141"],
        ["jpeg", "0.734"]
      ],
      "notes": ["a note", "tab\there"],
      "claims": [
        {"text": "t1", "paper": "p1", "measured": "m1", "holds": true, "provisional": false},
        {"text": "t2", "paper": "p2", "measured": "m2", "holds": null, "provisional": true}
      ]
    },
    {
      "id": "1",
      "title": "empty",
      "scale": 1.0,
      "designs": [],
      "header": [],
      "rows": [

      ],
      "notes": [],
      "claims": [

      ]
    }
  ]
}
"#;
        let golden = golden
            .replace("THREADS", &cp_parallel::current_threads().to_string())
            .replace("CORES", &cp_parallel::detected_cores().to_string());
        assert_eq!(to_json(&r, &[t, empty], 1.23456), golden);
    }

    /// On Jpeg @ 1/32 the one dendrogram level has 5 clusters against an
    /// FC target of 27, so the clustering drops it and the ablation's
    /// hierarchy toggle changes nothing; the table says so.
    #[test]
    fn ablation_notes_an_inert_hierarchy_toggle() {
        let mut r = Runner::new(1.0 / 32.0, vec![Jpeg]);
        let base = r.options().clustering;
        let note = inert_hierarchy_note(&mut r, Jpeg, &base)
            .expect("clustering runs")
            .expect("the level is dropped");
        assert!(note.starts_with("jpeg: "), "{note}");
        assert!(
            note.contains("5 clusters against an FC target of 27"),
            "{note}"
        );
        let off = ClusteringOptions {
            use_hierarchy: false,
            ..base
        };
        assert_eq!(
            inert_hierarchy_note(&mut r, Jpeg, &off).expect("runs"),
            None
        );
    }

    /// The CPU claim holds only when every `ours` run beats every default
    /// run on every design, fails as soon as one design's fastest `ours`
    /// run is no faster than its slowest default run, and is unresolved
    /// when the runs overlap.
    #[test]
    fn cpu_verdict_needs_every_run_on_one_side() {
        let design = |ours: [f64; 3], default: [f64; 3]| (ours.to_vec(), default.to_vec());
        let clear = design([0.4, 0.5, 0.45], [0.6, 0.7, 0.65]);
        let overlap = design([0.4, 0.62, 0.5], [0.6, 0.7, 0.65]);
        let slower = design([0.7, 0.8, 0.75], [0.6, 0.7, 0.65]);
        assert_eq!(cpu_verdict(&[clear.clone(), clear.clone()]), Some(true));
        assert_eq!(cpu_verdict(&[clear.clone(), overlap.clone()]), None);
        assert_eq!(cpu_verdict(&[overlap.clone(), slower.clone()]), Some(false));
        assert_eq!(cpu_verdict(&[slower, clear]), Some(false));
        // A tie between the extremes is not a win.
        assert_eq!(cpu_verdict(&[design([0.5; 3], [0.5; 3])]), Some(false));
        assert_eq!(cpu_verdict(&[overlap]), None);
    }

    /// Tables 2, 3 and 5 on aes share the flat flow and the
    /// `OpenRoadLike + Vpr` flow: each runs once.
    #[test]
    fn shared_flows_run_once_and_json_matches_schema() {
        let mut r = Runner::new(1.0 / 64.0, vec![Aes]);
        let tables: Vec<Table> = ["2", "3", "5"]
            .iter()
            .map(|id| table(&mut r, id).expect("known id").expect("table runs"))
            .collect();
        let ran = |kind: Flow| r.executed.iter().filter(|e| e.0 == kind).count();
        assert_eq!(
            ran(Flow::Default),
            1,
            "the flat flow is keyed on what it reads"
        );
        let vpr = r
            .options()
            .tool(Tool::OpenRoadLike)
            .shape_mode(ShapeMode::Vpr);
        let vpr_key = (Flow::Ours, "aes", fingerprint(&r.design(Aes).netlist, &vpr));
        let vpr_runs = r.executed.iter().filter(|e| **e == vpr_key).count();
        assert_eq!(vpr_runs, 1, "Tables 3 and 5 share `Ours`");
        // default, ours-uniform, blob; ours-vpr; leiden, mfc.
        assert_eq!(r.executed.len(), 6);
        assert_eq!(r.requested, 3 + 2 + 4);

        // One row per (design, variant).
        assert_eq!(
            tables.iter().map(|t| t.rows.len()).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        for t in &tables {
            assert!(t.rows.iter().all(|row| row.len() == t.header.len()));
            assert!(!t.claims.is_empty());
            assert!(t.to_markdown().contains(&t.title));
        }

        let schema = parse(SCHEMA_JSON).expect("schema parses");
        let doc = parse(&to_json(&r, &tables, 1.25)).expect("REPRO.json parses");
        assert_eq!(validate(&doc, &schema), Vec::<String>::new());
        assert!(table(&mut r, "7").is_none() && !TABLES.contains(&"7"));
    }
}
