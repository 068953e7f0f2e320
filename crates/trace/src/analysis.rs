//! Trace analytics: self-time attribution, critical-path extraction,
//! flamegraph export and run-over-run report diffing.
//!
//! [`Analysis`] is the common entry point. [`Analysis::from_report`]
//! takes anything that converts into a [`ReportDoc`] — a live
//! [`TraceReport`](crate::TraceReport) or a document decoded by
//! [`ReportDoc::from_json`] — so the same analytics run in-process (the
//! `tracetool gate` fresh run) and offline on a written artifact
//! (`tracetool summarize/diff` on `TRACE_report.json`).
//!
//! # Self-time
//!
//! A span's **self-time** is its wall time minus the wall time of its
//! *direct* children: `self(s) = wall(s) − Σ wall(child)`. With parallel
//! children (cross-thread adoption via
//! [`run_with_parent`](crate::run_with_parent)) the children's wall
//! times can overlap and sum to more than the parent's, so self-time can
//! be **negative** — that is a signal (the span fanned work out), not an
//! error. The definition telescopes: summed over every span of a tree,
//! self-time equals the root's wall time *exactly* (in integer
//! nanoseconds), which is what makes per-name aggregation a partition of
//! the run and lets `tracetool gate` reason about shares.
//!
//! # Critical path
//!
//! The critical path is extracted by walking from the root and
//! repeatedly descending into the child with the largest wall time (ties
//! broken by earliest start, then insertion order). Parent/child links
//! are id-based, so a child adopted onto another thread by the
//! `cp-parallel` pool is followed like any other — the path freely
//! crosses threads.
//!
//! # Diffing and the noise model
//!
//! [`TraceDiff`] compares two runs span-name-by-span-name and
//! metric-by-metric. Runtime comparisons use a relative-tolerance noise
//! model (`|new − base| > max(abs_tol, rel_tol·|base|)` counts as a
//! change) because wall-clock jitters; metric comparisons default to
//! exact because the flow's outputs are bitwise deterministic. A diff is
//! always one run against one run; rejecting a slow repetition is the
//! caller's job (`tracetool gate` diffs its fastest rep).

use crate::report::ReportDoc;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Analysis

/// One span, resolved into tree form.
#[derive(Debug, Clone)]
struct ASpan {
    name: String,
    thread: u32,
    start_ns: u64,
    dur_ns: u64,
    children: Vec<usize>,
    /// `dur_ns − Σ child dur_ns`; negative when children overlapped
    /// (parallel fan-out).
    self_ns: i64,
}

/// A scalar-valued view of one metric (histograms expose count and sum).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricReading {
    /// Metric name.
    pub name: String,
    /// Slot for per-instance metrics.
    pub slot: Option<u32>,
    /// The reading.
    pub value: MetricReadingValue,
}

/// The value kinds a [`MetricReading`] can carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricReadingValue {
    /// Monotonic counter.
    Counter(f64),
    /// Latest-value gauge.
    Gauge(f64),
    /// Histogram, reduced to observation count and sum.
    Histogram {
        /// Observations recorded.
        count: f64,
        /// Sum of observations.
        sum: f64,
    },
}

/// Aggregated per-name timing (the rows of a self-time profile).
#[derive(Debug, Clone, PartialEq)]
pub struct NameAgg {
    /// Span name.
    pub name: String,
    /// Spans with this name.
    pub count: u64,
    /// Total wall seconds (nested same-name spans count repeatedly).
    pub wall_s: f64,
    /// Total self seconds (a partition of the root's wall time).
    pub self_s: f64,
}

/// One step of the critical path, root first.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Depth below the root (root = 0).
    pub depth: usize,
    /// Thread ordinal the span ran on.
    pub thread: u32,
    /// Start relative to the trace epoch, seconds.
    pub start_s: f64,
    /// Wall seconds.
    pub wall_s: f64,
    /// Self seconds (wall minus direct children).
    pub self_s: f64,
}

/// An analyzed span tree plus the run's metric readings.
#[derive(Debug, Clone)]
pub struct Analysis {
    spans: Vec<ASpan>,
    root: usize,
    metrics: Vec<MetricReading>,
    /// Events lost to the collector's buffer cap.
    pub dropped_events: u64,
}

impl Analysis {
    /// Builds the analysis from a live report or a decoded one.
    ///
    /// # Errors
    ///
    /// When the report's root span is missing from its spans.
    pub fn from_report(report: impl Into<ReportDoc>) -> Result<Self, String> {
        let ReportDoc {
            root: root_id,
            dropped_events,
            spans: mut rows,
            metrics,
            ..
        } = report.into();
        let index_of: BTreeMap<u64, usize> =
            rows.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        let root = *index_of
            .get(&root_id)
            .ok_or_else(|| format!("root span {root_id} not present in the report"))?;
        let mut spans: Vec<ASpan> = rows
            .iter_mut()
            .map(|r| ASpan {
                name: std::mem::take(&mut r.name),
                thread: r.thread,
                start_ns: r.start_ns,
                dur_ns: r.dur_ns,
                children: Vec::new(),
                self_ns: r.dur_ns as i64,
            })
            .collect();
        for (i, r) in rows.iter().enumerate() {
            if r.id == root_id {
                continue;
            }
            // Orphans (parent pruned from the capture) attach to the root
            // so the tree stays connected and self-time still telescopes.
            let p = index_of.get(&r.parent).copied().unwrap_or(root);
            spans[p].children.push(i);
            spans[p].self_ns -= r.dur_ns as i64;
        }
        // Children in start order (stable for equal starts: insertion
        // order above follows the report's span order).
        for s in &mut spans {
            s.children.sort_by_key(|&c| (rows[c].start_ns, rows[c].id));
        }
        Ok(Self {
            spans,
            root,
            metrics,
            dropped_events,
        })
    }

    /// Number of spans analyzed.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The root span's name.
    pub fn root_name(&self) -> &str {
        &self.spans[self.root].name
    }

    /// The root span's wall time, seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.spans[self.root].dur_ns as f64 * 1e-9
    }

    /// The metric readings captured with the trace.
    pub fn metrics(&self) -> &[MetricReading] {
        &self.metrics
    }

    /// Gauge readings whose name starts with `prefix`, in name order —
    /// how `tracetool gate` pulls the `qor.*` snapshot out of a report.
    pub fn gauges_with_prefix(&self, prefix: &str) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .metrics
            .iter()
            .filter(|m| m.name.starts_with(prefix))
            .filter_map(|m| match m.value {
                MetricReadingValue::Gauge(v) => Some((m.name.clone(), v)),
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Total self-time across every span, seconds. Telescopes to
    /// [`Self::duration_seconds`] exactly (integer-nanosecond identity)
    /// when every span descends from the root.
    pub fn total_self_seconds(&self) -> f64 {
        self.spans.iter().map(|s| s.self_ns).sum::<i64>() as f64 * 1e-9
    }

    /// Per-name aggregation, sorted by descending self-time (ties by
    /// name). The `self_s` column is a partition of the root wall time.
    pub fn self_time_by_name(&self) -> Vec<NameAgg> {
        let mut by_name: BTreeMap<&str, (u64, i64, i64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(&s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.dur_ns as i64;
            e.2 += s.self_ns;
        }
        let mut rows: Vec<NameAgg> = by_name
            .into_iter()
            .map(|(name, (count, wall, selft))| NameAgg {
                name: name.to_string(),
                count,
                wall_s: wall as f64 * 1e-9,
                self_s: selft as f64 * 1e-9,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.self_s
                .partial_cmp(&a.self_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        rows
    }

    /// The index of the heaviest child of `i` (largest wall, ties to the
    /// earliest start, then lowest index), when `i` has children.
    fn heaviest_child(&self, i: usize) -> Option<usize> {
        self.spans[i].children.iter().copied().max_by(|&a, &b| {
            let (sa, sb) = (&self.spans[a], &self.spans[b]);
            sa.dur_ns
                .cmp(&sb.dur_ns)
                .then_with(|| sb.start_ns.cmp(&sa.start_ns))
                .then_with(|| b.cmp(&a))
        })
    }

    /// The critical path: root first, each step the heaviest child of the
    /// previous one. Crosses threads wherever cross-thread adoption put a
    /// child on another worker.
    pub fn critical_path(&self) -> Vec<PathStep> {
        let mut path = Vec::new();
        let mut cur = self.root;
        let mut depth = 0;
        loop {
            let s = &self.spans[cur];
            path.push(PathStep {
                name: s.name.clone(),
                depth,
                thread: s.thread,
                start_s: s.start_ns as f64 * 1e-9,
                wall_s: s.dur_ns as f64 * 1e-9,
                self_s: s.self_ns as f64 * 1e-9,
            });
            match self.heaviest_child(cur) {
                Some(c) => {
                    cur = c;
                    depth += 1;
                }
                None => return path,
            }
        }
    }

    /// Collapsed-stack ("folded") flamegraph export, loadable by inferno
    /// and speedscope: one line per distinct stack,
    /// `root;child;…;leaf <self_ns>`. Counts are self-time in integer
    /// nanoseconds, clamped at zero (a parallel fan-out span contributes
    /// its children's stacks, not a negative count); zero-count stacks
    /// are omitted. Sibling spans with the same name fold into one line.
    pub fn folded(&self) -> String {
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        let mut frames: Vec<String> = Vec::new();
        self.fold_into(self.root, &mut frames, &mut stacks);
        let mut out = String::new();
        for (stack, count) in stacks {
            if count > 0 {
                let _ = writeln!(out, "{stack} {count}");
            }
        }
        out
    }

    fn fold_into(&self, i: usize, frames: &mut Vec<String>, stacks: &mut BTreeMap<String, u64>) {
        let s = &self.spans[i];
        frames.push(sanitize_frame(&s.name));
        let stack = frames.join(";");
        *stacks.entry(stack).or_insert(0) += s.self_ns.max(0) as u64;
        for &c in &s.children {
            self.fold_into(c, frames, stacks);
        }
        frames.pop();
    }

    /// `(name, subtree self-time seconds)` for each direct child of the
    /// root, in start order. By the telescoping identity each subtree's
    /// self-time equals the child span's wall time, so these reconcile
    /// with [`TraceReport::stage_seconds`](crate::TraceReport::stage_seconds)
    /// to nanosecond precision.
    pub fn stage_self_seconds(&self) -> Vec<(String, f64)> {
        self.spans[self.root]
            .children
            .iter()
            .map(|&c| {
                (
                    self.spans[c].name.clone(),
                    self.subtree_self_ns(c) as f64 * 1e-9,
                )
            })
            .collect()
    }

    fn subtree_self_ns(&self, i: usize) -> i64 {
        let mut total = self.spans[i].self_ns;
        for &c in &self.spans[i].children {
            total += self.subtree_self_ns(c);
        }
        total
    }
}

/// Folded-format frames may not contain the stack separator or line
/// breaks; spaces are fine (parsers split the count off the *last*
/// space).
fn sanitize_frame(name: &str) -> String {
    name.replace(';', ":").replace(['\n', '\r'], " ")
}

// ---------------------------------------------------------------------------
// Diff

/// Tolerances for [`TraceDiff`]: a change is *significant* when
/// `|new − base| > max(abs, rel·|base|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Relative tolerance on wall/self times (scheduling noise).
    pub time_rel_tol: f64,
    /// Absolute floor on time deltas, seconds (sub-floor spans jitter
    /// wildly in relative terms but never matter).
    pub time_abs_tol_s: f64,
    /// Relative tolerance on metric values; 0 = exact, the right default
    /// for a bitwise-deterministic flow.
    pub metric_rel_tol: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            time_rel_tol: 0.10,
            time_abs_tol_s: 1e-4,
            metric_rel_tol: 0.0,
        }
    }
}

/// What a [`DiffEntry`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffKind {
    /// Per-name self-time, seconds.
    SelfTime,
    /// Per-name total wall time, seconds.
    WallTime,
    /// Per-name span count.
    SpanCount,
    /// A metric value (counter/gauge value, histogram sum or count).
    Metric,
}

/// One significant difference between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// What changed.
    pub kind: DiffKind,
    /// Span name or metric name (histograms add `/count`).
    pub name: String,
    /// Baseline value (NaN when absent from the baseline).
    pub base: f64,
    /// New value (NaN when absent from the new run).
    pub new: f64,
}

impl DiffEntry {
    /// `new − base`.
    pub fn delta(&self) -> f64 {
        self.new - self.base
    }

    /// `new / base` (NaN when the base is 0 or either side is absent).
    pub fn ratio(&self) -> f64 {
        if self.base == 0.0 {
            f64::NAN
        } else {
            self.new / self.base
        }
    }

    /// `true` when the change is in the bad direction (more time, or any
    /// metric/count change at all).
    pub fn is_regression(&self) -> bool {
        match self.kind {
            DiffKind::SelfTime | DiffKind::WallTime => {
                self.new.is_nan() || self.base.is_nan() || self.new > self.base
            }
            DiffKind::SpanCount | DiffKind::Metric => true,
        }
    }
}

/// The significant differences between two runs (empty = within noise).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDiff {
    /// Significant changes, span rows first (by name), then metrics.
    pub entries: Vec<DiffEntry>,
}

/// Per-name `(count, wall_s, self_s)`.
type TimeRows = BTreeMap<String, (u64, f64, f64)>;

impl TraceDiff {
    /// Diffs one baseline run against one new run.
    pub fn between(base: &Analysis, new: &Analysis, opts: &DiffOptions) -> Self {
        let mut entries = Vec::new();
        let b_rows = time_rows(base);
        let n_rows = time_rows(new);
        let mut names: Vec<&String> = b_rows.keys().chain(n_rows.keys()).collect();
        names.sort();
        names.dedup();
        for name in names {
            let (bc, bw, bs) = b_rows.get(name).copied().unwrap_or((0, 0.0, 0.0));
            let (nc, nw, ns) = n_rows.get(name).copied().unwrap_or((0, 0.0, 0.0));
            if bc != nc {
                entries.push(DiffEntry {
                    kind: DiffKind::SpanCount,
                    name: name.clone(),
                    base: bc as f64,
                    new: nc as f64,
                });
            }
            for (kind, bv, nv) in [(DiffKind::WallTime, bw, nw), (DiffKind::SelfTime, bs, ns)] {
                if significant(bv, nv, opts.time_rel_tol, opts.time_abs_tol_s) {
                    entries.push(DiffEntry {
                        kind,
                        name: name.clone(),
                        base: bv,
                        new: nv,
                    });
                }
            }
        }
        entries.extend(diff_metrics(base, new, opts));
        Self { entries }
    }

    /// `true` when nothing changed beyond the tolerances.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries that changed in the bad direction.
    pub fn regressions(&self) -> Vec<&DiffEntry> {
        self.entries.iter().filter(|e| e.is_regression()).collect()
    }
}

pub(crate) fn significant(base: f64, new: f64, rel: f64, abs: f64) -> bool {
    if base.is_nan() || new.is_nan() {
        return true;
    }
    (new - base).abs() > abs.max(rel * base.abs())
}

fn time_rows(a: &Analysis) -> TimeRows {
    a.self_time_by_name()
        .into_iter()
        .map(|agg| (agg.name, (agg.count, agg.wall_s, agg.self_s)))
        .collect()
}

/// Scalar views of one side's metrics, keyed for matching.
fn metric_scalars(a: &Analysis) -> BTreeMap<(String, Option<u32>), f64> {
    let mut out = BTreeMap::new();
    for m in a.metrics() {
        match m.value {
            MetricReadingValue::Counter(v) | MetricReadingValue::Gauge(v) => {
                out.insert((m.name.clone(), m.slot), v);
            }
            MetricReadingValue::Histogram { count, sum } => {
                out.insert((m.name.clone(), m.slot), sum);
                out.insert((format!("{}/count", m.name), m.slot), count);
            }
        }
    }
    out
}

fn diff_metrics(base: &Analysis, new: &Analysis, opts: &DiffOptions) -> Vec<DiffEntry> {
    let b = metric_scalars(base);
    let n = metric_scalars(new);
    let mut keys: Vec<&(String, Option<u32>)> = b.keys().chain(n.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut out = Vec::new();
    for key in keys {
        let bv = b.get(key).copied().unwrap_or(f64::NAN);
        let nv = n.get(key).copied().unwrap_or(f64::NAN);
        if significant(bv, nv, opts.metric_rel_tol, 0.0) {
            let name = match key.1 {
                Some(slot) => format!("{}[{slot}]", key.0),
                None => key.0.clone(),
            };
            out.push(DiffEntry {
                kind: DiffKind::Metric,
                name,
                base: bv,
                new: nv,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Convergence doctor

/// What a [`Verdict`] diagnoses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// The convergence series stopped moving while the run kept
    /// iterating: wasted work, nothing converging.
    Stall,
    /// The objective bounces between two regimes instead of descending.
    Oscillation,
    /// The objective blew up (or the placer had to revert to a
    /// snapshot).
    Divergence,
    /// The same bins stay overloaded across most density frames — a
    /// spatial bottleneck spreading never clears.
    HotspotPersistence,
    /// Spreading keeps displacing cells as hard late in the run as it
    /// did at the start: the lower bound and the upper bound fight.
    DisplacementConflict,
    /// A base-vs-new comparison found a regression.
    Regression,
}

impl VerdictKind {
    /// Stable machine-readable label.
    pub fn as_str(self) -> &'static str {
        match self {
            VerdictKind::Stall => "stall",
            VerdictKind::Oscillation => "oscillation",
            VerdictKind::Divergence => "divergence",
            VerdictKind::HotspotPersistence => "hotspot-persistence",
            VerdictKind::DisplacementConflict => "displacement-conflict",
            VerdictKind::Regression => "regression",
        }
    }
}

/// How bad a verdict is. Ordered: `Info < Warning < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing, not actionable on its own.
    Info,
    /// Quality or efficiency is likely suffering.
    Warning,
    /// The run is broken or wasting most of its work.
    Critical,
}

impl Severity {
    /// Stable machine-readable label.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One structured diagnosis: what went wrong, where, how badly, the
/// numbers that prove it, and what to try.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// What was diagnosed.
    pub kind: VerdictKind,
    /// The stage (direct child of the flow root) the anomaly lives in.
    pub stage: String,
    /// How bad it is.
    pub severity: Severity,
    /// The numbers behind the diagnosis.
    pub evidence: String,
    /// What to try next.
    pub suggestion: String,
}

/// One convergence-series group, resolved to its stage: the rows of a
/// `(name, emitting span)` series with the span mapped to the stage it
/// ran under.
#[derive(Debug, Clone)]
pub struct SeriesGroup {
    /// Series name (e.g. `place.outer`).
    pub name: String,
    /// Stage the emitting span belongs to.
    pub stage: String,
    /// One map per iteration, `"i"` plus the recorded columns.
    pub rows: Vec<BTreeMap<String, f64>>,
}

impl SeriesGroup {
    /// One column across the rows (missing cells are skipped).
    fn column(&self, key: &str) -> Vec<f64> {
        self.rows
            .iter()
            .filter_map(|r| r.get(key).copied())
            .collect()
    }
}

/// Maps every span id to the name of the stage (direct child of the
/// root, with `flow.*` wrappers transparent) whose subtree contains it.
fn stage_of_spans(doc: &ReportDoc) -> BTreeMap<u64, String> {
    let (spans, root) = (&doc.spans, doc.root);
    let by_id: BTreeMap<u64, (u64, &str)> = spans
        .iter()
        .map(|s| (s.id, (s.parent, s.name.as_str())))
        .collect();
    let mut out = BTreeMap::new();
    for id in spans.iter().map(|s| s.id) {
        let mut cur = id;
        let mut stage: Option<&str> = None;
        // Climb to the root; the last non-wrapper node below it (or
        // below a `flow.*` wrapper that is itself below the root) is
        // the stage.
        for _ in 0..spans.len() {
            let Some(&(parent, name)) = by_id.get(&cur) else {
                break;
            };
            if cur == root {
                break;
            }
            let parent_is_top = parent == root
                || by_id
                    .get(&parent)
                    .is_some_and(|&(gp, pname)| gp == root && pname.starts_with("flow."));
            if parent_is_top && !name.starts_with("flow.") {
                stage = Some(name);
                break;
            }
            cur = parent;
        }
        if let Some(s) = stage {
            out.insert(id, s.to_string());
        }
    }
    out
}

/// The convergence doctor: detectors over convergence series and field
/// frames, emitting ranked [`Verdict`]s. All thresholds are public so a
/// caller can tighten or relax the diagnosis.
#[derive(Debug, Clone)]
pub struct Doctor {
    /// The convergence series to analyze (default `place.outer`).
    pub series_name: String,
    /// Minimum rows before series detectors speak (default 6).
    pub min_rows: usize,
    /// Relative tolerance under which consecutive values count as flat
    /// (default `1e-9` — a healthy run moves at least in the last few
    /// ulps every iteration).
    pub flat_rel_tol: f64,
    /// Minimum relative amplitude for an oscillation swing (default 1%).
    pub oscillation_amplitude: f64,
    /// Final-over-best ratio that counts as divergence (default 2.0).
    pub divergence_factor: f64,
    /// A bin is *hot* in a frame when its value is at least this
    /// fraction of the frame maximum (default 0.5).
    pub hot_threshold: f64,
    /// A hot bin is *persistent* when hot in at least this fraction of
    /// the frames (default 0.8).
    pub hot_persistence: f64,
    /// Minimum frames in a sequence before frame detectors speak
    /// (default 4).
    pub min_frames: usize,
}

impl Default for Doctor {
    fn default() -> Self {
        Self {
            series_name: "place.outer".to_string(),
            min_rows: 6,
            flat_rel_tol: 1e-9,
            oscillation_amplitude: 0.01,
            divergence_factor: 2.0,
            hot_threshold: 0.5,
            hot_persistence: 0.8,
            min_frames: 4,
        }
    }
}

impl Doctor {
    /// Diagnoses a live or decoded report plus (optionally empty)
    /// decoded frames.
    pub fn diagnose_report(
        &self,
        report: impl Into<ReportDoc>,
        frames: &[crate::fields::DecodedFrame],
    ) -> Vec<Verdict> {
        let doc: ReportDoc = report.into();
        let stages = stage_of_spans(&doc);
        let stage_of = |span: &u64| {
            let stage = stages.get(span).cloned();
            stage.unwrap_or_else(|| "unknown".to_string())
        };
        let reverts: Vec<String> = doc
            .instants
            .iter()
            .filter(|(name, _)| name == "place.revert")
            .map(|(_, span)| stage_of(span))
            .collect();
        let groups: Vec<SeriesGroup> = doc
            .series
            .into_iter()
            .map(|(name, span, rows)| SeriesGroup {
                name,
                stage: stage_of(&span),
                rows,
            })
            .collect();
        self.diagnose(&groups, &reverts, frames)
    }

    /// Runs every detector over pre-extracted series groups, revert
    /// stages and decoded frames. Verdicts come back most severe first.
    pub fn diagnose(
        &self,
        groups: &[SeriesGroup],
        revert_stages: &[String],
        frames: &[crate::fields::DecodedFrame],
    ) -> Vec<Verdict> {
        let mut out = Vec::new();
        for g in groups.iter().filter(|g| g.name == self.series_name) {
            self.check_stall(g, &mut out);
            self.check_oscillation(g, &mut out);
            self.check_divergence(g, revert_stages, &mut out);
        }
        self.check_hotspots(frames, &mut out);
        self.check_displacement(frames, &mut out);
        out.sort_by_key(|v| std::cmp::Reverse(v.severity));
        out
    }

    fn check_stall(&self, g: &SeriesGroup, out: &mut Vec<Verdict>) {
        let hpwl = g.column("hpwl");
        let overflow = g.column("overflow");
        let n = hpwl.len();
        if n < self.min_rows || overflow.len() != n {
            return;
        }
        let tail = (n / 2).max(4).min(n - 1);
        let flat = |v: &[f64]| {
            v[n - 1 - tail..]
                .windows(2)
                .all(|w| (w[1] - w[0]).abs() <= self.flat_rel_tol * w[0].abs())
        };
        if flat(&hpwl) && flat(&overflow) {
            out.push(Verdict {
                kind: VerdictKind::Stall,
                stage: g.stage.clone(),
                severity: Severity::Critical,
                evidence: format!(
                    "hpwl flat at {:.6e} and overflow flat at {:.4} over the last {} of {} iterations (rel change < {:.0e})",
                    hpwl[n - 1],
                    overflow[n - 1],
                    tail,
                    n,
                    self.flat_rel_tol
                ),
                suggestion: "the placer is re-solving an unchanged system; check that spreading \
                             actually perturbs positions (density target, backend) and that \
                             anchors are not frozen"
                    .to_string(),
            });
        }
    }

    fn check_oscillation(&self, g: &SeriesGroup, out: &mut Vec<Verdict>) {
        let hpwl = g.column("hpwl");
        let n = hpwl.len();
        if n < self.min_rows.max(8) {
            return;
        }
        let deltas: Vec<f64> = hpwl.windows(2).map(|w| w[1] - w[0]).collect();
        let mut swings = 0usize;
        let mut pairs = 0usize;
        for w in deltas.windows(2) {
            let amp = self.oscillation_amplitude * hpwl[0].abs();
            if w[0].abs() > amp && w[1].abs() > amp {
                pairs += 1;
                if w[0] * w[1] < 0.0 {
                    swings += 1;
                }
            }
        }
        if pairs >= 4 && swings * 2 > pairs {
            out.push(Verdict {
                kind: VerdictKind::Oscillation,
                stage: g.stage.clone(),
                severity: Severity::Warning,
                evidence: format!(
                    "hpwl direction flips in {swings} of {pairs} significant consecutive steps \
                     (amplitude > {:.1}% of start)",
                    self.oscillation_amplitude * 100.0
                ),
                suggestion: "lower-bound solve and spreading are overshooting each other; \
                             strengthen anchors (higher anchor_base) or reduce per-pass \
                             spreading displacement"
                    .to_string(),
            });
        }
    }

    fn check_divergence(&self, g: &SeriesGroup, revert_stages: &[String], out: &mut Vec<Verdict>) {
        let hpwl = g.column("hpwl");
        let n = hpwl.len();
        if n < 2 {
            return;
        }
        let last = hpwl[n - 1];
        let best = hpwl.iter().copied().fold(f64::INFINITY, f64::min);
        let reverted = revert_stages.contains(&g.stage);
        if !last.is_finite()
            || (best.is_finite() && best > 0.0 && last > self.divergence_factor * best)
        {
            out.push(Verdict {
                kind: VerdictKind::Divergence,
                stage: g.stage.clone(),
                severity: Severity::Critical,
                evidence: format!(
                    "final hpwl {last:.6e} vs best {best:.6e} (factor {:.2} allowed)",
                    self.divergence_factor
                ),
                suggestion: "the solve walked away from its best snapshot; enable \
                             revert_if_diverge or lower the anchor ramp"
                    .to_string(),
            });
        } else if reverted {
            out.push(Verdict {
                kind: VerdictKind::Divergence,
                stage: g.stage.clone(),
                severity: Severity::Warning,
                evidence: format!(
                    "place.revert fired in this stage; final hpwl {last:.6e} is the restored \
                     best snapshot"
                ),
                suggestion: "the run recovered by reverting — results are usable but \
                             iterations were wasted; check the divergence_factor and anchor \
                             settings"
                    .to_string(),
            });
        }
    }

    fn frame_sequences<'f>(
        frames: &'f [crate::fields::DecodedFrame],
        name: &str,
    ) -> Vec<(String, Vec<&'f crate::fields::DecodedFrame>)> {
        let mut seqs: Vec<(String, Vec<&crate::fields::DecodedFrame>)> = Vec::new();
        for f in frames.iter().filter(|f| f.name == name) {
            match seqs.iter_mut().find(|(stage, _)| *stage == f.stage) {
                Some((_, v)) => v.push(f),
                None => seqs.push((f.stage.clone(), vec![f])),
            }
        }
        seqs
    }

    fn check_hotspots(&self, frames: &[crate::fields::DecodedFrame], out: &mut Vec<Verdict>) {
        for (stage, seq) in Self::frame_sequences(frames, "place.density_overflow") {
            if seq.len() < self.min_frames {
                continue;
            }
            let n = seq[0].values.len();
            if seq.iter().any(|f| f.values.len() != n) || n == 0 {
                continue;
            }
            let mut hot_counts = vec![0usize; n];
            for f in &seq {
                let max = f.values.iter().copied().fold(0.0f32, f32::max);
                if max <= 0.0 {
                    continue;
                }
                for (c, &v) in hot_counts.iter_mut().zip(f.values.iter()) {
                    if v >= self.hot_threshold as f32 * max && v > 0.0 {
                        *c += 1;
                    }
                }
            }
            let need = (self.hot_persistence * seq.len() as f64).ceil() as usize;
            let last = seq[seq.len() - 1];
            let final_max = last.values.iter().copied().fold(0.0f32, f32::max);
            let worst = hot_counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c >= need)
                .max_by_key(|&(i, &c)| (c, last.values[i].to_bits()));
            if let Some((bin, &count)) = worst {
                if final_max > 0.0 {
                    let persistent = hot_counts.iter().filter(|&&c| c >= need).count();
                    let (bx, by) = (bin % last.nx.max(1), bin / last.nx.max(1));
                    out.push(Verdict {
                        kind: VerdictKind::HotspotPersistence,
                        stage,
                        severity: Severity::Warning,
                        evidence: format!(
                            "{persistent} bin(s) stay overloaded in >= {count}/{} density frames; \
                             worst at bin ({bx}, {by}) of {}x{}, final overflow {:.4}",
                            seq.len(),
                            last.nx,
                            last.ny,
                            last.values[bin]
                        ),
                        suggestion: "spreading never clears this region — look for blockages, \
                                     region constraints or oversized macros there, or lower the \
                                     density target"
                            .to_string(),
                    });
                }
            }
        }
    }

    fn check_displacement(&self, frames: &[crate::fields::DecodedFrame], out: &mut Vec<Verdict>) {
        for (stage, seq) in Self::frame_sequences(frames, "place.displacement") {
            if seq.len() < self.min_frames.max(6) {
                continue;
            }
            let totals: Vec<f64> = seq
                .iter()
                .map(|f| f.values.iter().map(|&v| f64::from(v)).sum())
                .collect();
            let q = totals.len().div_ceil(4);
            let early: f64 = totals[..q].iter().sum::<f64>() / q as f64;
            let late: f64 = totals[totals.len() - q..].iter().sum::<f64>() / q as f64;
            if early > 0.0 && late > 0.75 * early {
                out.push(Verdict {
                    kind: VerdictKind::DisplacementConflict,
                    stage,
                    severity: Severity::Warning,
                    evidence: format!(
                        "spreading displacement is not decaying: last-quarter mean {late:.4e} \
                         vs first-quarter {early:.4e} over {} frames",
                        totals.len()
                    ),
                    suggestion: "the lower bound and the spreader keep fighting; raise the \
                                 anchor ramp (anchor_base) so late iterations settle, or relax \
                                 the density target"
                        .to_string(),
                });
            }
        }
    }
}

/// Compares two runs and localizes any regression to a stage *and* — when
/// both sides captured fields — a region. Returns [`VerdictKind::Regression`]
/// verdicts, worst first; empty means the runs are equivalent under `opts`.
pub fn compare_runs(
    base: &Analysis,
    new: &Analysis,
    base_frames: &[crate::fields::DecodedFrame],
    new_frames: &[crate::fields::DecodedFrame],
    opts: &DiffOptions,
) -> Vec<Verdict> {
    let diff = TraceDiff::between(base, new, opts);
    let mut out = Vec::new();
    // Stage attribution: the stage whose self-time grew the most.
    let base_stages: BTreeMap<String, f64> = base.stage_self_seconds().into_iter().collect();
    let worst_stage = new
        .stage_self_seconds()
        .into_iter()
        .map(|(name, s)| {
            let delta = s - base_stages.get(&name).copied().unwrap_or(0.0);
            (name, delta)
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    for e in diff.regressions() {
        let stage = match e.kind {
            DiffKind::Metric => worst_stage
                .as_ref()
                .map_or_else(|| "unknown".to_string(), |(n, _)| n.clone()),
            _ => e.name.clone(),
        };
        let severity = if e.ratio() > 2.0 {
            Severity::Critical
        } else {
            Severity::Warning
        };
        out.push(Verdict {
            kind: VerdictKind::Regression,
            stage,
            severity,
            evidence: format!(
                "{:?} {}: {:.6e} -> {:.6e} ({:+.1}%)",
                e.kind,
                e.name,
                e.base,
                e.new,
                (e.ratio() - 1.0) * 100.0
            ),
            suggestion: "bisect the change against this stage; the region verdict (if any) \
                         narrows where to look"
                .to_string(),
        });
    }
    // Region attribution: largest per-bin change between the final
    // frames of every (name, stage) sequence both sides captured.
    let mut region: Option<(f64, String)> = None;
    let mut seen: std::collections::BTreeSet<(String, String)> = std::collections::BTreeSet::new();
    for nf in new_frames.iter().rev() {
        // Walking in reverse, the first frame of each sequence we meet
        // is its final one; earlier frames are skipped.
        if !seen.insert((nf.name.clone(), nf.stage.clone())) {
            continue;
        }
        let Some(bf) = base_frames
            .iter()
            .rev()
            .find(|b| b.name == nf.name && b.stage == nf.stage)
        else {
            continue;
        };
        if bf.nx != nf.nx || bf.ny != nf.ny || bf.values.len() != nf.values.len() {
            continue;
        }
        let worst = nf
            .values
            .iter()
            .zip(bf.values.iter())
            .enumerate()
            .map(|(i, (&n, &b))| (i, (f64::from(n) - f64::from(b)).abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some((bin, delta)) = worst {
            let better = match &region {
                Some((d, _)) => delta > *d,
                None => true,
            };
            if delta > 0.0 && better {
                let (bx, by) = (bin % nf.nx.max(1), bin / nf.nx.max(1));
                region = Some((
                    delta,
                    format!(
                        "largest field change in {} [{}] at bin ({bx}, {by}) of {}x{}: \
                         {:.4e} -> {:.4e}",
                        nf.name, nf.stage, nf.nx, nf.ny, bf.values[bin], nf.values[bin]
                    ),
                ));
            }
        }
    }
    if let Some((_, desc)) = region {
        if !out.is_empty() {
            let stage = worst_stage
                .as_ref()
                .map_or_else(|| "unknown".to_string(), |(n, _)| n.clone());
            out.push(Verdict {
                kind: VerdictKind::Regression,
                stage,
                severity: Severity::Info,
                evidence: desc,
                suggestion: "inspect this region first: render the frames \
                             (`tracetool render`) to see the two runs side by side"
                    .to_string(),
            });
        }
    }
    out.sort_by_key(|v| std::cmp::Reverse(v.severity));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MetricSnapshot, MetricValue, TraceReport};
    use crate::SpanRecord;

    /// A tree with a parallel fan-out: root [0, 100ms] → stage a
    /// [0, 60ms] with two overlapping children on other threads
    /// (30ms + 40ms > stage wall − nothing), stage b [60ms, 100ms].
    fn sample() -> TraceReport {
        let span =
            |id, parent, name: &'static str, thread, start_ms: u64, end_ms: u64| SpanRecord {
                id,
                parent,
                name,
                thread,
                start_ns: start_ms * 1_000_000,
                end_ns: end_ms * 1_000_000,
                args: vec![],
            };
        TraceReport {
            root: 1,
            spans: vec![
                span(1, 0, "flow", 0, 0, 100),
                span(2, 1, "stage a", 0, 0, 60),
                span(3, 2, "work", 1, 5, 35),
                span(4, 2, "work", 2, 10, 50),
                span(5, 1, "stage b", 0, 60, 100),
            ],
            instants: vec![],
            series: vec![],
            metrics: vec![
                MetricSnapshot {
                    name: "qor.hpwl",
                    slot: None,
                    value: MetricValue::Gauge(1234.5),
                },
                MetricSnapshot {
                    name: "evals",
                    slot: None,
                    value: MetricValue::Counter(7),
                },
            ],
            dropped_events: 0,
        }
    }

    #[test]
    fn self_time_telescopes_to_root_wall() {
        let a = Analysis::from_report(&sample()).expect("analyzes");
        assert!((a.total_self_seconds() - a.duration_seconds()).abs() < 1e-12);
        // stage a: 60 − (30 + 40) = −10ms of self time (parallel children).
        let rows = a.self_time_by_name();
        let stage_a = rows.iter().find(|r| r.name == "stage a").expect("present");
        assert!((stage_a.self_s - (-0.010)).abs() < 1e-12);
        let work = rows.iter().find(|r| r.name == "work").expect("present");
        assert_eq!(work.count, 2);
        assert!((work.self_s - 0.070).abs() < 1e-12);
    }

    #[test]
    fn critical_path_descends_heaviest_children_across_threads() {
        let a = Analysis::from_report(&sample()).expect("analyzes");
        let path = a.critical_path();
        let names: Vec<&str> = path.iter().map(|p| p.name.as_str()).collect();
        // stage a (60ms) beats stage b (40ms); under it the 40ms child
        // on thread 2 beats the 30ms child on thread 1.
        assert_eq!(names, ["flow", "stage a", "work"]);
        assert_eq!(path[2].thread, 2);
        assert_eq!(path[2].depth, 2);
    }

    #[test]
    fn folded_clamps_negative_self_and_merges_siblings() {
        let a = Analysis::from_report(&sample()).expect("analyzes");
        let folded = a.folded();
        let lines: Vec<&str> = folded.lines().collect();
        // "flow" has zero self and "flow;stage a" negative self → both
        // omitted; the two "work" siblings fold into one stack.
        assert_eq!(
            lines,
            ["flow;stage a;work 70000000", "flow;stage b 40000000"]
        );
    }

    #[test]
    fn stage_self_reconciles_with_stage_walls() {
        let r = sample();
        let a = Analysis::from_report(&r).expect("analyzes");
        let stages = r.stage_seconds();
        let selfs = a.stage_self_seconds();
        assert_eq!(stages.len(), selfs.len());
        for ((sn, sw), (an, aself)) in stages.iter().zip(&selfs) {
            assert_eq!(sn, an);
            assert!((sw - aself).abs() < 1e-9, "{sn}: {sw} vs {aself}");
        }
    }

    #[test]
    fn json_round_trip_preserves_analysis() {
        let r = sample();
        let live = ReportDoc::from(&r);
        let decoded = ReportDoc::from_json(&r.to_json()).expect("decodes");
        assert_eq!(
            decoded, live,
            "decode(encode(report)) is the live conversion"
        );
        let direct = Analysis::from_report(&r).expect("analyzes");
        let via_json = Analysis::from_report(decoded).expect("analyzes");
        assert_eq!(direct.self_time_by_name(), via_json.self_time_by_name());
        assert_eq!(direct.critical_path(), via_json.critical_path());
        assert_eq!(direct.folded(), via_json.folded());
        assert_eq!(
            direct.gauges_with_prefix("qor."),
            via_json.gauges_with_prefix("qor.")
        );
    }

    #[test]
    fn diff_against_self_is_empty_and_changes_surface() {
        let r = sample();
        let a = Analysis::from_report(&r).expect("analyzes");
        for rel in [0.0, 0.1, 10.0] {
            let d = TraceDiff::between(
                &a,
                &a,
                &DiffOptions {
                    time_rel_tol: rel,
                    time_abs_tol_s: 0.0,
                    metric_rel_tol: rel,
                },
            );
            assert!(d.is_empty(), "tol {rel}: {:?}", d.entries);
        }
        // A +50% gauge bump is a metric regression at exact tolerance…
        let mut bumped = r.clone();
        bumped.metrics[0].value = MetricValue::Gauge(1234.5 * 1.5);
        let b = Analysis::from_report(&bumped).expect("analyzes");
        let d = TraceDiff::between(&a, &b, &DiffOptions::default());
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.entries[0].kind, DiffKind::Metric);
        assert_eq!(d.entries[0].name, "qor.hpwl");
        assert!(d.entries[0].is_regression());
        // …and absorbed by a generous relative tolerance.
        let d = TraceDiff::between(
            &a,
            &b,
            &DiffOptions {
                metric_rel_tol: 0.6,
                ..DiffOptions::default()
            },
        );
        assert!(d.is_empty());
    }

    #[test]
    fn frames_are_sanitized() {
        assert_eq!(sanitize_frame("a;b\nc"), "a:b c");
    }

    // -- doctor --

    use crate::fields::DecodedFrame;
    use crate::SeriesRow;

    /// A flow-shaped report: root → stage `flat placement` with one
    /// solve span that emits the `place.outer` rows.
    fn convergence_report(hpwl: &[f64], overflow: &[f64]) -> TraceReport {
        let span = |id, parent, name: &'static str| SpanRecord {
            id,
            parent,
            name,
            thread: 0,
            start_ns: 0,
            end_ns: 1_000_000,
            args: vec![],
        };
        let series = hpwl
            .iter()
            .zip(overflow.iter())
            .enumerate()
            .map(|(i, (&h, &o))| SeriesRow {
                name: "place.outer",
                span: 3,
                iter: i as u64,
                values: vec![("hpwl", h), ("overflow", o)],
            })
            .collect();
        TraceReport {
            root: 1,
            spans: vec![
                span(1, 0, "flow.flat"),
                span(2, 1, "flat placement"),
                span(3, 2, "place.solve"),
            ],
            instants: vec![],
            series,
            metrics: vec![],
            dropped_events: 0,
        }
    }

    #[test]
    fn doctor_flags_flat_series_as_stall() {
        let r = convergence_report(&[5e6; 10], &[0.4; 10]);
        let v = Doctor::default().diagnose_report(&r, &[]);
        assert!(
            v.iter()
                .any(|v| v.kind == VerdictKind::Stall && v.severity == Severity::Critical),
            "{v:?}"
        );
        assert_eq!(
            v[0].stage, "flat placement",
            "stage resolved through flow.*"
        );
    }

    #[test]
    fn doctor_passes_a_descending_series() {
        let hpwl: Vec<f64> = (0..10).map(|i| 5e6 * 0.95f64.powi(i)).collect();
        let overflow: Vec<f64> = (0..10).map(|i| 0.8 * 0.8f64.powi(i)).collect();
        let r = convergence_report(&hpwl, &overflow);
        let v = Doctor::default().diagnose_report(&r, &[]);
        assert!(v.is_empty(), "healthy run must be verdict-free: {v:?}");
    }

    #[test]
    fn doctor_flags_divergence_and_oscillation() {
        let mut hpwl: Vec<f64> = (0..10).map(|i| 5e6 + 1e5 * f64::from(i)).collect();
        hpwl[9] = 2e8;
        let overflow = vec![0.5; 10];
        let r = convergence_report(&hpwl, &overflow);
        let v = Doctor::default().diagnose_report(&r, &[]);
        assert!(
            v.iter()
                .any(|v| v.kind == VerdictKind::Divergence && v.severity == Severity::Critical),
            "{v:?}"
        );
        // Oscillation: alternate ±5% around a flat mean.
        let osc: Vec<f64> = (0..12)
            .map(|i| if i % 2 == 0 { 5e6 } else { 5.4e6 })
            .collect();
        let over: Vec<f64> = (0..12).map(|i| 0.5 + 0.001 * f64::from(i)).collect();
        let r = convergence_report(&osc, &over);
        let v = Doctor::default().diagnose_report(&r, &[]);
        assert!(
            v.iter().any(|v| v.kind == VerdictKind::Oscillation),
            "{v:?}"
        );
    }

    fn frame(name: &str, stage: &str, iter: u64, values: Vec<f32>) -> DecodedFrame {
        DecodedFrame {
            name: name.to_string(),
            stage: stage.to_string(),
            iter,
            nx: 2,
            ny: 2,
            values,
        }
    }

    #[test]
    fn doctor_flags_persistent_hotspot_bins() {
        let frames: Vec<DecodedFrame> = (0..6)
            .map(|i| {
                // Bin 3 always dominates; bin 0 cools off.
                frame(
                    "place.density_overflow",
                    "flat placement",
                    i,
                    vec![if i < 2 { 0.9 } else { 0.0 }, 0.0, 0.1, 1.0],
                )
            })
            .collect();
        let v =
            Doctor::default().diagnose_report(&convergence_report(&[1.0; 2], &[0.1; 2]), &frames);
        let hot = v
            .iter()
            .find(|v| v.kind == VerdictKind::HotspotPersistence)
            .unwrap_or_else(|| panic!("no hotspot verdict: {v:?}"));
        assert!(hot.evidence.contains("bin (1, 1)"), "{}", hot.evidence);
    }

    #[test]
    fn doctor_flags_undamped_displacement() {
        let frames: Vec<DecodedFrame> = (0..8)
            .map(|i| frame("place.displacement", "flat placement", i, vec![2.0; 4]))
            .collect();
        let v = Doctor::default().diagnose(&[], &[], &frames);
        assert!(
            v.iter()
                .any(|v| v.kind == VerdictKind::DisplacementConflict),
            "{v:?}"
        );
        // Decaying displacement passes.
        let frames: Vec<DecodedFrame> = (0..8)
            .map(|i| {
                frame(
                    "place.displacement",
                    "flat placement",
                    i,
                    vec![2.0 * 0.5f32.powi(i as i32); 4],
                )
            })
            .collect();
        let v = Doctor::default().diagnose(&[], &[], &frames);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn compare_localizes_regression_to_stage_and_region() {
        let base = sample();
        let mut slow = sample();
        for s in &mut slow.spans {
            s.end_ns = s.start_ns + (s.end_ns - s.start_ns) * 3;
        }
        let a = Analysis::from_report(&base).expect("analyzes");
        let b = Analysis::from_report(&slow).expect("analyzes");
        let bf = vec![frame(
            "place.density_overflow",
            "a",
            0,
            vec![0.1, 0.1, 0.1, 0.1],
        )];
        let nf = vec![frame(
            "place.density_overflow",
            "a",
            0,
            vec![0.1, 0.9, 0.1, 0.1],
        )];
        let v = compare_runs(&a, &b, &bf, &nf, &DiffOptions::default());
        assert!(
            v.iter()
                .any(|v| v.kind == VerdictKind::Regression && v.severity >= Severity::Warning),
            "{v:?}"
        );
        assert!(
            v.iter().any(|v| v.evidence.contains("bin (1, 0)")),
            "region localized: {v:?}"
        );
    }
}
