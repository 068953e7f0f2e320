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

fn significant(base: f64, new: f64, rel: f64, abs: f64) -> bool {
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
}
