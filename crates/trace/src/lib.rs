//! Hierarchical span tracing, metrics and convergence telemetry.
//!
//! The flow's observability layer: dependency-free, deterministic-safe
//! instrumentation that every crate in the workspace can call without
//! affecting numerical results. Three primitives:
//!
//! - **Spans** ([`span`], [`span_with`]) — RAII guards forming a
//!   parent/child tree via a thread-local ambient-parent cell. Workers of
//!   the `cp-parallel` pool re-parent themselves onto the submitting
//!   span with [`run_with_parent`], so a V-P&R candidate evaluated on a
//!   stolen chunk still nests under its cluster's span.
//! - **Metrics** ([`counter_add`], [`gauge_set`], [`observe`]) — a
//!   process-wide registry of monotonic counters, gauges and fixed-bucket
//!   histograms addressed by static names (plus an optional `u32` slot
//!   for per-worker instances).
//! - **Series** ([`series`]) — per-iteration convergence telemetry
//!   (global-placer HPWL/overflow/CG residuals, GNN epoch loss), each row
//!   tagged with the ambient span so a report can attribute it.
//!
//! # Overhead contract
//!
//! Tracing is off by default. Every entry point checks one relaxed atomic
//! load ([`enabled`] / [`telemetry_enabled`]) and returns immediately when
//! the level is [`Level::Off`] — no allocation, no lock, no clock read.
//! Instrumentation never feeds back into the instrumented computation, so
//! results are bitwise-identical at every level (pinned by the
//! `trace_determinism` tests).
//!
//! Levels: `Off` (0) — no-op; `Spans` (1) — spans and instant events;
//! `Full` (2) — spans plus metrics and series. Callers pick one with
//! [`set_level`].
//!
//! Every record site does one thing past the level check: push into the
//! process-wide collector (spans, instants, series) or the metrics
//! registry (counters, gauges, histograms). The collector is bounded (see
//! [`TraceReport::dropped_events`]) and holds events until [`take_report`]
//! extracts one root span's subtree into a [`TraceReport`], which exports
//! structured JSON and Chrome `trace_event` JSON (Perfetto-loadable).

pub mod analysis;
pub mod fields;
pub mod json;
pub mod report;

pub use analysis::{Analysis, DiffEntry, DiffKind, DiffOptions, NameAgg, PathStep, TraceDiff};
pub use fields::{Frame, FrameCapture, Verdict, VerdictKind};
pub use report::{chrome_trace, MetricSnapshot, MetricValue, ReportDoc, TraceReport};

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Locks ignoring poisoning: the buffers hold plain telemetry data that
/// stays usable after a panicking instrumented section.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serializes tests that touch process-global state (the level byte and
/// the field store) across this crate's test modules.
#[cfg(test)]
pub(crate) fn test_serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Level

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Record nothing; every call is one atomic load.
    Off = 0,
    /// Record spans and instant events.
    Spans = 1,
    /// Record spans, metrics and convergence series.
    Full = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide trace level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::SeqCst);
}

/// The current trace level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Spans,
        _ => Level::Full,
    }
}

/// `true` when spans are being recorded (level ≥ `Spans`). One relaxed
/// atomic load — the whole disabled-path cost.
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != 0
}

/// `true` when metrics and series are being recorded (level `Full`).
#[inline]
pub fn telemetry_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= 2
}

// ---------------------------------------------------------------------------
// Clocks, ids, thread ordinals

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ORD: Cell<u32> = const { Cell::new(u32::MAX) };
    /// Innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// A small dense per-thread ordinal (assigned on first use), stable for
/// the thread's lifetime. Used as the Chrome-trace `tid` and as the
/// metric slot for per-worker counters.
pub fn thread_ordinal() -> u32 {
    THREAD_ORD.with(|c| {
        let v = c.get();
        if v != u32::MAX {
            return v;
        }
        let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        c.set(v);
        v
    })
}

/// The id of the innermost open span on this thread (0 when tracing is
/// off or no span is open). This is what `cp-parallel` captures at job
/// submission so workers can attach to the submitting span.
pub fn current_span_id() -> u64 {
    if !enabled() {
        return 0;
    }
    CURRENT.with(Cell::get)
}

/// Runs `f` with the ambient parent span set to `parent`, restoring the
/// previous ambient on exit (including unwind). Pool workers wrap stolen
/// chunks in this so spans they open nest under the submitter's span.
pub fn run_with_parent<R>(parent: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let prev = CURRENT.with(|c| c.replace(parent));
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// Records and the collector

/// A typed span/instant argument value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counts, cluster ids, iteration numbers).
    U(u64),
    /// Float (costs, ratios).
    F(f64),
    /// Static string (verdicts, modes).
    S(&'static str),
}

/// A completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (process-wide, never 0).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Static span name.
    pub name: &'static str,
    /// Ordinal of the thread the span ran on.
    pub thread: u32,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Attached key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns.saturating_sub(self.start_ns)) as f64 * 1e-9
    }
}

/// A point-in-time event (recovery events, fallbacks).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantRecord {
    /// Static event name.
    pub name: &'static str,
    /// Enclosing span at emission time (0 = none).
    pub span: u64,
    /// Ordinal of the emitting thread.
    pub thread: u32,
    /// Timestamp, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Attached key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// One row of a convergence series (one iteration's values).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// Static series name.
    pub name: &'static str,
    /// Enclosing span at emission time (0 = none).
    pub span: u64,
    /// Iteration index within the series.
    pub iter: u64,
    /// Named values for this iteration.
    pub values: Vec<(&'static str, f64)>,
}

/// Cap on buffered events; beyond it new events are dropped and counted
/// (see [`TraceReport::dropped_events`]). Generous for any real run —
/// the cap exists so a traced process that never takes reports stays
/// bounded.
const MAX_BUFFERED_EVENTS: usize = 1 << 20;

#[derive(Default)]
struct Collector {
    spans: Vec<SpanRecord>,
    instants: Vec<InstantRecord>,
    series: Vec<SeriesRow>,
    dropped: u64,
}

impl Collector {
    fn total(&self) -> usize {
        self.spans.len() + self.instants.len() + self.series.len()
    }
}

static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();

fn collector() -> &'static Mutex<Collector> {
    COLLECTOR.get_or_init(Mutex::default)
}

// ---------------------------------------------------------------------------
// Spans

/// RAII span guard: opening sets the thread's ambient parent, dropping
/// restores it and records the completed [`SpanRecord`]. Inert (no-op)
/// when tracing was off at creation. Must be dropped on the thread that
/// created it.
#[must_use = "a span measures the scope it lives in; dropping it immediately records an empty span"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    id: u64,
    parent: u64,
    name: &'static str,
    thread: u32,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
}

/// Opens a span. One atomic load and no other work when tracing is off.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Opens a span with key/value arguments.
pub fn span_with(name: &'static str, args: &[(&'static str, ArgValue)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    SpanGuard {
        inner: Some(SpanInner {
            id,
            parent: CURRENT.with(|c| c.replace(id)),
            name,
            thread: thread_ordinal(),
            start_ns: now_ns(),
            args: args.to_vec(),
        }),
    }
}

impl SpanGuard {
    /// The span id (0 for an inert guard).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }

    /// Attaches an argument decided after the span opened (e.g. a
    /// verdict known only once the work finished).
    pub fn arg(&mut self, key: &'static str, value: ArgValue) {
        if let Some(i) = &mut self.inner {
            i.args.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            // Restore the ambient parent even if the buffer is full, so
            // nesting stays consistent when the level flips mid-run.
            CURRENT.with(|c| c.set(i.parent));
            let end_ns = now_ns();
            let mut c = lock(collector());
            if c.total() < MAX_BUFFERED_EVENTS {
                c.spans.push(SpanRecord {
                    id: i.id,
                    parent: i.parent,
                    name: i.name,
                    thread: i.thread,
                    start_ns: i.start_ns,
                    end_ns,
                    args: i.args,
                });
            } else {
                c.dropped += 1;
            }
        }
    }
}

/// Emits a point-in-time event under the ambient span (recovery events,
/// shape fallbacks). Recorded at level ≥ `Spans`.
pub fn instant(name: &'static str, args: &[(&'static str, ArgValue)]) {
    if !enabled() {
        return;
    }
    let rec = InstantRecord {
        name,
        span: CURRENT.with(Cell::get),
        thread: thread_ordinal(),
        ts_ns: now_ns(),
        args: args.to_vec(),
    };
    let mut c = lock(collector());
    if c.total() < MAX_BUFFERED_EVENTS {
        c.instants.push(rec);
    } else {
        c.dropped += 1;
    }
}

/// Appends one iteration's values to a convergence series, tagged with
/// the ambient span. Recorded at level `Full` only.
pub fn series(name: &'static str, iter: u64, values: &[(&'static str, f64)]) {
    if !telemetry_enabled() {
        return;
    }
    let row = SeriesRow {
        name,
        span: CURRENT.with(Cell::get),
        iter,
        values: values.to_vec(),
    };
    let mut c = lock(collector());
    if c.total() < MAX_BUFFERED_EVENTS {
        c.series.push(row);
    } else {
        c.dropped += 1;
    }
}

// ---------------------------------------------------------------------------
// Metrics registry

/// Slot value for unslotted metrics.
pub const NO_SLOT: u32 = u32::MAX;

/// Histogram bucket upper bounds (log-spaced; a final +∞ bucket catches
/// the rest). Wide enough for iteration counts and residuals alike.
pub const HIST_BOUNDS: [f64; 12] = [
    1e-9, 1e-6, 1e-4, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
];

enum Metric {
    Counter(u64),
    Gauge(f64),
    Hist {
        counts: [u64; HIST_BOUNDS.len() + 1],
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    },
}

static METRICS: OnceLock<Mutex<BTreeMap<(&'static str, u32), Metric>>> = OnceLock::new();

fn metrics() -> &'static Mutex<BTreeMap<(&'static str, u32), Metric>> {
    METRICS.get_or_init(Mutex::default)
}

/// Adds to a monotonic counter. No-op below level `Full`.
pub fn counter_add(name: &'static str, delta: u64) {
    counter_add_slot(name, NO_SLOT, delta);
}

/// Adds to a slotted monotonic counter (e.g. per pool worker).
pub fn counter_add_slot(name: &'static str, slot: u32, delta: u64) {
    if !telemetry_enabled() {
        return;
    }
    match lock(metrics())
        .entry((name, slot))
        .or_insert(Metric::Counter(0))
    {
        Metric::Counter(v) => *v += delta,
        other => *other = Metric::Counter(delta),
    }
}

/// Sets a gauge to its latest value. No-op below level `Full`.
pub fn gauge_set(name: &'static str, value: f64) {
    if !telemetry_enabled() {
        return;
    }
    lock(metrics()).insert((name, NO_SLOT), Metric::Gauge(value));
}

/// Records one observation into a fixed-bucket histogram. No-op below
/// level `Full`.
pub fn observe(name: &'static str, value: f64) {
    if !telemetry_enabled() {
        return;
    }
    let mut m = lock(metrics());
    let e = m.entry((name, NO_SLOT)).or_insert(Metric::Hist {
        counts: [0; HIST_BOUNDS.len() + 1],
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    });
    if let Metric::Hist {
        counts,
        count,
        sum,
        min,
        max,
    } = e
    {
        let b = HIST_BOUNDS
            .iter()
            .position(|&ub| value <= ub)
            .unwrap_or(HIST_BOUNDS.len());
        counts[b] += 1;
        *count += 1;
        *sum += value;
        *min = min.min(value);
        *max = max.max(value);
    }
}

/// Reads a counter's current value (0 when absent) — a test/report hook,
/// not a hot-path API.
pub fn counter_value(name: &'static str) -> u64 {
    let m = lock(metrics());
    m.iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, v)| match v {
            Metric::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

fn snapshot_metrics() -> Vec<MetricSnapshot> {
    let m = lock(metrics());
    m.iter()
        .map(|(&(name, slot), v)| MetricSnapshot {
            name,
            slot: (slot != NO_SLOT).then_some(slot),
            value: match v {
                Metric::Counter(c) => MetricValue::Counter(*c),
                Metric::Gauge(g) => MetricValue::Gauge(*g),
                Metric::Hist {
                    counts,
                    count,
                    sum,
                    min,
                    max,
                } => MetricValue::Histogram {
                    count: *count,
                    sum: *sum,
                    min: if *count > 0 { *min } else { 0.0 },
                    max: if *count > 0 { *max } else { 0.0 },
                    buckets: HIST_BOUNDS
                        .iter()
                        .copied()
                        .chain(std::iter::once(f64::INFINITY))
                        .zip(counts.iter().copied())
                        .collect(),
                },
            },
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Report extraction

/// Closes `root` and extracts its subtree — spans, instants and series
/// transitively parented under it — into a [`TraceReport`], together with
/// a snapshot of the (process-cumulative) metrics registry. Events that
/// belong to *other* subtrees stay buffered for their own `take_report`,
/// so nested or concurrent captures don't steal from each other.
///
/// Returns `None` when the guard is inert (tracing was off when the root
/// span opened).
pub fn take_report(root: SpanGuard) -> Option<TraceReport> {
    let root_id = root.id();
    drop(root);
    if root_id == 0 {
        return None;
    }
    let mut c = lock(collector());
    let spans = std::mem::take(&mut c.spans);
    let instants = std::mem::take(&mut c.instants);
    let series = std::mem::take(&mut c.series);
    let dropped = c.dropped;

    let parent_of: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut memo: HashMap<u64, bool> = HashMap::new();
    let mut in_subtree = |mut id: u64| -> bool {
        let mut chain = Vec::new();
        let hit = loop {
            if id == root_id {
                break true;
            }
            if id == 0 {
                break false;
            }
            if let Some(&known) = memo.get(&id) {
                break known;
            }
            chain.push(id);
            match parent_of.get(&id) {
                Some(&p) => id = p,
                None => break false,
            }
        };
        for c in chain {
            memo.insert(c, hit);
        }
        hit
    };

    let (mut mine, rest): (Vec<_>, Vec<_>) = spans.into_iter().partition(|s| in_subtree(s.id));
    let (mine_inst, rest_inst): (Vec<_>, Vec<_>) =
        instants.into_iter().partition(|i| in_subtree(i.span));
    let (mine_series, rest_series): (Vec<_>, Vec<_>) =
        series.into_iter().partition(|r| in_subtree(r.span));
    c.spans = rest;
    c.instants = rest_inst;
    c.series = rest_series;
    drop(c);

    mine.sort_by_key(|s| (s.start_ns, s.id));
    Some(TraceReport {
        root: root_id,
        spans: mine,
        instants: mine_inst,
        series: mine_series,
        metrics: snapshot_metrics(),
        dropped_events: dropped,
    })
}

/// Clears every buffered event and all metrics — for bins and tests that
/// measure multiple configurations in one process.
pub fn clear() {
    let mut c = lock(collector());
    c.spans.clear();
    c.instants.clear();
    c.series.clear();
    c.dropped = 0;
    drop(c);
    lock(metrics()).clear();
    fields::clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Level is process-global; tests that flip it serialize here.
    fn serial() -> MutexGuard<'static, ()> {
        test_serial()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = serial();
        set_level(Level::Off);
        let root = span("off-root");
        assert_eq!(root.id(), 0);
        instant("off-instant", &[]);
        series("off-series", 0, &[("v", 1.0)]);
        counter_add("off-counter", 5);
        assert!(take_report(root).is_none());
        assert_eq!(counter_value("off-counter"), 0);
    }

    #[test]
    fn spans_nest_and_report_prunes_to_the_subtree() {
        let _g = serial();
        set_level(Level::Spans);
        let root = span("root");
        let root_id = root.id();
        assert!(root_id != 0);
        {
            let child = span_with("child", &[("k", ArgValue::U(3))]);
            assert_eq!(current_span_id(), child.id());
            let grand = span("grandchild");
            drop(grand);
            drop(child);
        }
        assert_eq!(current_span_id(), root_id);
        // A foreign root whose events must survive this take.
        let foreign = span("foreign-root");
        let foreign_id = foreign.id();
        let report = take_report(root).expect("enabled capture yields a report");
        set_level(Level::Off);
        assert_eq!(report.root, root_id);
        let names: Vec<_> = report.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["root", "child", "grandchild"]);
        let child = &report.spans[1];
        assert_eq!(child.parent, root_id);
        assert_eq!(child.args, vec![("k", ArgValue::U(3))]);
        assert_eq!(report.spans[2].parent, child.id);
        assert!(report.spans.iter().all(|s| s.id != foreign_id));
        // The foreign subtree is still extractable afterwards.
        set_level(Level::Spans);
        let foreign_report = take_report(foreign).expect("foreign capture still buffered");
        set_level(Level::Off);
        assert_eq!(foreign_report.spans.len(), 1);
        assert_eq!(foreign_report.spans[0].name, "foreign-root");
    }

    #[test]
    fn cross_thread_parenting_via_run_with_parent() {
        let _g = serial();
        set_level(Level::Spans);
        let root = span("xthread-root");
        let parent = current_span_id();
        let handle = std::thread::spawn(move || {
            run_with_parent(parent, || {
                let s = span("worker-span");
                let id = s.id();
                drop(s);
                id
            })
        });
        let worker_span = handle.join().expect("worker thread joins");
        let report = take_report(root).expect("capture yields a report");
        set_level(Level::Off);
        let w = report
            .spans
            .iter()
            .find(|s| s.id == worker_span)
            .expect("worker span captured");
        assert_eq!(w.parent, report.root);
        assert_ne!(w.thread, report.spans[0].thread);
    }

    #[test]
    fn instants_and_series_attach_to_the_ambient_span() {
        let _g = serial();
        set_level(Level::Full);
        let root = span("telemetry-root");
        let inner = span("loop");
        let inner_id = inner.id();
        instant("revert", &[("iteration", ArgValue::U(4))]);
        series("hpwl", 0, &[("hpwl", 10.0), ("overflow", 0.5)]);
        series("hpwl", 1, &[("hpwl", 9.0), ("overflow", 0.4)]);
        drop(inner);
        let report = take_report(root).expect("capture yields a report");
        set_level(Level::Off);
        assert_eq!(report.instants.len(), 1);
        assert_eq!(report.instants[0].span, inner_id);
        assert_eq!(report.series.len(), 2);
        assert!(report.series.iter().all(|r| r.span == inner_id));
        assert_eq!(report.series[1].iter, 1);
        clear();
    }

    #[test]
    fn metrics_accumulate_by_kind_and_slot() {
        let _g = serial();
        set_level(Level::Full);
        clear();
        counter_add("m.counter", 2);
        counter_add("m.counter", 3);
        counter_add_slot("m.slotted", 0, 1);
        counter_add_slot("m.slotted", 1, 10);
        gauge_set("m.gauge", 1.5);
        gauge_set("m.gauge", 2.5);
        observe("m.hist", 0.5);
        observe("m.hist", 50.0);
        let root = span("metrics-root");
        let report = take_report(root).expect("capture yields a report");
        set_level(Level::Off);
        assert_eq!(counter_value("m.counter"), 5);
        assert_eq!(counter_value("m.slotted"), 11);
        let gauge = report
            .metrics
            .iter()
            .find(|m| m.name == "m.gauge")
            .expect("gauge snapshot present");
        assert_eq!(gauge.value, MetricValue::Gauge(2.5));
        let hist = report
            .metrics
            .iter()
            .find(|m| m.name == "m.hist")
            .expect("histogram snapshot present");
        match &hist.value {
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
                buckets,
            } => {
                assert_eq!(*count, 2);
                assert!((sum - 50.5).abs() < 1e-12);
                assert_eq!(*min, 0.5);
                assert_eq!(*max, 50.0);
                assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 2);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        clear();
    }
}
