//! The structured trace report and its two export formats.
//!
//! [`TraceReport`] is one root span's subtree (see
//! [`crate::take_report`]): the spans, instant events, series rows and
//! field frames that ran under it, plus a snapshot of the metrics
//! registry.
//! [`TraceReport::to_json`] writes the structured report
//! (`schemas/trace_report.schema.json`) and [`chrome_trace`] writes
//! Chrome `trace_event` JSON that loads directly in `chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev). Both are write-only: what the
//! workspace asks of a run (its `qor.*` gauges, its self-time by span
//! name, its doctor's verdicts) it asks of the live report.

use crate::json::Writer;
use crate::{ArgValue, Frame, InstantRecord, SeriesRow, SpanRecord};
use std::collections::{BTreeMap, HashMap};

/// The checked-in schema of the structured report.
pub const SCHEMA_JSON: &str = include_str!("../../../schemas/trace_report.schema.json");

/// One metric's state at report time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Static metric name.
    pub name: &'static str,
    /// The metric's value.
    pub value: MetricValue,
}

/// A snapshot of one counter, gauge or histogram.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Latest-value gauge.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Smallest observation (0 when empty).
        min: f64,
        /// Largest observation (0 when empty).
        max: f64,
        /// `(upper_bound, count)` per bucket; the last bound is +∞.
        buckets: Vec<(f64, u64)>,
    },
}

/// One captured subtree: the flow run's spans, telemetry and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Id of the subtree's root span.
    pub root: u64,
    /// Spans in start order; the first is the root.
    pub spans: Vec<SpanRecord>,
    /// Instant events under the root.
    pub instants: Vec<InstantRecord>,
    /// Convergence-series rows under the root.
    pub series: Vec<SeriesRow>,
    /// Field frames under the root, in record order.
    pub frames: Vec<Frame>,
    /// Snapshot of the process metrics registry at capture time.
    pub metrics: Vec<MetricSnapshot>,
    /// Events and frames lost to the buffer caps, or frames refused for
    /// a malformed grid, since the last [`crate::clear`]
    /// (process-cumulative).
    pub dropped_events: u64,
}

/// One row of [`TraceReport::self_seconds_by_name`]: every span of one
/// name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotals {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub count: u64,
    /// Total wall seconds (nested same-name spans count repeatedly).
    pub wall_s: f64,
    /// Total self seconds.
    pub self_s: f64,
}

/// Series rows grouped by `(name, span)`, groups in first-appearance
/// order and rows in record order — the shape the report is written in.
fn series_groups(rows: &[SeriesRow]) -> Vec<Vec<&SeriesRow>> {
    let mut index: HashMap<(&str, u64), usize> = HashMap::new();
    let mut groups: Vec<Vec<&SeriesRow>> = Vec::new();
    for r in rows {
        let g = *index.entry((r.name, r.span)).or_insert(groups.len());
        if g == groups.len() {
            groups.push(Vec::new());
        }
        groups[g].push(r);
    }
    groups
}

impl TraceReport {
    /// The root span record, when captured.
    pub fn root_span(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == self.root)
    }

    /// Wall-clock seconds covered by the root span.
    pub fn duration_seconds(&self) -> f64 {
        self.root_span().map_or(0.0, SpanRecord::seconds)
    }

    /// `(name, seconds)` of the flow's stage spans in start order,
    /// measured by the stage spans themselves: the root's *direct*
    /// children — except that a direct child that is itself a flow root (a
    /// `flow.*`-named span, i.e. a clustered/flat flow whose root got
    /// captured under an outer span) is transparent: its own direct
    /// children are surfaced in its place. That keeps the flat and
    /// clustered paths exposing the same stage set whether the flow ran at
    /// top level or nested one level below the captured root.
    pub fn stage_seconds(&self) -> Vec<(&'static str, f64)> {
        let is_flow_root = |s: &SpanRecord| s.name.starts_with("flow.");
        let nested: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent == self.root && is_flow_root(s))
            .map(|s| s.id)
            .collect();
        self.spans
            .iter()
            .filter(|s| (s.parent == self.root && !is_flow_root(s)) || nested.contains(&s.parent))
            .map(|s| (s.name, s.seconds()))
            .collect()
    }

    /// All spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Gauge readings whose name starts with `prefix`, in name order —
    /// how `tracetool gate` pulls the `qor.*` snapshot out of a run.
    pub fn gauges_with_prefix(&self, prefix: &str) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = self
            .metrics
            .iter()
            .filter(|m| m.name.starts_with(prefix))
            .filter_map(|m| match m.value {
                MetricValue::Gauge(v) => Some((m.name, v)),
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Per-name timing, sorted by descending self time (ties by name).
    ///
    /// A span's self time is its duration minus the durations of its
    /// direct children; a span whose parent was not captured counts as
    /// a child of the root. With parallel children (cross-thread
    /// adoption via [`run_with_parent`](crate::run_with_parent)) the
    /// children can overlap and outlast the parent, so self time can be
    /// negative: the span fanned work out. The sums are formed in integer
    /// nanoseconds and telescope, so the `self_s` column adds up to the
    /// root's wall time exactly.
    pub fn self_seconds_by_name(&self) -> Vec<SpanTotals> {
        let dur = |s: &SpanRecord| s.end_ns.saturating_sub(s.start_ns) as i64;
        let index_of: HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let root = index_of.get(&self.root).copied();
        let mut self_ns: Vec<i64> = self.spans.iter().map(dur).collect();
        for s in self.spans.iter().filter(|s| s.id != self.root) {
            if let Some(p) = index_of.get(&s.parent).copied().or(root) {
                self_ns[p] -= dur(s);
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, i64, i64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let e = by_name.entry(s.name).or_default();
            *e = (e.0 + 1, e.1 + dur(s), e.2 + own);
        }
        let mut rows: Vec<SpanTotals> = by_name
            .into_iter()
            .map(|(name, (count, wall, own))| SpanTotals {
                name,
                count,
                wall_s: wall as f64 * 1e-9,
                self_s: own as f64 * 1e-9,
            })
            .collect();
        rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s).then(a.name.cmp(b.name)));
        rows
    }

    /// Structured JSON export (compact, schema-stable; see
    /// `schemas/trace_report.schema.json`). A non-finite frame cell is
    /// written as `null`.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(4096 + self.spans.len() * 128);
        w.object().key("version").u64(2);
        w.key("root").u64(self.root);
        w.key("duration_s").f64(self.duration_seconds());
        w.key("dropped_events").u64(self.dropped_events);
        w.key("spans").array();
        for s in &self.spans {
            w.object().key("id").u64(s.id).key("parent").u64(s.parent);
            w.key("name").str(s.name).key("thread").u64(s.thread.into());
            w.key("start_us").f64(micros(s.start_ns));
            let dur_ns = s.end_ns.saturating_sub(s.start_ns);
            w.key("dur_us").f64(micros(dur_ns));
            write_args(&mut w, &s.args);
            w.end();
        }
        w.end().key("instants").array();
        for e in &self.instants {
            w.object().key("name").str(e.name).key("span").u64(e.span);
            w.key("thread").u64(e.thread.into());
            w.key("ts_us").f64(micros(e.ts_ns));
            write_args(&mut w, &e.args);
            w.end();
        }
        w.end().key("series").array();
        for group in series_groups(&self.series) {
            w.object().key("name").str(group[0].name);
            w.key("span").u64(group[0].span).key("rows").array();
            for r in group {
                w.object().key("i").u64(r.iter);
                for &(k, v) in &r.values {
                    w.key(k).f64(v);
                }
                w.end();
            }
            w.end().end();
        }
        w.end().key("frames").array();
        for f in &self.frames {
            w.object().key("name").str(f.name).key("stage").str(f.stage);
            w.key("iter").u64(f.iter).key("nx").u64(f.nx as u64);
            w.key("ny").u64(f.ny as u64).key("values").array();
            for &v in &f.values {
                w.f64(f64::from(v));
            }
            w.end().end();
        }
        w.end().key("metrics").array();
        for m in &self.metrics {
            w.object().key("name").str(m.name);
            match &m.value {
                MetricValue::Counter(v) => {
                    w.key("kind").str("counter").key("value").u64(*v);
                }
                MetricValue::Gauge(v) => {
                    w.key("kind").str("gauge").key("value").f64(*v);
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                } => {
                    w.key("kind").str("histogram").key("count").u64(*count);
                    w.key("sum").f64(*sum).key("min").f64(*min);
                    w.key("max").f64(*max).key("buckets").array();
                    for &(ub, c) in buckets {
                        w.array();
                        if ub.is_infinite() {
                            w.str("+inf");
                        } else {
                            w.f64(ub);
                        }
                        w.u64(c).end();
                    }
                    w.end();
                }
            }
            w.end();
        }
        w.end().end();
        w.finish()
    }
}

/// Integer nanoseconds as the microsecond floats both exports carry.
fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Writes a non-empty argument list as an `"args"` member.
fn write_args(w: &mut Writer, args: &[(&'static str, ArgValue)]) {
    if args.is_empty() {
        return;
    }
    w.key("args").object();
    for &(k, v) in args {
        w.key(k);
        match v {
            ArgValue::U(u) => w.u64(u),
            ArgValue::F(f) => w.f64(f),
            ArgValue::S(s) => w.str(s),
        };
    }
    w.end();
}

/// Writes a report as a Chrome `trace_event` JSON document
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` and Perfetto.
/// Spans become `"ph":"X"` complete events (timestamps in µs), instants
/// become `"ph":"i"` thread-scoped instant events.
pub fn chrome_trace(report: &TraceReport) -> String {
    let mut w = Writer::with_capacity(4096);
    w.object().key("traceEvents").array();
    for s in &report.spans {
        w.object().key("name").str(s.name).key("ph").str("X");
        w.key("pid").u64(1).key("tid").u64(s.thread.into());
        w.key("ts").f64(micros(s.start_ns));
        let dur_ns = s.end_ns.saturating_sub(s.start_ns);
        w.key("dur").f64(micros(dur_ns));
        write_args(&mut w, &s.args);
        w.end();
    }
    for e in &report.instants {
        w.object().key("name").str(e.name).key("ph").str("i");
        w.key("s").str("t").key("pid").u64(1);
        w.key("tid").u64(e.thread.into());
        w.key("ts").f64(micros(e.ts_ns));
        write_args(&mut w, &e.args);
        w.end();
    }
    w.end().end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_report() -> TraceReport {
        TraceReport {
            root: 1,
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "flow",
                    thread: 0,
                    start_ns: 0,
                    end_ns: 3_000_000,
                    args: vec![],
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "shaping",
                    thread: 0,
                    start_ns: 100_000,
                    end_ns: 1_100_000,
                    args: vec![
                        ("cluster", ArgValue::U(3)),
                        ("verdict", ArgValue::S("exact")),
                    ],
                },
                SpanRecord {
                    id: 3,
                    parent: 1,
                    name: "ppa",
                    thread: 1,
                    start_ns: 1_200_000,
                    end_ns: 2_900_000,
                    args: vec![],
                },
            ],
            instants: vec![InstantRecord {
                name: "place.revert",
                span: 2,
                thread: 0,
                ts_ns: 500_000,
                args: vec![("iteration", ArgValue::U(4))],
            }],
            series: vec![
                SeriesRow {
                    name: "place.outer",
                    span: 2,
                    iter: 0,
                    values: vec![("hpwl", 10.0), ("overflow", 0.9)],
                },
                SeriesRow {
                    name: "place.outer",
                    span: 2,
                    iter: 1,
                    values: vec![("hpwl", 8.0), ("overflow", 0.5)],
                },
            ],
            frames: vec![Frame {
                name: "place.density_overflow",
                stage: "flat placement",
                iter: 0,
                nx: 2,
                ny: 1,
                values: vec![0.5, f32::NAN],
            }],
            metrics: vec![
                MetricSnapshot {
                    name: "place.cg.solves",
                    value: MetricValue::Counter(12),
                },
                MetricSnapshot {
                    name: "place.cg.iterations",
                    value: MetricValue::Histogram {
                        count: 2,
                        sum: 30.0,
                        min: 10.0,
                        max: 20.0,
                        buckets: vec![(10.0, 1), (100.0, 1), (f64::INFINITY, 0)],
                    },
                },
            ],
            dropped_events: 0,
        }
    }

    #[test]
    fn stage_seconds_lists_direct_children_in_order() {
        let r = sample_report();
        let stages = r.stage_seconds();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].0, "shaping");
        assert!((stages[0].1 - 1e-3).abs() < 1e-12);
        assert_eq!(stages[1].0, "ppa");
        assert!((r.duration_seconds() - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn stage_seconds_expands_nested_flow_roots() {
        // An outer capture (e.g. a bench harness span) with a clustered
        // flow nested under it: the stages sit one level below the root
        // but must still be surfaced, exactly as on the flat path.
        let span = |id, parent, name: &'static str, start_ns, end_ns| SpanRecord {
            id,
            parent,
            name,
            thread: 0,
            start_ns,
            end_ns,
            args: vec![],
        };
        let r = TraceReport {
            root: 1,
            spans: vec![
                span(1, 0, "harness", 0, 4_000_000),
                span(2, 1, "setup", 0, 500_000),
                span(3, 1, "flow.clustered", 500_000, 3_800_000),
                span(4, 3, "clustering", 500_000, 1_500_000),
                span(5, 3, "shaping", 1_500_000, 3_700_000),
                span(6, 5, "vpr.cluster", 1_600_000, 2_000_000),
            ],
            instants: vec![],
            series: vec![],
            frames: vec![],
            metrics: vec![],
            dropped_events: 0,
        };
        let names: Vec<&str> = r.stage_seconds().iter().map(|&(n, _)| n).collect();
        // The flow root itself is transparent; its stages appear next to
        // the outer root's other direct children, grandchildren stay out.
        assert_eq!(names, ["setup", "clustering", "shaping"]);
    }

    /// A parallel fan-out: root [0, 100ms] → stage a [0, 60ms] with two
    /// overlapping children on other threads (30ms + 40ms > 60ms), stage
    /// b [60ms, 100ms], and an orphan whose parent was not captured.
    #[test]
    fn self_time_telescopes_to_root_wall() {
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
        let r = TraceReport {
            root: 1,
            spans: vec![
                span(1, 0, "flow", 0, 0, 100),
                span(2, 1, "stage a", 0, 0, 60),
                span(3, 2, "work", 1, 5, 35),
                span(4, 2, "work", 2, 10, 50),
                span(5, 1, "stage b", 0, 60, 100),
                span(6, 99, "orphan", 3, 70, 75),
            ],
            ..sample_report()
        };
        let rows = r.self_seconds_by_name();
        let row = |name| rows.iter().find(|t| t.name == name).expect("present");
        // Descending self time, so the negative one comes last.
        let names: Vec<&str> = rows.iter().map(|t| t.name).collect();
        assert_eq!(names, ["work", "stage b", "orphan", "flow", "stage a"]);
        assert_eq!((row("work").count, row("work").self_s), (2, 0.070));
        assert_eq!(row("stage a").self_s, -0.010);
        // The orphan is the root's child: 100 − 60 − 40 − 5 ms.
        assert_eq!(row("flow").self_s, -0.005);
        assert_eq!(row("flow").wall_s, r.duration_seconds());
        let total_ns: i64 = rows.iter().map(|t| (t.self_s * 1e9).round() as i64).sum();
        assert_eq!(total_ns, 100_000_000);
    }

    #[test]
    fn gauges_with_prefix_reads_gauges_in_name_order() {
        let gauge = |name, v| MetricSnapshot {
            name,
            value: MetricValue::Gauge(v),
        };
        let mut r = sample_report();
        r.metrics.extend([
            gauge("qor.timing.wns", -5.0),
            gauge("mem.heap.peak", 7.0),
            gauge("qor.legalized.hpwl", 1e3),
        ]);
        r.metrics.push(MetricSnapshot {
            name: "qor.evals",
            value: MetricValue::Counter(3),
        });
        assert_eq!(
            r.gauges_with_prefix("qor."),
            [("qor.legalized.hpwl", 1e3), ("qor.timing.wns", -5.0)]
        );
        assert_eq!(r.gauges_with_prefix("place."), []);
    }

    #[test]
    fn structured_json_parses_back() {
        let r = sample_report();
        let doc = parse(&r.to_json()).expect("report JSON parses");
        let spans = doc.get("spans").and_then(|v| v.as_array()).expect("spans");
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[1].get("name").and_then(|v| v.as_str()),
            Some("shaping")
        );
        assert_eq!(
            spans[1]
                .get("args")
                .and_then(|a| a.get("verdict"))
                .and_then(|v| v.as_str()),
            Some("exact")
        );
        let series = doc
            .get("series")
            .and_then(|v| v.as_array())
            .expect("series");
        assert_eq!(series.len(), 1, "rows grouped by (name, span)");
        let rows = series[0]
            .get("rows")
            .and_then(|v| v.as_array())
            .expect("rows");
        assert_eq!(rows.len(), 2);
        let metrics = doc
            .get("metrics")
            .and_then(|v| v.as_array())
            .expect("metrics");
        assert_eq!(metrics.len(), 2);
    }

    /// Both exports, byte for byte as the hand-written encoders before
    /// the codec wrote them.
    #[test]
    fn exports_match_their_golden_bytes() {
        let r = sample_report();
        assert_eq!(
            r.to_json(),
            r#"{"version":2,"root":1,"duration_s":0.003,"dropped_events":0,"spans":[{"id":1,"parent":0,"name":"flow","thread":0,"start_us":0.0,"dur_us":3000.0},{"id":2,"parent":1,"name":"shaping","thread":0,"start_us":100.0,"dur_us":1000.0,"args":{"cluster":3,"verdict":"exact"}},{"id":3,"parent":1,"name":"ppa","thread":1,"start_us":1200.0,"dur_us":1700.0}],"instants":[{"name":"place.revert","span":2,"thread":0,"ts_us":500.0,"args":{"iteration":4}}],"series":[{"name":"place.outer","span":2,"rows":[{"i":0,"hpwl":10.0,"overflow":0.9},{"i":1,"hpwl":8.0,"overflow":0.5}]}],"frames":[{"name":"place.density_overflow","stage":"flat placement","iter":0,"nx":2,"ny":1,"values":[0.5,null]}],"metrics":[{"name":"place.cg.solves","kind":"counter","value":12},{"name":"place.cg.iterations","kind":"histogram","count":2,"sum":30.0,"min":10.0,"max":20.0,"buckets":[[10.0,1],[100.0,1],["+inf",0]]}]}"#
        );
        assert_eq!(
            chrome_trace(&r),
            r#"{"traceEvents":[{"name":"flow","ph":"X","pid":1,"tid":0,"ts":0.0,"dur":3000.0},{"name":"shaping","ph":"X","pid":1,"tid":0,"ts":100.0,"dur":1000.0,"args":{"cluster":3,"verdict":"exact"}},{"name":"ppa","ph":"X","pid":1,"tid":1,"ts":1200.0,"dur":1700.0},{"name":"place.revert","ph":"i","s":"t","pid":1,"tid":0,"ts":500.0,"args":{"iteration":4}}]}"#
        );
    }

    #[test]
    fn chrome_export_is_well_formed() {
        let r = sample_report();
        let doc = parse(&chrome_trace(&r)).expect("chrome JSON parses");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents");
        // 3 spans + 1 instant.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(events[3].get("ph").and_then(|v| v.as_str()), Some("i"));
        assert_eq!(
            events[1].get("ts").and_then(|v| v.as_f64()),
            Some(100.0),
            "timestamps are microseconds"
        );
    }
}
