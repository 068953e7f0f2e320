//! The structured trace report, its two export formats and its one
//! decoder.
//!
//! [`TraceReport`] is one root span's subtree (see
//! [`crate::take_report`]): the spans, instant events and series rows
//! that ran under it, plus a snapshot of the metrics registry.
//! [`TraceReport::to_json`] writes the structured report
//! (`schemas/trace_report.schema.json`) and [`chrome_trace`] writes
//! Chrome `trace_event` JSON that loads directly in `chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev). [`ReportDoc`] is what the analysis
//! reads: a live report converts into it and [`ReportDoc::from_json`]
//! decodes a written one, so the analysis has one body.

use crate::analysis::{MetricReading, MetricReadingValue};
use crate::json::{parse_checked, Json, Writer};
use crate::{ArgValue, InstantRecord, SeriesRow, SpanRecord};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The checked-in schema of the structured report.
pub const SCHEMA_JSON: &str = include_str!("../../../schemas/trace_report.schema.json");

/// One metric's state at report time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Static metric name.
    pub name: &'static str,
    /// Slot for per-instance metrics (e.g. pool worker index).
    pub slot: Option<u32>,
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
    /// Snapshot of the process metrics registry at capture time.
    pub metrics: Vec<MetricSnapshot>,
    /// Events lost to the buffer cap since the last
    /// [`crate::clear`] (process-cumulative).
    pub dropped_events: u64,
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

    /// Structured JSON export (compact, schema-stable; see
    /// `schemas/trace_report.schema.json`). [`ReportDoc::from_json`]
    /// reads it back.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(4096 + self.spans.len() * 128);
        w.object().key("version").u64(1);
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
        w.end().key("metrics").array();
        for m in &self.metrics {
            w.object().key("name").str(m.name);
            if let Some(slot) = m.slot {
                w.key("slot").u64(slot.into());
            }
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

/// Merges one or more reports into a single Chrome `trace_event` JSON
/// document (`{"traceEvents":[...]}`), loadable in `chrome://tracing` and
/// Perfetto. Spans become `"ph":"X"` complete events (timestamps in µs),
/// instants become `"ph":"i"` thread-scoped instant events.
pub fn chrome_trace(reports: &[&TraceReport]) -> String {
    let mut w = Writer::with_capacity(4096);
    w.object().key("traceEvents").array();
    for r in reports {
        for s in &r.spans {
            w.object().key("name").str(s.name).key("ph").str("X");
            w.key("pid").u64(1).key("tid").u64(s.thread.into());
            w.key("ts").f64(micros(s.start_ns));
            let dur_ns = s.end_ns.saturating_sub(s.start_ns);
            w.key("dur").f64(micros(dur_ns));
            write_args(&mut w, &s.args);
            w.end();
        }
        for e in &r.instants {
            w.object().key("name").str(e.name).key("ph").str("i");
            w.key("s").str("t").key("pid").u64(1);
            w.key("tid").u64(e.thread.into());
            w.key("ts").f64(micros(e.ts_ns));
            write_args(&mut w, &e.args);
            w.end();
        }
    }
    w.end().end();
    w.finish()
}

/// One span of a [`ReportDoc`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpanRow {
    pub(crate) id: u64,
    pub(crate) parent: u64,
    pub(crate) name: String,
    pub(crate) thread: u32,
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
}

/// The structured report as its reader consumes it, in owned form: a
/// live [`TraceReport`] converts into it (`From<&TraceReport>`) and
/// [`ReportDoc::from_json`] decodes a written one, so
/// [`Analysis::from_report`](crate::Analysis::from_report) runs the same
/// code in-process and on a file. Both conversions agree: decoding a
/// report's JSON equals converting the report.
///
/// It carries what the analysis uses. Span arguments, instant events,
/// series rows and histogram buckets are written for Chrome timelines and
/// people; nothing reads them back.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDoc {
    /// Id of the root span.
    pub(crate) root: u64,
    /// Events lost to the collector's buffer cap.
    pub(crate) dropped_events: u64,
    /// The spans, in start order.
    pub(crate) spans: Vec<SpanRow>,
    /// Scalar views of the metrics registry snapshot.
    pub(crate) metrics: Vec<MetricReading>,
}

impl From<&TraceReport> for ReportDoc {
    fn from(report: &TraceReport) -> Self {
        let spans = report
            .spans
            .iter()
            .map(|s| SpanRow {
                id: s.id,
                parent: s.parent,
                name: s.name.to_string(),
                thread: s.thread,
                start_ns: s.start_ns,
                dur_ns: s.end_ns.saturating_sub(s.start_ns),
            })
            .collect();
        let metrics = report
            .metrics
            .iter()
            .map(|m| MetricReading {
                name: m.name.to_string(),
                slot: m.slot,
                value: match &m.value {
                    MetricValue::Counter(v) => MetricReadingValue::Counter(*v as f64),
                    MetricValue::Gauge(v) => MetricReadingValue::Gauge(*v),
                    MetricValue::Histogram { count, sum, .. } => MetricReadingValue::Histogram {
                        count: *count as f64,
                        sum: *sum,
                    },
                },
            })
            .collect();
        Self {
            root: report.root,
            dropped_events: report.dropped_events,
            spans,
            metrics,
        }
    }
}

impl ReportDoc {
    /// Decodes a structured report ([`TraceReport::to_json`] output): the
    /// one place that document is read. The exported µs span fields
    /// convert back to integer ns by rounding — exact for any run shorter
    /// than ~29 days, so the self-time partition survives the JSON trip.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a violation of `schemas/trace_report.schema.json`,
    /// or an id, thread, slot or time that is not a non-negative integer
    /// in range — each named by its key path.
    pub fn from_json(input: &str) -> Result<Self, String> {
        static SCHEMA: OnceLock<Result<Json, String>> = OnceLock::new();
        let doc = parse_checked(input, SCHEMA_JSON, &SCHEMA)?;
        let nanos = |v: &Json| v.to_u64_scaled(1e3);
        let spans = doc.each("spans", |s| {
            Ok(SpanRow {
                id: s.u64("id")?,
                parent: s.u64("parent")?,
                name: s.str("name")?.to_string(),
                thread: s.u32("thread")?,
                start_ns: s.at("start_us", nanos)?,
                dur_ns: s.at("dur_us", nanos)?,
            })
        })?;
        // Every sum the analysis forms (self time) is a signed sum of a
        // subset of these, so it cannot overflow either.
        let total = spans.iter().try_fold(0u64, |t, s| t.checked_add(s.dur_ns));
        if total.is_none_or(|t| i64::try_from(t).is_err()) {
            return Err("spans: durations overflow 2^63 ns in total".to_string());
        }
        let metrics = doc.each("metrics", |m| {
            let value = match m.str("kind")? {
                "counter" => MetricReadingValue::Counter(m.f64("value")?),
                "gauge" => MetricReadingValue::Gauge(m.f64("value")?),
                _ => MetricReadingValue::Histogram {
                    count: m.f64("count")?,
                    sum: m.f64("sum")?,
                },
            };
            Ok(MetricReading {
                name: m.str("name")?.to_string(),
                slot: m.opt("slot", Json::to_u32)?,
                value,
            })
        })?;
        Ok(Self {
            root: doc.u64("root")?,
            dropped_events: doc.u64("dropped_events")?,
            spans,
            metrics,
        })
    }
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
            metrics: vec![
                MetricSnapshot {
                    name: "place.cg.solves",
                    slot: None,
                    value: MetricValue::Counter(12),
                },
                MetricSnapshot {
                    name: "pool.worker.tasks",
                    slot: Some(1),
                    value: MetricValue::Counter(40),
                },
                MetricSnapshot {
                    name: "place.cg.iterations",
                    slot: None,
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
            metrics: vec![],
            dropped_events: 0,
        };
        let names: Vec<&str> = r.stage_seconds().iter().map(|&(n, _)| n).collect();
        // The flow root itself is transparent; its stages appear next to
        // the outer root's other direct children, grandchildren stay out.
        assert_eq!(names, ["setup", "clustering", "shaping"]);
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
        assert_eq!(metrics.len(), 3);
        assert_eq!(
            metrics[1].get("slot").and_then(|v| v.as_f64()),
            Some(1.0),
            "slotted metric keeps its slot"
        );
    }

    /// Both exports, byte for byte as the hand-written encoders before
    /// the codec wrote them.
    #[test]
    fn exports_match_their_golden_bytes() {
        let r = sample_report();
        assert_eq!(
            r.to_json(),
            r#"{"version":1,"root":1,"duration_s":0.003,"dropped_events":0,"spans":[{"id":1,"parent":0,"name":"flow","thread":0,"start_us":0.0,"dur_us":3000.0},{"id":2,"parent":1,"name":"shaping","thread":0,"start_us":100.0,"dur_us":1000.0,"args":{"cluster":3,"verdict":"exact"}},{"id":3,"parent":1,"name":"ppa","thread":1,"start_us":1200.0,"dur_us":1700.0}],"instants":[{"name":"place.revert","span":2,"thread":0,"ts_us":500.0,"args":{"iteration":4}}],"series":[{"name":"place.outer","span":2,"rows":[{"i":0,"hpwl":10.0,"overflow":0.9},{"i":1,"hpwl":8.0,"overflow":0.5}]}],"metrics":[{"name":"place.cg.solves","kind":"counter","value":12},{"name":"pool.worker.tasks","slot":1,"kind":"counter","value":40},{"name":"place.cg.iterations","kind":"histogram","count":2,"sum":30.0,"min":10.0,"max":20.0,"buckets":[[10.0,1],[100.0,1],["+inf",0]]}]}"#
        );
        assert_eq!(
            chrome_trace(&[&r]),
            r#"{"traceEvents":[{"name":"flow","ph":"X","pid":1,"tid":0,"ts":0.0,"dur":3000.0},{"name":"shaping","ph":"X","pid":1,"tid":0,"ts":100.0,"dur":1000.0,"args":{"cluster":3,"verdict":"exact"}},{"name":"ppa","ph":"X","pid":1,"tid":1,"ts":1200.0,"dur":1700.0},{"name":"place.revert","ph":"i","s":"t","pid":1,"tid":0,"ts":500.0,"args":{"iteration":4}}]}"#
        );
    }

    #[test]
    fn decoding_the_export_is_the_live_conversion() {
        let r = sample_report();
        let doc = ReportDoc::from_json(&r.to_json()).expect("decodes");
        assert_eq!(doc, ReportDoc::from(&r));
        assert_eq!(doc.spans[2].dur_ns, 1_700_000);
    }

    #[test]
    fn decoder_names_the_field_it_rejects() {
        let json = sample_report().to_json();
        for (from, to, path) in [
            ("\"id\":2", "\"id\":-2", "spans[1]: id: "),
            (
                "\"thread\":1",
                "\"thread\":4294967296",
                "spans[2]: thread: ",
            ),
            (
                "\"dur_us\":1700.0",
                "\"dur_us\":1e300",
                "spans[2]: dur_us: ",
            ),
            (
                "\"slot\":1",
                "\"slot\":0.5",
                "schema violations: $/metrics/1/slot",
            ),
        ] {
            assert!(json.contains(from), "{from}");
            let err = ReportDoc::from_json(&json.replace(from, to)).expect_err(to);
            assert!(err.contains(path), "{to}: {err}");
        }
        // Durations whose sum would overflow the analysis' i64 arithmetic.
        let huge = json.replace("\"dur_us\":3000.0", "\"dur_us\":9000000000000000.0");
        let huge = huge.replace("\"dur_us\":1000.0", "\"dur_us\":9000000000000000.0");
        let err = ReportDoc::from_json(&huge).expect_err("overflowing durations");
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn chrome_export_is_well_formed() {
        let r = sample_report();
        let doc = parse(&chrome_trace(&[&r])).expect("chrome JSON parses");
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
        // Merging two reports concatenates their events.
        let merged = parse(&chrome_trace(&[&r, &r])).expect("merged parses");
        assert_eq!(
            merged
                .get("traceEvents")
                .and_then(|v| v.as_array())
                .map(Vec::len),
            Some(8)
        );
    }
}
