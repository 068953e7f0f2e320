//! The run ledger: an append-only, schema-validated JSONL corpus of
//! placement runs (`runs/ledger.jsonl`).
//!
//! Each line is one [`LedgerEntry`]: the run's FNV fingerprint, a compact
//! options summary, the `qor.*` gauge snapshot, the stage self-time
//! partition in **integer nanoseconds** (including an `other` row so the
//! rows always sum to the root wall exactly — the same partition
//! invariant the analysis layer's self-time proptest pins), and summary
//! statistics for every convergence series. The measured fields come from
//! [`LedgerEntry::capture_trace`], which reads a [`ReportDoc`] — the flow
//! hands it the report it just captured, `tracetool harvest` a report
//! file it just decoded, and both get the same entry. Entries are written
//! with a single appending `write` of one `\n`-terminated line, so
//! concurrent writers interleave whole lines, never fragments; a line is
//! encoded by [`LedgerEntry::to_json_line`] and decoded (parse, schema,
//! range-checked reads) by [`LedgerEntry::parse_line`] on append and load.
//!
//! [`trend`] compares entries of the same fingerprint across the corpus,
//! reusing the TraceDiff noise model ([`DiffOptions`]): QoR gauges gate
//! with `metric_rel_tol` (0 by default — the flow is bitwise-
//! deterministic, so any drift is real), wall time is reported as
//! advisory only (machine-dependent).

use crate::analysis::{significant, MetricReadingValue};
use crate::json::{parse_checked, Json, Writer};
use crate::report::ReportDoc;
use crate::DiffOptions;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;

/// The checked-in schema every line is validated against, on append and
/// on load.
pub const SCHEMA_JSON: &str = include_str!("../../../schemas/ledger_entry.schema.json");

// ---------------------------------------------------------------------------
// Entry

/// Summary statistics for one convergence series of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSummary {
    /// Series name (e.g. `place.outer`).
    pub name: String,
    /// The value key summarized (the series' first column, e.g. `hpwl`).
    pub key: String,
    /// Number of rows recorded.
    pub rows: u64,
    /// First value of `key`.
    pub first: f64,
    /// Last value of `key`.
    pub last: f64,
    /// Minimum value of `key`.
    pub min: f64,
    /// Maximum value of `key`.
    pub max: f64,
}

/// One run ledger entry — a single JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Entry schema version (currently 1).
    pub version: u32,
    /// FNV-1a fingerprint of (netlist, options) — the cross-run grouping
    /// key. Serialized as a 16-digit hex string (u64 exceeds the JSON
    /// number range a float-based parser preserves).
    pub fingerprint: u64,
    /// Human-facing design label (informational, not a grouping key).
    pub design: String,
    /// Where the entry came from: `flow`, `bench` or `harvest`.
    pub source: String,
    /// `completed`, or `interrupted:<kind>@<site>` for a run cut short.
    pub status: String,
    /// Worker threads the run used.
    pub threads: u32,
    /// Whether the run resumed from a checkpoint.
    pub resumed: bool,
    /// Compact options summary (informational).
    pub options: String,
    /// Root span wall time in nanoseconds.
    pub root_wall_ns: u64,
    /// Stage self-time partition in integer ns, including the `other`
    /// row (root wall minus the stage spans; may be negative under
    /// parallel fan-out). Sums to `root_wall_ns` exactly.
    pub stages: Vec<(String, i64)>,
    /// `qor.*` gauge snapshot, sorted by name.
    pub qor: Vec<(String, f64)>,
    /// Convergence-series summaries, in first-appearance order.
    pub series: Vec<SeriesSummary>,
}

impl LedgerEntry {
    /// A minimal entry: completed, single-threaded, no captured data.
    pub fn new(fingerprint: u64, design: &str, source: &str) -> Self {
        LedgerEntry {
            version: 1,
            fingerprint,
            design: design.to_string(),
            source: source.to_string(),
            status: "completed".to_string(),
            threads: 1,
            resumed: false,
            options: String::new(),
            root_wall_ns: 0,
            stages: Vec::new(),
            qor: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Sets the run status (`completed` or an `interrupted:...` label).
    pub fn with_status(mut self, status: &str) -> Self {
        self.status = status.to_string();
        self
    }

    /// Sets the thread count.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Marks the run as resumed from a checkpoint.
    pub fn with_resumed(mut self, resumed: bool) -> Self {
        self.resumed = resumed;
        self
    }

    /// Sets the compact options summary.
    pub fn with_options(mut self, options: &str) -> Self {
        self.options = options.to_string();
        self
    }

    /// Fills the measured fields from a captured trace — live, or a
    /// written report decoded by [`ReportDoc::from_json`] (the `tracetool
    /// harvest` backfill): root wall, the integer-ns stage partition
    /// (with its reconciling `other` row), the `qor.*` gauge snapshot and
    /// per-series summaries.
    pub fn capture_trace(mut self, report: impl Into<ReportDoc>) -> Self {
        let doc: ReportDoc = report.into();
        let root_wall_ns = doc.root_wall_ns();
        self.root_wall_ns = root_wall_ns;
        self.stages = doc
            .stage_nanos()
            .into_iter()
            .map(|(name, ns)| (name.to_string(), ns as i64))
            .collect();
        let staged: i64 = self.stages.iter().map(|(_, ns)| ns).sum();
        // The partition invariant: stages + other == root wall, exactly,
        // in integer ns (`other` is the root's own self time and may be
        // negative when stage spans overlap under parallel fan-out).
        self.stages
            .push(("other".to_string(), root_wall_ns as i64 - staged));
        self.qor = doc
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("qor."))
            .filter_map(|m| match m.value {
                MetricReadingValue::Gauge(v) => Some((m.name.clone(), v)),
                _ => None,
            })
            .collect();
        self.qor.sort_by(|a, b| a.0.cmp(&b.0));
        self.series = summarize_series(&doc);
        self
    }

    /// Applies a multiplicative factor to one QoR metric — how tests fake
    /// a regression for the trend gate.
    pub fn doctor(mut self, metric: &str, factor: f64) -> Self {
        for (name, value) in &mut self.qor {
            if name == metric {
                *value *= factor;
            }
        }
        self
    }

    /// Serializes the entry as one compact JSON line (no trailing `\n`).
    pub fn to_json_line(&self) -> String {
        let mut w = Writer::with_capacity(256 + 32 * (self.stages.len() + self.qor.len()));
        w.object().key("version").u64(1);
        w.key("fingerprint").hex64(self.fingerprint);
        w.key("design").str(&self.design);
        w.key("source").str(&self.source);
        w.key("status").str(&self.status);
        w.key("threads").u64(self.threads.into());
        w.key("resumed").bool(self.resumed);
        w.key("options").str(&self.options);
        w.key("root_wall_ns").u64(self.root_wall_ns);
        w.key("stages").array();
        for (name, ns) in &self.stages {
            w.object().key("name").str(name);
            w.key("self_ns").i64(*ns).end();
        }
        w.end().key("qor").array();
        for (name, value) in &self.qor {
            w.object().key("name").str(name);
            w.key("value").f64(*value).end();
        }
        w.end().key("series").array();
        for s in &self.series {
            w.object().key("name").str(&s.name).key("key").str(&s.key);
            w.key("rows").u64(s.rows).key("first").f64(s.first);
            w.key("last").f64(s.last).key("min").f64(s.min);
            w.key("max").f64(s.max).end();
        }
        w.end().end();
        w.finish()
    }

    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a violation of `schemas/ledger_entry.schema.json`,
    /// or a count that is not an integer in range, named by its key path.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        static SCHEMA: OnceLock<Result<Json, String>> = OnceLock::new();
        let doc = parse_checked(line, SCHEMA_JSON, &SCHEMA)?;
        Ok(LedgerEntry {
            version: doc.u32("version")?,
            fingerprint: doc.hex64("fingerprint")?,
            design: doc.str("design")?.to_string(),
            source: doc.str("source")?.to_string(),
            status: doc.str("status")?.to_string(),
            threads: doc.u32("threads")?,
            resumed: doc.bool("resumed")?,
            options: doc.str("options")?.to_string(),
            root_wall_ns: doc.u64("root_wall_ns")?,
            stages: doc.each("stages", |row| {
                Ok((row.str("name")?.to_string(), row.i64("self_ns")?))
            })?,
            // `null` marks a non-finite gauge (JSON has no NaN).
            qor: doc.each("qor", |row| {
                let value = row.opt("value", Json::to_f64)?;
                Ok((row.str("name")?.to_string(), value.unwrap_or(f64::NAN)))
            })?,
            series: doc.each("series", |row| {
                Ok(SeriesSummary {
                    name: row.str("name")?.to_string(),
                    key: row.str("key")?.to_string(),
                    rows: row.u64("rows")?,
                    first: row.f64("first")?,
                    last: row.f64("last")?,
                    min: row.f64("min")?,
                    max: row.f64("max")?,
                })
            })?,
        })
    }

    /// The value of one QoR metric, when present.
    pub fn qor_value(&self, name: &str) -> Option<f64> {
        self.qor.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Root wall time in seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.root_wall_ns as f64 * 1e-9
    }

    /// Whether the run finished (vs. interrupted).
    pub fn completed(&self) -> bool {
        self.status == "completed"
    }
}

/// One summary per (series name, value column) across every emitting
/// span, sorted by name then key.
fn summarize_series(doc: &ReportDoc) -> Vec<SeriesSummary> {
    let mut out: Vec<SeriesSummary> = Vec::new();
    let rows = doc
        .series
        .iter()
        .flat_map(|(name, _, rows)| rows.iter().map(move |row| (name, row)));
    for (name, row) in rows {
        for (key, &v) in row.iter().filter(|(key, _)| *key != "i") {
            match out.iter_mut().find(|s| s.name == *name && s.key == *key) {
                Some(s) => {
                    s.rows += 1;
                    s.last = v;
                    s.min = s.min.min(v);
                    s.max = s.max.max(v);
                }
                None => out.push(SeriesSummary {
                    name: name.clone(),
                    key: key.clone(),
                    rows: 1,
                    first: v,
                    last: v,
                    min: v,
                    max: v,
                }),
            }
        }
    }
    out.sort_by(|a, b| (a.name.as_str(), a.key.as_str()).cmp(&(b.name.as_str(), b.key.as_str())));
    out
}

// ---------------------------------------------------------------------------
// Store

/// Validates and appends one entry to the JSONL ledger at `path`,
/// creating parent directories and the file as needed. The whole line is
/// written with a single appending `write`, so concurrent appenders
/// interleave complete lines.
pub fn append(path: &Path, entry: &LedgerEntry) -> Result<(), String> {
    let line = entry.to_json_line();
    LedgerEntry::parse_line(&line).map_err(|e| format!("refusing to append invalid entry: {e}"))?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut buf = line.into_bytes();
    buf.push(b'\n');
    file.write_all(&buf)
        .map_err(|e| format!("append {}: {e}", path.display()))
}

/// Loads every entry from a JSONL ledger, in file order.
pub fn load(path: &Path) -> Result<Vec<LedgerEntry>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = LedgerEntry::parse_line(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        entries.push(entry);
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Trend analysis

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (wirelength, power, skew, overflow).
    LowerIsBetter,
    /// Larger is better (slacks: WNS/TNS/hold are ≤ 0, closer to 0 wins).
    HigherIsBetter,
    /// Tracked but never gated (counts, structural stats, wall time).
    Informational,
}

/// The improvement direction of a `qor.*` metric name.
pub fn qor_direction(name: &str) -> Direction {
    if name.contains("wns") || name.contains("tns") {
        return Direction::HigherIsBetter;
    }
    if ["hpwl", "rwl", "power", "skew", "overflow", "utilization"]
        .iter()
        .any(|k| name.contains(k))
    {
        return Direction::LowerIsBetter;
    }
    Direction::Informational
}

/// One cross-run comparison: the latest entry of a fingerprint group
/// against the best earlier entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Fingerprint group the row belongs to.
    pub fingerprint: u64,
    /// Design label of the latest entry.
    pub design: String,
    /// Metric name (`qor.*`, or `wall_s` for the advisory wall row).
    pub metric: String,
    /// Best earlier value (by the metric's direction).
    pub baseline: f64,
    /// Latest entry's value.
    pub latest: f64,
    /// Completed runs in the group.
    pub runs: usize,
    /// Improvement direction used for the verdict.
    pub direction: Direction,
    /// Latest is significantly worse than baseline.
    pub regressed: bool,
    /// Latest is significantly better than baseline.
    pub improved: bool,
}

impl TrendRow {
    /// Relative change from baseline to latest, in percent.
    pub fn delta_pct(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.latest == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.latest - self.baseline) / self.baseline.abs() * 100.0
        }
    }
}

/// The result of [`trend`] over a ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrendReport {
    /// Per-metric comparisons for every multi-run fingerprint group.
    pub rows: Vec<TrendRow>,
    /// Fingerprint groups seen (including singletons).
    pub groups: usize,
    /// Groups with fewer than two completed runs (nothing to compare).
    pub singletons: usize,
}

impl TrendReport {
    /// The rows that regressed.
    pub fn regressions(&self) -> Vec<&TrendRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }
}

/// Cross-run trend analysis: groups `entries` by fingerprint (file order
/// preserved) and compares each group's latest completed run against the
/// best earlier one, metric by metric. QoR gauges use
/// `opts.metric_rel_tol` (default 0 — the flow is deterministic, any
/// drift is significant) and gate; wall time uses the
/// `time_rel_tol`/`time_abs_tol_s` noise model but stays advisory
/// (machine-dependent), reported as an `Informational` row.
pub fn trend(entries: &[LedgerEntry], opts: &DiffOptions) -> TrendReport {
    let mut order: Vec<u64> = Vec::new();
    for e in entries {
        if !order.contains(&e.fingerprint) {
            order.push(e.fingerprint);
        }
    }
    let mut report = TrendReport {
        groups: order.len(),
        ..TrendReport::default()
    };
    for fp in order {
        let group: Vec<&LedgerEntry> = entries
            .iter()
            .filter(|e| e.fingerprint == fp && e.completed())
            .collect();
        let Some((latest, earlier)) = group.split_last() else {
            report.singletons += 1;
            continue;
        };
        if earlier.is_empty() {
            report.singletons += 1;
            continue;
        }
        for (name, value) in &latest.qor {
            let prev: Vec<f64> = earlier.iter().filter_map(|e| e.qor_value(name)).collect();
            if prev.is_empty() {
                continue;
            }
            let direction = qor_direction(name);
            let baseline = match direction {
                Direction::LowerIsBetter => prev.iter().copied().fold(f64::INFINITY, f64::min),
                Direction::HigherIsBetter => prev.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                // Informational metrics compare against the previous run.
                Direction::Informational => prev[prev.len() - 1],
            };
            let moved = significant(baseline, *value, opts.metric_rel_tol, 0.0);
            let worse = match direction {
                Direction::LowerIsBetter => *value > baseline,
                Direction::HigherIsBetter => *value < baseline,
                Direction::Informational => false,
            };
            report.rows.push(TrendRow {
                fingerprint: fp,
                design: latest.design.clone(),
                metric: name.clone(),
                baseline,
                latest: *value,
                runs: group.len(),
                direction,
                regressed: moved && worse && direction != Direction::Informational,
                improved: moved && !worse && direction != Direction::Informational,
            });
        }
        // Advisory wall row: best earlier wall vs latest, flagged by the
        // TraceDiff time noise model but never a gate failure.
        let base_wall = earlier
            .iter()
            .map(|e| e.wall_seconds())
            .fold(f64::INFINITY, f64::min);
        let latest_wall = latest.wall_seconds();
        let moved = significant(
            base_wall,
            latest_wall,
            opts.time_rel_tol,
            opts.time_abs_tol_s,
        );
        report.rows.push(TrendRow {
            fingerprint: fp,
            design: latest.design.clone(),
            metric: "wall_s".to_string(),
            baseline: base_wall,
            latest: latest_wall,
            runs: group.len(),
            direction: Direction::Informational,
            regressed: false,
            improved: moved && latest_wall < base_wall,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ArgValue, InstantRecord, MetricSnapshot, MetricValue, SeriesRow, SpanRecord, TraceReport,
    };

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            thread: 0,
            start_ns,
            end_ns,
            args: vec![],
        }
    }

    fn sample_report() -> TraceReport {
        TraceReport {
            root: 1,
            spans: vec![
                span(1, 0, "flow.clustered", 0, 10_000_000),
                span(2, 1, "clustering", 0, 3_000_000),
                span(3, 1, "shaping", 3_000_000, 7_000_000),
                span(4, 3, "vpr.cluster", 3_100_000, 3_900_000),
            ],
            instants: vec![InstantRecord {
                name: "recovery.checkpoint_failed",
                span: 3,
                thread: 0,
                ts_ns: 5_000_000,
                args: vec![("stage", ArgValue::S("shaping"))],
            }],
            series: vec![
                SeriesRow {
                    name: "place.outer",
                    span: 3,
                    iter: 0,
                    values: vec![("hpwl", 12.0), ("overflow", 0.9)],
                },
                SeriesRow {
                    name: "place.outer",
                    span: 3,
                    iter: 1,
                    values: vec![("hpwl", 9.5), ("overflow", 0.4)],
                },
            ],
            metrics: vec![
                MetricSnapshot {
                    name: "qor.legalized.hpwl",
                    slot: None,
                    value: MetricValue::Gauge(123.25),
                },
                MetricSnapshot {
                    name: "qor.timing.wns",
                    slot: None,
                    value: MetricValue::Gauge(-0.5),
                },
                MetricSnapshot {
                    name: "vpr.evals",
                    slot: None,
                    value: MetricValue::Counter(7),
                },
            ],
            dropped_events: 0,
        }
    }

    fn sample_entry() -> LedgerEntry {
        LedgerEntry::new(0xdead_beef_0042_1133, "unit", "harvest")
            .with_threads(4)
            .with_options("fast")
            .capture_trace(&sample_report())
    }

    #[test]
    fn capture_partitions_stages_to_root_wall_in_integer_ns() {
        let e = sample_entry();
        assert_eq!(e.root_wall_ns, 10_000_000);
        let names: Vec<&str> = e.stages.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["clustering", "shaping", "other"]);
        assert_eq!(e.stages[0].1, 3_000_000);
        assert_eq!(e.stages[1].1, 4_000_000);
        assert_eq!(e.stages[2].1, 3_000_000);
        let sum: i64 = e.stages.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, e.root_wall_ns as i64);
        // QoR keeps gauges only, sorted; counters stay out.
        assert_eq!(e.qor_value("qor.legalized.hpwl"), Some(123.25));
        assert_eq!(e.qor_value("qor.timing.wns"), Some(-0.5));
        assert_eq!(e.qor.len(), 2);
        // Every value column gets a summary, in canonical (name, key)
        // order — the same order a harvested JSON report reproduces.
        assert_eq!(e.series.len(), 2);
        let s = &e.series[0];
        assert_eq!(
            (s.name.as_str(), s.key.as_str(), s.rows),
            ("place.outer", "hpwl", 2)
        );
        assert_eq!((s.first, s.last, s.min, s.max), (12.0, 9.5, 9.5, 12.0));
        let o = &e.series[1];
        assert_eq!(
            (o.name.as_str(), o.key.as_str(), o.rows),
            ("place.outer", "overflow", 2)
        );
        assert_eq!((o.first, o.last, o.min, o.max), (0.9, 0.4, 0.4, 0.9));
    }

    #[test]
    fn harvested_json_report_matches_captured_entry() {
        let report = sample_report();
        let decoded = ReportDoc::from_json(&report.to_json()).expect("report json decodes");
        assert_eq!(decoded, ReportDoc::from(&report));
        let flow = LedgerEntry::new(7, "unit", "harvest").capture_trace(&report);
        let harvested = LedgerEntry::new(7, "unit", "harvest").capture_trace(decoded);
        assert_eq!(harvested, flow);
    }

    #[test]
    fn jsonl_roundtrip_is_lossless_and_schema_valid() {
        let e = sample_entry();
        let line = e.to_json_line();
        let back = LedgerEntry::parse_line(&line).expect("line parses, validates and loads");
        assert_eq!(e, back);
    }

    #[test]
    fn line_matches_its_golden_bytes() {
        assert_eq!(
            sample_entry().to_json_line(),
            r#"{"version":1,"fingerprint":"deadbeef00421133","design":"unit","source":"harvest","status":"completed","threads":4,"resumed":false,"options":"fast","root_wall_ns":10000000,"stages":[{"name":"clustering","self_ns":3000000},{"name":"shaping","self_ns":4000000},{"name":"other","self_ns":3000000}],"qor":[{"name":"qor.legalized.hpwl","value":123.25},{"name":"qor.timing.wns","value":-0.5}],"series":[{"name":"place.outer","key":"hpwl","rows":2,"first":12.0,"last":9.5,"min":9.5,"max":12.0},{"name":"place.outer","key":"overflow","rows":2,"first":0.9,"last":0.4,"min":0.4,"max":0.9}]}"#
        );
    }

    #[test]
    fn out_of_range_counts_are_typed_errors() {
        let line = sample_entry().to_json_line();
        for (from, to, path) in [
            ("\"threads\":4", "\"threads\":-1", "threads: "),
            ("\"threads\":4", "\"threads\":4294967296", "threads: "),
            (
                "\"root_wall_ns\":10000000",
                "\"root_wall_ns\":1e300",
                "root_wall_ns: ",
            ),
            ("\"rows\":2", "\"rows\":-2", "series[0]: rows: "),
            (
                "\"self_ns\":4000000",
                "\"self_ns\":1e19",
                "stages[1]: self_ns: ",
            ),
            ("deadbeef00421133", "not-hex", "fingerprint: "),
        ] {
            assert!(line.contains(from), "{from}");
            let err = LedgerEntry::parse_line(&line.replacen(from, to, 1)).expect_err(to);
            assert!(err.contains(path), "{to}: {err}");
        }
    }

    #[test]
    fn append_and_load_roundtrip_on_disk() {
        let path =
            std::env::temp_dir().join(format!("cp_ledger_unit_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let a = sample_entry();
        let b = sample_entry().with_status("interrupted:cancelled@flow.start");
        append(&path, &a).expect("append a");
        append(&path, &b).expect("append b");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded, vec![a, b]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trend_detects_doctored_regression_by_direction() {
        let clean = sample_entry();
        let worse_hpwl = sample_entry().doctor("qor.legalized.hpwl", 1.1);
        let report = trend(&[clean.clone(), worse_hpwl], &DiffOptions::default());
        assert_eq!(report.groups, 1);
        let bad = report.regressions();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "qor.legalized.hpwl");
        assert!(bad[0].delta_pct() > 9.0);
        // WNS moving toward zero is an improvement, not a regression.
        let better_wns = sample_entry().doctor("qor.timing.wns", 0.5);
        let report = trend(&[clean.clone(), better_wns], &DiffOptions::default());
        assert!(report.regressions().is_empty());
        assert!(report
            .rows
            .iter()
            .any(|r| r.metric == "qor.timing.wns" && r.improved));
        // WNS moving away from zero regresses.
        let worse_wns = sample_entry().doctor("qor.timing.wns", 2.0);
        let report = trend(&[clean, worse_wns], &DiffOptions::default());
        assert_eq!(report.regressions().len(), 1);
    }

    #[test]
    fn trend_skips_singletons_and_interrupted_runs() {
        let a = sample_entry();
        let mut b = sample_entry();
        b.fingerprint = 0x1;
        let interrupted = sample_entry().with_status("interrupted:deadline@place.outer");
        let report = trend(&[a, b, interrupted], &DiffOptions::default());
        // Two fingerprints, both with a single *completed* run.
        assert_eq!(report.groups, 2);
        assert_eq!(report.singletons, 2);
        assert!(report.rows.is_empty());
    }

    #[test]
    fn trend_baseline_is_best_of_earlier_runs() {
        let best = sample_entry().doctor("qor.legalized.hpwl", 0.9);
        let middle = sample_entry();
        // Latest matches the *middle* run: still a regression vs best.
        let latest = sample_entry();
        let report = trend(&[best, middle, latest], &DiffOptions::default());
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "qor.legalized.hpwl")
            .expect("hpwl row");
        assert!((row.baseline - 123.25 * 0.9).abs() < 1e-9);
        assert!(row.regressed);
    }

    #[test]
    fn directions_cover_the_qor_namespace() {
        assert_eq!(
            qor_direction("qor.legalized.hpwl"),
            Direction::LowerIsBetter
        );
        assert_eq!(qor_direction("qor.route.rwl"), Direction::LowerIsBetter);
        assert_eq!(qor_direction("qor.power.total"), Direction::LowerIsBetter);
        assert_eq!(qor_direction("qor.timing.wns"), Direction::HigherIsBetter);
        assert_eq!(qor_direction("qor.timing.tns"), Direction::HigherIsBetter);
        assert_eq!(
            qor_direction("qor.timing.hold_wns"),
            Direction::HigherIsBetter
        );
        assert_eq!(qor_direction("qor.cluster.count"), Direction::Informational);
    }
}
