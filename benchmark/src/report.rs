//! What the benchmark writes and reads back: the per-workload record, the
//! result line the driver parses, `compare`, and the committed baseline.

use crate::layers::json::{self, Json};
use crate::layers::{self, Workload};
use crate::metrics::{Better, MetricDef, Values, END_TO_END, PER_LAYER};
use crate::spans::{self, Span};
use crate::stats;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Where records go unless `--out` says otherwise (relative to the
/// repository root, which is where the benchmark is run from).
pub fn default_out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// Everything one run of one workload measured.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub threads: usize,
    pub smoke: bool,
    pub cells: usize,
    pub nets: usize,
    pub pins: usize,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Option<Values>,
    /// The timing samples behind the medians, by metric name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub per_layer: Option<Values>,
    pub spans: Vec<Span>,
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quoted(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metric_objects(rows: &[(MetricDef, f64)]) -> String {
    let fields: Vec<(&str, String)> = rows
        .iter()
        .map(|(d, v)| {
            let fields = [("value", json::fmt_f64(*v)), ("unit", quoted(d.unit))];
            (d.name, object(&fields))
        })
        .collect();
    object(&fields)
}

impl Run {
    fn rows(&self) -> Vec<(MetricDef, f64)> {
        let mut rows = Vec::new();
        if let Some(v) = &self.end_to_end {
            rows.extend(v.in_order(END_TO_END));
        }
        if let Some(v) = &self.per_layer {
            rows.extend(v.in_order(PER_LAYER));
        }
        rows
    }

    fn samples_of(&self, name: &str) -> Option<&[f64]> {
        let found = self.samples.iter().find(|(n, _)| *n == name);
        found.map(|(_, v)| v.as_slice())
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  threads {} of {} cores  cells {}  nets {}  pins {}{}",
            self.workload,
            self.seed,
            self.threads,
            layers::detected_cores(),
            self.cells,
            self.nets,
            self.pins,
            if self.smoke { "  SMOKE" } else { "" },
        );
        for (d, v) in self.rows() {
            let mut line = format!("  {:<34} {:>16.6} {}", d.name, v, d.unit);
            let samples = self
                .samples_of(d.name)
                .filter(|_| self.end_to_end.is_some());
            if let Some(samples) = samples {
                let s = stats::summarize(samples);
                // Below the median a "tail" says nothing about slow reps.
                let tail = match stats::highest_supported_percentile(s.n).filter(|&p| p >= 50) {
                    Some(p) => format!("p{p} {:.4}", stats::percentile(samples, p)),
                    None => format!("no tail percentile: {} samples carry none", s.n),
                };
                let _ = write!(
                    line,
                    "   median of {}; min {:.4}, max {:.4}, IQR {:.4} ({:.1}% of median); {tail}",
                    s.n,
                    s.min,
                    s.max,
                    s.iqr(),
                    s.iqr_pct(),
                );
            }
            println!("{line}");
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        );
    }

    /// The object the driver reads from the last line of standard output.
    pub fn result_line(&self) -> String {
        object(&[
            ("correct", (self.failed == 0).to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", metric_objects(&self.rows())),
        ])
    }

    /// Writes `<dir>/<workload>.json` and, after a traced run,
    /// `<dir>/<workload>.spans.json`.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let host = object(&[
            ("detected_cores", layers::detected_cores().to_string()),
            ("arch", quoted(std::env::consts::ARCH)),
            ("os", quoted(std::env::consts::OS)),
            ("commit", quoted(&crate::host::git_commit())),
        ]);
        let samples: Vec<(&str, String)> = self
            .samples
            .iter()
            .map(|(name, values)| {
                let values: Vec<String> = values.iter().map(|&v| json::fmt_f64(v)).collect();
                (*name, format!("[{}]", values.join(", ")))
            })
            .collect();
        let layer_rows = |v: &Option<Values>, defs| match v {
            Some(v) => metric_objects(&v.in_order(defs)),
            None => "null".to_string(),
        };
        let record = object(&[
            ("workload", quoted(self.workload)),
            ("seed", self.seed.to_string()),
            ("threads", self.threads.to_string()),
            ("smoke", self.smoke.to_string()),
            ("cells", self.cells.to_string()),
            ("nets", self.nets.to_string()),
            ("pins", self.pins.to_string()),
            ("host", host),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("samples", object(&samples)),
            ("end_to_end", layer_rows(&self.end_to_end, END_TO_END)),
            ("per_layer", layer_rows(&self.per_layer, PER_LAYER)),
        ]);
        let path = dir.join(format!("{}.json", self.workload));
        std::fs::write(&path, record + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        if !self.spans.is_empty() {
            let path = dir.join(format!("{}.spans.json", self.workload));
            std::fs::write(&path, spans::to_json(&self.spans))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(())
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn number(j: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(j, |j, key| j.get(key))?.as_f64()
}

/// Inter-quartile range of a record's samples as a share of their median;
/// 0 for a metric without samples (deterministic values).
fn spread(record: &Json, metric: &str) -> f64 {
    let samples = record.get("samples").and_then(|s| s.get(metric));
    let values: Vec<f64> = samples
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    if values.len() < 2 {
        return 0.0;
    }
    let s = stats::summarize(&values);
    s.iqr() / s.median
}

/// Compares two `run-all` output directories, `b` against the base `a`, one
/// row per workload and end-to-end metric, with the bounds of
/// `BENCHMARK.json`. `Ok(false)` when any row is worse or more operations
/// failed.
pub fn compare(a_dir: &Path, b_dir: &Path, bounds_path: &Path) -> Result<bool, String> {
    let manifest = read_json(bounds_path)?;
    let bounds = manifest
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut ok = true;
    println!(
        "{:<18} {:<13} {:>14} {:>14} {:>9} {:>6} {:>8}  status",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
    );
    for w in Workload::ALL {
        let file = format!("{}.json", w.name());
        let (a, b) = (
            read_json(&a_dir.join(&file))?,
            read_json(&b_dir.join(&file))?,
        );
        for def in END_TO_END {
            let entry = bounds
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(def.name));
            let bound = entry
                .and_then(|e| number(e, &["bound"]))
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let value = |r: &Json, side: &str| {
                number(r, &["end_to_end", def.name, "value"])
                    .ok_or_else(|| format!("{side}/{file} has no {}", def.name))
            };
            let (va, vb) = (value(&a, "a")?, value(&b, "b")?);
            let worse_by = match def.better {
                Better::Lower => (vb - va) / va.abs(),
                Better::Higher => (va - vb) / va.abs(),
            };
            let noise = spread(&a, def.name).max(spread(&b, def.name));
            let status = if worse_by > bound {
                ok = false;
                "worse"
            } else if noise > bound {
                "unresolved (spread > bound)"
            } else {
                "ok"
            };
            println!(
                "{:<18} {:<13} {:>14.4} {:>14.4} {:>9.4} {:>5.0}% {:>7.1}%  {status}",
                w.name(),
                def.name,
                va,
                vb,
                vb / va,
                100.0 * bound,
                100.0 * noise,
            );
        }
        let failed_share = |r: &Json| -> Result<f64, String> {
            let part = |key| number(r, &[key]).ok_or(format!("{file} has no {key}"));
            Ok(part("failed")? / part("attempted")?)
        };
        let (fa, fb) = (failed_share(&a)?, failed_share(&b)?);
        if fb > fa {
            ok = false;
            println!(
                "{:<18} failed operations rose from {fa:.4} to {fb:.4} of attempted: worse",
                w.name()
            );
        }
    }
    println!("every ratio is b over a; a is the base");
    Ok(ok)
}

/// Writes the committed baseline from a full `run-all` output directory.
/// Refuses smoke records, records without a host fingerprint, and records
/// of a smaller design than the baseline already holds.
pub fn record_baseline(from: &Path, to: &Path) -> Result<(), String> {
    let previous = to.exists().then(|| read_json(to)).transpose()?;
    let mut workloads = Vec::new();
    let mut host = None;
    for w in Workload::ALL {
        let path = from.join(format!("{}.json", w.name()));
        let record = read_json(&path)?;
        if record.get("smoke") != Some(&Json::Bool(false)) {
            return Err(format!(
                "{}: a smoke record cannot become the baseline",
                path.display()
            ));
        }
        let cores = number(&record, &["host", "detected_cores"]).unwrap_or(0.0);
        let arch = record
            .get("host")
            .and_then(|h| h.get("arch"))
            .and_then(Json::as_str);
        if cores < 1.0 || arch.is_none_or(str::is_empty) {
            return Err(format!("{}: no host fingerprint", path.display()));
        }
        let cells = number(&record, &["cells"]).ok_or("record without cells")?;
        let committed = previous
            .as_ref()
            .and_then(|p| number(p, &["workloads", w.name(), "cells"]));
        if committed.is_some_and(|c| cells < c) {
            return Err(format!(
                "{}: {cells} cells is below the committed baseline's {}",
                path.display(),
                committed.unwrap_or(0.0)
            ));
        }
        let values = |section: &str, defs: &[MetricDef]| -> Result<String, String> {
            let fields: Result<Vec<(&str, String)>, String> = defs
                .iter()
                .map(|d| {
                    number(&record, &[section, d.name, "value"])
                        .map(|v| (d.name, json::fmt_f64(v)))
                        .ok_or_else(|| format!("{}: no {}", path.display(), d.name))
                })
                .collect();
            Ok(object(&fields?))
        };
        let integer = |key: &str| number(&record, &[key]).map_or(0, |v| v as u64).to_string();
        workloads.push((
            w.name(),
            object(&[
                ("why", quoted(w.why())),
                ("cells", integer("cells")),
                ("nets", integer("nets")),
                ("pins", integer("pins")),
                ("seed", integer("seed")),
                ("threads", integer("threads")),
                ("ops_attempted", integer("attempted")),
                ("ops_failed", integer("failed")),
                ("end_to_end", values("end_to_end", END_TO_END)?),
                ("per_layer", values("per_layer", PER_LAYER)?),
            ]),
        ));
        let this_host = record.get("host").cloned();
        if host.is_some() && host != this_host {
            return Err("the records come from different hosts or commits".to_string());
        }
        host = this_host;
    }
    let host = host.ok_or("no records")?;
    let host_field = |key: &str| {
        host.get(key)
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let pinned: Vec<String> = layers::PINNED_API.iter().map(|s| quoted(s)).collect();
    let workload_fields: Vec<String> = workloads
        .iter()
        .map(|(name, body)| format!("    {}: {body}", quoted(name)))
        .collect();
    let text = format!(
        "{{\n  \"host\": {},\n  \"pinned_api\": [\n    {}\n  ],\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        object(&[
            (
                "detected_cores",
                number(&host, &["detected_cores"]).map_or(0, |v| v as u64).to_string()
            ),
            ("arch", quoted(&host_field("arch"))),
            ("os", quoted(&host_field("os"))),
            ("commit", quoted(&host_field("commit"))),
        ]),
        pinned.join(",\n    "),
        workload_fields.join(",\n"),
    );
    std::fs::write(to, text).map_err(|e| format!("{}: {e}", to.display()))?;
    println!("wrote {}", to.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        read_json(&path).expect("BENCHMARK.json at the repository root")
    }

    fn listed(manifest: &Json, key: &str) -> Vec<(String, String, String)> {
        let list = manifest.get(key).and_then(Json::as_array).expect(key);
        let text = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
        list.iter()
            .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_reports() {
        let m = manifest();
        assert_eq!(listed(&m, "end_to_end"), defined(END_TO_END));
        assert_eq!(listed(&m, "per_layer"), defined(PER_LAYER));
    }

    #[test]
    fn benchmark_json_lists_the_workloads_with_their_reasons() {
        let m = manifest();
        let list = m
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let listed: Vec<(&str, &str)> = list
            .iter()
            .map(|w| {
                let text = |k| w.get(k).and_then(Json::as_str).expect(k);
                (text("name"), text("why"))
            })
            .collect();
        let defined: Vec<(&str, &str)> =
            Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(listed, defined);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut e2e = Values::default();
        e2e.set("flow_wall_s", 1.25);
        let run = Run {
            workload: "jpeg_flat",
            seed: 1,
            threads: 2,
            smoke: true,
            cells: 10,
            nets: 9,
            pins: 30,
            attempted: 5,
            failed: 0,
            end_to_end: Some(e2e),
            samples: vec![("flow_wall_s", vec![1.0, 1.25, 1.5])],
            per_layer: None,
            spans: Vec::new(),
        };
        let parsed = json::parse(&run.result_line()).expect("valid JSON");
        let Json::Obj(top) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            number(&parsed, &["metrics", "flow_wall_s", "value"]),
            Some(1.25)
        );
    }
}
