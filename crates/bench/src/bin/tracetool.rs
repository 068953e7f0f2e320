//! Trace analytics CLI: summarize, diff, flamegraph and QoR-gate
//! cp-trace reports.
//!
//! ```text
//! tracetool summarize <report.json>
//! tracetool diff <base.json> <new.json> [--rel R] [--abs S] [--metric-rel M]
//! tracetool flamegraph <report.json> [-o out.folded]
//! tracetool gate [--baseline FILE] [--from report.json] [--write] [--timeout-s S] [--large]
//! tracetool chaos [--seeds N] [--timeout-s S] [--site SUBSTR]
//! tracetool explain <FIELDS_frames.json>
//! tracetool explain --run PROFILE@SCALE [--fields-out F] [--report-out R] [--chrome-out C]
//! tracetool render <fields.json> [--out-dir DIR] [--name SUBSTR]
//! ```
//!
//! `gate` runs the pinned gate flow once (Aes at scale 0.02, exact V-P&R,
//! fully traced; see `cp_bench::qor_gate`) and checks the run's `qor.*`
//! gauges against `baselines/QOR_baseline.json`, exiting 1 on any
//! violation. It judges QoR only; time is the benchmark's question
//! (`benchmark/`). `--from` gates an existing report file instead of
//! running the flow; `--write` (re)records the baseline; `--timeout-s`
//! bounds the flow's wall-clock and exits 3 (distinct from the gate-fail
//! exit 1) when exceeded, while a flow that panics is an error (exit 2);
//! `--large` swaps in the large gate flow (Ariane at scale 0.5, ~60k
//! cells, uniform shapes) gated against `baselines/QOR_large.json` — the
//! large-design guard for the solver/spreading/clustering hot paths.
//! `chaos` sweeps the fault-injection sites (needs `--features
//! fault-injection`) and exits 1 when any case violates the resilience
//! contract. `diff` exits 1 when regressions survive the tolerances;
//! `summarize` and `flamegraph` are read-only.
//!
//! `explain` is the convergence doctor's front door: it diagnoses the
//! field frames of one run (a frames artifact, or a fresh hermetic
//! `--run` with frame capture on) and prints its verdicts — persistent
//! hotspot bins and spreading displacement that never decays. A `--run`
//! also prints its stage table to stderr: wall seconds per flow stage,
//! plus each stage's heap high-water mark when built with
//! `alloc-telemetry`. Verdicts are warnings: it exits 0 after a
//! diagnosis and 2 on an error. `diff` is the two-run comparison.
//! `render` turns a frames artifact into per-frame SVG heatmaps. Stdout
//! goes through `cp_bench::stdout`, so a reader that closes the pipe
//! early ends the output without changing the exit code.

use cp_bench::qor_gate::{self, Baseline};
use cp_bench::{out, outln};
use cp_core::{qor, stages};
use cp_netlist::generator::DesignProfile;
use cp_trace::json::{fmt_f64, parse, validate};
use cp_trace::{
    fields, Analysis, ArgValue, DiffOptions, Frame, FrameCapture, ReportDoc, SpanRecord, TraceDiff,
    TraceReport, Verdict,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Exit code when `gate --timeout-s` expires — distinct from the
/// gate-fail exit (1) and the usage/error exit (2).
const EXIT_TIMEOUT: u8 = 3;

/// Repo-root-relative path, resolved from this crate's manifest so the
/// bin works from any working directory.
fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Reads, decodes and analyzes a structured trace report file.
fn load_analysis(path: &str) -> Result<Analysis, String> {
    let doc = ReportDoc::from_json(&read(path)?)
        .map_err(|e| format!("`{path}` is not a trace report: {e}"))?;
    Analysis::from_report(doc).map_err(|e| format!("`{path}`: {e}"))
}

/// Parses `--flag value` style options out of `args`, returning the
/// positional arguments. Unknown flags are an error.
fn split_args(
    args: &[String],
    flags: &mut [(&str, &mut Option<String>)],
    switches: &mut [(&str, &mut bool)],
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut i = 0;
    'outer: while i < args.len() {
        let a = &args[i];
        for (name, slot) in switches.iter_mut() {
            if a == name {
                **slot = true;
                i += 1;
                continue 'outer;
            }
        }
        for (name, slot) in flags.iter_mut() {
            if a == name {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("`{name}` needs a value"))?;
                **slot = Some(v.clone());
                i += 2;
                continue 'outer;
            }
        }
        if a.starts_with('-') {
            return Err(format!("unknown option `{a}`"));
        }
        positional.push(a.clone());
        i += 1;
    }
    Ok(positional)
}

/// Reads a numeric flag value: a finite, non-negative number, or a usage
/// error naming the flag.
fn number(flag: &str, v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err(format!(
            "`{flag}` must be a finite non-negative number, got `{v}`"
        )),
    }
}

/// Reads a `--timeout-s` value.
fn timeout(v: &str) -> Result<Duration, String> {
    Duration::try_from_secs_f64(number("--timeout-s", v)?)
        .map_err(|_| format!("`--timeout-s` is out of range, got `{v}`"))
}

/// The `--rel` / `--abs` / `--metric-rel` tolerances of `diff`, each
/// defaulting to [`DiffOptions::default`].
fn diff_options(
    rel: Option<String>,
    abs: Option<String>,
    metric_rel: Option<String>,
) -> Result<DiffOptions, String> {
    let d = DiffOptions::default();
    let read = |v: Option<String>, flag, default| v.map_or(Ok(default), |v| number(flag, &v));
    Ok(DiffOptions {
        time_rel_tol: read(rel, "--rel", d.time_rel_tol)?,
        time_abs_tol_s: read(abs, "--abs", d.time_abs_tol_s)?,
        metric_rel_tol: read(metric_rel, "--metric-rel", d.metric_rel_tol)?,
    })
}

/// Reads a `--run PROFILE@SCALE` spec.
fn run_spec(spec: &str) -> Result<(DesignProfile, f64), String> {
    let (profile_name, scale) = spec
        .split_once('@')
        .ok_or_else(|| format!("`--run` wants PROFILE@SCALE (e.g. aes@0.02), got `{spec}`"))?;
    let profile = qor_gate::parse_profile(profile_name)
        .ok_or_else(|| format!("unknown profile `{profile_name}`"))?;
    match number("--run", scale)? {
        s if s > 0.0 => Ok((profile, s)),
        _ => Err(format!("`--run` scale must be positive, got `{scale}`")),
    }
}

fn summarize(args: &[String]) -> Result<(), String> {
    let pos = split_args(args, &mut [], &mut [])?;
    let [path] = pos.as_slice() else {
        return Err("usage: tracetool summarize <report.json>".into());
    };
    let a = load_analysis(path)?;
    outln!(
        "# {} — {:.3}s, {} spans, {} dropped events",
        a.root_name(),
        a.duration_seconds(),
        a.span_count(),
        a.dropped_events
    );
    outln!("\n## Self-time by span name\n");
    outln!("| span | count | wall s | self s | self % |");
    outln!("|---|---|---|---|---|");
    let total = a.duration_seconds().max(1e-12);
    for row in a.self_time_by_name().iter().take(20) {
        outln!(
            "| {} | {} | {:.4} | {:.4} | {:.1}% |",
            row.name,
            row.count,
            row.wall_s,
            row.self_s,
            row.self_s / total * 100.0
        );
    }
    outln!("\n## Critical path\n");
    for step in a.critical_path() {
        outln!(
            "{}- {} ({:.4}s wall, {:.4}s self, thread {})",
            "  ".repeat(step.depth),
            step.name,
            step.wall_s,
            step.self_s,
            step.thread
        );
    }
    let qor = a.gauges_with_prefix("qor.");
    if !qor.is_empty() {
        outln!("\n## QoR gauges\n");
        for (name, value) in qor {
            outln!("- {name}: {value}");
        }
    }
    let mem = a.gauges_with_prefix("mem.");
    if !mem.is_empty() {
        outln!("\n## Memory gauges (alloc-telemetry)\n");
        for (name, value) in mem {
            outln!("- {name}: {value}");
        }
    }
    Ok(())
}

fn diff(args: &[String]) -> Result<bool, String> {
    let (mut rel, mut abs, mut metric_rel) = (None, None, None);
    let pos = split_args(
        args,
        &mut [
            ("--rel", &mut rel),
            ("--abs", &mut abs),
            ("--metric-rel", &mut metric_rel),
        ],
        &mut [],
    )?;
    let [base_path, new_path] = pos.as_slice() else {
        return Err(
            "usage: tracetool diff <base.json> <new.json> [--rel R] [--abs S] [--metric-rel M]"
                .into(),
        );
    };
    let opts = diff_options(rel, abs, metric_rel)?;
    let base = load_analysis(base_path)?;
    let new = load_analysis(new_path)?;
    let d = TraceDiff::between(&base, &new, &opts);
    if d.is_empty() {
        outln!("no differences beyond tolerances");
        return Ok(false);
    }
    outln!("| kind | name | base | new | delta |");
    outln!("|---|---|---|---|---|");
    for e in &d.entries {
        outln!(
            "| {:?} | {} | {:.6} | {:.6} | {:+.6} |",
            e.kind,
            e.name,
            e.base,
            e.new,
            e.delta()
        );
    }
    let regressions = d.regressions().len();
    outln!(
        "\n{} entries, {} regression(s)",
        d.entries.len(),
        regressions
    );
    Ok(regressions > 0)
}

fn flamegraph(args: &[String]) -> Result<(), String> {
    let mut out = None;
    let pos = split_args(args, &mut [("-o", &mut out)], &mut [])?;
    let [path] = pos.as_slice() else {
        return Err("usage: tracetool flamegraph <report.json> [-o out.folded]".into());
    };
    let folded = load_analysis(path)?.folded();
    match out {
        Some(dest) => {
            std::fs::write(&dest, &folded).map_err(|e| format!("cannot write `{dest}`: {e}"))?;
            eprintln!(
                "wrote {} ({} stacks) — load it in speedscope or inferno-flamegraph",
                dest,
                folded.lines().count()
            );
        }
        None => out!("{folded}"),
    }
    Ok(())
}

/// Runs the gate flow once under [`cp_bench::with_watchdog`] and
/// analyzes its trace. `Ok(None)` means `timeout` expired first; a flow
/// that panics is an error carrying the panic message.
fn gate_run(timeout: Option<Duration>, large: bool) -> Result<Option<Analysis>, String> {
    let run = move || -> Result<Analysis, String> {
        let t0 = Instant::now();
        let report = if large {
            qor_gate::run_gate_flow_large()
        } else {
            qor_gate::run_gate_flow()
        }
        .map_err(|e| format!("gate flow: {e}"))?;
        let trace = report.trace.as_ref().ok_or("gate flow produced no trace")?;
        eprintln!(
            "gate flow: {:.3}s, hpwl {}",
            t0.elapsed().as_secs_f64(),
            report.hpwl
        );
        Analysis::from_report(trace).map_err(|e| format!("analyze gate trace: {e}"))
    };
    cp_bench::with_watchdog(timeout.unwrap_or(Duration::MAX), run)
        .map_err(|panic| format!("gate flow panicked: {panic}"))?
        .transpose()
}

fn gate(args: &[String]) -> Result<u8, String> {
    let (mut baseline_path, mut from, mut timeout_s) = (None, None, None);
    let (mut write, mut large) = (false, false);
    let pos = split_args(
        args,
        &mut [
            ("--baseline", &mut baseline_path),
            ("--from", &mut from),
            ("--timeout-s", &mut timeout_s),
        ],
        &mut [("--write", &mut write), ("--large", &mut large)],
    )?;
    if !pos.is_empty() {
        return Err(format!("gate takes no positional arguments, got {pos:?}"));
    }
    let baseline_path = baseline_path
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            repo_path(if large {
                "baselines/QOR_large.json"
            } else {
                "baselines/QOR_baseline.json"
            })
        });
    let timeout = timeout_s.as_deref().map(timeout).transpose()?;

    // The run to gate: an existing report file, or one execution of the
    // pinned gate flow — QoR is bitwise-deterministic, so one is the
    // answer.
    let run = match &from {
        Some(path) => load_analysis(path)?,
        None => match gate_run(timeout, large)? {
            Some(run) => run,
            None => {
                outln!(
                    "gate TIMEOUT: the gate flow did not finish within {}s",
                    timeout.map_or(0.0, |t| t.as_secs_f64())
                );
                return Ok(EXIT_TIMEOUT);
            }
        },
    };

    if write {
        let (design, scale) = if large {
            ("ariane", qor_gate::GATE_LARGE_SCALE)
        } else {
            ("aes", qor_gate::GATE_SCALE)
        };
        let b = Baseline::from_analysis(&run, design, scale);
        if let Some(dir) = baseline_path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(&baseline_path, b.to_json())
            .map_err(|e| format!("cannot write `{}`: {e}", baseline_path.display()))?;
        outln!(
            "wrote baseline {} ({} qor gauges)",
            baseline_path.display(),
            b.qor.len()
        );
        return Ok(0);
    }

    let src = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "cannot read `{}`: {e} (generate it with `tracetool gate --write`)",
            baseline_path.display()
        )
    })?;
    let baseline =
        Baseline::from_json(&src).map_err(|e| format!("`{}`: {e}", baseline_path.display()))?;
    let failures = baseline.check(&run);
    if failures.is_empty() {
        outln!(
            "gate PASS: {} qor gauges within tolerance of {}",
            baseline.qor.len(),
            baseline_path.display()
        );
        return Ok(0);
    }
    outln!("gate FAIL vs {}:", baseline_path.display());
    for f in &failures {
        outln!("- {f}");
    }
    Ok(1)
}

/// Deterministic fault-injection sweep: arm each site at seed-derived
/// hit indices and assert the resilience contract (typed error, clean
/// recorded recovery, or bitwise-identical resume — never a panic, hang
/// or silent QoR drift). Needs `--features fault-injection`.
fn chaos(args: &[String]) -> Result<u8, String> {
    let (mut seeds, mut timeout_s, mut site) = (None, None, None);
    let pos = split_args(
        args,
        &mut [
            ("--seeds", &mut seeds),
            ("--timeout-s", &mut timeout_s),
            ("--site", &mut site),
        ],
        &mut [],
    )?;
    if !pos.is_empty() {
        return Err(format!("chaos takes no positional arguments, got {pos:?}"));
    }
    let seeds: u64 = seeds
        .map(|v| {
            v.parse()
                .map_err(|_| format!("`--seeds` must be an integer, got `{v}`"))
        })
        .transpose()?
        .unwrap_or(3)
        .max(1);
    let timeout = timeout_s
        .as_deref()
        .map_or(Ok(Duration::from_secs(120)), timeout)?;
    let report = cp_bench::chaos::run_chaos(seeds, timeout, site.as_deref())?;
    out!("{}", report.render());
    Ok(u8::from(report.failures() > 0))
}

/// Loads a `field_frames.schema.json`-shaped artifact.
fn load_frames(path: &str) -> Result<FrameCapture, String> {
    cp_trace::fields::decode_json(&read(path)?).map_err(|e| format!("`{path}`: {e}"))
}

fn print_verdicts(verdicts: &[Verdict]) {
    if verdicts.is_empty() {
        outln!("no anomalies detected");
        return;
    }
    for v in verdicts {
        outln!("[warning] {} @ {}", v.kind.as_str(), v.stage);
        outln!("  evidence:   {}", v.evidence);
        outln!("  suggestion: {}", v.suggestion);
    }
}

/// The run's flow stages with their wall clock and, when the run was
/// built with `alloc-telemetry`, each stage's live-heap high-water mark.
/// Written to stderr beside the run summary, so stdout carries the
/// verdicts alone and matches `explain` on the written frames.
fn print_stage_table(trace: &TraceReport) {
    let heap_peak = |s: &SpanRecord| {
        s.args.iter().find_map(|&(key, value)| match value {
            ArgValue::U(bytes) if key == qor::HEAP_PEAK_ARG => Some(bytes),
            _ => None,
        })
    };
    let stage_spans: Vec<&SpanRecord> = trace
        .spans
        .iter()
        .filter(|s| s.parent == trace.root && stages::ALL.contains(&s.name))
        .collect();
    let with_heap = stage_spans.iter().any(|s| heap_peak(s).is_some());
    let heap_head = if with_heap { " heap peak MiB |" } else { "" };
    eprintln!("| stage | wall s |{heap_head}");
    eprintln!("|---|---|{}", if with_heap { "---|" } else { "" });
    for s in stage_spans {
        let heap = match heap_peak(s) {
            Some(bytes) => format!(" {:.1} |", bytes as f64 / (1u64 << 20) as f64),
            None if with_heap => " |".into(),
            None => String::new(),
        };
        eprintln!("| {} | {:.3} |{heap}", s.name, s.seconds());
    }
}

const EXPLAIN_USAGE: &str = "usage: tracetool explain <FIELDS_frames.json>\n\
     \x20      tracetool explain --run PROFILE@SCALE [--fields-out F] [--report-out R] [--chrome-out C]";

/// The convergence doctor: diagnoses one run's field frames, from a
/// frames artifact or a fresh hermetic run.
fn explain(args: &[String]) -> Result<(), String> {
    let (mut run, mut fields_out, mut report_out, mut chrome_out) = (None, None, None, None);
    let pos = split_args(
        args,
        &mut [
            ("--run", &mut run),
            ("--fields-out", &mut fields_out),
            ("--report-out", &mut report_out),
            ("--chrome-out", &mut chrome_out),
        ],
        &mut [],
    )?;
    let Some(spec) = run else {
        let [frames_path] = pos.as_slice() else {
            return Err(EXPLAIN_USAGE.into());
        };
        if fields_out.is_some() || report_out.is_some() || chrome_out.is_some() {
            return Err("`--fields-out`/`--report-out`/`--chrome-out` need `--run`".into());
        }
        print_verdicts(&fields::diagnose(&load_frames(frames_path)?.frames));
        return Ok(());
    };
    if !pos.is_empty() {
        return Err(EXPLAIN_USAGE.into());
    }
    let (profile, scale) = run_spec(&spec)?;
    let t0 = Instant::now();
    let (report, capture) =
        qor_gate::run_hermetic_fields(profile, scale).map_err(|e| format!("hermetic flow: {e}"))?;
    let trace = report
        .trace
        .as_ref()
        .ok_or("hermetic flow produced no trace")?;
    eprintln!(
        "hermetic {} @ {scale}: {:.3}s, {} field frame(s) ({} dropped)",
        profile.name(),
        t0.elapsed().as_secs_f64(),
        capture.frames.len(),
        capture.dropped_frames
    );
    print_stage_table(trace);
    if let Some(dest) = fields_out {
        std::fs::write(&dest, fields::to_json(&capture))
            .map_err(|e| format!("cannot write `{dest}`: {e}"))?;
        eprintln!("wrote {dest}");
    }
    if let Some(dest) = report_out {
        std::fs::write(&dest, trace.to_json())
            .map_err(|e| format!("cannot write `{dest}`: {e}"))?;
        eprintln!("wrote {dest}");
    }
    if let Some(dest) = chrome_out {
        std::fs::write(&dest, cp_trace::chrome_trace(&[trace]))
            .map_err(|e| format!("cannot write `{dest}`: {e}"))?;
        eprintln!("wrote {dest} — load it in chrome://tracing or ui.perfetto.dev");
    }
    print_verdicts(&fields::diagnose(&capture.frames));
    Ok(())
}

/// Linear three-stop color ramp for heatmap cells: quiet bins match the
/// placement SVG's core fill, mid bins its cell blue, hot bins its red.
fn heat_color(t: f64) -> String {
    const STOPS: [(f64, f64, f64); 3] = [
        (245.0, 245.0, 245.0), // #f5f5f5
        (78.0, 121.0, 167.0),  // #4e79a7
        (225.0, 87.0, 89.0),   // #e15759
    ];
    let t = if t.is_finite() {
        t.clamp(0.0, 1.0)
    } else {
        0.0
    } * 2.0;
    let (lo, hi, f) = if t <= 1.0 {
        (STOPS[0], STOPS[1], t)
    } else {
        (STOPS[1], STOPS[2], t - 1.0)
    };
    let ch = |a: f64, b: f64| (a + (b - a) * f).round() as u8;
    format!(
        "#{:02x}{:02x}{:02x}",
        ch(lo.0, hi.0),
        ch(lo.1, hi.1),
        ch(lo.2, hi.2)
    )
}

/// Renders one frame as an SVG heatmap, `max` being the
/// sequence-wide normalization ceiling. Bin (0, 0) sits at the lower
/// left, matching the placer's grid origin (SVG y grows downward, so
/// rows are flipped).
fn frame_svg(frame: &Frame, max: f64) -> String {
    use std::fmt::Write as _;
    let (nx, ny) = (frame.nx.max(1), frame.ny.max(1));
    let cell = 800.0 / nx.max(ny) as f64;
    let (w, h) = (nx as f64 * cell, ny as f64 * cell);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w:.0}\" height=\"{h:.0}\" viewBox=\"0 0 {w:.1} {h:.1}\">"
    );
    let _ = writeln!(
        out,
        "<title>{} @ {} iter {}</title>",
        cp_trace::json::escape(&frame.name),
        cp_trace::json::escape(&frame.stage),
        frame.iter
    );
    let _ = writeln!(
        out,
        "<rect x=\"0\" y=\"0\" width=\"{w:.2}\" height=\"{h:.2}\" fill=\"#f5f5f5\" stroke=\"#222222\"/>"
    );
    let norm = if max > 0.0 { max } else { 1.0 };
    for by in 0..ny {
        for bx in 0..nx {
            // A frame holds exactly nx*ny values: only a grid
            // with a zero side (drawn as empty cells) has none to read.
            let v = f64::from(frame.values.get(by * nx + bx).copied().unwrap_or(0.0));
            if v <= 0.0 {
                continue;
            }
            let x = bx as f64 * cell;
            let y = (ny - 1 - by) as f64 * cell;
            let _ = writeln!(
                out,
                "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{cell:.2}\" height=\"{cell:.2}\" fill=\"{}\"/>",
                heat_color(v / norm)
            );
        }
    }
    out.push_str("</svg>\n");
    out
}

fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// `render`: SVG heatmap sequences from a field-frames artifact, one
/// file per frame, normalized per (name, stage) sequence.
fn render(args: &[String]) -> Result<(), String> {
    let (mut out_dir, mut name_filter) = (None, None);
    let pos = split_args(
        args,
        &mut [("--out-dir", &mut out_dir), ("--name", &mut name_filter)],
        &mut [],
    )?;
    let [path] = pos.as_slice() else {
        return Err("usage: tracetool render <fields.json> [--out-dir DIR] [--name SUBSTR]".into());
    };
    let frames = load_frames(path)?.frames;
    let out_dir = std::path::PathBuf::from(out_dir.unwrap_or_else(|| "frames_svg".to_string()));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", out_dir.display()))?;

    // Group into (name, stage) sequences in first-appearance order.
    let mut sequences: Vec<((String, String), Vec<&Frame>)> = Vec::new();
    for f in &frames {
        if let Some(filter) = &name_filter {
            if !f.name.contains(filter.as_str()) {
                continue;
            }
        }
        let key = (f.name.clone(), f.stage.clone());
        match sequences.iter_mut().find(|(k, _)| *k == key) {
            Some((_, seq)) => seq.push(f),
            None => sequences.push((key, vec![f])),
        }
    }
    if sequences.is_empty() {
        return Err(match name_filter {
            Some(filter) => format!("no frames match `--name {filter}` in `{path}`"),
            None => format!("no frames in `{path}`"),
        });
    }
    let mut written = 0usize;
    for (si, ((name, stage), seq)) in sequences.iter().enumerate() {
        let max = seq
            .iter()
            .flat_map(|f| f.values.iter())
            .fold(0.0f64, |m, &v| m.max(f64::from(v)));
        for (fi, frame) in seq.iter().enumerate() {
            let file = out_dir.join(format!(
                "{si:02}_{}_{}_{fi:04}.svg",
                sanitize(name),
                sanitize(stage)
            ));
            std::fs::write(&file, frame_svg(frame, max))
                .map_err(|e| format!("cannot write `{}`: {e}", file.display()))?;
            written += 1;
        }
        outln!(
            "{name} @ {stage}: {} frame(s), {}x{}, max {}",
            seq.len(),
            seq.first().map_or(0, |f| f.nx),
            seq.first().map_or(0, |f| f.ny),
            fmt_f64(max)
        );
    }
    outln!("wrote {written} SVG(s) -> {}", out_dir.display());
    Ok(())
}

/// Validates a JSON file against a repo schema (used by CI for the
/// committed baseline).
fn check_schema(args: &[String]) -> Result<bool, String> {
    let pos = split_args(args, &mut [], &mut [])?;
    let [doc_path, schema_path] = pos.as_slice() else {
        return Err("usage: tracetool check-schema <doc.json> <schema.json>".into());
    };
    let doc = parse(&read(doc_path)?).map_err(|e| format!("`{doc_path}`: {e}"))?;
    let schema = parse(&read(schema_path)?).map_err(|e| format!("`{schema_path}`: {e}"))?;
    let violations = validate(&doc, &schema);
    if violations.is_empty() {
        outln!("{doc_path} conforms to {schema_path}");
        return Ok(false);
    }
    outln!("{doc_path} violates {schema_path}:");
    for v in &violations {
        outln!("- {v}");
    }
    Ok(true)
}

const USAGE: &str = "usage: tracetool <summarize|diff|flamegraph|gate|chaos|explain|render|check-schema> ...\n\
     \n\
     summarize <report.json>                    self-time table, critical path, QoR gauges\n\
     diff <base.json> <new.json>                span/metric diff (--rel/--abs/--metric-rel)\n\
     flamegraph <report.json> [-o out.folded]   collapsed stacks for speedscope/inferno\n\
     gate [--baseline F] [--from R] [--write] [--timeout-s S] [--large]\n\
     \x20                                          run the pinned flow once and gate its qor.*\n\
     \x20                                          gauges vs the baseline (exit 3 when the\n\
     \x20                                          wall-clock timeout expires; --large gates the\n\
     \x20                                          ~60k-cell Ariane flow vs baselines/QOR_large.json)\n\
     chaos [--seeds N] [--timeout-s S] [--site SUBSTR]\n\
     \x20                                          fault-injection sweep (needs --features fault-injection)\n\
     explain <FIELDS_frames.json>\n\
     explain --run PROFILE@SCALE [--fields-out F] [--report-out R] [--chrome-out C]\n\
     \x20                                          convergence doctor: hotspot-persistence and\n\
     \x20                                          displacement-conflict warnings over field frames\n\
     render <fields.json> [--out-dir DIR] [--name SUBSTR]\n\
     \x20                                          SVG heatmap sequences from a field-frames artifact\n\
     check-schema <doc.json> <schema.json>      validate a JSON file against a repo schema";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match cmd.as_str() {
        "summarize" => summarize(rest).map(|()| 0),
        "diff" => diff(rest).map(u8::from),
        "flamegraph" => flamegraph(rest).map(|()| 0),
        "gate" => gate(rest),
        "chaos" => chaos(rest),
        "explain" => explain(rest).map(|()| 0),
        "render" => render(rest).map(|()| 0),
        "check-schema" => check_schema(rest).map(u8::from),
        _ => {
            eprintln!("unknown subcommand `{cmd}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("tracetool {cmd}: {e}");
            ExitCode::from(2)
        }
    }
}
