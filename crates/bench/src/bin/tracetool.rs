//! Trace CLI: QoR-gate a run, explain a run and check a document
//! against its schema.
//!
//! ```text
//! tracetool gate [--baseline FILE] [--write] [--large]
//! tracetool explain --run PROFILE@SCALE [--report-out R] [--chrome-out C] [--svg-dir D]
//! tracetool check-schema <doc.json> <schema.json>
//! ```
//!
//! `gate` runs the pinned gate flow once (Aes at scale 0.02, exact V-P&R,
//! fully traced; see `cp_bench::qor_gate`) and checks the run's `qor.*`
//! gauges against `baselines/QOR_baseline.json`, exiting 1 on any
//! violation. It judges QoR only; time is the benchmark's question
//! (`benchmark/`). `--write` (re)records the baseline; `--large` swaps in
//! the large gate flow (Ariane at scale 0.5, ~60k cells, uniform shapes)
//! gated against `baselines/QOR_large.json` — the large-design guard for
//! the solver/spreading/clustering hot paths.
//!
//! `explain` is the convergence doctor's front door and the one command
//! that reads a run: it runs one hermetic, fully-traced flow with the gate
//! options and prints the doctor's verdicts over the field frames of its
//! trace — persistent hotspot bins and spreading displacement that never
//! decays. To stderr it prints its stage table (wall seconds per flow
//! stage, plus each stage's heap high-water mark when built with
//! `alloc-telemetry`) and its self-time table (the 20 span names with the
//! most self time, and the dropped-event count), read from the live
//! trace. The report it writes with `--report-out` (frames included) is
//! for people and `check-schema`, the `--chrome-out` timeline for
//! Perfetto, and `--svg-dir` writes one SVG heatmap per frame; nothing
//! reads any of them back. Verdicts are warnings: it exits 0 after a
//! diagnosis and 2 on an error. Stdout carries the verdicts alone and goes
//! through `cp_bench::stdout`, so a reader that closes the pipe early ends
//! the output without changing the exit code.

use cp_bench::outln;
use cp_bench::qor_gate::{self, Baseline};
use cp_bench::support::Bench;
use cp_core::{qor, stages};
use cp_netlist::generator::DesignProfile;
use cp_trace::json::{fmt_f64, parse, validate};
use cp_trace::{fields, ArgValue, Frame, SpanRecord, TraceReport, Verdict};
use std::process::ExitCode;
use std::time::Instant;

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

fn gate(args: &[String]) -> Result<u8, String> {
    let mut baseline_path = None;
    let (mut write, mut large) = (false, false);
    let pos = split_args(
        args,
        &mut [("--baseline", &mut baseline_path)],
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

    // One execution of the pinned gate flow: QoR is
    // bitwise-deterministic, so one is the answer.
    let t0 = Instant::now();
    let (bench, options) = if large {
        (qor_gate::gate_bench_large(), qor_gate::gate_large_options())
    } else {
        (qor_gate::gate_bench(), qor_gate::gate_options())
    };
    let report = qor_gate::run_traced(&bench, &options).map_err(|e| format!("gate flow: {e}"))?;
    eprintln!(
        "gate flow: {:.3}s, hpwl {}",
        t0.elapsed().as_secs_f64(),
        report.hpwl
    );
    let run = report.trace.ok_or("gate flow produced no trace")?;

    if write {
        let (design, scale) = if large {
            ("ariane", qor_gate::GATE_LARGE_SCALE)
        } else {
            ("aes", qor_gate::GATE_SCALE)
        };
        let b = Baseline::from_trace(&run, design, scale);
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
/// verdicts alone.
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

/// The run's 20 span names with the most self time (wall minus direct
/// children), then the events the collector dropped. Written to stderr
/// after the stage table; the self column of all names sums to the root
/// span's wall time.
fn print_self_time_table(trace: &TraceReport) {
    let total = trace.duration_seconds().max(1e-12);
    eprintln!("\n| span | count | wall s | self s | self % |");
    eprintln!("|---|---|---|---|---|");
    for t in trace.self_seconds_by_name().iter().take(20) {
        eprintln!(
            "| {} | {} | {:.4} | {:.4} | {:.1}% |",
            t.name,
            t.count,
            t.wall_s,
            t.self_s,
            t.self_s / total * 100.0
        );
    }
    eprintln!("{} dropped event(s)", trace.dropped_events);
}

const EXPLAIN_USAGE: &str = "usage: tracetool explain --run PROFILE@SCALE \
     [--report-out R] [--chrome-out C] [--svg-dir D]";

/// The convergence doctor: runs one hermetic, fully-traced flow and
/// diagnoses the field frames of its trace.
fn explain(args: &[String]) -> Result<(), String> {
    let (mut run, mut report_out, mut chrome_out, mut svg_dir) = (None, None, None, None);
    let pos = split_args(
        args,
        &mut [
            ("--run", &mut run),
            ("--report-out", &mut report_out),
            ("--chrome-out", &mut chrome_out),
            ("--svg-dir", &mut svg_dir),
        ],
        &mut [],
    )?;
    let (Some(spec), []) = (run, pos.as_slice()) else {
        return Err(EXPLAIN_USAGE.into());
    };
    let (profile, scale) = run_spec(&spec)?;
    let t0 = Instant::now();
    let bench = Bench::generate_at(profile, scale);
    let report = qor_gate::run_traced(&bench, &qor_gate::gate_options())
        .map_err(|e| format!("hermetic flow: {e}"))?;
    let trace = report
        .trace
        .as_ref()
        .ok_or("hermetic flow produced no trace")?;
    eprintln!(
        "hermetic {} @ {scale}: {:.3}s, {} field frame(s)",
        profile.name(),
        t0.elapsed().as_secs_f64(),
        trace.frames.len()
    );
    print_stage_table(trace);
    print_self_time_table(trace);
    if let Some(dest) = report_out {
        std::fs::write(&dest, trace.to_json())
            .map_err(|e| format!("cannot write `{dest}`: {e}"))?;
        eprintln!("wrote {dest}");
    }
    if let Some(dest) = chrome_out {
        std::fs::write(&dest, cp_trace::chrome_trace(trace))
            .map_err(|e| format!("cannot write `{dest}`: {e}"))?;
        eprintln!("wrote {dest} — load it in chrome://tracing or ui.perfetto.dev");
    }
    if let Some(dir) = svg_dir {
        write_svgs(&trace.frames, std::path::Path::new(&dir))?;
    }
    print_verdicts(&fields::diagnose(&trace.frames));
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
        cp_trace::json::escape(frame.name),
        cp_trace::json::escape(frame.stage),
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

/// True for a file name [`write_svgs`] writes,
/// `{si:02}_{name}_{stage}_{fi:04}.svg` with `name` and `stage` passed
/// through [`sanitize`] (which leaves no `_` in them).
fn is_frame_svg(file: &str) -> bool {
    let digits = |s: &str, min: usize| s.len() >= min && s.bytes().all(|c| c.is_ascii_digit());
    let label = |s: &str| s.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'-');
    let Some(stem) = file.strip_suffix(".svg") else {
        return false;
    };
    matches!(
        stem.split('_').collect::<Vec<_>>().as_slice(),
        [si, name, stage, fi] if digits(si, 2) && label(name) && label(stage) && digits(fi, 4)
    )
}

/// SVG heatmap sequences of a run's frames into `out_dir`, one file per
/// frame, normalized per (name, stage) sequence; a summary line per
/// sequence goes to stderr. The frame SVGs of an earlier run in `out_dir`
/// are removed first — file names repeat across runs, so a shorter
/// sequence would otherwise keep the old one's tail — and every other
/// file is left alone.
fn write_svgs(frames: &[Frame], out_dir: &std::path::Path) -> Result<(), String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", out_dir.display()))?;
    let listing = std::fs::read_dir(out_dir)
        .map_err(|e| format!("cannot list `{}`: {e}", out_dir.display()))?;
    for entry in listing {
        let entry = entry.map_err(|e| format!("cannot list `{}`: {e}", out_dir.display()))?;
        let is_file = entry.file_type().is_ok_and(|t| t.is_file());
        if is_file && entry.file_name().to_str().is_some_and(is_frame_svg) {
            std::fs::remove_file(entry.path())
                .map_err(|e| format!("cannot remove `{}`: {e}", entry.path().display()))?;
        }
    }
    // Group into (name, stage) sequences in first-appearance order.
    let mut sequences: Vec<((&str, &str), Vec<&Frame>)> = Vec::new();
    for f in frames {
        let key = (f.name, f.stage);
        match sequences.iter_mut().find(|(k, _)| *k == key) {
            Some((_, seq)) => seq.push(f),
            None => sequences.push((key, vec![f])),
        }
    }
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
        }
        eprintln!(
            "{name} @ {stage}: {} frame(s), {}x{}, max {}",
            seq.len(),
            seq[0].nx,
            seq[0].ny,
            fmt_f64(max)
        );
    }
    eprintln!("wrote {} SVG(s) -> {}", frames.len(), out_dir.display());
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

const USAGE: &str = "usage: tracetool <gate|explain|check-schema> ...\n\
     \n\
     gate [--baseline F] [--write] [--large]    run the pinned flow once and gate its qor.*\n\
     \x20                                          gauges vs the baseline (--large gates the\n\
     \x20                                          ~60k-cell Ariane flow vs baselines/QOR_large.json)\n\
     explain --run PROFILE@SCALE [--report-out R] [--chrome-out C] [--svg-dir D]\n\
     \x20                                          convergence doctor: hotspot-persistence and\n\
     \x20                                          displacement-conflict warnings over one run's\n\
     \x20                                          field frames, stage and self-time tables on\n\
     \x20                                          stderr, one SVG heatmap per frame in D\n\
     check-schema <doc.json> <schema.json>      validate a JSON file against a repo schema";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match cmd.as_str() {
        "gate" => gate(rest),
        "explain" => explain(rest).map(|()| 0),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: u64) -> Vec<Frame> {
        (0..n)
            .map(|iter| Frame {
                name: "place.density_overflow",
                stage: "cluster_placement",
                iter,
                nx: 2,
                ny: 1,
                values: vec![0.5, 1.0],
            })
            .collect()
    }

    fn listing(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("dir lists")
            .map(|e| {
                e.expect("entry reads")
                    .file_name()
                    .into_string()
                    .expect("utf-8 name")
            })
            .collect();
        names.sort();
        names
    }

    /// A second run into the same directory leaves exactly its own frames
    /// plus every file that is not one of the writer's, near misses of the
    /// name pattern included.
    #[test]
    fn a_second_run_replaces_the_first_runs_frames_only() {
        let dir = std::env::temp_dir().join(format!("tracetool_svgs_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir creates");
        let kept = [
            "00_a-b_c_000.svg",
            "00_a.b_c_0000.svg",
            "00_a_b_c_0000.svg",
            "notes.txt",
            "plot.svg",
        ];
        for name in kept {
            std::fs::write(dir.join(name), "kept").expect("file writes");
        }
        write_svgs(&frames(3), &dir).expect("first run writes");
        assert_eq!(listing(&dir).len(), kept.len() + 3);
        write_svgs(&frames(1), &dir).expect("second run writes");
        let mut expected = vec!["00_place-density-overflow_cluster-placement_0000.svg"];
        expected.extend(kept);
        expected.sort_unstable();
        assert_eq!(listing(&dir), expected);
        std::fs::remove_dir_all(&dir).expect("dir removes");
    }
}
