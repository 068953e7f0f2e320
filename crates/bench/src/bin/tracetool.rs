//! Trace analytics CLI: summarize, diff, flamegraph and QoR-gate
//! cp-trace reports.
//!
//! ```text
//! tracetool summarize <report.json>
//! tracetool diff <base.json> <new.json> [--rel R] [--abs S] [--metric-rel M]
//! tracetool flamegraph <report.json> [-o out.folded]
//! tracetool gate [--baseline FILE] [--from report.json] [--reps N] [--write] [--timeout-s S] [--large]
//! tracetool chaos [--seeds N] [--timeout-s S] [--site SUBSTR]
//! tracetool harvest [TRACE_report.json ...] [--run PROFILE@SCALE] [--ledger F] [--design NAME] [--doctor qor.NAME=FACTOR]
//! tracetool trend [--ledger F] [--format table|tsv|json] [--metric-rel M] [--rel R] [--abs S]
//! tracetool explain <report.json> [--fields F.json] [--base B.json] [--base-fields BF.json]
//! tracetool explain --run PROFILE@SCALE [--fields-out F] [--report-out R] [--chrome-out C] [--doctor stall]
//! tracetool render <fields.json> [--out-dir DIR] [--name SUBSTR]
//! ```
//!
//! `gate` runs the pinned gate flow (Aes at scale 0.02, exact V-P&R,
//! fully traced; see `cp_bench::qor_gate`) `--reps` times, min-of-N
//! reduces the runtimes, and checks the run's `qor.*` gauges and
//! per-stage self-time shares against `baselines/QOR_baseline.json`,
//! exiting 1 on any violation. `--from` gates an existing report file
//! instead of running the flow; `--write` (re)records the baseline;
//! `--timeout-s` bounds the flow's wall-clock and exits 3 (distinct
//! from the gate-fail exit 1) when exceeded; `--large` swaps in the
//! large gate flow (Ariane at scale 0.5, ~60k cells, uniform shapes)
//! gated against `baselines/QOR_large.json` — the large-design guard
//! for the solver/spreading/clustering hot paths. `chaos` sweeps the
//! fault-injection sites (needs `--features fault-injection`) and exits
//! 1 when any case violates the resilience contract. `diff` exits 1
//! when regressions survive the tolerances; `summarize` and
//! `flamegraph` are read-only.
//!
//! `harvest` backfills the run ledger (`runs/ledger.jsonl` by default)
//! from existing TRACE report artifacts — fingerprinted by FNV-1a over
//! the artifact bytes so re-harvests of the same report group together —
//! or runs a fresh hermetic gate-options flow with `--run aes@0.02`
//! (checkpoint fingerprint, so repeat runs of the same profile@scale
//! form one trend group). `--doctor qor.NAME=FACTOR` multiplies one QoR
//! value before appending — the self-test knob for the trend gate.
//! `trend` compares each fingerprint group's latest completed run
//! against the best earlier one using the TraceDiff noise model and
//! exits 1 on any QoR regression (wall time is reported but advisory).
//!
//! `explain` is the convergence doctor's front door: it diagnoses one
//! run (a report file plus optional field frames, or a fresh hermetic
//! `--run` with frame capture on) and prints structured verdicts —
//! stall, oscillation, divergence, persistent hotspot bins,
//! spreading-vs-legalization displacement conflict — exiting 1 when any
//! is Critical. With `--base` it compares two runs instead and
//! localizes each regression to a stage and, when frames are given, a
//! grid region. `--doctor stall` flattens the `place.outer` series
//! in-memory before diagnosis — the CI self-test knob. `render` turns a
//! frames artifact into per-frame SVG heatmaps; `summarize --ledger`
//! prints per-fingerprint run groups with their latest QoR snapshot.

use cp_bench::qor_gate::{self, Baseline};
use cp_core::checkpoint::{fnv1a64, FNV_OFFSET};
use cp_trace::json::{fmt_f64, parse, validate, Writer};
use cp_trace::ledger::{self, Direction};
use cp_trace::{
    analysis, Analysis, DecodedFrame, DiffOptions, Doctor, ReportDoc, Severity, TraceDiff, Verdict,
    VerdictKind,
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

/// Reads and decodes a structured trace report file.
fn load_report(path: &str) -> Result<ReportDoc, String> {
    ReportDoc::from_json(&read(path)?).map_err(|e| format!("`{path}` is not a trace report: {e}"))
}

fn load_analysis(path: &str) -> Result<Analysis, String> {
    Analysis::from_report(load_report(path)?).map_err(|e| format!("`{path}`: {e}"))
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

fn summarize(args: &[String]) -> Result<(), String> {
    let mut ledger_path = None;
    let pos = split_args(args, &mut [("--ledger", &mut ledger_path)], &mut [])?;
    if let Some(lp) = ledger_path {
        if !pos.is_empty() {
            return Err(format!(
                "summarize --ledger takes no positional arguments, got {pos:?}"
            ));
        }
        return summarize_ledger(&lp);
    }
    let [path] = pos.as_slice() else {
        return Err(
            "usage: tracetool summarize <report.json> | summarize --ledger <ledger.jsonl>".into(),
        );
    };
    let a = load_analysis(path)?;
    println!(
        "# {} — {:.3}s, {} spans, {} dropped events",
        a.root_name(),
        a.duration_seconds(),
        a.span_count(),
        a.dropped_events
    );
    println!("\n## Self-time by span name\n");
    println!("| span | count | wall s | self s | self % |");
    println!("|---|---|---|---|---|");
    let total = a.duration_seconds().max(1e-12);
    for row in a.self_time_by_name().iter().take(20) {
        println!(
            "| {} | {} | {:.4} | {:.4} | {:.1}% |",
            row.name,
            row.count,
            row.wall_s,
            row.self_s,
            row.self_s / total * 100.0
        );
    }
    println!("\n## Critical path\n");
    for step in a.critical_path() {
        println!(
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
        println!("\n## QoR gauges\n");
        for (name, value) in qor {
            println!("- {name}: {value}");
        }
    }
    let mem = a.gauges_with_prefix("mem.");
    if !mem.is_empty() {
        println!("\n## Memory gauges (alloc-telemetry)\n");
        for (name, value) in mem {
            println!("- {name}: {value}");
        }
    }
    Ok(())
}

/// `summarize --ledger`: per-fingerprint run groups in first-appearance
/// order — run count, last status, and the latest entry's `qor.*`
/// snapshot.
fn summarize_ledger(path: &str) -> Result<(), String> {
    let entries = ledger::load(std::path::Path::new(path))?;
    let mut order: Vec<u64> = Vec::new();
    let mut groups: std::collections::BTreeMap<u64, Vec<&ledger::LedgerEntry>> =
        std::collections::BTreeMap::new();
    for e in &entries {
        if !groups.contains_key(&e.fingerprint) {
            order.push(e.fingerprint);
        }
        groups.entry(e.fingerprint).or_default().push(e);
    }
    println!(
        "# {path} — {} entries, {} fingerprint group(s)",
        entries.len(),
        order.len()
    );
    for fp in order {
        let group = &groups[&fp];
        let Some(last) = group.last() else { continue };
        println!(
            "\n## {:016x} — {} ({} run{}, last: {}, {} threads)",
            fp,
            last.design,
            group.len(),
            if group.len() == 1 { "" } else { "s" },
            last.status,
            last.threads
        );
        if last.qor.is_empty() {
            println!("- (no qor gauges captured)");
        }
        for (name, value) in &last.qor {
            println!("- {name}: {}", fmt_f64(*value));
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
    let parse_f = |s: Option<String>, what: &str| -> Result<Option<f64>, String> {
        s.map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("`{what}` must be a number, got `{v}`"))
        })
        .transpose()
    };
    let mut opts = DiffOptions::default();
    if let Some(v) = parse_f(rel, "--rel")? {
        opts.time_rel_tol = v;
    }
    if let Some(v) = parse_f(abs, "--abs")? {
        opts.time_abs_tol_s = v;
    }
    if let Some(v) = parse_f(metric_rel, "--metric-rel")? {
        opts.metric_rel_tol = v;
    }
    let base = load_analysis(base_path)?;
    let new = load_analysis(new_path)?;
    let d = TraceDiff::between(&base, &new, &opts);
    if d.is_empty() {
        println!("no differences beyond tolerances");
        return Ok(false);
    }
    println!("| kind | name | base | new | delta |");
    println!("|---|---|---|---|---|");
    for e in &d.entries {
        println!(
            "| {:?} | {} | {:.6} | {:.6} | {:+.6} |",
            e.kind,
            e.name,
            e.base,
            e.new,
            e.delta()
        );
    }
    let regressions = d.regressions().len();
    println!(
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
        None => print!("{folded}"),
    }
    Ok(())
}

/// Runs the min-of-N gate flow reps, optionally bounded by a wall-clock
/// deadline enforced from a watchdog thread. `Ok(None)` means the
/// deadline expired before every rep finished.
fn gate_reps(
    reps: usize,
    timeout: Option<Duration>,
    large: bool,
) -> Result<Option<Vec<Analysis>>, String> {
    let run_all = move || -> Result<Vec<Analysis>, String> {
        let mut out = Vec::new();
        for rep in 0..reps {
            let t0 = Instant::now();
            let report = if large {
                qor_gate::run_gate_flow_large()
            } else {
                qor_gate::run_gate_flow()
            }
            .map_err(|e| format!("gate flow: {e}"))?;
            let trace = report.trace.as_ref().ok_or("gate flow produced no trace")?;
            eprintln!(
                "gate rep {}/{}: {:.3}s, hpwl {}",
                rep + 1,
                reps,
                t0.elapsed().as_secs_f64(),
                report.hpwl
            );
            out.push(Analysis::from_report(trace).map_err(|e| format!("analyze gate trace: {e}"))?);
        }
        Ok(out)
    };
    match timeout {
        None => run_all().map(Some),
        Some(limit) => {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(run_all());
            });
            match rx.recv_timeout(limit) {
                Ok(result) => result.map(Some),
                Err(_) => Ok(None),
            }
        }
    }
}

fn gate(args: &[String]) -> Result<u8, String> {
    let (mut baseline_path, mut from, mut reps, mut timeout_s) = (None, None, None, None);
    let (mut write, mut large) = (false, false);
    let pos = split_args(
        args,
        &mut [
            ("--baseline", &mut baseline_path),
            ("--from", &mut from),
            ("--reps", &mut reps),
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
    let reps: usize = reps
        .map(|v| {
            v.parse()
                .map_err(|_| format!("`--reps` must be an integer, got `{v}`"))
        })
        .transpose()?
        .unwrap_or(2)
        .max(1);
    let timeout = timeout_s
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("`--timeout-s` must be a number, got `{v}`"))
        })
        .transpose()?
        .map(Duration::from_secs_f64);

    // Collect the run(s) to gate: an existing report file, or fresh
    // min-of-N executions of the pinned gate flow.
    let analyses: Vec<Analysis> = match &from {
        Some(path) => vec![load_analysis(path)?],
        None => match gate_reps(reps, timeout, large)? {
            Some(out) => out,
            None => {
                println!(
                    "gate TIMEOUT: {} rep(s) did not finish within {}s",
                    reps,
                    timeout.map_or(0.0, |t| t.as_secs_f64())
                );
                return Ok(EXIT_TIMEOUT);
            }
        },
    };
    // QoR gauges are bitwise-deterministic, so any rep represents them;
    // the runtime check wants the fastest rep. Pick the one with the
    // smallest traced duration.
    let best = analyses
        .iter()
        .min_by(|a, b| {
            a.duration_seconds()
                .partial_cmp(&b.duration_seconds())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .ok_or("no runs to gate")?;

    if write {
        let (design, scale) = if large {
            ("ariane", qor_gate::GATE_LARGE_SCALE)
        } else {
            ("aes", qor_gate::GATE_SCALE)
        };
        let b = Baseline::from_analysis(best, design, scale);
        if let Some(dir) = baseline_path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(&baseline_path, b.to_json())
            .map_err(|e| format!("cannot write `{}`: {e}", baseline_path.display()))?;
        println!(
            "wrote baseline {} ({} qor gauges, {} stage shares)",
            baseline_path.display(),
            b.qor.len(),
            b.self_shares.len()
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
    let failures = baseline.check(best);
    if failures.is_empty() {
        println!(
            "gate PASS: {} qor gauges and {} stage shares within tolerance of {}",
            baseline.qor.len(),
            baseline.self_shares.len(),
            baseline_path.display()
        );
        return Ok(0);
    }
    println!("gate FAIL vs {}:", baseline_path.display());
    for f in &failures {
        println!("- {f}");
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
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("`--timeout-s` must be a number, got `{v}`"))
        })
        .transpose()?
        .map_or(Duration::from_secs(120), Duration::from_secs_f64);
    let report = cp_bench::chaos::run_chaos(seeds, timeout, site.as_deref())?;
    print!("{}", report.render());
    Ok(u8::from(report.failures() > 0))
}

const HARVEST_USAGE: &str = "usage: tracetool harvest [TRACE_report.json ...] \
     [--run PROFILE@SCALE] [--ledger F] [--design NAME] [--doctor qor.NAME=FACTOR]";

/// Backfills ledger entries from existing TRACE report artifacts and/or
/// a fresh hermetic flow, appending to the run ledger.
fn harvest(args: &[String]) -> Result<(), String> {
    let (mut ledger_path, mut run, mut doctor, mut design) = (None, None, None, None);
    let pos = split_args(
        args,
        &mut [
            ("--ledger", &mut ledger_path),
            ("--run", &mut run),
            ("--doctor", &mut doctor),
            ("--design", &mut design),
        ],
        &mut [],
    )?;
    if pos.is_empty() && run.is_none() {
        return Err(HARVEST_USAGE.into());
    }
    let ledger_path =
        std::path::PathBuf::from(ledger_path.unwrap_or_else(|| "runs/ledger.jsonl".to_string()));
    let doctor = doctor
        .map(|spec| -> Result<(String, f64), String> {
            let (name, factor) = spec
                .split_once('=')
                .ok_or_else(|| format!("`--doctor` wants qor.NAME=FACTOR, got `{spec}`"))?;
            let factor = factor
                .parse::<f64>()
                .map_err(|_| format!("`--doctor` factor must be a number, got `{factor}`"))?;
            Ok((name.to_string(), factor))
        })
        .transpose()?;

    let mut entries: Vec<ledger::LedgerEntry> = Vec::new();
    for path in &pos {
        let src = read(path)?;
        let label = design.clone().unwrap_or_else(|| {
            std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.clone())
        });
        let report = ReportDoc::from_json(&src).map_err(|e| format!("`{path}`: {e}"))?;
        // There is no netlist to fingerprint, so the artifact's bytes are
        // its identity: re-harvests of one report land in one trend group.
        let fingerprint = fnv1a64(FNV_OFFSET, src.as_bytes());
        let entry = ledger::LedgerEntry::new(fingerprint, &label, "harvest");
        entries.push(entry.capture_trace(report));
    }
    if let Some(spec) = &run {
        let (profile_name, scale) = spec
            .split_once('@')
            .ok_or_else(|| format!("`--run` wants PROFILE@SCALE (e.g. aes@0.02), got `{spec}`"))?;
        let profile = qor_gate::parse_profile(profile_name)
            .ok_or_else(|| format!("unknown profile `{profile_name}`"))?;
        let scale: f64 = scale
            .parse()
            .map_err(|_| format!("`--run` scale must be a number, got `{scale}`"))?;
        let t0 = Instant::now();
        let (report, fingerprint) =
            qor_gate::run_hermetic(profile, scale).map_err(|e| format!("hermetic flow: {e}"))?;
        let trace = report
            .trace
            .as_ref()
            .ok_or("hermetic flow produced no trace")?;
        let label = design
            .clone()
            .unwrap_or_else(|| format!("{}@{scale}", profile.name()));
        let threads = u32::try_from(report.timings.threads).unwrap_or(u32::MAX);
        entries.push(
            ledger::LedgerEntry::new(fingerprint, &label, "harvest")
                .with_threads(threads)
                .with_options(&format!("gate_options scale={scale}"))
                .capture_trace(trace),
        );
        eprintln!(
            "hermetic {} @ {scale}: {:.3}s, hpwl {}",
            profile.name(),
            t0.elapsed().as_secs_f64(),
            report.hpwl
        );
    }
    for entry in entries {
        let entry = match &doctor {
            Some((name, factor)) => entry.doctor(name, *factor),
            None => entry,
        };
        ledger::append(&ledger_path, &entry).map_err(|e| format!("append: {e}"))?;
        println!(
            "appended {:016x} {} ({}, {} qor gauges, {} stage rows) -> {}",
            entry.fingerprint,
            entry.design,
            entry.status,
            entry.qor.len(),
            entry.stages.len(),
            ledger_path.display()
        );
    }
    Ok(())
}

/// Cross-run trend gate over the ledger: prints the per-group metric
/// movements and reports whether any QoR metric regressed.
fn trend_cmd(args: &[String]) -> Result<bool, String> {
    let (mut ledger_path, mut format, mut metric_rel, mut rel, mut abs) =
        (None, None, None, None, None);
    let pos = split_args(
        args,
        &mut [
            ("--ledger", &mut ledger_path),
            ("--format", &mut format),
            ("--metric-rel", &mut metric_rel),
            ("--rel", &mut rel),
            ("--abs", &mut abs),
        ],
        &mut [],
    )?;
    if !pos.is_empty() {
        return Err(format!("trend takes no positional arguments, got {pos:?}"));
    }
    let ledger_path =
        std::path::PathBuf::from(ledger_path.unwrap_or_else(|| "runs/ledger.jsonl".to_string()));
    let parse_f = |s: Option<String>, what: &str| -> Result<Option<f64>, String> {
        s.map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("`{what}` must be a number, got `{v}`"))
        })
        .transpose()
    };
    let mut opts = DiffOptions::default();
    if let Some(v) = parse_f(metric_rel, "--metric-rel")? {
        opts.metric_rel_tol = v;
    }
    if let Some(v) = parse_f(rel, "--rel")? {
        opts.time_rel_tol = v;
    }
    if let Some(v) = parse_f(abs, "--abs")? {
        opts.time_abs_tol_s = v;
    }
    let entries = ledger::load(&ledger_path)?;
    let report = ledger::trend(&entries, &opts);
    let dir_label = |d: Direction| match d {
        Direction::LowerIsBetter => "lower",
        Direction::HigherIsBetter => "higher",
        Direction::Informational => "info",
    };
    let verdict = |r: &ledger::TrendRow| {
        if r.regressed {
            "REGRESSED"
        } else if r.improved {
            "improved"
        } else {
            "ok"
        }
    };
    match format.as_deref().unwrap_or("table") {
        "table" => {
            if report.rows.is_empty() {
                println!("no multi-run fingerprint groups to compare");
            } else {
                println!("| fingerprint | design | metric | baseline | latest | delta % | runs | dir | verdict |");
                println!("|---|---|---|---|---|---|---|---|---|");
                for r in &report.rows {
                    println!(
                        "| {:016x} | {} | {} | {:.6} | {:.6} | {:+.3} | {} | {} | {} |",
                        r.fingerprint,
                        r.design,
                        r.metric,
                        r.baseline,
                        r.latest,
                        r.delta_pct(),
                        r.runs,
                        dir_label(r.direction),
                        verdict(r)
                    );
                }
            }
            println!(
                "\n{} entries, {} group(s) ({} singleton), {} regression(s)",
                entries.len(),
                report.groups,
                report.singletons,
                report.regressions().len()
            );
        }
        "tsv" => {
            println!(
                "fingerprint\tdesign\tmetric\tbaseline\tlatest\tdelta_pct\truns\tdir\tverdict"
            );
            for r in &report.rows {
                println!(
                    "{:016x}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    r.fingerprint,
                    r.design,
                    r.metric,
                    fmt_f64(r.baseline),
                    fmt_f64(r.latest),
                    fmt_f64(r.delta_pct()),
                    r.runs,
                    dir_label(r.direction),
                    verdict(r)
                );
            }
        }
        "json" => {
            let mut w = Writer::new();
            w.object_spaced().key("entries").u64(entries.len() as u64);
            w.key("groups").u64(report.groups as u64);
            w.key("singletons").u64(report.singletons as u64);
            w.key("regressions").u64(report.regressions().len() as u64);
            w.key("rows").array_spaced();
            for r in &report.rows {
                w.object_spaced().key("fingerprint").hex64(r.fingerprint);
                w.key("design").str(&r.design).key("metric").str(&r.metric);
                w.key("baseline").f64(r.baseline);
                w.key("latest").f64(r.latest);
                w.key("delta_pct").f64(r.delta_pct());
                w.key("runs").u64(r.runs as u64);
                w.key("direction").str(dir_label(r.direction));
                w.key("regressed").bool(r.regressed);
                w.key("improved").bool(r.improved).end();
            }
            w.end().end();
            println!("{}", w.finish());
        }
        other => {
            return Err(format!(
                "`--format` must be table, tsv or json, got `{other}`"
            ))
        }
    }
    Ok(!report.regressions().is_empty())
}

/// Loads a `field_frames.schema.json`-shaped artifact and decodes every
/// frame to its dense grid.
fn load_frames(path: &str) -> Result<Vec<DecodedFrame>, String> {
    cp_trace::fields::decode_json(&read(path)?).map_err(|e| format!("`{path}`: {e}"))
}

fn print_verdicts(verdicts: &[Verdict]) {
    if verdicts.is_empty() {
        println!("no anomalies detected");
        return;
    }
    for v in verdicts {
        println!(
            "[{}] {} @ {}",
            v.severity.as_str(),
            v.kind.as_str(),
            v.stage
        );
        println!("  evidence:   {}", v.evidence);
        println!("  suggestion: {}", v.suggestion);
    }
}

/// The `--doctor stall` self-test knob: flattens the named columns of
/// every `series_name` row to the first row's value within each
/// emitting-span group, so the doctor sees a converged-but-stuck run.
fn flatten_series(trace: &mut cp_trace::TraceReport, series_name: &str, keys: &[&str]) {
    let mut first: std::collections::BTreeMap<u64, Vec<(&'static str, f64)>> =
        std::collections::BTreeMap::new();
    for row in trace.series.iter_mut().filter(|r| r.name == series_name) {
        let f = first.entry(row.span).or_insert_with(|| row.values.clone());
        for (k, v) in row.values.iter_mut() {
            if keys.contains(&(*k as &str)) {
                if let Some(&(_, fv)) = f.iter().find(|(fk, _)| fk == k) {
                    *v = fv;
                }
            }
        }
    }
}

const EXPLAIN_USAGE: &str = "usage: tracetool explain <report.json> [--fields F.json] [--base B.json] [--base-fields BF.json]\n\
     \x20      tracetool explain --run PROFILE@SCALE [--fields-out F] [--report-out R] [--chrome-out C] [--doctor stall]";

/// The convergence doctor: diagnose one run (exit 1 on any Critical
/// verdict), or compare two and localize regressions (exit 1 on any
/// Regression verdict).
fn explain(args: &[String]) -> Result<bool, String> {
    let (mut fields, mut base, mut base_fields) = (None, None, None);
    let (mut run, mut fields_out, mut report_out, mut doctor) = (None, None, None, None);
    let mut chrome_out = None;
    let pos = split_args(
        args,
        &mut [
            ("--fields", &mut fields),
            ("--base", &mut base),
            ("--base-fields", &mut base_fields),
            ("--run", &mut run),
            ("--fields-out", &mut fields_out),
            ("--report-out", &mut report_out),
            ("--chrome-out", &mut chrome_out),
            ("--doctor", &mut doctor),
        ],
        &mut [],
    )?;
    if let Some(d) = &doctor {
        if d != "stall" {
            return Err(format!("`--doctor` only knows `stall`, got `{d}`"));
        }
        if run.is_none() {
            return Err("`--doctor` needs `--run`".into());
        }
    }

    // Fresh hermetic run with frame capture on.
    if let Some(spec) = run {
        if !pos.is_empty() || base.is_some() || fields.is_some() {
            return Err(EXPLAIN_USAGE.into());
        }
        let (profile_name, scale) = spec
            .split_once('@')
            .ok_or_else(|| format!("`--run` wants PROFILE@SCALE (e.g. aes@0.02), got `{spec}`"))?;
        let profile = qor_gate::parse_profile(profile_name)
            .ok_or_else(|| format!("unknown profile `{profile_name}`"))?;
        let scale: f64 = scale
            .parse()
            .map_err(|_| format!("`--run` scale must be a number, got `{scale}`"))?;
        let t0 = Instant::now();
        let (report, capture, _) = qor_gate::run_hermetic_fields(profile, scale)
            .map_err(|e| format!("hermetic flow: {e}"))?;
        let mut trace = report
            .trace
            .clone()
            .ok_or("hermetic flow produced no trace")?;
        if doctor.is_some() {
            flatten_series(&mut trace, "place.outer", &["hpwl", "overflow"]);
        }
        eprintln!(
            "hermetic {} @ {scale}: {:.3}s, {} field frame(s) ({} dropped)",
            profile.name(),
            t0.elapsed().as_secs_f64(),
            capture.frames.len(),
            capture.dropped_frames
        );
        if let Some(dest) = fields_out {
            let json = cp_trace::fields::to_json(&capture);
            std::fs::write(&dest, json).map_err(|e| format!("cannot write `{dest}`: {e}"))?;
            eprintln!("wrote {dest}");
        }
        if let Some(dest) = report_out {
            std::fs::write(&dest, trace.to_json())
                .map_err(|e| format!("cannot write `{dest}`: {e}"))?;
            eprintln!("wrote {dest}");
        }
        if let Some(dest) = chrome_out {
            std::fs::write(&dest, cp_trace::chrome_trace(&[&trace]))
                .map_err(|e| format!("cannot write `{dest}`: {e}"))?;
            eprintln!("wrote {dest} — load it in chrome://tracing or ui.perfetto.dev");
        }
        let frames = cp_trace::fields::decode(&capture);
        let verdicts = Doctor::default().diagnose_report(&trace, &frames);
        print_verdicts(&verdicts);
        return Ok(verdicts.iter().any(|v| v.severity == Severity::Critical));
    }

    let [report_path] = pos.as_slice() else {
        return Err(EXPLAIN_USAGE.into());
    };
    if fields_out.is_some() || report_out.is_some() || chrome_out.is_some() {
        return Err("`--fields-out`/`--report-out`/`--chrome-out` need `--run`".into());
    }
    let new_frames = fields
        .as_deref()
        .map(load_frames)
        .transpose()?
        .unwrap_or_default();

    // Two-run comparison: localize regressions to a stage and region.
    if let Some(base_path) = base {
        let base_a = load_analysis(&base_path)?;
        let new_a = load_analysis(report_path)?;
        let base_frames = base_fields
            .as_deref()
            .map(load_frames)
            .transpose()?
            .unwrap_or_default();
        let verdicts = analysis::compare_runs(
            &base_a,
            &new_a,
            &base_frames,
            &new_frames,
            &DiffOptions::default(),
        );
        print_verdicts(&verdicts);
        return Ok(verdicts.iter().any(|v| v.kind == VerdictKind::Regression));
    }

    // Single-run diagnosis from a report artifact.
    if base_fields.is_some() {
        return Err("`--base-fields` needs `--base`".into());
    }
    let verdicts = Doctor::default().diagnose_report(load_report(report_path)?, &new_frames);
    print_verdicts(&verdicts);
    Ok(verdicts.iter().any(|v| v.severity == Severity::Critical))
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

/// Renders one decoded frame as an SVG heatmap, `max` being the
/// sequence-wide normalization ceiling. Bin (0, 0) sits at the lower
/// left, matching the placer's grid origin (SVG y grows downward, so
/// rows are flipped).
fn frame_svg(frame: &DecodedFrame, max: f64) -> String {
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
            // A decoded frame holds exactly nx*ny values: only a grid
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
    let frames = load_frames(path)?;
    let out_dir = std::path::PathBuf::from(out_dir.unwrap_or_else(|| "frames_svg".to_string()));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", out_dir.display()))?;

    // Group into (name, stage) sequences in first-appearance order.
    let mut sequences: Vec<((String, String), Vec<&DecodedFrame>)> = Vec::new();
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
        println!(
            "{name} @ {stage}: {} frame(s), {}x{}, max {}",
            seq.len(),
            seq.first().map_or(0, |f| f.nx),
            seq.first().map_or(0, |f| f.ny),
            fmt_f64(max)
        );
    }
    println!("wrote {written} SVG(s) -> {}", out_dir.display());
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
        println!("{doc_path} conforms to {schema_path}");
        return Ok(false);
    }
    println!("{doc_path} violates {schema_path}:");
    for v in &violations {
        println!("- {v}");
    }
    Ok(true)
}

const USAGE: &str = "usage: tracetool <summarize|diff|flamegraph|gate|chaos|harvest|trend|explain|render|check-schema> ...\n\
     \n\
     summarize <report.json>                    self-time table, critical path, QoR gauges\n\
     summarize --ledger <ledger.jsonl>          per-fingerprint run groups + latest QoR snapshot\n\
     diff <base.json> <new.json>                span/metric diff (--rel/--abs/--metric-rel)\n\
     flamegraph <report.json> [-o out.folded]   collapsed stacks for speedscope/inferno\n\
     gate [--baseline F] [--from R] [--reps N] [--write] [--timeout-s S] [--large]\n\
     \x20                                          run the pinned flow and gate vs the baseline\n\
     \x20                                          (exit 3 when the wall-clock timeout expires;\n\
     \x20                                          --large gates the ~60k-cell Ariane flow vs\n\
     \x20                                          baselines/QOR_large.json)\n\
     chaos [--seeds N] [--timeout-s S] [--site SUBSTR]\n\
     \x20                                          fault-injection sweep (needs --features fault-injection)\n\
     harvest [REPORT.json ...] [--run PROFILE@SCALE] [--ledger F] [--design NAME] [--doctor qor.NAME=FACTOR]\n\
     \x20                                          backfill run-ledger entries from TRACE artifacts\n\
     \x20                                          or a fresh hermetic flow (default ledger:\n\
     \x20                                          runs/ledger.jsonl; --doctor is the trend-gate\n\
     \x20                                          self-test knob)\n\
     trend [--ledger F] [--format table|tsv|json] [--metric-rel M] [--rel R] [--abs S]\n\
     \x20                                          cross-run QoR trend gate over the ledger\n\
     \x20                                          (exit 1 on regression; wall time advisory)\n\
     explain <report.json> [--fields F.json] [--base B.json] [--base-fields BF.json]\n\
     explain --run PROFILE@SCALE [--fields-out F] [--report-out R] [--chrome-out C] [--doctor stall]\n\
     \x20                                          convergence doctor: stall/oscillation/divergence/\n\
     \x20                                          hotspot/displacement verdicts (exit 1 on Critical);\n\
     \x20                                          --base compares two runs and localizes regressions\n\
     \x20                                          to a stage and grid region (exit 1 on Regression)\n\
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
        "harvest" => harvest(rest).map(|()| 0),
        "trend" => trend_cmd(rest).map(u8::from),
        "explain" => explain(rest).map(u8::from),
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
