//! End-to-end and per-layer performance benchmark of the clustered-placement
//! flow. See `README.md` beside this package for the protocol.
//!
//! ```text
//! cp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1|both>
//!              [--threads 2] [--reps <n>] [--smoke] [--out benchmark/out]
//! cp-benchmark run-all [--seed 1] [--threads 2] [--reps 7] [--smoke] [--out <dir>]
//! cp-benchmark compare <a-dir> <b-dir> [--bounds BENCHMARK.json]
//! cp-benchmark record <out-dir> [--to benchmark/baseline.json]
//! ```

mod host;
mod layers;
mod metrics;
mod report;
mod spans;
mod stats;

use layers::{Design, Outcome, TimedContext, Workload};
use metrics::Values;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Designs are generated at the paper's full size; `--smoke` shrinks them.
const SMOKE_SCALE: f64 = 1.0 / 32.0;
/// Timed reps a `--seconds` budget may not go below.
const MIN_REPS: usize = 3;
/// Timed reps before a traced run: the base its overheads are taken against.
const TRACED_BASE_REPS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trace {
    /// `--trace 0`: repeated set-up and timed reps; end-to-end metrics.
    Timed,
    /// `--trace 1`: one set-up, a short base, the traced run; per-layer metrics.
    Traced,
    /// `--trace both`: the full protocol in one process, as `run-all` runs it.
    Both,
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: Trace,
    threads: usize,
    reps: Option<usize>,
    smoke: bool,
    out: PathBuf,
}

/// `--name value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?}")),
            None => Ok(None),
        }
    }

    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn positional(&mut self) -> Result<String, String> {
        if self.0.is_empty() || self.0[0].starts_with("--") {
            return Err("missing argument".to_string());
        }
        Ok(self.0.remove(0))
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(a) if !a.starts_with("--") => args.remove(0),
        _ => "run".to_string(),
    };
    let flags = Flags(args);
    let result = match command.as_str() {
        "run" => parse_run(flags).and_then(|a| run(&a)),
        "run-all" => run_all(flags),
        "compare" => compare(flags),
        "record" => record(flags),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("cp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn parse_run(mut f: Flags) -> Result<RunArgs, String> {
    let name = f.value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let trace = match f.value("--trace")?.as_deref() {
        Some("0") | None => Trace::Timed,
        Some("1") => Trace::Traced,
        Some("both") => Trace::Both,
        Some(other) => return Err(format!("--trace: expected 0, 1 or both, got {other:?}")),
    };
    let args = RunArgs {
        workload,
        seed: f.parsed("--seed")?.unwrap_or(1),
        seconds: f.parsed("--seconds")?.unwrap_or(0.0),
        trace,
        threads: f.parsed("--threads")?.unwrap_or(2),
        reps: f.parsed("--reps")?,
        smoke: f.flag("--smoke"),
        out: f
            .value("--out")?
            .map_or_else(report::default_out_dir, PathBuf::from),
    };
    f.finish()?;
    if args.reps == Some(0) || args.threads == 0 {
        return Err("--reps and --threads must be at least 1".to_string());
    }
    Ok(args)
}

/// Samples of the timed phase. Reps that failed contribute no sample.
struct Timed {
    design: Design,
    /// The first successful run; every later one must reproduce it.
    reference: Outcome,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    place_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Checks one flow result against the reference (the first valid outcome,
/// which it becomes when there is none yet). Returns the run's placement
/// seconds when it counts as a success.
fn checked(
    result: Result<Outcome, String>,
    reference: &mut Option<Outcome>,
    what: &str,
) -> Option<f64> {
    let checked = result.and_then(|o| o.check(reference.as_ref()).map(|()| o));
    match checked {
        Ok(outcome) => {
            let place_wall_s = outcome.place_wall_s();
            reference.get_or_insert(outcome);
            Some(place_wall_s)
        }
        Err(e) => {
            eprintln!("{what}: {e}");
            None
        }
    }
}

/// Set-up (design generation plus one untimed warm-up rep, repeated so its
/// own time has a median) and the closed-loop timed reps: one client, each
/// rep starting when the previous one returns.
fn timed_phase(a: &RunArgs) -> Result<Timed, String> {
    let scale = if a.smoke { SMOKE_SCALE } else { 1.0 };
    let setups = if a.trace == Trace::Traced { 1 } else { 2 };
    let mut reference = None;
    let mut design = None;
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for i in 0..setups {
        // The previous design is dropped first so two never coexist.
        drop(design.take());
        let start = Instant::now();
        let d = Design::generate(a.workload, a.seed, scale);
        let warm = layers::run_flow_once(a.workload, &d);
        setup_s.push(start.elapsed().as_secs_f64());
        attempted += 1;
        if checked(warm, &mut reference, &format!("warm-up {}", i + 1)).is_none() {
            failed += 1;
        }
        design = Some(d);
    }
    let design = design.expect("at least one set-up");
    if reference.is_none() {
        return Err("no warm-up rep succeeded".to_string());
    }

    let reps = match (a.reps, a.trace) {
        (Some(n), _) => Some(n),
        (None, Trace::Traced) => Some(TRACED_BASE_REPS),
        (None, _) => None,
    };
    let (mut wall_s, mut cpu_s, mut place_s) = (Vec::new(), Vec::new(), Vec::new());
    let measuring = Instant::now();
    let mut done = 0usize;
    loop {
        let enough = match reps {
            Some(n) => done >= n,
            None => done >= MIN_REPS && measuring.elapsed().as_secs_f64() >= a.seconds,
        };
        if enough {
            break;
        }
        let cpu0 = host::process_cpu_seconds().ok_or("cannot read /proc/self/stat")?;
        let start = Instant::now();
        let result = layers::run_flow_once(a.workload, &design);
        let wall = start.elapsed().as_secs_f64();
        let cpu = host::process_cpu_seconds().ok_or("cannot read /proc/self/stat")? - cpu0;
        done += 1;
        attempted += 1;
        match checked(result, &mut reference, &format!("rep {done}")) {
            Some(place_wall_s) => {
                wall_s.push(wall);
                cpu_s.push(cpu);
                place_s.push(place_wall_s);
            }
            None => failed += 1,
        }
    }
    if wall_s.is_empty() {
        return Err("no timed rep succeeded".to_string());
    }
    Ok(Timed {
        design,
        reference: reference.expect("checked after the set-ups"),
        setup_s,
        wall_s,
        cpu_s,
        place_s,
        attempted,
        failed,
    })
}

/// Runs one workload in this process and prints its metrics; the last line
/// of standard output is the result object. `Ok(false)` when a check failed.
fn run(a: &RunArgs) -> Result<bool, String> {
    let run = layers::with_threads(a.threads, || -> Result<report::Run, String> {
        let t = timed_phase(a)?;
        // Read before the traced run so its extra allocations stay out.
        let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read /proc/self/status")?;
        let wall = stats::summarize(&t.wall_s);
        let place_wall_median_s = stats::median(&t.place_s);
        let end_to_end = (a.trace != Trace::Traced).then(|| {
            let q = t.reference.qor();
            let mut v = Values::default();
            v.set("flow_wall_s", wall.median);
            v.set("flow_cpu_s", stats::median(&t.cpu_s));
            v.set("place_wall_s", place_wall_median_s);
            v.set("setup_s", stats::median(&t.setup_s));
            v.set("peak_rss_mb", peak_rss_mb);
            v.set("hpwl_um", q.hpwl_um);
            v.set("rwl_um", q.rwl_um);
            // Slack violations as positive magnitudes, so lower is better
            // and a bound is a share of a positive number.
            v.set("wns_viol_ps", -q.wns_ps);
            v.set("tns_viol_ns", -q.tns_ps / 1e3);
            v.set("power_mw", q.power_w * 1e3);
            v
        });
        let mut run = report::Run {
            workload: a.workload.name(),
            seed: a.seed,
            threads: a.threads,
            smoke: a.smoke,
            cells: t.design.cells(),
            nets: t.design.nets(),
            pins: t.design.pins(),
            attempted: t.attempted,
            failed: t.failed,
            end_to_end,
            samples: vec![
                ("flow_wall_s", t.wall_s),
                ("flow_cpu_s", t.cpu_s),
                ("place_wall_s", t.place_s),
                ("setup_s", t.setup_s),
            ],
            per_layer: None,
            spans: Vec::new(),
        };
        if a.trace != Trace::Timed {
            let ctx = TimedContext {
                threads: a.threads,
                reference: &t.reference,
                flow_wall_median_s: wall.median,
                place_wall_median_s,
                out_dir: &a.out,
            };
            let mut rec = spans::Recorder::new();
            let mut traced = layers::traced_run(a.workload, &t.design, &ctx, &mut rec)?;
            traced.values.set("bench.reps", wall.n as f64);
            traced.values.set("bench.flow_wall_min_s", wall.min);
            traced.values.set("bench.flow_wall_iqr_pct", wall.iqr_pct());
            run.attempted += traced.attempted;
            run.failed += traced.failed;
            run.per_layer = Some(traced.values);
            run.spans = rec.into_spans();
        }
        Ok(run)
    })?;
    run.print();
    run.write(&a.out)?;
    println!("{}", run.result_line());
    Ok(run.failed == 0)
}

/// Runs every workload, one after another, each in a fresh child process of
/// this binary so peak memory is per workload.
fn run_all(mut f: Flags) -> Result<bool, String> {
    let seed: u64 = f.parsed("--seed")?.unwrap_or(1);
    let threads: usize = f.parsed("--threads")?.unwrap_or(2);
    let smoke = f.flag("--smoke");
    let reps: usize = f.parsed("--reps")?.unwrap_or(if smoke { 2 } else { 7 });
    let out = f.value("--out")?.map_or_else(
        || {
            let dir = report::default_out_dir();
            if smoke {
                dir.join("smoke")
            } else {
                dir
            }
        },
        PathBuf::from,
    );
    f.finish()?;
    if !smoke && reps < 5 {
        return Err("--reps must be at least 5 outside --smoke".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for w in Workload::ALL {
        println!("== {} — {}", w.name(), w.why());
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name(), "--trace", "both"])
            .args(["--seed", &seed.to_string()])
            .args(["--threads", &threads.to_string()])
            .args(["--reps", &reps.to_string()])
            .arg("--out")
            .arg(&out);
        if smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start child: {e}"))?;
        if !status.success() {
            eprintln!("{}: child exited with {status}", w.name());
            all_ok = false;
        }
    }
    println!("records in {}", out.display());
    Ok(all_ok)
}

fn compare(mut f: Flags) -> Result<bool, String> {
    let bounds = f
        .value("--bounds")?
        .map_or_else(|| PathBuf::from("BENCHMARK.json"), PathBuf::from);
    let a = PathBuf::from(f.positional()?);
    let b = PathBuf::from(f.positional()?);
    f.finish()?;
    report::compare(&a, &b, &bounds)
}

fn record(mut f: Flags) -> Result<bool, String> {
    let to = f
        .value("--to")?
        .map_or_else(|| PathBuf::from("benchmark/baseline.json"), PathBuf::from);
    let from = PathBuf::from(f.positional()?);
    f.finish()?;
    report::record_baseline(&from, &to).map(|()| true)
}
