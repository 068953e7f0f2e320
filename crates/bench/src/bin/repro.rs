//! Regenerates every table and figure of the paper from one harness.
//!
//! ```text
//! repro [--table 1|2|3|4|5|6|fig5|gnn|ablation|quality|runtime|backend|all]
//!       [--scale S] [--large] [--json PATH]
//! ```
//!
//! Designs are aes / jpeg / ariane at `--scale` (default 1.0) times the
//! paper's instance counts; `--large` adds BlackParrot, MegaBoom and
//! MemPool Group where the paper's table has them. Markdown goes to
//! stdout (EXPERIMENTS.md embeds it), progress to stderr, and `--json`
//! writes the `REPRO.json` record (`schemas/repro.schema.json`). A flow
//! several tables share runs once (see `cp_bench::repro`).

use cp_bench::repro::{self, Runner, TABLES};
use cp_bench::{out, outln};
use cp_netlist::generator::DesignProfile;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: repro [--table 1|2|3|4|5|6|fig5|gnn|ablation|quality|runtime|backend|all] \
     [--scale S] [--large] [--json PATH]";

fn run() -> Result<(), String> {
    let (mut which, mut scale, mut large, mut json) = ("all".to_string(), 1.0, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("`{arg}` needs a value"));
        match arg.as_str() {
            "--table" => which = value()?,
            "--scale" => {
                let v = value()?;
                let positive = |s: &f64| *s > 0.0 && s.is_finite();
                scale = v
                    .parse()
                    .ok()
                    .filter(positive)
                    .ok_or_else(|| format!("`--scale` must be a positive number, got `{v}`"))?;
            }
            "--json" => json = Some(value()?),
            "--large" => large = true,
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let ids: Vec<&str> = TABLES
        .iter()
        .copied()
        .filter(|id| which == "all" || which == *id)
        .collect();
    if ids.is_empty() {
        return Err(format!("unknown table `{which}`\n{USAGE}"));
    }

    let profiles = if large {
        DesignProfile::ALL.to_vec()
    } else {
        cp_bench::small_profiles()
    };
    let mut runner = Runner::new(scale, profiles);
    outln!(
        "# repro --table {which} --scale {scale}{} — {} threads on {} detected cores",
        if large { " --large" } else { "" },
        cp_parallel::current_threads(),
        cp_parallel::detected_cores()
    );
    let t0 = Instant::now();
    let mut tables = Vec::new();
    for id in ids {
        let table = repro::table(&mut runner, id).ok_or("ids come from TABLES")?;
        let table = table.map_err(|e| format!("table {id}: {e}"))?;
        out!("\n{}", table.to_markdown());
        tables.push(table);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let per_design = runner.runs_per_design();
    let per_design: Vec<String> = per_design.iter().map(|(d, n)| format!("{d} {n}")).collect();
    outln!(
        "\nFlow runs: {} distinct (flow kind, fingerprint) pairs for {} requested ({}), plus {} timing re-runs; wall {wall_s:.0} s.",
        runner.executed.len(),
        runner.requested,
        per_design.join(", "),
        runner.reruns
    );
    if let Some(path) = json {
        std::fs::write(&path, repro::to_json(&runner, &tables, wall_s))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::from(2)
        }
    }
}
