//! Every cp-bench target or feature a committed command names must exist.
//!
//! CI, README.md, DESIGN.md, the "Regenerate with" blocks of
//! EXPERIMENTS.md and the verify skill all spell out `cargo … -p cp-bench
//! --bin X` commands. A job that names a deleted binary fails only when
//! somebody runs it (PR 20 found one that had not compiled for six PRs),
//! so this test resolves each `--bin`, `--example`, `--test`, `--bench`
//! and `--features` name against `crates/bench`. Prose goes stale the same
//! way: module docs and schema descriptions that credit a binary with a
//! job are checked against the binaries that exist, and every schema must
//! be embedded by the one module that encodes or decodes its document.
//! Every `tracetool <sub> … --flag` the docs, CI and the verify skill
//! spell out must name a subcommand and flag tracetool's usage text lists,
//! and the cp-parallel primitives DESIGN.md and README.md name must be
//! exactly the pool's public functions.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The fenced blocks of `text` that directly follow a "Regenerate with" line.
fn regenerate_blocks(text: &str) -> String {
    let (mut armed, mut inside, mut out) = (false, false, String::new());
    for line in text.lines() {
        let fence = line.trim_start().starts_with("```");
        if inside {
            inside = !fence;
            out.push_str(line);
            out.push('\n');
        } else if fence {
            (inside, armed) = (armed, false);
        } else if !line.trim().is_empty() {
            armed = line.starts_with("Regenerate with");
        }
    }
    out
}

/// `t` without leading and trailing punctuation.
fn bare(t: &str) -> &str {
    t.trim_matches(|c: char| !c.is_ascii_alphanumeric())
}

/// The `cargo` commands of `text`, each the tokens from one `cargo` token
/// to the next.
fn cargo_commands(text: &str) -> Vec<Vec<&str>> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    tokens
        .split(|t| bare(t) == "cargo")
        .skip(1)
        .map(<[&str]>::to_vec)
        .collect()
}

/// `(flag, name)` for every target or feature flag of a `cargo` command
/// that selects `-p cp-bench`. A command runs from one `cargo` token to the
/// next and stops at the bare `--` that starts the program's own arguments;
/// `<placeholder>` values are skipped.
fn named_targets(text: &str) -> Vec<(String, String)> {
    cargo_commands(text)
        .iter()
        .flat_map(|command| command_targets(command))
        .collect()
}

/// [`named_targets`] of one command.
fn command_targets(command: &[&str]) -> Vec<(String, String)> {
    const FLAGS: [&str; 5] = ["--bin", "--example", "--test", "--bench", "--features"];
    let end = command.iter().position(|t| *t == "--");
    let command = &command[..end.unwrap_or(command.len())];
    if !command.windows(2).any(|w| w == ["-p", "cp-bench"]) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for w in command.windows(2) {
        if FLAGS.contains(&w[0]) && !w[1].starts_with('<') {
            let names = bare(w[1]);
            out.extend(names.split(',').map(|v| (w[0].to_string(), v.to_string())));
        }
    }
    out
}

/// The targets of the first command in `text` that names `artifact` as a
/// whole token, or `None` when no command names it.
fn regenerating_targets(text: &str, artifact: &str) -> Option<Vec<(String, String)>> {
    cargo_commands(text)
        .iter()
        .find(|command| command.iter().any(|t| bare(t) == bare(artifact)))
        .map(|command| command_targets(command))
}

/// `name = "…"` of every `[[kind]]` entry, or the keys of `[features]`.
fn manifest_names(manifest: &str, section: &str) -> BTreeSet<String> {
    let mut current = "";
    let mut out = BTreeSet::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            current = line;
        } else if current == section {
            if let Some((key, value)) = line.split_once('=') {
                match (section, key.trim()) {
                    ("[features]", key) if !key.starts_with('#') => out.insert(key.to_string()),
                    (_, "name") => out.insert(value.trim().trim_matches('"').to_string()),
                    _ => false,
                };
            }
        }
    }
    out
}

/// The binaries `crates/bench/src/bin` holds.
fn bench_bins() -> BTreeSet<String> {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    std::fs::read_dir(&bin_dir)
        .expect("crates/bench/src/bin is readable")
        .filter_map(|e| e.ok()?.path().file_stem()?.to_str().map(String::from))
        .collect()
}

/// Every `.rs` file under `dir`, recursively, repo-relative.
fn rust_sources(dir: &str, out: &mut Vec<String>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let entries = std::fs::read_dir(root.join(dir)).unwrap_or_else(|e| panic!("list {dir}: {e}"));
    for entry in entries.filter_map(Result::ok) {
        let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.path().is_dir() {
            rust_sources(&rel, out);
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
}

/// The names every `std::env::var` / `var_os` call under `crates/` reads;
/// a call whose name is not a string literal reads as `?`.
fn env_reads() -> BTreeSet<String> {
    let mut sources = Vec::new();
    rust_sources("crates", &mut sources);
    let mut out = BTreeSet::new();
    for file in &sources {
        let text = read(file);
        for (at, call) in text.match_indices("env::var") {
            let rest = &text[at + call.len()..];
            let rest = rest.strip_prefix("_os").unwrap_or(rest);
            let name = rest
                .strip_prefix("(\"")
                .and_then(|r| r.split_once('"'))
                .map_or("?", |(name, _)| name);
            out.insert(name.to_string());
        }
    }
    out
}

/// Every whole-word `CP_[A-Z_]+` name in `text`.
fn knob_names(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| {
            w.strip_prefix("CP_").is_some_and(|rest| {
                !rest.is_empty() && rest.chars().all(|c| c.is_ascii_uppercase() || c == '_')
            })
        })
        .map(String::from)
        .collect()
}

/// The one environment knob is the one CI sets: every `std::env::var`
/// call under `crates/` reads `CP_THREADS`, and every `CP_*` name the
/// docs, CI and the verify skill mention is that knob. A new knob, or a
/// doc naming a dead one, fails here.
#[test]
fn env_knobs_are_the_ones_ci_sets() {
    let knobs = BTreeSet::from(["CP_THREADS".to_string()]);
    assert_eq!(
        env_reads(),
        knobs,
        "environment variables read under crates/"
    );
    for file in [
        "README.md",
        "DESIGN.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    ] {
        let named = knob_names(&read(file));
        assert!(named.contains("CP_THREADS"), "{file} is scanned");
        let dead: Vec<&String> = named.difference(&knobs).collect();
        assert!(
            dead.is_empty(),
            "{file} names knobs nothing reads: {dead:?}"
        );
    }
    let names = knob_names("TCP_OR, `CP_THREADS=4` and CP_TRACE.");
    assert_eq!(
        names,
        BTreeSet::from(["CP_THREADS".into(), "CP_TRACE".into()])
    );
}

/// The names prose credits as binaries: `` `name` bin `` anywhere, and
/// `the name bin` too when `bare` (schema descriptions carry no markup).
fn bin_mentions(text: &str, bare: bool) -> Vec<String> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let is_bin = |t: &str| t.trim_matches(|c: char| !c.is_ascii_alphanumeric()) == "bin";
    let mut out = Vec::new();
    for i in (1..tokens.len()).filter(|&i| is_bin(tokens[i])) {
        let prev = tokens[i - 1];
        if let Some(name) = prev.strip_prefix('`').and_then(|p| p.strip_suffix('`')) {
            out.push(name.to_string());
        } else if bare && i >= 2 && tokens[i - 2] == "the" {
            out.push(prev.to_string());
        }
    }
    out
}

#[test]
fn prose_credits_binaries_that_exist() {
    let bins = bench_bins();
    let mut sources = Vec::new();
    rust_sources("crates", &mut sources);
    let mut stale = Vec::new();
    let mut scanned = 0;
    for file in &sources {
        let text = read(file);
        let docs: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("//!"))
            .collect();
        let docs = docs.join(" ");
        scanned += usize::from(!docs.is_empty());
        for name in bin_mentions(&docs, false) {
            if !bins.contains(&name) {
                stale.push(format!("{file}: `{name}` bin"));
            }
        }
    }
    for (file, ..) in SCHEMAS {
        let path = format!("schemas/{file}");
        let schema = cp_trace::json::parse(&read(&path)).expect("schema parses");
        let description = schema.str("description").unwrap_or_default();
        for name in bin_mentions(description, true) {
            if !bins.contains(&name) {
                stale.push(format!("{path}: the {name} bin"));
            }
        }
    }
    assert_eq!(stale, Vec::<String>::new(), "prose names missing binaries");
    assert!(scanned > 50, "module docs were scanned ({scanned} files)");
    // What the scan is for: the three mentions PR 23 left behind.
    let old = "validator used by the `flowtrace` bin to check (`chrome` … the `flowtrace`\n bin).";
    assert_eq!(bin_mentions(old, false), ["flowtrace", "flowtrace"]);
    let old = "validated by the flowtrace bin in CI via cp_trace::json::validate";
    assert_eq!(bin_mentions(old, true), ["flowtrace"]);
    assert!(bin_mentions("per-bin grids, each bin a cell", true).is_empty());
}

/// One freshly encoded sample of each document, by its schema file.
fn sample_documents() -> [(&'static str, String); 5] {
    use cp_bench::qor_gate::{Baseline, QorEntry};
    use cp_bench::repro::{Runner, Table};
    use cp_trace::{FrameCapture, SpanRecord, TraceReport};
    let report = TraceReport {
        root: 1,
        spans: vec![SpanRecord {
            id: 1,
            parent: 0,
            name: "flow.flat",
            thread: 0,
            start_ns: 0,
            end_ns: 5,
            args: vec![],
        }],
        instants: vec![],
        series: vec![],
        metrics: vec![],
        dropped_events: 0,
    };
    let baseline = Baseline {
        design: "aes".to_string(),
        scale: 0.02,
        qor: vec![QorEntry {
            name: "qor.legalized.hpwl".to_string(),
            value: 1.0,
            rel_tol: 1e-6,
        }],
    };
    let table = Table {
        id: "1",
        title: "t".to_string(),
        scale: 1.0,
        designs: vec!["aes"],
        header: vec!["Design"],
        rows: vec![vec!["aes".to_string()]],
        notes: vec![],
        claims: vec![],
    };
    let checkpoint = cp_core::Checkpoint::after_clustering(1, vec![0, 1], 0.5);
    let repro = cp_bench::repro::to_json(&Runner::new(1.0, vec![]), &[table], 0.0);
    [
        ("checkpoint.schema.json", checkpoint.to_json()),
        (
            "field_frames.schema.json",
            cp_trace::fields::to_json(&FrameCapture::default()),
        ),
        ("qor_baseline.schema.json", baseline.to_json()),
        ("repro.schema.json", repro),
        ("trace_report.schema.json", report.to_json()),
    ]
}

/// Every file under `schemas/`: the module that embeds it (and encodes or
/// decodes its document) and the text that module embedded.
const SCHEMAS: [(&str, &str, &str); 5] = [
    (
        "checkpoint.schema.json",
        "crates/core/src/checkpoint.rs",
        cp_core::checkpoint::SCHEMA_JSON,
    ),
    (
        "field_frames.schema.json",
        "crates/trace/src/fields.rs",
        cp_trace::fields::SCHEMA_JSON,
    ),
    (
        "qor_baseline.schema.json",
        "crates/bench/src/qor_gate.rs",
        cp_bench::qor_gate::SCHEMA_JSON,
    ),
    (
        "repro.schema.json",
        "crates/bench/src/repro.rs",
        cp_bench::repro::SCHEMA_JSON,
    ),
    (
        "trace_report.schema.json",
        "crates/trace/src/report.rs",
        cp_trace::report::SCHEMA_JSON,
    ),
];

/// A schema nobody reads, or a document nobody validates, fails here
/// rather than in a CI job.
#[test]
fn every_schema_is_embedded_once_and_validates_its_document() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut on_disk: Vec<String> = std::fs::read_dir(root.join("schemas"))
        .expect("schemas/ is readable")
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .collect();
    on_disk.sort();
    let listed: Vec<&str> = SCHEMAS.iter().map(|s| s.0).collect();
    assert_eq!(
        on_disk, listed,
        "schemas/ and the table list the same files"
    );

    let mut sources = Vec::new();
    rust_sources("crates", &mut sources);
    for ((file, module, embedded), (sample_of, sample)) in SCHEMAS.iter().zip(sample_documents()) {
        assert_eq!(*file, sample_of, "each schema has its sample");
        let needle = format!("schemas/{file}\")");
        let embedders: Vec<&String> = sources
            .iter()
            .filter(|src| read(src).contains(&format!("include_str!(\"../../../{needle}")))
            .collect();
        assert_eq!(embedders, [*module], "{file} is embedded by its one module");
        assert_eq!(*embedded, read(&format!("schemas/{file}")));
        let schema = cp_trace::json::parse(embedded).expect("schema parses");
        let doc = cp_trace::json::parse(&sample).expect("sample parses");
        let violations = cp_trace::json::validate(&doc, &schema);
        assert_eq!(violations, Vec::<String>::new(), "{file} vs {sample}");
    }
}

/// The cp-bench names a target or feature flag can select.
fn known_targets(flag: &str) -> BTreeSet<String> {
    let manifest = read("crates/bench/Cargo.toml");
    match flag {
        "--bin" => bench_bins(),
        "--example" => manifest_names(&manifest, "[[example]]"),
        "--test" => manifest_names(&manifest, "[[test]]"),
        "--bench" => manifest_names(&manifest, "[[bench]]"),
        _ => manifest_names(&manifest, "[features]"),
    }
}

#[test]
fn committed_commands_name_targets_that_exist() {
    let bins = bench_bins();
    assert_eq!(
        bins.iter().map(String::as_str).collect::<Vec<_>>(),
        ["repro", "tracetool"],
        "one experiment driver, one trace tool"
    );
    assert!(known_targets("--features").contains("fault-injection"));
    assert!(known_targets("--test").contains("ci_manifest"));

    let sources = [
        (".github/workflows/ci.yml", read(".github/workflows/ci.yml")),
        ("README.md", read("README.md")),
        ("DESIGN.md", read("DESIGN.md")),
        ("EXPERIMENTS.md", regenerate_blocks(&read("EXPERIMENTS.md"))),
        (
            ".claude/skills/verify/SKILL.md",
            read(".claude/skills/verify/SKILL.md"),
        ),
    ];
    let mut seen = BTreeSet::new();
    let mut stale = Vec::new();
    for (file, text) in &sources {
        for (flag, name) in named_targets(text) {
            if !known_targets(&flag).contains(&name) {
                stale.push(format!("{file}: {flag} {name}"));
            }
            seen.insert(name);
        }
    }
    assert_eq!(stale, Vec::<String>::new(), "commands name missing targets");
    // The scan is not vacuous: it saw the commands everyone runs.
    for name in [
        "repro",
        "tracetool",
        "quickstart",
        "backend_parity",
        "fault-injection",
    ] {
        assert!(seen.contains(name), "no committed command names `{name}`");
    }
}

/// Every JSON file at the repo root other than the benchmark manifest is
/// an artifact some command writes: an EXPERIMENTS.md "Regenerate with"
/// block spells out a command that names the file, and that command runs a
/// cp-bench target that exists. An artifact whose writer was deleted, or
/// whose block never says how to rewrite it, fails here.
#[test]
fn root_json_artifacts_have_a_regenerate_command() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut artifacts: Vec<String> = std::fs::read_dir(&root)
        .expect("the repo root is readable")
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|name| name.ends_with(".json") && name != "BENCHMARK.json")
        .collect();
    artifacts.sort();
    assert!(!artifacts.is_empty(), "REPRO.json is committed");
    let blocks = regenerate_blocks(&read("EXPERIMENTS.md"));
    let mut stale = Vec::new();
    for artifact in &artifacts {
        match regenerating_targets(&blocks, artifact) {
            None => stale.push(format!("{artifact}: no command names it")),
            Some(targets) if targets.is_empty() => {
                stale.push(format!("{artifact}: its command runs no cp-bench target"))
            }
            Some(targets) => {
                for (flag, name) in targets {
                    if !known_targets(&flag).contains(&name) {
                        stale.push(format!("{artifact}: {flag} {name}"));
                    }
                }
            }
        }
    }
    assert_eq!(stale, Vec::<String>::new(), "artifacts without a writer");
    // The case the check is for: a block that runs a bench which writes
    // the file without naming it.
    let md = "Regenerate with:\n\n```sh\ncargo run -p cp-bench --bin kernelbench\n```\n";
    assert_eq!(
        regenerating_targets(&regenerate_blocks(md), "BENCH_kernels.json"),
        None
    );
    let md = "Regenerate with:\n\n```sh\ncargo run -p cp-bench --bin repro -- --json R.json\n```\n";
    assert_eq!(
        regenerating_targets(&regenerate_blocks(md), "R.json"),
        Some(vec![("--bin".to_string(), "repro".to_string())])
    );
}

#[test]
fn scanner_reads_folded_and_inline_commands() {
    let yaml = "run: >\n  CP_THREADS=4 cargo run --release -p cp-bench --features a,b\n  --bin tool -- gate --bin not-ours\n- run: cargo test -p cp-place --test other\n";
    let found = named_targets(yaml);
    let pair = |f: &str, n: &str| (f.to_string(), n.to_string());
    assert_eq!(
        found,
        [
            pair("--features", "a"),
            pair("--features", "b"),
            pair("--bin", "tool")
        ]
    );
    let md = "Regenerate with:\n\n```sh\ncargo run -p cp-bench --bin x\n```\n\nOld:\n\n```sh\ncargo run -p cp-bench --bin gone\n```\n";
    assert_eq!(named_targets(&regenerate_blocks(md)), [pair("--bin", "x")]);
    assert_eq!(
        named_targets("(`cargo run -q -p cp-bench --example quickstart`, or --example <name>)"),
        [pair("--example", "quickstart")]
    );
}

/// Every `--name` in `text`: lowercase letters, digits and inner dashes.
fn long_flags(text: &str) -> Vec<String> {
    text.match_indices("--")
        .filter_map(|(at, _)| {
            let tail = &text[at + 2..];
            let end = tail
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
                .unwrap_or(tail.len());
            let name = tail[..end].trim_end_matches('-');
            name.starts_with(|c: char| c.is_ascii_lowercase())
                .then(|| format!("--{name}"))
        })
        .collect()
}

/// Subcommand → flags from tracetool's usage text: the header's
/// `<a|b|…>` lists the subcommands, a line starting with one opens it and
/// the indented lines under it continue it.
fn usage_flags(usage: &str) -> BTreeMap<String, BTreeSet<String>> {
    let header = usage.lines().next().unwrap_or_default();
    let subs = header
        .split_once('<')
        .and_then(|(_, rest)| rest.split_once('>'))
        .map_or("", |(subs, _)| subs);
    let mut out: BTreeMap<String, BTreeSet<String>> = subs
        .split('|')
        .map(|s| (s.to_string(), BTreeSet::new()))
        .collect();
    let mut current = None;
    for line in usage.lines().skip(1) {
        if !line.starts_with(' ') {
            let first = line.split_whitespace().next().unwrap_or_default();
            current = out.contains_key(first).then(|| first.to_string());
        }
        if let Some(sub) = &current {
            out.entry(sub.clone()).or_default().extend(long_flags(line));
        }
    }
    out
}

/// `(subcommand, flags)` of every `tracetool <sub> …` command in `text`.
/// A bare `--` after `tracetool` is cargo's separator. A command ends
/// before the next `cargo`, `tracetool`, shell separator, `#` comment,
/// YAML key or list dash, `·` or code fence, and after the token that
/// closes its inline code span.
fn tracetool_commands(text: &str) -> Vec<(String, Vec<String>)> {
    const STOP: [&str; 9] = ["cargo", "|", "&&", "||", ";", ">", "#", "-", "·"];
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let mut out = Vec::new();
    for at in (0..tokens.len()).filter(|&i| tokens[i].ends_with("tracetool")) {
        let mut rest = tokens[at + 1..].iter().copied();
        let mut sub = rest.next().unwrap_or_default();
        if sub == "--" {
            sub = rest.next().unwrap_or_default();
        }
        let name: String = sub
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || *c == '-')
            .collect();
        if !name.starts_with(|c: char| c.is_ascii_lowercase()) {
            continue;
        }
        let mut flags = Vec::new();
        let mut open = !sub.contains('`');
        for t in rest {
            let ends = STOP.contains(&t) || t.ends_with(':') || t.contains("```");
            if !open || ends || t.ends_with("tracetool") {
                break;
            }
            flags.extend(long_flags(t));
            open = !t.contains('`');
        }
        out.push((name, flags));
    }
    out
}

#[test]
fn committed_tracetool_commands_use_listed_flags() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .output()
        .expect("tracetool runs");
    let listed = usage_flags(&String::from_utf8_lossy(&out.stderr));
    assert!(
        listed.get("explain").is_some_and(|f| f.contains("--run")),
        "usage text parses: {listed:?}"
    );
    assert!(listed
        .get("diff")
        .is_some_and(|f| f.contains("--metric-rel")));
    let mut stale = Vec::new();
    let mut scanned = 0;
    for file in [
        "README.md",
        "DESIGN.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    ] {
        for (sub, flags) in tracetool_commands(&read(file)) {
            scanned += 1;
            let Some(known) = listed.get(&sub) else {
                stale.push(format!("{file}: tracetool {sub}"));
                continue;
            };
            for flag in flags.iter().filter(|f| !known.contains(*f)) {
                stale.push(format!("{file}: tracetool {sub} {flag}"));
            }
        }
    }
    assert_eq!(stale, Vec::<String>::new(), "commands name unlisted flags");
    assert!(scanned > 50, "tracetool commands were scanned ({scanned})");
    // The forms the docs use: a folded CI command, inline code in a
    // table cell, a comment after a shell line.
    let pair = |sub: &str, flags: &[&str]| {
        let flags = flags.iter().map(|f| f.to_string()).collect();
        (sub.to_string(), flags)
    };
    let yaml = "run: >\n  cargo run -p cp-bench --bin tracetool --\n  gate --large --timeout-s 900\n- name: x --no";
    assert_eq!(
        tracetool_commands(yaml),
        [pair("gate", &["--large", "--timeout-s"])]
    );
    let md = "| `tracetool render`, `explain --fields` | `tracetool summarize · gate --from`";
    assert_eq!(
        tracetool_commands(md),
        [pair("render", &[]), pair("summarize", &[])]
    );
    let sh =
        "./target/release/tracetool render F.json --out-dir svg   # or --name\n`tracetool` fills";
    assert_eq!(tracetool_commands(sh), [pair("render", &["--out-dir"])]);
}

/// The `pub fn` names of cp-parallel's library code (its tests excluded).
fn pool_functions() -> BTreeSet<String> {
    let text = read("crates/parallel/src/lib.rs");
    let library = text.split("#[cfg(test)]").next().unwrap_or_default();
    library
        .lines()
        .filter_map(|l| l.strip_prefix("pub fn "))
        .map(|rest| {
            rest.split(['<', '('])
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

/// The cp-parallel primitives `text` names: every whole word that starts
/// `par_` or `try_par_`, and every `cp_parallel::name` path.
fn pool_mentions(text: &str) -> BTreeSet<String> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out: BTreeSet<String> = text
        .split(|c: char| !is_ident(c))
        .filter(|w| w.starts_with("par_") || w.starts_with("try_par_"))
        .map(String::from)
        .collect();
    for (at, path) in text.match_indices("cp_parallel::") {
        let rest = &text[at + path.len()..];
        let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
        if name.starts_with(|c: char| c.is_ascii_lowercase()) {
            out.insert(name);
        }
    }
    out
}

/// The pool's surface and the prose about it move together: a primitive
/// DESIGN.md or README.md names must still be public, and DESIGN.md must
/// name every public one.
#[test]
fn prose_names_the_pools_public_functions() {
    let public = pool_functions();
    assert!(
        public.contains("par_map"),
        "cp-parallel was scanned: {public:?}"
    );
    let mut stale = Vec::new();
    for file in ["DESIGN.md", "README.md"] {
        for name in pool_mentions(&read(file)).difference(&public) {
            stale.push(format!("{file}: `{name}` is not a pub fn of cp-parallel"));
        }
    }
    let design = read("DESIGN.md");
    let design_words: BTreeSet<&str> = design
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .collect();
    for name in public.iter().filter(|n| !design_words.contains(n.as_str())) {
        stale.push(format!("DESIGN.md: pub fn `{name}` is not named"));
    }
    assert_eq!(stale, Vec::<String>::new(), "pool prose out of date");
    // The forms the docs use: backticked and bare names, slash lists,
    // qualified paths; `parallel` and `spare_par_x` are not primitives.
    let md = "`par_map`/`try_par_map`, par_sum; `cp_parallel::with_threads(n, f)` and cp_parallel::RegionError, parallel spare_par_x";
    let want = ["par_map", "par_sum", "try_par_map", "with_threads"];
    assert_eq!(pool_mentions(md), want.map(String::from).into());
}
