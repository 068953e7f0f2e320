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

use std::collections::BTreeSet;
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

/// `(flag, name)` for every target or feature flag of a `cargo` command
/// that selects `-p cp-bench`. A command runs from one `cargo` token to the
/// next and stops at the bare `--` that starts the program's own arguments;
/// `<placeholder>` values are skipped.
fn named_targets(text: &str) -> Vec<(String, String)> {
    const FLAGS: [&str; 5] = ["--bin", "--example", "--test", "--bench", "--features"];
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let mut out = Vec::new();
    let bare = |t: &str| {
        t.trim_matches(|c: char| !c.is_ascii_alphanumeric())
            .to_string()
    };
    for command in tokens.split(|t| bare(t) == "cargo").skip(1) {
        let end = command.iter().position(|t| *t == "--");
        let command = &command[..end.unwrap_or(command.len())];
        if !command.windows(2).any(|w| w == ["-p", "cp-bench"]) {
            continue;
        }
        for w in command.windows(2) {
            if FLAGS.contains(&w[0]) && !w[1].starts_with('<') {
                let names = bare(w[1]);
                out.extend(names.split(',').map(|v| (w[0].to_string(), v.to_string())));
            }
        }
    }
    out
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
fn sample_documents() -> [(&'static str, String); 6] {
    use cp_bench::qor_gate::{Baseline, QorEntry};
    use cp_bench::repro::{Runner, Table};
    use cp_trace::{FrameCapture, LedgerEntry, SpanRecord, TraceReport};
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
        total_s: 1.0,
        total_rel_tol: 25.0,
        self_shares: vec![],
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
    let entry = LedgerEntry::new(1, "aes", "flow").capture_trace(&report);
    let repro = cp_bench::repro::to_json(&Runner::new(1.0, vec![]), &[table], 0.0);
    [
        ("checkpoint.schema.json", checkpoint.to_json()),
        (
            "field_frames.schema.json",
            cp_trace::fields::to_json(&FrameCapture::default()),
        ),
        ("ledger_entry.schema.json", entry.to_json_line()),
        ("qor_baseline.schema.json", baseline.to_json()),
        ("repro.schema.json", repro),
        ("trace_report.schema.json", report.to_json()),
    ]
}

/// Every file under `schemas/`: the module that embeds it (and encodes or
/// decodes its document) and the text that module embedded.
const SCHEMAS: [(&str, &str, &str); 6] = [
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
        "ledger_entry.schema.json",
        "crates/trace/src/ledger.rs",
        cp_trace::ledger::SCHEMA_JSON,
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

#[test]
fn committed_commands_name_targets_that_exist() {
    let manifest = read("crates/bench/Cargo.toml");
    let bins = bench_bins();
    assert_eq!(
        bins.iter().map(String::as_str).collect::<Vec<_>>(),
        ["repro", "solverbench", "tracetool"],
        "one experiment driver, one trace tool, one solver bench"
    );
    let known = |flag: &str| match flag {
        "--bin" => bins.clone(),
        "--example" => manifest_names(&manifest, "[[example]]"),
        "--test" => manifest_names(&manifest, "[[test]]"),
        "--bench" => manifest_names(&manifest, "[[bench]]"),
        _ => manifest_names(&manifest, "[features]"),
    };
    assert!(known("--features").contains("fault-injection"));
    assert!(known("--test").contains("ci_manifest"));

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
            if !known(&flag).contains(&name) {
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
