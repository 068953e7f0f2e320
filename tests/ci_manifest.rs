//! Every cp-bench target or feature a committed command names must exist.
//!
//! CI, README.md, DESIGN.md, the "Regenerate with" blocks of
//! EXPERIMENTS.md and the verify skill all spell out `cargo … -p cp-bench
//! --bin X` commands. A job that names a deleted binary fails only when
//! somebody runs it (PR 20 found one that had not compiled for six PRs),
//! so this test resolves each `--bin`, `--example`, `--test`, `--bench`
//! and `--features` name against `crates/bench`.

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

#[test]
fn committed_commands_name_targets_that_exist() {
    let manifest = read("crates/bench/Cargo.toml");
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let bins: BTreeSet<String> = std::fs::read_dir(&bin_dir)
        .expect("crates/bench/src/bin is readable")
        .filter_map(|e| e.ok()?.path().file_stem()?.to_str().map(String::from))
        .collect();
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
