//! Never-panic property for the structural-netlist reader
//! ([`cp_netlist::verilog::parse`]), the one text format the repo reads
//! that is not JSON.
//!
//! Each case writes a generated design and applies line-level mutations
//! (drop or duplicate a line), token-level ones (swap two tokens, pin
//! `256` or `-1`, an unknown master, an empty hierarchy segment, a `net`
//! line without its `:`) and byte-level ones (flip a bit, delete a byte).
//! The reader must return a typed `ParseNetlistError`, or a netlist whose
//! `write` parses back equal and whose `validate` returns — never panic.
//! Inputs that once broke the contract live under `tests/regressions/`.

use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::verilog::{parse, write};
use cp_netlist::Library;
use proptest::prelude::*;
use proptest::TestRng;

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n.max(1) as u64) as usize
}

/// Replaces the `n`-th whitespace token of `line`.
fn with_token(line: &str, n: usize, token: &str) -> String {
    let mut toks: Vec<&str> = line.split_whitespace().collect();
    if let Some(t) = toks.get_mut(n) {
        *t = token;
    }
    toks.join(" ")
}

/// One mutation of `text`.
fn mutate(text: &str, rng: &mut TestRng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if lines.is_empty() {
        return String::new();
    }
    let at = below(rng, lines.len());
    let line = lines[at].clone();
    let tokens = line.split_whitespace().count();
    match rng.below(9) {
        0 => {
            lines.remove(at);
        }
        1 => {
            let to = below(rng, lines.len() + 1);
            lines.insert(to, line);
        }
        2 => {
            // Swap a token for one from another line.
            let donor = lines[below(rng, lines.len())].clone();
            let pick: Vec<&str> = donor.split_whitespace().collect();
            if !pick.is_empty() {
                let token = pick[below(rng, pick.len())];
                lines[at] = with_token(&line, below(rng, tokens), token);
            }
        }
        3 => {
            // An out-of-range or negative pin on some sink.
            let pin = ["256", "-1", "255", "7", ""][below(rng, 5)];
            if let Some(dot) = line.rfind('.') {
                let end = line[dot + 1..]
                    .find(' ')
                    .map_or(line.len(), |i| dot + 1 + i);
                lines[at] = format!("{}{pin}{}", &line[..=dot], &line[end..]);
            }
        }
        4 if line.starts_with("cell ") => lines[at] = with_token(&line, 2, "NOPE_X9"),
        5 if line.starts_with("cell ") => {
            let path = line.split_whitespace().nth(3).unwrap_or("");
            let hollow = ["", "/", "//", "x//y"][below(rng, 4)];
            lines[at] = with_token(&line, 3, &format!("{path}{hollow}"));
        }
        6 => lines[at] = line.replace(" : ", " "),
        7 => {
            let mut bytes = line.into_bytes();
            if !bytes.is_empty() {
                let i = below(rng, bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
            lines[at] = String::from_utf8_lossy(&bytes).into_owned();
        }
        _ => {
            let mut bytes = line.into_bytes();
            if !bytes.is_empty() {
                bytes.remove(below(rng, bytes.len()));
            }
            lines[at] = String::from_utf8_lossy(&bytes).into_owned();
        }
    }
    lines.join("\n")
}

/// The reader's contract on one input.
fn check(text: &str) {
    let Ok(netlist) = parse(text, Library::nangate45ish()) else {
        return;
    };
    let _ = netlist.validate();
    let again = write(&netlist);
    assert_eq!(
        parse(&again, Library::nangate45ish()).as_ref(),
        Ok(&netlist),
        "input:\n{text}\nre-written:\n{again}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verilog_reader_is_total_and_stable(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::seed_from_u64(seed);
        let design = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.001 + rng.unit_f64() * 0.002)
            .seed(rng.next_u64())
            .generate();
        let text = write(&design);
        let back = parse(&text, Library::nangate45ish());
        prop_assert!(back.is_ok(), "a written design parses: {:?}", back.err());
        check(&text);
        for _ in 0..24 {
            let mut mutant = text.clone();
            for _ in 0..=rng.below(3) {
                mutant = mutate(&mutant, rng);
            }
            check(&mutant);
        }
    }
}

#[test]
fn committed_regressions_keep_the_contract() {
    for name in ["verilog_foreign_root.txt", "verilog_duplicate_cell.txt"] {
        let path = format!(
            "{}/../../tests/regressions/{name}",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).expect("regression input reads");
        check(&text);
    }
}
