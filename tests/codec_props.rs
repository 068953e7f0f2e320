//! Never-panic and round-trip properties for every document the repo
//! reads back: checkpoint and QoR baseline. `REPRO.json`
//! and the trace report are encode-only; their property is that every
//! generated document validates against its schema.
//!
//! Each case starts from a valid encoding of a generated value and
//! applies byte-level mutations (flip a bit, delete a byte, duplicate a
//! run, splice a hostile number over a number) and structure-level ones
//! (drop a key, swap a value's type, truncate an array). The decoder must
//! return a typed `Err`, or a value whose re-encoding decodes to the same
//! encoding — never panic, and (checked by the regression inputs under
//! `tests/regressions/`) never size an allocation by an unchecked field.

use cp_bench::qor_gate::{Baseline, QorEntry};
use cp_bench::repro::{self, Claim, Flow, Runner, Table};
use cp_core::checkpoint::{Checkpoint, ShapingState};
use cp_core::flow::ShapingStats;
use cp_core::{stages, RecoveryEvent};
use cp_netlist::ClusterShape;
use cp_trace::json::{self, Json, Writer};
use cp_trace::{
    ArgValue, Frame, InstantRecord, MetricSnapshot, MetricValue, SeriesRow, SpanRecord, TraceReport,
};
use proptest::prelude::*;
use proptest::TestRng;

// ---------------------------------------------------------------------------
// Mutations

/// Numbers a float→integer `as` cast turns into a wrong id or size.
const HOSTILE: [&str; 9] = [
    "-1",
    "1e308",
    "0.5",
    "18446744073709551616",
    "4294967296",
    "9000000000000000000",
    "1e999",
    "-0",
    "2.7",
];

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// One byte-level mutation.
fn mutate_bytes(text: &str, rng: &mut TestRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let at = below(rng, bytes.len());
    match rng.below(4) {
        0 => bytes[at] ^= 1 << rng.below(8),
        1 => {
            bytes.remove(at);
        }
        2 => {
            let end = (at + 1 + below(rng, 48)).min(bytes.len());
            let run = bytes[at..end].to_vec();
            bytes.splice(end..end, run);
        }
        _ => {
            // Replace the number token at or after `at`, if there is one.
            let is_num = |b: &u8| b.is_ascii_digit() || b"-+.eE".contains(b);
            if let Some(start) = (at..bytes.len()).find(|&i| bytes[i].is_ascii_digit()) {
                let len = bytes[start..].iter().take_while(|b| is_num(b)).count();
                let hostile = HOSTILE[below(rng, HOSTILE.len())].bytes();
                bytes.splice(start..start + len, hostile);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A value of a different JSON type than `value`.
fn other_type(value: &Json, rng: &mut TestRng) -> Json {
    match (value, rng.below(3)) {
        (Json::Num(_), 0) => Json::Str("7".to_string()),
        (Json::Num(_), 1) => Json::Null,
        (Json::Num(_), _) => Json::Num(-1.5),
        (Json::Arr(_), _) => Json::Obj(Default::default()),
        (Json::Obj(_), _) => Json::Arr(Vec::new()),
        (_, 0) => Json::Num(3.0),
        (_, 1) => Json::Arr(vec![Json::Null]),
        (_, _) => Json::Bool(true),
    }
}

/// One structure-level mutation somewhere below `node`: drop a key, swap
/// a value's type, or truncate an array.
fn mutate_node(node: &mut Json, rng: &mut TestRng) {
    let action = rng.below(4);
    match node {
        Json::Obj(members) if !members.is_empty() => {
            let pick = below(rng, members.len());
            let key = members.keys().nth(pick).cloned().unwrap_or_default();
            match (action, members.get_mut(&key)) {
                (0, _) => {
                    members.remove(&key);
                }
                (1, Some(value)) => *value = other_type(value, rng),
                (_, Some(value)) => mutate_node(value, rng),
                (_, None) => {}
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            let pick = below(rng, items.len());
            match action {
                0 => items.truncate(pick),
                1 => items[pick] = other_type(&items[pick], rng),
                _ => mutate_node(&mut items[pick], rng),
            }
        }
        leaf => *leaf = other_type(leaf, rng),
    }
}

fn render(value: &Json, w: &mut Writer) {
    match value {
        Json::Null => w.null(),
        Json::Bool(b) => w.bool(*b),
        Json::Num(n) => w.f64(*n),
        Json::Str(s) => w.str(s),
        Json::Arr(items) => {
            w.array();
            items.iter().for_each(|item| render(item, w));
            w.end()
        }
        Json::Obj(members) => {
            w.object();
            for (key, member) in members {
                w.key(key);
                render(member, w);
            }
            w.end()
        }
    };
}

fn mutate_structure(text: &str, rng: &mut TestRng) -> String {
    let Ok(mut doc) = json::parse(text) else {
        return text.to_string();
    };
    mutate_node(&mut doc, rng);
    let mut w = Writer::new();
    render(&doc, &mut w);
    w.finish()
}

/// Runs `check` on the valid encoding and on 24 mutants of it, each one
/// to three mutations away.
fn for_each_mutant(valid: &str, rng: &mut TestRng, check: impl Fn(&str)) {
    check(valid);
    for _ in 0..24 {
        let mut mutant = valid.to_string();
        for _ in 0..=rng.below(3) {
            mutant = match rng.below(3) {
                0 => mutate_structure(&mutant, rng),
                _ => mutate_bytes(&mutant, rng),
            };
        }
        check(&mutant);
    }
}

// ---------------------------------------------------------------------------
// Generators

const NAMES: [&str; 6] = [
    "flow.clustered",
    "flat placement",
    "place.outer",
    "qor.legalized.hpwl",
    "a\"quoted\\name",
    "tab\tµ",
];

fn name(rng: &mut TestRng) -> &'static str {
    NAMES[below(rng, NAMES.len())]
}

/// A finite float: integral, fractional, tiny, huge or negative.
fn float(rng: &mut TestRng) -> f64 {
    let base = rng.unit_f64() * 2.0 - 1.0;
    match rng.below(5) {
        0 => (base * 1e6).round(),
        1 => base * 1e-9,
        2 => base * 1e18,
        3 => 0.0,
        _ => base * 1234.5,
    }
}

fn ids(rng: &mut TestRng, max_len: usize) -> Vec<u32> {
    (0..below(rng, max_len))
        .map(|_| rng.below(1 << 20) as u32)
        .collect()
}

fn placement(rng: &mut TestRng) -> Option<Vec<(f64, f64)>> {
    (rng.below(2) == 0).then(|| {
        (0..below(rng, 6))
            .map(|_| (float(rng), float(rng)))
            .collect()
    })
}

fn checkpoint(rng: &mut TestRng) -> Checkpoint {
    let events = (0..below(rng, 4))
        .map(|_| match rng.below(3) {
            0 => RecoveryEvent::PlacerReverted {
                stage: stages::CONGESTION_REFINEMENT,
            },
            1 => RecoveryEvent::ShapeFallback {
                cluster: rng.below(99) as u32,
            },
            _ => RecoveryEvent::RegionDropped {
                cluster: rng.below(99) as u32,
            },
        })
        .collect();
    let shaping = (rng.below(2) == 0).then(|| ShapingState {
        shapes: (0..below(rng, 4))
            .map(|c| {
                let shape = ClusterShape::new(0.25 + rng.unit_f64() * 4.0, 1.0 - rng.unit_f64());
                (c as u32, shape)
            })
            .collect(),
        stats: ShapingStats {
            clusters_shaped: below(rng, 500),
            exact_evals: below(rng, 10_000),
            warm_start_hits: below(rng, 7),
            ..Default::default()
        },
    });
    Checkpoint {
        fingerprint: rng.next_u64(),
        assignment: ids(rng, 12),
        clustering_runtime: float(rng).abs(),
        events,
        dropped: below(rng, 3),
        shaping,
        cluster_placement: placement(rng),
        flat_placement: placement(rng),
    }
}

/// Dense grids of random shapes (a zero side included), a NaN cell in
/// every nonempty one.
fn frames(rng: &mut TestRng) -> Vec<Frame> {
    let names = [
        "place.density_overflow",
        "place.displacement",
        "route.congestion",
    ];
    (0..below(rng, 6))
        .map(|_| {
            let (nx, ny) = (below(rng, 6), below(rng, 6));
            let nan = below(rng, (nx * ny).max(1));
            Frame {
                name: names[below(rng, names.len())],
                stage: name(rng),
                iter: rng.below(64),
                nx,
                ny,
                values: (0..nx * ny)
                    .map(|i| {
                        if i == nan {
                            f32::NAN
                        } else {
                            float(rng) as f32
                        }
                    })
                    .collect(),
            }
        })
        .collect()
}

fn report(rng: &mut TestRng) -> TraceReport {
    let mut spans = vec![SpanRecord {
        id: 1,
        parent: 0,
        name: NAMES[0],
        thread: 0,
        start_ns: 0,
        end_ns: rng.below(1 << 40),
        args: vec![("cells", ArgValue::U(rng.next_u64() >> 20))],
    }];
    for id in 2..2 + rng.below(8) {
        let start_ns = rng.below(1 << 40);
        spans.push(SpanRecord {
            id,
            parent: 1 + rng.below(id - 1),
            name: name(rng),
            thread: rng.below(4) as u32,
            start_ns,
            end_ns: start_ns + rng.below(1 << 40),
            args: vec![
                ("ratio", ArgValue::F(float(rng))),
                ("mode", ArgValue::S("x")),
            ],
        });
    }
    let n = spans.len() as u64;
    let instants = (0..below(rng, 3))
        .map(|_| InstantRecord {
            name: ["place.revert", "recovery.checkpoint_failed"][below(rng, 2)],
            span: 1 + rng.below(n),
            thread: 0,
            ts_ns: rng.below(1 << 40),
            args: vec![],
        })
        .collect();
    // Interleaved rows of two series under several spans.
    let series = (0..below(rng, 12))
        .map(|i| SeriesRow {
            name: ["place.outer", "gnn.epoch"][below(rng, 2)],
            span: 1 + rng.below(n),
            iter: i as u64,
            values: vec![("hpwl", float(rng)), ("overflow", float(rng))],
        })
        .collect();
    let metrics = (0..below(rng, 5))
        .map(|_| MetricSnapshot {
            name: name(rng),
            value: match rng.below(3) {
                0 => MetricValue::Counter(rng.next_u64() >> 12),
                1 => MetricValue::Gauge(float(rng)),
                _ => MetricValue::Histogram {
                    count: rng.below(100),
                    sum: float(rng),
                    min: float(rng),
                    max: float(rng),
                    buckets: vec![(1.0, rng.below(9)), (f64::INFINITY, rng.below(9))],
                },
            },
        })
        .collect();
    TraceReport {
        root: 1,
        spans,
        instants,
        series,
        frames: frames(rng),
        metrics,
        dropped_events: rng.below(3),
    }
}

fn baseline(rng: &mut TestRng) -> Baseline {
    Baseline {
        design: name(rng).to_string(),
        scale: rng.unit_f64(),
        qor: (0..=below(rng, 4))
            .map(|_| QorEntry {
                name: name(rng).to_string(),
                value: float(rng),
                rel_tol: rng.unit_f64(),
            })
            .collect(),
    }
}

fn table(rng: &mut TestRng) -> Table {
    let strings = |rng: &mut TestRng, n: usize| -> Vec<String> {
        (0..n).map(|_| name(rng).to_string()).collect()
    };
    let (columns, notes) = (1 + below(rng, 3), below(rng, 3));
    Table {
        id: repro::TABLES[below(rng, repro::TABLES.len())],
        title: name(rng).to_string(),
        scale: rng.unit_f64(),
        designs: (0..below(rng, 3)).map(|_| name(rng)).collect(),
        header: (0..columns).map(|_| name(rng)).collect(),
        rows: (0..below(rng, 4)).map(|_| strings(rng, columns)).collect(),
        notes: strings(rng, notes),
        claims: (0..below(rng, 3))
            .map(|_| Claim {
                text: name(rng).to_string(),
                paper: name(rng).to_string(),
                measured: name(rng).to_string(),
                holds: [None, Some(true), Some(false)][below(rng, 3)],
                provisional: rng.below(2) == 0,
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn checkpoint_decoder_is_total_and_stable(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::seed_from_u64(seed);
        let cp = checkpoint(rng);
        let text = cp.to_json();
        prop_assert_eq!(Checkpoint::from_json(&text), Ok(cp));
        for_each_mutant(&text, rng, |mutant| {
            if let Ok(cp) = Checkpoint::from_json(mutant) {
                let again = cp.to_json();
                assert_eq!(Checkpoint::from_json(&again).map(|c| c.to_json()), Ok(again));
            }
        });
    }

    #[test]
    fn every_report_validates_against_its_schema(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::seed_from_u64(seed);
        let doc = json::parse(&report(rng).to_json()).expect("report parses");
        let schema = json::parse(cp_trace::report::SCHEMA_JSON).expect("schema parses");
        prop_assert_eq!(json::validate(&doc, &schema), Vec::<String>::new());
    }

    #[test]
    fn baseline_decoder_is_total_and_stable(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::seed_from_u64(seed);
        let b = baseline(rng);
        let text = b.to_json();
        prop_assert_eq!(Baseline::from_json(&text), Ok(b));
        for_each_mutant(&text, rng, |mutant| {
            if let Ok(b) = Baseline::from_json(mutant) {
                let again = b.to_json();
                assert_eq!(Baseline::from_json(&again).map(|b| b.to_json()), Ok(again));
            }
        });
    }

    #[test]
    fn every_repro_table_validates_against_its_schema(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::seed_from_u64(seed);
        let mut runner = Runner::new(rng.unit_f64(), vec![]);
        runner.executed = (0..rng.below(4)).map(|i| (Flow::Ours, name(rng), i)).collect();
        runner.requested = below(rng, 9);
        let tables: Vec<Table> = (0..=below(rng, 2)).map(|_| table(rng)).collect();
        let text = repro::to_json(&runner, &tables, float(rng).abs());
        let doc = json::parse(&text).expect("REPRO.json parses");
        let schema = json::parse(repro::SCHEMA_JSON).expect("schema parses");
        prop_assert_eq!(json::validate(&doc, &schema), Vec::<String>::new());
        let decoded = doc.each("tables", |t| Ok(t.array("rows")?.len()));
        let rows: Vec<usize> = tables.iter().map(|t| t.rows.len()).collect();
        prop_assert_eq!(decoded, Ok(rows));
    }
}
