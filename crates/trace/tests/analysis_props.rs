//! Property tests for the trace report's self-time table: self time
//! telescopes to the root wall on arbitrary span trees.

use cp_trace::{SpanRecord, TraceReport};
use proptest::prelude::*;

/// Fixed name pool: `SpanRecord::name` is `&'static str`.
const NAMES: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

/// One generated non-root span: `(parent index, name index, thread,
/// start offset ns, duration ns)`. Parent indices are taken modulo the
/// number of spans generated so far, so every tree shape is reachable.
type RawSpan = (usize, usize, u32, u64, u64);

fn report_from(raw: &[RawSpan], root_dur_ns: u64) -> TraceReport {
    let mut spans = vec![SpanRecord {
        id: 1,
        parent: 0,
        name: "root",
        thread: 0,
        start_ns: 0,
        end_ns: root_dur_ns,
        args: vec![],
    }];
    for (i, &(parent, name, thread, start, dur)) in raw.iter().enumerate() {
        let id = i as u64 + 2;
        spans.push(SpanRecord {
            id,
            parent: (parent % spans.len()) as u64 + 1,
            name: NAMES[name % NAMES.len()],
            thread,
            start_ns: start,
            end_ns: start.saturating_add(dur),
            args: vec![],
        });
    }
    TraceReport {
        root: 1,
        spans,
        instants: vec![],
        series: vec![],
        frames: vec![],
        metrics: vec![],
        dropped_events: 0,
    }
}

fn raw_spans() -> impl Strategy<Value = Vec<RawSpan>> {
    proptest::collection::vec(
        (
            0usize..64,
            0usize..NAMES.len(),
            0u32..4,
            0u64..1_000_000_000,
            0u64..1_000_000_000,
        ),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `self(s) = wall(s) − Σ wall(children)` telescopes: summed over any
    /// tree — balanced, degenerate, with overlapping parallel children or
    /// spans whose parent was not captured — it equals the root's wall
    /// time exactly, in integer nanoseconds.
    #[test]
    fn self_time_sums_to_root_wall(
        raw in raw_spans(),
        root_dur in 0u64..10_000_000_000,
        orphans in proptest::collection::vec((0u64..1_000_000_000, 0u64..1_000_000_000), 0..3),
    ) {
        let mut report = report_from(&raw, root_dur);
        for (start, dur) in orphans {
            report.spans.push(SpanRecord {
                id: report.spans.len() as u64 + 1,
                parent: 1 << 40,
                name: "orphan",
                thread: 1,
                start_ns: start,
                end_ns: start + dur,
                args: vec![],
            });
        }
        let rows = report.self_seconds_by_name();
        let self_ns: i64 = rows.iter().map(|t| (t.self_s * 1e9).round() as i64).sum();
        prop_assert_eq!(self_ns, root_dur as i64);
        let count: u64 = rows.iter().map(|t| t.count).sum();
        prop_assert_eq!(count, report.spans.len() as u64);
        // Rows run from the most self time to the least.
        prop_assert!(rows.windows(2).all(|w| w[0].self_s >= w[1].self_s));
    }
}
