//! Property tests for the trace analysis layer: self-time telescopes to
//! the root wall on arbitrary span trees, the critical path is monotone
//! under child insertion, and a report diffed against itself is empty at
//! any tolerance.

use cp_trace::{Analysis, DiffOptions, SpanRecord, TraceDiff, TraceReport};
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
    /// tree — balanced, degenerate, with overlapping parallel children —
    /// it equals the root's wall time exactly.
    #[test]
    fn self_time_sums_to_root_wall(raw in raw_spans(), root_dur in 0u64..10_000_000_000) {
        let a = Analysis::from_report(&report_from(&raw, root_dur)).expect("analyzes");
        prop_assert_eq!(a.total_self_seconds(), a.duration_seconds());
        // The per-name aggregation partitions the same total.
        let by_name: f64 = a.self_time_by_name().iter().map(|r| r.self_s).sum();
        prop_assert!((by_name - a.duration_seconds()).abs() < 1e-6);
    }

    /// Inserting one more child anywhere in the tree either leaves the
    /// critical path unchanged, or the two paths share the prefix up to
    /// the insertion point and the newly selected child's wall time is
    /// at least the previously selected one's.
    #[test]
    fn critical_path_is_monotone_under_child_insertion(
        raw in raw_spans(),
        root_dur in 1u64..10_000_000_000,
        parent_pick in 0usize..64,
        start in 0u64..1_000_000_000,
        dur in 0u64..2_000_000_000,
    ) {
        let before_report = report_from(&raw, root_dur);
        let before = Analysis::from_report(&before_report).expect("analyzes");
        let mut after_report = before_report.clone();
        let parent_id = (parent_pick % after_report.spans.len()) as u64 + 1;
        after_report.spans.push(SpanRecord {
            id: after_report.spans.len() as u64 + 1,
            parent: parent_id,
            name: "inserted",
            thread: 3,
            start_ns: start,
            end_ns: start.saturating_add(dur),
            args: vec![],
        });
        let after = Analysis::from_report(&after_report).expect("analyzes");
        let p_before = before.critical_path();
        let p_after = after.critical_path();
        // Walk the shared prefix; at the first divergence the new pick
        // must be at least as heavy as the old one.
        let mut diverged = false;
        for (b, a) in p_before.iter().zip(p_after.iter()) {
            if b.name == a.name && b.start_s == a.start_s && b.wall_s == a.wall_s {
                continue;
            }
            diverged = true;
            prop_assert!(
                a.wall_s >= b.wall_s,
                "divergence replaced wall {} with lighter {}",
                b.wall_s,
                a.wall_s
            );
            break;
        }
        if !diverged {
            // One path is a prefix of the other: only the new span can
            // extend it (insertion never removes path steps).
            prop_assert!(p_after.len() >= p_before.len());
        }
    }

    /// A report diffed against itself is empty at every tolerance —
    /// including zero — for spans and metrics alike.
    #[test]
    fn diff_against_self_is_empty_at_any_tolerance(
        raw in raw_spans(),
        root_dur in 0u64..10_000_000_000,
        rel in 0.0f64..10.0,
        abs in 0.0f64..10.0,
        metric_rel in 0.0f64..10.0,
    ) {
        let a = Analysis::from_report(&report_from(&raw, root_dur)).expect("analyzes");
        let opts = DiffOptions {
            time_rel_tol: rel,
            time_abs_tol_s: abs,
            metric_rel_tol: metric_rel,
        };
        let d = TraceDiff::between(&a, &a, &opts);
        prop_assert!(d.is_empty(), "self-diff produced {:?}", d.entries);
    }
}
