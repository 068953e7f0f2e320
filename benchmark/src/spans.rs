//! Benchmark-side spans: one per call into a layer, recorded in memory by
//! the benchmark's own thread and written out when the run ends.
//!
//! Spans nest by call structure on a single thread, so siblings never
//! overlap and self times (duration minus children) sum exactly to the
//! root's duration in integer nanoseconds.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one traced run share this identifier.
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Starts a new run: spans recorded from here on share the returned id.
    pub fn next_run(&mut self) -> u32 {
        assert!(self.open.is_empty(), "a run starts between root spans");
        self.run += 1;
        self.run
    }

    /// Records `f` as a span named `name`, a child of the span open on
    /// entry. Returns `f`'s value and the span's duration in seconds.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// A leaf span around one call into a layer.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.scope(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns();
        }
    }
    own
}

/// Total self time per span name within one run, in first-seen order.
pub fn self_seconds_by_name(spans: &[Span], run: u32) -> Vec<(&'static str, f64)> {
    let own = self_times_ns(spans);
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, &ns) in spans.iter().zip(&own) {
        if s.run != run {
            continue;
        }
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += ns,
            None => out.push((s.name, ns)),
        }
    }
    out.into_iter()
        .map(|(n, ns)| (n, ns as f64 * 1e-9))
        .collect()
}

/// The spans as a JSON array (name, run, parent index, start, end, self).
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(&own)
        .map(|(s, own_ns)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "  {{\"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own_ns}}}",
                s.name, s.run, s.start_ns, s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("root", 0, 1_000, None),
            span("a", 100, 400, Some(0)),
            span("a.inner", 150, 250, Some(1)),
            span("b", 400, 990, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![110, 200, 100, 590]);
    }

    #[test]
    fn self_times_telescope_exactly_to_the_root() {
        let mut rec = Recorder::new();
        rec.next_run();
        let burn = |n: u64| (0..n).fold(0u64, |a, i| a.wrapping_mul(31).wrapping_add(i));
        rec.scope("root", |r| {
            r.call("a", || std::hint::black_box(burn(20_000)));
            r.scope("b", |r| {
                r.call("b.1", || std::hint::black_box(burn(10_000)));
                r.call("b.2", || std::hint::black_box(burn(5_000)));
            });
            r.call("a", || std::hint::black_box(burn(1_000)));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[3].parent, Some(2));
        let total: u64 = self_times_ns(spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
        let by_name = self_seconds_by_name(spans, 1);
        let names: Vec<&str> = by_name.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["root", "a", "b", "b.1", "b.2"]);
        assert!(self_seconds_by_name(spans, 2).is_empty());
    }
}
