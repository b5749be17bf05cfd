//! The benchmark's own spans: `{name, start_ns, end_ns, parent,
//! request}` recorded around each call into a layer, kept in memory
//! and written out when the traced pass ends. Only the traced pass
//! uses this module; end-to-end numbers never come from it.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed (or still open) span. `parent` indexes the tracer's
/// span list; spans of one request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl SpanId {
    /// Position of the span in [`Tracer::spans`].
    pub fn index(self) -> usize {
        self.0
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    /// Human-readable label per request id, for whoever reads the file.
    labels: BTreeMap<u64, String>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            labels: BTreeMap::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request: spans entered from now on carry `id`.
    pub fn begin_request(&mut self, id: u64, label: String) {
        self.request = id;
        self.labels.insert(id, label);
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanId(id)
    }

    /// Close `id`. Spans close innermost-first; closing out of order
    /// is a bug in the benchmark itself.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0].end_ns = end;
        self.spans[id.0].dur_ns()
    }

    /// Time one leaf call as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Attach a span measured elsewhere (the program's own phase spans,
    /// re-based onto this tracer's clock) under `parent`. Among the
    /// spans already attached under `parent` the smallest one that
    /// contains the new interval becomes its parent, so a program's
    /// nested phases (route inside map) keep their nesting as long as
    /// outer spans are added first.
    pub fn attach(&mut self, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) {
        let mut best = parent.0;
        for (i, s) in self.spans.iter().enumerate().skip(parent.0 + 1) {
            let under_parent = self.is_descendant(i, parent.0);
            let contains = s.start_ns <= start_ns && end_ns <= s.end_ns;
            if under_parent && contains && s.dur_ns() <= self.spans[best].dur_ns() {
                best = i;
            }
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(best),
            request: self.spans[parent.0].request,
        });
    }

    fn is_descendant(&self, mut i: usize, ancestor: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == ancestor {
                return true;
            }
            i = p;
        }
        false
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Per-name totals: `(count, total_ns, self_ns)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// The trace file: every span of the first `max_requests` requests
    /// (the file stays readable), plus the per-name summary over all.
    pub fn to_json(&self, workload: &str, seed: u64, max_requests: usize) -> Value {
        let keep: Vec<u64> = self.labels.keys().copied().take(max_requests).collect();
        let last = keep.last().copied().unwrap_or(0);
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.request <= last)
            .map(|(i, s)| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(i as u64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("request".into(), Value::UInt(s.request)),
                ])
            })
            .collect();
        let requests: Vec<Value> = keep
            .iter()
            .map(|id| {
                Value::Object(vec![
                    ("request".into(), Value::UInt(*id)),
                    ("label".into(), Value::Str(self.labels[id].clone())),
                ])
            })
            .collect();
        let summary: Vec<Value> = self
            .summary()
            .into_iter()
            .map(|(name, (count, total, own))| {
                Value::Object(vec![
                    ("name".into(), Value::Str(name.into())),
                    ("count".into(), Value::UInt(count)),
                    ("total_ns".into(), Value::UInt(total)),
                    ("self_ns".into(), Value::UInt(own)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::UInt(seed)),
            (
                "requests_total".into(),
                Value::UInt(self.labels.len() as u64),
            ),
            ("requests".into(), Value::Array(requests)),
            ("summary".into(), Value::Array(summary)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            // Overlap 120..150 counted once; the second child overhangs
            // the parent's end and is clipped at 200.
            span("x", 110, 150, Some(0)),
            span("y", 120, 160, Some(0)),
            span("z", 190, 260, Some(0)),
            // Entirely outside the parent: covers nothing.
            span("w", 10, 20, Some(0)),
        ];
        // Covered: 110..160 (50) + 190..200 (10) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_times_sum_to_the_root_duration_for_a_proper_tree() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("a", 0, 300, Some(0)),
            span("b", 300, 900, Some(0)),
            span("b1", 350, 500, Some(2)),
            span("b2", 500, 880, Some(2)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn tracer_nests_and_attaches_program_spans_by_containment() {
        let mut t = Tracer::new();
        t.begin_request(7, "demo".into());
        let root = t.enter("request");
        let exec = t.enter("service.execute");
        t.exit(exec);
        t.exit(root);
        // Give the execute span a known interval, then attach the
        // program's phases: map contains route.
        t.spans[exec.0].start_ns = 1_000;
        t.spans[exec.0].end_ns = 9_000;
        t.spans[root.0].start_ns = 0;
        t.spans[root.0].end_ns = 10_000;
        t.attach(exec, "core.map", 2_000, 8_000);
        t.attach(exec, "core.route", 3_000, 4_000);
        t.attach(exec, "core.validate", 8_100, 8_500);
        let by_name = |n: &str| t.spans().iter().position(|s| s.name == n).unwrap();
        assert_eq!(t.spans()[by_name("core.map")].parent, Some(exec.0));
        assert_eq!(
            t.spans()[by_name("core.route")].parent,
            Some(by_name("core.map"))
        );
        assert_eq!(t.spans()[by_name("core.validate")].parent, Some(exec.0));
        assert!(t.spans().iter().all(|s| s.request == 7));
        let sum = t.summary();
        assert_eq!(sum["core.map"], (1, 6_000, 5_000));
        assert_eq!(sum["service.execute"].2, 8_000 - 6_000 - 400);
    }

    #[test]
    fn trace_file_keeps_only_the_first_requests_but_summarises_all() {
        let mut t = Tracer::new();
        for id in 1..=3 {
            t.begin_request(id, format!("r{id}"));
            t.time("layer", || ());
        }
        let v = t.to_json("demo", 1, 2);
        assert_eq!(v.get("spans").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("requests_total").unwrap().as_u64(), Some(3));
        let summary = v.get("summary").unwrap().as_array().unwrap();
        assert_eq!(summary[0].get("count").unwrap().as_u64(), Some(3));
    }
}
