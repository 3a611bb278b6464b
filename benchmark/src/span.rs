//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded around calls into the engine's public functions, kept
//! in memory, and written out when the run ends. A span's self time is its
//! duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Measured pass the span belongs to; warm-up passes are negative.
    pub pass: i64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: i64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Spans recorded from now on belong to `pass`.
    pub fn set_pass(&mut self, pass: i64) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in seconds, summed by span name over the measured passes
    /// (`pass >= 0`).
    pub fn self_seconds_by_name(&self) -> BTreeMap<String, f64> {
        let selfs = self_ns(&self.spans);
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(selfs) {
            if span.pass >= 0 {
                *by_name.entry(span.name.clone()).or_insert(0.0) += ns as f64 / 1e9;
            }
        }
        by_name
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self_ns(&self.spans);
        Json::obj([
            ("workload", Json::str(workload)),
            ("unit", Json::str("ns")),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .zip(selfs)
                        .enumerate()
                        .map(|(id, (s, self_ns))| {
                            Json::obj([
                                ("id", Json::Int(id as i64)),
                                ("name", Json::str(s.name.clone())),
                                ("start", Json::Int(s.start_ns as i64)),
                                ("end", Json::Int(s.end_ns as i64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                                ),
                                ("pass", Json::Int(s.pass)),
                                ("self", Json::Int(self_ns as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span (children that overlap each other are not
/// subtracted twice).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
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
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // root: 100 - (30 + 40); a: 30 - 10; grandchild not charged to root.
        assert_eq!(self_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = vec![
            span("root", 10, 110, None),
            span("x", 20, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            span("late", 100, 150, Some(0)),
        ];
        // union of [20,60] and [40,80] is 60; [100,150] clips to [100,110].
        assert_eq!(self_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_skips_warm_up_in_totals() {
        let mut t = Tracer::new();
        t.set_pass(-1);
        t.span("stmt", |_| ());
        t.set_pass(0);
        t.span("stmt", |t| {
            t.span("parse", |_| ());
            t.span("execute", |t| t.span("kernel", |_| ()));
        });
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, None);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(1));
        assert_eq!(s[4].parent, Some(3));
        assert_eq!(s[0].pass, -1);
        for x in s {
            assert!(x.end_ns >= x.start_ns);
        }
        let totals = t.self_seconds_by_name();
        assert_eq!(
            totals.keys().map(String::as_str).collect::<Vec<_>>(),
            ["execute", "kernel", "parse", "stmt"]
        );
        // Self times of one tree add up to the root's duration.
        let root = (s[1].end_ns - s[1].start_ns) as f64 / 1e9;
        assert!((totals.values().sum::<f64>() - root).abs() < 1e-12);
    }

    #[test]
    fn trace_file_carries_every_field() {
        let mut t = Tracer::new();
        t.span("outer", |t| t.span("inner", |_| ()));
        let j = t.to_json("w");
        let spans = j.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        for key in ["id", "name", "start", "end", "parent", "pass", "self"] {
            assert!(spans[1].get(key).is_some(), "missing {key}");
        }
        assert_eq!(spans[1].get("parent"), Some(&Json::Int(0)));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }
}
