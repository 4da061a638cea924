//! Spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end on the benchmark clock, the span
//! that caused it and the operation it belongs to. Spans are kept in
//! memory and written out once the run ends. A span's self time is its
//! duration minus the part of it that its child spans cover.

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<SpanId>,
    op: u32,
}

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    ops: u32,
}

impl Tracer {
    /// Open a span now. A span without a parent starts a new operation;
    /// a child belongs to its parent's.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.ops += 1;
                self.ops - 1
            }
        };
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now; returns its duration in ns.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let span = &mut self.spans[id];
        span.end = now_ns();
        span.end - span.start
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(id);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut covered: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(span.start), c.end.min(span.end))
                    })
                    .filter(|(s, e)| s < e)
                    .collect();
                covered.sort_unstable();
                let mut union = 0;
                let mut reach = span.start;
                for (s, e) in covered {
                    if e > reach {
                        union += e - s.max(reach);
                        reach = e;
                    }
                }
                (span.end - span.start) - union
            })
            .collect()
    }

    /// Total self time per span name, in ns.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(span.name).or_insert(0) += own;
        }
        by_name
    }

    /// Tab-separated dump: one span per line, times relative to the
    /// first span.
    pub fn to_tsv(&self) -> String {
        let origin = self.spans.first().map_or(0, |s| s.start);
        let mut out = String::from("span\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                span.op,
                span.name,
                span.start - origin,
                span.end - origin
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Tracer {
            spans: vec![
                span("op", 0, 100, None),
                span("a", 10, 30, Some(0)),
                span("b", 20, 50, Some(0)),
                span("c", 70, 80, Some(0)),
                span("leaf", 12, 14, Some(1)),
            ],
            ops: 1,
        };
        // op: 100 - |[10,50) ∪ [70,80)| = 50; a: 20 - 2.
        assert_eq!(tracer.self_times(), vec![50, 18, 30, 10, 2]);
        assert_eq!(tracer.self_time_by_name()["op"], 50);
    }
}
