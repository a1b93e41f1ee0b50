//! Spans recorded from outside the program, around each public call the
//! benchmark makes into a layer, and the self-time accounting over them.
//!
//! A span is `[start, end)` in nanoseconds since the run's start, named for
//! the layer whose call it wraps, with the index of its parent span. One
//! operation's spans form a tree rooted at the operation itself. A span's
//! *self time* is its duration minus the part of its interval covered by its
//! children, so the root's self time is the part of the operation no layer
//! span accounts for (`driver.unattributed_ns`).

use std::collections::BTreeMap;
use std::io::Write;

/// Share of the traced operations' summed latency the spans may leave
/// uncovered (the roots' summed self time) before a traced run counts as
/// incorrect.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The operation (or design query) the span belongs to.
    pub op: u64,
    /// The layer call the span wraps (`"op"` for an operation's root).
    pub name: &'static str,
    /// Index of the parent span within the same operation's span list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run started.
    pub start: u64,
    /// End, nanoseconds since the run started.
    pub end: u64,
}

impl Span {
    /// The span's duration (zero for a span that ends before it starts).
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span in `spans` (one operation's tree): its duration
/// minus the union of its children's intervals clipped to its own interval.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    (0..spans.len())
        .map(|i| {
            let parent = spans[i];
            let mut covered: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            parent.duration() - union
        })
        .collect()
}

/// Per-layer self-time totals over many operations, plus a bounded sample
/// of whole span trees that is written out when the run ends.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Layer name → (summed self time in ns, number of spans).
    pub totals: BTreeMap<&'static str, (u64, u64)>,
    /// The first [`Tracer::SAMPLE_OPS`] operations' spans, verbatim.
    pub sample: Vec<Span>,
    sampled_ops: usize,
}

impl Tracer {
    /// Operations whose full span trees are kept for the trace file.
    pub const SAMPLE_OPS: usize = 256;

    /// Folds one operation's span tree into the totals.
    pub fn record(&mut self, spans: &[Span]) {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            let slot = self.totals.entry(span.name).or_default();
            slot.0 += own;
            slot.1 += 1;
        }
        if self.sampled_ops < Self::SAMPLE_OPS {
            self.sampled_ops += 1;
            self.sample.extend_from_slice(spans);
        }
    }

    /// Adds another tracer's totals and sample into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, (ns, count)) in other.totals {
            let slot = self.totals.entry(name).or_default();
            slot.0 += ns;
            slot.1 += count;
        }
        self.sample.extend(other.sample);
        self.sampled_ops += other.sampled_ops;
    }

    /// Summed self time of `name`'s spans, nanoseconds.
    #[must_use]
    pub fn self_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    /// Number of `name` spans recorded.
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.1)
    }

    /// Mean self time of `name` per span, nanoseconds (0 when none).
    #[must_use]
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.self_ns(name) as f64 / n as f64,
        }
    }

    /// Writes the sampled spans as tab-separated
    /// `op name parent start_ns end_ns` lines.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing `path`.
    pub fn write_sample(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.sample {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, parent, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            op: 1,
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root [0, 100) with children [10, 30) and [40, 70); the second
        // child has a grandchild [50, 60) that must not count against root.
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            span("c", Some(2), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10, 50) and [30, 60) overlap on [30, 50); a third child
        // [90, 140) overhangs the parent's end and counts only up to 100.
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 140),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn tracer_totals_sum_self_times_per_layer() {
        let mut tracer = Tracer::default();
        tracer.record(&[span("op", None, 0, 10), span("a", Some(0), 2, 5)]);
        tracer.record(&[span("op", None, 20, 40), span("a", Some(0), 20, 25)]);
        assert_eq!(tracer.self_ns("op"), 7 + 15);
        assert_eq!(tracer.self_ns("a"), 3 + 5);
        assert_eq!(tracer.count("a"), 2);
        assert!((tracer.mean_ns("a") - 4.0).abs() < 1e-12);
        assert_eq!(tracer.sample.len(), 4);
    }
}
