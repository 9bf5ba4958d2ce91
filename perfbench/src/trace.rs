//! Spans around the benchmark's own calls into the program.
//!
//! A [`Tracer`] either records nothing (untraced runs, which give every
//! end-to-end number) or keeps every span in memory: name, start, end,
//! parent and workload. The spans are written out once, when the run ends,
//! and folded into per-name self times (a span's duration minus the time
//! its children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::host;

/// One recorded span, times in host nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    workload: &'static str,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`; when `enabled` is false, [`Tracer::span`]
    /// only calls its closure.
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Tracer {
            workload,
            enabled,
            origin: host::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    fn stamp(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.stamp(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.stamp();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total seconds, self seconds)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            let dur = s.end_ns - s.start_ns;
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += dur.saturating_sub(child) as f64 / 1e9;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{}\"}}",
                s.name, s.start_ns, s.end_ns, self.workload
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new("w", true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            })
        });
        let st = tr.self_times();
        let (n, total, own) = st["outer"];
        assert_eq!(n, 1);
        let inner = st["inner"].1;
        assert!((total - inner - own).abs() < 1e-9);
        assert_eq!(tr.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new("w", false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
