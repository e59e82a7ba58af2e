//! The traced run's span recorder.
//!
//! A span is opened *in the benchmark's own code* around one call into a
//! library's public function, with the device-counter and CPU-time deltas of
//! the same interval attached as counts.  Spans stay in memory and are
//! written as JSON lines when the run ends.  An untraced run constructs no
//! recorder: end-to-end metrics never pay for tracing.

use std::fmt::Write as _;
use std::time::Instant;

use pdm::SharedDevice;

use crate::measure::{Window, WindowEnd};

pub type SpanId = u32;

pub struct Span {
    pub id: SpanId,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Shared by all spans of one request (a rep, a pass, a get, a round).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans on this (the load-generating) thread, innermost last.
    open: Vec<SpanId>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.  With a device, its transfer deltas (`reads`, `writes`,
    /// `parallel_ios`) and the process's `cpu_s` are attached.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        request: u64,
        device: Option<&SharedDevice>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, SpanId) {
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: 0,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        let window = Window::open(device);
        self.spans[id as usize].start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        let WindowEnd { cpu_s, io, .. } = window.close();
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.counts.push(("cpu_s", cpu_s));
        if let Some(io) = io {
            span.counts.push(("reads", io.reads() as f64));
            span.counts.push(("writes", io.writes() as f64));
            span.counts
                .push(("parallel_ios", io.parallel_time() as f64));
        }
        (out, id)
    }

    /// A span cheap enough for per-request use: no `/proc` read, no device
    /// snapshot, just two clock reads around `f`.
    pub fn light<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, request, start, end);
        out
    }

    /// Record a span whose ends were observed elsewhere (a request that
    /// completes on another thread), child of the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request,
            name,
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            counts: Vec::new(),
        });
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id as usize]
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in seconds of every span called `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::seconds).collect()
    }

    /// A span's duration minus the part of it its children cover.  Children
    /// recorded from other threads may overlap each other, so the covered
    /// part is the union of their intervals clipped to the parent.
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        let parent = self.span(id);
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, parent.start_ns);
        for (start, end) in kids {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        (parent.end_ns - parent.start_ns - covered) as f64 / 1e9
    }

    /// One JSON object per span, one per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}",
                s.id,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                (self.self_seconds(s.id) * 1e9).round() as u64
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "t",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    fn recorder(spans: Vec<Span>) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let r = recorder(vec![
            span(0, None, 0, 1_000),
            span(1, Some(0), 100, 300),
            // Overlaps span 1 by 100 ns and span 3 not at all.
            span(2, Some(0), 200, 500),
            span(3, Some(0), 700, 800),
            // A grandchild is its parent's business, not the root's.
            span(4, Some(3), 710, 790),
            // Sticks out past the parent: clipped.
            span(5, Some(0), 950, 1_200),
        ]);
        // Covered: [100,500) ∪ [700,800) ∪ [950,1000) = 400 + 100 + 50.
        assert!((r.self_seconds(0) - 450e-9).abs() < 1e-15);
        assert!((r.self_seconds(3) - 20e-9).abs() < 1e-15);
        assert!((r.self_seconds(4) - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn scopes_nest_and_carry_counts() {
        let dev = crate::device::ram_array(64) as SharedDevice;
        let mut r = Recorder::new();
        let (inner_id, outer_id) = r.scope("outer", 7, None, |r| {
            let (_, inner) = r.scope("inner", 7, Some(&dev), |_| {
                let id = dev.allocate().unwrap();
                dev.write_block(id, &[1u8; 64]).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            });
            inner
        });
        let (outer, inner) = (r.span(outer_id), r.span(inner_id));
        assert_eq!(inner.parent, Some(outer_id));
        assert_eq!(outer.parent, None);
        assert_eq!((inner.count("writes"), inner.count("reads")), (1.0, 0.0));
        assert!(inner.seconds() >= 0.002 && outer.seconds() >= inner.seconds());
        assert!(r.self_seconds(outer_id) < outer.seconds());
        let lines = r.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\": \"inner\"") && lines.contains("\"parent\": 0"));
    }
}
