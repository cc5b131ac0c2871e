//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions. Spans stay in memory and are written as JSON lines
//! when the traced pass ends.
//!
//! A span is *real* when it was timed where it happened (a socket round
//! trip, a fit). It is *replayed* when the same input was pushed through a
//! layer's public call afterwards and the measured duration was laid out
//! inside the parent's interval: the duration is measured, the position is
//! not. Spans inside the program are ROADMAP item B.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replayed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`; when off, `record` and `time` keep
    /// nothing, and callers skip their replays altogether (see `on`).
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether this is the traced pass. End-to-end metrics are measured
    /// with tracing off, so replays — which run extra work — happen only
    /// when this is true.
    pub fn on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        replayed: bool,
    ) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            replayed,
        });
        id
    }

    /// Record a real span from two instants taken where the work happened.
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(parent, name, start_ns, end_ns.max(start_ns), false)
    }

    /// Time `f` as a real span.
    pub fn time<R>(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(parent, name, start, Instant::now());
        (out, id)
    }

    /// Time `f` now and lay the measured duration out as a replayed child
    /// of `parent`, after the children `parent` already has.
    pub fn replay<R>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let out = f();
        let duration_ns = start.elapsed().as_nanos() as u64;
        (out, self.lay_out(parent, name, duration_ns))
    }

    /// Lay a measured duration out as a replayed child of `parent`, end to
    /// end after the children `parent` already has.
    pub fn lay_out(&mut self, parent: SpanId, name: &'static str, duration_ns: u64) -> SpanId {
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.push(Some(parent), name, start_ns, start_ns + duration_ns, true)
    }

    /// A span's duration minus the part of its interval its children cover.
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self_time((span.start_ns, span.end_ns), &children)
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self times, in nanoseconds, of every span called `name`.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.self_time_ns(s.id) as f64)
            .collect()
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.replayed
            )?;
        }
        out.flush()
    }
}

/// Length of `parent` not covered by the union of `children`, each clipped
/// to `parent` — nested and overlapping children are counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (parent.1 - parent.0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((100, 350), &[]), 250);
    }

    #[test]
    fn nested_and_overlapping_children_count_once() {
        // [10,40] holds [20,30] (nested); [35,60] overlaps it; [80,90] apart.
        let children = [(10, 40), (20, 30), (35, 60), (80, 90)];
        assert_eq!(self_time((0, 100), &children), 100 - 50 - 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200), (300, 400)]), 30);
        assert_eq!(self_time((50, 100), &[(0, 500)]), 0);
    }

    #[test]
    fn replayed_children_line_up_end_to_end_inside_the_parent() {
        let mut t = Tracer::new(true);
        let root = t.push(None, "root", 1_000, 2_000, false);
        let a = t.lay_out(root, "a", 300);
        let b = t.lay_out(root, "b", 200);
        let nested = t.lay_out(a, "a.inner", 100);
        assert_eq!((t.spans[a].start_ns, t.spans[a].end_ns), (1_000, 1_300));
        assert_eq!((t.spans[b].start_ns, t.spans[b].end_ns), (1_300, 1_500));
        assert_eq!(
            (t.spans[nested].start_ns, t.spans[nested].end_ns),
            (1_000, 1_100)
        );
        assert!(t.spans[b].replayed && !t.spans[root].replayed);
        assert_eq!(t.self_time_ns(root), 500);
        assert_eq!(t.self_time_ns(a), 200);
        assert_eq!(t.durations_ns("b"), vec![200.0]);
        assert_eq!(t.self_times_ns("root"), vec![500.0]);
    }

    #[test]
    fn replayed_children_longer_than_the_parent_leave_no_negative_self_time() {
        let mut t = Tracer::new(true);
        let root = t.push(None, "root", 0, 100, false);
        t.lay_out(root, "slow", 250);
        assert_eq!(t.self_time_ns(root), 0);
    }
}
