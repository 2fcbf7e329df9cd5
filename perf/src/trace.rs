//! The benchmark's own span recorder.
//!
//! Spans are recorded by the benchmark's files around their calls into the
//! layers (spans inside the program are a later change). Each thread that
//! generates load owns one [`Tracer`]; spans go into a preallocated vector
//! and are only summarised or written out after the timed window.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root span; ids start at 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// The operation (request, rep) the span belongs to.
    pub op: u64,
    pub thread: u32,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread recorder. Disabled or paused, `begin`/`end` do nothing and
/// read no clock.
pub struct Tracer {
    enabled: bool,
    paused: bool,
    thread: u32,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, innermost last.
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use = "an opened span must be ended"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder for load-generating thread `thread`, with times relative
    /// to `epoch` (shared by all threads of a run).
    pub fn new(enabled: bool, thread: u32, epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            enabled,
            paused: false,
            thread,
            epoch,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer::new(false, 0, Instant::now(), 0)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// While paused, new spans are not recorded; spans already open can
    /// still be ended. The engine pauses inside its untraced rounds.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &str, op: u64) -> Open {
        if !self.enabled || self.paused {
            return Open(None);
        }
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        let start_ns = self.now();
        self.spans.push(Span {
            id: index as u32 + 1,
            parent,
            op,
            thread: self.thread,
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Ends the span and returns its duration in ns (0 if not recorded).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(index) = open.0 else { return 0 };
        let end_ns = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must nest");
        self.spans[index].end_ns = end_ns;
        self.spans[index].duration_ns()
    }

    /// Records `f` as one span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(layer, name, op);
        let result = f();
        self.end(open);
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span must be ended");
        self.spans
    }
}

/// Self time of every span: its duration minus the time its direct children
/// cover. Ids are only unique per thread, so the key is `(thread, id)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<(u32, u32), u64> {
    let mut own: BTreeMap<(u32, u32), u64> = spans
        .iter()
        .map(|s| ((s.thread, s.id), s.duration_ns()))
        .collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(parent) = own.get_mut(&(s.thread, s.parent)) {
            *parent = parent.saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_layer = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_insert(0) += own[&(s.thread, s.id)];
    }
    by_layer
}

/// Self times (ns) of all spans called `layer`/`name`.
pub fn self_times_of(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    let own = self_times(spans);
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| own[&(s.thread, s.id)] as f64)
        .collect()
}

/// Share of thread `thread`'s window — first root start to last root end —
/// that its root spans cover.
pub fn root_coverage(spans: &[Span], thread: u32) -> f64 {
    let roots: Vec<&Span> = spans
        .iter()
        .filter(|s| s.thread == thread && s.parent == 0)
        .collect();
    let (Some(first), Some(last)) = (
        roots.iter().map(|s| s.start_ns).min(),
        roots.iter().map(|s| s.end_ns).max(),
    ) else {
        return 0.0;
    };
    if last == first {
        return 1.0;
    }
    let covered: u64 = roots.iter().map(|s| s.duration_ns()).sum();
    covered as f64 / (last - first) as f64
}

/// Writes the spans as JSON lines, one object per span.
pub fn write_spans(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"thread\":{},\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.thread, s.id, s.parent, s.op, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            thread: 0,
            layer,
            name: layer.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(1, 0, "serve", 0, 100),
            span(2, 1, "proto", 10, 30),
            span(3, 1, "wait", 30, 90),
            span(4, 3, "obs", 40, 50),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&(0, 1)], 100 - 20 - 60);
        assert_eq!(own[&(0, 2)], 20);
        assert_eq!(own[&(0, 3)], 60 - 10);
        assert_eq!(own[&(0, 4)], 10);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(
            by_layer.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn tracer_nests_and_names_parents() {
        let mut t = Tracer::new(true, 3, Instant::now(), 8);
        let root = t.begin("bench", "round", 7);
        t.span("suite", "bw", 7, || std::hint::black_box(1 + 1));
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (0, spans[0].id));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.thread == 3 && s.op == 7));
        assert!(root_coverage(&spans, 3) >= 0.999);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let v = t.span("suite", "bw", 0, || 5);
        assert_eq!(v, 5);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn coverage_counts_gaps_between_roots() {
        let spans = [span(1, 0, "a", 0, 40), span(2, 0, "a", 60, 100)];
        assert!((root_coverage(&spans, 0) - 0.8).abs() < 1e-12);
        assert_eq!(root_coverage(&spans, 9), 0.0);
    }
}
