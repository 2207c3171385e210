//! In-memory spans around the benchmark's calls into the system.
//!
//! Each span records its name, start, end, parent, the thread that
//! opened it, and how many operations it covers (a replay times many
//! calls of one public function under a single span). Spans are kept in
//! memory and written once, as JSON lines, when the run ends; a disabled
//! tracer records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run: the thread index in the high 16 bits.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// `<module>.<what>` of the layer called, or a benchmark phase.
    pub name: &'static str,
    /// Nanoseconds since the run's trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's trace origin.
    pub end_ns: u64,
    /// Operations covered by the span.
    pub count: u64,
    /// Thread index (0 = main, 1.. = clients).
    pub thread: u16,
}

/// Handle of an open span ([`Tracer::begin`] → [`Tracer::end`]).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u16,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder for thread `thread`; records only when `on`.
    pub fn new(on: bool, origin: Instant, thread: u16) -> Self {
        Self {
            on,
            origin,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (open spans still close normally).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let id = (u64::from(self.thread) << 48) | idx as u64;
        let parent = self.stack.last().map(|&p| self.spans[p].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            count: 1,
            thread: self.thread,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, crediting it with `count` operations.
    pub fn end_with(&mut self, open: Open, count: u64) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.count = count;
        if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
            self.stack.truncate(pos);
        }
    }

    /// Closes `open` as one operation.
    pub fn end(&mut self, open: Open) {
        self.end_with(open, 1);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Span durations minus the time their child spans cover, seconds.
    pub self_s: f64,
    /// Spans recorded.
    pub spans: u64,
    /// Operations covered.
    pub ops: u64,
}

/// The layer a span belongs to: the first component of its name for
/// calls into the system (`store.aemb.save` → `store`), and `bench` for
/// the benchmark's own phases (names without a dot).
pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => "bench",
    }
}

/// Self time per span name (children are the spans whose parent is the
/// span; spans of one thread nest, so their durations are disjoint).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.self_s += own as f64 * 1e-9;
        e.spans += 1;
        e.ops += s.count;
    }
    out
}

/// [`self_times`] summed per [`layer_of`].
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (name, t) in self_times(spans) {
        let e = out.entry(layer_of(name)).or_default();
        e.self_s += t.self_s;
        e.spans += t.spans;
        e.ops += t.ops;
    }
    out
}

/// Writes the spans as JSON lines, one object per span:
/// `{"id":..,"parent":..|null,"name":"..","thread":..,"start_ns":..,"end_ns":..,"count":..}`.
///
/// # Errors
/// I/O failures.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.id, s.name, s.thread, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            count: 1,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, "job", 0, 1000),
            span(1, Some(0), "core.pipeline.train", 100, 700),
            span(2, Some(0), "store.aemb.save", 700, 900),
            span(3, Some(2), "store.aemb.fsync", 800, 850),
        ];
        let t = self_times(&spans);
        assert!((t["job"].self_s - 200e-9).abs() < 1e-15);
        assert!((t["store.aemb.save"].self_s - 150e-9).abs() < 1e-15);
        let l = layer_times(&spans);
        assert!((l["store"].self_s - 200e-9).abs() < 1e-15);
        assert_eq!(l["store"].spans, 2);
        assert!((l["bench"].self_s - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let origin = Instant::now();
        let mut off = Tracer::new(false, origin, 0);
        let o = off.begin("job");
        off.end(o);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true, origin, 1);
        let outer = on.begin("job");
        on.time("core.pipeline.train", || ());
        on.end_with(outer, 3);
        let s = on.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(s[0].id));
        assert_eq!(s[0].count, 3);
        assert_eq!(s[0].id >> 48, 1);
        assert_eq!(layer_of("core.pipeline.train"), "core");
        assert_eq!(layer_of("job"), "bench");
    }
}
