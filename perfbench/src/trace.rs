//! Spans recorded from outside the program, around calls into its public
//! functions: set-up phases, engine rounds, backend calls, requests and
//! scored episodes. Spans stay in memory and are written out when the run
//! ends.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};

use nora_cim::DriftCompensation;
use nora_nn::TransformerLm;
use nora_serve::{Backend, SlotStep, TileRef};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Outermost layer the span's work enters.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or scored episode) the span serves, if any.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Spans opened with [`Tracer::open`] nest: a new
/// span's parent is the innermost span still open.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open span; returns its index.
    pub fn open(&self, name: &'static str, layer: &'static str, request: Option<u64>) -> usize {
        let start_ns = self.at(Instant::now());
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let id = spans.len() - 1;
        self.open.borrow_mut().push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&self, id: usize) {
        let end_ns = self.at(Instant::now());
        let top = self.open.borrow_mut().pop();
        assert_eq!(top, Some(id), "spans closed out of order");
        self.spans.borrow_mut()[id].end_ns = end_ns;
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(&self, span: Span) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(span);
        spans.len() - 1
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Durations (seconds) of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// Layer tag of request spans: they overlay the engine rounds that served
/// them rather than nest inside one, so they own no time of their own.
pub const REQUEST: &str = "request";

/// Each span's own time: its duration less the time its child spans cover.
/// Children of one span never overlap (the run is single-threaded); request
/// spans are an overlay and own no time.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.layer != REQUEST) {
        if let Some(p) = s.parent {
            child[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| {
            if s.layer == REQUEST {
                0
            } else {
                s.duration_ns().saturating_sub(c)
            }
        })
        .collect()
}

/// Writes spans as JSON lines: name, layer, start, end, parent, request.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.name,
            s.layer,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.request)
        )?;
    }
    out.flush()
}

/// A [`Backend`] that times every call into the one it wraps. With no
/// tracer it only forwards, and it always adds the time spent in
/// maintenance calls to `maintenance`.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Option<Rc<Tracer>>,
    maintenance: Rc<Cell<Duration>>,
}

impl<B: Backend> TracedBackend<B> {
    pub fn new(inner: B, tracer: Option<Rc<Tracer>>, maintenance: Rc<Cell<Duration>>) -> Self {
        Self {
            inner,
            tracer,
            maintenance,
        }
    }

    fn timed<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        maint: bool,
        f: impl FnOnce(&mut B) -> R,
    ) -> R {
        let t = Instant::now();
        let span = self.tracer.as_ref().map(|tr| tr.open(name, layer, None));
        let out = f(&mut self.inner);
        if let (Some(tr), Some(id)) = (&self.tracer, span) {
            tr.close(id);
        }
        if maint {
            self.maintenance.set(self.maintenance.get() + t.elapsed());
        }
        out
    }
}

impl<B: Backend> Backend for TracedBackend<B> {
    fn model(&self) -> &TransformerLm {
        self.inner.model()
    }

    fn run_round(&mut self, steps: &mut [SlotStep<'_>]) {
        self.timed("backend.run_round", "nora-nn", false, |b| {
            b.run_round(steps)
        })
    }

    fn begin_maintenance(&mut self) {
        self.timed("backend.begin_maintenance", "nora-cim", true, |b| {
            b.begin_maintenance()
        })
    }

    fn drift_to(&mut self, now_seconds: f64, compensation: DriftCompensation) {
        self.timed("backend.drift_to", "nora-device", true, |b| {
            b.drift_to(now_seconds, compensation)
        })
    }

    fn recalibrate(&mut self) -> usize {
        self.timed("backend.recalibrate", "nora-cim", true, |b| b.recalibrate())
    }

    fn suspect_tiles(&mut self) -> Vec<TileRef> {
        self.timed("backend.suspect_tiles", "nora-cim", true, |b| {
            b.suspect_tiles()
        })
    }

    fn rotate_tile(&mut self, tile: TileRef, now_seconds: f64) -> bool {
        self.timed("backend.rotate_tile", "nora-device", true, |b| {
            b.rotate_tile(tile, now_seconds)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("step", "nora-serve", 0, 100, None),
            span("round", "nora-nn", 10, 70, Some(0)),
            span("drift", "nora-device", 75, 95, Some(0)),
            span("step", "nora-serve", 100, 130, None),
            span("drain", "bench", 0, 140, None),
            span("request", REQUEST, 5, 120, Some(4)),
        ];
        assert_eq!(self_times_ns(&spans[..4]), vec![20, 60, 20, 30]);
        // The request overlay takes no time from the drain or itself.
        assert_eq!(self_times_ns(&spans)[4..], [140, 0]);
    }

    #[test]
    fn open_spans_nest() {
        let t = Tracer::new();
        let a = t.open("a", "x", None);
        let b = t.open("b", "y", Some(3));
        t.close(b);
        let c = t.open("c", "y", None);
        t.close(c);
        t.close(a);
        let spans = t.spans();
        assert_eq!(spans[b].parent, Some(a));
        assert_eq!(spans[c].parent, Some(a));
        assert_eq!(spans[a].parent, None);
        assert_eq!(spans[b].request, Some(3));
        assert!(spans[a].end_ns >= spans[c].end_ns);
    }
}
