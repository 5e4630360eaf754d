//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer, name, start, end, parent span and request
//! id. Spans stay in memory until the run ends; then they are checked
//! (children inside their parent and not overlapping, so each request's
//! self times add up to its wall time), summed into per-layer self time
//! and written as a Chrome trace with one track per layer. With tracing
//! off, [`Tracer::span`] only times its closure.

use cdd_metrics::trace::{TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The layers spans are attributed to (one Chrome trace track each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own client code.
    Bench,
    Instances,
    Core,
    /// cdd-gpu pipelines on the cuda-sim native backend.
    Gpu,
    /// cdd-gpu pipelines on the cuda-sim simulator backend.
    Sim,
    Service,
    Net,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Instances,
        Layer::Core,
        Layer::Gpu,
        Layer::Sim,
        Layer::Service,
        Layer::Net,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Instances => "cdd-instances",
            Layer::Core => "cdd-core",
            Layer::Gpu => "cdd-gpu+native",
            Layer::Sim => "cuda-sim",
            Layer::Service => "cdd-service",
            Layer::Net => "cdd-net",
        }
    }
}

/// A finished span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Parent span id, 0 for a request's root span.
    pub parent: u64,
    pub layer: Layer,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has begun; [`Tracer::end`] closes it.
pub struct Open {
    id: u64,
    parent: u64,
    layer: Layer,
    name: &'static str,
    request: u64,
    start: Instant,
}

impl Open {
    /// The span's id, to pass as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Begin a span under `parent` (0 for a root).
    pub fn begin(&self, layer: Layer, name: &'static str, request: u64, parent: u64) -> Open {
        // Relaxed: the counter only hands out distinct ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent,
            layer,
            name,
            request,
            start: Instant::now(),
        }
    }

    /// Close a span and return its duration; recorded only when tracing.
    pub fn end(&self, open: Open) -> Duration {
        let end = Instant::now();
        if self.on {
            let ns = |t: Instant| {
                u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
            };
            let span = Span {
                id: open.id,
                parent: open.parent,
                layer: open.layer,
                name: open.name,
                request: open.request,
                start_ns: ns(open.start),
                end_ns: ns(end),
            };
            self.spans.lock().expect("span list lock").push(span);
        }
        end - open.start
    }

    /// Run `f` inside a span and return its result and duration.
    pub fn span<T>(
        &self,
        layer: Layer,
        name: &'static str,
        request: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(layer, name, request, parent);
        let out = f();
        (out, self.end(open))
    }

    /// Take the recorded spans, sorted by start.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span list lock"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// What the span tree says about a run.
pub struct SelfTimes {
    /// Self time per layer, nanoseconds, over all requests.
    pub by_layer: BTreeMap<Layer, u64>,
    /// Root spans (requests) checked.
    pub requests: usize,
    /// Spans whose nesting breaks the self-time accounting.
    pub problems: Vec<String>,
}

/// Self time of every span (duration minus its children's), summed per
/// layer. Checks, per request, that children lie inside their parent and
/// do not overlap, and that the request's self times sum to its root
/// span's wall time.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    let mut problems = Vec::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        match by_id.get(&s.parent) {
            Some(p)
                if p.request == s.request && p.start_ns <= s.start_ns && s.end_ns <= p.end_ns =>
            {
                children.entry(s.parent).or_default().push(s);
            }
            _ => problems.push(format!(
                "span {} ({}) lies outside its parent {}",
                s.id, s.name, s.parent
            )),
        }
    }
    let mut by_layer: BTreeMap<Layer, u64> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
    let mut request_self: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        if kids.windows(2).any(|w| w[1].start_ns < w[0].end_ns) {
            problems.push(format!("children of span {} ({}) overlap", s.id, s.name));
        }
        let self_ns = s.dur() - kids.iter().map(|k| k.dur()).sum::<u64>().min(s.dur());
        *by_layer.entry(s.layer).or_default() += self_ns;
        *request_self.entry(root_of(s, &by_id)).or_default() += self_ns;
    }
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
    for root in &roots {
        let sum = request_self.get(&root.id).copied().unwrap_or(0);
        if sum != root.dur() {
            problems.push(format!(
                "request {} self times sum to {sum} ns, wall time is {} ns",
                root.request,
                root.dur()
            ));
        }
    }
    SelfTimes {
        by_layer,
        requests: roots.len(),
        problems,
    }
}

fn root_of<'a>(mut s: &'a Span, by_id: &BTreeMap<u64, &'a Span>) -> u64 {
    while let Some(p) = by_id.get(&s.parent) {
        s = p;
    }
    s.id
}

/// The spans as a Chrome trace, one named track per layer. Past
/// `max_requests` requests, an evenly spaced sample of them (in order of
/// their first span) is kept.
pub fn chrome_trace(spans: &[Span], process: &str, max_requests: usize) -> TraceSink {
    let mut sink = TraceSink::new();
    sink.name_process(0, process);
    for (tid, layer) in Layer::ALL.iter().enumerate() {
        sink.name_track(0, tid as u32, layer.name());
    }
    let mut order: BTreeMap<u64, usize> = BTreeMap::new();
    for s in spans {
        let next = order.len();
        order.entry(s.request).or_insert(next);
    }
    let stride = order.len().div_ceil(max_requests.max(1));
    for s in spans {
        if !order[&s.request].is_multiple_of(stride) {
            continue;
        }
        let tid = Layer::ALL
            .iter()
            .position(|&l| l == s.layer)
            .expect("every layer has a track");
        sink.push(
            TraceEvent::complete(
                s.name,
                s.layer.name(),
                0,
                tid as u32,
                s.start_ns as f64 / 1e3,
                s.dur() as f64 / 1e3,
            )
            .with_arg("request", s.request)
            .with_arg("span", s.id)
            .with_arg("parent", s.parent),
        );
    }
    sink
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "s",
            request: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_sum_to_the_request_wall_time() {
        let spans = [
            span(1, 0, Layer::Bench, 0, 100),
            span(2, 1, Layer::Service, 10, 60),
            span(3, 2, Layer::Gpu, 20, 50),
            span(4, 1, Layer::Core, 70, 90),
        ];
        let st = self_times(&spans);
        assert!(st.problems.is_empty(), "{:?}", st.problems);
        assert_eq!(st.requests, 1);
        assert_eq!(st.by_layer[&Layer::Bench], 30);
        assert_eq!(st.by_layer[&Layer::Service], 20);
        assert_eq!(st.by_layer[&Layer::Gpu], 30);
        assert_eq!(st.by_layer[&Layer::Core], 20);
        assert_eq!(st.by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn escaping_or_overlapping_children_are_reported() {
        let st = self_times(&[
            span(1, 0, Layer::Bench, 0, 100),
            span(2, 1, Layer::Core, 90, 110),
        ]);
        assert!(!st.problems.is_empty());
        let st = self_times(&[
            span(1, 0, Layer::Bench, 0, 100),
            span(2, 1, Layer::Core, 10, 50),
            span(3, 1, Layer::Core, 40, 60),
        ]);
        assert!(st.problems.iter().any(|p| p.contains("overlap")));
    }

    #[test]
    fn spans_are_kept_only_when_tracing() {
        for on in [false, true] {
            let t = Tracer::new(on);
            let root = t.begin(Layer::Bench, "request", 7, 0);
            let (v, _) = t.span(Layer::Core, "work", 7, root.id(), || 41 + 1);
            t.end(root);
            assert_eq!(v, 42);
            let spans = t.finish();
            assert_eq!(spans.len(), if on { 2 } else { 0 });
            let st = self_times(&spans);
            assert!(st.problems.is_empty());
            assert_eq!(
                chrome_trace(&spans, "p", 1).events().len(),
                spans.len() + 1 + Layer::ALL.len()
            );
        }
    }
}
