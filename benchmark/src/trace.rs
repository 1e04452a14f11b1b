//! The harness's own span recorder: spans around the calls into each layer,
//! kept in memory while the traced pass runs and accounted afterwards.
//! Nothing here reaches inside the program; spans inside the crates are a
//! later issue.

use std::io::{self, Write};
use std::time::Instant;

use crate::stats::percentile;

/// The layers a traced request passes through, outermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// The whole request as the harness issues it (root span).
    Request,
    /// `KvStore::get`.
    StoreGet,
    /// `KvStore::put`.
    StorePut,
    /// `driver::execute_ops` over one request's ops.
    DriverExec,
    /// The request's closing `Session::safepoint`.
    Safepoint,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Request,
        Layer::StoreGet,
        Layer::StorePut,
        Layer::DriverExec,
        Layer::Safepoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "bench.request",
            Layer::StoreGet => "serve.store.get",
            Layer::StorePut => "serve.store.put",
            Layer::DriverExec => "workloads.driver.exec",
            Layer::Safepoint => "runtime.control.safepoint",
        }
    }
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the pass's origin,
/// which both workers share; `parent` indexes the same worker's span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    pub request_id: u32,
    pub parent: u32,
    pub layer: Layer,
}

/// How `Work::exec` reports the calls it makes: a no-op outside the traced
/// pass, a pair of clock reads and a push inside it.
pub trait Tracer {
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
}

/// Tracing off: the call and nothing else.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn span<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One worker's span list for a traced pass.
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Index of the open request span; child spans name it as their parent.
    open: u32,
}

impl SpanRecorder {
    /// A recorder with room for `capacity` spans. The buffer is written once
    /// up front so the traced pass takes no page faults filling it.
    pub fn new(origin: Instant, capacity: usize) -> SpanRecorder {
        let filler = Span {
            start_ns: u64::MAX,
            end_ns: u64::MAX,
            request_id: u32::MAX,
            parent: NO_PARENT,
            layer: Layer::Safepoint,
        };
        let mut spans = vec![filler; capacity];
        spans.clear();
        SpanRecorder {
            origin,
            spans,
            open: NO_PARENT,
        }
    }

    #[inline(always)]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline(always)]
    pub fn begin_request(&mut self, request_id: u32) {
        self.open = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            start_ns,
            end_ns: start_ns,
            request_id,
            parent: NO_PARENT,
            layer: Layer::Request,
        });
    }

    #[inline(always)]
    pub fn end_request(&mut self) {
        self.spans[self.open as usize].end_ns = self.now_ns();
        self.open = NO_PARENT;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Tracer for SpanRecorder {
    #[inline(always)]
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let request_id = self.spans[self.open as usize].request_id;
        self.spans.push(Span {
            start_ns,
            end_ns,
            request_id,
            parent: self.open,
            layer,
        });
        r
    }
}

/// A request slower than this sat through at least the first park interval
/// of the runtime's backoff ladder (50 µs).
pub const STALL_NS: u64 = 50_000;

/// What one layer cost over a traced pass.
#[derive(Clone, Debug, Default)]
pub struct LayerAccount {
    pub spans: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ (span duration − the part of it its child spans cover).
    pub self_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// The aggregate of a traced pass over both workers.
#[derive(Clone, Debug, Default)]
pub struct TraceAccount {
    /// Indexed by `Layer as usize`.
    pub layers: [LayerAccount; Layer::ALL.len()],
    pub requests: u64,
    /// Requests slower than [`STALL_NS`] and the time spent inside them.
    pub stalls: u64,
    pub stall_ns: u64,
}

impl TraceAccount {
    pub fn layer(&self, l: Layer) -> &LayerAccount {
        &self.layers[l as usize]
    }

    /// Σ layer self times ÷ Σ request time − 1. The two agree exactly when
    /// every child span nests inside its parent; a recorder bug (a child
    /// outliving its request, a span attributed to the wrong parent) shows
    /// as a gap.
    pub fn self_time_gap(&self) -> f64 {
        let selfs: u64 = self.layers.iter().map(|l| l.self_ns).sum();
        let requests = self.layer(Layer::Request).total_ns.max(1);
        selfs as f64 / requests as f64 - 1.0
    }
}

/// Account the spans of every worker of one traced pass.
pub fn account(workers: &[&[Span]]) -> TraceAccount {
    let mut acc = TraceAccount::default();
    let mut durations: [Vec<u32>; Layer::ALL.len()] = Default::default();
    for &spans in workers {
        // Part of each span its children cover, clipped to the span itself.
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                let p = &spans[s.parent as usize];
                let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                covered[s.parent as usize] += hi.saturating_sub(lo);
            }
        }
        for (s, &covered) in spans.iter().zip(&covered) {
            let dur = s.end_ns - s.start_ns;
            let l = &mut acc.layers[s.layer as usize];
            l.spans += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(covered);
            durations[s.layer as usize].push(dur.min(u64::from(u32::MAX)) as u32);
            if s.layer == Layer::Request {
                acc.requests += 1;
                if dur > STALL_NS {
                    acc.stalls += 1;
                    acc.stall_ns += dur;
                }
            }
        }
    }
    for (l, d) in acc.layers.iter_mut().zip(&mut durations) {
        l.p50_ns = percentile(d, 50.0);
        l.p99_ns = percentile(d, 99.0);
    }
    acc
}

/// Spans per worker written to the Chrome-trace file.
pub const CHROME_SPANS_PER_WORKER: usize = 100_000;

/// Write the head of a traced pass in the Chrome trace-event format (load it
/// in `chrome://tracing` or Perfetto): complete events, one track per worker,
/// timestamps in microseconds.
pub fn write_chrome_trace(mut out: impl Write, workers: &[&[Span]]) -> io::Result<()> {
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    for (w, spans) in workers.iter().enumerate() {
        for (i, s) in spans.iter().take(CHROME_SPANS_PER_WORKER).enumerate() {
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{w},\
                 \"args\":{{\"span\":{i},\"request\":{}",
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request_id
            )?;
            if s.parent != NO_PARENT {
                write!(out, ",\"parent\":{}", s.parent)?;
            }
            out.write_all(b"}}")?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, request_id: u32, parent: u32) -> Span {
        Span {
            start_ns,
            end_ns,
            request_id,
            parent,
            layer,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let worker = vec![
            span(Layer::Request, 0, 100, 0, NO_PARENT),
            span(Layer::StoreGet, 10, 60, 0, 0),
            span(Layer::Safepoint, 70, 90, 0, 0),
            span(Layer::Request, 100, 100 + STALL_NS + 1, 1, NO_PARENT),
            span(Layer::StorePut, 110, 150, 1, 3),
        ];
        let acc = account(&[&worker]);
        assert_eq!(acc.requests, 2);
        assert_eq!(acc.layer(Layer::Request).self_ns, 30 + STALL_NS + 1 - 40);
        assert_eq!(acc.layer(Layer::StoreGet).self_ns, 50);
        assert_eq!(acc.layer(Layer::StorePut).total_ns, 40);
        assert_eq!(acc.layer(Layer::Safepoint).spans, 1);
        assert_eq!((acc.stalls, acc.stall_ns), (1, STALL_NS + 1));
        assert!(
            acc.self_time_gap().abs() < 1e-12,
            "nested spans add up exactly"
        );
    }

    #[test]
    fn a_child_outliving_its_request_shows_as_a_gap() {
        let worker = vec![
            span(Layer::Request, 0, 100, 0, NO_PARENT),
            span(Layer::StoreGet, 50, 250, 0, 0),
        ];
        assert!(account(&[&worker]).self_time_gap() > 0.02);
    }

    #[test]
    fn the_recorder_nests_child_spans_under_the_open_request() {
        let mut rec = SpanRecorder::new(Instant::now(), 8);
        rec.begin_request(41);
        assert_eq!(rec.span(Layer::StoreGet, || 7), 7);
        rec.span(Layer::Safepoint, || ());
        rec.end_request();
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].layer, spans[0].parent),
            (Layer::Request, NO_PARENT)
        );
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == 0 && s.request_id == 41));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(account(&[&spans]).self_time_gap().abs() < 1e-12);
    }

    #[test]
    fn the_chrome_trace_is_json_with_one_event_per_span() {
        let worker = vec![
            span(Layer::Request, 1_000, 3_500, 9, NO_PARENT),
            span(Layer::StorePut, 1_200, 3_000, 9, 0),
        ];
        let mut text = Vec::new();
        write_chrome_trace(&mut text, &[&worker, &[]]).unwrap();
        let text = String::from_utf8(text).unwrap();
        let parsed: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = parsed
            .as_map()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .unwrap()
            .1
            .as_seq()
            .unwrap();
        assert_eq!(events.len(), 2);
        assert!(
            text.contains(r#""name":"serve.store.put","ph":"X","ts":1.200,"dur":1.800"#),
            "{text}"
        );
        assert!(text.contains(r#""parent":0"#));
    }
}
