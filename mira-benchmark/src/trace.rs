//! Timing of the calls the benchmark makes into each layer.
//!
//! Workload code wraps every public call it makes in a [`Probe`]. The
//! untraced probe just runs the call, so the measured loop carries no
//! timing code; the [`Tracer`] records each call's duration in a
//! per-call histogram and, where asked, keeps the call as a span. Spans
//! stay in memory and are written once, as Chrome trace-event JSON,
//! when the run ends. Nothing inside the simulator is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::LogHistogram;

/// A public function of one layer, as spans and histograms name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// The layer (repository module) the function belongs to.
    pub layer: &'static str,
    /// The function, as `Type::method`.
    pub name: &'static str,
}

/// `Workload::generate` (the `traffic` layer).
pub const GENERATE: Call = Call { layer: "traffic", name: "Workload::generate" };
/// One cycle's `Network::enqueue_packet` calls, timed as one batch.
pub const ENQUEUE: Call = Call { layer: "network", name: "Network::enqueue_packet" };
/// `Network::step`.
pub const STEP: Call = Call { layer: "network", name: "Network::step" };
/// `Network::drain_ejected`.
pub const DRAIN: Call = Call { layer: "network", name: "Network::drain_ejected" };
/// `Network::new` plus `set_shards` and `Workload::init`.
pub const NET_SETUP: Call = Call { layer: "network", name: "Network::new" };
/// `Simulator::new`.
pub const SIM_NEW: Call = Call { layer: "sim", name: "Simulator::new" };
/// `Simulator::run`.
pub const SIM_RUN: Call = Call { layer: "sim", name: "Simulator::run" };
/// One repetition of a workload's batch (a benchmark-level span).
pub const BATCH: Call = Call { layer: "benchmark", name: "batch" };
/// One simulation point inside a batch (a benchmark-level span).
pub const POINT: Call = Call { layer: "benchmark", name: "point" };

/// How workload code times the calls it makes.
pub trait Probe {
    /// Runs `f`, a call into `call`'s layer; a tracer times it and keeps
    /// it as a span while [`Probe::keep_calls`] is on.
    fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R;

    /// Runs `f` as an always-kept span that encloses the calls made
    /// inside it (a batch, a point or an exhibit). `label` says which.
    fn span<R>(&mut self, call: Call, label: &str, f: impl FnOnce(&mut Self) -> R) -> R;

    /// Whether calls made from now on are kept as spans (their
    /// durations always reach the histograms).
    fn keep_calls(&mut self, on: bool);
}

/// The probe of an untraced run: calls run bare.
#[derive(Debug, Default, Clone, Copy)]
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn time<R>(&mut self, _call: Call, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn span<R>(&mut self, _call: Call, _label: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    #[inline(always)]
    fn keep_calls(&mut self, _on: bool) {}
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub call: Call,
    /// Which batch, point or exhibit (empty for per-cycle calls).
    pub label: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// This span's id (1-based).
    pub id: u64,
    /// The enclosing span's id, 0 at the top level.
    pub parent: u64,
    /// The point the span belongs to: spans of one point share it.
    pub point: u64,
}

/// The probe of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
    point: u64,
    keep: bool,
    hists: BTreeMap<&'static str, LogHistogram>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            point: 0,
            keep: false,
            hists: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one timed call; `id` 0 means "histogram only".
    fn record(
        &mut self,
        call: Call,
        label: &str,
        (start, end): (Instant, Instant),
        id: u64,
        point: u64,
    ) {
        let dur = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        self.hists.entry(call.name).or_default().record(dur);
        if id == 0 {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(0);
        let (start_ns, end_ns) = (self.nanos(start), self.nanos(end));
        self.spans.push(Span {
            call,
            label: label.to_string(),
            start_ns,
            end_ns,
            id,
            parent,
            point,
        });
    }

    /// The per-call duration histogram of `call` (empty if never made).
    pub fn histogram(&self, call: Call) -> LogHistogram {
        self.hists.get(call.name).cloned().unwrap_or_default()
    }

    /// Total time spent in `call`, nanoseconds.
    pub fn total_ns(&self, call: Call) -> u64 {
        self.hists.get(call.name).map_or(0, LogHistogram::sum)
    }

    /// The kept spans, in the order they ended.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the kept spans as Chrome trace-event JSON (`ph: "X"`
    /// slices; `ts`/`dur` in microseconds, `tid` = point, `cat` =
    /// layer, span id and parent id under `args`). Loads in Perfetto
    /// and `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let label = serde_json::to_string(&s.label).expect("strings serialise");
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"label\":{}}}}}",
                s.call.name,
                s.call.layer,
                s.point,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                label,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Probe for Tracer {
    fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        let id = if self.keep {
            self.next_id += 1;
            self.next_id - 1
        } else {
            0
        };
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(call, "", (start, end), id, self.point);
        r
    }

    fn span<R>(&mut self, call: Call, label: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.next_id;
        self.next_id += 1;
        let point = if call == POINT {
            self.point += 1;
            self.point
        } else {
            0
        };
        self.open.push(id);
        let start = Instant::now();
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.record(call, label, (start, end), id, point);
        r
    }

    fn keep_calls(&mut self, on: bool) {
        self.keep = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_their_point() {
        let mut t = Tracer::default();
        t.span(BATCH, "rep 0", |t| {
            t.span(POINT, "2DB @ 0.05", |t| {
                t.time(STEP, || ());
                t.keep_calls(true);
                t.time(STEP, || ());
            });
        });
        assert_eq!(t.histogram(STEP).count(), 2, "every call is timed");
        let spans = t.spans();
        assert_eq!(spans.len(), 3, "only the kept call becomes a span");
        let (step, point, batch) = (&spans[0], &spans[1], &spans[2]);
        assert_eq!(step.parent, point.id);
        assert_eq!(point.parent, batch.id);
        assert_eq!(batch.parent, 0);
        assert_eq!(step.point, point.point);
        let json: serde::Value = serde_json::from_str(&t.to_chrome_json()).expect("valid JSON");
        assert_eq!(json.field("traceEvents").as_array().expect("array").len(), 3);
    }
}
