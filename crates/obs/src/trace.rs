//! Hierarchical span tracing with Chrome trace-event export.
//!
//! A [`Tracer`] records **span trees**: each span has a name, a parent, a
//! trace id grouping one capture's spans together, and a `[start, start +
//! duration)` window measured against the tracer's monotonic epoch. The
//! receiver opens a `capture` root span per processed buffer, one child
//! span per pipeline stage (`frame_sync`, `user_detect`, `decode`, `sic`)
//! and kernel-level grandchildren (per-code `correlate` spans, shared-FFT
//! `fft_block` spans), so a single capture renders as a flame graph.
//!
//! Storage is a **bounded ring**: slot claims are a single lock-free
//! `fetch_add` on an atomic cursor (wrapping modulo capacity), so writers
//! never contend on a shared lock; each claimed slot is then published
//! under its own tiny per-slot mutex (held only for the record copy).
//! When the ring wraps, the oldest spans are overwritten — a long
//! instrumented campaign keeps the most recent history and
//! [`Tracer::dropped`] counts what was evicted.
//!
//! [`Tracer::chrome_trace`] exports the buffer in the Chrome trace-event
//! format (an object with a `traceEvents` array of `"ph": "X"` complete
//! events, timestamps in microseconds), which opens directly in Perfetto
//! or `chrome://tracing`.
//!
//! Cost model: like the metric handles, tracing is strictly opt-in. The
//! receiver and engine hold `Option<Tracer>` — `None` (the default) costs
//! one branch per stage and nothing else.
//!
//! # Examples
//!
//! ```
//! use cbma_obs::trace::Tracer;
//!
//! let tracer = Tracer::new(64);
//! let trace = tracer.new_trace();
//! let capture = tracer.span(trace, None, "capture");
//! {
//!     let _stage = tracer.span(trace, Some(capture.id()), "frame_sync");
//! } // recorded on drop
//! capture.finish();
//!
//! let spans = tracer.spans();
//! assert_eq!(spans.len(), 2);
//! let json = tracer.chrome_trace(None);
//! assert!(json.contains("\"traceEvents\""));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::JsonValue;

/// Groups the spans of one capture (or one round) together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw id (always non-zero).
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Identifies one span within a tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw id (always non-zero; `0` marks "no parent" in records).
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// One completed span as stored in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global claim order (monotonic across the whole tracer); export
    /// sorts by this so wrapped rings still render in record order.
    pub seq: u64,
    /// The trace this span belongs to.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id, `0` for a root span.
    pub parent: u64,
    /// Static span name (`capture`, `frame_sync`, `correlate`, …).
    pub name: &'static str,
    /// Optional numeric argument (e.g. the code index of a `correlate`
    /// span or the block index of an `fft_block` span).
    pub arg: Option<u64>,
    /// Start offset from the tracer epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug)]
struct TracerCore {
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    /// Total spans ever claimed; `seq % capacity` is the slot index.
    cursor: AtomicU64,
    slots: Box<[Mutex<Option<SpanRecord>>]>,
}

/// A shared, thread-safe span recorder (cheap to clone: an `Arc`).
#[derive(Debug, Clone)]
pub struct Tracer(Arc<TracerCore>);

impl Tracer {
    /// A tracer whose ring holds the `capacity` most recent spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Tracer {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer(Arc::new(TracerCore {
            epoch: Instant::now(),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            cursor: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }))
    }

    /// Ring capacity in spans.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.0.slots.len()
    }

    /// Nanoseconds since the tracer's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Total spans recorded over the tracer's lifetime (including any the
    /// ring has since evicted).
    pub fn recorded(&self) -> u64 {
        self.0.cursor.load(Ordering::Relaxed)
    }

    /// Spans evicted by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Allocates a fresh trace id (one per capture or round).
    pub fn new_trace(&self) -> TraceId {
        TraceId(self.0.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Opens a span; it records itself when dropped (or via
    /// [`SpanGuard::finish`]). Children reference [`SpanGuard::id`] as
    /// their parent, so the id is live before the span completes.
    pub fn span(&self, trace: TraceId, parent: Option<SpanId>, name: &'static str) -> SpanGuard {
        SpanGuard {
            tracer: self.clone(),
            trace,
            id: SpanId(self.0.next_span.fetch_add(1, Ordering::Relaxed)),
            parent: parent.map_or(0, |p| p.0),
            name,
            arg: None,
            start_ns: self.now_ns(),
            finished: false,
        }
    }

    /// Records a completed span that starts at `start_ns` (tracer-epoch
    /// nanoseconds, as [`Tracer::now_ns`] reads them) and lasts `dur_ns`:
    /// for a stage that runs in pieces between other work, timed piece by
    /// piece and recorded once with the pieces' summed time.
    pub fn record_span(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.push(SpanRecord {
            seq: 0, // assigned at push
            trace: trace.0,
            span: self.0.next_span.fetch_add(1, Ordering::Relaxed),
            parent: parent.map_or(0, |p| p.0),
            name,
            arg: None,
            start_ns,
            dur_ns,
        });
    }

    /// Stores one completed record into the ring. The slot claim is a
    /// lock-free `fetch_add`; only the claimed slot's mutex is touched.
    fn push(&self, mut record: SpanRecord) {
        let seq = self.0.cursor.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        let slot = (seq % self.0.slots.len() as u64) as usize;
        *self.0.slots[slot].lock().expect("tracer slot poisoned") = Some(record);
    }

    /// Every retained span, in record (claim) order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .0
            .slots
            .iter()
            .filter_map(|s| *s.lock().expect("tracer slot poisoned"))
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The retained spans of one trace, in record order.
    pub fn trace_spans(&self, trace: TraceId) -> Vec<SpanRecord> {
        let mut out = self.spans();
        out.retain(|r| r.trace == trace.0);
        out
    }

    /// Empties the ring (ids and the eviction counter keep advancing).
    pub fn clear(&self) {
        for slot in self.0.slots.iter() {
            *slot.lock().expect("tracer slot poisoned") = None;
        }
    }

    /// Exports the retained spans (optionally restricted to one trace) as
    /// a Chrome trace-event JSON document: `{"traceEvents": [...]}` with
    /// `"ph": "X"` complete events, `ts`/`dur` in microseconds, and each
    /// trace on its own `tid` track. Opens directly in Perfetto or
    /// `chrome://tracing`.
    pub fn chrome_trace(&self, trace: Option<TraceId>) -> String {
        let spans = match trace {
            Some(t) => self.trace_spans(t),
            None => self.spans(),
        };
        chrome_trace_events(&spans)
    }
}

/// Serializes span records as a Chrome trace-event JSON document.
pub fn chrome_trace_events(spans: &[SpanRecord]) -> String {
    let events: Vec<JsonValue> = spans
        .iter()
        .map(|r| {
            let mut args = BTreeMap::new();
            args.insert("span".to_string(), JsonValue::UInt(r.span));
            args.insert("parent".to_string(), JsonValue::UInt(r.parent));
            args.insert("trace".to_string(), JsonValue::UInt(r.trace));
            if let Some(arg) = r.arg {
                args.insert("arg".to_string(), JsonValue::UInt(arg));
            }
            let mut o = BTreeMap::new();
            o.insert("name".to_string(), JsonValue::Str(r.name.to_string()));
            o.insert("cat".to_string(), JsonValue::Str("cbma".to_string()));
            o.insert("ph".to_string(), JsonValue::Str("X".to_string()));
            o.insert("ts".to_string(), JsonValue::Float(r.start_ns as f64 / 1e3));
            o.insert("dur".to_string(), JsonValue::Float(r.dur_ns as f64 / 1e3));
            o.insert("pid".to_string(), JsonValue::UInt(1));
            o.insert("tid".to_string(), JsonValue::UInt(r.trace));
            o.insert("args".to_string(), JsonValue::Object(args));
            JsonValue::Object(o)
        })
        .collect();
    let mut root = BTreeMap::new();
    root.insert("traceEvents".to_string(), JsonValue::Array(events));
    root.insert(
        "displayTimeUnit".to_string(),
        JsonValue::Str("ns".to_string()),
    );
    let mut text = JsonValue::Object(root).to_json();
    text.push('\n');
    text
}

/// An open span; records itself into the tracer on drop.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    trace: TraceId,
    id: SpanId,
    parent: u64,
    name: &'static str,
    arg: Option<u64>,
    start_ns: u64,
    finished: bool,
}

impl SpanGuard {
    /// This span's id — pass as the parent of child spans.
    #[inline]
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Attaches a numeric argument (code index, block index, …).
    #[inline]
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = Some(arg);
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let end = self.tracer.now_ns();
        self.tracer.push(SpanRecord {
            seq: 0, // assigned at push
            trace: self.trace.0,
            span: self.id.0,
            parent: self.parent,
            name: self.name,
            arg: self.arg,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_keep_order() {
        let tracer = Tracer::new(16);
        let trace = tracer.new_trace();
        let root = tracer.span(trace, None, "capture");
        let root_id = root.id();
        {
            let _a = tracer.span(trace, Some(root_id), "frame_sync");
        }
        {
            let mut b = tracer.span(trace, Some(root_id), "correlate");
            b.set_arg(3);
        }
        root.finish();

        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "frame_sync");
        assert_eq!(spans[1].name, "correlate");
        assert_eq!(spans[1].arg, Some(3));
        assert_eq!(spans[2].name, "capture");
        assert_eq!(spans[0].parent, spans[2].span);
        assert_eq!(spans[2].parent, 0);
        // The parent covers its children.
        let parent_end = spans[2].start_ns + spans[2].dur_ns;
        for child in &spans[..2] {
            assert!(child.start_ns >= spans[2].start_ns);
            assert!(child.start_ns + child.dur_ns <= parent_end);
        }
    }

    #[test]
    fn recorded_span_keeps_its_times_and_parent() {
        let tracer = Tracer::new(4);
        let trace = tracer.new_trace();
        let root = tracer.span(trace, None, "channel_mix");
        tracer.record_span(trace, Some(root.id()), "tag_transmit", 40, 25);
        let root_id = root.id().get();
        root.finish();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "tag_transmit");
        assert_eq!((spans[0].start_ns, spans[0].dur_ns), (40, 25));
        assert_eq!(spans[0].parent, root_id);
        assert_ne!(spans[0].span, root_id);
    }

    #[test]
    fn ring_keeps_the_most_recent_spans() {
        let tracer = Tracer::new(4);
        let trace = tracer.new_trace();
        for _ in 0..7 {
            tracer.span(trace, None, "s").finish();
        }
        assert_eq!(tracer.recorded(), 7);
        assert_eq!(tracer.dropped(), 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        // Sequences 3..7 survive, in order.
        let seqs: Vec<u64> = spans.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
    }

    #[test]
    fn trace_ids_partition_spans() {
        let tracer = Tracer::new(16);
        let a = tracer.new_trace();
        let b = tracer.new_trace();
        assert_ne!(a, b);
        tracer.span(a, None, "a").finish();
        tracer.span(b, None, "b").finish();
        tracer.span(a, None, "a2").finish();
        assert_eq!(tracer.trace_spans(a).len(), 2);
        assert_eq!(tracer.trace_spans(b).len(), 1);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let tracer = Tracer::new(16);
        let trace = tracer.new_trace();
        let root = tracer.span(trace, None, "capture");
        let mut k = tracer.span(trace, Some(root.id()), "correlate");
        k.set_arg(7);
        k.finish();
        root.finish();

        let text = tracer.chrome_trace(Some(trace));
        let v = JsonValue::parse(&text).expect("chrome trace parses");
        let events = v
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        for e in events {
            let o = e.as_object().unwrap();
            assert_eq!(o.get("ph").and_then(JsonValue::as_str), Some("X"));
            assert!(o.get("ts").and_then(JsonValue::as_f64).is_some());
            assert!(o.get("dur").and_then(JsonValue::as_f64).is_some());
            assert!(o.get("pid").and_then(JsonValue::as_u64).is_some());
            assert!(o.get("tid").and_then(JsonValue::as_u64).is_some());
            assert!(o.get("name").and_then(JsonValue::as_str).is_some());
        }
        assert_eq!(
            events[0]
                .as_object()
                .unwrap()
                .get("args")
                .and_then(JsonValue::as_object)
                .unwrap()
                .get("arg")
                .and_then(JsonValue::as_u64),
            Some(7)
        );
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let tracer = Tracer::new(4);
        let trace = tracer.new_trace();
        tracer.span(trace, None, "s").finish();
        tracer.clear();
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.recorded(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Tracer::new(0);
    }
}
