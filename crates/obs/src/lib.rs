//! Pipeline observability for the CBMA stack.
//!
//! The paper's whole evaluation (§VIII, Figs. 8–12) is about *why* frames
//! are lost — detection misses, SIC residue, asynchrony, power imbalance —
//! so the reproduction needs the same visibility: per-stage timing,
//! domain counters, and structured per-round events, without slowing the
//! hot path down when nobody is looking.
//!
//! Three pieces, all std-only (the crate has **zero dependencies by
//! default**):
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and
//!   log₂-bucketed [`Histogram`]s. Handles are `Arc`'d atomics: recording
//!   is lock-free and `&self`, so the receiver can record from its
//!   immutable `receive` path and sweep workers can merge registries at
//!   join via [`Snapshot::merge`].
//! * [`StageTimer`] — a scoped span over a histogram using monotonic
//!   [`std::time::Instant`] timing; records nanoseconds on drop (or
//!   explicitly via [`StageTimer::stop`]).
//! * [`Sink`] — a pluggable structured-event consumer. [`NoopSink`]
//!   reports `enabled() == false`, so instrumented call sites guard with
//!   one virtual call and skip event construction entirely; the hot path
//!   with the no-op sink costs nothing beyond that boolean.
//! * [`Tracer`] — hierarchical span trees (capture → stage → kernel) in a
//!   bounded lock-free ring, exported as Chrome trace-event JSON for
//!   Perfetto/`chrome://tracing` ([`Tracer::chrome_trace`]). Like sinks,
//!   tracing is opt-in: uninstrumented paths pay one `Option` branch.
//!
//! [`MetricsRegistry::snapshot`] freezes everything into a [`Snapshot`]
//! that serializes to JSON ([`Snapshot::to_json`] /
//! [`Snapshot::from_json`]) for the `bench_summary` artifacts and CI
//! diffing. With the `serde` feature the snapshot types additionally
//! derive `Serialize`/`Deserialize`.
//!
//! # Metric naming scheme
//!
//! Dotted lowercase paths, one namespace per layer:
//!
//! * `cbma.rx.*` — receiver pipeline (e.g. `cbma.rx.stage.user_detect_ns`,
//!   `cbma.rx.candidates`, `cbma.rx.sic_recovered`),
//! * `cbma.sim.*` — simulation engine and adaptation (e.g.
//!   `cbma.sim.rounds`, `cbma.sim.frames_delivered`,
//!   `cbma.sim.power_control_steps`).
//!
//! # Examples
//!
//! ```
//! use cbma_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let decoded = registry.counter("cbma.rx.users_decoded");
//! let span_ns = registry.histogram("cbma.rx.stage.decode_ns");
//!
//! decoded.inc();
//! {
//!     let _span = span_ns.time(); // records on drop
//! }
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["cbma.rx.users_decoded"], 1);
//! assert_eq!(snap.histograms["cbma.rx.stage.decode_ns"].count, 1);
//! let json = snap.to_json();
//! assert_eq!(cbma_obs::Snapshot::from_json(&json).unwrap(), snap);
//! ```

pub mod json;
pub mod metrics;
pub mod quantile;
pub mod sink;
pub mod snapshot;
pub mod timer;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use sink::{Event, FieldValue, NoopSink, RecordingSink, Sink};
pub use snapshot::{HistogramSnapshot, Snapshot, SnapshotError};
pub use timer::StageTimer;
pub use trace::{SpanGuard, SpanId, SpanRecord, TraceId, Tracer};
