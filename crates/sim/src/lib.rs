//! End-to-end CBMA simulation: the software testbed.
//!
//! Wires every substrate together — tags (`cbma-tag`), PN codes
//! (`cbma-codes`), the radio channel (`cbma-channel`), the receiver
//! (`cbma-rx`) and the MAC layer (`cbma-mac`) — into the experiment
//! harness that regenerates the paper's evaluation:
//!
//! * [`scenario`] — one declarative description of a deployment (room
//!   geometry, PHY profile, channel impairments, code family, seed),
//! * [`engine`] — runs transmission rounds through the full pipeline:
//!   frame → spread → OOK → Friis/shadowing/fading/asynchrony → mixer →
//!   frame sync → user detection → decode → ACK,
//! * [`adaptation`] — closed-loop power control (Algorithm 1) and node
//!   selection driven by the engine's ACK feedback,
//! * [`stats`] — FER/goodput accounting and empirical CDFs,
//! * [`deployment`] — random tag placement,
//! * [`sweep`] — parallel parameter sweeps for the benches,
//! * [`trace`] — record/replay of per-round outcomes.
//!
//! # Examples
//!
//! ```
//! use cbma_sim::prelude::*;
//!
//! // Two tags near the receiver, paper-default channel.
//! let scenario = Scenario::paper_default(vec![
//!     Point::new(0.0, 0.3),
//!     Point::new(0.2, -0.4),
//! ]);
//! let mut engine = Engine::new(scenario)?;
//! let stats = engine.run_rounds(20);
//! assert!(stats.fer() < 0.5, "most collided frames should decode");
//! # Ok::<(), cbma_types::CbmaError>(())
//! ```

pub mod adaptation;
pub mod deployment;
pub mod engine;
pub mod faults;
pub mod latency;
pub mod scenario;
pub mod stats;
pub mod sweep;
pub mod trace;

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::adaptation::{AdaptationReport, Adapter};
    pub use crate::deployment::random_positions;
    pub use crate::engine::{Engine, RoundOutcome};
    pub use crate::faults::{FaultPlan, MobilityModel};
    pub use crate::latency::LatencyTracker;
    pub use crate::scenario::Scenario;
    pub use crate::stats::{Cdf, RunStats};
    pub use crate::sweep::parallel_sweep;
    pub use cbma_obs::{
        Event, MetricsRegistry, NoopSink, RecordingSink, Sink, Snapshot, StageTimer,
    };
    pub use cbma_channel::{
        BackscatterLink, ClockModel, Excitation, InterferenceModel, MultipathModel, NoiseModel,
        ShadowingModel,
    };
    pub use cbma_codes::FamilyKind;
    pub use cbma_rx::ReceiverConfig;
    pub use cbma_tag::{ImpedanceState, PhyProfile};
    pub use cbma_types::geometry::{Point, Rect};
    pub use cbma_types::units::{Db, Dbm, Hertz, Meters, Seconds};
    pub use cbma_types::SeedSequence;
}

pub use engine::{Engine, RoundOutcome};
pub use scenario::Scenario;
pub use stats::{Cdf, RunStats};
