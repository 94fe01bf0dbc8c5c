//! # cbma-harness — batched campaign runner
//!
//! Reproduces the paper's evaluation as declarative **campaigns**: each
//! table, figure and ablation is a named grid of scenario points ×
//! replicates, run by a bounded work-stealing worker pool with per-job
//! deterministic RNG streams, checkpointed to disk so interrupted
//! campaigns resume, and emitted as a canonical JSON [`CampaignManifest`]
//! that is byte-identical across same-seed runs.
//!
//! ```text
//! cargo run -p cbma-harness -- --tier fast --out manifests/
//! cargo run -p cbma-harness -- --campaign fig11 --campaign fig12
//! cargo run -p cbma-harness -- --list
//! ```
//!
//! The scenario physics live in `cbma_bench::scenarios`; this crate owns
//! the orchestration: grids, seeds, sharding, checkpoints, the manifest
//! format and the printed tables. See EXPERIMENTS.md for the
//! experiment ↔ campaign mapping.

pub mod campaign;
pub mod campaigns;
pub mod checkpoint;
pub mod live;
pub mod manifest;
pub mod runner;
pub mod tier;

pub use campaign::{Campaign, CampaignPoint, JobCtx, PointBuilder};
pub use checkpoint::{CheckpointHeader, CheckpointStore};
pub use live::{LiveAggregator, LiveConfig, LivePublisher, LiveUpdate};
pub use manifest::{CampaignManifest, ManifestError, Measurement, PointResult, SCHEMA_VERSION};
pub use runner::{job_seed, run_campaign, HarnessError, RunnerConfig};
pub use tier::Tier;
