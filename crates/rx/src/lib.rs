//! The CBMA receiver.
//!
//! Implements the receiving process of §III-B on the simulated IQ stream:
//!
//! 1. **Frame synchronization** ([`frame_sync`]) — sliding-window energy
//!    detection with a moving-average floor estimate and a +3 dB
//!    comparator threshold,
//! 2. **User detection** ([`user_detect`]) — cross-correlation of every
//!    known PN code's spread preamble against the received frame head;
//!    codes whose correlation clears a threshold are declared present,
//! 3. **Decoding** ([`decoder`]) — per-bit correlation against the
//!    detected user's code, with the channel phase estimated from the
//!    preamble so the complement-signalling decision reduces to a sign
//!    test ("if the correlation with the PN sequence representing '1' is
//!    higher than that with the PN sequence representing '0', the chip is
//!    decoded to '1'"),
//! 4. **Acknowledgement** ([`ack`]) — the broadcast ACK listing the
//!    successfully decoded tag ids, which drives the tags' power control.
//!
//! [`receiver`] chains the four stages behind one call on one whole
//! capture. [`runtime`] serves many capture streams at once: it moves
//! every whole capture, uncopied, through one shared capture queue to a
//! worker pool that makes that same call, so its decisions are the
//! monolithic receiver's by construction.
//!
//! # Examples
//!
//! See [`receiver::Receiver`] for an end-to-end decode example and
//! [`runtime::RxFlowgraph`] for the streaming form.

pub mod ack;
pub mod decoder;
pub mod frame_sync;
pub mod receiver;
pub mod runtime;
pub mod sic;
pub mod user_detect;

pub use ack::AckMessage;
pub use decoder::{DecodeOutcome, Decoder, DecoderKind};
pub use frame_sync::FrameSync;
pub use receiver::{Receiver, ReceiverConfig, RxReport, RxScratch, RxTelemetry};
pub use runtime::{
    CaptureSource, FlowgraphError, RunOutput, RunStats, RuntimeConfig, RxFlowgraph, SampleSource,
    Scheduler, StreamResult,
};
pub use user_detect::{DetectScratch, DetectedUser, UserDetector};
