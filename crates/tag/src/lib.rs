//! The CBMA backscatter tag.
//!
//! Models the paper's customized passive tag (§III-A, §VI): a PCB with
//! SPDT switches, four selectable antenna loads, and an FPGA that frames,
//! spreads and OOK-modulates the data. The modules mirror the tag's signal
//! path:
//!
//! * [`crc`] — the CRC-16 that closes every frame,
//! * [`frame`] — the frame format: preamble `10101010`, length byte,
//!   ≤126-byte payload, 2-byte CRC,
//! * [`encoder`] — PN spreading (each data bit becomes one code word;
//!   a `0` sends the complement per footnote 2),
//! * [`modulator`] — OOK chip-envelope generation at the receiver sample
//!   rate (the square-wave subcarrier itself is absorbed into the complex
//!   baseband model, see DESIGN.md),
//! * [`impedance`] — the four antenna loads (3 pF, 1 pF, open, 2 nH
//!   through an HMC190B SPDT) and the reflection-coefficient difference
//!   |ΔΓ| each produces — the paper's power-control actuator,
//! * [`phy`] — the air-interface profile shared by tag and receiver,
//! * [`tag`] — the tag state machine, including ACK bookkeeping for the
//!   power-control loop.
//!
//! # Examples
//!
//! ```
//! use cbma_tag::frame::Frame;
//! use cbma_tag::phy::PhyProfile;
//!
//! let frame = Frame::new(b"hello".to_vec())?;
//! let bits = frame.to_bits(PhyProfile::default().preamble_bits);
//! let decoded = Frame::from_bits(&bits, PhyProfile::default().preamble_bits).unwrap();
//! assert_eq!(decoded.payload(), b"hello");
//! # Ok::<(), cbma_types::CbmaError>(())
//! ```

pub mod crc;
pub mod encoder;
pub mod frame;
pub mod impedance;
pub mod modulator;
pub mod phy;
pub mod tag;

pub use frame::Frame;
pub use impedance::{ImpedanceBank, ImpedanceState};
pub use phy::PhyProfile;
pub use tag::Tag;
