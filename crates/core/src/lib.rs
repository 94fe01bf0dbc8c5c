//! # CBMA: Coded-Backscatter Multiple Access
//!
//! A faithful, fully-software reproduction of *CBMA: Coded-Backscatter
//! Multiple Access* (Mi et al., ICDCS 2019): concurrent multi-tag WiFi
//! backscatter with per-tag PN spreading, correlation-based asynchronous
//! decoding, impedance-switching power control at the passive tag
//! (Algorithm 1), and greedy/annealing node selection.
//!
//! This crate is the facade over the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `cbma-types` | units, geometry, IQ, bits, seeding |
//! | [`dsp`] | `cbma-dsp` | energy detection, correlators, resampling, FFT |
//! | [`codes`] | `cbma-codes` | Gold and 2NC spreading-code families |
//! | [`channel`] | `cbma-channel` | Friis link budget, fading, interference |
//! | [`tag`] | `cbma-tag` | framing, CRC, impedance bank, OOK modulation |
//! | [`rx`] | `cbma-rx` | frame sync, user detection, decoding, ACKs |
//! | [`mac`] | `cbma-mac` | Algorithm 1, node selection, TDMA/FSA baselines |
//! | [`sim`] | `cbma-sim` | end-to-end engine, adaptation, experiments |
//! | [`obs`] | `cbma-obs` | metrics, stage timers, event sinks, JSON snapshots |
//!
//! # Quickstart
//!
//! ```
//! use cbma::prelude::*;
//!
//! // Two tags on the paper's bench: ES at (−50 cm, 0), RX at (50 cm, 0).
//! let scenario = Scenario::paper_default(vec![
//!     Point::new(0.0, 0.40),
//!     Point::new(0.0, -0.40),
//! ]);
//! let mut engine = Engine::new(scenario)?;
//! let stats = engine.run_rounds(20);
//! println!(
//!     "FER {:.2}%, aggregate modulated rate {}",
//!     stats.fer() * 100.0,
//!     stats.aggregate_symbol_rate(&PhyProfile::paper_default()),
//! );
//! assert!(stats.fer() < 0.5);
//! # Ok::<(), cbma_types::CbmaError>(())
//! ```
//!
//! # Closing the loop
//!
//! ```
//! use cbma::prelude::*;
//! use cbma::sim::adaptation::Adapter;
//!
//! let scenario = Scenario::paper_default(vec![
//!     Point::new(0.0, 0.4),
//!     Point::new(0.3, -0.55),
//! ]);
//! let mut engine = Engine::new(scenario)?;
//! let adapter = Adapter::paper_default(8);
//! let report = adapter.run_power_control(&mut engine);
//! println!("power control finished at FER {:.2}%", report.final_fer() * 100.0);
//! # Ok::<(), cbma_types::CbmaError>(())
//! ```

pub use cbma_channel as channel;
pub use cbma_codes as codes;
pub use cbma_dsp as dsp;
pub use cbma_mac as mac;
pub use cbma_obs as obs;
pub use cbma_rx as rx;
pub use cbma_sim as sim;
pub use cbma_tag as tag;
pub use cbma_types as types;

/// One-stop import for applications and examples.
pub mod prelude {
    pub use cbma_sim::prelude::*;
    pub use cbma_types::{Bits, CbmaError, Iq, Result};
}

pub use cbma_sim::{Engine, RoundOutcome, Scenario};
pub use cbma_types::{CbmaError, Result};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Compile-time sanity: the core types are reachable through the
        // facade paths users will write.
        let _ = crate::prelude::Point::new(0.0, 0.0);
        let _ = crate::codes::FamilyKind::Gold { degree: 5 };
        let _ = crate::tag::ImpedanceState::Open;
        let _ = crate::mac::access::TdmaAccess::new(3);
        let _: crate::Result<()> = Ok(());
    }
}
