//! Property-based tests for framing, CRC and impedance.

use cbma_tag::crc::crc16;
use cbma_tag::frame::{preamble_pattern, Frame, MAX_PAYLOAD};
use cbma_tag::impedance::{ImpedanceBank, ImpedanceState};
use cbma_tag::modulator::ook_envelope;
use cbma_types::units::Hertz;
use cbma_types::Bits;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frames round-trip for every payload and preamble length.
    #[test]
    fn frame_round_trip(
        payload in proptest::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD),
        preamble in prop_oneof![Just(4usize), Just(8), Just(16), Just(32), Just(64)],
    ) {
        let frame = Frame::new(payload.clone()).unwrap();
        let bits = frame.to_bits(preamble);
        prop_assert_eq!(bits.len(), frame.bit_len(preamble));
        let decoded = Frame::from_bits(&bits, preamble).unwrap();
        prop_assert_eq!(decoded.payload(), payload.as_slice());
    }

    /// CRC-16 changes for any single-bit payload corruption.
    #[test]
    fn crc_detects_any_single_bit_flip(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        byte in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut corrupted = payload.clone();
        let idx = byte % corrupted.len();
        corrupted[idx] ^= 1 << bit;
        prop_assert_ne!(crc16(&payload), crc16(&corrupted));
    }

    /// The OOK envelope is exactly the chips stretched by the sample
    /// factor and contains only zeros and ones.
    #[test]
    fn envelope_matches_chips(
        chips in proptest::collection::vec(0u8..2, 1..128),
        spc in 1usize..12,
    ) {
        let bits = Bits::from_slice(&chips).unwrap();
        let env = ook_envelope(&bits, spc);
        prop_assert_eq!(env.len(), chips.len() * spc);
        for (i, &e) in env.iter().enumerate() {
            prop_assert_eq!(e, f64::from(chips[i / spc]));
        }
    }

    /// Preamble patterns always alternate starting from 1.
    #[test]
    fn preamble_alternates(bits in 1usize..128) {
        let p = preamble_pattern(bits);
        prop_assert_eq!(p.len(), bits);
        for i in 0..bits {
            prop_assert_eq!(p[i], if i % 2 == 0 { 1 } else { 0 });
        }
    }

    /// Reflection coefficients of the impedance bank stay on the unit
    /// circle for any carrier in the UHF–microwave range, and the cyclic
    /// ordering of |ΔΓ| is preserved at 2.4 GHz as well as 2 GHz.
    #[test]
    fn impedance_bank_is_physical(ghz in 0.5f64..6.0) {
        let bank = ImpedanceBank::new(Hertz::from_ghz(ghz));
        for state in ImpedanceState::ALL {
            let gamma = bank.gamma(state);
            prop_assert!((gamma.abs() - 1.0).abs() < 1e-9, "lossless load left the unit circle");
            let dg = bank.delta_gamma(state);
            prop_assert!((0.0..=2.0 + 1e-9).contains(&dg));
        }
    }
}
