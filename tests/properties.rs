//! Property-based integration tests over the public API.

use cbma::codes::FamilyKind;
use cbma::prelude::*;
use cbma::rx::{Receiver, ReceiverConfig};
use cbma::tag::frame::{Frame, FrameError, MAX_PAYLOAD};
use cbma::tag::{PhyProfile, Tag};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any payload a tag can frame survives the complete clean-channel
    /// pipeline: frame → spread → OOK → IQ → sync → detect → decode.
    #[test]
    fn any_payload_round_trips_through_the_air(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        code_index in 0usize..8,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let phy = PhyProfile::paper_default();
        let family = FamilyKind::TwoNc { users: 8 }.build().unwrap();
        let codes = family.codes(8).unwrap();
        let mut tag = Tag::new(code_index as u32, Point::ORIGIN, codes[code_index].clone());
        let envelope = tag.transmit(payload.clone(), &phy).unwrap();

        let gain = Iq::from_polar(0.01, phase);
        let mut iq = vec![Iq::ZERO; 400];
        iq.extend(envelope.iter().map(|&e| gain.scale(e)));
        iq.extend(vec![Iq::ZERO; 64]);

        let mut rx = Receiver::new(codes, phy, ReceiverConfig::default());
        let report = rx.receive(&iq);
        prop_assert!(report.ack.acknowledges(code_index as u32), "{report:?}");
        let frames = report.frames();
        let decoded = frames.iter().find(|(id, _)| *id == code_index).unwrap();
        prop_assert_eq!(decoded.1.payload(), payload.as_slice());
    }

    /// Frames reject any single-bit corruption somewhere in the body.
    #[test]
    fn frames_reject_random_single_bit_corruption(
        payload in proptest::collection::vec(any::<u8>(), 1..32),
        flip in any::<usize>(),
    ) {
        let frame = Frame::new(payload).unwrap();
        let bits = frame.to_bits(8);
        let idx = flip % bits.len();
        let mut raw: Vec<u8> = bits.iter().collect();
        raw[idx] ^= 1;
        let corrupted = Bits::from_slice(&raw).unwrap();
        // Either the structure breaks or the CRC catches it; it must
        // never silently produce a different valid payload.
        if let Ok(decoded) = Frame::from_bits(&corrupted, 8) { prop_assert_eq!(decoded, frame) }
    }

    /// The parser reports the first check a damaged frame breaks, in its
    /// documented order, and ignores bits past the frame's end.
    #[test]
    fn parser_names_the_first_broken_check(
        payload in proptest::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD),
        preamble in prop_oneof![Just(4usize), Just(8), Just(16), Just(32), Just(64)],
        garbage in proptest::collection::vec(0u8..2, 0..40),
        preamble_flip in any::<usize>(),
        length_field in (MAX_PAYLOAD as u8 + 1)..=u8::MAX,
    ) {
        let frame = Frame::new(payload).unwrap();
        let raw: Vec<u8> = frame.to_bits(preamble).iter().collect();
        let parse = |bits: &[u8]| Frame::from_bits(&Bits::from_slice(bits).unwrap(), preamble);

        let mut padded = raw.clone();
        padded.extend(&garbage);
        prop_assert_eq!(parse(&padded), Ok(frame));
        for cut in 0..raw.len() {
            prop_assert_eq!(parse(&raw[..cut]), Err(FrameError::Short), "cut at {}", cut);
        }
        let mut bad = raw.clone();
        bad[preamble_flip % preamble] ^= 1;
        prop_assert_eq!(parse(&bad), Err(FrameError::Preamble));
        let mut bad = raw.clone();
        for (i, bit) in bad[preamble..preamble + 8].iter_mut().enumerate() {
            *bit = (length_field >> (7 - i)) & 1;
        }
        prop_assert_eq!(parse(&bad), Err(FrameError::LengthField));
        // CRC-16 catches every single-bit error in the payload or the CRC.
        for i in preamble + 8..raw.len() {
            let mut bad = raw.clone();
            bad[i] ^= 1;
            prop_assert_eq!(parse(&bad), Err(FrameError::Crc), "bit {} flipped", i);
        }
    }

    /// Scenario seeds fully determine outcomes.
    #[test]
    fn seeded_rounds_are_pure_functions(seed in any::<u64>()) {
        let run = |s: u64| {
            let scenario = Scenario::paper_default(vec![
                Point::new(0.0, 0.4),
                Point::new(0.0, -0.45),
            ])
            .with_seed(s);
            let mut engine = Engine::new(scenario).unwrap();
            engine.run_round().delivered
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Every family code assignment spreads and despreads losslessly.
    #[test]
    fn spreading_is_invertible(
        data in proptest::collection::vec(0u8..2, 1..64),
        idx in 0usize..10,
        gold in any::<bool>(),
    ) {
        let family = if gold {
            FamilyKind::Gold { degree: 5 }.build().unwrap()
        } else {
            FamilyKind::TwoNc { users: 10 }.build().unwrap()
        };
        let code = family.code(idx).unwrap();
        let bits = Bits::from_slice(&data).unwrap();
        let chips = cbma::tag::encoder::spread(&bits, &code);
        let back = cbma::tag::encoder::despread_exact(&chips, &code);
        prop_assert_eq!(back, bits);
    }
}

#[test]
fn corrupted_single_bit_never_passes_as_different_payload() {
    // Deterministic spot-check of the property above at the frame edges.
    let frame = Frame::new(vec![0xFF; 8]).unwrap();
    let bits = frame.to_bits(8);
    for idx in [8usize, 15, 16, bits.len() - 17, bits.len() - 1] {
        let mut raw: Vec<u8> = bits.iter().collect();
        raw[idx] ^= 1;
        let corrupted = Bits::from_slice(&raw).unwrap();
        assert!(
            Frame::from_bits(&corrupted, 8).is_err(),
            "bit {idx} slipped through"
        );
    }
}
