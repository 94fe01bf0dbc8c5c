//! On/Off-keying chip modulation.
//!
//! §V-A: to transmit a coded `1` the tag enables the Δf square wave for
//! one symbol period (the antenna toggles → energy appears at f_c ± Δf);
//! for a `0` it "keeps silent and does nothing". After the receiver tunes
//! to f_c − Δf, the complex-baseband image of that behaviour is simply an
//! envelope that is 1 during reflecting chips and 0 during absorbing ones
//! (the square wave's first-harmonic factor 4/π is folded into the link's
//! α, see DESIGN.md). This module produces that envelope at the receiver
//! sample rate.

use cbma_codes::PnCode;
use cbma_dsp::resample::upsample_repeat;
use cbma_types::Bits;

/// Expands a chip sequence to its OOK envelope: chip `1` → `samples_per_chip`
/// ones, chip `0` → zeros.
///
/// # Panics
///
/// Panics if `samples_per_chip` is zero.
pub fn ook_envelope(chips: &Bits, samples_per_chip: usize) -> Vec<f64> {
    assert!(samples_per_chip > 0, "need at least one sample per chip");
    let per_chip: Vec<f64> = chips.iter().map(f64::from).collect();
    upsample_repeat(&per_chip, samples_per_chip)
}

/// The OOK envelope of `data` spread by `code`, built from the two
/// code-word waveforms: for each data bit, the code word (bit 1) or its
/// complement (bit 0) at sample rate, `code.len() × samples_per_chip`
/// samples of 0.0/1.0.
///
/// Equal to `ook_envelope(&spread(data, code), samples_per_chip)` sample
/// for sample, without the chip sequence, the per-bit complement or the
/// per-chip buffer in between. The tag's transmit path and SIC's
/// reconstruction both build their envelopes here.
///
/// # Panics
///
/// Panics if `samples_per_chip` is zero.
pub fn spread_envelope(data: &Bits, code: &PnCode, samples_per_chip: usize) -> Vec<f64> {
    let mut out = Vec::new();
    spread_envelope_into(data, code, samples_per_chip, &mut out);
    out
}

/// [`spread_envelope`] into a caller-owned buffer: `out` is cleared and
/// refilled, keeping its capacity, so a caller that spreads a frame every
/// round reuses one buffer instead of allocating the envelope each time.
///
/// # Panics
///
/// Panics if `samples_per_chip` is zero.
pub fn spread_envelope_into(
    data: &Bits,
    code: &PnCode,
    samples_per_chip: usize,
    out: &mut Vec<f64>,
) {
    assert!(samples_per_chip > 0, "need at least one sample per chip");
    let word = code.len() * samples_per_chip;
    // The code word for a 1, then its complement for a 0.
    let mut words = Vec::with_capacity(2 * word);
    for complement in [0, 1] {
        for chip in code.bits().iter() {
            let level = f64::from(chip ^ complement);
            words.extend(std::iter::repeat_n(level, samples_per_chip));
        }
    }
    let (one, zero) = words.split_at(word);
    out.clear();
    out.reserve(data.len() * word);
    for bit in data.iter() {
        out.extend_from_slice(if bit == 1 { one } else { zero });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_expands_chips() {
        let chips = Bits::from_str("101").unwrap();
        let env = ook_envelope(&chips, 3);
        assert_eq!(env, vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn single_sample_per_chip() {
        let chips = Bits::from_str("0110").unwrap();
        assert_eq!(ook_envelope(&chips, 1), vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn empty_chips_yield_empty_envelope() {
        assert!(ook_envelope(&Bits::new(), 4).is_empty());
    }

    #[test]
    fn envelope_is_binary() {
        let chips = Bits::from_str("1001101").unwrap();
        assert!(ook_envelope(&chips, 5)
            .iter()
            .all(|&s| s == 0.0 || s == 1.0));
    }

    #[test]
    fn spread_envelope_equals_the_chip_path() {
        use crate::encoder::spread;
        use cbma_codes::{CodeFamily, GoldFamily, TwoNcFamily};
        let data = Bits::from_str("1011001110001011").unwrap();
        let codes = [
            GoldFamily::new(5).unwrap().code(3).unwrap(),
            TwoNcFamily::new(10).unwrap().code(7).unwrap(),
            PnCode::new(0, Bits::from_str("01001").unwrap()),
        ];
        for code in &codes {
            for spc in [1, 3, 8] {
                let expected = ook_envelope(&spread(&data, code), spc);
                assert_eq!(
                    spread_envelope(&data, code, spc),
                    expected,
                    "code {} spc {spc}",
                    code.index()
                );
                // A reused buffer: longer than needed and full of NaN.
                let mut reused = vec![f64::NAN; expected.len() + 100];
                spread_envelope_into(&data, code, spc, &mut reused);
                assert_eq!(reused, expected, "code {} spc {spc}", code.index());
            }
            assert!(spread_envelope(&Bits::new(), code, 8).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_oversampling_panics() {
        ook_envelope(&Bits::from_str("1").unwrap(), 0);
    }
}
