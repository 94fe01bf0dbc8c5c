//! Property-based tests for the channel models.

use cbma_channel::friis::BackscatterLink;
use cbma_channel::mixer::{Mixer, TagSignal, BLOCK};
use cbma_channel::{
    AdcModel, ClockModel, Excitation, InterferenceModel, MultipathModel, NoiseModel,
};
use cbma_types::geometry::Point;
use cbma_types::units::{Db, Dbm, Hertz};
use cbma_types::Iq;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `Mixer::combine` as a chain of separate stages, one buffer each:
/// rotate, zero-pad to the tag's extent, sparse tap convolution,
/// `fractional_delay`, masked add. The mixer fuses the per-tag stages
/// into one pass; this is the reference it must match bit for bit.
fn staged_combine(mixer: &Mixer, rng: &mut StdRng, signals: &[TagSignal]) -> Vec<Iq> {
    let extent = |sig: &TagSignal| {
        let tap_tail = sig.taps.taps().iter().map(|&(d, _)| d).max().unwrap_or(0);
        sig.delay_samples.ceil() as usize + sig.envelope.len() + tap_tail
    };
    let body = signals.iter().map(extent).max().unwrap_or(0);
    let total = mixer.lead_in + body + mixer.tail;
    let mut buf = mixer.noise.samples(rng, total, mixer.bandwidth);
    for (b, x) in buf.iter_mut().zip(mixer.interference.waveform(rng, total)) {
        *b += x;
    }
    let mask = mixer.excitation.availability_mask(rng, total);
    for sig in signals {
        let step = Iq::phasor(sig.freq_offset_rad_per_sample);
        let mut phasor = Iq::phasor(sig.phase);
        let mut padded: Vec<Iq> = sig
            .envelope
            .iter()
            .map(|&e| {
                let sample = phasor.scale(e * sig.amplitude);
                phasor *= step;
                sample
            })
            .collect();
        padded.resize(extent(sig), Iq::ZERO);
        let mut faded = vec![Iq::ZERO; padded.len()];
        for &(d, g) in sig.taps.taps() {
            for (y, &x) in faded.iter_mut().skip(d).zip(&padded) {
                *y += x * g;
            }
        }
        let delayed = cbma_dsp::fractional_delay(&faded, sig.delay_samples);
        for (k, s) in delayed.into_iter().enumerate() {
            let pos = mixer.lead_in + k;
            buf[pos] += s.scale(mask[pos]);
        }
    }
    buf
}

/// Tag start delays: none, whole samples, fractional, and longer than any
/// short envelope.
fn delay_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        (1usize..64).prop_map(|d| d as f64),
        0.0f64..64.0,
        900.0f64..1400.0,
    ]
}

/// Start delays within a few samples of one and two mixer blocks, so a
/// tag's first sample, and the echo history carried into the next block,
/// fall on either side of a block edge.
fn edge_delay_strategy() -> impl Strategy<Value = f64> {
    let near = |edge: usize| (edge - 6) as f64..(edge + 6) as f64;
    prop_oneof![
        Just(0.0),
        0.0f64..8.0,
        near(BLOCK),
        near(2 * BLOCK),
        (BLOCK - 6..BLOCK + 6).prop_map(|d| d as f64),
    ]
}

/// One tag: an envelope (OOK levels and arbitrary reals) of `len`
/// samples, a phase and beat of either sign, a start delay from `delay`,
/// and 0–4 echo taps up to 4 samples late (echo `t` lands
/// `min(t + 1, spread)` late) realized from a seeded multipath model.
fn tag_with(
    len: std::ops::RangeInclusive<usize>,
    delay: impl Strategy<Value = f64>,
) -> impl Strategy<Value = TagSignal> {
    let level = prop_oneof![Just(0.0), Just(1.0), -1.0f64..1.0];
    (
        (collection::vec(level, len), 1e-6f64..1e-2),
        (-7.0f64..7.0, -0.05f64..0.05, delay),
        (0usize..=4, 1usize..=4, 0.0f64..20.0, any::<u64>()),
    )
        .prop_map(
            |((envelope, amplitude), (phase, beat, delay), (echoes, spread, k, seed))| {
                let model = MultipathModel {
                    k_factor: k,
                    echo_taps: echoes,
                    echo_decay: 0.3,
                    max_echo_delay: spread,
                };
                TagSignal {
                    envelope,
                    amplitude,
                    phase,
                    taps: model.realize(&mut StdRng::seed_from_u64(seed)),
                    delay_samples: delay,
                    freq_offset_rad_per_sample: beat,
                }
            },
        )
}

/// A short tag (0–900 samples, inside one mixer block) or one about three
/// blocks long, whose last block is any length, odd or even.
fn tag_strategy() -> impl Strategy<Value = TagSignal> {
    prop_oneof![
        tag_with(0..=900, delay_strategy()),
        tag_with(3 * BLOCK - 40..=3 * BLOCK + 40, edge_delay_strategy()),
    ]
}

/// A receiver front end: paper noise with tone or OFDM excitation and no,
/// WiFi or Bluetooth interference.
fn mixer_strategy() -> impl Strategy<Value = Mixer> {
    let excitation = prop_oneof![
        Just(Excitation::tone()),
        (0.05f64..1.0, 1usize..300).prop_map(|(duty, burst)| Excitation::ofdm(duty, burst)),
    ];
    let interference = prop_oneof![
        Just(InterferenceModel::none()),
        (-95.0f64..-40.0, 1usize..400)
            .prop_map(|(dbm, burst)| InterferenceModel::wifi(Dbm::new(dbm), burst)),
        (-95.0f64..-40.0, 1usize..400)
            .prop_map(|(dbm, slot)| InterferenceModel::bluetooth(Dbm::new(dbm), slot)),
    ];
    (excitation, interference, 0usize..300, 0usize..80).prop_map(
        |(excitation, interference, lead_in, tail)| Mixer {
            noise: NoiseModel::paper_default(),
            bandwidth: Hertz::from_mhz(8.0),
            excitation,
            interference,
            lead_in,
            tail,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fused mixer reproduces the staged chain exactly: every sample
    /// has the same bits, and both leave the RNG at the same draw. So
    /// does `combine_into` into a capture and a scratch that are longer
    /// than needed and full of NaN, as reused buffers are after a longer
    /// round: no stale sample reaches the capture.
    #[test]
    fn fused_mixer_matches_the_staged_chain_bit_for_bit(
        mixer in mixer_strategy(),
        signals in collection::vec(tag_strategy(), 0..=6),
        seed in any::<u64>(),
        spare in 1usize..512,
    ) {
        let mut staged_rng = StdRng::seed_from_u64(seed);
        let staged = staged_combine(&mixer, &mut staged_rng, &signals);
        let staged_next = staged_rng.gen::<u64>();

        let mut fused_rng = StdRng::seed_from_u64(seed);
        let fused = mixer.combine(&mut fused_rng, &signals);
        let nan = Iq::new(f64::NAN, f64::NAN);
        let mut capture = vec![nan; staged.len() + spare];
        let mut scratch = vec![nan; 2 * (BLOCK + 4) + spare];
        let mut into_rng = StdRng::seed_from_u64(seed);
        mixer.combine_into(&mut into_rng, &signals, &mut capture, &mut scratch);

        let forms = [
            ("combine", &fused, &mut fused_rng),
            ("combine_into", &capture, &mut into_rng),
        ];
        for (form, out, rng) in forms {
            prop_assert_eq!(out.len(), staged.len(), "{} length", form);
            for (k, (a, b)) in out.iter().zip(&staged).enumerate() {
                prop_assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "{} sample {} differs: {:?}, staged {:?}",
                    form,
                    k,
                    a,
                    b
                );
            }
            prop_assert_eq!(rng.gen::<u64>(), staged_next, "{} RNG draw", form);
        }
    }

    /// Tags added to an opened capture a few at a time, as the engine adds
    /// each pair once it has built their envelopes, give the capture one
    /// `combine` gives, bit for bit, and leave the RNG at the same draw.
    #[test]
    fn adding_tags_in_pieces_matches_one_combine(
        mixer in mixer_strategy(),
        signals in collection::vec(tag_strategy(), 0..=7),
        per_add in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let mut whole_rng = StdRng::seed_from_u64(seed);
        let whole = mixer.combine(&mut whole_rng, &signals);

        let body = signals
            .iter()
            .map(|s| s.extent_of(s.envelope.len()))
            .max()
            .unwrap_or(0);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut capture, mut scratch) = (Vec::new(), Vec::new());
        mixer.noise_into(&mut rng, body, &mut capture);
        let mut pass = mixer.begin(&mut rng, &mut capture);
        for piece in signals.chunks(per_add) {
            pass.add(piece, &mut scratch);
        }
        drop(pass);

        prop_assert_eq!(capture.len(), whole.len());
        for (k, (a, b)) in capture.iter().zip(&whole).enumerate() {
            prop_assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "sample {} differs: {:?}, one combine {:?}",
                k,
                a,
                b
            );
        }
        prop_assert_eq!(rng.gen::<u64>(), whole_rng.gen::<u64>(), "RNG draw");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Friis field is monotone in both distances: moving the tag
    /// farther from either radio never increases the received power.
    #[test]
    fn friis_is_monotone_in_distance(
        d1 in 0.05f64..3.0,
        d2 in 0.05f64..3.0,
        grow in 0.01f64..2.0,
    ) {
        let link = BackscatterLink::paper_default();
        let base = link.received_power_at(d1, d2).get();
        prop_assert!(link.received_power_at(d1 + grow, d2).get() <= base + 1e-9);
        prop_assert!(link.received_power_at(d1, d2 + grow).get() <= base + 1e-9);
    }

    /// Reciprocity: swapping d1 and d2 leaves the budget unchanged when
    /// the antenna gains match.
    #[test]
    fn friis_is_reciprocal(d1 in 0.05f64..3.0, d2 in 0.05f64..3.0) {
        let link = BackscatterLink::paper_default();
        let a = link.received_power_at(d1, d2).get();
        let b = link.received_power_at(d2, d1).get();
        prop_assert!((a - b).abs() < 1e-9);
    }

    /// |ΔΓ| scales power by exactly 20·log10(ΔΓ₁/ΔΓ₂) dB.
    #[test]
    fn delta_gamma_is_a_pure_scale(
        g1 in 0.05f64..2.0,
        g2 in 0.05f64..2.0,
    ) {
        let link = BackscatterLink::paper_default();
        let p1 = link.with_delta_gamma(g1).received_power_at(0.5, 1.0).get();
        let p2 = link.with_delta_gamma(g2).received_power_at(0.5, 1.0).get();
        let expected = 20.0 * (g1 / g2).log10();
        prop_assert!((p1 - p2 - expected).abs() < 1e-9);
    }

    /// The mixer is linear in the tag amplitudes (no noise): scaling a
    /// tag's amplitude scales its contribution.
    #[test]
    fn mixer_is_linear_in_amplitude(
        amp in 0.001f64..1.0,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let mixer = Mixer {
            noise: NoiseModel::new(Db::new(0.0), Dbm::new(-300.0)),
            bandwidth: Hertz::new(1.0),
            excitation: Excitation::tone(),
            interference: InterferenceModel::none(),
            lead_in: 4,
            tail: 4,
        };
        let mk = |a: f64| TagSignal {
            envelope: vec![1.0, 0.0, 1.0, 1.0],
            amplitude: a,
            phase,
            taps: cbma_channel::multipath::ChannelTaps::identity(),
            delay_samples: 0.0,
            freq_offset_rad_per_sample: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let one = mixer.combine(&mut rng, &[mk(amp)]);
        let mut rng = StdRng::seed_from_u64(1);
        let two = mixer.combine(&mut rng, &[mk(2.0 * amp)]);
        for (a, b) in one.iter().zip(&two) {
            prop_assert!((b.abs() - 2.0 * a.abs()).abs() < 1e-9 * (1.0 + a.abs()));
        }
    }

    /// Clock delays are always non-negative and bounded by the configured
    /// jitter + drift envelope.
    #[test]
    fn clock_delays_are_bounded(
        fixed in 0.0f64..20.0,
        jitter in 0.0f64..20.0,
        ppm in 0.0f64..100.0,
        frame in 0usize..100_000,
    ) {
        let clock = ClockModel {
            fixed_offset_samples: fixed,
            jitter_samples: jitter,
            drift_ppm: ppm,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..16 {
            let d = clock.frame_delay(&mut rng, frame);
            let bound = fixed + jitter + ppm * 1e-6 * frame as f64 + 1e-9;
            prop_assert!((0.0..=bound).contains(&d), "delay {d} vs bound {bound}");
        }
    }

    /// Fading realizations always carry finite, positive-power main taps.
    #[test]
    fn fading_is_physical(k in 0.0f64..100.0, seed in any::<u64>()) {
        let model = MultipathModel {
            k_factor: k,
            echo_taps: 1,
            echo_decay: 0.05,
            max_echo_delay: 1,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let taps = model.realize(&mut rng);
        prop_assert!(taps.total_power().is_finite());
        prop_assert!(taps.taps()[0].1.power() >= 0.0);
        prop_assert_eq!(taps.taps()[0].0, 0, "main tap must be at delay 0");
    }

    /// Quantization never moves a sample by more than one LSB (with
    /// dithering off) and preserves silence.
    #[test]
    fn adc_error_is_bounded(bits in 2u32..16, seed in any::<u64>()) {
        let adc = AdcModel {
            bits,
            headroom: 1.25,
            dither: false,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let original: Vec<Iq> = (0..256)
            .map(|k| Iq::from_polar(0.8, 0.37 * k as f64))
            .collect();
        let mut q = original.clone();
        adc.quantize(&mut rng, &mut q);
        let lsb = 2.0 * 0.8 * 1.25 / (1u64 << bits) as f64;
        for (a, b) in original.iter().zip(&q) {
            prop_assert!((a.re - b.re).abs() <= lsb + 1e-12);
            prop_assert!((a.im - b.im).abs() <= lsb + 1e-12);
        }
    }

    /// Interference waveforms have exactly the requested length and only
    /// carry power while "active".
    #[test]
    fn interference_length_is_exact(n in 0usize..4096, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let wifi = InterferenceModel::wifi(Dbm::new(-60.0), 200).waveform(&mut rng, n);
        prop_assert_eq!(wifi.len(), n);
        let bt = InterferenceModel::bluetooth(Dbm::new(-60.0), 100).waveform(&mut rng, n);
        prop_assert_eq!(bt.len(), n);
        let none = InterferenceModel::none().waveform(&mut rng, n);
        prop_assert!(none.iter().all(|s| s.power() == 0.0));
    }

    /// Excitation masks are binary, exact-length, and tone is all-ones.
    #[test]
    fn excitation_masks_are_well_formed(
        n in 0usize..4096,
        duty in 0.05f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tone = Excitation::tone().availability_mask(&mut rng, n);
        prop_assert!(tone.iter().all(|&m| m == 1.0));
        let ofdm = Excitation::ofdm(duty, 64).availability_mask(&mut rng, n);
        prop_assert_eq!(ofdm.len(), n);
        prop_assert!(ofdm.iter().all(|&m| m == 0.0 || m == 1.0));
    }

    /// The shadowing field is deterministic per position and has zero
    /// offset when disabled.
    #[test]
    fn shadowing_is_frozen(x in -3.0f64..3.0, y in -3.0f64..3.0, seed in any::<u64>()) {
        let model = cbma_channel::ShadowingModel::new(3.0, seed);
        let p = Point::new(x, y);
        prop_assert_eq!(model.offset_for(p), model.offset_for(p));
        prop_assert_eq!(
            cbma_channel::ShadowingModel::disabled().offset_for(p),
            Db::ZERO
        );
    }
}
