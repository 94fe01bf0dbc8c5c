//! Criterion micro-benchmarks of the hot signal-processing paths.
//!
//! These are engineering benchmarks (ns/op) rather than paper
//! reproductions: sliding preamble correlation (the receiver's dominant
//! cost), per-frame decoding, spreading, FFT, and the full single-round
//! pipeline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use cbma::codes::{CodeFamily, TwoNcFamily};
use cbma::prelude::*;
use cbma::rx::{Decoder, DecoderKind, DetectScratch, UserDetector};
use cbma::tag::{encoder::spread, modulator::ook_envelope, PhyProfile, Tag};

fn bench_correlation(c: &mut Criterion) {
    let phy = PhyProfile::paper_default();
    let codes = TwoNcFamily::new(10).unwrap().codes(10).unwrap();
    let detector = UserDetector::with_kind(&codes, &phy, 0.12, DecoderKind::Coherent);
    let mut tag = Tag::new(0, Point::ORIGIN, codes[0].clone());
    let env = tag.transmit(vec![0xA5; 8], &phy).unwrap();
    let mut buf = vec![Iq::ZERO; 400];
    buf.extend(env.iter().map(|&e| Iq::new(0.01 * e, 0.0)));
    buf.extend(vec![Iq::ZERO; 64]);

    // The allocating entry point: a fresh scratch and output per call.
    c.bench_function("user_detect_10_codes", |b| {
        b.iter(|| detector.detect_candidates(&buf[350..3000], 350, 8))
    });
    // Shared-FFT K-code matrix pass on the steady-state (scratch-reusing)
    // entry point — the receiver's production configuration.
    c.bench_function("user_detect_batch", |b| {
        let mut scratch = DetectScratch::new();
        let mut out = Vec::new();
        b.iter(|| {
            detector.detect_candidates_in(&buf[350..3000], 350, 8, &mut scratch, &mut out, None);
            out.len()
        })
    });
}

fn bench_decode(c: &mut Criterion) {
    let phy = PhyProfile::paper_default();
    let codes = TwoNcFamily::new(10).unwrap().codes(10).unwrap();
    let decoder = Decoder::with_kind(&codes[0], &phy, DecoderKind::Coherent);
    let mut tag = Tag::new(0, Point::ORIGIN, codes[0].clone());
    let env = tag.transmit(vec![0xA5; 16], &phy).unwrap();
    let buf: Vec<Iq> = env.iter().map(|&e| Iq::new(0.01 * e, 0.0)).collect();

    c.bench_function("decode_16_byte_frame", |b| {
        b.iter(|| decoder.decode_frame(&buf, 0, Iq::new(0.01, 0.0)))
    });
}

fn bench_spreading(c: &mut Criterion) {
    let codes = TwoNcFamily::new(10).unwrap().codes(1).unwrap();
    let bits: Bits = (0..1024u32).map(|i| (i % 2) as u8).collect();
    c.bench_function("spread_1024_bits", |b| b.iter(|| spread(&bits, &codes[0])));
    let chips = spread(&bits, &codes[0]);
    c.bench_function("ook_envelope_1024_bits", |b| {
        b.iter(|| ook_envelope(&chips, 8))
    });
}

fn bench_fft(c: &mut Criterion) {
    let buf: Vec<Iq> = (0..1024).map(|i| Iq::phasor(0.1 * i as f64)).collect();
    c.bench_function("fft_1024", |b| {
        b.iter_batched(
            || buf.clone(),
            |mut x| cbma::dsp::fft::fft_in_place(&mut x).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_full_round(c: &mut Criterion) {
    let scenario = Scenario::paper_default(vec![
        Point::new(0.0, 0.4),
        Point::new(0.0, -0.4),
        Point::new(0.15, 0.55),
    ]);
    let mut engine = Engine::new(scenario).unwrap();
    c.bench_function("full_round_3_tags", |b| b.iter(|| engine.run_round()));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_correlation, bench_decode, bench_spreading, bench_fft, bench_full_round
}
criterion_main!(benches);
