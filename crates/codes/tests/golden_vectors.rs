//! Golden-vector conformance tests for the spreading-code generators.
//!
//! The chip sequences below were generated once from this crate's own
//! LFSR implementations and then **hard-coded**: any future change to the
//! polynomial tables, the seed conventions, the Gold/Kasami combination
//! rules or the `Bits` ordering will break these tests loudly instead of
//! silently shifting every downstream experiment (code assignments are
//! part of the wire contract between tag and receiver).
//!
//! Alongside the exact vectors, the published PN-sequence invariants are
//! asserted from first principles: Golomb's balance and run-length
//! postulates, the two-valued autocorrelation of m-sequences, and the
//! t(n)/s(n) cross-correlation bounds of Gold and small-set Kasami
//! families.

use cbma_codes::msequence::{m_sequence, periodic_autocorrelation};
use cbma_codes::{CodeFamily, GoldFamily, KasamiFamily};
use cbma_types::Bits;

/// Golden degree-3 m-sequence (octal 13).
const MSEQ3: &str = "1001110";
/// Golden degree-4 m-sequence (octal 23).
const MSEQ4: &str = "100011110101100";
/// Golden degree-5 m-sequence (octal 45).
const MSEQ5: &str = "1000010101110110001111100110100";
/// Golden degree-6 m-sequence (octal 103).
const MSEQ6: &str = "100000111111010101100110111011010010011100010111100101000110000";

/// Golden degree-5 Gold codes (preferred pair 45/75): u, v, u⊕v, u⊕T(v).
const GOLD5: [&str; 4] = [
    "1000010101110110001111100110100",
    "1000010110101000111011111001001",
    "0000000011011110110100011111101",
    "1000111000100111111000010100111",
];

/// Golden degree-6 small-set Kasami codes: u, u⊕w, u⊕T(w).
const KASAMI6: [&str; 3] = [
    "100000111111010101100110111011010010011100010111100101000110000",
    "011001100011111011110001110000110111101110101110111001101000010",
    "010010000110001001001000101100011001111001100101011100011010101",
];

fn chips(bits: &Bits) -> String {
    bits.iter().map(|b| char::from(b'0' + b)).collect()
}

/// Cyclic run-length histogram: lengths of maximal same-value runs.
fn cyclic_runs(bits: &Bits) -> Vec<usize> {
    let v: Vec<u8> = bits.iter().collect();
    let n = v.len();
    // Rotate so the sequence starts at a run boundary.
    let start = (0..n)
        .find(|&i| v[i] != v[(i + n - 1) % n])
        .expect("sequence is not constant");
    let mut runs = Vec::new();
    let mut len = 0usize;
    for i in 0..n {
        let cur = v[(start + i) % n];
        let prev = v[(start + i + n - 1) % n];
        if i > 0 && cur != prev {
            runs.push(len);
            len = 0;
        }
        len += 1;
    }
    runs.push(len);
    runs
}

fn periodic_cross(a: &Bits, b: &Bits, lag: usize) -> i64 {
    let n = a.len();
    (0..n)
        .map(|i| {
            let x = i64::from(a.get(i).unwrap()) * 2 - 1;
            let y = i64::from(b.get((i + lag) % n).unwrap()) * 2 - 1;
            x * y
        })
        .sum()
}

#[test]
fn msequence_golden_chips() {
    assert_eq!(chips(&m_sequence(3).unwrap()), MSEQ3);
    assert_eq!(chips(&m_sequence(4).unwrap()), MSEQ4);
    assert_eq!(chips(&m_sequence(5).unwrap()), MSEQ5);
    assert_eq!(chips(&m_sequence(6).unwrap()), MSEQ6);
}

#[test]
fn msequence_lengths_are_full_period() {
    for degree in 3..=8u32 {
        let seq = m_sequence(degree).unwrap();
        assert_eq!(
            seq.len(),
            (1 << degree) - 1,
            "degree-{degree} m-sequence must have period 2^n − 1"
        );
    }
}

#[test]
fn msequence_balance_postulate() {
    // Golomb R-1: 2^(n−1) ones, 2^(n−1) − 1 zeros.
    for degree in 3..=8u32 {
        let seq = m_sequence(degree).unwrap();
        let ones = seq.count_ones();
        assert_eq!(
            ones,
            1 << (degree - 1),
            "degree-{degree}: ones must outnumber zeros by exactly one"
        );
        assert_eq!(seq.len() - ones, (1 << (degree - 1)) - 1);
    }
}

#[test]
fn msequence_run_length_postulate() {
    // Golomb R-2: 2^(n−1) runs total; half of length 1, a quarter of
    // length 2, …, plus one run of n ones and one of n−1 zeros.
    for degree in 3..=7u32 {
        let seq = m_sequence(degree).unwrap();
        let runs = cyclic_runs(&seq);
        let n = degree as usize;
        assert_eq!(
            runs.len(),
            1 << (degree - 1),
            "degree-{degree}: total run count"
        );
        for k in 1..=(n - 2) {
            let expected = 1usize << (n - 1 - k);
            let got = runs.iter().filter(|&&r| r == k).count();
            assert_eq!(got, expected, "degree-{degree}: runs of length {k}");
        }
        assert_eq!(runs.iter().filter(|&&r| r == n).count(), 1);
        assert_eq!(runs.iter().filter(|&&r| r == n - 1).count(), 1);
        assert_eq!(*runs.iter().max().unwrap(), n);
    }
}

#[test]
fn msequence_autocorrelation_is_two_valued() {
    // Golomb R-3: periodic autocorrelation is N at lag 0 and −1 at every
    // other lag (the sharpest peak a binary sequence can have).
    for degree in [3u32, 5, 7] {
        let seq = m_sequence(degree).unwrap();
        let n = seq.len();
        assert_eq!(periodic_autocorrelation(&seq, 0), n as i64);
        for lag in 1..n {
            assert_eq!(
                periodic_autocorrelation(&seq, lag),
                -1,
                "degree-{degree}, lag {lag}"
            );
        }
    }
}

#[test]
fn gold_golden_chips() {
    let family = GoldFamily::new(5).unwrap();
    for (i, want) in GOLD5.iter().enumerate() {
        assert_eq!(
            chips(family.code(i).unwrap().bits()),
            *want,
            "gold-5 code {i}"
        );
    }
}

#[test]
fn gold_paper_default_is_degree_5() {
    let family = GoldFamily::paper_default();
    assert_eq!(family.degree(), 5);
    assert_eq!(family.spreading_factor(), 31);
    // The paper-default family reproduces the same golden vectors.
    assert_eq!(chips(family.code(0).unwrap().bits()), GOLD5[0]);
}

#[test]
fn gold_family_shape() {
    let family = GoldFamily::new(5).unwrap();
    assert_eq!(family.capacity(), 31 + 2, "N + 2 codes");
    assert!(family.code(family.capacity()).is_err());
    for code in family.codes(family.capacity()).unwrap() {
        assert_eq!(code.len(), 31);
    }
}

#[test]
fn gold_cross_correlation_respects_t_bound() {
    let family = GoldFamily::new(5).unwrap();
    let t = family.t_bound();
    assert_eq!(t, 9, "t(5) = 2^3 + 1");
    let codes = family.codes(8).unwrap();
    let allowed = [-1i64, -t, t - 2];
    for a in 0..codes.len() {
        for b in (a + 1)..codes.len() {
            for lag in 0..codes[a].len() {
                let cc = periodic_cross(codes[a].bits(), codes[b].bits(), lag);
                assert!(
                    allowed.contains(&cc),
                    "gold-5 codes ({a},{b}) lag {lag}: cross-correlation {cc} \
                     outside the three-valued set {allowed:?}"
                );
            }
        }
    }
}

#[test]
fn kasami_golden_chips() {
    let family = KasamiFamily::new(6).unwrap();
    for (i, want) in KASAMI6.iter().enumerate() {
        assert_eq!(
            chips(family.code(i).unwrap().bits()),
            *want,
            "kasami-6 code {i}"
        );
    }
}

#[test]
fn kasami_family_shape_and_s_bound() {
    let family = KasamiFamily::new(6).unwrap();
    assert_eq!(family.capacity(), 8, "small set has 2^(n/2) codes");
    assert_eq!(family.s_bound(), 9, "s(6) = 2^3 + 1");
    assert_eq!(family.short_period(), 7);
    let codes = family.codes(family.capacity()).unwrap();
    for a in 0..codes.len() {
        assert_eq!(codes[a].len(), 63);
        for b in (a + 1)..codes.len() {
            for lag in 0..codes[a].len() {
                let cc = periodic_cross(codes[a].bits(), codes[b].bits(), lag);
                assert!(
                    cc.abs() <= family.s_bound(),
                    "kasami-6 codes ({a},{b}) lag {lag}: |{cc}| exceeds s(n)"
                );
            }
        }
    }
}

#[test]
fn golden_vectors_have_peak_autocorrelation_margin() {
    // Every golden code family keeps off-peak periodic autocorrelation
    // well below the lag-0 peak — the property user detection relies on.
    let gold = GoldFamily::new(5).unwrap();
    for code in gold.codes(4).unwrap() {
        let peak = periodic_cross(code.bits(), code.bits(), 0);
        assert_eq!(peak, code.len() as i64);
        for lag in 1..code.len() {
            let side = periodic_cross(code.bits(), code.bits(), lag).abs();
            assert!(
                side <= gold.t_bound(),
                "gold code {} lag {lag}: sidelobe {side}",
                code.index()
            );
        }
    }
}
