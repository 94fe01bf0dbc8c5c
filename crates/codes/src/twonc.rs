//! 2NC codes (ref. \[9\] of the paper, as modified by the authors).
//!
//! The paper adopts "2NC" codes from *Turbocharging Ambient Backscatter
//! Communication* and modifies them so that "the chip representing 0 is the
//! negation of that representing 1" (footnote 2). The evaluation relies on
//! exactly one property of the family: **strictly better orthogonality
//! than Gold codes**, which is what makes 2NC the winner in Fig. 9(b).
//!
//! We realize the family as rows of the order-2N Walsh–Hadamard
//! construction (skipping the all-ones row), XOR-scrambled by a common
//! m-sequence overlay: for N users the spreading factor is the smallest
//! power of two ≥ 2N, every pair of codes is exactly orthogonal when
//! chip-aligned (the shared overlay cancels in the product), and
//! complement signalling carries bit 0. The overlay matters because raw
//! Walsh rows are cyclic shifts/complements of one another, so an
//! asynchronous tag would alias into a *different* user's code — the
//! scrambling breaks that shift structure exactly the way channelization-
//! plus-scrambling does in deployed CDMA systems. DESIGN.md documents this
//! interpretation and why it preserves the paper's comparison.

use cbma_types::{Bits, CbmaError, Result};

use crate::family::{CodeFamily, PnCode};
use crate::msequence::m_sequence;
use crate::walsh::hadamard_rows;

/// Builds the scrambling overlay for a given code length (power of two):
/// the degree-n m-sequence (length 2ⁿ − 1) extended by one leading `1`.
fn scrambling_overlay(length: usize) -> Result<Bits> {
    debug_assert!(length.is_power_of_two() && length >= 16);
    let degree = length.trailing_zeros();
    let seq = m_sequence(degree)?;
    let mut overlay = Bits::with_capacity(length);
    overlay.push(1);
    overlay.extend_bits(&seq);
    Ok(overlay)
}

/// Appends `code`'s chips to `out` packed 64 to a word: chip k is bit
/// k % 64 of word k / 64.
fn pack_into(code: &Bits, out: &mut Vec<u64>) {
    let first = out.len();
    out.resize(first + code.len().div_ceil(64), 0);
    for (k, &chip) in code.as_slice().iter().enumerate() {
        out[first + k / 64] |= u64::from(chip) << (k % 64);
    }
}

/// Writes every cyclic left rotation of the packed `length`-chip code
/// `words` into `out`: rotation τ (chip k holds chip (k + τ) mod L) fills
/// words `[τW, (τ + 1)W)`, W = `words.len()`. Each rotation shifts the
/// one before it by one chip.
fn rotations_into(words: &[u64], length: usize, out: &mut Vec<u64>) {
    let w = words.len();
    // Where the chip that wraps around lands in its word.
    let top = length.min(64) - 1;
    out.clear();
    out.extend_from_slice(words);
    for tau in 1..length {
        let prev = (tau - 1) * w;
        for i in 0..w {
            let carry = out[prev + (i + 1) % w] & 1;
            out.push(out[prev + i] >> 1 | carry << top);
        }
    }
}

/// The largest |periodic cross-correlation| of `a` against the rotations
/// of a `length`-chip code (see [`rotations_into`]): at lag τ the ±1
/// agreement is L − 2·popcount(a ⊕ rot(b, τ)).
fn worst_cross(a: &[u64], rotations: &[u64], length: usize) -> u32 {
    rotations
        .chunks_exact(a.len())
        .map(|rotated| {
            let differ: u32 = a
                .iter()
                .zip(rotated)
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
            (length as i64 - 2 * i64::from(differ)).unsigned_abs() as u32
        })
        .max()
        .unwrap_or(0)
}

/// The worst cyclic cross-correlation of every pair of `codes` (all
/// `length` chips long), as a symmetric row-major n × n table; the
/// diagonal is left 0. Each pair is computed once, on packed chips.
fn worst_cross_table(codes: &[Bits], length: usize) -> Vec<u32> {
    let n = codes.len();
    let w = length.div_ceil(64);
    let mut packed = Vec::with_capacity(n * w);
    for code in codes {
        pack_into(code, &mut packed);
    }
    let mut table = vec![0u32; n * n];
    let mut rotations = Vec::with_capacity(length * w);
    for j in 1..n {
        rotations_into(&packed[j * w..(j + 1) * w], length, &mut rotations);
        for i in 0..j {
            let worst = worst_cross(&packed[i * w..(i + 1) * w], &rotations, length);
            table[i * n + j] = worst;
            table[j * n + i] = worst;
        }
    }
    table
}

/// The 2NC code family dimensioned for a target user count.
#[derive(Debug, Clone)]
pub struct TwoNcFamily {
    users: usize,
    /// Scrambled codes, ordered most-balanced first. Balance matters for
    /// OOK: only the `1` chips radiate, so a code with few ones carries
    /// little correlation energy for bit 1 (and vice versa); assigning the
    /// most balanced codes first equalizes per-user decode margins.
    codes: Vec<Bits>,
}

impl TwoNcFamily {
    /// Builds the family for up to `users` concurrent tags.
    ///
    /// The spreading factor is the smallest power of two that is at least
    /// `2 × users` (the "2N" in the name), with a floor of 16 — shorter
    /// scrambled codes have too few chips per bit for reliable OOK
    /// correlation and grossly imbalanced rows.
    ///
    /// # Errors
    ///
    /// Returns [`CbmaError::InvalidConfig`] when `users` is zero.
    pub fn new(users: usize) -> Result<TwoNcFamily> {
        if users == 0 {
            return Err(CbmaError::InvalidConfig(
                "2nc family needs at least one user".into(),
            ));
        }
        let length = (2 * users).next_power_of_two().max(16);
        let rows = hadamard_rows(length)?;
        let overlay = scrambling_overlay(length)?;
        // Row 0 (all ones) is unusable for OOK complement signalling; the
        // rest are scrambled, then *ordered* so that early assignments are
        // balanced AND mutually well-separated under cyclic shifts
        // (asynchronous tags see shifted cross-correlations, so a pair
        // with a high shifted cross aliases into each other).
        let mut pool: Vec<Bits> = rows[1..].iter().map(|r| r.xor(&overlay)).collect();
        // Every code has one length, so comparing the 0/1 chips orders
        // them as comparing their printed strings would.
        let imbalance = |c: &Bits| (2 * c.count_ones()).abs_diff(length);
        pool.sort_by(|a, b| (imbalance(a), a.as_slice()).cmp(&(imbalance(b), b.as_slice())));
        // Every pool code is admitted in the end, and each admission tests
        // the candidate against every code admitted before it, so every
        // pair's worst shifted cross is needed once: build them all up
        // front.
        let n = pool.len();
        let cross = worst_cross_table(&pool, length);
        let mut admitted: Vec<usize> = Vec::with_capacity(n);
        let mut remaining: Vec<usize> = (0..n).collect();
        // Greedy: tighten admission to a shifted-cross bound of L/4,
        // relaxing in L/8 steps until the pool drains (capacity must stay
        // at 2N−1; the ordering just puts the good codes first).
        let mut bound = (length / 4) as u32;
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|&candidate| {
                let fits = admitted
                    .iter()
                    .all(|&code| cross[code * n + candidate] <= bound);
                if fits {
                    admitted.push(candidate);
                }
                !fits
            });
            if remaining.len() == before {
                bound += (length / 8).max(1) as u32;
            }
        }
        let codes = admitted
            .into_iter()
            .map(|i| std::mem::take(&mut pool[i]))
            .collect();
        Ok(TwoNcFamily { users, codes })
    }

    /// The family sized for the paper's 10-tag testbed.
    pub fn paper_default() -> TwoNcFamily {
        TwoNcFamily::new(10).expect("10 users is a valid 2nc configuration")
    }

    /// The user count the family was dimensioned for.
    #[inline]
    pub fn users(&self) -> usize {
        self.users
    }
}

impl CodeFamily for TwoNcFamily {
    fn name(&self) -> &'static str {
        "2nc"
    }

    fn spreading_factor(&self) -> usize {
        self.codes[0].len()
    }

    fn capacity(&self) -> usize {
        self.codes.len()
    }

    fn code(&self, index: usize) -> Result<PnCode> {
        if index >= self.capacity() {
            return Err(CbmaError::CodeUnavailable {
                family: "2nc",
                reason: format!("index {index} out of range (capacity {})", self.capacity()),
            });
        }
        Ok(PnCode::new(index, self.codes[index].clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walsh::row_dot;

    #[test]
    fn sizing_rule() {
        assert_eq!(TwoNcFamily::new(2).unwrap().spreading_factor(), 16);
        assert_eq!(TwoNcFamily::new(5).unwrap().spreading_factor(), 16);
        assert_eq!(TwoNcFamily::new(10).unwrap().spreading_factor(), 32);
        assert_eq!(TwoNcFamily::new(1).unwrap().spreading_factor(), 16);
    }

    #[test]
    fn codes_are_exactly_orthogonal_when_aligned() {
        let family = TwoNcFamily::new(10).unwrap();
        let codes = family.codes(10).unwrap();
        for i in 0..codes.len() {
            for j in 0..codes.len() {
                let dot = row_dot(codes[i].bits(), codes[j].bits());
                if i == j {
                    assert_eq!(dot, family.spreading_factor() as i64);
                } else {
                    assert_eq!(dot, 0, "codes ({i},{j}) not orthogonal");
                }
            }
        }
    }

    #[test]
    fn codes_are_near_balanced() {
        // The scrambling overlay perturbs the exact Walsh balance; the
        // decoder tolerates imbalance (its gain scale and sign test use
        // the actual chip sums), but a grossly one-sided code would hurt
        // OOK energy detection, so require ones within L/4 of half.
        let family = TwoNcFamily::new(8).unwrap();
        let l = family.spreading_factor() as i64;
        for code in family.codes(8).unwrap() {
            let ones = code.bits().count_ones() as i64;
            assert!(
                (ones - l / 2).abs() <= l / 4,
                "code {} ones={ones} of {l}",
                code.index()
            );
        }
    }

    #[test]
    fn codes_are_not_cyclic_shifts_of_each_other() {
        // The scrambling overlay must break the raw-Walsh shift aliasing:
        // no code may equal a cyclic shift of another code or of its
        // complement (that aliasing produced phantom users under
        // asynchronous arrival).
        let family = TwoNcFamily::new(5).unwrap();
        let codes = family.codes(5).unwrap();
        for i in 0..codes.len() {
            for j in 0..codes.len() {
                if i == j {
                    continue;
                }
                for shift in 0..family.spreading_factor() {
                    let rotated = codes[j].bits().rotate_left(shift);
                    assert_ne!(codes[i].bits(), &rotated, "code {i} = code {j} <<< {shift}");
                    assert_ne!(
                        codes[i].bits(),
                        &rotated.complement(),
                        "code {i} = ~code {j} <<< {shift}"
                    );
                }
            }
        }
    }

    #[test]
    fn capacity_and_bounds() {
        let family = TwoNcFamily::new(5).unwrap();
        assert_eq!(family.capacity(), 15);
        assert!(family.code(14).is_ok());
        assert!(matches!(
            family.code(15),
            Err(CbmaError::CodeUnavailable { .. })
        ));
    }

    #[test]
    fn zero_users_rejected() {
        assert!(matches!(
            TwoNcFamily::new(0),
            Err(CbmaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn better_aligned_orthogonality_than_gold() {
        // The property Fig. 9(b) rests on: at chip alignment the 2NC
        // cross-correlation (0) is strictly below Gold's worst case (t=9
        // for degree 5).
        let twonc = TwoNcFamily::new(5).unwrap();
        let codes = twonc.codes(5).unwrap();
        let worst = codes
            .iter()
            .enumerate()
            .flat_map(|(i, a)| {
                codes
                    .iter()
                    .enumerate()
                    .filter(move |(j, _)| *j != i)
                    .map(move |(_, b)| row_dot(a.bits(), b.bits()).abs())
            })
            .max()
            .unwrap();
        assert_eq!(worst, 0);
    }

    #[test]
    fn paper_default_supports_ten_tags() {
        let family = TwoNcFamily::paper_default();
        assert_eq!(family.users(), 10);
        assert!(family.capacity() >= 10);
    }

    /// The scrambled pool of [`TwoNcFamily::new`] before ordering.
    fn pool(length: usize) -> Vec<Bits> {
        let overlay = scrambling_overlay(length).unwrap();
        hadamard_rows(length).unwrap()[1..]
            .iter()
            .map(|r| r.xor(&overlay))
            .collect()
    }

    /// Worst |periodic cross-correlation| straight from the ±1 chips, the
    /// way the family was built before the packed table.
    fn direct_worst_cross(a: &Bits, b: &Bits) -> u32 {
        let (a, b) = (a.to_bipolar(), b.to_bipolar());
        let l = a.len();
        (0..l)
            .map(|lag| {
                let sum: f64 = (0..l).map(|k| a[k] * b[(k + lag) % l]).sum();
                sum.abs() as u32
            })
            .max()
            .unwrap()
    }

    #[test]
    fn families_are_pinned_for_every_user_count_to_64() {
        // FNV-1a over the chips of every code of every family, each code
        // followed by a byte 2. The constant is what the family built
        // before the packed table (one ±1 correlation per admission test)
        // hashes to; ordering or admission drift changes it.
        const PINNED: u64 = 0x2166_26e8_cee6_6425;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fnv = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for users in 1..=64 {
            let family = TwoNcFamily::new(users).unwrap();
            for code in family.codes(family.capacity()).unwrap() {
                fnv(code.bits().as_slice());
                fnv(&[2]);
            }
        }
        assert_eq!(hash, PINNED, "2nc families moved: {hash:#018x}");
    }

    #[test]
    fn packed_table_agrees_with_direct_correlation_at_long_lengths() {
        // L = 256 (65 users) and L = 1,024 (512 users, the longest
        // overlay): several words per code, so the rotations carry chips
        // across words. Eight codes spread over the pool are enough to
        // cross every word boundary at some lag.
        for length in [256, 1024] {
            let pool = pool(length);
            let sample: Vec<Bits> = pool.iter().step_by(pool.len() / 8 + 1).cloned().collect();
            assert!(sample.len() >= 7);
            let n = sample.len();
            let table = worst_cross_table(&sample, length);
            for i in 0..n {
                assert_eq!(table[i * n + i], 0);
                for j in 0..n {
                    if i != j {
                        assert_eq!(
                            table[i * n + j],
                            direct_worst_cross(&sample[i], &sample[j]),
                            "L = {length}, codes {i} and {j}"
                        );
                    }
                }
            }
        }
    }

    /// Orthogonality at alignment over the family's first `users` codes,
    /// and no code a cyclic shift of another (or of its complement) over
    /// a sample of pairs: the properties the short families are tested
    /// for above.
    fn assert_long_family_properties(users: usize) {
        let family = TwoNcFamily::new(users).unwrap();
        let l = family.spreading_factor();
        assert_eq!(l, (2 * users).next_power_of_two());
        assert_eq!(family.capacity(), l - 1);
        let codes = family.codes(users).unwrap();
        for i in 0..codes.len() {
            for j in i + 1..codes.len() {
                assert_eq!(row_dot(codes[i].bits(), codes[j].bits()), 0, "({i},{j})");
            }
        }
        for (i, j) in [(0, 1), (1, 0), (0, users - 1), (users / 2, users / 3)] {
            for shift in 0..l {
                let rotated = codes[j].bits().rotate_left(shift);
                assert_ne!(codes[i].bits(), &rotated, "code {i} = code {j} <<< {shift}");
                assert_ne!(codes[i].bits(), &rotated.complement());
            }
        }
    }

    #[test]
    fn long_families_keep_their_properties() {
        assert_long_family_properties(65);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "fills a 1,023-code table; runs in the optimized test step"
    )]
    fn longest_family_keeps_its_properties() {
        assert_long_family_properties(512);
    }
}
