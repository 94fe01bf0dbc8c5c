//! Order statistics and the decision digest.
//!
//! Percentiles are nearest-rank (the smallest sample with at least p % of
//! the samples at or below it), so every reported percentile is a value
//! that was actually measured. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
//! how run-to-run spreads are judged.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the middle half of an ascending-sorted, non-empty slice (the
/// lowest and highest `n / 4` samples dropped). Unlike the median, it
/// moves smoothly when the samples form two clusters of similar weight.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn interquartile_mean(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "interquartile mean of no samples");
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// computes them; a single value is its own quartiles.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// A sorted copy (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a, 64-bit: a stable digest of decision sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one integer (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a terminated id list, so `[1], [2]` and `[1, 2], []` digest
    /// differently.
    pub fn ids(&mut self, ids: impl IntoIterator<Item = usize>) {
        for id in ids {
            self.u64(id as u64);
        }
        self.u64(u64::MAX);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition itself: smallest sample with ≥ p % at or below it.
    fn oracle(sorted: &[f64], p: f64) -> f64 {
        *sorted
            .iter()
            .find(|&&x| {
                let at_or_below = sorted.iter().filter(|&&y| y <= x).count();
                at_or_below as f64 * 100.0 >= p * sorted.len() as f64
            })
            .expect("the maximum always qualifies")
    }

    #[test]
    fn nearest_rank_matches_the_sorted_oracle() {
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            // Distinct values in scrambled order (7919 is prime, so the
            // map is a permutation of 0..n).
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64 + 0.5).collect();
            let s = sorted(&values);
            for p in [0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
                assert_eq!(percentile(&s, p), oracle(&s, p), "n={n} p={p}");
            }
        }
        // Fewer than 100 samples: p99 is the maximum.
        let small = sorted(&[3.0, 1.0, 2.0]);
        assert_eq!(percentile(&small, 99.0), 3.0);
        assert_eq!(percentile(&small, 50.0), 2.0);
        assert_eq!(percentile(&small, 34.0), 2.0);
        assert_eq!(percentile(&small, 33.0), 1.0);
    }

    #[test]
    fn quartiles_follow_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Drops the two lowest and two highest of eight.
        assert_eq!(
            interquartile_mean(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0]),
            4.5
        );
        assert_eq!(interquartile_mean(&[2.0, 4.0, 9.0]), 5.0);
        // Two equal clusters: the median jumps between them as one sample
        // moves, the interquartile mean does not.
        let a = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        let b = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(median(&b) - median(&a), -1.0);
        assert!((interquartile_mean(&a) - interquartile_mean(&b)).abs() < 0.25);
        assert_eq!(median(&[5.0]), 5.0);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn digest_separates_list_boundaries() {
        let digest = |lists: &[&[usize]]| {
            let mut h = Fnv64::default();
            for l in lists {
                h.ids(l.iter().copied());
            }
            h.finish()
        };
        assert_ne!(digest(&[&[1], &[2]]), digest(&[&[1, 2], &[]]));
        assert_eq!(digest(&[&[1, 2]]), digest(&[&[1, 2]]));
    }
}
