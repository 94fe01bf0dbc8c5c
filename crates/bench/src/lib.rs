//! Shared harness utilities for the experiment benches.
//!
//! Every table and figure of the paper's evaluation has a dedicated bench
//! target in `benches/` (see DESIGN.md's experiment index). Each target is
//! a custom-harness binary that regenerates the same rows/series the paper
//! reports and prints them to stdout, so `cargo bench --workspace`
//! reproduces the entire evaluation.
//!
//! Two profiles control the packet counts:
//!
//! * **fast** (default) — reduced counts with identical shape, minutes for
//!   the full suite,
//! * **full** — paper-scale counts (≈1000 collided packets per point);
//!   select with `CBMA_BENCH_PROFILE=full`.

use cbma::prelude::*;

pub mod scenarios;

/// The run profile, selected by `CBMA_BENCH_PROFILE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Reduced packet counts (default).
    Fast,
    /// Paper-scale packet counts.
    Full,
}

impl Profile {
    /// Reads the profile from the environment.
    pub fn from_env() -> Profile {
        match std::env::var("CBMA_BENCH_PROFILE").as_deref() {
            Ok("full") | Ok("FULL") => Profile::Full,
            _ => Profile::Fast,
        }
    }

    /// Packets per measurement point: the paper uses 1000; fast mode
    /// scales that down.
    pub fn packets(self, full_count: usize) -> usize {
        match self {
            Profile::Full => full_count,
            Profile::Fast => (full_count / 20).max(20),
        }
    }

    /// Number of random deployment groups (the paper uses 50 for
    /// Fig. 9(c)/Fig. 10).
    pub fn groups(self, full_count: usize) -> usize {
        match self {
            Profile::Full => full_count,
            Profile::Fast => (full_count / 5).max(6),
        }
    }
}

/// Prints the standard bench header.
pub fn header(id: &str, paper_ref: &str, what: &str) {
    println!("================================================================");
    println!("{id} — {paper_ref}");
    println!("{what}");
    let profile = Profile::from_env();
    println!("profile: {profile:?} (set CBMA_BENCH_PROFILE=full for paper-scale counts)");
    println!("================================================================");
}

/// The balanced ten-tag bench geometry: positions mirrored across both
/// axes share the same d1²·d2² link-budget product, so all links sit
/// within ~2 dB — the regime where concurrent decoding shines.
pub fn balanced_positions(n: usize) -> Vec<Point> {
    let full = vec![
        Point::new(0.15, 0.45),
        Point::new(-0.15, 0.45),
        Point::new(0.15, -0.45),
        Point::new(-0.15, -0.45),
        Point::new(0.35, 0.5),
        Point::new(-0.35, 0.5),
        Point::new(0.35, -0.5),
        Point::new(-0.35, -0.5),
        Point::new(0.0, 0.62),
        Point::new(0.0, -0.62),
    ];
    assert!(n <= full.len(), "at most 10 balanced positions are defined");
    full[..n].to_vec()
}

/// The paper's table-scale random-deployment area (tags, ES and RX all
/// sit on one table, Fig. 7).
pub fn table_area() -> Rect {
    Rect::new(Point::new(-0.6, -0.5), Point::new(0.6, 0.5))
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1} %", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_profile_scales_counts_down() {
        assert_eq!(Profile::Fast.packets(1000), 50);
        assert_eq!(Profile::Full.packets(1000), 1000);
        assert_eq!(Profile::Fast.packets(100), 20);
        assert_eq!(Profile::Fast.groups(50), 10);
    }

    #[test]
    fn balanced_positions_are_clamped() {
        assert_eq!(balanced_positions(3).len(), 3);
        assert_eq!(balanced_positions(10).len(), 10);
    }

    #[test]
    fn balanced_positions_share_link_budgets() {
        let s = Scenario::paper_default(balanced_positions(10));
        let link = BackscatterLink::paper_default();
        let powers: Vec<f64> = s
            .tag_positions
            .iter()
            .map(|&p| link.received_power(s.es, p, s.rx).get())
            .collect();
        let max = powers.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = powers.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max - min < 3.5, "spread {} dB", max - min);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3 %");
    }
}
