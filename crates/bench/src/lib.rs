//! The physics of the paper's experiments, and the bench targets that
//! campaigns cannot express.
//!
//! [`scenarios`] builds the engine of every table, figure and ablation;
//! `cbma-harness` runs them as campaigns (`cbma-harness --tier fast|full
//! --campaign NAME`) and prints each one's table. The bench targets in
//! `benches/` are what remains outside that stack:
//!
//! * `headline_throughput` and `micro_user_detection` schedule a
//!   different active subset of tags each round, which a campaign point
//!   cannot express;
//! * `table1_context` reprints the paper's survey table with a measured
//!   CBMA row;
//! * `fig5_friis_field` evaluates the link budget analytically.
//!
//! Each prints its table at paper scale (`cargo bench -p cbma-bench
//! --bench NAME`).

use cbma::prelude::*;

pub mod scenarios;

/// Prints the standard bench header.
pub fn header(id: &str, paper_ref: &str, what: &str) {
    println!("================================================================");
    println!("{id} — {paper_ref}");
    println!("{what}");
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
