//! The declarative campaign model.
//!
//! A [`Campaign`] is a named grid of measurement points — one per
//! parameter combination of a paper figure — plus the replicate/round
//! counts the selected [`Tier`](crate::Tier) resolved. Each point carries
//! a builder closure that turns a per-job seed into a ready-to-measure
//! [`Engine`]; the runner owns scheduling and checkpointing, so the
//! campaign definition stays pure description.

use std::collections::BTreeMap;

use cbma::obs::json::JsonValue;
use cbma::prelude::*;
// The prelude exports a 1-parameter `Result<T>` alias; validation uses a
// plain string error, so restore the std form.
use std::result::Result;

/// Per-job context handed to a point builder.
///
/// `seed` derives deterministically from
/// `(root seed, campaign name, point label, replicate)` via
/// `SeedSequence`, so every job owns an independent, reproducible RNG
/// stream regardless of which worker runs it or in what order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCtx {
    /// The job's deterministic seed.
    pub seed: u64,
    /// The replicate index within the point (campaigns that measure
    /// random deployments use this as the deployment-group index).
    pub replicate: usize,
}

/// The engine factory for one point. Must be pure: the same `JobCtx`
/// always yields the same engine.
pub type PointBuilder = Box<dyn Fn(JobCtx) -> Engine + Send + Sync>;

/// One measurement point of a campaign grid.
pub struct CampaignPoint {
    /// Stable human-readable label, unique within the campaign (used in
    /// manifests, checkpoints and seed derivation — never reword).
    pub label: String,
    /// The parameter values this point fixes, for the manifest.
    pub params: BTreeMap<String, JsonValue>,
    /// Builds the engine for one replicate.
    pub builder: PointBuilder,
}

impl CampaignPoint {
    /// Convenience constructor.
    pub fn new<F>(
        label: impl Into<String>,
        params: &[(&str, JsonValue)],
        builder: F,
    ) -> CampaignPoint
    where
        F: Fn(JobCtx) -> Engine + Send + Sync + 'static,
    {
        CampaignPoint {
            label: label.into(),
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
            builder: Box::new(builder),
        }
    }
}

impl std::fmt::Debug for CampaignPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignPoint")
            .field("label", &self.label)
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

/// A full figure campaign: the grid plus its tier-resolved sizes.
#[derive(Debug)]
pub struct Campaign {
    /// Stable machine name (`fig8a`, `fig9c`, …) used for manifests,
    /// checkpoints and seed derivation.
    pub name: &'static str,
    /// The paper figure/table this reproduces.
    pub paper_ref: &'static str,
    /// One-line description for `--list`.
    pub description: &'static str,
    /// The tier label the counts below were resolved for.
    pub tier: &'static str,
    /// Replicates (independent seeds or deployment groups) per point.
    pub replicates: usize,
    /// Transmission rounds measured per replicate.
    pub rounds: usize,
    /// The measurement grid.
    pub points: Vec<CampaignPoint>,
}

impl Campaign {
    /// Total jobs in the campaign (`points × replicates`).
    pub fn job_count(&self) -> usize {
        self.points.len() * self.replicates
    }

    /// Validates the definition: non-empty grid, positive counts, unique
    /// point labels (labels seed the RNG streams, so collisions would
    /// silently correlate points).
    pub fn validate(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err(format!("campaign {}: no points", self.name));
        }
        if self.replicates == 0 || self.rounds == 0 {
            return Err(format!(
                "campaign {}: replicates and rounds must be positive",
                self.name
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for p in &self.points {
            if !seen.insert(p.label.as_str()) {
                return Err(format!(
                    "campaign {}: duplicate point label {:?}",
                    self.name, p.label
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_point(label: &str) -> CampaignPoint {
        CampaignPoint::new(label, &[("n", JsonValue::UInt(2))], |ctx| {
            let scenario =
                Scenario::paper_default(vec![Point::new(0.0, 0.4), Point::new(0.0, -0.4)])
                    .with_seed(ctx.seed);
            Engine::new(scenario).expect("valid scenario")
        })
    }

    fn tiny_campaign(points: Vec<CampaignPoint>) -> Campaign {
        Campaign {
            name: "tiny",
            paper_ref: "test",
            description: "test campaign",
            tier: "fast",
            replicates: 2,
            rounds: 3,
            points,
        }
    }

    #[test]
    fn job_count_is_grid_size() {
        let c = tiny_campaign(vec![tiny_point("a"), tiny_point("b")]);
        assert_eq!(c.job_count(), 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_duplicate_labels() {
        let c = tiny_campaign(vec![tiny_point("a"), tiny_point("a")]);
        assert!(c.validate().unwrap_err().contains("duplicate point label"));
    }

    #[test]
    fn validate_rejects_empty_grid() {
        let c = tiny_campaign(vec![]);
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_is_deterministic_in_ctx() {
        let p = tiny_point("a");
        let ctx = JobCtx {
            seed: 42,
            replicate: 0,
        };
        let a = (p.builder)(ctx);
        let b = (p.builder)(ctx);
        assert_eq!(a.scenario().seed, b.scenario().seed);
    }
}
