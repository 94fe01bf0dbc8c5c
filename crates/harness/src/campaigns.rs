//! The built-in campaigns: every table, figure and ablation of the
//! evaluation.
//!
//! The engines come from the `cbma_bench::scenarios` builders; this
//! module lays out each grid, its counts and its seeds. The fast tier
//! keeps every grid's shape with reduced counts; the full tier restores
//! paper-scale counts.
//!
//! Seeding. `fig8a`, `fig8b`, `fig11` and `fig12` give every replicate an
//! independent stream from [`job_seed`](crate::job_seed)`(root seed,
//! campaign, point label, replicate)`, so the root seed (`--seed`) moves
//! them. Every other campaign pins its seeds and ignores the root seed:
//!
//! * `fig9c` and `fig10` derive each deployment and its channel seed
//!   from the group (the replicate index), so the arms of the experiment
//!   measure the same deployments, as the paper's do;
//! * the others seed from fixed formulas of the point's parameters and
//!   the replicate, which keep their numbers equal to the tables
//!   EXPERIMENTS.md records, and keep the arms that compare two systems
//!   (code families, receivers, SIC and power control, sidebands) on one
//!   seed.

use cbma::codes::CorrelationReport;
use cbma::obs::json::JsonValue;
use cbma::prelude::*;
use cbma::rx::DecoderKind;
use cbma_bench::scenarios::{
    adc_engine, cycle_cap_engine, exclusion_engine, family_engine, fig10_engine, fig11_engine,
    fig12_engine, fig8a_engine, fig8b_engine, fig8c_engine, fig9a_engine, fig9c_scenario,
    phy_ber_engine, power_control, receiver_engine, sideband_engine, Fig10Arm, Fig12Condition,
    NearFar,
};

use crate::campaign::{Campaign, CampaignPoint};
use crate::tier::Tier;

/// Packets per adaptation control round in the fig9c power-control arm.
const FIG9C_CONTROL_PACKETS: usize = 10;

/// Packets per control round of the campaigns that adapt with half their
/// measured rounds (at least 5).
fn control_packets(rounds: usize) -> usize {
    rounds.max(10) / 2
}

/// Table II: two-tag error rate vs received-power difference.
pub fn table2(tier: Tier) -> Campaign {
    // The paper stops at 68 %; the coherent receiver's detection cliff
    // sits deeper, so the sweep extends to 97 % (≈15 dB) to expose it.
    let targets = [
        0.0, 0.05, 0.10, 0.20, 0.35, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.97,
    ];
    let points = targets
        .iter()
        .map(|&target| {
            let pair = NearFar::for_difference(target);
            CampaignPoint::new(
                format!("diff{:02.0}pct", target * 100.0),
                &[
                    ("target", JsonValue::Float(target)),
                    ("p1_dbm", JsonValue::Float(10.0 * pair.p1_mw.log10())),
                    ("p2_dbm", JsonValue::Float(10.0 * pair.p2_mw.log10())),
                    ("difference", JsonValue::Float(pair.difference())),
                ],
                move |ctx| pair.engine(false, 0x7AB1E + ctx.replicate as u64 * 131),
            )
        })
        .collect();
    Campaign {
        name: "table2",
        paper_ref: "Table II, §IV",
        description: "two-tag error rate vs received-power difference",
        tier: tier.label(),
        replicates: tier.pick(2, 4),
        rounds: tier.pick(50, 1000),
        points,
    }
}

/// Fig. 8(a): FER vs tag→RX distance for 2–4 tags.
pub fn fig8a(tier: Tier) -> Campaign {
    let distances: Vec<f64> = match tier {
        Tier::Fast => vec![25.0, 100.0, 250.0, 400.0],
        Tier::Full => (1..=40).map(|i| i as f64 * 10.0).collect(),
    };
    let mut points = Vec::new();
    for &n in &[2usize, 3, 4] {
        for &d in &distances {
            points.push(CampaignPoint::new(
                format!("n{n}_d{d:03.0}cm"),
                &[
                    ("n_tags", JsonValue::UInt(n as u64)),
                    ("d_cm", JsonValue::Float(d)),
                ],
                move |ctx| fig8a_engine(n, d, ctx.seed),
            ));
        }
    }
    Campaign {
        name: "fig8a",
        paper_ref: "Fig. 8(a), §VII-B.1",
        description: "frame error rate vs tag→RX distance, 2/3/4 tags",
        tier: tier.label(),
        replicates: tier.pick(2, 10),
        rounds: tier.pick(25, 100),
        points,
    }
}

/// Fig. 8(b): FER vs excitation transmit power for 2–4 tags.
pub fn fig8b(tier: Tier) -> Campaign {
    let powers: Vec<f64> = match tier {
        Tier::Fast => vec![-5.0, 5.0, 20.0],
        Tier::Full => vec![-5.0, 0.0, 5.0, 10.0, 15.0, 20.0],
    };
    let mut points = Vec::new();
    for &n in &[2usize, 3, 4] {
        for &p in &powers {
            points.push(CampaignPoint::new(
                format!("n{n}_pt{p:+03.0}dbm"),
                &[
                    ("n_tags", JsonValue::UInt(n as u64)),
                    ("tx_power_dbm", JsonValue::Float(p)),
                ],
                move |ctx| fig8b_engine(n, p, ctx.seed),
            ));
        }
    }
    Campaign {
        name: "fig8b",
        paper_ref: "Fig. 8(b), §VII-B.1",
        description: "frame error rate vs excitation transmit power, 2/3/4 tags",
        tier: tier.label(),
        replicates: tier.pick(2, 10),
        rounds: tier.pick(25, 100),
        points,
    }
}

/// Fig. 8(c): frame-detection error vs preamble length for 2–4 tags at
/// 7 dBm excitation. The figure's error is `1 − detection_rate`: a tag
/// counts as found when user detection lists it, decoded or not.
///
/// Replicates are deployments: detection failures at the threshold are
/// bursty per deployment (geometry and static phases).
pub fn fig8c(tier: Tier) -> Campaign {
    let mut points = Vec::new();
    for &bits in &[4usize, 8, 16, 32, 64] {
        for &n in &[2usize, 3, 4] {
            points.push(CampaignPoint::new(
                format!("pre{bits:02}b_n{n}"),
                &[
                    ("preamble_bits", JsonValue::UInt(bits as u64)),
                    ("n_tags", JsonValue::UInt(n as u64)),
                ],
                move |ctx| {
                    let seed = 0x0F16_8C00 + (bits * 17 + ctx.replicate * 131 + n) as u64;
                    fig8c_engine(n, bits, seed)
                },
            ));
        }
    }
    Campaign {
        name: "fig8c",
        paper_ref: "Fig. 8(c), §VII-B.1",
        description: "frame-detection error vs preamble length, 2/3/4 tags, 7 dBm",
        tier: tier.label(),
        replicates: 6,
        rounds: tier.pick(30, 166),
        points,
    }
}

/// Fig. 9(a): FER vs tag chip rate at a fixed 8 Msps receiver, 2–4 tags.
pub fn fig9a(tier: Tier) -> Campaign {
    let mut points = Vec::new();
    for &rate in &[250e3, 500e3, 1e6, 2e6, 4e6, 5e6] {
        let spc = PhyProfile::paper_default()
            .with_chip_rate(Hertz::new(rate))
            .samples_per_chip();
        for &n in &[2usize, 3, 4] {
            points.push(CampaignPoint::new(
                format!("r{:04.0}k_n{n}", rate / 1e3),
                &[
                    ("chip_rate_hz", JsonValue::Float(rate)),
                    ("samples_per_chip", JsonValue::UInt(spc as u64)),
                    ("n_tags", JsonValue::UInt(n as u64)),
                ],
                move |_| fig9a_engine(n, rate, 0x0F16_9A00 + rate as u64),
            ));
        }
    }
    Campaign {
        name: "fig9a",
        paper_ref: "Fig. 9(a), §VII-B.1",
        description: "frame error rate vs tag bitrate at a fixed 8 Msps receiver, 2/3/4 tags",
        tier: tier.label(),
        replicates: 1,
        rounds: tier.pick(50, 1000),
        points,
    }
}

/// The correlation analysis of `family`'s first five codes (the sweeps'
/// largest tag count), as point params.
fn correlation_params(family: FamilyKind) -> Vec<(&'static str, JsonValue)> {
    let codes = family
        .build()
        .and_then(|f| f.codes(5))
        .expect("the family holds five codes");
    let r = CorrelationReport::analyze(&codes);
    vec![
        ("corr_codes", JsonValue::UInt(r.codes as u64)),
        ("corr_length", JsonValue::UInt(r.length as u64)),
        ("corr_max_cross", JsonValue::Float(r.max_cross)),
        ("corr_aligned_cross", JsonValue::Float(r.max_aligned_cross)),
        ("corr_auto_sidelobe", JsonValue::Float(r.max_auto_sidelobe)),
        ("corr_mean_cross", JsonValue::Float(r.mean_cross)),
    ]
}

/// One point per (tag count, family), every family of a tag count on the
/// seed `seed_base + n`, with the family's correlation analysis.
fn family_points(families: &[(&str, FamilyKind)], seed_base: u64) -> Vec<CampaignPoint> {
    let mut points = Vec::new();
    for n in 2usize..=5 {
        for &(name, family) in families {
            let mut params = vec![
                ("family", JsonValue::Str(name.to_string())),
                ("n_tags", JsonValue::UInt(n as u64)),
            ];
            params.extend(correlation_params(family));
            points.push(CampaignPoint::new(
                format!("{name}_n{n}"),
                &params,
                move |_| family_engine(family, n, seed_base + n as u64),
            ));
        }
    }
    points
}

/// Fig. 9(b): decode error per PN-code family, Gold-31 vs 2NC-32, for
/// 2–5 concurrent tags. 2NC is dimensioned for 16 users (as for the
/// paper's 10-tag deployment) so both families spread comparably.
pub fn fig9b(tier: Tier) -> Campaign {
    let families = [
        ("gold31", FamilyKind::Gold { degree: 5 }),
        ("2nc32", FamilyKind::TwoNc { users: 16 }),
    ];
    Campaign {
        name: "fig9b",
        paper_ref: "Fig. 9(b), §VII-B.3",
        description: "decode error rate per PN-code family, 2–5 concurrent tags",
        tier: tier.label(),
        replicates: 1,
        rounds: tier.pick(50, 1000),
        points: family_points(&families, 0x916B),
    }
}

/// Fig. 9(c): error rate with vs without Algorithm 1 power control.
///
/// Replicates are deployment groups: replicate `g` of the `pc_on` and
/// `pc_off` points for tag count `n` measures the *same* random
/// deployment, so the arms are paired exactly as in the paper.
pub fn fig9c(tier: Tier) -> Campaign {
    let mut points = Vec::new();
    for &n in &[2usize, 3, 4, 5] {
        for &pc in &[false, true] {
            let arm = if pc { "pc_on" } else { "pc_off" };
            points.push(CampaignPoint::new(
                format!("n{n}_{arm}"),
                &[
                    ("n_tags", JsonValue::UInt(n as u64)),
                    ("power_control", JsonValue::Bool(pc)),
                ],
                move |ctx| {
                    // Deployment pairing: seeds derive from (n, group),
                    // not from ctx.seed — see module docs.
                    let scenario = fig9c_scenario(n, ctx.replicate as u64);
                    let mut engine = Engine::new(scenario).expect("valid fig9c scenario");
                    if pc {
                        power_control(&mut engine, FIG9C_CONTROL_PACKETS);
                    }
                    engine
                },
            ));
        }
    }
    Campaign {
        name: "fig9c",
        paper_ref: "Fig. 9(c), §VII-B.3",
        description: "error rate with vs without Algorithm 1 power control, 2–5 tags",
        tier: tier.label(),
        replicates: tier.pick(3, 50),
        rounds: tier.pick(20, 300),
        points,
    }
}

/// Fig. 10: error rate across random 5-tag deployments with no
/// adaptation, power control, and power control plus node selection.
///
/// Replicates are deployment groups, shared by the three arms; the
/// figure's CDFs are the distributions of each point's replicate FERs.
pub fn fig10(tier: Tier) -> Campaign {
    let rounds = tier.pick(20, 300);
    let per_cycle = control_packets(rounds);
    let points = Fig10Arm::ALL
        .iter()
        .map(|&arm| {
            CampaignPoint::new(
                arm.label(),
                &[("adaptation", JsonValue::Str(arm.label().to_string()))],
                move |ctx| fig10_engine(arm, ctx.replicate as u64, per_cycle),
            )
        })
        .collect();
    Campaign {
        name: "fig10",
        paper_ref: "Fig. 10, §VII-C.1",
        description: "5-tag deployment error rate: none vs power control vs +node selection",
        tier: tier.label(),
        replicates: tier.pick(10, 50),
        rounds,
        points,
    }
}

/// Fig. 11: 2-tag error rate vs tag-2 clock delay.
pub fn fig11(tier: Tier) -> Campaign {
    let delays: Vec<f64> = match tier {
        Tier::Fast => vec![0.0, 0.5, 2.0, 6.0, 8.0, 12.0, 16.0],
        Tier::Full => vec![0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0],
    };
    let points = delays
        .iter()
        .map(|&d| {
            CampaignPoint::new(
                format!("delay_{:05.2}chips", d),
                &[("delay_chips", JsonValue::Float(d))],
                move |ctx| fig11_engine(d, ctx.seed),
            )
        })
        .collect();
    Campaign {
        name: "fig11",
        paper_ref: "Fig. 11, §VII-C.2",
        description: "2-tag error rate vs inter-tag clock delay",
        tier: tier.label(),
        replicates: tier.pick(2, 10),
        rounds: tier.pick(30, 100),
        points,
    }
}

/// Fig. 12: reception rate under the four working conditions.
pub fn fig12(tier: Tier) -> Campaign {
    let points = Fig12Condition::ALL
        .iter()
        .map(|&condition| {
            CampaignPoint::new(
                condition.label().replace(' ', "_"),
                &[("condition", JsonValue::Str(condition.label().to_string()))],
                move |ctx| fig12_engine(condition, ctx.seed),
            )
        })
        .collect();
    Campaign {
        name: "fig12",
        paper_ref: "Fig. 12, §VII-C.3",
        description: "packet reception rate under four working conditions, 3 tags",
        tier: tier.label(),
        replicates: tier.pick(2, 10),
        rounds: tier.pick(30, 100),
        points,
    }
}

/// PHY validation (not a paper figure): bit error rate vs excitation
/// power for 1 and 3 tags; both tag counts share each power's seed.
pub fn phy_ber(tier: Tier) -> Campaign {
    let mut points = Vec::new();
    for &p in &[0.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0] {
        for &n in &[1usize, 3] {
            points.push(CampaignPoint::new(
                format!("pt{p:02.0}dbm_n{n}"),
                &[
                    ("tx_power_dbm", JsonValue::Float(p)),
                    ("n_tags", JsonValue::UInt(n as u64)),
                ],
                move |_| phy_ber_engine(n, p, 0xBE5 + p as u64),
            ));
        }
    }
    Campaign {
        name: "phy_ber",
        paper_ref: "PHY validation (not a paper figure)",
        description: "bit error rate vs excitation power, 1 and 3 concurrent tags",
        tier: tier.label(),
        replicates: 1,
        rounds: tier.pick(30, 600),
        points,
    }
}

/// Ablation: the paper's envelope-first receiver vs the coherent
/// receiver, 1–5 tags, both receivers on one seed per tag count.
pub fn ablation_receiver(tier: Tier) -> Campaign {
    let mut points = Vec::new();
    for n in 1usize..=5 {
        for (name, kind) in [
            ("envelope", DecoderKind::Envelope),
            ("coherent", DecoderKind::Coherent),
        ] {
            points.push(CampaignPoint::new(
                format!("{name}_n{n}"),
                &[
                    ("receiver", JsonValue::Str(name.to_string())),
                    ("n_tags", JsonValue::UInt(n as u64)),
                ],
                move |_| receiver_engine(kind, n, 0xAB1A + n as u64),
            ));
        }
    }
    Campaign {
        name: "ablation_receiver",
        paper_ref: "reproduction extension (§V-B receiver)",
        description: "envelope-first receiver (paper §V-B) vs coherent receiver, 1–5 tags",
        tier: tier.label(),
        replicates: 1,
        rounds: tier.pick(30, 600),
        points,
    }
}

/// Ablation: decode error per code family, Gold-31 vs 2NC-32 vs
/// Kasami-63, for 2–5 concurrent tags.
pub fn ablation_codes(tier: Tier) -> Campaign {
    let families = [
        ("gold31", FamilyKind::Gold { degree: 5 }),
        ("2nc32", FamilyKind::TwoNc { users: 16 }),
        ("kasami63", FamilyKind::Kasami { degree: 6 }),
    ];
    Campaign {
        name: "ablation_codes",
        paper_ref: "reproduction extension (Fig. 9(b) + Kasami)",
        description: "decode error per code family, 2–5 concurrent tags",
        tier: tier.label(),
        replicates: 1,
        rounds: tier.pick(30, 600),
        points: family_points(&families, 0xC0DE),
    }
}

/// Ablation: successive interference cancellation vs tag-side power
/// control on Table II's two-tag axis: no mitigation, SIC, power control
/// and both, the four arms on one seed per difference.
pub fn ablation_sic(tier: Tier) -> Campaign {
    let rounds = tier.pick(30, 600);
    let per_cycle = control_packets(rounds);
    let mut points = Vec::new();
    for &target in &[0.0, 0.5, 0.8, 0.9, 0.95, 0.97] {
        let pair = NearFar::for_difference(target);
        let seed = 0x51C0 + (target * 100.0) as u64;
        for (arm, sic, pc) in [
            ("none", false, false),
            ("sic", true, false),
            ("pc", false, true),
            ("sic_pc", true, true),
        ] {
            points.push(CampaignPoint::new(
                format!("diff{:02.0}pct_{arm}", target * 100.0),
                &[
                    ("target", JsonValue::Float(target)),
                    ("difference", JsonValue::Float(pair.difference())),
                    ("sic", JsonValue::Bool(sic)),
                    ("power_control", JsonValue::Bool(pc)),
                ],
                move |_| {
                    let mut engine = pair.engine(sic, seed);
                    if pc {
                        power_control(&mut engine, per_cycle);
                    }
                    engine
                },
            ));
        }
    }
    Campaign {
        name: "ablation_sic",
        paper_ref: "reproduction extension (SIC vs §V-B power control)",
        description: "2-tag error vs power difference: none / SIC / power control / both",
        tier: tier.label(),
        replicates: 1,
        rounds,
        points,
    }
}

/// Ablation: double- vs single-sideband backscatter (paper footnote 1,
/// ref. \[10\]) for 3 tags at the sensitivity edge, both on one seed per
/// power.
pub fn ablation_sideband(tier: Tier) -> Campaign {
    let mut points = Vec::new();
    for &p in &[-2.0, 0.0, 2.0, 5.0, 8.0, 12.0] {
        for (name, ssb) in [("double", false), ("single", true)] {
            points.push(CampaignPoint::new(
                format!("pt{p:+03.0}dbm_{name}"),
                &[
                    ("tx_power_dbm", JsonValue::Float(p)),
                    ("sideband", JsonValue::Str(name.to_string())),
                ],
                move |_| sideband_engine(p, ssb, 0x55B0 + p as u64),
            ));
        }
    }
    Campaign {
        name: "ablation_sideband",
        paper_ref: "paper footnote 1 / ref. [10]",
        description: "3-tag error vs excitation power: double vs single sideband",
        tier: tier.label(),
        replicates: 1,
        rounds: tier.pick(30, 600),
        points,
    }
}

/// Ablation: 2-tag error vs effective ADC bits, balanced and about 10 dB
/// imbalanced (§VII-A: USRP vs commodity WiFi NIC).
pub fn ablation_quantization(tier: Tier) -> Campaign {
    let mut points = Vec::new();
    for bits in [Some(3), Some(4), Some(5), Some(6), Some(8), Some(12), None] {
        for (name, imbalanced) in [("balanced", false), ("nearfar", true)] {
            let adc = bits.map_or("ideal".to_string(), |b| format!("{b:02}bit"));
            points.push(CampaignPoint::new(
                format!("adc_{adc}_{name}"),
                &[
                    (
                        "adc_bits",
                        bits.map_or(JsonValue::Null, |b| JsonValue::UInt(b as u64)),
                    ),
                    ("imbalanced", JsonValue::Bool(imbalanced)),
                ],
                move |_| adc_engine(bits, imbalanced, 0xADC0),
            ));
        }
    }
    Campaign {
        name: "ablation_quantization",
        paper_ref: "reproduction extension (§VII-A)",
        description: "2-tag error vs effective ADC bits, balanced and ~10 dB imbalanced",
        tier: tier.label(),
        replicates: 1,
        rounds: tier.pick(30, 600),
        points,
    }
}

/// Ablation: post-node-selection error vs the candidate exclusion radius
/// (§V-C motivates λ/2 ≈ 7.5 cm at 2 GHz), six deployments per radius.
pub fn ablation_exclusion(tier: Tier) -> Campaign {
    let rounds = tier.pick(30, 600);
    let per_cycle = control_packets(rounds);
    let points = [0.0, 0.02, 0.05, 0.075, 0.12, 0.2]
        .iter()
        .map(|&radius| {
            CampaignPoint::new(
                format!("r{:04.1}cm", radius * 100.0),
                &[("radius_m", JsonValue::Float(radius))],
                move |ctx| exclusion_engine(radius, per_cycle, 0xE8C1 + ctx.replicate as u64 * 97),
            )
        })
        .collect();
    Campaign {
        name: "ablation_exclusion",
        paper_ref: "paper §V-C (λ/2 exclusion)",
        description: "post-node-selection error vs candidate exclusion radius",
        tier: tier.label(),
        replicates: 6,
        rounds,
        points,
    }
}

/// Ablation: error after Algorithm 1 with a budget of `cap` control
/// cycles (§V-B picks 3 × tags), on a 3-tag deployment with one healthy,
/// one recoverable and one doomed tag; four deployments per cap. The
/// doomed tag keeps the loop from settling, so every run spends exactly
/// `cap` cycles.
pub fn ablation_cycle_cap(tier: Tier) -> Campaign {
    let rounds = tier.pick(20, 400);
    let per_cycle = control_packets(rounds);
    let points = [1usize, 2, 3, 6, 9, 18, 36]
        .iter()
        .map(|&cap| {
            CampaignPoint::new(
                format!("cap{cap:02}"),
                &[("cap", JsonValue::UInt(cap as u64))],
                move |ctx| cycle_cap_engine(cap, per_cycle, 0xCAB0 + ctx.replicate as u64 * 131),
            )
        })
        .collect();
    Campaign {
        name: "ablation_cycle_cap",
        paper_ref: "paper §V-B (cap = 3 × tags)",
        description: "3-tag error vs power-control cycle budget",
        tier: tier.label(),
        replicates: 4,
        rounds,
        points,
    }
}

/// All built-in campaign names, in suite order.
pub const CAMPAIGN_NAMES: [&str; 18] = [
    "table2",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig10",
    "fig11",
    "fig12",
    "phy_ber",
    "ablation_receiver",
    "ablation_codes",
    "ablation_sic",
    "ablation_sideband",
    "ablation_quantization",
    "ablation_exclusion",
    "ablation_cycle_cap",
];

/// Builds a campaign by name at the given tier.
pub fn by_name(name: &str, tier: Tier) -> Option<Campaign> {
    let build = match name {
        "table2" => table2,
        "fig8a" => fig8a,
        "fig8b" => fig8b,
        "fig8c" => fig8c,
        "fig9a" => fig9a,
        "fig9b" => fig9b,
        "fig9c" => fig9c,
        "fig10" => fig10,
        "fig11" => fig11,
        "fig12" => fig12,
        "phy_ber" => phy_ber,
        "ablation_receiver" => ablation_receiver,
        "ablation_codes" => ablation_codes,
        "ablation_sic" => ablation_sic,
        "ablation_sideband" => ablation_sideband,
        "ablation_quantization" => ablation_quantization,
        "ablation_exclusion" => ablation_exclusion,
        "ablation_cycle_cap" => ablation_cycle_cap,
        _ => return None,
    };
    Some(build(tier))
}

/// Builds the full suite at the given tier.
pub fn all(tier: Tier) -> Vec<Campaign> {
    CAMPAIGN_NAMES
        .iter()
        .map(|name| by_name(name, tier).expect("built-in name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::JobCtx;
    use crate::runner::job_seed;

    #[test]
    fn all_builtins_validate_on_both_tiers() {
        for tier in [Tier::Fast, Tier::Full] {
            let suite = all(tier);
            assert_eq!(suite.len(), CAMPAIGN_NAMES.len());
            for (c, name) in suite.iter().zip(CAMPAIGN_NAMES) {
                c.validate().unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(c.name, name);
                assert_eq!(c.tier, tier.label());
            }
        }
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("fig99", Tier::Fast).is_none());
        assert!(by_name("fig8a", Tier::Fast).is_some());
    }

    #[test]
    fn fast_tier_is_smaller_than_full() {
        for name in CAMPAIGN_NAMES {
            let fast = by_name(name, Tier::Fast).unwrap();
            let full = by_name(name, Tier::Full).unwrap();
            assert!(fast.job_count() * fast.rounds < full.job_count() * full.rounds);
        }
    }

    /// Campaigns whose arms compare systems on one deployment, with the
    /// params that fix the deployment. Points that agree on those params
    /// are sibling arms and must build the same deployment.
    const PAIRED: [(&str, &[&str]); 7] = [
        ("fig9b", &["n_tags"]),
        ("fig9c", &["n_tags"]),
        ("fig10", &[]),
        ("ablation_receiver", &["n_tags"]),
        ("ablation_codes", &["n_tags"]),
        ("ablation_sic", &["target"]),
        ("ablation_sideband", &["tx_power_dbm"]),
    ];

    /// Replicates checked per campaign: an adapting arm runs its control
    /// loop in the builder, and two replicates already show whether the
    /// deployment follows the replicate.
    const REPLICATES_CHECKED: usize = 2;

    #[test]
    fn sibling_arms_measure_the_same_deployment() {
        for (name, deployment_params) in PAIRED {
            let c = by_name(name, Tier::Fast).unwrap();
            let mut groups: std::collections::BTreeMap<String, Vec<&CampaignPoint>> =
                Default::default();
            for p in &c.points {
                let key: Vec<String> = p
                    .params
                    .iter()
                    .filter(|(k, _)| deployment_params.contains(&k.as_str()))
                    .map(|(k, v)| format!("{k}={}", v.to_json()))
                    .collect();
                groups.entry(key.join(",")).or_default().push(p);
            }
            assert!(
                groups.values().all(|g| g.len() >= 2),
                "{name}: every point has a sibling arm"
            );
            for replicate in 0..c.replicates.min(REPLICATES_CHECKED) {
                for siblings in groups.values() {
                    // Each arm gets the job seed the runner would hand
                    // it, which differs per label: an arm that seeded
                    // from it would leave its siblings' deployment.
                    let engines: Vec<Engine> = siblings
                        .iter()
                        .map(|p| {
                            (p.builder)(JobCtx {
                                seed: job_seed(0xCB3A, c.name, &p.label, replicate),
                                replicate,
                            })
                        })
                        .collect();
                    // The scenario keeps the deployment's positions even
                    // after node selection moves a tag.
                    let first = engines[0].scenario();
                    for (e, p) in engines.iter().zip(siblings).skip(1) {
                        let at = format!("{name} {} replicate {replicate}", p.label);
                        assert_eq!(e.scenario().seed, first.seed, "{at}");
                        assert_eq!(e.scenario().tag_positions, first.tag_positions, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn fig8a_grid_covers_tag_counts_and_distances() {
        let c = fig8a(Tier::Fast);
        assert_eq!(c.points.len(), 12);
        let ctx = JobCtx {
            seed: 3,
            replicate: 0,
        };
        let e = (c.points[0].builder)(ctx);
        assert_eq!(e.scenario().n_tags(), 2);
    }
}
