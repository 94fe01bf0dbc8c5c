//! Integration: the full pipeline from tag framing to receiver ACK.

use cbma::prelude::*;

fn line_positions(n: usize) -> Vec<Point> {
    // Alternating above/below the ES–RX axis, comfortably separated.
    (0..n)
        .map(|i| {
            let y = 0.4 + 0.15 * (i / 2) as f64;
            Point::new(0.0, if i % 2 == 0 { y } else { -y })
        })
        .collect()
}

fn balanced_ten() -> Vec<Point> {
    // Positions mirrored across both axes share the same d1²·d2² product,
    // so all ten links are within ~2 dB of each other.
    vec![
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
    ]
}

fn full_power(engine: &mut Engine) {
    for tag in engine.tags_mut() {
        tag.set_impedance(ImpedanceState::Open);
    }
}

#[test]
fn single_tag_delivers_every_frame_on_clean_channel() {
    let mut engine = Engine::new(Scenario::clean(line_positions(1))).unwrap();
    let stats = engine.run_rounds(15);
    assert_eq!(stats.fer(), 0.0);
    assert_eq!(stats.total_delivered(), 15);
}

#[test]
fn five_tags_collide_and_mostly_deliver() {
    // A balanced-link subset (shared d1²·d2² products) — the line
    // geometry's power spread is the near-far case tested elsewhere.
    let mut engine = Engine::new(Scenario::paper_default(balanced_ten()[..5].to_vec())).unwrap();
    full_power(&mut engine);
    let stats = engine.run_rounds(20);
    assert!(
        stats.fer() < 0.25,
        "5-tag collision FER {} too high",
        stats.fer()
    );
}

#[test]
fn ten_tags_collide_concurrently() {
    let mut engine = Engine::new(Scenario::paper_default(balanced_ten())).unwrap();
    full_power(&mut engine);
    let stats = engine.run_rounds(10);
    // Ten concurrent tags are the paper's headline configuration; most
    // frames must get through in a benign geometry.
    assert!(
        stats.fer() < 0.35,
        "10-tag collision FER {} too high",
        stats.fer()
    );
    // Aggregate modulated rate approaches n_tags × chip rate.
    let agg = stats.aggregate_symbol_rate(&engine.scenario().phy).get();
    assert!(agg > 6.5e6, "aggregate rate {agg} too low");
}

#[test]
fn decoded_payloads_match_what_tags_sent() {
    let mut engine = Engine::new(Scenario::clean(line_positions(3))).unwrap();
    full_power(&mut engine);
    for round in 0..5u64 {
        let expected: Vec<Vec<u8>> = (0..3).map(|i| engine.payload_for(i, round)).collect();
        let outcome = engine.run_round();
        for (id, frame) in outcome.report.frames() {
            assert_eq!(
                frame.payload(),
                expected[id].as_slice(),
                "round {round} tag {id} payload corrupted"
            );
        }
        assert!(outcome.all_delivered(), "round {round}: {outcome:?}");
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed| {
        let mut engine =
            Engine::new(Scenario::paper_default(line_positions(4)).with_seed(seed)).unwrap();
        (0..8)
            .map(|_| engine.run_round().delivered)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn gold_codes_also_work_end_to_end() {
    let scenario = Scenario::paper_default(line_positions(3)).with_gold_codes(5);
    let mut engine = Engine::new(scenario).unwrap();
    full_power(&mut engine);
    let stats = engine.run_rounds(15);
    assert!(stats.fer() < 0.4, "gold-code FER {}", stats.fer());
}

#[test]
fn subset_transmissions_are_detected_exactly() {
    let mut engine = Engine::new(Scenario::clean(line_positions(6))).unwrap();
    full_power(&mut engine);
    let outcome = engine.run_round_subset(&[1, 4]);
    assert_eq!(outcome.delivered, vec![1, 4]);
    // Inactive tags must not be acknowledged.
    for id in [0u32, 2, 3, 5] {
        assert!(!outcome.report.ack.acknowledges(id));
    }
}

/// The 4-tag paper deployment: seed-drawn boot impedances, SIC off.
fn paper4_positions() -> Vec<Point> {
    vec![
        Point::new(0.0, 0.35),
        Point::new(0.25, -0.40),
        Point::new(-0.30, 0.45),
        Point::new(0.40, 0.55),
    ]
}

#[test]
fn reused_round_buffers_never_leak_into_a_capture() {
    // Two same-seed engines: one hands every capture to its outcome from
    // round 0, so it never refills a capture buffer; the other refills
    // the engine's own capture for rounds 0..K and only then keeps it.
    // Round K must read the same samples and decide the same way.
    const K: usize = 4;
    let paper4 = Scenario::paper_default(paper4_positions()).with_seed(7);
    let mut dense10 = Scenario::paper_default(balanced_ten()).with_seed(7);
    dense10.rx_config.sic_passes = 2;
    for (name, scenario, open) in [("paper4", paper4, false), ("dense10", dense10, true)] {
        let mut fresh = Engine::new(scenario.clone()).unwrap();
        let mut reused = Engine::new(scenario).unwrap();
        if open {
            full_power(&mut fresh);
            full_power(&mut reused);
        }
        fresh.set_capture_iq(true);
        // Whether SIC rebuilt some user's envelope in its reused buffer.
        let mut cancelled = false;
        for round in 0..K {
            let (a, b) = (fresh.run_round(), reused.run_round());
            assert_eq!(a.report, b.report, "{name} round {round}");
            assert!(b.iq.is_none());
            cancelled |= a.report.telemetry.sic_residual_energy > 0.0;
        }
        reused.set_capture_iq(true);
        let (a, b) = (fresh.run_round(), reused.run_round());
        cancelled |= a.report.telemetry.sic_residual_energy > 0.0;
        let (a_iq, b_iq) = (a.iq.unwrap(), b.iq.unwrap());
        assert_eq!(a_iq.len(), b_iq.len(), "{name}");
        for (k, (x, y)) in a_iq.iter().zip(&b_iq).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{name} round {K} sample {k}: {x:?} vs {y:?}"
            );
        }
        assert_eq!(a.report, b.report, "{name} round {K}");
        assert_eq!(
            (a.active, a.delivered, a.bit_errors),
            (b.active, b.delivered, b.bit_errors),
            "{name} round {K}"
        );
        assert_eq!(cancelled, open, "{name}: SIC cancelled a user: {cancelled}");
    }
}
