//! Integration: reproduction extensions — grouping, SIC, sideband,
//! faults, mobility.

use cbma::mac::{AccessScheme, GroupPlan, GroupedCbmaAccess};
use cbma::prelude::*;
use rand::SeedableRng;

fn balanced(n: usize) -> Vec<Point> {
    let full = [
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
    full[..n].to_vec()
}

#[test]
fn grouped_access_serves_more_tags_than_codes_would() {
    // 8 tags, groups of 4, rotating: every tag ships frames.
    let scenario = Scenario::paper_default(balanced(8));
    let mut engine = Engine::new(scenario).unwrap();
    for t in engine.tags_mut() {
        t.set_impedance(ImpedanceState::Open);
    }
    let plan = GroupPlan::round_robin(8, 4);
    let mut access = GroupedCbmaAccess::new(plan, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for _ in 0..8 {
        let tx: Vec<usize> = access
            .next_slot(&mut rng)
            .into_iter()
            .map(|t| t as usize)
            .collect();
        engine.run_round_subset(&tx);
    }
    // No starvation: the rotation gives every tag identical airtime.
    for (i, tag) in engine.tags().iter().enumerate() {
        assert_eq!(tag.packets_sent(), 4, "tag {i} starved");
    }
    // And the aggregate channel is healthy (individual tags may fade).
    let delivered: u64 = engine.tags().iter().map(|t| t.acks_received()).sum();
    assert!(
        delivered >= 8 * 4 / 2,
        "grouped rotation delivered only {delivered} of 32 frames"
    );
}

#[test]
fn sic_improves_a_near_far_deployment_end_to_end() {
    // A strong tag close to the RX and a weak one far away.
    let positions = vec![Point::new(0.3, 0.2), Point::new(-0.3, 1.4)];
    let base = Scenario::paper_default(positions).with_seed(42);

    let fer_of = |sic: usize| {
        let mut s = base.clone();
        s.rx_config.sic_passes = sic;
        let mut e = Engine::new(s).unwrap();
        for t in e.tags_mut() {
            t.set_impedance(ImpedanceState::Open);
        }
        e.run_rounds(25).fer()
    };
    let without = fer_of(0);
    let with = fer_of(2);
    assert!(with <= without, "SIC must not hurt: {without} -> {with}");
}

#[test]
fn single_sideband_extends_range() {
    // At a marginal excitation power, SSB's 3 dB decides decodability.
    let mk = |ssb: bool| {
        let mut s = Scenario::paper_default(balanced(2)).with_seed(7);
        s.link = s.link.with_tx_power(Dbm::new(3.0));
        s.noise = NoiseModel::new(Db::new(6.0), Dbm::new(-73.0));
        if ssb {
            s.link = s.link.with_single_sideband();
        }
        let mut e = Engine::new(s).unwrap();
        for t in e.tags_mut() {
            t.set_impedance(ImpedanceState::Open);
        }
        e.run_rounds(25).fer()
    };
    let dsb = mk(false);
    let ssb = mk(true);
    assert!(
        ssb <= dsb,
        "single sideband should not lose to double: dsb {dsb}, ssb {ssb}"
    );
}

#[test]
fn mobility_alleviates_a_coupled_pair() {
    // §VIII-D: "if the tag is moving, the starvation problem can be
    // alleviated." Two tags start 2 cm apart (deep mutual coupling); a
    // random walk separates them over time.
    let mut s =
        Scenario::paper_default(vec![Point::new(0.0, 0.30), Point::new(0.02, 0.30)]).with_seed(2);
    s.mobility = Some(MobilityModel::new(
        0.06,
        Rect::new(Point::new(-0.8, -0.8), Point::new(0.8, 0.8)),
    ));
    let mut engine = Engine::new(s).unwrap();
    for t in engine.tags_mut() {
        t.set_impedance(ImpedanceState::Open);
    }
    let early = engine.run_rounds(12).fer();
    engine.run_rounds(20); // keep walking
    let late = engine.run_rounds(12).fer();
    // Once separated beyond λ/2 the coupling penalty disappears; allow
    // for channel randomness but expect a real improvement.
    assert!(
        late <= early,
        "mobility should decouple the pair: early {early}, late {late}"
    );
    let d = engine.tags()[0]
        .position()
        .distance_to(engine.tags()[1].position());
    assert!(d > 0.075, "tags still inside the coupling radius: {d} m");
}

#[test]
fn faulty_deployment_keeps_running() {
    let mut s = Scenario::paper_default(balanced(4)).with_seed(9);
    s.faults = FaultPlan::none().with_dead_tag(2, 5).with_ack_loss(0.2);
    let mut engine = Engine::new(s).unwrap();
    for t in engine.tags_mut() {
        t.set_impedance(ImpedanceState::Open);
    }
    let stats = engine.run_rounds(12);
    // The dead tag stops counting after round 5; the rest keep working.
    assert_eq!(engine.tags()[2].packets_sent(), 5);
    assert!(stats.ack_ratios()[0] > 0.5);
    // ACK loss shows up as tags hearing fewer ACKs than were delivered.
    let heard: u64 = engine.tags().iter().map(|t| t.acks_received()).sum();
    assert!(heard <= stats.total_delivered());
}
