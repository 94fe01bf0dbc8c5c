//! Pins the receiver's decisions on a seeded corpus of captures.
//!
//! Engines at fixed seeds run paper4 rounds (4 tags, SIC off) and dense10
//! rounds (10 tags at full power, two SIC passes), and one FNV-1a 64
//! digest covers every round's report: each user's code, start, outcome
//! kind, payload and decoded bits, the ACK set, and the candidate, probe,
//! alias and SIC counts. A receiver change that is meant to keep every
//! decision must leave the digest pinned below. The decode work counters
//! (`decode_failures`, `decodes`) stay out of it: a change that skips a
//! decode which decides nothing moves them and nothing else.

use cbma::prelude::*;
use cbma::rx::{DecodeOutcome, RxReport};
use cbma::tag::ImpedanceState;

/// The digest of the corpus below, computed with the receiver that still
/// decoded every candidate and rebuilt each cancelled user's envelope.
const PINNED: u64 = 0x7b21_216f_593b_fb2f;

/// FNV-1a 64 over the bytes it is fed.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn num(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    fn report(&mut self, report: &RxReport) {
        let t = &report.telemetry;
        self.num(usize::from(report.frame_detected));
        self.num(report.users.len());
        for user in &report.users {
            self.num(user.detection.code_index);
            self.num(user.detection.start);
            match &user.outcome {
                DecodeOutcome::Frame(frame) => {
                    self.bytes(b"F");
                    self.num(frame.payload().len());
                    self.bytes(frame.payload());
                }
                DecodeOutcome::Invalid(error) => self.bytes(format!("I{error:?}").as_bytes()),
                DecodeOutcome::Truncated => self.bytes(b"T"),
                DecodeOutcome::Alias => self.bytes(b"A"),
            }
            match &user.bits {
                Some(bits) => {
                    self.num(bits.len());
                    self.bytes(bits.as_slice());
                }
                None => self.bytes(b"-"),
            }
        }
        let ack: Vec<u32> = report.ack.iter().collect();
        self.num(ack.len());
        for id in ack {
            self.num(id as usize);
        }
        for count in [
            t.candidates_evaluated,
            t.probes_attempted,
            t.aliases_suppressed,
            t.sic_iterations,
            t.sic_recovered,
        ] {
            self.num(count);
        }
    }
}

/// The 4-tag paper deployment: seed-drawn boot impedances, SIC off.
fn paper4(seed: u64) -> Engine {
    let scenario = Scenario::paper_default(vec![
        Point::new(0.0, 0.35),
        Point::new(0.25, -0.40),
        Point::new(-0.30, 0.45),
        Point::new(0.40, 0.55),
    ])
    .with_seed(seed);
    Engine::new(scenario).unwrap()
}

/// The paper's 10-tag maximum at balanced positions (mirrored across both
/// axes), at full power with two SIC passes.
fn dense10(seed: u64) -> Engine {
    let positions = vec![
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
    let mut scenario = Scenario::paper_default(positions).with_seed(seed);
    scenario.rx_config.sic_passes = 2;
    let mut engine = Engine::new(scenario).unwrap();
    for tag in engine.tags_mut() {
        tag.set_impedance(ImpedanceState::Open);
    }
    engine
}

#[test]
fn receiver_decisions_match_the_pinned_digest() {
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut delivered, mut sic_recovered) = (0, 0);
    for seed in 1..=4 {
        for (mut engine, rounds) in [(paper4(seed), 8), (dense10(seed), 6)] {
            for _ in 0..rounds {
                let outcome = engine.run_round();
                digest.report(&outcome.report);
                delivered += outcome.delivered.len();
                sic_recovered += outcome.report.telemetry.sic_recovered;
            }
        }
    }
    // The corpus exercises what the digest pins: decoded frames and SIC
    // recoveries.
    assert!(
        delivered > 0 && sic_recovered > 0,
        "{delivered} {sic_recovered}"
    );
    assert_eq!(
        digest.0, PINNED,
        "receiver decisions moved: digest {:#018x}",
        digest.0
    );
}
