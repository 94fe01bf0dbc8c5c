//! Random tag placement.
//!
//! The evaluation repeatedly draws "random positions for tags" inside the
//! office (§VII-B.3: "we generate 50 groups of random positions"). The
//! generator supports a minimum pairwise separation so experiments can
//! choose whether the λ/2 coupling regime is part of the draw.

use rand::Rng;

use cbma_types::geometry::{Point, Rect};

/// Draws `n` uniform positions inside `room`, optionally enforcing a
/// minimum pairwise separation (meters). Falls back to accepting a
/// violating point after 1000 rejected attempts so pathological
/// configurations cannot loop forever.
///
/// # Panics
///
/// Panics if `min_separation` is negative.
pub fn random_positions<R: Rng + ?Sized>(
    rng: &mut R,
    room: Rect,
    n: usize,
    min_separation: f64,
) -> Vec<Point> {
    assert!(min_separation >= 0.0, "separation must be non-negative");
    let mut points: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut attempts = 0;
        loop {
            let candidate = Point::new(
                rng.gen_range(room.min().x..=room.max().x),
                rng.gen_range(room.min().y..=room.max().y),
            );
            let ok = min_separation == 0.0
                || points
                    .iter()
                    .all(|p| p.distance_to(candidate) >= min_separation);
            attempts += 1;
            if ok || attempts > 1000 {
                points.push(candidate);
                break;
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn positions_stay_inside_the_room() {
        let mut rng = StdRng::seed_from_u64(1);
        let room = Rect::office();
        for p in random_positions(&mut rng, room, 100, 0.0) {
            assert!(room.contains(p), "{p} escaped the room");
        }
    }

    #[test]
    fn separation_is_enforced() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts = random_positions(&mut rng, Rect::office(), 10, 0.5);
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                assert!(pts[i].distance_to(pts[j]) >= 0.5, "tags {i},{j} too close");
            }
        }
    }

    #[test]
    fn impossible_separation_still_terminates() {
        let mut rng = StdRng::seed_from_u64(3);
        // 50 tags at 5 m separation cannot fit in a 4×6 room; the
        // fallback must still return 50 points.
        let pts = random_positions(&mut rng, Rect::office(), 50, 5.0);
        assert_eq!(pts.len(), 50);
    }

    #[test]
    fn draws_are_seeded() {
        let a = random_positions(&mut StdRng::seed_from_u64(7), Rect::office(), 5, 0.0);
        let b = random_positions(&mut StdRng::seed_from_u64(7), Rect::office(), 5, 0.0);
        assert_eq!(a, b);
    }
}
