//! 2-D geometry for deployment scenarios.
//!
//! The paper's experiments place the excitation source at (−D, 0), the
//! receiver at (D, 0) and tags at arbitrary positions in a 4 m × 6 m office
//! (§IV, §VII-A). All placement logic in `cbma-sim` and the node-selection
//! scheme in `cbma-mac` work on these types.
//!
//! # Examples
//!
//! ```
//! use cbma_types::geometry::{Point, Rect};
//!
//! let room = Rect::new(Point::new(-2.0, -3.0), Point::new(2.0, 3.0));
//! assert!(room.contains(Point::new(0.0, 0.0)));
//! assert!(!room.contains(Point::new(5.0, 0.0)));
//! ```

use std::fmt;
use std::ops::{Add, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A point (or displacement) in the 2-D deployment plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)` — the paper's coordinate-system center (§IV).
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from meter coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Creates a point from centimeter coordinates, matching the paper's
    /// centimeter-denominated distances (e.g. D = 50 cm).
    #[inline]
    pub const fn from_cm(x_cm: f64, y_cm: f64) -> Point {
        Point {
            x: x_cm / 100.0,
            y: y_cm / 100.0,
        }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance_to(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared distance (avoids the square root when only comparisons are
    /// needed, e.g. the node-selection exclusion radius test).
    #[inline]
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector length interpreted as a displacement from the origin.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Returns a unit-length copy; returns the zero vector unchanged.
    #[inline]
    pub fn normalized(self) -> Point {
        let n = self.norm();
        if n == 0.0 {
            self
        } else {
            Point::new(self.x / n, self.y / n)
        }
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3} m, {:.3} m)", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}
impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}
impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

/// An axis-aligned rectangle, used as the room boundary for deployments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    #[inline]
    pub fn new(a: Point, b: Point) -> Rect {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The paper's office: 4 m × 6 m centered on the origin (§VII-A).
    #[inline]
    pub fn office() -> Rect {
        Rect::new(Point::new(-2.0, -3.0), Point::new(2.0, 3.0))
    }

    /// Minimum (bottom-left) corner.
    #[inline]
    pub fn min(&self) -> Point {
        self.min
    }

    /// Maximum (top-right) corner.
    #[inline]
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width along X in meters.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along Y in meters.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Whether `p` lies inside (inclusive of the boundary).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` to the rectangle.
    #[inline]
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        assert!((b.distance_to(a) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn from_cm_matches_paper_layout() {
        // ES at (-D, 0), RX at (D, 0) with D = 50cm (§IV).
        let es = Point::from_cm(-50.0, 0.0);
        let rx = Point::from_cm(50.0, 0.0);
        assert!((es.distance_to(rx) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vector_ops() {
        let p = Point::new(1.0, 2.0) + Point::new(3.0, -1.0);
        assert_eq!(p, Point::new(4.0, 1.0));
        assert_eq!(p - Point::new(4.0, 0.0), Point::new(0.0, 1.0));
        assert_eq!(Point::new(1.0, -2.0) * 2.0, Point::new(2.0, -4.0));
    }

    #[test]
    fn normalized_unit_length() {
        let p = Point::new(3.0, 4.0).normalized();
        assert!((p.norm() - 1.0).abs() < 1e-12);
        assert_eq!(Point::ORIGIN.normalized(), Point::ORIGIN);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(1.0, 2.0));
    }

    #[test]
    fn rect_contains_and_clamp() {
        let r = Rect::office();
        assert!((r.width() - 4.0).abs() < 1e-12);
        assert!((r.height() - 6.0).abs() < 1e-12);
        assert_eq!(r.center(), Point::ORIGIN);
        assert!(r.contains(Point::new(2.0, 3.0)));
        assert!(!r.contains(Point::new(2.1, 0.0)));
        assert_eq!(r.clamp(Point::new(10.0, -10.0)), Point::new(2.0, -3.0));
    }

    #[test]
    fn rect_corner_order_is_normalized() {
        let r = Rect::new(Point::new(1.0, 5.0), Point::new(-1.0, -5.0));
        assert_eq!(r.min(), Point::new(-1.0, -5.0));
        assert_eq!(r.max(), Point::new(1.0, 5.0));
    }
}
