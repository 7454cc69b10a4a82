//! Plane geometry for vehicle positions and AP sites (metres).

use core::fmt;
use core::ops::{Add, Mul, Sub};

/// A point (or vector) in the plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East coordinate, m.
    pub x: f64,
    /// North coordinate, m.
    pub y: f64,
}

impl Point {
    /// The origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Construct from coordinates.
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared distance (avoids the sqrt in comparisons).
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Dot product.
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point {
            x: self.x * rhs,
            y: self.y * rhs,
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// Intersection of the segment `a→b` (parameterized by `t ∈ [0, 1]`) with a
/// circle of radius `r` around `c`: the sub-interval of `t` inside the
/// circle, if any.
pub fn segment_circle_overlap(a: Point, b: Point, c: Point, r: f64) -> Option<(f64, f64)> {
    let d = b - a; // direction
    let f = a - c; // from centre to start
    let qa = d.dot(d);
    if qa == 0.0 {
        // Degenerate segment: a point.
        return (a.distance(c) <= r).then_some((0.0, 1.0));
    }
    let qb = 2.0 * f.dot(d);
    let qc = f.dot(f) - r * r;
    let disc = qb * qb - 4.0 * qa * qc;
    if disc < 0.0 {
        return None;
    }
    let sqrt_disc = disc.sqrt();
    let t0 = (-qb - sqrt_disc) / (2.0 * qa);
    let t1 = (-qb + sqrt_disc) / (2.0 * qa);
    let lo = t0.max(0.0);
    let hi = t1.min(1.0);
    (lo < hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, 10.0));
    }

    #[test]
    fn segment_through_circle() {
        // Horizontal segment passing straight through a circle at origin.
        let a = Point::new(-10.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let (lo, hi) = segment_circle_overlap(a, b, Point::ORIGIN, 5.0).unwrap();
        assert!((lo - 0.25).abs() < 1e-9);
        assert!((hi - 0.75).abs() < 1e-9);
    }

    #[test]
    fn segment_missing_circle() {
        let a = Point::new(-10.0, 8.0);
        let b = Point::new(10.0, 8.0);
        assert!(segment_circle_overlap(a, b, Point::ORIGIN, 5.0).is_none());
    }

    #[test]
    fn segment_starting_inside() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(20.0, 0.0);
        let (lo, hi) = segment_circle_overlap(a, b, Point::ORIGIN, 5.0).unwrap();
        assert_eq!(lo, 0.0);
        assert!((hi - 0.25).abs() < 1e-9);
    }

    #[test]
    fn tangent_grazing_is_empty() {
        // Line tangent at distance exactly r: zero-width interval → None.
        let a = Point::new(-10.0, 5.0);
        let b = Point::new(10.0, 5.0);
        assert!(segment_circle_overlap(a, b, Point::ORIGIN, 5.0).is_none());
    }

    #[test]
    fn degenerate_point_segment() {
        let p = Point::new(1.0, 1.0);
        assert!(segment_circle_overlap(p, p, Point::ORIGIN, 5.0).is_some());
        assert!(segment_circle_overlap(p, p, Point::ORIGIN, 0.5).is_none());
    }
}
