//! Circles and circle–circle intersections.
//!
//! The paper models every access point's coverage as a disc (its "maximum
//! coverage area", Section III-C); all three localization algorithms are
//! built from the pairwise intersection geometry implemented here.

use crate::{Point, Vec2, EPS};
use std::fmt;

/// A circle (and, in disc contexts, the closed disc it bounds).
///
/// # Example
///
/// ```
/// use marauder_geo::{Circle, Point};
/// let c = Circle::new(Point::new(0.0, 0.0), 2.0);
/// assert!(c.contains(Point::new(1.0, 1.0)));
/// assert!(!c.contains(Point::new(2.0, 2.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius, must be non-negative and finite.
    pub radius: f64,
}

/// Relationship between two circles, as classified by
/// [`Circle::classify_pair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CirclePair {
    /// The discs share no point: `d > r₁ + r₂`.
    Disjoint,
    /// The boundaries cross in two points.
    Crossing,
    /// Disc 1 lies inside disc 2 (boundaries may touch).
    FirstInsideSecond,
    /// Disc 2 lies inside disc 1 (boundaries may touch).
    SecondInsideFirst,
    /// The circles coincide within tolerance.
    Coincident,
}

impl Circle {
    /// Creates a circle from a center and radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative, NaN, or infinite — coverage radii in
    /// the attack are always finite physical distances.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "circle radius must be finite and non-negative, got {radius}"
        );
        Circle { center, radius }
    }

    /// The unit circle at the origin.
    pub fn unit() -> Self {
        Circle::new(Point::ORIGIN, 1.0)
    }

    /// Area of the disc, `πr²`.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Returns `true` when `p` lies in the closed disc.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// Returns `true` when `p` lies in the disc enlarged by the crate
    /// tolerance — useful when testing points constructed on the boundary.
    #[inline]
    pub fn contains_with_tolerance(&self, p: Point, tol: f64) -> bool {
        self.center.distance(p) <= self.radius + tol
    }

    /// Returns `true` when the whole disc `other` lies inside `self`
    /// (boundaries may touch).
    #[inline]
    pub fn contains_circle(&self, other: &Circle) -> bool {
        self.center.distance(other.center) + other.radius <= self.radius + EPS
    }

    /// The point on the circle at `angle` radians from the +x axis.
    #[inline]
    pub fn point_at(&self, angle: f64) -> Point {
        self.center + Vec2::from_angle(angle) * self.radius
    }

    /// Classifies the geometric relationship between two discs.
    pub fn classify_pair(&self, other: &Circle) -> CirclePair {
        let d = self.center.distance(other.center);
        if d <= EPS && (self.radius - other.radius).abs() <= EPS {
            CirclePair::Coincident
        } else if d > self.radius + other.radius + EPS {
            CirclePair::Disjoint
        } else if d + self.radius <= other.radius + EPS {
            CirclePair::FirstInsideSecond
        } else if d + other.radius <= self.radius + EPS {
            CirclePair::SecondInsideFirst
        } else {
            CirclePair::Crossing
        }
    }

    /// Intersection points of two circle *boundaries*.
    ///
    /// Returns zero, one (tangent), or two points. Coincident circles
    /// return an empty vector (infinitely many common points is treated as
    /// "no usable vertex" — the M-Loc vertex set draws nothing from such a
    /// pair).
    pub fn intersection_points(&self, other: &Circle) -> Vec<Point> {
        let mut out = [Point::ORIGIN; 2];
        let n = self.intersection_into(other, &mut out);
        out[..n].to_vec()
    }

    /// Allocation-free variant of
    /// [`intersection_points`](Self::intersection_points): writes up to
    /// two points into `out` and returns how many are valid. The hot
    /// disc-intersection construction calls this once per overlapping
    /// pair, where a per-pair `Vec` would dominate the cost.
    pub fn intersection_into(&self, other: &Circle, out: &mut [Point; 2]) -> usize {
        let d = self.center.distance(other.center);
        if d <= EPS {
            return 0; // concentric (coincident or nested)
        }
        let (r1, r2) = (self.radius, other.radius);
        if d > r1 + r2 || d < (r1 - r2).abs() {
            return 0;
        }
        // Distance from self.center to the chord's midpoint, along the
        // center line.
        let a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d);
        let h_sq = r1 * r1 - a * a;
        let dir = (other.center - self.center) / d;
        let mid = self.center + dir * a;
        if h_sq <= EPS * EPS {
            out[0] = mid; // tangent
            return 1;
        }
        let h = h_sq.sqrt();
        let off = dir.perp() * h;
        out[0] = mid + off;
        out[1] = mid - off;
        2
    }

    /// Exact area of the intersection of two discs (the "lens").
    ///
    /// This is `A(C₁₂)` of the paper's Theorem 3 proof (eq. 37). Returns
    /// `0` for disjoint discs and the full smaller-disc area when one disc
    /// contains the other.
    pub fn lens_area(&self, other: &Circle) -> f64 {
        let d = self.center.distance(other.center);
        let (r, s) = (self.radius, other.radius);
        if d >= r + s {
            return 0.0;
        }
        if d + r <= s {
            return self.area();
        }
        if d + s <= r {
            return other.area();
        }
        let alpha = ((d * d + r * r - s * s) / (2.0 * d * r)).clamp(-1.0, 1.0);
        let beta = ((d * d + s * s - r * r) / (2.0 * d * s)).clamp(-1.0, 1.0);
        let t1 = r * r * alpha.acos();
        let t2 = s * s * beta.acos();
        let under = ((r + s) * (r + s) - d * d) * (d * d - (r - s) * (r - s));
        let t3 = 0.5 * under.max(0.0).sqrt();
        t1 + t2 - t3
    }
}

impl fmt::Display for Circle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Circle[{} r={:.3}]", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    #[should_panic(expected = "radius must be finite")]
    fn negative_radius_panics() {
        let _ = Circle::new(Point::ORIGIN, -1.0);
    }

    #[test]
    fn containment() {
        let circle = c(0.0, 0.0, 2.0);
        assert!(circle.contains(Point::new(2.0, 0.0))); // boundary point
        assert!(circle.contains(Point::ORIGIN));
        assert!(!circle.contains(Point::new(2.0, 0.1)));
        assert!(circle.contains_circle(&c(0.5, 0.0, 1.0)));
        assert!(!circle.contains_circle(&c(1.5, 0.0, 1.0)));
    }

    #[test]
    fn classify_all_cases() {
        let a = c(0.0, 0.0, 1.0);
        assert_eq!(a.classify_pair(&c(3.0, 0.0, 1.0)), CirclePair::Disjoint);
        assert_eq!(a.classify_pair(&c(1.0, 0.0, 1.0)), CirclePair::Crossing);
        assert_eq!(
            a.classify_pair(&c(0.1, 0.0, 3.0)),
            CirclePair::FirstInsideSecond
        );
        assert_eq!(
            c(0.1, 0.0, 3.0).classify_pair(&a),
            CirclePair::SecondInsideFirst
        );
        assert_eq!(a.classify_pair(&c(0.0, 0.0, 1.0)), CirclePair::Coincident);
    }

    #[test]
    fn intersection_points_two_crossings() {
        let a = c(0.0, 0.0, 1.0);
        let b = c(1.0, 0.0, 1.0);
        let pts = a.intersection_points(&b);
        assert_eq!(pts.len(), 2);
        for p in pts {
            assert!((a.center.distance(p) - 1.0).abs() < 1e-12);
            assert!((b.center.distance(p) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn intersection_points_tangent_and_none() {
        let a = c(0.0, 0.0, 1.0);
        let tangent = a.intersection_points(&c(2.0, 0.0, 1.0));
        assert_eq!(tangent.len(), 1);
        assert!(tangent[0].distance(Point::new(1.0, 0.0)) < 1e-9);
        assert!(a.intersection_points(&c(5.0, 0.0, 1.0)).is_empty());
        assert!(a.intersection_points(&c(0.0, 0.0, 0.5)).is_empty());
        assert!(a.intersection_points(&c(0.0, 0.0, 1.0)).is_empty());
    }

    #[test]
    fn lens_area_limits() {
        let a = c(0.0, 0.0, 1.0);
        // Full overlap with containing circle -> area of smaller.
        assert!((a.lens_area(&c(0.0, 0.0, 5.0)) - PI).abs() < 1e-12);
        assert!((c(0.0, 0.0, 5.0).lens_area(&a) - PI).abs() < 1e-12);
        // Disjoint -> 0.
        assert_eq!(a.lens_area(&c(10.0, 0.0, 1.0)), 0.0);
        // Coincident -> full area.
        assert!((a.lens_area(&c(0.0, 0.0, 1.0)) - PI).abs() < 1e-12);
    }

    #[test]
    fn lens_area_equal_circles_formula() {
        // For two unit circles at distance d, lens = 2 acos(d/2) − (d/2)√(4−d²).
        for &d in &[0.1, 0.5, 1.0, 1.5, 1.9] {
            let a = c(0.0, 0.0, 1.0);
            let b = c(d, 0.0, 1.0);
            let expected = 2.0 * (d / 2.0).acos() - (d / 2.0) * (4.0 - d * d).sqrt();
            assert!(
                (a.lens_area(&b) - expected).abs() < 1e-10,
                "d={d}: {} vs {}",
                a.lens_area(&b),
                expected
            );
        }
    }

    #[test]
    fn lens_area_is_symmetric() {
        let a = c(0.0, 0.0, 2.0);
        let b = c(1.5, 1.0, 1.0);
        assert!((a.lens_area(&b) - b.lens_area(&a)).abs() < 1e-12);
    }

    #[test]
    fn point_at_lies_on_circle() {
        let circle = c(1.0, 2.0, 3.0);
        for k in 0..8 {
            let p = circle.point_at(k as f64 * PI / 4.0);
            assert!((circle.center.distance(p) - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(
            c(0.0, 0.0, 1.0).to_string(),
            "Circle[(0.000, 0.000) r=1.000]"
        );
    }
}
