//! Sets of angular intervals on a circle.
//!
//! Used by the reference construction to determine which parts of each
//! circle's boundary survive inside all the other discs when the region
//! has no vertices: every disc `j` restricts circle `i`'s boundary to
//! one angular interval, and the active arcs of circle `i` are the
//! intersection of all those intervals.

use std::f64::consts::{PI, TAU};

/// A set of disjoint angular intervals on `[0, 2π)`, closed under
/// intersection with further intervals.
///
/// Internally the set is a sorted list of non-wrapping segments
/// `[start, end]` with `0 ≤ start < end ≤ 2π`; an interval that crosses the
/// `0` angle is stored as two segments.
#[derive(Debug, Clone, PartialEq)]
pub struct AngularIntervalSet {
    segments: Vec<(f64, f64)>,
}

/// Normalizes an angle into `[0, 2π)`, as the library does.
#[inline]
pub fn normalize_angle(a: f64) -> f64 {
    let r = a.rem_euclid(TAU);
    if r >= TAU {
        0.0
    } else {
        r
    }
}

impl AngularIntervalSet {
    /// The full circle `[0, 2π)`.
    pub fn full() -> Self {
        AngularIntervalSet {
            segments: vec![(0.0, TAU)],
        }
    }

    /// The empty set.
    #[cfg(test)]
    pub fn empty() -> Self {
        AngularIntervalSet {
            segments: Vec::new(),
        }
    }

    /// Returns `true` when no angles remain.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Returns `true` when the set is the entire circle.
    pub fn is_full(&self) -> bool {
        self.total() >= TAU - 1e-12
    }

    /// Total angular measure of the set, in radians.
    pub fn total(&self) -> f64 {
        self.segments.iter().map(|(a, b)| b - a).sum()
    }

    /// The disjoint, sorted, non-wrapping segments `[start, end]` with
    /// `0 ≤ start < end ≤ 2π`.
    pub fn segments(&self) -> &[(f64, f64)] {
        &self.segments
    }

    /// Returns `true` when `angle` (any real number) lies in the set.
    #[cfg(test)]
    pub fn contains(&self, angle: f64) -> bool {
        let a = normalize_angle(angle);
        self.segments
            .iter()
            .any(|&(s, e)| a >= s - 1e-12 && a <= e + 1e-12)
    }

    /// Intersects the set with the arc centered at `center` with the given
    /// `half_width` (both radians).
    ///
    /// A `half_width ≥ π` keeps the set unchanged (the arc is the whole
    /// circle); a non-positive `half_width` empties the set.
    pub fn intersect_arc(&mut self, center: f64, half_width: f64) {
        if half_width >= PI {
            return;
        }
        if half_width <= 0.0 {
            self.segments.clear();
            return;
        }
        let lo = normalize_angle(center - half_width);
        let hi = lo + 2.0 * half_width;
        // Split a wrapped interval at 2π.
        let parts: Vec<(f64, f64)> = if hi <= TAU {
            vec![(lo, hi)]
        } else {
            vec![(lo, TAU), (0.0, hi - TAU)]
        };
        let mut out = Vec::with_capacity(self.segments.len() + 1);
        for &(s, e) in &self.segments {
            for &(ps, pe) in &parts {
                let ns = s.max(ps);
                let ne = e.min(pe);
                if ne - ns > 1e-12 {
                    out.push((ns, ne));
                }
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.segments = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_empty() {
        assert!(AngularIntervalSet::full().is_full());
        assert!(!AngularIntervalSet::full().is_empty());
        assert!(AngularIntervalSet::empty().is_empty());
        assert_eq!(AngularIntervalSet::empty().total(), 0.0);
        assert!((AngularIntervalSet::full().total() - TAU).abs() < 1e-12);
    }

    #[test]
    fn single_intersection() {
        let mut s = AngularIntervalSet::full();
        s.intersect_arc(PI, PI / 4.0);
        assert!((s.total() - PI / 2.0).abs() < 1e-12);
        assert!(s.contains(PI));
        assert!(s.contains(PI - PI / 4.0));
        assert!(!s.contains(0.0));
    }

    #[test]
    fn wrapped_intersection() {
        let mut s = AngularIntervalSet::full();
        // Arc centered at 0 wraps across 2π.
        s.intersect_arc(0.0, PI / 6.0);
        assert!((s.total() - PI / 3.0).abs() < 1e-12);
        assert_eq!(s.segments().len(), 2);
        assert!(s.contains(0.05));
        assert!(s.contains(-0.05));
        assert!(!s.contains(PI));
    }

    #[test]
    fn successive_intersections_shrink() {
        let mut s = AngularIntervalSet::full();
        s.intersect_arc(0.0, PI / 2.0);
        let t1 = s.total();
        s.intersect_arc(PI / 4.0, PI / 2.0);
        let t2 = s.total();
        assert!(t2 <= t1 + 1e-12);
        // Overlap of [-π/2, π/2] and [-π/4, 3π/4] = [-π/4, π/2]: 3π/4 total.
        assert!((t2 - 3.0 * PI / 4.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_intersection_empties() {
        let mut s = AngularIntervalSet::full();
        s.intersect_arc(0.0, PI / 8.0);
        s.intersect_arc(PI, PI / 8.0);
        assert!(s.is_empty());
    }

    #[test]
    fn half_width_pi_is_noop_and_zero_empties() {
        let mut s = AngularIntervalSet::full();
        s.intersect_arc(1.0, PI);
        assert!(s.is_full());
        s.intersect_arc(1.0, 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn intersection_commutes() {
        let mut a = AngularIntervalSet::full();
        a.intersect_arc(0.3, 1.0);
        a.intersect_arc(5.9, 1.2);
        let mut b = AngularIntervalSet::full();
        b.intersect_arc(5.9, 1.2);
        b.intersect_arc(0.3, 1.0);
        assert!((a.total() - b.total()).abs() < 1e-12);
    }
}
