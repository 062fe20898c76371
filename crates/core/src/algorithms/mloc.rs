//! M-Loc: disc-intersection localization with known AP locations and
//! maximum transmission distances (paper Section III-D, first
//! algorithm).
//!
//! The paper's pseudocode computes Δ — all pairwise circle-intersection
//! points lying inside every disc — and returns `AVG(Δ)`. Two cases the
//! pseudocode leaves open are handled explicitly here:
//!
//! * **No vertices but non-empty region** (`k = 1`, coincident discs, or
//!   one disc contained in all others): the estimate falls back to the
//!   exact centroid of the region, which in those cases is the dominant
//!   disc's center — the "nearest AP" degenerate case the paper
//!   describes.
//! * **Empty region** (radii underestimated, or a shadowing world that
//!   violates the disc model): all radii are scaled by the smallest
//!   multiplier that makes the intersection non-empty (found by
//!   bisection), consistent with the paper's finding that overestimates
//!   are strictly preferable to underestimates (Theorem 3).

use super::{CoverageDisc, Estimate};
use marauder_geo::{Circle, DiscIntersection};

/// Which centroid the estimate uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CentroidMode {
    /// `AVG(Δ)` — the mean of the boundary vertices, exactly as in the
    /// paper's pseudocode.
    #[default]
    VertexAverage,
    /// The exact area centroid of the intersected region (this
    /// reproduction's refinement; ablated in the benchmarks).
    Region,
}

/// The M-Loc localizer.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MLoc {
    /// Centroid flavor.
    pub mode: CentroidMode,
    /// Disable the empty-region inflation fallback (locate then returns
    /// `None` when discs do not intersect).
    pub no_inflation: bool,
}

impl MLoc {
    /// M-Loc with the paper's exact `AVG(Δ)` estimator.
    pub fn paper() -> Self {
        MLoc::default()
    }

    /// M-Loc using the exact region centroid.
    pub fn region_centroid() -> Self {
        MLoc {
            mode: CentroidMode::Region,
            no_inflation: false,
        }
    }

    /// Locates a mobile from the coverage discs of its communicable APs.
    ///
    /// Returns `None` when `discs` is empty, or when the discs do not
    /// intersect and inflation is disabled.
    pub fn locate(&self, discs: &[CoverageDisc]) -> Option<Estimate> {
        if discs.is_empty() {
            return None;
        }
        let circles: Vec<Circle> = discs.iter().map(CoverageDisc::circle).collect();
        let (region, inflation) = self.intersect_with_fallback(&circles)?;
        let position = match self.mode {
            CentroidMode::VertexAverage => {
                region.vertex_centroid().or_else(|| region.centroid())?
            }
            CentroidMode::Region => region.centroid()?,
        };
        Some(Estimate {
            position,
            region,
            k: discs.len(),
            inflation,
        })
    }

    /// Intersects, inflating radii when necessary (and allowed).
    fn intersect_with_fallback(&self, circles: &[Circle]) -> Option<(DiscIntersection, f64)> {
        let region = DiscIntersection::new(circles);
        if !region.is_empty() {
            return Some((region, 1.0));
        }
        if self.no_inflation {
            return None;
        }
        // Find an upper multiplier that works by doubling, then bisect:
        // 40 halvings of [hi/2, hi] leave an interval of hi·2⁻⁴¹, about
        // 1e-12 relative. The probes only ask whether the scaled discs
        // meet; the region is built once, at the final multiplier.
        let scaled = |m: f64| -> Vec<Circle> {
            circles
                .iter()
                .map(|c| Circle::new(c.center, c.radius * m))
                .collect()
        };
        let meet = |m: f64| DiscIntersection::has_common_point(&scaled(m));
        let mut hi = 2.0;
        while !meet(hi) {
            hi *= 2.0;
            if hi > 1e6 {
                return None; // degenerate input (e.g. all radii zero)
            }
        }
        let mut lo = hi / 2.0;
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            if meet(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some((DiscIntersection::new(&scaled(hi)), hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marauder_geo::Point;

    fn d(x: f64, y: f64, r: f64) -> CoverageDisc {
        CoverageDisc::new(Point::new(x, y), r)
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(MLoc::paper().locate(&[]).is_none());
    }

    #[test]
    fn single_ap_reduces_to_nearest_ap() {
        // k = 1: "the disc-intersection approach is essentially reduced
        // to the nearest AP approach".
        let est = MLoc::paper().locate(&[d(10.0, -5.0, 100.0)]).unwrap();
        assert!(est.position.distance(Point::new(10.0, -5.0)) < 1e-9);
        assert_eq!(est.k, 1);
        assert_eq!(est.inflation, 1.0);
        assert!((est.area() - std::f64::consts::PI * 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn true_position_always_covered_with_correct_radii() {
        // Mobile at m; APs within range r of m; discs must cover m.
        let m = Point::new(30.0, 40.0);
        let r = 100.0;
        let centers = [
            Point::new(0.0, 0.0),
            Point::new(80.0, 10.0),
            Point::new(50.0, 100.0),
            Point::new(-20.0, 70.0),
        ];
        let discs: Vec<CoverageDisc> = centers
            .iter()
            .filter(|c| c.distance(m) <= r)
            .map(|c| CoverageDisc::new(*c, r))
            .collect();
        assert!(discs.len() >= 3);
        let est = MLoc::paper().locate(&discs).unwrap();
        assert!(est.covers(m), "region must contain the true position");
        assert!(est.position.distance(m) < r);
        assert_eq!(est.inflation, 1.0);
    }

    #[test]
    fn vertex_average_matches_paper_geometry() {
        // Two equal discs: Δ has the two lens tips; their average is the
        // midpoint of the centers.
        let est = MLoc::paper()
            .locate(&[d(0.0, 0.0, 10.0), d(12.0, 0.0, 10.0)])
            .unwrap();
        assert!(est.position.distance(Point::new(6.0, 0.0)) < 1e-9);
    }

    #[test]
    fn region_centroid_mode_differs_on_asymmetric_input() {
        let discs = [d(0.0, 0.0, 50.0), d(60.0, 0.0, 20.0)];
        let paper = MLoc::paper().locate(&discs).unwrap();
        let region = MLoc::region_centroid().locate(&discs).unwrap();
        // Both land in the region.
        assert!(paper.region.contains(paper.position));
        assert!(region.region.contains(region.position));
        // Asymmetric lens: the two estimators disagree.
        assert!(paper.position.distance(region.position) > 1e-6);
    }

    #[test]
    fn contained_disc_dominates_without_vertices() {
        // Small disc strictly inside a big one: Δ is empty; the paper's
        // AVG(Δ) is undefined. Our fallback returns the region centroid,
        // i.e. the small disc's center.
        let est = MLoc::paper()
            .locate(&[d(0.0, 0.0, 100.0), d(10.0, 0.0, 5.0)])
            .unwrap();
        assert!(est.position.distance(Point::new(10.0, 0.0)) < 1e-9);
    }

    #[test]
    fn disjoint_discs_inflate_until_intersection() {
        // Underestimated radii: discs at distance 100 with radius 20.
        // Inflation must scale them to (just past) touching: m = 2.5.
        let est = MLoc::paper()
            .locate(&[d(0.0, 0.0, 20.0), d(100.0, 0.0, 20.0)])
            .unwrap();
        assert!(
            (est.inflation - 2.5).abs() < 0.01,
            "inflation {}",
            est.inflation
        );
        assert!(est.position.distance(Point::new(50.0, 0.0)) < 1.0);
    }

    #[test]
    fn no_inflation_mode_refuses_disjoint_discs() {
        let mloc = MLoc {
            no_inflation: true,
            ..MLoc::default()
        };
        assert!(mloc
            .locate(&[d(0.0, 0.0, 20.0), d(100.0, 0.0, 20.0)])
            .is_none());
    }

    #[test]
    fn zero_radii_cannot_inflate() {
        // Degenerate: two distinct zero-radius discs can never intersect.
        assert!(MLoc::paper()
            .locate(&[d(0.0, 0.0, 0.0), d(10.0, 0.0, 0.0)])
            .is_none());
    }

    #[test]
    fn area_shrinks_with_more_aps() {
        // Theorem 2's trend on concrete inputs.
        let m = Point::new(0.0, 0.0);
        let r = 50.0;
        let all = [
            Point::new(30.0, 0.0),
            Point::new(-20.0, 25.0),
            Point::new(0.0, -35.0),
            Point::new(25.0, 30.0),
            Point::new(-30.0, -20.0),
        ];
        let mut last_area = f64::INFINITY;
        for k in 1..=all.len() {
            let discs: Vec<CoverageDisc> =
                all[..k].iter().map(|c| CoverageDisc::new(*c, r)).collect();
            let est = MLoc::paper().locate(&discs).unwrap();
            assert!(est.area() <= last_area + 1e-9);
            assert!(est.covers(m));
            last_area = est.area();
        }
    }

    #[test]
    fn estimate_improves_with_more_aps_on_average() {
        // With k >= 3 well-spread APs the estimate lands within a small
        // fraction of the radius.
        let m = Point::new(5.0, -3.0);
        let r = 80.0;
        let centers = [
            Point::new(60.0, 10.0),
            Point::new(-50.0, 30.0),
            Point::new(10.0, -70.0),
            Point::new(-20.0, -55.0),
            Point::new(45.0, 50.0),
            Point::new(-60.0, -10.0),
        ];
        let discs: Vec<CoverageDisc> = centers
            .iter()
            .filter(|c| c.distance(m) <= r)
            .map(|c| CoverageDisc::new(*c, r))
            .collect();
        let est = MLoc::paper().locate(&discs).unwrap();
        assert!(
            est.position.distance(m) < 25.0,
            "error {} too large",
            est.position.distance(m)
        );
    }

    #[test]
    #[should_panic(expected = "coverage radius")]
    fn negative_radius_panics() {
        let _ = CoverageDisc::new(Point::ORIGIN, -1.0);
    }

    #[test]
    fn enclosing_circle_bounds_the_region() {
        let discs = [d(0.0, 0.0, 50.0), d(60.0, 10.0, 55.0), d(20.0, 50.0, 45.0)];
        let est = MLoc::paper().locate(&discs).unwrap();
        let mec = est.enclosing_circle().expect("non-empty region");
        // Every vertex of the region is inside the MEC.
        for v in est.region.vertices() {
            assert!(mec.contains_with_tolerance(*v, 1e-6));
        }
        // The MEC is no bigger than the smallest disc's bounding circle.
        assert!(mec.radius <= 45.0 + 1e-6, "MEC radius {}", mec.radius);
        // Uncertainty radius covers the truth for any point in the region.
        let u = est.uncertainty_radius().expect("non-empty");
        let c = est.region.centroid().expect("non-empty");
        assert!(est.position.distance(c) <= u);
        assert!(u >= mec.radius);
    }

    #[test]
    fn single_disc_enclosing_circle_is_itself() {
        let est = MLoc::paper().locate(&[d(5.0, 5.0, 30.0)]).unwrap();
        let mec = est.enclosing_circle().unwrap();
        assert!(mec.center.distance(Point::new(5.0, 5.0)) < 0.5);
        assert!((mec.radius - 30.0).abs() < 0.5, "radius {}", mec.radius);
    }
}
