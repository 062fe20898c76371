//! The malicious localization algorithms.
//!
//! * [`MLoc`] — disc intersection with known AP locations and radii
//!   (paper Algorithm "M-Loc"),
//! * [`ApRad`] — linear-programming radius estimation from
//!   co-observation constraints, then M-Loc (Algorithm "AP-Rad"),
//! * [`ApLoc`] — AP localization from wardriving training tuples, then
//!   AP-Rad (Algorithm "AP-Loc"),
//! * [`Centroid`] / [`NearestAp`] — prior-work baselines the paper
//!   compares against.

mod aploc;
mod aprad;
mod baselines;
mod mloc;

pub use aploc::ApLoc;
pub use aprad::{ApRad, ApRadSolver, LpMethod, ObservationStats, PairPruning};
pub use baselines::{Centroid, NearestAp};
pub use mloc::{CentroidMode, MLoc};

use marauder_geo::{Circle, DiscIntersection, Point};

/// One AP's assumed maximum coverage area: a disc around its location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageDisc {
    /// AP location, local ENU meters.
    pub center: Point,
    /// Assumed maximum transmission distance, meters.
    pub radius: f64,
}

impl CoverageDisc {
    /// Creates a coverage disc.
    ///
    /// # Panics
    ///
    /// Panics for a negative or non-finite radius.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "coverage radius must be finite and >= 0, got {radius}"
        );
        CoverageDisc { center, radius }
    }

    /// The disc as a geometry circle.
    pub fn circle(&self) -> Circle {
        Circle::new(self.center, self.radius)
    }
}

impl From<CoverageDisc> for Circle {
    fn from(d: CoverageDisc) -> Circle {
        d.circle()
    }
}

/// A localization estimate together with its supporting region.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The estimated position.
    pub position: Point,
    /// The intersected region the estimate was drawn from.
    pub region: DiscIntersection,
    /// Number of communicable APs used.
    pub k: usize,
    /// Radius multiplier that had to be applied before the discs
    /// intersected (1.0 when the raw discs already intersected; > 1.0
    /// means the knowledge underestimated some radius — Theorem 3's
    /// `R < r` regime).
    pub inflation: f64,
}

impl Estimate {
    /// Area of the intersected region, m² (Fig. 15's metric).
    pub fn area(&self) -> f64 {
        self.region.area()
    }

    /// Whether the region covers a (ground-truth) point — Fig. 16's
    /// metric.
    pub fn covers(&self, p: Point) -> bool {
        self.region.contains(p)
    }

    /// The smallest circle enclosing the intersected region (boundary
    /// arcs sampled densely): an honest "the victim is within `radius`
    /// of `center`" statement for the map display. `None` only for an
    /// empty region.
    pub fn enclosing_circle(&self) -> Option<Circle> {
        let mut samples: Vec<Point> = self.region.vertices().to_vec();
        for arc in self.region.arcs() {
            let steps = 16usize;
            for k in 0..=steps {
                let a = arc.start + arc.span() * k as f64 / steps as f64;
                samples.push(arc.circle.point_at(a));
            }
        }
        marauder_geo::smallest_enclosing_circle(&samples)
    }

    /// Worst-case distance from the point estimate to anywhere in the
    /// region — the uncertainty the attacker should quote.
    pub fn uncertainty_radius(&self) -> Option<f64> {
        let mec = self.enclosing_circle()?;
        Some(self.position.distance(mec.center) + mec.radius)
    }

    /// A degenerate point estimate with no supporting region — the
    /// shape the degradation ladder's Centroid and Nearest-AP rungs
    /// produce when disc intersection is impossible. The region is a
    /// single zero-radius disc at the position, so `area()` is 0 and
    /// `covers` holds only at the point itself.
    pub fn point(position: Point, k: usize) -> Self {
        Estimate {
            position,
            region: DiscIntersection::new(&[Circle::new(position, 0.0)]),
            k,
            inflation: 1.0,
        }
    }
}
