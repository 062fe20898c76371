//! Planar computational geometry and WGS-84 geodesy.
//!
//! This crate is the geometric substrate of the Marauder's Map
//! reproduction. The localization attacks of the paper reduce a mobile
//! device's position to the **intersection of discs** (one disc per
//! communicable access point), so the center of this crate is an exact
//! [`DiscIntersection`] primitive: vertices, boundary arcs, area and
//! centroid of `⋂ᵢ D(cᵢ, rᵢ)` computed with Green's theorem over circular
//! boundary segments.
//!
//! The paper expresses all coordinates in the Earth-Centered Earth-Fixed
//! (ECEF) Cartesian frame; the [`geodesy`] module provides exact WGS-84
//! conversions between geodetic latitude/longitude, ECEF, and a local
//! east-north-up (ENU) tangent plane on which the planar algorithms run.
//!
//! # Example
//!
//! Intersect three unit discs and query the resulting region:
//!
//! ```
//! use marauder_geo::{Circle, DiscIntersection, Point};
//!
//! let discs = [
//!     Circle::new(Point::new(0.0, 0.0), 1.0),
//!     Circle::new(Point::new(1.0, 0.0), 1.0),
//!     Circle::new(Point::new(0.5, 0.8), 1.0),
//! ];
//! let region = DiscIntersection::new(&discs);
//! assert!(!region.is_empty());
//! assert!(region.area() > 0.0);
//! let c = region.centroid().unwrap();
//! assert!(region.contains(c));
//! ```

#![forbid(unsafe_code)]

pub mod circle;
pub mod disc_intersection;
pub mod enclosing;
pub mod geodesy;
pub mod grid;
pub mod hull;
mod interval;
pub mod montecarlo;
pub mod point;
pub mod polygon;

pub use circle::{Circle, CirclePair};
pub use disc_intersection::{Arc, DiscIntersection};
pub use enclosing::smallest_enclosing_circle;
pub use geodesy::{Ecef, Enu, EnuFrame, Geodetic};
pub use grid::GridIndex;
pub use hull::convex_hull;
pub use montecarlo::monte_carlo_intersection_area;
pub use point::{Point, Vec2};
pub use polygon::Polygon;

/// Geometric tolerance used throughout the crate when comparing lengths
/// (meters in the attack scenarios). Distances smaller than this are
/// treated as coincident.
pub const EPS: f64 = 1e-9;
