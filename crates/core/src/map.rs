//! GeoJSON rendering of the Marauder's Map display (paper Fig. 7).
//!
//! The paper overlays AP positions, the mobile's real location (red
//! tags) and the estimated location (blue tags) on Google Maps. This
//! module emits the same information as a GeoJSON `FeatureCollection`,
//! loadable in any modern map viewer. Planar coordinates are converted
//! back to WGS-84 through an [`EnuFrame`] when one is supplied;
//! otherwise raw meters are emitted (handy for plotting tools).

use crate::apdb::ApRecord;
use crate::pipeline::TrackFix;
use marauder_geo::{EnuFrame, Point};
use marauder_obs::json_string;
use std::fmt::Write as _;

/// Builds a GeoJSON document feature by feature.
///
/// # Example
///
/// ```
/// use marauder_core::map::MapBuilder;
/// use marauder_geo::Point;
///
/// let mut map = MapBuilder::planar();
/// map.add_marker(Point::new(10.0, 5.0), "ap", "cafe-wifi");
/// let geojson = map.finish();
/// assert!(geojson.contains("FeatureCollection"));
/// assert!(geojson.contains("cafe-wifi"));
/// ```
#[derive(Debug, Clone)]
pub struct MapBuilder {
    frame: Option<EnuFrame>,
    features: Vec<String>,
}

impl MapBuilder {
    /// A builder emitting raw planar coordinates (meters).
    pub fn planar() -> Self {
        MapBuilder {
            frame: None,
            features: Vec::new(),
        }
    }

    /// A builder converting planar points to WGS-84 through `frame`.
    pub fn georeferenced(frame: EnuFrame) -> Self {
        MapBuilder {
            frame: Some(frame),
            features: Vec::new(),
        }
    }

    fn coords(&self, p: Point) -> (f64, f64) {
        match &self.frame {
            Some(frame) => {
                let g = frame.plane_to_geodetic(p);
                (g.lon_deg, g.lat_deg)
            }
            None => (p.x, p.y),
        }
    }

    /// Adds a point feature with a `kind` and `label` property.
    pub fn add_marker(&mut self, p: Point, kind: &str, label: &str) {
        let (x, y) = self.coords(p);
        self.features.push(format!(
            r#"{{"type":"Feature","geometry":{{"type":"Point","coordinates":[{x:.8},{y:.8}]}},"properties":{{"kind":{},"label":{}}}}}"#,
            json_string(kind),
            json_string(label)
        ));
    }

    /// Adds an access point from the knowledge database.
    pub fn add_ap(&mut self, rec: &ApRecord) {
        let label = rec.ssid.as_deref().unwrap_or("");
        let full = format!("{} {}", rec.bssid, label);
        self.add_marker(rec.location, "ap", full.trim());
        if let Some(r) = rec.radius {
            self.add_circle(rec.location, r, "ap-coverage", label);
        }
    }

    /// Adds the mobile's real location — the paper's red tag.
    pub fn add_true_position(&mut self, p: Point, label: &str) {
        self.add_marker(p, "true-position", label);
    }

    /// Adds a tracking fix — estimated position (the paper's blue tag)
    /// plus the intersected-region vertices as a polygon when available.
    ///
    /// The region lists its vertices in disc-pair order, so the ring is
    /// put in boundary order first: by angle about their mean, `AVG(Δ)`,
    /// which lies inside the convex region. That walks the boundary
    /// counter-clockwise.
    pub fn add_fix(&mut self, fix: &TrackFix) {
        let label = format!("{} @ {:.0}s", fix.mobile, fix.time_s);
        self.add_marker(fix.estimate.position, "estimate", &label);
        let verts = fix.estimate.region.vertices();
        let Some(mean) = fix.estimate.region.vertex_centroid() else {
            return;
        };
        if verts.len() >= 3 {
            let mut ring: Vec<Point> = verts.to_vec();
            ring.sort_by(|a, b| (*a - mean).angle().total_cmp(&(*b - mean).angle()));
            self.add_polygon(&ring, "estimate-region", &label);
        }
    }

    /// Adds a circle approximated by a 64-gon.
    pub fn add_circle(&mut self, center: Point, radius: f64, kind: &str, label: &str) {
        let pts: Vec<Point> = (0..64)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 64.0;
                Point::new(center.x + radius * a.cos(), center.y + radius * a.sin())
            })
            .collect();
        self.add_polygon(&pts, kind, label);
    }

    /// Adds a polygon feature (the ring is closed automatically).
    ///
    /// # Panics
    ///
    /// Panics with fewer than 3 points.
    pub fn add_polygon(&mut self, points: &[Point], kind: &str, label: &str) {
        assert!(points.len() >= 3, "polygon needs >= 3 points");
        let mut ring = String::new();
        for p in points.iter().chain(std::iter::once(&points[0])) {
            let (x, y) = self.coords(*p);
            if !ring.is_empty() {
                ring.push(',');
            }
            let _ = write!(ring, "[{x:.8},{y:.8}]");
        }
        self.features.push(format!(
            r#"{{"type":"Feature","geometry":{{"type":"Polygon","coordinates":[[{ring}]]}},"properties":{{"kind":{},"label":{}}}}}"#,
            json_string(kind),
            json_string(label)
        ));
    }

    /// Number of features added so far.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// `true` when no features were added.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Serializes the `FeatureCollection`.
    pub fn finish(self) -> String {
        format!(
            r#"{{"type":"FeatureCollection","features":[{}]}}"#,
            self.features.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marauder_geo::Geodetic;
    use marauder_wifi::mac::MacAddr;

    #[test]
    fn empty_collection_is_valid() {
        let map = MapBuilder::planar();
        assert!(map.is_empty());
        let s = map.finish();
        assert_eq!(s, r#"{"type":"FeatureCollection","features":[]}"#);
    }

    #[test]
    fn markers_and_polygons() {
        let mut map = MapBuilder::planar();
        map.add_marker(Point::new(1.0, 2.0), "ap", "x");
        map.add_circle(Point::ORIGIN, 10.0, "coverage", "c");
        assert_eq!(map.len(), 2);
        let s = map.finish();
        assert!(s.contains(r#""type":"Point""#));
        assert!(s.contains(r#""type":"Polygon""#));
        assert!(s.contains("[1.00000000,2.00000000]"));
    }

    #[test]
    fn georeferenced_emits_lon_lat() {
        let frame = EnuFrame::new(Geodetic::new(42.6555, -71.3251, 30.0));
        let mut map = MapBuilder::georeferenced(frame);
        map.add_marker(Point::ORIGIN, "sniffer", "rig");
        let s = map.finish();
        // The origin maps back to the frame origin's lon/lat.
        assert!(s.contains("-71.325"), "{s}");
        assert!(s.contains("42.655"), "{s}");
    }

    #[test]
    fn ap_record_with_radius_adds_coverage() {
        let rec = ApRecord {
            bssid: MacAddr::from_index(1),
            ssid: Some("net".into()),
            location: Point::new(5.0, 5.0),
            radius: Some(50.0),
        };
        let mut map = MapBuilder::planar();
        map.add_ap(&rec);
        assert_eq!(map.len(), 2); // marker + coverage circle
        let s = map.finish();
        assert!(s.contains("ap-coverage"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b"), r#""a\"b""#);
        assert_eq!(json_string("a\\b"), r#""a\\b""#);
        assert_eq!(json_string("a\nb"), r#""a\nb""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        let mut map = MapBuilder::planar();
        map.add_marker(Point::ORIGIN, "k", "evil\"label");
        assert!(map.finish().contains(r#"evil\"label"#));
    }

    /// The `[x,y]` pairs of the first polygon of `kind` in `geojson`.
    fn ring_of(geojson: &str, kind: &str) -> Vec<Point> {
        let feature = geojson
            .split(r#"{"type":"Feature""#)
            .find(|f| f.contains(&format!(r#""kind":"{kind}""#)))
            .expect("feature present");
        let coords = &feature[feature.find("[[[").expect("polygon") + 3..];
        let coords = &coords[..coords.find("]]]").expect("ring end")];
        coords
            .split("],[")
            .map(|pair| {
                let (x, y) = pair
                    .trim_matches(|c| c == '[' || c == ']')
                    .split_once(',')
                    .unwrap();
                Point::new(x.parse().unwrap(), y.parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn estimate_region_rings_follow_the_boundary() {
        use crate::algorithms::{CoverageDisc, MLoc};
        use crate::pipeline::FixProvenance;
        // Discs east, west, north and south of the origin: the region's
        // left edge is the east disc's arc, and so on, so the pair order
        // (E,N), (E,S), (W,N), (W,S) visits lower-left, upper-left,
        // lower-right, upper-right: a ring that crosses itself.
        let discs = [
            CoverageDisc::new(Point::new(30.0, 0.0), 40.0),
            CoverageDisc::new(Point::new(-30.0, 0.0), 40.0),
            CoverageDisc::new(Point::new(0.0, 30.0), 40.0),
            CoverageDisc::new(Point::new(0.0, -30.0), 40.0),
        ];
        let estimate = MLoc::paper().locate(&discs).unwrap();
        let vertices = estimate.region.vertices().to_vec();
        assert_eq!(vertices.len(), 4);
        let fix = TrackFix {
            time_s: 0.0,
            mobile: MacAddr::from_index(1),
            gamma: Default::default(),
            estimate,
            provenance: FixProvenance::MLoc,
        };
        let mut map = MapBuilder::planar();
        map.add_fix(&fix);
        let mut ring = ring_of(&map.finish(), "estimate-region");
        assert_eq!(ring.pop(), Some(ring[0]), "the ring is closed");
        // The same vertex set ...
        assert_eq!(ring.len(), vertices.len());
        for v in &vertices {
            assert!(ring.iter().any(|p| p.distance(*v) < 1e-6), "{v} missing");
        }
        // ... counter-clockwise ...
        let n = ring.len();
        let twice_area: f64 = (0..n)
            .map(|i| (ring[i] - Point::ORIGIN).cross(ring[(i + 1) % n] - Point::ORIGIN))
            .sum();
        assert!(twice_area > 0.0);
        // ... and simple: no two edges that share no end cross.
        let crosses = |a: Point, b: Point, c: Point, d: Point| {
            let side = |p: Point, q: Point, r: Point| (q - p).cross(r - p);
            side(a, b, c) * side(a, b, d) < 0.0 && side(c, d, a) * side(c, d, b) < 0.0
        };
        for i in 0..n {
            for j in i + 2..n {
                if (j + 1) % n == i {
                    continue;
                }
                let (a, b) = (ring[i], ring[(i + 1) % n]);
                let (c, d) = (ring[j], ring[(j + 1) % n]);
                assert!(!crosses(a, b, c, d), "edges {i} and {j} cross");
            }
        }
    }

    #[test]
    #[should_panic(expected = "polygon needs")]
    fn tiny_polygon_panics() {
        let mut map = MapBuilder::planar();
        map.add_polygon(&[Point::ORIGIN, Point::new(1.0, 0.0)], "k", "l");
    }
}
