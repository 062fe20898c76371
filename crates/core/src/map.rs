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
    pub fn add_fix(&mut self, fix: &TrackFix) {
        let label = format!("{} @ {:.0}s", fix.mobile, fix.time_s);
        self.add_marker(fix.estimate.position, "estimate", &label);
        let verts = fix.estimate.region.vertices();
        if verts.len() >= 3 {
            let pts: Vec<Point> = verts.to_vec();
            self.add_polygon(&pts, "estimate-region", &label);
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

    #[test]
    #[should_panic(expected = "polygon needs")]
    fn tiny_polygon_panics() {
        let mut map = MapBuilder::planar();
        map.add_polygon(&[Point::ORIGIN, Point::new(1.0, 0.0)], "k", "l");
    }
}
