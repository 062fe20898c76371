//! The disc-intersection construction the library used before the
//! incremental clip, kept as a test oracle. It uses only the public API.
//!
//! It reduces the input first: an axis-box prefilter above 12 discs,
//! a containment prune that drops every disc containing another, and
//! above 24 survivors a filter that keeps only discs reaching the
//! bounding box of the 8 tightest discs' intersection. It then tests
//! both crossing points of every overlapping pair against every kept
//! disc (`O(k³)`), reads each circle's arcs off its sorted vertex
//! angles, and falls back to an angular interval scan when the region
//! has no vertices.

mod interval;

use interval::{normalize_angle, AngularIntervalSet};
use marauder_geo::{Arc, Circle, Point, EPS};
use std::f64::consts::{PI, TAU};

/// What the reference construction returns.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The reduced disc set the region was built from.
    pub discs: Vec<Circle>,
    /// Accepted crossing points, in pair order over `discs`.
    pub vertices: Vec<Point>,
    /// Arcs by circle (in `discs` order), then start angle.
    pub arcs: Vec<Arc>,
    pub area: f64,
    pub centroid: Option<Point>,
    /// Whether the seed-bbox filter ran; it reorders `discs`, so the
    /// pair order then differs from the input order.
    pub seed_filtered: bool,
}

impl Reference {
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty() && self.vertices.is_empty()
    }
}

/// Disc counts above which the `O(k)` axis-box prefilter runs.
const BBOX_FILTER_MIN: usize = 12;

/// Disc counts (post-prefilter) above which the seed filter runs.
const SEED_FILTER_MIN: usize = 24;

/// Discs used to seed the bounding-box filter.
const SEED_DISCS: usize = 8;

/// Intersects the given (non-empty) discs the old way.
pub fn intersect(discs: &[Circle]) -> Reference {
    assert!(!discs.is_empty(), "cannot intersect zero discs");
    let mut pre: Vec<Circle>;
    let mut discs = discs;
    if discs.len() > BBOX_FILTER_MIN {
        pre = discs.to_vec();
        axis_box_prefilter(&mut pre);
        discs = &pre;
    }
    // A disc that wholly contains another disc can never bound the
    // intersection; coincident discs contain each other and the first
    // wins by index. `contains(d, e)`: dist + r_e ≤ r_d + EPS, compared
    // squared.
    let contains = |d: &Circle, e: &Circle| {
        let slack = d.radius - e.radius + EPS;
        slack >= 0.0 && d.center.distance_sq(e.center) <= slack * slack
    };
    let mut kept: Vec<Circle> = Vec::with_capacity(discs.len());
    for (i, d) in discs.iter().enumerate() {
        let redundant = discs
            .iter()
            .enumerate()
            .any(|(j, e)| i != j && contains(d, e) && (j < i || !contains(e, d)));
        if !redundant {
            kept.push(*d);
        }
    }
    if kept.len() > SEED_FILTER_MIN {
        let mut reference = construct(filter_by_seed_bbox(kept));
        reference.seed_filtered = true;
        reference
    } else {
        construct(kept)
    }
}

/// Full construction over an already-reduced disc set.
fn construct(discs: Vec<Circle>) -> Reference {
    let tol = containment_tolerance(&discs);

    // Vertices: pairwise boundary intersections inside all discs.
    let mut vertices: Vec<Point> = Vec::new();
    let mut vertex_angles: Vec<Vec<f64>> = vec![Vec::new(); discs.len()];
    let mut pair = [Point::ORIGIN; 2];
    for i in 0..discs.len() {
        for j in (i + 1)..discs.len() {
            // Sqrt-free reject before the exact intersection math.
            let rsum = discs[i].radius + discs[j].radius;
            if discs[i].center.distance_sq(discs[j].center) > rsum * rsum {
                continue;
            }
            let n = discs[i].intersection_into(&discs[j], &mut pair);
            for &p in &pair[..n] {
                if discs.iter().all(|d| d.contains_with_tolerance(p, tol)) {
                    vertices.push(p);
                    let ang = |c: &Circle| normalize_angle((p - c.center).angle());
                    vertex_angles[i].push(ang(&discs[i]));
                    vertex_angles[j].push(ang(&discs[j]));
                }
            }
        }
    }
    dedup_points(&mut vertices, tol);

    // Arcs: with vertices, each circle's arcs are the gaps between its
    // sorted vertex angles whose midpoint lies in every disc; without
    // vertices (`k = 1` or an empty region) the interval scan handles
    // every circle.
    let mut arcs: Vec<Arc> = Vec::new();
    if !vertices.is_empty() {
        for (i, angs) in vertex_angles.iter_mut().enumerate() {
            if angs.is_empty() {
                continue;
            }
            let ci = &discs[i];
            angs.sort_by(f64::total_cmp);
            // Merge coincident vertex angles, including the 0/2π seam.
            let ang_tol = (tol * 10.0) / ci.radius.max(tol);
            let mut merged: Vec<f64> = Vec::with_capacity(angs.len());
            for &a in angs.iter() {
                if merged.last().is_none_or(|&m| a - m > ang_tol) {
                    merged.push(a);
                }
            }
            if merged.len() > 1 && merged[0] + TAU - merged[merged.len() - 1] <= ang_tol {
                merged.pop();
            }
            let m = merged.len();
            for w in 0..m {
                let start = merged[w];
                let end = if w + 1 < m {
                    merged[w + 1]
                } else {
                    merged[0] + TAU
                };
                let midpoint = ci.point_at((start + end) / 2.0);
                if discs
                    .iter()
                    .all(|d| d.contains_with_tolerance(midpoint, tol))
                {
                    arcs.push(Arc {
                        circle_index: i,
                        circle: *ci,
                        start,
                        end,
                    });
                }
            }
        }
    } else {
        'circles: for (i, ci) in discs.iter().enumerate() {
            let mut active = AngularIntervalSet::full();
            for (j, cj) in discs.iter().enumerate() {
                if i == j {
                    continue;
                }
                match boundary_inside(ci, cj) {
                    None => continue 'circles,
                    Some((theta, hw)) => active.intersect_arc(theta, hw),
                }
                if active.is_empty() {
                    continue 'circles;
                }
            }
            // A single arc crossing the zero angle is stored as two
            // segments; re-join them into one contiguous arc.
            let mut segs: Vec<(f64, f64)> = active.segments().to_vec();
            if let [first, .., last] = segs[..] {
                if first.0 <= 1e-12 && (TAU - last.1).abs() <= 1e-12 && !active.is_full() {
                    segs.pop();
                    segs.remove(0);
                    segs.push((last.0, first.1 + TAU));
                }
            }
            for (s, e) in segs {
                arcs.push(Arc {
                    circle_index: i,
                    circle: *ci,
                    start: s,
                    end: e,
                });
            }
        }
    }

    let mut area = 0.0;
    let mut mx = 0.0;
    let mut my = 0.0;
    for arc in &arcs {
        let (da, dmx, dmy) = green_contributions(arc);
        area += da;
        mx += dmx;
        my += dmy;
    }
    let area = area.max(0.0);
    let centroid = if area > tol * tol {
        Some(Point::new(mx / area, my / area))
    } else if !vertices.is_empty() {
        Point::mean(vertices.iter().copied())
    } else {
        None
    };

    Reference {
        discs,
        vertices,
        arcs,
        area,
        centroid,
        seed_filtered: false,
    }
}

/// The angular interval of `c`'s boundary lying inside the disc `other`,
/// as `(center_angle, half_width)`: `None` if no part is inside, a
/// half-width of `π` if all of it is.
fn boundary_inside(c: &Circle, other: &Circle) -> Option<(f64, f64)> {
    let d = c.center.distance(other.center);
    let (r1, r2) = (c.radius, other.radius);
    if d >= r1 + r2 {
        return None;
    }
    if d + r1 <= r2 {
        return Some((0.0, PI));
    }
    if d + r2 <= r1 {
        return None;
    }
    let theta = (other.center - c.center).angle();
    let cos_hw = ((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)).clamp(-1.0, 1.0);
    Some((theta, cos_hw.acos()))
}

/// `true` when disc `d` contains the whole axis-aligned box `[lo, hi]`
/// shrunk by `tol`.
fn disc_contains_box(d: &Circle, lo: Point, hi: Point, tol: f64) -> bool {
    let dx = (lo.x - d.center.x).abs().max((hi.x - d.center.x).abs());
    let dy = (lo.y - d.center.y).abs().max((hi.y - d.center.y).abs());
    let reach = d.radius - tol;
    reach >= 0.0 && dx * dx + dy * dy <= reach * reach
}

/// Drops discs containing the intersection of the discs' bounding
/// boxes; disjoint boxes reduce the set to a two-disc witness.
fn axis_box_prefilter(pre: &mut Vec<Circle>) {
    let mut lo = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut hi = Point::new(f64::INFINITY, f64::INFINITY);
    for d in pre.iter() {
        lo.x = lo.x.max(d.center.x - d.radius);
        lo.y = lo.y.max(d.center.y - d.radius);
        hi.x = hi.x.min(d.center.x + d.radius);
        hi.y = hi.y.min(d.center.y + d.radius);
    }
    if lo.x > hi.x || lo.y > hi.y {
        let span: fn(&Circle) -> (f64, f64) = if lo.x > hi.x {
            |d| (d.center.x - d.radius, d.center.x + d.radius)
        } else {
            |d| (d.center.y - d.radius, d.center.y + d.radius)
        };
        let Some((&first, rest)) = pre.split_first() else {
            return;
        };
        let (mut a, mut b) = (first, first);
        for d in rest {
            if span(d).0 >= span(&a).0 {
                a = *d;
            }
            if span(d).1 < span(&b).1 {
                b = *d;
            }
        }
        *pre = vec![a, b];
        return;
    }
    let tol = containment_tolerance(pre);
    pre.retain(|d| !disc_contains_box(d, lo, hi, tol));
}

/// Keeps the `SEED_DISCS` tightest discs plus every disc that does not
/// contain the bounding box of their intersection.
fn filter_by_seed_bbox(discs: Vec<Circle>) -> Vec<Circle> {
    let anchor = interior_anchor(&discs);
    let mut order: Vec<usize> = (0..discs.len()).collect();
    order.sort_by(|&a, &b| {
        let clearance = |d: &Circle| d.radius - anchor.distance(d.center);
        clearance(&discs[a])
            .total_cmp(&clearance(&discs[b]))
            .then(a.cmp(&b))
    });
    let mut kept: Vec<Circle> = order[..SEED_DISCS].iter().map(|&i| discs[i]).collect();
    let seed = construct(kept.clone());
    let Some((lo, hi)) = bounding_box(&seed) else {
        return kept;
    };
    let tol = containment_tolerance(&discs);
    for &i in &order[SEED_DISCS..] {
        let d = discs[i];
        if !disc_contains_box(&d, lo, hi, tol) {
            kept.push(d);
        }
    }
    kept
}

/// The tight axis-aligned box around a region's vertices and arcs.
fn bounding_box(region: &Reference) -> Option<(Point, Point)> {
    if region.is_empty() {
        return None;
    }
    let mut lo = Point::new(f64::INFINITY, f64::INFINITY);
    let mut hi = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut grow = |p: Point| {
        lo.x = lo.x.min(p.x);
        lo.y = lo.y.min(p.y);
        hi.x = hi.x.max(p.x);
        hi.y = hi.y.max(p.y);
    };
    for v in &region.vertices {
        grow(*v);
    }
    for arc in &region.arcs {
        grow(arc.circle.point_at(arc.start));
        grow(arc.circle.point_at(arc.end));
        for quad in 0..4 {
            let ang = quad as f64 * TAU / 4.0;
            if angle_in_arc(ang, arc.start, arc.end) {
                grow(arc.circle.point_at(ang));
            }
        }
    }
    Some((lo, hi))
}

/// Alternating projection from the smallest disc's center onto the most
/// violated disc, 12 rounds at most.
fn interior_anchor(discs: &[Circle]) -> Point {
    let mut p = discs
        .iter()
        .min_by(|a, b| a.radius.total_cmp(&b.radius))
        .map_or(Point::new(0.0, 0.0), |d| d.center);
    for _ in 0..12 {
        let mut worst = 0.0_f64;
        let mut target: Option<&Circle> = None;
        for d in discs {
            let violation = p.distance(d.center) - d.radius;
            if violation > worst {
                worst = violation;
                target = Some(d);
            }
        }
        let Some(d) = target else { break };
        let dist = p.distance(d.center);
        p = d.center + (p - d.center) * (d.radius / dist);
    }
    p
}

/// Containment tolerance scaled to the largest radius.
pub fn containment_tolerance(discs: &[Circle]) -> f64 {
    let rmax = discs.iter().map(|d| d.radius).fold(1.0, f64::max);
    1e-9 * rmax.max(1.0) + 1e-9
}

/// Removes near-duplicate points (within ten times `tol`), first wins.
fn dedup_points(points: &mut Vec<Point>, tol: f64) {
    if points.len() <= 1 {
        return;
    }
    let mut out: Vec<Point> = Vec::with_capacity(points.len());
    for &p in points.iter() {
        if !out.iter().any(|q| q.distance(p) <= tol * 10.0) {
            out.push(p);
        }
    }
    *points = out;
}

/// Whether `angle` lies within the CCW arc `[start, end]`.
fn angle_in_arc(angle: f64, start: f64, end: f64) -> bool {
    let a = normalize_angle(angle);
    if a >= start - 1e-12 && a <= end + 1e-12 {
        return true;
    }
    let a2 = a + TAU;
    a2 >= start - 1e-12 && a2 <= end + 1e-12
}

/// Green's theorem contributions of a boundary arc:
/// `(area, ∬x dA, ∬y dA)` pieces.
fn green_contributions(arc: &Arc) -> (f64, f64, f64) {
    let (a, b) = (arc.start, arc.end);
    let r = arc.circle.radius;
    let (cx, cy) = (arc.circle.center.x, arc.circle.center.y);
    let (sa, ca) = a.sin_cos();
    let (sb, cb) = b.sin_cos();
    let area = 0.5 * (r * r * (b - a) + cx * r * (sb - sa) - cy * r * (cb - ca));
    let i1 = sb - sa;
    let i2 = (b - a) / 2.0 + ((2.0 * b).sin() - (2.0 * a).sin()) / 4.0;
    let i3 = (sb - sb.powi(3) / 3.0) - (sa - sa.powi(3) / 3.0);
    let mx = 0.5 * (r * cx * cx * i1 + 2.0 * cx * r * r * i2 + r.powi(3) * i3);
    let j1 = ca - cb;
    let j2 = (b - a) / 2.0 - ((2.0 * b).sin() - (2.0 * a).sin()) / 4.0;
    let j3 = (-cb + cb.powi(3) / 3.0) - (-ca + ca.powi(3) / 3.0);
    let my = 0.5 * (r * cy * cy * j1 + 2.0 * cy * r * r * j2 + r.powi(3) * j3);
    (area, mx, my)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn boundary_inside_cases() {
        let a = c(0.0, 0.0, 1.0);
        // Crossing neighbour to the east: arc centered at angle 0.
        let (theta, hw) = boundary_inside(&a, &c(1.0, 0.0, 1.0)).unwrap();
        assert!((theta - 0.0).abs() < 1e-12);
        // cos hw = (1 + 1 − 1) / 2 = 0.5 -> hw = π/3.
        assert!((hw - PI / 3.0).abs() < 1e-12);
        // Containing circle: whole boundary.
        assert_eq!(boundary_inside(&a, &c(0.0, 0.0, 3.0)), Some((0.0, PI)));
        // Contained circle: nothing.
        assert_eq!(boundary_inside(&a, &c(0.0, 0.0, 0.5)), None);
        // Disjoint: nothing.
        assert_eq!(boundary_inside(&a, &c(5.0, 0.0, 1.0)), None);
    }
}
