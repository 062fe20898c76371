//! Exact intersection of `k` discs: vertices, boundary arcs, area and
//! centroid.
//!
//! This is the geometric engine behind the paper's *disc-intersection
//! approach* (Section III-C). The intersection of discs is convex; its
//! boundary is a cycle of circular arcs meeting at vertices (pairwise
//! circle intersection points that lie inside every disc). Area and first
//! moments are integrated exactly with Green's theorem along those arcs,
//! so the centroid is the true centroid of the region — a strictly
//! stronger primitive than the paper's `AVG(Δ)` vertex average, which is
//! also provided as [`DiscIntersection::vertex_centroid`].
//!
//! # Construction
//!
//! The region is built by one incremental clip. The discs are taken in
//! order of clearance at a point near the region, tightest first; the
//! first disc is the starting region. Each further disc then does one
//! of three things:
//!
//! * it contains the region, and is skipped;
//! * it cuts the region: the boundary between each point where the
//!   boundary leaves the disc and the next point where it comes back in
//!   becomes an arc of the new disc (one disc can cut several times);
//! * it leaves nothing, and the region is empty.
//!
//! The boundary is a cyclic list of arcs whose vertices remember the
//! pair of input discs they were computed from. The per-disc tests are
//! trig-free: an arc can only cross the new disc's boundary if the
//! farthest or nearest point of its circle lies on it, which a
//! pseudo-angle comparison decides. A window of `k` discs whose region
//! has `m` vertices therefore costs `O(k·m)`.
//!
//! Two circles are asked whether they cross in one way only: the
//! sqrt-free pre-test `|c₁ − c₂|² > (r₁ + r₂)²` (no crossing), then
//! [`Circle::intersection_into`] on the pair ordered lower input index
//! first. Vertices are emitted sorted by (lower index, higher index,
//! point) and arcs by (input index, start angle), so the vertex mean and
//! the Green's-theorem sums add the same terms in the same order
//! whatever order the clip met them in.

use crate::interval::{normalize_angle, pseudo_angle};
use crate::{Circle, Point};
use std::f64::consts::TAU;

/// One circular arc of the intersection region's boundary.
///
/// The arc lies on `circle` and spans angles `start..end` (radians,
/// `end > start`, measured from the circle's center); traversing arcs in
/// increasing angle walks the region boundary counter-clockwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    /// Index of the supporting circle in [`DiscIntersection::discs`]:
    /// the discs that bound the region, not the input slice.
    pub circle_index: usize,
    /// The supporting circle.
    pub circle: Circle,
    /// Start angle, radians in `[0, 2π)`.
    pub start: f64,
    /// End angle, radians in `(start, start + 2π]`.
    pub end: f64,
}

impl Arc {
    /// Angular span of the arc in radians.
    pub fn span(&self) -> f64 {
        self.end - self.start
    }

    /// Arc length in the same units as the circle radius.
    pub fn length(&self) -> f64 {
        self.span() * self.circle.radius
    }

    /// Midpoint of the arc (on the circle).
    pub fn midpoint(&self) -> Point {
        self.circle.point_at((self.start + self.end) / 2.0)
    }
}

/// The intersection region `⋂ᵢ D(cᵢ, rᵢ)` of a set of discs.
///
/// Construction clips the discs into one boundary (see the
/// [module docs](self)) and then computes everything eagerly: vertices,
/// arcs, exact area and centroid. All queries afterwards are `O(1)`
/// except [`contains`](Self::contains), which checks every bounding
/// disc. Only the discs that bound the region are kept, so a stored
/// region does not grow with the discs that merely contain it.
///
/// # Example
///
/// ```
/// use marauder_geo::{Circle, DiscIntersection, Point};
/// let discs = [
///     Circle::new(Point::new(0.0, 0.0), 1.0),
///     Circle::new(Point::new(1.0, 0.0), 1.0),
/// ];
/// let lens = DiscIntersection::new(&discs);
/// // Two-disc case agrees with the closed-form lens area.
/// let expected = discs[0].lens_area(&discs[1]);
/// assert!((lens.area() - expected).abs() < 1e-9);
/// // Symmetry puts the centroid at the midpoint of the centers.
/// let c = lens.centroid().unwrap();
/// assert!(c.distance(Point::new(0.5, 0.0)) < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct DiscIntersection {
    discs: Vec<Circle>,
    vertices: Vec<Point>,
    arcs: Vec<Arc>,
    area: f64,
    centroid: Option<Point>,
    /// Containment tolerance of the input set.
    tol: f64,
}

impl DiscIntersection {
    /// Intersects the given discs.
    ///
    /// # Panics
    ///
    /// Panics if `discs` is empty: the intersection of zero discs is the
    /// whole plane, which has no finite description. Localization callers
    /// always have at least one communicable AP.
    pub fn new(discs: &[Circle]) -> Self {
        assert!(!discs.is_empty(), "cannot intersect zero discs");
        let mut clip = Clip::new(discs);
        clip.run();
        clip.finish()
    }

    /// Whether the discs have a common point: the verdict of
    /// `!DiscIntersection::new(discs).is_empty()`, reached by the same
    /// clip but without building the region, and stopping at the first
    /// disc that empties it. Zero discs have the whole plane in common.
    pub fn has_common_point(discs: &[Circle]) -> bool {
        if discs.is_empty() {
            return true;
        }
        let mut clip = Clip::new(discs);
        clip.run();
        !matches!(clip.shape, Shape::Empty)
    }

    /// The discs that bound the region, in input order: each holds an
    /// arc or a vertex of the boundary. Every other input disc contains
    /// the region, so the intersection of these equals the intersection
    /// of the full input. A region that shrank to a single point keeps
    /// the discs that cut it down, and an empty region keeps a witness:
    /// the discs that bounded it just before it emptied, and the disc
    /// that emptied it.
    pub fn discs(&self) -> &[Circle] {
        &self.discs
    }

    /// Vertices of the region boundary: every pairwise circle intersection
    /// point that lies inside all discs. This is the set `Δ` of the
    /// paper's M-Loc algorithm.
    ///
    /// They come sorted by the input indices of their two discs (lower
    /// first), then by which of [`Circle::intersection_into`]'s points
    /// they are: pair order, not boundary order. Neighbouring boundary
    /// points closer than ten times the containment tolerance count once.
    ///
    /// A region bounded by a single full circle (one disc contained in all
    /// others) has no vertices even though it is non-empty.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Boundary arcs, sorted by their circle's input index and then by
    /// start angle (each arc CCW).
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Exact area of the intersection region.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// `true` when the discs share no common point (within tolerance, a
    /// region that degenerates to a single tangency point still counts as
    /// non-empty).
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty() && self.vertices.is_empty()
    }

    /// Exact centroid of the region, or `None` for an empty region.
    ///
    /// For a zero-area region that is a single tangency point, returns
    /// that point.
    pub fn centroid(&self) -> Option<Point> {
        self.centroid
    }

    /// Mean of the boundary vertices — the paper's `AVG(Δ)` estimator
    /// (M-Loc line 11). `None` when there are no vertices, which happens
    /// both for empty regions and for regions bounded by a single circle.
    pub fn vertex_centroid(&self) -> Option<Point> {
        Point::mean(self.vertices.iter().copied())
    }

    /// Returns `true` when `p` lies in every disc (with tolerance).
    pub fn contains(&self, p: Point) -> bool {
        self.discs
            .iter()
            .all(|d| d.contains_with_tolerance(p, self.tol))
    }

    /// An axis-aligned bounding box `(min, max)` of the region, or `None`
    /// when empty. The box is the tight box around boundary arcs and
    /// vertices.
    pub fn bounding_box(&self) -> Option<(Point, Point)> {
        if self.is_empty() {
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
        for v in &self.vertices {
            grow(*v);
        }
        for arc in &self.arcs {
            grow(arc.circle.point_at(arc.start));
            grow(arc.circle.point_at(arc.end));
            // Axis-extreme angles contained in the arc extend the box.
            for quad in 0..4 {
                let ang = quad as f64 * TAU / 4.0;
                if angle_in_arc(ang, arc.start, arc.end) {
                    grow(arc.circle.point_at(ang));
                }
            }
        }
        Some((lo, hi))
    }
}

/// A boundary vertex: point `which` of [`Circle::intersection_into`] on
/// input discs `lo < hi`.
#[derive(Debug, Clone, Copy)]
struct Vertex {
    p: Point,
    lo: usize,
    hi: usize,
    which: u8,
}

impl Vertex {
    /// The output order: by disc pair, then by point.
    fn key(&self) -> (usize, usize, u8) {
        (self.lo, self.hi, self.which)
    }
}

/// One boundary arc while clipping. It runs counter-clockwise along
/// input disc `circle`, from vertex `from` to the next edge's `from`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    circle: usize,
    from: Vertex,
}

/// The region while clipping.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// No common point.
    Empty,
    /// A single point, such as where two discs touch.
    Point(Vertex),
    /// One whole disc, without vertices.
    Full(usize),
    /// The edges in [`Clip::edges`]: two or more.
    Cycle,
}

/// Where an edge's circle meets a new disc's boundary, by the one pair
/// predicate.
enum Crossing {
    /// The sqrt-free pre-test rejected the pair, or
    /// [`Circle::intersection_into`] found no point.
    None,
    /// [`Circle::intersection_into`] found one point.
    Touch(Vertex),
    /// Walking counter-clockwise along the edge's circle, it leaves the
    /// new disc at `exit` and comes back in at `entry`.
    Cross { exit: Vertex, entry: Vertex },
}

/// The incremental clip behind [`DiscIntersection`].
struct Clip<'a> {
    discs: &'a [Circle],
    tol: f64,
    shape: Shape,
    edges: Vec<Edge>,
    /// The next cycle, built while clipping `edges`.
    next: Vec<Edge>,
    /// Whether each vertex of `edges` lies in the disc being clipped.
    inside: Vec<bool>,
    /// Set when the region shrinks to a point or empties: the discs
    /// that bounded it and the disc that cut it.
    witness: Vec<usize>,
}

impl<'a> Clip<'a> {
    fn new(discs: &'a [Circle]) -> Self {
        Clip {
            discs,
            tol: containment_tolerance(discs),
            shape: Shape::Empty,
            edges: Vec::new(),
            next: Vec::new(),
            inside: Vec::new(),
            witness: Vec::new(),
        }
    }

    /// Clips every disc, tightest first, until the region empties.
    fn run(&mut self) {
        let anchor = interior_anchor(self.discs);
        let mut order: Vec<(f64, usize)> = self
            .discs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.radius - anchor.distance(d.center), i))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut order = order.into_iter().map(|(_, i)| i);
        if let Some(first) = order.next() {
            self.shape = Shape::Full(first);
        }
        for n in order {
            match self.shape {
                Shape::Empty => break,
                Shape::Point(v) => {
                    if !self.discs[n].contains_with_tolerance(v.p, self.tol) {
                        self.empty(n);
                    }
                }
                Shape::Full(c) => self.clip_full(c, n),
                Shape::Cycle => self.clip_cycle(n),
            }
        }
    }

    /// Clips the whole disc `c` by disc `n`.
    fn clip_full(&mut self, c: usize, n: usize) {
        let (outer, disc) = (self.discs[c], self.discs[n]);
        let dist = outer.center.distance(disc.center);
        if dist + outer.radius <= disc.radius + self.tol {
            return;
        }
        match self.crossing(c, n) {
            Crossing::Cross { exit, entry } => {
                self.next.clear();
                self.next.extend([
                    Edge {
                        circle: c,
                        from: entry,
                    },
                    Edge {
                        circle: n,
                        from: exit,
                    },
                ]);
                self.settle(n);
            }
            // Touching from inside leaves the smaller disc whole; from
            // outside, only the touching point.
            Crossing::Touch(t) => {
                if dist >= outer.radius.max(disc.radius) {
                    self.shrink_to(t, n);
                } else if disc.radius < outer.radius {
                    self.shape = Shape::Full(n);
                }
            }
            Crossing::None => {
                let rsum = outer.radius + disc.radius;
                if outer.center.distance_sq(disc.center) > rsum * rsum || dist > rsum {
                    self.empty(n);
                } else if disc.radius < outer.radius {
                    self.shape = Shape::Full(n);
                }
            }
        }
    }

    /// Clips the cycle in `edges` by disc `n`.
    fn clip_cycle(&mut self, n: usize) {
        let disc = self.discs[n];
        let tol = self.tol;
        let m = self.edges.len();
        self.inside.clear();
        self.inside.extend(
            self.edges
                .iter()
                .map(|e| disc.contains_with_tolerance(e.from.p, tol)),
        );
        self.next.clear();
        let mut cut = false;
        for k in 0..m {
            let edge = self.edges[k];
            let to = self.edges[(k + 1) % m].from.p;
            let circle = self.discs[edge.circle];
            let (from_in, to_in) = (self.inside[k], self.inside[(k + 1) % m]);
            if from_in {
                self.next.push(edge);
            } else {
                cut = true;
            }
            let onto = |v: Vertex| Edge { circle: n, from: v };
            let along = |v: Vertex| Edge {
                circle: edge.circle,
                from: v,
            };
            // A crossing the pair predicate puts off its arc lies within
            // rounding of an end of the arc; the boundary then leaves
            // or enters the new disc at that end.
            let here = |v: &Vertex| place(&circle, edge.from.p, to, v.p);
            let leave_at_start = |next: &mut Vec<Edge>| {
                if let Some(last) = next.last_mut() {
                    last.circle = n;
                }
            };
            match (from_in, to_in) {
                (true, true) => {
                    if !bulges(&circle, edge.from.p, to, &disc, tol) {
                        continue;
                    }
                    let Crossing::Cross { exit, entry } = self.crossing(edge.circle, n) else {
                        continue;
                    };
                    match (here(&exit), here(&entry)) {
                        (Place::End, _) | (_, Place::Start) => {}
                        (Place::Inside(x), Place::Inside(e)) if x >= e => {}
                        (x, e) => {
                            if let Place::Inside(_) = x {
                                self.next.push(onto(exit));
                            } else {
                                leave_at_start(&mut self.next);
                            }
                            if let Place::Inside(_) = e {
                                self.next.push(along(entry));
                            }
                            cut = true;
                        }
                    }
                }
                (false, false) => {
                    if !dips(&circle, edge.from.p, to, &disc, tol) {
                        continue;
                    }
                    match self.crossing(edge.circle, n) {
                        Crossing::Cross { exit, entry } => {
                            if let (Place::Inside(e), Place::Inside(x)) =
                                (here(&entry), here(&exit))
                            {
                                if e < x {
                                    self.next.extend([along(entry), onto(exit)]);
                                }
                            }
                        }
                        Crossing::Touch(t) => {
                            if let Place::Inside(_) = here(&t) {
                                self.next.push(onto(t));
                            }
                        }
                        Crossing::None => {}
                    }
                }
                // Without a crossing the arc's start lies in the
                // tolerance band, and the boundary leaves right there.
                (true, false) => match self.crossing(edge.circle, n) {
                    Crossing::Cross { exit, .. } | Crossing::Touch(exit) => match here(&exit) {
                        Place::Inside(_) => self.next.push(onto(exit)),
                        Place::End => self.next.push(onto(self.edges[(k + 1) % m].from)),
                        Place::Start => leave_at_start(&mut self.next),
                    },
                    Crossing::None => leave_at_start(&mut self.next),
                },
                // Likewise, without a crossing the boundary comes back
                // in at the arc's end.
                (false, true) => match self.crossing(edge.circle, n) {
                    Crossing::Cross { entry, .. } | Crossing::Touch(entry) => match here(&entry) {
                        Place::Inside(_) => self.next.push(along(entry)),
                        Place::Start => self.next.push(edge),
                        Place::End => {}
                    },
                    Crossing::None => {}
                },
            }
        }
        if cut {
            self.settle(n);
        }
    }

    /// Makes the cycle built in `next` while clipping disc `n` the
    /// region: merges its near-coincident vertices, then reads what is
    /// left.
    fn settle(&mut self, n: usize) {
        self.collapse();
        match self.next.len() {
            // Nothing of the old boundary is left and nothing crossed
            // it: the new disc lies inside the region or misses it.
            0 => {
                if self.covers(self.discs[n].center) {
                    self.shape = Shape::Full(n);
                } else {
                    self.empty(n);
                }
            }
            1 => self.shrink_to(self.next[0].from, n),
            _ => {
                std::mem::swap(&mut self.edges, &mut self.next);
                self.shape = Shape::Cycle;
            }
        }
    }

    /// Merges consecutive vertices of `next` that lie within ten times
    /// the tolerance of each other, dropping the arc between them; the
    /// vertex that sorts first is kept.
    fn collapse(&mut self) {
        let reach = 10.0 * self.tol;
        loop {
            let m = self.next.len();
            if m < 2 {
                return;
            }
            let close = (0..m).find(|&k| {
                let (a, b) = (self.next[k].from, self.next[(k + 1) % m].from);
                a.p.distance(b.p) <= reach
            });
            let Some(k) = close else { return };
            let (a, b) = (self.next[k].from, self.next[(k + 1) % m].from);
            self.next[(k + 1) % m].from = if a.key() <= b.key() { a } else { b };
            self.next.remove(k);
        }
    }

    /// Whether `p` lies in every disc bounding the current cycle.
    fn covers(&self, p: Point) -> bool {
        self.edges
            .iter()
            .all(|e| self.discs[e.circle].contains_with_tolerance(p, self.tol))
    }

    /// Empties the region at disc `n`, keeping the witness.
    fn empty(&mut self, n: usize) {
        self.witness = self.bounding();
        self.witness.push(n);
        self.shape = Shape::Empty;
    }

    /// Shrinks the region to the point `v` at disc `n`, keeping the
    /// witness: a point bounds nothing, so the discs that cut it down
    /// are what place it.
    fn shrink_to(&mut self, v: Vertex, n: usize) {
        self.witness = self.bounding();
        self.witness.push(n);
        self.shape = Shape::Point(v);
    }

    /// The input indices of the discs bounding the current shape, in
    /// input order.
    fn bounding(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = match self.shape {
            Shape::Empty => Vec::new(),
            Shape::Point(v) => [v.lo, v.hi]
                .into_iter()
                .chain(self.witness.iter().copied())
                .collect(),
            Shape::Full(c) => vec![c],
            Shape::Cycle => self
                .edges
                .iter()
                .flat_map(|e| [e.circle, e.from.lo, e.from.hi])
                .collect(),
        };
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The one pair predicate: whether the circle of input disc `c`
    /// crosses the boundary of input disc `n`, and where.
    fn crossing(&self, c: usize, n: usize) -> Crossing {
        let (lo, hi) = if c < n { (c, n) } else { (n, c) };
        let (a, b) = (&self.discs[lo], &self.discs[hi]);
        let rsum = a.radius + b.radius;
        if a.center.distance_sq(b.center) > rsum * rsum {
            return Crossing::None;
        }
        let mut pts = [Point::ORIGIN; 2];
        let count = a.intersection_into(b, &mut pts);
        let vertex = |which: u8| Vertex {
            p: pts[usize::from(which)],
            lo,
            hi,
            which,
        };
        match count {
            // The first point is where the lower disc's circle leaves
            // the higher disc, and where the higher one's comes in.
            2 if c == lo => Crossing::Cross {
                exit: vertex(0),
                entry: vertex(1),
            },
            2 => Crossing::Cross {
                exit: vertex(1),
                entry: vertex(0),
            },
            1 => Crossing::Touch(vertex(0)),
            _ => Crossing::None,
        }
    }

    /// The region: discs, vertices, arcs, area and centroid.
    fn finish(self) -> DiscIntersection {
        let discs = self.discs;
        let tol = self.tol;
        let mut vertices: Vec<Vertex> = Vec::new();
        let mut arcs: Vec<(usize, f64, f64)> = Vec::new();
        let mut ids = match self.shape {
            Shape::Empty => self.witness.clone(),
            Shape::Point(v) => {
                vertices.push(v);
                self.bounding()
            }
            Shape::Full(c) => {
                arcs.push((c, 0.0, TAU));
                vec![c]
            }
            Shape::Cycle => {
                let m = self.edges.len();
                for (k, e) in self.edges.iter().enumerate() {
                    let to = self.edges[(k + 1) % m].from.p;
                    let center = discs[e.circle].center;
                    let start = normalize_angle((e.from.p - center).angle());
                    let mut end = normalize_angle((to - center).angle());
                    if end <= start {
                        end += TAU;
                    }
                    arcs.push((e.circle, start, end));
                    vertices.push(e.from);
                }
                vertices.sort_by_key(Vertex::key);
                self.bounding()
            }
        };
        ids.sort_unstable();
        ids.dedup();
        arcs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let arcs: Vec<Arc> = arcs
            .into_iter()
            .map(|(c, start, end)| Arc {
                circle_index: ids.partition_point(|&i| i < c),
                circle: discs[c],
                start,
                end,
            })
            .collect();
        let vertices: Vec<Point> = vertices.into_iter().map(|v| v.p).collect();

        // Exact area and centroid by Green's theorem over the boundary
        // arcs (the arcs form the full closed boundary, traversed CCW).
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
            // Degenerate (tangency) region: use the vertex mean.
            Point::mean(vertices.iter().copied())
        } else {
            None
        };

        DiscIntersection {
            discs: ids.iter().map(|&i| discs[i]).collect(),
            vertices,
            arcs,
            area,
            centroid,
            tol,
        }
    }
}

/// Where a point of `circle` falls on its CCW arc from `from` to `to`.
enum Place {
    /// Before the arc, nearer its start than its end (or at the start).
    Start,
    /// Strictly inside, at this pseudo-angle from the start.
    Inside(f64),
    /// Past the arc, nearer its end (or at the end).
    End,
}

fn place(circle: &Circle, from: Point, to: Point, v: Point) -> Place {
    let start = from - circle.center;
    let end = pseudo_angle(start, to - circle.center);
    let at = pseudo_angle(start, v - circle.center);
    if at <= 0.0 {
        Place::Start
    } else if at < end {
        Place::Inside(at)
    } else if at - end < 4.0 - at {
        Place::End
    } else {
        Place::Start
    }
}

/// Whether the arc of `circle` from `from` to `to` (CCW) reaches out of
/// `disc` by more than `tol`: the circle's farthest point from the
/// disc's center does, and lies on the arc. Along a circle the distance
/// to a fixed point falls monotonically from the farthest point to the
/// nearest, so otherwise the arc's farthest points are its ends.
fn bulges(circle: &Circle, from: Point, to: Point, disc: &Circle, tol: f64) -> bool {
    let away = circle.center - disc.center;
    away.norm() + circle.radius > disc.radius + tol
        && matches!(
            place(circle, from, to, circle.center + away),
            Place::Inside(_)
        )
}

/// Whether the arc of `circle` from `from` to `to` (CCW) reaches into
/// `disc` (within `tol`): the circle's nearest point to the disc's
/// center does, and lies on the arc.
fn dips(circle: &Circle, from: Point, to: Point, disc: &Circle, tol: f64) -> bool {
    let away = circle.center - disc.center;
    (away.norm() - circle.radius).abs() <= disc.radius + tol
        && matches!(
            place(circle, from, to, circle.center - away),
            Place::Inside(_)
        )
}

/// A point near (ideally inside) the intersection, found by alternating
/// projection: starting from the smallest disc's center, repeatedly jump
/// onto the boundary of the most-violated disc. For a non-empty
/// intersection of convex sets this converges geometrically; a few
/// rounds land close enough that disc clearances measured from the
/// anchor rank the truly tight discs first. Deterministic (first-wins
/// ties, fixed round count) and cheap (`O(rounds·k)` distances). The
/// clip is exact whatever this returns — a bad anchor only costs
/// skipped discs.
fn interior_anchor(discs: &[Circle]) -> Point {
    // The origin default is unreachable (callers pass non-empty sets)
    // and would only cost skipped discs anyway.
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
        // Project onto the violated disc's boundary (dist > r ≥ 0, so
        // dist > 0 and the direction is well defined).
        p = d.center + (p - d.center) * (d.radius / dist);
    }
    p
}

/// Tolerance used for containment tests, scaled to the largest radius so
/// meter-scale and kilometer-scale scenarios behave alike.
fn containment_tolerance(discs: &[Circle]) -> f64 {
    let rmax = discs.iter().map(|d| d.radius).fold(1.0, f64::max);
    1e-9 * rmax.max(1.0) + 1e-9
}

/// Whether `angle` lies within the CCW arc `[start, end]` (angles may
/// exceed 2π in `end`).
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

    // Area: ½∮(x dy − y dx)
    let area = 0.5 * (r * r * (b - a) + cx * r * (sb - sa) - cy * r * (cb - ca));

    // Mx = ∬x dA = ½∮ x² dy
    let i1 = sb - sa; // ∫cos
    let i2 = (b - a) / 2.0 + ((2.0 * b).sin() - (2.0 * a).sin()) / 4.0; // ∫cos²
    let i3 = (sb - sb.powi(3) / 3.0) - (sa - sa.powi(3) / 3.0); // ∫cos³
    let mx = 0.5 * (r * cx * cx * i1 + 2.0 * cx * r * r * i2 + r.powi(3) * i3);

    // My = ∬y dA = −½∮ y² dx
    let j1 = ca - cb; // ∫sin
    let j2 = (b - a) / 2.0 - ((2.0 * b).sin() - (2.0 * a).sin()) / 4.0; // ∫sin²
    let j3 = (-cb + cb.powi(3) / 3.0) - (-ca + ca.powi(3) / 3.0); // ∫sin³
    let my = 0.5 * (r * cy * cy * j1 + 2.0 * cy * r * r * j2 + r.powi(3) * j3);

    (area, mx, my)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    #[should_panic(expected = "zero discs")]
    fn empty_input_panics() {
        let _ = DiscIntersection::new(&[]);
    }

    #[test]
    fn single_disc_is_itself() {
        let region = DiscIntersection::new(&[c(2.0, -1.0, 3.0)]);
        assert!(!region.is_empty());
        assert!((region.area() - 9.0 * PI).abs() < 1e-9);
        assert_eq!(region.centroid(), Some(Point::new(2.0, -1.0)));
        assert!(region.vertices().is_empty());
        assert_eq!(region.vertex_centroid(), None);
        assert_eq!(region.arcs().len(), 1);
        assert!((region.arcs()[0].span() - TAU).abs() < 1e-12);
    }

    #[test]
    fn two_disc_lens_matches_closed_form() {
        for &d in &[0.2, 0.7, 1.3, 1.9] {
            let discs = [c(0.0, 0.0, 1.0), c(d, 0.0, 1.0)];
            let region = DiscIntersection::new(&discs);
            let expected = discs[0].lens_area(&discs[1]);
            assert!(
                (region.area() - expected).abs() < 1e-9,
                "d={d}: {} vs {}",
                region.area(),
                expected
            );
            assert_eq!(region.vertices().len(), 2);
            let cen = region.centroid().unwrap();
            assert!(cen.distance(Point::new(d / 2.0, 0.0)) < 1e-9);
        }
    }

    #[test]
    fn disjoint_discs_are_empty() {
        let region = DiscIntersection::new(&[c(0.0, 0.0, 1.0), c(5.0, 0.0, 1.0)]);
        assert!(region.is_empty());
        assert_eq!(region.area(), 0.0);
        assert_eq!(region.centroid(), None);
        assert_eq!(region.bounding_box(), None);
    }

    #[test]
    fn pairwise_overlap_but_empty_triple() {
        // Three discs where every pair overlaps but no common point exists.
        let r = 1.1;
        let discs = [c(0.0, 0.0, r), c(2.0, 0.0, r), c(1.0, 1.9, r)];
        // sanity: pairwise overlap
        assert!(discs[0].lens_area(&discs[1]) > 0.0);
        assert!(discs[0].lens_area(&discs[2]) > 0.0);
        assert!(discs[1].lens_area(&discs[2]) > 0.0);
        let region = DiscIntersection::new(&discs);
        assert!(region.is_empty(), "area={}", region.area());
    }

    #[test]
    fn contained_disc_dominates() {
        // Small disc inside two big ones: region == small disc.
        let discs = [c(0.0, 0.0, 10.0), c(1.0, 0.0, 10.0), c(0.5, 0.0, 1.0)];
        let region = DiscIntersection::new(&discs);
        assert!((region.area() - PI).abs() < 1e-9);
        assert!(region.centroid().unwrap().distance(Point::new(0.5, 0.0)) < 1e-9);
        // Boundary is the small circle alone; no vertices. The two
        // containing discs are pruned, so only the small disc remains
        // and the single full-circle arc references it at index 0.
        assert!(region.vertices().is_empty());
        assert_eq!(region.discs().len(), 1);
        assert_eq!(region.arcs().len(), 1);
        assert_eq!(region.arcs()[0].circle_index, 0);
    }

    #[test]
    fn bbox_filter_matches_unfiltered() {
        // Three tight discs shape the region; twenty wide discs on a
        // ring all contain it but none contains another (equal radii,
        // spread centers). None of them may bound the region: the
        // 23-disc result must match the 3-disc result exactly.
        let tight = vec![c(0.0, 0.0, 1.0), c(0.9, 0.2, 1.1), c(0.4, 0.7, 0.9)];
        let small = DiscIntersection::new(&tight);
        let mut all = tight;
        for k in 0..20 {
            let ang = k as f64 * TAU / 20.0;
            all.push(c(8.0 * ang.cos(), 8.0 * ang.sin(), 12.0));
        }
        let big = DiscIntersection::new(&all);
        assert_eq!(big.discs().len(), 3, "wide discs must be filtered out");
        assert!((big.area() - small.area()).abs() < 1e-12);
        assert_eq!(big.vertices().len(), small.vertices().len());
        let (a, b) = (big.centroid().unwrap(), small.centroid().unwrap());
        assert!(a.distance(b) < 1e-12);
    }

    #[test]
    fn bbox_filter_empty_region_detected() {
        // Every pair overlaps but the triple is empty; padding with wide
        // ring discs must not flip the emptiness verdict.
        let r = 1.1;
        let mut discs = vec![c(0.0, 0.0, r), c(2.0, 0.0, r), c(1.0, 1.9, r)];
        for k in 0..16 {
            let ang = k as f64 * TAU / 16.0;
            discs.push(c(1.0 + 9.0 * ang.cos(), 0.6 + 9.0 * ang.sin(), 13.0));
        }
        let region = DiscIntersection::new(&discs);
        assert!(region.is_empty(), "area={}", region.area());
    }

    #[test]
    fn three_symmetric_discs() {
        // Three unit discs centered on an equilateral triangle around the
        // origin; by symmetry the centroid is the origin.
        let d = 0.8;
        let discs: Vec<Circle> = (0..3)
            .map(|k| {
                let ang = k as f64 * TAU / 3.0 + 0.3;
                c(d * ang.cos(), d * ang.sin(), 1.0)
            })
            .collect();
        let region = DiscIntersection::new(&discs);
        assert!(!region.is_empty());
        let cen = region.centroid().unwrap();
        assert!(cen.distance(Point::ORIGIN) < 1e-9, "centroid {cen}");
        assert_eq!(region.vertices().len(), 3);
        assert_eq!(region.arcs().len(), 3);
        // Reuleaux-like region: centroid and vertex centroid coincide by
        // symmetry here.
        let vc = region.vertex_centroid().unwrap();
        assert!(vc.distance(Point::ORIGIN) < 1e-9);
    }

    #[test]
    fn area_shrinks_as_discs_are_added() {
        let mut discs = vec![c(0.0, 0.0, 1.0)];
        let mut last = DiscIntersection::new(&discs).area();
        let offsets = [(0.5, 0.1), (-0.3, 0.4), (0.2, -0.5), (0.0, 0.6)];
        for (dx, dy) in offsets {
            discs.push(c(dx, dy, 1.0));
            let a = DiscIntersection::new(&discs).area();
            assert!(a <= last + 1e-12, "area grew: {a} > {last}");
            last = a;
        }
    }

    #[test]
    fn centroid_inside_region() {
        let discs = [
            c(0.0, 0.0, 1.0),
            c(0.9, 0.2, 1.1),
            c(0.4, 0.7, 0.9),
            c(0.5, -0.3, 1.3),
        ];
        let region = DiscIntersection::new(&discs);
        assert!(!region.is_empty());
        let cen = region.centroid().unwrap();
        assert!(region.contains(cen));
        // Convexity: the true centroid lies in the region; so does the
        // vertex centroid.
        let vc = region.vertex_centroid().unwrap();
        assert!(region.contains(vc));
    }

    #[test]
    fn a_pair_tangent_to_rounding_is_no_crossing() {
        // Campus 0 of the seed-1 `aprad-live` pool at `LocationsOnly`,
        // with the LP's radii: discs 0 and 1 are tangent to four
        // decimals. The sqrt-free pre-test rejects the pair, although
        // `intersection_into` would find two points 3.8 µm apart inside
        // every disc; so the region is empty and M-Loc inflates the
        // window. This pins that verdict, whichever way a later change
        // decides tangency.
        let discs = [
            c(28.711, -116.886, 125.68155489206492),
            c(7.614, 99.824, 92.0529336691182),
            c(43.494, -66.3, 124.9723290022257),
            c(72.534, -11.277, 105.84260846948484),
            c(63.548, -75.055, 128.87797023171402),
        ];
        let rsum = discs[0].radius + discs[1].radius;
        assert!(discs[0].center.distance_sq(discs[1].center) > rsum * rsum);
        let mut pts = [Point::ORIGIN; 2];
        assert_eq!(discs[0].intersection_into(&discs[1], &mut pts), 2);
        assert!(pts[0].distance(pts[1]) < 4e-6);
        let tol = containment_tolerance(&discs);
        assert!(pts
            .iter()
            .all(|&p| discs.iter().all(|d| d.contains_with_tolerance(p, tol))));
        let region = DiscIntersection::new(&discs);
        assert!(region.is_empty());
        assert!(!DiscIntersection::has_common_point(&discs));
    }

    #[test]
    fn tangent_discs_meet_in_a_point() {
        let region = DiscIntersection::new(&[c(0.0, 0.0, 1.0), c(2.0, 0.0, 1.0)]);
        assert!(!region.is_empty());
        assert!(region.area() < 1e-9);
        let cen = region.centroid().unwrap();
        assert!(cen.distance(Point::new(1.0, 0.0)) < 1e-6);
    }

    #[test]
    fn bounding_box_contains_region() {
        let discs = [c(0.0, 0.0, 1.0), c(1.0, 0.0, 1.0)];
        let region = DiscIntersection::new(&discs);
        let (lo, hi) = region.bounding_box().unwrap();
        // The lens spans x in [0.?, ...]: vertices at x=0.5, arcs bulge to
        // x=0 (on circle 2) and x=1 (on circle 1).
        assert!(lo.x <= 0.0 + 1e-9 && hi.x >= 1.0 - 1e-9);
        for v in region.vertices() {
            assert!(v.x >= lo.x - 1e-9 && v.x <= hi.x + 1e-9);
            assert!(v.y >= lo.y - 1e-9 && v.y <= hi.y + 1e-9);
        }
        let cen = region.centroid().unwrap();
        assert!(cen.x >= lo.x && cen.x <= hi.x);
    }

    #[test]
    fn identical_discs_collapse() {
        let region = DiscIntersection::new(&[c(0.0, 0.0, 1.0), c(0.0, 0.0, 1.0)]);
        assert!((region.area() - PI).abs() < 1e-9);
        assert!(region.centroid().unwrap().distance(Point::ORIGIN) < 1e-9);
    }

    #[test]
    fn arc_metadata_consistent() {
        let discs = [c(0.0, 0.0, 1.0), c(1.0, 0.0, 1.0)];
        let region = DiscIntersection::new(&discs);
        assert_eq!(region.arcs().len(), 2);
        for arc in region.arcs() {
            assert!(arc.span() > 0.0);
            assert!(arc.length() > 0.0);
            // Arc midpoint must lie inside the region.
            assert!(region.contains(arc.midpoint()));
        }
        // Total boundary should connect through both vertices.
        assert_eq!(region.vertices().len(), 2);
    }
}
