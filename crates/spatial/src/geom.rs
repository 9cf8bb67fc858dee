//! Planar geometry primitives: points, axis-aligned rectangles, and simple
//! polygons.
//!
//! Coordinates are planar (x, y). Synthetic datasets place POIs on a planar
//! city grid, so Euclidean distance exercises the same operator pipelines
//! PostGIS geodesics would.

/// A 2-D point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate (longitude-like).
    pub x: f64,
    /// Y coordinate (latitude-like).
    pub y: f64,
}

impl Point {
    /// Construct a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// An axis-aligned rectangle (min/max corners).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl Rect {
    /// A rectangle from two corners in any order.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The degenerate rectangle covering a single point.
    pub fn of_point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// Whether the rectangle contains `p` (boundary inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }
}

/// A simple polygon (vertex ring, implicitly closed, no self-intersection
/// expected). Containment uses the even-odd ray-casting rule with a
/// boundary-inclusive convention matching `ST_Contains` for interior points
/// plus `ST_Covers`-style edge tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
    bbox: Rect,
}

impl Polygon {
    /// Build a polygon from at least 3 vertices.
    ///
    /// # Panics
    /// Panics if fewer than 3 vertices are supplied.
    pub fn new(vertices: Vec<Point>) -> Self {
        assert!(vertices.len() >= 3, "a polygon needs at least 3 vertices");
        let mut bbox = Rect::of_point(vertices[0]);
        for v in &vertices[1..] {
            bbox = bbox.union(&Rect::of_point(*v));
        }
        Polygon { vertices, bbox }
    }

    /// Axis-aligned rectangle as a polygon (urban-area bounding boxes).
    pub fn from_rect(r: Rect) -> Self {
        Polygon::new(vec![
            r.min,
            Point::new(r.max.x, r.min.y),
            r.max,
            Point::new(r.min.x, r.max.y),
        ])
    }

    /// The polygon's vertices.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// The polygon's bounding box.
    pub fn bbox(&self) -> &Rect {
        &self.bbox
    }

    /// Point-in-polygon test (even-odd rule), boundary-inclusive.
    pub fn contains(&self, p: &Point) -> bool {
        if !self.bbox.contains(p) {
            return false;
        }
        // Boundary check: on any edge counts as contained.
        let n = self.vertices.len();
        for k in 0..n {
            let a = self.vertices[k];
            let b = self.vertices[(k + 1) % n];
            if on_segment(&a, &b, p) {
                return true;
            }
        }
        // Even-odd ray cast to +x.
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let (vi, vj) = (self.vertices[i], self.vertices[j]);
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }
}

fn on_segment(a: &Point, b: &Point, p: &Point) -> bool {
    let cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
    if cross.abs() > 1e-9 {
        return false;
    }
    let dot = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y);
    let len2 = (b.x - a.x).powi(2) + (b.y - a.y).powi(2);
    (0.0..=len2).contains(&dot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn rect_contains_and_boundary() {
        let r = Rect::new(Point::new(2.0, 3.0), Point::new(0.0, 0.0)); // corners swapped
        assert!(r.contains(&Point::new(1.0, 1.0)));
        assert!(r.contains(&Point::new(0.0, 0.0)), "boundary inclusive");
        assert!(r.contains(&Point::new(2.0, 3.0)));
        assert!(!r.contains(&Point::new(2.1, 1.0)));
    }

    #[test]
    fn rect_union() {
        let a = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let c = Rect::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        let u = a.union(&c);
        assert_eq!(u.min, Point::new(0.0, 0.0));
        assert_eq!(u.max, Point::new(6.0, 6.0));
    }

    #[test]
    fn polygon_square_containment() {
        let sq = Polygon::from_rect(Rect::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0)));
        assert!(sq.contains(&Point::new(2.0, 2.0)));
        assert!(sq.contains(&Point::new(0.0, 2.0)), "edge");
        assert!(sq.contains(&Point::new(4.0, 4.0)), "vertex");
        assert!(!sq.contains(&Point::new(4.1, 2.0)));
        assert!(!sq.contains(&Point::new(-0.1, 2.0)));
    }

    #[test]
    fn polygon_concave_containment() {
        // An L-shape: the notch at top-right is outside.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        assert!(l.contains(&Point::new(1.0, 3.0)), "upper arm");
        assert!(l.contains(&Point::new(3.0, 1.0)), "lower arm");
        assert!(!l.contains(&Point::new(3.0, 3.0)), "the notch");
    }

    #[test]
    #[should_panic(expected = "at least 3 vertices")]
    fn degenerate_polygon_panics() {
        let _ = Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
    }

    #[test]
    fn polygon_bbox_short_circuits() {
        let tri = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 2.0),
        ]);
        assert_eq!(tri.bbox().min, Point::new(0.0, 0.0));
        assert_eq!(tri.bbox().max, Point::new(2.0, 2.0));
        assert!(!tri.contains(&Point::new(10.0, 10.0)));
        // Inside bbox, outside triangle.
        assert!(!tri.contains(&Point::new(1.9, 1.9)));
    }
}
