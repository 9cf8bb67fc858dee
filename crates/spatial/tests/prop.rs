//! Property-based tests for the spatial substrate: the geometry predicates
//! against their definitions.

use proptest::prelude::*;
use recdb_spatial::{functions, Point, Polygon, Rect};

fn point_strategy() -> impl Strategy<Value = Point> {
    (-1000.0f64..1000.0, -1000.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    /// For rectangle polygons, polygon containment ≡ rect containment —
    /// and therefore ST_Contains over SQL RECT values is exact.
    #[test]
    fn rect_polygon_containment_agrees(
        a in point_strategy(),
        b in point_strategy(),
        p in point_strategy(),
    ) {
        let rect = Rect::new(a, b);
        let poly = Polygon::from_rect(rect);
        prop_assert_eq!(poly.contains(&p), rect.contains(&p));
        prop_assert_eq!(functions::st_contains(&poly, &p), rect.contains(&p));
    }

    /// ST_DWithin is symmetric and consistent with ST_Distance.
    #[test]
    fn dwithin_consistent_with_distance(
        a in point_strategy(),
        b in point_strategy(),
        d in 0.0f64..3000.0,
    ) {
        let within = functions::st_dwithin(&a, &b, d);
        prop_assert_eq!(within, functions::st_distance(&a, &b) <= d);
        prop_assert_eq!(within, functions::st_dwithin(&b, &a, d));
    }

    /// Distance is a metric on the sampled domain: non-negative,
    /// symmetric, zero iff same point (for finite coords), triangle
    /// inequality within float tolerance.
    #[test]
    fn distance_is_a_metric(
        a in point_strategy(),
        b in point_strategy(),
        c in point_strategy(),
    ) {
        let ab = functions::st_distance(&a, &b);
        let ba = functions::st_distance(&b, &a);
        let ac = functions::st_distance(&a, &c);
        let cb = functions::st_distance(&c, &b);
        prop_assert!(ab >= 0.0);
        prop_assert_eq!(ab, ba);
        prop_assert!(ab <= ac + cb + 1e-9, "triangle: {} > {} + {}", ab, ac, cb);
        prop_assert_eq!(functions::st_distance(&a, &a), 0.0);
    }

    /// CScore stays in [0, 1] and is monotone in both arguments.
    #[test]
    fn cscore_bounded_and_monotone(
        r1 in 0.0f64..5.0,
        r2 in 0.0f64..5.0,
        d1 in 0.0f64..2000.0,
        d2 in 0.0f64..2000.0,
    ) {
        let s = functions::cscore(r1, d1);
        prop_assert!((0.0..=1.0).contains(&s));
        if r1 <= r2 {
            prop_assert!(functions::cscore(r1, d1) <= functions::cscore(r2, d1) + 1e-12);
        }
        if d1 <= d2 {
            prop_assert!(functions::cscore(r1, d2) <= functions::cscore(r1, d1) + 1e-12);
        }
    }
}
