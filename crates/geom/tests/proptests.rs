//! Property-based tests for the geometry substrate.

use rpb_geom::predicates::*;
use rpb_geom::{delaunay, Point};
use rpb_parlay::prop::{check, Gen};

const CASES: usize = 64;

/// A point with both coordinates in `[-1000, 1000)`.
fn finite_point(g: &mut Gen) -> Point {
    let mut coord = || g.in_range(0..1 << 53) as f64 / (1u64 << 53) as f64 * 2000.0 - 1000.0;
    Point::new(coord(), coord())
}

/// Orientation is antisymmetric under swapping two points.
#[test]
fn orient2d_antisymmetric() {
    check("orient2d_antisymmetric", CASES, |g| {
        let (a, b, c) = (finite_point(g), finite_point(g), finite_point(g));
        let d1 = orient2d(&a, &b, &c);
        let d2 = orient2d(&b, &a, &c);
        assert!((d1 + d2).abs() <= 1e-6 * d1.abs().max(d2.abs()).max(1e-300));
    });
}

/// Orientation is invariant under cyclic rotation of the arguments.
#[test]
fn orient2d_cyclic() {
    check("orient2d_cyclic", CASES, |g| {
        let (a, b, c) = (finite_point(g), finite_point(g), finite_point(g));
        let d1 = orient2d(&a, &b, &c);
        let d2 = orient2d(&b, &c, &a);
        assert!((d1 - d2).abs() <= 1e-6 * d1.abs().max(1.0));
    });
}

/// The circumcenter is equidistant from all three vertices.
#[test]
fn circumcenter_equidistant() {
    check("circumcenter_equidistant", CASES, |g| {
        let (a, b, c) = (finite_point(g), finite_point(g), finite_point(g));
        if let Some(cc) = circumcenter(&a, &b, &c) {
            let (ra, rb, rc) = (cc.dist(&a), cc.dist(&b), cc.dist(&c));
            let r = ra.max(rb).max(rc).max(1e-12);
            // Relative tolerance loosens for near-degenerate triangles.
            let slack = 1e-6 * r * (1.0 + r / orient2d(&a, &b, &c).abs().max(1e-12));
            assert!((ra - rb).abs() <= slack, "ra={ra} rb={rb}");
            assert!((ra - rc).abs() <= slack, "ra={ra} rc={rc}");
        }
    });
}

/// The triangle's own vertices are never strictly inside its
/// circumcircle.
#[test]
fn vertices_not_inside_own_circle() {
    check("vertices_not_inside_own_circle", CASES, |g| {
        let (a, b, c) = (finite_point(g), finite_point(g), finite_point(g));
        let (a, b, c) = if ccw(&a, &b, &c) {
            (a, b, c)
        } else {
            (a, c, b)
        };
        assert!(!in_circumcircle(&a, &b, &c, &a));
        assert!(!in_circumcircle(&a, &b, &c, &b));
        assert!(!in_circumcircle(&a, &b, &c, &c));
    });
}

/// Delaunay triangulation of random point sets is structurally valid
/// and satisfies the empty-circle property.
#[test]
fn delaunay_on_random_points() {
    check("delaunay_on_random_points", CASES, |g| {
        let (seed, n) = (g.u64(), g.size(4..60));
        let pts = rpb_geom::point::uniform_points(n, seed);
        let mesh = delaunay(&pts);
        mesh.check_valid();
        mesh.check_delaunay();
        // Euler: all points interior to the super triangle.
        assert_eq!(mesh.num_alive(), 2 * (n + 3) - 5);
    });
}
