import random
from fractions import Fraction as F

import pytest

from perigraph.field import QuadExt
from perigraph.geometry import (HalfOpenRegion, LowerDimensionalHull, Polytope,
                                convex_hull, gauge, integer_box,
                                lattice_points, origin_interior, primitive,
                                triangulate_facet, vadd, volume)
from perigraph.field import det


def test_hull_square():
    pts = [(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1)),
           (F(0), F(0)), (F(1, 2), F(1, 2))]  # interior points ignored
    h = convex_hull(pts)
    assert isinstance(h, Polytope)
    assert len(h.vertices) == 4
    assert len(h.facets) == 4
    assert origin_interior(h)
    assert volume(h) == 4


def test_hull_lower_dimensional_segment():
    pts = [(F(0), F(0)), (F(1), F(2)), (F(2), F(4)), (F(1, 2), F(1))]
    h = convex_hull(pts)
    assert isinstance(h, LowerDimensionalHull)
    assert h.dim == 1
    assert set(h.vertices) == {(F(0), F(0)), (F(2), F(4))}
    assert h.contains((F(1), F(2)))
    assert h.contains((F(1), F(2)), strict=True)
    assert not h.contains((F(1), F(3)))        # off the line
    assert not h.contains((F(0), F(0)), strict=True)  # relint excludes ends
    assert not origin_interior(h)


def test_hull_point():
    h = convex_hull([(F(2), F(3)), (F(2), F(3))])
    assert h.dim == 0
    assert h.contains((F(2), F(3)))
    assert not h.contains((F(2), F(4)))


def test_hull_3d_simplex_volume():
    pts = [(F(0),) * 3, (F(1), F(0), F(0)), (F(0), F(1), F(0)),
           (F(0), F(0), F(1))]
    h = convex_hull(pts)
    assert len(h.facets) == 4
    assert volume(h) == F(1, 6)


def test_hull_4d_cross_polytope():
    pts = []
    for i in range(4):
        for s in (1, -1):
            v = [F(0)] * 4
            v[i] = F(s)
            pts.append(tuple(v))
    h = convex_hull(pts)
    assert len(h.vertices) == 8
    assert len(h.facets) == 16
    assert volume(h) == F(2, 3)  # 2^4 / 4!


def test_primitive():
    assert primitive((F(2, 3), F(-4, 3))) == (1, -2)
    assert primitive((F(0), F(0))) == (0, 0)
    assert primitive((F(-6), F(9))) == (-2, 3)


def test_gauge_requires_origin_interior():
    h = convex_hull([(F(1), F(0)), (F(2), F(0)), (F(1), F(1)), (F(2), F(1))])
    with pytest.raises(ValueError):
        gauge(h, (F(1), F(1)))


def test_gauge_values_square():
    h = convex_hull([(F(1), F(1)), (F(-1), F(1)), (F(1), F(-1)),
                     (F(-1), F(-1))])
    assert gauge(h, (F(3), F(1))) == 3
    assert gauge(h, (F(0), F(0))) == 0
    assert gauge(h, (F(-1, 2), F(1, 4))) == F(1, 2)


def test_gauge_quadratic_point():
    h = convex_hull([(F(1), F(1)), (F(-1), F(1)), (F(1), F(-1)),
                     (F(-1), F(-1))])
    s2 = QuadExt(2, 0, 1)
    g = gauge(h, (s2, F(0)))
    assert g == s2


def test_gauge_homogeneous_and_subadditive_random():
    rng = random.Random(7)
    h = convex_hull([(F(1, 2), F(0)), (F(0), F(1, 2)), (F(-1, 2), F(-1, 2)),
                     (F(1, 3), F(-1, 3)), (F(-1, 3), F(1, 3))])

    def rnd():
        return F(rng.randint(-40, 40), rng.randint(1, 5))

    for _ in range(200):
        x = (rnd(), rnd())
        y = (rnd(), rnd())
        lam = F(rng.randint(0, 12), rng.randint(1, 4))
        assert gauge(h, tuple(lam * c for c in x)) == lam * gauge(h, x)
        assert gauge(h, vadd(x, y)) <= gauge(h, x) + gauge(h, y)


def test_triangulate_facet_covers_polygon_facet():
    # 3D cube: each square facet fans into two triangles from the apex
    pts = [(F(x), F(y), F(z)) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    h = convex_hull(pts)
    assert len(h.facets) == 6
    for i in range(6):
        simplices = triangulate_facet(h, i)
        assert len(simplices) == 2
        for s in simplices:
            assert len(s) == 3
    assert volume(h) == 1
    # explicit apex must be respected
    fv = h.facet_vertices(0)
    tri = triangulate_facet(h, 0, apex=fv[-1])
    assert all(fv[-1] in s for s in tri)


def test_half_open_region_membership_oracle():
    base = (F(0), F(0))
    r = HalfOpenRegion(base, ((F(2), F(0)), (F(1), F(1))), (F(1), F(1)))
    # brute force: points p = a*(2,0) + b*(1,1), 0 <= a,b < 1
    assert r.contains((F(0), F(0)))
    assert r.contains((F(3, 2), F(1, 2)))    # a = 1/2, b = 1/2
    assert not r.contains((F(2), F(0)))      # a = 1 excluded
    assert not r.contains((F(1), F(1)))      # b = 1 excluded
    assert not r.contains((F(-1, 10), F(0)))
    lo, hi = r.bounding_box()
    assert lo == (F(0), F(0)) and hi == (F(3), F(1))


def test_half_open_region_lower_dim():
    r = HalfOpenRegion((F(0), F(0)), ((F(1), F(1)),), (F(2),))
    assert r.contains((F(3, 2), F(3, 2)))
    assert not r.contains((F(3, 2), F(1)))   # off the span
    assert not r.contains((F(2), F(2)))      # extent excluded


def test_integer_box():
    pts = integer_box((F(-3, 2), F(0)), (F(3, 2), F(1)))
    assert set(pts) == {(x, y) for x in (-1, 0, 1) for y in (0, 1)}


def test_lattice_points_polytope():
    h = convex_hull([(F(0), F(0)), (F(2), F(0)), (F(0), F(2))])
    pts = lattice_points(h)
    assert len(pts) == 6
    # lower-dimensional: a diagonal segment
    seg = convex_hull([(F(0), F(0)), (F(3), F(3))])
    assert sorted(lattice_points(seg)) == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_hull_random_2d_matches_det_orientation_oracle():
    rng = random.Random(11)
    for _ in range(25):
        pts = [(F(rng.randint(-6, 6), rng.randint(1, 3)),
                F(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(8)]
        h = convex_hull(pts)
        if isinstance(h, LowerDimensionalHull):
            continue
        # every input point lies inside; every vertex is not a convex
        # combination witness violation of any facet
        for p in pts:
            assert h.contains(p)
        # vertices are extreme: for each vertex there is a facet meeting it
        for v in h.vertices:
            active = [a for a, b in h.facets
                      if sum(x * y for x, y in zip(a, v)) == b]
            assert len(active) >= 2
        # facet normals are outward: centroid strictly inside
        cx = tuple(sum(c) / len(h.vertices) for c in zip(*h.vertices))
        assert h.contains(cx, strict=True)


def test_volume_unimodular_invariance():
    pts = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(-1)), (F(1), F(1))]
    h = convex_hull(pts)
    # apply a unimodular map [[1,1],[0,1]]
    mapped = [(x + y, y) for x, y in pts]
    h2 = convex_hull(mapped)
    assert volume(h) == volume(h2)
    assert abs(det([[1, 1], [0, 1]])) == 1
