import random
from fractions import Fraction as F
from itertools import combinations, product
from math import factorial, gcd, lcm
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perigraph import geometry
from perigraph.ehrhart import count, count_interior, lattice_points_of
from perigraph.field import (QuadExt, det, matrix_rank, scalar_sign,
                             solve_linear)
from perigraph.geometry import (HalfOpenRegion, Polytope, convex_hull, gauge,
                                integer_box, origin_interior,
                                triangulate_facet, vadd, vdot, volume, vsub)


def primitive(vec):
    """Scale a rational vector to a primitive integer vector (same
    direction): the reference normal of ``_fraction_hull``."""
    fr = [F(x) for x in vec]
    if all(x == 0 for x in fr):
        return tuple(0 for _ in fr)
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


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
    assert (h.ambient_dim, h.dim) == (2, 1)
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
    # a point is its own relative interior, for contains and for counts
    assert h.contains((F(2), F(3)), strict=True)
    assert lattice_points_of(h, (0, 0), 1, strict=True) == [(2, 3)]


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
    r = HalfOpenRegion(base, ((F(2), F(0)), (F(1), F(1))))
    assert r.generators == ((2, 0), (1, 1))
    # brute force: points p = a*(2,0) + b*(1,1), 0 <= a,b < 1
    assert r.contains((F(0), F(0)))
    assert r.contains((F(3, 2), F(1, 2)))    # a = 1/2, b = 1/2
    assert not r.contains((F(2), F(0)))      # a = 1 excluded
    assert not r.contains((F(1), F(1)))      # b = 1 excluded
    assert not r.contains((F(-1, 10), F(0)))


def test_integer_box():
    pts = integer_box((F(-3, 2), F(0)), (F(3, 2), F(1)))
    assert set(pts) == {(x, y) for x in (-1, 0, 1) for y in (0, 1)}


def test_lattice_points_polytope():
    h = convex_hull([(F(0), F(0)), (F(2), F(0)), (F(0), F(2))])
    pts = lattice_points_of(h)
    assert len(pts) == 6
    # lower-dimensional: a diagonal segment
    seg = convex_hull([(F(0), F(0)), (F(3), F(3))])
    assert sorted(lattice_points_of(seg)) == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_hull_random_2d_matches_det_orientation_oracle():
    rng = random.Random(11)
    for _ in range(25):
        pts = [(F(rng.randint(-6, 6), rng.randint(1, 3)),
                F(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(8)]
        h = convex_hull(pts)
        if h.dim < 2:
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


# -- differential checks of the integer kernels -------------------------


def _reference_contains(region, point):
    """Membership by exact elimination: solve for the coefficients, check
    the reconstruction, then 0 <= lambda_j < 1."""
    rel = [p - b for p, b in zip(point, region.base)]
    gens = region.generators
    rows = [[g[c] for g in gens] for c in range(len(rel))]
    lam = solve_linear(rows, rel)
    if lam is None:
        return False
    recon = [sum(l * g[c] for l, g in zip(lam, gens)) for c in range(len(rel))]
    if any(scalar_sign(r - x) != 0 for r, x in zip(recon, rel)):
        return False
    return all(scalar_sign(l) >= 0 and scalar_sign(l - 1) < 0 for l in lam)


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coefficient = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(4, 3), F(-1, 2)])


def integral_generators(draw, n, bound):
    """n independent int vectors in R^n with entries in [-bound, bound]."""
    gens = tuple(tuple(draw(st.integers(-bound, bound)) for _ in range(n))
                 for _ in range(n))
    assume(matrix_rank(gens) == n)
    return gens


@st.composite
def regions_and_points(draw):
    n = draw(st.integers(1, 4))
    gens = integral_generators(draw, n, 4)
    base = tuple(draw(small) for _ in range(n))
    region = HalfOpenRegion(base, gens)
    points = []
    for _ in range(8):
        # a combination of the generators hits the boundary cases 0 and 1;
        # a perturbation moves it off the lattice of the combinations
        lam = [draw(coefficient) for _ in gens]
        p = [b + sum(l * g[c] for l, g in zip(lam, gens))
             for c, b in enumerate(base)]
        if draw(st.booleans()):
            c = draw(st.integers(0, n - 1))
            p[c] += draw(small)
        if draw(st.booleans()):
            # irrational coordinates along the first generator
            root = QuadExt(2, 0,
                           draw(st.sampled_from([F(1, 5), F(-1, 7)])))
            p = [x + root * g for x, g in zip(p, gens[0])]
        points.append(tuple(p))
    return region, points


@settings(max_examples=100, deadline=None)
@given(regions_and_points(), st.booleans())
def test_half_open_region_matches_elimination(case, draw_irrational):
    region, points = case
    for p in points:
        assert region.contains(p) == _reference_contains(region, p)
    shift = tuple(F(c + 1, 2) for c in range(len(region.base)))
    if draw_irrational:
        shift = (shift[0] + QuadExt(2, 0, F(2, 9)),) + shift[1:]
    moved = region.translated(shift)
    assert moved == HalfOpenRegion(vadd(region.base, shift),
                                   region.generators)
    for p in points:
        q = vadd(p, shift)
        assert moved.contains(q) == _reference_contains(region, p)


def test_half_open_region_rejects_bad_frames():
    with pytest.raises(ValueError, match="independent"):
        HalfOpenRegion((F(0), F(0)), ((F(1), F(2)), (F(2), F(4))))
    with pytest.raises(ValueError, match="needs 2 generators, got 1"):
        HalfOpenRegion((F(0), F(0)), ((F(1), F(0)),))
    with pytest.raises(ValueError, match="integral"):
        HalfOpenRegion((F(0), F(0)), ((F(1), F(0)), (F(1, 2), F(1))))


def _combinations_sel(vectors, n):
    """The first k coordinates, in the order of ``combinations``, on which k
    vectors have a nonzero determinant: the rule _span_frame's pivots
    replace."""
    k = len(vectors)
    return next(sel for sel in combinations(range(n), k)
                if _fraction_det([[v[c] for c in sel] for v in vectors]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.sampled_from([F(0), F(0), F(1), F(-2), F(1, 3)]),
             min_size=n, max_size=n), min_size=0, max_size=n))))
def test_span_frame_sel_is_first_nonzero_minor(case):
    n, vectors = case
    assume(matrix_rank(vectors) == len(vectors))
    sel, _, _, D = geometry._span_frame(vectors, n)
    assert sel == _combinations_sel(vectors, n)
    den = lcm(*(x.denominator for v in vectors for x in v))
    assert D == abs(det([[v[c] for c in sel] for v in vectors])) * den ** len(
        vectors)


def _fraction_det(m):
    if not m:
        return F(1)
    return sum((-1) ** j * m[0][j] * _fraction_det([r[:j] + r[j + 1:]
                                                     for r in m[1:]])
               for j in range(len(m)))


def _fraction_hull(points, n):
    """The facet scan over Fractions, with cofactor-expansion normals and
    sympy ranks: the reference for the integer scan of _full_dim_hull."""
    if n == 1:
        lo, hi = min(points)[0], max(points)[0]
        verts = ((lo,),) if lo == hi else ((lo,), (hi,))
        return Polytope(1, 1, verts, (), (((1,), F(hi)), ((-1,), F(-lo))))
    facets = {}
    for idx in combinations(range(len(points)), n):
        base = points[idx[0]]
        diffs = [[a - b for a, b in zip(points[i], base)] for i in idx[1:]]
        normal = [(-1) ** j * _fraction_det([d[:j] + d[j + 1:]
                                             for d in diffs])
                  for j in range(n)]
        if all(x == 0 for x in normal):
            continue
        normal = primitive(normal)
        b = F(sum(a * x for a, x in zip(normal, base)))
        sides = {(sum(a * x for a, x in zip(normal, p)) > b)
                 - (sum(a * x for a, x in zip(normal, p)) < b) for p in points}
        if {1, -1} <= sides:
            continue
        if 1 in sides:
            normal, b = tuple(-x for x in normal), -b
        facets[normal] = b
    facet_list = sorted(facets.items())
    verts = [p for p in points
             if sympy.Matrix([a for a, b in facet_list
                              if sum(x * y for x, y in zip(a, p)) == b]
                             or [[0] * n]).rank() == n]
    return Polytope(n, n, tuple(sorted(verts)), (), tuple(facet_list))


def _reference_hull(points, scaled, L, simplex):
    """_fraction_hull in the place of the integer hull of _full_dim_hull."""
    return _fraction_hull(points, len(simplex) - 1)


@st.composite
def point_sets(draw, max_dim=4, small=small):
    """Rational point sets in 2-max_dim D, up to 30 points in 2D, 16 in 3D
    and 12 in 4D: generic ones, ones on a small integer grid (many
    collinear and coplanar points), and ones in a proper affine subspace
    (base plus combinations of fewer than n directions); a few points may
    repeat."""
    n = draw(st.integers(2, max_dim))
    m = draw(st.integers(1, {2: 30, 3: 16, 4: 12}[n]))
    kind = draw(st.sampled_from(("generic", "grid", "flat")))
    if kind == "generic":
        pts = [tuple(draw(small) for _ in range(n)) for _ in range(m)]
    elif kind == "grid":
        grid = st.integers(-2, 2).map(F)
        pts = [tuple(draw(grid) for _ in range(n)) for _ in range(m)]
    else:
        r = draw(st.integers(0, n - 1))
        base = tuple(draw(small) for _ in range(n))
        dirs = [tuple(draw(small) for _ in range(n)) for _ in range(r)]
        pts = []
        for _ in range(m):
            cs = [draw(small) for _ in dirs]
            pts.append(tuple(b + sum(c * d[i] for c, d in zip(cs, dirs))
                             for i, b in enumerate(base)))
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


@settings(max_examples=120, deadline=None)
@given(point_sets())
def test_integer_hull_matches_fraction_hull(pts):
    hull = convex_hull(pts)
    with mock.patch.object(geometry, "_full_dim_hull", _reference_hull):
        reference = convex_hull(pts)
    assert hull == reference
    # every hull carries one H-representation: primitive int normals with
    # Fraction right sides
    rows = hull.equalities + hull.facets
    assert all(type(b) is F for _, b in rows)
    assert all(type(x) is int for a, _ in rows for x in a)
    assert all(gcd(*a) == 1 for a, _ in rows)
    assert len(hull.equalities) == hull.ambient_dim - hull.dim
    # the facet normals span the projected coordinates; each equality row is
    # positive at its one coordinate outside them
    coords = {c for a, _ in hull.facets for c, x in enumerate(a) if x}
    assert len(coords) == hull.dim
    for e, _ in hull.equalities:
        off = [c for c, x in enumerate(e) if x and c not in coords]
        assert len(off) == 1 and e[off[0]] > 0


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.randoms(use_true_random=False))
def test_hull_ignores_input_order(pts, rng):
    shuffled = list(pts)
    rng.shuffle(shuffled)
    assert convex_hull(shuffled) == convex_hull(pts)


def test_hull_5d_matches_fraction_hull():
    rng = random.Random(5)
    unit = [tuple(F(int(i == j)) for j in range(5)) for i in range(5)]
    simplex = unit + [(F(-1),) * 5]
    for extra in ([], [(F(0),) * 5], [tuple(F(rng.randint(-2, 2), 2)
                                           for _ in range(5))
                                     for _ in range(5)]):
        pts = simplex + extra
        hull = convex_hull(pts)
        with mock.patch.object(geometry, "_full_dim_hull", _reference_hull):
            assert hull == convex_hull(pts)
    # a facet of the simplex with its centroid: a 4D hull in 5D
    face = convex_hull(unit + [(F(1, 5),) * 5])
    assert face.dim == 4 and face.equalities == (((1,) * 5, F(1)),)
    assert sorted(face.vertices) == sorted(unit)


def test_hull_builds_few_facet_planes():
    """Beneath-beyond builds a facet plane for each facet it ever holds; the
    scan built one for every n-subset, C(200, 2) = 19,900 and C(80, 3) =
    82,160 on these sets."""
    rng = random.Random(17)
    for n, m in ((2, 200), (3, 80)):
        pts = [tuple(F(rng.randint(-999, 999), rng.randint(1, 9))
                     for _ in range(n)) for _ in range(m)]
        with mock.patch.object(geometry, "cross_normal",
                               wraps=geometry.cross_normal) as planes:
            hull = convex_hull(pts)
        assert all(hull.contains(p) for p in pts)
        assert planes.call_count <= 2 * m, (n, m, planes.call_count)


@settings(max_examples=60, deadline=None)
@given(point_sets(3, st.fractions(min_value=-2, max_value=2,
                                  max_denominator=2)),
       st.data())
def test_lattice_points_match_box_filter(pts, data):
    hull = convex_hull(pts)
    n = len(pts[0])
    v = [data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
         for _ in range(n)]
    if data.draw(st.booleans()):
        v[data.draw(st.integers(0, n - 1))] += QuadExt(2, 0, F(1, 3))
    t = data.draw(st.sampled_from([F(0), F(1, 2), F(1), F(3, 2)]))
    verts = hull.vertices
    lo = tuple(x + t * min(w[c] for w in verts) for c, x in enumerate(v))
    hi = tuple(x + t * max(w[c] for w in verts) for c, x in enumerate(v))

    def inside(p, strict):
        if t == 0:  # 0*P = {0}, and t*relint P is empty
            return not strict and all(x == y for x, y in zip(p, v))
        return hull.contains([(x - y) / t for x, y in zip(p, v)], strict)

    box = integer_box(lo, hi)
    closed = [p for p in box if inside(p, False)]
    assert lattice_points_of(hull, tuple(v), t) == closed
    assert count(hull, tuple(v), t) == len(closed)
    assert count_interior(hull, tuple(v), t) == sum(inside(p, True)
                                                    for p in box)


def _box_scan(region):
    """The region's points by a filter of its box, spanned from the base by
    the negative and the positive parts of the generators."""
    lo, hi = list(region.base), list(region.base)
    for g in region.generators:
        for c, x in enumerate(g):
            if x > 0:
                hi[c] += x
            else:
                lo[c] += x
    return [p for p in integer_box(lo, hi) if region.contains(p)]


@st.composite
def scan_regions(draw):
    """Regions in 1-3 D, with a rational base or one translated by an
    irrational vector."""
    n = draw(st.integers(1, 3))
    gens = integral_generators(draw, n, 4)
    region = HalfOpenRegion(tuple(draw(small) for _ in range(n)), gens)
    if draw(st.booleans()):
        shift = [draw(small) for _ in range(n)]
        shift[draw(st.integers(0, n - 1))] += QuadExt(
            2, 0, draw(st.sampled_from([F(1, 5), F(-1, 3), F(2)])))
        region = region.translated(tuple(shift))
    return region


@settings(max_examples=150, deadline=None)
@given(scan_regions())
def test_region_scan_matches_box_filter(region):
    reference = _box_scan(region)
    assert region.integer_points() == reference
    for p in reference:
        rel = [x - b for x, b in zip(p, region.base)]
        lam = solve_linear([[g[c] for g in region.generators]
                            for c in range(len(rel))], rel)
        assert region.support(p) == sum(1 << j for j, x in enumerate(lam)
                                        if x != 0)


def test_region_scan_irrational_base():
    # a unimodular cell at (sqrt(2), 0): its coefficients x - y - sqrt(2)
    # and 2y - x + sqrt(2) lie in [0, 1) only at (3, 1); (2, 0) in the box
    # misses both lower bounds by less than one
    r = HalfOpenRegion((QuadExt(2, 0, 1), F(0)), ((F(2), F(1)), (F(1), F(1))))
    assert r.integer_points() == [(3, 1)]


# -- the floor-sum slice kernel of _scan ---------------------------------

BIG = 10 ** 12
coef = st.one_of(st.integers(-3, 3), st.integers(BIG - 2, BIG + 2),
                 st.integers(-BIG - 2, -BIG + 2))


@st.composite
def int_systems(draw):
    """(ineqs, lo, hi) in 2-4 D.  Most rows pass through or near one
    integer point p, so envelopes tie at integer breakpoints; rows may
    vanish on the last one or two coordinates, come with a parallel or
    duplicate twin, or carry coefficients near 10^12.  The box may be
    empty or one point wide in any coordinate."""
    n = draw(st.integers(2, 4))
    lo = tuple(draw(st.integers(-3, 2)) for _ in range(n))
    hi = tuple(x + draw(st.integers(-1, 4)) for x in lo)
    p = tuple(x + draw(st.integers(0, 3)) for x in lo)
    ineqs = []
    for _ in range(draw(st.integers(0, 6))):
        a = [draw(coef) for _ in range(n)]
        for c in range(n - draw(st.integers(0, 2)), n):
            a[c] = 0
        b = sum(x * y for x, y in zip(a, p)) + draw(
            st.sampled_from([0, 0, 0, 1, -1, 2, 5]))
        ineqs.append((tuple(a), b))
        twin = draw(st.sampled_from(["none", "duplicate", "scaled",
                                     "shifted", "opposite"]))
        if twin == "duplicate":
            ineqs.append((tuple(a), b))
        elif twin == "scaled":
            ineqs.append((tuple(2 * x for x in a), 2 * b))
        elif twin == "shifted":
            ineqs.append((tuple(a), b + draw(st.integers(-2, 2))))
        elif twin == "opposite":  # a slab, possibly a single hyperplane
            ineqs.append((tuple(-x for x in a), -b + draw(st.integers(0, 2))))
    return ineqs, lo, hi


def _box_filter_count(ineqs, lo, hi):
    box = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return sum(all(sum(x * y for x, y in zip(a, pt)) <= b for a, b in ineqs)
               for pt in box)


@settings(max_examples=400, deadline=None)
@given(int_systems())
def test_slice_count_matches_enumeration(system):
    ineqs, lo, hi = system
    counted = geometry._scan([], ineqs, lo, hi)
    assert counted == len(geometry._scan([], ineqs, lo, hi, collect=True))
    assert counted == _box_filter_count(ineqs, lo, hi)


def test_slice_count_ties_and_slabs():
    # two upper lines y <= x and y <= 4 - x meet at the integer point (2, 2)
    # above the lower line y >= 0: 1 + 2 + 3 + 2 + 1 points
    rows = [((-1, 1), 0), ((1, 1), 4), ((0, -1), 0)]
    assert geometry._scan([], rows, (0, 0), (4, 4)) == 9
    # the slab x + y = 3 (upper and lower line the same) in [0, 5]^2
    rows = [((1, 1), 3), ((-1, -1), -3)]
    assert geometry._scan([], rows, (0, 0), (5, 5)) == 4
    # where the upper line is below the lower one nothing is counted:
    # y <= x - 4 and y >= 0 in [0, 5]^2 leave only (4, 0), (5, 0), (5, 1)
    rows = [((-1, 1), -4), ((0, -1), 0)]
    assert geometry._scan([], rows, (0, 0), (5, 5)) == 3
    # an empty box, and a row over the first coordinate only
    assert geometry._scan([], rows, (0, 0), (-1, 5)) == 0
    assert geometry._scan([], [((1, 0, 0), -1)], (0, 0, 0), (2, 2, 2)) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(1, 50), st.integers(-200, 200),
       st.integers(-200, 200))
def test_floor_sum_matches_naive_sum(n, m, a, b):
    assert geometry._floor_sum(n, m, a, b) == sum(
        (a * i + b) // m for i in range(n))


def test_floor_sum_large_and_negative():
    for n, m, a, b in [(1000, 7, -3, -5), (12, BIG + 1, -BIG, BIG - 1),
                       (5, 3, -10 ** 15, 10 ** 15 + 2), (0, 5, -1, -1)]:
        assert geometry._floor_sum(n, m, a, b) == sum(
            (a * i + b) // m for i in range(n))


# -- lower-dimensional hulls against the hull of an embedded point set ------


@st.composite
def embeddings(draw):
    """A full-dimensional rational point set Q in R^k (k = 1..3), integer
    rows B and an axis permutation of R^n (k < n <= 4) for the embedding
    A(x) = perm(x, Bx), and a shift v in R^k.  A maps Z^k onto the lattice
    points of its image."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 4))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    q = [tuple(draw(coord) for _ in range(k))
         for _ in range(draw(st.integers(k + 1, 6)))]
    assume(matrix_rank([[a - b for a, b in zip(p, q[0])] for p in q]) == k)
    rows = [[draw(st.integers(-2, 2)) for _ in range(k)]
            for _ in range(n - k)]
    perm = draw(st.permutations(range(n)))
    v = tuple(draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
              for _ in range(k))

    def embed(x):
        y = tuple(x) + tuple(sum(b * c for b, c in zip(r, x)) for r in rows)
        return tuple(y[perm[i]] for i in range(n))

    return q, embed, v, perm.index(k)


@settings(max_examples=100, deadline=None)
@given(embeddings())
def test_lower_dimensional_hull_matches_embedded_hull(case):
    q, embed, v, off_axis = case
    hull, image = convex_hull(q), convex_hull([embed(p) for p in q])
    k = len(q[0])
    assert image.dim == k < image.ambient_dim
    assert set(image.vertices) == {embed(w) for w in hull.vertices}
    for p in q:
        x = embed(p)
        assert image.contains(x)
        assert image.contains(x, strict=True) == hull.contains(p, strict=True)
        # one step along an axis that B fills leaves the affine hull
        assert not image.contains(x[:off_axis] + (x[off_axis] + 1,)
                                  + x[off_axis + 1:])
    for t in (F(0), F(1, 2), F(1), F(2)):
        assert count(image, embed(v), t) == count(hull, v, t)
        assert count_interior(image, embed(v), t) == count_interior(hull, v, t)
        points = lattice_points_of(image, embed(v), t)
        assert points == sorted(embed(p) for p in lattice_points_of(hull, v, t))


# -- triangulations from facet incidences, against hulls of every face ----

def _hull_pull_triangulation(vertices, apex=None):
    """Pulling triangulation that hulls every face again: the facets of
    conv(vertices) without the apex, each pulled from its lex-min vertex."""
    vertices = sorted(set(vertices))
    if len(vertices) == 1:
        return [tuple(vertices)]
    apex = min(vertices) if apex is None else apex
    hull = convex_hull(vertices)
    simplices = []
    for i in range(len(hull.facets)):
        face = hull.facet_vertices(i)
        if apex not in face:
            simplices.extend(tuple(sorted(s + (apex,)))
                             for s in _hull_pull_triangulation(face))
    return simplices


# a 5D 0/1 polytope with a facet that meets another facet in a square only:
# pulled as a facet of the facet it would make a false simplex
NON_MAXIMAL_CUT = [tuple(map(F, p)) for p in (
    (0, 0, 0, 0, 0), (0, 1, 1, 0, 0), (0, 1, 1, 0, 1), (1, 0, 0, 1, 1),
    (1, 1, 0, 0, 0), (1, 1, 0, 1, 0), (1, 1, 1, 0, 0), (1, 1, 1, 1, 0),
    (1, 1, 1, 1, 1))]


@settings(max_examples=40, deadline=None)
@given(point_sets())
@example(NON_MAXIMAL_CUT)
def test_triangulation_matches_hull_recursion(pts):
    hull = convex_hull(pts)
    n = hull.ambient_dim
    assume(hull.dim == n)
    total = 0
    apex = min(hull.vertices)
    for i, (a, b) in enumerate(hull.facets):
        fverts = hull.facet_vertices(i)
        assert fverts == tuple(v for v in hull.vertices if vdot(a, v) == b)
        for choice in fverts:
            got = triangulate_facet(hull, i, apex=choice)
            assert len(set(got)) == len(got)
            assert set(got) == set(_hull_pull_triangulation(fverts, choice))
        if apex not in fverts:
            total += sum(abs(det([vsub(v, apex) for v in s]))
                         for s in _hull_pull_triangulation(fverts))
    assert volume(hull) == F(total, factorial(n))


def test_triangulation_builds_no_hull():
    cube = convex_hull(list(product((F(0), F(1)), repeat=4)))
    cube5 = convex_hull(list(product((F(0), F(1)), repeat=5)))
    prism = convex_hull([(F(x), F(y), F(z)) for x, y in
                         ((0, 0), (2, 0), (0, 1)) for z in (0, 3)])
    with mock.patch.object(geometry, "convex_hull",
                           side_effect=AssertionError("hull built")):
        fans = [(p.dim, triangulate_facet(p, i)) for p in (cube, cube5)
                for i in range(len(p.facets))]
        assert volume(cube) == volume(cube5) == 1
        assert volume(prism) == 3
        with pytest.raises(ValueError, match="apex must be a vertex"):
            triangulate_facet(cube, 0, apex=(F(1, 2),) * 4)
    # a 3-cube facet pulls into 6 tetrahedra, a 4-cube facet into 24
    # simplices, and each simplex spans its facet: no lower face, such as a
    # square of a 4-cube, is taken for one
    assert [len(f) for _, f in fans] == [6] * 8 + [24] * 10
    for n, fan in fans:
        for s in fan:
            assert len(s) == n
            assert matrix_rank([vsub(v, s[0]) for v in s[1:]]) == n - 1


# -- parallelepiped points from the Hermite form, against a box scan ------

@st.composite
def lattice_cells(draw):
    """Half-open parallelepipeds in 1-3 D on integral generators with
    |det| > 1, with a rational base, moved by an integer vector or by an
    irrational one: all listed from the Hermite form."""
    n = draw(st.integers(1, 3))
    gens = integral_generators(draw, n, 3)
    assume(abs(det(gens)) > 1)
    base = tuple(draw(st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4)) for _ in range(n))
    region = HalfOpenRegion(base, gens)
    if draw(st.booleans()) and draw(st.booleans()):
        shift = [F(0)] * n
        shift[draw(st.integers(0, n - 1))] = QuadExt(2, 0, F(1, 3))
        region = region.translated(tuple(shift))
    elif draw(st.booleans()):
        region = region.translated(tuple(draw(st.integers(-2, 2))
                                         for _ in range(n)))
    return region, abs(det(gens))


@settings(max_examples=200, deadline=None)
@given(lattice_cells())
def test_region_points_from_hermite_match_box_scan(case):
    region, volume_ = case
    reference = _box_scan(region)
    # one point per class of Z^n modulo the generators' lattice
    assert len(reference) == volume_
    with mock.patch.object(geometry, "_scan",
                           side_effect=AssertionError("scanned")):
        assert region.integer_points() == reference
