import itertools
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perigraph import ehrhart
from perigraph.ehrhart import (count, count_interior, fit_shifted_qp, gamma_q,
                               interior_shell_check, is_reflexive,
                               lattice_points_of, minimal_dilation,
                               shifted_count, verify_reciprocity)
from perigraph.field import QuadExt, exact_floor
from perigraph.geometry import Polytope, convex_hull
from perigraph.quotient import (ResourceLimit, Vertex, ball, cumulative,
                                growth_sequence)
from perigraph.series import FitError


def brute_count(P, v, t, strict):
    """Oracle: test every integer point of a covering box directly."""
    if t < 0 or (strict and t <= 0):
        return 0
    verts = [[F(a) * t + F(b) for a, b in zip(w, v)]
             for w in P.vertices] or [list(map(F, v))]
    out = 0
    ranges = []
    for c in range(len(v)):
        lo = min(w[c] for w in verts)
        hi = max(w[c] for w in verts)
        ranges.append(range(-(-lo.numerator // lo.denominator) - 1,
                            hi.numerator // hi.denominator + 2))
    for p in itertools.product(*ranges):
        rel = [(F(x) - F(b)) for x, b in zip(p, v)]
        if t == 0:
            if all(x == 0 for x in rel):
                out += 1
            continue
        scaled = [x / t for x in rel]
        if P.contains(scaled, strict=strict):
            out += 1
    return out


def test_conventions(square_poly):
    v = (F(1, 3), F(0))
    assert count(square_poly, v, F(-1)) == 0
    assert count(square_poly, v, F(0)) == 0  # 0*P = {v}, not integral
    assert count(square_poly, (0, 0), F(0)) == 1
    assert count_interior(square_poly, (0, 0), F(0)) == 0
    assert count_interior(square_poly, (0, 0), F(-2)) == 0


def test_square_counts(square_poly):
    # [-1,1]^2: (2t+1)^2 points, (2t-1)^2 interior
    for t in range(4):
        assert count(square_poly, (0, 0), t) == (2 * t + 1) ** 2
    for t in range(1, 4):
        assert count_interior(square_poly, (0, 0), t) == (2 * t - 1) ** 2


def test_counts_against_oracle_random():
    rng = random.Random(11)
    for _ in range(12):
        pts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3))
                     for _ in range(2)) for _ in range(rng.randint(3, 6))]
        P = convex_hull(pts)
        if not isinstance(P, Polytope):
            continue
        v = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2))
        for t in (F(0), F(1, 2), F(1), F(5, 2), F(3)):
            assert count(P, v, t) == brute_count(P, v, t, False)
            assert count_interior(P, v, t) == brute_count(P, v, t, True)


def _brute_count_exact(P, v, t, strict):
    """Oracle for exact (also QuadExt) shifts: test every integer point of
    a covering box with Polytope.contains on (p - v) / t."""
    if t < 0 or (strict and t <= 0):
        return 0
    verts = [[a * t + b for a, b in zip(w, v)] for w in P.vertices]
    ranges = [range(exact_floor(min(w[c] for w in verts)) - 1,
                    exact_floor(max(w[c] for w in verts)) + 2)
              for c in range(len(v))]
    if t == 0:
        return sum(all(x == b for x, b in zip(p, v))
                   for p in itertools.product(*ranges))
    return sum(P.contains([(x - b) / t for x, b in zip(p, v)], strict=strict)
               for p in itertools.product(*ranges))


def test_counts_with_irrational_shift():
    rng = random.Random(5)
    root = QuadExt(2, 0, 1)
    cases = [(convex_hull([(F(0), F(0)), (F(2), F(4))]),
              (root, 2 * root)),                      # on the segment's line
             (convex_hull([(F(0), F(0)), (F(2), F(4))]), (root, F(0)))]
    while len(cases) < 10:
        pts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3))
                     for _ in range(2)) for _ in range(rng.randint(3, 6))]
        P = convex_hull(pts)
        if isinstance(P, Polytope):
            x = F(rng.randint(-3, 3), 2) + root / rng.randint(2, 5)
            cases.append((P, (x, F(rng.randint(-3, 3), rng.randint(1, 2)))))
    for P, v in cases:
        for t in (F(0), F(1, 2), F(1), F(5, 2), F(3)):
            assert count(P, v, t) == _brute_count_exact(P, v, t, False)
            assert count_interior(P, v, t) == _brute_count_exact(P, v, t, True)
    assert count(cases[0][0], cases[0][1], 3) == 6    # y = 2x, x in 2..7
    assert count(cases[1][0], cases[1][1], 3) == 0    # 2x - y = 2 sqrt 2


@st.composite
def shifted_polytopes(draw):
    """A random rational polytope in 2 or 3 D and a shift, rational or with
    a QuadExt coordinate."""
    n = draw(st.integers(2, 3))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    P = convex_hull([tuple(draw(coord) for _ in range(n))
                     for _ in range(draw(st.integers(n + 1, n + 3)))])
    assume(isinstance(P, Polytope))
    v = [draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
         for _ in range(n)]
    if draw(st.booleans()):
        v[draw(st.integers(0, n - 1))] += QuadExt(
            2, 0, draw(st.sampled_from([F(1, 3), F(-1, 2), F(1)])))
    return P, tuple(v)


@settings(max_examples=30, deadline=None)
@given(shifted_polytopes(), st.sampled_from([F(1, 3), F(1), F(3, 2)]))
def test_counts_match_brute_force_2d_3d(case, t):
    P, v = case
    assert count(P, v, t) == _brute_count_exact(P, v, t, False)
    assert count_interior(P, v, t) == _brute_count_exact(P, v, t, True)


@st.composite
def rational_polytopes(draw):
    """A random rational polytope in 2 or 3 D of any dimension up to n: the
    hull of points base + sum_j m_j d_j for k <= n rational directions d_j
    and small integer multiples m_j."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(0, n))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    base = [draw(coord) for _ in range(n)]
    dirs = [[draw(coord) for _ in range(n)] for _ in range(k)]
    points = []
    for _ in range(draw(st.integers(k + 1, k + 3))):
        m = [draw(st.integers(-1, 1)) for _ in dirs]
        points.append(tuple(b + sum(x * d[c] for x, d in zip(m, dirs))
                            for c, b in enumerate(base)))
    return convex_hull(points)


@settings(max_examples=60, deadline=None)
@given(rational_polytopes(),
       st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                min_size=3, max_size=3),
       st.one_of(st.sampled_from([F(0), F(-1), F(-1, 3)]),
                 st.fractions(min_value=0, max_value=3, max_denominator=4)))
# the segment's line 2x = y moves to 2x - y = -1/2, which holds no
# integer point, although 2x - y = -1 crosses the box at (1, 3)
@example(convex_hull([(F(0), F(0)), (F(2), F(4))]), [0, F(1, 2), 0], F(1))
def test_integer_rows_count_like_membership(P, shift, t):
    """count and count_interior, on the polytope's integer rows, against a
    Polytope.contains filter of a covering box, for rational v and t,
    t = 0 and t < 0 included, on polytopes of every dimension."""
    v = tuple(shift[:P.ambient_dim])
    assert count(P, v, t) == brute_count(P, v, t, False)
    assert count_interior(P, v, t) == brute_count(P, v, t, True)


def test_lower_dimensional_counts():
    # segment from (0,0) to (2,4) has gcd+1 = 3 points
    P = convex_hull([(F(0), F(0)), (F(2), F(4))])
    assert count(P, (0, 0), 1) == 3
    assert count_interior(P, (0, 0), 1) == 1  # relint of a segment
    assert sorted(lattice_points_of(P)) == [(0, 0), (1, 2), (2, 4)]


def test_minimal_dilation(triangle_poly):
    assert minimal_dilation(triangle_poly) == 1
    P = convex_hull([(F(1, 2), F(0)), (F(0), F(1, 3)), (F(0), F(0))])
    assert minimal_dilation(P) == 6


def test_fit_shifted_qp_square(square_poly):
    qp = fit_shifted_qp(square_poly, (0, 0), F(0))
    assert qp.period == 1
    assert [qp.evaluate(i) for i in range(5)] == [
        (2 * i + 1) ** 2 for i in range(5)]
    assert verify_reciprocity(square_poly, (0, 0), F(0), qp)


def test_fit_shifted_qp_shifted():
    P = convex_hull([(F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 2)),
                     (F(1, 2), F(1, 2))])
    qp = fit_shifted_qp(P, (F(1, 3), F(0)), F(1, 2))
    assert qp.period == minimal_dilation(P) * 2
    for d in range(12):
        assert qp.evaluate(d) == shifted_count(P, (F(1, 3), F(0)), F(1, 2), d)


def test_fit_budget_refuses_before_counting(square_poly, monkeypatch):
    # period 7 and dim 2: the fit would count 7 * 6 = 42 dilations
    monkeypatch.setattr(ehrhart, "shifted_count", mock.Mock(
        side_effect=AssertionError("counted")))
    with pytest.raises(ResourceLimit, match="42 dilations"):
        fit_shifted_qp(square_poly, (0, 0), F(1, 7), max_states=41)
    monkeypatch.undo()
    qp = fit_shifted_qp(square_poly, (0, 0), F(1, 7), max_states=42)
    assert qp.period == 7


def test_fit_rejects_wrong_period(square_poly):
    P = convex_hull([(F(1, 2), F(0)), (F(-1, 2), F(0)), (F(0), F(1, 2)),
                     (F(0), F(-1, 2))])
    with pytest.raises(FitError):
        fit_shifted_qp(P, (0, 0), F(0), period=1)


def test_reciprocity_random_polytopes():
    rng = random.Random(5)
    done = 0
    while done < 8:
        pts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(2)) for _ in range(rng.randint(3, 6))]
        P = convex_hull(pts)
        if not isinstance(P, Polytope):
            continue
        v = (F(rng.randint(-2, 2), 2), F(rng.randint(-2, 2), 2))
        alpha = F(rng.randint(0, 2), 2)
        assert verify_reciprocity(P, v, alpha, imax=5)
        done += 1


def test_reflexive(triangle_poly, square_poly, cross_poly):
    assert is_reflexive(triangle_poly)
    assert is_reflexive(square_poly)
    assert is_reflexive(cross_poly)
    big = convex_hull([(F(2), F(2)), (F(-2), F(2)), (F(2), F(-2)),
                       (F(-2), F(-2))])
    assert not big.facets or not is_reflexive(big)  # facets a.x <= 2
    seg = convex_hull([(F(0), F(0)), (F(1), F(1))])
    assert not is_reflexive(seg)


def test_interior_shell(triangle_poly, square_poly):
    assert interior_shell_check(triangle_poly, 4)
    assert interior_shell_check(square_poly, 4)
    off = convex_hull([(F(0), F(0)), (F(3), F(0)), (F(0), F(3))])
    assert not interior_shell_check(off, 4)


def test_gamma_q_structure(triangle_poly):
    g = gamma_q(triangle_poly, "t")
    assert g.num_classes == 1
    assert not g.undirected  # iP n Z^2 is not symmetric about the origin
    # weights run over 0 < i < a*(d+1) = 3
    assert {e.weight for e in g.edges} <= {1, 2}
    sq = gamma_q(convex_hull([(F(1), F(0)), (F(-1), F(0)),
                              (F(0), F(1)), (F(0), F(-1))]), "sq")
    assert sq.undirected


def test_gamma_q_distance_is_gauge_ceiling(triangle_poly):
    from perigraph.cycles import growth_polytope
    from perigraph.geometry import gauge
    g = gamma_q(triangle_poly, "t")
    x0 = Vertex(0, (0, 0))
    P = growth_polytope(g)
    targets = [(dx, dy) for dx in range(-4, 5) for dy in range(-4, 5)]
    gauges = {p: gauge(P, (F(p[0]), F(p[1]))) for p in targets}
    radius = max(-((-v.numerator) // v.denominator) for v in gauges.values())
    dist = ball(g, x0, radius)
    for p, gval in gauges.items():
        assert dist[Vertex(0, p)] == -((-gval.numerator) // gval.denominator)


def test_gamma_q_growth_equals_counts(triangle_poly):
    g = gamma_q(triangle_poly, "t")
    x0 = Vertex(0, (0, 0))
    b = cumulative(growth_sequence(g, x0, 7))
    for i in range(7):
        assert b[i] == count(triangle_poly, (0, 0), i)
