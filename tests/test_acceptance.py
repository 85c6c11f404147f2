"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL line,
and enforces the stated wall-clock budget.
"""

import itertools
import random
import time
from fractions import Fraction as F

from perigraph.cycles import (closed_walk_vector, enumerate_cycles,
                              growth_polytope, p_initial)
from perigraph.ehrhart import (count, count_interior, fit_shifted_qp, gamma_q,
                               interior_shell_check, is_reflexive,
                               verify_reciprocity)
from perigraph.geometry import Polytope, convex_hull, gauge, volume
from perigraph.invariants import (asymptotic_constants, c1, c2_support,
                                  support_distance, well_arranged)
from perigraph.quotient import Vertex, ball, cumulative, growth_sequence
from perigraph.series import (IntPolynomial, RationalSeries, fit_rational,
                              rational_from_terms, reciprocity_check,
                              topological_density, wa_denominator)

P = IntPolynomial
one = IntPolynomial.one_minus_power


class Budget:
    """Context manager asserting a wall-clock limit and printing a verdict."""

    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None and dt < self.limit else "FAIL"
        print(f"[acceptance] {self.label}: {verdict} "
              f"({dt:.2f}s / {self.limit}s)")
        if exc_type is None:
            assert dt < self.limit, f"time budget exceeded: {dt:.2f}s"
        return False


def origin(graph, cls=0):
    return Vertex(cls, (0,) * graph.rank)


def test_criterion_1_growth_closed_forms(wakatsuki):
    with Budget("1 growth sequences match closed forms", 5):
        s0 = growth_sequence(wakatsuki, origin(wakatsuki, 0), 51)
        assert s0[0] == 1
        for n in range(1, 51):
            want = F(9, 2) * n - (1 if n % 2 == 0 else F(1, 2))
            assert s0[n] == want
        s2 = growth_sequence(wakatsuki, origin(wakatsuki, 2), 51)
        assert s2[:3] == [1, 2, 4]
        for n in range(3, 51):
            assert s2[n] == (3 * n if n % 2 == 0 else 6 * n - 6)


def test_criterion_2_structure(wakatsuki):
    with Budget("2 structural invariants", 10):
        idx = {(e.src, e.tgt, e.vector): i
               for i, e in enumerate(wakatsuki.edges)}
        e0 = idx[(0, 1, (0, 0))]
        e3 = idx[(0, 2, (0, 0))]
        e5 = idx[(1, 0, (1, 0))]
        e6 = idx[(1, 0, (1, 1))]
        e9 = idx[(2, 1, (0, 0))]
        assert closed_walk_vector(wakatsuki, (e5, e0)) == (1, 0)
        assert closed_walk_vector(wakatsuki, (e6, e3, e9)) == (1, 1)
        poly = growth_polytope(wakatsuki)
        assert len(poly.vertices) == 6
        assert volume(poly) == F(3, 4)
        assert topological_density(wakatsuki) == F(9, 2)
        assert [p_initial(wakatsuki, i) for i in range(3)] == \
            [True, True, False]
        v2 = origin(wakatsuki, 2)
        assert c1(wakatsuki, v2) == 1
        ac = asymptotic_constants(wakatsuki, v2)
        assert (ac.c1, ac.c2) == (1, 3)
        assert support_distance(wakatsuki, v2, [v2])[v2] == 3


def test_criterion_3_series_fits():
    with Budget("3 series fits from printed terms", 3):
        # (a) 3-uniform tiling, 12 terms over (1-t^4)(1-t^7)
        terms_a = [1, 6, 12, 12, 24, 30, 36, 36, 42, 54, 54, 60]
        fit_a = fit_rational(terms_a, one(4) * one(7), guard=0)
        assert fit_a.numerator.integerized() == \
            P((1, 6, 12, 12, 23, 24, 24, 23, 12, 12, 6, 1))
        red_a = fit_a.reduced()
        assert red_a.numerator.integerized() == \
            P((1, 5, 7, 5, 18, 6, 18, 5, 7, 5, 1))
        assert red_a.denominator.integerized() == \
            P((1, -1, 1, -1, 0, 0, 0, -1, 1, -1, 1))
        # (b) diamond, 13 terms over (1-t^4)^3
        terms_b = [1, 4, 12, 24, 42, 64, 92, 124, 162, 204, 252, 304, 362]
        fit_b = fit_rational(terms_b, one(4) * one(4) * one(4),
                             guard=0).reduced()
        assert fit_b.numerator.integerized() == P((1, 2, 4, 2, 1))
        assert fit_b.denominator.integerized() == P((1, -2, 0, 2, -1))
        # (c) carbon allotrope #60, 37 terms over (1-t^12)^3
        target_c = RationalSeries(P((1, 3, 7, 11, 11, 7, 3, 1)),
                                  P((1, -1, 0, -2, 2, 0, 1, -1)))
        terms_c = target_c.expand(37)
        fit_c = fit_rational(terms_c, one(12) * one(12) * one(12),
                             guard=0).reduced()
        assert fit_c.numerator == target_c.numerator
        assert fit_c.denominator == target_c.denominator


def test_criterion_4_reciprocity_battery(wakatsuki):
    with Budget("4 reciprocity battery", 1):
        battery = [
            # printed series, rank, expected verdict
            (RationalSeries(P((1, 2, 1)), P((1, -2, 1))), 2, True),
            (RationalSeries(P((1, 4, 6, 4, 1)), P((1, -1, 0, -1, 1))),
             2, True),
            (RationalSeries(P((1, 2, 2, 2, 1)), P((1, -1, 0, -1, 1))),
             2, True),
            (RationalSeries(P((1, 2, 1)), P((1, -2, 1))), 2, True),
            (RationalSeries(P((1, 4, 4, 6, 4, 4, 1)),
                            P((1, -1, 0, 0, 0, -1, 1))), 2, True),
            (RationalSeries(P((1, 2, 4, 2, 1)), P((1, -2, 0, 2, -1))),
             3, True),
            (RationalSeries(P((1, 3, 7, 11, 11, 7, 3, 1)),
                            P((1, -1, 0, -2, 2, 0, 1, -1))), 3, True),
            (RationalSeries(P((1, 1, 4, 0, 2, 1, -1)),
                            P((1, -2, 2, -2, 1))), 2, False),
        ]
        for series, rank, expect in battery:
            assert reciprocity_check(series, rank, "s") is expect
        s2 = growth_sequence(wakatsuki, origin(wakatsuki, 2), 30)
        f2 = rational_from_terms(s2, one(2) * one(2) * one(2)).reduced()
        assert reciprocity_check(f2, 2, "s") is False


def test_criterion_5_dia_pipeline(dia):
    with Budget("5 end-to-end dia pipeline", 30):
        x0 = origin(dia)
        s = growth_sequence(dia, x0, 13)
        assert s == [1, 4, 12, 24, 42, 64, 92, 124, 162, 204, 252, 304, 362]
        wa = well_arranged(dia, x0)
        assert wa.status == "well-arranged"
        den = wa_denominator(wa)
        s_long = growth_sequence(dia, x0, den.degree + 9)
        fit = fit_rational(s_long, den.integerized()).reduced()
        assert fit.numerator.integerized() == P((1, 2, 4, 2, 1))
        assert fit.denominator.integerized() == P((1, -2, 0, 2, -1))
        assert reciprocity_check(fit, 3, "s")


def brute_points(poly, v, t, strict):
    if t < 0 or (strict and t <= 0):
        return 0
    verts = [[F(a) * t + F(b) for a, b in zip(w, v)] for w in poly.vertices]
    ranges = []
    for c in range(2):
        lo = min(w[c] for w in verts)
        hi = max(w[c] for w in verts)
        ranges.append(range(-(-lo.numerator // lo.denominator) - 1,
                            hi.numerator // hi.denominator + 2))
    out = 0
    for p in itertools.product(*ranges):
        rel = [F(x) - F(b) for x, b in zip(p, v)]
        if t == 0:
            out += all(x == 0 for x in rel)
            continue
        if poly.contains([x / t for x in rel], strict=strict):
            out += 1
    return out


def test_criterion_6_ehrhart_oracle():
    with Budget("6 shifted Ehrhart oracle and reciprocity", 60):
        rng = random.Random(2024)
        menu = [F(0), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3)]
        done = 0
        while done < 20:
            pts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(2)) for _ in range(rng.randint(3, 7))]
            poly = convex_hull(pts)
            if not isinstance(poly, Polytope):
                continue  # degenerate sample; draw again
            v = (rng.choice(menu), rng.choice(menu))
            alpha = rng.choice(menu)
            for d in range(7):
                t = d + alpha
                assert count(poly, v, t) == brute_points(poly, v, t, False)
                assert count_interior(poly, v, t) == \
                    brute_points(poly, v, t, True)
            qp = fit_shifted_qp(poly, v, alpha)
            assert verify_reciprocity(poly, v, alpha, qp, imax=6)
            done += 1


def test_criterion_7_gamma_q(square_poly, triangle_poly):
    with Budget("7 polytope-to-graph distances and counts", 30):
        cross2 = convex_hull([(F(1), F(0)), (F(-1), F(0)),
                              (F(0), F(1)), (F(0), F(-1))])
        for poly in (square_poly, cross2, triangle_poly):
            g = gamma_q(poly)
            x0 = Vertex(0, (0, 0))
            targets = [(x, y) for x in range(-10, 11)
                       for y in range(-10, 11)]
            gauges = {p: gauge(poly, (F(p[0]), F(p[1]))) for p in targets}
            radius = max(-(-v.numerator // v.denominator)
                         for v in gauges.values())
            dist = ball(g, x0, radius)
            for p, gv in gauges.items():
                assert dist[Vertex(0, p)] == -(-gv.numerator // gv.denominator)
            b = cumulative(growth_sequence(g, x0, 7))
            for i in range(7):
                assert b[i] == count(poly, (0, 0), i)
            if is_reflexive(poly):
                assert interior_shell_check(poly, 6)
        assert all(is_reflexive(q) for q in (square_poly, cross2,
                                             triangle_poly))


def canonical_rotation(edge_indices):
    k = len(edge_indices)
    return min(tuple(edge_indices[(i + j) % k] for j in range(k))
               for i in range(k))


def brute_cycles(graph):
    found = set()
    for start in range(graph.num_classes):
        def dfs(cur, path, seen):
            for i, e in graph.out_edges(cur):
                if e.tgt == start:
                    found.add(canonical_rotation(path + (i,)))
                elif e.tgt not in seen:
                    dfs(e.tgt, path + (i,), seen | {e.tgt})
        dfs(start, (), {start})
    return found


def test_criterion_8_property_suites(wakatsuki, dia, z1, z2, z3):
    with Budget("8 property suites", 120):
        # gauge homogeneity and subadditivity, 10^3 random rational points
        poly = growth_polytope(wakatsuki)
        rng = random.Random(7)
        pts = [tuple(F(rng.randint(-40, 40), rng.randint(1, 6))
                     for _ in range(2)) for _ in range(1000)]
        for i in range(0, 1000, 2):
            x, y = pts[i], pts[i + 1]
            lam = F(rng.randint(1, 9), rng.randint(1, 4))
            assert gauge(poly, tuple(lam * c for c in x)) == \
                lam * gauge(poly, x)
            s = tuple(a + b for a, b in zip(x, y))
            assert gauge(poly, s) <= gauge(poly, x) + gauge(poly, y)
        # cycle enumeration vs brute force on every bundled fixture
        for g in (wakatsuki, dia, z1, z2, z3):
            ours = {canonical_rotation(c.edge_indices)
                    for c in enumerate_cycles(g)}
            assert ours == brute_cycles(g)
        # c1 as a sup: ball maxima stabilize at the reported value
        for g, radii in ((z2, (6, 10, 14)), (wakatsuki, (10, 20, 30))):
            x0 = origin(g)
            val = c1(g, x0)
            p = growth_polytope(g)
            maxima = []
            for r in radii:
                worst = F(0)
                for y, d in ball(g, x0, r).items():
                    rel = [a - b for a, b in zip(g.position(y),
                                                 g.position(x0))]
                    diff = gauge(p, rel) - d
                    if diff > worst:
                        worst = diff
                maxima.append(worst)
            assert maxima[0] == maxima[1] == maxima[2] == val
        # c2 < 1 implies P-initial
        for g in (wakatsuki, dia, z1, z2, z3):
            for cls in range(g.num_classes):
                if c2_support(g, origin(g, cls)) < 1:
                    assert p_initial(g, cls)
        # undirected with c1, c2 < 1/2 implies well-arranged
        for g in (z1, z2, z3, dia):
            if not g.undirected:
                continue
            ac = asymptotic_constants(g, origin(g))
            if ac.c1 < F(1, 2) and ac.c2 < F(1, 2):
                assert well_arranged(g, origin(g)).status == "well-arranged"
