"""Shifted lattice-point counting h(d) = #((v + (d+alpha)P) n Z^N) and the
single-class periodic graph built from a polytope.

Counting conventions: t*P is empty for t < 0, 0*P = {0}, and
t*relint(P) is empty for t <= 0.  Counting is done by exact constraint
scanning after clearing all denominators to integers; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm

from .geometry import (LowerDimensionalHull, Polytope, convex_hull,
                       origin_interior, vdot)
from .quotient import EdgeRecord, QuotientGraph
from .series import FitError, QuasiPolynomial, interpolate


def hull_of(points):
    return convex_hull(points)


def hull_dim(P):
    return P.dim if isinstance(P, LowerDimensionalHull) else P.ambient_dim


def hull_vertices(P):
    return P.vertices


def _hrep(P):
    """(equalities, inequalities) of P in ambient coordinates, integer rows."""
    eqs, ineqs = [], []
    if isinstance(P, LowerDimensionalHull):
        eq_src = P.equalities
        in_src = P.inequalities
    else:
        eq_src = ()
        in_src = P.facets
    for a, b in eq_src:
        scale = lcm(*(Fraction(x).denominator for x in a))
        eqs.append((tuple(int(x * scale) for x in a), Fraction(b) * scale))
    for a, b in in_src:
        scale = lcm(*(Fraction(x).denominator for x in a))
        ineqs.append((tuple(int(x * scale) for x in a), Fraction(b) * scale))
    return eqs, ineqs


def _scan(eqs, ineqs, lo, hi, collect=False):
    """Integer points satisfying e.x == f and a.x <= b inside box [lo, hi].

    All coefficients integral; rhs of equalities must be integers (callers
    reject fractional equality rhs).  The last coordinate is resolved by
    interval arithmetic rather than iteration.
    """
    n = len(lo)
    points = [] if collect else None
    count = 0

    def rec(idx, partial_eq, partial_in):
        nonlocal count
        if idx == n - 1:
            lo_b, hi_b = lo[n - 1], hi[n - 1]
            for (a, rhs), p in zip(eqs, partial_eq):
                c = rhs - p
                an = a[n - 1]
                if an == 0:
                    if c != 0:
                        return
                else:
                    if c % an != 0:
                        return
                    x = c // an
                    lo_b, hi_b = max(lo_b, x), min(hi_b, x)
            for (a, rhs), p in zip(ineqs, partial_in):
                c = rhs - p
                an = a[n - 1]
                if an == 0:
                    if c < 0:
                        return
                elif an > 0:
                    hi_b = min(hi_b, c // an)
                else:  # x >= c/an with an < 0: ceil((-c)/(-an))
                    lo_b = max(lo_b, -(c // (-an)))
            if hi_b < lo_b:
                return
            count += hi_b - lo_b + 1
            if collect:
                points.extend(tuple(prefix) + (x,)
                              for x in range(lo_b, hi_b + 1))
            return
        for x in range(lo[idx], hi[idx] + 1):
            prefix.append(x)
            rec(idx + 1,
                [p + a[idx] * x for (a, _), p in zip(eqs, partial_eq)],
                [p + a[idx] * x for (a, _), p in zip(ineqs, partial_in)])
            prefix.pop()

    prefix = []
    if n == 0:
        ok = all(f == p for (_, f), p in zip(eqs, [0] * len(eqs)))
        return ([] if collect else 0) if not ok else ([()] if collect else 1)
    rec(0, [0] * len(eqs), [0] * len(ineqs))
    return points if collect else count


def _shifted_constraints(P, v, t, strict):
    """Integerized constraints for the region v + t*P (t > 0)."""
    eqs, ineqs = _hrep(P)
    out_eqs, out_ineqs = [], []
    for a, f in eqs:
        rhs = vdot(a, v) + t * f
        if rhs.denominator != 1:
            return None  # no integer point can satisfy an integral form
        out_eqs.append((a, int(rhs)))
    for a, b in ineqs:
        rhs = vdot(a, v) + t * b
        if strict:
            bound = int(rhs) - 1 if rhs.denominator == 1 else floor(rhs)
        else:
            bound = floor(rhs)
        out_ineqs.append((a, bound))
    return out_eqs, out_ineqs


def _box(P, v, t):
    verts = [tuple(Fraction(x) * t + Fraction(y) for x, y in zip(w, v))
             for w in hull_vertices(P)]
    n = len(v)
    lo = tuple(ceil(min(w[c] for w in verts)) for c in range(n))
    hi = tuple(floor(max(w[c] for w in verts)) for c in range(n))
    return lo, hi


def _points(P, v, t, strict, collect):
    v = tuple(Fraction(x) for x in v)
    t = Fraction(t)
    if strict and t <= 0:
        return [] if collect else 0
    if t < 0:
        return [] if collect else 0
    if t == 0:  # 0*P = {0}: region is the single point v
        hit = all(x.denominator == 1 for x in v)
        pt = tuple(int(x) for x in v)
        if collect:
            return [pt] if hit else []
        return 1 if hit else 0
    cons = _shifted_constraints(P, v, t, strict)
    if cons is None:
        return [] if collect else 0
    eqs, ineqs = cons
    lo, hi = _box(P, v, t)
    if any(a > b for a, b in zip(lo, hi)):
        return [] if collect else 0
    return _scan(eqs, ineqs, lo, hi, collect=collect)


def count(P, v, t) -> int:
    """#((v + t*P) n Z^N)."""
    return _points(P, v, t, strict=False, collect=False)


def count_interior(P, v, t) -> int:
    """#((v + t*relint(P)) n Z^N)."""
    return _points(P, v, t, strict=True, collect=False)


def lattice_points_of(P, v=None, t=1, strict=False):
    if v is None:
        v = (0,) * (P.ambient_dim if isinstance(P, Polytope) else P.ambient_dim)
    return _points(P, v, t, strict=strict, collect=True)


def minimal_dilation(P) -> int:
    """Smallest a with a*P having integral vertices."""
    return lcm(*(Fraction(x).denominator
                 for w in hull_vertices(P) for x in w))


def shifted_count(P, v, alpha, d) -> int:
    return count(P, v, Fraction(d) + Fraction(alpha))


def shifted_count_interior(P, v, alpha, d) -> int:
    return count_interior(P, v, Fraction(d) + Fraction(alpha))


def fit_shifted_qp(P, v, alpha, period=None, verify_periods=3
                   ) -> QuasiPolynomial:
    """Quasi-polynomial f with f(d) = shifted_count(P, v, alpha, d) for
    d >= -alpha; constituents have degree <= dim P."""
    alpha = Fraction(alpha)
    M = hull_dim(P)
    N = period or minimal_dilation(P) * alpha.denominator
    valid_from = ceil(-alpha)
    constituents = [None] * N
    for r in range(N):
        d0 = valid_from + ((r - valid_from) % N)
        xs = [d0 + N * j for j in range(M + 1)]
        pts = [(d, shifted_count(P, v, alpha, d)) for d in xs]
        constituents[d0 % N] = interpolate(pts)
    qp = QuasiPolynomial(N, tuple(constituents), valid_from)
    top = valid_from + N * (M + 1) + verify_periods * N
    for d in range(valid_from, top):
        if qp.evaluate(d) != shifted_count(P, v, alpha, d):
            raise FitError(f"shifted count is not quasi-polynomial with "
                           f"period {N} at d={d}")
    return qp


def verify_reciprocity(P, v, alpha, qp=None, imax=6) -> bool:
    """f(-i) == (-1)^M #((-v + (i-alpha) relint P) n Z^N) for integers
    i > alpha up to imax."""
    alpha = Fraction(alpha)
    if qp is None:
        qp = fit_shifted_qp(P, v, alpha)
    M = hull_dim(P)
    sign = (-1) ** M
    neg_v = tuple(-Fraction(x) for x in v)
    start = floor(alpha) + 1
    if start <= alpha:  # alpha integral: strict inequality
        start += 1
    for i in range(max(1, start), imax + 1):
        lhs = qp.evaluate(-i)
        rhs = sign * count_interior(P, neg_v, Fraction(i) - alpha)
        if lhs != rhs:
            return False
    return True


def is_reflexive(P) -> bool:
    """Origin interior and every facet of the form a.x <= 1 with integral a."""
    if isinstance(P, LowerDimensionalHull):
        return False
    return origin_interior(P) and all(b == 1 for _, b in P.facets)


def interior_shell_check(P, imax: int) -> bool:
    """(i+1) * relint(P) n Z^N == i*P n Z^N for i = 0..imax."""
    n = P.ambient_dim
    origin = (0,) * n
    for i in range(imax + 1):
        inner = sorted(lattice_points_of(P, origin, i + 1, strict=True))
        closed = sorted(lattice_points_of(P, origin, i, strict=False))
        if inner != closed:
            return False
    return True


def gamma_q(P, name="gamma_q") -> QuotientGraph:
    """Single-class periodic graph of a rational polytope: a loop of weight i
    and vector m for every m in (i*P) n Z^N, for 0 < i < a*(dim P + 1)."""
    n = P.ambient_dim
    a = minimal_dilation(P)
    d = hull_dim(P)
    origin = (0,) * n
    raw = []
    for i in range(1, a * (d + 1)):
        for m in lattice_points_of(P, origin, i):
            raw.append((m, i))
    # undirected iff the edge set is symmetric under vector negation
    index = {e: k for k, e in enumerate(raw)}
    symmetric = all((tuple(-x for x in m), i) in index for m, i in raw)
    edges = []
    for m, i in raw:
        rev = index[(tuple(-x for x in m), i)] if symmetric else None
        edges.append(EdgeRecord(0, 0, m, i, rev))
    realization = (tuple(Fraction(0) for _ in range(n)),)
    return QuotientGraph(n, ("o",), tuple(edges), undirected=symmetric,
                         realization=realization, name=name)
