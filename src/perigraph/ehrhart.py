"""Shifted lattice-point counting h(d) = #((v + (d+alpha)P) n Z^N) and the
single-class periodic graph built from a polytope.

Counting conventions: t*P is empty for t < 0, 0*P = {0}, and
t*relint(P) is empty for t <= 0.  Counting is done by exact constraint
scanning after clearing all denominators to integers; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm

from .field import exact_floor
from .geometry import (LowerDimensionalHull, _box, _scan, _shifted_constraints,
                       origin_interior)
from .quotient import EdgeRecord, QuotientGraph
from .series import FitError, QuasiPolynomial, interpolate


def hull_dim(P):
    return P.dim if isinstance(P, LowerDimensionalHull) else P.ambient_dim


def _points(P, v, t, strict, collect):
    """Integer points of v + t*P (of v + t*relint P when strict), for exact
    scalars v and t (rational or QuadExt)."""
    if t < 0 or (strict and t <= 0):
        return [] if collect else 0
    if t == 0:  # 0*P = {0}: region is the single point v
        pt = tuple(map(exact_floor, v))
        hits = [pt] if all(a == x for a, x in zip(pt, v)) else []
        return hits if collect else len(hits)
    cons = _shifted_constraints(P, v, t, strict)
    if cons is None:
        return [] if collect else 0
    return _scan(*cons, *_box(P, v, t), collect=collect)


def count(P, v, t) -> int:
    """#((v + t*P) n Z^N)."""
    return _points(P, v, t, strict=False, collect=False)


def count_interior(P, v, t) -> int:
    """#((v + t*relint(P)) n Z^N)."""
    return _points(P, v, t, strict=True, collect=False)


def lattice_points_of(P, v=None, t=1, strict=False):
    if v is None:
        v = (0,) * P.ambient_dim
    return _points(P, v, t, strict=strict, collect=True)


def minimal_dilation(P) -> int:
    """Smallest a with a*P having integral vertices."""
    return lcm(*(Fraction(x).denominator
                 for w in P.vertices for x in w))


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
    # the verification recounts every dilation the fit interpolated through;
    # the memo lives for this call only
    counts = {}

    def h(d):
        if d not in counts:
            counts[d] = shifted_count(P, v, alpha, d)
        return counts[d]

    constituents = [None] * N
    for r in range(N):
        d0 = valid_from + ((r - valid_from) % N)
        xs = [d0 + N * j for j in range(M + 1)]
        constituents[d0 % N] = interpolate([(d, h(d)) for d in xs])
    qp = QuasiPolynomial(N, tuple(constituents), valid_from)
    top = valid_from + N * (M + 1) + verify_periods * N
    for d in range(valid_from, top):
        if qp.evaluate(d) != h(d):
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
