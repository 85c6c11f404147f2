"""Shifted lattice-point counting h(d) = #((v + (d+alpha)P) n Z^N) and the
single-class periodic graph built from a polytope.

Counting conventions: t*P is empty for t < 0, 0*P = {0}, and
t*relint(P) is empty for t <= 0.  Counting is done by exact constraint
scanning after clearing all denominators to integers; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from .field import _cleared, exact_floor
from .geometry import lattice_scan, origin_interior, vdot
from .quotient import EdgeRecord, QuotientGraph, ResourceLimit
from .series import QuasiPolynomial, fit_quasi_polynomial


def _points(P, v, t, strict, collect):
    """Integer points of v + t*P (of v + t*relint P when strict), for exact
    scalars v and t (rational or QuadExt), from P's integer rows; at t = 0
    they describe {v}.

    With q the common denominator of v and t and L that of P's vertices
    (``Polytope._integer_rows``), a row a.x <= b of P reads
    D a.x <= L a.(q v) + (q t)(L b) on v + t*P, D = q L, with every term an
    int (its parts ints for a QuadExt v or t).  So each right side and box
    bound is rounded by one ``//``: down for a closed row and the upper
    bound, up for a strict row (``lattice_scan`` reads a.x < ceil) and the
    lower bound."""
    if len(v) != P.ambient_dim:
        raise ValueError(f"shift has {len(v)} coordinates, the polytope "
                         f"has {P.ambient_dim}")
    if t < 0 or (strict and t <= 0):
        return [] if collect else 0
    L, _, equalities, facets, lo, hi = P._integer_rows()
    q, ((*qv, qt),) = _cleared([(*v, t)])
    D = q * L

    def down(R):  # floor(R / D); exact_floor passes an int through
        return exact_floor(R) // D

    def up(R):  # ceil(R / D)
        return -down(-R)

    eqs = []
    for e, f in equalities:
        R = L * vdot(e, qv) + qt * f
        r = down(R)
        if r * D != R:
            return [] if collect else 0
        eqs.append((e, r))
    round_row = up if strict else down
    ineqs = [(a, round_row(L * vdot(a, qv) + qt * b), strict)
             for a, b in facets]
    box_lo = tuple(up(L * x + qt * m) for x, m in zip(qv, lo))
    box_hi = tuple(down(L * x + qt * m) for x, m in zip(qv, hi))
    return lattice_scan(eqs, ineqs, box_lo, box_hi, collect=collect)


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
    return P._integer_rows()[0]


def shifted_count(P, v, alpha, d) -> int:
    return count(P, v, Fraction(d) + Fraction(alpha))


def fit_shifted_qp(P, v, alpha, period=None, counts=None,
                   max_states=10_000_000) -> QuasiPolynomial:
    """Quasi-polynomial f with f(d) = shifted_count(P, v, alpha, d) for
    d >= -alpha; constituents have degree <= dim P.  ``counts`` may map
    some d to shifted_count(P, v, alpha, d), already counted by the caller.

    The fit (``series.fit_quasi_polynomial``) interpolates through M + 1
    dilations per residue class and checks f against the count at every d
    of the first M + 4 periods: N * (M + 4) counts for the period N.  More
    than ``max_states`` of them raise ResourceLimit before any is made."""
    alpha = Fraction(alpha)
    M = P.dim
    N = period or minimal_dilation(P) * alpha.denominator
    if N * (M + 4) > max_states:
        raise ResourceLimit(f"the fit counts {N * (M + 4)} dilations, over "
                            f"the budget of {max_states} states")
    valid_from = ceil(-alpha)
    # the verification recounts every dilation the fit interpolated through;
    # the memo starts from the caller's counts and lives for this call only
    counts = dict(counts or {})

    def h(d):
        if d not in counts:
            counts[d] = shifted_count(P, v, alpha, d)
        return counts[d]

    return fit_quasi_polynomial(h, N, M, valid_from,
                                valid_from + N * (M + 4))


def verify_reciprocity(P, v, alpha, qp=None, imax=6) -> bool:
    """f(-i) == (-1)^M #((-v + (i-alpha) relint P) n Z^N) for integers
    i > alpha up to imax."""
    alpha = Fraction(alpha)
    if qp is None:
        qp = fit_shifted_qp(P, v, alpha)
    M = P.dim
    sign = (-1) ** M
    neg_v = tuple(-Fraction(x) for x in v)
    start = floor(alpha) + 1  # the least integer above alpha
    for i in range(max(1, start), imax + 1):
        lhs = qp.evaluate(-i)
        rhs = sign * count_interior(P, neg_v, Fraction(i) - alpha)
        if lhs != rhs:
            return False
    return True


def is_reflexive(P) -> bool:
    """Origin interior and every facet of the form a.x <= 1 with integral a."""
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


def gamma_q(P, name="gamma_q", max_states=10_000_000) -> QuotientGraph:
    """Single-class periodic graph of a rational polytope: a loop of weight i
    and vector m for every m in (i*P) n Z^N, for 0 < i < a*(dim P + 1).

    The loops are counted first, by ``count``, and more than ``max_states``
    of them raise ResourceLimit before any is listed."""
    n = P.ambient_dim
    origin = (0,) * n
    dilations = range(1, minimal_dilation(P) * (P.dim + 1))
    loops = sum(count(P, origin, i) for i in dilations)
    if loops > max_states:
        raise ResourceLimit(f"gamma_q has {loops} loops, over the budget of "
                            f"{max_states} states")
    raw = []
    for i in dilations:
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
