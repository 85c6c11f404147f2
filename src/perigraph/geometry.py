"""Exact polyhedral geometry in small dimension.

Convex hulls are built by beneath-beyond (Clarkson & Shor 1989; the
incremental step of Quickhull, Barber, Dobkin & Huhdanpaa 1996) on the
points scaled to ints by one common denominator, so every predicate is
exact and no epsilon is needed.  Lower-dimensional hulls carry their affine
hull: the points are projected onto coordinates independent on their span,
hulled there, and the facets spread back.  Ranks, normals and span frames
come from the one elimination of ``field``.  Faces are read off a
polytope's facet incidences; a half-open region lists its lattice points
from the Hermite form of its generators.
"""

from __future__ import annotations

from collections import Counter
from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import factorial, gcd
from operator import mul

from .field import (QuadExt, _cleared, _span_frame, _spread, cross_normal,
                    det, eliminate, exact_ceil, exact_floor, hermite,
                    scalar_sign)


def vsub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def vadd(p, q):
    return tuple(a + b for a, b in zip(p, q))


def vscale(c, p):
    return tuple(c * a for a in p)


def vdot(p, q):
    s = p[0] * q[0]
    for a, b in zip(p[1:], q[1:]):
        s = s + a * b
    return s


def _as_fractions(p):
    return tuple(Fraction(x) for x in p)


@dataclass(frozen=True)
class Polytope:
    """Rational polytope of dimension ``dim`` in R^ambient_dim: the points x
    with e.x == f for every equality and a.x <= b for every facet, each row
    a primitive int normal with a Fraction right side.  A full-dimensional
    polytope has no equalities.  Its integer rows and facet incidences are
    kept on first use."""

    ambient_dim: int
    dim: int
    vertices: tuple          # sorted tuples of Fractions
    equalities: tuple        # (e, f): the affine hull
    facets: tuple            # (a, b)
    _rows: tuple = field(default=None, init=False, repr=False,
                         compare=False)
    _masks: tuple = field(default=None, init=False, repr=False,
                          compare=False)

    def contains(self, point, strict=False):
        """Membership, of the relative interior when strict; a point is its
        own relative interior."""
        if any(scalar_sign(vdot(e, point) - f) for e, f in self.equalities):
            return False
        for a, b in self.facets:
            s = scalar_sign(vdot(a, point) - b)
            if s > 0 or (strict and s == 0):
                return False
        return True

    def _integer_rows(self):
        """The polytope over L, the vertices' common denominator: (L,
        scaled, equalities, facets, lo, hi) with L*v for each vertex v in
        scaled, the rows (e, L*f) and (a, L*b), and the box [lo, hi] of
        L*P, all ints.  Each right side is a row's value at a vertex, so
        L clears it."""
        if self._rows is None:
            L, scaled = _cleared(self.vertices)

            def rows(pairs):
                return tuple((a, b.numerator * (L // b.denominator))
                             for a, b in pairs)
            columns = tuple(zip(*scaled))
            object.__setattr__(self, "_rows", (
                L, scaled, rows(self.equalities), rows(self.facets),
                tuple(map(min, columns)), tuple(map(max, columns))))
        return self._rows

    def _facet_masks(self):
        """Per facet, the bit mask of its vertex indices: v is on a.x <= b
        when a.(L v) == L b (``_integer_rows``)."""
        if self._masks is None:
            _, scaled, _, facets, _, _ = self._integer_rows()
            object.__setattr__(self, "_masks", tuple(
                sum(1 << i for i, v in enumerate(scaled) if vdot(a, v) == b)
                for a, b in facets))
        return self._masks

    def facet_vertices(self, facet_index):
        mask = self._facet_masks()[facet_index]
        return tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1)


def _full_dim_hull(points, scaled, L, simplex):
    """Beneath-beyond hull of points of full affine rank n >= 1, given as
    ints ``scaled`` = L * points and the indices ``simplex`` of n + 1
    affinely independent ones.

    The boundary is a complex of simplicial facets (sorted index n-tuples)
    with primitive normals, oriented by (n+1) times the simplex centroid,
    which is integral and inside every later hull.  A point sees the facets
    with a.p > b, strictly, so coplanar points stay beneath; each ridge of
    exactly one visible facet is on the horizon and gets the facet ridge +
    p.  Far points go first, so most inner points cost one pass over few
    facets.  Facets with one normal merge at the end, and a point of the
    complex is a vertex when its active normals have rank n.
    """
    n = len(simplex) - 1
    inner = [sum(c) for c in zip(*(scaled[i] for i in simplex))]
    facets = {}

    def add(idx):
        base = scaled[idx[0]]
        normal = cross_normal([vsub(scaled[i], base) for i in idx[1:]], n)
        g = gcd(*normal)
        normal = tuple(x // g for x in normal)
        b = vdot(normal, base)
        if vdot(normal, inner) > (n + 1) * b:
            normal, b = tuple(-x for x in normal), -b
        facets[idx] = normal, b

    for i in simplex:
        add(tuple(j for j in simplex if j != i))
    for i in sorted(range(len(scaled)), key=lambda i: -sum(
            (x * (n + 1) - c) ** 2 for x, c in zip(scaled[i], inner))):
        visible = [idx for idx, (a, b) in facets.items()
                   if vdot(a, scaled[i]) > b]
        ridges = Counter(r for idx in visible
                         for r in combinations(idx, n - 1))
        for idx in visible:
            del facets[idx]
        for r, k in ridges.items():
            if k == 1:
                add(tuple(sorted(r + (i,))))
    # facets in increasing normal order; a segment lists its upper end first
    facet_list = sorted(set(facets.values()), reverse=n == 1)
    verts = [points[i] for i in {i for idx in facets for i in idx}
             if len(eliminate([a for a, b in facet_list
                               if vdot(a, scaled[i]) == b], n)[0]) == n]
    return Polytope(n, n, tuple(sorted(verts)), (),
                    tuple((a, Fraction(b, L)) for a, b in facet_list))


def convex_hull(points):
    """Exact convex hull, a Polytope whose dim may be below ambient_dim.

    The points are scaled by one common denominator L to ints, and one
    elimination (``eliminate``) of the transpose of their differences from
    the least point picks the differences independent of those before them:
    the affine rank k and k + 1 affinely independent points.  Points of
    rank k < n are projected onto the coordinates sel of their span's frame
    (``_span_frame``), which is one-to-one on their affine hull; each facet
    a.y <= b of the projected hull, spread to sel, is a primitive ambient
    row.
    """
    pts = sorted(set(map(_as_fractions, points)))
    if not pts:
        raise ValueError("empty point set")
    n, base = len(pts[0]), pts[0]
    # a row a.x <= b of the scaled points is a.x <= b/L of the originals
    L, scaled = _cleared(pts)
    diffs = [vsub(p, scaled[0]) for p in scaled[1:]]
    picked = eliminate(list(zip(*diffs)), len(diffs))[0]
    simplex = [0] + [i + 1 for i in picked]
    rank = len(picked)
    if rank == n:
        return _full_dim_hull(pts, scaled, L, simplex)
    sel, _, eq_rows, _ = _span_frame([diffs[i] for i in picked], n)
    equalities = tuple((e, Fraction(vdot(e, base))) for e in eq_rows)
    if rank == 0:
        return Polytope(n, 0, (base,), equalities, ())
    proj = [tuple(p[c] for c in sel) for p in pts]
    sub = _full_dim_hull(proj, [tuple(p[c] for c in sel) for p in scaled], L,
                         simplex)
    by_coords = dict(zip(proj, pts))
    verts = tuple(sorted(by_coords[y] for y in sub.vertices))
    facets = tuple((_spread(sel, a, n), b) for a, b in sub.facets)
    return Polytope(n, rank, verts, equalities, facets)


def origin_interior(poly) -> bool:
    """Is the origin in the interior of the polytope?"""
    return not poly.equalities and all(b > 0 for _, b in poly.facets)


def gauge(poly: Polytope, y):
    """min{t >= 0 : y in t*poly}; requires the origin interior to poly."""
    if not origin_interior(poly):
        raise ValueError("gauge requires the origin interior to the polytope")
    best = Fraction(0)
    for a, b in poly.facets:
        val = vdot(a, y) / b
        if scalar_sign(val - best) > 0:
            best = val
    return best


def _pull_triangulation(masks, face, dim, apex):
    """Pulling triangulation, as vertex masks, of the face with vertex mask
    ``face`` and dimension ``dim`` from the vertex index ``apex``.  The
    facets of a face are its maximal proper intersections with the facet
    masks; each one without the apex is pulled from its least (lex-min)
    vertex, and a face with dim + 1 vertices is a simplex."""
    if face.bit_count() == dim + 1:
        return [face]
    cuts = {face & s for s in masks} - {face}
    simplices = []
    for sub in cuts:
        if sub >> apex & 1 or any(sub != o and sub & o == sub for o in cuts):
            continue
        simplices.extend(
            s | 1 << apex for s in _pull_triangulation(
                masks, sub, dim - 1, (sub & -sub).bit_length() - 1))
    return simplices


def triangulate_facet(poly: Polytope, facet_index: int, apex=None):
    """Fan triangulation of a facet from a chosen facet vertex (default the
    lex-min one), through faces read off the facet incidences; simplices as
    sorted vertex tuples."""
    masks = poly._facet_masks()
    face = masks[facet_index]
    if apex is None:
        index = (face & -face).bit_length() - 1
    else:
        apex = _as_fractions(apex)
        index = next((i for i, v in enumerate(poly.vertices)
                      if v == apex and face >> i & 1), None)
        if index is None:
            raise ValueError("apex must be a vertex of the facet")
    return [tuple(v for i, v in enumerate(poly.vertices) if s >> i & 1)
            for s in _pull_triangulation(masks, face, poly.dim - 1, index)]


def volume(poly: Polytope):
    """Euclidean-lattice-normalized volume (sum of |det|/n!)."""
    apex = poly.vertices[0]
    total = sum(abs(det([vsub(v, apex) for v in simplex]))
                for i, mask in enumerate(poly._facet_masks()) if not mask & 1
                for simplex in triangulate_facet(poly, i))
    return Fraction(total, factorial(poly.ambient_dim))


@dataclass(frozen=True)
class HalfOpenRegion:
    """base + sum_j [0, 1) * gen_j: a half-open parallelepiped on n
    independent integral generators in R^n.

    ``base`` is exact: int, Fraction or QuadExt coordinates.  The generators
    are stored as int vectors, and their frame is built once, at
    construction: the forms f_j with rel = sum_j (f_j . rel / D) gen_j
    (``_span_frame``) and the diagonal of their Hermite form.  With q a
    common denominator of the base, membership is then a few int dot
    products against offsets and the bound q * D, all ints for a rational
    base.  A point may have int, Fraction or QuadExt coordinates.  c2's
    regions are spanned by cycle vectors d_v * v, and c2 reads each
    target's gauge off the row of the facet whose cone holds its region.
    """

    base: tuple
    generators: tuple        # n integral vectors
    _frame: tuple = field(init=False, repr=False, compare=False)
    _tests: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.base)
        if len(self.generators) != n:
            raise ValueError(f"a region in R^{n} needs {n} generators, "
                             f"got {len(self.generators)}")
        if any(x % 1 for g in self.generators for x in g):
            raise ValueError("region generators must be integral")
        gens = tuple(tuple(map(int, g)) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        _, forms, _, bound = _span_frame(gens, n)
        diag = [r[i] for i, r in enumerate(hermite(gens))]
        q, (qbase,) = _cleared([self.base])
        self._place((forms, bound, diag), q, qbase)

    def _place(self, frame, q, qbase):
        forms, bound, _ = frame
        # qbase = q * base has integral rational parts: rational offsets are
        # ints, an irrational base (a QuadExt realization) keeps QuadExt ones
        object.__setattr__(self, "_frame", frame)
        object.__setattr__(self, "_tests", (
            tuple((tuple(q * x for x in form), vdot(form, qbase))
                  for form in forms), q * bound))

    def translated(self, shift, q=1):
        """The region moved by shift / q, reusing this region's frame; no
        Fraction arithmetic places the tests when q * base + shift is
        cleared of denominators (see ``_cleared``)."""
        r, (qbase,) = _cleared([vadd(vscale(q, self.base), shift)])
        q *= r
        moved = copy(self)
        object.__setattr__(moved, "base", tuple(
            x / q if isinstance(x, QuadExt) else Fraction(x, q) for x in qbase))
        moved._place(self._frame, q, qbase)
        return moved

    def contains(self, point):
        forms, bound = self._tests
        for form, off in forms:
            s = sum(map(mul, form, point)) - off
            if s < 0 or s >= bound:
                return False
        return True

    def support(self, point):
        """Bit mask of the generators with a nonzero coefficient at a point
        of the region."""
        return sum(1 << j for j, (form, off) in enumerate(self._tests[0])
                   if sum(map(mul, form, point)) != off)

    def integer_points(self):
        """Integer points of the region in lexicographic order.

        The region is a fundamental domain of the generators' lattice G for
        any real base, one point per class of Z^n / G (Beck & Robins,
        Computing the Continuous Discretely, ch. 3).  The r with 0 <= r_i <
        H_ii, H the Hermite form of G, are one of each class, and r -
        sum_j floor((f_j.r - off_j) / B) g_j is its point, with (f_j, off_j)
        and B = q * D the membership tests.  f_j.r is an int, so
        floor(f_j.r - off_j) = f_j.r - ceil(off_j) for an irrational offset
        as well."""
        forms, bound = self._tests
        offs = [(form, exact_ceil(off)) for form, off in forms]
        points = []
        for r in product(*map(range, self._frame[2])):
            p = list(r)
            for (form, off), g in zip(offs, self.generators):
                k = (sum(map(mul, form, r)) - off) // bound
                if k:
                    p = [x - k * y for x, y in zip(p, g)]
            points.append(tuple(p))
        points.sort()
        return points


def integer_box(lo, hi):
    """All integer points in the closed box [lo, hi] (exact scalar bounds)."""
    ranges = [range(exact_ceil(a), exact_floor(b) + 1) for a, b in zip(lo, hi)]
    out = [()]
    for r in ranges:
        out = [p + (x,) for p in out for x in r]
    return out


def _interval(lo, hi, rows):
    """The integers x in lo..hi with s*x <= r for every row (s, r), as
    (lo, hi); hi < lo when there are none."""
    for s, r in rows:
        if s > 0:
            q = r // s
            if q < hi:
                hi = q
        elif s < 0:
            q = -(r // -s)  # ceil(r / s)
            if q > lo:
                lo = q
        elif r < 0:
            return lo, lo - 1
    return lo, hi


def _floor_sum(n, m, a, b):
    """sum(floor((a*i + b) / m) for i in range(n)) for m > 0, by Euclid-like
    reduction: O(log m) steps, any sign of a and b."""
    total = 0
    while True:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            return total
        # count lattice points under the line by swapping the axes
        n, b = divmod(top, m)
        m, a = a, m


def _by_slope(lines):
    """Lines y = (c - A*x)/B (B > 0), in order of decreasing slope -A/B."""
    return sorted(lines,
                  key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1]))


def _envelope(lines, x, xhi):
    """Lower envelope of the lines y = (c - A*x)/B (B > 0, in order of
    decreasing slope) over the integers x..xhi, as pieces (last x, (A, B,
    c)), each starting where the one before ends.  Each piece's line has a
    smaller slope than the one before, so there are at most len(lines)
    pieces."""
    pieces = []
    for _ in lines:
        if x > xhi:
            break
        # the least line at x; on a tie the later one has the smaller slope,
        # so it stays least to the right of x
        best = lines[0]
        A, B, c = best
        for line in lines:
            A2, B2, c2 = line
            if (c2 - A2 * x) * B <= (c - A * x) * B2:
                best, A, B, c = line, A2, B2, c2
        # best is least until a line of smaller slope reaches it: from the
        # first integer x' >= (c2*B - c*B2) / D
        last = xhi
        for A2, B2, c2 in lines:
            D = A2 * B - A * B2
            if D > 0:
                q = (c2 * B - c * B2 - 1) // D
                if q < last:
                    last = q
        pieces.append((last, best))
        x = last + 1
    return pieces


def _count_slice(upper, lower, rows, xlo, xhi, cs):
    """Integer (x, y) with xlo <= x <= xhi and A*x + B*y <= c for every row
    of the slice, each row's c taken from ``cs`` by index; the rows must
    bound y from both sides.

    ``upper`` holds (A, B, index) for the rows with B > 0, ``lower`` holds
    (A, -B, index) for those with B < 0, each in order of decreasing slope
    of the line y = (c - A*x)/B it lists, and ``rows`` holds (A, index) for
    B = 0.  The column over x holds floor(U(x)) - ceil(L(x)) + 1 points,
    with U the least upper line and L the greatest lower line; a lower row
    reads -y <= (c - A*x)/(-B), so -ceil(L) = floor(N) for the least of
    these negated lines N.  Both envelopes come in integer pieces; on each
    piece of the merge the sum is two floor sums, over the x where U >= L.
    Where U < L the term is <= 0, so dropping those x is exactly
    max(0, term).
    """
    xlo, xhi = _interval(xlo, xhi, ((A, cs[i]) for A, i in rows))
    if xhi < xlo:
        return 0
    ups = _envelope([(A, B, cs[i]) for A, B, i in upper], xlo, xhi)
    downs = _envelope([(A, B, cs[i]) for A, B, i in lower], xlo, xhi)
    total = 0
    u = d = 0
    x = xlo
    while x <= xhi:
        ul, (Au, Bu, cu) = ups[u]
        dl, (Ad, Bd, cd) = downs[d]
        last = min(ul, dl)
        # U + N >= 0 is one linear inequality in x
        a, b = _interval(x, last, ((Au * Bd + Ad * Bu, cu * Bd + cd * Bu),))
        if a <= b:
            k = b - a + 1
            total += (k + _floor_sum(k, Bu, -Au, cu - Au * a)
                      + _floor_sum(k, Bd, -Ad, cd - Ad * a))
        x = last + 1
        u += ul == last
        d += dl == last
    return total


def _scan(eqs, ineqs, lo, hi, collect=False):
    """Integer points satisfying e.x == f and a.x <= b inside box [lo, hi].

    All coefficients, right sides and box bounds are ints;
    ``ehrhart._points`` rounds a polytope's rows to this form.  The leaf
    resolves the last coordinate by interval arithmetic.  A count
    (collect=False) of a system without equalities resolves the last two
    coordinates of each slice by exact floor sums (``_count_slice``), so it
    takes O(t^(n-2)) slices in place of O(t^(n-1)) leaves.
    """
    n = len(lo)
    if n == 0:
        ok = all(f == 0 for _, f in eqs)
        return ([] if collect else 0) if not ok else ([()] if collect else 1)
    points = [] if collect else None
    count = 0
    last_coef = [a[n - 1] for a, _ in ineqs]
    slices = not collect and not eqs and n >= 2
    if slices:
        # the box bounds on the last coordinate are two more rows; the slopes
        # of a slice's lines are fixed, only their c varies
        unit = (0,) * (n - 1)
        ineqs = [*ineqs, (unit + (1,), hi[n - 1]), (unit + (-1,), -lo[n - 1])]
        upper = _by_slope([(a[n - 2], a[n - 1], i)
                           for i, (a, _) in enumerate(ineqs) if a[n - 1] > 0])
        lower = _by_slope([(a[n - 2], -a[n - 1], i)
                           for i, (a, _) in enumerate(ineqs) if a[n - 1] < 0])
        flat = [(a[n - 2], i) for i, (a, _) in enumerate(ineqs)
                if a[n - 1] == 0]

    def rec(idx, rest_eq, rest_in):
        nonlocal count
        if slices and idx == n - 2:
            count += _count_slice(upper, lower, flat, lo[idx], hi[idx],
                                  rest_in)
            return
        if idx == n - 1:
            lo_b, hi_b = lo[n - 1], hi[n - 1]
            for (a, _), c in zip(eqs, rest_eq):
                an = a[n - 1]
                if an == 0:
                    if c != 0:
                        return
                else:
                    if c % an != 0:
                        return
                    x = c // an
                    lo_b, hi_b = max(lo_b, x), min(hi_b, x)
            lo_b, hi_b = _interval(lo_b, hi_b, zip(last_coef, rest_in))
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
                [c - a[idx] * x for (a, _), c in zip(eqs, rest_eq)],
                [c - a[idx] * x for (a, _), c in zip(ineqs, rest_in)])
            prefix.pop()

    prefix = []
    rec(0, [f for _, f in eqs], [b for _, b in ineqs])
    return points if collect else count
