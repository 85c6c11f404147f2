"""Exact polyhedral geometry in small dimension (2--4).

Convex hulls are computed by exhaustive supporting-hyperplane search with
exact rational predicates; this is quadratic-ish in the number of input
points, which is fine at the scale of growth polytopes.  Lower-dimensional
hulls are first-class results carrying their affine hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .field import (det, exact_ceil, exact_floor, matrix_rank, scalar_sign,
                    solve_linear)


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


def primitive(vec):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    fr = [Fraction(x) for x in vec]
    if all(x == 0 for x in fr):
        return tuple(0 for _ in fr)
    lcm = 1
    for x in fr:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def cross_normal(vectors, n):
    """Vector orthogonal to n-1 vectors in R^n (generalized cross product)."""
    normal = []
    for j in range(n):
        minor = [[v[k] for k in range(n) if k != j] for v in vectors]
        normal.append((-1) ** j * det(minor))
    return tuple(normal)


@dataclass(frozen=True)
class Polytope:
    """Full-dimensional rational polytope: vertices plus facets a.x <= b."""

    ambient_dim: int
    vertices: tuple          # sorted tuples of Fractions
    facets: tuple            # (primitive int normal, Fraction rhs)

    @property
    def dim(self):
        return self.ambient_dim

    def contains(self, point, strict=False):
        for a, b in self.facets:
            s = scalar_sign(vdot(a, point) - b)
            if s > 0 or (strict and s == 0):
                return False
        return True

    def facet_vertices(self, facet_index):
        a, b = self.facets[facet_index]
        return tuple(v for v in self.vertices if vdot(a, v) == b)


@dataclass(frozen=True)
class LowerDimensionalHull:
    """Hull of points whose affine span is a proper subspace.

    ``base``/``basis`` give the affine hull; ``hull`` is the full-dimensional
    polytope in affine coordinates; ``equalities``/``inequalities`` are the
    ambient H-representation (e.x = f, a.x <= b).
    """

    ambient_dim: int
    dim: int
    base: tuple
    basis: tuple
    hull: Polytope | None    # None when dim == 0
    vertices: tuple          # ambient coordinates
    equalities: tuple
    inequalities: tuple
    _coord_matrix: tuple     # rows of M with lambda = M (x - base)

    def affine_coords(self, point):
        """Affine-hull coordinates of a point, or None if off the hull's span."""
        rel = vsub(point, self.base)
        for e, f in self.equalities:
            if scalar_sign(vdot(e, point) - f) != 0:
                return None
        return tuple(vdot(row, rel) for row in self._coord_matrix)

    def contains(self, point, strict=False):
        lam = self.affine_coords(point)
        if lam is None:
            return False
        if self.dim == 0:
            return not strict
        return self.hull.contains(lam, strict=strict)


def _dedupe_sorted(points):
    return sorted(set(_as_fractions(p) for p in points))


def _full_dim_hull(points, n):
    """Facet scan for points of full affine rank n (n >= 1)."""
    if n == 1:
        lo = min(points)[0]
        hi = max(points)[0]
        facets = (((1,), Fraction(hi)), ((-1,), Fraction(-lo)))
        verts = ((lo,),) if lo == hi else ((lo,), (hi,))
        return Polytope(1, verts, facets)
    facets = {}
    m = len(points)
    for idx in combinations(range(m), n):
        base = points[idx[0]]
        diffs = [vsub(points[i], base) for i in idx[1:]]
        normal = cross_normal(diffs, n)
        if all(x == 0 for x in normal):
            continue
        normal = primitive(normal)
        b = vdot(normal, base)
        lo = hi = False
        for p in points:
            s = scalar_sign(vdot(normal, p) - b)
            if s > 0:
                hi = True
            elif s < 0:
                lo = True
            if lo and hi:
                break
        if lo and hi:
            continue
        if hi:  # flip so inequality is <=
            normal = tuple(-x for x in normal)
            b = -b
        facets[normal] = Fraction(b)
    facet_list = sorted(facets.items())
    verts = []
    for p in points:
        active = [a for a, b in facet_list if vdot(a, p) == b]
        if len(active) >= n and matrix_rank(active) == n:
            verts.append(p)
    return Polytope(n, tuple(sorted(verts)), tuple(facet_list))


def _nullspace_int(rows, n):
    """Primitive integer basis of {e : e.row = 0 for all rows} in R^n."""
    out = []
    m = [list(map(Fraction, r)) for r in rows]
    # rref of the row space, then complete
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    for c in free:
        vec = [Fraction(0)] * n
        vec[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][c]
        out.append(primitive(vec))
    return out


def convex_hull(points):
    """Exact convex hull; returns a Polytope or a LowerDimensionalHull."""
    pts = _dedupe_sorted(points)
    if not pts:
        raise ValueError("empty point set")
    n = len(pts[0])
    base = pts[0]
    diffs = [vsub(p, base) for p in pts[1:]]
    rank = matrix_rank(diffs) if diffs else 0
    if rank == n:
        return _full_dim_hull(pts, n)
    # affine basis: greedily independent difference vectors
    basis = []
    for d in diffs:
        if matrix_rank(basis + [d]) > len(basis):
            basis.append(d)
        if len(basis) == rank:
            break
    k = rank
    eq_normals = _nullspace_int(basis, n) if k < n else []
    equalities = tuple((e, Fraction(vdot(e, base))) for e in eq_normals)
    if k == 0:
        return LowerDimensionalHull(n, 0, base, (), None, (base,),
                                    equalities, (), ())
    # coordinate map M = (U^T U)^{-1} U^T, rows of M
    gram = [[vdot(u, v) for v in basis] for u in basis]
    coord_rows = []
    for i in range(k):
        rhs = [Fraction(1) if j == i else Fraction(0) for j in range(k)]
        y = solve_linear(gram, rhs)
        row = tuple(sum(y[j] * basis[j][c] for j in range(k)) for c in range(n))
        coord_rows.append(row)
    lam_points = [tuple(vdot(row, vsub(p, base)) for row in coord_rows) for p in pts]
    sub = _full_dim_hull(_dedupe_sorted(lam_points), k)
    # lift facet inequalities to ambient space
    ineqs = []
    for a, b in sub.facets:
        amb = tuple(sum(Fraction(a[i]) * coord_rows[i][c] for i in range(k))
                    for c in range(n))
        rhs = b + vdot(amb, base)
        ineqs.append((amb, rhs))
    lam_to_amb = {}
    for p, lam in zip(pts, lam_points):
        lam_to_amb.setdefault(lam, p)
    verts = tuple(sorted(lam_to_amb[lam] for lam in sub.vertices))
    return LowerDimensionalHull(n, k, base, tuple(basis), sub, verts,
                                equalities, tuple(ineqs), tuple(coord_rows))


def origin_interior(poly) -> bool:
    """Is the origin in the interior of a full-dimensional polytope?"""
    if isinstance(poly, LowerDimensionalHull):
        return False
    return all(b > 0 for _, b in poly.facets)


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


def _lex_min(points):
    return min(points)


def _pull_triangulation(vertices, apex=None):
    """Pulling triangulation of conv(vertices); simplices as vertex tuples.

    ``vertices`` must be the vertex set of the polytope.  The apex defaults
    to the lexicographically least vertex; sub-faces are pulled from their
    own lex-min vertices, so the result is deterministic.
    """
    vertices = sorted(set(_as_fractions(v) for v in vertices))
    if len(vertices) == 1:
        return [tuple(vertices)]
    hull = convex_hull(vertices)
    if apex is None:
        apex = _lex_min(vertices)
    apex = _as_fractions(apex)
    if isinstance(hull, Polytope):
        dim = hull.ambient_dim
        face_lists = [hull.facet_vertices(i) for i in range(len(hull.facets))]
    else:
        dim = hull.dim
        if dim == 1:
            return [tuple(sorted(hull.vertices))]
        sub = hull.hull
        lam_of = {v: hull.affine_coords(v) for v in hull.vertices}
        amb_of = {lam: v for v, lam in lam_of.items()}
        face_lists = [tuple(amb_of[w] for w in sub.facet_vertices(i))
                      for i in range(len(sub.facets))]
    simplices = []
    for face in face_lists:
        if apex in face:
            continue
        for sub_simplex in _pull_triangulation(face):
            simplices.append(tuple(sorted(sub_simplex + (apex,))))
    return simplices


def triangulate_facet(poly: Polytope, facet_index: int, apex=None):
    """Fan triangulation of a facet from a chosen facet vertex."""
    fverts = poly.facet_vertices(facet_index)
    if apex is None:
        apex = _lex_min(fverts)
    apex = _as_fractions(apex)
    if apex not in fverts:
        raise ValueError("apex must be a vertex of the facet")
    if len(fverts) == poly.ambient_dim:  # already a simplex
        return [tuple(sorted(fverts))]
    return _pull_triangulation(fverts, apex=apex)


def volume(poly: Polytope):
    """Euclidean-lattice-normalized volume (sum of |det|/n!)."""
    n = poly.ambient_dim
    apex = _lex_min(poly.vertices)
    from math import factorial
    total = Fraction(0)
    for i, (a, b) in enumerate(poly.facets):
        if vdot(a, apex) == b:
            continue
        for simplex in triangulate_facet(poly, i):
            mat = [vsub(v, apex) for v in simplex]
            total += abs(det(mat))
    return total / factorial(n)


@dataclass(frozen=True)
class HalfOpenRegion:
    """base + sum_i [0, extent_i) * gen_i with independent generators."""

    base: tuple
    generators: tuple        # rational vectors
    extents: tuple           # positive rationals

    def contains(self, point):
        rel = vsub(point, self.base)
        n = len(rel)
        k = len(self.generators)
        rows = [[self.generators[j][c] for j in range(k)] for c in range(n)]
        lam = solve_linear(rows, list(rel))
        if lam is None:
            return False
        # solve_linear zero-fills free vars; verify the reconstruction
        recon = [sum(lam[j] * self.generators[j][c] for j in range(k))
                 for c in range(n)]
        if any(scalar_sign(r - x) != 0 for r, x in zip(recon, rel)):
            return False
        for l, e in zip(lam, self.extents):
            if scalar_sign(l) < 0 or scalar_sign(l - e) >= 0:
                return False
        return True

    def bounding_box(self):
        n = len(self.base)
        lo, hi = list(self.base), list(self.base)
        for g, e in zip(self.generators, self.extents):
            for c in range(n):
                step = e * g[c]
                if scalar_sign(step) > 0:
                    hi[c] = hi[c] + step
                else:
                    lo[c] = lo[c] + step
        return tuple(lo), tuple(hi)


def region_union_box(regions):
    los, his = zip(*(r.bounding_box() for r in regions))
    n = len(los[0])
    lo = tuple(min(l[c] for l in los) for c in range(n))
    hi = tuple(max(h[c] for h in his) for c in range(n))
    return lo, hi


def integer_box(lo, hi):
    """All integer points in the closed box [lo, hi] (exact scalar bounds)."""
    ranges = [range(exact_ceil(a), exact_floor(b) + 1) for a, b in zip(lo, hi)]
    out = [()]
    for r in ranges:
        out = [p + (x,) for p in out for x in r]
    return out


def lattice_points(poly) -> list:
    """Integer points of a rational polytope (full- or lower-dimensional)."""
    verts = poly.vertices
    n = len(verts[0])
    lo = tuple(min(v[c] for v in verts) for c in range(n))
    hi = tuple(max(v[c] for v in verts) for c in range(n))
    return [p for p in integer_box(lo, hi) if poly.contains(p)]
