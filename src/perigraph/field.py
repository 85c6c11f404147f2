"""Exact scalars: rationals and real quadratic extensions Q(sqrt(d)).

All geometric predicates in this package are evaluated over these types;
no floating point enters any decision.  A scalar is either a
:class:`fractions.Fraction` (or int) or a :class:`QuadExt` value
``a + b*sqrt(d)`` with rational ``a``, ``b`` and a fixed positive
non-square ``d``.  Mixed arithmetic with rationals is supported.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Rational = (int, Fraction)


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


class QuadExt:
    """``a + b*sqrt(d)`` with a, b rational and d a positive non-square int."""

    __slots__ = ("a", "b", "d")

    def __init__(self, d: int, a, b=0):
        if d <= 0 or _is_square(d):
            raise ValueError(f"d must be a positive non-square, got {d}")
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    # -- coercion ------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d and other.b != 0 and self.b != 0:
                raise ValueError(f"incompatible radicands {self.d} and {other.d}")
            d = self.d if self.b != 0 or other.b == 0 else other.d
            return QuadExt(d, self.a, self.b), QuadExt(d, other.a, other.b)
        if isinstance(other, Rational):
            return self, QuadExt(self.d, other)
        return NotImplemented, None

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        s, o = self._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        return QuadExt(s.d, s.a + o.a, s.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(self.d, -self.a, -self.b)

    def __sub__(self, other):
        s, o = self._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        return QuadExt(s.d, s.a - o.a, s.b - o.b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        s, o = self._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        return QuadExt(s.d, s.a * o.a + s.b * o.b * s.d, s.a * o.b + s.b * o.a)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic scalar")
        return QuadExt(self.d, self.a / n, -self.b / n)

    def __truediv__(self, other):
        s, o = self._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        return s * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- comparisons ---------------------------------------------------
    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d
        lhs, rhs = a * a, b * b * self.d
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def _cmp(self, other):
        s, o = self._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        return (s - o).sign()

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.d}, {self.a!r}, {self.b!r})"

    def __str__(self):
        return format_scalar(self)


def scalar_sign(x) -> int:
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


def exact_floor(x) -> int:
    """Floor of an exact scalar, computed without floating point decisions;
    an int comes back unchanged."""
    if type(x) is int:
        return x
    if isinstance(x, Rational):
        return x.numerator // x.denominator
    if not isinstance(x, QuadExt):
        raise TypeError(type(x))
    if x.b == 0:
        return math.floor(x.a)
    # x = (A + B*sqrt(d)) / D with integers A, B != 0 and D > 0.  B*sqrt(d) is
    # irrational, so it lies strictly between consecutive integers found by
    # isqrt, and floor(y / D) == floor(floor(y) / D) for integer D > 0.
    den = math.lcm(x.a.denominator, x.b.denominator)
    a = x.a.numerator * (den // x.a.denominator)
    b = x.b.numerator * (den // x.b.denominator)
    r = math.isqrt(b * b * x.d)
    return (a + (r if b > 0 else -r - 1)) // den


def exact_ceil(x) -> int:
    """Ceiling of an exact scalar; an int comes back unchanged."""
    if type(x) is int:
        return x
    if isinstance(x, Rational):
        return -(-x.numerator // x.denominator)
    return -exact_floor(-x)


def _cleared(points):
    """(q, scaled): q the least common denominator of the points'
    coordinates and q * p for each point p, with int coordinates, or QuadExt
    ones with int parts."""
    q = math.lcm(*(math.lcm(x.a.denominator, x.b.denominator)
                   if isinstance(x, QuadExt) else x.denominator
                   for p in points for x in p))
    return q, [tuple(x * q if isinstance(x, QuadExt) else
                     x.numerator * (q // x.denominator) for x in p)
               for p in points]


# -- parsing and formatting -------------------------------------------

_RAT = r"[+-]?\d+(?:/\d+)?"
_QUAD_RE = re.compile(
    rf"^\s*(?P<a>{_RAT})\s*(?:(?P<sign>[+-])\s*(?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*(?P<d>\d+)\s*\))?\s*$"
)
_QUAD_ONLY_RE = re.compile(
    rf"^\s*(?P<b>{_RAT})\s*\*\s*sqrt\(\s*(?P<d>\d+)\s*\)\s*$"
)


def parse_scalar(text: str):
    """Parse ``p/q`` or ``p/q+r/s*sqrt(d)`` (also ``r/s*sqrt(d)``)."""
    m = _QUAD_ONLY_RE.match(text)
    if m:
        return QuadExt(int(m.group("d")), 0, Fraction(m.group("b")))
    m = _QUAD_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse scalar literal {text!r}")
    a = Fraction(m.group("a"))
    if m.group("b") is None:
        return a
    b = Fraction(m.group("b"))
    if m.group("sign") == "-":
        b = -b
    return QuadExt(int(m.group("d")), a, b)


def format_scalar(x) -> str:
    if isinstance(x, Rational):
        return str(Fraction(x))
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        sign = "+" if x.b > 0 else "-"
        b = abs(x.b)
        return f"{x.a}{sign}{b}*sqrt({x.d})"
    raise TypeError(type(x))


# -- exact linear algebra ---------------------------------------------

def eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968; Nakos, Turner & Williams, ACM SIGSAM Bull. 31, 1997) of a matrix
    on its first ``ncols`` columns; later columns are carried along.

    Returns (pivots, m, d, sign).  Each pivot column is the first column
    independent of the pivots before it, so the k = len(pivots) of them are
    the lexicographically first k columns with a nonzero minor, and k is the
    rank.  Row t < k of m is d times row t of the reduced echelon form: d
    at pivots[t], 0 at the other pivots.  Rows from k on are zero in the
    first ``ncols`` columns.  d is plus or minus a nonzero k x k minor (1
    when k = 0), and for a square matrix of full rank sign * d is its
    determinant.  Every division is exact: int input stays int (by ``//``);
    other input has its ints made Fractions and divides by ``/``.
    """
    integral = all(isinstance(x, int) for r in rows for x in r)
    m = [list(r) if integral else
         [Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    pivots, d, sign = [], 1 if integral else Fraction(1), 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        row, p = m[r], m[r][c]
        for i, other in enumerate(m):
            if i != r:
                f = other[c]
                m[i] = ([(p * a - f * b) // d for a, b in zip(other, row)]
                        if integral else
                        [(p * a - f * b) / d for a, b in zip(other, row)])
        pivots.append(c)
        d = p
    return pivots, m, d, sign


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def hermite(rows):
    """Hermite normal form of the lattice spanned by int rows (Cohen, A
    Course in Computational Algebraic Number Theory, 2.4): a basis of the
    same row lattice in echelon form, as many rows as the rank, each row's
    first nonzero entry (its pivot) positive and every entry above a pivot
    in [0, pivot).  For rows of full rank n it is upper triangular, and the
    product of its diagonal is the lattice's index in Z^n.

    Column by column, unimodular 2 x 2 steps from the extended gcd fold
    every lower row into the pivot row, and the pivot row then reduces the
    rows above it.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    k = 0
    for c in range(ncols):
        if k == len(m):
            break
        for i in range(k + 1, len(m)):
            b = m[i][c]
            if b:
                a = m[k][c]
                g, x, y = _xgcd(a, b)
                top, low = m[k], m[i]
                m[k] = [x * s + y * t for s, t in zip(top, low)]
                m[i] = [a // g * t - b // g * s for s, t in zip(top, low)]
        p = m[k][c]
        if not p:
            continue
        if p < 0:
            m[k], p = [-x for x in m[k]], -p
        for i in range(k):
            f = m[i][c] // p
            if f:
                m[i] = [s - f * t for s, t in zip(m[i], m[k])]
        k += 1
    return [tuple(r) for r in m[:k]]


def solve_linear(rows, rhs):
    """Solve A x = b exactly; return a solution list or None if inconsistent.

    Works over any field of scalars supported above.  Free variables are
    set to 0.  ``rows`` is a list of coefficient rows.
    """
    n = len(rows[0]) if rows else 0
    pivots, m, d, _ = eliminate([list(r) + [v] for r, v in zip(rows, rhs)],
                                n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(m, pivots):
        x[c] = Fraction(row[n], d) if type(d) is int else row[n] / d
    return x


def matrix_rank(rows) -> int:
    return len(eliminate(rows, len(rows[0]) if rows else 0)[0])


def det(rows):
    """Exact determinant; int input gives an int, rational or quadratic
    input a Fraction or QuadExt."""
    pivots, _, d, sign = eliminate(rows, len(rows))
    # below full rank, d - d is the zero of the input's scalar type
    return sign * d if len(pivots) == len(rows) else d - d


def _spread(coords, values, n):
    """The vector of R^n with ``values`` at ``coords`` and 0 elsewhere."""
    vec = [0] * n
    for c, x in zip(coords, values):
        vec[c] = x
    return tuple(vec)


def _null_rows(pivots, m, d, n):
    """(c, e) for each free column c < n of a matrix eliminated by
    ``eliminate``: e is d at c and -m[t][c] at pivots[t], so m, and with it
    the matrix, maps e to 0."""
    for c in range(n):
        if c not in pivots:
            yield c, _spread([*pivots, c],
                             [-r[c] for _, r in zip(pivots, m)] + [d], n)


def cross_normal(vectors, n):
    """Vector orthogonal to n-1 vectors in R^n: the generalized cross
    product, (-1)^j times the determinant of the vectors without coordinate
    j, read off their one null row; 0 when the vectors are dependent."""
    pivots, m, d, sign = eliminate(vectors, n)
    if len(pivots) < n - 1:
        return (0,) * n
    (c, row), = _null_rows(pivots, m, d, n)
    return tuple(sign * (-1) ** c * x for x in row)


def _span_frame(vectors, n):
    """Integer frame of the span of k independent rational vectors in R^n:
    (sel, forms, equalities, D).

    With den the common denominator of the vectors and A the k x n int
    matrix of rows den * vectors, one elimination (``eliminate``) of
    [A | I_k] gives sel, the first k coordinates on which A is invertible
    (the pivots), D = |d| = |det A_sel|, and d * A_sel^-1 on the right.  A
    point x = sum_j lam_j vectors_j has lam_j = forms_j . x / D, form j being
    den * sign(d) times column j of the right block, spread to sel.  A point
    lies in the span iff e . x == 0 for each of the n - k equality rows: the
    null rows of A, primitive and positive at their free column.
    """
    k = len(vectors)
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    sel, m, d, _ = eliminate([[x.numerator * (den // x.denominator)
                               for x in v] +
                              [int(i == j) for j in range(k)]
                              for i, v in enumerate(vectors)], n)
    if len(sel) < k:
        raise ValueError("span vectors must be independent")
    s = den if d > 0 else -den
    forms = [_spread(sel, [s * r[n + j] for r in m], n) for j in range(k)]
    equalities = []
    for _, row in _null_rows(sel, m, d, n):
        g = math.gcd(*row) if d > 0 else -math.gcd(*row)
        equalities.append(tuple(x // g for x in row))
    return tuple(sel), forms, equalities, abs(d)
