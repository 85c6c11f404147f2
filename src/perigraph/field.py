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
    """Floor of an exact scalar, computed without floating point decisions."""
    if isinstance(x, Rational):
        return math.floor(Fraction(x))
    if not isinstance(x, QuadExt):
        raise TypeError(type(x))
    if x.b == 0:
        return math.floor(x.a)
    # x = (A + B*sqrt(d)) / D with integers A, B != 0 and D > 0.  B*sqrt(d) is
    # irrational, so it lies strictly between consecutive integers found by
    # isqrt, and floor(y / D) == floor(floor(y) / D) for integer D > 0.
    den = math.lcm(x.a.denominator, x.b.denominator)
    a, b = int(x.a * den), int(x.b * den)
    r = math.isqrt(b * b * x.d)
    return (a + (r if b > 0 else -r - 1)) // den


def exact_ceil(x) -> int:
    return -exact_floor(-x if isinstance(x, QuadExt) else -Fraction(x))


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
