"""Rational growth series, quasi-polynomials, and reciprocity checks.

Polynomials are dense tuples of Fractions in the formal variable t.  A fit
takes leading sequence terms and a candidate denominator: the numerator is
the truncation of denominator * series at deg(denominator), and the
remaining supplied terms act as guard terms verifying the induced linear
recurrence.  Reduction divides out the polynomial gcd and normalizes the
denominator to constant term +1 with integral content handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .cycles import growth_polytope
from .geometry import volume
from .quotient import GraphError, is_strongly_connected


class FitError(ValueError):
    pass


class IntPolynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def one_minus_power(cls, k):
        return cls([1] + [0] * (k - 1) + [-1])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # __getitem__ never raises IndexError, so iteration must be explicit
    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self[i] + other[i] for i in range(n)])

    def __neg__(self):
        return IntPolynomial([-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return IntPolynomial([other * x for x in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        while len(rem) >= len(d):
            f = rem[-1] / d[-1]
            k = len(rem) - len(d)
            q[k] = f
            for i in range(len(d)):
                rem[k + i] -= f * d[i]
            while rem and rem[-1] == 0:
                rem.pop()
        return IntPolynomial(q), IntPolynomial(rem)

    __divmod__ = divmod

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a * (1 / a.coeffs[-1])  # monic

    def reversed(self, degree=None):
        """t^degree * p(1/t); degree defaults to deg p."""
        if degree is None:
            degree = self.degree
        if degree < self.degree:
            raise ValueError("degree too small to reverse")
        return IntPolynomial([self[degree - i] for i in range(degree + 1)])

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def integerized(self):
        """Clear denominators and divide by integer content; sign preserved."""
        if self.is_zero():
            return self
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        return IntPolynomial([x // g for x in ints])

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" if i == 1 else f"{mag}t^{i}"
                parts.append(term if not parts and c > 0 else
                             ("+" if c > 0 else "-") + term)
        out = "".join(parts)
        return out.lstrip("+")


ONE = IntPolynomial([1])
ONE_MINUS_T = IntPolynomial([1, -1])


@dataclass(frozen=True)
class RationalSeries:
    numerator: IntPolynomial
    denominator: IntPolynomial

    def __post_init__(self):
        if self.denominator.is_zero():
            raise ValueError("zero denominator")
        if self.denominator[0] == 0:
            raise ValueError("denominator needs a nonzero constant term")

    def reduced(self) -> "RationalSeries":
        g = self.numerator.gcd(self.denominator)
        if g.is_zero() or g.degree == 0:
            num, den = self.numerator, self.denominator
        else:
            num = self.numerator.divmod(g)[0]
            den = self.denominator.divmod(g)[0]
        # normalize to constant term +1 in the denominator
        scale = 1 / den[0]
        return RationalSeries(num * scale, den * scale)

    def expand(self, count: int):
        """First ``count`` series coefficients."""
        num, den = self.numerator, self.denominator
        d0 = den[0]
        out = []
        for i in range(count):
            acc = num[i]
            for j in range(1, min(i, den.degree) + 1):
                acc -= den[j] * out[i - j]
            out.append(acc / d0)
        return [int(x) if x.denominator == 1 else x for x in out]

    def __str__(self):
        return f"({self.numerator}) / ({self.denominator})"


def fit_rational(terms, denominator: IntPolynomial, guard: int = 8
                 ) -> RationalSeries:
    """Fit sum(terms[i] t^i) = N(t)/denominator with N truncated at
    deg(denominator); the terms beyond that degree must vanish in the
    product (guard terms verify the induced recurrence)."""
    m = len(terms) - 1
    deg = denominator.degree
    if m < deg + guard:
        raise FitError(f"need at least {deg + guard + 1} terms, got {m + 1}")
    return rational_from_terms(terms, denominator, guard=m - deg)


def rational_from_terms(terms, denominator: IntPolynomial, guard: int = 8
                        ) -> RationalSeries:
    """Like fit_rational, but the numerator may have degree above the
    denominator (needed when exceptional leading terms make the series an
    improper rational function).  The last ``guard`` supplied terms must
    produce vanishing product coefficients."""
    if guard < 0:
        raise FitError(f"guard must be nonnegative, got {guard}")
    m = len(terms) - 1
    cutoff = m - guard
    if cutoff < denominator.degree:
        raise FitError(f"need at least {denominator.degree + guard + 1} terms")
    prod = denominator * IntPolynomial(terms)
    for i in range(cutoff + 1, m + 1):
        if prod[i] != 0:
            raise FitError(f"terms do not satisfy the recurrence at index {i}")
    num = IntPolynomial([prod[i] for i in range(cutoff + 1)])
    return RationalSeries(num, denominator)


def cumulative_series(series: RationalSeries) -> RationalSeries:
    """G_b = G_s / (1 - t)."""
    return RationalSeries(series.numerator, series.denominator * ONE_MINUS_T)


def reciprocity_check(series: RationalSeries, n: int, kind: str = "s") -> bool:
    """kind "s": G(1/t) == (-1)^n G(t); kind "b": G(1/t) == (-1)^(n+1) t G(t).

    Verified exactly as an identity of rational functions.
    """
    num, den = series.numerator, series.denominator
    dn, dd = num.degree, den.degree
    # G(1/t) = rev(num) * t^(dd - dn) / rev(den)
    revn, revd = num.reversed(), den.reversed()
    if kind == "s":
        sign, shift = (-1) ** n, 0
    elif kind == "b":
        sign, shift = (-1) ** (n + 1), 1
    else:
        raise ValueError(kind)
    # revn * t^(dd-dn) * den == sign * t^shift * num * revd
    lhs, rhs = revn * den, (sign * num) * revd
    e1, e2 = dd - dn, shift
    if e1 >= e2:
        lhs = lhs * IntPolynomial([0] * (e1 - e2) + [1])
    else:
        rhs = rhs * IntPolynomial([0] * (e2 - e1) + [1])
    return lhs == rhs


@dataclass(frozen=True)
class QuasiPolynomial:
    """f(i) = constituent[i mod period](i), valid for i >= valid_from."""

    period: int
    constituents: tuple   # of IntPolynomial, indexed by residue
    valid_from: int = 0

    @property
    def degree(self):
        return max(p.degree for p in self.constituents)

    def evaluate(self, i):
        return self.constituents[i % self.period].evaluate(i)


def interpolate(points) -> IntPolynomial:
    """The polynomial of least degree through exact (x, y) pairs with
    distinct x: Newton's divided differences c_k = [y_0, ..., y_k], then
    c_0 + (t - x_0)(c_1 + (t - x_1)(c_2 + ...)) expanded once, from the
    inside out."""
    xs = [x for x, _ in points]
    coef = [Fraction(y) for _, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - k])
    poly = []
    for x, c in zip(reversed(xs), reversed(coef)):
        # poly * (t - x) + c
        poly = [c, *poly]
        for j in range(len(poly) - 1):
            poly[j] -= x * poly[j + 1]
    return IntPolynomial(poly)


def fit_quasi_polynomial(value, period, degree, valid_from, stop
                         ) -> QuasiPolynomial:
    """The quasi-polynomial f of the given period with constituents of
    degree <= ``degree`` and f(i) = value(i) for valid_from <= i < stop.

    Each constituent interpolates ``value`` at the first degree + 1
    integers i >= valid_from of its residue class; f is then checked
    against ``value`` at every i in [valid_from, stop), which must reach
    past those points for the check to mean anything.  The check runs in
    ints: each constituent over its coefficients' common denominator den,
    so f(i) == value(i) reads den * value(i) == sum(den * c_k * i^k).
    """
    constituents = [None] * period
    for r in range(period):
        i0 = valid_from + (r - valid_from) % period
        constituents[r] = interpolate([(i, value(i)) for i in
                                       range(i0, i0 + period * (degree + 1),
                                             period)])
    scaled = []
    for p in constituents:
        den = lcm(*(c.denominator for c in p))
        scaled.append((den, [c.numerator * (den // c.denominator)
                             for c in reversed(p.coeffs)]))
    for i in range(valid_from, stop):
        den, coeffs = scaled[i % period]
        acc = 0
        for c in coeffs:
            acc = acc * i + c
        if acc != den * value(i):
            raise FitError(f"values are not quasi-polynomial with period "
                           f"{period} at {i}")
    return QuasiPolynomial(period, tuple(constituents), valid_from)


def to_quasi_polynomial(series: RationalSeries, period: int | None = None,
                        valid_from: int = 0) -> QuasiPolynomial:
    """Quasi-polynomial matching the series coefficients for i >= valid_from.

    Requires the denominator to divide (1 - t^N)^k for the chosen period N;
    constituents of degree < k are interpolated per residue class and
    re-verified on 2*N*k extra terms.
    """
    den = series.reduced().denominator
    candidates = [period] if period else range(1, 4 * max(1, den.degree) + 1)
    found = None
    for N in candidates:
        base = IntPolynomial.one_minus_power(N)
        power = ONE
        for k in range(1, den.degree + 2):
            power = power * base
            if power % den == IntPolynomial(()):
                found = (N, k)
                break
        if found:
            break
    if not found:
        raise FitError("denominator does not divide any (1 - t^N)^k")
    N, k = found
    stop = valid_from + 3 * N * k
    terms = series.expand(stop)
    return fit_quasi_polynomial(terms.__getitem__, N, k - 1, valid_from, stop)


def negative_evaluation(qp: QuasiPolynomial, i: int):
    """f(-i), selecting the constituent by the true residue of -i."""
    return qp.evaluate(-i)


def quasi_period_p_initial(d_map) -> int:
    """LCM of the vertex cycle weights of P-initial data."""
    return lcm(*d_map.values())


def p_initial_denominator(d_map) -> IntPolynomial:
    out = ONE
    for d in d_map.values():
        out = out * IntPolynomial.one_minus_power(d)
    return out


def _int_product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


@cache
def _cyclotomic(k):
    """Int coefficients of the k-th cyclotomic polynomial, lowest first:
    t^k - 1 divided exactly by Phi_d for each proper divisor d of k."""
    rem = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            phi = _cyclotomic(d)
            # phi is monic: divide from the top down, keeping the quotient
            m = len(phi) - 1
            quot = [0] * (len(rem) - m)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = c = rem[i + m]
                for j, a in enumerate(phi):
                    rem[i + j] -= c * a
            rem = quot
    return tuple(rem)


def wa_denominator(result) -> IntPolynomial:
    """LCM over witness simplices of prod_{v in V(Delta)} (1 - t^{d_v}).

    1 - t^d is -1 times the product of the cyclotomic Phi_k over k | d, so
    Phi_k enters the lcm as often as the most d_v of one simplex that k
    divides; the product of those Phi_k is the monic lcm, and its sign is
    fixed so that the constant term is +1."""
    if result.status != "well-arranged":
        raise ValueError("needs a well-arranged witness")
    mult = {}
    for simplex in result.simplices:
        ds = [result.d_map[v] for v in simplex]
        for k in range(1, max(ds) + 1):
            mult[k] = max(mult.get(k, 0), sum(d % k == 0 for d in ds))
    out = [1]
    for k, m in mult.items():
        for _ in range(m):
            out = _int_product(out, _cyclotomic(k))
    return IntPolynomial(out if out[0] > 0 else [-x for x in out])


def topological_density(graph, max_cycles=1_000_000):
    """n * c * Vol_L(P_Gamma): the leading growth constant n*c*vol.  Raises
    GraphError unless the periodic graph is strongly connected."""
    if not is_strongly_connected(graph, max_cycles):
        raise GraphError("topological density needs a strongly connected "
                         "periodic graph")
    return (graph.rank * graph.num_classes
            * volume(growth_polytope(graph, max_cycles)))


def density_cross_check(qp_s: QuasiPolynomial, n: int):
    """Mean over constituents of the degree-(n-1) coefficient of f_s."""
    vals = [p[n - 1] for p in qp_s.constituents]
    return sum(vals) / len(vals)
