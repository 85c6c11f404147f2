from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perigraph.invariants import WellArrangedResult, well_arranged
from perigraph.quotient import GraphError, Vertex, cumulative, growth_sequence
from perigraph.series import (FitError, IntPolynomial, QuasiPolynomial,
                              RationalSeries, cumulative_series,
                              density_cross_check, fit_quasi_polynomial,
                              fit_rational, interpolate,
                              negative_evaluation, p_initial_denominator,
                              quasi_period_p_initial, rational_from_terms,
                              reciprocity_check, to_quasi_polynomial,
                              topological_density, wa_denominator)

P = IntPolynomial
one = IntPolynomial.one_minus_power

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(P)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=100, deadline=None)
def test_poly_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == P(())


@given(small_polys, small_polys)
@settings(max_examples=100, deadline=None)
def test_poly_divmod_identity(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_poly_gcd_divides(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = a.gcd(b)
    assert (a % g).is_zero() and (b % g).is_zero()


def test_poly_iteration_is_finite():
    p = P((1, 2, 3))
    assert list(p) == [1, 2, 3]
    assert len(p) == 3
    assert p[10] == 0  # getitem extends with zeros; iter does not


def test_fit_geometric():
    fit = fit_rational([1] * 12, one(1))
    assert fit.numerator == P((1,))
    assert fit.expand(12) == [1] * 12


def test_fit_rejects_wrong_denominator():
    # 1/(1-t-t^2) terms are not a polynomial over (1-t)
    terms = [1, 1]
    for _ in range(14):
        terms.append(terms[-1] + terms[-2])
    with pytest.raises(FitError):
        fit_rational(terms, one(1), guard=8)


def test_rational_from_terms_rejects_negative_guard():
    # a cutoff past the last term would check nothing
    with pytest.raises(FitError):
        rational_from_terms([1] * 12, one(1), guard=-5)


def test_rational_from_terms_improper():
    # t^3 + 1/(1-t) has numerator degree above the denominator
    terms = [1, 1, 1, 2] + [1] * 16
    fit = rational_from_terms(terms, one(1))
    assert fit.expand(20) == terms
    assert fit.numerator.degree == 4


def test_reduced_constant_term_one():
    s = RationalSeries(P((2, 2)), P((2, -2))).reduced()
    assert s.denominator[0] == 1
    assert s.expand(4) == [1, 2, 2, 2]


def test_cumulative_series(z2):
    x0 = Vertex(0, (0, 0))
    s = growth_sequence(z2, x0, 12)
    fit = fit_rational(s, one(1) * one(1))
    b = cumulative_series(fit)
    assert b.expand(12) == cumulative(s)


def test_wakatsuki_v0_fit(wakatsuki):
    s = growth_sequence(wakatsuki, Vertex(0, (0, 0)), 40)
    fit = fit_rational(s, one(4) * one(7)).reduced()
    assert fit.numerator.integerized() == P((1, 3, 3, 2))
    assert fit.denominator.integerized() == P((1, -1, -1, 1))
    assert fit.expand(40) == s
    qp = to_quasi_polynomial(fit, valid_from=1)
    assert qp.period == 2
    assert qp.constituents[0] == P((-1, F(9, 2)))
    assert qp.constituents[1] == P((F(-1, 2), F(9, 2)))
    assert topological_density(wakatsuki) == F(9, 2)
    assert density_cross_check(qp, 2) == F(9, 2)


def test_density_needs_strong_connectivity(one_way):
    # growth from a is 4i, the density of a alone, and b only reaches a: the
    # net has no density, although its polytope times n*c reads 8
    assert growth_sequence(one_way, one_way.vertex("a"), 4) == [1, 4, 8, 12]
    with pytest.raises(GraphError, match="strongly connected"):
        topological_density(one_way)


def test_wakatsuki_v2_improper(wakatsuki):
    s = growth_sequence(wakatsuki, Vertex(2, (0, 0)), 30)
    with pytest.raises(FitError):
        fit_rational(s, one(2) * one(2) * one(2), guard=8)
    fit = rational_from_terms(s, one(2) * one(2) * one(2)).reduced()
    assert fit.numerator.integerized() == P((1, 2, 2, 8, 5, 2, -2))
    assert fit.denominator.integerized() == P((1, 0, -2, 0, 1))
    assert fit.expand(30) == s
    assert not reciprocity_check(fit, 2, "s")


def test_dia_pipeline(dia):
    x0 = Vertex(0, (0, 0, 0))
    s = growth_sequence(dia, x0, 25)
    wa = well_arranged(dia, x0)
    den = wa_denominator(wa)
    assert den.integerized() == P((1, 0, -3, 0, 3, 0, -1))
    fit = fit_rational(s, den.integerized()).reduced()
    assert fit.numerator.integerized() == P((1, 2, 4, 2, 1))
    assert fit.denominator.integerized() == P((1, -2, 0, 2, -1))
    assert reciprocity_check(fit, 3, "s")
    assert reciprocity_check(cumulative_series(fit), 3, "b")
    qp = to_quasi_polynomial(fit, valid_from=1)
    assert qp.constituents == (P((2, 0, F(5, 2))), P((F(3, 2), 0, F(5, 2))))
    assert topological_density(dia) == F(5, 2)
    assert density_cross_check(qp, 3) == F(5, 2)


def test_dia_negative_evaluation(dia):
    fit = RationalSeries(P((1, 2, 4, 2, 1)), P((1, -2, 0, 2, -1)))
    qb = to_quasi_polynomial(cumulative_series(fit), valid_from=0)
    for i in range(1, 8):
        assert negative_evaluation(qb, i) == -qb.evaluate(i - 1)


def test_qp_rejects_exceptional_start(wakatsuki):
    s = growth_sequence(wakatsuki, Vertex(0, (0, 0)), 40)
    fit = fit_rational(s, one(4) * one(7)).reduced()
    with pytest.raises(FitError):
        to_quasi_polynomial(fit, valid_from=0)  # s_0 breaks the pattern


def test_qp_negative_index_residue():
    qp = QuasiPolynomial(2, (P((0,)), P((1,))), 0)
    # -1 has residue 1 under floor division
    assert qp.evaluate(-1) == 1
    assert qp.evaluate(-2) == 0


def test_interpolate():
    p = interpolate([(0, F(1)), (1, F(2)), (2, F(5))])
    assert p == P((1, 0, 1))


def _lagrange(points):
    """Lagrange interpolation through exact (x, y) pairs: the reference for
    the Newton form of ``interpolate``."""
    result = IntPolynomial(())
    for i, (xi, yi) in enumerate(points):
        basis = IntPolynomial([1])
        denom = F(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = basis * IntPolynomial([-xj, 1])
            denom *= xi - xj
        result = result + basis * (F(yi) / denom)
    return result


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), max_size=7,
                unique_by=lambda p: p[0]))
def test_newton_interpolation_matches_lagrange(points):
    assert interpolate(points) == _lagrange(points)


def _first_mismatch(value, period, degree, valid_from, stop):
    """The first index at which the fitted quasi-polynomial, evaluated
    constituent by constituent in Fractions, misses ``value``: the check
    fit_quasi_polynomial made before it compared in ints."""
    qp = QuasiPolynomial(period, tuple(
        interpolate([(i, value(i)) for i in range(
            valid_from + (r - valid_from) % period,
            valid_from + (r - valid_from) % period + period * (degree + 1),
            period)]) for r in range(period)), valid_from)
    return next((i for i in range(valid_from, stop)
                 if qp.evaluate(i) != value(i)), None)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(-3, 3), st.data())
def test_fit_fails_at_the_first_mismatch(period, degree, valid_from, data):
    stop = valid_from + period * (degree + 3)
    coeffs = [[data.draw(rationals) for _ in range(degree + 1)]
              for _ in range(period)]
    values = {i: P(coeffs[i % period]).evaluate(i)
              for i in range(valid_from, stop)}
    bad = data.draw(st.integers(valid_from, stop - 1))
    values[bad] += data.draw(st.sampled_from([1, -1, F(1, 2)]))
    # every class has two points past its interpolation nodes, so some
    # index misses
    expected = _first_mismatch(values.__getitem__, period, degree,
                               valid_from, stop)
    with pytest.raises(FitError, match=f"at {expected}$"):
        fit_quasi_polynomial(values.__getitem__, period, degree, valid_from,
                             stop)


def test_quasi_period_helpers():
    assert quasi_period_p_initial({1: 2, 2: 4, 3: 2}) == 4
    assert p_initial_denominator({1: 2, 2: 4}).integerized() == \
        P((1, 0, -1, 0, -1, 0, 1))


def test_reciprocity_battery_samples():
    # closed forms with known reciprocity behaviour
    assert reciprocity_check(RationalSeries(P((1, 2, 1)), P((1, -2, 1))),
                             2, "s")
    assert not reciprocity_check(
        RationalSeries(P((1, 1, 4, 0, 2, 1, -1)), P((1, -2, 2, -2, 1))),
        2, "s")


# -- sympy as the reference for reduction and reciprocity ------------------

T = sympy.Symbol("t")


def _expr(poly):
    return sum(sympy.Rational(c.numerator, c.denominator) * T ** i
               for i, c in enumerate(poly.coeffs))


def _coeffs(expr):
    """Ascending Fraction coefficients of a sympy polynomial in t."""
    c = sympy.Poly(expr, T).all_coeffs()[::-1]
    return [F(int(x.p), int(x.q)) for x in c]


def _product(powers):
    out = P((1,))
    for a in powers:
        out = out * one(a)
    return out


@st.composite
def reciprocal_fits(draw):
    """Fits h(t) * e(t) / (prod(1 - t^a) * e(t)) of the expanded series of
    h / prod(1 - t^a), with e a product of further (1 - t^j) factors the
    reduction must cancel.  h is palindromic, antipalindromic or arbitrary,
    of degree sum(a) or sum(a) - 1: the first two are reciprocal with shift
    0 or 1."""
    powers = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    extra = draw(st.lists(st.integers(1, 3), max_size=2))
    deg = sum(powers) - draw(st.integers(0, 1))
    half = draw(st.lists(st.integers(-4, 4), min_size=deg + 1,
                         max_size=deg + 1))
    shape = draw(st.sampled_from(["palindromic", "antipalindromic", "any"]))
    if shape == "palindromic":
        half = [half[min(i, deg - i)] for i in range(deg + 1)]
    elif shape == "antipalindromic":
        half = [half[i] if i < deg - i else -half[deg - i] if i > deg - i
                else 0 for i in range(deg + 1)]
    assume(any(half))
    den = _product(powers + extra)
    terms = RationalSeries(P(half) * _product(extra), den).expand(
        den.degree + 9)
    return fit_rational(terms, den)


@settings(max_examples=80, deadline=None)
@given(reciprocal_fits(), st.integers(1, 4), st.sampled_from(["s", "b"]))
def test_reduction_and_reciprocity_match_sympy(fit, n, kind):
    num, den = sympy.fraction(sympy.cancel(_expr(fit.numerator)
                                           / _expr(fit.denominator)))
    # sympy's lowest terms, scaled to the constant term +1 of reduced()
    c0 = sympy.Poly(den, T).eval(0)
    red = fit.reduced()
    assert red.denominator.coeffs == tuple(_coeffs(den / c0))
    assert red.numerator.coeffs == tuple(_coeffs(num / c0))
    g = _expr(fit.numerator) / _expr(fit.denominator)
    sign, shift = ((-1) ** n, 0) if kind == "s" else ((-1) ** (n + 1), 1)
    holds = sympy.cancel(g.subs(T, 1 / T) - sign * T ** shift * g) == 0
    assert reciprocity_check(fit, n, kind) == holds
    assert reciprocity_check(red, n, kind) == holds


# -- the cyclotomic witness denominator, against the Euclid lcm fold -------

def _lcm(p, q):
    """Monic lcm of two polynomials by Euclid's gcd over the rationals."""
    return (p * q).divmod(p.gcd(q))[0]


def _lcm_fold_denominator(result):
    out = P([1])
    for simplex in result.simplices:
        prod = P([1])
        for v in simplex:
            prod = prod * one(result.d_map[v])
        out = _lcm(out, prod)
    return out * (1 / out[0])


@st.composite
def witnesses(draw):
    """Well-arranged witnesses over up to eight vertices with d_v <= 12 and
    one to four simplices of one to four vertices each."""
    d_map = dict(enumerate(draw(st.lists(st.integers(1, 12), min_size=1,
                                         max_size=8))))
    simplex = st.lists(st.sampled_from(sorted(d_map)), min_size=1,
                       max_size=4, unique=True).map(tuple)
    simplices = tuple(draw(st.lists(simplex, min_size=1, max_size=4)))
    return WellArrangedResult("well-arranged", "witness found", d_map, {},
                              simplices, 1)


@given(witnesses())
@settings(max_examples=150, deadline=None)
def test_wa_denominator_matches_lcm_fold(result):
    den = wa_denominator(result)
    assert den == _lcm_fold_denominator(result)
    assert den[0] == 1
    assert all(type(x) is F and x.denominator == 1 for x in den)


def test_wa_denominator_needs_a_witness():
    with pytest.raises(ValueError, match="needs a well-arranged witness"):
        wa_denominator(WellArrangedResult("unknown", "search exhausted"))
