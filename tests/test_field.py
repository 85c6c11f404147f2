import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form

from perigraph.field import (QuadExt, det, eliminate, exact_ceil,
                             exact_floor, format_scalar, hermite,
                             matrix_rank, parse_scalar, solve_linear)
from perigraph.geometry import _span_frame

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000)


def test_quadext_basic_arithmetic():
    x = QuadExt(2, Fraction(1, 2), Fraction(1, 3))
    y = QuadExt(2, 1, -1)
    assert (x + y).a == Fraction(3, 2)
    assert (x + y).b == Fraction(-2, 3)
    assert (x * y).a == Fraction(1, 2) - Fraction(2, 3)
    assert x * x.inverse() == 1
    assert (x - x) == 0
    assert Fraction(1, 2) + QuadExt(2, 0, 1) == QuadExt(2, Fraction(1, 2), 1)


def test_quadext_rejects_square_radicand():
    with pytest.raises(ValueError):
        QuadExt(4, 1, 1)
    with pytest.raises(ValueError):
        QuadExt(-2, 1, 1)


def test_quadext_sign_branches():
    assert QuadExt(2, 3, -2).sign() == 1      # 9 > 8
    assert QuadExt(2, -3, 2).sign() == -1
    assert QuadExt(2, 2, -2).sign() == -1     # 4 < 8
    assert QuadExt(2, -2, 2).sign() == 1
    assert QuadExt(2, 0, 0).sign() == 0
    assert QuadExt(3, 5, 3) > QuadExt(3, 5, 2)


@given(st.fractions(min_value=-10**4, max_value=10**4, max_denominator=100),
       st.fractions(min_value=-10**4, max_value=10**4, max_denominator=100),
       st.sampled_from([2, 3, 5, 7]))
def test_quadext_sign_matches_float(a, b, d):
    x = QuadExt(d, a, b)
    approx = float(a) + float(b) * math.sqrt(d)
    if abs(approx) > 1e-6:
        assert x.sign() == (1 if approx > 0 else -1)


@given(st.fractions(min_value=-10**4, max_value=10**4, max_denominator=50),
       st.fractions(min_value=-100, max_value=100, max_denominator=50),
       st.sampled_from([2, 3, 5]))
def test_exact_floor_quadratic(a, b, d):
    x = QuadExt(d, a, b)
    f = exact_floor(x)
    assert f <= x < f + 1
    assert exact_ceil(x) == -exact_floor(QuadExt(d, -a, -b))


def test_exact_floor_large_values():
    assert exact_floor(QuadExt(2, 10**30, 1)) == 10**30 + 1
    assert exact_floor(QuadExt(2, 10**30, -1)) == 10**30 - 2
    assert exact_ceil(QuadExt(2, 10**30, 1)) == 10**30 + 2
    x = QuadExt(3, Fraction(10**40, 7), Fraction(-10**25, 3))
    f = exact_floor(x)
    assert f <= x < f + 1


def test_exact_floor_rational():
    assert exact_floor(Fraction(7, 2)) == 3
    assert exact_floor(Fraction(-7, 2)) == -4
    assert exact_ceil(Fraction(-7, 2)) == -3


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=97),
       st.fractions(min_value=-1000, max_value=1000, max_denominator=97),
       st.sampled_from([2, 3, 5, 6, 7]))
def test_parse_format_roundtrip(a, b, d):
    x = QuadExt(d, a, b) if b != 0 else a
    assert parse_scalar(format_scalar(x)) == x


def test_parse_scalar_forms():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == -2
    assert parse_scalar("1/2+1/3*sqrt(3)") == QuadExt(3, Fraction(1, 2),
                                                      Fraction(1, 3))
    assert parse_scalar("1/2-1/3*sqrt(3)") == QuadExt(3, Fraction(1, 2),
                                                      Fraction(-1, 3))
    assert parse_scalar("-1/2*sqrt(2)") == QuadExt(2, 0, Fraction(-1, 2))
    with pytest.raises(ValueError):
        parse_scalar("sqrt(banana)")


def test_solve_linear_and_rank():
    sol = solve_linear([[Fraction(2), 1], [1, Fraction(3)]], [5, 10])
    assert sol == [Fraction(1), Fraction(3)]
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None  # inconsistent
    assert matrix_rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert matrix_rank([[0, 0]]) == 0


def test_det():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det([[1, 1], [1, 1]]) == 0
    # antisymmetry under row swap
    assert det([[3, 4], [1, 2]]) == 2


def test_solve_linear_quadratic_field():
    s2 = QuadExt(2, 0, 1)
    sol = solve_linear([[s2, 0], [0, 1]], [QuadExt(2, 2, 0), Fraction(1)])
    assert sol[0] == s2  # sqrt(2) * sqrt(2) = 2
    assert sol[1] == 1


def _exact_type(x):
    return type(x) in (int, Fraction)


def test_int_input_stays_exact():
    d = det([[3, 1], [1, 2]])
    assert d == 5 and type(d) is int
    sol = solve_linear([[3, 1], [1, 2]], [1, 1])
    assert sol == [Fraction(1, 5), Fraction(2, 5)]
    assert all(_exact_type(x) for x in sol)
    # row 3 is (row 1 + row 2) / 2; float elimination called it rank 3
    assert matrix_rank([[10, 20, 7], [4, -8, -1], [7, 6, 3]]) == 2
    assert det([[10, 20, 7], [4, -8, -1], [7, 6, 3]]) == 0
    assert type(det([[0, 1], [1, 0]])) is int
    assert det([[Fraction(1, 2), 1], [1, 2]]) == 0
    assert det([[QuadExt(2, 0, 1), 1], [1, QuadExt(2, 0, 1)]]) == 1


@st.composite
def int_matrices(draw):
    """Square int matrices of size 2-4, half of them of deficient rank
    (a product of n x r and r x n factors with r < n)."""
    n = draw(st.integers(2, 4))
    entry = st.integers(-9, 9)
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    r = draw(st.integers(0, n - 1))
    b = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                      min_size=n, max_size=n))
    c = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=r, max_size=r))
    return [[sum(b[i][t] * c[t][j] for t in range(r)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_det_and_rank_match_sympy_on_int_matrices(m):
    d = det(m)
    assert type(d) is int
    assert d == sympy.Matrix(m).det()
    assert matrix_rank(m) == sympy.Matrix(m).rank()
    assert matrix_rank(m[:-1]) == sympy.Matrix(m[:-1]).rank()
    sol = solve_linear(m, [1] * len(m))
    assert sol is None or all(_exact_type(x) for x in sol)


# -- the one elimination against sympy ---------------------------------


@st.composite
def rect_int_matrices(draw):
    """Int matrices of 0-5 rows and 1-5 columns, half of them of deficient
    rank (a product of rows x r and r x cols factors, r < min(rows, cols))."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    entry = st.integers(-9, 9)
    if rows == 0 or draw(st.booleans()):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows)), cols
    r = draw(st.integers(0, min(rows, cols) - 1))
    b = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                      min_size=rows, max_size=rows))
    c = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=r, max_size=r))
    return [[sum(b[i][t] * c[t][j] for t in range(r)) for j in range(cols)]
            for i in range(rows)], cols


@settings(max_examples=200, deadline=None)
@given(rect_int_matrices())
def test_eliminate_matches_sympy(case):
    v, n = case
    ref = sympy.Matrix(len(v), n, [x for r in v for x in r])
    pivots, m, d, sign = eliminate(v, n)
    assert tuple(pivots) == ref.rref()[1]
    assert matrix_rank(v) == len(pivots) == ref.rank()
    # row t is d at pivot t and 0 at the other pivots; rows past the rank
    # are zero
    for t, row in enumerate(m):
        if t < len(pivots):
            assert [row[c] for c in pivots] == [d * (c == pivots[t])
                                                for c in pivots]
        else:
            assert row == [0] * n
    if len(v) == n:
        assert det(v) == ref.det() and type(det(v)) is int
    if len(v) == n == ref.rank():
        # on [V | I] the right block is d V^-1, sign times the adjugate
        _, m, _, sign = eliminate([r + [int(i == j) for j in range(n)]
                                   for i, r in enumerate(v)], n)
        assert [[sign * x for x in r[n:]] for r in m] == \
            ref.adjugate().tolist()


@settings(max_examples=200, deadline=None)
@given(rect_int_matrices())
def test_span_frame_equalities_are_primitive_null_rows(case):
    v, n = case
    independent = [v[i] for i in eliminate([list(c) for c in zip(*v)],
                                           len(v))[0]]
    sel, _, equalities, _ = _span_frame(independent, n)
    assert sel == sympy.Matrix(len(v), n, [x for r in v for x in r]
                               ).rref()[1]
    assert len(equalities) == n - len(sel)
    free = [c for c in range(n) if c not in sel]
    for c, e in zip(free, equalities):
        assert all(sum(a * x for a, x in zip(r, e)) == 0 for r in v)
        assert math.gcd(*e) == 1 and e[c] > 0
        assert all(x == 0 for j, x in enumerate(e) if j not in sel + (c,))


def test_eliminate_keeps_exact_types():
    half = Fraction(1, 2)
    root = QuadExt(2, 0, 1)
    for rows in ([[1, half, 3], [2, 1, 7]], [[1, 2], [3, root]],
                 [[root, 0, 1], [0, 1, root], [1, 1, 1]]):
        _, m, d, _ = eliminate(rows, len(rows[0]))
        assert all(type(x) in (Fraction, QuadExt) for r in m for x in r)
        assert type(d) in (Fraction, QuadExt)
        sol = solve_linear(rows, [1] * len(rows))
        assert sol is not None
        assert all(type(x) in (Fraction, QuadExt) for x in sol)
    assert det([[1, 2], [3, root]]) == root - 6
    assert det([]) == 1 and type(det([])) is int


# -- the Hermite form against sympy ------------------------------------

def _in_lattice(v, basis):
    """Is v an integer combination of the independent rows of basis?"""
    if not basis:
        return not any(v)
    sol = solve_linear([list(c) for c in zip(*basis)], list(v))
    return sol is not None and all(x.denominator == 1 for x in sol)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_hermite_matches_sympy(m, n, data):
    rows = [tuple(data.draw(st.lists(st.integers(-6, 6), min_size=n,
                                     max_size=n))) for _ in range(m)]
    if data.draw(st.booleans()):  # a dependent row
        rows.append(tuple(2 * a - 3 * b for a, b in zip(rows[0], rows[-1])))
    h = hermite(rows)
    # sympy's form spans the columns; on the transpose its nonzero columns
    # are a basis of the row lattice
    ref = hermite_normal_form(sympy.Matrix(rows).T)
    ref_rows = [tuple(int(x) for x in ref.col(j)) for j in range(ref.cols)]
    assert len(h) == matrix_rank(rows) == len(ref_rows)
    assert all(_in_lattice(r, ref_rows) for r in h)
    assert all(_in_lattice(r, h) for r in ref_rows + rows)
    pivots = [next(c for c, x in enumerate(r) if x) for r in h]
    assert pivots == sorted(set(pivots))
    for t, (c, r) in enumerate(zip(pivots, h)):
        assert r[c] > 0
        assert all(0 <= h[i][c] < r[c] for i in range(t))
    if len(h) == n:
        assert math.prod(r[i] for i, r in enumerate(h)) == abs(
            sympy.Matrix(h).det())
    assert hermite(h) == h
