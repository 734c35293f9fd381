"""sympy as an independent oracle for T_n, the Bernoulli numbers and the
zig-zag numbers. Skipped when sympy is not installed."""

from fractions import Fraction
from math import factorial

import pytest

sympy = pytest.importorskip("sympy")

from felcheck.universal import bernoulli, t_symbolic, zigzag  # noqa: E402


def _rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def test_t_symbolic_matches_sympy_series_in_three_variables():
    n_max = 8
    t = sympy.Symbol("t")
    xs = sympy.symbols("x1:4")
    product = sympy.Integer(1)
    for x in xs:
        factor = sympy.series((sympy.exp(x * t) - 1) / (x * t), t, 0, n_max + 1).removeO()
        product = sympy.expand(product * factor)
    s = [sum(x**k for x in xs) for k in range(1, n_max + 1)]
    for n in range(n_max + 1):
        expected = factorial(n) * product.coeff(t, n)
        ours = sum(
            _rational(c) * sympy.Mul(*(s[i] ** e for i, e in enumerate(mono)))
            for mono, c in t_symbolic(n).terms.items()
        )
        assert sympy.expand(ours - expected) == 0, n


def test_bernoulli_matches_sympy():
    # sympy switched B_1 from -1/2 to +1/2 in version 1.12; compare its magnitude
    assert bernoulli(1) == Fraction(1, 2)
    assert abs(sympy.bernoulli(1)) == sympy.Rational(1, 2)
    for n in (0, *range(2, 201)):
        assert _rational(bernoulli(n)) == sympy.bernoulli(n), n


def test_zigzag_matches_sec_plus_tan():
    j_max = 30
    x = sympy.Symbol("x")
    series = sympy.series(sympy.sec(x) + sympy.tan(x), x, 0, j_max + 1).removeO()
    for j in range(j_max + 1):
        assert _rational(zigzag(j)) == factorial(j) * series.coeff(x, j), j
