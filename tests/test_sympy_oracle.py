"""sympy as an independent oracle for T_n, the Bernoulli numbers, the
zig-zag numbers and the Hilbert numerator Q. Skipped when sympy is not
installed."""

from fractions import Fraction
from math import factorial, gcd

import pytest

sympy = pytest.importorskip("sympy")

from felcheck.hilbert import hilbert_numerator  # noqa: E402
from felcheck.semigroup import apery_set, make_semigroup  # noqa: E402
from felcheck.universal import bernoulli, t_symbolic, zigzag  # noqa: E402

from oracles import gaps_by_table  # noqa: E402


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


def _q_by_sympy(gens) -> dict[int, int]:
    """Q = P/(1-z) - P Phi by sympy's division and product, with P = prod
    (1 - z^d) and Phi the gaps of a representability table."""
    z = sympy.Symbol("z")
    P = sympy.Poly(sympy.Mul(*(1 - z**d for d in gens)), z)
    quotient, remainder = sympy.div(P, sympy.Poly(1 - z, z))
    assert remainder.is_zero
    phi = sympy.Poly(sympy.Add(*(z**g for g in gaps_by_table(gens))), z)
    return {e: int(c) for (e,), c in (quotient - P * phi).terms() if c}


def _q_by_apery(gens) -> dict[int, int]:
    S = make_semigroup(gens)
    return dict(hilbert_numerator(S, apery_set(S)).numerator.items())


@pytest.mark.parametrize(
    "gens",
    [(3, 5), (4, 5, 6), (5, 6, 8, 9), (7, 11, 13, 17, 19), (2, 3, 3), (1,), (11, 13, 29)],
)
def test_q_matches_sympy(gens):
    assert _q_by_apery(gens) == _q_by_sympy(gens)


def test_q_matches_sympy_sweep():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=4))
    def check(gens):
        if gcd(*gens) != 1:
            gens.append(gens[0] + 1)
        assert _q_by_apery(gens) == _q_by_sympy(gens)

    check()
