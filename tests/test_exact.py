import random
from fractions import Fraction

import pytest

from felcheck.exact import (
    IntPolynomial,
    NonExactDivision,
    NonInvertibleConstantTerm,
    RationalSeries,
    power_sums,
)

F = Fraction


def P(*coeffs):
    return IntPolynomial(coeffs)


class TestIntPolynomial:
    def test_canonical_form(self):
        assert P(1, 0, -1, 0, 0).coeffs == (1, 0, -1)
        assert P(0, 0).coeffs == ()
        assert P().degree == -1
        assert P(5).degree == 0

    def test_rejects_non_integer_coefficients(self):
        for bad in ([0.5], [2.0], [F(1, 2)], [F(4)], [True], [1, False, 3]):
            with pytest.raises(TypeError):
                IntPolynomial(bad)

    def test_mul(self):
        assert P(1, -1) * P(1, 1) == P(1, 0, -1)
        one_minus_z3 = IntPolynomial.one_minus_pow(3)
        one_minus_z5 = IntPolynomial.one_minus_pow(5)
        assert one_minus_z3 * one_minus_z5 == P(1, 0, 0, -1, 0, -1, 0, 0, 1)

    def test_mul_degree(self):
        a, b = P(1, 2, 3), P(-1, 4)
        assert (a * b).degree == a.degree + b.degree
        assert (a * P()).degree == -1

    def test_exact_div_geometric(self):
        q = IntPolynomial.one_minus_pow(6).exact_div(IntPolynomial.one_minus_pow(1))
        assert q == P(1, 1, 1, 1, 1, 1)
        q = IntPolynomial.one_minus_pow(15).exact_div(IntPolynomial.one_minus_pow(3))
        assert q == P(1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(NonExactDivision):
            IntPolynomial.one_minus_pow(2).exact_div(IntPolynomial.one_minus_pow(3))
        with pytest.raises(NonExactDivision):
            P(1, 1, 1).exact_div(P(2))  # 1/2 coefficients are not integral

    def test_div_undoes_mul(self):
        rng = random.Random(7)
        for _ in range(40):
            a = P(*[rng.randint(-4, 4) for _ in range(rng.randint(0, 6))])
            b = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            if not b:
                b = P(1, 2)
            assert (a * b).exact_div(b) == a

    def test_sparse_str(self):
        assert P(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1).sparse_str() == "0:1 10:-1"
        assert str(P()) == "0"


class TestAtExp:
    def test_one_minus_z15(self):
        s = IntPolynomial.one_minus_pow(15).at_exp(2)
        assert s.coeffs == (F(0), F(-15), F(-225, 2))

    def test_constant(self):
        assert P(1).at_exp(3) == RationalSeries([1, 0, 0, 0])

    def test_gap_polynomial_moments(self):
        # z + z^2 + z^4 + z^7: n! times the t^n coefficient is 1 + 2^n + 4^n + 7^n
        s = P(0, 1, 1, 0, 1, 0, 0, 1).at_exp(1)
        assert s.coeffs == (F(4), F(14))

    def test_moment_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            p = P(*[rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
            for n in range(6):
                lhs = p.at_exp(n).coeffs[n] * _factorial(n)
                rhs = sum(c * k**n for k, c in enumerate(p.coeffs))
                assert lhs == rhs

    def test_ring_map(self):
        rng = random.Random(13)
        for _ in range(25):
            a = P(*[rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
            b = P(*[rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
            o = rng.randint(0, 8)
            assert (a * b).at_exp(o) == a.at_exp(o) * b.at_exp(o)


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


class TestRationalSeries:
    def test_min_order_rule(self):
        a = RationalSeries([1, 2, 3, 4])
        b = RationalSeries([5, 6])
        assert (a * b).order == 1
        assert (a / b).order == 1

    def test_division(self):
        num = RationalSeries([1, 0, 0, 0])
        den = RationalSeries([1, 1, F(1, 2), F(1, 6)])  # e^t
        assert num / den == RationalSeries([1, -1, F(1, 2), F(-1, 6)])

    def test_division_requires_unit(self):
        with pytest.raises(NonInvertibleConstantTerm):
            RationalSeries([1, 1]) / RationalSeries([0, 1])

    def test_truncate(self):
        s = RationalSeries([1, 2])
        assert s.truncate(0).coeffs == (F(1),)
        with pytest.raises(ValueError):
            s.truncate(5)


def test_power_sums_across_term_blocks():
    # more terms than one block of power_sums, with a zero exponent and signs
    terms = [(e, (-1) ** e * (e % 7 + 1)) for e in range(0, 3000, 2)]
    p = IntPolynomial.from_terms(terms)
    expected = [sum(c * e**n for e, c in terms) for n in range(6)]
    assert p.power_sums(5) == expected
    assert IntPolynomial().power_sums(2) == [0, 0, 0]


def _naive_power_sums(values, n_max, weights=None):
    if weights is None:
        weights = [1] * len(values)
    return [sum(w * x**n for x, w in zip(values, weights)) for n in range(n_max + 1)]


class TestPowerSums:
    def test_negative_zero_and_repeated_values(self):
        values = [-9, -3, 0, 0, 2, 2, 2, 7, -1]
        assert power_sums(values, 8) == _naive_power_sums(values, 8)
        assert power_sums([0], 3) == [1, 0, 0, 0]  # 0^0 = 1

    def test_unit_weights_are_the_default(self):
        values = (5, -4, 0, 11)
        assert power_sums(values, 6) == power_sums(values, 6, [1] * len(values))
        weights = (3, -2, 7, 0)
        assert power_sums(values, 6, weights) == _naive_power_sums(values, 6, weights)

    def test_empty_and_order_zero(self):
        assert power_sums([], 3) == [0, 0, 0, 0]
        assert power_sums([], 0, []) == [0]
        assert power_sums(range(10), 0) == [10]
        assert power_sums([4, -4], 0, [2, 5]) == [7]

    def test_across_a_block_boundary(self):
        rng = random.Random(17)
        values = [rng.randint(-50, 50) for _ in range(513)]
        weights = [rng.randint(-9, 9) for _ in range(513)]
        assert power_sums(values, 7) == _naive_power_sums(values, 7)
        assert power_sums(values, 7, weights) == _naive_power_sums(values, 7, weights)
        assert power_sums(range(513), 4) == _naive_power_sums(range(513), 4)

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError):
            power_sums([1, 2], -1)
