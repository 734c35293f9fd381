import random
from fractions import Fraction

import pytest

from felcheck.exact import (
    BadConstantTerm,
    IntPolynomial,
    NonExactDivision,
    NonInvertibleConstantTerm,
    RationalSeries,
    exp_series,
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

    def test_evaluate(self):
        q = P(1) - IntPolynomial.one_minus_pow(15)  # z^15
        assert q(2) == 2**15
        assert P(1, -1)(1) == 0

    def test_sparse_str(self):
        assert P(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1).sparse_str() == "0:1 10:-1"
        assert str(P()) == "0"


class TestAtExp:
    def test_one_minus_z15(self):
        s = IntPolynomial.one_minus_pow(15).at_exp(2)
        assert s.coeffs == (F(0), F(-15), F(-225, 2))

    def test_constant(self):
        assert P(1).at_exp(3) == RationalSeries.constant(1, 3)

    def test_gap_polynomial_moments(self):
        # z + z^2 + z^4 + z^7: n! times the t^n coefficient is 1 + 2^n + 4^n + 7^n
        s = P(0, 1, 1, 0, 1, 0, 0, 1).at_exp(1)
        assert s.coeffs == (F(4), F(14))

    def test_moment_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            p = P(*[rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
            for n in range(6):
                lhs = p.at_exp(n).coeff(n) * _factorial(n)
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
    def test_exp_series_values(self):
        assert exp_series(0, 3).coeffs == (F(1), F(0), F(0), F(0))
        assert exp_series(1, 2).coeffs == (F(1), F(1), F(1, 2))
        assert exp_series(3, 2).coeffs == (F(1), F(3), F(9, 2))

    def test_log_of_exp_truncation(self):
        s = RationalSeries([1, 1, F(1, 2), F(1, 6)])
        assert s.log().coeffs == (F(0), F(1), F(0), F(0))

    def test_exp_log_round_trip(self):
        s = RationalSeries([1, 2, 7])
        assert s.log().exp() == s

    def test_exp_log_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(20):
            order = rng.randint(1, 12)
            coeffs = [F(1)] + [
                F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order)
            ]
            s = RationalSeries(coeffs)
            assert s.log().exp() == s

    def test_shifted_exponential(self):
        # (e^t - 1)/t to order 4
        e = exp_series(1, 5)
        s = RationalSeries(e.coeffs[1:])
        assert s.coeffs == (F(1), F(1, 2), F(1, 6), F(1, 24), F(1, 120))

    def test_min_order_rule(self):
        a = RationalSeries([1, 2, 3, 4])
        b = RationalSeries([5, 6])
        assert (a + b).order == 1
        assert (a * b).order == 1
        assert (a / b).order == 1

    def test_division(self):
        num = RationalSeries([1, 0, 0, 0])
        den = exp_series(1, 3)
        assert num / den == exp_series(-1, 3)

    def test_division_requires_unit(self):
        with pytest.raises(NonInvertibleConstantTerm):
            RationalSeries([1, 1]) / RationalSeries([0, 1])

    def test_log_exp_preconditions(self):
        with pytest.raises(BadConstantTerm):
            RationalSeries([2, 1]).log()
        with pytest.raises(BadConstantTerm):
            RationalSeries([1, 1]).exp()

    def test_shift_and_truncate(self):
        s = RationalSeries([1, 2])
        assert s.shift(2).coeffs == (F(0), F(0), F(1), F(2))
        assert s.shift(2).order == 3
        assert s.truncate(0).coeffs == (F(1),)
        with pytest.raises(ValueError):
            s.truncate(5)

    def test_scalar_ops(self):
        s = RationalSeries([1, 2])
        assert (s * 3).coeffs == (F(3), F(6))
        assert (1 + s.shift(1)).coeffs == (F(1), F(1), F(2))
        assert (s / 2).coeffs == (F(1, 2), F(1))


def test_power_sums_across_term_blocks():
    # more terms than one block of power_sums, with a zero exponent and signs
    terms = [(e, (-1) ** e * (e % 7 + 1)) for e in range(0, 3000, 2)]
    p = IntPolynomial.from_terms(terms)
    expected = [sum(c * e**n for e, c in terms) for n in range(6)]
    assert p.power_sums(5) == expected
    assert IntPolynomial().power_sums(2) == [0, 0, 0]
