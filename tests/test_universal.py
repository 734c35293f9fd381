import random
from fractions import Fraction
from math import comb, factorial

import pytest

from felcheck.exact import RationalSeries
from felcheck.universal import (
    SYMBOLIC_N_MAX,
    SigmaPolynomial,
    SymbolicOrderTooLarge,
    ZeroVariable,
    bernoulli,
    delta_egf,
    lambda_table,
    sigma_egf,
    subset_power_sum,
    t_delta,
    t_symbolic,
    t_value,
    umbral_power,
    zigzag,
)

from oracles import bernoulli_minus, umbral_power_multinomial

F = Fraction


def _sigma_of(x, K):
    return [sum(F(c) ** k for c in x) for k in range(1, K + 1)]


def _random_vector(rng, m_max=5):
    xs = []
    for _ in range(rng.randint(1, m_max)):
        num = rng.randint(-9, 9) or 1
        xs.append(F(num, rng.randint(1, 9)))
    return tuple(xs)


class TestLambdaTable:
    def test_first_values(self):
        lam = lambda_table(4)
        assert lam[1] == F(1, 2)
        assert lam[2] == F(1, 24)
        assert lam[3] == 0
        assert lam[4] == F(-1, 2880)

    def test_odd_entries_vanish(self):
        lam = lambda_table(11)
        for k in range(3, 12, 2):
            assert lam[k] == 0

    def test_matches_bernoulli(self):
        lam = lambda_table(8)
        for k in range(1, 9):
            assert lam[k] == bernoulli(k) / (k * factorial(k))


class TestGeneratingSeries:
    def test_empty_product(self):
        assert sigma_egf((), 3) == RationalSeries.constant(1, 3)

    def test_single_unit_variable(self):
        assert sigma_egf((1,), 2).coeffs == (F(1), F(1, 2), F(1, 6))

    def test_first_coefficient_is_half_sigma1(self):
        assert sigma_egf((3, 5), 1).coeff(1) == 4

    def test_zero_variable_rejected(self):
        with pytest.raises(ZeroVariable):
            sigma_egf((3, 0), 2)

    def test_delta_series_single_unit(self):
        # the two factors cancel exactly
        assert delta_egf((1,), 4) == RationalSeries.constant(1, 4)

    def test_delta_series_empty(self):
        assert delta_egf((), 2).coeffs == (F(1), F(-1, 2), F(1, 12))

    def test_variable_append_identity(self):
        rng = random.Random(41)
        for _ in range(15):
            x = _random_vector(rng, m_max=4)
            order = rng.randint(0, 8)
            lhs = sigma_egf(x + (1,), order)
            rhs = sigma_egf(x, order) * sigma_egf((1,), order)
            assert lhs == rhs


class TestTValues:
    def test_t0_is_one(self):
        assert t_value((), 0) == 1
        assert t_value((3, 5), 0) == 1
        assert t_value((), 3) == 0

    def test_worked_values(self):
        assert t_value((3, 5), 2) == F(113, 6)
        assert t_value((2, 3), 1) == F(5, 2)

    def test_symmetry(self):
        rng = random.Random(43)
        for _ in range(20):
            x = list(_random_vector(rng))
            n = rng.randint(0, 8)
            v = t_value(x, n)
            rng.shuffle(x)
            assert t_value(x, n) == v

    def test_homogeneity(self):
        rng = random.Random(47)
        for _ in range(20):
            x = _random_vector(rng)
            n = rng.randint(0, 6)
            c = F(rng.randint(-5, 5) or 2, rng.randint(1, 5))
            scaled = tuple(c * v for v in x)
            assert t_value(scaled, n) == c**n * t_value(x, n)

    def test_delta_values(self):
        assert t_delta((1,), 3) == 0
        assert t_delta((2, 3), 1) == 1
        assert t_delta((3, 5), 1) == F(7, 4)

    def test_delta_shift_identity(self):
        # 2^n T_n(delta) equals T_n at the power sums shifted down by one
        rng = random.Random(53)
        for _ in range(10):
            x = _random_vector(rng, m_max=4)
            n = rng.randint(0, 7)
            sigma = _sigma_of(x, max(n, 1))
            shifted = [s - 1 for s in sigma]
            assert 2**n * t_delta(x, n) == t_symbolic(n).evaluate(shifted)

    def test_delta_matches_symbolic(self):
        rng = random.Random(59)
        for _ in range(10):
            x = _random_vector(rng, m_max=4)
            n = rng.randint(0, 7)
            sigma = _sigma_of(x, max(n, 1))
            delta = [F(s - 1, 2**k) for k, s in enumerate(sigma, start=1)]
            assert t_delta(x, n) == t_symbolic(n).evaluate(delta)


class TestSymbolic:
    def test_t0_t2_t4(self):
        assert t_symbolic(0) == SigmaPolynomial.one()
        assert t_symbolic(2) == SigmaPolynomial({(2,): F(1, 4), (0, 1): F(1, 12)})
        assert t_symbolic(4) == SigmaPolynomial(
            {
                (4,): F(15, 240),
                (2, 1): F(30, 240),
                (0, 2): F(5, 240),
                (0, 0, 0, 1): F(-2, 240),
            }
        )

    def test_matches_numeric(self):
        rng = random.Random(61)
        for _ in range(15):
            x = _random_vector(rng, m_max=4)
            n = rng.randint(0, 8)
            sigma = _sigma_of(x, max(n, 1))
            assert t_symbolic(n).evaluate(sigma) == t_value(x, n)

    def test_weight_homogeneity(self):
        for n in range(1, 9):
            assert t_symbolic(n).weights() == {n}

    def test_pretty(self):
        assert t_symbolic(0).pretty() == "1"
        assert t_symbolic(1).pretty() == "s1/2"
        assert t_symbolic(2).pretty() == "(3*s1^2 + s2)/12"
        assert (
            t_symbolic(4).pretty() == "(15*s1^4 + 30*s1^2*s2 + 5*s2^2 - 2*s4)/240"
        )

    def test_limit(self):
        with pytest.raises(SymbolicOrderTooLarge):
            t_symbolic(SYMBOLIC_N_MAX + 1)


class TestSubsetPowerSum:
    def test_single_variable(self):
        assert subset_power_sum((F(7),), 4) == F(7) ** 4

    def test_two_variables(self):
        x1, x2 = F(3), F(5, 2)
        assert subset_power_sum((x1, x2), 2) == -2 * x1 * x2

    def test_recovers_t0(self):
        x1, x2 = F(2), F(7, 3)
        p2 = subset_power_sum((x1, x2), 2)
        assert p2 / (x1 * x2 * F((-1) ** 3 * factorial(2), factorial(0))) == 1

    def test_oracle_equivalence(self):
        rng = random.Random(67)
        for _ in range(25):
            x = _random_vector(rng, m_max=4)
            m = len(x)
            n = rng.randint(m, m + 6)
            prod = F(1)
            for c in x:
                prod *= c
            denom = prod * F((-1) ** (m + 1) * factorial(n), factorial(n - m))
            assert t_value(x, n - m) == subset_power_sum(x, n) / denom


class TestNumberSequences:
    def test_bernoulli_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)
        for n in range(3, 13, 2):
            assert bernoulli(n) == 0

    def test_bernoulli_against_recurrence(self):
        for n in range(14):
            expected = bernoulli_minus(n)
            if n == 1:
                expected = -expected
            assert bernoulli(n) == expected

    def test_zigzag_values(self):
        assert [zigzag(j) for j in range(8)] == [1, 1, 1, 2, 5, 16, 61, 272]


class TestUmbralPowers:
    def test_power_zero(self):
        assert umbral_power((4, 9), 0) == 1

    def test_series_constant_term(self):
        from felcheck.universal import umbral_series

        assert umbral_series((3, 5), 4).coeff(0) == 1

    def test_single_unit(self):
        assert umbral_power((1,), 1) == F(1, 2)

    def test_quadratic_sign_flip(self):
        rng = random.Random(71)
        for _ in range(10):
            d = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
            s1 = sum(d)
            s2 = sum(v**2 for v in d)
            assert umbral_power(d, 2) == F(3 * s1**2 - s2, 12)

    def test_matches_multinomial_oracle(self):
        rng = random.Random(73)
        for _ in range(10):
            d = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            r = rng.randint(0, 5)
            assert umbral_power(d, r) == umbral_power_multinomial(d, r)

    def test_plus_convention_differs(self):
        # the +1/2 convention shifts the first power by the generator sum
        d = (2, 7)
        minus = umbral_power_multinomial(d, 1, b1_plus=False)
        plus = umbral_power_multinomial(d, 1, b1_plus=True)
        assert plus - minus == sum(d)
        assert umbral_power(d, 1) == minus


class TestCompanionIdentities:
    def test_signflip_narrow_reading_breaks_at_five(self):
        # at d = (1, 1): the umbral value is -1/6; flipping every even-index
        # power sum reproduces it, flipping only s2 and s5 does not
        d = (1, 1)
        sigma = _sigma_of(d, 5)
        poly = t_symbolic(5)
        even_flip = [(-v if k % 2 == 0 else v) for k, v in enumerate(sigma, start=1)]
        narrow = [(-v if k in (2, 5) else v) for k, v in enumerate(sigma, start=1)]
        assert umbral_power(d, 5) == F(-1, 6)
        assert poly.evaluate(even_flip) == F(-1, 6)
        assert poly.evaluate(narrow) == F(-1, 3)

    def test_signflip_even_reading_holds(self):
        rng = random.Random(79)
        for n in range(2, 8):
            poly = t_symbolic(n)
            for _ in range(6):
                d = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
                sigma = _sigma_of(d, n)
                flipped = [
                    (-v if k % 2 == 0 else v) for k, v in enumerate(sigma, start=1)
                ]
                assert umbral_power(d, n) == poly.evaluate(flipped)

    def test_zigzag_recursion_first_case(self):
        x = (F(3), F(5))
        T = [t_value(x, j) for j in range(4)]
        lhs = T[3] / T[1] ** 3
        rhs = zigzag(1) * comb(3, 1) * T[2] / T[1] ** 2 - zigzag(3) * comb(3, 3) * T[0]
        assert lhs == F(49, 32)
        assert lhs == rhs


def test_bernoulli_and_zigzag_tables_are_shared_across_sizes():
    from felcheck.universal import _bernoulli_table, _zigzag_table

    _bernoulli_table.cache_clear()
    _zigzag_table.cache_clear()
    values = [bernoulli(k) for k in range(71)]
    zig = [zigzag(k) for k in range(71)]
    assert _bernoulli_table.cache_info().currsize <= 5
    assert _zigzag_table.cache_info().currsize <= 5
    assert values == [-bernoulli_minus(k) if k == 1 else bernoulli_minus(k) for k in range(71)]
    assert zig[:8] == [1, 1, 1, 2, 5, 16, 61, 272]
