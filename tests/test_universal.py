import random
import sys
from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from felcheck import universal
from felcheck.exact import power_sums
from felcheck.universal import (
    ORDER_MAX,
    SYMBOLIC_N_MAX,
    OrderTooLarge,
    SymbolicOrderTooLarge,
    ZeroVariable,
    _evaluate,
    _surjection_row,
    bernoulli,
    t_symbolic,
    t_values,
    zigzag,
)

from oracles import (
    bernoulli_minus,
    delta_by_series,
    evaluate_symbolic,
    partition_count,
    series_log,
    subset_power_sum,
    surjection_number,
    umbral_by_series,
    umbral_power_multinomial,
    universal_identity_sides,
)

F = Fraction


def _sigma_of(x, K):
    return [sum(F(c) ** k for c in x) for k in range(1, K + 1)]


def t_value(x, n):
    """T_n(x) as `felcheck tn --at` computes it."""
    return t_values(x, n)[n]


def t_delta(x, n):
    """T_n at delta_k = (s_k - 1)/2^k by the Fraction series route."""
    return F(factorial(n), 2**n) * delta_by_series(x, n)[n]


def umbral_by_series_power(d, r):
    """The r-th umbral power as r! times coefficient r of the Fraction series."""
    return factorial(r) * umbral_by_series(d, r)[r]


def _weights(poly):
    """Weighted degrees of the monomials, with s_k carrying weight k."""
    return {sum((i + 1) * e for i, e in enumerate(mono)) for mono in poly.terms}


def _random_vector(rng, m_max=5):
    xs = []
    for _ in range(rng.randint(1, m_max)):
        num = rng.randint(-9, 9) or 1
        xs.append(F(num, rng.randint(1, 9)))
    return tuple(xs)


def _zigzag_sides(n, tangent):
    """Both sides of the zig-zag recursion at K = 2n + 1 on t_symbolic's
    integer rows, as {monomial: integer} over one denominator D. The term j
    of the right side multiplies T_{2n-2j} by (s1/2)^(2j+1): it adds 2j + 1
    to each s1 exponent and 2j + 1 to the power of 2 in the denominator.
    """
    K = 2 * n + 1
    terms = []
    for j in range(n + 1):
        row = t_symbolic(2 * n - 2 * j)
        c = (-1) ** j * tangent(2 * j + 1) * comb(K, 2 * j + 1)
        terms.append((c, row.den * 2 ** (2 * j + 1), 2 * j + 1, row.nums))
    top = t_symbolic(K)
    D = lcm(top.den, *(den for _, den, _, _ in terms))
    lhs = {mono: a * (D // top.den) for mono, a in top.nums.items()}
    rhs = {}
    for c, den, shift, nums in terms:
        c *= D // den
        for mono, a in nums.items():
            key = (mono[0] + shift, *mono[1:]) if mono else (shift,)
            rhs[key] = rhs.get(key, 0) + c * a
    return lhs, {mono: a for mono, a in rhs.items() if a}


class TestLogCoefficients:
    """The coefficients lambda_k of log((e^u - 1)/u), from the log series
    oracle; t_symbolic reads them as k k! lambda_k = B_k."""

    LOG = series_log([F(1, factorial(k + 1)) for k in range(12)])

    def test_first_values(self):
        assert self.LOG[1:5] == [F(1, 2), F(1, 24), 0, F(-1, 2880)]

    def test_odd_entries_vanish(self):
        for k in range(3, 12, 2):
            assert self.LOG[k] == 0
            assert bernoulli(k) == 0

    def test_matches_bernoulli(self):
        for k in range(1, 9):
            assert k * factorial(k) * self.LOG[k] == bernoulli(k)


class TestSurjectionRow:
    def test_matches_inclusion_exclusion(self):
        for n in range(41):
            assert _surjection_row(n) == tuple(surjection_number(n, j) for j in range(n + 1))

    def test_cold_call_past_the_order_limit_does_not_recurse(self):
        # invariants() reads rows up to ORDER_MAX + m + 4; a row built by
        # recursing on its predecessor would need that many frames
        n = ORDER_MAX + 10
        expected = surjection_number(n, 7)
        _surjection_row.cache_clear()
        limit = sys.getrecursionlimit()
        depth = 0
        frame = sys._getframe()
        while frame:
            depth += 1
            frame = frame.f_back
        sys.setrecursionlimit(depth + 50)
        try:
            row = _surjection_row(n)
        finally:
            sys.setrecursionlimit(limit)
            _surjection_row.cache_clear()
        assert len(row) == n + 1
        assert (row[0], row[1], row[7], row[n]) == (0, 1, expected, factorial(n))


class TestGeneratingSeries:
    def test_empty_product(self):
        assert t_values((), 3) == [1, 0, 0, 0]

    def test_single_unit_variable(self):
        # n! times the coefficients 1, 1/2, 1/6 of (e^t - 1)/t
        assert t_values((1,), 2) == [F(1), F(1, 2), F(1, 3)]

    def test_first_coefficient_is_half_sigma1(self):
        assert t_values((3, 5), 1)[1] == 4

    def test_zero_variable_rejected(self):
        with pytest.raises(ZeroVariable):
            t_values((3, 0), 2)

    def test_order_limit_refused_before_any_series(self, monkeypatch):
        # T_n at m values reads series row n + m, at most ORDER_MAX + 1, and the
        # refusal, with `tn --at`'s message, comes before the variables are read
        def never(*args):
            raise AssertionError("a series was built")

        monkeypatch.setattr(universal, "_exp_minus_one_product", never)
        message = f"^series order is limited to {ORDER_MAX}, got {ORDER_MAX + 1}$"
        for x, n_max in (((1,), ORDER_MAX + 1), ((1, 1), ORDER_MAX), ((0,), ORDER_MAX + 1)):
            with pytest.raises(OrderTooLarge, match=message):
                t_values(x, n_max)
        with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
            t_values((1,) * (ORDER_MAX + 5), -1)

    def test_delta_series_single_unit(self):
        # the two factors cancel exactly
        assert delta_by_series((1,), 4) == [1, 0, 0, 0, 0]

    def test_delta_series_empty(self):
        assert delta_by_series((), 2) == [F(1), F(-1, 2), F(1, 12)]

    def test_variable_append_identity(self):
        rng = random.Random(41)
        for _ in range(15):
            x = _random_vector(rng, m_max=4)
            order = rng.randint(0, 8)
            # the series multiply, so the values convolve binomially
            a, b = t_values(x, order), t_values((1,), order)
            rhs = [sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(order + 1)]
            assert t_values(x + (1,), order) == rhs


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
            assert 2**n * t_delta(x, n) == evaluate_symbolic(t_symbolic(n), shifted)

    def test_delta_matches_symbolic(self):
        rng = random.Random(59)
        for _ in range(10):
            x = _random_vector(rng, m_max=4)
            n = rng.randint(0, 7)
            sigma = _sigma_of(x, max(n, 1))
            delta = [F(s - 1, 2**k) for k, s in enumerate(sigma, start=1)]
            assert t_delta(x, n) == evaluate_symbolic(t_symbolic(n), delta)


class TestSymbolic:
    def test_t0_t2_t4(self):
        assert t_symbolic(0).terms == {(): 1}
        assert t_symbolic(2).terms == {(2,): F(1, 4), (0, 1): F(1, 12)}
        assert t_symbolic(4).terms == {
            (4,): F(15, 240),
            (2, 1): F(30, 240),
            (0, 2): F(5, 240),
            (0, 0, 0, 1): F(-2, 240),
        }

    def test_matches_numeric(self):
        rng = random.Random(61)
        for _ in range(15):
            x = _random_vector(rng, m_max=4)
            n = rng.randint(0, 8)
            sigma = _sigma_of(x, max(n, 1))
            assert evaluate_symbolic(t_symbolic(n), sigma) == t_value(x, n)

    def test_weight_homogeneity(self):
        for n in range(1, 9):
            assert _weights(t_symbolic(n)) == {n}

    def test_pretty(self):
        assert t_symbolic(0).pretty() == "1"
        assert t_symbolic(1).pretty() == "s1/2"
        assert t_symbolic(2).pretty() == "(3*s1^2 + s2)/12"
        assert (
            t_symbolic(4).pretty() == "(15*s1^4 + 30*s1^2*s2 + 5*s2^2 - 2*s4)/240"
        )

    def test_sparse_view(self):
        # one cached view per T_n, zero exponents dropped, in pretty()'s order
        poly = t_symbolic(4)
        assert poly.sparse is poly.sparse
        assert poly.sparse == (
            (15, ((0, 4),)),
            (30, ((0, 2), (1, 1))),
            (5, ((1, 2),)),
            (-2, ((3, 1),)),
        )
        assert F(_evaluate(poly.sparse, [1, 1, 1, 1]), poly.den) == F(1, 5)  # T_4(1) = 1/5

    def test_limit(self):
        with pytest.raises(SymbolicOrderTooLarge):
            t_symbolic(SYMBOLIC_N_MAX + 1)

    def test_every_order_up_to_the_limit(self):
        # the integer EGF route gives the values; one term per partition of n
        # into 1s and even parts, i.e. per partition of some i <= n/2. Every
        # order is evaluated at integer and at rational points. T_n is
        # weight-n homogeneous, so at x it is T_n(q x) / q^n: the integer
        # terms are summed at the integer power sums of q x, q the lcm of
        # the denominators of x.
        vectors = [(2, 3, -5), (-1, 4, 7, 1), (F(1, 2), 3, -5), (F(-2, 3), F(7, 4), 2)]
        scaled = []
        for x in vectors:
            q = lcm(*(F(c).denominator for c in x))
            scaled.append((x, q, [int(q * c) for c in x]))
        for n in range(SYMBOLIC_N_MAX + 1):
            poly = t_symbolic(n)
            assert _weights(poly) == {n}
            assert len(poly.terms) == sum(partition_count(i) for i in range(n // 2 + 1))
            for x, q, ps in scaled:
                value = F(_evaluate(poly.sparse, power_sums(ps, n)[1:]), poly.den * q**n)
                assert value == t_value(x, n), (n, x)


class TestUniversalIdentity:
    def test_holds_for_every_n_up_to_15(self):
        # U_n: T_n(s_1 - 1, s_2 - 1, ...) = sum_j C(n, j) B_j T_{n-j}(s), with
        # B_1 = -1/2: Fel's formula at order p = n - 1 for every numerical
        # semigroup, as one identity in the power sums
        for n in range(16):
            lhs, rhs = universal_identity_sides(n)
            assert lhs == rhs, n
            assert lhs


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
        assert umbral_power_multinomial((4, 9), 0) == 1
        assert umbral_by_series_power((4, 9), 0) == 1

    def test_series_constant_term(self):
        assert umbral_by_series((3, 5), 4)[0] == 1

    def test_single_unit(self):
        assert umbral_power_multinomial((1,), 1) == F(1, 2)
        assert umbral_by_series_power((1,), 1) == F(1, 2)

    def test_quadratic_sign_flip(self):
        rng = random.Random(71)
        for _ in range(10):
            d = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
            s1 = sum(d)
            s2 = sum(v**2 for v in d)
            assert umbral_power_multinomial(d, 2) == F(3 * s1**2 - s2, 12)
            assert umbral_by_series_power(d, 2) == F(3 * s1**2 - s2, 12)

    def test_matches_multinomial_oracle(self):
        rng = random.Random(73)
        for _ in range(10):
            d = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            r = rng.randint(0, 5)
            assert umbral_by_series_power(d, r) == umbral_power_multinomial(d, r)

    def test_plus_convention_differs(self):
        # the +1/2 convention shifts the first power by the generator sum
        d = (2, 7)
        minus = umbral_power_multinomial(d, 1, b1_plus=False)
        plus = umbral_power_multinomial(d, 1, b1_plus=True)
        assert plus - minus == sum(d)
        assert umbral_by_series_power(d, 1) == minus


class TestCompanionIdentities:
    def test_signflip_narrow_reading_breaks_at_five(self):
        # at d = (1, 1): the umbral value is -1/6; flipping every even-index
        # power sum reproduces it, flipping only s2 and s5 does not
        d = (1, 1)
        sigma = _sigma_of(d, 5)
        poly = t_symbolic(5)
        even_flip = [(-v if k % 2 == 0 else v) for k, v in enumerate(sigma, start=1)]
        narrow = [(-v if k in (2, 5) else v) for k, v in enumerate(sigma, start=1)]
        assert umbral_power_multinomial(d, 5) == F(-1, 6)
        assert evaluate_symbolic(poly, even_flip) == F(-1, 6)
        assert evaluate_symbolic(poly, narrow) == F(-1, 3)

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
                assert umbral_power_multinomial(d, n) == evaluate_symbolic(poly, flipped)

    def test_zigzag_recursion_first_case(self):
        x = (F(3), F(5))
        T = [t_value(x, j) for j in range(4)]
        lhs = T[3] / T[1] ** 3
        rhs = zigzag(1) * comb(3, 1) * T[2] / T[1] ** 2 - zigzag(3) * comb(3, 3) * T[0]
        assert lhs == F(49, 32)
        assert lhs == rhs

    def test_zigzag_recursion_symbolic_up_to_the_limit(self):
        # T_K = sum_j (-1)^j A_{2j+1} C(K, 2j+1) T_1^(2j+1) T_{2n-2j}, K = 2n + 1,
        # with T_1 = s1/2, holds as a polynomial identity for every K <= SYMBOLIC_N_MAX
        for n in range((SYMBOLIC_N_MAX - 1) // 2 + 1):
            lhs, rhs = _zigzag_sides(n, zigzag)
            assert lhs == rhs, n

    def test_zigzag_recursion_symbolic_sees_a_wrong_tangent_number(self):
        # A_5 enters every K >= 5
        def changed(j):
            return zigzag(j) + (j == 5)

        for n in range(6):
            lhs, rhs = _zigzag_sides(n, changed)
            assert (lhs == rhs) == (n < 2), n


def test_bernoulli_and_zigzag_tables_are_shared_across_sizes():
    from felcheck.universal import _zigzag_table

    _zigzag_table.cache_clear()
    values = [bernoulli(k) for k in range(71)]
    zig = [zigzag(k) for k in range(71)]
    assert _zigzag_table.cache_info().currsize <= 5
    assert values == [-bernoulli_minus(k) if k == 1 else bernoulli_minus(k) for k in range(71)]
    assert zig[:8] == [1, 1, 1, 2, 5, 16, 61, 272]
