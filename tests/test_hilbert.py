import random
from fractions import Fraction
from math import gcd

from felcheck.exact import IntPolynomial, power_sums
from felcheck.hilbert import (
    alternating_syzygy_sums,
    hilbert_numerator,
    k_denominator,
    product_polynomial,
)
from felcheck.semigroup import compute_gaps, make_semigroup

from oracles import gaps_by_table, poly_sub, representable_table

F = Fraction


def k_at(S, c, p):
    """K_p as `felcheck hilbert` prints it, from the alternating sums c."""
    return F(c[S.m + p], k_denominator(S, p))

Q_5689 = {
    0: 1, 14: -1, 15: -1, 16: -1, 17: -1, 18: -2,
    22: 1, 23: 2, 24: 1, 25: 1, 26: 2, 27: 1,
    31: -1, 32: -1, 35: -1,
}


def _poly(sparse):
    coeffs = [0] * (max(sparse) + 1)
    for i, c in sparse.items():
        coeffs[i] = c
    return IntPolynomial(coeffs)


def _phi(gaps):
    """The gap polynomial: a unit coefficient at each gap."""
    return IntPolynomial.from_terms((g, 1) for g in gaps.gaps)


def _pipeline(gens):
    S = make_semigroup(gens)
    gaps = compute_gaps(S)
    return S, gaps, hilbert_numerator(S, gaps.apery)


def _random_gens(rng, m_max=5, d_max=40):
    while True:
        gens = [rng.randint(1, d_max) for _ in range(rng.randint(1, m_max))]
        if gcd(*gens) == 1:
            return gens


class TestGapMoments:
    # Phi(e^t) for the worked examples: n! times its t^n coefficient is the
    # n-th power sum of the gap list
    def test_worked_examples(self):
        _, gaps, _ = _pipeline([3, 5])
        assert power_sums(gaps.gaps, 3) == [4, 1 + 2 + 4 + 7, 1 + 4 + 16 + 49, 1 + 8 + 64 + 343]
        _, gaps, _ = _pipeline([5, 6, 8, 9])
        assert power_sums(gaps.gaps, 2) == [5, 17, 1 + 4 + 9 + 16 + 49]

    def test_trivial(self):
        _, gaps, _ = _pipeline([1])
        assert power_sums(gaps.gaps, 3) == [0, 0, 0, 0]


class TestProductPolynomial:
    def test_two_generators(self):
        S = make_semigroup([3, 5])
        assert product_polynomial(S) == _poly({0: 1, 3: -1, 5: -1, 8: 1})

    def test_trivial(self):
        assert product_polynomial(make_semigroup([1])) == IntPolynomial([1, -1])

    def test_degree_is_generator_sum(self):
        assert product_polynomial(make_semigroup([5, 6, 8, 9])).degree == 28


class TestHilbertNumerator:
    def test_worked_examples(self):
        _, _, h = _pipeline([3, 5])
        assert h.numerator == _poly({0: 1, 15: -1})
        _, _, h = _pipeline([4, 5, 6])
        assert h.numerator == _poly({0: 1, 10: -1, 12: -1, 22: 1})
        _, _, h = _pipeline([5, 6, 8, 9])
        assert h.numerator == _poly(Q_5689)

    def test_trivial(self):
        _, _, h = _pipeline([1])
        assert h.numerator == IntPolynomial([1])

    def test_constant_term_and_unit_root(self):
        rng = random.Random(83)
        for _ in range(20):
            S, _, h = _pipeline(_random_gens(rng))
            assert h.numerator.coeffs[0] == 1
            if S.m >= 2:
                assert sum(c for _, c in h.numerator.items()) == 0

    def test_structural_identity(self):
        S, gaps, h = _pipeline([5, 6, 8, 9])
        one_minus_z = IntPolynomial.one_minus_pow(1)
        assert h.numerator == poly_sub(h.prod.exact_div(one_minus_z), _phi(gaps) * h.prod)

    def test_membership_series_oracle(self):
        # Q equals the truncated membership series times the product polynomial
        rng = random.Random(89)
        for _ in range(15):
            gens = _random_gens(rng, m_max=4, d_max=30)
            S, gaps, h = _pipeline(gens)
            limit = h.prod.degree + max(gaps.frobenius, 0) + 1
            member = representable_table(gens, limit)
            hilbert_series = IntPolynomial(1 if member[n] else 0 for n in range(limit + 1))
            product = hilbert_series * h.prod
            truncated = IntPolynomial(product.coeffs[: limit + 1])
            assert truncated == h.numerator

    def test_m2_closed_form(self):
        rng = random.Random(97)
        done = 0
        while done < 20:
            d1, d2 = rng.randint(2, 40), rng.randint(2, 40)
            if gcd(d1, d2) != 1:
                continue
            done += 1
            _, _, h = _pipeline([d1, d2])
            assert h.numerator == IntPolynomial.one_minus_pow(d1 * d2)


class TestAlternatingSums:
    def test_fifteen_powers(self):
        _, _, h = _pipeline([3, 5])
        c = alternating_syzygy_sums(h, 3)
        assert c[3] == 15**3
        assert c[0] == 1

    def test_structural_zeros(self):
        _, _, h = _pipeline([4, 5, 6])
        assert alternating_syzygy_sums(h, 2)[1:] == [0, -240]

    def test_batched_matches_single(self):
        _, _, h = _pipeline([5, 6, 8, 9])
        one_minus_q = poly_sub(IntPolynomial([1]), h.numerator)
        assert alternating_syzygy_sums(h, 8) == [
            sum(c * n**r for n, c in one_minus_q.items()) for r in range(9)
        ]

    def test_egf_identity(self):
        # n! times the t^n coefficient of 1 - Q(e^t) recovers the power sums
        rng = random.Random(101)
        from math import factorial

        for _ in range(10):
            S, gaps, h = _pipeline(_random_gens(rng, m_max=4, d_max=25))
            series = poly_sub(IntPolynomial([1]), h.numerator).at_exp(12)
            c = alternating_syzygy_sums(h, 12)
            for n in range(13):
                assert factorial(n) * series.coeffs[n] == c[n]

    def test_gap_egf_identity(self):
        from math import factorial

        S, gaps, h = _pipeline([4, 5, 6])
        series = _phi(gaps).at_exp(10)
        for n in range(11):
            assert factorial(n) * series.coeffs[n] == sum(g**n for g in gaps_by_table([4, 5, 6]))


class TestKInvariant:
    def test_worked_values(self):
        S, _, h = _pipeline([3, 5])
        assert k_at(S, alternating_syzygy_sums(h, S.m), 0) == F(15, 2)
        S, _, h = _pipeline([2, 3])
        assert k_at(S, alternating_syzygy_sums(h, S.m), 0) == 3
        S, _, h = _pipeline([1])
        for p in range(4):
            assert k_at(S, alternating_syzygy_sums(h, S.m + p), p) == 0

    def test_closed_form_two_generators(self):
        S, _, h = _pipeline([3, 5])
        for p in range(8):
            k = k_at(S, alternating_syzygy_sums(h, S.m + p), p)
            assert k == F(15 ** (p + 1), (p + 1) * (p + 2))

    def test_syzygy_values_bundle(self):
        S, _, h = _pipeline([4, 5, 6])
        c = alternating_syzygy_sums(h, S.m + 3)
        assert c[2] == -240
        assert len(c) == S.m + 4
        for p in range(4):
            k = k_at(S, alternating_syzygy_sums(h, S.m + p), p)
            assert k == F(c[S.m + p], k_denominator(S, p))
