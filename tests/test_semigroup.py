import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest

from felcheck import semigroup
from felcheck.exact import power_sums
from felcheck.hilbert import hilbert_numerator
from felcheck.semigroup import (
    AperyTooLarge,
    BoundExceeded,
    EmptyGenerators,
    GcdNotOne,
    NonIntegerGenerator,
    NonPositiveGenerator,
    _least_multiple,
    _three_generator_region,
    _three_generator_source,
    apery_set,
    compute_gaps,
    gap_power_sums,
    make_semigroup,
)

from oracles import gaps_by_table, least_multiple_by_search, representable_table


def _random_gens(rng, m_max=5, d_max=60):
    while True:
        gens = [rng.randint(1, d_max) for _ in range(rng.randint(1, m_max))]
        if gcd(*gens) == 1:
            return gens


class TestMakeSemigroup:
    def test_worked_example(self):
        S = make_semigroup([4, 5, 6])
        assert S.m == 3
        assert S.pi == 120

    def test_gcd_not_one(self):
        with pytest.raises(GcdNotOne):
            make_semigroup([2, 4])

    def test_trivial(self):
        S = make_semigroup([1])
        assert (S.m, S.pi) == (1, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(EmptyGenerators):
            make_semigroup([])
        with pytest.raises(NonPositiveGenerator):
            make_semigroup([3, 0])
        with pytest.raises(NonPositiveGenerator):
            make_semigroup([3, -5])

    def test_rejects_non_integers(self):
        for bad in ([3.7, 5], [3, 5.0], [True, 2], [3, False], ["4", 5], [None, 3]):
            with pytest.raises(NonIntegerGenerator):
                make_semigroup(bad)

    def test_accepts_int_subclasses(self):
        class Small(int):
            pass

        S = make_semigroup([Small(3), 5])
        assert S.generators == (3, 5) and type(S.generators[0]) is int

    def test_apery_set_kept_with_gaps(self):
        gaps = compute_gaps(make_semigroup([4, 5, 6]))
        assert gaps.apery == (0, 5, 6, 11)
        assert compute_gaps(make_semigroup([1])).apery == (0,)

    def test_duplicates_kept(self):
        S = make_semigroup([2, 3, 2])
        assert S.m == 3
        assert S.pi == 12


class TestComputeGaps:
    def test_worked_examples(self):
        assert compute_gaps(make_semigroup([3, 5])).gaps == (1, 2, 4, 7)
        assert compute_gaps(make_semigroup([3, 5])).frobenius == 7
        g = compute_gaps(make_semigroup([5, 6, 8, 9]))
        assert g.gaps == (1, 2, 3, 4, 7)
        assert g.frobenius == 7

    def test_trivial_semigroup(self):
        g = compute_gaps(make_semigroup([1]))
        assert g.gaps == ()
        assert g.frobenius == -1
        assert g.genus == 0

    def test_two_generators_classical(self):
        # frobenius d1*d2 - d1 - d2 and genus (d1-1)(d2-1)/2 for coprime pairs
        rng = random.Random(5)
        for _ in range(25):
            d1 = rng.randint(2, 40)
            d2 = rng.randint(2, 40)
            if gcd(d1, d2) != 1:
                continue
            g = compute_gaps(make_semigroup([d1, d2]))
            assert g.frobenius == d1 * d2 - d1 - d2
            assert g.genus == (d1 - 1) * (d2 - 1) // 2

    def test_agrees_with_table_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            gens = _random_gens(rng)
            g = compute_gaps(make_semigroup(gens))
            assert list(g.gaps) == gaps_by_table(gens)

    def test_membership_consistency(self):
        rng = random.Random(29)
        for _ in range(15):
            gens = _random_gens(rng, m_max=4, d_max=30)
            g = compute_gaps(make_semigroup(gens))
            limit = g.frobenius + max(gens)
            table = representable_table(gens, max(limit, 1))
            gap_set = set(g.gaps)
            for n in range(limit + 1):
                assert (n in gap_set) == (not table[n])

    def test_bound_guard(self):
        with pytest.raises(BoundExceeded):
            compute_gaps(make_semigroup([4000, 4001]), bound=10**6)


def apery_gap_sums(apery, r_max):
    """gap_power_sums read from the power sums W of the Apéry set."""
    return gap_power_sums(power_sums(apery, r_max + 1), r_max)


class TestPowerSums:
    def test_gap_power_sum_values(self):
        g35 = apery_gap_sums(apery_set(make_semigroup([3, 5])), 3)
        assert g35[0] == 4
        assert g35[3] == 1 + 8 + 64 + 343
        assert apery_gap_sums(apery_set(make_semigroup([4, 5, 6])), 1)[1] == 13
        assert apery_gap_sums(apery_set(make_semigroup([1])), 5)[5] == 0

    def test_zeroth_sum_is_genus(self):
        rng = random.Random(31)
        for _ in range(20):
            g = compute_gaps(make_semigroup(_random_gens(rng)))
            assert apery_gap_sums(g.apery, 0) == [g.genus]

    def test_too_few_apery_sums_refused(self):
        # G_r reads W_0 .. W_{r+1}: one sum short is refused, with the range named
        W = power_sums(apery_set(make_semigroup([5, 6, 8, 9])), 6)
        for r in range(6):
            message = rf"^G_{r} needs W_0 \.\. W_{r + 1}, got {r + 1} sums$"
            with pytest.raises(ValueError, match=message):
                gap_power_sums(W[: r + 1], r)
            assert gap_power_sums(W[: r + 2], r) == gap_power_sums(W, r)

    def test_batched_matches_single(self):
        gens = [5, 6, 8, 9]
        batch = apery_gap_sums(apery_set(make_semigroup(gens)), 6)
        assert batch == [sum(g**r for g in gaps_by_table(gens)) for r in range(7)]


def generator_sums(S, K):
    """sigma_k = sum d^k and delta_k = (sigma_k - 1) / 2^k for 1 <= k <= K, as
    `felcheck invariants` prints them."""
    sigma = power_sums(S.generators, K)[1:]
    return sigma, [Fraction(s - 1, 2**k) for k, s in enumerate(sigma, 1)]


class TestGeneratorStats:
    def test_worked_example(self):
        sigma, delta = generator_sums(make_semigroup([3, 5]), 2)
        assert sigma == [8, 34]
        assert delta == [Fraction(7, 2), Fraction(33, 4)]

    def test_trivial(self):
        sigma, delta = generator_sums(make_semigroup([1]), 5)
        assert all(s == 1 for s in sigma)
        assert all(d == 0 for d in delta)

    def test_delta_definition(self):
        rng = random.Random(37)
        for _ in range(15):
            S = make_semigroup(_random_gens(rng))
            sigma, delta = generator_sums(S, 6)
            for k in range(1, 7):
                assert delta[k - 1] * 2**k + 1 == sigma[k - 1]
                assert sigma[k - 1] >= S.m


def coprime_lists(d_max):
    """Every sorted list of three entries in 1..d_max with gcd 1."""
    return [t for t in combinations_with_replacement(range(1, d_max + 1), 3) if gcd(*t) == 1]


def dijkstra_route(S, n_max):
    """(Q, W_0 .. W_n_max) from the Apéry set of the least generator."""
    apery = apery_set(S)
    return hilbert_numerator(S, apery).numerator, power_sums(apery, n_max)


class TestThreeGeneratorSource:
    def test_least_multiple_matches_the_linear_search(self):
        # each entry against the other two, duplicates (pairs) included
        for x, y, z in coprime_lists(60):
            for b, a, c in ((x, y, z), (y, x, z), (z, x, y)):
                assert _least_multiple(b, a, c) == least_multiple_by_search(b, a, c), (b, a, c)

    @pytest.mark.parametrize("per_order", [0, 10**9], ids=["blocks", "points"])
    def test_every_small_list_matches_the_dijkstra_route(self, monkeypatch, per_order):
        # both routes to W: EGF products over the blocks, and the listed points
        monkeypatch.setattr(semigroup, "_POINTS_PER_ORDER", per_order)
        lists = coprime_lists(30)
        assert len(lists) == 4027
        for gens in lists:
            S = make_semigroup(gens)
            q, W = dijkstra_route(S, 9)
            a, W3, Q3 = _three_generator_source(S, 9)
            assert Q3 == q, gens
            assert W3[0] == a and gap_power_sums(W3, 8) == gap_power_sums(W, 8), gens

    def test_regions(self):
        # L-shape: 3*4 = 5 + 7, 3*5 = 2*4 + 7 and 2*7 = 4 + 2*5
        assert _three_generator_region((7, 4, 5)) == (
            4, 5, 7, [(3, 0, 1), (1, 1, 2)],
            [(3, 4, 1, 5, 1, 7), (3, 5, 2, 4, 1, 7), (2, 7, 1, 4, 2, 5)],
        )
        # gluing: gcd(6, 10) = 2 and 2*15 = 5*6, so the box of 6 is 3 by 2
        assert _three_generator_region((6, 10, 15))[:4] == (6, 10, 15, [(3, 0, 2)])
        # 9 = 3*3 is dropped as a side of 1; with a 1 every other entry is
        assert _three_generator_region((9, 5, 3))[:4] == (3, 5, 9, [(3, 0, 1)])
        assert _three_generator_region((1, 4, 4))[:4] == (1, 4, 4, [(1, 0, 1)])

    def test_large_generators_take_logarithmic_steps(self):
        S = make_semigroup([999983, 999961, 999979])
        a, W, Q = _three_generator_source(S, 8)
        assert str(Q) == (
            "0:1 10999769:-1 90905454549:-1 90906454564:-1 90908454486:1 90914454396:1"
        )
        assert a == 999961 and len(W) == 9
        with pytest.raises(AperyTooLarge, match="least generator 999961 exceeds bound 999960"):
            _three_generator_source(S, 8, 999960)
