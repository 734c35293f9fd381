import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial, gcd

import pytest

from felcheck import cli, semigroup, universal, verify
from felcheck.exact import IntPolynomial
from felcheck.hilbert import alternating_syzygy_sums, hilbert_numerator, k_denominator
from felcheck.semigroup import apery_set, make_semigroup
from felcheck.universal import _binomial_row, _egf_mul, _scaled_bernoulli, _umbral_factor, t_symbolic, zigzag
from felcheck.verify import (
    IDENTITIES,
    ORDER_MAX,
    SAMPLES_MAX,
    SIGNFLIP_N,
    DigitLimitExceeded,
    OrderTooLarge,
    _randint,
    _signflip_plan,
    _umbral_side,
    _zigzag_plan,
    check_samples,
    effective_order,
    invariants,
    random_semigroup,
    verify_companions,
    verify_fel_main,
    verify_low_order,
    verify_m2_closed_form,
    verify_semigroup,
    verify_series_lemmas,
    verify_thm_kp,
)

from oracles import _umbral_coefficient, companions_reference, numerator_by_gap_route
from test_failure_paths import (
    bumped_egf_entry_6,
    bumped_umbral_entry_2,
    bumped_umbral_factor,
    eq_final_and_one_minus_q,
    statuses,
)

F = Fraction


def _by_identity(records, identity):
    return [c for c in records if c.identity == identity]


def _passed(records):
    """What VerificationReport.passed says of a report holding these records."""
    return all(c.status != "fail" for c in records)


# one semigroup for each m = 1..6
GENERATORS_M1_TO_M6 = [(1,), (3, 5), (4, 5, 6), (5, 6, 8, 9), (6, 7, 8, 9, 11), (7, 8, 9, 10, 11, 13)]


def _report_keys(report):
    """(rank in IDENTITIES, parameter) of each record, a missing parameter as -1."""
    rank = list(IDENTITIES)
    return [
        (rank.index(c.identity), -1 if c.parameter is None else c.parameter) for c in report.checks
    ]


class TestFelMain:
    def test_worked_example(self):
        records = verify_fel_main(invariants(make_semigroup([3, 5]), 5))
        assert _passed(records)
        first = _by_identity(records, "FEL_MAIN")[0]
        assert (first.parameter, first.lhs, first.rhs) == (0, "15/2", "15/2")

    def test_trivial_semigroup(self):
        records = verify_fel_main(invariants(make_semigroup([1]), 3))
        assert _passed(records)
        for c in _by_identity(records, "FEL_MAIN"):
            assert c.lhs == c.rhs == "0"

    def test_four_generators(self):
        assert _passed(verify_fel_main(invariants(make_semigroup([5, 6, 8, 9]), 4)))

    def test_includes_unnormalized_form(self):
        records = verify_series_lemmas(invariants(make_semigroup([3, 5]), 2))
        finals = _by_identity(records, "EQ_FINAL")
        assert [c.parameter for c in finals] == [0, 1, 2]
        assert all(c.status == "pass" for c in finals)
        # C_2/2! for the two-generator example with all sums equal to 15^n
        assert finals[0].lhs == str(F(15**2, 2))

    def test_random_sweep(self):
        rng = random.Random(103)
        for _ in range(15):
            S = random_semigroup(rng, 5, 40)
            assert _passed(verify_fel_main(invariants(S, 8)))

    def test_non_minimal_generators(self):
        assert _passed(verify_fel_main(invariants(make_semigroup([2, 3]), 6)))
        assert _passed(verify_fel_main(invariants(make_semigroup([2, 3, 4]), 6)))


class TestThmKp:
    def test_three_generators(self):
        records = verify_thm_kp(invariants(make_semigroup([4, 5, 6])))
        assert _passed(records)
        recs = _by_identity(records, "THM_KP")
        assert [(c.parameter, c.lhs) for c in recs] == [(0, "1"), (1, "0"), (2, "-240")]

    def test_two_generators(self):
        records = verify_thm_kp(invariants(make_semigroup([3, 5])))
        recs = _by_identity(records, "THM_KP")
        assert [(c.parameter, c.lhs) for c in recs] == [(0, "1"), (1, "15")]

    def test_four_generators(self):
        records = verify_thm_kp(invariants(make_semigroup([5, 6, 8, 9])))
        recs = _by_identity(records, "THM_KP")
        assert [c.lhs for c in recs] == ["1", "0", "0", "12960"]

    def test_skipped_for_single_generator(self):
        records = verify_thm_kp(invariants(make_semigroup([1])))
        assert records[0].status == "skip"
        assert _passed(records)


class TestLowOrder:
    def test_values(self):
        records = verify_low_order(invariants(make_semigroup([3, 5])))
        assert _passed(records)
        recs = _by_identity(records, "LOW_ORDER_K")
        assert recs[0].lhs == "15/2"
        assert recs[1].lhs == str(F(225, 6))
        assert recs[3].lhs == str(F(10125, 4))

    def test_simplest_pair(self):
        records = verify_low_order(invariants(make_semigroup([2, 3])))
        assert _passed(records)
        assert _by_identity(records, "LOW_ORDER_K")[0].lhs == "3"

    def test_trivial(self):
        records = verify_low_order(invariants(make_semigroup([1])))
        assert _passed(records)
        assert all(c.lhs == "0" for c in records)


class TestM2ClosedForm:
    def test_pairs(self):
        records = verify_m2_closed_form(invariants(make_semigroup([3, 5]), 6))
        assert _passed(records)
        poly_rec = [c for c in records if c.parameter is None][0]
        assert poly_rec.lhs == "0:1 15:-1"

    def test_skip_other_m(self):
        records = verify_m2_closed_form(invariants(make_semigroup([4, 5, 6]), 3))
        assert records[0].status == "skip"


class TestSeriesLemmas:
    @pytest.mark.parametrize(
        "gens,order", [([3, 5], 8), ([1], 4), ([4, 5, 6], 9)]
    )
    def test_worked_examples(self, gens, order):
        records = verify_series_lemmas(invariants(make_semigroup(gens), 0, order))
        assert _passed(records)
        # the five lemmas, then EQ_FINAL at p = 0
        assert len(records) == 5 + 1

    def test_order_below_m_rejected(self):
        with pytest.raises(ValueError, match="order"):
            invariants(make_semigroup([5, 6, 8, 9]), 0, 3)

    def test_random_sweep(self):
        rng = random.Random(107)
        for _ in range(10):
            S = random_semigroup(rng, 5, 30)
            assert _passed(verify_series_lemmas(invariants(S, order=S.m + 10)))


class TestInvariants:
    def test_rejects_negative_p_max(self):
        with pytest.raises(ValueError, match="p_max"):
            invariants(make_semigroup([3, 5]), -1)

    def test_rejects_order_below_m_plus_p_max(self):
        S = make_semigroup([3, 5])
        with pytest.raises(ValueError, match="m \\+ p_max"):
            invariants(S, 4, 5)
        assert invariants(S, 4, 6).order == 6
        assert invariants(S, 4).order == 8

    def test_genus_millions_without_the_gap_list(self, monkeypatch):
        # (10007, 10009, 10037) has 3,408,038 gaps; every check reads the
        # Apéry set of 10007 entries instead, and no gap list is built
        def never(*args):
            raise AssertionError("the gap list was built")

        monkeypatch.setattr(semigroup, "compute_gaps", never)
        assert not hasattr(verify, "compute_gaps")
        report = verify_semigroup(make_semigroup([10007, 10009, 10037]), p_max=6)
        assert report.passed
        assert {c.identity for c in report.checks} >= {"FEL_MAIN", "LEMMA_SERIES_PHI"}

    def test_order_limit(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(verify, "apery_set", reached)
        S = make_semigroup([3, 5])
        with pytest.raises(Reached):
            invariants(S, 0, ORDER_MAX)
        with pytest.raises(OrderTooLarge):
            invariants(S, 0, ORDER_MAX + 1)
        with pytest.raises(OrderTooLarge):
            invariants(S, ORDER_MAX - 3)  # default order m + p_max + 2
        # an order below m + p_max > ORDER_MAX: the limit is refused first
        with pytest.raises(OrderTooLarge):
            invariants(S, ORDER_MAX, 3)

    def test_k_is_the_normalized_invariant(self):
        S = make_semigroup([4, 5, 6])
        inv = invariants(S, 3)
        h = hilbert_numerator(S, apery_set(S))
        c = [alternating_syzygy_sums(h, S.m + p) for p in range(4)]
        assert [F(inv.c[S.m + p], k_denominator(S, p)) for p in range(4)] == [
            F(c[p][S.m + p], k_denominator(S, p)) for p in range(4)
        ]

    def test_reaches_the_low_order_index(self):
        inv = invariants(make_semigroup([2, 3]), 0, 2)
        assert len(inv.c) == len(inv.G) == len(inv.EG) == 2 + 3 + 1
        assert len(inv.E) == len(inv.D) == 2 + 3 + 2


class TestRandomSemigroup:
    def test_impossible_ranges_raise_instead_of_hanging(self):
        rng = random.Random(0)
        for kwargs in ({"m_max": 0, "d_max": 9}, {"m_max": 2, "d_max": 0}):
            with pytest.raises(ValueError):
                random_semigroup(rng, **kwargs)
        assert rng.random() == random.Random(0).random()

    def test_narrow_valid_ranges_still_draw(self):
        rng = random.Random(1)
        assert random_semigroup(rng, 1, 1).generators == (1,)

    def test_single_generator_is_returned_without_drawing(self):
        # (1,) is the only coprime list with m = 1, however large d_max is
        rng = random.Random(2)
        assert random_semigroup(rng, 1, 10**9).generators == (1,)
        assert rng.random() == random.Random(2).random()


class TestCompanions:
    def test_passes(self):
        report = verify_companions(samples=3, seed=5)
        assert report.passed

    def test_discrepancy_reported_not_patched(self):
        report = verify_companions(samples=4, seed=0)
        high = [c for c in report.checks if c.identity == "FEL1_SIGNFLIP" and c.parameter >= 5]
        assert high and all("every even-index power sum" in c.note for c in high)
        assert all(c.status == "pass" for c in high)

    def test_domain_restriction(self):
        for samples in (0, 10_001):
            with pytest.raises(ValueError):
                verify_companions(samples=samples)
        for samples in (0, SAMPLES_MAX + 1):
            with pytest.raises(ValueError, match="samples"):
                check_samples(samples)
        for samples in (1, SAMPLES_MAX):
            assert check_samples(samples) is None

    @pytest.mark.parametrize(
        "samples, seed", [(s, seed) for seed in range(10) for s in (1, 3, 20)] + [(200, 11)]
    )
    def test_records_match_the_fraction_route(self, samples, seed):
        # the reference makes the zig-zag records first; the report puts them last
        ref = companions_reference(samples, seed).checks
        flip = [c for c in ref if c.identity == "FEL1_SIGNFLIP"]
        zig = [c for c in ref if c.identity == "FEL2_ZIGZAG"]
        assert verify_companions(samples, seed).checks == flip + zig

    def test_swapped_kernels_build_their_own_plans(self, monkeypatch):
        # the real plans are cached first; each swap must not read them
        real = verify_companions(5, 0).checks
        monkeypatch.setattr(verify, "_umbral_factor", bumped_umbral_factor)
        found = statuses(verify_companions(5, 0).checks)
        assert found == {"FEL1_SIGNFLIP": {"fail"}, "FEL2_ZIGZAG": {"pass"}}
        monkeypatch.setattr(verify, "zigzag", lambda j: zigzag(j) + 1)
        found = statuses(verify_companions(5, 0).checks)
        assert found == {"FEL1_SIGNFLIP": {"fail"}, "FEL2_ZIGZAG": {"fail"}}
        monkeypatch.undo()
        assert verify_companions(5, 0).checks == real

    def test_swapped_product_kernel_builds_its_own_plans(self, monkeypatch):
        # the umbral factors' pair products come from _egf_mul: a bumped one
        # must not read the real plans when they are cached, nor leave its
        # own for the real kernel when they are not
        real = verify_companions(5, 0).checks
        for cached in (True, False):
            if not cached:
                _signflip_plan.cache_clear()
            monkeypatch.setattr(verify, "_egf_mul", bumped_egf_entry_6)
            found = statuses(verify_companions(5, 0).checks)
            assert found == {"FEL1_SIGNFLIP": {"pass", "fail"}, "FEL2_ZIGZAG": {"pass"}}, cached
            monkeypatch.undo()
            assert verify_companions(5, 0).checks == real, cached

    def test_rebuilt_t_n_rows_build_their_own_plans(self, monkeypatch):
        # a changed B_4 reaches T_n only through a rebuilt t_symbolic row; the
        # umbral factors keep the Bernoulli table _scaled_bernoulli cached
        real_bernoulli = universal.bernoulli
        real = verify_companions(5, 0).checks
        monkeypatch.setattr(
            universal, "bernoulli", lambda k: real_bernoulli(k) + Fraction(1, 30) if k == 4 else real_bernoulli(k)
        )
        t_symbolic.cache_clear()
        try:
            found = statuses(verify_companions(5, 0).checks)
        finally:
            monkeypatch.undo()
            t_symbolic.cache_clear()
        assert found == {"FEL1_SIGNFLIP": {"pass", "fail"}, "FEL2_ZIGZAG": {"pass"}}
        assert verify_companions(5, 0).checks == real

    def test_plan_caches_do_not_grow_with_the_draws(self):
        verify_companions(1, 0)
        sizes = _zigzag_plan.cache_info().currsize, _signflip_plan.cache_info().currsize
        for samples, seed in zip((1, 2, 3, 4, 5, 7, 9, 12, 16, 21), range(100, 110)):
            verify_companions(samples, seed)
        assert (_zigzag_plan.cache_info().currsize, _signflip_plan.cache_info().currsize) == sizes


class TestDraws:
    # no width here is a power of two, so Random._randbelow's rejection loop
    # runs for each: width 19 draws 5 bits and rejects 13 of their 32 values
    RANGES = [(1, 4), (-9, 9), (1, 9)]

    @pytest.mark.parametrize("lo, hi", RANGES)
    def test_same_values_as_randint(self, lo, hi):
        ours, theirs = random.Random(17), random.Random(17)
        drawn = [_randint(ours, lo, hi) for _ in range(2000)]
        assert drawn == [theirs.randint(lo, hi) for _ in range(2000)]
        assert set(drawn) == set(range(lo, hi + 1))
        assert ours.getstate() == theirs.getstate()

    def test_interleaved_ranges_keep_the_stream(self):
        for seed in range(50):
            order = random.Random(1000 + seed).choices(self.RANGES, k=400)
            ours, theirs = random.Random(seed), random.Random(seed)
            assert [_randint(ours, lo, hi) for lo, hi in order] == [
                theirs.randint(lo, hi) for lo, hi in order
            ]
            assert ours.random() == theirs.random()


class TestUmbralCoefficient:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_sparse_product_equals_the_dense_one(self, n):
        factors = {v: _umbral_factor(v, n) for v in range(1, 10)}
        # B_k = 0 for the odd k >= 3, so each factor vanishes off ks
        ks = [0, 1, *range(2, n + 1, 2)]
        assert all(f[k] == 0 for f in factors.values() for k in range(n + 1) if k not in ks)
        rows = [_binomial_row(m) for m in range(n + 1)]
        for size in range(1, 5):
            for d in combinations_with_replacement(range(1, 10), size):
                dense = factors[d[0]]
                for v in d[1:]:
                    dense = _egf_mul(factors[v], dense, n)
                assert _umbral_coefficient([factors[v] for v in d], ks, rows) == dense[n], d

    @pytest.mark.parametrize("kernel", [_umbral_factor, bumped_umbral_entry_2], ids=["real", "entry_2_plus_1"])
    def test_pair_products_equal_the_direct_convolution(self, kernel):
        multisets = [d for m in range(1, 5) for d in combinations_with_replacement(range(1, 10), m)]
        assert len(multisets) == 714
        for n in range(2, SIGNFLIP_N + 1):
            factors = {v: kernel(v, n) for v in range(1, 10)}
            ks = [k for k in range(n + 1) if any(f[k] for f in factors.values())]
            rows = [_binomial_row(m) for m in range(n + 1)]
            *_, heads, tails = _signflip_plan(n, t_symbolic(n), kernel, _scaled_bernoulli, _egf_mul)
            for d in multisets:
                expected = _umbral_coefficient([factors[v] for v in d], ks, rows)
                # a sample lists its entries in the order they were drawn
                for drawn in set(permutations(d)):
                    assert _umbral_side(heads, tails, drawn) == expected, (n, drawn)


class TestAssembledReport:
    def test_records_come_in_report_order(self):
        for gens in GENERATORS_M1_TO_M6:
            S = make_semigroup(gens)
            for p_max in range(9):
                # the default order, an explicit one above it, and 0, which is raised
                for order in (None, S.m + p_max + 3, 0):
                    keys = _report_keys(verify_semigroup(S, p_max, order))
                    assert keys == sorted(keys), (gens, p_max, order)

    def test_companion_records_come_in_report_order(self):
        # the companion report as the verify command emits it
        parser = cli.build_parser()
        for seed in range(6):
            for samples in (1, 4):
                argv = ["verify", "1", "--samples", str(samples), "--seed", str(seed)]
                doc = cli.cmd_verify(parser.parse_args(argv))
                companions = doc["reports"][-1]
                assert companions.generators is None
                keys = _report_keys(companions)
                assert keys == sorted(keys), (seed, samples)
                assert keys[0][0] < keys[-1][0]

    def test_eq_final_is_entry_m_plus_p_of_one_minus_q(self):
        for gens in GENERATORS_M1_TO_M6:
            S = make_semigroup(gens)
            for p_max in (0, 3, 8):
                report = verify_semigroup(S, p_max)
                finals, entries = eq_final_and_one_minus_q(report, S.m)
                assert len(finals) == p_max + 1
                assert finals == entries, (gens, p_max)

    def test_order_auto_raise(self):
        S = make_semigroup([5, 6, 8, 9])
        report = verify_semigroup(S, p_max=8, order=5)
        assert report.order == 12
        assert report.warnings and "raised" in report.warnings[0]

    def test_effective_order(self):
        assert effective_order(2, 8, None) == (12, None)
        assert effective_order(2, 8, 15) == (15, None)
        order, warning = effective_order(4, 8, 3)
        assert order == 12 and "raised" in warning
        # the limits it owns, refused before any work
        with pytest.raises(ValueError, match="p_max must be nonnegative"):
            effective_order(2, -1, None)
        for p_max, order in ((ORDER_MAX - 3, None), (0, ORDER_MAX + 1), (ORDER_MAX - 1, 3)):
            with pytest.raises(OrderTooLarge, match=f"got {ORDER_MAX + 1}$"):
                effective_order(2, p_max, order)
        assert effective_order(2, ORDER_MAX - 4, None) == (ORDER_MAX, None)
        assert effective_order(2, 0, ORDER_MAX) == (ORDER_MAX, None)
        order, warning = effective_order(2, ORDER_MAX - 2, 3)
        assert order == ORDER_MAX and "raised" in warning

    def test_report_passes_end_to_end(self):
        rng = random.Random(109)
        for _ in range(6):
            S = random_semigroup(rng, 4, 30)
            report = verify_semigroup(S, p_max=6)
            assert report.passed


class TestPrintedValues:
    """The values that passing records print, against str(Fraction) of C_n
    from the gap-route numerator of the oracles: FEL_MAIN and LOW_ORDER_K
    print K_p, EQ_FINAL and the entries of LEMMA_ONE_MINUS_Q print C_n/n!.
    A wrong denominator here passes every record, since both sides share it."""

    @staticmethod
    def _drawn(count, seed):
        rng = random.Random(seed)
        while count:
            gens = rng.sample(range(2, 41), rng.randint(2, 6))
            if gcd(*gens) == 1:
                count -= 1
                yield make_semigroup(gens)

    def test_k_p_and_c_n_over_n_factorial(self):
        p_max = 8
        for S in self._drawn(30, 113):
            m, q = S.m, numerator_by_gap_route(S.generators)
            report = verify_semigroup(S, p_max)
            assert report.passed, S.generators
            C = [(n == 0) - sum(c * e**n for e, c in enumerate(q)) for n in range(report.order + 1)]
            sign = (-1) ** m
            K = [str(F(C[m + p], sign * S.pi * factorial(m + p) // factorial(p))) for p in range(p_max + 1)]
            c_n = [str(F(C[n], factorial(n))) for n in range(report.order + 1)]
            fel = [c.lhs for c in _by_identity(report.checks, "FEL_MAIN")]
            low = [c.lhs for c in _by_identity(report.checks, "LOW_ORDER_K")]
            finals = [c.lhs for c in _by_identity(report.checks, "EQ_FINAL")]
            (lemma,) = _by_identity(report.checks, "LEMMA_ONE_MINUS_Q")
            assert (fel, low) == (K, K[:4]), S.generators
            assert finals == c_n[m : m + p_max + 1], S.generators
            assert lemma.lhs.split(" ") == c_n, S.generators


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
class TestDigitLimit:
    def test_named_error_and_the_limit_left_as_it_is(self):
        # (2, 10^700 + 1) at p_max 4: K_4 prints 3,505 digits, and the
        # series lemmas at order 8 up to 6,299. The library names the limit
        # and leaves the interpreter's setting as it is.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            S = make_semigroup((2, 10**700 + 1))
            with pytest.raises(DigitLimitExceeded, match=r"set_int_max_str_digits\(0\)"):
                verify_semigroup(S, 4)
            assert sys.get_int_max_str_digits() == 4300
            assert issubclass(DigitLimitExceeded, ValueError)
            # every per-semigroup record but M2_CLOSED_FORM's numerator form
            # holds integers over one denominator; that polynomial record is
            # rendered by str() instead
            big = IntPolynomial.from_terms([(0, 10**4300)])
            with pytest.raises(DigitLimitExceeded):
                verify._record("M2_CLOSED_FORM", None, big, IntPolynomial.one_minus_pow(3))
            sys.set_int_max_str_digits(0)
            assert verify_semigroup(S, 4).passed
        finally:
            sys.set_int_max_str_digits(limit)


class TestCheckRecord:
    def test_pass_iff_equal(self):
        from felcheck.verify import _record

        assert _record("FEL_MAIN", 0, F(1, 2), F(1, 2)).status == "pass"
        assert _record("FEL_MAIN", 0, F(1, 2), F(1, 3)).status == "fail"
