"""Property tests: the Apéry-built Hilbert numerator against two independent
routes, and its cancelling merge against the IntPolynomial product; the
Apéry-built gap power sums against the gap list of a representability
table, and the sums of r^n over r < a by their recurrence against the
power-sum kernel; the Faulhaber sums per residue class that verify reads
for Phi(e^t) against a scan of the gap list and against the full Bernoulli
convolution; the sparse IntPolynomial
against dense reference arithmetic, and the integer-built values T_n(x) against the Fraction
series route; the surjection-number kernel for prod (e^{p u} - 1) and for
P/(1 - z) at z = e^t against binomial convolution and long division; and
K_p from Q against Fel's formula as the paper states it, with T_n from the
Fraction series."""

from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from felcheck.exact import IntPolynomial, NonExactDivision, power_sums  # noqa: E402
from felcheck.hilbert import hilbert_numerator, k_denominator, product_polynomial  # noqa: E402
from felcheck.semigroup import (  # noqa: E402
    _range_power_sums,
    apery_set,
    compute_gaps,
    gap_power_sums,
    make_semigroup,
)
from felcheck.universal import (  # noqa: E402
    _egf_mul,
    _exp_minus_one_product,
    _scaled_bernoulli,
    t_values,
)
from felcheck.verify import (  # noqa: E402
    _gap_power_sums_by_classes,
    _quotient_power_sums,
    invariants,
)

from oracles import (  # noqa: E402
    dense_at_exp,
    dense_divmod,
    dense_mul,
    dense_sub,
    dense_trim,
    delta_by_series,
    exp_minus_one_product_by_convolution,
    gaps_by_table,
    numerator_by_gap_route,
    numerator_by_membership,
    poly_sub,
    sigma_by_series,
)

SETTINGS = settings(max_examples=60, deadline=None)


def terms_of(coeffs):
    return tuple((e, c) for e, c in enumerate(dense_trim(coeffs)) if c)


# Generator lists with gcd 1: sizes 1 to max_size up to 30, so duplicates
# and the generator 1 occur. A list with a larger gcd gets a 1 or the
# neighbour of its first entry appended.
@st.composite
def generator_lists(draw, max_size=5):
    gens = draw(st.lists(st.integers(1, 30), min_size=1, max_size=max_size))
    if gcd(*gens) != 1:
        gens.append(gens[0] + 1 if draw(st.booleans()) else 1)
    return draw(st.permutations(gens))


@SETTINGS
@given(generator_lists())
@example([1])
@example([1, 5])
@example([3, 3, 5])
@example([6, 4, 4, 5, 6])
@example([2, 3])
def test_apery_numerator_matches_both_oracles(gens):
    S = make_semigroup(gens)
    gaps = compute_gaps(S)
    h = hilbert_numerator(S, gaps.apery)
    assert tuple(h.numerator.items()) == terms_of(numerator_by_gap_route(gens))
    assert tuple(h.numerator.items()) == terms_of(numerator_by_membership(gens))
    one_minus_z = IntPolynomial.one_minus_pow(1)
    phi = IntPolynomial.from_terms((g, 1) for g in gaps.gaps)
    assert h.numerator == poly_sub(h.prod.exact_div(one_minus_z), phi * h.prod)


small_coeffs = st.lists(st.integers(-4, 4), max_size=9)
# Sparse shapes: a few terms spread over a wide exponent range.
wide_terms = st.dictionaries(st.integers(0, 400), st.integers(-5, 5), max_size=6)


@SETTINGS
@given(generator_lists(max_size=6))
@example([1])
@example([3, 3, 5])
@example([4, 6, 10, 5])
@example([5, 5, 5, 6, 6, 7])
@example([2, 3, 4, 5, 6, 7])
def test_merged_numerator_matches_the_product(gens):
    # Q and P by the cancelling dict merge against IntPolynomial.__mul__,
    # with duplicate and redundant generators kept as given
    S = make_semigroup(gens)
    apery = apery_set(S)
    by_product = IntPolynomial.from_terms((w, 1) for w in sorted(apery))
    for d in sorted(gens)[1:]:
        by_product = by_product * IntPolynomial.one_minus_pow(d)
    prod = IntPolynomial([1])
    for d in gens:
        prod = prod * IntPolynomial.one_minus_pow(d)
    h = hilbert_numerator(S, apery)
    assert h.numerator == by_product
    assert h.prod == prod
    assert all(c for _, c in h.numerator.items())
    assert all(c for _, c in h.prod.items())


def dense_of(terms):
    out = [0] * (max(terms, default=-1) + 1)
    for e, c in terms.items():
        out[e] = c
    return dense_trim(out)


polys = st.one_of(small_coeffs.map(dense_trim), wide_terms.map(dense_of))


@SETTINGS
@given(polys, polys)
def test_ring_operations_match_dense(a, b):
    pa, pb = IntPolynomial(a), IntPolynomial(b)
    assert tuple(poly_sub(pa, pb).items()) == terms_of(dense_sub(a, b))
    assert tuple((pa * pb).items()) == terms_of(dense_mul(a, b))
    assert pa.coeffs == tuple(a)
    assert pa.degree == len(a) - 1
    terms = dict(pa.items())
    assert all(terms.get(n, 0) == (a[n] if n < len(a) else 0) for n in range(len(a) + 2))


@SETTINGS
@given(polys)
def test_evaluation_matches_dense(a):
    assert list(IntPolynomial(a).at_exp(6).coeffs) == dense_at_exp(a, 6)


@SETTINGS
@given(polys, polys)
def test_exact_div_matches_dense_division(a, b):
    pa, pb = IntPolynomial(a), IntPolynomial(b)
    if not b:
        with pytest.raises(NonExactDivision):
            pa.exact_div(pb)
        return
    assert (pa * pb).exact_div(pb) == pa
    quot, rem = dense_divmod(a, b)
    if rem or any(c.denominator != 1 for c in quot):
        with pytest.raises(NonExactDivision):
            pa.exact_div(pb)
    else:
        assert tuple(pa.exact_div(pb).items()) == terms_of([int(c) for c in quot])


def test_exact_div_rejects_remainder_and_fractional_quotient():
    with pytest.raises(NonExactDivision, match="remainder"):
        IntPolynomial([1, 0, 1]).exact_div(IntPolynomial([1, 1]))
    with pytest.raises(NonExactDivision, match="not integral"):
        IntPolynomial([2, 3]).exact_div(IntPolynomial([2]))
    with pytest.raises(NonExactDivision):
        IntPolynomial([1, 1, 1]).exact_div(IntPolynomial([0, 2]))
    assert IntPolynomial([2, 4]).exact_div(IntPolynomial([2])) == IntPolynomial([1, 2])


def test_from_terms():
    p = IntPolynomial.from_terms([(0, 1), (2, 0), (3, 4)])
    assert tuple(p.items()) == ((0, 1), (3, 4))
    assert p == IntPolynomial([1, 0, 0, 4])
    assert IntPolynomial.from_terms([]) == IntPolynomial()
    for bad in ([(-1, 1)], [(3, 1), (0, 1)], [(2, 1), (2, -1)], [(1, 0), (1, 5)]):
        with pytest.raises(ValueError):
            IntPolynomial.from_terms(bad)


def test_huge_degree_stays_sparse():
    q = IntPolynomial.one_minus_pow(10**9) * IntPolynomial.one_minus_pow(10**9 + 7)
    assert len(tuple(q.items())) == 4 and q.degree == 2 * 10**9 + 7
    assert q.exact_div(IntPolynomial.one_minus_pow(10**9)) == IntPolynomial.one_minus_pow(10**9 + 7)
    values = [sum(c * x**e for e, c in q.items()) for x in (0, 1, -1)]
    assert values == [1, 0, 0]


# Vectors of 0-5 nonzero rationals, negative and non-integer ones included;
# a drawn flag repeats the first entry, so duplicates occur often.
@st.composite
def rational_vectors(draw):
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
    xs = draw(st.lists(entry, max_size=5))
    if xs and draw(st.booleans()):
        xs.append(xs[0])
    return tuple(xs)


@settings(max_examples=40, deadline=None)
@given(rational_vectors(), st.integers(0, 70))
@example((), 0)
@example((), 70)
@example((1,), 0)
@example((Fraction(-7, 3), Fraction(5, 2), Fraction(5, 2)), 70)
@example((3, 3, 5, 7), 70)
def test_egf_series_match_fraction_route(x, order):
    assert t_values(x, order) == [factorial(n) * c for n, c in enumerate(sigma_by_series(x, order))]


@SETTINGS
@given(generator_lists(), st.integers(0, 14))
@example([1], 6)
@example([1, 1], 3)
@example([4, 4, 5], 9)
@example([7, 3, 3, 7], 12)
def test_apery_gap_sums_match_table_oracle(gens, r_max):
    gaps = gaps_by_table(gens)
    expected = [sum(g**r for g in gaps) for r in range(r_max + 1)]
    W = power_sums(apery_set(make_semigroup(gens)), r_max + 1)
    assert gap_power_sums(W, r_max) == expected


@SETTINGS
@given(generator_lists(), st.integers(0, 40))
@example([1], 0)
@example([1], 12)
@example([2, 3], 0)
@example([5, 6, 8, 9], 60)
@example([29, 30], 3)
def test_gap_sums_by_classes_match_the_gap_scan(gens, order):
    S = make_semigroup(gens)
    scan = power_sums(compute_gaps(S).gaps, order)
    assert _gap_power_sums_by_classes(power_sums(apery_set(S), order + 1), order) == (scan, 1)


@SETTINGS
@given(st.integers(1, 400), st.integers(0, 80))
@example(1, 0)
@example(1, 80)
@example(80, 80)
@example(81, 80)
@example(400, 0)
@example(150, 200)
@example(250, 200)
@example(20, 501)
@example(999, 501)
def test_range_sums_recurrence_matches_the_kernel(a, n_max):
    # gap_power_sums takes the recurrence when a > n_max and the kernel
    # otherwise; the two agree on either side of that line
    assert _range_power_sums(a, n_max) == power_sums(range(a), n_max)


def phi_by_full_convolution(W, order):
    """_gap_power_sums_by_classes with the whole Bernoulli row convolved,
    zero entries and all, by _egf_mul."""
    a = W[0]
    L, bern = _scaled_bernoulli(order + 1)
    scaled = [b * a**j for j, b in enumerate(bern)]
    sums = _egf_mul(scaled, W, order + 1)
    nums = [v - a * b for v, b in zip(sums[1:], bern[1:])]
    dens = [(n + 1) * a * L for n in range(order + 1)]
    M = lcm(*(d // gcd(v, d) for v, d in zip(nums, dens)))
    return [v * M // d for v, d in zip(nums, dens)], M


@SETTINGS
@given(st.lists(st.integers(0, 500), min_size=1, max_size=40), st.integers(0, 40))
@example([0], 0)
@example([0, 6, 12, 8, 9], 12)
@example([0, 7, 12, 8, 9], 12)
@example([3, 1], 40)
def test_phi_skipping_zero_bernoulli_entries_matches_the_full_convolution(values, order):
    # any list stands in for the Apéry set, so M > 1 occurs too
    W = power_sums(values, order + 1)
    assert _gap_power_sums_by_classes(W, order) == phi_by_full_convolution(W, order)


# Signed integer vectors for the product of the factors e^{p u} - 1: lengths
# 0-6 with |p| <= 60; a drawn flag repeats the first entry.
@st.composite
def signed_vectors(draw):
    ps = draw(st.lists(st.integers(-60, 60).filter(bool), max_size=6))
    if ps and len(ps) < 6 and draw(st.booleans()):
        ps.append(ps[0])
    return ps


@settings(max_examples=60, deadline=None)
@given(signed_vectors(), st.integers(0, 80))
@example([], 0)
@example([], 80)
@example([1], 0)
@example([-1], 80)
@example([1, -1, 1, -1], 80)
@example([60, 60, -60, -60, 59, -1], 80)
@example([3, 3, 3, 3, 3, 3], 2)
@example([-7, -7, -7], 80)
def test_exp_minus_one_product_matches_convolution(ps, n_max):
    assert _exp_minus_one_product(ps, n_max) == exp_minus_one_product_by_convolution(ps, n_max)


@SETTINGS
@given(generator_lists(), st.integers(0, 40))
@example([1], 0)
@example([1], 12)
@example([1, 1, 2], 7)
@example([30, 29, 28, 27, 26], 40)
def test_quotient_power_sums_match_long_division(gens, order):
    P = product_polynomial(make_semigroup(gens))
    by_division = P.exact_div(IntPolynomial.one_minus_pow(1)).power_sums(order)
    assert _quotient_power_sums(P, order) == by_division


@SETTINGS
@given(generator_lists())
@example([3, 5])
@example([4, 5, 6])
@example([5, 6, 8, 9])
@example([7, 11, 13, 17, 19])
@example([2, 3, 3])
@example([1])
def test_fel_formula_as_stated(gens):
    """K_p = sum_r C(p, r) T_{p-r}(d) G_r + 2^{p+1}/(p+1) T_{p+1}(delta) for
    p <= 8: the left side from the power sums of Q, the right side from the
    Fraction series sigma_by_series and delta_by_series, which share no code
    with E, and the gap list of a table."""
    inv = invariants(make_semigroup(gens), p_max=8)
    gaps = gaps_by_table(gens)
    G = [sum(g**r for g in gaps) for r in range(9)]
    sigma, delta = sigma_by_series(gens, 9), delta_by_series(gens, 9)
    T = [factorial(n) * sigma[n] for n in range(10)]
    T_delta = [Fraction(factorial(n), 2**n) * delta[n] for n in range(10)]
    K = [Fraction(inv.c[inv.S.m + p], k_denominator(inv.S, p)) for p in range(9)]
    for p in range(9):
        stated = sum(comb(p, r) * T[p - r] * G[r] for r in range(p + 1))
        stated += Fraction(2 ** (p + 1), p + 1) * T_delta[p + 1]
        assert K[p] == stated
