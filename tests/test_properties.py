"""Property tests: the Apéry-built Hilbert numerator against two independent
routes, the Apéry-built gap power sums against the gap list of a
representability table, the sparse IntPolynomial against dense reference
arithmetic, and the integer-built T_n generating series against the Fraction
series route."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from felcheck.exact import IntPolynomial, NonExactDivision  # noqa: E402
from felcheck.hilbert import hilbert_numerator  # noqa: E402
from felcheck.semigroup import compute_gaps, gap_power_sums, make_semigroup  # noqa: E402
from felcheck.universal import delta_egf, sigma_egf, umbral_series  # noqa: E402

from oracles import (  # noqa: E402
    dense_add,
    dense_at_exp,
    dense_divmod,
    dense_eval,
    dense_mul,
    dense_sub,
    dense_trim,
    delta_by_series,
    gaps_by_table,
    numerator_by_gap_route,
    numerator_by_membership,
    sigma_by_series,
    umbral_by_series,
)

SETTINGS = settings(max_examples=60, deadline=None)


def terms_of(coeffs):
    return tuple((e, c) for e, c in enumerate(dense_trim(coeffs)) if c)


# Generator lists with gcd 1: sizes 1-5 up to 30, so duplicates and the
# generator 1 occur. A list with a larger gcd gets a 1 or the neighbour of
# its first entry appended.
@st.composite
def generator_lists(draw):
    gens = draw(st.lists(st.integers(1, 30), min_size=1, max_size=5))
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
    h = hilbert_numerator(S, compute_gaps(S))
    assert tuple(h.numerator.items()) == terms_of(numerator_by_gap_route(gens))
    assert tuple(h.numerator.items()) == terms_of(numerator_by_membership(gens))
    one_minus_z = IntPolynomial.one_minus_pow(1)
    assert h.numerator == h.prod.exact_div(one_minus_z) - h.phi * h.prod


small_coeffs = st.lists(st.integers(-4, 4), max_size=9)
# Sparse shapes: a few terms spread over a wide exponent range.
wide_terms = st.dictionaries(st.integers(0, 400), st.integers(-5, 5), max_size=6)


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
    assert tuple((pa + pb).items()) == terms_of(dense_add(a, b))
    assert tuple((pa - pb).items()) == terms_of(dense_sub(a, b))
    assert tuple((pa * pb).items()) == terms_of(dense_mul(a, b))
    assert tuple((-pa).items()) == terms_of([-c for c in a])
    assert pa.coeffs == tuple(a)
    assert pa.degree == len(a) - 1
    assert all(pa.coeff(n) == (a[n] if n < len(a) else 0) for n in range(len(a) + 2))


@SETTINGS
@given(polys, st.integers(-3, 3), st.fractions(max_denominator=5))
def test_evaluation_matches_dense(a, n, x):
    p = IntPolynomial(a)
    assert p(n) == dense_eval(a, n)
    assert p(x) == dense_eval(a, x)
    assert list(p.at_exp(6).coeffs) == dense_at_exp(a, 6)


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
    assert hash(p) == hash(IntPolynomial([1, 0, 0, 4]))
    assert IntPolynomial.from_terms([]) == IntPolynomial()
    for bad in ([(-1, 1)], [(3, 1), (0, 1)], [(2, 1), (2, -1)], [(1, 0), (1, 5)]):
        with pytest.raises(ValueError):
            IntPolynomial.from_terms(bad)


def test_huge_degree_stays_sparse():
    q = IntPolynomial.one_minus_pow(10**9) * IntPolynomial.one_minus_pow(10**9 + 7)
    assert len(tuple(q.items())) == 4 and q.degree == 2 * 10**9 + 7
    assert q.exact_div(IntPolynomial.one_minus_pow(10**9)) == IntPolynomial.one_minus_pow(10**9 + 7)
    assert (q(0), q(1), q(-1)) == (1, 0, 0)


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
    assert list(sigma_egf(x, order).coeffs) == sigma_by_series(x, order)
    assert list(delta_egf(x, order).coeffs) == delta_by_series(x, order)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 9), max_size=4), st.integers(0, 70))
@example([], 0)
@example([], 12)
@example([4, 4], 0)
@example([1, 1, 9], 70)
def test_umbral_series_matches_fraction_route(d, order):
    assert list(umbral_series(d, order).coeffs) == umbral_by_series(d, order)


@SETTINGS
@given(generator_lists(), st.integers(0, 14))
@example([1], 6)
@example([1, 1], 3)
@example([4, 4, 5], 9)
@example([7, 3, 3, 7], 12)
def test_apery_gap_sums_match_table_oracle(gens, r_max):
    gaps = gaps_by_table(gens)
    expected = [sum(g**r for g in gaps) for r in range(r_max + 1)]
    assert gap_power_sums(compute_gaps(make_semigroup(gens)), r_max) == expected
