"""Hilbert numerators of semigroup rings and alternating syzygy power sums.

The Hilbert series of the semigroup is Q(z) / prod_i (1 - z^{d_i}). It also
equals Ap(z) / (1 - z^a), where a is the least generator and Ap(z) has a unit
coefficient at each element of the Apéry set of a. So the numerator is the
sparse product Q = Ap(z) * prod (1 - z^{d_i}) over every generator except one
copy of a: at most a * 2^(m-1) terms, built from the Apéry set alone without
any series truncation. The gap polynomial Phi and P = prod (1 - z^{d_i}) are
still built, for the series identities that use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .exact import IntPolynomial
from .semigroup import GapData, SemigroupSpec


@dataclass(frozen=True)
class HilbertData:
    phi: IntPolynomial  # gap polynomial, 0/1 coefficients at gap exponents
    prod: IntPolynomial  # product of (1 - z^{d_i})
    numerator: IntPolynomial  # Hilbert numerator Q, constant term 1


@dataclass(frozen=True)
class SyzygyValues:
    """Alternating syzygy power sums c[r] and normalized invariants k[p]."""

    c: dict[int, int]
    k: dict[int, Fraction]


def gap_polynomial(gaps: GapData) -> IntPolynomial:
    """Polynomial with coefficient 1 at each gap exponent."""
    return IntPolynomial.from_terms((g, 1) for g in gaps.gaps)


def product_polynomial(S: SemigroupSpec) -> IntPolynomial:
    """Expanded product of (1 - z^{d_i}) over all generators."""
    out = IntPolynomial([1])
    for d in S.generators:
        out = out * IntPolynomial.one_minus_pow(d)
    return out


def hilbert_numerator(S: SemigroupSpec, gaps: GapData) -> HilbertData:
    """Exact Hilbert numerator computed as Ap(z) * prod_{i != i0} (1 - z^{d_i}),
    where d_{i0} is one copy of the least generator."""
    rest = list(S.generators)
    rest.remove(min(rest))
    numerator = IntPolynomial.from_terms((w, 1) for w in sorted(gaps.apery))
    for d in rest:
        numerator = numerator * IntPolynomial.one_minus_pow(d)
    return HilbertData(gap_polynomial(gaps), product_polynomial(S), numerator)


def alternating_syzygy_sum(h: HilbertData, r: int) -> int:
    """Sum of n^r times the z^n coefficient of 1 - Q(z), with 0^0 = 1."""
    if r < 0:
        raise ValueError("power must be nonnegative")
    diff = IntPolynomial([1]) - h.numerator
    return sum(c * n**r for n, c in diff.items())


def alternating_syzygy_sums(h: HilbertData, r_max: int) -> list[int]:
    """All alternating syzygy power sums for 0 <= r <= r_max in one pass."""
    return (IntPolynomial([1]) - h.numerator).power_sums(r_max)


def k_denominator(S: SemigroupSpec, p: int) -> int:
    """The normaliser of the p-th invariant: (-1)^m * pi * (m+p)!/p!."""
    return (-1) ** S.m * S.pi * (factorial(S.m + p) // factorial(p))


def k_invariant(S: SemigroupSpec, h: HilbertData, p: int) -> Fraction:
    """Normalized invariant: the (m+p)-th alternating sum divided by k_denominator(S, p)."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    return Fraction(alternating_syzygy_sum(h, S.m + p), k_denominator(S, p))


def syzygy_values(S: SemigroupSpec, h: HilbertData, p_max: int) -> SyzygyValues:
    """Alternating sums for r <= m + p_max together with the invariants for p <= p_max."""
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    sums = alternating_syzygy_sums(h, S.m + p_max)
    c = dict(enumerate(sums))
    k = {p: Fraction(sums[S.m + p], k_denominator(S, p)) for p in range(p_max + 1)}
    return SyzygyValues(c, k)
