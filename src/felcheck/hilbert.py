"""Hilbert numerators of semigroup rings and alternating syzygy power sums.

The Hilbert series of the semigroup is Q(z) / prod_i (1 - z^{d_i}). It also
equals Ap(z) / (1 - z^a), where a is any generator and Ap(z) has a unit
coefficient at each element of the Apéry set of a. So the numerator is the
sparse product Q = Ap(z) * prod (1 - z^{d_i}) over every generator except one
copy of a, built from the Apéry set alone without any series truncation.
Each binomial is one cancelling merge into a dict of the terms
(_times_binomials), and only the terms that survive are sorted: for
(999961, 999979, 999983) the 999,961 terms of Ap(z) merge into the 6 of Q.
HilbertData holds the series as that numerator over P = prod (1 - z^{d_i}),
built by the same merge; no gap polynomial is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

from .exact import IntPolynomial
from .semigroup import SemigroupSpec


@dataclass(frozen=True)
class HilbertData:
    """The Hilbert series numerator / prod."""

    prod: IntPolynomial  # product of (1 - z^{d_i})
    numerator: IntPolynomial  # Hilbert numerator Q, constant term 1


def _times_binomials(terms: dict, ds) -> IntPolynomial:
    """The polynomial with the exponent -> coefficient dict terms, times
    prod (1 - z^d) over ds; terms is consumed.

    Each binomial is one merge into the dict: the coefficient c at e adds -c
    at e + d, and an entry that reaches zero is deleted.
    """
    for d in ds:
        for e, c in list(terms.items()):
            v = terms.pop(e + d, 0) - c
            if v:
                terms[e + d] = v
    return IntPolynomial._summed(terms)


def product_polynomial(S: SemigroupSpec) -> IntPolynomial:
    """Expanded product of (1 - z^{d_i}) over all generators."""
    return _times_binomials({0: 1}, S.generators)


def hilbert_numerator(S: SemigroupSpec, apery) -> HilbertData:
    """Exact Hilbert numerator computed as Ap(z) * prod_{i != i0} (1 - z^{d_i}),
    where apery is the Apéry set of one copy of d_{i0}, read off as its size:
    semigroup.apery_set gives that of the least generator, but the box Apéry
    set of a free semigroup is that of its first, which need not be least."""
    rest = list(S.generators)
    rest.remove(len(apery))
    return HilbertData(product_polynomial(S), _times_binomials(dict.fromkeys(apery, 1), rest))


def alternating_syzygy_sums(h: HilbertData, r_max: int) -> list[int]:
    """All alternating syzygy power sums for 0 <= r <= r_max in one pass:
    the power sums of 1 - Q."""
    return [(n == 0) - v for n, v in enumerate(h.numerator.power_sums(r_max))]


def k_denominator(S: SemigroupSpec, p: int) -> int:
    """The normaliser of the p-th invariant: (-1)^m * pi * (m+p)!/p!."""
    return (-1) ** S.m * S.pi * perm(S.m + p, S.m)

