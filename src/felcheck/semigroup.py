"""Numerical semigroups: validation, gap sets, and generator power sums."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from operator import add, index, mul

from .exact import IntPolynomial, NonExactDivision

DEFAULT_BOUND = 10**7


class EmptyGenerators(ValueError):
    """At least one generator is required."""


class NonIntegerGenerator(ValueError):
    """Generators must be integers: not floats, strings or bools."""


class NonPositiveGenerator(ValueError):
    """Generators must be positive integers."""


class GcdNotOne(ValueError):
    """Generators must be coprime as a set, else the gap set is infinite."""


class BoundExceeded(ValueError):
    """Generators too large for gap enumeration at desk scale."""


@dataclass(frozen=True)
class SemigroupSpec:
    """Validated generator list; duplicates and redundant entries are kept as given."""

    generators: tuple[int, ...]
    m: int
    pi: int  # product of all generators


@dataclass(frozen=True)
class GapData:
    gaps: tuple[int, ...]  # strictly increasing
    frobenius: int  # -1 when the gap set is empty
    genus: int
    apery: tuple[int, ...]  # apery[r]: least element of S congruent to r mod min(generators)


@dataclass(frozen=True)
class GeneratorStats:
    """Power sums of the generators: sigma[k-1] holds sum(d**k), delta[k-1] holds (sigma_k - 1) / 2**k."""

    sigma: tuple[int, ...]
    delta: tuple[Fraction, ...]


def make_semigroup(generators) -> SemigroupSpec:
    """Validate a generator list (positive integers with gcd 1).

    Anything that is not an integer is refused rather than truncated: floats,
    strings and bools raise NonIntegerGenerator; int subclasses and other
    types with ``__index__`` are accepted.
    """
    gens = []
    for d in generators:
        if isinstance(d, bool):
            raise NonIntegerGenerator(f"generator {d!r} is a bool, not an integer")
        try:
            gens.append(index(d))
        except TypeError:
            raise NonIntegerGenerator(f"generator {d!r} is not an integer") from None
    gens = tuple(gens)
    if not gens:
        raise EmptyGenerators("at least one generator is required")
    for d in gens:
        if d < 1:
            raise NonPositiveGenerator(f"generator {d} is not a positive integer")
    g = 0
    for d in gens:
        g = gcd(g, d)
    if g != 1:
        raise GcdNotOne(f"generators {list(gens)} have gcd {g}")
    pi = 1
    for d in gens:
        pi *= d
    return SemigroupSpec(gens, len(gens), pi)


def apery_set(S: SemigroupSpec) -> list[int]:
    """Smallest semigroup element in each residue class mod the least generator.

    Computed by Dijkstra relaxation on the residue graph; entry r is the least
    element of S congruent to r mod min(generators).
    """
    a = min(S.generators)
    dist = [None] * a
    dist[0] = 0
    steps = sorted(set(S.generators))
    heap = [(0, 0)]
    while heap:
        w, r = heappop(heap)
        if w != dist[r]:
            continue
        for d in steps:
            nw = w + d
            nr = nw % a
            if dist[nr] is None or nw < dist[nr]:
                dist[nr] = nw
                heappush(heap, (nw, nr))
    return dist


def compute_gaps(S: SemigroupSpec, bound: int = DEFAULT_BOUND) -> GapData:
    """Enumerate the gap set from the Apéry set of the least generator.

    n belongs to S iff n >= apery[n mod a], so each residue class contributes
    the arithmetic progression apery[r] - a, apery[r] - 2a, ... of gaps.
    """
    a = min(S.generators)
    if a * max(S.generators) > bound:
        raise BoundExceeded(
            f"min*max generator product {a * max(S.generators)} exceeds bound {bound}"
        )
    apery = tuple(apery_set(S))
    gaps = []
    for w in apery:
        n = w - a
        while n > 0:
            gaps.append(n)
            n -= a
    gaps.sort()
    frobenius = max(apery) - a  # equals -1 exactly when a == 1 (no gaps)
    return GapData(tuple(gaps), frobenius, len(gaps), apery)


def gap_power_sum(gaps: GapData, r: int) -> int:
    """Sum of the r-th powers of the gaps; r = 0 gives the genus."""
    if r < 0:
        raise ValueError("power must be nonnegative")
    return sum(g**r for g in gaps.gaps)


def gap_power_sums(gaps: GapData, r_max: int) -> list[int]:
    """All gap power sums G_r for 0 <= r <= r_max, from the Apéry set alone.

    The gaps congruent to w mod a (w in the Apéry set, a the least
    generator) are w - a, w - 2a, ... down to the least positive one, so
    Phi(z) (z^a - 1) = sum_w z^w - sum_{r<a} z^r. At z = e^t the n-th EGF
    coefficient reads sum_{k=1..n} C(n, k) a^k G_{n-k} = W_n - R_n, with
    W_n = sum_w w^n and R_n = sum_{r<a} r^n; its k = 1 term n a G_{n-1}
    is solved for, exactly. This costs O(a r_max + r_max^2) instead of
    O(genus r_max) (Tuenter, J. Number Theory 117, 2006).
    """
    if r_max < 0:
        raise ValueError("power must be nonnegative")
    a = len(gaps.apery)
    apery = IntPolynomial.from_terms((w, 1) for w in sorted(gaps.apery))
    w_minus_r = (apery - IntPolynomial([1] * a)).power_sums(r_max + 1)
    G = []
    row = [1]  # Pascal's triangle: row n once updated in the loop
    for n in range(1, r_max + 2):
        row = [1, *map(add, row, row[1:]), 1]
        # sum_{k=2..n} C(n, k) a^k G_{n-k}, by Horner's rule in a
        acc = 0
        for term in map(mul, row[n:1:-1], G):
            acc = acc * a + term
        g, rem = divmod(w_minus_r[n] - acc * a * a, n * a)
        if rem:
            raise NonExactDivision(f"G_{n - 1} from the Apéry set is not an integer")
        G.append(g)
    return G


def generator_stats(S: SemigroupSpec, K: int) -> GeneratorStats:
    """Generator power sums sigma_k and shifted variants delta_k for 1 <= k <= K."""
    if K < 1:
        raise ValueError("K must be at least 1")
    sigma = []
    delta = []
    for k in range(1, K + 1):
        s = sum(d**k for d in S.generators)
        sigma.append(s)
        delta.append(Fraction(s - 1, 2**k))
    return GeneratorStats(tuple(sigma), tuple(delta))
