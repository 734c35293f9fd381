"""Numerical semigroups: validation, Apéry and gap sets, and gap power sums."""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd, prod
from operator import index, mul

from .exact import NonExactDivision, power_sums
from .universal import _binomial_row

DEFAULT_BOUND = 10**7

# Largest least generator a, the size of the Apéry set, that apery_set
# accepts by default; verify and hilbert read the Apéry set and never the
# gaps, so their cost grows with a. On a 2-core VM, `felcheck verify` on
# three primes near a with --p-max 6 takes 0.55 s and 34 MB at a = 10^5,
# 1.1 s and 65 MB at 3 * 10^5, and 3.4 s and 183 MB just below 10^6; six
# primes near 10^5 take 0.6 s and 47 MB. The limit bounds a, not the whole
# cost: the Hilbert numerator is merged from up to a * 2^(m-1) terms.
APERY_MAX = 10**6


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


class AperyTooLarge(BoundExceeded):
    """The least generator, the size of the Apéry set, is above the bound."""


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
    g = gcd(*gens)
    if g != 1:
        raise GcdNotOne(f"generators {list(gens)} have gcd {g}")
    return SemigroupSpec(gens, len(gens), prod(gens))


def least_generator(S: SemigroupSpec, bound: int) -> int:
    """The least generator a, the size of the Apéry set; above bound it is
    refused with AperyTooLarge."""
    a = min(S.generators)
    if a > bound:
        raise AperyTooLarge(f"least generator {a} exceeds bound {bound}")
    return a


def apery_set(S: SemigroupSpec, bound: int = APERY_MAX) -> list[int]:
    """Smallest semigroup element in each residue class mod the least generator.

    Computed by Dijkstra relaxation on the residue graph; entry r is the least
    element of S congruent to r mod min(generators). A least generator above
    bound is refused up front with AperyTooLarge.
    """
    a = least_generator(S, bound)
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
    apery = tuple(apery_set(S, bound))
    gaps = []
    for w in apery:
        n = w - a
        while n > 0:
            gaps.append(n)
            n -= a
    gaps.sort()
    frobenius = max(apery) - a  # equals -1 exactly when a == 1 (no gaps)
    return GapData(tuple(gaps), frobenius, len(gaps), apery)


def _range_power_sums(a: int, n_max: int) -> list[int]:
    """R_n = sum_{r<a} r^n for 0 <= n <= n_max, with 0^0 = 1, without a
    pass over range(a).

    The telescoping sum of (r+1)^(n+1) - r^(n+1) over r < a gives
    sum_{k<=n} C(n+1, k) R_k = a^(n+1), solved for R_n by exact division by
    n + 1: O(n_max^2) big-integer operations, where the power_sums kernel
    over range(a) takes O(a n_max). Timed on a 2-core VM, the two cross near
    a = n_max / 2 up to n_max = 70, near a = n_max at 300 and near
    a = 1.6 n_max at 501, so gap_power_sums takes this route when
    a > n_max, which costs at most about a factor 1.5. At a = 300 and
    n_max = 13 it takes 0.03 ms and the kernel 0.5 ms; at a = 20 and
    n_max = 501, 107 ms and 3.5 ms.
    """
    R = []
    power = 1
    for n in range(n_max + 1):
        power *= a
        R.append((power - sum(map(mul, _binomial_row(n + 1), R))) // (n + 1))
    return R


def gap_power_sums(W, r_max: int) -> list[int]:
    """All gap power sums G_r for 0 <= r <= r_max, from the Apéry set alone.

    W holds W_n = sum_w w^n over the Apéry set for n <= r_max + 1 (at
    least), so W_0 = a, the least generator. The gaps congruent to w mod a
    are w - a, w - 2a, ... down to the least positive one, so
    Phi(z) (z^a - 1) = sum_w z^w - sum_{r<a} z^r. At z = e^t the n-th EGF
    coefficient reads sum_{k=1..n} C(n, k) a^k G_{n-k} = W_n - R_n, with
    R_n = sum_{r<a} r^n; its k = 1 term n a G_{n-1} is solved for,
    exactly. R takes no pass over range(a) once a > r_max + 1
    (_range_power_sums), so beyond the one pass over the Apéry set that
    made W this costs O(r_max^2) big-integer operations, instead of
    O(genus r_max) (Tuenter, J. Number Theory 117, 2006).
    """
    if r_max < 0:
        raise ValueError("power must be nonnegative")
    if len(W) < r_max + 2:
        raise ValueError(f"G_{r_max} needs W_0 .. W_{r_max + 1}, got {len(W)} sums")
    a = W[0]
    R = _range_power_sums(a, r_max + 1) if a > r_max + 1 else power_sums(range(a), r_max + 1)
    G = []
    for n in range(1, r_max + 2):
        row = _binomial_row(n)
        # acc = sum_{k=2..n} C(n, k) a^(k-2) G_{n-k}, by Horner's rule in a;
        # a^2 acc is the k >= 2 part of the sum
        acc = 0
        for term in map(mul, row[n:1:-1], G):
            acc = acc * a + term
        g, rem = divmod(W[n] - R[n] - acc * a * a, n * a)
        if rem:
            raise NonExactDivision(f"G_{n - 1} from the Apéry set is not an integer")
        G.append(g)
    return G

