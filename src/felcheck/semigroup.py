"""Numerical semigroups: validation, Apéry and gap sets, gap power sums, and
for three generators the Apéry region read off the minimal relations."""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate, repeat
from math import gcd, prod
from operator import add, index, mul, sub

from .exact import IntPolynomial, NonExactDivision, power_sums
from .universal import _binomial_row, _egf_mul

DEFAULT_BOUND = 10**7

# Largest least generator a, the size of the Apéry set, that apery_set
# accepts by default; verify and hilbert read the Apéry set and never the
# gaps, so their cost grows with a. On a 2-core VM, `felcheck verify` on
# four primes near a with --p-max 6 takes 0.4 s and 33 MB at a = 10^5,
# 1.0 s and 85 MB at 3 * 10^5, and 4.1 s and 278 MB just below 10^6; six
# primes near 10^5 take 0.6 s and 47 MB. The limit bounds a, not the whole
# cost: the Hilbert numerator is merged from up to a * 2^(m-1) terms. Three
# generators build no Apéry set (_three_generator_source) and take about
# 0.1 s just below the limit, which applies to them all the same.
APERY_MAX = 10**6

# _three_generator_source lists the a points of its region and sums their
# powers while a <= _POINTS_PER_ORDER * (n_max + 1), and takes EGF products
# over its blocks beyond, whose cost does not grow with a. On a 2-core VM the
# two routes cross near a = 6 (n_max + 1) at n_max = 14 and near
# a = 4 (n_max + 1) at n_max = 40 and 70.
_POINTS_PER_ORDER = 4


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


class AperyRegionWitnessFailed(RuntimeError):
    """A three-generator Apéry region does not have as many points as its
    generator, is not a box or an L-shape, or one of its relations does not
    hold as an integer equation."""


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


def _sums_below(a: int, n_max: int) -> list[int]:
    """R_n = sum_{r<a} r^n for 0 <= n <= n_max, by the cheaper route: the
    recurrence of _range_power_sums once a > n_max, else one pass over
    range(a)."""
    return _range_power_sums(a, n_max) if a > n_max else power_sums(range(a), n_max)


def _progression_sums(d: int, lo: int, hi: int, n_max: int) -> list[int]:
    """sum_{lo <= r < hi} (r d)^n for 0 <= n <= n_max: one pass over the
    hi - lo values when they are at most n_max, else d^n times a difference
    of _sums_below."""
    if hi - lo <= n_max:
        return power_sums(range(lo * d, hi * d, d), n_max)
    R = _sums_below(hi, n_max)
    if lo:
        R = list(map(sub, R, _sums_below(lo, n_max)))
    return list(map(mul, R, accumulate(repeat(d, n_max), mul, initial=1)))


def _least_denominator(ln: int, ld: int, hn: int, hd: int) -> int:
    """The least q >= 1 such that some integer p has ln/ld <= p/q <= hn/hd,
    for ld, hd > 0 and ln/ld <= hn/hd.

    The interval holds an integer, or lies in (f, f + 1) with f its floor;
    then x = f + 1/y, and the least denominator of x is the least numerator
    of y in [1/(hi - f), 1/(lo - f)], all of whose points exceed 1. The
    continued-fraction steps keep the denominator's row (q0, q1) of the
    map y -> x, so the loop runs as many times as Euclid's algorithm.
    """
    q0, q1 = 0, 1
    while True:
        n = -(-ln // ld)  # the least integer >= lo
        if n * hd <= hn:
            return q0 * n + q1
        f = n - 1
        q0, q1 = q0 * f + q1, q0
        ln, ld, hn, hd = hd, hn - f * hd, ld, ln - f * ld


def _least_multiple(b: int, a: int, c: int) -> tuple[int, int, int]:
    """(k, λ, μ): the least k >= 1 with k b in <a, c>, and k b = λ a + μ c
    with λ, μ >= 0 and μ least; gcd(a, b, c) = 1.

    With g = gcd(a, c), A = a/g and C = c/g, k = g j and j b lies in <A, C>
    iff C (j u mod A) <= j b, u = b C^-1 mod A. Writing j u mod A as
    j u - t A, that asks for an integer t with t/j in [(C u - b)/(C A), u/A],
    so the least j is the least denominator in that interval, found in
    O(log a) steps (the same continued fraction as Rødseth's algorithm,
    J. Reine Angew. Math. 301, 1978).
    """
    g = gcd(a, c)
    A, C = a // g, c // g
    u = b * pow(C, -1, A) % A
    j = _least_denominator(C * u - b, C * A, u, A)
    mu = j * u % A
    return g * j, (j * b - C * mu) // A, mu


def _three_generator_region(gens) -> tuple[int, int, int, list, list]:
    """(a, b, c, blocks, relations) for three generators with gcd 1.

    The Apéry set of the generator a is the disjoint union of the blocks
    {λ b + μ c : λ < U, V0 <= μ < V1}, one (U, V0, V1) each, stacked from
    V0 = 0 up with narrowing U. relations holds (k, x, λ, y, μ, z) with
    k x = λ y + μ z, the relations the region rests on.

    An entry that lies in the semigroup of the other two is dropped, as a
    box side 1, and with a 1 every other entry is. A gluing, g = gcd(x, y)
    > 1 with g z in <x, y>, gives the box U = x/g, V = g of x. Any other
    minimal triple a < b < c gives Herzog's L-shape of a (Manuscripta Math.
    3, 1970): with c_b, c_c the least multiples of b and c in the semigroup
    of the other two and c_a a = r_b b + r_c c, the rectangles (c_b, r_c)
    and (r_b, c_c), that is the blocks (c_b, 0, r_c) and (r_b, r_c, c_c).
    """
    x, y, z = sorted(gens)
    if x == 1:
        return 1, y, z, [(1, 0, 1)], []
    c_a, r_b, r_c = _least_multiple(x, y, z)
    c_b, b_x, b_z = _least_multiple(y, x, z)
    c_c, c_x, c_y = _least_multiple(z, x, y)
    rel_a, rel_b, rel_c = (c_a, x, r_b, y, r_c, z), (c_b, y, b_x, x, b_z, z), (c_c, z, c_x, x, c_y, y)
    if c_b == 1:
        return x, z, y, [(x, 0, 1)], [rel_b]
    if c_c == 1:
        return x, y, z, [(x, 0, 1)], [rel_c]
    # a gluing: the least multiple k of r in <p, q> is a multiple of
    # g = gcd(p, q), and equals it iff g r lies in <p, q>
    for p, q, r, (k, *rest) in ((x, y, z, rel_c), (x, z, y, rel_b), (y, z, x, rel_a)):
        if k == gcd(p, q):
            return p, q, r, [(p // k, 0, k)], [(k, *rest)]
    return x, y, z, [(c_b, 0, r_c), (r_b, r_c, c_c)], [rel_a, rel_b, rel_c]


def _three_generator_source(
    S: SemigroupSpec, n_max: int, bound: int = APERY_MAX
) -> tuple[int, list[int], IntPolynomial]:
    """(a, [W_0 .. W_n_max], Q) for a list of three generators, with no
    Apéry set built: a is the generator whose Apéry set the region of
    _three_generator_region is, W_n = sum_w w^n over that set and Q the
    Hilbert numerator. A least generator above bound is refused first, with
    AperyTooLarge, as by apery_set.

    Over a block, sum e^{(λ b + μ c) t} is the EGF product of b^n R_n(U)
    and c^n (R_n(V1) - R_n(V0)), R_n(U) = sum_{r<U} r^n, and the Apéry
    polynomial is (1 - z^{U b})(z^{V0 c} - z^{V1 c}) / ((1 - z^b)(1 - z^c)).
    So Q, that polynomial times (1 - z^b)(1 - z^c), is the sum of the
    blocks' (1 - z^{U b})(z^{V0 c} - z^{V1 c}); for an L-shape these are the
    inclusion-exclusion of its two rectangles and their overlap. That costs
    O(n_max^2) big-integer operations, and the relations O(log a) steps, at
    any a; below a = _POINTS_PER_ORDER (n_max + 1), W is summed over the
    listed points instead, in O(a n_max).

    The witness, checked before any sum: every relation holds as an integer
    equation in nonnegative coefficients, and the blocks are a box or an
    L-shape with exactly a points; else AperyRegionWitnessFailed.
    """
    least_generator(S, bound)
    a, b, c, blocks, relations = _three_generator_region(S.generators)
    for k, x, lam, y, mu, z in relations:
        if lam < 0 or mu < 0 or k * x != lam * y + mu * z:
            raise AperyRegionWitnessFailed(f"{k}*{x} = {lam}*{y} + {mu}*{z} does not hold")
    # each block starts where the one below it ends, and is narrower
    below = [(0, a + 1)] + [(V1, U) for U, _, V1 in blocks]
    stacked = all(
        V0 == top and 1 <= U < width and V0 < V1 for (U, V0, V1), (top, width) in zip(blocks, below)
    )
    if not stacked or sum(U * (V1 - V0) for U, V0, V1 in blocks) != a:
        raise AperyRegionWitnessFailed(
            f"the blocks {blocks} of {b} and {c} are not an Apéry set of {a}"
        )
    if a <= _POINTS_PER_ORDER * (n_max + 1):
        points = [i * b + j * c for U, V0, V1 in blocks for j in range(V0, V1) for i in range(U)]
        W = power_sums(points, n_max)
    else:
        W = [0] * (n_max + 1)
        for U, V0, V1 in blocks:
            rows, cols = _progression_sums(b, 0, U, n_max), _progression_sums(c, V0, V1, n_max)
            W = list(map(add, W, _egf_mul(rows, cols, n_max)))
    terms = {}
    for U, V0, V1 in blocks:
        for e, v in ((0, 1), (U * b, -1)):
            for f, w in ((V0 * c, 1), (V1 * c, -1)):
                terms[e + f] = terms.get(e + f, 0) + v * w
    return a, W, IntPolynomial._summed(terms)


def gap_power_sums(W, r_max: int) -> list[int]:
    """All gap power sums G_r for 0 <= r <= r_max, from the Apéry set alone.

    W holds W_n = sum_w w^n over the Apéry set of one generator a for
    n <= r_max + 1 (at least), so W_0 = a: the least generator for the
    Apéry set of apery_set, but any generator of the list will do, as for a
    gluing in _three_generator_source. The gaps congruent to w mod a
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
    R = _sums_below(a, r_max + 1)
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

