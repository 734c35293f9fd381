"""Universal symmetric polynomials and companion number sequences.

The central objects are the polynomials T_n defined through the series

    prod_i (exp(x_i t) - 1) / (x_i t)

whose t^n coefficient times n! is T_n(x_1, ..., x_m). T_n is symmetric and
weight-n homogeneous, so it depends on x only through the power sums
s_k = sum_i x_i^k. The logarithmic derivative of the product is
sum_k B_k s_k t^(k-1)/k! (B_1 = +1/2), so the symbolic form follows from one
recurrence, T_n = sum_k C(n-1, k-1) (B_k / k) s_k T_{n-k}, over k = 1 and the
even k. It is kept once, as integer numerators over one denominator
(SigmaPolynomial) with one sparse view, SigmaPolynomial.sparse, which
printing and verify's companion checks read (_evaluate sums it). This module
also owns both limits on T_n, ORDER_MAX and SYMBOLIC_N_MAX.

The numeric series are built in integers, as exponential generating
functions (EGFs: n! times the u^n coefficient). With q the lcm of the
denominators of x and p_i = q x_i, the product prod_i (e^{p_i u} - 1) has
integer EGF coefficients E[N]. They come from one kernel in v = e^u - 1: the
EGF coefficients of v^j are the surjection numbers j! S(N, j), and a factor
with p > 0 is (1 + v)^p - 1, a polynomial in v with the nonnegative
coefficients C(p, j). The positive factors are multiplied as polynomials in
v, truncated at v^N_max and packed one coefficient per fixed-width slot of
one integer (Kronecker substitution), so each factor costs one big-integer
product; then E[N] = sum_j c_j j! S(N, j). A factor with p < 0 is
-e^{pu} (e^{|p|u} - 1), so the negative factors add one sign and one
binomial convolution with the powers of their sum. Substituting u = t/q and
dividing by t^m prod x_i gives T_n(x) = n! E[n+m] / ((n+m)! prod p_i q^n),
one Fraction per value (t_values), with n!/(n+m)! = 1/perm(n+m, m). No Fraction arithmetic runs inside the
loops.

Bernoulli numbers and zig-zag (secant/tangent) numbers are included because
the identities under test relate them to T_n; so are their integer forms
that verify convolves: L B_k, with L the lcm of the denominators, and the
EGF coefficients L B_k d^k of the Bernoulli-umbra factors d t/(1 - e^{-d t}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, gcd, lcm, perm, prod
from operator import mul

from .exact import power_sums


class ZeroVariable(ValueError):
    """The series factors (e^{x t} - 1)/(x t) need every variable nonzero."""


# Largest series order verify.invariants() builds (t_values reads row ORDER_MAX + 1
# at most); the O(N^2) big-integer sums of D and EG, D's table of C(n, k) L B_k and
# the surjection-number sums of E dominate. At N = 500 on a 2-core VM (three runs
# each), `felcheck verify 3 5 --order N` takes 0.8-1.2 s and 90 MB, 13 MB of it the
# Bernoulli table of D, of which verify keeps eight; 20 29 37 41 53 59 take 1.6-2.3 s,
# 211 223 227 2.7-3.1 s and 1009 1013 1019 4.0-5.5 s and 100 MB: the limit bounds
# the order, not the cost.
ORDER_MAX = 500


class OrderTooLarge(ValueError):
    """A series order above ORDER_MAX, refused before any work is done."""

    def __init__(self, order: int):
        super().__init__(f"series order is limited to {ORDER_MAX}, got {order}")


# Largest n for which symbolic T_n is built: set as the largest N for which
# every run of `felcheck tn N` stayed under 4 s on a 2-core VM, when the terms
# were Fractions summed over partitions. By the integer recurrence, CLI wall
# time, medians of five: 0.22 s at N = 30, 1.1 s at 50 and 1.8 s at 54 (a
# 7.7 MB table), about 13% more per step.
SYMBOLIC_N_MAX = 54


class SymbolicOrderTooLarge(ValueError):
    """Symbolic T_n is refused above SYMBOLIC_N_MAX, before any work is done."""

    def __init__(self, n: int):
        super().__init__(f"symbolic T_n is limited to n <= {SYMBOLIC_N_MAX}, got {n}")


@lru_cache(maxsize=None)
def _binomial_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle, each entry from the one before it."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return tuple(row)


def _egf_mul(a, b, n_max: int) -> list[int]:
    """Binomial convolution: out[n] = sum_k C(n, k) a[k] b[n-k] for n <= n_max.

    With a and b the EGF coefficients (n! times the u^n coefficient) of two
    series, out holds those of their product; all entries are integers.
    """
    return [
        sum(map(mul, map(mul, _binomial_row(n), a), reversed(b[: n + 1])))
        for n in range(n_max + 1)
    ]


def _integer_variables(x) -> tuple[list[int], int]:
    """Integers p_i and q with x_i = p_i / q, q the lcm of the denominators."""
    xs = [Fraction(c) for c in x]
    if any(c == 0 for c in xs):
        raise ZeroVariable("variables must be nonzero")
    q = lcm(*(c.denominator for c in xs))
    return [c.numerator * (q // c.denominator) for c in xs], q


@lru_cache(maxsize=None)
def _surjection_row(n: int) -> tuple[int, ...]:
    """The surjection numbers j! S(n, j) for j <= n: entry j is the EGF
    coefficient at u^n of (e^u - 1)^j.

    Row n comes from row n - 1 by j! S(n, j) = j ((j-1)! S(n-1, j-1) +
    j! S(n-1, j)). The rows below are fetched in ascending order first, so
    each fetch finds its predecessor cached and a cold call recurses at most
    two levels deep, whatever n is.
    """
    if n == 0:
        return (1,)
    for k in range(n - 1):
        _surjection_row(k)
    prev = _surjection_row(n - 1)
    return (0, *(j * (a + b) for j, a, b in zip(range(1, n + 1), prev, prev[1:] + (0,))))


def _exp_minus_one_product(ps, n_max: int) -> list[int]:
    """EGF coefficients of prod_i (e^{p_i u} - 1) up to u^n_max.

    In v = e^u - 1 the product of the factors with p >= 0 is
    prod ((1 + v)^p - 1) = sum_j c_j v^j, and v^j has the EGF coefficients
    j! S(n, j). Each factor is v sum_j C(p, j + 1) v^j, so with m factors
    c_j = 0 for j < m, and only the product of the sums, whose coefficient i
    is c_{m+i}, is formed. Every c_j is at most C(sum |p|, j), which fixes a
    slot width of whole bytes; each sum's coefficients for i <= n_max - m
    are packed one per slot, and the running product is masked to those
    n_max + 1 - m slots after each multiplication: the coefficients are
    nonnegative, so no slot borrows, and carries out of the slots past
    v^n_max only move upward. A factor with p < 0 is -e^{pu} (e^{|p|u} - 1).
    """
    size = max(n_max + 1 - len(ps), 0)
    total = sum(map(abs, ps))
    width = (comb(total, min(n_max, total // 2)).bit_length() + 7) // 8
    mask = (1 << 8 * width * size) - 1
    packed = 1
    for p in map(abs, ps):
        binomials = []  # C(p, i + 1) for i < min(p, size)
        b = 1
        for i in range(min(p, size)):
            b = b * (p - i) // (i + 1)
            binomials.append(b)
        factor = int.from_bytes(b"".join(b.to_bytes(width, "little") for b in binomials), "little")
        packed = packed * factor & mask
    data = packed.to_bytes(width * size, "little")
    c = [0] * (n_max + 1 - size)
    c += [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(size)]
    e = [sum(map(mul, c, _surjection_row(n))) for n in range(n_max + 1)]
    negative = [p for p in ps if p < 0]
    if negative:
        e = _egf_mul(power_sums([sum(negative)], n_max), e, n_max)
        if len(negative) % 2:
            e = [-v for v in e]
    return e


@lru_cache(maxsize=None)
def _scaled_bernoulli(n_max: int) -> tuple[int, tuple[int, ...]]:
    """L and the integers L * B_k for k <= n_max, with B_k in the minus
    convention (B_1 = -1/2) and L the lcm of their denominators."""
    table = [bernoulli(k) for k in range(n_max + 1)]
    if n_max:
        table[1] = -table[1]
    L = lcm(*(b.denominator for b in table))
    return L, tuple(b.numerator * (L // b.denominator) for b in table)


def t_values(x, n_max: int) -> list[Fraction]:
    """T_n(x) for 0 <= n <= n_max: n! times the t^n coefficient of
    prod_i (e^{x_i t} - 1)/(x_i t). With no variables, T_n is [n = 0]. T_n at
    m values reads series row n + m: n_max + m > ORDER_MAX + 1 is refused first.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max + len(x) > ORDER_MAX + 1:
        raise OrderTooLarge(n_max + len(x) - 1)
    ps, q = _integer_variables(x)
    m = len(ps)
    e = _exp_minus_one_product(ps, n_max + m)
    scale = prod(ps)
    return [Fraction(e[n + m], perm(n + m, m) * scale * q**n) for n in range(n_max + 1)]


@dataclass(frozen=True, eq=False)
class SigmaPolynomial:
    """Sparse polynomial in the power-sum indeterminates s1, s2, ...

    Integer numerators over one positive denominator den: nums maps each
    exponent tuple to its nonzero numerator, and the key (2, 1) stands for
    s1^2 * s2. Keys carry no trailing zeros. t_symbolic builds den as the
    lcm of the reduced coefficient denominators, once.
    """

    den: int
    nums: dict

    @property
    def terms(self) -> dict:
        """The coefficients as Fractions, keyed like nums."""
        return {mono: Fraction(num, self.den) for mono, num in self.nums.items()}

    @cached_property
    def sparse(self) -> tuple:
        """Each term as (num, ((i, e), ...)): num times s_{i+1}^e over e > 0, in
        the order pretty() prints them (exponent tuples descending); built once."""
        return tuple(
            (self.nums[mono], tuple((i, e) for i, e in enumerate(mono) if e))
            for mono in sorted(self.nums, reverse=True)
        )

    def pretty(self) -> str:
        """Cleared-denominator rendering, e.g. "(3*s1^2 + s2)/12"."""
        if not self.sparse:
            return "0"
        den = self.den
        parts = []
        for n, pairs in self.sparse:
            factors = [f"s{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in pairs]
            mag = abs(n)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            parts.append(("-" if n < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        if den == 1:
            return text
        if len(parts) > 1:
            return f"({text})/{den}"
        return f"{text}/{den}"


def _evaluate(terms, s) -> int:
    """The sum of c prod_i s[i]^e over (c, ((i, e), ...)) terms in the form of
    SigmaPolynomial.sparse, the numerators possibly rescaled."""
    acc = 0
    for c, pairs in terms:
        for i, e in pairs:
            c *= s[i] ** e
        acc += c
    return acc


@lru_cache(maxsize=None)
def t_symbolic(n: int) -> SigmaPolynomial:
    """T_n as an exact polynomial in s1 .. sn.

    With F(t) = prod_i (e^{x_i t} - 1)/(x_i t), the derivative of log F is
    sum_k B_k s_k t^(k-1)/k! (B_1 = +1/2), and F' = F (log F)' gives

        T_n = sum_k C(n-1, k-1) (B_k / k) s_k T_{n-k},

    over k = 1 and the even k, where B_k != 0. Row n is built in integers
    over the one denominator D, the lcm of the terms' denominators, and
    reduced once by g = gcd(D, nums): D // g is the lcm of the reduced
    coefficient denominators. The rows below are fetched in ascending order
    first, so a cold call recurses at most two levels deep. No number of
    variables enters.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > SYMBOLIC_N_MAX:
        raise SymbolicOrderTooLarge(n)
    if n == 0:
        return SigmaPolynomial(1, {(): 1})
    for j in range(n - 1):
        t_symbolic(j)
    # (k, numerator, denominator, row n - k) for the term C(n-1, k-1) (B_k / k) s_k T_{n-k}
    steps = []
    for k in (1, *range(2, n + 1, 2)):
        b, row = bernoulli(k), t_symbolic(n - k)
        steps.append((k, comb(n - 1, k - 1) * b.numerator, k * b.denominator * row.den, row.nums))
    D = lcm(*(den for _, _, den, _ in steps))
    nums = {}
    for k, c, den, row in steps:
        c *= D // den
        for mono, a in row.items():
            key = [*mono, *(0,) * (k - len(mono))]
            key[k - 1] += 1
            key = tuple(key)
            nums[key] = nums.get(key, 0) + c * a
    g = gcd(D, *nums.values())
    return SigmaPolynomial(D // g, {mono: a // g for mono, a in nums.items()})


def _table_size(n: int) -> int:
    """Entries 0..n come from a table sized to the next power of two (at
    least 8), so that asking for every n up to 128 builds five tables."""
    return max(8, 1 << (n - 1).bit_length())


@lru_cache(maxsize=None)
def _zigzag_table(n_max: int) -> tuple[int, ...]:
    """Zig-zag numbers A_0 .. A_n_max from the Seidel-Entringer boustrophedon:
    row n is the running sum of row n - 1 reversed, starting at 0, and A_n
    is its last entry."""
    row = [1]
    out = [1]
    for _ in range(n_max):
        row = list(accumulate(reversed(row), initial=0))
        out.append(row[-1])
    return tuple(out)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number with the plus convention (entry 1 is +1/2).

    B_2k = (-1)^(k-1) 2k A_{2k-1} / (4^k (4^k - 1)), with the tangent number
    A_{2k-1} read from the zig-zag table (Brent and Harvey, arXiv:1108.0286).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 2:
        return Fraction(1, n + 1)
    if n % 2:
        return Fraction(0)
    four = 4 ** (n // 2)
    tangent = _zigzag_table(_table_size(n))[n - 1]
    return Fraction((-1) ** (n // 2 - 1) * n * tangent, four * (four - 1))


def zigzag(j: int) -> int:
    """Zig-zag number: j! times the x^j coefficient of sec x + tan x."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return _zigzag_table(_table_size(j))[j]


def _umbral_factor(d: int, n_max: int) -> list[int]:
    """The integers L B_k d^k for k <= n_max, B_k in the plus convention
    (B_1 = +1/2) and L as in _scaled_bernoulli(n_max): the EGF coefficients
    of L d t/(1 - e^{-d t})."""
    bern = _scaled_bernoulli(n_max)[1]
    return [(-b if k == 1 else b) * d**k for k, b in enumerate(bern)]
