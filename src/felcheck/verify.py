"""Exact verification of the gap/syzygy identities over whole semigroups.

Every check compares two exact values and passes only on literal equality;
there is no tolerance anywhere. Randomized sweeps take an explicit seed, which
the verify command prints with its output, so every run is reproducible.

The per-semigroup identities are checked on integers. In exponential
generating function (EGF) form, where a sequence v stands for the series
sum_n v[n] t^n / n!, every side of every identity is an integer sequence, or
one divided by L (n + 1). So invariants(S, p_max, order) builds one frozen
Invariants bundle per semigroup from the Apéry set of the least generator a.
It reads that set twice: once into the Hilbert numerator, and once into
W_n = sum_w w^n, the only form in which G and Phi read it. To index
N = max(order, m + 3) + 1 the bundle holds

- E, the EGF of prod_i (e^{d_i t} - 1), expanded around z = e^t = 1: in
  v = e^t - 1 it is prod_i ((1 + v)^{d_i} - 1), and v^j has the EGF
  coefficients j! S(n, j) (universal._exp_minus_one_product); E[n] = 0 for
  n < m;
- L and D = L * (t / (e^t - 1)) * E, with L the lcm of the denominators of
  the Bernoulli numbers B_0 .. B_N;
- c, the alternating syzygy power sums C_r of the Hilbert numerator Q;
- W, read once from the Apéry set;
- G, the gap power sums, from W alone by the recurrence in
  semigroup.gap_power_sums, which makes no pass over range(a) once a
  exceeds the order;
- EG, the EGF product of E and G.

verify_semigroup builds the bundle once and passes it to each check, which
takes nothing else and returns a list of CheckRecords: verify_fel_main(inv),
verify_thm_kp(inv), and so on. No check builds or scans the gap list: every
cost grows with a and the order, not with the genus. Each check makes its
records in report order (that of IDENTITIES, parameters ascending), and
verify_semigroup concatenates them into the one report of the semigroup.

With n = m + p, Fel's bracket is p! (D[n+1] + (n+1) L EG[n]) / ((n+1)! pi L),
so FEL_MAIN holds iff (n+1) L c[n] = (-1)^m (D[n+1] + (n+1) L EG[n]). The
series lemmas compare, for every n <= order:

- LEMMA_SERIES_C: c against (1 - Q)(e^t), with 1 - Q assembled by the
  second route 1 - P/(1 - z) + Phi P, P = prod (1 - z^{d_i}) and Phi the
  sum of z^g over the gaps g, at z = e^t as below;
- LEMMA_SERIES_PHI: Phi(e^t) against G. The gaps in the class r mod a are
  r + i a for 0 <= i < apery[r] // a, and Faulhaber's formula in
  Bernoulli-polynomial form sums each class; summed over the classes with
  Raabe's multiplication theorem sum_{r<a} B_j(r/a) = a^(1-j) B_j, it gives
  (n+1) a L Phi_n = sum_j C(n+1, j) L B_j a^j W_{n+1-j} - a L B_{n+1}, with
  W_k = sum_w w^k over the Apéry set and B_1 = -1/2; since B_j = 0 for the
  odd j >= 3, only j = 1 and the even j are summed
  (_gap_power_sums_by_classes). G solves the recurrence of gap_power_sums
  instead. The two sides share W, which each would otherwise compute from
  the same Apéry set with the same exact.power_sums kernel, so one pass
  costs them no independence. The Phi side shares the Bernoulli table
  (_scaled_bernoulli) with D; G reads no Bernoulli number. Phi_n is
  divided out to an integer before any record is made; should a division
  leave a remainder, the records of C and Phi compare every side times one
  integer M instead, and Phi's fails, with a note;
- LEMMA_SERIES_P: P(e^t) from the sparse z-expansion of P, the power sums
  sum_j P_j j^n, against (-1)^m E, the expansion around z = 1;
- LEMMA_SERIES_PDIV: (n+1) L (P/(1 - z))(e^t) against -(-1)^m D[n+1]. The
  left side is Abel summation over the terms of P, with surjection numbers
  (_quotient_power_sums), so no polynomial division runs; the right side is
  the Bernoulli convolution of E;
- LEMMA_ONE_MINUS_Q: c against [n = 0] + (-1)^m (EG[n] + D[n+1] / ((n+1) L)).
  Its entry n = m + p, the integers of FEL_MAIN over (n+1)! L, is the final
  equation before normalization, recorded as EQ_FINAL for each p <= p_max.

A record prints each value num/den in lowest terms, reduced by gcd with no
Fraction made, and a passing record prints one value for both sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from operator import add, mul

from .exact import IntPolynomial, power_sums
from .hilbert import (
    HilbertData,
    alternating_syzygy_sums,
    hilbert_numerator,
    k_denominator,
    k_invariant,  # noqa: F401  no check here uses it; perfbench's tracer test reads it off this module
    k_values,
)
from .semigroup import (
    APERY_MAX,
    SemigroupSpec,
    apery_set,
    gap_power_sums,
    generator_stats,
    make_semigroup,
)
from .universal import (
    _binomial_row,
    _egf_mul,
    _exp_minus_one_product,
    _scaled_bernoulli,
    _surjection_row,
    _umbral_factor,
    t_symbolic,
    zigzag,
)

# Every identity, in report order (parameters ascending, None first), with its parameter's name.
IDENTITIES = {
    "FEL_MAIN": "p",
    "THM_KP": "r",
    "LOW_ORDER_K": "p",
    "M2_CLOSED_FORM": "p",
    "LEMMA_SERIES_C": "order",
    "LEMMA_SERIES_PHI": "order",
    "LEMMA_SERIES_P": "order",
    "LEMMA_SERIES_PDIV": "order",
    "LEMMA_ONE_MINUS_Q": "order",
    "EQ_FINAL": "p",
    "FEL1_SIGNFLIP": "n",
    "FEL2_ZIGZAG": "n",
}

PASS, FAIL, SKIP = "pass", "fail", "skip"

# Largest series order invariants() builds; the O(N^2) big-integer
# convolutions D and EG and the surjection-number sums of E dominate. At
# N = 500 on a 2-core VM (medians of 3, two passes), `felcheck verify 3 5
# --order N` takes 0.9-1.4 s, 20 29 37 41 53 59 take 1.7-2.3 s, 211 223 227
# 3.0-4.8 s and 1009 1013 1019 6.4-7.2 s: the limit bounds the order, not the cost.
ORDER_MAX = 500


class OrderTooLarge(ValueError):
    """invariants() refuses a series order above ORDER_MAX before any work is done."""

    def __init__(self, order: int):
        super().__init__(f"series order is limited to {ORDER_MAX}, got {order}")


# Slotted, not frozen: a frozen dataclass sets each field through
# object.__setattr__ and takes 2.3 us to build, this 0.5 us (a NamedTuple
# 0.9 us), and a verify run makes 40 to 330 records per semigroup.
@dataclass(slots=True)
class CheckRecord:
    identity: str
    parameter: int | None
    lhs: str
    rhs: str
    status: str
    note: str = ""


@dataclass
class VerificationReport:
    """Outcome of one verification run; generators is None for the companion checks."""

    generators: tuple[int, ...] | None
    checks: list[CheckRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    order: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)


class DigitLimitExceeded(ValueError):
    """A record's value has more digits than CPython's int/str conversion limit."""

    def __init__(self, err: ValueError):
        super().__init__(f"{err}; sys.set_int_max_str_digits(0) lifts it, as the felcheck CLI does")


def _skip(identity, note) -> list[CheckRecord]:
    return [CheckRecord(identity, None, "", "", SKIP, note)]


def _record(identity, parameter, lhs, rhs, note="") -> CheckRecord:
    status = PASS if lhs == rhs else FAIL
    try:
        return CheckRecord(identity, parameter, str(lhs), str(rhs), status, note)
    except ValueError as err:
        raise DigitLimitExceeded(err) from err


def _fraction_str(v: int, d: int) -> str:
    """What str(Fraction(v, d)) prints, without making the Fraction: lowest
    terms, the sign on the numerator, no "/1"."""
    g = gcd(v, d) if d > 0 else -gcd(v, d)
    v //= g
    d //= g
    try:
        return f"{v}/{d}" if d != 1 else str(v)
    except ValueError as err:
        raise DigitLimitExceeded(err) from err


def _value_record(identity, parameter, lhs, rhs, den, note="") -> CheckRecord:
    """Record for the one value lhs/den against rhs/den: the sides are equal
    iff the integers are, and then one rendering serves both."""
    text = _fraction_str(lhs, den)
    if lhs == rhs:
        return CheckRecord(identity, parameter, text, text, PASS, note)
    return CheckRecord(identity, parameter, text, _fraction_str(rhs, den), FAIL, note)


def _ratio_record(identity, parameter, lhs, rhs, dens, note="") -> CheckRecord:
    """Record for the sides with entries lhs[n]/dens[n] and rhs[n]/dens[n]:
    they are equal iff the integer lists are, and then one rendering serves both."""
    text = " ".join(map(_fraction_str, lhs, dens))
    if list(lhs) == list(rhs):
        return CheckRecord(identity, parameter, text, text, PASS, note)
    return CheckRecord(identity, parameter, text, " ".join(map(_fraction_str, rhs, dens)), FAIL, note)


@dataclass(frozen=True)
class Invariants:
    """Everything the per-semigroup checks read, built once by invariants().

    W holds the power sums W_n = sum_w w^n over the Apéry set of the least
    generator a, so W[0] = a; Q (in h) is built from the Apéry set, G and
    Phi from W, and neither the Apéry set nor any gap list is held. E, D
    and W run to index max(order, m + 3) + 1, c, G and EG to one less; see
    the module docstring.
    """

    S: SemigroupSpec
    W: tuple[int, ...]
    h: HilbertData
    p_max: int
    order: int
    E: tuple[int, ...]
    L: int
    D: tuple[int, ...]
    c: tuple[int, ...]
    G: tuple[int, ...]
    EG: tuple[int, ...]


def invariants(
    S: SemigroupSpec, p_max: int = 8, order: int | None = None, bound: int = APERY_MAX
) -> Invariants:
    """The invariants of S for identities up to p_max and series to the order.

    order defaults to m + p_max + 2; an explicit order below m + p_max, or a
    negative p_max, raises ValueError, an order above ORDER_MAX raises
    OrderTooLarge, and a least generator above bound raises AperyTooLarge.
    """
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    if order is not None and order < S.m + p_max:
        raise ValueError(f"order {order} is below m + p_max = {S.m + p_max}")
    order = effective_order(S.m, p_max, order)[0]
    if order > ORDER_MAX:
        raise OrderTooLarge(order)
    apery = apery_set(S, bound)
    h = hilbert_numerator(S, apery)
    top = max(order, S.m + 3)
    W = power_sums(apery, top + 1)
    E = _exp_minus_one_product(S.generators, top + 1)
    L, bern = _scaled_bernoulli(top + 1)
    G = gap_power_sums(W, top)
    return Invariants(
        S,
        tuple(W),
        h,
        p_max,
        order,
        tuple(E),
        L,
        tuple(_egf_mul(bern, E, top + 1)),
        tuple(alternating_syzygy_sums(h, top)),
        tuple(G),
        tuple(_egf_mul(E, G, top)),
    )


def verify_fel_main(inv: Invariants) -> list[CheckRecord]:
    """The FEL_MAIN records, one for each 0 <= p <= p_max.

    The left side is the normalized alternating syzygy sum c[m + p] from
    the Hilbert numerator. The right side is Fel's bracket in EGF form, read
    from D and EG in the bundle, both built on E; it is not T_n evaluated at
    sigma_k and delta_k as the paper states the formula, which only the
    tests check (test_fel_formula_as_stated). Each record compares
    (n+1) L c[n] against (-1)^m (D[n+1] + (n+1) L EG[n]) with n = m + p,
    over (n+1) L k_denominator(S, p), so that it prints K_p. The
    un-normalized form, EQ_FINAL, compares the same integers and comes from
    verify_series_lemmas.
    """
    S, L = inv.S, inv.L
    sign = (-1) ** S.m
    records = []
    for p in range(inv.p_max + 1):
        n = S.m + p
        lhs = (n + 1) * L * inv.c[n]
        rhs = sign * (inv.D[n + 1] + (n + 1) * L * inv.EG[n])
        records.append(_value_record("FEL_MAIN", p, lhs, rhs, (n + 1) * L * k_denominator(S, p)))
    return records


def verify_thm_kp(inv: Invariants) -> list[CheckRecord]:
    """The THM_KP records, one for each C_r with r < m: the three structural
    clauses of the low-index alternating sums. For a single generator the
    statement is vacuous, and one skip record is returned instead."""
    S = inv.S
    if S.m == 1:
        return _skip("THM_KP", "statement applies to m >= 2 only")
    expected = [1] + [0] * (S.m - 2) + [(-1) ** S.m * factorial(S.m - 1) * S.pi]
    return [_value_record("THM_KP", r, inv.c[r], value, 1) for r, value in enumerate(expected)]


def verify_low_order(inv: Invariants) -> list[CheckRecord]:
    """The LOW_ORDER_K records: the four low-order closed forms for the
    normalized invariants K_0 .. K_3.

    Each row is Fel's formula at p, whose G_r term is C(p, r) T_{p-r}(sigma)
    G_r: in the p = 3 row the coefficient of G_1 is C(3, 1) T_2
    = (3*s1^2 + s2)/4, with T_2 = (3*s1^2 + s2)/12.
    """
    stats = generator_stats(inv.S, 4)
    s1, s2 = stats.sigma[0], stats.sigma[1]
    d1, d2, d4 = stats.delta[0], stats.delta[1], stats.delta[3]
    G = inv.G
    closed = [
        G[0] + d1,
        G[1] + Fraction(s1, 2) * G[0] + (3 * d1**2 + d2) / 6,
        G[2]
        + s1 * G[1]
        + Fraction(3 * s1**2 + s2, 12) * G[0]
        + d1 * (d1**2 + d2) / 3,
        G[3]
        + Fraction(3 * s1, 2) * G[2]
        + Fraction(3 * s1**2 + s2, 4) * G[1]
        + Fraction(s1 * (s1**2 + s2), 8) * G[0]
        + (15 * d1**4 + 30 * d1**2 * d2 + 5 * d2**2 - 2 * d4) / 60,
    ]
    return [
        _record("LOW_ORDER_K", p, k, rhs)
        for p, (k, rhs) in enumerate(zip(k_values(inv.S, inv.c, 3), closed))
    ]


def verify_m2_closed_form(inv: Invariants) -> list[CheckRecord]:
    """The M2_CLOSED_FORM records. For two coprime generators the numerator
    is 1 - z^{d1*d2} and the invariants are (d1*d2)^{p+1} / ((p+1)(p+2));
    for any other m one skip record is returned."""
    S = inv.S
    if S.m != 2:
        return _skip("M2_CLOSED_FORM", f"m = {S.m}; statement is for m = 2")
    expected = IntPolynomial.one_minus_pow(S.pi)
    records = [_record("M2_CLOSED_FORM", None, inv.h.numerator, expected, "numerator form")]
    for p in range(inv.p_max + 1):
        # K_p = c[p+2] / (pi (p+1)(p+2)) against pi^{p+2} over the same denominator
        records.append(
            _value_record("M2_CLOSED_FORM", p, inv.c[p + 2], S.pi ** (p + 2), k_denominator(S, p))
        )
    return records


def _quotient_power_sums(P: IntPolynomial, order: int) -> list[int]:
    """EGF coefficients of (P/(1 - z))(e^t) up to t^order, for P(1) = 0.

    With z = 1 + v, P = sum_i v^i sum_j P_j C(j, i), and the i = 0 sum is
    P(1) = 0, so P/(1 - z) = -sum_i v^i a_i with a_i = sum_j P_j C(j, i+1)
    (Abel summation of the partial sums of P). At z = e^t, v^i has the EGF
    coefficients i! S(n, i). The binomials run down each term of P, so the
    cost is O(terms of P * order), whatever the degree of P.
    """
    exps, cur = zip(*P.items())
    a = []
    for k in range(1, order + 2):
        # P_j C(j, k) from P_j C(j, k - 1), exactly
        cur = [c * (j - k + 1) // k for c, j in zip(cur, exps)]
        a.append(-sum(cur))
    return [sum(map(mul, a, _surjection_row(n))) for n in range(order + 1)]


def _gap_power_sums_by_classes(W, order: int) -> tuple[list[int], int]:
    """M Phi_n for n <= order, Phi_n the sum of g^n over the gaps, and M.

    W holds the power sums of the Apéry set to index order + 1 at least,
    and W[0] = a. Phi_n comes from W by Faulhaber's formula, summed over the
    residue classes (see the module docstring): (n+1) a L Phi_n is entry
    n + 1 of the EGF product of L B_j a^j, the EGF coefficients of
    L a t/(e^{at} - 1), and W, less a L B_{n+1}. Only j = 1 and the even j
    enter the product, since B_j = 0 for the odd j >= 3. M is the least
    integer that makes every M Phi_n an integer: 1 for an Apéry set.
    """
    a = W[0]
    L, bern = _scaled_bernoulli(order + 1)
    even = [bern[j] * a**j for j in range(0, order + 2, 2)]
    half = bern[1] * a  # L B_1 a, with B_1 = -1/2
    nums = [
        sum(map(mul, map(mul, _binomial_row(n)[::2], even), W[n::-2]))
        + n * half * W[n - 1]
        - a * bern[n]
        for n in range(1, order + 2)
    ]
    dens = [(n + 1) * a * L for n in range(order + 1)]
    M = lcm(*(d // gcd(v, d) for v, d in zip(nums, dens)))
    return [v * M // d for v, d in zip(nums, dens)], M


def verify_series_lemmas(inv: Invariants) -> list[CheckRecord]:
    """The records of the five series identities, each compared
    coefficient-by-coefficient to the order, then EQ_FINAL for each p <= p_max.

    Each side is an integer EGF sequence, compared entry by entry over the
    denominator n! (or (n+1)! L); see the module docstring. EQ_FINAL at p is
    entry n = m + p of LEMMA_ONE_MINUS_Q, read from that lemma's lists.
    """
    order, L, h, m = inv.order, inv.L, inv.h, inv.S.m
    sign = (-1) ** m
    ns = range(order + 1)
    c = inv.c[: order + 1]
    facts = [factorial(n) for n in ns]
    scaled = [factorial(n + 1) * L for n in ns]

    # M Phi, with M = 1 unless some Phi_n is not an integer; then the
    # records of C and Phi compare every side times M
    phi, M = _gap_power_sums_by_classes(inv.W, order)
    p_sums = h.prod.power_sums(order)
    p_div = _quotient_power_sums(h.prod, order)
    phi_p = _egf_mul(phi, p_sums, order)
    one_minus_q = [M * ((n == 0) - p_div[n]) + phi_p[n] for n in ns]
    m_facts = [M * f for f in facts]
    m_c = [M * v for v in c]
    m_G = [M * g for g in inv.G[: order + 1]]
    note = "" if M == 1 else "Phi from the Apéry set is not an integer"
    rhs_p = [sign * e for e in inv.E[: order + 1]]
    lhs_pdiv = [(n + 1) * L * v for n, v in zip(ns, p_div)]
    rhs_pdiv = [-sign * inv.D[n + 1] for n in ns]
    lhs_q = [(n + 1) * L * v for n, v in zip(ns, c)]
    assembled = [
        (n == 0) * L + sign * ((n + 1) * L * inv.EG[n] + inv.D[n + 1]) for n in ns
    ]
    return [
        _ratio_record("LEMMA_SERIES_C", order, one_minus_q, m_c, m_facts),
        _ratio_record("LEMMA_SERIES_PHI", order, phi, m_G, m_facts, note),
        _ratio_record("LEMMA_SERIES_P", order, p_sums, rhs_p, facts),
        _ratio_record("LEMMA_SERIES_PDIV", order, lhs_pdiv, rhs_pdiv, scaled),
        _ratio_record("LEMMA_ONE_MINUS_Q", order, lhs_q, assembled, scaled),
        *(
            _value_record("EQ_FINAL", p, lhs_q[m + p], assembled[m + p], scaled[m + p])
            for p in range(inv.p_max + 1)
        ),
    ]


def _randint(rng, lo: int, hi: int) -> int:
    """The value rng.randint(lo, hi) returns, from the same generator state.

    random.Random draws it as lo + _randbelow(hi - lo + 1): getrandbits of
    the bit length of that width, drawn again while it is not below the
    width. This is that loop, without the argument checks of randrange.
    """
    width = hi - lo + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return lo + r


def _sample_point(rng) -> tuple[str, list[int]]:
    """1 to 4 nonzero rationals num/den with |num|, den <= 9 and a nonzero
    sum, so T_1 is invertible: their text in lowest terms, as a Fraction
    prints them, and the integers p_i = q x_i with q the lcm of the
    denominators."""
    while True:
        x = []
        for _ in range(_randint(rng, 1, 4)):
            num = _randint(rng, -9, 9) or 1
            den = _randint(rng, 1, 9)
            g = gcd(num, den)
            x.append((num // g, den // g))
        q = lcm(*(den for _, den in x))
        ps = [num * (q // den) for num, den in x]
        if sum(ps):
            return ", ".join(f"{num}/{den}" if den != 1 else str(num) for num, den in x), ps


@lru_cache(maxsize=None)
def _sparse_terms(poly) -> tuple[int, tuple]:
    """(den, ((num, ((index, exponent), ...)), ...)) for one T_n: its terms
    with the zero exponents dropped. Keyed by the T_n object, which
    t_symbolic caches, so that a verify run still calls t_symbolic."""
    pairs = (tuple((i, e) for i, e in enumerate(mono) if e) for mono in poly.nums)
    return poly.den, tuple(zip(poly.nums.values(), pairs))


def _evaluate(terms, s) -> int:
    """The sum of c prod_i s[i]^e over the (c, ((i, e), ...)) terms."""
    acc = 0
    for c, pairs in terms:
        for i, e in pairs:
            c *= s[i] ** e
        acc += c
    return acc


def _umbral_coefficient(factors, ks, rows) -> int:
    """Coefficient n of the EGF product of the factors, n = len(rows) - 1.

    Each factor holds its EGF coefficients to order n and is zero off the
    indices ks; rows[m] is row m of Pascal's triangle. The product of all
    factors but the last is formed to order n, each factor convolving only
    its entries at ks into it; of the full product only coefficient n is
    formed.
    """
    n = len(rows) - 1
    u, *rest = factors
    if not rest:
        return u[n]
    *middle, last = rest
    for f in middle:
        v = [0] * (n + 1)
        for k in ks:
            a = f[k]
            for m in range(k, n + 1):
                v[m] += rows[m][k] * a * u[m - k]
        u = v
    row = rows[n]
    return sum([row[k] * last[k] * u[n - k] for k in ks])


ZIGZAG_N = 3  # FEL2_ZIGZAG for n = 1..3
SIGNFLIP_N = 7  # FEL1_SIGNFLIP for n = 2..7
# Cost is linear in samples: `felcheck verify 3 5 --samples 10000 --format json`
# takes about 2.4 s (the companion checks 1.5-1.9 s of it) and 110 MB on a
# 2-core VM, most of the memory for the 90,000 records and the 22 MB document.
SAMPLES_MAX = 10_000


def verify_companions(samples: int = 20, seed: int = 0) -> VerificationReport:
    """Randomized exact checks of the two companion identities for T.

    The zig-zag recursion is checked for 1 <= n <= ZIGZAG_N at rational
    sample points; the Bernoulli-umbra sign-flip identity is checked for
    2 <= n <= SIGNFLIP_N at positive integer vectors. The sign-flip check
    negates every even-indexed power sum; whenever the narrower "flip only
    s2 and sn" reading would give a different value, that value is recorded
    in the note rather than silently discarded. samples must lie in
    [1, SAMPLES_MAX].

    Everything runs on integers, one sample at a time, in the order of the
    draws, zig-zag first; the report lists the sign-flip records first, as
    IDENTITIES does. A rational sample point is drawn as reduced (num, den)
    pairs and scaled to the integers p_i = q x_i; T_j is homogeneous, so the
    recorded values, both sides over T_1^K, are the same at the p_i.

    - FEL2_ZIGZAG reads the integer terms of symbolic T_j (t_symbolic), over
      one denominator V per n, at the power sums s_k = sum_i p_i^k, which
      come from running products of the p_i; the right side reads the
      tangent numbers (zigzag), with V^(2n-2j) folded into its coefficients
      once per n.
    - FEL1_SIGNFLIP reads the terms of T_n at the power sums of the entries
      d_i, added up from a table of v^k for v in 1..9; both readings come
      from one pass over those terms. The umbral side is n! L^m times the
      t^n coefficient of the product of the m factors d_i t/(1 - e^{-d_i t})
      (universal._umbral_factor), whose EGF coefficients vanish at the odd
      k >= 3; _umbral_coefficient convolves only the others. It shares no
      code with T_n but bernoulli(), which t_symbolic reads through
      lambda_table and the factors through _scaled_bernoulli, and which the
      tests pin against sympy.

    Each record holds one value: the two sides, over one denominator, are
    compared as integers, and the value is printed once when they agree.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > SAMPLES_MAX:
        raise ValueError(f"samples is limited to {SAMPLES_MAX}, got {samples}")
    rng = random.Random(seed)
    zig, flip = [], []

    for n in range(1, ZIGZAG_N + 1):
        K = 2 * n + 1
        # T_j = w_j / V for the T_j the identity reads, V the lcm of their denominators
        polys = {j: _sparse_terms(t_symbolic(j)) for j in (*range(0, K, 2), 1, K)}
        V = lcm(*(den for den, _ in polys.values()))
        w = {
            j: [(c * (V // den), pairs) for c, pairs in terms] for j, (den, terms) in polys.items()
        }
        # T_K = sum_j (-1)^j A_{2j+1} C(K, 2j+1) T_{2n-2j} T_1^(2j+1), A the
        # tangent numbers. Times V^(K+1) both sides are integers, over the one
        # denominator w_1^K V = T_1^K V^(K+1):
        # w_K V^K = sum_j (-1)^j A_{2j+1} C(K, 2j+1) V^(2n-2j) w_{2n-2j} w_1^(2j+1)
        rhs_terms = [
            (
                (-1) ** j * zigzag(2 * j + 1) * comb(K, 2 * j + 1) * V ** (2 * n - 2 * j),
                w[2 * n - 2 * j],
            )
            for j in range(n + 1)
        ]
        top, one, VK = w[K], w[1], V**K
        for i in range(samples):
            x, ps = _sample_point(rng)
            s = [0] * K
            for p in ps:
                power = 1
                for k in range(K):
                    power *= p
                    s[k] += power
            w1 = _evaluate(one, s)
            rhs, odd, square = 0, w1, w1 * w1
            for c, terms in rhs_terms:
                rhs += c * _evaluate(terms, s) * odd
                odd *= square
            lhs = _evaluate(top, s) * VK
            note = f"sample {i}: x = ({x})"
            zig.append(_value_record("FEL2_ZIGZAG", n, lhs, rhs, w1**K * V, note))

    # row v holds v^k for k = 1..SIGNFLIP_N; a sample's power sums add its entries' rows
    powers = {v: [v**k for k in range(1, SIGNFLIP_N + 1)] for v in range(1, 10)}
    for n in range(2, SIGNFLIP_N + 1):
        den, terms = _sparse_terms(t_symbolic(n))
        # The wide reading negates every even-index s_k (index i holds s_{i+1});
        # the narrow one negates only s2 and sn, so it differs from the wide
        # one on the terms with an odd total exponent of the other even s_k.
        same, differ = [], []
        for c, pairs in terms:
            if sum(e for i, e in pairs if i % 2) % 2:
                c = -c
            odd = sum(e for i, e in pairs if i % 2 and i + 1 not in (2, n)) % 2
            (differ if odd else same).append((c, pairs))
        L = _scaled_bernoulli(n)[0]
        # L times the EGF coefficients of d t/(1 - e^{-d t}), zero off the indices ks
        factors = {v: _umbral_factor(v, n) for v in range(1, 10)}
        ks = [k for k, column in enumerate(zip(*factors.values())) if any(column)]
        rows = [_binomial_row(m) for m in range(n + 1)]
        for i in range(samples):
            d = tuple([_randint(rng, 1, 9) for _ in range(_randint(rng, 1, 4))])
            s = powers[d[0]]
            for v in d[1:]:
                s = list(map(add, s, powers[v]))
            kept, flipped = _evaluate(same, s), _evaluate(differ, s)
            # n! L^m times the t^n coefficient of prod_i d_i t/(1 - e^{-d_i t})
            umbral = _umbral_coefficient([factors[v] for v in d], ks, rows)
            scale = L ** len(d)
            note = f"sample {i}: d = {d}"
            if flipped:
                note += (
                    f"; flipping only s2 and s{n} gives {_fraction_str(kept - flipped, den)}, "
                    "the identity needs every even-index power sum flipped"
                )
            wide = (kept + flipped) * scale
            flip.append(_value_record("FEL1_SIGNFLIP", n, umbral * den, wide, scale * den, note))
    return VerificationReport(None, flip + zig)


def random_semigroup(rng, m_max: int, d_max: int) -> SemigroupSpec:
    """Sample a generator list with gcd 1 (rejection sampling).

    m is drawn from [1, m_max] and each generator from [1, d_max]. An empty
    range raises ValueError up front; any other range can draw (1,). With
    m_max = 1, (1,) is the only coprime list, and it is returned without
    drawing.
    """
    if m_max < 1 or d_max < 1:
        raise ValueError(
            f"no coprime generator list has m in [1, {m_max}] and entries in [1, {d_max}]"
        )
    if m_max == 1:
        return make_semigroup((1,))
    while True:
        m = rng.randint(1, m_max)
        gens = [rng.randint(1, d_max) for _ in range(m)]
        if gcd(*gens) == 1:
            return make_semigroup(gens)


def effective_order(m: int, p_max: int, order: int | None) -> tuple[int, str | None]:
    """Resolve the series order, enforcing the minimum m + p_max."""
    minimum = m + p_max
    if order is None:
        return m + p_max + 2, None
    if order < minimum:
        return minimum, f"order raised from {order} to {minimum} (minimum is m + p_max)"
    return order, None


def verify_semigroup(
    S: SemigroupSpec,
    p_max: int = 8,
    order: int | None = None,
    bound: int = APERY_MAX,
) -> VerificationReport:
    """Run every per-semigroup identity on one invariants bundle and
    concatenate the records, already in report order, into one report. An
    order below m + p_max is raised to it, with a warning."""
    order, warning = effective_order(S.m, p_max, order)
    inv = invariants(S, p_max, order, bound)
    checks = [
        *verify_fel_main(inv),
        *verify_thm_kp(inv),
        *verify_low_order(inv),
        *verify_m2_closed_form(inv),
        *verify_series_lemmas(inv),
    ]
    return VerificationReport(S.generators, checks, [warning] if warning else [], order)
