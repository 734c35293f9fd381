"""Exact verification of the gap/syzygy identities over whole semigroups.

Every check compares two exact values and passes only on literal equality;
there is no tolerance anywhere. Randomized sweeps take an explicit seed, which
the verify command prints with its output, so every run is reproducible.

The per-semigroup identities are checked on integers. In exponential
generating function (EGF) form, where a sequence v stands for the series
sum_n v[n] t^n / n!, every side of every identity is an integer sequence, or
one divided by L (n + 1). So invariants(S, p_max, order) builds one frozen
Invariants bundle per semigroup from the Apéry set of one generator a, read
twice: once into the Hilbert numerator Q, and once into W_n = sum_w w^n,
the only form in which G and Phi read it. For m != 3 that is the Apéry set
of the least generator, built by apery_set. For m = 3 no Apéry set is
built: semigroup._three_generator_source gives a, W and Q from the minimal
relations of the list, the Apéry set of a being a box (a gluing, where a
need not be the least generator) or Herzog's L-shape, and checks its O(1)
witness (the relations as integer equations, the region's size a) before
any sum. To index N = max(order, m + 3) + 1 the bundle holds

- E, the EGF of prod_i (e^{d_i t} - 1), expanded around z = e^t = 1: in
  v = e^t - 1 it is prod_i ((1 + v)^{d_i} - 1), and v^j has the EGF
  coefficients j! S(n, j) (universal._exp_minus_one_product); E[n] = 0 for
  n < m;
- L and D = L * (t / (e^t - 1)) * E, with L the lcm of the denominators of
  the Bernoulli numbers B_0 .. B_N. Since B_k = 0 for the odd k >= 3,
  D[n] = sum_k C(n, k) L B_k E[n-k] over k = 0 and the even k, plus
  n L B_1 E[n-1]: one product per nonzero term, with the C(n, k) L B_k
  taken from a table built once per order (_bernoulli_plan, the last eight
  kept), which also holds the n! and (n+1)! L that the series lemmas print
  over;
- c, the alternating syzygy power sums C_r of the Hilbert numerator Q;
- W, read once from the Apéry set, or from the region of its blocks;
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

Which kernels each identity reads, as the records show it: each kernel
perturbed once, the identities with a FAIL record on (5, 6, 8, 9) and on
(3, 5) at p_max = 4 and in verify_companions(5, 0), and in the last column
on the triple (4, 5, 7), which is not a gluing, at p_max = 4 ("as 5689":
the same identities as on (5, 6, 8, 9) in that row; "as Q above": those of
the hilbert_numerator row on (5, 6, 8, 9); LEMMA_ left off the series
lemmas; tests/test_failure_paths.py pins every row):

  kernel, perturbed                     identities that fail       (4, 5, 7)
  apery_set, class 1 raised by a        none; M2_CLOSED_FORM on    none
                                        (3, 5)
  _surjection_row, last entry + 1       SERIES_P, SERIES_PDIV,     as 5689
    in every row n >= 6                 SERIES_C, ONE_MINUS_Q,
                                        EQ_FINAL, FEL_MAIN
  _surjection_row, entry 1 + 1          none; SERIES_C and         none
    in every row n >= 6                 SERIES_PDIV on (3, 5)
  gap_power_sums, G_2 + 1               SERIES_PHI, LOW_ORDER_K,   as 5689
                                        ONE_MINUS_Q, EQ_FINAL,
                                        FEL_MAIN
  _gap_power_sums_by_classes, Phi_2 + M SERIES_PHI, SERIES_C       as 5689
  hilbert_numerator, two extra terms    THM_KP, LOW_ORDER_K,       none
    in Q, Q(1) kept 0                   SERIES_C, ONE_MINUS_Q,
                                        EQ_FINAL, FEL_MAIN; and
                                        M2_CLOSED_FORM on (3, 5)
  _three_generator_source, the same     none                       as Q above
    two extra terms in its Q
  _scaled_bernoulli, L B_4 + 1          SERIES_PHI, SERIES_C,      as 5689
                                        SERIES_PDIV, ONE_MINUS_Q,
                                        EQ_FINAL, FEL_MAIN
  zigzag, A_5 + 1                       FEL2_ZIGZAG                none
  _umbral_factor, entry 2 + 1           FEL1_SIGNFLIP              none
  power_sums, W_3 + 1                   no record: gap_power_sums  none
                                        raises NonExactDivision
                                        in invariants

FEL_MAIN fails exactly when EQ_FINAL does: they compare the same integers.
E reads only the surjection entries j >= m, and P/(1 - z) only j >= m - 1,
so entry 1 is read for m <= 2 alone. No record catches a wrong Apéry set
for m >= 3: Q, W, G and Phi are all read off that one set, and Fel's
formula holds for any set that Q and G are both built from. For m = 3 no
record checks the relations either; the source's witness and the tests,
against the Dijkstra route and a linear search, do.

verify_companions samples the two companion identities for T_n, which do
not depend on the semigroup. What a sample does not change is one plan per
order n, built once per process: _zigzag_plan holds the T_j over one
denominator with the tangent numbers folded into the right side, and
_signflip_plan T_n's terms split by reading, the nine umbral factors and
their EGF products for every pair, so that a sample's umbral side is one
lookup or one dot product (_umbral_side). Each plan is cached on n, on the
t_symbolic rows it reads and on the kernels it is built from, as this
module's globals hold them at the call: zigzag, or _umbral_factor and
_scaled_bernoulli. A kernel perturbed as in the table above, or T_n rows
rebuilt after t_symbolic.cache_clear(), build their own plan; no key holds
a seed, a sample count or a draw.

A record prints each value num/den in lowest terms, reduced by gcd with no
Fraction made, and a passing record prints one value for both sides. Each
value is reduced once per semigroup: C_n/n! is the passing text of
LEMMA_SERIES_C and the left side of LEMMA_ONE_MINUS_Q and of every
EQ_FINAL. Where a side is an integer over a scaled denominator, its value
is reduced from the smaller one: LEMMA_SERIES_PDIV prints (P/(1 - z))(e^t)
over n!, not over (n+1)! L, and FEL_MAIN prints c[n]/k_denominator(S, p),
not over (n+1) L k_denominator(S, p); both are the same rationals, so the
same text. A failing record renders its other side over the scaled
denominator, as both sides were rendered before.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import comb, factorial, gcd, lcm
from operator import add, mul

from .exact import IntPolynomial, power_sums
from .hilbert import (
    HilbertData,
    alternating_syzygy_sums,
    hilbert_numerator,
    k_denominator,
    product_polynomial,
)
from .semigroup import (
    APERY_MAX,
    SemigroupSpec,
    _three_generator_source,
    apery_set,
    gap_power_sums,
    make_semigroup,
)
from .universal import (
    ORDER_MAX,
    OrderTooLarge,
    _binomial_row,
    _egf_mul,
    _evaluate,
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


def _value_record(identity, parameter, lhs, rhs, den, note="", lhs_text=None) -> CheckRecord:
    """Record for the one value lhs/den against rhs/den: the sides are equal
    iff the integers are, and then one rendering serves both. lhs_text, if
    given, is the rendering of lhs/den, made already."""
    text = lhs_text or _fraction_str(lhs, den)
    if lhs == rhs:
        return CheckRecord(identity, parameter, text, text, PASS, note)
    return CheckRecord(identity, parameter, text, _fraction_str(rhs, den), FAIL, note)


def _ratio_record(identity, parameter, lhs, rhs, dens, note="", lhs_text=None, rhs_text=None) -> CheckRecord:
    """Record for the sides with entries lhs[n]/dens[n] and rhs[n]/dens[n],
    lhs and rhs lists: they are equal iff the lists are, and then one
    rendering serves both. A side's text, if given, is its rendering, made
    already; a failing record renders the other side over dens."""
    if lhs == rhs:
        text = lhs_text or rhs_text or " ".join(map(_fraction_str, lhs, dens))
        return CheckRecord(identity, parameter, text, text, PASS, note)
    lhs_text = lhs_text or " ".join(map(_fraction_str, lhs, dens))
    rhs_text = rhs_text or " ".join(map(_fraction_str, rhs, dens))
    return CheckRecord(identity, parameter, lhs_text, rhs_text, FAIL, note)


@dataclass(frozen=True)
class Invariants:
    """Everything the per-semigroup checks read, built once by invariants().

    W holds the power sums W_n = sum_w w^n over the Apéry set of the
    source's generator a, so W[0] = a: the least generator, or for m = 3
    the first of a gluing's pair, which is not always the least. Q (in h)
    is built from the same source, G and Phi from W, and neither the Apéry
    set nor any gap list is held. E, D
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


# One table at order 500 holds about 11 MB, so a --random sweep over many m
# at a deep order keeps the 8 it used last, not one per order.
@lru_cache(maxsize=8)
def _bernoulli_plan(n_max: int, scaled_bernoulli) -> tuple:
    """What D and the series lemmas read of the Bernoulli numbers and the
    factorials to index n_max, with L and L B_k from scaled_bernoulli(n_max):
    L; L B_1; for each n <= n_max the row of C(n, k) L B_k for k = 0 and the
    even k <= n, so that D[n] = sum row E[n::-2] + n L B_1 E[n-1], since
    B_k = 0 for the odd k >= 3; the n! for n <= n_max; and the (n+1)! L for
    n < n_max. Cached on n_max and on the kernel, as verify's globals hold it
    at the call, like the companion plans.
    """
    L, bern = scaled_bernoulli(n_max)
    rows = tuple(tuple(map(mul, _binomial_row(n)[::2], bern[::2])) for n in range(n_max + 1))
    facts = tuple(accumulate(range(1, n_max + 1), mul, initial=1))
    return L, bern[1], rows, facts, tuple(L * f for f in facts[1:])


def invariants(
    S: SemigroupSpec, p_max: int = 8, order: int | None = None, bound: int = APERY_MAX
) -> Invariants:
    """The invariants of S for identities up to p_max and series to the order.

    order defaults to m + p_max + 2; effective_order refuses a negative
    p_max, an order above ORDER_MAX and more than M_MAX generators, an
    explicit order below m + p_max raises ValueError, and a least generator
    above bound raises AperyTooLarge.
    """
    resolved, warning = effective_order(S.m, p_max, order)
    if warning:
        raise ValueError(f"order {order} is below m + p_max = {S.m + p_max}")
    order = resolved
    top = max(order, S.m + 3)
    if S.m == 3:
        _, W, q = _three_generator_source(S, top + 1, bound)
        h = HilbertData(product_polynomial(S), q)
    else:
        apery = apery_set(S, bound)
        h = hilbert_numerator(S, apery)
        W = power_sums(apery, top + 1)
    E = _exp_minus_one_product(S.generators, top + 1)
    L, half, rows, _, _ = _bernoulli_plan(top + 1, _scaled_bernoulli)
    G = gap_power_sums(W, top)
    return Invariants(
        S,
        tuple(W),
        h,
        p_max,
        order,
        tuple(E),
        L,
        tuple(sum(map(mul, row, E[n::-2])) + n * half * E[n - 1] for n, row in enumerate(rows)),
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
    both over (n+1) L k_denominator(S, p), so that its value is K_p, which
    it prints as c[n]/k_denominator(S, p) reduced; a failing record prints
    its right side over the scaled denominator. The un-normalized form,
    EQ_FINAL, compares the same integers and comes from verify_series_lemmas.
    """
    S, L = inv.S, inv.L
    sign = (-1) ** S.m
    records = []
    for p in range(inv.p_max + 1):
        n = S.m + p
        k = k_denominator(S, p)
        lhs = (n + 1) * L * inv.c[n]
        rhs = sign * (inv.D[n + 1] + (n + 1) * L * inv.EG[n])
        text = _fraction_str(inv.c[n], k)  # K_p, the value of lhs over the denominator
        records.append(_value_record("FEL_MAIN", p, lhs, rhs, (n + 1) * L * k, lhs_text=text))
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
    = (3*s1^2 + s2)/4, with T_2 = (3*s1^2 + s2)/12. The paper's delta_k
    = (sigma_k - 1)/2^k enter as e_k = sigma_k - 1 = 2^k delta_k, so that
    the closed form of K_p is an integer row over den = 2, 24, 24, 960. The
    record compares c[m+p] den against row k_denominator(S, p), over
    k_denominator(S, p) den, as FEL_MAIN does.
    """
    S, G = inv.S, inv.G
    _, s1, s2, _, s4 = power_sums(S.generators, 4)
    e1, e2, e4 = s1 - 1, s2 - 1, s4 - 1
    t2 = 3 * s1**2 + s2  # 12 T_2(sigma)
    # the G_r terms of the p = 3 row
    g3 = 960 * G[3] + 1440 * s1 * G[2] + 240 * t2 * G[1] + 120 * s1 * (s1**2 + s2) * G[0]
    rows = [
        (2, 2 * G[0] + e1),
        (24, 24 * G[1] + 12 * s1 * G[0] + 3 * e1**2 + e2),
        (24, 24 * G[2] + 24 * s1 * G[1] + 2 * t2 * G[0] + e1 * (e1**2 + e2)),
        (960, g3 + 15 * e1**4 + 30 * e1**2 * e2 + 5 * e2**2 - 2 * e4),
    ]
    records = []
    for p, (den, row) in enumerate(rows):
        k = k_denominator(S, p)
        records.append(_value_record("LOW_ORDER_K", p, inv.c[S.m + p] * den, row * k, k * den))
    return records


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
    entry n = m + p of LEMMA_ONE_MINUS_Q, read from that lemma's lists, and
    prints its text of C_n/n!.
    """
    order, L, h, m = inv.order, inv.L, inv.h, inv.S.m
    sign = (-1) ** m
    ns = range(order + 1)
    c = list(inv.c[: order + 1])
    G = list(inv.G[: order + 1])
    # n! and (n+1)! L, the denominators of the sides, with the Bernoulli
    # table that D was built from; map and zip stop at the order
    *_, facts, scaled = _bernoulli_plan(len(inv.D) - 1, _scaled_bernoulli)
    # C_n/n!, the passing text of SERIES_C, the lhs of ONE_MINUS_Q and of EQ_FINAL
    c_texts = list(map(_fraction_str, c, facts))
    c_text = " ".join(c_texts)

    # M Phi, with M = 1 unless some Phi_n is not an integer; then the
    # records of C and Phi compare every side times M
    phi, M = _gap_power_sums_by_classes(inv.W, order)
    p_sums = h.prod.power_sums(order)
    p_div = _quotient_power_sums(h.prod, order)
    phi_p = _egf_mul(phi, p_sums, order)
    one_minus_q = [M * ((n == 0) - p_div[n]) + phi_p[n] for n in ns]
    m_facts, m_c, m_G, note = facts, c, G, ""
    if M != 1:
        m_facts = [M * f for f in facts]
        m_c = [M * v for v in c]
        m_G = [M * g for g in G]
        note = "Phi from the Apéry set is not an integer"
    rhs_p = [sign * e for e in inv.E[: order + 1]]
    lhs_pdiv = [(n + 1) * L * v for n, v in zip(ns, p_div)]
    rhs_pdiv = [-sign * inv.D[n + 1] for n in ns]
    pdiv_text = " ".join(map(_fraction_str, p_div, facts))  # the value of lhs_pdiv over scaled
    lhs_q = [(n + 1) * L * v for n, v in zip(ns, c)]
    assembled = [
        (n == 0) * L + sign * ((n + 1) * L * inv.EG[n] + inv.D[n + 1]) for n in ns
    ]
    return [
        _ratio_record("LEMMA_SERIES_C", order, one_minus_q, m_c, m_facts, rhs_text=c_text),
        _ratio_record("LEMMA_SERIES_PHI", order, phi, m_G, m_facts, note),
        _ratio_record("LEMMA_SERIES_P", order, p_sums, rhs_p, facts),
        _ratio_record("LEMMA_SERIES_PDIV", order, lhs_pdiv, rhs_pdiv, scaled, lhs_text=pdiv_text),
        _ratio_record("LEMMA_ONE_MINUS_Q", order, lhs_q, assembled, scaled, lhs_text=c_text),
        *(
            _value_record("EQ_FINAL", p, lhs_q[n], assembled[n], scaled[n], lhs_text=c_texts[n])
            for p, n in enumerate(range(m, m + inv.p_max + 1))
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
def _zigzag_plan(n: int, rows: tuple, tangent) -> tuple:
    """What FEL2_ZIGZAG at n reads, with T_j = rows[j] and A_i = tangent(i):
    the terms of w_K and w_1, V, V^K and the right side's (coefficient,
    terms) pairs."""
    K = 2 * n + 1
    # T_j = w_j / V for the T_j the identity reads, V the lcm of their denominators
    polys = {j: rows[j] for j in (*range(0, K, 2), 1, K)}
    V = lcm(*(poly.den for poly in polys.values()))
    w = {j: tuple((c * (V // poly.den), pairs) for c, pairs in poly.sparse) for j, poly in polys.items()}
    # T_K = sum_j (-1)^j A_{2j+1} C(K, 2j+1) T_{2n-2j} T_1^(2j+1), A the
    # tangent numbers. Times V^(K+1) both sides are integers, over the one
    # denominator w_1^K V = T_1^K V^(K+1):
    # w_K V^K = sum_j (-1)^j A_{2j+1} C(K, 2j+1) V^(2n-2j) w_{2n-2j} w_1^(2j+1)
    rhs_terms = tuple(
        ((-1) ** j * tangent(2 * j + 1) * comb(K, 2 * j + 1) * V ** (2 * n - 2 * j), w[2 * n - 2 * j])
        for j in range(n + 1)
    )
    return w[K], w[1], V, V**K, rhs_terms


@lru_cache(maxsize=None)
def _signflip_plan(n: int, poly, factor, scaled_bernoulli) -> tuple:
    """What FEL1_SIGNFLIP at n reads of T_n = poly and of the umbral factors.

    The denominator of T_n, its sparse terms split by whether the narrow
    reading agrees with the wide one (see verify_companions), the powers
    L^m for m <= 4, and two tables of the EGF products of one or two of
    the factors factor(v, n), v in 1..9, keyed on their entries in draw
    order: heads holds each product reversed, so that heads[d][0] is its
    coefficient n, and tails each product's coefficient k times C(n, k).
    _umbral_side reads the coefficient n of the product of any one to four
    factors off these tables.
    """
    # The wide reading negates every even-index s_k (index i holds s_{i+1});
    # the narrow one negates only s2 and sn, so it differs from the wide
    # one on the terms with an odd total exponent of the other even s_k.
    same, differ = [], []
    for c, pairs in poly.sparse:
        if sum(e for i, e in pairs if i % 2) % 2:
            c = -c
        odd = sum(e for i, e in pairs if i % 2 and i + 1 not in (2, n)) % 2
        (differ if odd else same).append((c, pairs))
    L = scaled_bernoulli(n)[0]
    # L times the EGF coefficients of v t/(1 - e^{-v t}), and their pairwise products
    products = {(v,): factor(v, n) for v in range(1, 10)}
    for v, w in combinations_with_replacement(range(1, 10), 2):
        products[v, w] = products[w, v] = _egf_mul(products[v,], products[w,], n)
    row = _binomial_row(n)
    heads = {d: tuple(f[n::-1]) for d, f in products.items()}
    tails = {d: tuple(map(mul, row, f)) for d, f in products.items()}
    return poly.den, tuple(same), tuple(differ), tuple(L**m for m in range(5)), heads, tails


def _umbral_side(heads, tails, d) -> int:
    """Coefficient n of the EGF product of the factors of the 1 to 4 entries
    d, from the tables of _signflip_plan(n, ...): heads[d][0] for up to two
    entries, else sum_k C(n, k) P[n - k] R[k] with P the product for d[:2]
    and R that for d[2:]."""
    head = heads[d[:2]]
    return head[0] if len(d) <= 2 else sum(map(mul, head, tails[d[2:]]))


ZIGZAG_N = 3  # FEL2_ZIGZAG for n = 1..3
SIGNFLIP_N = 7  # FEL1_SIGNFLIP for n = 2..7
# Cost is linear in samples: `felcheck verify 3 5 --samples 10000 --format json`
# takes about 1.2 s (the companion checks about 0.9 s of it) and 110 MB on a
# 2-core VM, most of the memory for the 90,000 records and the 22 MB document.
SAMPLES_MAX = 10_000


def check_samples(samples: int) -> None:
    """Refuse a companion sample count outside [1, SAMPLES_MAX] with ValueError."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > SAMPLES_MAX:
        raise ValueError(f"samples is limited to {SAMPLES_MAX}, got {samples}")


def verify_companions(samples: int = 20, seed: int = 0) -> VerificationReport:
    """Randomized exact checks of the two companion identities for T.

    The zig-zag recursion is checked for 1 <= n <= ZIGZAG_N at rational
    sample points; the Bernoulli-umbra sign-flip identity is checked for
    2 <= n <= SIGNFLIP_N at positive integer vectors. The sign-flip check
    negates every even-indexed power sum; whenever the narrower "flip only
    s2 and sn" reading would give a different value, that value is recorded
    in the note rather than silently discarded. check_samples refuses a
    samples count outside [1, SAMPLES_MAX] before anything is drawn.

    Everything runs on integers, one sample at a time, in the order of the
    draws, zig-zag first; the report lists the sign-flip records first, as
    IDENTITIES does. A rational sample point is drawn as reduced (num, den)
    pairs and scaled to the integers p_i = q x_i; T_j is homogeneous, so the
    recorded values, both sides over T_1^K, are the same at the p_i.

    - FEL2_ZIGZAG reads symbolic T_j as universal stores it (its .sparse view,
      summed by _evaluate) over one denominator V per n, at s_k = sum_i p_i^k, which
      come from running products of the p_i; the right side reads the
      tangent numbers (zigzag), with V^(2n-2j) folded into its coefficients
      (_zigzag_plan).
    - FEL1_SIGNFLIP reads the same form of T_n at the power sums of the entries
      d_i, added up from a table of v^k for v in 1..9; both readings come
      from one pass over those terms. The umbral side is n! L^m times the
      t^n coefficient of the product of the m factors d_i t/(1 - e^{-d_i t})
      (universal._umbral_factor). _signflip_plan forms the EGF products of
      every pair of the nine factors to order n, so that the coefficient is
      one lookup for m <= 2 and one dot product of at most n + 1 terms for
      m = 3 or 4 (_umbral_side). It shares no code with T_n but bernoulli(),
      which t_symbolic's recurrence reads directly and the factors through
      _scaled_bernoulli, and which the tests pin against sympy.

    The two plans hold all that does not depend on a draw, and each is built
    once per process for each n and each input it reads: _zigzag_plan is
    cached on (n, the rows T_0 .. T_K, zigzag), _signflip_plan on (n, T_n,
    _umbral_factor, _scaled_bernoulli), the rows as t_symbolic returns them
    and the kernels as this module's globals hold them at the call. A kernel
    swapped in by a test, or a T_n row rebuilt, builds its own plan, and the
    real one is back when the swap is undone. No cache key holds the seed,
    the sample count or a drawn value: every call draws, computes and
    compares all of its records.

    Each record holds one value: the two sides, over one denominator, are
    compared as integers, and the value is printed once when they agree.
    """
    check_samples(samples)
    rng = random.Random(seed)
    zig, flip = [], []

    for n in range(1, ZIGZAG_N + 1):
        K = 2 * n + 1
        rows = tuple(map(t_symbolic, range(K + 1)))
        top, one, V, VK, rhs_terms = _zigzag_plan(n, rows, zigzag)
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
        plan = _signflip_plan(n, t_symbolic(n), _umbral_factor, _scaled_bernoulli)
        den, same, differ, scales, heads, tails = plan
        for i in range(samples):
            d = tuple([_randint(rng, 1, 9) for _ in range(_randint(rng, 1, 4))])
            s = powers[d[0]]
            for v in d[1:]:
                s = list(map(add, s, powers[v]))
            kept, flipped = _evaluate(same, s), _evaluate(differ, s)
            # n! L^m times the t^n coefficient of prod_i d_i t/(1 - e^{-d_i t})
            umbral = _umbral_side(heads, tails, d)
            scale = scales[len(d)]
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
        m = _randint(rng, 1, m_max)
        gens = [_randint(rng, 1, d_max) for _ in range(m)]
        if gcd(*gens) == 1:
            return make_semigroup(gens)


# Most generators effective_order accepts. On a 2-core VM, at --p-max 0
# --samples 1, `felcheck verify $(seq 2 101)` (m = 100) takes 0.5 s,
# $(seq 2 151) 1.5 s, $(seq 2 201) 5 s and $(seq 2 499) over two minutes.
# This bounds m, not the whole cost, which also grows with the generators:
# the 100 primes from 1009 up take 16 s at the default --p-max 8.
M_MAX = 100


class TooManyGenerators(ValueError):
    """More than M_MAX generators, refused before any series is built."""

    def __init__(self, m: int):
        super().__init__(f"the number of generators is limited to {M_MAX}, got {m}")


def effective_order(m: int, p_max: int, order: int | None) -> tuple[int, str | None]:
    """Resolve the series order: m + p_max + 2 by default, an order below
    m + p_max raised to it with a warning. The one owner of its limits: a
    negative p_max raises ValueError, an order above ORDER_MAX OrderTooLarge,
    then m above M_MAX TooManyGenerators."""
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    minimum, warning = m + p_max, None
    if order is None:
        order = minimum + 2
    elif order < minimum:
        order, warning = minimum, f"order raised from {order} to {minimum} (minimum is m + p_max)"
    if order > ORDER_MAX:
        raise OrderTooLarge(order)
    if m > M_MAX:
        raise TooManyGenerators(m)
    return order, warning


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
