"""Exact verification of the gap/syzygy identities over whole semigroups.

Every check compares two exact values and passes only on literal equality;
there is no tolerance anywhere. Randomized sweeps take an explicit seed that
is recorded in the report, so every run is reproducible.

The per-semigroup identities are checked on integers. In exponential
generating function (EGF) form, where a sequence v stands for the series
sum_n v[n] t^n / n!, every side of every identity is an integer sequence, or
one divided by L (n + 1). So one immutable table of integer invariants is
built per semigroup, at N = order + 1:

- E, the EGF of prod_i (e^{d_i t} - 1), one factor at a time; E[n] = 0 for
  n < m;
- L and D = L * (t / (e^t - 1)) * E, with L the lcm of the denominators of
  the Bernoulli numbers B_0 .. B_N;
- c, the alternating syzygy power sums C_r of the Hilbert numerator Q;
- G, the gap power sums, from the Apéry set alone by the recurrence in
  semigroup.gap_power_sums, never from the gap list;
- EG, the EGF product of E and G.

With n = m + p, Fel's bracket is p! (D[n+1] + (n+1) L EG[n]) / ((n+1)! pi L),
so FEL_MAIN and EQ_FINAL both hold iff (n+1) L c[n] = (-1)^m (D[n+1] +
(n+1) L EG[n]). The series lemmas compare, for every n <= order:

- LEMMA_SERIES_C: c against (1 - Q)(e^t), with 1 - Q assembled by the
  second route 1 - P/(1 - z) + Phi P, P = prod (1 - z^{d_i}) and Phi the
  gap polynomial;
- LEMMA_SERIES_PHI: Phi(e^t), the only scan of the gap list, against G from
  the Apéry set, so the two sides share no code;
- LEMMA_SERIES_P: P(e^t) against (-1)^m E;
- LEMMA_SERIES_PDIV: (n+1) L (P/(1 - z))(e^t) against -(-1)^m D[n+1];
- LEMMA_ONE_MINUS_Q: c against [n = 0] + (-1)^m (EG[n] + D[n+1] / ((n+1) L)).

verify_semigroup builds the table once and the verify_* calls it makes read
it; a standalone verify_* call builds its own. A Fraction is made only to
print a record, one per printed coefficient, and a passing record prints
one value for both sides.
"""

from __future__ import annotations

import random
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, prod

from .exact import IntPolynomial
from .hilbert import (
    HilbertData,
    alternating_syzygy_sums,
    hilbert_numerator,
    k_denominator,
    k_invariant,  # noqa: F401  no check here uses it; perfbench's tracer test reads it off this module
)
from .semigroup import (
    DEFAULT_BOUND,
    GapData,
    SemigroupSpec,
    compute_gaps,
    gap_power_sums,
    generator_stats,
    make_semigroup,
)
from .universal import (
    _egf_mul,
    _exp_minus_one_product,
    _integer_variables,
    _scaled_bernoulli,
    t_symbolic,
    umbral_power,
    zigzag,
)

IDENTITIES = (
    "FEL_MAIN",
    "THM_KP",
    "LOW_ORDER_K",
    "M2_CLOSED_FORM",
    "LEMMA_SERIES_C",
    "LEMMA_SERIES_PHI",
    "LEMMA_SERIES_P",
    "LEMMA_SERIES_PDIV",
    "LEMMA_ONE_MINUS_Q",
    "EQ_FINAL",
    "FEL1_SIGNFLIP",
    "FEL2_ZIGZAG",
)

PASS, FAIL, SKIP = "pass", "fail", "skip"


@dataclass(frozen=True)
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
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def sort(self) -> "VerificationReport":
        """Deterministic ordering by identity then parameter (stable for samples)."""
        self.checks.sort(
            key=lambda c: (
                IDENTITIES.index(c.identity),
                c.parameter if c.parameter is not None else -1,
            )
        )
        return self


def _record(identity, parameter, lhs, rhs, note="") -> CheckRecord:
    status = PASS if lhs == rhs else FAIL
    return CheckRecord(identity, parameter, str(lhs), str(rhs), status, note)


def _render(values, dens) -> str:
    return " ".join(str(Fraction(v, d)) for v, d in zip(values, dens))


def _ratio_record(identity, parameter, lhs, rhs, dens, note="") -> CheckRecord:
    """Record for two sides whose entries are lhs[n]/dens[n] and rhs[n]/dens[n].

    The sides are equal iff the integer lists are, and then one rendering
    serves both; a single value is a list of length one.
    """
    text = _render(lhs, dens)
    if list(lhs) == list(rhs):
        return CheckRecord(identity, parameter, text, text, PASS, note)
    return CheckRecord(identity, parameter, text, _render(rhs, dens), FAIL, note)


@dataclass(frozen=True)
class _Table:
    """Integer invariants of one semigroup to a series order; see the module
    docstring. E and D run to index order + 1, the rest to order. Every
    entry is independent of the order, so a table serves any lower order."""

    S: SemigroupSpec
    gaps: GapData
    h: HilbertData
    order: int
    E: tuple[int, ...]
    L: int
    D: tuple[int, ...]
    c: tuple[int, ...]
    G: tuple[int, ...]
    EG: tuple[int, ...]


# The table verify_semigroup built, while it runs.
_SHARED: ContextVar[_Table | None] = ContextVar("felcheck_verify_table", default=None)


def _build_table(S: SemigroupSpec, gaps: GapData, h: HilbertData, order: int) -> _Table:
    N = order + 1
    E = _exp_minus_one_product(S.generators, N)
    L, bern = _scaled_bernoulli(N)
    G = gap_power_sums(gaps, order)
    return _Table(
        S,
        gaps,
        h,
        order,
        tuple(E),
        L,
        tuple(_egf_mul(bern, E, N)),
        tuple(alternating_syzygy_sums(h, order)),
        tuple(G),
        tuple(_egf_mul(E, G, order)),
    )


def _table(S, gaps, h, bound, order: int) -> _Table:
    """The table verify_semigroup is running on, if these are its arguments
    and it reaches the order; otherwise a new one."""
    shared = _SHARED.get()
    if (
        shared is not None
        and shared.S is S
        and shared.gaps is gaps
        and shared.h is h
        and shared.order >= order
    ):
        return shared
    if gaps is None:
        gaps = compute_gaps(S, bound)
    if h is None:
        h = hilbert_numerator(S, gaps)
    return _build_table(S, gaps, h, order)


def verify_fel_main(
    S: SemigroupSpec, p_max: int, gaps=None, h=None, bound: int = DEFAULT_BOUND
) -> VerificationReport:
    """Check the main identity for 0 <= p <= p_max.

    The left side is the normalized alternating syzygy sum from the Hilbert
    numerator; the right side combines gap power sums from the Apéry set
    with T evaluated at the generators and at the shifted power sums. Both
    routes are exact and share no code, so agreement is a genuine
    cross-check. The un-normalized form is recorded alongside as EQ_FINAL.
    """
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    t = _table(S, gaps, h, bound, S.m + p_max)
    sign = (-1) ** S.m
    report = VerificationReport(S.generators)
    for p in range(p_max + 1):
        n = S.m + p
        scaled_c = (n + 1) * t.L * t.c[n]
        bracket = t.D[n + 1] + (n + 1) * t.L * t.EG[n]
        den = factorial(n + 1) * t.L
        fel_den = S.pi * t.L * (factorial(n + 1) // factorial(p))
        report.checks.append(_ratio_record("FEL_MAIN", p, [sign * scaled_c], [bracket], [fel_den]))
        report.checks.append(_ratio_record("EQ_FINAL", p, [scaled_c], [sign * bracket], [den]))
    return report


def verify_thm_kp(
    S: SemigroupSpec, gaps=None, h=None, bound: int = DEFAULT_BOUND
) -> VerificationReport:
    """Check the three structural clauses of the low-index alternating sums.

    Applies to two or more generators; for a single generator the statement
    is vacuous and a skip record is emitted instead.
    """
    report = VerificationReport(S.generators)
    if S.m == 1:
        report.checks.append(
            CheckRecord(
                "THM_KP", None, "", "", SKIP, "statement applies to m >= 2 only"
            )
        )
        return report
    c = _table(S, gaps, h, bound, S.m - 1).c
    expected = [1] + [0] * (S.m - 2) + [(-1) ** S.m * factorial(S.m - 1) * S.pi]
    for r, value in enumerate(expected):
        report.checks.append(_ratio_record("THM_KP", r, [c[r]], [value], [1]))
    return report


def verify_low_order(
    S: SemigroupSpec, gaps=None, h=None, bound: int = DEFAULT_BOUND
) -> VerificationReport:
    """Check the four low-order closed forms for the normalized invariants.

    The coefficient of G_1 in the p = 3 row is binom(3,1) * T_2
    = (3*s1^2 + s2)/4; see the decisions ledger for the provenance of that
    coefficient.
    """
    t = _table(S, gaps, h, bound, S.m + 3)
    stats = generator_stats(S, 4)
    s1, s2 = stats.sigma[0], stats.sigma[1]
    d1, d2, d4 = stats.delta[0], stats.delta[1], stats.delta[3]
    G = t.G
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
    report = VerificationReport(S.generators)
    for p, rhs in enumerate(closed):
        k = Fraction(t.c[S.m + p], k_denominator(S, p))
        report.checks.append(_record("LOW_ORDER_K", p, k, rhs))
    return report


def verify_m2_closed_form(
    S: SemigroupSpec, p_max: int, gaps=None, h=None, bound: int = DEFAULT_BOUND
) -> VerificationReport:
    """For two coprime generators: the numerator is 1 - z^{d1*d2} and
    the invariants are (d1*d2)^{p+1} / ((p+1)(p+2))."""
    report = VerificationReport(S.generators)
    if S.m != 2:
        report.checks.append(
            CheckRecord(
                "M2_CLOSED_FORM", None, "", "", SKIP, f"m = {S.m}; statement is for m = 2"
            )
        )
        return report
    t = _table(S, gaps, h, bound, S.m + p_max)
    expected = IntPolynomial.one_minus_pow(S.pi)
    report.checks.append(
        _record("M2_CLOSED_FORM", None, t.h.numerator, expected, "numerator form")
    )
    for p in range(p_max + 1):
        # K_p = c[p+2] / (pi (p+1)(p+2)) against pi^{p+2} over the same denominator
        report.checks.append(
            _ratio_record(
                "M2_CLOSED_FORM", p, [t.c[p + 2]], [S.pi ** (p + 2)], [k_denominator(S, p)]
            )
        )
    return report


def verify_series_lemmas(
    S: SemigroupSpec, order: int, gaps=None, h=None, bound: int = DEFAULT_BOUND
) -> VerificationReport:
    """Check the five series identities coefficient-by-coefficient to the order.

    Each side is an integer EGF sequence, compared entry by entry over the
    denominator n! (or (n+1)! L); see the module docstring.
    """
    if order < S.m:
        raise ValueError(f"order {order} is below the generator count {S.m}")
    t = _table(S, gaps, h, bound, order)
    sign = (-1) ** S.m
    L = t.L
    ns = range(order + 1)
    c = t.c[: order + 1]
    facts = [factorial(n) for n in ns]
    scaled = [factorial(n + 1) * L for n in ns]
    report = VerificationReport(S.generators, order=order)

    phi = t.h.phi.power_sums(order)
    p_sums = t.h.prod.power_sums(order)
    p_div = t.h.prod.exact_div(IntPolynomial.one_minus_pow(1)).power_sums(order)
    phi_p = _egf_mul(phi, p_sums, order)
    one_minus_q = [(n == 0) - p_div[n] + phi_p[n] for n in ns]
    report.checks.append(_ratio_record("LEMMA_SERIES_C", order, one_minus_q, c, facts))

    report.checks.append(_ratio_record("LEMMA_SERIES_PHI", order, phi, t.G[: order + 1], facts))

    rhs_p = [sign * e for e in t.E[: order + 1]]
    report.checks.append(_ratio_record("LEMMA_SERIES_P", order, p_sums, rhs_p, facts))

    lhs_pdiv = [(n + 1) * L * v for n, v in zip(ns, p_div)]
    rhs_pdiv = [-sign * t.D[n + 1] for n in ns]
    report.checks.append(_ratio_record("LEMMA_SERIES_PDIV", order, lhs_pdiv, rhs_pdiv, scaled))

    lhs_q = [(n + 1) * L * v for n, v in zip(ns, c)]
    assembled = [
        (n == 0) * L + sign * ((n + 1) * L * t.EG[n] + t.D[n + 1]) for n in ns
    ]
    report.checks.append(_ratio_record("LEMMA_ONE_MINUS_Q", order, lhs_q, assembled, scaled))
    return report


def _random_rational_vector(rng) -> tuple[Fraction, ...]:
    # nonzero entries with nonzero sum, so T_1 is invertible
    while True:
        m = rng.randint(1, 4)
        xs = []
        for _ in range(m):
            num = rng.randint(-9, 9) or 1
            xs.append(Fraction(num, rng.randint(1, 9)))
        if sum(xs) != 0:
            return tuple(xs)


def _signflip(sigma, flip_all_even: bool, n: int):
    """Sign pattern applied to the power sums for the first companion identity.

    flip_all_even negates every even-indexed power sum; the narrow reading
    negates only indices 2 and n.
    """
    out = []
    for i, v in enumerate(sigma, start=1):
        if flip_all_even:
            flip = i % 2 == 0
        else:
            flip = i == 2 or (i == n and n > 2)
        out.append(-v if flip else v)
    return out


def verify_companions(n_max: int = 3, samples: int = 20, seed: int = 0) -> VerificationReport:
    """Randomized exact checks of the two companion identities for T.

    The zig-zag recursion is checked for 1 <= n <= n_max at rational sample
    points; the Bernoulli-umbra sign-flip identity is checked for 2 <= n <= 7
    at positive integer vectors. The sign-flip check negates every
    even-indexed power sum; whenever the narrower "flip only s2 and sn"
    reading would give a different value, that value is recorded in the note
    rather than silently discarded.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1 (the recursion starts at n = 1)")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    report = VerificationReport(None, seed=seed)

    for n in range(1, n_max + 1):
        K = 2 * n + 1
        for i in range(samples):
            x = _random_rational_vector(rng)
            # T_j is homogeneous of degree j and both sides have degree 0, so
            # the integers p_i = q x_i give the same values. With M = K + m
            # and U = M! prod p_i, T_j = tau[j] / U; both sides times
            # T_1^K U^(K+1) are integers over the one denominator tau[1]^K U.
            ps, _ = _integer_variables(x)
            m = len(ps)
            E = _exp_minus_one_product(ps, K + m)
            fM = factorial(K + m)
            tau = [factorial(j) * E[j + m] * (fM // factorial(j + m)) for j in range(K + 1)]
            U = fM * prod(ps)
            lhs = tau[K] * U**K
            rhs = 0
            for j in range(n + 1):
                term = (
                    int(zigzag(2 * j + 1))
                    * comb(K, 2 * j + 1)
                    * tau[2 * n - 2 * j]
                    * tau[1] ** (2 * j + 1)
                    * U ** (2 * n - 2 * j)
                )
                rhs += -term if j % 2 else term
            note = f"sample {i}: x = ({', '.join(str(c) for c in x)})"
            report.checks.append(
                _ratio_record("FEL2_ZIGZAG", n, [lhs], [rhs], [tau[1] ** K * U], note)
            )

    for n in range(2, 8):
        poly = t_symbolic(n)
        for i in range(samples):
            d = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
            sigma = [sum(v**k for v in d) for k in range(1, n + 1)]
            lhs = umbral_power(d, n)
            rhs = poly.evaluate(_signflip(sigma, True, n))
            narrow = poly.evaluate(_signflip(sigma, False, n))
            note = f"sample {i}: d = {d}"
            if narrow != rhs:
                note += (
                    f"; flipping only s2 and s{n} gives {narrow}, "
                    "the identity needs every even-index power sum flipped"
                )
            report.checks.append(_record("FEL1_SIGNFLIP", n, lhs, rhs, note))
    return report


def random_semigroup(rng, m_max: int, d_max: int, m_min: int = 1, d_min: int = 1) -> SemigroupSpec:
    """Sample a generator list with gcd 1 (rejection sampling).

    m is drawn from [m_min, m_max] and each generator from [d_min, d_max].
    Ranges from which no coprime list can ever be drawn raise ValueError up
    front instead of looping forever.
    """
    empty = m_min > m_max or d_min > d_max or m_max < 1 or d_min < 1
    if empty or (d_min > 1 and (d_max == d_min or m_max < 2)):
        raise ValueError(
            f"no coprime generator list has m in [{m_min}, {m_max}] and entries in [{d_min}, {d_max}]"
        )
    while True:
        m = rng.randint(m_min, m_max)
        gens = [rng.randint(d_min, d_max) for _ in range(m)]
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
    bound: int = DEFAULT_BOUND,
) -> VerificationReport:
    """Run every per-semigroup identity and merge the records into one report.

    One table serves every part: it reaches the series order and m + 3,
    the highest index LOW_ORDER_K reads.
    """
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    order, warning = effective_order(S.m, p_max, order)
    gaps = compute_gaps(S, bound)
    h = hilbert_numerator(S, gaps)
    report = VerificationReport(S.generators, order=order)
    if warning:
        report.warnings.append(warning)
    token = _SHARED.set(_build_table(S, gaps, h, max(order, S.m + 3)))
    try:
        for part in (
            verify_fel_main(S, p_max, gaps, h),
            verify_thm_kp(S, gaps, h),
            verify_low_order(S, gaps, h),
            verify_m2_closed_form(S, p_max, gaps, h),
            verify_series_lemmas(S, order, gaps, h),
        ):
            report.checks.extend(part.checks)
    finally:
        _SHARED.reset(token)
    return report.sort()
