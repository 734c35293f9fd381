"""Exact verification of the gap/syzygy identities over whole semigroups.

Every check compares two exact values (rationals, integer polynomials, or
truncated series) and passes only on literal equality; there is no tolerance
anywhere. Randomized sweeps take an explicit seed that is recorded in the
report, so every run is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd

from .exact import IntPolynomial, RationalSeries
from .hilbert import (
    alternating_syzygy_sums,
    hilbert_numerator,
    k_denominator,
    k_invariant,
)
from .semigroup import (
    DEFAULT_BOUND,
    SemigroupSpec,
    compute_gaps,
    gap_power_sums,
    generator_stats,
    make_semigroup,
)
from .universal import (
    delta_egf,
    sigma_egf,
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


def _gaps_and_numerator(S, gaps, h, bound):
    if gaps is None:
        gaps = compute_gaps(S, bound)
    if h is None:
        h = hilbert_numerator(S, gaps)
    return gaps, h


def verify_fel_main(
    S: SemigroupSpec, p_max: int, gaps=None, h=None, bound: int = DEFAULT_BOUND
) -> VerificationReport:
    """Check the main identity for 0 <= p <= p_max.

    The left side is the normalized alternating syzygy sum from the Hilbert
    numerator; the right side combines gap power sums with T evaluated at the
    generators and at the shifted power sums. Both routes are exact and share
    no code, so agreement is a genuine cross-check. The un-normalized form is
    recorded alongside as EQ_FINAL.
    """
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    gaps, h = _gaps_and_numerator(S, gaps, h, bound)
    x = S.generators
    A = sigma_egf(x, p_max)
    B = delta_egf(x, p_max + 1)
    t_sig = [factorial(j) * A.coeff(j) for j in range(p_max + 1)]
    t_del = [Fraction(factorial(j), 2**j) * B.coeff(j) for j in range(p_max + 2)]
    G = gap_power_sums(gaps, p_max)
    c_sums = alternating_syzygy_sums(h, S.m + p_max)
    report = VerificationReport(S.generators)
    for p in range(p_max + 1):
        lhs = Fraction(c_sums[S.m + p], k_denominator(S, p))
        bracket = Fraction(2 ** (p + 1), p + 1) * t_del[p + 1]
        for r in range(p + 1):
            bracket += comb(p, r) * t_sig[p - r] * G[r]
        report.checks.append(_record("FEL_MAIN", p, lhs, bracket))
        lhs_final = Fraction(c_sums[S.m + p], factorial(S.m + p))
        rhs_final = Fraction((-1) ** S.m * S.pi, factorial(p)) * bracket
        report.checks.append(_record("EQ_FINAL", p, lhs_final, rhs_final))
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
    gaps, h = _gaps_and_numerator(S, gaps, h, bound)
    sums = alternating_syzygy_sums(h, S.m - 1)
    report.checks.append(_record("THM_KP", 0, sums[0], 1))
    for r in range(1, S.m - 1):
        report.checks.append(_record("THM_KP", r, sums[r], 0))
    expected = (-1) ** S.m * factorial(S.m - 1) * S.pi
    report.checks.append(_record("THM_KP", S.m - 1, sums[S.m - 1], expected))
    return report


def verify_low_order(
    S: SemigroupSpec, gaps=None, h=None, bound: int = DEFAULT_BOUND
) -> VerificationReport:
    """Check the four low-order closed forms for the normalized invariants.

    The coefficient of G_1 in the p = 3 row is binom(3,1) * T_2
    = (3*s1^2 + s2)/4; see the decisions ledger for the provenance of that
    coefficient.
    """
    gaps, h = _gaps_and_numerator(S, gaps, h, bound)
    stats = generator_stats(S, 4)
    s1, s2 = stats.sigma[0], stats.sigma[1]
    d1, d2, d4 = stats.delta[0], stats.delta[1], stats.delta[3]
    G = gap_power_sums(gaps, 3)
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
        report.checks.append(_record("LOW_ORDER_K", p, k_invariant(S, h, p), rhs))
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
    gaps, h = _gaps_and_numerator(S, gaps, h, bound)
    expected = IntPolynomial.one_minus_pow(S.pi)
    report.checks.append(
        _record("M2_CLOSED_FORM", None, h.numerator, expected, "numerator form")
    )
    for p in range(p_max + 1):
        rhs = Fraction(S.pi ** (p + 1), (p + 1) * (p + 2))
        report.checks.append(_record("M2_CLOSED_FORM", p, k_invariant(S, h, p), rhs))
    return report


def verify_series_lemmas(
    S: SemigroupSpec, order: int, gaps=None, h=None, bound: int = DEFAULT_BOUND
) -> VerificationReport:
    """Check the five series identities coefficient-by-coefficient to the order.

    All sides are compared as exact truncated series after substituting e^t
    into the relevant polynomials.
    """
    if order < S.m:
        raise ValueError(f"order {order} is below the generator count {S.m}")
    gaps, h = _gaps_and_numerator(S, gaps, h, bound)
    m, pi, x = S.m, S.pi, S.generators
    sign = (-1) ** m
    one = IntPolynomial([1])
    report = VerificationReport(S.generators, order=order)

    one_minus_q = (one - h.numerator).at_exp(order)
    c_sums = alternating_syzygy_sums(h, order)
    egf_c = RationalSeries(Fraction(c_sums[n], factorial(n)) for n in range(order + 1))
    report.checks.append(_record("LEMMA_SERIES_C", order, one_minus_q, egf_c))

    g_sums = gap_power_sums(gaps, order)
    egf_g = RationalSeries(Fraction(g_sums[n], factorial(n)) for n in range(order + 1))
    phi_exp = h.phi.at_exp(order)
    report.checks.append(_record("LEMMA_SERIES_PHI", order, phi_exp, egf_g))

    a_low = sigma_egf(x, order - m)
    rhs_p = a_low.shift(m) * (sign * pi)
    report.checks.append(_record("LEMMA_SERIES_P", order, h.prod.at_exp(order), rhs_p))

    b_low = delta_egf(x, order - m + 1)
    rhs_pdiv = b_low.shift(m - 1) * (-sign * pi)
    lhs_pdiv = h.prod.exact_div(IntPolynomial.one_minus_pow(1)).at_exp(order)
    report.checks.append(_record("LEMMA_SERIES_PDIV", order, lhs_pdiv, rhs_pdiv))

    phi_low = h.phi.at_exp(order - m)
    assembled = 1 + (b_low.shift(m - 1) + (a_low * phi_low).shift(m)) * (sign * pi)
    report.checks.append(_record("LEMMA_ONE_MINUS_Q", order, one_minus_q, assembled))
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
        for i in range(samples):
            x = _random_rational_vector(rng)
            series = sigma_egf(x, 2 * n + 1)
            T = [factorial(j) * series.coeff(j) for j in range(2 * n + 2)]
            lhs = T[2 * n + 1] / T[1] ** (2 * n + 1)
            rhs = Fraction(0)
            for j in range(n + 1):
                term = (
                    zigzag(2 * j + 1)
                    * comb(2 * n + 1, 2 * j + 1)
                    * T[2 * n - 2 * j]
                    / T[1] ** (2 * n - 2 * j)
                )
                rhs += -term if j % 2 else term
            note = f"sample {i}: x = ({', '.join(str(c) for c in x)})"
            report.checks.append(_record("FEL2_ZIGZAG", n, lhs, rhs, note))

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
    """Run every per-semigroup identity and merge the records into one report."""
    order, warning = effective_order(S.m, p_max, order)
    gaps = compute_gaps(S, bound)
    h = hilbert_numerator(S, gaps)
    report = VerificationReport(S.generators, order=order)
    if warning:
        report.warnings.append(warning)
    for part in (
        verify_fel_main(S, p_max, gaps, h),
        verify_thm_kp(S, gaps, h),
        verify_low_order(S, gaps, h),
        verify_m2_closed_form(S, p_max, gaps, h),
        verify_series_lemmas(S, order, gaps, h),
    ):
        report.checks.extend(part.checks)
    return report.sort()
