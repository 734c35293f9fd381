"""Independent brute-force oracles used by the tests.

Nothing here shares code with the library paths it checks: gaps come from a
boolean representability table, Bernoulli numbers from the classical
recurrence, partition counts from the recurrence on the largest part,
surjection numbers from inclusion-exclusion, the product of the factors
e^{p u} - 1 from one binomial convolution per factor, the umbral powers
from a literal multinomial expansion, the subset power sums from
inclusion-exclusion over every subset, and the values of a symbolic T_n from
its terms summed in Fraction. companions_reference is the one exception: it
is the Fraction-based companion check that the integer kernel in
verify_companions replaced, kept to pin that kernel's records. It reuses the
library's E kernel (_exp_minus_one_product) for the zig-zag values, the
symbolic T_n terms, zigzag and the record helpers; its sign-flip side is
the multinomial umbral power and the Fraction evaluator here.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from felcheck.exact import IntPolynomial
from felcheck.universal import (
    _exp_minus_one_product,
    _integer_variables,
    t_symbolic,
    zigzag,
)
from felcheck.verify import (
    ZIGZAG_N,
    VerificationReport,
    _ratio_record,
    _record,
)


def representable_table(gens, limit):
    """table[n] is True iff n is a nonnegative integer combination of gens."""
    table = [False] * (limit + 1)
    table[0] = True
    for n in range(1, limit + 1):
        table[n] = any(n >= d and table[n - d] for d in gens)
    return table


def gaps_by_table(gens):
    """Gap list by direct dynamic programming, scanning until a run of
    min(gens) consecutive representable numbers proves there are no more."""
    a = min(gens)
    table = [True]
    gaps = []
    run = 1
    n = 0
    while run < a:
        n += 1
        ok = any(n >= d and table[n - d] for d in gens)
        table.append(ok)
        if ok:
            run += 1
        else:
            run = 0
            gaps.append(n)
    return gaps


@lru_cache(maxsize=None)
def partition_count(n, largest=None):
    """Number of partitions of n into parts of size at most largest
    (default n), by the recurrence on the largest part."""
    if largest is None or largest > n:
        largest = n
    if n == 0:
        return 1
    return sum(partition_count(n - k, k) for k in range(1, largest + 1))


@lru_cache(maxsize=None)
def bernoulli_minus(n):
    """Bernoulli numbers with B_1 = -1/2, by the classical recurrence."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli_minus(j)
    return -acc / (n + 1)


def _compositions(r, parts):
    """Every tuple of parts nonnegative integers with sum r."""
    if parts == 1:
        yield (r,)
        return
    for k in range(r + 1):
        for rest in _compositions(r - k, parts - 1):
            yield (k, *rest)


def umbral_power_multinomial(d, r, b1_plus=False):
    """Multinomial expansion of the r-th power of s1 + sum_i B_i d_i.

    Each umbra's k-th power becomes the k-th Bernoulli number; b1_plus
    selects the +1/2 convention for the index-1 value.
    """

    def bern(k):
        if k == 1 and b1_plus:
            return Fraction(1, 2)
        return bernoulli_minus(k)

    s1 = sum(d)
    total = Fraction(0)
    for ks in _compositions(r, len(d) + 1):
        coeff = factorial(r)
        for k in ks:
            coeff //= factorial(k)
        term = Fraction(coeff) * s1 ** ks[0]
        for di, k in zip(d, ks[1:]):
            term *= bern(k) * di**k
        total += term
    return total


def subset_power_sum(x, n):
    """Alternating inclusion-exclusion power sum over the nonempty subsets of x.

    Subsets of odd size contribute positively, even size negatively. Divided
    by (-1)^(m+1) prod x_i n!/(n-m)! it gives T_{n-m}(x), m = len(x).
    """
    xs = [Fraction(c) for c in x]
    total = Fraction(0)
    for mask in range(1, 1 << len(xs)):
        s = Fraction(0)
        for i, c in enumerate(xs):
            if mask >> i & 1:
                s += c
        term = s**n
        total += term if mask.bit_count() % 2 else -term
    return total


def evaluate_symbolic(poly, sigma):
    """A SigmaPolynomial at sigma[k-1] for s_k, each term summed as a Fraction."""
    total = Fraction(0)
    for mono, c in poly.terms.items():
        for k, e in enumerate(mono):
            c *= Fraction(sigma[k]) ** e
        total += c
    return total


# Dense reference arithmetic on coefficient lists (index = exponent), kept
# deliberately naive: the sparse IntPolynomial is checked against these.


def dense_trim(a):
    """Copy of a with trailing zeros removed."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def dense_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return dense_trim(out)


def dense_sub(a, b):
    return dense_add(a, [-c for c in b])


def poly_sub(a, b):
    """The IntPolynomial a - b, term by term: the reference routes' only
    subtraction of polynomials."""
    acc = dict(a.items())
    for e, c in b.items():
        acc[e] = acc.get(e, 0) - c
    return IntPolynomial.from_terms(sorted(acc.items()))


def dense_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return dense_trim(out)


def dense_divmod(a, b):
    """Long division over the rationals: (quotient, remainder) as trimmed
    Fraction lists with deg remainder < deg b."""
    b = dense_trim(b)
    rem = [Fraction(c) for c in dense_trim(a)]
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return dense_trim(quot), dense_trim(rem)


def dense_at_exp(a, order):
    """Coefficients of a(e^t) up to t^order: sum_k a_k k^n / n!, with 0^0 = 1."""
    return [Fraction(sum(c * k**n for k, c in enumerate(a)), factorial(n)) for n in range(order + 1)]


def product_by_lists(gens):
    """Dense coefficients of prod (1 - z^d)."""
    out = [1]
    for d in gens:
        out = dense_mul(out, [1] + [0] * (d - 1) + [-1])
    return out


def numerator_by_gap_route(gens):
    """Hilbert numerator as P/(1-z) - Phi*P, with Phi from the table oracle's gaps."""
    prod = product_by_lists(gens)
    quot, rem = dense_divmod(prod, [1, -1])
    assert rem == []
    gaps = gaps_by_table(gens)
    phi = [0] * (max(gaps) + 1 if gaps else 0)
    for g in gaps:
        phi[g] = 1
    return dense_sub([int(c) for c in quot], dense_mul(phi, prod))


def numerator_by_membership(gens):
    """Hilbert numerator as the membership series of the semigroup times
    prod (1 - z^d), truncated past the degree the numerator can reach."""
    prod = product_by_lists(gens)
    gaps = gaps_by_table(gens)
    limit = len(prod) + (max(gaps) if gaps else 0)
    member = representable_table(gens, limit)
    series = [1 if member[n] else 0 for n in range(limit + 1)]
    return dense_trim(dense_mul(series, prod)[: limit + 1])


def exp_minus_one_product_by_convolution(ps, n_max):
    """EGF coefficients of prod (e^{p u} - 1) up to u^n_max, one binomial
    convolution per factor: a factor's EGF coefficients are p^k, k >= 1."""
    e = [1] + [0] * n_max
    for p in ps:
        factor = [0] + [p**k for k in range(1, n_max + 1)]
        e = [sum(comb(n, k) * factor[k] * e[n - k] for k in range(n + 1)) for n in range(n_max + 1)]
    return e


def surjection_number(n, j):
    """j! S(n, j), the number of maps from n points onto j, by inclusion-exclusion."""
    return sum((-1) ** (j - i) * comb(j, i) * i**n for i in range(j + 1))


# The Fraction route to the T_n generating series: truncated power series
# over Fraction, as plain lists, multiplied and divided term by term. The
# library builds the same series by integer binomial convolution.


def unit_factor(c, order):
    """Coefficients of (e^{c t} - 1)/(c t) up to t^order: c^k / (k+1)!."""
    c = Fraction(c)
    return [c**k / factorial(k + 1) for k in range(order + 1)]


def series_mul(a, b):
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def series_div(a, b):
    """Quotient a / b of truncated series; b needs a nonzero constant term."""
    out = []
    for k in range(min(len(a), len(b))):
        out.append((a[k] - sum(out[j] * b[k - j] for j in range(k))) / b[0])
    return out


def series_log(a):
    """Logarithm of a truncated series with constant term 1, from
    a' = a (log a)': k b_k = k a_k - sum_{0<j<k} j b_j a_{k-j}."""
    assert a[0] == 1
    out = [Fraction(0)]
    for k in range(1, len(a)):
        out.append((k * a[k] - sum(j * out[j] * a[k - j] for j in range(1, k))) / k)
    return out


def sigma_by_series(x, order):
    """Product of the unit factors (e^{x_i t} - 1)/(x_i t)."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for c in x:
        out = series_mul(out, unit_factor(c, order))
    return out


def delta_by_series(x, order):
    """The sigma series divided by (e^t - 1)/t."""
    return series_div(sigma_by_series(x, order), unit_factor(1, order))


def umbral_by_series(d, order):
    """exp(s1 t) divided by (e^{d_i t} - 1)/(d_i t) for each d_i."""
    s1 = sum(d)
    out = [Fraction(s1**k, factorial(k)) for k in range(order + 1)]
    for di in d:
        out = series_div(out, unit_factor(di, order))
    return out


def _random_rational_vector(rng):
    # nonzero entries with nonzero sum, so T_1 is invertible
    while True:
        m = rng.randint(1, 4)
        xs = []
        for _ in range(m):
            num = rng.randint(-9, 9) or 1
            xs.append(Fraction(num, rng.randint(1, 9)))
        if sum(xs) != 0:
            return tuple(xs)


def companions_reference(samples, seed):
    """The companion checks as verify_companions made them before its integer
    kernel: Fraction sample points, the zig-zag values T_j from the series E
    rebuilt per sample, the sign-flip readings by evaluate_symbolic and the
    umbral side by umbral_power_multinomial. Same rng calls, same records."""
    rng = random.Random(seed)
    report = VerificationReport(None)
    tangent = [zigzag(2 * j + 1) for j in range(ZIGZAG_N + 1)]

    for n in range(1, ZIGZAG_N + 1):
        K = 2 * n + 1
        for i in range(samples):
            x = _random_rational_vector(rng)
            ps, _ = _integer_variables(x)
            m = len(ps)
            E = _exp_minus_one_product(ps, K + m)
            fM = factorial(K + m)
            tau = [factorial(j) * E[j + m] * (fM // factorial(j + m)) for j in range(K + 1)]
            U = fM * math.prod(ps)
            lhs = tau[K] * U**K
            rhs = 0
            for j in range(n + 1):
                term = (
                    tangent[j]
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
            sigma = [(k, sum(v**k for v in d)) for k in range(1, n + 1)]
            lhs = umbral_power_multinomial(d, n)
            wide = evaluate_symbolic(poly, [-v if k % 2 == 0 else v for k, v in sigma])
            narrow = evaluate_symbolic(poly, [-v if k in (2, n) else v for k, v in sigma])
            note = f"sample {i}: d = {d}"
            if narrow != wide:
                note += (
                    f"; flipping only s2 and s{n} gives {narrow}, "
                    "the identity needs every even-index power sum flipped"
                )
            report.checks.append(_record("FEL1_SIGNFLIP", n, lhs, wide, note))
    return report
