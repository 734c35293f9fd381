"""Universal symmetric polynomials and companion number sequences.

The central objects are the polynomials T_n defined through the series

    prod_i (exp(x_i t) - 1) / (x_i t)

whose t^n coefficient times n! is T_n(x_1, ..., x_m). T_n is symmetric and
weight-n homogeneous, so it depends on x only through the power sums
s_k = sum_i x_i^k; the symbolic form in the s_k is computed here as well,
by exponentiating sum_k lambda_k s_k t^k over a polynomial coefficient ring,
where lambda_k are the log coefficients of (e^u - 1)/u. Dividing the same
product by (e^t - 1)/t instead gives the shifted values: coefficient n times
n!/2^n equals T_n evaluated at delta_k = (s_k - 1)/2^k.

The numeric series are built in integers, as exponential generating
functions (EGFs: n! times the u^n coefficient). With q the lcm of the
denominators of x and p_i = q x_i, the product prod_i (e^{p_i u} - 1) has
integer EGF coefficients E[N]; each factor, with coefficients p_i^k for
k >= 1, multiplies in by the binomial convolution
out[N] = sum_k C(N, k) p_i^k e[N-k]. Substituting u = t/q and dividing by
t^m prod x_i turns E into the sigma series: coefficient n is
E[n+m] / ((n+m)! prod p_i q^n). The factor t/(e^t - 1) has EGF coefficients
B_k (Bernoulli numbers, minus convention), which are B_k q^k in u; scaled by
L = lcm of their denominators they are integers too, so the delta series and
the Bernoulli-umbra series are one more convolution each, and the only
division is by L in the final conversion to Fraction. No Fraction arithmetic
runs inside the loops.

Bernoulli numbers, zig-zag (secant/tangent) numbers, the inclusion-exclusion
subset power sum, and the Bernoulli-umbra powers used by the first Sylvester
wave are included because the identities under test relate all of them to T_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import mul

from .exact import RationalSeries


class ZeroVariable(ValueError):
    """The series factors (e^{x t} - 1)/(x t) need every variable nonzero."""


# Largest n for which symbolic T_n is built. `felcheck tn N` takes 3.6 s at
# N = 30 and 8.9 s at N = 34 on a 2-core VM, and more than 20 s at N = 40.
SYMBOLIC_N_MAX = 30


class SymbolicOrderTooLarge(ValueError):
    """Symbolic T_n is refused above SYMBOLIC_N_MAX, before any work is done."""

    def __init__(self, n: int):
        super().__init__(f"symbolic T_n is limited to n <= {SYMBOLIC_N_MAX}, got {n}")


@lru_cache(maxsize=None)
def _binomial_row(n: int) -> tuple[int, ...]:
    return tuple(comb(n, k) for k in range(n + 1))


def _egf_mul(a, b, n_max: int) -> list[int]:
    """Binomial convolution: out[n] = sum_k C(n, k) a[k] b[n-k] for n <= n_max.

    With a and b the EGF coefficients (n! times the u^n coefficient) of two
    series, out holds those of their product; all entries are integers.
    """
    return [
        sum(map(mul, map(mul, _binomial_row(n), a), reversed(b[: n + 1])))
        for n in range(n_max + 1)
    ]


def _powers(p: int, n_max: int) -> list[int]:
    out = [1]
    for _ in range(n_max):
        out.append(out[-1] * p)
    return out


def _integer_variables(x) -> tuple[list[int], int]:
    """Integers p_i and q with x_i = p_i / q, q the lcm of the denominators."""
    xs = [Fraction(c) for c in x]
    if any(c == 0 for c in xs):
        raise ZeroVariable("variables must be nonzero")
    q = lcm(*(c.denominator for c in xs))
    return [c.numerator * (q // c.denominator) for c in xs], q


def _exp_minus_one_product(ps, n_max: int) -> list[int]:
    """EGF coefficients of prod_i (e^{p_i u} - 1) up to u^n_max, one factor
    at a time. A factor's EGF coefficients are p^k for k >= 1 and 0 at k = 0."""
    e = [1] + [0] * n_max
    for p in ps:
        factor = _powers(p, n_max)
        factor[0] = 0
        e = _egf_mul(factor, e, n_max)
    return e


@lru_cache(maxsize=None)
def _scaled_bernoulli(n_max: int) -> tuple[int, tuple[int, ...]]:
    """L and the integers L * B_k for k <= n_max, with B_k in the minus
    convention (B_1 = -1/2) and L the lcm of their denominators."""
    table = list(_bernoulli_table(_table_size(n_max))[: n_max + 1])
    if n_max:
        table[1] = -table[1]
    L = lcm(*(b.denominator for b in table))
    return L, tuple(b.numerator * (L // b.denominator) for b in table)


def _egf_to_series(values, shift: int, scale: int, q: int, order: int) -> RationalSeries:
    """Series whose t^n coefficient is values[n + shift] / ((n + shift)! * scale * q^n)."""
    return RationalSeries(
        Fraction(values[n + shift], factorial(n + shift) * scale * q**n)
        for n in range(order + 1)
    )


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")


def sigma_egf(x, order: int) -> RationalSeries:
    """Product of (e^{x_i t} - 1)/(x_i t); coefficient n is T_n(x)/n!.

    The empty product is the constant series 1.
    """
    _check_order(order)
    ps, q = _integer_variables(x)
    m = len(ps)
    e = _exp_minus_one_product(ps, order + m)
    return _egf_to_series(e, m, prod(ps), q, order)


def delta_egf(x, order: int) -> RationalSeries:
    """t/(e^t - 1) times the sigma series; coefficient n is 2^n T_n(delta)/n!."""
    _check_order(order)
    ps, q = _integer_variables(x)
    m = len(ps)
    L, bern = _scaled_bernoulli(order + m)
    scaled = [b * qk for b, qk in zip(bern, _powers(q, order + m))]
    d = _egf_mul(scaled, _exp_minus_one_product(ps, order + m), order + m)
    return _egf_to_series(d, m, L * prod(ps), q, order)


def t_value(x, n: int) -> Fraction:
    """T_n evaluated exactly at a vector of nonzero rationals."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return factorial(n) * sigma_egf(x, n).coeff(n)


def t_delta(x, n: int) -> Fraction:
    """T_n evaluated at the shifted power sums delta_k = (s_k - 1)/2^k."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(factorial(n), 2**n) * delta_egf(x, n).coeff(n)


@lru_cache(maxsize=None)
def lambda_table(K: int) -> tuple[Fraction, ...]:
    """Coefficients of log((e^u - 1)/u) up to u^K, indexed so entry k is lambda_k.

    Entry 0 is a zero placeholder. All odd entries from 3 on vanish.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    base = RationalSeries(Fraction(1, factorial(k + 1)) for k in range(K + 1))
    return base.log().coeffs


class SigmaPolynomial:
    """Sparse polynomial in the power-sum indeterminates s1, s2, ...

    Terms map exponent tuples to Fraction coefficients: the key (2, 1) stands
    for s1^2 * s2. Keys carry no trailing zeros and zero coefficients are
    never stored, so equality is structural. Instances are treated as
    immutable; all operations return fresh polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            mono = tuple(mono)
            while mono and mono[-1] == 0:
                mono = mono[:-1]
            clean[mono] = clean.get(mono, Fraction(0)) + c
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("SigmaPolynomial is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def variable(cls, k: int):
        """The indeterminate s_k."""
        if k < 1:
            raise ValueError("variable index must be positive")
        return cls({(0,) * (k - 1) + (1,): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SigmaPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return SigmaPolynomial({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, SigmaPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return SigmaPolynomial(out)

    def __sub__(self, other):
        if not isinstance(other, SigmaPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SigmaPolynomial):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    a, b = (m1, m2) if len(m1) >= len(m2) else (m2, m1)
                    mono = tuple(
                        e + (b[i] if i < len(b) else 0) for i, e in enumerate(a)
                    )
                    out[mono] = out.get(mono, Fraction(0)) + c1 * c2
            return SigmaPolynomial(out)
        c = Fraction(other)
        return SigmaPolynomial({m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def evaluate(self, sigma) -> Fraction:
        """Evaluate with sigma[k-1] as the value of s_k.

        The terms are summed over the lcm of the coefficient denominators,
        so at integer power sums the sum is an integer and one Fraction is
        made at the end.
        """
        values = [v if type(v) is int else Fraction(v) for v in sigma]
        den = lcm(*(c.denominator for c in self.terms.values()))
        acc = 0
        for mono, c in self.terms.items():
            term = c.numerator * (den // c.denominator)
            for i, e in enumerate(mono):
                if e:
                    term *= values[i] ** e
            acc += term
        return Fraction(acc) / den

    def weights(self) -> set[int]:
        """Weighted degrees of the monomials, with s_k carrying weight k."""
        return {sum((i + 1) * e for i, e in enumerate(mono)) for mono in self.terms}

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def pretty(self, var: str = "s") -> str:
        """Cleared-denominator rendering, e.g. "(3*s1^2 + s2)/12"."""
        if not self.terms:
            return "0"
        den = 1
        for c in self.terms.values():
            den = lcm(den, c.denominator)
        parts = []
        for mono, c in self._sorted_terms():
            n = int(c * den)
            factors = []
            for i, e in enumerate(mono):
                if e:
                    factors.append(f"{var}{i + 1}" + (f"^{e}" if e > 1 else ""))
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

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"SigmaPolynomial({self.terms!r})"


@lru_cache(maxsize=None)
def t_symbolic(n: int) -> SigmaPolynomial:
    """T_n as an exact polynomial in s1 .. sn.

    Computed as n! times the t^n coefficient of exp(sum_k lambda_k s_k t^k)
    over the polynomial coefficient ring, which keeps the result independent
    of any particular number of variables.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > SYMBOLIC_N_MAX:
        raise SymbolicOrderTooLarge(n)
    if n == 0:
        return SigmaPolynomial.one()
    lam = lambda_table(n)
    u = [SigmaPolynomial.zero()]
    for k in range(1, n + 1):
        u.append(SigmaPolynomial.variable(k) * lam[k])
    e = [SigmaPolynomial.one()] + [SigmaPolynomial.zero()] * n
    for k in range(1, n + 1):
        acc = SigmaPolynomial.zero()
        for j in range(1, k + 1):
            if u[j]:
                acc = acc + u[j] * e[k - j] * j
        e[k] = acc * Fraction(1, k)
    return e[n] * factorial(n)


def subset_power_sum(x, n: int) -> Fraction:
    """Alternating inclusion-exclusion power sum over the nonempty subsets of x.

    Subsets of odd size contribute positively, even size negatively. Used as
    the brute-force route back to T via division by the variable product.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
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


def _table_size(n: int) -> int:
    """Entries 0..n come from a table sized to the next power of two (at
    least 8), so that asking for every n up to 128 builds five tables."""
    return max(8, 1 << (n - 1).bit_length())


@lru_cache(maxsize=None)
def _bernoulli_table(n_max: int) -> tuple[Fraction, ...]:
    # inverse of (1 - e^{-u})/u, whose k-th coefficient is (-1)^k/(k+1)!
    base = RationalSeries(
        Fraction((-1) ** k, factorial(k + 1)) for k in range(n_max + 1)
    )
    inv = RationalSeries.constant(1, n_max) / base
    return tuple(inv.coeff(n) * factorial(n) for n in range(n_max + 1))


def bernoulli(n: int) -> Fraction:
    """Bernoulli number with the plus convention (entry 1 is +1/2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _bernoulli_table(_table_size(n))[n]


@lru_cache(maxsize=None)
def _zigzag_table(j_max: int) -> tuple[Fraction, ...]:
    coeffs_sin = [Fraction(0)] * (j_max + 1)
    coeffs_cos = [Fraction(0)] * (j_max + 1)
    for k in range(0, j_max + 1, 2):
        coeffs_cos[k] = Fraction((-1) ** (k // 2), factorial(k))
    for k in range(1, j_max + 1, 2):
        coeffs_sin[k] = Fraction((-1) ** (k // 2), factorial(k))
    ratio = (RationalSeries.constant(1, j_max) + RationalSeries(coeffs_sin)) / RationalSeries(coeffs_cos)
    return tuple(ratio.coeff(j) * factorial(j) for j in range(j_max + 1))


def zigzag(j: int) -> Fraction:
    """Zig-zag number: j! times the x^j coefficient of sec x + tan x."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return _zigzag_table(_table_size(j))[j]


def _umbral_egf(d, order: int) -> tuple[list[int], int]:
    """Integer EGF coefficients u and the scale s with u[n] / s equal to n!
    times the t^n coefficient of umbral_series(d, order)."""
    gens = tuple(int(v) for v in d)
    if any(v < 1 for v in gens):
        raise ValueError("umbral variables must be positive integers")
    _check_order(order)
    L, bern = _scaled_bernoulli(order)
    u = _powers(sum(gens), order)
    for di in gens:
        u = _egf_mul([b * dk for b, dk in zip(bern, _powers(di, order))], u, order)
    return u, L ** len(gens)


def umbral_series(d, order: int) -> RationalSeries:
    """Generating series exp(s1 t) * prod_i d_i t/(e^{d_i t} - 1); constant term 1."""
    u, scale = _umbral_egf(d, order)
    return _egf_to_series(u, 0, scale, 1, order)


def umbral_power(d, r: int) -> Fraction:
    """r-th Bernoulli-umbra power of s1 + sum_i B_i d_i, via its generating series.

    Each umbra substitutes the k-th Bernoulli number (minus convention, entry
    1 equal to -1/2) for the k-th power of its symbol.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    u, scale = _umbral_egf(d, r)
    return Fraction(u[r], scale)
