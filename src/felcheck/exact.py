"""Exact arithmetic: power sums, integer polynomials, truncated rational power series.

Everything in this module is exact. Scalars are Python ints or
``fractions.Fraction`` (always in lowest terms with positive denominator),
polynomials store only their nonzero terms as ascending (exponent,
coefficient) pairs, and power series carry an explicit truncation order that
is part of the value. power_sums is the one power-sum kernel of the
semigroup pipeline; the companion checks in verify compute the power sums of
their sample points inline, from running products.
No floating point appears anywhere. Only the benchmark's probes
(perfbench/spans.py) keep alive IntPolynomial's dense constructor, coeffs,
degree, *, exact_div and at_exp, RationalSeries and NonInvertibleConstantTerm.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import factorial
from operator import index, mul

# Values per block in power_sums: a list of any length, such as an Apéry set,
# adds no memory peak.
_POWER_BLOCK = 512


def power_sums(values, n_max: int, weights=None) -> list[int]:
    """The integers sum_i w_i x_i^n for 0 <= n <= n_max, with 0^0 = 1 and
    every w_i = 1 when weights is None: n! times the t^n coefficient of
    sum_i w_i e^{x_i t}.

    values and weights are sequences of integers of equal length. Each
    power is one C-level pass of map(mul) over a block of values.
    """
    if n_max < 0:
        raise ValueError("order must be nonnegative")
    out = [0] * (n_max + 1)
    for i in range(0, len(values), _POWER_BLOCK):
        xs = values[i : i + _POWER_BLOCK]
        terms = [1] * len(xs) if weights is None else weights[i : i + _POWER_BLOCK]
        out[0] += sum(terms)
        for n in range(1, n_max + 1):
            terms = list(map(mul, terms, xs))
            out[n] += sum(terms)
    return out


class NonExactDivision(ValueError):
    """Polynomial division left a remainder where exact division was required."""


class NonInvertibleConstantTerm(ValueError):
    """Series division requires a nonzero constant term in the divisor."""


class IntPolynomial:
    """Sparse univariate polynomial over the integers.

    Only the nonzero terms are stored: their exponents, strictly ascending,
    and their coefficients, as two parallel tuples. Two flat tuples take a
    quarter of the memory of one tuple of pairs. The form is canonical, so
    equality is structural and the zero polynomial has no terms. Every
    operation loops over nonzero terms only, so a polynomial of huge degree
    with a handful of terms (a Hilbert numerator, say) stays cheap.
    ``items()`` iterates over the (exponent, coefficient) pairs; ``coeffs`` is
    a read-only dense view built on demand.
    """

    __slots__ = ("_exps", "_coefs")

    def __init__(self, coeffs=()):
        """Polynomial from dense coefficients by ascending degree.

        Coefficients must be integers: floats, Fractions and bools raise
        TypeError instead of being truncated; int subclasses and other types
        with ``__index__`` are accepted.
        """
        exps, coefs = [], []
        for e, c in enumerate(coeffs):
            if isinstance(c, bool):
                raise TypeError(f"coefficient {c!r} is a bool, not an integer")
            c = index(c)
            if c:
                exps.append(e)
                coefs.append(c)
        self._store(exps, coefs)

    def _store(self, exps, coefs) -> None:
        object.__setattr__(self, "_exps", tuple(exps))
        object.__setattr__(self, "_coefs", tuple(coefs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def from_terms(cls, terms) -> "IntPolynomial":
        """Polynomial from (exponent, coefficient) pairs whose exponents are
        nonnegative and strictly ascending; zero coefficients drop out."""
        exps, coefs = [], []
        prev = -1
        for e, c in terms:
            if e <= prev:
                raise ValueError("exponents must be nonnegative and strictly ascending")
            prev = e
            if c:
                exps.append(e)
                coefs.append(c)
        poly = object.__new__(cls)
        poly._store(exps, coefs)
        return poly

    @classmethod
    def _summed(cls, acc: dict) -> "IntPolynomial":
        """Polynomial from an exponent -> coefficient dict in any order."""
        return cls.from_terms((e, acc[e]) for e in sorted(acc))

    @classmethod
    def one_minus_pow(cls, d: int) -> "IntPolynomial":
        """The binomial 1 - z**d (d must be positive)."""
        if d < 1:
            raise ValueError("exponent must be positive")
        return cls.from_terms(((0, 1), (d, -1)))

    def items(self):
        """Iterator over the nonzero terms as (exponent, coefficient) pairs,
        by ascending exponent."""
        return zip(self._exps, self._coefs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Dense coefficients by ascending degree, without trailing zeros."""
        out = [0] * (self.degree + 1)
        for e, c in self.items():
            out[e] = c
        return tuple(out)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return self._exps[-1] if self._exps else -1

    def __bool__(self):
        return bool(self._exps)

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._exps == other._exps and self._coefs == other._coefs

    def __mul__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        acc = {}
        for i, a in self.items():
            for j, b in other.items():
                acc[i + j] = acc.get(i + j, 0) + a * b
        return IntPolynomial._summed(acc)

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient in Z[z]; raises NonExactDivision on any remainder
        or on a quotient that is not integral.

        Long division from the top term down, in integers: each quotient
        coefficient is a divmod by the divisor's leading coefficient, which
        must leave nothing over. Remainder exponents still to be cleared
        wait in a max-heap, so only nonzero terms are ever visited.
        """
        if not divisor:
            raise NonExactDivision("division by the zero polynomial")
        db, lead = divisor._exps[-1], divisor._coefs[-1]
        tail = tuple(divisor.items())[:-1]
        rem = dict(self.items())
        todo = [-e for e in self._exps]
        heapify(todo)
        quot = {}
        while todo:
            e = -heappop(todo)
            c = rem.pop(e)
            if not c:
                continue
            if e < db:
                raise NonExactDivision("remainder is nonzero")
            q, r = divmod(c, lead)
            if r:
                raise NonExactDivision("quotient is not integral")
            quot[e - db] = q
            for j, b in tail:
                k = e - db + j
                if k in rem:
                    rem[k] -= q * b
                else:
                    rem[k] = -q * b
                    heappush(todo, -k)
        return IntPolynomial._summed(quot)

    def power_sums(self, n_max: int) -> list[int]:
        """The integers sum_k p_k * k^n for 0 <= n <= n_max, with 0^0 = 1:
        n! times the t^n coefficient of p(e^t)."""
        return power_sums(self._exps, n_max, self._coefs)

    def at_exp(self, order: int) -> "RationalSeries":
        """Truncation of p(e^t): substitute e^t for the variable.

        The t^n coefficient is (sum_k p_k * k^n) / n!, with 0^0 = 1.
        """
        sums = self.power_sums(order)
        return RationalSeries(Fraction(s, factorial(n)) for n, s in enumerate(sums))

    def __str__(self):  # nonzero terms as ascending "degree:coefficient" pairs
        return " ".join(f"{e}:{c}" for e, c in self.items()) or "0"

    def __repr__(self):
        return f"IntPolynomial.from_terms({list(self.items())!r})"


class RationalSeries:
    """Power series over Fraction truncated at an explicit order.

    A series of order o carries exact coefficients for t^0 .. t^o. Binary
    operations between two series return the minimum of the two orders, so
    precision is never silently invented.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "RationalSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return RationalSeries(self.coeffs[: order + 1])

    def __mul__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if a:
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return RationalSeries(out)

    def __truediv__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        if other.coeffs[0] == 0:
            raise NonInvertibleConstantTerm("divisor has constant term 0")
        n = min(self.order, other.order)
        b0 = other.coeffs[0]
        out = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc -= out[j] * other.coeffs[k - j]
            out.append(acc / b0)
        return RationalSeries(out)
