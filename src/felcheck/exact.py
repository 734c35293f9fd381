"""Exact arithmetic kernel: integer polynomials and truncated rational power series.

Everything in this module is exact. Scalars are Python ints or
``fractions.Fraction`` (always in lowest terms with positive denominator),
polynomials store only their nonzero terms as ascending (exponent,
coefficient) pairs, and power series carry an explicit truncation order that
is part of the value.
No floating point appears anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import factorial
from operator import index, mul

Rational = Fraction

# Terms per block in IntPolynomial.power_sums.
_POWER_BLOCK = 512


class NonExactDivision(ValueError):
    """Polynomial division left a remainder where exact division was required."""


class NonInvertibleConstantTerm(ValueError):
    """Series division requires a nonzero constant term in the divisor."""


class BadConstantTerm(ValueError):
    """Series log requires constant term 1; series exp requires constant term 0."""


class IntPolynomial:
    """Sparse univariate polynomial over the integers.

    Only the nonzero terms are stored: their exponents, strictly ascending,
    and their coefficients, as two parallel tuples. Two flat tuples take a
    quarter of the memory of one tuple of pairs, which counts for a gap
    polynomial with tens of thousands of terms. The form is canonical, so
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

    def coeff(self, n: int) -> int:
        i = bisect_left(self._exps, n)
        return self._coefs[i] if i < len(self._exps) and self._exps[i] == n else 0

    def __bool__(self):
        return bool(self._exps)

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._exps == other._exps and self._coefs == other._coefs

    def __hash__(self):
        return hash((self._exps, self._coefs))

    def __neg__(self):
        return IntPolynomial.from_terms((e, -c) for e, c in self.items())

    def __add__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        acc = dict(self.items())
        for e, c in other.items():
            acc[e] = acc.get(e, 0) + c
        return IntPolynomial._summed(acc)

    def __sub__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        acc = dict(self.items())
        for e, c in other.items():
            acc[e] = acc.get(e, 0) - c
        return IntPolynomial._summed(acc)

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

    def __call__(self, x):
        """Evaluate at x by Horner's rule over the nonzero terms (exact for
        int or Fraction input)."""
        acc = 0
        prev = self.degree
        for e, c in zip(reversed(self._exps), reversed(self._coefs)):
            acc = acc * x ** (prev - e) + c
            prev = e
        return acc * x**prev if prev > 0 else acc

    def power_sums(self, n_max: int) -> list[int]:
        """The integers sum_k p_k * k^n for 0 <= n <= n_max, with 0^0 = 1:
        n! times the t^n coefficient of p(e^t).

        Each power is one C-level pass of map(mul) over a block of terms;
        blocks of _POWER_BLOCK terms keep the big-integer lists short, so a
        gap polynomial with tens of thousands of terms adds no memory peak.
        """
        if n_max < 0:
            raise ValueError("order must be nonnegative")
        out = [0] * (n_max + 1)
        for i in range(0, len(self._exps), _POWER_BLOCK):
            exps = self._exps[i : i + _POWER_BLOCK]
            terms = self._coefs[i : i + _POWER_BLOCK]
            out[0] += sum(terms)
            for n in range(1, n_max + 1):
                terms = list(map(mul, terms, exps))
                out[n] += sum(terms)
        return out

    def at_exp(self, order: int) -> "RationalSeries":
        """Truncation of p(e^t): substitute e^t for the variable.

        The t^n coefficient is (sum_k p_k * k^n) / n!, with 0^0 = 1.
        """
        sums = self.power_sums(order)
        return RationalSeries(Fraction(s, factorial(n)) for n, s in enumerate(sums))

    def sparse_str(self) -> str:
        """Nonzero terms as ascending "degree:coefficient" pairs."""
        return " ".join(f"{e}:{c}" for e, c in self.items())

    def __str__(self):
        return self.sparse_str() if self else "0"

    def __repr__(self):
        return f"IntPolynomial.from_terms({list(self.items())!r})"


class RationalSeries:
    """Power series over Fraction truncated at an explicit order.

    A series of order o carries exact coefficients for t^0 .. t^o. Binary
    operations between two series return the minimum of the two orders, so
    precision is never silently invented; multiplying by t^k (``shift``)
    raises the order because the new low coefficients are exact zeros.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSeries is immutable")

    @classmethod
    def constant(cls, value, order: int) -> "RationalSeries":
        return cls([Fraction(value)] + [Fraction(0)] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n]

    def truncate(self, order: int) -> "RationalSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return RationalSeries(self.coeffs[: order + 1])

    def shift(self, k: int) -> "RationalSeries":
        """Multiply by t^k; order grows by k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return RationalSeries((Fraction(0),) * k + self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return RationalSeries(-c for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, RationalSeries):
            n = min(self.order, other.order)
            return RationalSeries(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
        out = list(self.coeffs)
        out[0] += Fraction(other)
        return RationalSeries(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalSeries) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RationalSeries):
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
        c = Fraction(other)
        return RationalSeries(x * c for x in self.coeffs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RationalSeries):
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
        return self * (Fraction(1) / Fraction(other))

    def log(self) -> "RationalSeries":
        """Series logarithm; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise BadConstantTerm("series log requires constant term 1")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            acc = k * self.coeffs[k]
            for j in range(1, k):
                acc -= j * out[j] * self.coeffs[k - j]
            out[k] = acc / k
        return RationalSeries(out)

    def exp(self) -> "RationalSeries":
        """Series exponential; requires constant term 0."""
        if self.coeffs[0] != 0:
            raise BadConstantTerm("series exp requires constant term 0")
        n = self.order
        out = [Fraction(1)] + [Fraction(0)] * n
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    acc += j * self.coeffs[j] * out[k - j]
            out[k] = acc / k
        return RationalSeries(out)

    def __str__(self):
        return " ".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"RationalSeries([{', '.join(str(c) for c in self.coeffs)}])"


def exp_series(c, order: int) -> RationalSeries:
    """Truncation of e^{c t} at the given order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = Fraction(c)
    out = [Fraction(1)]
    for n in range(1, order + 1):
        out.append(out[-1] * c / n)
    return RationalSeries(out)
