"""Exact scalar arithmetic: rationals and truncated power series in h.

Everything in this library is computed over the rationals; there is no
floating point anywhere.  A rational has one canonical form (``exact``): a
whole value is an ``int``, any other a ``fractions.Fraction`` in lowest terms
with positive denominator.  Map entries, vectors and solver outputs hold
canonical scalars, so the mostly +-1 entries of the sparse kernel add and
multiply as ints, without the gcd work of a Fraction.  ``/`` between two ints
gives a float, so every true division here has a Fraction operand.
Truncated series in the formal deformation parameter h carry their
truncation order explicitly, and every operation returns a result valid to
the largest order justified by its operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm


class SeriesValuationError(ArithmeticError):
    """Series division whose leading-zero structure makes the quotient undefined."""


def exact(x):
    """The canonical scalar equal to the rational x: an int when whole, else a Fraction.

    Raises TypeError on anything that is not an int or a Fraction: a float
    such as 0.1 is not the rational 1/10, and is refused rather than rounded.
    """
    if isinstance(x, (int, Fraction)):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


def ratio(p: int, q: int):
    """The canonical scalar p/q of two ints, q nonzero."""
    return p // q if p % q == 0 else Fraction(p, q)


def cleared(entries: dict) -> tuple[dict, int]:
    """(ints, den): the values times den, the lcm of their denominators; ints come back as is."""
    dens = {v.denominator for v in entries.values() if type(v) is not int}
    if not dens:
        return entries, 1
    den = lcm(*dens)
    return {k: v.numerator * (den // v.denominator) for k, v in entries.items()}, den


def rat_str(x: Fraction) -> str:
    """Render a rational as 'p' or 'p/q'."""
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class HSeries:
    """Truncated formal power series in h with rational coefficients.

    ``coeffs[k]`` multiplies h^k and ``len(coeffs) == order + 1``.  Two series
    are equal iff their orders and all coefficients agree.  Coefficients must
    be ints or Fractions (see ``exact``); a float raises TypeError.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("series order must be non-negative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient list must have length order+1")
        object.__setattr__(self, "coeffs", tuple(Fraction(exact(c)) for c in self.coeffs))

    @staticmethod
    def from_coeffs(coeffs, order: int | None = None) -> HSeries:
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if len(cs) < order + 1:
            cs += [0] * (order + 1 - len(cs))
        return HSeries(order, tuple(cs[: order + 1]))

    @staticmethod
    def constant(value, order: int) -> HSeries:
        return HSeries(order, (value,) + (0,) * order)

    @staticmethod
    def zero(order: int) -> HSeries:
        return HSeries.constant(0, order)

    @staticmethod
    def one(order: int) -> HSeries:
        return HSeries.constant(1, order)

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    def truncate(self, order: int) -> HSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return HSeries(order, self.coeffs[: order + 1])

    def __add__(self, other: HSeries) -> HSeries:
        n = min(self.order, other.order)
        return HSeries(n, tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: HSeries) -> HSeries:
        n = min(self.order, other.order)
        return HSeries(n, tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __neg__(self) -> HSeries:
        return HSeries(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> HSeries:
        if isinstance(other, HSeries):
            n = min(self.order, other.order)
            cs = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        cs[i + j] += a * b
            return HSeries(n, tuple(cs))
        c = exact(other)
        return HSeries(self.order, tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__

    def divide(self, other: HSeries) -> HSeries:
        """Exact truncated division, cancelling a shared leading-zero valuation.

        Permitted when ``other`` has a nonzero constant term, or when both
        operands vanish to exactly the same order v with the h^v coefficient
        of ``other`` nonzero.  The quotient is returned to the largest order
        the operands justify, namely min(orders) - v.
        """
        vb = other.valuation()
        if vb is None:
            raise ZeroDivisionError("series division by the zero series")
        n = min(self.order, other.order)
        va = self.valuation()
        if va is None:
            # 0 / b: justified to order n - vb.
            if n - vb < 0:
                raise SeriesValuationError("dividend known to too low an order")
            return HSeries.zero(n - vb)
        if vb != 0 and va != vb:
            raise SeriesValuationError(
                f"valuations differ (dividend h^{va}, divisor h^{vb}); quotient undefined"
            )
        v = vb
        m = n - v
        a = self.coeffs[v : v + m + 1]
        b = other.coeffs[v : v + m + 1]
        q: list[Fraction] = []
        for k in range(m + 1):
            acc = a[k]
            for i in range(k):
                acc -= q[i] * b[k - i]
            q.append(acc / b[0])
        return HSeries(m, tuple(q))

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = rat_str(c)
            if k == 1:
                term += "*h"
            elif k > 1:
                term += f"*h^{k}"
            parts.append(term)
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(h^{self.order + 1})"


def q_power(z, order: int) -> HSeries:
    """Truncation of exp(z*h/2): the coefficient of h^k is z^k / (2^k k!)."""
    if order < 0:
        raise ValueError("order must be non-negative")
    z = Fraction(exact(z))
    cs = []
    zk = Fraction(1)
    for k in range(order + 1):
        cs.append(zk / (2**k * factorial(k)))
        zk *= z
    return HSeries(order, tuple(cs))


def q_bracket(z, order: int) -> HSeries:
    """q^z - q^(-z), i.e. 2*sinh(z*h/2), truncated at the given order."""
    return q_power(z, order) - q_power(-exact(z), order)
