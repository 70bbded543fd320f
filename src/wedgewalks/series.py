"""Truncated Laurent series over exact rationals.

A :class:`TSeries` represents

    sum(c_k * t**k for k in range(valuation, order + 1))  +  O(t**(order + 1))

with every ``c_k`` an exact ``fractions.Fraction``.  Negative valuations are
supported throughout; the root formulas of the kernel machinery divide
valuation-2 numerators by valuation-1 denominators, so Laurent handling is not
optional.  All operations are pure and all values immutable, and every result
carries the tightest truncation order that the operands justify:

    add/sub : min(Na, Nb)
    mul     : min(Na + vb, Nb + va)
    div     : min(Na - vb, Nb + va - 2*vb)
    sqrt    : Na - va/2

where a zero series, being O(t**(N + 1)), counts as valuation N + 1.
No operation ever rounds a coefficient.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


class SeriesError(ValueError):
    """Base error for series arithmetic."""


class ZeroDivisionSeriesError(SeriesError):
    """Division by an identically-zero series."""


class OrderUnderflowError(SeriesError):
    """An operation produced a series with no reliable coefficients."""


class SqrtBranchError(SeriesError):
    """Square root of odd valuation or non-square leading coefficient."""


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


class TSeries:
    """Immutable truncated Laurent series in t with Fraction coefficients."""

    __slots__ = ("_val", "_coeffs", "_order")

    def __init__(self, valuation: int, coeffs: Iterable[Scalar], order: int):
        coeffs = [Fraction(c) for c in coeffs]
        # normalize: drop leading zeros, clip to order
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            valuation += 1
        if len(coeffs) > order - valuation + 1:
            coeffs = coeffs[: max(0, order - valuation + 1)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            valuation = 0
        self._val = valuation
        self._coeffs = tuple(coeffs)
        self._order = order

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dict(entries: Mapping[int, Scalar], order: int) -> "TSeries":
        if not entries:
            return TSeries(0, [], order)
        lo = min(entries)
        hi = max(entries)
        coeffs = [Fraction(entries.get(k, 0)) for k in range(lo, hi + 1)]
        return TSeries(lo, coeffs, order)

    @staticmethod
    def constant(c: Scalar, order: int) -> "TSeries":
        return TSeries(0, [Fraction(c)], order)

    @staticmethod
    def zero(order: int) -> "TSeries":
        return TSeries(0, [], order)

    @staticmethod
    def t_power(k: int, order: int, c: Scalar = 1) -> "TSeries":
        return TSeries(k, [Fraction(c)], order)

    # -- basic accessors ---------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def valuation(self) -> int | None:
        """Exponent of the lowest nonzero term; None for the zero series."""
        return self._val if self._coeffs else None

    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, k: int) -> Fraction:
        if k > self._order:
            raise OrderUnderflowError(
                f"coefficient t^{k} beyond reliable order {self._order}"
            )
        if not self._coeffs or k < self._val or k >= self._val + len(self._coeffs):
            return Fraction(0)
        return self._coeffs[k - self._val]

    def coeffs_upto(self, hi: int, lo: int = 0) -> list[Fraction]:
        return [self.coeff(k) for k in range(lo, hi + 1)]

    def truncate(self, order: int) -> "TSeries":
        if order > self._order:
            raise OrderUnderflowError(
                f"cannot extend reliable order {self._order} to {order}"
            )
        return TSeries(self._val, self._coeffs, order)

    def shift(self, k: int) -> "TSeries":
        """Multiply by t**k (exact; adjusts the reliable order by k)."""
        return TSeries(self._val + k, self._coeffs, self._order + k)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x, order: int) -> "TSeries":
        if isinstance(x, TSeries):
            return x
        return TSeries.constant(x, order)

    def add(self, other) -> "TSeries":
        other = self._coerce(other, self._order)
        order = min(self._order, other._order)
        if self.is_zero():
            return other.truncate(order)
        if other.is_zero():
            return self.truncate(order)
        lo = min(self._val, other._val)
        hi = min(order, max(self._val + len(self._coeffs), other._val + len(other._coeffs)) - 1)
        coeffs = [self.coeff(k) + other.coeff(k) for k in range(lo, hi + 1)]
        return TSeries(lo, coeffs, order)

    def neg(self) -> "TSeries":
        return TSeries(self._val, [-c for c in self._coeffs], self._order)

    def sub(self, other) -> "TSeries":
        other = self._coerce(other, self._order)
        return self.add(other.neg())

    def mul(self, other) -> "TSeries":
        other = self._coerce(other, self._order)
        # a zero series is O(t**(order + 1)): its valuation counts as order + 1
        va = self._val if self._coeffs else self._order + 1
        vb = other._val if other._coeffs else other._order + 1
        order = min(self._order + vb, other._order + va)
        if not (self._coeffs and other._coeffs):
            return TSeries.zero(order)
        lo = va + vb
        if order < lo:
            raise OrderUnderflowError("product has no reliable coefficients")
        n_out = order - lo + 1
        out = [Fraction(0)] * n_out
        a, b = self._coeffs, other._coeffs
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            jmax = min(len(b), n_out - i)
            for j in range(jmax):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return TSeries(lo, out, order)

    def inverse(self) -> "TSeries":
        if self.is_zero():
            raise ZeroDivisionSeriesError("inverse of the zero series")
        rel = self._order - self._val  # relative order of the unit part
        if rel < 0:
            raise OrderUnderflowError("inverse has no reliable coefficients")
        return TSeries.constant(1, rel).div(self)

    def div(self, other) -> "TSeries":
        other = self._coerce(other, self._order)
        if other.is_zero():
            raise ZeroDivisionSeriesError("division by an identically-zero series")
        # quotient valuation = val(self) - val(other); long division on the
        # unit parts keeps everything exact.
        va = self._val if self._coeffs else self._order + 1
        vb = other._val
        order = min(self._order - vb, other._order + va - 2 * vb)
        if not self._coeffs:
            return TSeries.zero(order)
        lo = va - vb
        if order < lo:
            raise OrderUnderflowError("quotient has no reliable coefficients")
        n_out = order - lo + 1
        a, b = self._coeffs, other._coeffs
        lead = b[0]
        out = [Fraction(0)] * n_out
        for k in range(n_out):
            s = a[k] if k < len(a) else Fraction(0)
            for j in range(1, min(k, len(b) - 1) + 1):
                s -= b[j] * out[k - j]
            out[k] = s / lead
        return TSeries(lo, out, order)

    def pow(self, n: int) -> "TSeries":
        if n < 0:
            return self.inverse().pow(-n)
        if n == 0:
            return TSeries.constant(1, self._order)
        # square-and-multiply (exponents here are small), seeded with the
        # first factor: a seed 1 + O(t**k) would cap the order at k
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def sqrt(self) -> "TSeries":
        """Square-root branch with positive leading coefficient.

        Requires even valuation and a leading coefficient that is the square
        of a rational.  The unit part u has root s with s_0 = sqrt(u_0) and
        s_k = (u_k - sum(s_j * s_(k-j) for 0 < j < k)) / (2 * s_0).
        """
        if self.is_zero():
            # the root of O(t**(order + 1)) is O(t**ceil((order + 1) / 2))
            return TSeries.zero(self._order // 2)
        if self._val % 2:
            raise SqrtBranchError(f"odd valuation {self._val} has no series sqrt")
        lead = _fraction_sqrt(self._coeffs[0])
        if lead is None:
            raise SqrtBranchError(
                f"leading coefficient {self._coeffs[0]} is not a rational square"
            )
        rel = self._order - self._val
        u = self._coeffs
        twice = 2 * lead
        out = [lead]
        for k in range(1, rel + 1):
            s = u[k] if k < len(u) else Fraction(0)
            for j in range(1, k):
                s -= out[j] * out[k - j]
            out.append(s / twice)
        half = self._val // 2
        return TSeries(half, out, self._order - half)

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return self.add(other)

    def __radd__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __rsub__(self, other):
        return self.neg().add(other)

    def __neg__(self):
        return self.neg()

    def __mul__(self, other):
        return self.mul(other)

    def __rmul__(self, other):
        return self.mul(other)

    def __truediv__(self, other):
        return self.div(other)

    def __rtruediv__(self, other):
        return self._coerce(other, self._order).div(self)

    def __pow__(self, n: int):
        return self.pow(n)

    # -- comparison helpers ------------------------------------------------

    def first_difference(self, other: "TSeries") -> int | None:
        """Smallest exponent where the two series differ, or None.

        Comparison runs over the window both sides know reliably.
        """
        order = min(self._order, other._order)
        vals = [v for v in (self.valuation, other.valuation) if v is not None]
        if not vals:
            return None
        lo = min(vals)
        for k in range(lo, order + 1):
            if self.coeff(k) != other.coeff(k):
                return k
        return None

    def same(self, other: "TSeries") -> bool:
        return self.first_difference(other) is None

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return (self._val == other._val and self._coeffs == other._coeffs
                and self._order == other._order)

    def __hash__(self):
        return hash((self._val, self._coeffs, self._order))

    # -- serialization and printing ---------------------------------------

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "valuation": self._val if self._coeffs else 0,
            "order": self._order,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self._coeffs],
        }
        return json.dumps(payload, sort_keys=True)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            k = self._val + i
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                tk = "t" if k == 1 else f"t^{k}"
                term = tk if mag == 1 else f"{mag}*{tk}"
            sign = "-" if c < 0 else "+"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        body = " ".join(parts) if parts else "0"
        return f"{body} + O(t^{self._order + 1})"

    def __repr__(self) -> str:
        return f"TSeries({self})"


def tpoly(entries: Mapping[int, Scalar], order: int) -> TSeries:
    """Convenience constructor for (Laurent) polynomials."""
    return TSeries.from_dict(entries, order)

