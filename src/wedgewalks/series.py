"""Truncated Laurent series over exact rationals, plus precision-tracked floats.

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

No operation ever rounds a coefficient.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

import mpmath

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

    @staticmethod
    def geometric(ratio_power: int, order: int) -> "TSeries":
        """1/(1 - t**ratio_power) as a series."""
        return TSeries.t_power(0, order).div(
            TSeries.from_dict({0: 1, ratio_power: -1}, order)
        )

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

    def _binary_order(self, other: "TSeries") -> int:
        return min(self._order, other._order)

    def add(self, other) -> "TSeries":
        other = self._coerce(other, self._order)
        order = self._binary_order(other)
        if self.is_zero():
            return other.truncate(min(order, other._order))
        if other.is_zero():
            return self.truncate(min(order, self._order))
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
        if self.is_zero() or other.is_zero():
            return TSeries.zero(self._binary_order(other))
        order = min(self._order + other._val, other._order + self._val)
        if order < self._val + other._val:
            raise OrderUnderflowError("product has no reliable coefficients")
        lo = self._val + other._val
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
        order = rel - self._val  # = self._order - 2*self._val
        if rel < 0:
            raise OrderUnderflowError("inverse has no reliable coefficients")
        lead = self._coeffs[0]
        inv = [Fraction(0)] * (rel + 1)
        inv[0] = 1 / lead
        a = self._coeffs
        for k in range(1, rel + 1):
            s = Fraction(0)
            for j in range(1, min(k, len(a) - 1) + 1):
                s += a[j] * inv[k - j]
            inv[k] = -s / lead
        return TSeries(-self._val, inv, order)

    def div(self, other) -> "TSeries":
        other = self._coerce(other, self._order)
        if other.is_zero():
            raise ZeroDivisionSeriesError("division by an identically-zero series")
        if self.is_zero():
            return TSeries.zero(min(self._order - other._val,
                                    other._order - 2 * other._val))
        # quotient valuation = val(self) - val(other); long division on the
        # unit parts keeps everything exact.
        va, vb = self._val, other._val
        order = min(self._order - vb, other._order + va - 2 * vb)
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
        result = TSeries.constant(1, self._order - self._val + n * self._val)
        base = self
        # simple square-and-multiply; exponents here are small
        e = n
        while e:
            if e & 1:
                result = result.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return result if n else TSeries.constant(1, self._order)

    def sqrt(self) -> "TSeries":
        """Square-root branch with positive leading coefficient.

        Requires even valuation and a leading coefficient that is the square
        of a rational.  Newton iteration on the unit part doubles the number
        of correct coefficients each pass.
        """
        if self.is_zero():
            return TSeries.zero(self._order)
        if self._val % 2:
            raise SqrtBranchError(f"odd valuation {self._val} has no series sqrt")
        lead = _fraction_sqrt(self._coeffs[0])
        if lead is None:
            raise SqrtBranchError(
                f"leading coefficient {self._coeffs[0]} is not a rational square"
            )
        rel = self._order - self._val
        unit = TSeries(0, self._coeffs, rel)
        x = TSeries.constant(lead, 0)
        known = 0
        while known < rel:
            known = min(2 * known + 1, rel)
            u = unit.truncate(known)
            x = TSeries(0, x._coeffs, known)
            x = x.add(u.div(x)).mul(Fraction(1, 2))
        half = self._val // 2
        return TSeries(half, x._coeffs, self._order - half)

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

    # -- composition and evaluation ---------------------------------------

    def substitute(self, s: "TSeries") -> "TSeries":
        """Compose: returns self(s).  Requires val(s) >= 1."""
        if s.is_zero():
            if self._val < 0:
                raise SeriesError("negative-valuation series composed with 0")
            return TSeries.constant(self.coeff(0), s._order)
        if s._val < 1:
            raise SeriesError(
                f"substitution needs valuation >= 1, got {s._val}"
            )
        # Horner on the stored window, then shift by s**valuation.
        order = min(s._order, (self._order + 1) * s._val - 1)
        acc = TSeries.zero(order)
        for c in reversed(self._coeffs):
            acc = acc.mul(s).add(TSeries.constant(c, order))
        if self._val:
            acc = acc.mul(s.pow(abs(self._val)) if self._val > 0
                          else s.pow(self._val))
        return acc.truncate(min(order, acc._order))

    def eval_exact(self, point: Scalar) -> Fraction:
        """Finite sum of the stored terms at a rational point."""
        point = Fraction(point)
        if point == 0:
            if self._val < 0:
                raise SeriesError("negative-valuation series evaluated at 0")
            return self.coeff(0) if self._val <= 0 <= self._order else Fraction(0)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc * point ** self._val

    def eval_float(self, point: "PrecFloat | mpmath.mpf | float") -> "PrecFloat":
        """Sum of the stored terms at a numeric point, precision-tracked."""
        if isinstance(point, PrecFloat):
            digits = point.digits
            x = point.value
        else:
            digits = mpmath.mp.dps
            x = mpmath.mpf(point)
        with mpmath.workdps(digits + 10):
            if x == 0 and self._val < 0:
                raise SeriesError("negative-valuation series evaluated at 0")
            acc = mpmath.mpf(0)
            for c in reversed(self._coeffs):
                acc = acc * x + mpmath.mpf(c.numerator) / c.denominator
            acc = acc * x ** self._val if self._coeffs else mpmath.mpf(0)
            return PrecFloat(acc, digits)

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

    @staticmethod
    def from_json(text: str) -> "TSeries":
        payload = json.loads(text)
        coeffs = [Fraction(int(n), int(d)) for n, d in payload["coeffs"]]
        return TSeries(payload["valuation"], coeffs, payload["order"])

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


class PrecFloat:
    """Arbitrary-precision float that carries its working precision.

    Arithmetic runs at the smaller of the operands' digit counts; comparisons
    are deliberately absent -- use :meth:`close_to` with an explicit
    tolerance.
    """

    __slots__ = ("value", "digits")

    def __init__(self, value, digits: int = 30):
        self.digits = digits
        with mpmath.workdps(digits):
            if isinstance(value, Fraction):
                self.value = mpmath.mpf(value.numerator) / value.denominator
            elif isinstance(value, str):
                self.value = mpmath.mpf(value)
            else:
                self.value = mpmath.mpf(value)

    @staticmethod
    def _digits(other) -> int:
        return other.digits if isinstance(other, PrecFloat) else 10**9

    @staticmethod
    def _raw(other):
        if isinstance(other, PrecFloat):
            return other.value
        if isinstance(other, Fraction):
            return mpmath.mpf(other.numerator) / other.denominator
        return other

    def _binary(self, other, fn) -> "PrecFloat":
        digits = min(self.digits, self._digits(other))
        with mpmath.workdps(digits):
            return PrecFloat(fn(self.value, mpmath.mpf(self._raw(other))), digits)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def sqrt(self) -> "PrecFloat":
        with mpmath.workdps(self.digits):
            return PrecFloat(mpmath.sqrt(self.value), self.digits)

    def close_to(self, other, tol) -> bool:
        with mpmath.workdps(max(self.digits, 15)):
            return abs(self.value - mpmath.mpf(self._raw(other))) <= mpmath.mpf(
                self._raw(tol) if isinstance(tol, PrecFloat) else tol
            )

    def __float__(self):
        return float(self.value)

    def __str__(self):
        return mpmath.nstr(self.value, self.digits)

    def __repr__(self):
        return f"PrecFloat({self}, digits={self.digits})"
