"""Truncated Laurent series over exact rationals.

A :class:`TSeries` represents

    sum(c_k * t**k for k in range(valuation, order + 1))  +  O(t**(order + 1))

with every ``c_k`` an exact rational.  The coefficients are stored as in
FLINT's ``fmpq_poly``: a tuple of integer numerators over one common positive
denominator, kept canonical (numerators trimmed of zeros at both ends, the
denominator coprime to them all, 1 for a series with integer coefficients),
so equality and hashing stay exact and an all-integer series costs no gcd.
``coeff``, ``to_json`` and ``str`` build a ``Fraction`` only for a
coefficient they read.  Negative valuations are supported throughout; the
root formulas of the kernel machinery divide valuation-2 numerators by
valuation-1 denominators, so Laurent handling is not optional.  All
operations are pure and all values immutable, and every result carries the
tightest truncation order that the operands justify:

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
import operator
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


#: ``mul`` adds one scaled row per term of a factor this short, and takes one
#: dot product per output coefficient otherwise.  Rows win up to 8 terms (a
#: 1 x 30 product in a fifth of the time) and lose from 12 to 16 terms on, by
#: up to 1.2-1.4x for long x long (ROADMAP, "Measured limits").  ``sqrt``
#: picks its path on the same threshold: a radicand this short takes its
#: linear recurrence, a longer one the convolution
_ROW_MAX = 8


def _dot(xs, ys) -> int:
    return sum(map(operator.mul, xs, ys))


class TSeries:
    """Immutable truncated Laurent series in t with rational coefficients.

    Coefficient ``k`` is ``_num[k - _val] / _den``.
    """

    __slots__ = ("_val", "_num", "_den", "_order")

    def __init__(self, valuation: int, coeffs: Iterable[Scalar], order: int):
        coeffs = list(coeffs)
        if all(type(c) is int for c in coeffs):
            num, den = coeffs, 1
        else:
            coeffs = [Fraction(c) for c in coeffs]
            den = math.lcm(*(c.denominator for c in coeffs))
            num = [c.numerator * (den // c.denominator) for c in coeffs]
        self._set(valuation, num, den, order)

    def _set(self, val: int, num: list, den: int, order: int) -> None:
        """Store integer numerators over ``den`` > 0 in canonical form."""
        # drop leading zeros, clip to order, drop trailing zeros
        lo, hi = 0, len(num)
        while lo < hi and not num[lo]:
            lo += 1
        hi = min(hi, max(lo, order - val + 1))
        while hi > lo and not num[hi - 1]:
            hi -= 1
        if lo == hi:
            val, num, den = 0, (), 1
        else:
            val += lo
            num = tuple(num[lo:hi])
            if den != 1:
                g = math.gcd(den, *num)
                if g != 1:
                    den //= g
                    num = tuple(x // g for x in num)
        self._val = val
        self._num = num
        self._den = den
        self._order = order

    @staticmethod
    def _make(val: int, num: list, den: int, order: int) -> "TSeries":
        out = object.__new__(TSeries)
        out._set(val, num, den, order)
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_numerators(valuation: int, numerators: list[int], denominator: int,
                        order: int) -> "TSeries":
        """Coefficient ``valuation + k`` is ``numerators[k] / denominator`` (> 0)."""
        return TSeries._make(valuation, numerators, denominator, order)

    @staticmethod
    def constant(c: Scalar, order: int) -> "TSeries":
        return TSeries(0, [c], order)

    @staticmethod
    def zero(order: int) -> "TSeries":
        return TSeries._make(0, [], 1, order)

    @staticmethod
    def t_power(k: int, order: int, c: Scalar = 1) -> "TSeries":
        return TSeries(k, [c], order)

    # -- basic accessors ---------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def valuation(self) -> int | None:
        """Exponent of the lowest nonzero term; None for the zero series."""
        return self._val if self._num else None

    def is_zero(self) -> bool:
        return not self._num

    def coeff(self, k: int) -> Fraction:
        if k > self._order:
            raise OrderUnderflowError(
                f"coefficient t^{k} beyond reliable order {self._order}"
            )
        i = k - self._val
        if not 0 <= i < len(self._num):
            return Fraction(0)
        return Fraction(self._num[i], self._den)

    def coeffs_upto(self, hi: int, lo: int = 0) -> list[Fraction]:
        return [self.coeff(k) for k in range(lo, hi + 1)]

    def truncate(self, order: int) -> "TSeries":
        if order > self._order:
            raise OrderUnderflowError(
                f"cannot extend reliable order {self._order} to {order}"
            )
        return TSeries._make(self._val, self._num, self._den, order)

    def shift(self, k: int) -> "TSeries":
        """Multiply by t**k (exact; adjusts the reliable order by k)."""
        return TSeries._make(self._val + k, self._num, self._den, self._order + k)

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
        hi = min(order, max(self._val + len(self._num), other._val + len(other._num)) - 1)
        da, db = self._den, other._den
        g = math.gcd(da, db)
        out = [0] * max(0, hi - lo + 1)
        # over the common denominator lcm(da, db)
        for s, f in ((self, db // g), (other, da // g)):
            i = s._val - lo
            part = s._num[: max(0, len(out) - i)]
            if f != 1:
                part = [x * f for x in part]
            out[i:i + len(part)] = [x + y for x, y in zip(out[i:i + len(part)], part)]
        return TSeries._make(lo, out, da // g * db, order)

    def neg(self) -> "TSeries":
        return TSeries._make(self._val, [-x for x in self._num], self._den, self._order)

    def sub(self, other) -> "TSeries":
        other = self._coerce(other, self._order)
        return self.add(other.neg())

    def mul(self, other) -> "TSeries":
        """Product, to order min(Na + vb, Nb + va).

        When the shorter numerator tuple has at most ``_ROW_MAX`` (8) terms,
        the product is built row by row: each nonzero term of the short
        factor adds a scaled copy of the long one into the output.  Longer
        factors take one dot product per output coefficient, which is the
        faster way from 12-16 short-factor terms on.
        """
        other = self._coerce(other, self._order)
        # a zero series is O(t**(order + 1)): its valuation counts as order + 1
        va = self._val if self._num else self._order + 1
        vb = other._val if other._num else other._order + 1
        order = min(self._order + vb, other._order + va)
        if not (self._num and other._num):
            return TSeries.zero(order)
        lo = va + vb
        if order < lo:
            raise OrderUnderflowError("product has no reliable coefficients")
        n_out = order - lo + 1
        a, b = self._num[:n_out], other._num[:n_out]
        if len(a) < len(b):
            a, b = b, a
        la, lb = len(a), len(b)
        n = min(n_out, la + lb - 1)
        if lb <= _ROW_MAX:
            # b[0] is nonzero (canonical numerators), and la <= n
            out = list(map(b[0].__mul__, a)) + [0] * (n - la)
            for j in range(1, lb):
                c = b[j]
                if c:
                    m = min(la, n - j)
                    out[j:j + m] = map(operator.add, out[j:j + m], map(c.__mul__, a[:m]))
        else:
            brev = b[::-1]
            out = []
            for k in range(n):
                i0, i1 = max(0, k - lb + 1), min(k, la - 1)
                # sum of a[i] * b[k - i] over i0 <= i <= i1
                out.append(_dot(a[i0:i1 + 1], brev[lb - 1 - k + i0:lb - k + i1]))
        return TSeries._make(lo, out, self._den * other._den, order)

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
        va = self._val if self._num else self._order + 1
        vb = other._val
        order = min(self._order - vb, other._order + va - 2 * vb)
        if not self._num:
            return TSeries.zero(order)
        lo = va - vb
        if order < lo:
            raise OrderUnderflowError("quotient has no reliable coefficients")
        n_out = order - lo + 1
        # (a / da) / (b / db) = (db / da) * (a / b), and a / b = q / d with
        # integer q and one running denominator d, grown (and the earlier
        # q rescaled) only when a step's quotient is not exact
        a, b = self._num, other._num[:n_out]
        scale = other._den
        if b[0] < 0:
            b, scale = [-x for x in b], -scale
        lead, lb = b[0], len(b)
        if lb == 1:  # a monomial divisor only rescales
            return TSeries._make(lo, [x * scale for x in a[:n_out]], lead * self._den, order)
        brev = b[::-1]
        q, d = [], 1
        for k in range(n_out):
            s = a[k] * d if k < len(a) else 0
            j = min(k, lb - 1)
            if j:
                s -= _dot(q[k - j:k], brev[lb - 1 - j:lb - 1])
            qk, r = divmod(s, lead)
            if r:
                g = math.gcd(s, lead)
                f = lead // g
                d *= f
                q = [x * f for x in q]
                qk = s // g
            q.append(qk)
        if scale != 1:
            q = [x * scale for x in q]
        return TSeries._make(lo, q, d * self._den, order)

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
        of a rational.  The unit part u has root s with s_0 = sqrt(u_0).
        When u has at most ``_ROW_MAX`` (8) terms, the threshold on which
        ``mul`` builds rows, s follows the linear recurrence of
        2 u s' = u' s,
        s_k = sum(u_j * (3j - 2k) * s_(k-j) for 0 < j < len(u)) / (2k * u_0),
        at len(u) products per coefficient; a longer u takes the convolution
        s_k = (u_k - sum(s_j * s_(k-j) for 0 < j < k)) / (2 * s_0).
        """
        if self.is_zero():
            # the root of O(t**(order + 1)) is O(t**ceil((order + 1) / 2))
            return TSeries.zero(self._order // 2)
        if self._val % 2:
            raise SqrtBranchError(f"odd valuation {self._val} has no series sqrt")
        u, du = self._num, self._den
        lead = Fraction(u[0], du)
        rn, rd = math.isqrt(max(lead.numerator, 0)), math.isqrt(lead.denominator)
        if lead < 0 or rn * rn != lead.numerator or rd * rd != lead.denominator:
            raise SqrtBranchError(f"leading coefficient {lead} is not a rational square")
        # s_k = S_k / d over one running denominator d, a multiple of rd, and
        # S_k = t / m, where d grows only when m does not divide t.  The
        # recurrence has t = sum(u_j (3j - 2k) S_(k-j)) and m = 2k u_0 (du
        # cancels); the convolution has t = u_k d^2 - du sum(S_j S_(k-j)) and
        # m = 2 rn du (d / rd), from s_k = t / (2 (rn / rd) du d^2)
        rel = self._order - self._val
        short = [(j, c) for j, c in enumerate(u[1:], 1) if c] if len(u) <= _ROW_MAX else None
        out, d = [rn], rd
        for k in range(1, rel + 1):
            if short is not None:
                t = sum(c * (3 * j - 2 * k) * out[k - j] for j, c in short if j <= k)
                m = 2 * k * u[0]
            else:
                h = (k - 1) // 2
                c = 2 * _dot(out[1:h + 1], out[k - 1:k - h - 1:-1])
                if k % 2 == 0:
                    c += out[k // 2] ** 2
                t = (u[k] if k < len(u) else 0) * d * d - du * c
                m = 2 * rn * du * (d // rd)
            sk, r = divmod(t, m)
            if r:
                g = math.gcd(t, m)
                f = m // g
                d *= f
                out = [x * f for x in out]
                sk = t // g
            out.append(sk)
        half = self._val // 2
        return TSeries._make(half, out, d, self._order - half)

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

    def same(self, other: "TSeries") -> bool:
        """Equal over the window both sides know reliably."""
        return self.sub(other).is_zero()

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return (self._val == other._val and self._num == other._num
                and self._den == other._den and self._order == other._order)

    def __hash__(self):
        return hash((self._val, self._num, self._den, self._order))

    # -- serialization and printing ---------------------------------------

    def _fractions(self) -> list[Fraction]:
        return [Fraction(x, self._den) for x in self._num]

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "valuation": self._val,
            "order": self._order,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self._fractions()],
        }
        return json.dumps(payload, sort_keys=True)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self._fractions()):
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
    """The (Laurent) polynomial sum of c * t^k over ``entries`` {k: c}."""
    lo, hi = min(entries, default=0), max(entries, default=-1)  # {} gives the zero series
    return TSeries(lo, [entries.get(k, 0) for k in range(lo, hi + 1)], order)

