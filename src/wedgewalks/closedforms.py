"""Explicit generating functions as truncated series.

Every closed form here is built exactly as printed; ``suites`` compares it
against the dynamic-programming counts.  The walk counts are authoritative:
whenever a printed closed form disagrees with enumeration, the verification
suite reports the first differing coefficient and the package discrepancy
ledger records which side is trusted.  Nothing here silently "fixes" a
formula.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from . import kernel
from .errors import BudgetError
from .series import TSeries, tpoly

GF_KINDS = (
    "free",
    "dyck",
    "bargraph",
    "sym_f1",
    "sym_g1",
    "asym_h1",
    "asym_k1",
    "halfplane",
    "theta_sym",
    "theta_asym_q",
    "theta_asym_p",
    "F_aya",
    "H_aya_raw",
    "H_aya_simplified",
)

_MAX_ORDER = 1200


def _t(order: int) -> TSeries:
    return TSeries.t_power(1, order)


def _pell_inverse(order: int) -> TSeries:
    """1/(1 - 2t - t^2)."""
    return TSeries.constant(1, order) / tpoly({0: 1, 1: -2, 2: -1}, order)


def _sym_radical(order: int) -> TSeries:
    """sqrt((1 - t^2)(1 - 5t^2))."""
    return (tpoly({0: 1, 2: -1}, order) * tpoly({0: 1, 2: -5}, order)).sqrt()


def _asym_radical(order: int) -> TSeries:
    """sqrt((1 - t^4)(1 - 2t - t^2))."""
    return (tpoly({0: 1, 4: -1}, order) * tpoly({0: 1, 1: -2, 2: -1}, order)).sqrt()


def printed_q_sym(order: int) -> TSeries:
    """(1 - 3t^2 - sqrt((1-t^2)(1-5t^2))) / (2t)."""
    w = order + 4
    return ((tpoly({0: 1, 2: -3}, w) - _sym_radical(w)) / (2 * _t(w))).truncate(order)


def printed_q_asym(order: int) -> TSeries:
    """(1 - t - t^2 - t^3 - sqrt((1-t^4)(1-2t-t^2))) / 2."""
    w = order + 4
    return ((tpoly({0: 1, 1: -1, 2: -1, 3: -1}, w) - _asym_radical(w))
            * Fraction(1, 2)).truncate(order)


def printed_p_asym(order: int) -> TSeries:
    """Same closed form as printed_q_sym; the asymmetric solution reuses it."""
    return printed_q_sym(order)


def alternating_theta(q: TSeries, order: int) -> TSeries:
    """sum((-1)^n t^(n^2) q^n); term n has valuation n^2 + n*val(q).

    The sum is exact to order min(order, q.order + 1).  q^n is carried
    forward as q^(n-1) * q; before each product both factors are truncated
    to the order that term n needs, the sum's order less n^2, so no product
    computes a coefficient that the sum cannot use.
    """
    vq = q.valuation
    if vq is None or vq <= 0:
        raise ValueError("theta argument must have positive valuation")
    acc = TSeries.constant(1, order)
    top = min(order, q.order + 1)
    n = 1
    qp = TSeries.constant(1, top)
    while n * n + n * vq <= top:
        rel = top - n * n - n * vq  # order of term n past its valuation
        qp = qp.truncate((n - 1) * vq + rel) * q.truncate(vq + rel)
        term = qp.shift(n * n)
        acc = acc + (term if n % 2 == 0 else term.neg())
        n += 1
    return acc.truncate(min(order, acc.order))


def _ratio_theta_terms(q: TSeries, order: int) -> Iterator[TSeries]:
    """Yield the summands n = 0, 1, ... of ratio_theta(q, order).

    Every summand is exact to the order of the sum, min(order, order of the
    n = 0 bracket); the terms for n >= 1 start beyond it.  q^(2n) is carried
    forward as q^(2n-2) * q^2.  Before each product, the carried power, q^2
    and the bracket's argument are truncated to the order that summand n
    reaches, less its valuation 2n^2 + 2n(val(q) - 1).
    """
    vq = q.valuation
    if vq is None or vq <= 0:
        raise ValueError("theta argument must have positive valuation")
    u = q.shift(-1)
    first = (1 - u) / (1 + u)
    top = min(order, first.order)
    yield first.truncate(top)
    q1 = q.truncate(top - vq)
    q2 = q1 * q1  # to order top
    qp = TSeries.constant(1, top)
    n = 1
    while 2 * n * n + 2 * n * (vq - 1) <= top:
        rel = top - 2 * n * n - 2 * n * (vq - 1)  # order of term n past its valuation
        u = q.shift(2 * n - 1).truncate(rel)
        bracket = (1 - u) / (1 + u)
        qp = qp.truncate((2 * n - 2) * vq + rel) * q2.truncate(2 * vq + rel)
        # (q/t)^(2n) t^(2n^2) = q^(2n) t^(2n^2 - 2n)
        yield bracket * qp.shift(2 * n * (n - 1))
        n += 1


def ratio_theta(q: TSeries, order: int) -> TSeries:
    """sum over n >= 0 of ((1 - t^(2n-1) q)/(1 + t^(2n-1) q)) (q/t)^(2n) t^(2n^2).

    Term n has valuation >= 2n^2 + 2n(val(q) - 1), so the sum is a finite
    computation at every truncation order.  Each term is computed only to
    the order of the sum (see _ratio_theta_terms), which is min(order, the
    order of the n = 0 term).
    """
    acc = TSeries.zero(order)
    for term in _ratio_theta_terms(q, order):
        acc = acc + term
    return acc


def gf_free(order: int) -> TSeries:
    return (tpoly({0: 1, 1: 1}, order) * _pell_inverse(order)).truncate(order)


def gf_dyck(order: int) -> TSeries:
    w = order + 2
    num = 1 - tpoly({0: 1, 1: -4}, w).sqrt()
    return (num / (2 * _t(w))).truncate(order)


def gf_sym_f1(order: int) -> TSeries:
    """Horizontal-ending walks in the symmetric unit wedge."""
    w = order + 6
    s = alternating_theta(printed_q_sym(w), w)
    pole = _pell_inverse(w)
    res = (tpoly({0: 1, 1: -1}, w) * pole
           - (tpoly({0: 1, 2: -1}, w) - _sym_radical(w)) * pole * s)
    return res.truncate(order)


def gf_sym_g1(order: int) -> TSeries:
    """All walks in the symmetric unit wedge."""
    w = order + 6
    s = alternating_theta(printed_q_sym(w), w)
    pole = _pell_inverse(w)
    res = (tpoly({0: 1, 1: 1}, w) * pole
           - ((tpoly({0: 1, 2: -1}, w) - _sym_radical(w)) / _t(w)) * pole * s)
    return res.truncate(order)


def gf_h1_pieces(order: int) -> tuple[TSeries, TSeries, TSeries, Iterator[TSeries]]:
    """(p1, p2, p3, middle) for the asymmetric horizontal-ending solution.

    p1 + p2 + p3 is the solution.  The middle piece p2 is -q (1 - t^2)
    pole / t^2 times the ratio sum over the printed asymmetric Q; ``middle``
    is an iterator over its summands k = 0, 1, ..., each to ``order`` and
    computed only when it is drawn.  It stops after the last summand that
    starts within the ratio sum's order; every later summand is zero to
    ``order``.
    """
    w = order + 8
    q = printed_q_asym(w)
    pole = _pell_inverse(w)
    one_m_t2 = tpoly({0: 1, 2: -1}, w)
    pref = -(q * one_m_t2 * pole).shift(-2)
    p1 = ((tpoly({0: 1, 1: -2, 2: 1}, w) - _sym_radical(w)) * pole
          * Fraction(1, 2))
    p2 = pref * ratio_theta(q, w)
    p = printed_p_asym(w)
    p3 = one_m_t2 * pole * ratio_theta(p, w)
    middle = ((pref * term).truncate(order) for term in _ratio_theta_terms(q, w))
    return p1.truncate(order), p2.truncate(order), p3.truncate(order), middle


def gf_asym_h1(order: int) -> TSeries:
    p1, p2, p3, _middle = gf_h1_pieces(order)
    return p1 + p2 + p3


def gf_asym_k1(order: int) -> TSeries:
    h = gf_asym_h1(order + 1)
    return ((h - 1) / _t(order + 1)).truncate(order)


def gf_halfplane_printed(order: int) -> TSeries:
    """The printed closed form for walks on or above Y = 0 -- as printed.

    The numerator does not vanish at t = 0, so this expansion is Laurent of
    valuation -2 and cannot match the walk counts; the comparator reports the
    differences (see the discrepancy ledger).
    """
    w = order + 6
    num = tpoly({0: -1, 1: 1, 2: 3, 3: 1}, w) - _asym_radical(w)
    den = tpoly({2: -2, 3: -4, 4: 2}, w)  # 2 t^2 (t^2 - 2t - 1)
    return (num / den).truncate(order)


def _bargraph_newton(p: int, w: int) -> TSeries:
    """The bargraph series h to order w, by Newton iteration.

    With F(h) = h - rhs(h), each step h <- h - F(h)/F'(h) at working order m
    starts from the previous iterate, exact to order m // 2, and is exact to
    order m; d/dh of h/g is (1 - t^2)/g^2, with g = 1 - t^2 (1+h).  The
    working order doubles from below p up to w, and h = 0 is exact to
    order p.
    """
    orders = []
    m = w
    while m > p:
        orders.append(m)
        m //= 2
    h = TSeries.zero(m)
    for m in reversed(orders):
        # the iterate is a polynomial: lift it to the new working order
        v = h.valuation
        h = TSeries.zero(m) if v is None else TSeries(v, h.coeffs_upto(h.order, v), m)
        t2 = TSeries.t_power(2, m)
        one_h = 1 + h
        geom = 1 - t2 * one_h
        ratio = 1 + h / geom
        lead = TSeries.t_power(p + 1, m) * one_h.pow(p - 1)
        rhs = lead * one_h * ratio
        drhs = lead * (p * ratio + one_h * (1 - t2) / (geom * geom))
        h = h - (h - rhs) / (1 - drhs)
    if h.order < w:
        raise ArithmeticError(f"bargraph Newton iterate reached order {h.order}, not {w}")
    return h


def gf_bargraph(p: int, order: int) -> tuple[TSeries, TSeries, TSeries]:
    """(h, g_p, residual) for bargraph paths above Y = p*X.

    h solves h = t^(p+1) (1+h)^p (1 + h/(1 - t^2 (1+h))); it is found by
    Newton iteration (_bargraph_newton) at working order order + 2, and
    g_p = h/(1 - t^2 (1+h)).  The returned residual h - rhs(h) is evaluated
    afresh from that equation, so it checks the solver independently; it is
    identically zero on success.
    """
    if p < 1:
        raise ValueError("bargraph slope p must be >= 1")
    w = order + 2

    def rhs(h: TSeries) -> TSeries:
        geom = 1 - (_t(w) ** 2) * (1 + h)
        return TSeries.t_power(p + 1, w) * (1 + h) ** p * (1 + h / geom)

    h = _bargraph_newton(p, w)
    g = h / (1 - (_t(w) ** 2) * (1 + h))
    residual = h - rhs(h)
    return h.truncate(order), g.truncate(order), residual.truncate(order)


def theta_sum(kind: str, arg, order: int) -> TSeries:
    """The theta-like sums by family: 'sym' uses the alternating sum over
    Q(arg) of the symmetric model, 'asym_q'/'asym_p' the ratio sum over the
    asymmetric Q or P."""
    if kind == "sym":
        return alternating_theta(kernel.q_sym(arg, order + 4), order)
    if kind == "asym_q":
        return ratio_theta(kernel.q_asym(arg, order + 4), order)
    if kind == "asym_p":
        return ratio_theta(kernel.p_asym(arg, order + 4), order)
    raise ValueError(f"unknown theta kind {kind!r}")


def gf_F_aya(a, order: int) -> TSeries:
    """F(a, t*a) for the symmetric model: (1 + Q/t) * alternating theta sum."""
    w = order + 6
    q = kernel.q_sym(a, w)
    res = (1 + q.shift(-1)) * alternating_theta(q, w)
    return res.truncate(order)


def gf_H_aya_simplified(a, order: int) -> TSeries:
    """H(a, t*a) for the asymmetric model, simplified sum form."""
    w = order + 8
    a = Fraction(a)
    q = kernel.q_asym(a, w)
    pref = (tpoly({0: 1, 2: -1}, w) * q).shift(-4) / a
    res = pref * ratio_theta(q, w)
    return res.truncate(order)


def gf_H_aya_raw(a, order: int) -> TSeries:
    """H(a, t*a) assembled from the printed explicit term-by-term expression.

    Implemented exactly as printed.  The n-th term carries the prefactor
    -t^(2(n+1)^2 - 3)/a and a product over m = 0..n; expanded this way the
    n = 0 term is Laurent of valuation -1, so the sum does NOT reproduce the
    walk series (see the discrepancy ledger; the simplified form and the raw
    coefficient-ladder sum in kernel.raw_iterated_sum both do).

    The product over m is carried from n - 1 to n by its m = n factor, and
    the factors of term n are built only to the order that its prefactor
    lifts to the working order.  No factor is cancelled against another:
    n1/d1 stays beside the m = n factor d1/n1, as printed.
    """
    w = order + 10
    a = Fraction(a)
    beta_w = kernel.root("asymmetric", "beta-", a, w)
    acc = TSeries.zero(w)
    prod = None  # the product over m = 0..n, carried forward
    n = 0
    while 2 * (n + 1) ** 2 - 3 <= order + 4:
        v = 2 * (n + 1) ** 2 - 3
        pref = TSeries.t_power(v, w, Fraction(-1) / a)
        # the factors after pref count only to order w - v
        wn = min(w, w - v)
        beta, t = beta_w.truncate(wn), _t(wn)
        n1 = (a - beta * t - a * beta * t ** 2
              + a * beta * TSeries.t_power(2 * n + 2, wn))
        d1 = (a * (1 + beta) * TSeries.t_power(2 * n, wn)
              - beta * (a + TSeries.t_power(2 * n - 1, wn)))
        n2 = (a - beta * t - a * beta * t ** 2
              - beta * TSeries.t_power(4 * n + 1, wn)
              + a * (1 + beta) * TSeries.t_power(4 * n + 2, wn))
        geo1 = tpoly({2 * j: 1 for j in range(n)} or {0: 0}, wn)
        geo2 = tpoly({2 * j: 1 for j in range(2 * n)} or {0: 0}, wn)
        d2 = (a + geo1 * (a * (1 - beta) * t ** 2
                          + a * (1 + beta) * TSeries.t_power(2 * n + 2, wn))
              - geo2 * beta * t)
        # the m = n factor is d1/n1; it is kept apart, as printed
        factor = d1 / n1
        prod = factor if prod is None else prod * factor
        acc = acc + pref * (n1 / d1) * (n2 / d2) * prod
        n += 1
    return acc.truncate(order)


def gf_series(kind: str, order: int, a=Fraction(1), p: int = 1) -> TSeries:
    """Dispatcher over every closed-form family."""
    if order > _MAX_ORDER:
        raise BudgetError(f"order {order} exceeds the budget of {_MAX_ORDER}")
    if kind == "free":
        return gf_free(order)
    if kind == "dyck":
        return gf_dyck(order)
    if kind == "bargraph":
        return gf_bargraph(p, order)[1]
    if kind == "sym_f1":
        return gf_sym_f1(order)
    if kind == "sym_g1":
        return gf_sym_g1(order)
    if kind == "asym_h1":
        return gf_asym_h1(order)
    if kind == "asym_k1":
        return gf_asym_k1(order)
    if kind == "halfplane":
        return gf_halfplane_printed(order)
    if kind == "theta_sym":
        return theta_sum("sym", a, order)
    if kind == "theta_asym_q":
        return theta_sum("asym_q", a, order)
    if kind == "theta_asym_p":
        return theta_sum("asym_p", a, order)
    if kind == "F_aya":
        return gf_F_aya(a, order)
    if kind == "H_aya_raw":
        return gf_H_aya_raw(a, order)
    if kind == "H_aya_simplified":
        return gf_H_aya_simplified(a, order)
    raise ValueError(f"unknown generating-function kind {kind!r}")
