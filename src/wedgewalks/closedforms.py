"""Explicit generating functions as truncated series.

Every closed form here is built exactly as printed; ``suites`` compares it
against the dynamic-programming counts.  The walk counts are authoritative:
whenever a printed closed form disagrees with enumeration, the verification
suite reports the first differing coefficient and the package discrepancy
ledger records which side is trusted.  Nothing here silently "fixes" a
formula.

The symmetric radical sqrt((1 - t^2)(1 - 5t^2)) is built once, in
``printed_q_sym``.  ``gf_sym_f1``, ``gf_sym_g1`` and ``gf_h1_pieces`` take
the printed Q in its place, as R = 1 - 3t^2 - 2tQ; the values are the same.

Working orders follow the rule of ``kernel``: a builder asked for a series
to ``order`` works at order + the orders its formula loses, and no higher.
A division by a series of valuation v loses v orders, or 2v when the
quotient is Laurent (``TSeries.div``), and a shift by -k loses k.  Each
docstring says where its margin comes from.  Two margins are measured, not
derived: ``gf_H_aya_raw`` and ``gf_h1_pieces`` take the least under which
every output stayed byte-identical, that of the command-line tool and the
summands that ``gf_h1_pieces`` yields.  The margins only size the work: a
margin too small makes a result short, never wrong.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from . import kernel
from .errors import BudgetError
from .kernel import tvar
from .series import TSeries, tpoly

_MAX_ORDER = 1200


def _pell(order: int) -> TSeries:
    """1 - 2t - t^2, the pole of the p = 1 closed forms: each divides by it."""
    return tpoly({0: 1, 1: -2, 2: -1}, order)


def _asym_radical(order: int) -> TSeries:
    """sqrt((1 - t^4)(1 - 2t - t^2))."""
    return (tpoly({0: 1, 4: -1}, order) * _pell(order)).sqrt()


def printed_q_sym(order: int) -> TSeries:
    """(1 - 3t^2 - sqrt((1-t^2)(1-5t^2))) / (2t).

    The only build of the symmetric radical R: the builders that need it
    read it from Q as R = 1 - 3t^2 - 2tQ.  The division by 2t loses one
    order, so the working order is order + 1.
    """
    w = order + 1
    radical = (tpoly({0: 1, 2: -1}, w) * tpoly({0: 1, 2: -5}, w)).sqrt()
    return (tpoly({0: 1, 2: -3}, w) - radical) / (2 * tvar(w))


def printed_q_asym(order: int) -> TSeries:
    """(1 - t - t^2 - t^3 - sqrt((1-t^4)(1-2t-t^2))) / 2, which loses no
    order."""
    return (tpoly({0: 1, 1: -1, 2: -1, 3: -1}, order) - _asym_radical(order)) * Fraction(1, 2)


def alternating_theta(q: TSeries, relation: tuple[TSeries, TSeries],
                      order: int) -> TSeries:
    """sum((-1)^n t^(n^2) q^n); term n has valuation n^2 + n*val(q).

    ``relation`` is (A, C) with q^2 = A q - C (``kernel.q_relation``),
    reliable to ``order``.  The sum is exact to order min(order,
    q.order + 1).  In that quadratic field q^n = U_n + V_n q, with
    U_(n+1) = -C V_n and V_(n+1) = U_n + A V_n; the kernel's A and C are
    short, so each step is a short product.  The sum is P_0 + P_1 q, where
    P_0 and P_1 sum (-1)^n t^(n^2) U_n and (-1)^n t^(n^2) V_n, and P_1 q is
    its one long product.
    """
    vq = q.valuation
    if vq is None or vq <= 0:
        raise ValueError("theta argument must have positive valuation")
    big_a, c = relation
    top = min(order, q.order + 1)
    p0, p1 = TSeries.constant(1, top), TSeries.zero(top)
    u, v = TSeries.zero(top), TSeries.constant(1, top)  # q^1 = 0 + 1 q
    n = 1
    while n * n + n * vq <= top:
        if n % 2:
            p0, p1 = p0 - u.shift(n * n), p1 - v.shift(n * n)
        else:
            p0, p1 = p0 + u.shift(n * n), p1 + v.shift(n * n)
        u, v = -(c * v), u + big_a * v
        n += 1
    return (p0 + p1 * q).truncate(top)


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
    return sum(_ratio_theta_terms(q, order), TSeries.zero(order))


def gf_free(order: int) -> TSeries:
    return tpoly({0: 1, 1: 1}, order) / _pell(order)


def gf_dyck(order: int) -> TSeries:
    """(1 - sqrt(1 - 4t)) / (2t); the division by 2t loses one order."""
    w = order + 1
    num = 1 - tpoly({0: 1, 1: -4}, w).sqrt()
    return num / (2 * tvar(w))


def gf_sym_f1(order: int) -> TSeries:
    """Horizontal-ending walks in the symmetric unit wedge.

    Q enters shifted by t, so it is built to order - 1, or to its leading
    term t^3 if that is higher; the alternating sum is exact one order past
    Q, and nothing else loses an order.
    """
    q = printed_q_sym(max(order - 1, 3))
    s = alternating_theta(q, kernel.q_relation("symmetric", 1, order), order)
    # (1 - t^2) - R = 2t (t + Q), R the radical of Q
    return (tpoly({0: 1, 1: -1}, order) - (q + tvar(q.order)).shift(1) * 2 * s) / _pell(order)


def gf_sym_g1(order: int) -> TSeries:
    """All walks in the symmetric unit wedge.

    Nothing here loses an order, so Q is built to ``order``, or to its
    leading term t^3 if that is higher.
    """
    q = printed_q_sym(max(order, 3))
    s = alternating_theta(q, kernel.q_relation("symmetric", 1, order), order)
    # ((1 - t^2) - R)/t = 2 (t + Q), R the radical of Q
    return (tpoly({0: 1, 1: 1}, order) - (q + tvar(q.order)) * 2 * s) / _pell(order)


def gf_h1_pieces(order: int) -> tuple[TSeries, TSeries, TSeries, Iterator[TSeries]]:
    """(p1, p2, p3, middle) for the asymmetric horizontal-ending solution.

    p1 + p2 + p3 is the solution.  The middle piece p2 is -q (1 - t^2)
    pole / t^2 times the ratio sum over the printed asymmetric Q; ``middle``
    is an iterator over its summands k = 0, 1, ..., each to ``order``.  The
    summands of the ratio sum are computed once, with p2; ``middle``
    computes only the product of each with the prefactor, when it is drawn.
    It stops after the last summand that starts within the ratio sum's
    order; every later summand is zero to ``order``.

    The working order is order + 8, measured.  p1 + p2 + p3 alone stay
    byte-identical down to order + 4 (at order + 3 the asymmetric Q is not
    known to its leading term t^4 at order 0).  But the ratio sum's working
    order sets how many summands ``middle`` yields, and below order + 8 it
    yields fewer of the trailing ones, which are zero to ``order`` (at
    order + 7, one fewer at orders 1, 13 and 29).
    """
    w = order + 8
    # P(1) has the printed closed form of the symmetric Q(1)
    q, big_p = printed_q_asym(w), printed_q_sym(w)
    pell, one_m_t2 = _pell(w), tpoly({0: 1, 2: -1}, w)
    pref = -(q * one_m_t2 / pell).shift(-2)
    # ((1 - t)^2 - R)/2 = t (P + 2t - 1), R the radical of P
    p1 = (big_p + tpoly({0: -1, 1: 2}, w)).shift(1) / pell
    terms = list(_ratio_theta_terms(q, w))
    p2 = pref * sum(terms, TSeries.zero(w))
    p3 = one_m_t2 * ratio_theta(big_p, w) / pell
    middle = ((pref * term).truncate(order) for term in terms)
    return p1.truncate(order), p2.truncate(order), p3.truncate(order), middle


def gf_asym_h1(order: int) -> TSeries:
    p1, p2, p3, _middle = gf_h1_pieces(order)
    return p1 + p2 + p3


def gf_asym_k1(order: int) -> TSeries:
    h = gf_asym_h1(order + 1)
    return (h - 1) / tvar(order + 1)


def gf_halfplane_printed(order: int) -> TSeries:
    """The printed closed form for walks on or above Y = 0 -- as printed.

    The numerator does not vanish at t = 0, so this expansion is Laurent of
    valuation -2 and cannot match the walk counts; the comparator reports the
    differences (see the discrepancy ledger).  The division by a
    denominator of valuation 2 loses 2 * 2 orders (``TSeries.div``), so the
    working order is order + 4.
    """
    w = order + 4
    num = tpoly({0: -1, 1: 1, 2: 3, 3: 1}, w) - _asym_radical(w)
    den = tpoly({2: -2, 3: -4, 4: 2}, w)  # 2 t^2 (t^2 - 2t - 1)
    return num / den


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
    Newton iteration (_bargraph_newton) at ``order`` itself, since nothing
    here loses an order, and g_p = h/(1 - t^2 (1+h)).  The returned residual
    h - rhs(h) is evaluated afresh from that equation, so it checks the
    solver independently; it is identically zero on success.
    """
    if p < 1:
        raise ValueError("bargraph slope p must be >= 1")

    def rhs(h: TSeries) -> TSeries:
        geom = 1 - (tvar(order) ** 2) * (1 + h)
        return TSeries.t_power(p + 1, order) * (1 + h) ** p * (1 + h / geom)

    h = _bargraph_newton(p, order)
    g = h / (1 - (tvar(order) ** 2) * (1 + h))
    return h, g, h - rhs(h)


def theta_sum(kind: str, arg, order: int) -> TSeries:
    """The theta-like sums by family: 'sym' uses the alternating sum over
    Q(arg) of the symmetric model, 'asym_q'/'asym_p' the ratio sum over the
    asymmetric Q or P.

    Each working order is the least that keeps the sum exact to ``order``.
    The alternating sum is exact one order past Q, as every term but the
    first multiplies a power of Q by t or more; the ratio sum divides Q or
    P by t and loses one order.  Below that, each argument must be known to
    its leading term, or its valuation is not seen: t^3 for the symmetric
    Q, t^4 for the asymmetric Q and t^3 for P.  So 'sym' works at
    max(order - 1, 3), 'asym_q' at max(order + 1, 4) and 'asym_p' at
    max(order + 1, 3).
    """
    if kind == "sym":
        w = max(order - 1, 3)
        return alternating_theta(kernel.q_sym(arg, w), kernel.q_relation("symmetric", arg, w),
                                 order)
    if kind == "asym_q":
        return ratio_theta(kernel.q_asym(arg, max(order + 1, 4)), order)
    if kind == "asym_p":
        return ratio_theta(kernel.p_asym(arg, max(order + 1, 3)), order)
    raise ValueError(f"unknown theta kind {kind!r}")


def gf_F_aya(a, order: int) -> TSeries:
    """F(a, t*a) for the symmetric model: (1 + Q/t) * alternating theta sum.

    The shift by -1 loses one order, and the theta sum needs Q known to its
    leading term t^3: the working order is max(order + 1, 3).
    """
    w = max(order + 1, 3)
    q = kernel.q_sym(a, w)
    res = (1 + q.shift(-1)) * alternating_theta(q, kernel.q_relation("symmetric", a, w), w)
    return res.truncate(order)


def gf_H_aya_simplified(a, order: int) -> TSeries:
    """H(a, t*a) for the asymmetric model, simplified sum form.

    The prefactor's shift by -4 loses 4 orders, so the working order is
    order + 4.
    """
    w = order + 4
    a = Fraction(a)
    q = kernel.q_asym(a, w)
    pref = (tpoly({0: 1, 2: -1}, w) * q).shift(-4) / a
    return pref * ratio_theta(q, w)


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

    Term n has valuation v + n, v = 2(n+1)^2 - 3 the valuation of its
    prefactor, so the sum stops before the first term with v + n > order.
    Term n is built to w - v and divides by d1, of valuation 1; the working
    order is order + 3, measured (at order + 2 the sum comes back short of
    ``order``).
    """
    w = order + 3
    a = Fraction(a)
    beta_w = kernel.root("asymmetric", "beta-", a, w)
    acc = TSeries.zero(w)
    prod = None  # the product over m = 0..n, carried forward
    n = 0
    while 2 * (n + 1) ** 2 - 3 + n <= order:
        v = 2 * (n + 1) ** 2 - 3
        pref = TSeries.t_power(v, w, Fraction(-1) / a)
        # the factors after pref count only to order w - v
        wn = min(w, w - v)
        beta, t = beta_w.truncate(wn), tvar(wn)
        n1 = (a - beta * t - a * beta * t ** 2
              + a * beta * TSeries.t_power(2 * n + 2, wn))
        d1 = (a * (1 + beta) * TSeries.t_power(2 * n, wn)
              - beta * (a + TSeries.t_power(2 * n - 1, wn)))
        n2 = (a - beta * t - a * beta * t ** 2
              - beta * TSeries.t_power(4 * n + 1, wn)
              + a * (1 + beta) * TSeries.t_power(4 * n + 2, wn))
        geo1 = tpoly({2 * j: 1 for j in range(n)}, wn)
        geo2 = tpoly({2 * j: 1 for j in range(2 * n)}, wn)
        d2 = (a + geo1 * (a * (1 - beta) * t ** 2
                          + a * (1 + beta) * TSeries.t_power(2 * n + 2, wn))
              - geo2 * beta * t)
        # the m = n factor is d1/n1; it is kept apart, as printed
        factor = d1 / n1
        prod = factor if prod is None else prod * factor
        acc = acc + pref * (n1 / d1) * (n2 / d2) * prod
        n += 1
    return acc.truncate(order)


#: every closed-form family by its ``series --kind`` name, as a builder
#: (order, a, p).  Each entry looks its module-level builder up when called,
#: so a wrapped builder (a tracer's, a test's) is the one that runs.
_GF_BUILDERS = {
    "free": lambda order, a, p: gf_free(order),
    "dyck": lambda order, a, p: gf_dyck(order),
    "bargraph": lambda order, a, p: gf_bargraph(p, order)[1],
    "sym_f1": lambda order, a, p: gf_sym_f1(order),
    "sym_g1": lambda order, a, p: gf_sym_g1(order),
    "asym_h1": lambda order, a, p: gf_asym_h1(order),
    "asym_k1": lambda order, a, p: gf_asym_k1(order),
    "halfplane": lambda order, a, p: gf_halfplane_printed(order),
}
#: the families whose ``a`` is a root argument, which must be nonzero
_ROOT_ARG_BUILDERS = {
    "theta_sym": lambda order, a, p: theta_sum("sym", a, order),
    "theta_asym_q": lambda order, a, p: theta_sum("asym_q", a, order),
    "theta_asym_p": lambda order, a, p: theta_sum("asym_p", a, order),
    "F_aya": lambda order, a, p: gf_F_aya(a, order),
    "H_aya_raw": lambda order, a, p: gf_H_aya_raw(a, order),
    "H_aya_simplified": lambda order, a, p: gf_H_aya_simplified(a, order),
}
_GF_BUILDERS.update(_ROOT_ARG_BUILDERS)
GF_KINDS = tuple(_GF_BUILDERS)
ROOT_ARG_KINDS = tuple(_ROOT_ARG_BUILDERS)


def gf_series(kind: str, order: int, a=Fraction(1), p: int = 1) -> TSeries:
    """Dispatcher over every closed-form family."""
    if order > _MAX_ORDER:
        raise BudgetError(f"order {order} exceeds the budget of {_MAX_ORDER}")
    if kind not in _GF_BUILDERS:
        raise ValueError(f"unknown generating-function kind {kind!r}")
    return _GF_BUILDERS[kind](order, a, p)
