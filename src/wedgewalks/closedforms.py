"""Explicit generating functions as truncated series, with comparators that
cross-validate every closed form against the dynamic-programming counts.

The walk counts are authoritative: whenever a printed closed form disagrees
with enumeration, the comparator reports the exact coefficient differences
and the package discrepancy ledger records which side is trusted.  Nothing
here silently "fixes" a formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import kernel
from .errors import BudgetError
from .series import TSeries, tpoly
from .walks import WedgeModel, count_walks, weighted_gf

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
    """sum((-1)^n t^(n^2) q^n); term n has valuation n^2 + n*val(q)."""
    vq = q.valuation
    if vq is None or vq <= 0:
        raise ValueError("theta argument must have positive valuation")
    acc = TSeries.constant(1, order)
    n = 1
    qp = TSeries.constant(1, q.order)
    while n * n + n * vq <= order:
        qp = qp * q
        term = qp.shift(n * n)
        acc = acc + (term if n % 2 == 0 else term.neg())
        n += 1
    return acc.truncate(min(order, acc.order))


def ratio_theta(q: TSeries, order: int) -> TSeries:
    """sum over n >= 0 of ((1 - t^(2n-1) q)/(1 + t^(2n-1) q)) (q/t)^(2n) t^(2n^2).

    Term n has valuation >= 2n^2 + 2n(val(q) - 1), so the sum is a finite
    computation at every truncation order.
    """
    vq = q.valuation
    if vq is None or vq <= 0:
        raise ValueError("theta argument must have positive valuation")
    acc = TSeries.zero(order)
    n = 0
    while 2 * n * n + 2 * n * (vq - 1) <= order:
        u = q.shift(2 * n - 1)
        bracket = (1 - u) / (1 + u)
        term = bracket * q.pow(2 * n).shift(2 * n * (n - 1)) if n else bracket
        # (q/t)^(2n) t^(2n^2) = q^(2n) t^(2n^2 - 2n)
        acc = acc + term
        n += 1
    return acc.truncate(min(order, acc.order))


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


def gf_h1_pieces(order: int) -> tuple[TSeries, TSeries, TSeries]:
    """The three summands of the asymmetric horizontal-ending solution."""
    w = order + 8
    pole = _pell_inverse(w)
    one_m_t2 = tpoly({0: 1, 2: -1}, w)
    p1 = ((tpoly({0: 1, 1: -2, 2: 1}, w) - _sym_radical(w)) * pole
          * Fraction(1, 2))
    q = printed_q_asym(w)
    p2 = -(q * one_m_t2 * pole).shift(-2) * ratio_theta(q, w)
    p = printed_p_asym(w)
    p3 = one_m_t2 * pole * ratio_theta(p, w)
    return p1.truncate(order), p2.truncate(order), p3.truncate(order)


def gf_asym_h1(order: int) -> TSeries:
    p1, p2, p3 = gf_h1_pieces(order)
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


def gf_bargraph(p: int, order: int) -> tuple[TSeries, TSeries, TSeries]:
    """(h, g_p, residual) for bargraph paths above Y = p*X.

    h solves h = t^(p+1) (1+h)^p (1 + h/(1 - t^2 (1+h))) by fixed-point
    iteration from 0; each pass fixes at least one more coefficient.  The
    returned residual is h - rhs(h), identically zero on success.
    """
    if p < 1:
        raise ValueError("bargraph slope p must be >= 1")
    w = order + 2

    def rhs(h: TSeries) -> TSeries:
        geom = 1 - (_t(w) ** 2) * (1 + h)
        return TSeries.t_power(p + 1, w) * (1 + h) ** p * (1 + h / geom)

    h = TSeries.zero(w)
    for _ in range(w + 2):
        nxt = rhs(h)
        if nxt.same(h):
            h = nxt
            break
        h = nxt
    else:
        raise ArithmeticError("bargraph fixed point failed to converge")
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
    """
    w = order + 10
    a = Fraction(a)
    t = _t(w)
    beta = kernel.root("asymmetric", "beta-", a, w)
    acc = TSeries.zero(w)
    n = 0
    while 2 * (n + 1) ** 2 - 3 <= order + 4:
        pref = TSeries.t_power(2 * (n + 1) ** 2 - 3, w, Fraction(-1) / a)
        n1 = (a - beta * t - a * beta * t ** 2
              + a * beta * TSeries.t_power(2 * n + 2, w))
        d1 = (a * (1 + beta) * TSeries.t_power(2 * n, w)
              - beta * (a + TSeries.t_power(2 * n - 1, w)))
        n2 = (a - beta * t - a * beta * t ** 2
              - beta * TSeries.t_power(4 * n + 1, w)
              + a * (1 + beta) * TSeries.t_power(4 * n + 2, w))
        geo1 = tpoly({2 * j: 1 for j in range(n)} or {0: 0}, w)
        geo2 = tpoly({2 * j: 1 for j in range(2 * n)} or {0: 0}, w)
        d2 = (a + geo1 * (a * (1 - beta) * t ** 2
                          + a * (1 + beta) * TSeries.t_power(2 * n + 2, w))
              - geo2 * beta * t)
        term = pref * (n1 / d1) * (n2 / d2)
        for m in range(n + 1):
            num_m = (a * (1 + beta) * TSeries.t_power(2 * m, w)
                     - beta * (a + TSeries.t_power(2 * m - 1, w)))
            den_m = (a - beta * t - a * beta * t ** 2
                     + a * beta * TSeries.t_power(2 * m + 2, w))
            term = term * (num_m / den_m)
        acc = acc + term
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


@dataclass
class ComparisonReport:
    name: str
    params: dict = field(default_factory=dict)
    first_mismatch: int | None = None
    diffs: list = field(default_factory=list)
    note: str = ""
    expected_mismatch: bool = False

    @property
    def agree(self) -> bool:
        return self.first_mismatch is None


def compare_series(name: str, lhs: TSeries, rhs: TSeries, upto: int,
                   max_diffs: int = 8, **kw) -> ComparisonReport:
    rep = ComparisonReport(name, **kw)
    lo = min(v for v in (lhs.valuation, rhs.valuation, 0) if v is not None)
    for k in range(lo, upto + 1):
        l, r = lhs.coeff(k), rhs.coeff(k)
        if l != r:
            if rep.first_mismatch is None:
                rep.first_mismatch = k
            if len(rep.diffs) < max_diffs:
                rep.diffs.append((k, str(l), str(r)))
    return rep


def compare_with_counts(name: str, series: TSeries, counts: list[int],
                        upto: int, **kw) -> ComparisonReport:
    rhs = TSeries.from_dict({n: c for n, c in enumerate(counts[: upto + 1])}, upto)
    return compare_series(name, series.truncate(min(upto, series.order)), rhs,
                          upto, **kw)


def solution_identities(a, order: int) -> list[ComparisonReport]:
    """Cross-checks of the boundary-specialized solutions at rational a.

    (i)   the symmetric alternating-sum form of F(a, t*a) against the
          enumeration series;
    (ii)  the simplified asymmetric sum for H(a, t*a) against enumeration;
    (iii) the raw coefficient-ladder sum against the simplified form, and
          the printed term-by-term expression against the simplified form
          (the latter disagrees as printed; reported, ledgered).
    """
    a = Fraction(a)
    dp_order = min(order, 40)
    reports = []

    wsym = weighted_gf("symmetric", 1, dp_order)
    reports.append(compare_series(
        "F(a,ta) alternating sum vs enumeration",
        gf_F_aya(a, dp_order), wsym.series_lower(a), dp_order,
        params={"a": a}))

    wasym = weighted_gf("asymmetric", 1, dp_order)
    simplified = gf_H_aya_simplified(a, dp_order)
    reports.append(compare_series(
        "H(a,ta) simplified sum vs enumeration",
        simplified, wasym.series_lower(a), dp_order,
        params={"a": a}))

    reports.append(compare_series(
        "H(a,ta) raw coefficient ladder vs simplified",
        kernel.raw_iterated_sum(a, min(order, 24)),
        simplified.truncate(min(order, 24)), min(order, 24),
        params={"a": a}))

    reports.append(compare_series(
        "H(a,ta) printed term-by-term expression vs simplified",
        gf_H_aya_raw(a, min(order, 24)),
        simplified.truncate(min(order, 24)), min(order, 24),
        params={"a": a},
        expected_mismatch=True,
        note="the printed expression expands to a Laurent series of "
             "valuation -1; enumeration and the simplified sum are trusted"))
    return reports


def interpretation_comparators(order: int = 20) -> list[ComparisonReport]:
    """Report-only comparisons of Q and P against single-boundary walk series,
    and of the printed half-plane closed form against enumeration.

    These interpretations are stated without proof and disagree at low order
    as printed; the comparators emit exact diffs and never assert.
    """
    reports = []
    t3 = TSeries.t_power(3, order)

    flat = count_walks(WedgeModel("boundary_flat", 1), order)
    b_minus = TSeries.from_dict({n: c for n, c in enumerate(flat.counts)}, order)
    reports.append(compare_series(
        "Q_asym(1) vs t^3 (B_flat - 1)",
        kernel.q_asym(1, order), t3 * (b_minus - 1), order,
        expected_mismatch=True,
        note="single-vertex walk contributes the constant term 1 of the "
             "B series; the identity uses B - 1, so the constant cancels. "
             "Coefficients still differ from t^6 on; enumeration trusted."))

    diag = count_walks(WedgeModel("boundary_diag", 1), order)
    b_diag = TSeries.from_dict({n: c for n, c in enumerate(diag.counts)}, order)
    reports.append(compare_series(
        "P(1) vs t^3 (B_diag - 1)",
        kernel.p_asym(1, order), t3 * (b_diag - 1), order,
        expected_mismatch=True,
        note="with the t^2-normalized P (the form in the final walk series) "
             "the valuations already differ; the undivided composition "
             "Q(alpha_1(b)) matches the valuation but differs from t^7 on."))

    half = count_walks(WedgeModel("halfplane", 1), order)
    reports.append(compare_with_counts(
        "half-plane printed closed form vs enumeration",
        gf_halfplane_printed(order), half.counts, order,
        expected_mismatch=True,
        note="printed formula is Laurent of valuation -2 (numerator has "
             "constant term -2); enumeration counts 1,2,4,9,20,... trusted"))
    return reports
