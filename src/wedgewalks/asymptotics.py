"""High-precision reproduction of the asymptotic constants, validated against
exact coefficients.

Analytic constants are computed with mpmath at an explicit working precision
and must be stable under precision doubling; empirical constants come from
fits against exact enumeration with the window and extrapolation order
reported.  Reference values are stored as exact decimal strings.

The zero-free-disk audit counts the zeros in |t| < 1/2 exactly, in integer
arithmetic; only the roots it prints are numeric.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from . import closedforms as cf
from .errors import BudgetError
from .series import TSeries
from .walks import CountTable

#: reference decimal strings for every reproduced constant
REFERENCES = {
    "A0": "0.27730985348603118827",
    "A1": "3.71410486533662324953",
    "A2": "0.20697997020804157910",
    "theta": "0.31096381899209832",
    "B0": "0.218693916694303177",
    "B0_horizontal": "0.090584741026764287",
}

_MAX_DIGITS = 200


@dataclass
class AsymptoticReport:
    constant_name: str
    method: str  # "analytic" | "fit"
    value: str
    digits: int
    reference: str | None = None
    abs_error: str | None = None
    n_range: tuple[int, int] | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "constant": self.constant_name,
            "method": self.method,
            "value": self.value,
            "digits": self.digits,
            "reference": self.reference,
            "abs_error": self.abs_error,
            "n_range": list(self.n_range) if self.n_range else None,
            "diagnostics": {k: str(v) for k, v in self.diagnostics.items()},
        }


def _check_digits(digits: int) -> None:
    if digits > _MAX_DIGITS:
        raise BudgetError(f"digits={digits} exceeds the budget of {_MAX_DIGITS}")


def _nstr(x, digits: int) -> str:
    return mpmath.nstr(x, digits, strip_zeros=False)


def _q_at(t):
    """Q(1; t, t) evaluated numerically from its closed form."""
    return (1 - 3 * t**2 - mpmath.sqrt((1 - t**2) * (1 - 5 * t**2))) / (2 * t)


def _alternating_theta_num(t):
    """sum((-1)^n t^(n^2) Q(t)^n) numerically; terms decay like t^(n^2)."""
    q = _q_at(t)
    total = mpmath.mpf(0)
    n = 0
    cutoff = mpmath.mpf(10) ** (-(mpmath.mp.dps + 10))  # ten guard digits
    while True:
        term = (-1) ** n * t ** (n * n) * q**n
        total += term
        if n > 1 and abs(term) < cutoff:
            break
        n += 1
    return total


def _g1_numerator(t):
    """(1 - 2t - t^2) g_1(1,1): the symmetric-wedge series without its pole."""
    radical = mpmath.sqrt((1 - t**2) * (1 - 5 * t**2))
    return (1 + t) - (1 - t**2 - radical) / t * _alternating_theta_num(t)


def _a0_residue():
    """A0 at the current working precision (see :func:`constant_A0`)."""
    tc = mpmath.sqrt(2) - 1
    # 1 - 2t - t^2 = -(t - tc)(t + 1 + sqrt(2)); residue scaling by
    # (1 - t/tc) contributes 1/(tc * (tc + 1 + sqrt(2)))
    return _g1_numerator(tc) / (tc * (tc + 1 + mpmath.sqrt(2)))


def constant_A0(digits: int = 30) -> AsymptoticReport:
    """Residue of the symmetric-wedge series at its dominant simple pole.

    The pole at t_c = sqrt(2)-1 comes only from the 1/(1-2t-t^2) prefactors;
    the theta-like sum is regular there and is evaluated as a rapidly
    convergent numeric sum with Q(t_c) = 3 - 2*sqrt(2).
    """
    _check_digits(digits)
    with mpmath.workdps(digits + 15):
        tc = mpmath.sqrt(2) - 1
        a0 = _a0_residue()

        q_tc = _q_at(tc)
        q_exact = 3 - 2 * mpmath.sqrt(2)
        upper = (1 + mpmath.sqrt(2)) / 2

        # limit-approach diagnostic: (1 - t/tc) g_1(1,1) just inside the pole
        t = tc * (1 - mpmath.mpf(10) ** -8)
        approach = (1 - t / tc) * _g1_numerator(t) / (1 - 2 * t - t**2)

        ref = mpmath.mpf(REFERENCES["A0"])
        return AsymptoticReport(
            "A0", "analytic", _nstr(a0, digits), digits,
            reference=REFERENCES["A0"],
            abs_error=_nstr(abs(a0 - ref), 3),
            diagnostics={
                "Q_at_pole_matches_3_minus_2sqrt2": _nstr(abs(q_tc - q_exact), 3),
                "below_upper_bound_(1+sqrt2)/2": bool(a0 < upper),
                "limit_approach_1e-8": _nstr(approach, 10),
                "limit_approach_gap": _nstr(abs(approach - a0), 3),
            })


def _neville_to_zero(xs, ys):
    """Polynomial extrapolation of (x, y) data to x = 0."""
    ys = list(ys)
    m = len(ys)
    for i in range(1, m):
        for j in range(m - 1, i - 1, -1):
            ys[j] = (xs[j - i] * ys[j] - xs[j] * ys[j - 1]) / (xs[j - i] - xs[j])
    return ys[m - 1]


def constants_A1A2(vtable: CountTable, digits: int = 30) -> list[AsymptoticReport]:
    """Parity fit of the subdominant 5^(n/2) term of the symmetric counts.

    Scales the residual v_n - A0 mu^n by (n+1)^(3/2) 5^(-n/2); the scaled
    sequence is A1 + (-1)^n A2 plus a 1/n tail, so each parity class is
    Neville-extrapolated in 1/(n+1) over six equally spaced nodes below
    n_max.  Works at max(digits, 12) places, plus the n log10(mu/sqrt5) +
    1.5 log10(n+1) that subtraction and scaling cancel, plus a guard of 10.
    """
    _check_digits(digits)
    n_hi = len(vtable) - 1
    if n_hi < 60:
        raise ValueError("fit needs counts to length >= 60")
    n_hi -= n_hi % 2
    nodes_even = [n_hi - 20 * i for i in range(5, -1, -1) if n_hi - 20 * i >= 20]
    nodes_odd = [n - 1 for n in nodes_even]
    cancelled = math.ceil(n_hi * math.log10((1 + math.sqrt(2)) / math.sqrt(5))
                          + 1.5 * math.log10(n_hi + 1))
    with mpmath.workdps(max(digits, 12) + cancelled + 10):
        mu = 1 + mpmath.sqrt(2)
        a0 = _a0_residue()

        def scaled(n: int):
            r = vtable[n] - a0 * mu**n
            return r * (n + 1) ** mpmath.mpf(1.5) / mpmath.mpf(5) ** (mpmath.mpf(n) / 2)

        def limit(nodes):
            return _neville_to_zero([1 / mpmath.mpf(n + 1) for n in nodes],
                                    [scaled(n) for n in nodes])

        lim_even, lim_odd = limit(nodes_even), limit(nodes_odd)
        a1 = (lim_even + lim_odd) / 2
        a2 = (lim_even - lim_odd) / 2
        out = []
        for name, value, raw in (("A1", a1, scaled(n_hi)),
                                 ("A2", a2, (scaled(n_hi) - scaled(n_hi - 1)) / 2)):
            ref = mpmath.mpf(REFERENCES[name])
            out.append(AsymptoticReport(
                name, "fit", _nstr(value, 12), digits,
                reference=REFERENCES[name],
                abs_error=_nstr(abs(value - ref), 3),
                n_range=(nodes_odd[0], n_hi),
                diagnostics={"window_value": _nstr(raw, 10),
                             "nodes": nodes_even,
                             "extrapolation": "parity split + Neville in 1/(n+1)"},
            ))
        return out


def _theta_summand(k: int):
    """k-th term of sqrt(2) theta: (1 - tau^(2k+1)) tau^(2k^2+2k) / (1 + tau^(2k+1))."""
    tau = mpmath.sqrt(2) - 1
    tk = tau ** (2 * k + 1)
    return (1 - tk) / (1 + tk) * tau ** (2 * k * k + 2 * k)


def constant_theta(digits: int = 30) -> AsymptoticReport:
    """Direct summation of the boundary-pole constant.

    Terms decay like (sqrt(2)-1)^(2k^2), so a handful of terms give full
    working precision.
    """
    _check_digits(digits)
    with mpmath.workdps(digits + 15):
        total = mpmath.mpf(0)
        k = 0
        partials = {}
        cutoff = mpmath.mpf(10) ** (-(digits + 12))
        while True:
            term = _theta_summand(k)
            total += term
            if k <= 2:
                partials[k] = total / mpmath.sqrt(2)
            if term < cutoff:
                break
            k += 1
        value = total / mpmath.sqrt(2)
        ref = mpmath.mpf(REFERENCES["theta"])
        return AsymptoticReport(
            "theta", "analytic", _nstr(value, digits), digits,
            reference=REFERENCES["theta"],
            abs_error=_nstr(abs(value - ref), 3),
            diagnostics={
                "first_term": _nstr(partials[0], 8),
                "tail_beyond_k2": _nstr(abs(value - partials[2]), 3),
                "terms_used": k + 1,
            })


def _node_ratios(table: CountTable) -> dict:
    """r(n) = c_n sqrt(n) / mu^n at the fit nodes N//4, N//2, N that are >= 10,
    where N = len(table) - 1 is the longest length counted."""
    top = len(table) - 1
    ns = [n for n in (top // 4, top // 2, top) if n >= 10]
    if not ns:
        raise ValueError(f"a fit needs counts to length >= 10, not 0..{top}")
    mu = 1 + mpmath.sqrt(2)
    return {n: table[n] * mpmath.sqrt(n) / mu**n for n in ns}


def constant_B0(wtable: CountTable, digits: int = 30) -> AsymptoticReport:
    """Empirical constant of the asymmetric wedge: w_n sqrt(n) / mu^n.

    Reports the raw ratio r(n) at each node of :func:`_node_ratios`, the
    line through the last two nodes n_a < n_b in 1/n extrapolated to 1/n = 0
    (2 r(n_b) - r(n_a) when n_b = 2 n_a), and the horizontal-ending
    companion constant (smaller by exactly mu).
    """
    _check_digits(digits)
    with mpmath.workdps(digits + 10):
        ratios = _node_ratios(wtable)
        ns = list(ratios)
        if len(ns) < 2:
            raise ValueError(f"B0 needs two fit nodes: counts to length >= 20, not {ns[-1]}")
        mu = 1 + mpmath.sqrt(2)
        ref = mpmath.mpf(REFERENCES["B0"])
        gaps = {n: abs(ratios[n] - ref) for n in ns}
        value = _neville_to_zero([1 / mpmath.mpf(n) for n in ns[-2:]],
                                 [ratios[n] for n in ns[-2:]])

        # horizontal-ending counts are the full counts shifted by one length
        n = ns[-1]
        h_ratio = wtable[n - 1] * mpmath.sqrt(n) / mu**n
        ref_h = mpmath.mpf(REFERENCES["B0_horizontal"])
        product_check = abs(ref_h * mu - ref)

        return AsymptoticReport(
            "B0", "fit", _nstr(value, 10), digits,
            reference=REFERENCES["B0"],
            abs_error=_nstr(abs(value - ref), 3),
            n_range=(ns[0], ns[-1]),
            diagnostics={
                **{f"ratio_at_{n}": _nstr(ratios[n], 10) for n in ns},
                **{f"gap_at_{n}": _nstr(gaps[n], 3) for n in ns},
                "gap_shrinking": all(gaps[ns[i]] > gaps[ns[i + 1]]
                                     for i in range(len(ns) - 1)),
                "horizontal_ratio": _nstr(h_ratio, 10),
                "horizontal_reference": REFERENCES["B0_horizontal"],
                "printed_product_consistency": _nstr(product_check, 3),
            })


def halfplane_reference(digits: int = 30):
    with mpmath.workdps(digits):
        return mpmath.sqrt((7 + 5 * mpmath.sqrt(2)) / (2 * mpmath.pi))


def constant_halfplane(htable: CountTable, digits: int = 30) -> AsymptoticReport:
    """Closed constant sqrt((7+5 sqrt2)/(2 pi)) against the ratios
    h_n sqrt(n) / mu^n of half-plane counts at the :func:`_node_ratios` nodes."""
    _check_digits(digits)
    with mpmath.workdps(digits + 10):
        closed = halfplane_reference(digits + 10)
        ratios = _node_ratios(htable)
        ns = list(ratios)
        n = ns[-1]
        return AsymptoticReport(
            "halfplane", "analytic", _nstr(closed, digits), digits,
            reference=None,
            abs_error=None,
            n_range=(ns[0], ns[-1]),
            diagnostics={
                **{f"ratio_at_{m}": _nstr(ratios[m], 10) for m in ns},
                "relative_gap_at_last": _nstr(abs(ratios[n] - closed) / closed, 3),
                "bounds_remark": f"{REFERENCES['B0'][:7]} <= B0 <= "
                                 f"{_nstr(closed, 7)}",
            })


def _floor_one_sig(x):
    """Truncate a positive number to one significant decimal digit."""
    e = mpmath.floor(mpmath.log10(x))
    scale = mpmath.mpf(10) ** e
    return mpmath.floor(x / scale) * scale


def eq37_accuracy(vtable: CountTable, digits: int = 30) -> dict:
    """Accuracy of the two-singularity formula with the reference constants.

    The stated accuracy figures (7%, 1%, 0.2%, 0.06% at n = 10..40) are
    one-significant-digit truncations: the raw relative errors are 7.7%,
    1.11%, 0.237% and 0.0614%, which truncate to exactly the stated table.
    Both the raw errors and the reproduced figures are reported.  The work
    is done at ``digits`` + 15 places, so the verdict does not depend on
    the precision asked for.
    """
    _check_digits(digits)
    stated = {10: "0.07", 20: "0.01", 30: "0.002", 40: "0.0006"}
    with mpmath.workdps(digits + 15):
        mu = 1 + mpmath.sqrt(2)
        a0 = mpmath.mpf(REFERENCES["A0"])
        a1 = mpmath.mpf(REFERENCES["A1"])
        a2 = mpmath.mpf(REFERENCES["A2"])
        rows = []
        for n in sorted(stated):
            approx = (a0 * mu**n
                      + mpmath.mpf(5) ** (mpmath.mpf(n) / 2)
                      / (n + 1) ** mpmath.mpf(1.5) * (a1 + (-1) ** n * a2))
            exact = mpmath.mpf(vtable[n])
            rel = abs(approx - exact) / exact
            figure = _floor_one_sig(rel)
            bound = mpmath.mpf(stated[n])
            rows.append({
                "n": n,
                "exact": str(vtable[n]),
                "formula": _nstr(approx, 12),
                "relative_error": _nstr(rel, 4),
                "stated_figure": stated[n],
                "reproduced_figure": _nstr(figure, 4),
                "figure_matches": bool(abs(figure - bound) < bound * mpmath.mpf("1e-9")),
                "within_literal": bool(rel <= bound),
            })
        return {"rows": rows, "ok": all(r["figure_matches"] for r in rows)}


def _p2k_formula(k: int, n: int):
    """Reference asymptotic form of the k-th summand coefficient."""
    mu = 1 + mpmath.sqrt(2)
    tau = mpmath.sqrt(2) - 1
    tk = tau ** (2 * k + 1)
    lead = -(mu**n) / mpmath.sqrt(2) * _theta_summand(k)
    corr = (mu**n * mpmath.sqrt(2 / (mpmath.pi * n))
            * ((2 * k + 1) * (1 - tau ** (4 * k + 2)) - tk) / (1 + tk) ** 2
            * mu ** (-2 * k * k - 2 * k - mpmath.mpf(5) / 2))
    return lead + corr


def p_pieces_asymptotics(n_max: int = 200, digits: int = 30) -> list[AsymptoticReport]:
    """Numerical structure of the three asymmetric solution pieces.

    All comparisons are diagnostic: gaps are reported, nothing is asserted
    beyond the cancellation of the two mu^n leading constants.
    """
    _check_digits(digits)
    if n_max > cf._MAX_ORDER:
        raise BudgetError(f"order {n_max} exceeds the budget of {cf._MAX_ORDER}")
    p1, p2, p3, middle = cf.gf_h1_pieces(n_max)
    h1 = p1 + p2 + p3
    reports = []
    with mpmath.workdps(digits + 10):
        mu = 1 + mpmath.sqrt(2)
        theta_c = mpmath.mpf(REFERENCES["theta"])

        def coeff(series, n):
            c = series.coeff(n)
            return mpmath.mpf(c.numerator) / c.denominator

        # (i) the 5^(n/2)/n^(3/2) parity formula for the radical-only piece
        def p1_formula(n):
            s5 = mpmath.sqrt(5)
            return (-mpmath.sqrt(5 / (8 * mpmath.pi))
                    * ((2 + s5) - (-1) ** n * (s5 - 2))
                    * s5**n / mpmath.sqrt(mpmath.mpf(n) ** 3))

        ratios = {n: coeff(p1, n) / p1_formula(n) for n in (n_max // 2, n_max)}
        reports.append(AsymptoticReport(
            "p1_ratio", "fit", _nstr(ratios[n_max], 8), digits,
            n_range=(n_max // 2, n_max),
            diagnostics={f"ratio_at_{n}": _nstr(r, 8) for n, r in ratios.items()}
            | {"improving": bool(abs(ratios[n_max] - 1) < abs(ratios[n_max // 2] - 1))},
        ))

        # (ii) per-summand comparison; summands past the last term of the
        # ratio sum below order n_max are exactly zero, and still reported
        middle = itertools.chain(middle, itertools.repeat(TSeries.zero(n_max)))
        for k, summand in zip(range(3), middle):
            exact = coeff(summand, n_max)
            formula = _p2k_formula(k, n_max)
            reports.append(AsymptoticReport(
                f"p2_summand_k{k}", "fit", _nstr(exact / mu**n_max, 8), digits,
                n_range=(n_max, n_max),
                diagnostics={
                    "exact_over_mu_n": _nstr(exact / mu**n_max, 8),
                    "formula_over_mu_n": _nstr(formula / mu**n_max, 8),
                    "relative_gap": _nstr(abs((exact - formula) / formula), 4),
                },
            ))

        # (iii) cancellation of the mu^n constants of the two sum pieces
        def fit_const(series):
            # model c + d/sqrt(n) through n_max/2 and n_max; returns (c, d)
            ns = (n_max // 2, n_max)
            rts = [1 / mpmath.sqrt(n) for n in ns]
            ss = [coeff(series, n) / mu**n for n in ns]
            return _neville_to_zero(rts, ss), (ss[0] - ss[1]) / (rts[0] - rts[1])

        c3, _ = fit_const(p3)
        with mpmath.workdps(30):  # B0 / mu, see ledger entry sqrt-n-constant-pair
            sqrt_ref = _nstr(mpmath.mpf(REFERENCES["B0"]) / (1 + mpmath.sqrt(2)), 17)
        c2, d2 = fit_const(p2)
        c_sum, d_sum = fit_const(p2 + p3)
        reports.append(AsymptoticReport(
            "p2_p3_cancellation", "fit", _nstr(c_sum, 6), digits,
            n_range=(n_max // 2, n_max),
            diagnostics={
                "p3_constant": _nstr(c3, 10),
                "p3_vs_theta": _nstr(abs(c3 - theta_c), 3),
                "p2_constant": _nstr(c2, 10),
                "p2_vs_minus_theta": _nstr(abs(c2 + theta_c), 3),
                "sum_constant": _nstr(c_sum, 6),
                "sum_sqrt_term": _nstr(d_sum, 8),
                "sqrt_term_reference": sqrt_ref,
                "h1_check_constant": _nstr(fit_const(h1)[0], 6),
            },
        ))
    return reports


# -- root audit ---------------------------------------------------------------

#: significant digits of every printed root and root modulus
_ROOT_DIGITS = 17


class AuditError(RuntimeError):
    """The audit found an undocumented zero in |t| < 1/2, or could not decide."""


@dataclass
class RootAudit:
    k_range: tuple[int, int]
    digits: int
    results: list[dict] = field(default_factory=list)
    #: a returned audit passed; a failing one raises AuditError instead
    ok = True

    def to_dict(self) -> dict:
        return {"schema": 1, "k_range": list(self.k_range), "digits": self.digits,
                "ok": self.ok, "results": self.results}


def _family_poly(family: str, k: int) -> dict[int, int]:
    """Integer Laurent polynomial, shifted to valuation 0 if needed."""
    if family == "Q":
        terms = [(0, 1), (2 * k + 4, 1), (k, 1), (k + 1, -1), (k + 2, -1), (k + 3, -1)]
    elif family == "P":
        terms = [(0, 1), (2 * k + 2, 1), (k - 1, 1), (k + 1, -3)]
    else:
        raise ValueError(family)
    acc: dict[int, int] = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    acc = {e: c for e, c in acc.items() if c}
    shift = min(acc)
    if shift < 0:
        acc = {e - shift: c for e, c in acc.items()}
    return acc


def _zeros_in_half_disk(coeffs: dict[int, int]) -> int:
    """Exact number of zeros of an integer polynomial f in |t| < 1/2.

    Schur-Cohn recursion on g(s) = 2^d f(s/2) in |s| < 1: with g* the
    reversed g, T g = a0 g - an g* has lower degree and, by Rouche on |s| = 1,
    the zeros of g in the disk if |a0| > |an|, else those of g*, deg g minus
    those of g.  A zero on the circle survives every T, so it ends in a step
    with |a0| = |an| (only then can T g, whose constant is a0^2 - an^2,
    vanish); that step raises AuditError and is never guessed.
    """
    d = max(coeffs)
    g = [coeffs.get(i, 0) << (d - i) for i in range(d + 1)]
    count, sign = 0, 1  # zeros of f = count + sign * (zeros of g)
    while len(g) > 1:
        n = len(g) - 1
        a0, an = g[0], g[n]
        if abs(a0) == abs(an):
            raise AuditError(f"degenerate Schur-Cohn step at degree {n}: |a0| = |an|")
        if abs(a0) < abs(an):
            count, sign = count + sign * n, -sign
        g = [a0 * g[i] - an * g[n - i] for i in range(n)]
        while not g[-1]:
            g.pop()
        common = math.gcd(*g)
        g = [c // common for c in g]
    return count


def _aberth(desc: list[int]) -> list[complex]:
    """All zeros of a polynomial (descending coefficients) in complex floats.

    Aberth iteration from points on the circle of the roots' geometric-mean
    modulus; each step is Newton's, deflated by the other current zeros.
    """
    n = len(desc) - 1
    c = [x / desc[0] for x in desc]
    radius = abs(c[-1]) ** (1 / n)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(500):
        moved = False
        for i, zi in enumerate(z):
            p = dp = 0j
            for ck in c:
                p, dp = p * zi + ck, dp * zi + p
            denom = dp - p * sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
            step = p / denom if denom else 0
            z[i] = zi - step
            moved |= abs(step) > 1e-12 * max(1.0, abs(zi))
        if not moved:
            break
    return z


def _polish_places(digits: int) -> int:
    """Decimal places the roots are polished to: ten beyond the printed
    ``_ROOT_DIGITS`` or the requested digits, whichever is more."""
    return max(digits, _ROOT_DIGITS) + 10


def _abs2_at(coeffs: dict[int, int], x) -> tuple[int, int]:
    """|f(x)|^2 = num / 2^shift exactly, as (num, shift), for an integer
    polynomial f (exponent -> coefficient) at a point x whose parts are
    mpf, hence dyadic: with x = z / 2^s for a Gaussian integer z,
    2^(s deg) f(x) is the Gaussian integer sum of c_e z^e 2^(s (deg - e))
    over the terms, each z^e raised from the one before."""
    parts = []
    for part in (x.real, x.imag):
        sign, man, exp, _ = part._mpf_  # the sign is held apart from man
        parts.append((-man if sign else man, exp))
    s = -min(0, *(exp for _, exp in parts))
    a, b = (man << (exp + s) for man, exp in parts)
    deg = max(coeffs)
    fr = fi = 0
    pr, pi, e = 1, 0, 0  # z^e
    for j in sorted(coeffs):
        qr, qi, ar, ai, n = 1, 0, a, b, j - e  # z^n by squaring, into q
        while n:
            if n & 1:
                qr, qi = qr * ar - qi * ai, qr * ai + qi * ar
            n >>= 1
            if n:
                ar, ai = ar * ar - ai * ai, 2 * ar * ai
        pr, pi, e = pr * qr - pi * qi, pr * qi + pi * qr, j
        fr += (coeffs[j] * pr) << (s * (deg - j))
        fi += (coeffs[j] * pi) << (s * (deg - j))
    return fr * fr + fi * fi, 2 * s * deg


def _lift(v: float, bits: int) -> int:
    """round(v 2^bits) exactly, at any bits: the scaled seed may pass the
    float range (2^1024) once digits reach about 300."""
    return round(Fraction(v) * (1 << bits))


def _newton(lifted: list[int], bits: int, stop: int, x: int, y: int) -> tuple[int, int]:
    """Newton on the fixed-point root (x + iy)/2^bits of the polynomial with
    descending coefficients c = lifted / 2^bits, in Gaussian integers, until
    |step|^2 stop < 1 (at most 60 steps); returns the polished (x, y)."""
    for _ in range(60):
        pr = pi = dr = di = 0
        for c in lifted:
            dr, di = ((dr * x - di * y) >> bits) + pr, ((dr * y + di * x) >> bits) + pi
            pr, pi = ((pr * x - pi * y) >> bits) + c, (pr * y + pi * x) >> bits
        den = dr * dr + di * di
        if not den:
            break
        sr = ((pr * dr + pi * di) << bits) // den
        si = ((pi * dr - pr * di) << bits) // den
        x, y = x - sr, y - si
        if (sr * sr + si * si) * stop < 1 << (2 * bits):
            break
    return x, y


def _poly_roots(coeffs: dict[int, int], digits: int):
    """All zeros of an integer polynomial (exponent -> coefficient), sorted
    by the 20-digit strings of their modulus, then of their argument.

    The Aberth seeds are Newton-polished on fixed-point Gaussian integers
    (:func:`_newton`): a root is (X + iY)/2^B with B the mpmath precision at
    ``_polish_places(digits)``, and the polish stops once |step| <
    10^-(max(digits, 17) + 5), tested exactly.  Each root then becomes an
    mpc, with every real or imaginary part below 10^-(digits + 5) exactly 0,
    and must satisfy |f(x)| <= max|c| 10^-digits, also tested exactly
    (:func:`_abs2_at`); a root that misses it raises AuditError.
    """
    deg = max(coeffs)
    desc = [coeffs.get(deg - i, 0) for i in range(deg + 1)]
    places = _polish_places(digits)
    bits = mpmath.libmp.dps_to_prec(places)
    lifted = [c << bits for c in desc]
    stop = 10 ** (2 * (places - 5))
    bound = max(abs(c) for c in desc) ** 2  # on |f(x)|^2 10^(2 digits)
    with mpmath.workdps(places):
        tol = mpmath.mpf(10) ** (-(digits + 5))
        polished = []
        for r in _aberth(desc):
            x, y = _newton(lifted, bits, stop, _lift(r.real, bits), _lift(r.imag, bits))
            z = mpmath.mpc(mpmath.chop(mpmath.mpc(mpmath.mpf((x, -bits)),
                                                  mpmath.mpf((y, -bits))), tol))
            num, shift = _abs2_at(coeffs, z)
            if num * 10 ** (2 * digits) > bound << shift:
                residual = mpmath.sqrt(mpmath.ldexp(num, -shift))
                raise AuditError(f"root polish left residual {mpmath.nstr(residual, 3)}")
            polished.append(z)
        return sorted(polished, key=lambda z: (mpmath.nstr(abs(z), 20),
                                               mpmath.nstr(mpmath.arg(z), 20)))


def root_audit(k_max: int = 20, digits: int = 30) -> RootAudit:
    """Zero-free-disk audit of the pole families 1 + Q t^k and 1 + P t^k.

    For each k the associated integer polynomial must have no zero of
    modulus < 1/2, except the documented modulus sqrt(2)-1 point of the
    P family at k = 0, which belongs to the other branch (the principal
    branch of P does not reach -1 there) and is flagged, not failed.
    The count inside is exact (:func:`_zeros_in_half_disk`); the roots,
    polished in integer fixed point to ``_polish_places(digits)`` places and
    printed to ``_ROOT_DIGITS`` digits, must have as many inside, and each
    must pass the exact residual bound of :func:`_poly_roots`.
    """
    if k_max > 30:
        raise BudgetError("k_max beyond 30 exceeds the audit budget")
    audit = RootAudit((-1, k_max), digits)
    with mpmath.workdps(_polish_places(digits)):
        tau = mpmath.sqrt(2) - 1
        half = mpmath.mpf(1) / 2
        eps = mpmath.mpf(10) ** (-digits // 2)
        for family in ("Q", "P"):
            for k in range(-1, k_max + 1):
                label = f"{family}-family k={k}"
                coeffs = _family_poly(family, k)
                try:
                    count = _zeros_in_half_disk(coeffs)
                    roots = _poly_roots(coeffs, digits)
                except AuditError as exc:
                    raise AuditError(f"{label}: {exc}") from None
                inside = [r for r in roots if abs(r) < half]
                if len(inside) != count:
                    raise AuditError(f"{label}: {len(inside)} polished roots in "
                                     f"|t| < 1/2, but exactly {count} zeros")
                flagged = []
                for r in inside:
                    if not (family == "P" and k == 0 and abs(abs(r) - tau) < eps):
                        raise AuditError(f"{label}: undocumented zero inside "
                                         f"|t| < 1/2: {mpmath.nstr(r, _ROOT_DIGITS)}")
                    # principal branch stays clear: at this point the other
                    # branch of P equals -1
                    flagged.append({
                        "root": mpmath.nstr(r, _ROOT_DIGITS),
                        "modulus": mpmath.nstr(abs(r), _ROOT_DIGITS),
                        "reason": "other-branch",
                        "principal_branch_value_plus_1":
                            mpmath.nstr(abs(1 + _q_at(r)), 5),
                    })
                audit.results.append({
                    "family": family,
                    "k": k,
                    "degree": max(coeffs),
                    "min_modulus": mpmath.nstr(min(abs(r) for r in roots), 15),
                    "roots": [mpmath.nstr(r, _ROOT_DIGITS) for r in roots],
                    "flagged": flagged,
                })
    return audit
