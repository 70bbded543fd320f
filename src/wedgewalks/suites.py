"""Named verification suites with machine-readable verdicts.

This module is the one place where a compared pair of series, a residual
that must vanish, or an inequality between walk counts becomes a Verdict:
``kernel`` and ``closedforms`` only build the series, and ``walks`` only
counts.  Each suite returns a list of Verdicts; a run is clean when
no verdict has status "fail".  A comparison that the discrepancy ledger
covers names its entry, and reports instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import closedforms as cf
from . import discrepancies, kernel
from .series import OrderUnderflowError, TSeries, tpoly
from .walks import WedgeModel, count_walks, weighted_gf


@dataclass
class Verdict:
    suite: str
    identity: str
    parameters: dict = field(default_factory=dict)
    order: int | None = None
    status: str = "pass"  # pass | fail | reported
    first_bad_coefficient: int | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "identity": self.identity,
            "parameters": {k: str(v) for k, v in self.parameters.items()},
            "order": self.order,
            "status": self.status,
            "first_bad_coefficient": self.first_bad_coefficient,
            "note": self.note,
        }


def _first_bad(order: int, *residuals: TSeries) -> int | None:
    """Smallest exponent <= order at which a residual is nonzero, or None.

    Each residual covers only the coefficients it knows reliably, so the
    window compared is its valuation .. min(order, residual.order).
    """
    return min((r.valuation for r in residuals
                if not r.is_zero() and r.valuation <= order), default=None)


def _verdict(suite: str, identity: str, order: int, *residuals: TSeries,
             ledger: str | None = None, **params) -> Verdict:
    """The verdict on residuals that must all vanish mod t^(order+1).

    A mismatch on an identity that names the discrepancy-ledger entry
    ``ledger`` is "reported", with a note taken from that entry (an unknown
    id raises KeyError); any other mismatch is a "fail".  A residual
    reliable to less than ``order`` cannot back the verdict, and raises
    OrderUnderflowError.
    """
    for r in residuals:
        if r.order < order:
            raise OrderUnderflowError(
                f"{identity}: a residual is reliable to t^{r.order}, below the order {order}")
    bad = _first_bad(order, *residuals)
    note = f"ledger {ledger}: {discrepancies.get(ledger).title}" if ledger else ""
    status = "pass" if bad is None else "reported" if ledger else "fail"
    return Verdict(suite, identity, params, order, status, bad, note)


def _count_series(counts: list[int], order: int) -> TSeries:
    return tpoly(dict(enumerate(counts[: order + 1])), order)


def solution_identities(a, order: int) -> list[tuple[str, TSeries, TSeries, str | None]]:
    """(identity, lhs, rhs, ledger id or None) for the boundary-specialized
    solutions at rational a.

    (i)   the symmetric alternating-sum form of F(a, t*a) against the
          enumeration series;
    (ii)  the simplified asymmetric sum for H(a, t*a) against enumeration;
    (iii) the raw coefficient-ladder sum against the simplified form, and
          the printed term-by-term expression against the simplified form
          (the latter disagrees as printed; reported, ledgered).
    """
    a = Fraction(a)
    dp_order = min(order, 40)
    short = min(order, 24)
    simplified = cf.gf_H_aya_simplified(a, dp_order)
    return [
        ("F(a,ta) alternating sum vs enumeration", cf.gf_F_aya(a, dp_order),
         weighted_gf("symmetric", 1, dp_order).series_lower(a), None),
        ("H(a,ta) simplified sum vs enumeration", simplified,
         weighted_gf("asymmetric", 1, dp_order).series_lower(a), None),
        ("H(a,ta) raw coefficient ladder vs simplified",
         kernel.raw_iterated_sum(a, short), simplified.truncate(short), None),
        ("H(a,ta) printed term-by-term expression vs simplified",
         cf.gf_H_aya_raw(a, short), simplified.truncate(short), "term-by-term-solution"),
    ]


def interpretation_identities(order: int = 20) -> list[tuple[str, TSeries, TSeries, str]]:
    """(identity, lhs, rhs, ledger id) comparing Q and P against
    single-boundary walk series, and the printed half-plane closed form
    against enumeration.

    These interpretations are stated without proof and disagree at low order
    as printed; every one is ledgered, so a mismatch is reported, never
    failed.
    """
    t3 = TSeries.t_power(3, order)
    flat = count_walks(WedgeModel("boundary_flat", 1), order)
    diag = count_walks(WedgeModel("boundary_diag", 1), order)
    half = count_walks(WedgeModel("halfplane", 1), order)
    return [
        ("Q_asym(1) vs t^3 (B_flat - 1)", kernel.q_asym(1, order),
         t3 * (_count_series(flat.counts, order) - 1), "flat-boundary-interpretation"),
        ("P(1) vs t^3 (B_diag - 1)", kernel.p_asym(1, order),
         t3 * (_count_series(diag.counts, order) - 1), "diag-boundary-interpretation"),
        ("half-plane printed closed form vs enumeration",
         cf.gf_halfplane_printed(order), _count_series(half.counts, order), "halfplane-gf"),
    ]


def suite_kernel(order: int = 40) -> list[Verdict]:
    out = []
    args = kernel.SAMPLE_ARGS

    for kind in ("symmetric", "asymmetric"):
        for a in args[:4]:
            for which in ("beta-", "beta+"):
                # K(a, beta+) is reliable two orders below beta+, whose
                # valuation is -1, so beta+ is built two orders higher
                r = kernel.root(kind, which, a, order + (2 if which == "beta+" else 0))
                k = kernel.kernel_coeffs(kind, 1, TSeries.constant(a, r.order),
                                         r, r.order).kernel
                out.append(_verdict("kernel", f"K(a, {which}(a)) = 0", order, k,
                                    model=kind, a=a))
        if kind == "asymmetric":
            for b in args[1:4]:
                r = kernel.root(kind, "alpha-", b, order)
                k = kernel.kernel_coeffs(kind, 1, r,
                                         TSeries.constant(b, r.order),
                                         r.order).kernel
                out.append(_verdict("kernel", "K(alpha-(b), b) = 0", order, k,
                                    model=kind, b=b))

    # reduced p=1 quadruple equals the general-p system
    for a, b in ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
                 (Fraction(2), Fraction(3, 5))):
        lhs = kernel.kernel_p1_printed(a, b, order)
        rhs = kernel.kernel_coeffs("symmetric", 1, a, b, order).kernel
        out.append(_verdict("kernel", "printed p=1 kernel = general-p kernel",
                            order, lhs - rhs, a=a, b=b))

    # symmetric-model symmetries: K(a,b) = K(b,a), X(a,b) = X(b,a), Y(a,b) = Z(b,a)
    for p in (1, 2, 3):
        for a, b in ((Fraction(1), Fraction(1, 2)), (Fraction(2, 3), Fraction(3, 5))):
            ab = kernel.kernel_coeffs("symmetric", p, a, b, order)
            ba = kernel.kernel_coeffs("symmetric", p, b, a, order)
            out.append(_verdict("kernel", "K(a,b) = K(b,a)", order,
                                ab.kernel - ba.kernel, p=p, a=a, b=b))
            out.append(_verdict("kernel", "X(a,b) = X(b,a)", order,
                                ab.free_term - ba.free_term, p=p, a=a, b=b))
            out.append(_verdict("kernel", "Y(a,b) = Z(b,a)", order,
                                ab.lower - ba.upper, p=p, a=a, b=b))

    # X has the vanishing factor b - t*a
    ta = TSeries.t_power(1, order, Fraction(1, 2))
    x_at = kernel.kernel_coeffs("symmetric", 2, Fraction(1, 2), ta, order).free_term
    out.append(_verdict("kernel", "X(a, t*a) = 0", order, x_at, p=2))

    # iterated compositions: closed = composed.  Each side is built once for
    # every n, the closed forms from one beta_1(a) or Q(a) and the composed
    # ones from one root chain; both are still looked up by name on each
    # call, so that a test can perturb them
    o = min(order, 30)
    a = Fraction(1, 2)
    b1 = kernel.beta_closed_input(a, o)
    chain = kernel.beta_chain(a, 6, o)
    for n in range(-2, 7):
        closed = kernel.beta_closed(n, a, b1, o)
        out.append(_verdict("kernel", f"beta_{n} closed = composed", o,
                            closed - kernel.beta_composed(n, chain, o), a=a))
    a = Fraction(1)
    q = kernel.gamma_closed_input(a, o)
    chain = kernel.gamma_chain(a, 4, o)
    for n in range(0, 5):
        closed = kernel.gamma_closed(n, q, o)
        out.append(_verdict("kernel", f"gamma_{n} closed = composed", o,
                            closed - kernel.gamma_composed(n, chain, o), a=a))

    # group structure
    o = min(order, 25)
    for n, a in ((1, Fraction(1)), (3, Fraction(1, 2)), (5, Fraction(2, 3))):
        for name, residuals in kernel.group_law_check(n, a, o):
            out.append(_verdict("kernel", name, o, *residuals, n=n, a=a))
    a, b = Fraction(1, 2), Fraction(1, 3)
    out.append(_verdict("kernel", "alpha_1(beta_-1(a)) = a and beta_1(alpha_-1(b)) = b",
                        o, *kernel.mixed_inverse_check(a, b, o), a=a, b=b))

    # Qbar * Q = t^3; Qbar has valuation -1, so both factors are built one
    # order higher for the product to reach t^order
    t3 = TSeries.t_power(3, order)
    for a in args[:5]:
        prod = kernel.qbar_asym(a, order + 1) * kernel.q_asym(a, order + 1)
        out.append(_verdict("kernel", "Qbar(a) Q(a) = t^3", order, prod - t3, a=a))

    # printed specializations of Q and P
    out.append(_verdict("kernel", "Q_sym(1) printed form", order,
                        kernel.q_sym(1, order) - cf.printed_q_sym(order)))
    out.append(_verdict("kernel", "Q_asym(1) printed form", order,
                        kernel.q_asym(1, order) - cf.printed_q_asym(order)))
    out.append(_verdict("kernel", "P(1) printed form", order,
                        kernel.p_asym(1, order) - cf.printed_q_sym(order)))

    # script coefficient ladder: one verdict per depth over its 15 identities
    a = Fraction(1, 2)
    for n in (0, 1, 2):
        residuals = {name: lhs - rhs for name, lhs, rhs in kernel.script_coeffs(n, a, o)}
        v = _verdict("kernel", f"script coefficients at depth {n}", o,
                     *residuals.values(), a=a, checked=len(residuals))
        if v.status == "fail":
            v.note = "failed: " + "; ".join(
                name for name, r in residuals.items() if _first_bad(o, r) is not None)
        out.append(v)
    return out


def suite_funceq(order: int = 30) -> list[Verdict]:
    out = []
    points = ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
              (Fraction(2, 3), Fraction(3, 5)))
    for kind in ("symmetric", "asymmetric"):
        for p in (1, 2, 3):
            w = weighted_gf(kind, p, order)
            for a, b in points:
                f = w.series_at(a, b), w.series_lower(a), w.series_upper(b)
                res = kernel.residual_functional_eq(kind, p, a, b, order, *f)
                out.append(_verdict("funceq", "column-construction residual",
                                    order, res, model=kind, p=p, a=a, b=b))
                resk = kernel.residual_kernel_form(kind, p, a, b, order, *f)
                out.append(_verdict("funceq", "kernel-form residual",
                                    order, resk, model=kind, p=p, a=a, b=b))
    return out


def suite_closedform(order: int = 100) -> list[Verdict]:
    out = []
    vt = count_walks(WedgeModel("symmetric", 1), order)
    wt = count_walks(WedgeModel("asymmetric", 1), order)
    free_order = min(order, 200)
    ct = count_walks(WedgeModel("free", 1), free_order)

    g1 = cf.gf_sym_g1(order)
    out.append(_verdict("closedform", "sym closed form vs counts", order,
                        g1 - _count_series(vt.counts, order)))
    k1 = cf.gf_asym_k1(order)
    out.append(_verdict("closedform", "asym closed form vs counts", order,
                        k1 - _count_series(wt.counts, order)))
    out.append(_verdict("closedform", "free closed form vs counts", free_order,
                        cf.gf_free(free_order) - _count_series(ct.counts, free_order)))

    # horizontal-ending relations
    w = min(order, 60)
    f1 = cf.gf_sym_f1(w)
    t = TSeries.t_power(1, w)
    out.append(_verdict("closedform", "f = 1 + t*g (symmetric)", w,
                        f1 - 1 - t * g1.truncate(w)))
    w = min(order, 40)
    out.append(_verdict("closedform", "f1(1,1) = horizontal-ending counts", w,
                        f1.truncate(w) - weighted_gf("symmetric", 1, w).series_at(1, 1)))
    h1 = (1 + t * k1).truncate(w)  # k1 = (h1 - 1)/t
    out.append(_verdict("closedform", "h1(1,1) = horizontal-ending counts", w,
                        h1 - weighted_gf("asymmetric", 1, w).series_at(1, 1)))

    # theta sums have the expected leading behavior
    out.append(_verdict("closedform", "alternating theta at the unit argument", 7,
                        cf.theta_sum("sym", 1, 7)
                        - tpoly({0: 1, 4: -1, 6: -3}, 7)))

    a, o = Fraction(1), min(order, 30)
    for identity, lhs, rhs, ledger in solution_identities(a, o):
        # the two H(a,ta)-vs-simplified checks are built at a shorter order
        residual = lhs - rhs
        out.append(_verdict("closedform", identity, min(o, residual.order), residual,
                            ledger=ledger, a=a))
    return out


def suite_interpretations(order: int = 20) -> list[Verdict]:
    return [_verdict("interpretations", identity, order, lhs - rhs, ledger=ledger)
            for identity, lhs, rhs, ledger in interpretation_identities(order)]


def ledger_evidence(entry_id: str) -> list[str]:
    """For each identity that names ledger entry ``entry_id``: its first
    mismatch, and both sides' coefficients to order 12 from t^0, or from the
    residual's valuation if that is lower."""
    o = 12
    lines = []
    for identity, lhs, rhs, ledger in solution_identities(1, o) + interpretation_identities(o):
        if ledger != entry_id:
            continue
        residual = lhs - rhs
        hi = min(o, residual.order)
        lo = min(0, residual.valuation)
        lines.append(f"  {identity}: first mismatch at t^{_first_bad(hi, residual)}")
        for side, s in (("lhs", lhs), ("rhs", rhs)):
            coeffs = ", ".join(str(s.coeff(k)) for k in range(lo, hi + 1))
            lines.append(f"    {side} t^{lo}..t^{hi}: {coeffs}")
    return lines


def _holds(identity: str, ok: bool, note: str = "", **params) -> Verdict:
    """The growth suite's verdict on a property that holds or does not."""
    return Verdict("growth", identity, params, None, "pass" if ok else "fail", note=note)


#: the lengths that the growth suite's checks read up to (see suite_growth)
GROWTH_N, SANDWICH_N = 30, 100


def suite_growth() -> list[Verdict]:
    """The inequalities behind the growth constant, and two counting identities.

    Super-multiplicativity v_n v_m <= v_(n+m+1) for n, m <= GROWTH_N in
    both wedges at p = 1, 2, 3.  Block prepending b_n^N <= w_(np+nN+N) for
    n <= 6, N <= 3: b_n counts quarter-plane walks ending on the axis, and
    prepending np + 1 east steps (ceil(np) = np for integer p) fits each
    block inside the asymmetric wedge.  The sandwich w <= v <= c and
    monotone counts to SANDWICH_N, and the p = 1 wedge inside the p = 2
    wedge to GROWTH_N.  Each model is counted once, to the longest length
    that any check reads.
    """
    wedges = [(kind, p) for kind in ("symmetric", "asymmetric") for p in (1, 2, 3)]
    blocks, reps_max = 6, 3
    reads = [(key, 2 * GROWTH_N + 1) for key in wedges]
    reads += [(("asymmetric", p), blocks * (p + reps_max) + reps_max) for p in (1, 2)]
    reads += [(("quarter_endline", 1), blocks)]
    reads += [((kind, 1), SANDWICH_N) for kind in ("free", "symmetric", "asymmetric")]
    lengths: dict[tuple[str, int], int] = {}
    for key, n in reads:
        lengths[key] = max(lengths.get(key, 0), n)
    tab = {key: count_walks(WedgeModel(*key), n).counts for key, n in lengths.items()}

    out = []
    span = range(GROWTH_N + 1)
    for kind, p in wedges:
        v = tab[kind, p]
        bad = next(((n, m) for n in span for m in span if v[n] * v[m] > v[n + m + 1]), None)
        out.append(_holds("super-multiplicativity", bad is None, str(bad or ""),
                          model=kind, p=p, n_max=GROWTH_N))
    b = tab["quarter_endline", 1]
    for p in (1, 2):
        w = tab["asymmetric", p]
        bad = next(((n, reps) for n in range(blocks + 1) for reps in range(1, reps_max + 1)
                    if b[n] ** reps > w[n * p + n * reps + reps]), None)
        out.append(_holds("block-prepending inequality", bad is None, str(bad or ""),
                          p=p, n_max=blocks, reps_max=reps_max))

    c, v, w = (tab[kind, 1] for kind in ("free", "symmetric", "asymmetric"))
    out.append(_holds("sandwich w <= v <= c",
                      all(w[n] <= v[n] <= c[n] for n in range(SANDWICH_N + 1)),
                      n_max=SANDWICH_N))
    out.append(_holds("counts nondecreasing",
                      all(u[n + 1] >= u[n] for u in (c, v, w) for n in range(SANDWICH_N)),
                      n_max=SANDWICH_N))
    v2 = tab["symmetric", 2]
    out.append(_holds("wedge containment p=1 vs p=2",
                      all(v[n] <= v2[n] for n in span), n_max=GROWTH_N))

    g = cf.gf_dyck(50)
    t = TSeries.t_power(1, 50)
    out.append(_verdict("growth", "dyck quadratic identity", 50, g - 1 - t * g * g))
    for p in (1, 2, 3):
        _h, _g, res = cf.gf_bargraph(p, 40)
        out.append(_verdict("growth", "bargraph fixed-point residual", 40, res, p=p))
    return out


SUITES = {
    "kernel": suite_kernel,
    "funceq": suite_funceq,
    "closedform": suite_closedform,
    "interpretations": suite_interpretations,
    "growth": suite_growth,
}


def run_suite(name: str, **kwargs) -> list[Verdict]:
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)} or 'all'")
    return SUITES[name](**kwargs)


def summarize(verdicts: list[Verdict]) -> dict:
    counts = {"pass": 0, "fail": 0, "reported": 0}
    for v in verdicts:
        counts[v.status] += 1
    return {
        "schema": 1,
        "counts": counts,
        "clean": counts["fail"] == 0,
        "results": [v.to_dict() for v in verdicts],
    }
