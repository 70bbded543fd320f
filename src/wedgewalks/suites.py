"""Named verification suites with machine-readable verdicts.

Each suite returns a list of Verdicts; a run is clean when no verdict has
status "fail".  Comparisons covered by the discrepancy ledger report instead
of failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import closedforms as cf
from . import kernel
from .series import TSeries
from .walks import (WedgeModel, count_walks, growth_inequalities,
                    prepend_inequality, weighted_gf)


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


def _zero_check(suite: str, identity: str, series: TSeries, order: int,
                **params) -> Verdict:
    bad = None if series.is_zero() else series.valuation
    return Verdict(suite, identity, params, order,
                   "pass" if bad is None else "fail", bad)


def _same_check(suite: str, identity: str, lhs: TSeries, rhs: TSeries,
                order: int, **params) -> Verdict:
    bad = lhs.first_difference(rhs)
    return Verdict(suite, identity, params, order,
                   "pass" if bad is None else "fail", bad)


def suite_kernel(order: int = 40) -> list[Verdict]:
    out = []
    args = kernel.SAMPLE_ARGS

    for kind in ("symmetric", "asymmetric"):
        for a in args[:4]:
            for which in ("beta-", "beta+"):
                r = kernel.root(kind, which, a, order)
                k = kernel.kernel_coeffs(kind, 1, TSeries.constant(a, r.order),
                                         r, r.order).kernel
                out.append(_zero_check("kernel", f"K(a, {which}(a)) = 0", k,
                                       order, model=kind, a=a))
        if kind == "asymmetric":
            for b in args[1:4]:
                r = kernel.root(kind, "alpha-", b, order)
                k = kernel.kernel_coeffs(kind, 1, r,
                                         TSeries.constant(b, r.order),
                                         r.order).kernel
                out.append(_zero_check("kernel", "K(alpha-(b), b) = 0", k,
                                       order, model=kind, b=b))

    # reduced p=1 quadruple equals the general-p system
    for a, b in ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
                 (Fraction(2), Fraction(3, 5))):
        lhs = kernel.kernel_p1_printed(a, b, order)
        rhs = kernel.kernel_coeffs("symmetric", 1, a, b, order).kernel
        out.append(_same_check("kernel", "printed p=1 kernel = general-p kernel",
                               lhs, rhs, order, a=a, b=b))

    # symmetric-model symmetries: K(a,b) = K(b,a), X(a,b) = X(b,a), Y(a,b) = Z(b,a)
    for p in (1, 2, 3):
        for a, b in ((Fraction(1), Fraction(1, 2)), (Fraction(2, 3), Fraction(3, 5))):
            ab = kernel.kernel_coeffs("symmetric", p, a, b, order)
            ba = kernel.kernel_coeffs("symmetric", p, b, a, order)
            out.append(_same_check("kernel", "K(a,b) = K(b,a)", ab.kernel,
                                   ba.kernel, order, p=p, a=a, b=b))
            out.append(_same_check("kernel", "X(a,b) = X(b,a)", ab.free_term,
                                   ba.free_term, order, p=p, a=a, b=b))
            out.append(_same_check("kernel", "Y(a,b) = Z(b,a)", ab.lower,
                                   ba.upper, order, p=p, a=a, b=b))

    # X has the vanishing factor b - t*a
    w = order
    ta = TSeries.t_power(1, w, Fraction(1, 2))
    x_at = kernel.kernel_coeffs("symmetric", 2, Fraction(1, 2), ta, w).free_term
    out.append(_zero_check("kernel", "X(a, t*a) = 0", x_at, order, p=2))

    # iterated compositions: closed = composed
    for n in range(-2, 7):
        it = kernel.beta_iterate(n, Fraction(1, 2), min(order, 30))
        out.append(_same_check("kernel", f"beta_{n} closed = composed",
                               it.closed_form, it.composed_form, min(order, 30),
                               a=Fraction(1, 2)))
    for n in range(0, 5):
        it = kernel.gamma_iterate(n, Fraction(1), min(order, 30))
        out.append(_same_check("kernel", f"gamma_{n} closed = composed",
                               it.closed_form, it.composed_form, min(order, 30),
                               a=1))

    # group structure
    for n, a in ((1, Fraction(1)), (3, Fraction(1, 2)), (5, Fraction(2, 3))):
        res = kernel.group_law_check(n, a, min(order, 25))
        for name, bad in res["checks"]:
            out.append(Verdict("kernel", name, {"n": n, "a": a}, min(order, 25),
                               "pass" if bad is None else "fail", bad))
    mixed = kernel.mixed_inverse_check(Fraction(1, 2), Fraction(1, 3), min(order, 25))
    out.append(Verdict("kernel", "alpha_1(beta_-1(a)) = a and beta_1(alpha_-1(b)) = b",
                       {"a": Fraction(1, 2), "b": Fraction(1, 3)}, min(order, 25),
                       "pass" if mixed["ok"] else "fail"))

    # Qbar * Q = t^3
    t3 = TSeries.t_power(3, order)
    for a in args[:5]:
        prod = kernel.qbar_asym(a, order) * kernel.q_asym(a, order)
        out.append(_same_check("kernel", "Qbar(a) Q(a) = t^3",
                               prod.truncate(min(order, prod.order)),
                               t3.truncate(min(order, prod.order)),
                               order, a=a))

    # printed specializations of Q and P
    out.append(_same_check("kernel", "Q_sym(1) printed form",
                           kernel.q_sym(1, order), cf.printed_q_sym(order), order))
    out.append(_same_check("kernel", "Q_asym(1) printed form",
                           kernel.q_asym(1, order), cf.printed_q_asym(order), order))
    out.append(_same_check("kernel", "P(1) printed form",
                           kernel.p_asym(1, order), cf.printed_p_asym(order), order))

    # script coefficient ladder (raises on mismatch; record as verdicts)
    for n in (0, 1, 2):
        try:
            res = kernel.script_coeffs(n, Fraction(1, 2), min(order, 25))
            out.append(Verdict("kernel", f"script coefficients at depth {n}",
                               {"a": Fraction(1, 2), "checked": len(res["checked"])},
                               min(order, 25), "pass"))
        except Exception as exc:  # ConsistencyError carries the identity name
            out.append(Verdict("kernel", f"script coefficients at depth {n}",
                               {"a": Fraction(1, 2)}, min(order, 25), "fail",
                               note=str(exc)))
    return out


def suite_funceq(order: int = 30) -> list[Verdict]:
    out = []
    points = ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
              (Fraction(2, 3), Fraction(3, 5)))
    for kind in ("symmetric", "asymmetric"):
        for p in (1, 2, 3):
            w = weighted_gf(kind, p, order)
            for a, b in points:
                res = kernel.residual_functional_eq(kind, p, a, b, order, w)
                out.append(_zero_check("funceq", "column-construction residual",
                                       res, order, model=kind, p=p, a=a, b=b))
                resk = kernel.residual_kernel_form(kind, p, a, b, order, w)
                out.append(_zero_check("funceq", "kernel-form residual",
                                       resk, order, model=kind, p=p, a=a, b=b))
    return out


def suite_closedform(order: int = 100) -> list[Verdict]:
    out = []
    vt = count_walks(WedgeModel("symmetric", 1), order)
    wt = count_walks(WedgeModel("asymmetric", 1), order)
    ct = count_walks(WedgeModel("free", 1), min(order, 200))

    rep = cf.compare_with_counts("sym closed form vs counts",
                                 cf.gf_sym_g1(order), vt.counts, order)
    out.append(Verdict("closedform", rep.name, {}, order,
                       "pass" if rep.agree else "fail", rep.first_mismatch))
    rep = cf.compare_with_counts("asym closed form vs counts",
                                 cf.gf_asym_k1(order), wt.counts, order)
    out.append(Verdict("closedform", rep.name, {}, order,
                       "pass" if rep.agree else "fail", rep.first_mismatch))
    rep = cf.compare_with_counts("free closed form vs counts",
                                 cf.gf_free(min(order, 200)), ct.counts,
                                 min(order, 200))
    out.append(Verdict("closedform", rep.name, {}, min(order, 200),
                       "pass" if rep.agree else "fail", rep.first_mismatch))

    # horizontal-ending relations
    w = min(order, 60)
    f1 = cf.gf_sym_f1(w)
    g1 = cf.gf_sym_g1(w)
    t = TSeries.t_power(1, w)
    out.append(_zero_check("closedform", "f = 1 + t*g (symmetric)",
                           f1 - 1 - t * g1, w))
    wsym = weighted_gf("symmetric", 1, min(order, 40))
    out.append(_same_check("closedform", "f1(1,1) = horizontal-ending counts",
                           f1.truncate(min(order, 40)),
                           wsym.series_at(1, 1), min(order, 40)))
    h1 = cf.gf_asym_h1(min(order, 40))
    wasym = weighted_gf("asymmetric", 1, min(order, 40))
    out.append(_same_check("closedform", "h1(1,1) = horizontal-ending counts",
                           h1, wasym.series_at(1, 1), min(order, 40)))

    # theta sums have the expected leading behavior
    s = cf.theta_sum("sym", 1, 7)
    out.append(_same_check("closedform", "alternating theta at the unit argument",
                           s, TSeries.from_dict({0: 1, 4: -1, 6: -3}, 7), 7))

    for rep in cf.solution_identities(Fraction(1), min(order, 30)):
        status = "pass" if rep.agree else ("reported" if rep.expected_mismatch
                                           else "fail")
        out.append(Verdict("closedform", rep.name, rep.params,
                           min(order, 30), status, rep.first_mismatch, rep.note))
    return out


def suite_interpretations(order: int = 20) -> list[Verdict]:
    out = []
    for rep in cf.interpretation_comparators(order):
        status = "pass" if rep.agree else ("reported" if rep.expected_mismatch
                                           else "fail")
        out.append(Verdict("interpretations", rep.name, rep.params, order,
                           status, rep.first_mismatch, rep.note))
    out.append(Verdict("interpretations", "B-series constant term convention",
                       {}, order, "reported", None,
                       "the single-vertex walk gives both boundary series the "
                       "constant term 1; the interpretation identities use "
                       "B - 1, so the constant never enters the comparison"))
    return out


def suite_growth(n_max: int = 30, sandwich_n: int = 100) -> list[Verdict]:
    out = []
    for kind in ("symmetric", "asymmetric"):
        for p in (1, 2, 3):
            rep = growth_inequalities(kind, p, n_max, n_max)
            out.append(Verdict("growth", "super-multiplicativity",
                               {"model": kind, "p": p, "n_max": n_max},
                               None, "pass" if rep["ok"] else "fail",
                               note=str(rep["first_violation"] or "")))
    for p in (1, 2):
        rep = prepend_inequality(p, 6, 3)
        out.append(Verdict("growth", "block-prepending inequality",
                           {"p": p, "n_max": 6, "reps_max": 3}, None,
                           "pass" if rep["ok"] else "fail",
                           note=str(rep["first_violation"] or "")))

    ct = count_walks(WedgeModel("free", 1), sandwich_n)
    vt = count_walks(WedgeModel("symmetric", 1), sandwich_n)
    wt = count_walks(WedgeModel("asymmetric", 1), sandwich_n)
    sandwich_ok = all(wt[n] <= vt[n] <= ct[n] for n in range(sandwich_n + 1))
    out.append(Verdict("growth", "sandwich w <= v <= c",
                       {"n_max": sandwich_n}, None,
                       "pass" if sandwich_ok else "fail"))
    mono = all(all(tab[n + 1] >= tab[n] for n in range(len(tab) - 1))
               for tab in (ct, vt, wt))
    out.append(Verdict("growth", "counts nondecreasing", {"n_max": sandwich_n},
                       None, "pass" if mono else "fail"))
    v2 = count_walks(WedgeModel("symmetric", 2), n_max)
    contain = all(vt[n] <= v2[n] for n in range(n_max + 1))
    out.append(Verdict("growth", "wedge containment p=1 vs p=2",
                       {"n_max": n_max}, None, "pass" if contain else "fail"))

    g = cf.gf_dyck(50)
    t = TSeries.t_power(1, 50)
    out.append(_zero_check("growth", "dyck quadratic identity",
                           g - 1 - t * g * g, 50))
    for p in (1, 2, 3):
        _h, _g, res = cf.gf_bargraph(p, 40)
        out.append(_zero_check("growth", "bargraph fixed-point residual",
                               res, 40, p=p))
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
