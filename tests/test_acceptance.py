"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, straight from the criteria.  Criterion 7's
internal-consistency clause is implemented exactly as stated and fails: the
two printed sqrt(n)-level constants are mutually inconsistent by 3.0e-6
(exact counts support the all-walks constant; see the 'sqrt-n-constant-pair'
ledger entry).  That red result is expected and documented, not a regression.
"""

import time
from fractions import Fraction

import mpmath

from wedgewalks import asymptotics as asy
from wedgewalks import closedforms as cf
from wedgewalks import kernel, suites
from wedgewalks.series import TSeries
from wedgewalks.walks import WedgeModel, count_walks, weighted_gf


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {criterion}" + (f" — {detail}" if detail else ""))


def test_criterion_01_symmetric_closed_form(tables):
    start = time.perf_counter()
    table = count_walks(WedgeModel("symmetric", 1), 100)
    series = cf.gf_sym_g1(100)
    mismatches = [n for n in range(101)
                  if series.coeff(n) != table[n]]
    elapsed = time.perf_counter() - start
    ok = (not mismatches and table.counts[:6] == [1, 1, 3, 5, 13, 27]
          and elapsed < 10.0)
    _report("criterion 1 (symmetric closed form = counts, n <= 100)", ok,
            f"{elapsed:.2f}s, first terms {table.counts[:6]}")
    assert not mismatches
    assert table.counts[:6] == [1, 1, 3, 5, 13, 27]
    assert elapsed < 10.0


def test_criterion_02_asymmetric_closed_form(tables):
    table = count_walks(WedgeModel("asymmetric", 1), 100)
    series = cf.gf_asym_k1(100)
    mismatches = [n for n in range(101) if series.coeff(n) != table[n]]
    ok = not mismatches and table.counts[:5] == [1, 1, 2, 3, 7]
    _report("criterion 2 (asymmetric closed form = counts, n <= 100)", ok,
            f"first terms {table.counts[:5]}")
    assert not mismatches
    assert table.counts[:5] == [1, 1, 2, 3, 7]


def test_criterion_03_functional_equation_residuals():
    points = ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
              (Fraction(2, 3), Fraction(3, 5)))
    bad = []
    for kind in ("symmetric", "asymmetric"):
        for p in (1, 2, 3):
            w = weighted_gf(kind, p, 30)
            for a, b in points:
                res = kernel.residual_functional_eq(kind, p, a, b, 30, w.series_at(a, b),
                                                    w.series_lower(a), w.series_upper(b))
                if not res.is_zero():
                    bad.append((kind, p, a, b, res.valuation))
    _report("criterion 3 (residuals vanish mod t^31, p in {1,2,3})", not bad,
            "18 residuals checked")
    assert not bad, bad


def test_criterion_04_kernel_and_composition_identities():
    failures = []
    for kind in ("symmetric", "asymmetric"):
        for a in kernel.SAMPLE_ARGS[:4]:
            r = kernel.root(kind, "beta-", a, 40)
            k = kernel.kernel_coeffs(kind, 1, TSeries.constant(a, r.order),
                                     r, r.order).kernel
            if not k.is_zero():
                failures.append(("root", kind, a))
    for n in range(7):
        a = Fraction(1, 2)
        closed = kernel.beta_closed(n, a, kernel.beta_closed_input(a, 20), 20)
        if not closed.same(kernel.beta_composed(n, kernel.beta_chain(a, n, 20), 20)):
            failures.append(("beta", n))
    for n in range(5):
        closed = kernel.gamma_closed(n, kernel.gamma_closed_input(1, 20), 20)
        if not closed.same(kernel.gamma_composed(n, kernel.gamma_chain(1, n, 20), 20)):
            failures.append(("gamma", n))
    for name, residuals in kernel.group_law_check(1, Fraction(1), 30):
        if not all(r.is_zero() for r in residuals):
            failures.append(("group-law", name))
    for a in kernel.SAMPLE_ARGS[:5]:
        prod = kernel.qbar_asym(a, 39) * kernel.q_asym(a, 39)
        if not prod.same(TSeries.t_power(3, prod.order)):
            failures.append(("QbarQ", a))
    _report("criterion 4 (kernel roots, compositions, group law, Qbar*Q)",
            not failures, "orders 40/20/39")
    assert not failures, failures


def test_criterion_05_accuracy_table(tables):
    start = time.perf_counter()
    acc = asy.eq37_accuracy(tables("symmetric", 40))
    elapsed = time.perf_counter() - start
    figures = [row["stated_figure"] for row in acc["rows"]]
    ok = acc["ok"] and elapsed < 1.0
    _report("criterion 5 (accuracy table reproduces printed figures)", ok,
            f"{elapsed:.3f}s, figures {figures}, raw errors "
            f"{[row['relative_error'] for row in acc['rows']]}")
    assert acc["ok"]
    assert elapsed < 1.0


def test_criterion_06_A0_analytic_A1A2_fit(tables):
    a0 = asy.constant_A0(30)
    with mpmath.workdps(40):
        a0_err = abs(mpmath.mpf(a0.value) - mpmath.mpf(asy.REFERENCES["A0"]))
    reps = {r.constant_name: r for r in asy.constants_A1A2(tables("symmetric", 201))}
    with mpmath.workdps(70):
        a1_err = abs(mpmath.mpf(reps["A1"].value) - mpmath.mpf(asy.REFERENCES["A1"]))
        a2_err = abs(mpmath.mpf(reps["A2"].value) - mpmath.mpf(asy.REFERENCES["A2"]))
    # >= 15 significant digits for A0; >= 3 for the fitted pair
    ok = a0_err < 1e-16 and a1_err < 5e-3 and a2_err < 5e-4
    _report("criterion 6 (A0 to >= 15 digits; A1, A2 to >= 3 digits)", ok,
            f"errors: A0 {a0.abs_error}, A1 {reps['A1'].abs_error}, "
            f"A2 {reps['A2'].abs_error}")
    assert a0_err < 1e-16
    assert a1_err < 5e-3
    assert a2_err < 5e-4


def test_criterion_07_theta_constant():
    rep = asy.constant_theta(30)
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(rep.value) - mpmath.mpf(asy.REFERENCES["theta"]))
    ok = err < 1e-12
    _report("criterion 7a (theta constant to >= 12 digits)", ok,
            f"error {rep.abs_error}")
    assert ok


def test_criterion_07_internal_consistency_of_printed_constants():
    """Fails as stated: the printed constants are mutually inconsistent.

    0.090584741026764287 * (1 + sqrt(2)) = 0.2186909103..., not the printed
    0.218693916694303177; the gap is 3.0e-6.  Neville extrapolation of exact
    counts over n <= 600 gives 0.2186939171 +/- 5e-10, so the all-walks
    constant is correct and the horizontal-ending one is mistyped.  See the
    'sqrt-n-constant-pair' ledger entry.
    """
    with mpmath.workdps(40):
        h = mpmath.mpf(asy.REFERENCES["B0_horizontal"])
        k = mpmath.mpf(asy.REFERENCES["B0"])
        gap = abs(h * (1 + mpmath.sqrt(2)) - k)
        _report("criterion 7b (printed-constant product to all printed digits)",
                gap < mpmath.mpf("2e-18"),
                f"product gap {mpmath.nstr(gap, 3)}; counts support "
                f"0.218693916694303177 (see ledger 'sqrt-n-constant-pair')")
        assert gap < mpmath.mpf("2e-18"), (
            "printed constants are mutually inconsistent by "
            f"{mpmath.nstr(gap, 3)}; exact counts support the all-walks "
            "constant -- documented discrepancy, expected red")


def test_criterion_08_B0_empirical(tables):
    start = time.perf_counter()
    wt = tables("asymmetric", 400)
    rep = asy.constant_B0(wt)
    elapsed = time.perf_counter() - start
    with mpmath.workdps(40):
        ref = mpmath.mpf(asy.REFERENCES["B0"])
        ratio = mpmath.mpf(rep.diagnostics["ratio_at_400"])
        rel = abs(ratio - ref) / ref
    ok = rel < 0.02 and rep.diagnostics["gap_shrinking"] and elapsed < 300
    _report("criterion 8 (B0 within 2% at n = 400, shrinking gap)", ok,
            f"{elapsed:.1f}s, ratio {rep.diagnostics['ratio_at_400']}, "
            f"relative gap {mpmath.nstr(rel, 3)}")
    assert rel < 0.02
    assert rep.diagnostics["gap_shrinking"]
    assert elapsed < 300


def test_criterion_09_halfplane(tables):
    ht = tables("halfplane", 400)
    rep = asy.constant_halfplane(ht)
    with mpmath.workdps(40):
        rel = mpmath.mpf(rep.diagnostics["relative_gap_at_last"])
    verdicts = suites.run_suite("interpretations")
    summary = suites.summarize(verdicts)
    ledgered = [v for v in verdicts
                if "half-plane" in v.identity and v.status == "reported"]
    ok = rel < 0.02 and summary["clean"] and ledgered
    _report("criterion 9 (half-plane ratio within 2%; comparator ledgers)", ok,
            f"relative gap {mpmath.nstr(rel, 3)}, "
            f"{summary['counts']['reported']} reported entries, 0 failures")
    assert rel < 0.02
    assert summary["clean"]
    assert ledgered


def test_criterion_10_growth_property_suite(tables):
    failures = []
    # v_n v_m <= v_(n+m+1) for n, m <= 30
    for kind in ("symmetric", "asymmetric"):
        for p in (1, 2, 3):
            u = tables(kind, 61, p)
            if any(u[n] * u[m] > u[n + m + 1] for n in range(31) for m in range(31)):
                failures.append(("supermultiplicative", kind, p))
    c, v, w = tables("free", 100), tables("symmetric", 100), tables("asymmetric", 100)
    if not all(w[n] <= v[n] <= c[n] for n in range(101)):
        failures.append(("sandwich",))
    # b_n^N <= w_(np+nN+N) for n <= 6, N <= 3
    b = tables("quarter_endline", 6)
    for p in (1, 2):
        u = tables("asymmetric", 6 * p + 6 * 3 + 3, p)
        if any(b[n] ** reps > u[n * p + n * reps + reps]
               for n in range(7) for reps in range(1, 4)):
            failures.append(("prepend", p))
    g = cf.gf_dyck(50)
    if not (g - 1 - TSeries.t_power(1, 50) * g * g).is_zero():
        failures.append(("dyck",))
    for p in (1, 2, 3):
        if not cf.gf_bargraph(p, 40)[2].is_zero():
            failures.append(("bargraph", p))
    _report("criterion 10 (growth and property suite)", not failures,
            "supermultiplicativity, sandwich, prepending, dyck, bargraph")
    assert not failures, failures


def test_criterion_11_root_audit():
    audit = asy.root_audit(20, 30)
    flagged = [r for r in audit.results if r["flagged"]]
    ok = (audit.ok and len(flagged) == 1
          and flagged[0]["family"] == "P" and flagged[0]["k"] == 0)
    _report("criterion 11 (no zeros in |t| < 1/2 except the flagged point)",
            ok, f"k <= 20 both families; flagged: P-family k=0 at modulus "
                f"{flagged[0]['flagged'][0]['modulus'][:10]}")
    assert audit.ok
    assert len(flagged) == 1
    assert flagged[0]["family"] == "P" and flagged[0]["k"] == 0
