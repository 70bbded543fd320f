"""Asymptotic constants, fits, and the polynomial zero audit."""

from fractions import Fraction

import mpmath
import pytest

from wedgewalks import asymptotics as asy
from wedgewalks import cli
from wedgewalks.errors import BudgetError


class TestA0:
    def test_matches_reference_to_15_digits(self):
        rep = asy.constant_A0(30)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(rep.value)
                       - mpmath.mpf(asy.REFERENCES["A0"])) < 1e-16

    def test_stable_under_precision_doubling(self):
        lo = asy.constant_A0(30)
        hi = asy.constant_A0(60)
        with mpmath.workdps(80):
            assert abs(mpmath.mpf(lo.value) - mpmath.mpf(hi.value)) < 1e-28

    def test_diagnostics(self):
        rep = asy.constant_A0(30)
        assert rep.diagnostics["below_upper_bound_(1+sqrt2)/2"] is True
        with mpmath.workdps(40):
            assert mpmath.mpf(rep.diagnostics["Q_at_pole_matches_3_minus_2sqrt2"]) < 1e-30
            # approaching the pole from inside agrees to ~7 digits
            assert mpmath.mpf(rep.diagnostics["limit_approach_gap"]) < 1e-6

    def test_budget(self):
        with pytest.raises(BudgetError):
            asy.constant_A0(500)


class TestTheta:
    def test_value(self):
        rep = asy.constant_theta(30)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(rep.value)
                       - mpmath.mpf(asy.REFERENCES["theta"])) < 1e-13

    def test_first_term_and_tail(self):
        rep = asy.constant_theta(30)
        with mpmath.workdps(40):
            first = mpmath.mpf(rep.diagnostics["first_term"])
            assert abs(first - (mpmath.sqrt(2) - 1) / mpmath.sqrt(2)) < 1e-7
            assert mpmath.mpf(rep.diagnostics["tail_beyond_k2"]) < 1e-8

    def test_stable_under_precision_doubling(self):
        lo, hi = asy.constant_theta(30), asy.constant_theta(60)
        with mpmath.workdps(80):
            assert abs(mpmath.mpf(lo.value) - mpmath.mpf(hi.value)) < 1e-28


class TestA1A2:
    def test_three_significant_digits(self, tables):
        vt = tables("symmetric", 201)
        reps = {r.constant_name: r for r in asy.constants_A1A2(vt)}
        with mpmath.workdps(70):
            a1_err = abs(mpmath.mpf(reps["A1"].value)
                         - mpmath.mpf(asy.REFERENCES["A1"]))
            a2_err = abs(mpmath.mpf(reps["A2"].value)
                         - mpmath.mpf(asy.REFERENCES["A2"]))
        assert a1_err < 2e-3   # 3 significant digits of 3.714 need < 5e-3
        assert a2_err < 1e-4

    def test_needs_enough_counts(self):
        from wedgewalks.walks import WedgeModel, count_walks
        with pytest.raises(ValueError):
            asy.constants_A1A2(count_walks(WedgeModel("symmetric", 1), 30))


class TestEq37:
    def test_reproduces_stated_figures(self, tables):
        acc = asy.eq37_accuracy(tables("symmetric", 40))
        assert acc["ok"]
        raw = [row["relative_error"] for row in acc["rows"]]
        # raw errors sit just above the one-digit figures
        assert [row["within_literal"] for row in acc["rows"]] == [False] * 4
        assert [row["stated_figure"] for row in acc["rows"]] == [
            "0.07", "0.01", "0.002", "0.0006"]
        with mpmath.workdps(20):
            assert abs(mpmath.mpf(raw[0]) - mpmath.mpf("0.0774")) < 1e-3


class TestFits:
    def test_B0_quick_window(self, tables):
        wt = tables("asymmetric", 120)
        rep = asy.constant_B0(wt)
        with mpmath.workdps(30):
            ratio = mpmath.mpf(rep.diagnostics["ratio_at_120"])
            ref = mpmath.mpf(asy.REFERENCES["B0"])
            assert abs(ratio - ref) / ref < 0.05
        assert rep.diagnostics["gap_shrinking"]

    def test_halfplane_quick_window(self, tables):
        ht = tables("halfplane", 120)
        rep = asy.constant_halfplane(ht)
        with mpmath.workdps(30):
            assert mpmath.mpf(rep.diagnostics["relative_gap_at_last"]) < 0.05
        closed = mpmath.mpf(rep.value)
        assert abs(closed - mpmath.mpf("1.4964892237632885")) < 1e-12

    @pytest.mark.parametrize("top,nodes", [(10, [10]), (39, [19, 39]),
                                           (121, [30, 60, 121])])
    def test_fit_nodes_come_from_the_table(self, tables, top, nodes):
        # N//4, N//2 and N for N = len(table) - 1, each >= 10; B0 extrapolates
        # from the last two, so it refuses a table with one
        reps = [asy.constant_halfplane(tables("halfplane", top))]
        if len(nodes) < 2:
            with pytest.raises(ValueError, match="two fit nodes"):
                asy.constant_B0(tables("asymmetric", top))
        else:
            reps.append(asy.constant_B0(tables("asymmetric", top)))
        for rep in reps:
            assert rep.n_range == (nodes[0], nodes[-1])
            assert [k for k in rep.diagnostics if k.startswith("ratio_at_")] == \
                [f"ratio_at_{n}" for n in nodes]

    def test_fit_needs_a_node(self, tables):
        for fit, kind in ((asy.constant_B0, "asymmetric"),
                          (asy.constant_halfplane, "halfplane")):
            with pytest.raises(ValueError, match="length >= 10"):
                fit(tables(kind, 9))

    def test_halfplane_small_length_ratio(self, tables):
        # 20 * sqrt(4) / mu^4 = 1.177...: below the limit and rising
        ht = tables("halfplane", 10)
        with mpmath.workdps(30):
            mu = 1 + mpmath.sqrt(2)
            r4 = ht[4] * 2 / mu**4
            assert abs(r4 - mpmath.mpf("1.17745")) < 1e-4
            assert r4 < asy.halfplane_reference(25)

    def test_remark_bounds_order(self):
        with mpmath.workdps(30):
            assert (mpmath.mpf(asy.REFERENCES["B0"])
                    < asy.halfplane_reference(25))

    def test_symmetric_root_at_400(self, tables):
        # slow convergence: the 400th root is within 1% of 1 + sqrt(2)
        vt = tables("symmetric", 400)
        with mpmath.workdps(30):
            mu = 1 + mpmath.sqrt(2)
            root = mpmath.root(mpmath.mpf(vt[400]), 400)
            assert abs(root - mu) / mu < 0.01

    def test_printed_constant_pair_inconsistency(self):
        # the two printed sqrt(n)-level constants miss the exact mu factor
        # by 3.0e-6; exact counts support the all-walks one (see ledger)
        with mpmath.workdps(40):
            h = mpmath.mpf(asy.REFERENCES["B0_horizontal"])
            k = mpmath.mpf(asy.REFERENCES["B0"])
            gap = abs(h * (1 + mpmath.sqrt(2)) - k)
            assert mpmath.mpf("2.9e-6") < gap < mpmath.mpf("3.1e-6")


@pytest.fixture(scope="module")
def reports():
    return {r.constant_name: r for r in asy.p_pieces_asymptotics(200)}


class TestPPieces:
    def test_radical_piece_ratio(self, reports):
        rep = reports["p1_ratio"]
        with mpmath.workdps(30):
            r200 = mpmath.mpf(rep.diagnostics["ratio_at_200"])
            r100 = mpmath.mpf(rep.diagnostics["ratio_at_100"])
        assert abs(r200 - 1) < 0.1
        assert abs(r200 - 1) < abs(r100 - 1)

    def test_cancellation_of_leading_constants(self, reports):
        rep = reports["p2_p3_cancellation"]
        with mpmath.workdps(30):
            assert mpmath.mpf(rep.diagnostics["p3_vs_theta"]) < 1e-4
            assert mpmath.mpf(rep.diagnostics["p2_vs_minus_theta"]) < 2e-3
            assert abs(mpmath.mpf(rep.diagnostics["sum_constant"])) < 2e-3

    def test_first_summand_formula(self, reports):
        rep = reports["p2_summand_k0"]
        with mpmath.workdps(30):
            assert mpmath.mpf(rep.diagnostics["relative_gap"]) < 0.02

    def test_higher_summands_reported_not_asserted(self, reports):
        # non-uniform error bounds: the k >= 1 gaps stay large at n = 200
        assert "relative_gap" in reports["p2_summand_k1"].diagnostics
        assert "relative_gap" in reports["p2_summand_k2"].diagnostics


@pytest.fixture(scope="module")
def audit():
    return asy.root_audit(10, 30)


class TestRootAudit:
    def test_clean(self, audit):
        assert audit.ok
        assert len(audit.results) == 24  # two families, k = -1..10

    def test_ok_is_not_a_field(self, audit):
        # a failing audit raises AuditError, so there is no false verdict to carry
        with pytest.raises(TypeError):
            asy.RootAudit((-1, 0), 30, [], False)
        assert audit.to_dict()["ok"] is True

    def test_flagged_other_branch_point(self, audit):
        flagged = [r for r in audit.results if r["flagged"]]
        assert len(flagged) == 1
        entry = flagged[0]
        assert entry["family"] == "P" and entry["k"] == 0
        info = entry["flagged"][0]
        with mpmath.workdps(30):
            assert abs(mpmath.mpf(info["modulus"])
                       - (mpmath.sqrt(2) - 1)) < 1e-12
            # the principal branch does not reach -1 there
            assert mpmath.mpf(info["principal_branch_value_plus_1"]) > 0.5

    def test_direct_solve_case(self, audit):
        qm1 = next(r for r in audit.results
                   if r["family"] == "Q" and r["k"] == -1)
        with mpmath.workdps(30):
            assert abs(mpmath.mpf(qm1["min_modulus"]) - 1) < 1e-12
        # the cleared k = -1 polynomial is 1 - t^2: both roots reported
        assert len(qm1["roots"]) == 2

    def test_min_moduli_exceed_half(self, audit):
        for r in audit.results:
            if not r["flagged"]:
                assert float(mpmath.mpf(r["min_modulus"])) >= 0.5

    def test_budget(self):
        with pytest.raises(BudgetError):
            asy.root_audit(40)

    def test_unpolished_seeds_fail_the_residual_bound(self, monkeypatch, capsys):
        # the float Aberth seeds hold about 16 digits, far short of 30; only
        # the roots +-1 of the k = -1 polynomial 1 - t^2 come out exact
        monkeypatch.setattr(asy, "_newton", lambda lifted, bits, stop, x, y: (x, y))
        with pytest.raises(asy.AuditError, match="Q-family k=0: root polish left residual"):
            asy.root_audit(3, 30)
        argv = ["asympt", "--const", "roots", "--kmax", "3", "--digits", "30"]
        assert cli.main(argv) == cli.EXIT_VERIFY_FAIL
        assert "root polish left residual" in capsys.readouterr().err

    def test_digits_past_the_budget(self, capsys):
        # within the 200-digit budget the fixed-point scale 2^B stays a float
        assert mpmath.libmp.dps_to_prec(asy._polish_places(200)) < 1024
        with pytest.raises(BudgetError):
            asy.root_audit(3, 201)
        argv = ["asympt", "--const", "roots", "--kmax", "3", "--digits", "201"]
        assert cli.main(argv) == cli.EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and err.count("\n") == 1

    @pytest.mark.parametrize("digits", [1, 5, 8, 10, 16])
    def test_few_digits_still_print_known_digits(self, digits):
        # roots print at 17 digits, so they are polished to at least 27
        # places whatever --digits asks, and print as at 40 digits
        assert asy.root_audit(10, digits).results == asy.root_audit(10, 40).results


def _abs2_exact(coeffs, x):
    """|f(x)|^2 in exact rationals, for x a complex of dyadic floats."""
    z = (Fraction(x.real), Fraction(x.imag))
    fr = fi = Fraction(0)
    for e, c in coeffs.items():
        pr, pi = Fraction(1), Fraction(0)
        for _ in range(e):
            pr, pi = pr * z[0] - pi * z[1], pr * z[1] + pi * z[0]
        fr, fi = fr + c * pr, fi + c * pi
    return fr * fr + fi * fi


class TestExactResidual:
    """|f(x)|^2 at a dyadic point x, returned exactly as num / 2^shift."""

    @pytest.mark.parametrize("coeffs,x,expected", [
        ({0: 1, 1: 1}, -0.5, (1, 2)),        # 1 + t at -1/2: 1/4 (9/4 if the sign is lost)
        ({0: 1, 2: 1}, 0.5j, (9, 4)),        # 1 + t^2 at i/2: 9/16
        ({0: -4, 1: 1}, 4, (0, 0)),          # t - 4 at 4, whose mpf exponent is 2
        ({0: 2, 1: -1, 2: 3}, 0, (4, 0)),    # the constant term alone
    ], ids=["negative_mantissa", "imaginary", "positive_exponent", "zero"])
    def test_hand_checked(self, coeffs, x, expected):
        assert asy._abs2_at(coeffs, mpmath.mpc(x)) == expected

    @pytest.mark.parametrize("x", [-0.75 - 0.25j, 0.375 - 1.5j, -3 + 0.125j])
    def test_matches_exact_rationals(self, x):
        coeffs = {0: 1, 1: 1, 3: -3, 5: 1}
        num, shift = asy._abs2_at(coeffs, mpmath.mpc(x))
        assert Fraction(num, 2 ** shift) == _abs2_exact(coeffs, x)


class TestZeroCount:
    """Schur-Cohn count of the zeros in |t| < 1/2 (exponent -> coefficient)."""

    @pytest.mark.parametrize("coeffs,count", [
        ({0: 2, 1: -7, 2: 3}, 1),          # (3t - 1)(t - 2): 1/3 inside
        ({0: 1, 1: 1, 2: -3, 3: 1}, 1),    # (t - 1)(t^2 - 2t - 1): 1 - sqrt 2
        ({0: 1, 2: -1}, 0),                # 1 - t^2
    ], ids=["3t-1_times_t-2", "P_family_k0", "1-t^2"])
    def test_hand_checked(self, coeffs, count):
        assert asy._zeros_in_half_disk(coeffs) == count

    @pytest.mark.parametrize("coeffs", [{0: -1, 1: 2}, {0: 1, 2: 4}],
                             ids=["2t-1", "4t^2+1"])
    def test_zeros_on_the_circle_are_not_decided(self, coeffs):
        with pytest.raises(asy.AuditError, match="degenerate Schur-Cohn step"):
            asy._zeros_in_half_disk(coeffs)

    def test_audit_families(self):
        # only the documented P-family point at k = 0 lies inside
        counts = {(f, k): asy._zeros_in_half_disk(asy._family_poly(f, k))
                  for f in "QP" for k in range(-1, 31)}
        assert {key for key, c in counts.items() if c} == {("P", 0)}
        assert counts[("P", 0)] == 1

    def test_count_disagreeing_with_the_roots_fails(self, monkeypatch):
        monkeypatch.setattr(asy, "_zeros_in_half_disk", lambda coeffs: 0)
        with pytest.raises(asy.AuditError, match="P-family k=0: 1 polished roots"):
            asy.root_audit(0, 17)
