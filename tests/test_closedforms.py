"""Closed-form series against enumeration, theta sums, and the identities
that the verification suites compare."""

from fractions import Fraction

import pytest

from wedgewalks import closedforms as cf
from wedgewalks import kernel, suites
from wedgewalks.errors import BudgetError
from wedgewalks.series import TSeries, tpoly


def _count_series(table, order):
    return TSeries.from_dict(dict(enumerate(table.counts[: order + 1])), order)


class TestBasicFamilies:
    def test_dyck_catalan(self):
        assert cf.gf_dyck(4).coeffs_upto(4) == [1, 1, 2, 5, 14]

    def test_dyck_quadratic_identity(self):
        g = cf.gf_dyck(50)
        t = TSeries.t_power(1, 50)
        assert (g - 1 - t * g * g).is_zero()

    def test_free_frozen(self):
        assert cf.gf_free(3).coeffs_upto(3) == [1, 3, 7, 17]

    def test_free_matches_counts_to_200(self, tables):
        table = tables("free", 200)
        assert cf.gf_free(200).same(_count_series(table, 200))

    def test_sym_frozen(self):
        assert cf.gf_sym_g1(5).coeffs_upto(5) == [1, 1, 3, 5, 13, 27]

    def test_sym_matches_counts(self, tables):
        table = tables("symmetric", 60)
        assert cf.gf_sym_g1(60).same(_count_series(table, 60))

    def test_asym_matches_counts(self, tables):
        table = tables("asymmetric", 60)
        assert cf.gf_asym_k1(60).same(_count_series(table, 60))

    def test_horizontal_relation_symmetric(self):
        f1, g1 = cf.gf_sym_f1(40), cf.gf_sym_g1(40)
        assert (f1 - 1 - TSeries.t_power(1, 40) * g1).is_zero()

    def test_horizontal_relation_asymmetric(self, weighted):
        w = weighted("asymmetric", 1, 30)
        assert cf.gf_asym_h1(30).same(w.series_at(1, 1))

    def test_dispatcher_and_budget(self):
        assert cf.gf_series("dyck", 5).same(cf.gf_dyck(5))
        with pytest.raises(BudgetError):
            cf.gf_series("free", 1300)
        with pytest.raises(ValueError):
            cf.gf_series("nope", 10)


class TestBargraph:
    def test_valuation_from_defining_equation(self):
        h, _g, _res = cf.gf_bargraph(1, 30)
        assert h.valuation == 2

    @pytest.mark.parametrize("p,order", [(1, 40), (2, 40), (3, 30)])
    def test_residual_vanishes(self, p, order):
        _h, _g, res = cf.gf_bargraph(p, order)
        assert res.is_zero()

    def test_slope_validation(self):
        with pytest.raises(ValueError):
            cf.gf_bargraph(0, 10)


class TestThetaSums:
    def test_alternating_leading_terms(self):
        s = cf.theta_sum("sym", 1, 7)
        assert s.same(tpoly({0: 1, 4: -1, 6: -3}, 7))

    def test_ratio_sum_truncates_to_first_term(self):
        # below the valuation of the n = 1 term only the n = 0 bracket remains
        q = kernel.q_asym(1, 12)
        s = cf.ratio_theta(q, 5)
        u = q.shift(-1)
        bracket = (1 - u) / (1 + u)
        assert s.same(bracket.truncate(5))

    def test_positive_valuation_required(self):
        with pytest.raises(ValueError):
            cf.alternating_theta(tpoly({0: 1}, 8), 8)
        with pytest.raises(ValueError):
            cf.ratio_theta(tpoly({0: 1, 1: 1}, 8), 8)

    def test_term_count_grows_with_order(self):
        # quadratic valuation growth: order 50 needs n <= 6 alternating terms
        q = kernel.q_sym(1, 60)
        s = cf.alternating_theta(q, 50)
        brute = TSeries.constant(1, 50)
        for n in range(1, 7):
            brute = brute + (-1) ** n * q.pow(n).shift(n * n)
        assert s.same(brute.truncate(50))


class TestHalfplane:
    def test_printed_form_is_laurent(self):
        s = cf.gf_halfplane_printed(6)
        assert s.valuation == -2

    def test_comparator_reports_expected_mismatch(self, tables):
        verdicts = suites.run_suite("interpretations", order=16)
        by_name = {v.identity: v for v in verdicts}
        half = by_name["half-plane printed closed form vs enumeration"]
        assert half.status == "reported"
        assert half.first_bad_coefficient == -2


class TestSolutionIdentities:
    @pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2)])
    def test_boundary_specializations(self, a):
        by_name = {name.split(" vs ")[0]: (lhs - rhs, note)
                   for name, lhs, rhs, note in suites.solution_identities(a, 25)}
        for name in ("F(a,ta) alternating sum", "H(a,ta) simplified sum",
                     "H(a,ta) raw coefficient ladder"):
            residual, note = by_name[name]
            assert residual.is_zero() and not note, name
        residual, note = by_name["H(a,ta) printed term-by-term expression"]
        assert residual.valuation == -1 and note  # a ledgered mismatch

    def test_raw_expression_low_order_structure(self):
        # the printed expression's leading term reduces to
        # -(1+t^2)/(a t) + 2 beta_1(a)/a^2
        a = Fraction(1)
        raw = cf.gf_H_aya_raw(a, 10)
        beta = kernel.root("asymmetric", "beta-", a, 14)
        t = TSeries.t_power(1, 12)
        predicted = -(1 + t * t) / t + 2 * beta
        assert raw.coeff(-1) == predicted.coeff(-1)
        assert raw.coeff(0) == predicted.coeff(0)
        assert raw.coeff(1) == predicted.coeff(1)


class TestInterpretations:
    def test_flat_boundary_diffs(self):
        _name, lhs, rhs, _note = suites.interpretation_identities(12)[0]
        assert (lhs - rhs).valuation == 6
        assert (lhs.coeff(6), rhs.coeff(6)) == (2, 1)

    def test_diag_boundary_diffs(self):
        _name, lhs, rhs, _note = suites.interpretation_identities(12)[1]
        assert (lhs - rhs).valuation == 3  # valuations differ: 3 vs 5

    def test_composed_normalization_closer_but_still_off(self, tables):
        # the undivided composition Q(alpha_1(1)) matches the valuation of
        # t^3 (B_diag - 1) but differs at t^7 (3 vs 2)
        diag = tables("boundary_diag", 12)
        bs = TSeries.from_dict({n: c for n, c in enumerate(diag.counts)}, 12)
        composed = kernel.p_asym(1, 10).shift(2)
        rhs = (TSeries.t_power(3, 12) * (bs - 1)).truncate(10)
        assert composed.coeff(5) == rhs.coeff(5) == 1
        assert composed.coeff(7) == 3 and rhs.coeff(7) == 2

    def test_reports_never_assert(self):
        identities = suites.interpretation_identities(14)
        assert all(note for _name, lhs, rhs, note in identities
                   if not (lhs - rhs).is_zero())
        verdicts = suites.run_suite("interpretations", order=14)
        assert all(v.status != "fail" for v in verdicts)
