"""Closed-form series against enumeration, theta sums, and the identities
that the verification suites compare."""

import json
from fractions import Fraction

import pytest

from wedgewalks import cli
from wedgewalks import closedforms as cf
from wedgewalks import kernel, suites
from wedgewalks.errors import BudgetError
from wedgewalks.series import _ROW_MAX, TSeries, tpoly


def _count_series(table, order):
    return tpoly(dict(enumerate(table.counts[: order + 1])), order)


# -- reference implementations: every term from scratch at full order -------

def _reference_alternating_theta(q, order):
    vq = q.valuation
    acc = TSeries.constant(1, order)
    n = 1
    qp = TSeries.constant(1, q.order)
    while n * n + n * vq <= order:
        qp = qp * q
        term = qp.shift(n * n)
        acc = acc + (term if n % 2 == 0 else term.neg())
        n += 1
    return acc.truncate(min(order, acc.order))


def _reference_ratio_theta(q, order):
    vq = q.valuation
    acc = TSeries.zero(order)
    n = 0
    while 2 * n * n + 2 * n * (vq - 1) <= order:
        u = q.shift(2 * n - 1)
        bracket = (1 - u) / (1 + u)
        acc = acc + (bracket * q.pow(2 * n).shift(2 * n * (n - 1)) if n else bracket)
        n += 1
    return acc.truncate(min(order, acc.order))


def _reference_bargraph(p, order):
    """Picard iteration from 0, every pass at full order."""
    w = order + 2
    t = TSeries.t_power(1, w)

    def rhs(h):
        geom = 1 - (t ** 2) * (1 + h)
        return TSeries.t_power(p + 1, w) * (1 + h) ** p * (1 + h / geom)

    h = TSeries.zero(w)
    for _ in range(w + 2):
        nxt = rhs(h)
        if nxt.same(h):
            h = nxt
            break
        h = nxt
    g = h / (1 - (t ** 2) * (1 + h))
    residual = h - rhs(h)
    return h.truncate(order), g.truncate(order), residual.truncate(order)


def _reference_H_aya_raw(a, order):
    """The printed expression with the product over m = 0..n redone for each n."""
    w = order + 10
    a = Fraction(a)
    t = TSeries.t_power(1, w)
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


ORDERS = (0, 1, 2, 7, 24, 60)


def _theta_arguments():
    """q builders (from the order) for the ratio sum, with rational
    coefficients: valuations 1, 2 and 3 known beyond the sum's order or below
    it, a q whose n = 0 bracket is Laurent (q = -t + ...), and the printed
    asymmetric Q at 2/3."""
    out = []
    for v in (1, 2, 3):
        entries = {v: Fraction(3, 2), v + 1: Fraction(-2, 5), v + 2: 1, v + 4: Fraction(7, 3)}
        out.append(pytest.param(lambda order, e=entries: tpoly(e, order + 4), id=f"val{v}"))
        out.append(pytest.param(lambda order, e=entries, v=v: tpoly(e, max(v, order - 3)),
                                id=f"val{v}-short"))
    out.append(pytest.param(
        lambda order: tpoly({1: -1, 2: Fraction(1, 2), 5: Fraction(-4, 9)}, order + 4),
        id="laurent-bracket"))
    out.append(pytest.param(lambda order: kernel.q_asym(Fraction(2, 3), order + 4),
                            id="q_asym-2/3"))
    return out


def _relation_arguments():
    """(q, (A, C)) builders (from the order) for the alternating sum, where
    q^2 = A q - C: the kernel Q of each model at 1, 2/3 and -1/2, the printed
    Q's, and a symmetric Q at 1/2 built below the sum's order."""
    out = []
    for kind, q_of in (("symmetric", kernel.q_sym), ("asymmetric", kernel.q_asym)):
        for a in (Fraction(1), Fraction(2, 3), Fraction(-1, 2)):
            out.append(pytest.param(
                lambda order, k=kind, f=q_of, a=a: (f(a, order + 4),
                                                    kernel.q_relation(k, a, order + 4)),
                id=f"{kind}-{a}"))
    for kind, printed in (("symmetric", cf.printed_q_sym), ("asymmetric", cf.printed_q_asym)):
        out.append(pytest.param(
            lambda order, k=kind, f=printed: (f(order + 4), kernel.q_relation(k, 1, order + 4)),
            id=f"printed-{kind}"))
    out.append(pytest.param(
        lambda order: (kernel.q_sym(Fraction(1, 2), max(3, order - 3)),
                       kernel.q_relation("symmetric", Fraction(1, 2), order + 4)),
        id="symmetric-1/2-short"))
    return out


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


class TestKindTable:
    #: each series kind, in ``series --kind`` order, and its builder called directly
    DIRECT = {
        "free": lambda order, a: cf.gf_free(order),
        "dyck": lambda order, a: cf.gf_dyck(order),
        "bargraph": lambda order, a: cf.gf_bargraph(1, order)[1],
        "sym_f1": lambda order, a: cf.gf_sym_f1(order),
        "sym_g1": lambda order, a: cf.gf_sym_g1(order),
        "asym_h1": lambda order, a: cf.gf_asym_h1(order),
        "asym_k1": lambda order, a: cf.gf_asym_k1(order),
        "halfplane": lambda order, a: cf.gf_halfplane_printed(order),
        "theta_sym": lambda order, a: cf.theta_sum("sym", a, order),
        "theta_asym_q": lambda order, a: cf.theta_sum("asym_q", a, order),
        "theta_asym_p": lambda order, a: cf.theta_sum("asym_p", a, order),
        "F_aya": lambda order, a: cf.gf_F_aya(a, order),
        "H_aya_raw": lambda order, a: cf.gf_H_aya_raw(a, order),
        "H_aya_simplified": lambda order, a: cf.gf_H_aya_simplified(a, order),
    }

    def test_kinds_in_order(self):
        assert cf.GF_KINDS == tuple(self.DIRECT)

    @pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2)], ids=["a=1", "a=1/2"])
    @pytest.mark.parametrize("kind", cf.GF_KINDS)
    def test_entry_is_its_builder(self, kind, a):
        assert cf.gf_series(kind, 12, a=a).same(self.DIRECT[kind](12, a))

    def test_bargraph_takes_p(self):
        assert cf.gf_series("bargraph", 12, p=3).same(cf.gf_bargraph(3, 12)[1])

    def test_root_argument_kinds_are_those_that_read_a(self):
        reads_a = {kind for kind in cf.GF_KINDS
                   if not cf.gf_series(kind, 12, a=Fraction(1, 2)).same(
                       cf.gf_series(kind, 12))}
        assert set(cf.ROOT_ARG_KINDS) == reads_a


class TestAgainstReference:
    """The carried-forward builders give the same bytes as the from-scratch ones."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("make_q", _theta_arguments())
    def test_theta_sums(self, make_q, order):
        # these q's satisfy no short quadratic, so only the ratio sum takes them
        q = make_q(order)
        assert cf.ratio_theta(q, order).to_json() == _reference_ratio_theta(q, order).to_json()

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("make_q", _relation_arguments())
    def test_alternating_theta(self, make_q, order):
        q, relation = make_q(order)
        assert (cf.alternating_theta(q, relation, order).to_json()
                == _reference_alternating_theta(q, order).to_json())

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_bargraph(self, p, order):
        new = [s.to_json() for s in cf.gf_bargraph(p, order)]
        assert new == [s.to_json() for s in _reference_bargraph(p, order)]

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("a", ["1", "1/2", "2/3", "-5/4", "3"])
    def test_H_aya_raw(self, a, order):
        a = Fraction(a)
        assert cf.gf_H_aya_raw(a, order).to_json() == _reference_H_aya_raw(a, order).to_json()

    @pytest.mark.parametrize("order,drawn", [(0, 1), (7, 2), (12, 2), (13, 3), (24, 3)])
    def test_middle_summands(self, order, drawn):
        # the k-th middle summand is the prefactor times term k of the ratio
        # sum; past the last summand drawn, that product is zero to ``order``
        w = order + 8
        q = cf.printed_q_asym(w)
        pole = TSeries.constant(1, w) / tpoly({0: 1, 1: -2, 2: -1}, w)
        pref = -(q * tpoly({0: 1, 2: -1}, w) * pole).shift(-2)
        _p1, p2, _p3, middle = cf.gf_h1_pieces(order)
        summands = list(middle)
        assert len(summands) == drawn
        for k in range(3):
            u = q.shift(2 * k - 1)
            term = (1 - u) / (1 + u) * q.pow(2 * k).shift(2 * k * (k - 1))
            summand = summands[k] if k < drawn else TSeries.zero(order)
            assert summand.to_json() == (pref * term).truncate(order).to_json()
        total = TSeries.zero(order)
        for summand in summands:
            total = total + summand
        assert total.to_json() == p2.to_json()


def _count_calls(monkeypatch, *names):
    """Count calls of the named TSeries methods from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(TSeries, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(TSeries, name, counted)
    return calls


class TestWorkBounds:
    """Operation counts, not timings, guard the cost of the builders."""

    @pytest.mark.parametrize("builder,order,roots", [
        (cf.gf_sym_f1, 120, 1), (cf.gf_sym_g1, 120, 1), (cf.gf_asym_h1, 60, 2)])
    def test_symmetric_radical_is_read_from_q(self, monkeypatch, builder, order, roots):
        # one sqrt for the printed symmetric Q, and one for the asymmetric Q
        calls = _count_calls(monkeypatch, "sqrt")
        builder(order)
        assert calls["sqrt"] == roots

    def test_closedform_suite_builds_h1_once(self, monkeypatch):
        # the h1 verdict reads 1 + t*k1 from the k1 that the suite compares
        calls = []
        h1 = cf.gf_asym_h1
        monkeypatch.setattr(cf, "gf_asym_h1", lambda order: calls.append(order) or h1(order))
        suites.suite_closedform(30)
        assert calls == [31]

    def test_p_pieces_compute_each_summand_once(self, monkeypatch):
        # middle reuses the summands of p2's ratio sum
        yielded = []
        terms = cf._ratio_theta_terms

        def counted(q, order):
            for term in terms(q, order):
                yielded.append(order)
                yield term

        monkeypatch.setattr(cf, "_ratio_theta_terms", counted)
        cf.gf_asym_h1(50)
        alone = len(yielded)
        yielded.clear()
        _p1, _p2, _p3, middle = cf.gf_h1_pieces(50)
        assert len(list(middle)) >= 3
        assert len(yielded) <= alone

    def test_theta_sums_carry_powers(self, monkeypatch):
        q = kernel.q_asym(1, 124)
        relation = kernel.q_relation("asymmetric", 1, 124)
        calls = _count_calls(monkeypatch, "pow")
        cf.ratio_theta(q, 120)
        cf.alternating_theta(q, relation, 120)
        assert calls["pow"] == 0

    @pytest.mark.parametrize("order", [120, 600])
    def test_alternating_theta_makes_one_long_product(self, monkeypatch, order):
        # U_n and V_n take short products by A and C; only P_1 * q is long
        q = cf.printed_q_sym(order + 4)
        relation = kernel.q_relation("symmetric", 1, order + 4)
        long_products = []
        mul = TSeries.mul

        def counted(self, other):
            if isinstance(other, TSeries) and min(len(self._num), len(other._num)) > _ROW_MAX:
                long_products.append((len(self._num), len(other._num)))
            return mul(self, other)

        monkeypatch.setattr(TSeries, "mul", counted)
        cf.alternating_theta(q, relation, order)
        assert len(long_products) == 1

    @pytest.mark.parametrize("order", [1, 11, 25, 43])
    def test_H_aya_raw_builds_no_dead_term(self, monkeypatch, order):
        # term n, of valuation 2(n+1)^2 - 3 + n, builds its two geometric
        # sums with tpoly; no term past the order is built
        calls = []
        monkeypatch.setattr(cf, "tpoly", lambda *args: calls.append(1) or tpoly(*args))
        cf.gf_H_aya_raw(Fraction(1, 2), order)
        live = sum(1 for n in range(order + 1) if 2 * (n + 1) ** 2 - 3 + n <= order)
        assert len(calls) == 2 * live

    def test_bargraph_multiplications(self, monkeypatch):
        # Newton doubling takes 70 products here; Picard iteration, one
        # full-order pass per new coefficient pair, took 614
        calls = _count_calls(monkeypatch, "mul")
        cf.gf_bargraph(1, 300)
        assert calls["mul"] < 100


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

    def test_residual_checks_the_solver(self, monkeypatch, capsys):
        # a wrong solution must show in the residual the growth suite reads
        newton = cf._bargraph_newton
        monkeypatch.setattr(cf, "_bargraph_newton",
                            lambda p, w: newton(p, w) + TSeries.t_power(7, w))
        assert cli.main(["verify", "--suite", "growth"]) == cli.EXIT_VERIFY_FAIL
        results = json.loads(capsys.readouterr().out)["results"]
        bars = [r for r in results if r["identity"] == "bargraph fixed-point residual"]
        assert [(r["status"], r["first_bad_coefficient"]) for r in bars] == [("fail", 7)] * 3


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
            cf.alternating_theta(tpoly({0: 1}, 8), kernel.q_relation("symmetric", 1, 8), 8)
        with pytest.raises(ValueError):
            cf.ratio_theta(tpoly({0: 1, 1: 1}, 8), 8)

    def test_term_count_grows_with_order(self):
        # quadratic valuation growth: order 50 needs n <= 6 alternating terms
        q = kernel.q_sym(1, 60)
        s = cf.alternating_theta(q, kernel.q_relation("symmetric", 1, 60), 50)
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
        by_name = {name.split(" vs ")[0]: (lhs - rhs, ledger)
                   for name, lhs, rhs, _order, ledger in suites.solution_identities(a, 25)}
        for name in ("F(a,ta) alternating sum", "H(a,ta) simplified sum",
                     "H(a,ta) raw coefficient ladder"):
            residual, ledger = by_name[name]
            assert residual.is_zero() and ledger is None, name
        residual, ledger = by_name["H(a,ta) printed term-by-term expression"]
        assert residual.valuation == -1 and ledger == "term-by-term-solution"

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
        _name, lhs, rhs, _order, _ledger = suites.interpretation_identities(12)[0]
        assert (lhs - rhs).valuation == 6
        assert (lhs.coeff(6), rhs.coeff(6)) == (2, 1)

    def test_diag_boundary_diffs(self):
        _name, lhs, rhs, _order, _ledger = suites.interpretation_identities(12)[1]
        assert (lhs - rhs).valuation == 3  # valuations differ: 3 vs 5

    def test_composed_normalization_closer_but_still_off(self, tables):
        # the undivided composition Q(alpha_1(1)) matches the valuation of
        # t^3 (B_diag - 1) but differs at t^7 (3 vs 2)
        diag = tables("boundary_diag", 12)
        bs = tpoly({n: c for n, c in enumerate(diag.counts)}, 12)
        composed = kernel.p_asym(1, 10).shift(2)
        rhs = (TSeries.t_power(3, 12) * (bs - 1)).truncate(10)
        assert composed.coeff(5) == rhs.coeff(5) == 1
        assert composed.coeff(7) == 3 and rhs.coeff(7) == 2

    def test_reports_never_assert(self):
        identities = suites.interpretation_identities(14)
        assert all(ledger for _name, lhs, rhs, _order, ledger in identities
                   if not (lhs - rhs).is_zero())
        verdicts = suites.run_suite("interpretations", order=14)
        assert all(v.status != "fail" for v in verdicts)
