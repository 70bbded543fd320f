"""Kernel coefficient systems, roots, compositions, and residuals."""

from fractions import Fraction

import mpmath
import pytest

from wedgewalks import kernel, suites
from wedgewalks.closedforms import printed_q_asym, printed_q_sym
from wedgewalks.series import (OrderUnderflowError, SeriesError, TSeries,
                               ZeroDivisionSeriesError, tpoly)
from wedgewalks.walks import weighted_gf


class TestKernelCoeffs:
    def test_printed_p1_equals_general(self):
        for a, b in ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
                     (Fraction(2), Fraction(3, 5))):
            lhs = kernel.kernel_p1_printed(a, b, 20)
            rhs = kernel.kernel_coeffs("symmetric", 1, a, b, 20).kernel
            assert lhs.same(rhs)

    @pytest.mark.parametrize("m", kernel.SAMPLE_ARGS + (Fraction(-1, 2), Fraction(-1)))
    @pytest.mark.parametrize("kind,slot", [("symmetric", "beta"), ("asymmetric", "beta"),
                                           ("asymmetric", "alpha")])
    def test_slot_is_the_p1_kernel(self, kind, slot, m):
        # -t L x^2 + P m x - t m^2 with the unknown x in the slot, m in the other
        t, ms, x = (kernel.tvar(12), TSeries.constant(m, 12),
                    TSeries.constant(Fraction(3, 7), 12))
        p, l = kernel._slot(kind, slot, ms, t)
        quadratic = -(t * l) * x * x + p * ms * x - t * ms * ms
        a, b = (x, ms) if slot == "alpha" else (ms, x)
        assert quadratic == kernel.kernel_coeffs(kind, 1, a, b, 12).kernel

    def test_kernel_at_unit_arguments(self):
        k = kernel.kernel_p1_printed(1, 1, 8)
        assert k.same(tpoly({0: 1, 1: -3, 2: 1, 3: 1}, 8))

    def test_free_term_vanishes_on_lower_diagonal(self):
        # X carries the factor (b - t*a), so b = t*a kills it for every p
        for p in (1, 2, 3):
            ta = TSeries.t_power(1, 15, Fraction(2, 3))
            x = kernel.kernel_coeffs("symmetric", p, Fraction(2, 3), ta, 15).free_term
            assert x.is_zero()

    def test_symmetric_symmetry(self):
        for p in (1, 2, 3):
            ab = kernel.kernel_coeffs("symmetric", p, Fraction(1, 2), Fraction(1, 3), 15)
            ba = kernel.kernel_coeffs("symmetric", p, Fraction(1, 3), Fraction(1, 2), 15)
            assert ab.kernel.same(ba.kernel)
            assert ab.free_term.same(ba.free_term)
            assert ab.lower.same(ba.upper)

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_east_weight_is_one_power(self, monkeypatch, kind):
        powers = []
        pow_ = TSeries.pow
        monkeypatch.setattr(TSeries, "pow", lambda self, n: powers.append(n) or pow_(self, n))
        kernel.kernel_coeffs(kind, 3, Fraction(1, 2), Fraction(1, 3), 20)
        assert powers == [3]

    def test_asymmetric_asymmetry_witness(self):
        third = Fraction(1, 3)
        y = kernel.kernel_coeffs("asymmetric", 1, Fraction(1), Fraction(2), 10).lower
        z = kernel.kernel_coeffs("asymmetric", 1, Fraction(2), Fraction(1), 10).upper

        def at_third(s):
            return sum(c * third**k for k, c in enumerate(s.coeffs_upto(10)))

        assert at_third(y) == Fraction(-1, 27)
        assert at_third(z) == Fraction(-2, 27)


class TestRoots:
    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("a", kernel.SAMPLE_ARGS)
    def test_roots_annihilate_kernel(self, kind, a):
        for which in ("beta-", "beta+"):
            r = kernel.root(kind, which, a, 40)
            k = kernel.kernel_coeffs(kind, 1, TSeries.constant(a, r.order), r,
                                     r.order).kernel
            assert k.is_zero(), (kind, which, a)

    @pytest.mark.parametrize("b", kernel.SAMPLE_ARGS[:4])
    def test_alpha_roots_annihilate_kernel(self, b):
        r = kernel.root("asymmetric", "alpha-", b, 40)
        k = kernel.kernel_coeffs("asymmetric", 1, r, TSeries.constant(b, r.order),
                                 r.order).kernel
        assert k.is_zero()

    def test_branch_leading_terms(self):
        b1 = kernel.root("symmetric", "beta-", 1, 20)
        assert b1.valuation == 1 and b1.coeff(1) == 1
        bp = kernel.root("symmetric", "beta+", 1, 20)
        assert bp.valuation == -1
        a1 = kernel.root("asymmetric", "alpha-", 1, 20)
        assert a1.valuation == 1 and a1.coeff(1) == 1

    def test_root_map_twice_equals_depth_two_closed_form(self):
        b1 = kernel.root("symmetric", "beta-", 1, 30)
        b2 = kernel.root("symmetric", "beta-", b1, b1.order)
        assert b2.same(kernel.beta_closed(2, 1, kernel.beta_closed_input(1, b2.order),
                                          b2.order))

    def test_branch_selection_error(self):
        # at b = -1 the alpha slot's L = 1 + b(1 - t^2) is t^2, so alpha+ has
        # valuation -3
        with pytest.raises(kernel.BranchSelectionError,
                           match="alpha\\+ branch has valuation -3, expected -1"):
            kernel.root("asymmetric", "alpha+", -1, 10)

    @pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2), Fraction(2)])
    def test_laurent_argument_with_one_root_valuation_is_refused(self, a):
        # both roots of K(beta_-1(a), .), a and beta_-2(a), have valuation 0,
        # so valuation cannot pick the beta- branch
        bm = kernel.root("symmetric", "beta+", a, 12)
        assert bm.valuation == -1
        with pytest.raises(kernel.BranchSelectionError) as err:
            kernel.root("symmetric", "beta-", bm, 20)
        assert str(err.value) == ("beta- branch of an argument of valuation -1 has "
                                  "valuation 0, not above the other root's 0")

    def test_alpha_requires_asymmetric(self):
        with pytest.raises(ValueError):
            kernel.root("symmetric", "alpha-", 1, 10)

    @pytest.mark.parametrize("kind,which", [("free", "beta-"), ("symmetric", "gamma-"),
                                            ("asymmetric", "beta")])
    def test_unknown_model_or_branch_is_refused(self, kind, which):
        with pytest.raises(ValueError, match=f"no '{which}' root for model '{kind}'"):
            kernel.root(kind, which, 1, 4)


class TestEachRootBuiltOnce:
    """One call composes each root-chain element once and builds beta_1(a)
    and Q(a) once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"root": 0, "q_asym": 0}
        for name, original in [(name, getattr(kernel, name)) for name in calls]:
            def counted(*a, _name=name, _original=original):
                calls[_name] += 1
                return _original(*a)
            monkeypatch.setattr(kernel, name, counted)
        return calls

    @pytest.mark.parametrize("fn,args,roots,q_calls", [
        # depths n = 0..3 read chain elements 0..8 (gamma_0 .. gamma_4)
        ("raw_iterated_sum", (1, 24), 8, 0),
        # chain elements 1..6 up to gamma_3, and the beta_1(a) inside Q(a)
        ("script_coeffs", (2, Fraction(1, 2), 10), 6 + 1, 1),
        # beta_1(a) for every closed form, and beta_-1(beta_1(a))
        ("group_law_check", (5, Fraction(2, 3), 10), 2, 0),
    ], ids=["raw_iterated_sum", "script_coeffs", "group_law_check"])
    def test_call_counts(self, calls, fn, args, roots, q_calls):
        getattr(kernel, fn)(*args)
        assert calls == {"root": roots, "q_asym": q_calls}

    def test_suite_kernel_call_counts(self, calls):
        suites.suite_kernel(6)
        assert calls == {
            # 16 beta-root checks, 3 alpha-root checks, 2 roots for each of
            # 3 group laws, 4 for the mixed-inverse check; the
            # compositions: beta_1(a) once, 6 symmetric chain elements, Q(a)
            # once (1 root) and 8 asymmetric chain elements; 5 Qbar Q pairs
            # (2 roots each), 3 printed forms (P(1) takes 2), 3 script
            # depths (2 + 4 + 6 chain elements, 1 Q(a) each)
            "root": 16 + 3 + 3 * 2 + 4 + (1 + 6 + 1 + 8) + 5 * 2 + 4 + (12 + 3),
            # one for the gamma closed forms, 5 Q(a) in Qbar Q, Q_asym(1)
            # and P(1), one per script depth
            "q_asym": 1 + 5 + 2 + 3,
        }

    @pytest.mark.parametrize("n", range(-2, 7))
    def test_one_chain_serves_every_beta(self, n):
        shared = kernel.beta_chain(Fraction(1, 2), 6, 12)
        alone = kernel.beta_chain(Fraction(1, 2), abs(n), 12)
        assert kernel.beta_composed(n, shared, 12).same(kernel.beta_composed(n, alone, 12))

    @pytest.mark.parametrize("n", range(5))
    def test_one_chain_serves_every_gamma(self, n):
        shared, alone = kernel.gamma_chain(1, 4, 12), kernel.gamma_chain(1, n, 12)
        assert kernel.gamma_composed(n, shared, 12).same(kernel.gamma_composed(n, alone, 12))

    def test_negative_depth_is_refused(self):
        built = kernel.gamma_chain(1, 4, 12)
        built[8]  # built to gamma_4, where index -2 would read beta(gamma_3)
        for chain in (built, kernel.gamma_chain(1, 1, 12)):
            with pytest.raises(ValueError, match="defined for n >= 0"):
                kernel.gamma_composed(-1, chain, 12)
            with pytest.raises(ValueError, match="indexed by k >= 0, got -1"):
                chain[-1]

    def test_foreign_chain_is_refused(self):
        with pytest.raises(ValueError, match="needs a symmetric chain, got an asymmetric"):
            kernel.beta_composed(0, kernel.gamma_chain(1, 4, 12), 12)
        with pytest.raises(ValueError, match="needs an asymmetric chain, got a symmetric"):
            kernel.gamma_composed(0, kernel.beta_chain(1, 4, 12), 12)
        with pytest.raises(ValueError, match="no root chain for model 'bogus'"):
            kernel.Chain("bogus", 1, 4)

    def test_short_input_underflows_where_it_is_truncated(self):
        with pytest.raises(OrderUnderflowError, match="reliable order 11 to 12"):
            kernel.beta_composed(-2, kernel.Chain("symmetric", 1, 12), 12)
        with pytest.raises(OrderUnderflowError, match="reliable order 8 to 12"):
            kernel.beta_closed(-1, 1, kernel.root("symmetric", "beta-", 1, 12), 12)
        with pytest.raises(OrderUnderflowError, match="reliable order 10 to 12"):
            kernel.gamma_closed(4, kernel.q_asym(1, 6), 12)
        with pytest.raises(OrderUnderflowError, match="reliable order 0, below its valuation 1"):
            kernel.Chain("asymmetric", 1, 0)[2]
        chain = kernel.Chain("asymmetric", 1, 0)
        for _ in range(2):  # a failed build leaves the next read on the same root
            with pytest.raises(OrderUnderflowError, match="beta- branch"):
                chain[1]
        # element 3 is t^3 + ... known only to order 2, so a zero series
        with pytest.raises(OrderUnderflowError, match="zero to its order 2"):
            kernel.Chain("asymmetric", 1, 2)[4]
        # the root of the Laurent 1/t + O(1) is known to no order
        with pytest.raises(OrderUnderflowError, match="beta- branch is zero to its order -2"):
            kernel.root("asymmetric", "beta-", TSeries(-1, [1], -1), -1)

    def test_scalar_zero_argument_is_a_value_error(self):
        with pytest.raises(ValueError, match="must be nonzero") as info:
            kernel.root("symmetric", "beta-", 0, 5)
        assert not isinstance(info.value, OrderUnderflowError)


_MARGIN_ARGS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(2), Fraction(-1, 2))


class TestClosedInputMargins:
    """The working orders of beta_closed_input and gamma_closed_input are the
    least that serve every n; one order less fails."""

    @pytest.mark.parametrize("a", _MARGIN_ARGS)
    @pytest.mark.parametrize("order", [0, 1, 5, 12, 20])
    def test_beta_1_at_order_plus_4(self, a, order):
        b1, roomy = (kernel.beta_closed_input(a, order),
                     kernel.beta_closed_input(a, order + 20))
        for n in range(-8, 9):
            assert kernel.beta_closed(n, a, b1, order).same(
                kernel.beta_closed(n, a, roomy, order)), n
        short = kernel.root("symmetric", "beta-", a, order + 3)
        with pytest.raises(OrderUnderflowError):
            kernel.beta_closed(-1, a, short, order)

    @pytest.mark.parametrize("a", _MARGIN_ARGS)
    @pytest.mark.parametrize("order", [0, 1, 5, 12, 20])
    def test_q_at_order_plus_4(self, a, order):
        q = kernel.gamma_closed_input(a, order)
        for n in range(7):
            assert kernel.gamma_closed(n, q, order).same(
                kernel.gamma_closed(n, kernel.q_asym(a, order + 2 * n + 4), order)), n
        # at order 0 the short Q (valuation 4, known to t^3) is identically zero
        error = ZeroDivisionSeriesError if order == 0 else SeriesError
        with pytest.raises(error):
            kernel.gamma_closed(0, kernel.q_asym(a, order + 3), order)

    def test_beta_0_honours_order(self):
        s = kernel.root("symmetric", "beta-", Fraction(1, 2), 50)
        assert s.order == 50
        closed = kernel.beta_closed(0, s, kernel.beta_closed_input(s, 20), 20)
        composed = kernel.beta_composed(0, kernel.beta_chain(s, 0, 20), 20)
        assert closed.order == composed.order == 20
        assert closed.same(s.truncate(20))


def _beta(n, a, order):
    """beta_n(a) in closed form, after checking it against the composition."""
    closed = kernel.beta_closed(n, a, kernel.beta_closed_input(a, order), order)
    assert closed.same(kernel.beta_composed(n, kernel.beta_chain(a, abs(n), order),
                                            order)), (n, a)
    return closed


def _gamma(n, a, order):
    """gamma_n(a) in closed form, after checking it against the composition."""
    closed = kernel.gamma_closed(n, kernel.gamma_closed_input(a, order), order)
    assert closed.same(kernel.gamma_composed(n, kernel.gamma_chain(a, n, order),
                                             order)), (n, a)
    return closed


def _group_law_holds(n, a, order):
    return all(r.is_zero() for _name, residuals in kernel.group_law_check(n, a, order)
               for r in residuals)


class TestBetaIteration:
    def test_identity_element(self):
        closed = _beta(0, Fraction(2, 3), 20)
        assert closed.same(TSeries.constant(Fraction(2, 3), 20))

    def test_depth_one_reduces_to_root(self):
        closed = _beta(1, Fraction(1, 2), 25)
        assert closed.same(kernel.root("symmetric", "beta-", Fraction(1, 2), 25))

    def test_depth_three_leading_term(self):
        closed = _beta(3, 1, 30)
        assert closed.valuation == 3
        assert closed.coeff(3) == 1

    @pytest.mark.parametrize("n", range(-2, 7))
    def test_closed_equals_composed(self, n):
        for a in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 5),
                  Fraction(2)):
            _beta(n, a, 20)

    def test_positive_depth_leading_terms(self):
        for n in range(1, 7):
            closed = _beta(n, Fraction(1, 2), 18)
            assert closed.valuation == n
            assert closed.coeff(n) == Fraction(1, 2)


class TestGroupLaw:
    def test_depth_one(self):
        assert _group_law_holds(1, Fraction(1), 25)

    def test_identity_depth(self):
        assert _group_law_holds(0, Fraction(1), 20)

    def test_recurrence_at_two(self):
        assert _group_law_holds(2, Fraction(1, 2), 30)
        checks = kernel.group_law_check(2, Fraction(1, 2), 30)
        assert any("three-term" in name for name, _ in checks)

    @pytest.mark.parametrize("n", [3, 5])
    def test_deeper_ladders(self, n):
        assert _group_law_holds(n, Fraction(2, 3), 20)


def _least_residual_orders(order):
    """The least reliable order among the residuals of each group-law,
    mixed-inverse and script-coefficient call that suite_kernel(order) makes."""
    least = [min(r.order for _name, residuals in kernel.group_law_check(n, a, order)
                 for r in residuals)
             for n, a in ((1, Fraction(1)), (3, Fraction(1, 2)), (5, Fraction(2, 3)))]
    least.append(min(r.order for r in kernel.mixed_inverse_check(Fraction(1, 2),
                                                                 Fraction(1, 3), order)))
    least += [min((lhs - rhs).order for _name, lhs, rhs
                  in kernel.script_coeffs(n, Fraction(1, 2), order)) for n in (0, 1, 2)]
    return least


@pytest.mark.parametrize("order", [0, 6, 25])
def test_identity_checks_work_at_the_order_their_residuals_need(order):
    # every call reaches the order its verdicts claim, and its least reliable
    # residual is at most 8 orders beyond it (with the fixed pads of 3d4696d,
    # 8 to 16 orders beyond it)
    assert all(order <= least <= order + 8 for least in _least_residual_orders(order))


@pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2)], ids=["a=1", "a=1/2"])
def test_raw_iterated_sum_reads_no_dead_chain_element(monkeypatch, a):
    # term n reads chain elements 2n .. 2n + 2, and every term past the last
    # n with 2n^2 <= order starts beyond the order
    read = []
    getitem = kernel.Chain.__getitem__
    monkeypatch.setattr(kernel.Chain, "__getitem__",
                        lambda chain, k: read.append(k) or getitem(chain, k))
    for order in range(31):
        read.clear()
        kernel.raw_iterated_sum(a, order)
        last = max(n for n in range(order + 1) if 2 * n * n <= order)
        assert max(read) == 2 * last + 2, order


class TestGammaIteration:
    def test_identity(self):
        closed = _gamma(0, Fraction(1, 3), 20)
        assert closed.same(TSeries.constant(Fraction(1, 3), 20))

    def test_mixed_inverse_identities(self):
        residuals = kernel.mixed_inverse_check(Fraction(1), Fraction(1, 2), 25)
        assert all(r.is_zero() for r in residuals)

    def test_depth_two_leading(self):
        closed = _gamma(2, 1, 30)
        assert closed.valuation == 4
        assert closed.coeff(4) == 1

    @pytest.mark.parametrize("n", range(5))
    def test_closed_equals_composed(self, n):
        for a in (Fraction(1), Fraction(1, 2), Fraction(3, 5)):
            _gamma(n, a, 18)


class TestQSeries:
    def test_q_sym_frozen(self):
        q = kernel.q_sym(1, 6)
        assert q.same(tpoly({3: 1, 5: 3}, 6))

    def test_q_asym_frozen(self):
        q = kernel.q_asym(1, 6)
        assert q.same(tpoly({4: 1, 5: 1, 6: 2}, 6))

    @pytest.mark.parametrize("a", kernel.SAMPLE_ARGS[:5])
    def test_qbar_q_product(self, a):
        prod = kernel.qbar_asym(a, 40) * kernel.q_asym(a, 40)
        assert prod.same(TSeries.t_power(3, prod.order))

    @pytest.mark.parametrize("a", kernel.SAMPLE_ARGS + (Fraction(-1, 2), Fraction(-5, 4),
                                                         Fraction(3), Fraction(7, 3)))
    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_q_relation(self, kind, a):
        # the reference derivation: z = 1/beta_1(a) solves t a^2 z^2 - P a z + t L = 0
        # and Q = alpha + gamma z, so A = 2 alpha + P gamma / (t a) and
        # C = alpha (A - alpha) + L (gamma / a)^2
        for order in (0, 1, 2, 5, 30):
            w = order + 4
            t, s = kernel.tvar(w), kernel.as_series(a, w)
            alpha, gamma = kernel._q_form(kind, s, t)
            p, l = kernel._slot(kind, "beta", s, t)
            ref_a = 2 * alpha + p * gamma / (t * s)
            ref_c = alpha * (ref_a - alpha) + l * (gamma / s) ** 2
            big_a, c = kernel.q_relation(kind, a, order)
            assert (big_a, c) == (ref_a.truncate(order), ref_c.truncate(order)), order
        q = (kernel.q_sym if kind == "symmetric" else kernel.q_asym)(a, 30)
        residual = q * q - big_a * q + c
        assert residual.is_zero() and residual.order >= 29

    @pytest.mark.parametrize("kind,printed", [("symmetric", printed_q_sym),
                                              ("asymmetric", printed_q_asym)])
    def test_printed_q_relation(self, kind, printed):
        q = printed(30)
        big_a, c = kernel.q_relation(kind, 1, 30)
        residual = q * q - big_a * q + c
        assert residual.is_zero() and residual.order >= 29

    def test_printed_specializations(self):
        assert kernel.q_sym(1, 30).same(printed_q_sym(30))
        assert kernel.q_asym(1, 30).same(printed_q_asym(30))
        assert kernel.p_asym(1, 30).same(printed_q_sym(30))

    @pytest.mark.parametrize("order", [0, 1, 5, 30])
    def test_p_asym_where_the_root_comes_back_short(self, order):
        # at b = -1 the alpha- root of a series argument comes back one order short
        assert kernel.root("asymmetric", "alpha-", kernel.as_series(-1, 20), 20).order == 19
        p = kernel.p_asym(-1, order)
        assert p.order == order
        assert p == kernel.p_asym(-1, order + 10).truncate(order)

    def test_q_sym_sum_at_pole(self):
        # Q(1) at the dominant pole t_c tends to 3 - 2 sqrt(2); the
        # truncation error decays like (sqrt(5) t_c)^N
        with mpmath.workdps(40):
            tc = mpmath.sqrt(2) - 1
            target = 3 - 2 * mpmath.sqrt(2)
            for order, tol in ((40, 5e-3), (160, 1e-5)):
                q = kernel.q_sym(1, order)
                value = sum(mpmath.mpf(c.numerator) / c.denominator * tc**k
                            for k, c in enumerate(q.coeffs_upto(order)))
                assert abs(value - target) < tol

    def test_p_is_composition_over_xy(self):
        # Q evaluated at the alpha root equals t^2 times the P normalization
        s = kernel.root("asymmetric", "alpha-", Fraction(1, 2), 34)
        composed = kernel.q_asym(s, 24)
        assert composed.same(kernel.p_asym(Fraction(1, 2), 22).shift(2))


class TestResiduals:
    @pytest.mark.parametrize("kind,p,a,b", [
        ("symmetric", 1, Fraction(1), Fraction(1)),
        ("symmetric", 2, Fraction(2, 3), Fraction(1, 2)),
        ("asymmetric", 1, Fraction(1, 2), Fraction(1, 3)),
        ("asymmetric", 3, Fraction(1), Fraction(2, 3)),
    ])
    def test_functional_equation_residual(self, kind, p, a, b):
        w = weighted_gf(kind, p, 30)
        res = kernel.residual_functional_eq(kind, p, a, b, 30, w.series_at(a, b),
                                            w.series_lower(a), w.series_upper(b))
        assert res.is_zero(), res.valuation

    def test_kernel_form_residual(self):
        a, b, w = Fraction(1, 2), Fraction(1, 3), weighted_gf("symmetric", 2, 25)
        res = kernel.residual_kernel_form("symmetric", 2, a, b, 25, w.series_at(a, b),
                                          w.series_lower(a), w.series_upper(b))
        assert res.is_zero()


    def test_unknown_model_is_refused(self):
        f = TSeries.constant(1, 5)
        with pytest.raises(ValueError, match="no kernel system"):
            kernel.residual_functional_eq("bogus", 1, 1, 1, 5, f, f, f)

    @pytest.mark.parametrize("a,b", [(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
                                     (Fraction(-2, 3), Fraction(3, 5))])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_kernel_form_is_x_times_column_residual(self, kind, p, a, b):
        # arbitrary series, not the walk series, so neither residual vanishes:
        # each of K, X, Y and Z is checked against the column equation
        order = 12
        f = (tpoly({0: 2, 1: -1, 3: Fraction(5, 7)}, order), tpoly({0: 1, 2: 3, 5: -2}, 10),
             tpoly({1: Fraction(1, 2), 4: 1}, order))
        column = kernel.residual_functional_eq(kind, p, a, b, order, *f)
        x = kernel.kernel_coeffs(kind, p, a, b, order).free_term
        kernel_form = kernel.residual_kernel_form(kind, p, a, b, order, *f)
        assert not column.is_zero()
        assert kernel_form.same(x * column)


def _failing_identities(pairs, order):
    """Names of the (name, lhs, rhs) identities that differ mod t^(order+1)."""
    failing = []
    for name, lhs, rhs in pairs:
        res = lhs - rhs
        if not res.truncate(min(order, res.order)).is_zero():
            failing.append(name)
    return failing


class TestScriptCoeffs:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_ladder_identities(self, n):
        pairs = kernel.script_coeffs(n, Fraction(1), 20)
        assert len(pairs) == 15
        assert _failing_identities(pairs, 20) == []

    def test_depth_zero_useful_expression(self):
        # 1/gamma_0 - t/beta_1(gamma_0) = t + Q at the unit argument
        q = kernel.q_asym(1, 20)
        t = kernel.tvar(20)
        b1 = kernel.root("asymmetric", "beta-", 1, 24)
        lhs = TSeries.constant(1, 20) - t / b1
        assert lhs.same((t + q).truncate(lhs.order))

    def test_half_argument(self):
        assert _failing_identities(kernel.script_coeffs(1, Fraction(1, 2), 25), 25) == []

    def test_raw_iterated_sum_matches_enumeration(self, weighted):
        w = weighted("asymmetric", 1, 16)
        assert kernel.raw_iterated_sum(Fraction(1), 16).same(w.series_lower(1))
