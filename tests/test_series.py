"""Exact series arithmetic: frozen examples, independent oracles, properties."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedgewalks.series import (_ROW_MAX, OrderUnderflowError, SeriesError,
                               SqrtBranchError, TSeries,
                               ZeroDivisionSeriesError, tpoly)


def naive_quotient(num: TSeries, den: TSeries, order: int) -> TSeries:
    """Schoolbook long division on the unit parts; the independent oracle."""
    vq = num.valuation - den.valuation
    a = [num.coeff(num.valuation + i) for i in range(order - vq + 1)]
    b = [den.coeff(den.valuation + i) for i in range(order - vq + 1)]
    q = []
    for k in range(order - vq + 1):
        s = a[k] - sum(b[j] * q[k - j] for j in range(1, k + 1))
        q.append(s / b[0])
    return TSeries(vq, q, order)


class TestArithmetic:
    def test_difference_of_squares(self):
        prod = tpoly({0: 1, 1: 1}, 6) * tpoly({0: 1, 1: -1}, 6)
        assert prod == tpoly({0: 1, 2: -1}, 6)

    def test_pell_quotient(self):
        q = tpoly({0: 1, 1: 1}, 4) / tpoly({0: 1, 1: -2, 2: -1}, 4)
        assert q.coeffs_upto(4) == [1, 3, 7, 17, 41]
        assert q.order == 4
        assert q.same(naive_quotient(tpoly({0: 1, 1: 1}, 4),
                                     tpoly({0: 1, 1: -2, 2: -1}, 4), 4))

    def test_valuation_aware_division(self):
        # (2t^2 + 2t^4)/(t + t^3) factors as 2t^2(1+t^2)/(t(1+t^2)): exactly 2t
        num, den = tpoly({2: 2, 4: 2}, 4), tpoly({1: 1, 3: 1}, 4)
        q = num / den
        assert q.valuation == 1
        assert q.same(TSeries.t_power(1, 3, 2))
        assert (q * den).same(num)  # multiply-back oracle
        # a non-cancelling variant keeps the infinite tail
        q2 = tpoly({2: 2}, 5) / tpoly({1: 1, 3: 1}, 5)
        assert q2.valuation == 1
        assert q2.coeffs_upto(4, 1) == [2, 0, -2, 0]
        assert q2.same(naive_quotient(tpoly({2: 2}, 5), tpoly({1: 1, 3: 1}, 5),
                                      q2.order))

    def test_division_by_zero_series(self):
        with pytest.raises(ZeroDivisionSeriesError):
            tpoly({0: 1}, 5) / TSeries.zero(5)

    def test_order_bookkeeping_on_products(self):
        a = TSeries(2, [1], 6)   # t^2 known through t^6
        b = TSeries(-1, [1], 6)  # t^-1 known through t^6
        assert (a * b).order == 5
        assert (a * b).valuation == 1
        # a zero factor is O(t^(N+1)): 0 + O(t) times t^-1 is only O(t^0)
        assert (TSeries.zero(0) * b).order == -1
        assert (TSeries.zero(2) * TSeries.zero(3)).order == 6

    def test_negative_powers_keep_their_order(self):
        # (2t + O(t^4))^-1 = t^-1/2 + O(t^2), whose cube is t^-3/8 + O(t^0)
        assert TSeries(1, [2], 3).pow(-3) == TSeries(-3, [Fraction(1, 8)], -1)
        assert TSeries(-1, [1], 0).pow(2) == TSeries(-2, [1], -1)

    def test_truncate_beyond_reliable_order_raises(self):
        with pytest.raises(OrderUnderflowError):
            tpoly({0: 1}, 5).truncate(6)

    def test_terms_beyond_order_are_dropped(self):
        # a term above the reliable order carries no information
        s = TSeries(5, [1, 2, 3], 3)
        assert s.is_zero() and s.order == 3


class TestSqrt:
    def test_sqrt_of_one(self):
        assert tpoly({0: 1}, 8).sqrt() == tpoly({0: 1}, 8)

    def test_sym_radicand(self):
        s = tpoly({0: 1, 2: -6, 4: 5}, 7).sqrt()
        assert s.same(tpoly({0: 1, 2: -3, 4: -2, 6: -6}, 7))

    def test_asym_radicand(self):
        rad = tpoly({0: 1, 4: -1}, 6) * tpoly({0: 1, 1: -2, 2: -1}, 6)
        s = rad.sqrt()
        assert s.same(tpoly({0: 1, 1: -1, 2: -1, 3: -1, 4: -2, 5: -2, 6: -4}, 6))
        assert (s * s).same(rad)

    def test_even_valuation_required(self):
        with pytest.raises(SqrtBranchError):
            tpoly({1: 1}, 5).sqrt()

    def test_square_leading_coefficient_required(self):
        with pytest.raises(SqrtBranchError):
            tpoly({0: 2}, 5).sqrt()

    def test_root_of_zero_halves_the_order(self):
        # the root of O(t^4) is only known to be O(t^2)
        assert TSeries.zero(3).sqrt() == TSeries.zero(1)

    def test_shifted_radicand(self):
        s = tpoly({2: 4, 4: 4}, 9).sqrt()
        assert s.valuation == 1
        assert (s * s).same(tpoly({2: 4, 4: 4}, 9))


class TestSerialization:
    def test_json_schema(self):
        payload = json.loads(tpoly({-1: Fraction(1, 2), 3: -7}, 9).to_json())
        assert payload["valuation"] == -1
        assert payload["order"] == 9
        assert payload["coeffs"][0] == ["1", "2"]

    def test_str_shows_order_marker(self):
        assert "O(t^5)" in str(tpoly({0: 1}, 4))
        assert "t^-1" in str(TSeries(-1, [1], 4))


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def poly_strategy(min_val=-3, max_val=3):
    return st.builds(
        lambda val, coeffs: TSeries(val, coeffs, val + len(coeffs) + 3),
        st.integers(min_value=min_val, max_value=max_val),
        st.lists(small_fractions, min_size=1, max_size=6),
    )


def laurent_strategy():
    """A Laurent polynomial as (valuation, coefficients); empty is the zero series."""
    return st.tuples(st.integers(min_value=-3, max_value=3),
                     st.lists(small_fractions, min_size=0, max_size=14))


def square(poly):
    val, coeffs = poly
    out = [Fraction(0)] * max(0, 2 * len(coeffs) - 1)
    for i, ci in enumerate(coeffs):
        for j, cj in enumerate(coeffs):
            out[i + j] += ci * cj
    return 2 * val, out


ORDER_OPS = {
    "add": lambda a, b, e: a + b,
    "mul": lambda a, b, e: a * b,
    "div": lambda a, b, e: a / b,
    "inverse": lambda a, b, e: a.inverse(),
    "pow": lambda a, b, e: a.pow(e),
    "sqrt": lambda a, b, e: a.sqrt(),
}


# A plain-Fraction schoolbook reference: a series is (order, {exponent: coefficient}).

def ref_val(x):
    nonzero = [k for k, c in x[1].items() if c]
    return min(nonzero) if nonzero else x[0] + 1  # zero is O(t**(order + 1))


def ref_add(x, y):
    order = min(x[0], y[0])
    out = {k: x[1].get(k, 0) + y[1].get(k, 0) for k in {*x[1], *y[1]} if k <= order}
    return order, out


def ref_neg(x):
    return x[0], {k: -c for k, c in x[1].items()}


def ref_mul(x, y):
    order = min(x[0] + ref_val(y), y[0] + ref_val(x))
    out = {}
    for i, xi in x[1].items():
        for j, yj in y[1].items():
            if i + j <= order:
                out[i + j] = out.get(i + j, 0) + xi * yj
    return order, out


def ref_div(x, y):
    vx, vy = ref_val(x), ref_val(y)
    order, lo = min(x[0] - vy, y[0] + vx - 2 * vy), vx - vy
    q = {}
    for k in range(lo, order + 1):
        rest = sum(y[1].get(vy + j, 0) * q[k - j] for j in range(1, k - lo + 1))
        q[k] = (x[1].get(k + vy, 0) - rest) / y[1][vy]
    return order, q


def ref_pow(x, e):
    if e < 0:
        return ref_pow(ref_div((x[0] - ref_val(x), {0: Fraction(1)}), x), -e)
    out = (x[0], {0: Fraction(1)})
    for i in range(e):
        out = x if i == 0 else ref_mul(out, x)
    return out


def as_ref(val, coeffs, order):
    return order, {val + i: Fraction(c) for i, c in enumerate(coeffs) if val + i <= order}


# non-unit leading coefficients make the quotient and root recurrences rescale;
# lists and orders run past twice the row/diagonal crossover of ``mul``, so
# both factors of a product fall on either side of it
lead_fractions = st.sampled_from([Fraction(2, 3), Fraction(-5), Fraction(1), Fraction(-7, 4)])
coeff_lists = st.lists(st.one_of(lead_fractions, st.fractions(
    min_value=-9, max_value=9, max_denominator=9)), min_size=0, max_size=2 * _ROW_MAX + 2)
orders = st.integers(-4, 2 * _ROW_MAX + 6)
# a scalar operand stands for the constant series at the other operand's order
scalars = st.sampled_from([0, 3, -1, Fraction(0), Fraction(2, 3), Fraction(-7, 4)])

DIFF_OPS = {
    "add": (lambda a, b, e: a + b, lambda x, y, e: ref_add(x, y)),
    "sub": (lambda a, b, e: a - b, lambda x, y, e: ref_add(x, ref_neg(y))),
    "mul": (lambda a, b, e: a * b, lambda x, y, e: ref_mul(x, y)),
    "div": (lambda a, b, e: a / b, lambda x, y, e: ref_div(x, y)),
    "inverse": (lambda a, b, e: a.inverse(), lambda x, y, e: ref_pow(x, -1)),
    "pow": (lambda a, b, e: a.pow(e), lambda x, y, e: ref_pow(x, e)),
}


class TestDifferential:
    @given(st.sampled_from(sorted(DIFF_OPS) + ["sqrt"]), st.integers(-3, 3), coeff_lists,
           st.integers(-3, 3), coeff_lists, orders, st.integers(-3, 4),
           st.sampled_from([None, "left", "right"]), scalars)
    @settings(max_examples=400, deadline=None)
    # a root of valuation 1
    @example("sqrt", 0, [0, Fraction(-5), Fraction(2, 3)], 0, [], 7, 0, None, 0)
    # a scalar times a Laurent series is known to Na + va
    @example("mul", -2, [Fraction(2, 3), 1], 0, [], 5, 0, "left", 3)
    def test_matches_fraction_schoolbook(self, op, va, ca, vb, cb, n, e, side, s):
        if op == "sqrt":
            # the positive branch of the root of p**2 is +-p, to the root's order
            radicand = TSeries(*square((va, ca)), n)
            got = radicand.sqrt()
            v = radicand.valuation
            lead = next((c for c in ca if c), 1)
            want = as_ref(va, [c if lead > 0 else -c for c in ca],
                          n // 2 if v is None else n - v // 2)
        else:
            a, b = TSeries(va, ca, n), TSeries(vb, cb, n + e)
            x, y = as_ref(va, ca, n), as_ref(vb, cb, n + e)
            if side and op in ("add", "sub", "mul", "div"):
                b, y = s, as_ref(0, [s], n)
                if side == "left":
                    a, b, x, y = b, a, y, x
            try:
                got = DIFF_OPS[op][0](a, b, e)
            except SeriesError:
                return
            want = DIFF_OPS[op][1](x, y, e)
        assert got.order == want[0]
        lo = min([*want[1], got.valuation or 0, 0])
        assert got.coeffs_upto(got.order, lo) == [want[1].get(k, 0) for k in range(lo, got.order + 1)]

    @pytest.mark.parametrize("ls", range(_ROW_MAX + 3))
    def test_both_product_paths_match_the_reference(self, ls):
        # short factors of 0 to _ROW_MAX + 2 terms, against a factor of the
        # same length and one of 30 terms, with denominators and an order
        # that cuts the product short
        for ll in (ls, 30):
            xs = [Fraction((-1) ** i * (2 * i + 1), 3 + i % 4) for i in range(ls)]
            ys = [Fraction(5 * i - 7, 2 + i % 3) or 1 for i in range(ll)]
            order = ll  # drops the long factor's last term, so ls >= 2 truncates
            short, long = TSeries(-1, xs, order), TSeries(2, ys, order)
            want = ref_mul(as_ref(-1, xs, order), as_ref(2, ys, order))
            got = short * long
            assert got == long * short == tpoly(want[1], want[0])
            assert hash(got) == hash(long * short)

    @given(st.integers(-3, 3), coeff_lists, st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_canonical_form_is_exact(self, val, coeffs, n):
        x, three = TSeries(val, coeffs, n), TSeries.constant(3, n)
        y = (x * three) / three
        same_x = x.truncate(y.order)
        assert y == same_x and hash(y) == hash(same_x)
        if x.valuation is None or x.valuation >= 0:
            assert y.order == x.order


class TestProperties:
    @given(st.sampled_from(sorted(ORDER_OPS)), laurent_strategy(), laurent_strategy(),
           st.integers(min_value=-4, max_value=12), st.integers(min_value=-3, max_value=4))
    @settings(max_examples=300, deadline=None)
    def test_order_is_sound(self, op, pa, pb, n, e):
        # the same operands known 10 further orders must confirm every
        # coefficient the first result claims
        if op == "sqrt":
            pa = square(pa)

        def run(order):
            a, b = (TSeries(val, coeffs, order) for val, coeffs in (pa, pb))
            return ORDER_OPS[op](a, b, e)

        try:
            lo = run(n)
        except SeriesError:
            return
        hi = run(n + 10)
        assert hi.order >= lo.order
        assert lo.same(hi), (lo, hi)

    @given(poly_strategy(), poly_strategy())
    @settings(max_examples=120, deadline=None)
    def test_add_sub_roundtrip(self, a, b):
        assert ((a + b) - b).same(a.truncate(min(a.order, b.order)))

    @given(poly_strategy(), poly_strategy())
    @settings(max_examples=120, deadline=None)
    def test_mul_div_roundtrip(self, a, b):
        if b.is_zero():
            return
        q = (a * b) / b
        assert q.same(a.truncate(min(a.order, q.order)))

    @given(st.lists(small_fractions, min_size=0, max_size=6),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=200, deadline=None)
    def test_sqrt_squares_back(self, tail, shift):
        radicand = TSeries(2 * shift, [Fraction(1)] + tail, 2 * shift + len(tail) + 4)
        s = radicand.sqrt()
        assert (s * s).same(radicand)
        assert s.coeff(s.valuation) > 0

    @given(small_fractions, small_fractions)
    @settings(max_examples=60, deadline=None)
    def test_exact_rationals_never_round(self, x, y):
        if y == 0:
            return
        a = tpoly({0: x, 1: 1}, 6)
        b = tpoly({0: y}, 6)
        c = (a / b) * b
        assert c.coeff(0) == x and c.coeff(1) == 1
