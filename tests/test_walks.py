"""Enumeration: DP against the exhaustive oracle, frozen counts, invariants."""

import json
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from wedgewalks import closedforms as cf
from wedgewalks import walks
from wedgewalks.errors import BudgetError
from wedgewalks.series import tpoly
from wedgewalks.walks import (KINDS, WedgeModel, brute_force_counts,
                              brute_force_oracle, count_walks, weighted_gf)

FROZEN = {
    "symmetric": [1, 1, 3, 5, 13, 27],
    "asymmetric": [1, 1, 2, 3, 7],
    "free": [1, 3, 7, 17, 41],
    "halfplane": [1, 2, 4, 9, 20],
}


def _reference_geometry(kind, p):
    """(has_lo, shift, width) in the sheared height h = Y - ls*X, ls the
    lower-line slope: lower line h >= 0 when has_lo, an east step adds shift
    to h, upper line h <= width*X (width None when there is none)."""
    if kind == "free":
        return False, 0, None
    if kind == "symmetric":
        return True, p, 2 * p
    if kind == "asymmetric":
        return True, 0, p
    if kind == "boundary_diag":
        return True, -1, None
    return True, 0, None


def _reference_step(frontier, has_lo, shift, width):
    """The dict-keyed transition: (X, h) -> [east-or-start, north, south]."""
    has_up = width is not None
    dx = 1 if has_up else 0
    new = {}
    for (x, h), (e, u, d) in frontier.items():
        x1, h1 = x + dx, h + shift
        if (not has_lo or h1 >= 0) and (not has_up or h1 <= width * x1):
            new.setdefault((x1, h1), [0, 0, 0])[0] += e + u + d
        if e + u and (not has_up or h < width * x):
            new.setdefault((x, h + 1), [0, 0, 0])[1] += e + u
        if e + d and (not has_lo or h > 0):
            new.setdefault((x, h - 1), [0, 0, 0])[2] += e + d
    return new


def _reference_counts(kind, p, n_max):
    geometry = _reference_geometry(kind, p)
    frontier = {(0, 0): [1, 0, 0]}
    counts = [1]
    for _ in range(n_max):
        frontier = _reference_step(frontier, *geometry)
        if kind == "quarter_endline":
            counts.append(sum(sum(v) for (_x, h), v in frontier.items() if h == 0))
        elif kind in ("boundary_flat", "boundary_diag"):
            counts.append(sum(v[0] for (_x, h), v in frontier.items() if h == 0))
        else:
            counts.append(sum(sum(v) for v in frontier.values()))
    return counts


def _reference_weighted(kind, p, order):
    """entries[(n, i, j)] with i = width*X - h, j = h."""
    geometry = _reference_geometry(kind, p)
    width = geometry[2]
    frontier = {(0, 0): [1, 0, 0]}
    entries = {(0, 0, 0): 1}
    for n in range(1, order + 1):
        frontier = _reference_step(frontier, *geometry)
        for (x, h), (e, _u, _d) in frontier.items():
            if e:
                entries[(n, width * x - h, h)] = e
    return entries


def _slopes(kinds):
    """(kind, p) for p = 1, 2, 3; the p = 1 case keeps the bare kind as its id."""
    return [pytest.param(kind, p, id=kind if p == 1 else f"{kind}-p{p}")
            for kind in kinds for p in (1, 2, 3)]


class TestCounts:
    @pytest.mark.parametrize("kind,expected", FROZEN.items())
    def test_frozen_small_counts(self, kind, expected):
        table = count_walks(WedgeModel(kind, 1), len(expected) - 1)
        assert table.counts == expected

    @pytest.mark.parametrize("kind,p", _slopes(KINDS))
    def test_dp_equals_oracle(self, kind, p):
        # the line models ignore p, so their p = 2, 3 cases check that too
        model = WedgeModel(kind, p)
        n = 12
        assert count_walks(model, n).counts == brute_force_counts(model, n)

    @pytest.mark.parametrize("kind", KINDS)
    def test_dp_equals_dict_reference(self, kind):
        for p in (1, 2, 3, 4):
            assert count_walks(WedgeModel(kind, p), 80).counts == \
                _reference_counts(kind, p, 80), p

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_band_equals_dict_reference_at_every_n_max(self, kind):
        # the band near Y = p*X depends on n_max, so each n_max is its own DP
        for p in (1, 2, 3, 4, 5, 7):
            reference = _reference_counts(kind, p, 60)
            for n_max in range(61):
                assert count_walks(WedgeModel(kind, p), n_max).counts == \
                    reference[:n_max + 1], (p, n_max)

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_band_equals_dict_reference_at_benchmark_sizes(self, kind):
        # count_walks directly: the ``tables`` fixture would cut each table
        # from one longer DP, whose band is not the one of the n_max asked
        for p in (2, 3):
            reference = _reference_counts(kind, p, 101)
            for n_max in (99, 100, 101):
                assert count_walks(WedgeModel(kind, p), n_max).counts == \
                    reference[:n_max + 1], (p, n_max)

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_band_equals_dict_reference_at_steep_slopes(self, kind):
        # columns with more heights (p*X + 1) than kept cells in d
        for p in (7, 10):
            assert count_walks(WedgeModel(kind, p), 100).counts == \
                _reference_counts(kind, p, 100), p

    @pytest.mark.parametrize("kind,p", _slopes(["symmetric", "asymmetric"]))
    def test_columns_are_built_once(self, monkeypatch, kind, p):
        # a builder run per length, not per column, fails these bounds
        column = walks._column
        built = []

        def counted(*args):
            built.append(1)
            return column(*args)

        monkeypatch.setattr(walks, "_column", counted)
        for n_max in (0, 1, 2, 7, 60, 141):
            built.clear()
            count_walks(WedgeModel(kind, p), n_max)
            assert len(built) <= -(-n_max // (p + 1)) + 1, n_max
        for order in (0, 1, 12, 60):
            built.clear()
            weighted_gf(kind, p, order)
            assert len(built) <= order + 1, order

    @pytest.mark.parametrize("kind,closed_form", [("symmetric", cf.gf_sym_g1),
                                                  ("asymmetric", cf.gf_asym_k1)])
    def test_band_equals_closed_form_at_benchmark_sizes(self, kind, closed_form):
        series = closed_form(141)
        for n_max in (139, 140, 141):
            assert count_walks(WedgeModel(kind, 1), n_max).counts == \
                series.coeffs_upto(n_max), n_max

    @pytest.mark.parametrize("kind", KINDS)
    def test_shorter_tables_are_prefixes(self, kind):
        # the ``tables`` fixture serves every shorter table from a longer one
        for p in (1, 3):
            full = count_walks(WedgeModel(kind, p), 45).counts
            for k in range(46):
                assert count_walks(WedgeModel(kind, p), k).counts == full[:k + 1], (p, k)

    def test_state_budget_is_refused_before_any_step(self, monkeypatch):
        def no_step(*_args):
            raise AssertionError("the DP started")

        # the symmetric wedge builds band columns, and the asymmetric wedge
        # also steps the floor column: the guard below is empty unless
        # patching each one stops a small DP that runs it
        for step, kind in (("_column", "symmetric"), ("_line_step", "asymmetric")):
            with monkeypatch.context() as patch:
                patch.setattr(walks, step, no_step)
                with pytest.raises(AssertionError, match="the DP started"):
                    count_walks(WedgeModel(kind, 1), 3)
            monkeypatch.setattr(walks, step, no_step)
        with pytest.raises(BudgetError, match="states"):
            count_walks(WedgeModel("symmetric", 1), 4800)
        with pytest.raises(BudgetError, match="states"):
            count_walks(WedgeModel("symmetric", 2), 4000)

    def test_no_height_column_where_no_line_can_reach(self, monkeypatch):
        # walks that no line constrains are two numbers, not a column by height
        def no_step(*_args):
            raise AssertionError("a height column was stepped")

        monkeypatch.setattr(walks, "_line_step", no_step)
        pell = [1, 3]  # c(n) = 2 c(n - 1) + c(n - 2), from (1 + t)/(1 - 2t - t^2)
        while len(pell) < 5001:
            pell.append(2 * pell[-1] + pell[-2])
        assert count_walks(WedgeModel("free", 1), 5000).counts == pell
        assert count_walks(WedgeModel("symmetric", 1), 200).counts == \
            cf.gf_sym_g1(200).coeffs_upto(200)

    def test_symmetric_memory_is_the_band_alone(self):
        # holding the walks that left the band by height costs 1.95 MB here
        tracemalloc.start()
        try:
            count_walks(WedgeModel("symmetric", 1), 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3e6

    @pytest.mark.parametrize("kind,line,lost", [("symmetric", "free", 2),
                                                ("asymmetric", "halfplane", 1)])
    def test_wide_wedge_is_an_east_step_then_a_line_walk(self, kind, line, lost):
        # after its first east step a walk at column X of length n <= p + 1
        # has |Y| <= n - X <= p*X, so the wedge does not constrain it; at
        # n = p + 2 it loses E N^(p+1), and the symmetric wedge E S^(p+1)
        after = count_walks(WedgeModel(line, 1), 13).counts
        for p in range(1, 13):
            for n_max in (p + 2, 2 * p + 4):
                counts = count_walks(WedgeModel(kind, p), n_max).counts
                assert counts[1:p + 2] == after[:p + 1], (p, n_max)
                assert counts[p + 2] == after[p + 1] - lost, (p, n_max)

    def test_oracle_spot_values(self):
        assert brute_force_oracle(WedgeModel("symmetric", 1), 3) == 5
        assert brute_force_oracle(WedgeModel("asymmetric", 1), 2) == 2
        for kind in KINDS:
            assert brute_force_oracle(WedgeModel(kind, 1), 0) == 1

    def test_free_counts_match_closed_form(self):
        table = count_walks(WedgeModel("free", 1), 30)
        with mpmath.workdps(40):
            r = 1 + mpmath.sqrt(2)
            s = 1 - mpmath.sqrt(2)
            for n, c in enumerate(table.counts):
                closed = (r ** (n + 1) + s ** (n + 1)) / 2
                assert int(mpmath.nint(closed)) == c

    def test_monotone_and_sandwich(self, tables):
        c = tables("free", 60)
        v = tables("symmetric", 60)
        w = tables("asymmetric", 60)
        for n in range(60):
            assert c[n + 1] >= c[n] and v[n + 1] >= v[n] and w[n + 1] >= w[n]
            assert w[n] <= v[n] <= c[n]

    def test_wedge_containment(self):
        v1 = count_walks(WedgeModel("symmetric", 1), 40)
        v2 = count_walks(WedgeModel("symmetric", 2), 40)
        v3 = count_walks(WedgeModel("symmetric", 3), 40)
        assert all(v1[n] <= v2[n] <= v3[n] for n in range(41))

    def test_budget_errors(self):
        with pytest.raises(BudgetError):
            brute_force_oracle(WedgeModel("free", 1), 15)
        with pytest.raises(BudgetError):
            count_walks(WedgeModel("free", 1), 6000)

    def test_csv_export(self):
        table = count_walks(WedgeModel("symmetric", 1), 3)
        assert table.to_csv() == "length,count\n0,1\n1,1\n2,3\n3,5\n"

    def test_json_export_uses_strings(self):
        payload = json.loads(count_walks(WedgeModel("free", 1), 2).to_json())
        assert payload["counts"] == ["1", "3", "7"]


class TestBoundaryFamilies:
    def test_axis_return_counts(self):
        # quarter-plane walks ending on the axis: single vertex, E, EE, {EEE, NES}
        table = count_walks(WedgeModel("quarter_endline", 1), 3)
        assert table.counts == [1, 1, 1, 2]

    def test_flat_boundary_counts(self):
        table = count_walks(WedgeModel("boundary_flat", 1), 3)
        assert table.counts == [1, 1, 1, 1]

    def test_diag_boundary_counts(self):
        # shortest nonempty walk is NE; at length 4: NNEE and NENE
        table = count_walks(WedgeModel("boundary_diag", 1), 4)
        assert table.counts == [1, 0, 1, 0, 2]


class TestWeighted:
    def test_forced_geometry_entries(self):
        w = weighted_gf("symmetric", 1, 6)
        assert w.entries[(1, 1, 1)] == 1  # the single E step at (1, 0)
        h = weighted_gf("asymmetric", 1, 6)
        assert h.entries[(0, 0, 0)] == 1  # the single-vertex walk

    def test_length3_horizontal_enders(self):
        w = weighted_gf("symmetric", 1, 6)
        total = sum(c for (n, _i, _j), c in w.entries.items() if n == 3)
        assert total == 3  # EEE, ENE, ESE
        assert total == brute_force_oracle(WedgeModel("symmetric", 1), 3,
                                           ending="horizontal")

    @pytest.mark.parametrize("kind,p", _slopes(["symmetric", "asymmetric"]))
    def test_collapse_matches_oracle(self, kind, p):
        w = weighted_gf(kind, p, 12)
        counts = w.horizontal_counts()
        oracle = [brute_force_oracle(WedgeModel(kind, p), n, ending="horizontal")
                  for n in range(13)]
        assert counts == oracle

    def test_exponent_bounds(self):
        w = weighted_gf("asymmetric", 2, 10)
        assert all(0 <= i <= 3 * n and 0 <= j <= 3 * n
                   for (n, i, j) in w.entries)

    def test_json_export(self):
        payload = json.loads(weighted_gf("asymmetric", 1, 4).to_json())
        assert payload["model"] == "asymmetric"
        assert [0, 0, 0, "1"] in payload["entries"]

    @pytest.mark.parametrize("kind,p", _slopes(["symmetric", "asymmetric"]))
    def test_json_bytes_equal_json_dumps(self, kind, p):
        for order in (0, 1, 7, 30):
            w = weighted_gf(kind, p, order)
            triples = sorted([n, i, j, str(c)] for (n, i, j), c in w.entries.items())
            assert w.to_json() == json.dumps(
                {"schema": 1, "model": kind, "p": p, "order": order, "entries": triples},
                sort_keys=True)

    def test_budget(self):
        with pytest.raises(BudgetError):
            weighted_gf("symmetric", 1, 61)

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_negative_order_is_refused(self, kind):
        with pytest.raises(ValueError, match="order"):
            weighted_gf(kind, 1, -1)

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_slope_below_one_is_refused(self, kind):
        with pytest.raises(ValueError, match="slope"):
            weighted_gf(kind, 0, 5)

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_entries_equal_dict_reference(self, kind):
        # order 60 is the budget edge, where each column is cut at Y <= order - X
        for p in (1, 2, 3, 4, 5, 7):
            for order in (40, 60):
                assert weighted_gf(kind, p, order).entries == \
                    _reference_weighted(kind, p, order), (p, order)

    @pytest.mark.parametrize("kind,p", _slopes(["symmetric", "asymmetric"]))
    def test_entries_are_inserted_in_key_order(self, kind, p):
        # to_json sorts the keys, which costs one pass when they are in order
        entries = weighted_gf(kind, p, 30).entries
        assert list(entries) == sorted(entries)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_symmetric_steps_only_its_half(self, monkeypatch, p):
        # the mirror floor stores 0 <= Y <= p*X, the asymmetric wedge's cells
        column = walks._column

        def cells(kind):
            built = []

            def counted(*args):
                tot, out = column(*args)
                built.append(sum(map(len, tot)))
                return tot, out

            with monkeypatch.context() as patch:
                patch.setattr(walks, "_column", counted)
                weighted_gf(kind, p, 30)
            return sum(built)

        assert cells("symmetric") == cells("asymmetric") > 0

    @pytest.mark.parametrize("kind,p", _slopes(["symmetric", "asymmetric"]))
    def test_columns_keep_only_enders_within_the_order(self, monkeypatch, kind, p):
        # cell (X, Y, d) of a column is read as the ender at X + 1, of length
        # X + 1 + Y + 2d; none longer than the order is built
        column = walks._column
        built = []

        def counted(east, sizes, mirror):
            built.append(sum(sizes))
            return column(east, sizes, mirror)

        monkeypatch.setattr(walks, "_column", counted)
        for order in (0, 1, 12, 31):
            built.clear()
            weighted_gf(kind, p, order)
            assert sum(built) == sum(1 for x in range(order) for y in range(p * x + 1)
                                     for d in range(order) if x + 1 + y + 2 * d <= order)

    @pytest.mark.parametrize("kind,p", [("symmetric", 1), ("asymmetric", 2)])
    def test_evaluation_equals_fraction_formula(self, kind, p):
        w = weighted_gf(kind, p, 16)
        values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3),
                  Fraction(-5, 4), Fraction(3)]

        def fraction_sum(monomials):
            coeffs = {}
            for k, c in monomials:
                if k <= w.order:
                    coeffs[k] = coeffs.get(k, Fraction(0)) + c
            return tpoly(coeffs, w.order)

        for a in values:
            assert w.series_lower(a) == fraction_sum(
                (n + j, c * a ** (i + j)) for (n, i, j), c in w.entries.items())
            assert w.series_upper(a) == fraction_sum(
                (n + i, c * a ** (i + j)) for (n, i, j), c in w.entries.items())
            for b in values:
                assert w.series_at(a, b) == fraction_sum(
                    (n, c * a ** i * b ** j) for (n, i, j), c in w.entries.items())


class TestGrowth:
    def test_supermultiplicative_spot_value(self, tables):
        v = tables("symmetric", 10)
        assert v[2] * v[2] == 9 <= v[5] == 27

    def test_zero_length_edge(self, tables):
        v = tables("symmetric", 30)
        assert all(v[0] * v[m] <= v[m + 1] for m in range(30))

    def test_prepend_inequality(self, tables):
        # the spot case: b_2^1 <= w_5
        b = tables("quarter_endline", 4)
        w = tables("asymmetric", 10)
        assert b[2] ** 1 <= w[5]
