"""Exact enumeration of partially directed walks in wedge geometries.

Walks start at the origin, take unit steps east, north or south, and are
self-avoiding because a north step never follows a south step or vice versa.
Seven vertex domains are supported:

    free            no constraint (X >= 0 is automatic: east is the only
                    horizontal step)
    symmetric       -p*X <= Y <= p*X
    asymmetric      0 <= Y <= p*X
    halfplane       Y >= 0
    quarter_endline Y >= 0, counted only when the final vertex has Y = 0
    boundary_flat   Y >= 0, final vertex on Y = 0 and final step horizontal
    boundary_diag   Y >= X, final vertex on Y = X and final step horizontal

Two independent counters are provided: a per-length dynamic program, and an
exhaustive depth-first generator used as an oracle for small lengths.  They
share no transition code: the band, the height column and the mirror floor
below live in the DP only, and the oracle walks the raw domain.

The dynamic program keeps, for each length n, one integer list per column
and arriving step (east or start, north, south), over a closed index range.
The two wedges are indexed by column X and d, the number of south steps so
far, so Y = n - X - 2d and only the reachable parity of Y is stored: a north
step keeps (X, d), a south step goes to (X, d + 1) and an east step to
(X + 1, d).  Both wedges are stepped over 0 <= Y <= p*X only,

    max(0, ceil((n - X - p*X)/2)) <= d <= floor((n - X)/2),

with a wall floor Y = 0 (asymmetric wedge) or a mirror floor (symmetric
wedge, see below).  The state budget alone is defined on the whole domain
-w*X <= Y <= p*X, with w = p for the symmetric wedge and w = 0 for the
asymmetric one (``_frontier_size``).

One step (``_wedge_step``) is the wedges' only transition: it builds each new
column X from old columns X and X - 1 with three list additions and three
slices, clipped to the column's range as it is built.  ``weighted_gf`` needs
every endpoint and steps all of 0 <= Y <= p*X.  ``count_walks`` needs only
the totals, so the same step keeps a band of it: the cells that can still
reach Y = p*X in the steps left to n_max.  A cell that leaves the band goes
straight into one column indexed by its height Y, where it steps as a
``halfplane`` walk (asymmetric wedge) or a ``free`` walk (symmetric wedge)
from then on.

The five line models, and that height column, are one column indexed by the
sheared height h = Y - ls*X, ls the slope of the lower line (0 when there is
none), stepped by ``_line_step``: an east step adds -ls to h, a north or
south step adds +1 or -1, and h ranges over [0, n].  ``free`` and the
symmetric wedge are stored as their half Y >= 0: the reflection Y -> -Y
swaps north and south arrivals, so at Y = 0 the north arrivals equal the
south ones (the mirror floor), and the count is twice the stored walks less
those on Y = 0; ``weighted_gf`` writes each stored endpoint of the symmetric
wedge also as its mirror at -Y.  No step does per-state dictionary work, and
the frontier size at any length is known before the first step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .errors import BudgetError
from .series import TSeries

KINDS = (
    "free",
    "symmetric",
    "asymmetric",
    "halfplane",
    "quarter_endline",
    "boundary_flat",
    "boundary_diag",
)

_MAX_N = 5000
_MAX_BRUTE = 14
_MAX_STATES = 5_000_000


@dataclass(frozen=True)
class WedgeModel:
    """A walk domain; ``p`` is the wedge slope (ignored where irrelevant)."""

    kind: str
    p: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.p < 1:
            raise ValueError("wedge slope p must be a positive integer")

    def contains(self, x: int, y: int) -> bool:
        if x < 0:
            return False
        if self.kind == "free":
            return True
        if self.kind == "symmetric":
            return -self.p * x <= y <= self.p * x
        if self.kind == "asymmetric":
            return 0 <= y <= self.p * x
        if self.kind == "boundary_diag":
            return y >= x
        # halfplane, quarter_endline, boundary_flat
        return y >= 0

    def endpoint_ok(self, x: int, y: int, last: str | None) -> bool:
        if self.kind == "quarter_endline":
            return y == 0
        if self.kind == "boundary_flat":
            return y == 0 and last in (None, "E")
        if self.kind == "boundary_diag":
            return y == x and last in (None, "E")
        return True


@dataclass
class CountTable:
    model: WedgeModel
    counts: list[int] = field(default_factory=list)

    def __getitem__(self, n: int) -> int:
        return self.counts[n]

    def __len__(self) -> int:
        return len(self.counts)

    def to_csv(self) -> str:
        lines = ["length,count"]
        lines += [f"{n},{c}" for n, c in enumerate(self.counts)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "model": self.model.kind,
                "p": self.model.p,
                "counts": [str(c) for c in self.counts],
            },
            sort_keys=True,
        )


def _frontier_size(model: WedgeModel, n: int) -> int:
    """Cells of the whole domain at length n (for ``free``, its half Y >= 0).

    The domain only grows with n, so this bounds every frontier of the DP.
    """
    if model.kind not in ("symmetric", "asymmetric"):
        return n + 1
    p = model.p
    w = p if model.kind == "symmetric" else 0
    return sum(max(0, min(n - x, (n - x + w * x) // 2) - max(0, (n - x - p * x + 1) // 2) + 1)
               for x in range(n + 1))


def _wedge_step(band: list, n: int, p: int, reach: int | None,
                line: tuple | None = None, mirror: bool = False) -> tuple[list, int, int]:
    """Extend every wedge walk by one step, to length n; the wedges' only transition.

    ``band[X]`` is (lo, e, u, d): the counts of walks ending at (X, d) for
    d = lo, lo + 1, ..., split by the arriving step (east or start, north,
    south).  An east step may follow any step, a north step any but a south
    one, and a south step any but a north one.  New column X is built from
    old column X (north keeps d, south adds 1 to it) and old column X - 1
    (east keeps d), clipped as it is built to

        lo = max(0, ceil((n - (p+1)*X)/2)) <= d <= hi = min(floor, near(X) - 1),

    with floor = floor((n - X)/2) the floor Y = 0 and near(X) =
    ceil((reach - (p+1)*X)/2) the band (none when ``reach`` is None).  A
    north step over Y = p*X or a south step below the floor is dropped; a
    cell past near(X) - 1 goes straight into the line column ``line`` =
    (e, u, d) at its height Y = n - X - 2d.  Without ``mirror`` the floor is
    a wall (the asymmetric wedge); with it the floor is a mirror (the
    symmetric wedge, see ``count_walks``): the north arrivals at a Y = 0
    cell, from the unstored Y = -1, are set to its south arrivals.

    Returns the new band, the number of walks of length n - 1 in the old
    band, and (with ``mirror``) the number of walks of length n on Y = 0.
    """
    new = []
    total = on_floor = 0
    east_lo, east_src = 0, []  # old column X - 1, all of which may step east
    q = p + 1
    # a last, empty old column: the new column that east steps open
    for x, (src_lo, e, u, d) in enumerate(band + [(0, [], [], [])]):
        # what may step north (a new top cell gets 0), south (shifted by
        # one, so that index j is target d = src_lo + j) and east
        eu = [*map(add, e, u), 0]
        ed = [0, *map(add, e, d)]
        tot = list(map(add, eu, d))
        total += sum(tot)
        lo = (n - q * x + 1) // 2
        if lo < 0:
            lo = 0
        hi = floor = (n - x) // 2
        if reach is not None and (reach - q * x - 1) // 2 < hi:
            hi = (reach - q * x - 1) // 2  # near(X) - 1
        size = hi - lo + 1
        if size > 0:
            # lo >= src_lo and hi grows by at most one, so eu and ed (the old column,
            # stored whole, and one cell) cover the new one; only east falls short
            north = eu[lo - src_lo:hi - src_lo + 1]
            south = ed[lo - src_lo:hi - src_lo + 1]
            east = east_src[:hi - east_lo + 1]
            if east_lo > lo:
                east = [0] * (east_lo - lo) + east
            if len(east) < size:
                east += [0] * (size - len(east))
            if mirror and n - x == 2 * hi:
                north[-1] = south[-1]
                on_floor += east[-1] + 2 * south[-1]
            new.append((lo, east, north, south))
        else:
            new.append((lo, [], [], []))
        if hi < floor:
            # east steps from d > hi and the south step from d = hi leave the band
            line_e, _u, line_d = line
            y = n - x - 2 * max(hi + 1, east_lo)
            for c in east_src[max(0, hi + 1 - east_lo):]:
                line_e[y] += c
                y -= 2
            if src_lo <= hi < src_lo + len(e):
                line_d[n - x - 2 * hi - 2] += ed[hi + 1 - src_lo]
        east_lo, east_src = src_lo, tot
    while new and not new[-1][1]:
        new.pop()
    return new, total, on_floor


def _line_step(line: tuple, shift: int) -> tuple[tuple, list]:
    """Extend every walk of a one-column model by one step, to length n.

    ``line`` is (e, u, d) over the heights h = 0..n - 1.  An east step adds
    ``shift`` (0 or -1) to h, a north step 1 and a south step -1; a step to
    h < 0 is dropped.  Returns the new lists, over h = 0..n, and the walks
    of length n - 1 at each old height.
    """
    e, u, d = line
    eu = list(map(add, e, u))
    ed = list(map(add, e, d))
    tot = list(map(add, eu, d))
    east = tot + [0] if shift == 0 else tot[1:] + [0, 0]
    return (east, [0] + eu, ed[1:] + [0, 0]), tot


def count_walks(model: WedgeModel, n_max: int) -> CountTable:
    """Exact counts of walks of every length 0..n_max.

    The size of the whole domain at n_max is known in advance, so an
    over-budget request is refused before any step; it bounds what the DP
    below holds.

    The two wedges keep only a band near the line Y = p*X.  The line still
    constrains a walk at index d only if the walk could step over it within
    the N - n steps left (N = n_max), that is p*X - Y + 1 <= N - n, or
    d < near(X) = ceil((N - (p+1)*X)/2), a bound that does not depend on n;
    so column X keeps

        max(0, ceil((n - (p+1)*X)/2)) <= d <= min(floor((n - X)/2), near(X) - 1).

    A walk that can no longer reach Y = p*X never feels that line again.  The
    step that builds each band column (``_wedge_step``) sends the cells that
    leave the band, by an east step from column X - 1 or a south step from
    d = near(X) - 1, straight into one line column indexed by Y, which steps
    as the ``halfplane`` model for the asymmetric wedge, whose floor Y = 0 is
    a wall, and as the ``free`` model for the symmetric wedge, which can no
    longer reach Y = -p*X either (``_line_step``).  The symmetric wedge and
    ``free`` are stored as their half Y >= 0 with a mirror floor: the
    reflection Y -> -Y swaps north and south arrivals, so the north arrivals
    at a Y = 0 cell equal its south arrivals, and the count is
    2*(all stored walks) - (those on Y = 0).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > _MAX_N:
        raise BudgetError(f"n_max={n_max} exceeds the budget of {_MAX_N}")
    states = _frontier_size(model, n_max)
    if states > _MAX_STATES:
        raise BudgetError(f"n_max={n_max} needs {states} states, "
                          f"over the budget of {_MAX_STATES}")
    pinned = model.kind in ("quarter_endline", "boundary_flat", "boundary_diag")
    mirrored = model.kind in ("free", "symmetric")
    shift = -1 if model.kind == "boundary_diag" else 0

    def pinned_count(line) -> int:
        # walks ending at h = 0
        e, u, d = line
        if model.kind == "quarter_endline":
            return e[0] + u[0] + d[0]
        return e[0]

    band, line = [], ([1], [0], [0])
    if model.kind in ("symmetric", "asymmetric"):
        band, line = [(0, [1], [0], [0])], ([0], [0], [0])
    on_floor = 1  # walks on Y = 0 at the current length (mirrored models)
    counts = []
    for n in range(1, n_max + 1):
        if pinned:
            counts.append(pinned_count(line))
        line, line_cells = _line_step(line, shift)
        band_total = band_floor = 0
        if band:
            band, band_total, band_floor = _wedge_step(band, n, model.p, n_max, line, mirrored)
        if not pinned:  # the walks of length n - 1
            total = band_total + sum(line_cells)
            counts.append(2 * total - on_floor if mirrored else total)
        if mirrored:
            e, u, d = line
            u[0] = d[0]
            on_floor = band_floor + e[0] + 2 * d[0]
    if pinned:
        counts.append(pinned_count(line))
    else:
        total = sum(sum(e) + sum(u) + sum(d) for _lo, e, u, d in band) + sum(map(sum, line))
        counts.append(2 * total - on_floor if mirrored else total)
    return CountTable(model, counts)


def brute_force_oracle(model: WedgeModel, n: int, ending: str = "any") -> int:
    """Exhaustive depth-first count of length-n walks; independent of the DP.

    ``ending='horizontal'`` restricts to walks that are a single vertex or
    end in a horizontal step (on top of the model's own endpoint condition).
    """
    if n > _MAX_BRUTE:
        raise BudgetError(f"n={n} too large for exhaustive search (max {_MAX_BRUTE})")

    def accept(x: int, y: int, last: str | None) -> int:
        if ending == "horizontal" and last not in (None, "E"):
            return 0
        return 1 if model.endpoint_ok(x, y, last) else 0

    def rec(x: int, y: int, last: str | None, remaining: int) -> int:
        if remaining == 0:
            return accept(x, y, last)
        total = 0
        if model.contains(x + 1, y):
            total += rec(x + 1, y, "E", remaining - 1)
        if last != "S" and model.contains(x, y + 1):
            total += rec(x, y + 1, "N", remaining - 1)
        if last != "N" and model.contains(x, y - 1):
            total += rec(x, y - 1, "S", remaining - 1)
        return total

    return rec(0, 0, None, n)


def brute_force_counts(model: WedgeModel, n_max: int, ending: str = "any") -> list[int]:
    return [brute_force_oracle(model, n, ending) for n in range(n_max + 1)]


def _scaled_powers(num: int, den: int, top: int) -> list[int]:
    """num^k * den^(top - k) for k = 0..top: (num/den)^k over den^top."""
    nums, dens = [1], [1]
    for _ in range(top):
        nums.append(nums[-1] * num)
        dens.append(dens[-1] * den)
    return [x * y for x, y in zip(nums, reversed(dens))]


def _monomial_sum(terms, a, b, order: int) -> TSeries:
    """The sum of c * a^i * b^j * t^k over (k, c, i, j) with k <= order.

    Exact over the one denominator den(a)^I * den(b)^J, I and J the largest
    exponents, with every power computed once.
    """
    a, b = Fraction(a), Fraction(b)
    terms = [term for term in terms if term[0] <= order]
    top_i = max(i for _k, _c, i, _j in terms)
    top_j = max(j for _k, _c, _i, j in terms)
    apow = _scaled_powers(a.numerator, a.denominator, top_i)
    bpow = _scaled_powers(b.numerator, b.denominator, top_j)
    lo = min(k for k, _c, _i, _j in terms)
    num = [0] * (max(k for k, _c, _i, _j in terms) - lo + 1)
    for k, c, i, j in terms:
        num[k - lo] += c * apow[i] * bpow[j]
    return TSeries.from_numerators(lo, num, a.denominator ** top_i * b.denominator ** top_j,
                                   order)


class WeightedSeries:
    """Endpoint-distance-weighted counts of horizontal-ending walks.

    ``entries[(n, i, j)]`` is the number of walks of length n that are a
    single vertex or end in a horizontal step, where the boundary-distance
    exponents of the final vertex (X, Y) are

        symmetric  model: i = p*X - Y   (distance from Y = +p*X)
                          j = p*X + Y   (distance from Y = -p*X)
        asymmetric model: i = p*X - Y
                          j = Y         (distance from Y = 0)

    This is the exponent convention under which the column-by-column
    functional equation holds identically; appending a run of k up steps that
    lands on the upper boundary maps a^i b^j to y^k b^(i+j), which is exactly
    the a -> y*b substitution.
    """

    def __init__(self, kind: str, p: int, order: int,
                 entries: dict[tuple[int, int, int], int]):
        self.kind = kind
        self.p = p
        self.order = order
        self.entries = entries

    def series_at(self, a: Fraction, b: Fraction) -> TSeries:
        """f(a, b) as a series in t at rational a, b."""
        return _monomial_sum(((n, c, i, j) for (n, i, j), c in self.entries.items()),
                             a, b, self.order)

    def series_lower(self, a: Fraction) -> TSeries:
        """f(a, t*a): the b -> t*a specialization (endpoint on the lower line)."""
        return _monomial_sum(((n + j, c, i + j, 0) for (n, i, j), c in self.entries.items()),
                             a, 1, self.order)

    def series_upper(self, b: Fraction) -> TSeries:
        """f(t*b, b): the a -> t*b specialization (endpoint on the upper line)."""
        return _monomial_sum(((n + i, c, 0, i + j) for (n, i, j), c in self.entries.items()),
                             1, b, self.order)

    def horizontal_counts(self) -> list[int]:
        """a = b = 1 collapse: counts of horizontal-ending walks by length."""
        out = [0] * (self.order + 1)
        for (n, _i, _j), c in self.entries.items():
            out[n] += c
        return out

    def to_json(self) -> str:
        """The entries as [n, i, j, "count"] sorted by (n, i, j), keys sorted.

        Written by hand: the same bytes as ``json.dumps(..., sort_keys=True)``
        of the lists, about 30 % faster, as no list is built per entry and
        only the integer keys are sorted.
        """
        ents = self.entries
        rows = ", ".join([f'[{n}, {i}, {j}, "{ents[n, i, j]}"]' for n, i, j in sorted(ents)])
        return (f'{{"entries": [{rows}], "model": {json.dumps(self.kind)}, '
                f'"order": {self.order}, "p": {self.p}, "schema": 1}}')


def weighted_gf(kind: str, p: int, order: int) -> WeightedSeries:
    """Trivariate DP for f_p (symmetric) or h_p (asymmetric).

    The wedge step of ``count_walks`` over all of 0 <= Y <= p*X, with no
    band.  The symmetric wedge is stepped as its half Y >= 0 with the mirror
    floor, and each horizontal ender there is written under (n, i, j) and,
    for its mirror walk at -Y, (n, j, i); on Y = 0 the two keys are one.
    """
    if kind not in ("symmetric", "asymmetric"):
        raise ValueError("weighted series exist for the symmetric and asymmetric models only")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > 60:
        raise BudgetError(f"weighted order {order} exceeds the budget of 60")
    WedgeModel(kind, p)  # refuses p < 1
    mirror = kind == "symmetric"
    entries: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    columns = [(0, [1], [0], [0])]
    for n in range(1, order + 1):
        columns, _total, _floor = _wedge_step(columns, n, p, None, mirror=mirror)
        # i = p*X - Y is the distance below the upper line and j = span - i
        # the distance above the lower line Y = -p*X (symmetric) or Y = 0; at
        # Y = n - X - 2d a step down the column adds 2 to i
        for x, (lo, e, _u, _d) in enumerate(columns):
            i = (p + 1) * x - n + 2 * lo
            span = 2 * p * x if mirror else p * x
            for c in e:
                if c:
                    entries[n, i, span - i] = c
                    if mirror:  # the mirror walk, at -Y
                        entries[n, span - i, i] = c
                i += 2
    return WeightedSeries(kind, p, order, entries)
