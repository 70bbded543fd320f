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

Two independent counters are provided: a dynamic program, and an exhaustive
depth-first generator used as an oracle for small lengths.  They share no
transition code: the band, the height column and the mirror floor below live
in the DP only, and the oracle walks the raw domain.

The dynamic program keeps integer lists split by the arriving step (east or
start, north, south).  The two wedges index a cell by column X, height Y and
d, the number of south steps so far, at length n = X + Y + 2d: a north step
keeps (X, d), a south step goes from Y to Y - 1 and from d to d + 1, and an
east step from X to X + 1.  So one list over d holds the whole history of
one height of one column, and ``_column`` builds every height of column X at
once from column X - 1 alone: the east arrivals are the old column's
totals, the north arrivals a running sum up the column and the south
arrivals a shifted running sum down it.  Both wedges are built over
0 <= Y <= p*X only, with a wall floor Y = 0 (asymmetric wedge) or a mirror
floor (symmetric wedge, see below).  The state budget alone is defined on
the whole domain -w*X <= Y <= p*X, with w = p for the symmetric wedge and
w = 0 for the asymmetric one (``_frontier_size``).

``weighted_gf`` needs every endpoint, so it keeps at each height the cells
whose east step ends at most its order long, fewer the higher the row
(the ``sizes`` of ``_column``).  ``count_walks`` needs only the totals, so
it keeps a band of each column: the cells that can still reach Y = p*X in
the steps left to n_max, which is d < near(X) at every height (``_band``).
A cell that leaves the band is stored by length as an inflow to one column
indexed by its height Y, where it steps as a ``halfplane`` walk (asymmetric
wedge) or a ``free`` walk (symmetric wedge) from then on.  The band's totals by length
come from the top and floor of each column, with no pass over its cells.

The five line models, and that height column, are one column indexed by the
sheared height h = Y - ls*X, ls the slope of the lower line (0 when there is
none), stepped over n by ``_line_step``: an east step adds -ls to h, a north
or south step adds +1 or -1, and h ranges over [0, n].  ``free`` and the
symmetric wedge are stored as their half Y >= 0: the reflection Y -> -Y
swaps north and south arrivals, so at Y = 0 the north arrivals equal the
south ones (the mirror floor), and the count is twice the stored walks less
those on Y = 0; ``weighted_gf`` writes each stored endpoint of the symmetric
wedge also as its mirror at -Y.  No step does per-state dictionary work, and
the frontier size at any length is known before the first step.
"""

from __future__ import annotations

import functools
import json
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
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


def _column(east: list, sizes: list, mirror: bool) -> tuple[list, list]:
    """The whole history of one wedge column X: every height at every length.

    ``east[Y]`` lists, over d = 0, 1, ..., the walks at (X - 1, Y) after d
    south steps; each steps east to (X, Y) with the same d, and each row
    holds at least ``sizes[Y]`` cells.  Column X is built over the heights
    Y = 0..top, top = len(sizes) - 1, and at height Y over d = 0..sizes[Y] - 1,
    its cell (Y, d) at length n = X + Y + 2d; ``sizes`` never rises with Y,
    and falls by at most one from one height to the next.  Heights
    Y >= len(east) get no east arrivals.  An east step may follow any step,
    a north step any but a south one, and a south step any but a north one,
    so

        north arrivals at Y = east + north arrivals at Y - 1, same d
        south arrivals at Y = east + south arrivals at Y + 1, at d - 1:

    a running sum up the column and a shifted one down it.  Y = 0 gets no
    north arrivals without ``mirror`` (a wall floor, the asymmetric wedge)
    and its own south arrivals with it (the mirror floor of the symmetric
    wedge, see ``count_walks``).  Above the last east row every walk arrived
    by north steps, so those heights share one list, which may hold more
    cells than they keep.

    Returns (tot, out): tot[Y], the walks at (X, Y) over d = 0..sizes[Y] - 1,
    and out[Y], the south arrivals at (X, Y) with d = sizes[Y], which leave
    the kept range (none reach the heights Y >= len(east) - 1).
    """
    rows = min(len(east), len(sizes))
    south, out = [], [0] * (rows - 1)  # south arrivals, from the top down
    s = [0] * sizes[rows - 1]
    for y in range(rows - 1, 0, -1):
        s = list(map(add, east[y], s))  # the walks at Y that may step south
        if len(s) == sizes[y - 1]:
            out[y - 1] = s.pop()
        s.insert(0, 0)
        south.append(s)
    u = s if mirror else [0] * sizes[0]
    tot = []
    for y in range(rows - 1):
        u = list(map(add, east[y], u))  # the walks at Y that may step north
        tot.append(list(map(add, u, south.pop())))
    u = list(map(add, east[rows - 1], u))
    tot += [u] * (len(sizes) - rows + 1)
    return tot, out


def _band(p: int, n_max: int, mirror: bool) -> tuple[list, list, list]:
    """The band of a wedge (see ``count_walks``), built column by column.

    Column X keeps d <= near(X) - 1, near(X) = ceil((n_max - (p+1)*X)/2),
    at every height 0 <= Y <= p*X; each of its walks has length at most
    n_max - 1.  A walk that steps out of it, east from column X - 1 with
    d >= near(X) or south from d = near(X) - 1, is stored per length as an
    inflow of the line column at its height Y.

    The band walks of each length come from the columns' edges alone.  A
    walk of length n - 1 steps east, or on in its column: one way after a
    north or south step and two after an east step, unless the column's
    top or floor blocks it or it leaves the band.  So, with E[n] the band's
    east arrivals of length n, E[n] = B[n - 1] - (east outflow at n) and

        B[n] = E[n] + E[n - 1] + B[n - 1] - (blocked at n - 1) - (south outflow at n).

    A walk is blocked by the top Y = p*X after an east or north step, which
    is every walk there, and by a wall floor after an east or south step,
    which is every walk on Y = 0.  With ``mirror`` B counts the whole
    symmetric band: each stored walk off Y = 0 has a mirror walk, the floor
    blocks nothing, and the bottom Y = -p*X mirrors the top, so the blocked
    walks, the south outflow and the east outflow off Y = 0 count twice.

    Returns B over the lengths 0..n_max, and the east and south inflows of
    each length, each a flat list Y, walks, Y, walks, ...
    """
    q, twice = p + 1, 2 if mirror else 1
    blocked = [0] * (n_max + 1)  # at n: the walks of length n - 1 blocked
    out_e, out_s = [0] * (n_max + 1), [0] * (n_max + 1)
    east_in = [[] for _ in range(n_max + 1)]
    south_in = [[] for _ in range(n_max + 1)]
    x, east = 0, [[1] + [0] * (n_max // 2)]  # the empty walk enters column 0
    while True:
        size = (n_max + 1 - q * x) // 2  # near(X)
        for y, row in enumerate(east):
            n = x + y + 2 * max(size, 0)
            for c in row[max(size, 0):]:
                if c:
                    east_in[n] += y, c
                    out_e[n] += c if y == 0 else twice * c
                n += 2
        if size <= 0:
            break
        top = p * x
        tot, out = _column(east, [size] * (top + 1), mirror)
        n = x + 2 * size
        for y, c in enumerate(out):
            if c:
                south_in[n] += y, c
                out_s[n] += c
            n += 1
        for y in (top,) if mirror else (top, 0):
            lo, hi = x + y + 1, x + y + 2 * size
            blocked[lo:hi:2] = map(add, blocked[lo:hi:2], tot[y])
        x, east = x + 1, tot
    walks, e_prev, b = [], 0, 0
    for n in range(n_max + 1):
        e = (b if n else 1) - out_e[n]
        b += e + e_prev - twice * (blocked[n] + out_s[n])
        walks.append(b)
        e_prev = e
    return walks, east_in, south_in


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
    d < near(X) = ceil((N - (p+1)*X)/2), a bound that depends on neither n
    nor Y; so column X keeps d <= near(X) - 1 at every height 0 <= Y <= p*X,
    and ``_band`` builds the band column by column, each at all of its
    lengths (``_column``).

    A walk that can no longer reach Y = p*X never feels that line again.
    The walks that leave the band, by an east step from column X - 1 or a
    south step from d = near(X) - 1, are kept by length as inflows to one
    line column indexed by Y, which steps over n as the ``halfplane`` model
    for the asymmetric wedge, whose floor Y = 0 is a wall, and as the
    ``free`` model for the symmetric wedge, which can no longer reach
    Y = -p*X either (``_line_step``).  The symmetric wedge and ``free`` are
    stored as their half Y >= 0 with a mirror floor: the reflection
    Y -> -Y swaps north and south arrivals, so the north arrivals at a Y = 0
    cell equal its south arrivals, and the line's count is
    2*(all stored walks) - (those on Y = 0); the band's count is of the
    whole symmetric band already.
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

    wedge = model.kind in ("symmetric", "asymmetric")
    band, line = [0] * (n_max + 1), ([1], [0], [0])

    def pour(n):
        # the walks that leave the band at length n enter the line column
        e, _u, d = line
        for inflow, cells in ((east_in[n], e), (south_in[n], d)):
            pairs = iter(inflow)
            for y, c in zip(pairs, pairs):
                cells[y] += c

    if wedge:
        band, east_in, south_in = _band(model.p, n_max, mirrored)
        line = ([0], [0], [0])
        pour(0)
    on_floor = line[0][0]  # line walks on Y = 0 at the current length (mirrored models)
    counts = []
    for n in range(1, n_max + 1):
        if pinned:
            counts.append(pinned_count(line))
        line, line_cells = _line_step(line, shift)
        if not pinned:  # the walks of length n - 1
            total = sum(line_cells)
            counts.append(band[n - 1] + (2 * total - on_floor if mirrored else total))
        if wedge:
            pour(n)
        if mirrored:
            e, u, d = line
            u[0] = d[0]
            on_floor = e[0] + 2 * d[0]
    if pinned:
        counts.append(pinned_count(line))
    else:
        total = sum(map(sum, line))
        counts.append(band[n_max] + (2 * total - on_floor if mirrored else total))
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

    The counts are held as ``weighted_gf`` finds them: ``ends`` lists the
    endpoints (i, j), and ``lengths[n]`` is (ids, counts), the indices into
    ``ends`` of the endpoints reached at length n, in (i, j) order, and the
    nonzero count at each.  The series and the JSON text read them there;
    ``entries`` is the dictionary view, built on first use.
    """

    def __init__(self, kind: str, p: int, order: int, ends: list[tuple[int, int]],
                 lengths: list[tuple[list[int], list[int]]]):
        self.kind = kind
        self.p = p
        self.order = order
        self.ends = ends
        self.lengths = lengths

    def terms(self):
        """(n, count, i, j) for every entry, in (n, i, j) order."""
        ends = self.ends
        for n, (ids, counts) in enumerate(self.lengths):
            for e, c in zip(ids, counts):
                i, j = ends[e]
                yield n, c, i, j

    @functools.cached_property
    def entries(self) -> dict[tuple[int, int, int], int]:
        return {(n, i, j): c for n, c, i, j in self.terms()}

    def series_at(self, a: Fraction, b: Fraction) -> TSeries:
        """f(a, b) as a series in t at rational a, b."""
        return _monomial_sum(self.terms(), a, b, self.order)

    def series_lower(self, a: Fraction) -> TSeries:
        """f(a, t*a): the b -> t*a specialization (endpoint on the lower line)."""
        return _monomial_sum(((n + j, c, i + j, 0) for n, c, i, j in self.terms()),
                             a, 1, self.order)

    def series_upper(self, b: Fraction) -> TSeries:
        """f(t*b, b): the a -> t*b specialization (endpoint on the upper line)."""
        return _monomial_sum(((n + i, c, 0, i + j) for n, c, i, j in self.terms()),
                             1, b, self.order)

    def horizontal_counts(self) -> list[int]:
        """a = b = 1 collapse: counts of horizontal-ending walks by length."""
        return [sum(counts) for _ids, counts in self.lengths]

    def to_json(self) -> str:
        """The entries as [n, i, j, "count"] sorted by (n, i, j), keys sorted.

        Written by hand: the same bytes as ``json.dumps(..., sort_keys=True)``
        of the lists, in about a third of the time, as each endpoint's
        "i, j" is written once and each length's "[n, " once.
        """
        ends = [f"{i}, {j}" for i, j in self.ends]
        rows = []
        for n, (ids, counts) in enumerate(self.lengths):
            head = f"[{n}, "
            rows += [f'{head}{ends[e]}, "{c}"]' for e, c in zip(ids, counts)]
        return (f'{{"entries": [{", ".join(rows)}], "model": {json.dumps(self.kind)}, '
                f'"order": {self.order}, "p": {self.p}, "schema": 1}}')


def weighted_gf(kind: str, p: int, order: int) -> WeightedSeries:
    """Trivariate DP for f_p (symmetric) or h_p (asymmetric).

    The column builder of ``count_walks`` with no band: column X keeps, at
    each height Y <= min(p*X, order - X - 1), the cells whose east step ends
    at most the order long, d <= (order - X - Y - 1)/2, which holds every
    horizontal ender of length at most the order.  The symmetric wedge is
    built as its half Y >= 0 with the mirror floor, and each horizontal
    ender there is written under (i, j) and, for its mirror walk at -Y,
    (j, i); on Y = 0 the two are one.  Each row, the walks at one (X, Y)
    over d, is one endpoint of ``WeightedSeries.ends``; the rows of each
    parity of n are kept in (i, j) order, so every length reads its counts
    in key order with no sort.
    """
    if kind not in ("symmetric", "asymmetric"):
        raise ValueError("weighted series exist for the symmetric and asymmetric models only")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > 60:
        raise BudgetError(f"weighted order {order} exceeds the budget of 60")
    WedgeModel(kind, p)  # refuses p < 1
    mirror = kind == "symmetric"
    # a row, the walks at (X, Y) over d, is one (i, j): i = p*X - Y is the
    # distance below the upper line and j = span - i the distance above the
    # lower line Y = -p*X (symmetric) or Y = 0; it is read at the lengths
    # n0, n0 + 2, ... through the order, n0 = X + Y
    starts = [[] for _ in range(order + 1)]  # ((i, j), cells) by n0
    east = [[1] + [0] * (order // 2)]  # the empty walk enters column 0
    starts[0].append(((0, 0), east[0]))
    for x in range(order):
        # column X, then its walks as the horizontal enders at X + 1, kept
        # where those are at most the order long
        sizes = [(order + 1 - x - y) // 2 for y in range(min(p * x, order - x - 1) + 1)]
        east = _column(east, sizes, mirror)[0]
        span = 2 * p * (x + 1) if mirror else p * (x + 1)
        for y, row in enumerate(east):
            i, n = p * (x + 1) - y, x + 1 + y
            starts[n].append(((i, span - i), row))
            if mirror and y:  # the mirror walks, at -Y
                starts[n].append(((span - i, i), row))
    ends, lengths = [], []
    live = [([], [], []), ([], [], [])]  # per parity of n: (i, j), id and cells, by (i, j)
    for n, new in enumerate(starts):
        keys, ids, cells = live[n & 1]
        for key, row in new:
            at = bisect(keys, key)
            keys.insert(at, key)
            ids.insert(at, len(ends))
            cells.insert(at, iter(row))
            ends.append(key)
        counts = list(map(next, cells))
        lengths.append((list(compress(ids, counts)), list(compress(counts, counts))))
    return WeightedSeries(kind, p, order, ends, lengths)
