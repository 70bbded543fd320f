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
(X + 1, d).  With w = p for the symmetric wedge and w = 0 for the asymmetric
one, the full domain -w*X <= Y <= p*X is

    max(0, ceil((n - X - p*X)/2)) <= d <= min(n - X, floor((n - X + w*X)/2)).

``weighted_gf`` needs every endpoint and steps that full domain, and the
state budget is checked on it.  ``count_walks`` needs only the totals, so it
keeps a band of the wedge: the cells that can still reach Y = p*X in the
steps left to n_max, above Y = 0.  A walk that leaves the band moves into
one column indexed by its height Y, where it steps as a ``halfplane`` walk
(asymmetric wedge) or a ``free`` walk (symmetric wedge) from then on.

The five line models are one column indexed by the sheared height
h = Y - ls*X, ls the slope of the lower line (0 when there is none): an east
step adds -ls to h, a north or south step adds +1 or -1, and h ranges over
[0, n].  ``free`` and the symmetric wedge are stored as their half Y >= 0:
the reflection Y -> -Y swaps north and south arrivals, so at Y = 0 the
north arrivals equal the south ones (the mirror floor), and the count is
twice the stored walks less those on Y = 0.  Each target list is one source
list shifted by its move and clipped to the target range, so a step does no
per-state dictionary work; the frontier size at any length is known before
the first step.
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

    def _geometry(self):
        """(moves, span): the state space of the DP over the whole domain.

        A state is (column, index).  ``moves`` holds the (column, index)
        offsets of an east, a north and a south step; ``span(n, c)`` is the
        closed index range (lo, hi) of column c at length n, empty when
        lo > hi.  Every vertex of a walk is the endpoint at some length, so
        the span is the whole domain condition (for ``free``, its half
        Y >= 0).  ``count_walks`` keeps only a band of a wedge's span.
        """
        p = self.p
        if self.kind in ("symmetric", "asymmetric"):
            # column X, index d = south steps so far, Y = n - X - 2d;
            # -w*X <= Y <= p*X with w = p (symmetric) or 0 (asymmetric)
            w = p if self.kind == "symmetric" else 0

            def span(n: int, x: int) -> tuple[int, int]:
                return max(0, (n - x - p * x + 1) // 2), min(n - x, (n - x + w * x) // 2)

            return ((1, 0), (0, 0), (0, 1)), span
        # one column, indexed by h = Y - ls*X with ls the lower-line slope;
        # free keeps only its half h >= 0 (see _mirror)
        shift = -1 if self.kind == "boundary_diag" else 0
        return ((0, shift), (0, 1), (0, -1)), lambda n, x: (0, n)


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


def _window(src: list[int], start: int, size: int) -> list[int]:
    """``src[start:start + size]``, reading 0 outside ``src``."""
    if size <= 0:
        return []
    if start >= 0:
        out = src[start:start + size]
    else:
        out = [0] * min(-start, size) + src[:max(0, start + size)]
    if len(out) < size:
        out += [0] * (size - len(out))
    return out


def _step(columns: list, n: int, moves, span) -> tuple[list, list]:
    """Extend every walk by one step, to length n; the only transition function.

    ``columns[c]`` is (lo, e, u, d): the counts of walks ending at indices
    lo, lo + 1, ... of column c, split by the arriving step (east or start,
    north, south).  An east step may follow any step, a north step any but a
    south one, and a south step any but a north one; each target list is one
    source list, shifted by its move and clipped to the target span.
    Returns the new columns and, per old column, the number of walks of
    length n - 1 at each of its cells (e + u + d).
    """
    # per source column, what may take an east, a north and a south step
    sources = []
    for lo, e, u, d in columns:
        eu = list(map(add, e, u))
        sources.append((lo, (list(map(add, eu, d)), eu, list(map(add, e, d)))))
    grow = max(dc for dc, _dk in moves)
    new = []
    for c in range(len(columns) + grow):
        lo, hi = span(n, c)
        size = hi - lo + 1
        lists = []
        for which, (dc, dk) in enumerate(moves):
            s = c - dc
            if 0 <= s < len(sources):
                src_lo, src = sources[s]
                lists.append(_window(src[which], lo - dk - src_lo, size))
            else:
                lists.append([0] * max(0, size))
        new.append((lo, *lists))
    return new, [totals for _lo, (totals, _eu, _ed) in sources]


def _frontier_size(moves, span, n: int) -> int:
    """Cells of the frontier at length n; spans only grow, so this is the peak."""
    grow = max(dc for dc, _dk in moves)
    spans = (span(n, c) for c in range(1 + grow * n))
    return sum(max(0, hi - lo + 1) for lo, hi in spans)


def _spill(band: list, line: tuple, n: int, near) -> None:
    """Move the band cells that can no longer reach Y = p*X into the line column.

    Column X keeps the indices d < near(X); a cell beyond, at height
    Y = n - X - 2d, joins the line column at Y with its east and south
    arrivals (a north step keeps d, so it never leaves the band).  Trailing
    columns left empty are dropped: ``_step`` grows a column again when the
    one before it still has an east step to give.
    """
    _lo, line_e, _u, line_d = line
    for x, (lo, e, u, d) in enumerate(band):
        keep = max(0, near(x) - lo)
        if keep < len(e):
            y = n - x - 2 * (lo + keep)
            for k in range(keep, len(e)):
                line_e[y] += e[k]
                line_d[y] += d[k]
                y -= 2
            del e[keep:], u[keep:], d[keep:]
    while band and not band[-1][1]:
        band.pop()


def _mirror(band: list, line: tuple, n: int) -> int:
    """The mirror floor of a model stored as its half Y >= 0; returns the
    walks of length n that end on Y = 0.

    The reflection Y -> -Y maps walks to walks and swaps north and south
    arrivals, so the north arrivals at a Y = 0 cell, which come from the
    unstored Y = -1, equal its south arrivals.  A band column's Y = 0 cell
    is its top index (n - X)/2, when it is kept.
    """
    on_floor = 0
    for x, (lo, e, u, d) in enumerate(band):
        if e and 2 * (lo + len(e) - 1) == n - x:
            u[-1] = d[-1]
            on_floor += e[-1] + 2 * d[-1]
    _lo, e, u, d = line
    u[0] = d[0]
    return on_floor + e[0] + 2 * d[0]


def count_walks(model: WedgeModel, n_max: int) -> CountTable:
    """Exact counts of walks of every length 0..n_max.

    One integer list per column and arriving step, over the column's span at
    each length (see ``WedgeModel._geometry``).  The frontier size of the
    full domain at n_max is known in advance, so an over-budget request is
    refused before any work; it bounds what the DP below holds.

    The two wedges keep only a band near the line Y = p*X.  The line still
    constrains a walk at index d only if the walk could step over it within
    the N - n steps left (N = n_max), that is p*X - Y + 1 <= N - n, or
    d < near(X) = ceil((N - (p+1)*X)/2), a bound that does not depend on n;
    so column X keeps

        max(0, ceil((n - (p+1)*X)/2)) <= d <= min(floor((n - X)/2), near(X) - 1).

    A walk that can no longer reach Y = p*X never feels that line again, so
    the cells that leave the band join one line column indexed by Y (see
    ``_spill``): the ``halfplane`` model for the asymmetric wedge, whose floor
    Y = 0 is a wall, and the ``free`` model for the symmetric wedge, which can
    no longer reach Y = -p*X either.  The symmetric wedge and ``free`` are
    stored as their half Y >= 0 with a mirror floor (see ``_mirror``), and
    count 2*(all stored walks) - (those on Y = 0).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > _MAX_N:
        raise BudgetError(f"n_max={n_max} exceeds the budget of {_MAX_N}")
    moves, span = model._geometry()
    states = _frontier_size(moves, span, n_max)
    if states > _MAX_STATES:
        raise BudgetError(f"n_max={n_max} needs {states} states, "
                          f"over the budget of {_MAX_STATES}")
    pinned = model.kind in ("quarter_endline", "boundary_flat", "boundary_diag")
    mirrored = model.kind in ("free", "symmetric")

    def pinned_count(line) -> int:
        # walks ending at h = 0, index 0 of the one column
        _lo, e, u, d = line[0]
        if model.kind == "quarter_endline":
            return e[0] + u[0] + d[0]
        return e[0]

    band, line = [], [(0, [1], [0], [0])]
    line_moves, line_span = moves, span
    if model.kind in ("symmetric", "asymmetric"):
        p = model.p

        def near(x: int) -> int:
            return (n_max - (p + 1) * x + 1) // 2

        def band_span(n: int, x: int) -> tuple[int, int]:
            # up to near(X - 1) - 1: the cells an east or a south step
            # carries out of the band, for _spill to move
            return max(0, (n - x - p * x + 1) // 2), min((n - x) // 2, near(x - 1) - 1)

        band, line = line, [(0, [0], [0], [0])]
        line_moves, line_span = WedgeModel("free" if mirrored else "halfplane")._geometry()
    on_floor = 1  # walks on Y = 0 at the current length (mirrored models)
    counts = []
    for n in range(1, n_max + 1):
        if pinned:
            counts.append(pinned_count(line))
        totals = []
        if band:
            band, totals = _step(band, n, moves, band_span)
        line, line_totals = _step(line, n, line_moves, line_span)
        if not pinned:  # the walks of length n - 1
            total = sum(map(sum, totals)) + sum(line_totals[0])
            counts.append(2 * total - on_floor if mirrored else total)
        if band:
            _spill(band, line[0], n, near)
        if mirrored:
            on_floor = _mirror(band, line[0], n)
    if pinned:
        counts.append(pinned_count(line))
    else:
        total = sum(sum(e) + sum(u) + sum(d) for _lo, e, u, d in band + line)
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
    if not terms:
        return TSeries.zero(order)
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
        triples = sorted(
            [n, i, j, str(c)] for (n, i, j), c in self.entries.items()
        )
        return json.dumps(
            {
                "schema": 1,
                "model": self.kind,
                "p": self.p,
                "order": self.order,
                "entries": triples,
            },
            sort_keys=True,
        )


def weighted_gf(kind: str, p: int, order: int) -> WeightedSeries:
    """Trivariate DP for f_p (symmetric) or h_p (asymmetric)."""
    if kind not in ("symmetric", "asymmetric"):
        raise ValueError("weighted series exist for the symmetric and asymmetric models only")
    if order > 60:
        raise BudgetError(f"weighted order {order} exceeds the budget of 60")
    moves, span = WedgeModel(kind, p)._geometry()
    w = p if kind == "symmetric" else 0  # the lower line is Y = -w*X
    entries: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    columns = [(0, [1], [0], [0])]
    for n in range(1, order + 1):
        columns, _ = _step(columns, n, moves, span)
        # i = p*X - Y is the distance below the upper line, j = w*X + Y above the lower
        for x, (lo, e, _u, _d) in enumerate(columns):
            for k, c in enumerate(e):
                if c:
                    y = n - x - 2 * (lo + k)
                    entries[(n, p * x - y, w * x + y)] = c
    return WeightedSeries(kind, p, order, entries)

