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
share no transition code.

The dynamic program works in the sheared height h = Y - ls*X, where ls is the
slope of the lower line (0 when there is none).  The lower line becomes
h >= 0, an east step adds -ls to h, and the upper line of a wedge becomes
h <= width*X.  Only the two wedges have an upper line, so only they need X;
the five line models are keyed by h alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

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

    def _geometry(self) -> tuple[bool, int, int | None]:
        """(has_lo, shift, width) in the sheared height h = Y - ls*X.

        The lower line is h >= 0 when ``has_lo``; an east step adds ``shift``
        (= -ls) to h; the upper line is h <= width*X, and ``width`` is None
        for the models without one.
        """
        if self.kind == "free":
            return False, 0, None
        if self.kind == "symmetric":
            return True, self.p, 2 * self.p
        if self.kind == "asymmetric":
            return True, 0, self.p
        if self.kind == "boundary_diag":
            return True, -1, None
        return True, 0, None


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


def _frontier_total(model: WedgeModel, frontier) -> int:
    kind = model.kind
    if kind == "quarter_endline":
        return sum(e + u + d for (x, h), (e, u, d) in frontier.items() if h == 0)
    if kind in ("boundary_flat", "boundary_diag"):
        return sum(e for (x, h), (e, u, d) in frontier.items() if h == 0)
    return sum(e + u + d for e, u, d in frontier.values())


def _step(frontier, has_lo: bool, shift: int, width: int | None):
    """Extend every walk of the frontier by one step; the only transition loop.

    The frontier maps (X, h) to the counts [east-or-start, north, south] split
    by the arriving step.  Without an upper line (``width`` None) X stays 0.
    """
    has_up = width is not None
    dx = 1 if has_up else 0
    new: dict[tuple[int, int], list[int]] = {}
    get = new.get
    for (x, h), (e, u, d) in frontier.items():
        tot = e + u + d
        x1 = x + dx
        h1 = h + shift
        if (not has_lo or h1 >= 0) and (not has_up or h1 <= width * x1):
            key = (x1, h1)
            cur = get(key)
            if cur is None:
                new[key] = [tot, 0, 0]
            else:
                cur[0] += tot
        eu = e + u
        if eu and (not has_up or h < width * x):
            key = (x, h + 1)
            cur = get(key)
            if cur is None:
                new[key] = [0, eu, 0]
            else:
                cur[1] += eu
        ed = e + d
        if ed and (not has_lo or h > 0):
            key = (x, h - 1)
            cur = get(key)
            if cur is None:
                new[key] = [0, 0, ed]
            else:
                cur[2] += ed
    return new


def count_walks(model: WedgeModel, n_max: int) -> CountTable:
    """Exact counts of walks of every length 0..n_max.

    Per-length frontier keyed by (X, h), h the sheared height, holding counts
    split by the arriving step; X stays 0 for the five line models, which are
    keyed by h alone.  Memory is reclaimed each step.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > _MAX_N:
        raise BudgetError(f"n_max={n_max} exceeds the budget of {_MAX_N}")
    geometry = model._geometry()
    frontier: dict[tuple[int, int], list[int]] = {(0, 0): [1, 0, 0]}
    counts = [_frontier_total(model, frontier)]
    for n in range(1, n_max + 1):
        frontier = _step(frontier, *geometry)
        if len(frontier) > _MAX_STATES:
            raise BudgetError(f"state budget exceeded at length {n}")
        counts.append(_frontier_total(model, frontier))
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
        a, b = Fraction(a), Fraction(b)
        coeffs: dict[int, Fraction] = {}
        for (n, i, j), c in self.entries.items():
            coeffs[n] = coeffs.get(n, Fraction(0)) + c * a**i * b**j
        return TSeries.from_dict(coeffs, self.order)

    def series_lower(self, a: Fraction) -> TSeries:
        """f(a, t*a): the b -> t*a specialization (endpoint on the lower line)."""
        a = Fraction(a)
        coeffs: dict[int, Fraction] = {}
        for (n, i, j), c in self.entries.items():
            k = n + j
            if k <= self.order:
                coeffs[k] = coeffs.get(k, Fraction(0)) + c * a ** (i + j)
        return TSeries.from_dict(coeffs, self.order)

    def series_upper(self, b: Fraction) -> TSeries:
        """f(t*b, b): the a -> t*b specialization (endpoint on the upper line)."""
        b = Fraction(b)
        coeffs: dict[int, Fraction] = {}
        for (n, i, j), c in self.entries.items():
            k = n + i
            if k <= self.order:
                coeffs[k] = coeffs.get(k, Fraction(0)) + c * b ** (i + j)
        return TSeries.from_dict(coeffs, self.order)

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
    has_lo, shift, width = WedgeModel(kind, p)._geometry()
    entries: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    frontier: dict[tuple[int, int], list[int]] = {(0, 0): [1, 0, 0]}
    for n in range(1, order + 1):
        frontier = _step(frontier, has_lo, shift, width)
        # i = width*X - h is the distance below the upper line, j = h above the lower
        for (x, h), (e, _u, _d) in frontier.items():
            if e:
                key = (n, width * x - h, h)
                entries[key] = entries.get(key, 0) + e
    return WeightedSeries(kind, p, order, entries)


def growth_inequalities(kind: str, p: int, n_max: int, m_max: int) -> dict:
    """Super-multiplicativity v_n * v_m <= v_{n+m+1} over the given ranges."""
    table = count_walks(WedgeModel(kind, p), n_max + m_max + 1)
    violations = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            if table[n] * table[m] > table[n + m + 1]:
                violations.append((n, m))
    return {
        "model": kind,
        "p": p,
        "n_max": n_max,
        "m_max": m_max,
        "ok": not violations,
        "first_violation": violations[0] if violations else None,
    }


def prepend_inequality(p: int, n_max: int, reps_max: int) -> dict:
    """b_n**N <= w_{ceil(n*p) + n*N + N, p} for n <= n_max, N <= reps_max.

    b_n counts quarter-plane walks ending on the axis; prepending ceil(n*p)+1
    horizontal steps fits each block inside the asymmetric wedge.  For
    integer p the ceiling is just n*p.
    """
    worst = n_max * p + n_max * reps_max + reps_max
    btable = count_walks(WedgeModel("quarter_endline", 1), n_max)
    wtable = count_walks(WedgeModel("asymmetric", p), worst)
    violations = []
    for n in range(n_max + 1):
        for reps in range(1, reps_max + 1):
            idx = n * p + n * reps + reps  # ceil(n*p) = n*p for integer p
            if btable[n] ** reps > wtable[idx]:
                violations.append((n, reps))
    return {
        "p": p,
        "n_max": n_max,
        "reps_max": reps_max,
        "ok": not violations,
        "first_violation": violations[0] if violations else None,
    }
