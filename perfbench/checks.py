"""Correctness checks on the output of each benchmark job.

Three kinds of check feed the error count:

* ``digest``: count and series output must be byte-identical to the output
  of the seed commit, whose sha256 digests are recorded in digests.json.
* ``verify``: exit 0, and every verdict is ``pass``, or ``reported`` for an
  identity that a discrepancy-ledger entry covers.  No digest is compared,
  so that verdicts gaining fields or fixed false failures are not errors.
* ``asympt``: every constant with a reference agrees with it within the
  reported ``abs_error``, that error is within the method's accuracy, and
  the root audit reports ``ok``.

On top of these, :func:`independent_checks` recomputes count and series
output along a second path that shares no code with the first: DP counts
against closed-form coefficients and against the exhaustive oracle, closed
forms against DP counts.
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: reported verdicts and the ledger entry that covers each
LEDGERED = {
    "H(a,ta) printed term-by-term expression vs simplified": "term-by-term-solution",
    "Q_asym(1) vs t^3 (B_flat - 1)": "flat-boundary-interpretation",
    "P(1) vs t^3 (B_diag - 1)": "diag-boundary-interpretation",
    "half-plane printed closed form vs enumeration": "halfplane-gf",
    # the B - 1 convention note belongs to the two interpretation entries
    "B-series constant term convention": "flat-boundary-interpretation",
}

#: relative accuracy a fitted constant must reach at the benchmark's nmax
FIT_RTOL = Decimal("0.01")

#: lengths up to which the exhaustive oracle and the closed forms are compared
ORACLE_N = 12
CROSS_N = 40


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())["digests"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(job, rc, data: bytes, digests: dict[str, str], ledger_ids) -> str | None:
    """None when the job's output is correct, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    if job.check == "digest":
        want = digests.get(job.key)
        if want is None:
            return "no recorded digest for this job"
        return None if sha256(data) == want else "output differs from the seed commit"
    payload = json.loads(data)
    if job.check == "verify":
        return _check_verdicts(payload, ledger_ids)
    return _check_constants(payload)


def _check_verdicts(summary: dict, ledger_ids) -> str | None:
    for v in summary["results"]:
        if v["status"] == "pass":
            continue
        if v["status"] == "reported" and LEDGERED.get(v["identity"]) in ledger_ids:
            continue
        return f"verdict {v['status']}: {v['identity']}"
    return None if summary["clean"] else "summary not clean"


def _check_constants(payload: dict) -> str | None:
    import mpmath
    from wedgewalks.asymptotics import REFERENCES

    for r in payload["reports"]:
        name = r["constant"]
        if name == "halfplane":
            with mpmath.workdps(r["digits"] + 10):
                closed = mpmath.sqrt((7 + 5 * mpmath.sqrt(2)) / (2 * mpmath.pi))
                want = Decimal(mpmath.nstr(closed, r["digits"] + 5))
            gap = abs(Decimal(r["value"]) - want)
            if gap > Decimal(10) ** (2 - r["digits"]):
                return f"halfplane constant off by {gap}"
        if r["reference"] is None:
            continue
        if r["reference"] != REFERENCES.get(name):
            return f"{name}: reference {r['reference']} is not the recorded one"
        value, ref, err = (Decimal(r["value"]), Decimal(r["reference"]),
                           Decimal(r["abs_error"]))
        ulp = Decimal(10) ** value.as_tuple().exponent
        if abs(value - ref) > err * Decimal("1.01") + ulp:
            return f"{name}: |value - reference| exceeds the reported abs_error {err}"
        if r["method"] == "analytic":
            ref_places = -ref.as_tuple().exponent
            tol = Decimal(10) ** (1 - min(r["digits"], ref_places))
        else:
            tol = FIT_RTOL * abs(ref)
        if err > tol:
            return f"{name}: abs_error {err} above {tol}"
    audit = payload.get("root_audit")
    if audit is not None and not audit["ok"]:
        return "root audit not ok"
    return None


# -- independent paths --------------------------------------------------------

def parse_counts(data: bytes) -> list[int]:
    text = data.decode()
    if text.startswith("{"):
        return [int(c) for c in json.loads(text)["counts"]]
    return [int(line.split(",")[1]) for line in text.splitlines()[1:]]


def parse_series(data: bytes) -> dict[int, Fraction]:
    text = data.decode()
    if text.startswith("{"):
        payload = json.loads(text)
        return {payload["valuation"] + i: Fraction(int(n), int(d))
                for i, (n, d) in enumerate(payload["coeffs"])}
    rows = (line.split(",") for line in text.splitlines()[1:])
    return {int(k): Fraction(c) for k, c in rows}


def _flag(argv, name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


class References:
    """Second-path values, computed once per run and shared between jobs."""

    def __init__(self):
        from wedgewalks import closedforms, walks
        self.cf, self.walks = closedforms, walks
        self._cache: dict = {}

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def oracle(self, kind: str, p: int) -> list[int]:
        model = self.walks.WedgeModel(kind, p)
        return self._get(("oracle", kind, p),
                         lambda: self.walks.brute_force_counts(model, ORACLE_N))

    def dp(self, kind: str, p: int, n: int) -> list[int]:
        model = self.walks.WedgeModel(kind, p)
        return self._get(("dp", kind, p, n),
                         lambda: self.walks.count_walks(model, n).counts)

    def closed_form(self, kind: str) -> list[Fraction]:
        return self._get(("cf", kind),
                         lambda: self.cf.gf_series(kind, CROSS_N).coeffs_upto(CROSS_N))

    def horizontal(self, kind: str) -> list[int]:
        return self._get(("h", kind), lambda: self.walks.weighted_gf(
            kind, 1, CROSS_N).horizontal_counts())


#: DP model at slope 1 whose counts a closed-form series kind enumerates
_GF_OF_MODEL = {"symmetric": "sym_g1", "asymmetric": "asym_k1", "free": "free"}
_MODEL_OF_GF = {gf: model for model, gf in _GF_OF_MODEL.items()}
_HORIZONTAL_OF_GF = {"sym_f1": "symmetric", "asym_h1": "asymmetric"}


def independent_check(job, data: bytes, refs: References) -> str | None:
    """Compare a count or series job's output with a second computation."""
    argv = job.argv
    if argv[0] == "count":
        kind, p = argv[argv.index("--model") + 1], int(_flag(argv, "--p", "1"))
        counts = parse_counts(data)
        if counts[:ORACLE_N + 1] != refs.oracle(kind, p)[:len(counts)]:
            return "counts differ from the exhaustive oracle"
        if p == 1 and kind in _GF_OF_MODEL:
            cf = refs.closed_form(_GF_OF_MODEL[kind])
            m = min(len(counts), len(cf))
            if counts[:m] != cf[:m]:
                return f"counts differ from the {_GF_OF_MODEL[kind]} closed form"
        return None
    if argv[0] != "series":
        return None
    kind = argv[argv.index("--kind") + 1]
    if kind == "weighted":
        model, p = _flag(argv, "--model", "symmetric"), int(_flag(argv, "--p", "1"))
        payload = json.loads(data)
        per_length = [0] * (payload["order"] + 1)
        for n, _i, _j, c in payload["entries"]:
            per_length[n] += int(c)
        # a horizontal-ending walk is any walk one step shorter plus an east
        # step, which never leaves a wedge
        totals = refs.dp(model, p, payload["order"])
        want = [1] + totals[:-1]
        return None if per_length == want else "weighted entries differ from DP counts"
    if _flag(argv, "--a", "1") != "1":
        return None
    coeffs = parse_series(data)
    order = int(argv[argv.index("--order") + 1])
    m = min(order, CROSS_N)
    got = [coeffs.get(k, Fraction(0)) for k in range(m + 1)]
    if kind in _MODEL_OF_GF:
        want = refs.dp(_MODEL_OF_GF[kind], 1, CROSS_N)
    elif kind in _HORIZONTAL_OF_GF:
        want = refs.horizontal(_HORIZONTAL_OF_GF[kind])
    elif kind == "dyck":
        want = [math.comb(2 * k, k) // (k + 1) for k in range(CROSS_N + 1)]
    else:
        return None
    return None if got == want[:m + 1] else f"{kind} coefficients differ from enumeration"
