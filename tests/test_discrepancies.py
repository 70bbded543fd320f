"""The ledger: DISCREPANCIES.md tells its story entry for entry, each
reported verdict names its entry, and ``ledger explain`` shows the same
mismatch as the verdict."""

import ast
import contextlib
import io
import os
import re

import pytest

from wedgewalks import cli, discrepancies, suites
from wedgewalks.series import TSeries

NARRATIVE = os.path.join(os.path.dirname(__file__), os.pardir, "DISCREPANCIES.md")
CHECKS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "checks.py")

#: entries that no identity names: their evidence is text only
IDENTITY_FREE = ("p2-summand-tail", "sqrt-n-constant-pair", "accuracy-table-figures")

#: the first mismatched exponent of each identity-backed entry at order 12
FIRST_MISMATCH = {"halfplane-gf": -2, "flat-boundary-interpretation": 6,
                  "diag-boundary-interpretation": 3, "term-by-term-solution": -1}


def sections() -> dict[str, list[str]]:
    """Each ``## <id>`` heading of the narrative -> the texts under it."""
    with open(NARRATIVE) as fh:
        parts = re.split(r"^## (\S+)\n", fh.read(), flags=re.M)
    out: dict[str, list[str]] = {}
    for heading, body in zip(parts[1::2], parts[2::2]):
        out.setdefault(heading, []).append(body)
    return out


def test_one_section_per_entry():
    found = sections()
    assert sorted(found) == sorted(d.id for d in discrepancies.LEDGER)
    assert all(len(bodies) == 1 for bodies in found.values())


def test_every_observed_figure_is_in_its_section():
    found = sections()
    for d in discrepancies.LEDGER:
        for figure in re.findall(r"\d+\.\d+(?:e-?\d+)?%?", d.observed):
            assert figure in found[d.id][0], (d.id, figure)


def benchmark_ledgered() -> dict[str, str]:
    """The benchmark's identity -> ledger id table, read without running it."""
    with open(CHECKS) as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LEDGERED" for t in node.targets))


def reported_verdicts(order: int = 12):
    return [v for name in ("closedform", "interpretations")
            for v in suites.run_suite(name, order=order) if v.status == "reported"]


def note_ledger_id(note: str) -> str:
    found = re.fullmatch(r"ledger (\S+): (.*)", note)
    assert found, note
    assert found[2] == discrepancies.get(found[1]).title
    return found[1]


def test_reported_verdicts_name_the_benchmark_entry():
    ledgered = benchmark_ledgered()
    reported = reported_verdicts()
    assert sorted(note_ledger_id(v.note) for v in reported) == sorted(FIRST_MISMATCH)
    for v in reported:
        assert note_ledger_id(v.note) == ledgered[v.identity], v.identity


def test_unknown_ledger_id_raises():
    with pytest.raises(KeyError, match="bogus"):
        suites._verdict("kernel", "names a missing entry", 5, TSeries.t_power(1, 5),
                        ledger="bogus")


def test_every_entry_is_named_or_identity_free():
    identities = suites.solution_identities(1, 12) + suites.interpretation_identities(12)
    named = {ledger for _identity, _lhs, _rhs, ledger in identities if ledger}
    assert not named & set(IDENTITY_FREE)
    assert sorted(named | set(IDENTITY_FREE)) == sorted(d.id for d in discrepancies.LEDGER)
    assert sorted(named) == sorted(FIRST_MISMATCH)


@pytest.mark.parametrize("entry_id", sorted(FIRST_MISMATCH))
def test_explain_shows_the_verdicts_first_mismatch(entry_id):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["ledger", "explain", "--id", entry_id]) == 0
    shown = [int(k) for k in re.findall(r"first mismatch at t\^(-?\d+)", out.getvalue())]
    verdicts = [v for v in reported_verdicts() if note_ledger_id(v.note) == entry_id]
    assert shown == [v.first_bad_coefficient for v in verdicts] == [FIRST_MISMATCH[entry_id]]
