"""DISCREPANCIES.md tells the story of the ledger module, entry for entry."""

import os
import re

from wedgewalks import discrepancies

NARRATIVE = os.path.join(os.path.dirname(__file__), os.pardir, "DISCREPANCIES.md")


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
