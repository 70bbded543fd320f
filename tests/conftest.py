import dataclasses
import os

import pytest

from wedgewalks.walks import WedgeModel, count_walks, weighted_gf

# the tests that start ``python -m wedgewalks.cli`` import the package from
# this checkout's src, as pytest's ``pythonpath`` setting does for this process
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def tables():
    """Memoized exact count tables shared across the whole run.

    Each table has lengths 0..n exactly, cut from the longest one counted so
    far, as ``count_walks(model, n)`` would return it (the fits read their
    nodes off the table's length).
    """
    cache = {}

    def get(kind: str, n: int, p: int = 1):
        key = (kind, p)
        if key not in cache or len(cache[key]) <= n:
            cache[key] = count_walks(WedgeModel(kind, p), n)
        return dataclasses.replace(cache[key], counts=cache[key].counts[:n + 1])

    return get


@pytest.fixture(scope="session")
def weighted():
    cache = {}

    def get(kind: str, p: int, order: int):
        key = (kind, p)
        if key not in cache or cache[key].order < order:
            cache[key] = weighted_gf(kind, p, order)
        return cache[key]

    return get
