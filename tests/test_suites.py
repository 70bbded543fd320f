"""Verification suite registry."""

import json

import pytest

from wedgewalks import suites


@pytest.mark.parametrize("order", [0, 1, 3, 30])
def test_kernel_suite_clean(order):
    # orders 0, 1 and 3 multiply a zero series by one of negative valuation
    summary = suites.summarize(suites.run_suite("kernel", order=order))
    assert summary["clean"]
    assert summary["counts"]["fail"] == 0


def test_funceq_suite_clean():
    summary = suites.summarize(suites.run_suite("funceq", order=20))
    assert summary["clean"]


def test_closedform_suite_clean():
    summary = suites.summarize(suites.run_suite("closedform", order=60))
    assert summary["clean"]
    # the printed term-by-term expression is a ledgered report, not a failure
    assert summary["counts"]["reported"] >= 1


def test_growth_suite_clean():
    summary = suites.summarize(suites.run_suite("growth", n_max=15, sandwich_n=40))
    assert summary["clean"]


def test_summary_is_json_and_deterministic():
    a = json.dumps(suites.summarize(suites.run_suite("interpretations")),
                   sort_keys=True)
    b = json.dumps(suites.summarize(suites.run_suite("interpretations")),
                   sort_keys=True)
    assert a == b


def test_unknown_suite_rejected():
    try:
        suites.run_suite("bogus")
    except ValueError as exc:
        assert "bogus" in str(exc)
    else:
        raise AssertionError("expected ValueError")
