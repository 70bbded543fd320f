"""Verification suite registry."""

import contextlib
import io
import json

import pytest

from wedgewalks import cli, kernel, suites
from wedgewalks.series import TSeries
from wedgewalks.walks import count_walks


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


@pytest.mark.parametrize("name", ["kernel", "funceq", "closedform", "interpretations"])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 6, 7, 12, 30])
def test_no_verdict_claims_more_than_its_residuals_know(monkeypatch, name, order):
    # a residual reliable only through t^k cannot back a verdict on t^order, k < order
    short = []
    verdict = suites._verdict

    def checked(suite, identity, vorder, *residuals, **kwargs):
        short.extend((identity, kwargs.get("a"), r.order, vorder)
                     for r in residuals if r.order < vorder)
        return verdict(suite, identity, vorder, *residuals, **kwargs)

    monkeypatch.setattr(suites, "_verdict", checked)
    summary = suites.summarize(suites.run_suite(name, order=order))
    assert short == []
    assert summary["clean"]


def test_short_residual_is_an_internal_error(monkeypatch):
    # a verdict on t^order cannot rest on a residual known only to t^(order-1)
    original = kernel.mixed_inverse_check

    def short(a, b, order):
        first, second = original(a, b, order)
        return first.truncate(order - 1), second

    monkeypatch.setattr(kernel, "mixed_inverse_check", short)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--suite", "kernel", "--order", "6"])
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue() == (
        "error: OrderUnderflowError: alpha_1(beta_-1(a)) = a and beta_1(alpha_-1(b)) = b:"
        " a residual is reliable to t^5, below the order 6\n")


def test_growth_suite_clean():
    summary = suites.summarize(suites.run_suite("growth"))
    assert summary["clean"]


def test_growth_suite_counts_each_model_once(monkeypatch):
    calls = []

    def counting(model, n_max):
        calls.append((model.kind, model.p))
        return count_walks(model, n_max)

    monkeypatch.setattr(suites, "count_walks", counting)
    suites.suite_growth()
    assert len(calls) == len(set(calls)) == 8


def test_broken_supermultiplicativity_is_a_fail_verdict(monkeypatch):
    # v_7 = v_6 - 1 breaks v_0 v_6 <= v_7, the first pair the suite tries
    def broken(model, n_max):
        table = count_walks(model, n_max)
        if (model.kind, model.p) == ("symmetric", 1):
            table.counts[7] = table.counts[6] - 1
        return table

    monkeypatch.setattr(suites, "count_walks", broken)
    verdicts = [v for v in suites.run_suite("growth")
                if v.identity == "super-multiplicativity"]
    results = {(v.parameters["model"], v.parameters["p"]): (v.status, v.note) for v in verdicts}
    assert results.pop(("symmetric", 1)) == ("fail", "(0, 6)")
    assert len(results) == 5 and set(results.values()) == {("pass", "")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--suite", "growth"]) == cli.EXIT_VERIFY_FAIL


#: small arguments per suite, so that each runs twice in a few seconds
_SMALL = {
    "funceq": {"order": 8},
    "closedform": {"order": 12},
    "interpretations": {},
    "growth": {},
    "kernel": {"order": 4},
}


@pytest.mark.parametrize("name", list(_SMALL))
def test_summary_is_json_and_deterministic(name):
    a = json.dumps(suites.summarize(suites.run_suite(name, **_SMALL[name])), sort_keys=True)
    b = json.dumps(suites.summarize(suites.run_suite(name, **_SMALL[name])), sort_keys=True)
    assert a == b


@pytest.mark.parametrize("fn,n,k", [("beta_composed", 1, 4), ("gamma_composed", 2, 5)])
def test_broken_identity_is_a_fail_verdict(monkeypatch, fn, n, k):
    # add t^k to the n-th composition: the closed = composed verdict fails at t^k
    original = getattr(kernel, fn)

    def perturbed(m, a, order):
        res = original(m, a, order)
        return res + TSeries.t_power(k, res.order) if m == n else res

    monkeypatch.setattr(kernel, fn, perturbed)
    identity = f"{fn.split('_')[0]}_{n} closed = composed"
    (verdict,) = [v for v in suites.run_suite("kernel", order=5) if v.identity == identity]
    assert (verdict.status, verdict.first_bad_coefficient) == ("fail", k)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--suite", "kernel", "--order", "5"]) == cli.EXIT_VERIFY_FAIL


def test_script_coefficient_failure_names_the_identity(monkeypatch):
    t = TSeries.t_power(1, 30)
    monkeypatch.setattr(kernel, "script_coeffs",
                        lambda n, a, order: [("holds", t, t), ("breaks", t, t + t ** 3)])
    verdicts = [v for v in suites.run_suite("kernel", order=5)
                if v.identity.startswith("script coefficients")]
    assert len(verdicts) == 3
    for v in verdicts:
        assert (v.status, v.first_bad_coefficient, v.note) == ("fail", 3, "failed: breaks")
        assert v.parameters["checked"] == 2


def test_first_bad_coefficient_is_the_smallest_over_residuals():
    r = TSeries.t_power(3, 10)
    # residuals that would cancel if they were summed still fail
    v = suites._verdict("kernel", "two residuals", 10, r, -r, TSeries.t_power(5, 10))
    assert (v.status, v.first_bad_coefficient) == ("fail", 3)
    # a nonzero coefficient beyond the verdict's order is not compared
    v = suites._verdict("kernel", "beyond the order", 10, TSeries.t_power(12, 20))
    assert (v.status, v.first_bad_coefficient) == ("pass", None)
    v = suites._verdict("kernel", "ledgered", 10, r, ledger="halfplane-gf")
    assert (v.status, v.first_bad_coefficient, v.note) == (
        "reported", 3, "ledger halfplane-gf: half-plane closed form is Laurent of valuation -2")


def test_unknown_suite_rejected():
    try:
        suites.run_suite("bogus")
    except ValueError as exc:
        assert "bogus" in str(exc)
    else:
        raise AssertionError("expected ValueError")
