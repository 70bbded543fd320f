"""Command-line surface: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time

import mpmath
import pytest

from wedgewalks import asymptotics as asy
from wedgewalks import cli
from wedgewalks.asymptotics import AuditError
from wedgewalks.series import SeriesError


def run_main(*argv) -> tuple[int, str]:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class TestCount:
    def test_csv_rows(self):
        code, out = run_main("count", "--model", "symmetric", "--p", "1", "--n", "40")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "length,count"
        assert [r.split(",")[1] for r in rows[1:7]] == ["1", "1", "3", "5", "13", "27"]

    def test_json_string_integers(self):
        code, out = run_main("count", "--model", "free", "--n", "5",
                             "--format", "json")
        payload = json.loads(out)
        assert payload["counts"] == ["1", "3", "7", "17", "41", "99"]

    def test_deterministic_output(self):
        a = run_main("count", "--model", "asymmetric", "--n", "25")
        b = run_main("count", "--model", "asymmetric", "--n", "25")
        assert a == b

    def test_out_file(self, tmp_path):
        target = tmp_path / "counts.csv"
        code, _ = run_main("count", "--model", "halfplane", "--n", "4",
                           "--out", str(target))
        assert code == 0
        assert target.read_text().splitlines()[-1] == "4,20"


class TestSeries:
    def test_csv(self):
        code, out = run_main("series", "--kind", "dyck", "--order", "5")
        assert code == 0
        assert out.splitlines()[1:] == ["0,1", "1,1", "2,2", "3,5", "4,14", "5,42"]

    def test_rational_coefficients(self):
        code, out = run_main("series", "--kind", "theta_sym", "--order", "6",
                             "--a", "1/2")
        assert code == 0
        assert "-1/4" in out

    def test_json(self):
        code, out = run_main("series", "--kind", "sym_g1", "--order", "6",
                             "--format", "json")
        payload = json.loads(out)
        assert payload["coeffs"][0] == ["1", "1"]

    def test_laurent_kind(self):
        code, out = run_main("series", "--kind", "halfplane", "--order", "3")
        assert code == 0
        assert out.splitlines()[1].startswith("-2,")

    def test_weighted_export(self):
        code, out = run_main("series", "--kind", "weighted", "--model",
                             "asymmetric", "--order", "5")
        payload = json.loads(out)
        assert [0, 0, 0, "1"] in payload["entries"]

    def test_determinism(self):
        runs = {run_main("series", "--kind", "asym_k1", "--order", "30")[1]
                for _ in range(2)}
        assert len(runs) == 1

    @pytest.mark.parametrize("order", [0, 1, 5, 30])
    def test_theta_asym_p_at_minus_one(self, order):
        code, out = run_main("series", "--kind", "theta_asym_p", "--a", "-1",
                             "--order", str(order))
        assert code == 0
        rows = out.splitlines()[1:]
        deeper = cli.cf.gf_series("theta_asym_p", order + 10, a=-1)
        assert rows == [f"{k},{deeper.coeff(k)}" for k in range(order + 1)]

    @pytest.mark.parametrize("kind", cli._A_KINDS)
    def test_negative_rational_after_a_space(self, kind):
        spaced = run_main("series", "--kind", kind, "--a", "-1/2", "--order", "6")
        joined = run_main("series", "--kind", kind, "--a=-1/2", "--order", "6")
        assert spaced[0] == 0
        assert spaced == joined


class TestVerify:
    def test_interpretations_reported_not_failing(self):
        code, out = run_main("verify", "--suite", "interpretations")
        assert code == 0
        payload = json.loads(out)
        assert payload["clean"] and payload["counts"]["reported"] >= 3

    def test_growth_suite(self):
        code, out = run_main("verify", "--suite", "growth")
        assert code == 0
        assert json.loads(out)["counts"]["fail"] == 0

    def test_funceq_suite(self):
        code, out = run_main("verify", "--suite", "funceq", "--order", "20")
        assert code == 0

    def test_verdict_schema(self):
        _code, out = run_main("verify", "--suite", "interpretations")
        result = json.loads(out)["results"][0]
        assert set(result) == {"suite", "identity", "parameters", "order",
                               "status", "first_bad_coefficient", "note"}


class TestAsympt:
    def test_A0_report(self):
        code, out = run_main("asympt", "--const", "A0", "--digits", "25")
        assert code == 0
        payload = json.loads(out)
        rep = payload["reports"][0]
        assert rep["reference"] == "0.27730985348603118827"
        assert rep["value"].startswith("0.2773098534860311882")

    def test_env_default_digits(self, monkeypatch):
        monkeypatch.setenv("WEDGEWALKS_DIGITS", "17")
        parser = cli.build_parser()
        args = parser.parse_args(["asympt", "--const", "theta"])
        assert args.digits == 17

    def test_roots_audit(self):
        code, out = run_main("asympt", "--const", "roots", "--kmax", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["root_audit"]["ok"] is True

    def test_roots_deterministic_and_chopped(self):
        digits = 30
        runs = {run_main("asympt", "--const", "roots", "--kmax", "8",
                         "--digits", str(digits)) for _ in range(2)}
        assert len(runs) == 1
        ((code, out),) = runs
        assert code == 0
        tol = 10.0 ** -(digits + 5)
        for row in json.loads(out)["root_audit"]["results"]:
            for text in row["roots"]:
                z = complex(text.replace(" ", ""))
                assert all(part == 0 or abs(part) >= tol for part in (z.real, z.imag))

    def test_roots_audit_imports_no_numpy(self):
        # a fresh isolated interpreter: nothing imported before the CLI runs
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
                "from wedgewalks import cli; "
                "rc = cli.main(['asympt', '--const', 'roots', '--kmax', '3', "
                "'--out', os.devnull]); "
                "print(rc, 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-I", "-c", code, src],
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["0", "False"], proc.stderr

    @pytest.mark.parametrize("nmax", [2, 12])
    def test_p_pieces_reports_three_summands(self, nmax):
        # below n = 13 the ratio sum has two summands; k = 2 is exactly zero
        # there and is still reported against its formula
        code, out = run_main("asympt", "--const", "p-pieces", "--nmax", str(nmax))
        assert code == 0
        reports = {r["constant"]: r for r in json.loads(out)["reports"]}
        assert list(reports) == ["p1_ratio", "p2_summand_k0", "p2_summand_k1",
                                 "p2_summand_k2", "p2_p3_cancellation"]
        with mpmath.workdps(40):
            formula = asy._p2k_formula(2, nmax) / (1 + mpmath.sqrt(2)) ** nmax
            formula = mpmath.nstr(formula, 8, strip_zeros=False)
        k2 = reports["p2_summand_k2"]
        assert k2["value"] == "0.0"
        assert k2["diagnostics"] == {"exact_over_mu_n": "0.0",
                                     "formula_over_mu_n": formula,
                                     "relative_gap": "1.000"}

    def test_accuracy_table(self):
        code, out = run_main("asympt", "--const", "eq-accuracy")
        payload = json.loads(out)
        assert payload["accuracy_table"]["ok"] is True


class TestLedgerVerb:
    def test_list(self):
        code, out = run_main("ledger", "list")
        assert code == 0
        assert "[halfplane-gf]" in out

    def test_explain_shows_counts(self):
        code, out = run_main("ledger", "explain", "--id", "halfplane-gf")
        assert code == 0
        assert "1, 2, 4, 9, 20" in out

    def test_unknown_id(self):
        code, _ = run_main("ledger", "explain", "--id", "nope")
        assert code == cli.EXIT_USAGE


class TestExitCodes:
    def test_invalid_flags(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wedgewalks.cli", "count", "--model", "bogus",
             "--n", "3"], capture_output=True)
        assert proc.returncode == cli.EXIT_USAGE

    @pytest.mark.parametrize("env,argv,code", [
        ("abc", ["ledger", "list"], 0),
        ("abc", ["asympt", "--const", "theta"], 2),
        (None, ["asympt", "--const", "theta", "--digits", "-5"], 2),
        (None, ["asympt", "--const", "theta", "--digits", "201"], 3),
        (None, ["asympt", "--const", "B0", "--nmax", "5"], 2),
        (None, ["asympt", "--const", "halfplane", "--nmax", "5"], 2),
        (None, ["asympt", "--const", "roots", "--kmax", "-1"], 2),
        (None, ["series", "--kind", "dyck", "--order", "-1"], 2),
        (None, ["count", "--model", "free", "--n", "-1"], 2),
        (None, ["verify", "--suite", "kernel", "--order", "-1"], 2),
        (None, ["verify", "--suite", "growth", "--order", "5"], 2),
        (None, ["verify", "--suite", "all", "--order", "5"], 2),
        (None, ["report", "--nmax", "-1"], 2),
        (None, ["asympt", "--const", "A1A2", "--nmax", "30"], 2),
        (None, ["asympt", "--const", "p-pieces", "--nmax", "1"], 2),
        (None, ["series", "--kind", "theta_sym", "--a", "0"], 2),
        (None, ["series", "--kind", "theta_sym", "--a", "-x"], 2),
        (None, ["series", "--kind", "bargraph", "--p", "0"], 2),
        (None, ["ledger", "explain"], 2),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else str(v))
    def test_bad_numbers_exit_without_traceback(self, env, argv, code):
        environ = {k: v for k, v in os.environ.items() if k != "WEDGEWALKS_DIGITS"}
        if env is not None:
            environ["WEDGEWALKS_DIGITS"] = env
        proc = subprocess.run([sys.executable, "-m", "wedgewalks.cli", *argv],
                              capture_output=True, text=True, env=environ)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code:
            assert len([ln for ln in proc.stderr.splitlines() if "error" in ln
                        or "exceeded" in ln]) == 1, proc.stderr

    @pytest.mark.parametrize("module,name,error,argv", [
        (cli.cf, "gf_series", SeriesError, ["series", "--kind", "dyck", "--order", "5"]),
        (cli.asy, "root_audit", AuditError, ["asympt", "--const", "roots", "--kmax", "0"]),
    ], ids=["SeriesError", "AuditError"])
    def test_internal_error_is_not_a_usage_error(self, monkeypatch, capsys,
                                                 module, name, error, argv):
        def broken(*args, **kwargs):
            raise error("internal inconsistency")

        monkeypatch.setattr(module, name, broken)
        assert cli.main(argv) == cli.EXIT_VERIFY_FAIL
        # one line, no traceback
        assert capsys.readouterr().err == f"error: {error.__name__}: internal inconsistency\n"

    def test_undecided_audit_exits_1(self, monkeypatch, capsys):
        # 2t - 1 has its zero on |t| = 1/2: the exact count refuses to guess
        monkeypatch.setattr(cli.asy, "_family_poly", lambda family, k: {0: -1, 1: 2})
        assert cli.main(["asympt", "--const", "roots", "--kmax", "0"]) == cli.EXIT_VERIFY_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: AuditError: Q-family k=-1: degenerate Schur-Cohn step")
        assert err.count("\n") == 1

    def test_budget_exceeded(self):
        code, _out = run_main("count", "--model", "free", "--n", "9999")
        assert code == cli.EXIT_BUDGET

    def test_over_budget_count_is_refused_up_front(self):
        # the symmetric frontier passes 5M states near n = 4470; refusing it
        # takes no DP step, not hours
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "wedgewalks.cli", "count", "--model", "symmetric",
             "--n", "4800"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == cli.EXIT_BUDGET, proc.stderr
        assert time.perf_counter() - start < 10
        assert proc.stderr.startswith("budget exceeded: n_max=4800 needs")

    def test_budget_brute_series_order(self):
        code, _ = run_main("series", "--kind", "free", "--order", "2000")
        assert code == cli.EXIT_BUDGET


class TestReport:
    def test_bundle(self):
        code, out = run_main("report", "--nmax", "12", "--order", "12",
                             "--digits", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["counts"]["symmetric"][:6] == ["1", "1", "3", "5", "13", "27"]
        assert payload["verification"]["clean"] is True
        assert any(e["id"] == "halfplane-gf" for e in payload["ledger"])
        names = {r["constant"] for r in payload["constants"]}
        assert {"A0", "theta"} <= names
