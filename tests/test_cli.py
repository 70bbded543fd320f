"""Command-line surface: outputs, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time

import mpmath
import pytest

from wedgewalks import asymptotics as asy
from wedgewalks import cli, discrepancies
from wedgewalks.asymptotics import AuditError
from wedgewalks.series import SeriesError


def run_main(*argv) -> tuple[int, str]:
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

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code = cli.main(["count", "--model", "symmetric", "--n", "0",
                         "--out", str(target)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: cannot write --out {target}: No such file or directory\n")

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

    @pytest.mark.parametrize("kind", cli.cf.ROOT_ARG_KINDS)
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

    def test_closedform_runs_at_the_order_asked(self):
        code, out = run_main("verify", "--suite", "closedform", "--order", "5")
        assert code == 0
        orders = {v["identity"]: v["order"] for v in json.loads(out)["results"]}
        assert orders["sym closed form vs counts"] == 5

    def test_interpretations_run_at_the_order_asked(self):
        code, out = run_main("verify", "--suite", "interpretations", "--order", "40")
        assert code == 0
        assert {v["order"] for v in json.loads(out)["results"]} == {40}


class TestAsympt:
    def test_A0_report(self):
        code, out = run_main("asympt", "--const", "A0", "--digits", "25")
        assert code == 0
        payload = json.loads(out)
        rep = payload["reports"][0]
        assert rep["reference"] == "0.27730985348603118827"
        assert rep["value"].startswith("0.2773098534860311882")

    @pytest.mark.parametrize("value", ["abc", "12"])
    def test_digits_variable_is_ignored(self, monkeypatch, value):
        # --digits has a parser default; no environment variable stands in for it
        unset = pinned_digest("asympt --const theta")
        monkeypatch.setenv("WEDGEWALKS_DIGITS", value)
        assert pinned_digest("asympt --const theta") == unset

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

    def test_A1A2_fits_at_the_nmax_and_digits_asked(self):
        code, out = run_main("asympt", "--const", "A1A2", "--nmax", "202",
                             "--digits", "30")
        assert code == 0
        payload = json.loads(out)
        assert [(r["n_range"][1], r["digits"]) for r in payload["reports"]] == [
            (202, 30), (202, 30)]

    def test_p_pieces_fit_at_the_nmax_asked(self):
        code, out = run_main("asympt", "--const", "p-pieces", "--nmax", "210")
        assert code == 0
        reports = {r["constant"]: r for r in json.loads(out)["reports"]}
        assert reports["p1_ratio"]["n_range"] == [105, 210]

    def test_p_pieces_beyond_the_series_budget(self, capsys):
        code = cli.main(["asympt", "--const", "p-pieces", "--nmax", "1201"])
        assert code == cli.EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and err.count("\n") == 1

    @pytest.mark.parametrize("nmax", [60, 120])
    def test_A1A2_values_do_not_depend_on_digits(self, nmax):
        values = []
        for digits in ("1", "60"):
            code, out = run_main("asympt", "--const", "A1A2", "--nmax", str(nmax),
                                 "--digits", digits)
            assert code == 0
            reports = json.loads(out)["reports"]
            assert [r["digits"] for r in reports] == [int(digits)] * 2
            values.append([r["value"] for r in reports])
        assert values[0] == values[1]

    def test_accuracy_table(self):
        code, out = run_main("asympt", "--const", "eq-accuracy")
        payload = json.loads(out)
        assert payload["accuracy_table"]["ok"] is True

    @pytest.mark.parametrize("digits", [*range(1, 13), 30])
    def test_accuracy_verdict_does_not_depend_on_digits(self, digits):
        code, out = run_main("asympt", "--const", "eq-accuracy", "--digits", str(digits))
        assert code == 0
        table = json.loads(out)["accuracy_table"]
        assert table["ok"] is True
        _code, at_30 = run_main("asympt", "--const", "eq-accuracy", "--digits", "30")
        assert table == json.loads(at_30)["accuracy_table"]


class TestLedgerVerb:
    def test_list(self):
        code, out = run_main("ledger", "list")
        assert code == 0
        assert "[halfplane-gf]" in out

    def test_explain_shows_counts(self):
        code, out = run_main("ledger", "explain", "--id", "halfplane-gf")
        assert code == 0
        assert "1, 2, 4, 9, 20" in out

    def test_unknown_id(self, capsys):
        known = ", ".join(d.id for d in discrepancies.LEDGER)
        code, _ = run_main("ledger", "explain", "--id", "nope")
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: unknown --id 'nope', one of {known}\n"
        code, _ = run_main("ledger", "explain")
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: explain needs --id, one of {known}\n"


class TestExitCodes:
    def test_invalid_flags(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wedgewalks.cli", "count", "--model", "bogus",
             "--n", "3"], capture_output=True)
        assert proc.returncode == cli.EXIT_USAGE

    # env: a WEDGEWALKS_DIGITS value in the environment, which the CLI never reads
    @pytest.mark.parametrize("env,argv,code", [
        ("abc", ["ledger", "list"], 0),
        ("abc", ["asympt", "--const", "theta", "--digits", "5"], 0),
        (None, ["asympt", "--const", "theta", "--digits", "-5"], 2),
        (None, ["asympt", "--const", "theta", "--digits", "201"], 3),
        (None, ["asympt", "--const", "B0", "--nmax", "5"], 2),
        (None, ["asympt", "--const", "B0", "--nmax", "19"], 2),
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
        (asy, "root_audit", AuditError, ["asympt", "--const", "roots", "--kmax", "0"]),
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
        monkeypatch.setattr(asy, "_family_poly", lambda family, k: {0: -1, 1: 2})
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


#: the first 16 hex digits of sha256(f"{exit code}\0{stdout}\0{stderr}") of
#: cheap invocations, recorded at e5a4fe5 with COLUMNS=80 (argparse wraps
#: its usage line to the terminal width); the B0, halfplane, p-pieces and
#: roots lines were recorded at 19d81fa, and the A1A2, report and
#: p2-summand-tail lines after A1A2 began to report the digits asked and the
#: p2-summand-tail entry was corrected.  The B0 and halfplane --nmax 121 lines
#: (fit nodes 30, 60, 121) were recorded at 5d0e1b9, the p-pieces line again
#: when its sqrt_term_reference became B0 / (1 + sqrt 2), and the B0 --nmax 9
#: line when B0 came to need two fit nodes (--nmax >= 20).  The B0 --nmax 121
#: line moved again when B0 began to extrapolate its last two nodes in 1/n;
#: the verify, report and four identity-backed ledger explain lines moved when
#: reported notes came to name their ledger entry and explain came to show the
#: identity's coefficients.  The funceq line and the long series lines (a
#: long x long integer product at order 300, short x long rational products
#: at a = 2/3) were recorded at 1f3fbdb; the wedge counts at p = 4 and 5, the
#: unbanded weighted series, funceq at order 3, kernel at order 6 and the
#: two-node p-pieces fit at 4dde380; the five root-path lines (negative,
#: non-unit and series root arguments in each kernel slot, and kernel at
#: order 2) at 0c6667e; the order-300 asymmetric pieces and symmetric theta
#: sum at a = 1/2 (radical recurrences and more than four theta terms) at
#: 3ee6b84; the weighted series at its budget edge (symmetric p = 1, order 60)
#: and at p = 2, order 41, sym_f1 at order 300 and the p-pieces at --nmax 120
#: at aee20bd; closedform at orders 0 and 41 (the h1 verdict capped below
#: k1's order), the p-pieces at --nmax 12 (middle padded with zeros) and
#: funceq at its default order 30 at 8df29f0; counts at the benchmark's
#: largest lengths (symmetric p = 1, n = 141; asymmetric p = 3, n = 102) at
#: 647041b; H_aya_raw at a = 2/3 and the P-ratio sum at a = 1/2, both at
#: order 18 (rational root arguments whose working orders are sized by what
#: each formula loses), at 3d4696d.  A refactor must leave every one unchanged
PINNED = {
    "series --kind free --order 24 --format json": "6e5add70365385e4",
    "series --kind dyck --order 24 --format json": "15ca4f1eac0caf2d",
    "series --kind bargraph --order 24 --format json": "5d60e91f0272d95b",
    "series --kind sym_f1 --order 24 --format json": "6b405b66565186b1",
    "series --kind sym_g1 --order 24 --format json": "f73ae14f84499246",
    "series --kind asym_h1 --order 24 --format json": "5fcb068e46d29133",
    "series --kind asym_k1 --order 24 --format json": "a189c429c89a7fc3",
    "series --kind halfplane --order 24 --format json": "91f30c9c658a1217",
    "series --kind theta_sym --order 24 --format json": "55a77ef8c653badd",
    "series --kind theta_asym_q --order 24 --format json": "2b0c4d885988625e",
    "series --kind theta_asym_p --order 24 --format json": "a655c0c569195211",
    "series --kind F_aya --order 24 --format json": "deefb0e0b258b1c1",
    "series --kind H_aya_raw --order 24 --format json": "697214226ce11f7f",
    "series --kind H_aya_simplified --order 24 --format json": "dc7fffa02e331dc5",
    "asympt --const A0": "1ce66e902f1fa2e3",
    "asympt --const theta": "b88e49ad4db310d3",
    "asympt --const eq-accuracy": "bc596bfe324eb90e",
    "verify --suite interpretations": "af7c23911f464a73",
    "ledger list": "79d4170e27900deb",
    "ledger explain --id halfplane-gf": "dcb9f8d144a5678f",
    "ledger explain --id flat-boundary-interpretation": "7c7a33c7d610c816",
    "ledger explain --id diag-boundary-interpretation": "2a0ed643853de266",
    "ledger explain --id term-by-term-solution": "50480edf776fa268",
    "ledger explain --id p2-summand-tail": "3a3d4193bbee7ccc",
    "ledger explain --id sqrt-n-constant-pair": "b07d32427a08a83f",
    "ledger explain --id accuracy-table-figures": "a5d751274161ff71",
    "series --kind bogus": "2491b617c6fd5a80",
    "asympt --const bogus": "311e38d668060afb",
    "asympt --const B0 --nmax 9": "9ccde44cffbdbd21",
    "asympt --const all --nmax 59": "b2dcaae12b220379",
    "asympt --nmax -1": "771fe486ada74560",
    "series --kind H_aya_raw --a 0": "94b6e032a0c92beb",
    "report --nmax 12 --order 12 --digits 20": "9ff96ef91c4f5411",
    "asympt --const B0 --nmax 60": "22ebfc47989ec8c5",
    "asympt --const halfplane --nmax 60": "4d7aee7dc44f3bf5",
    "asympt --const B0 --nmax 121": "dad2fc84ecb61aa2",
    "asympt --const halfplane --nmax 121": "55eb65f45a64c1bd",
    "asympt --const p-pieces --nmax 50": "f4af854d842820de",
    "asympt --const roots --kmax 3": "925c0c423e24a7fd",
    "asympt --const roots --kmax 12 --digits 60": "e128cf494531dac3",
    "asympt --const roots --kmax 6 --digits 30": "558fadd366f01c03",
    "asympt --const A1A2 --nmax 120": "0e7457ada4d08513",
    "verify --suite kernel --order 0": "a25b5f24fe238bfc",
    "verify --suite kernel --order 10": "8048ff54ebcb8ada",
    "verify --suite kernel --order 30": "db5bb46d22344405",
    "verify --suite closedform --order 24": "142e9e26d01c31f1",
    "series --kind H_aya_simplified --a 2/3 --order 19 --format json": "2d1d2a530d405895",
    "series --kind theta_asym_p --a -1 --order 12 --format json": "a140b8ce71e0e307",
    "verify --suite funceq --order 14": "5629c1d75181a684",
    "series --kind sym_g1 --order 300 --format json": "ebe43a3143ee6b09",
    "series --kind H_aya_raw --a 2/3 --order 30 --format json": "fac5a0f79d24ec99",
    "count --model symmetric --p 5 --n 60 --format json": "d7f50b89558e9485",
    "count --model asymmetric --p 4 --n 60 --format json": "fa89c1270f432ec0",
    "series --kind weighted --model symmetric --p 3 --order 20": "81f8b1bb005fa5ba",
    "verify --suite funceq --order 3": "9bd3290cb7a68e8a",
    "verify --suite kernel --order 6": "a7370124b9fa77b3",
    "asympt --const p-pieces --nmax 2": "a8e13793c87f081e",
    "series --kind F_aya --a -1/2 --order 20 --format json": "93be6a27c09e189c",
    "series --kind H_aya_raw --a -2/3 --order 18 --format json": "08a0531fe2dc157a",
    "series --kind theta_asym_p --a 7/3 --order 18 --format json": "869fd6c6acd220b1",
    "series --kind theta_asym_q --a -1 --order 20 --format json": "dd85b3a6f6d5b51f",
    "verify --suite kernel --order 2": "85dff8476ea4e803",
    "series --kind asym_h1 --order 300 --format json": "c81edf507c42ba82",
    "series --kind theta_sym --a 1/2 --order 300 --format json": "cc692f626ccadca3",
    "series --kind weighted --model symmetric --p 1 --order 60": "7668babe5624fc18",
    "series --kind weighted --model symmetric --p 2 --order 41": "952ff51f173aa278",
    "series --kind sym_f1 --order 300 --format json": "da5fa025b32ece62",
    "asympt --const p-pieces --nmax 120": "92bf2a9eb93d7462",
    "verify --suite closedform --order 41": "37b30c3eda7bc0d1",
    "verify --suite closedform --order 0": "cdb93950b2d731ed",
    "asympt --const p-pieces --nmax 12": "cc7d1535c6f4e380",
    "verify --suite funceq --order 30": "f0c981cdabb79c14",
    "count --model symmetric --p 1 --n 141 --format json": "260c6e842ec64678",
    "count --model asymmetric --p 3 --n 102 --format json": "9cb3894d3bfd8408",
    "series --kind H_aya_raw --a 2/3 --order 18 --format json": "f286ef64ba0777cd",
    "series --kind theta_asym_p --a 1/2 --order 18 --format json": "3add8cf5d6a7dda2",
}


def pinned_digest(line: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(line.split())
        except SystemExit as exc:  # argparse's own exit 2
            code = exc.code
    digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode())
    return digest.hexdigest()[:16]


class TestPinnedOutput:
    @pytest.mark.parametrize("line", PINNED)
    def test_bytes_unchanged(self, monkeypatch, line):
        monkeypatch.setenv("COLUMNS", "80")
        assert pinned_digest(line) == PINNED[line]

    def test_covers_every_kind_and_ledger_entry(self):
        kinds = {f"series --kind {k} --order 24 --format json" for k in cli.cf.GF_KINDS}
        ids = {f"ledger explain --id {d.id}" for d in cli.discrepancies.LEDGER}
        assert kinds | ids <= set(PINNED)


class TestOneParserPerProcess:
    def test_only_asympt_and_report_load_mpmath(self):
        # a fresh isolated interpreter: nothing imported before the CLI runs
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
                "from wedgewalks import cli; "
                "runs = [['count', '--model', 'symmetric', '--n', '10'], "
                "['series', '--kind', 'free', '--order', '15'], "
                "['verify', '--suite', 'interpretations'], ['ledger', 'list']]; "
                "print(*[f\"{cli.main([*argv, '--out', os.devnull])},"
                "{'mpmath' in sys.modules}\" for argv in runs]); "
                "print(cli.main(['asympt', '--const', 'theta', '--out', os.devnull]))")
        proc = subprocess.run([sys.executable, "-I", "-c", code, src],
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["0,False"] * 4 + ["0"], proc.stderr

    def test_parser_built_once_across_calls(self, monkeypatch, capsys, request):
        cli._parser.cache_clear()
        request.addfinalizer(cli._parser.cache_clear)
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        digits = []
        for flag in (["--digits", "17"], ["--digits", "25"], []):
            code, out = run_main("asympt", "--const", "theta", *flag)
            assert code == 0
            digits.append(json.loads(out)["digits"])
        assert digits == [17, 25, 30]
        assert cli.main(["asympt", "--const", "theta", "--kmax", "3"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: --kmax does not apply to --const theta\n"
        assert run_main("ledger", "list")[0] == 0
        assert len(built) == 1

    def test_state_does_not_leak_between_calls(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert pinned_digest("series --kind bogus") == PINNED["series --kind bogus"]
        for line in reversed(PINNED):
            assert pinned_digest(line) == PINNED[line], line


#: each verb's argv up to its choosing flag's value, and every value it takes
_CHOICES = {
    "count": (["count", "--n", "3", "--model"], cli.KINDS),
    "series": (["series", "--kind"], (*cli.cf.GF_KINDS, "weighted")),
    "verify": (["verify", "--suite"], (*cli.suites.SUITES, "all")),
    "asympt": (["asympt", "--const"], (*cli._CONSTS, "all")),
    "ledger": (["ledger"], ("list", "explain")),
}
#: a value each flag of the table parses
_VALUE = {"p": "2", "a": "1/2", "model": "asymmetric", "format": "json",
          "order": "5", "nmax": "60", "kmax": "3", "id": "halfplane-gf"}
#: every (verb, flag, choice) where the flag would do nothing
_IDLE = [(verb, flag, choice)
         for (verb, flag), (_, acts_for, _) in cli._ACTS_ONLY_FOR.items()
         for choice in _CHOICES[verb][1] if choice not in acts_for]
#: per table row: a cheap invocation inside the row (its choice last), and
#: two values of the flag that give different output there
_ACTS = {
    ("count", "p"): (["count", "--n", "6", "--model", "symmetric"], "1", "2"),
    ("series", "p"): (["series", "--order", "8", "--kind", "bargraph"], "1", "2"),
    ("series", "a"): (["series", "--order", "6", "--kind", "theta_sym"], "1", "1/2"),
    ("series", "model"): (["series", "--order", "5", "--kind", "weighted"],
                          "symmetric", "asymmetric"),
    ("series", "format"): (["series", "--order", "5", "--kind", "dyck"], "csv", "json"),
    ("verify", "order"): (["verify", "--suite", "interpretations"], "5", "6"),
    ("asympt", "nmax"): (["asympt", "--const", "B0"], "20", "40"),
    ("asympt", "kmax"): (["asympt", "--const", "roots"], "0", "1"),
    ("ledger", "id"): (["ledger", "explain"], "halfplane-gf",
                       "flat-boundary-interpretation"),
}


class TestFlagTable:
    def test_rows_follow_the_dispatch_tables(self):
        table = cli._ACTS_ONLY_FOR
        assert table[("series", "a")][1] == cli.cf.ROOT_ARG_KINDS
        assert table[("series", "format")][1] == cli.cf.GF_KINDS
        for (verb, _flag), (_, acts_for, _) in table.items():
            assert set(acts_for) < set(_CHOICES[verb][1])
        assert set(_ACTS) == set(table)

    def test_idle_uses_are_counted(self):
        # 54 that did nothing before the table, and the two verify --order
        # uses (growth, all) that cmd_verify refused on its own
        assert len(_IDLE) == 56

    @pytest.mark.parametrize("verb,flag,choice", _IDLE)
    def test_flag_outside_its_row_is_refused(self, capsys, verb, flag, choice):
        head, _ = _CHOICES[verb]
        code, out = run_main(*head, choice, f"--{flag}", _VALUE[flag])
        assert (code, out) == (cli.EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{flag} does not apply to ")
        assert err.endswith(f" {choice}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("row", _ACTS, ids="-".join)
    def test_flag_inside_its_row_acts(self, row):
        argv, one, other = _ACTS[row]
        assert argv[-1] in cli._ACTS_ONLY_FOR[row][1]
        first = run_main(*argv, f"--{row[1]}", one)
        second = run_main(*argv, f"--{row[1]}", other)
        assert first[0] == second[0] == 0
        assert first[1] != second[1]


class TestReadmeCommands:
    def test_every_command_line_example_parses(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
        lines = [ln for ln in block.splitlines() if ln.startswith("wedgewalks ")]
        assert len(lines) >= 10
        parser = cli.build_parser()
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            args = parser.parse_args(cli._attach_negative_a(argv))
            assert args.verb == argv[0], line
            cli.check_flags(args)  # every flag given acts; runs no job
