"""Batch command-line surface.

Verbs: count, series, verify, asympt, report, ledger.  Output is CSV or JSON
with exact decimal integers (JSON integers are string-encoded: counts near
length 1000 have ~385 digits).  The same flags always produce byte-identical
output, and a flag either acts or is refused.

Exit codes: 0 success, 1 unexpected verification failure or internal error,
2 invalid flags, 3 resource budget exceeded.

``main`` builds its argparse tree once per process (``_parser`` is cached)
and never changes it afterwards.  ``asymptotics`` (and so mpmath) is
imported by ``asympt`` and ``report`` alone, so ``count``, ``series``,
``verify`` and ``ledger`` never load mpmath.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import __version__
from . import closedforms as cf
from . import discrepancies, suites
from .errors import BudgetError
from .walks import KINDS, WedgeModel, count_walks, weighted_gf

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    """Invalid flags found by the command line itself; the only exit 2 after parsing."""


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value < lo:
            raise argparse.ArgumentTypeError(f"not an integer >= {lo}: {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _attach_negative_a(argv: list[str]) -> list[str]:
    """argparse reads ``-1/2`` as an option (only integers and decimals pass as
    negative numbers), so ``--a -1/2`` is handed to it as ``--a=-1/2``."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--a" and re.fullmatch(r"-\d+/\d+", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            fh = open(out, "w")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from None
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _series_csv(series) -> str:
    lines = ["n,coefficient"]
    lo = min(series.valuation if series.valuation is not None else 0, 0)
    for k in range(lo, series.order + 1):
        lines.append(f"{k},{series.coeff(k)}")
    return "\n".join(lines) + "\n"


def cmd_count(args) -> int:
    model = WedgeModel(args.model, args.p)
    table = count_walks(model, args.n)
    _write(table.to_csv() if args.format == "csv" else table.to_json() + "\n",
           args.out)
    return EXIT_OK


def cmd_series(args) -> int:
    if args.a == 0:  # given only for the root-argument kinds
        raise UsageError(f"--a must be nonzero for --kind {args.kind}")
    if args.kind == "weighted":
        w = weighted_gf(args.model, args.p, args.order)
        _write(w.to_json() + "\n", args.out)
        return EXIT_OK
    series = cf.gf_series(args.kind, args.order, a=args.a, p=args.p)
    if args.format == "csv":
        _write(_series_csv(series), args.out)
    else:
        _write(series.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    kwargs = {} if args.suite in ("growth", "all") else {"order": args.order}
    verdicts = suites.run_suite(args.suite, **kwargs)
    summary = suites.summarize(verdicts)
    _write(json.dumps(summary, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK if summary["clean"] else EXIT_VERIFY_FAIL


#: each asympt constant -> (the smallest --nmax at which it has data to fit,
#: its builder from the asymptotics module and the flags); a builder returns
#: its reports, or a dict of named extras.  report builds A0, theta and the
#: accuracy table through the same entries.
_CONSTS = {
    "A0": (0, lambda asy, args: [asy.constant_A0(args.digits)]),
    "A1A2": (60, lambda asy, args: asy.constants_A1A2(
        count_walks(WedgeModel("symmetric", 1), args.nmax), args.digits)),
    "theta": (0, lambda asy, args: [asy.constant_theta(args.digits)]),
    "B0": (20, lambda asy, args: [asy.constant_B0(
        count_walks(WedgeModel("asymmetric", 1), args.nmax), args.digits)]),
    "halfplane": (10, lambda asy, args: [asy.constant_halfplane(
        count_walks(WedgeModel("halfplane", 1), args.nmax), args.digits)]),
    "eq-accuracy": (0, lambda asy, args: {"accuracy_table": asy.eq37_accuracy(
        count_walks(WedgeModel("symmetric", 1), 40), args.digits)}),
    "p-pieces": (2, lambda asy, args: asy.p_pieces_asymptotics(args.nmax, args.digits)),
    "roots": (0, lambda asy, args: {
        "root_audit": asy.root_audit(args.kmax, args.digits).to_dict()}),
}


def cmd_asympt(args) -> int:
    from . import asymptotics as asy

    want = args.const
    wanted = [c for c in _CONSTS if want in (c, "all")]
    need = max(_CONSTS[c][0] for c in wanted)
    if args.nmax < need:
        raise UsageError(f"--const {want} needs --nmax >= {need}")
    payload = {"schema": 1, "digits": args.digits, "reports": []}
    for c in wanted:
        built = _CONSTS[c][1](asy, args)
        if isinstance(built, dict):
            payload.update(built)
        else:
            payload["reports"] += [r.to_dict() for r in built]
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    """Bundle counts, series heads, verdicts, and constants into one document."""
    from . import asymptotics as asy

    n = args.nmax
    bundle: dict = {"schema": 1, "version": __version__}
    bundle["counts"] = {}
    for kind in ("free", "symmetric", "asymmetric", "halfplane"):
        table = count_walks(WedgeModel(kind, 1), n)
        bundle["counts"][kind] = [str(c) for c in table.counts]
    bundle["series"] = {
        kind: json.loads(cf.gf_series(kind, args.order).to_json())
        for kind in ("free", "dyck", "sym_g1", "asym_k1")
    }
    verdicts = suites.run_suite("all")
    bundle["verification"] = suites.summarize(verdicts)
    bundle["constants"] = [r.to_dict() for c in ("A0", "theta")
                           for r in _CONSTS[c][1](asy, args)]
    bundle.update(_CONSTS["eq-accuracy"][1](asy, args))
    bundle["ledger"] = [
        {"id": d.id, "title": d.title, "observed": d.observed, "trusted": d.trusted}
        for d in discrepancies.LEDGER
    ]
    _write(json.dumps(bundle, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK if bundle["verification"]["clean"] else EXIT_VERIFY_FAIL


def cmd_ledger(args) -> int:
    if args.action == "list":
        _write(discrepancies.listing() + "\n", args.out)
    else:
        known = [d.id for d in discrepancies.LEDGER]
        if args.id is None:
            raise UsageError(f"explain needs --id, one of {', '.join(known)}")
        if args.id not in known:
            raise UsageError(f"unknown --id {args.id!r}, one of {', '.join(known)}")
        lines = [discrepancies.explain(args.id), *suites.ledger_evidence(args.id)]
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


#: flags that act only for some values of their verb's choosing flag, and so
#: have no parser default: (verb, flag) -> (the choosing flag, the values it
#: acts for, the default that ``check_flags`` fills in when it is absent).
_ACTS_ONLY_FOR = {
    ("count", "p"): ("model", ("symmetric", "asymmetric"), 1),
    ("series", "p"): ("kind", ("bargraph", "weighted"), 1),
    ("series", "a"): ("kind", cf.ROOT_ARG_KINDS, Fraction(1)),
    ("series", "model"): ("kind", ("weighted",), "symmetric"),
    ("series", "format"): ("kind", cf.GF_KINDS, "csv"),  # weighted writes JSON
    ("verify", "order"): ("suite", ("kernel", "funceq", "closedform", "interpretations"), 30),
    ("asympt", "nmax"): ("const", ("A1A2", "B0", "halfplane", "p-pieces", "all"), 400),
    ("asympt", "kmax"): ("const", ("roots", "all"), 20),
    ("ledger", "id"): ("action", ("explain",), None),
}


def check_flags(args) -> None:
    """Refuse a flag given for a choice it does not act on; default the rest."""
    for (verb, flag), (choosing, acts_for, default) in _ACTS_ONLY_FOR.items():
        if verb != args.verb:
            continue
        choice = getattr(args, choosing)
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif choice not in acts_for:
            named = verb if choosing == "action" else f"--{choosing}"
            raise UsageError(f"--{flag} does not apply to {named} {choice}")


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call; main builds one through ``_parser``."""
    top = argparse.ArgumentParser(
        prog="wedgewalks",
        description="Exact enumeration, generating functions, verification "
                    "suites, and asymptotics for partially directed walks "
                    "in wedges.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("count", help="exact walk counts by length")
    p.add_argument("--model", choices=KINDS, required=True)
    p.add_argument("--p", type=_positive_int, help="wedge slope")
    p.add_argument("--n", type=_nonnegative_int, required=True,
                   help="maximum length")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("series", help="closed-form series coefficients")
    p.add_argument("--kind", choices=cf.GF_KINDS + ("weighted",), required=True)
    p.add_argument("--order", type=_nonnegative_int, default=50)
    p.add_argument("--a", type=_fraction,
                   help="rational argument for the parametrized kinds")
    p.add_argument("--p", type=_positive_int)
    p.add_argument("--model", choices=("symmetric", "asymmetric"),
                   help="for --kind weighted")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=tuple(suites.SUITES) + ("all",),
                   required=True)
    p.add_argument("--order", type=_nonnegative_int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("asympt", help="asymptotic constants and audits")
    p.add_argument("--const", choices=(*_CONSTS, "all"), default="all")
    p.add_argument("--digits", type=_positive_int, default=30)
    p.add_argument("--nmax", type=_nonnegative_int)
    p.add_argument("--kmax", type=_nonnegative_int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_asympt)

    p = sub.add_parser("report", help="bundle everything into one JSON document")
    p.add_argument("--order", type=_nonnegative_int, default=30)
    p.add_argument("--nmax", type=_nonnegative_int, default=40)
    p.add_argument("--digits", type=_positive_int, default=30)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("ledger", help="documented discrepancy records")
    p.add_argument("action", choices=("list", "explain"))
    p.add_argument("--id", help="ledger entry id for explain")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ledger)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built on the first call and never changed afterwards."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_attach_negative_a(argv))
    try:
        check_flags(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # an internal failure, never a usage error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
