"""Outside-in span recorder for the traced benchmark passes.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces each
public function of the wedgewalks modules, and the arithmetic methods of
``TSeries``, with a wrapper that records a span (name, start, end, parent).
Every module that bound a function under its own name (``from .walks import
count_walks``, the ``suites.SUITES`` table) has that reference replaced too,
so calls between modules are seen.  :func:`uninstall` restores everything.

Spans stay in memory until the pass ends.  A span's self time is its
duration minus the durations of its direct children; calls run on one
thread, so children never overlap.  Counters that need the arguments or the
result of a call (series coefficient sizes, DP lengths, verdicts) are
gathered by hooks that run inside a ``trace.hooks`` span, so their cost is
taken out of every layer's self time and shows only as tracing overhead.

Counters read a series only through its public accessors (``valuation``,
``order``, ``coeff``), so they keep their meaning when the storage of
``TSeries`` changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "wedgewalks"
SERIES_OPS = ("mul", "div", "inverse", "sqrt", "pow", "add", "substitute")
GF_KINDS = ("free", "dyck", "bargraph", "sym_f1", "sym_g1", "asym_h1", "asym_k1",
            "halfplane", "theta_sym", "theta_asym_q", "theta_asym_p", "F_aya",
            "H_aya_raw", "H_aya_simplified")
SUITE_NAMES = ("kernel", "funceq", "closedform", "interpretations", "growth")
VERDICTS = ("pass", "fail", "reported")

#: closed-form builder -> series kind (``theta_sum`` takes its kind as an argument)
_BUILDERS = {"gf_free": "free", "gf_dyck": "dyck", "gf_bargraph": "bargraph",
             "gf_sym_f1": "sym_f1", "gf_sym_g1": "sym_g1", "gf_asym_h1": "asym_h1",
             "gf_asym_k1": "asym_k1", "gf_halfplane_printed": "halfplane",
             "gf_F_aya": "F_aya", "gf_H_aya_raw": "H_aya_raw",
             "gf_H_aya_simplified": "H_aya_simplified"}

_KERNEL_GROUPS = {
    "iterate": ("beta_closed", "beta_composed", "beta_iterate", "gamma_composed",
                "gamma_closed_inverse", "beta_of_gamma_closed_inverse",
                "gamma_iterate", "group_law_check", "mixed_inverse_check"),
    "script_coeffs": ("script_coeffs", "raw_iterated_sum"),
    "residual": ("residual_functional_eq", "residual_kernel_form"),
    "q": ("q_sym", "q_asym", "qbar_asym", "p_asym", "qpq_series"),
    "root": ("root",),
}
_ASYMPTOTIC_GROUPS = {
    "root_audit": ("root_audit",),
    "fits": ("constants_A1A2", "constant_B0", "constant_halfplane", "eq37_accuracy",
             "validate_fit_on_free"),
    "analytic": ("constant_A0", "constant_theta", "halfplane_reference"),
    "p_pieces": ("p_pieces_asymptotics",),
}

#: per-layer metric -> (how it is derived, unit)
#:   ("self", spans)       summed self time of the named spans
#:   ("incl", spans)       summed duration of the outermost of the named spans
#:   ("calls", span)       number of spans of that name
#:   ("count", counter)    summed counter;  ("max", counter)  largest value seen
METRICS: dict[str, tuple[tuple, str]] = {
    "walks.count_walks.self_s.wedge": (("self", ("walks.count_walks.wedge",)), "s"),
    "walks.count_walks.self_s.line": (("self", ("walks.count_walks.line",)), "s"),
    "walks.count_walks.lengths": (("count", "walks.count_walks.lengths"), "count"),
    "walks.weighted_gf.self_s": (("self", ("walks.weighted_gf",)), "s"),
}
for _op in SERIES_OPS:
    METRICS[f"series.{_op}.calls"] = (("calls", f"series.{_op}"), "count")
    METRICS[f"series.{_op}.self_s"] = (("self", (f"series.{_op}",)), "s")
METRICS["series.int_result_share"] = (("share", None), "ratio")
METRICS["series.coeff_products"] = (("count", "series.coeff_products"), "count")
METRICS["series.coeff_bits_max"] = (("max", "series.coeff_bits"), "bits")
for _group, _fns in _KERNEL_GROUPS.items():
    METRICS[f"kernel.{_group}.self_s"] = (("self", tuple(f"kernel.{f}" for f in _fns)), "s")
for _kind in GF_KINDS:
    METRICS[f"closedforms.gf.{_kind}.s"] = (("incl", (f"closedforms.gf.{_kind}",)), "s")
METRICS["closedforms.ratio_theta.s"] = (("incl", ("closedforms.ratio_theta",)), "s")
METRICS["closedforms.alternating_theta.s"] = (
    ("incl", ("closedforms.alternating_theta",)), "s")
METRICS["closedforms.compare.self_s"] = (
    ("self", ("closedforms.compare_series", "closedforms.compare_with_counts")), "s")
for _group, _fns in _ASYMPTOTIC_GROUPS.items():
    METRICS[f"asymptotics.{_group}.self_s"] = (
        ("self", tuple(f"asymptotics.{f}" for f in _fns)), "s")
METRICS["asymptotics.digits_max"] = (("max", "asymptotics.digits"), "digits")
for _suite in SUITE_NAMES:
    METRICS[f"suites.{_suite}.s"] = (("incl", (f"suites.{_suite}",)), "s")
for _status in VERDICTS:
    METRICS[f"suites.verdicts.{_status}"] = (("count", f"verdicts.{_status}"), "count")
METRICS["cli.parse_s"] = (("incl", ("cli.build_parser", "cli.parse_args")), "s")
METRICS["cli.format_s"] = (("incl", ("cli.format",)), "s")
METRICS["cli.output_bytes"] = (("count", "cli.output_bytes"), "bytes")

#: metrics that must repeat exactly between traced runs of the same inputs
REPEATABLE = tuple(
    [f"series.{op}.calls" for op in SERIES_OPS]
    + ["series.coeff_products", "series.int_result_share", "walks.count_walks.lengths"]
    + [f"suites.verdicts.{s}" for s in VERDICTS])


class Recorder:
    """Spans of one pass, as parallel lists, plus counters set by hooks."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.int_results = 0
        self.op_results = 0
        self.job_keys: dict[int, str] = {}

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def _roots(self) -> list[int]:
        roots: list[int] = []
        for p in self.parents:
            roots.append(len(roots) if p < 0 else roots[p])
        return roots

    def metrics(self, job_scales: list[float]) -> dict[str, float]:
        """Per-layer metrics; each span's time is scaled by its job's factor
        (the k-th root span is the k-th job)."""
        n = len(self.names)
        roots = self._roots()
        ordinal = {root: k for k, root in enumerate(sorted(set(roots)))}
        dur = [(self.ends[i] - self.starts[i]) * job_scales[ordinal[roots[i]]]
               for i in range(n)]
        own = dur[:]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        self_by_name: dict[str, float] = defaultdict(float)
        calls: Counter = Counter(self.names)
        for name, t in zip(self.names, own):
            self_by_name[name] += t
        out = {}
        for metric, ((how, arg), _unit) in METRICS.items():
            if how == "self":
                out[metric] = sum(self_by_name.get(s, 0.0) for s in arg)
            elif how == "incl":
                out[metric] = self._outermost(set(arg), dur)
            elif how == "calls":
                out[metric] = calls.get(arg, 0)
            elif how == "count":
                out[metric] = self.counts.get(arg, 0)
            elif how == "max":
                out[metric] = self.maxima.get(arg, 0)
            else:
                out[metric] = self.int_results / self.op_results if self.op_results else 0.0
        return out

    def _outermost(self, names: set[str], dur: list[float]) -> float:
        total = 0.0
        for i, name in enumerate(self.names):
            if name not in names:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in names:
                p = self.parents[p]
            if p < 0:
                total += dur[i]
        return total

    def dump(self, path) -> None:
        """Write the spans as JSON lines; ``job`` is the root span's job."""
        roots = self._roots()
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "start": self.starts[i], "end": self.ends[i],
                    "job": self.job_keys.get(roots[i])}) + "\n")


# -- hooks --------------------------------------------------------------------

def _support(s) -> int:
    """Number of coefficients from the valuation to the last nonzero one."""
    v = s.valuation
    if v is None:
        return 0
    k = s.order
    while s.coeff(k) == 0:
        k -= 1
    return k - v + 1


def _triangle(n: int, m: int) -> int:
    """sum(min(k, m) for k in range(n)): the inner-loop length of long division."""
    if m <= 0 or n <= 1:
        return 0
    if n <= m + 1:
        return n * (n - 1) // 2
    return m * (m + 1) // 2 + (n - 1 - m) * m


def _products(op: str, args, result) -> int:
    """Schoolbook multiply-adds of one mul/div/inverse, from operand lengths."""
    self = args[0]
    if op == "inverse":
        return _triangle(self.order - self.valuation + 1, _support(self) - 1)
    other = args[1]
    lb = _support(other) if hasattr(other, "valuation") else (1 if other else 0)
    if op == "div":
        if result.valuation is None:
            return 0
        vb = other.valuation if hasattr(other, "valuation") else 0
        n_out = result.order - (self.valuation - vb) + 1
        return _triangle(n_out, lb - 1)
    la = _support(self)
    if not la or not lb:
        return 0
    vb = other.valuation if hasattr(other, "valuation") else 0
    n_out = result.order - (self.valuation + vb) + 1
    return sum(max(0, min(lb, n_out - i)) for i in range(la))


def _series_hook(op: str):
    def hook(rec: Recorder, args, _kwargs, result) -> None:
        if op in ("mul", "div", "inverse"):
            rec.counts["series.coeff_products"] += _products(op, args, result)
        v = result.valuation
        coeffs = [] if v is None else [result.coeff(k) for k in range(v, result.order + 1)]
        rec.op_results += 1
        rec.int_results += all(c.denominator == 1 for c in coeffs)
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in coeffs), default=0)
        rec.maxima["series.coeff_bits"] = max(rec.maxima["series.coeff_bits"], bits)
    return hook


def _digits_hook(fn):
    sig = inspect.signature(fn)

    def hook(rec: Recorder, args, kwargs, _result) -> None:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        d = bound.arguments["digits"]
        rec.maxima["asymptotics.digits"] = max(rec.maxima["asymptotics.digits"], d)
    return hook


def _lengths_hook(rec: Recorder, args, kwargs, _result) -> None:
    n_max = args[1] if len(args) > 1 else kwargs["n_max"]
    rec.counts["walks.count_walks.lengths"] += n_max + 1


def _verdicts_hook(rec: Recorder, _args, _kwargs, verdicts) -> None:
    for v in verdicts:
        rec.counts[f"verdicts.{v.status}"] += 1


def _bytes_hook(rec: Recorder, args, _kwargs, _result) -> None:
    rec.counts["cli.output_bytes"] += len(args[0].encode())


# -- installation -------------------------------------------------------------

class Tracer:
    """Installs wrappers that record into ``self.rec``; undoes them on exit."""

    def __init__(self):
        self.rec = Recorder()
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, hook=None):
        rec = self.rec

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = rec.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if hook is not None:
                j = rec.open("trace.hooks")
                hook(rec, args, kwargs, result)
                rec.close(j)
            return result
        return traced

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _module_functions(self, short: str):
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                yield name, fn

    def _name_and_hook(self, short: str, name: str, fn):
        if short == "walks" and name == "count_walks":
            def label(model, *_a, **_k):
                return ("walks.count_walks.wedge"
                        if model.kind in ("symmetric", "asymmetric")
                        else "walks.count_walks.line")
            return label, _lengths_hook
        if short == "closedforms" and name in _BUILDERS:
            return f"closedforms.gf.{_BUILDERS[name]}", None
        if short == "closedforms" and name == "theta_sum":
            return (lambda kind, *_a, **_k: f"closedforms.gf.theta_{kind}"), None
        if short == "suites" and name.startswith("suite_"):
            return f"suites.{name[len('suite_'):]}", None
        if short == "suites" and name == "run_suite":
            return "suites.run_suite", _verdicts_hook
        if short == "asymptotics" and "digits" in inspect.signature(fn).parameters:
            return f"asymptotics.{name}", _digits_hook(fn)
        return f"{short}.{name}", None

    def install(self) -> "Tracer":
        """Wrap everything that exists; a helper a later change renamed or
        removed is skipped, and the metrics it fed read 0."""
        replaced: dict[int, tuple] = {}
        for short in ("series", "walks", "kernel", "closedforms", "asymptotics",
                      "suites", "cli"):
            for name, fn in self._module_functions(short):
                if short == "cli" and name == "main":
                    continue
                label, hook = self._name_and_hook(short, name, fn)
                replaced[id(fn)] = (fn, self._wrap(fn, label, hook))

        cli = sys.modules[f"{PACKAGE}.cli"]
        for private, label, hook in (("_write", "cli.write", _bytes_hook),
                                     ("_series_csv", "cli.format", None)):
            fn = getattr(cli, private, None)
            if fn is not None:
                replaced[id(fn)] = (fn, self._wrap(fn, label, hook))
        parser_fn = cli.build_parser

        def parser_hook(rec, _args, _kwargs, parser):
            parser.parse_args = self._wrap(parser.parse_args, "cli.parse_args")
        replaced[id(parser_fn)] = (parser_fn, self._wrap(parser_fn, "cli.build_parser",
                                                         parser_hook))

        # every module-level binding of a replaced function, in every module
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        hit = replaced.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._undo.append((value, key, item))
                            value[key] = hit[1]

        series = sys.modules[f"{PACKAGE}.series"]
        walks = sys.modules[f"{PACKAGE}.walks"]
        asy = sys.modules[f"{PACKAGE}.asymptotics"]
        methods = [(series.TSeries, op, f"series.{op}", _series_hook(op)) for op in SERIES_OPS]
        methods += [(cls, name, "cli.format", None) for cls, name in (
            (walks.CountTable, "to_csv"), (walks.CountTable, "to_json"),
            (walks.WeightedSeries, "to_json"), (series.TSeries, "to_json"),
            (asy.RootAudit, "to_json"), (asy.AsymptoticReport, "to_dict"))]
        for cls, name, label, hook in methods:
            fn = cls.__dict__.get(name)
            if fn is not None:
                self._set(cls, name, self._wrap(fn, label, hook))
        json_mod = cli.json
        self._set(cli, "json", types.SimpleNamespace(
            dumps=self._wrap(json_mod.dumps, "cli.format"), loads=json_mod.loads))
        return self

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._undo):
            if type(obj) is dict:
                obj[attr] = old
            else:
                setattr(obj, attr, old)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
