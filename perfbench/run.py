#!/usr/bin/env python3
"""Benchmark of the wedgewalks command line, end to end and layer by layer.

Run from the root of a source checkout (only the standard library, mpmath
and numpy are needed; the program is imported from ``src/``):

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload verify --seed 1 --seconds 38 --trace 1
    python3 perfbench/run.py --compare before.jsonl after.jsonl

A run draws the workload's job list from the seed (jobs.py) and passes each
job's argv to ``wedgewalks.cli.main`` in this process, one job after the
other (a closed loop with one client and no threads).  It repeats the whole
list while the time budget lasts and checks every job's output (checks.py).

``--trace 0`` reports the end-to-end metrics: the time of the whole job
list (``wall_s``), the median and tail of the per-job median latencies, the
cold-start time of a fresh interpreter (``setup_s``) and the peak resident
memory.  ``--trace 1`` alternates untraced passes with traced ones
(tracer.py) and reports the per-layer metrics, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--record FILE``
also appends the result, with the environment, to a JSON-lines file that
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import tracer  # noqa: E402

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
COLD_STARTS = 7
MIN_PASSES = 3
#: stop starting passes past this point whatever the budget, so a run on a
#: slow machine still ends well inside three minutes
HARD_STOP_S = 140.0
#: jobs that must lie beyond the tail percentile
TAIL_JOBS = 10
#: seconds probe() takes on an uncontended core of the reference machine
#: (2-vCPU Intel Xeon, Python 3.11.7, no gmpy2)
PROBE_REF_S = 0.006


def import_program():
    if not (SRC / "wedgewalks" / "cli.py").is_file():
        raise SystemExit(f"error: no wedgewalks sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wedgewalks.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "wedgewalks":
        raise SystemExit(f"error: imported wedgewalks from {cli.__file__}, not {SRC}")
    return cli


def environment() -> dict:
    import mpmath
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "wedgewalks").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def probe() -> float:
    """Seconds taken by a fixed slice of work shaped like the program's inner loops.

    The machine's cores are shared with other tenants.  While a neighbour
    keeps the sibling hardware thread busy, pure-Python work runs about 1.6
    times slower, for seconds to minutes at a time, which swamps any change
    worth measuring.  This probe, a dictionary-keyed DP over integers of
    about a thousand bits like the walk counts, slows by the same factor:
    timed back to back on the reference machine, 1.59 for the probe against
    1.58 for count, closed-form series and rational-series calls (a probe on
    small integers or fractions slowed by 1.63 and 1.69).  Jobs are timed
    between probes and reported at the reference speed.
    """
    t0 = perf_counter()
    frontier = {(0, 0): 10 ** 300}
    for _ in range(36):
        new = {}
        get = new.get
        for (x, y), c in frontier.items():
            for key in ((x + 1, y), (x, y + 1), (x, y - 1)):
                if -x <= key[1] <= x + 1:
                    new[key] = get(key, 0) + 3 * c + 1
        frontier = new
    return perf_counter() - t0


def cold_start_seconds() -> float:
    """Median wall time of a fresh interpreter importing the CLI and building its parser.

    Not scaled by the probe: the child may run on the other core, whose
    load the probe does not see (scaling made the spread worse, not better).
    """
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import wedgewalks.cli as c; c.build_parser()")
    times = []
    for _ in range(COLD_STARTS):
        t0 = perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
        subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def invoke(cli, argv: list[str]):
    """Exit code of one CLI call, or a short description of how it broke."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return cli.main(argv)
    except SystemExit as exc:
        return f"exit {exc.code}: {err.getvalue().strip()[-200:]}"
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        return f"{type(exc).__name__}: {exc}"


def run_pass(cli, job_list, rec=None):
    """Run every job once, with a probe before the first job and after each.

    Returns the pass's wall seconds, each job's latency, the factor that
    scales each latency to reference speed, and each job's (rc, output).
    A job's factor is PROBE_REF_S over the median of the probes taken within
    one job length before its start or after its end.  For a short job that
    is its two neighbours; a long job's two neighbours can both fall in a
    short burst of the other state, which the wider window outvotes.
    """
    out = WORK / "job.out"
    latencies, spans, results = [], [], []
    probe_at, probe_s = [perf_counter()], [probe()]
    start = perf_counter()
    for job in job_list:
        argv = [*job.argv, "--out", str(out)]
        if rec is not None:
            span = rec.open("job")
            rec.job_keys[span] = job.key
        t0 = perf_counter()
        rc = invoke(cli, argv)
        t1 = perf_counter()
        if rec is not None:
            rec.close(span)
        latencies.append(t1 - t0)
        spans.append((t0, t1))
        try:
            data = out.read_bytes()
            out.unlink()
        except FileNotFoundError:
            data = b""
        results.append((rc, data))
        probe_at.append(perf_counter())
        probe_s.append(probe())
    wall = perf_counter() - start
    scales = []
    for j, (t0, t1) in enumerate(spans):
        lo = min(j, bisect.bisect_left(probe_at, 2 * t0 - t1))
        hi = max(j + 2, bisect.bisect_right(probe_at, 2 * t1 - t0))
        scales.append(PROBE_REF_S / statistics.median(probe_s[lo:hi]))
    return wall, latencies, scales, results


def tail(per_job: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_JOBS jobs beyond it, and its value."""
    n = len(per_job)
    q = math.floor(100 * (1 - TAIL_JOBS / n))
    rank = max(1, math.ceil(q * n / 100))
    return q, sorted(per_job)[rank - 1]


class Run:
    """One workload's job list, its outputs and its failures."""

    def __init__(self, cli, workload: str, seed: int, seconds: int):
        from wedgewalks import discrepancies

        self.cli = cli
        self.jobs = jobs.job_list(workload, seed)
        self.seconds = seconds
        self.digests = checks.load_digests()
        self.ledger_ids = {d.id for d in discrepancies.LEDGER}
        self.attempted = 0
        self.failures: list[str] = []
        self.first_outputs: dict[str, tuple] = {}

    def pass_once(self, rec=None) -> tuple[float, list[float], list[float]]:
        wall, latencies, scales, results = run_pass(self.cli, self.jobs, rec)
        for job, (rc, data) in zip(self.jobs, results):
            self.attempted += 1
            self.first_outputs.setdefault(job.key, (job, data))
            try:
                why = checks.check_output(job, rc, data, self.digests, self.ledger_ids)
            except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
                why = f"unreadable output: {exc!r}"
            if why:
                self.failures.append(f"{job.key}: {why}")
        return wall, latencies, scales

    def measure(self, traced: bool):
        """Repeat the job list while the budget lasts.

        Returns the untraced passes and, with ``traced``, as many traced
        passes interleaved with them, each with its span recorder.
        """
        plain, with_trace, cycles = [], [], []
        begin = perf_counter()
        least = 1 if traced else MIN_PASSES
        while True:
            cycle = perf_counter()
            plain.append(self.pass_once())
            if traced:
                with tracer.Tracer() as t:
                    with_trace.append((*self.pass_once(t.rec), t.rec))
            cycles.append(perf_counter() - cycle)
            next_end = perf_counter() - begin + statistics.median(cycles)
            if next_end > HARD_STOP_S or (len(cycles) >= least and next_end > self.seconds):
                return plain, with_trace

    def independent_checks(self) -> None:
        refs = checks.References()
        for job, data in self.first_outputs.values():
            if job.check == "digest" and data:
                why = checks.independent_check(job, data, refs)
                if why:
                    self.failures.append(f"{job.key}: {why} (second path)")


def end_to_end(run: Run, plain) -> tuple[dict, list[str]]:
    def per_job(scaled: bool) -> list[float]:
        return [statistics.median(lat[j] * (scale[j] if scaled else 1)
                                  for _, lat, scale in plain)
                for j in range(len(run.jobs))]

    at_ref, raw = per_job(True), per_job(False)
    q, tail_value = tail(at_ref)
    metrics = {
        # a burst of load from outside slows one pass; summing per-job
        # medians keeps it to one sample of each job it hit
        "wall_s": sum(at_ref),
        "job_p50_s": statistics.median(at_ref),
        "job_tail_s": tail_value,
        "setup_s": cold_start_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(at_ref)
    notes = [f"job_tail_s is p{q} of {n} per-job median latencies "
             f"({n - math.ceil(q * n / 100)} jobs beyond it)",
             f"times are at reference speed; as measured: wall_s {sum(raw):.3f}, "
             f"job_p50_s {statistics.median(raw):.4f}, job_tail_s {tail(raw)[1]:.4f}",
             f"passes {len(plain)}: " + " ".join(f"{w:.3f}" for w, _, _ in plain) + " s"]
    return metrics, notes


def per_layer(run: Run, plain, with_trace, spans_path: Path) -> tuple[dict, list[str]]:
    layer = [rec.metrics(scales) for _, _, scales, rec in with_trace]
    metrics = {}
    for name, ((how, _arg), _unit) in tracer.METRICS.items():
        values = [m[name] for m in layer]
        metrics[name] = values[0] if how in ("calls", "count", "max", "share") \
            else statistics.median(values)
    def job_time(lat, scales):
        return sum(t * k for t, k in zip(lat, scales))

    metrics["trace.overhead_s"] = (
        statistics.median(job_time(lat, sc) for _, lat, sc, _ in with_trace)
        - statistics.median(job_time(lat, sc) for _, lat, sc in plain))
    for name in tracer.REPEATABLE:
        if len({m[name] for m in layer}) > 1:
            run.failures.append(f"count {name} differs between traced passes: "
                                f"{[m[name] for m in layer]}")
    with_trace[-1][-1].dump(spans_path)
    notes = [f"traced passes {len(with_trace)}, untraced passes {len(plain)}; "
             f"spans of the last traced pass in {spans_path.relative_to(ROOT)}"]
    return metrics, notes


def probe_known_defects(cli) -> list[str]:
    """Run the inputs with known false failures; report what they give today."""
    out = WORK / "probe.out"
    lines = []
    for argv in jobs.KNOWN_DEFECT_PROBES:
        rc = invoke(cli, [*argv, "--out", str(out)])
        try:
            summary = json.loads(out.read_text())
            out.unlink()
            failed = sorted({v["identity"] for v in summary["results"] if v["status"] == "fail"})
            what = f"{summary['counts']['fail']} fail {failed}"
        except (OSError, ValueError, KeyError) as exc:
            what = f"no readable summary ({exc!r})"
        lines.append(f"known-defect probe (untimed, not counted): {' '.join(argv)} "
                     f"-> exit {rc}, {what}")
    return lines


def benchmark(args) -> int:
    cli = import_program()
    os.environ.pop("WEDGEWALKS_DIGITS", None)  # inputs come from the seed alone
    WORK.mkdir(exist_ok=True)
    env = environment()
    run = Run(cli, args.workload, args.seed, args.seconds)
    plain, with_trace = run.measure(bool(args.trace))
    if args.trace:
        spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        values, notes = per_layer(run, plain, with_trace, spans)
        units = {name: unit for name, (_how, unit) in tracer.METRICS.items()}
        units["trace.overhead_s"] = "s"
    else:
        values, notes = end_to_end(run, plain)
        units = END_TO_END
    run.independent_checks()
    if args.workload == "verify" and not args.trace:
        notes += probe_known_defects(cli)

    failed = len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(run.jobs)}  "
          f"budget {args.seconds} s  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    print(f"  {'error_rate':<36} {failed / run.attempted:>16.6f} ratio "
          f"({failed} of {run.attempted} job runs failed a check)")
    for line in notes + run.failures[:20]:
        print("  " + line)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "env": env, "notes": notes, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


# -- compare ------------------------------------------------------------------

def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: medians, quartiles and the ratio B/A."""
    sides = []
    for path in (path_a, path_b):
        with open(path) as fh:
            sides.append([json.loads(line) for line in fh if line.strip()])
    backends = {r["env"]["mpmath_backend"] for side in sides for r in side}
    if len(backends) > 1:
        print(f"error: results use different mpmath backends {sorted(backends)}; "
              "their timings are not comparable", file=sys.stderr)
        return 2
    groups = sorted({(r["workload"], r["trace"]) for side in sides for r in side})
    print(f"{'workload':<11} {'metric':<36} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B/A':>7}")
    for workload, trace in groups:
        runs = [[r for r in side if (r["workload"], r["trace"]) == (workload, trace)]
                for side in sides]
        names = dict.fromkeys(n for side in runs for r in side for n in r["result"]["metrics"])
        for name in names:
            cells, medians = [], []
            for side in runs:
                vals = [r["result"]["metrics"][name]["value"] for r in side
                        if name in r["result"]["metrics"]]
                if not vals:
                    cells.append(f"{'-':>34}")
                    medians.append(None)
                    continue
                q1, med, q3 = _quartiles(vals)
                cells.append(f"{med:>12.6g} [{q1:>9.4g}, {q3:>9.4g}] n={len(vals):<2}")
                medians.append(med)
            a, b = medians
            ratio = f"{b / a:7.3f}" if a and b is not None else f"{'-':>7}"
            print(f"{workload:<11} {name:<36} {cells[0]} {cells[1]} {ratio}")
    return _counts_repeat(sides)


def _counts_repeat(sides) -> int:
    """Traced runs of one workload and seed must give identical counts."""
    seen: dict[tuple, dict] = {}
    mismatches = 0
    compared = 0
    for side in sides:
        for r in side:
            if not r["trace"]:
                continue
            counts = {n: r["result"]["metrics"][n]["value"] for n in tracer.REPEATABLE}
            key = (r["workload"], r["seed"])
            if key in seen:
                compared += 1
                diff = [n for n in tracer.REPEATABLE if seen[key][n] != counts[n]]
                if diff:
                    mismatches += 1
                    print(f"counts differ for {key}: {diff}")
            else:
                seen[key] = counts
    if compared:
        print(f"traced counts: {compared} repeated runs compared, {mismatches} differ")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two files written by --record")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
