"""Seeded job lists for the three benchmark workloads.

A workload is a list of strata.  A stratum is one kind of CLI job with a
parameter range, drawn k times per pass.  The seed places the k draws by
systematic sampling: the range is cut into k equal bins, draw j lands near
the middle of bin j (jittered by up to JITTER of a bin width) and draw k-1-j
at the mirror image of draw j; then the seed shuffles which template gets
which value and the order of all jobs.  Two seeds therefore run different
inputs, while the total work and the spread of job sizes, and with them the
end-to-end metrics, hardly depend on the seed.  Every range lies where the
seed commit gives a correct answer (see README.md for the inputs that do not).
"""

from __future__ import annotations

import random
from typing import NamedTuple

LINE_MODELS = ("free", "halfplane", "quarter_endline", "boundary_flat",
               "boundary_diag")
WEDGES = ("symmetric", "asymmetric")
RATIONALS = ("1/2", "2/3", "3/5", "2")
JITTER = 0.1


class Job(NamedTuple):
    argv: tuple[str, ...]
    check: str  # "digest" | "verify" | "asympt"

    @property
    def key(self) -> str:
        return " ".join(self.argv)


class Stratum(NamedTuple):
    check: str
    templates: tuple[str, ...]  # one job per template; "{v}" is the drawn value
    values: tuple[int, ...]     # candidates, in increasing order
    fmt: bool = False           # draw --format csv|json as well

    def _centres(self) -> tuple[float, list[tuple[float, bool]]]:
        """Bin width, and per draw pair the centre index of draw j and
        whether a mirrored draw k-1-j goes with it."""
        k, m = len(self.templates), len(self.values)
        width = m / k
        return width, [((j + 0.5) * width - 0.5, k - 1 - j != j)
                       for j in range((k + 1) // 2)]

    def draw(self, rng: random.Random) -> list[Job]:
        m = len(self.values)
        width, centres = self._centres()
        picks: list[int] = []
        for centre, mirrored in centres:
            pos = centre + rng.uniform(-JITTER, JITTER) * width
            picks.append(self.values[min(m - 1, max(0, round(pos)))])
            if mirrored:
                picks.append(self.values[min(m - 1, max(0, round(m - 1 - pos)))])
        rng.shuffle(picks)
        jobs = []
        for template, v in zip(self.templates, picks):
            argv = template.format(v=v).split()
            if self.fmt:
                argv += ["--format", rng.choice(("csv", "json"))]
            jobs.append(Job(tuple(argv), self.check))
        return jobs

    def space(self) -> list[Job]:
        """Every job this stratum can draw, for recording reference digests."""
        m = len(self.values)
        width, centres = self._centres()
        reach = set()
        for centre, _ in centres:
            lo, hi = centre - JITTER * width, centre + JITTER * width
            for a, b in ((lo, hi), (m - 1 - hi, m - 1 - lo)):
                reach.update(i for i in range(m) if a <= i + 0.5 and i - 0.5 <= b)
        formats = (["--format", "csv"], ["--format", "json"]) if self.fmt else ([],)
        return [Job(tuple(t.format(v=self.values[i]).split() + f), self.check)
                for t in dict.fromkeys(self.templates) for i in sorted(reach)
                for f in formats]


def around(mid: int, half: int, step: int = 1) -> tuple[int, ...]:
    return tuple(range(mid - half, mid + half + 1, step))


def _pair(check: str, template: str, values, fmt: bool = False) -> Stratum:
    return Stratum(check, (template, template), values, fmt)


def _enumerate() -> list[Stratum]:
    out = []
    for m in LINE_MODELS:
        out.append(_pair("digest", f"count --model {m} --n {{v}}", around(50, 10), True))
        out.append(_pair("digest", f"count --model {m} --n {{v}}", around(135, 10), True))
    for m in WEDGES:
        out.append(_pair("digest", f"count --model {m} --p 1 --n {{v}}", around(60, 10), True))
        out.append(_pair("digest", f"count --model {m} --p 1 --n {{v}}", around(140, 10), True))
    # eight asymmetric jobs of about equal cost hold the median
    for p in (2, 3):
        out.append(_pair("digest", f"count --model symmetric --p {p} --n {{v}}",
                         around(100, 10), True))
        out.append(Stratum("digest", (f"count --model asymmetric --p {p} --n {{v}}",) * 4,
                           around(100, 2), True))
    for p in (1, 2, 3):
        out.append(Stratum("digest", tuple(
            f"series --kind weighted --model {m} --p {p} --order {{v}}" for m in WEDGES),
            around(50, 10)))
    out.append(Stratum("asympt", ("asympt --const B0 --digits 30 --nmax {v}",
                                  "asympt --const halfplane --digits 30 --nmax {v}"),
                       around(120, 10)))
    out.append(Stratum("asympt", ("asympt --const A1A2 --digits 30 --nmax {v}",),
                       around(120, 10)))
    return out


def _closedform() -> list[Stratum]:
    out = []
    # the median falls among the asym_h1/asym_k1 jobs at order ~24, which
    # cost about the same, so it does not jump between unlike jobs
    for kind in ("free", "dyck", "halfplane", "sym_g1", "sym_f1"):
        out.append(Stratum("digest", (f"series --kind {kind} --order {{v}}",) * 4,
                           around(15, 5), True))
    for kind in ("asym_h1", "asym_k1"):
        out.append(Stratum("digest", (f"series --kind {kind} --order {{v}}",) * 6,
                           around(24, 2), True))
    for kind, values in (("sym_g1", around(140, 10)), ("sym_f1", around(140, 10)),
                         ("asym_h1", around(60, 10)), ("asym_k1", around(70, 10)),
                         ("dyck", around(300, 50, 5)), ("free", around(400, 100, 10)),
                         ("halfplane", around(300, 100, 10))):
        out.append(_pair("digest", f"series --kind {kind} --order {{v}}", values, True))
    for p in (1, 2, 3):
        out.append(_pair("digest", f"series --kind bargraph --p {p} --order {{v}}",
                         around(40, 10), True))
    out.append(_pair("asympt", "asympt --const p-pieces --digits 30 --nmax {v}",
                     around(50, 10)))
    return out


def _series_at_rationals(kind: str, values, times: int = 1) -> Stratum:
    return Stratum("digest", tuple(f"series --kind {kind} --a {a} --order {{v}}"
                                   for a in RATIONALS) * times, values, True)


def _verify() -> list[Stratum]:
    # Job sizes come in three groups: cheap jobs below the median; twelve
    # rational-series jobs of about equal cost (orders chosen per kind) that
    # hold the median; and eight H_aya_raw jobs, again of equal cost, that
    # hold the tail percentile, with the suites above them.
    return [
        Stratum("asympt", ("asympt --const A0 --digits {v}",) * 2, around(110, 90)),
        Stratum("asympt", ("asympt --const theta --digits {v}",) * 2, around(110, 90)),
        Stratum("verify", ("verify --suite interpretations --order {v}",) * 4,
                around(8, 6)),
        _series_at_rationals("theta_sym", around(25, 2)),
        _series_at_rationals("F_aya", around(22, 2)),
        _series_at_rationals("theta_asym_q", around(23, 1)),
        _series_at_rationals("theta_asym_p", around(18, 1)),
        _series_at_rationals("H_aya_simplified", around(19, 1)),
        _series_at_rationals("H_aya_raw", around(18, 1), times=2),
        _pair("verify", "verify --suite funceq --order {v}", around(14, 4)),
        _pair("asympt", "asympt --const roots --digits 30 --kmax {v}", around(5, 1)),
        Stratum("verify", ("verify --suite kernel --order {v}",), (2, 4, 5, 6, 7, 8, 10)),
        Stratum("verify", ("verify --suite closedform --order {v}",), around(21, 19)),
        Stratum("verify", ("verify --suite growth",), (0,)),
    ]


WORKLOADS = {
    "enumerate": _enumerate(),
    "closedform": _closedform(),
    "verify": _verify(),
}

#: Inputs on which the seed commit gives a false verification failure.  They
#: run once per verify run, untimed, so the defects stay visible without
#: entering the timed job mix (whose every job must succeed).
KNOWN_DEFECT_PROBES = (
    ("verify", "--suite", "kernel", "--order", "1"),
    ("verify", "--suite", "kernel", "--order", "3"),
)


def job_list(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = [job for stratum in WORKLOADS[workload] for job in stratum.draw(rng)]
    rng.shuffle(jobs)
    return jobs
