"""The documented discrepancy ledger: data only, with no package imports.

Each entry records a closed-form statement that disagrees with exact
enumeration (or with its own companion identities), the observed difference,
and which side is trusted.  Ledgered discrepancies are expected: an identity
in ``suites`` names the entry that covers it, so its mismatch is "reported"
and never fails a run, and ``ledger explain`` adds that identity's
coefficients to the entry's text.  See DISCREPANCIES.md for the narrative
version.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Discrepancy:
    id: str
    title: str
    observed: str
    trusted: str


LEDGER = [
    Discrepancy(
        id="halfplane-gf",
        title="half-plane closed form is Laurent of valuation -2",
        observed="the closed form used by gf_series('halfplane') has numerator "
                 "constant term -2, so its expansion starts at t^-2 and cannot "
                 "equal the walk counts 1, 2, 4, 9, 20, ...; as written it "
                 "expands to t^-2 - 3 t^-1 + 5 - 14t + 32t^2 - ... (alternating "
                 "signs, wrong magnitudes)",
        trusted="dynamic-programming counts",
    ),
    Discrepancy(
        id="flat-boundary-interpretation",
        title="Q vs flat-boundary walks identity fails at order 6",
        observed="t^3 (B_flat(t) - 1) agrees with Q_asym(1) at t^4 and t^5 but "
                 "gives 1 instead of 2 at t^6 (and diverges further on); the "
                 "stated combinatorial interpretation does not hold as written. "
                 "The single-vertex walk gives both boundary series the constant "
                 "term 1; the interpretation identities use B - 1, so the "
                 "constant never enters the comparison",
        trusted="dynamic-programming counts of flat-boundary walks",
    ),
    Discrepancy(
        id="diag-boundary-interpretation",
        title="P vs diagonal-boundary walks identity fails at low order",
        observed="with the t^2-normalized P (the form entering the final walk "
                 "series) the valuations differ (3 vs 5); the un-divided "
                 "composition Q(alpha_1(1)) has the right valuation 5 but "
                 "gives 3 instead of 2 at t^7",
        trusted="dynamic-programming counts of diagonal-boundary walks",
    ),
    Discrepancy(
        id="term-by-term-solution",
        title="printed term-by-term H(a,ta) expression is Laurent of valuation -1",
        observed="the n = 0 term of the explicit term-by-term expansion "
                 "(gf_series('H_aya_raw')) reduces to -(1+t^2)/(a t) + "
                 "2 beta_1(a)/a^2, so the sum starts at t^-1 and lacks the "
                 "constant term; the simplified sum and the raw coefficient "
                 "ladder both match enumeration exactly",
        trusted="simplified sum, raw coefficient ladder, and enumeration",
    ),
    Discrepancy(
        id="p2-summand-tail",
        title="per-summand tail constants are diagnostic only",
        observed="the per-k summand asymptotics lack uniform error bounds; at "
                 "n = 200 the k = 0 summand formula is within 0.34% but the "
                 "k >= 1 gaps are large; the sqrt(n)-level constant comes from "
                 "fits against exact counts (0.0905859863..., not the printed "
                 "0.0905847..., see sqrt-n-constant-pair), not from the k-sum",
        trusted="fits against exact counts",
    ),
    Discrepancy(
        id="sqrt-n-constant-pair",
        title="the two printed sqrt(n)-level constants are mutually inconsistent",
        observed="the printed constants 0.090584741026764287 (horizontal-ending "
                 "level) and 0.218693916694303177 (all-walks level) are stated "
                 "to differ by a factor of exactly 1 + sqrt(2), but their ratio "
                 "misses it by 3.0e-6; Neville extrapolation of exact counts "
                 "w_n sqrt(n)/mu^n over n <= 600 gives 0.2186939171 +/- 5e-10, "
                 "supporting the all-walks constant, so the horizontal-ending "
                 "one is mistyped (true value 0.0905859863032722...)",
        trusted="exact counts; the all-walks constant 0.218693916694303177",
    ),
    Discrepancy(
        id="accuracy-table-figures",
        title="stated accuracy figures are one-digit truncations",
        observed="the two-singularity formula errors at n = 10, 20, 30, 40 are "
                 "7.7%, 1.11%, 0.237%, 0.0614%; truncated to one significant "
                 "digit they reproduce the stated 7%, 1%, 0.2%, 0.06% exactly",
        trusted="exact counts (raw errors reported alongside the figures)",
    ),
]

_BY_ID = {d.id: d for d in LEDGER}


def get(entry_id: str) -> Discrepancy:
    if entry_id not in _BY_ID:
        raise KeyError(f"no ledger entry {entry_id!r}; known: {sorted(_BY_ID)}")
    return _BY_ID[entry_id]


def explain(entry_id: str) -> str:
    d = get(entry_id)
    return "\n".join([f"[{d.id}] {d.title}", f"  observed: {d.observed}",
                      f"  trusted:  {d.trusted}"])


def listing() -> str:
    return "\n".join(f"[{d.id}] {d.title}" for d in LEDGER)
