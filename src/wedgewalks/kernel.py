"""Kernel systems for the wedge functional equations, their roots, and the
iterated compositions that solve them.

Everything here lives after the specialization x = y = t (both step weights
equal to the length variable); solutions and all verifications happen there.
Arguments ``a``/``b`` may be exact rationals or series in t; roots in closed
form exist only for slope p = 1, and every one of them is built by ``root``
from ``_slot``, the one description of the p = 1 kernel in each root slot.

The kernel form of the column-construction equation is

    K(a,b) * f(a,b) = X(a,b) + Y(a,b) * f(a, t*a) + Z(a,b) * f(t*b, b)

where f(a, t*a) re-weights walks whose endpoint sits on the lower boundary
line and f(t*b, b) those on the upper one.  One formula (``kernel_coeffs``)
gives K, X, Y and Z for both wedges, in terms of the weight w of an east
step: (ab)^p in the symmetric wedge and a^p in the asymmetric one.  The
wedges differ in four places only: that weight (``_east_weight``), the p = 1
kernel in each root slot (``_slot``), the form of Q (``_q_form``) and the
root steps of a ``Chain``.  The kernel-form residual is X times the
column-construction residual.

The paper solves its recurrences by iterated compositions of the kernel
roots.  A ``Chain`` builds them once: a, beta(a), beta(beta(a)), ...
(symmetric) or a, beta(a), gamma_1(a), beta(gamma_1(a)), ... (asymmetric),
and every composed form reads a chain.  Composed forms read only that chain
and closed forms only beta_1(a) or Q(a), so each "closed = composed"
identity compares two independent computations.

The identity helpers (``group_law_check``, ``mixed_inverse_check``,
``script_coeffs``, the ``residual_*`` functions) return only the series to
compare or the residuals that must vanish; ``suites`` turns them into
verdicts.

Every builder asked for a series to ``order`` works at the order its result
needs, order + the orders its formula loses, and no higher: a division by a
series of valuation v loses v orders (``TSeries.div``) and a shift by -k
loses k.  Each docstring says where its margin comes from.  Where the losses
were measured, not derived (``script_coeffs``, ``raw_iterated_sum``), the
margin is the least under which every output of the command-line tool stayed
byte-identical and every verdict's residuals reached the order it claims.
The margins only size the work: ``TSeries`` carries the reliable order of
every result, so a margin too small makes a result short (an
OrderUnderflowError), never wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import NamedTuple, Union

from .series import OrderUnderflowError, TSeries, tpoly

Arg = Union[int, Fraction, TSeries]

#: rational sample arguments for identity checks (values that keep every
#: leading coefficient nonzero)
SAMPLE_ARGS = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(3, 5),
    Fraction(2),
)


class BranchSelectionError(ValueError):
    """A kernel-root branch failed its leading-term check."""


def tvar(order: int) -> TSeries:
    return TSeries.t_power(1, order)


def as_series(v: Arg, order: int) -> TSeries:
    if isinstance(v, TSeries):
        return v
    return TSeries.constant(Fraction(v), order)


class KernelCoeffs(NamedTuple):
    kernel: TSeries        # K
    free_term: TSeries     # X
    lower: TSeries         # Y, multiplies f(a, t*a)
    upper: TSeries         # Z, multiplies f(t*b, b)


def _east_weight(kind: str, p: int, a, b):
    """The weight of an east step: (ab)^p in the symmetric wedge, a^p in the
    asymmetric one."""
    if kind not in ("symmetric", "asymmetric"):
        raise ValueError(f"no kernel system for model {kind!r}")
    return (a * b) ** p if kind == "symmetric" else a**p


def kernel_coeffs(kind: str, p: int, a: Arg, b: Arg, order: int) -> KernelCoeffs:
    """The quadruple (K, X, Y, Z) for either model and any integer p >= 1.

    With w the east-step weight (``_east_weight``):
      X = (b - ta)(a - tb),
      K = X (1 - tw) - t^2 w (a^2 + b^2 - 2tab),
      Y = -t^2 a w (a - tb),
      Z = -t^2 b w (b - ta).
    """
    t = tvar(order)
    a = as_series(a, order)
    b = as_series(b, order)
    w = _east_weight(kind, p, a, b)
    bya = b - t * a
    ayb = a - t * b
    square = a * a + b * b - 2 * (t * a * b)
    x_term = bya * ayb
    k = x_term * (1 - t * w) - t * t * w * square
    y_term = -(t * t) * a * w * ayb
    z_term = -(t * t) * b * w * bya
    return KernelCoeffs(k, x_term, y_term, z_term)


def kernel_p1_printed(a: Arg, b: Arg, order: int) -> TSeries:
    """The reduced symmetric p=1 kernel, expanded as a quadratic in b."""
    t = tvar(order)
    a = as_series(a, order)
    b = as_series(b, order)
    p, l = _slot("symmetric", "beta", a, t)
    return -(t * l) * b * b + p * a * b - t * a * a


# -- roots (p = 1) ----------------------------------------------------------

#: the (model, slot) pairs that have kernel roots
_SLOTS = (("symmetric", "beta"), ("asymmetric", "beta"), ("asymmetric", "alpha"))


def _slot(kind: str, slot: str, m: TSeries, t: TSeries) -> tuple[TSeries, TSeries]:
    """(P, L) of the p = 1 kernel of ``kind`` in the unknown x of ``slot``.

    x sits in ``slot`` ("beta": the second argument, "alpha": the first) and
    m in the other one; the kernel is then -t L x^2 + P m x - t m^2.
    """
    if slot == "alpha":
        return 1 + t * t, 1 + m * (1 - t * t)
    if kind == "symmetric":
        return 1 + t * t, 1 + m * m * (1 - t * t)
    return 1 + t * t - t * (1 - t * t) * m, TSeries.constant(1, t.order)


def root(kind: str, which: str, arg: Arg, order: int) -> TSeries:
    """A kernel root as a series in t.

    ``which`` is one of ``beta-``, ``beta+`` (roots in the second slot) and,
    for the asymmetric model, ``alpha-``, ``alpha+`` (roots in the first
    slot); any other model or branch raises ValueError.  The ``-`` branches
    are the formal-power-series ones with leading term t*arg; the ``+``
    branches are their Laurent inverses with valuation val(arg) - 1.  A
    series argument too short to fix the root's leading term raises
    OrderUnderflowError.  For a Laurent argument the leading terms differ
    from these, and a branch is the root of larger (``-``) or smaller
    (``+``) valuation; when both roots have one valuation (beta of a
    valuation -1 argument, symmetric), BranchSelectionError refuses it.

    The formula divides by 2tL, of valuation 1 for an argument of valuation
    >= 0, so for a rational argument the + branch (numerator of valuation 0)
    comes back 2 orders below the working order and the - branch 1 below;
    the working order is order + 2.  A series argument is used at its own
    order, and the root comes back as far as that order carries it.
    """
    w = order + 2
    s = as_series(arg, w)
    if s.is_zero():
        if isinstance(arg, TSeries):
            raise OrderUnderflowError(f"root argument is zero to its order {s.order}")
        raise ValueError("root argument must be nonzero")
    slot, sign = which[:-1], {"-": -1, "+": +1}.get(which[-1:])
    if sign is None or (kind, slot) not in _SLOTS:
        raise ValueError(f"no {which!r} root for model {kind!r}")
    t = tvar(w)
    p, l = _slot(kind, slot, s, t)
    # the two roots of -t L x^2 + P s x - t s^2
    res = s * (p + sign * (p * p - 4 * (t * t) * l).sqrt()) / (2 * t * l)
    if s.valuation < 0:
        # the roots' product is s^2 / L: the branch must be the root of
        # strictly larger (-) or smaller (+) valuation than the other one
        if res.is_zero():
            raise OrderUnderflowError(f"{which} branch is zero to its order {res.order}")
        other = 2 * s.valuation - l.valuation - res.valuation
        if sign * (other - res.valuation) <= 0:
            raise BranchSelectionError(
                f"{which} branch of an argument of valuation {s.valuation} has "
                f"valuation {res.valuation}, not {'above' if sign < 0 else 'below'} "
                f"the other root's {other}"
            )
    else:
        want = s.valuation + (1 if sign < 0 else -1)
        if res.order < want:
            raise OrderUnderflowError(
                f"{which} branch has reliable order {res.order}, below its valuation {want}"
            )
        if res.valuation != want:
            raise BranchSelectionError(
                f"{which} branch has valuation {res.valuation}, expected {want}"
            )
        if sign < 0 and res.coeff(want) != s.coeff(s.valuation):
            raise BranchSelectionError(
                f"{which} branch leading coefficient check failed"
            )
    # series arguments near their reliable order cannot support the full
    # requested order; report what is actually known
    return res.truncate(min(order, res.order))


# -- iterated compositions ---------------------------------------------------

class Chain:
    """The root chain of ``a`` at working order w, each element built once,
    when first read.

    Symmetric: a, beta(a), beta(beta(a)), ... = beta_0(a), beta_1(a), ...
    Asymmetric: a, beta(a), gamma_1(a), beta(gamma_1(a)), gamma_2(a), ...,
    applying the beta- and alpha- roots in turn, so gamma_n(a) is element 2n.
    """

    def __init__(self, kind: str, a: Arg, w: int):
        if kind not in ("symmetric", "asymmetric"):
            raise ValueError(f"no root chain for model {kind!r}")
        self.kind, self.order = kind, w
        self._steps = ("beta-",) if kind == "symmetric" else ("beta-", "alpha-")
        self._built = [as_series(a, w)]

    def __getitem__(self, k: int) -> TSeries:
        if k < 0:
            raise ValueError(f"chain elements are indexed by k >= 0, got {k}")
        while len(self._built) <= k:
            cur = self._built[-1]
            step = self._steps[(len(self._built) - 1) % len(self._steps)]
            self._built.append(root(self.kind, step, cur, cur.order))
        return self._built[k]


def beta_chain(a: Arg, n_max: int, order: int) -> Chain:
    """The symmetric chain of a that ``beta_composed`` reads for every
    |n| <= n_max at ``order``.

    Element k has valuation k, so element n_max - 1 must be known to its
    leading term for element n_max to be built; beta_-1 = beta_0^2 /
    (L(beta_0) beta_1) divides by beta_1 and comes back 2 orders below the
    chain (beta_-2, 1 below).  Hence the order max(order + 2, n_max - 1).
    """
    return Chain("symmetric", a, max(order + 2, n_max - 1))


def gamma_chain(a: Arg, n_max: int, order: int) -> Chain:
    """The asymmetric chain of a that ``gamma_composed`` reads for every
    0 <= n <= n_max at ``order``.

    gamma_n is element 2n, of valuation 2n; it is read without a division,
    so the chain needs ``order``, and element 2n - 1 known to its leading
    term: the order max(order, 2 n_max - 1).
    """
    return Chain("asymmetric", a, max(order, 2 * n_max - 1))


def _inverses(a: Arg, b1: TSeries) -> tuple[TSeries, TSeries]:
    """(1/a, 1/b1) at the order of b1 = beta_1(a), which
    ``_beta_closed_inverse`` reads for every n."""
    return as_series(a, b1.order).inverse(), b1.inverse()


def _beta_closed_inverse(n: int, inverses: tuple[TSeries, TSeries], w: int) -> TSeries:
    """1/beta_n(a) for the symmetric model, any integer n (three-term
    solution), from ``_inverses(a, b1)`` with b1 = beta_1(a) at order w;
    reliable to w - |n| - 1."""
    inv_a, inv_b1 = inverses
    one_m_t2 = tpoly({0: 1, 2: -1}, w)
    c1 = (TSeries.t_power(1 - n, w) - TSeries.t_power(1 + n, w)) / one_m_t2
    c2 = (TSeries.t_power(2 - n, w) - TSeries.t_power(n, w)) / one_m_t2
    return c1 * inv_b1 - c2 * inv_a


def beta_closed_input(a: Arg, order: int) -> TSeries:
    """beta_1(a), which ``beta_closed`` reads for every n at ``order``:
    beta_-1 comes out 4 orders short of beta_1, the most of any beta_n."""
    return root("symmetric", "beta-", a, order + 4)


def beta_closed(n: int, a: Arg, b1: TSeries, order: int) -> TSeries:
    """beta_n(a) from its closed-form reciprocal, symmetric model, reading
    b1 = ``beta_closed_input(a, order)``."""
    if n == 0:
        return as_series(a, order).truncate(order)
    return _beta_closed_inverse(n, _inverses(a, b1), b1.order).inverse().truncate(order)


def beta_composed(n: int, chain: Chain, order: int) -> TSeries:
    """beta_n by n-fold composition of the degree-one root maps, reading
    ``chain``, a ``beta_chain`` built for at least |n|.

    Positive n reads element n of the chain.  Negative n walks the kernel
    quadratic downward: the two roots of K(beta_m, .) are exactly beta_{m-1}
    and beta_{m+1}, whose product is beta_m^2 / L(beta_m) (``_slot``), so
    beta_{m-1} = beta_m^2 / (L(beta_m) beta_{m+1}); this stays inside
    rational series where the explicit plus-branch formula would need square
    roots that leave the field.
    """
    if chain.kind != "symmetric":
        raise ValueError(f"needs a symmetric chain, got an {chain.kind} chain")
    if n >= 0:
        return chain[n].truncate(order)
    t = tvar(chain.order)
    cur, upper = chain[0], chain[1]  # beta_m and beta_{m+1} with m = 0
    for _ in range(-n):
        _p, l = _slot("symmetric", "beta", cur, t)
        upper, cur = cur, cur * cur / (l * upper)
    return cur.truncate(order)


def gamma_composed(n: int, chain: Chain, order: int) -> TSeries:
    """gamma_n(a), element 2n of ``chain``, a ``gamma_chain`` built for at
    least n."""
    if n < 0:
        raise ValueError("gamma compositions are defined for n >= 0")
    if chain.kind != "asymmetric":
        raise ValueError(f"needs an asymmetric chain, got a {chain.kind} chain")
    return chain[2 * n].truncate(order)


def gamma_closed_inverse(n: int, q: TSeries) -> TSeries:
    """1/gamma_n(a), asymmetric model, from q = Q(a)."""
    t = tvar(q.order)
    num = (t + q.shift(2 * n - 2)) * (t + q.shift(2 * n))
    return num / ((1 - t * t) * q.shift(2 * n - 2))


def beta_of_gamma_closed_inverse(n: int, q: TSeries) -> TSeries:
    """1/beta_1(gamma_n(a)), asymmetric model, from q = Q(a)."""
    t = tvar(q.order)
    return (t + q.shift(2 * n)) ** 2 / ((1 - t * t) * q.shift(2 * n - 1))


def gamma_closed_input(a: Arg, order: int) -> TSeries:
    """Q(a), which ``gamma_closed`` reads for every n >= 0 at ``order``:
    gamma_n comes out 4 - 2n orders short of Q(a), so gamma_0 sets the
    margin."""
    return q_asym(a, order + 4)


def gamma_closed(n: int, q: TSeries, order: int) -> TSeries:
    """gamma_n(a) from its closed-form reciprocal, asymmetric model, reading
    q = ``gamma_closed_input(a, order)``."""
    if n < 0:
        raise ValueError("gamma compositions are defined for n >= 0")
    return gamma_closed_inverse(n, q).inverse().truncate(order)


def group_law_check(n: int, a: Arg, order: int) -> list[tuple[str, tuple[TSeries, ...]]]:
    """Group structure of the symmetric root compositions.

    Returns (identity, residuals) pairs; an identity holds mod t^(order+1)
    when each of its residuals vanishes there:
      * ladder: K(beta_m, beta_{m+1}) = 0 for -|n| <= m < |n| using the
        closed forms;
      * beta_{-1}(beta_1(a)) = a by direct composition;
      * the two roots of K(beta_{-1}(a), .) are exactly a and beta_{-2}(a)
        (the computable form of beta_1(beta_{-1}(a)) = a), as the residuals
        of their sum and product;
      * the three-term reciprocal recurrence at index n.
    All of them read the one beta_1(a) built here, and its and a's
    reciprocals, taken once.  The recurrence multiplies 1/beta_(n-1), of
    valuation 1 - n, by (1 + t^2)/t, which the division by t leaves 2
    orders below the working order, so its residual comes n + 1 orders
    below it (and K(beta_-1, beta_0), 2 below it at n = 1): the working
    order is order + |n| + 1.
    """
    m_hi = abs(n)
    w = order + m_hi + 1
    t = tvar(w)
    checks = []

    b1 = beta_closed_input(a, w)
    inverses = _inverses(a, b1)
    inv = {m: _beta_closed_inverse(m, inverses, b1.order)
           for m in range(min(-m_hi, -2, n - 2), m_hi + 1)}
    ladder = {m: inv[m].inverse().truncate(w) for m in range(min(-m_hi, -2), m_hi + 1)}
    for m in range(-m_hi, m_hi):
        k = kernel_coeffs("symmetric", 1, ladder[m], ladder[m + 1], w).kernel
        checks.append((f"K(beta_{m}, beta_{m+1}) = 0", (k,)))

    back = root("symmetric", "beta+", b1, b1.order)
    checks.append(("beta_-1(beta_1(a)) = a", (back - as_series(a, back.order),)))

    if m_hi >= 1:
        m = ladder[-1]
        p, l = _slot("symmetric", "beta", m, t)
        # B + A (x1 + x2) and C - A x1 x2 for the kernel A x^2 + B x + C,
        # (A, B, C) = (-t L, P m, -t m^2), with roots x1 = a, x2 = beta_-2
        sum_res = p * m - t * l * (as_series(a, w) + ladder[-2])
        prod_res = t * l * as_series(a, w) * ladder[-2] - t * m * m
        checks.append(("roots of K(beta_-1, .) are {a, beta_-2}", (sum_res, prod_res)))

    if m_hi >= 2:
        rhs = ((1 + t * t) / t) * inv[n - 1] - inv[n - 2]
        checks.append((f"three-term recurrence at n={n}", (inv[n] - rhs,)))
    return checks


def mixed_inverse_check(a: Arg, b: Arg, order: int) -> tuple[TSeries, TSeries]:
    """Residuals of alpha_1(beta_-1(a)) = a and beta_1(alpha_-1(b)) = b
    (asymmetric).

    Each + root of a rational argument, taken as a series, comes back one
    order below the working order, and the - root of that Laurent series
    at most one order below that (beta_1(alpha_-1(b))): the working order
    is order + 2.
    """
    w = order + 2
    bm = root("asymmetric", "beta+", as_series(a, w), w)
    lhs1 = root("asymmetric", "alpha-", bm, bm.order)
    am = root("asymmetric", "alpha+", as_series(b, w), w)
    lhs2 = root("asymmetric", "beta-", am, am.order)
    return lhs1 - as_series(a, lhs1.order), lhs2 - as_series(b, lhs2.order)


# -- the Q / Qbar / P series -------------------------------------------------

def _q_inputs(kind: str, a: Arg, order: int) -> tuple[TSeries, TSeries, TSeries]:
    """(t, a, beta_1(a)) at the working order of a Q series to ``order``.

    Q(a) reads 1/beta_1(a): at a rational a, beta_1 has valuation 1 and
    its reciprocal comes 2 orders below it.  At a series argument s of
    valuation 1 (``p_asym``), Q(s) reaches s.order - 2 through its 1/s term
    at best, and the asymmetric Q reads t/beta_1(s), 3 orders below
    beta_1(s), of valuation 2; so beta_1(s) is built 3 orders above Q, and
    the working order is order + 3.
    """
    w = order + 3
    s = as_series(a, w)
    return tvar(w), s, root(kind, "beta-", s, w)


def _q_form(kind: str, s: TSeries, t: TSeries) -> tuple[TSeries, TSeries]:
    """(alpha, gamma) with Q(a) = alpha + gamma / beta_1(a) at a = s."""
    if kind == "symmetric":
        return (t * s * s).inverse() - t, -s.inverse()
    return s.inverse() - t, -t


def q_sym(a: Arg, order: int) -> TSeries:
    """Q(a) = 1/(x a^2) - y/(x a beta_1(a)) - y for the symmetric model."""
    t, s, b1 = _q_inputs("symmetric", a, order)
    alpha, gamma = _q_form("symmetric", s, t)
    return (alpha + gamma * b1.inverse()).truncate(order)


def q_asym(a: Arg, order: int) -> TSeries:
    """Q(a) = 1/a - y/beta_1(a) - x for the asymmetric model."""
    t, s, b1 = _q_inputs("asymmetric", a, order)
    alpha, gamma = _q_form("asymmetric", s, t)
    return (alpha + gamma * b1.inverse()).truncate(order)


def q_relation(kind: str, a: Arg, order: int) -> tuple[TSeries, TSeries]:
    """(A, C) with Q(a)^2 = A Q(a) - C, to ``order``, at a rational a.

    z = 1/beta_1(a) solves t a^2 z^2 - P a z + t L = 0 (the beta-slot
    kernel of ``_slot`` over x^2), and Q = alpha + gamma z (``_q_form``), so
    A = 2 alpha + P gamma / (t a) and C = alpha (A - alpha) + L (gamma / a)^2.
    These reduce to the Laurent polynomials returned here: symmetric,
    A = (1 - t^2)/(t a^2) - 2t, C = t^2; asymmetric, A = (1 - t^2)/a - t - t^3,
    C = t^4.
    """
    a = Fraction(a)
    if kind == "symmetric":
        return tpoly({-1: 1 / a**2, 1: -1 / a**2 - 2}, order), TSeries.t_power(2, order)
    return tpoly({0: 1 / a, 1: -1, 2: -1 / a, 3: -1}, order), TSeries.t_power(4, order)


def qbar_asym(a: Arg, order: int) -> TSeries:
    """Qbar(a) = 1/beta_1(a) - y/a - x*y; satisfies Qbar*Q = t^3."""
    t, s, b1 = _q_inputs("asymmetric", a, order)
    return (b1.inverse() - t * s.inverse() - t * t).truncate(order)


def p_asym(b: Arg, order: int) -> TSeries:
    """P(b): the flat-boundary-style companion of Q at the composed argument.

    Computed as Q(alpha_1(b)) / (x*y); the division by t^2 is the
    normalization under which P enters the final walk generating function
    (at b = 1 it reproduces (1 - 3t^2 - sqrt((1-t^2)(1-5t^2))) / (2t)).
    The undivided composition itself is ``q_asym(s, s.order - 2)`` with
    ``s = root('asymmetric', 'alpha-', b, N)``: Q(s) is reliable only to two
    orders below s, through its 1/s term.  With the shift by -2, P(b) comes
    4 orders below s, and s comes one order below the working order at
    b = -1, where L of the alpha slot has valuation 2: the working order is
    order + 5.
    """
    w = order + 5
    s = root("asymmetric", "alpha-", as_series(b, w), w)
    # s = b*t + ... may come back short of w (at b = -1 by one order)
    return q_asym(s, s.order - 2).shift(-2).truncate(order)


# -- residual verification ---------------------------------------------------

def residual_functional_eq(kind: str, p: int, a, b, order: int,
                           fab: TSeries, f_lower: TSeries, f_upper: TSeries) -> TSeries:
    """LHS - RHS of the column-construction equation at rational (a, b).

    The walk series f(a, b) (or h) and its boundary specializations f(a, ta)
    and f(tb, b) are ``fab``, ``f_lower`` and ``f_upper``, read off the
    dynamic-programming weighted series of the same model and p to at least
    ``order``; the result must vanish identically mod t^(order+1).  A model
    other than the two wedges raises ValueError.
    """
    a, b = Fraction(a), Fraction(b)
    t = tvar(order)
    horiz = t * _east_weight(kind, p, a, b)
    ub = t * Fraction(b, a)
    da = t * Fraction(a, b)
    up_run = ub / (1 - ub)
    down_run = da / (1 - da)
    rhs = (1 + horiz * fab
           + horiz * up_run * (fab - f_upper)
           + horiz * down_run * (fab - f_lower))
    return fab - rhs


def residual_kernel_form(kind: str, p: int, a, b, order: int,
                         fab: TSeries, f_lower: TSeries, f_upper: TSeries) -> TSeries:
    """K*f - X - Y*f(a,ta) - Z*f(tb,b), with f and its boundary
    specializations given as in ``residual_functional_eq``: X times that
    residual."""
    a, b = Fraction(a), Fraction(b)
    coeffs = kernel_coeffs(kind, p, a, b, order)
    return (coeffs.kernel * fab
            - coeffs.free_term
            - coeffs.lower * f_lower
            - coeffs.upper * f_upper)


# -- the script coefficient ladder (asymmetric solution) ----------------------

def _raw_quotients(g_n: TSeries, bg: TSeries, g_n1: TSeries,
                   w: int) -> tuple[TSeries, ...]:
    """The raw quotients (X_n, Y_n, Z_n, A_n) of (X, Y, Z) at the composed
    roots g_n, beta(g_n) and g_n+1 (chain elements 2n .. 2n+2), at working
    order w."""
    c1 = kernel_coeffs("asymmetric", 1, g_n, bg, w)
    c2 = kernel_coeffs("asymmetric", 1, g_n1, bg, w)
    return (-(c1.free_term / c1.lower), c1.upper / c1.lower,
            c2.free_term / c2.upper, c2.lower / c2.upper)


def script_coeffs(n: int, a: Arg, order: int) -> list[tuple[str, TSeries, TSeries]]:
    """The coefficient identities of the asymmetric iteration at depth n.

    Evaluates the raw quotients X_n .. A_n of (X, Y, Z) at the composed
    roots, B_n = X_n + Y_n Z_n and C_n = Y_n A_n, their intermediate ratio
    forms and simplified closed forms, and the useful expressions and ratios
    of the closed-form reciprocals.  Returns the 15 (identity, lhs, rhs)
    triples, each of which must agree mod t^(order+1).

    The losses grow with the valuations of the composed roots (g_n has
    valuation 2n) and are measured, not derived: the Z_n residual comes
    4n + 5 orders below the working order, and at n = 0 the first ratio
    comes 6 below it, so the working order is order + 4n + 6 (with 4n + 5 or
    3n + 6, a residual falls short of ``order``).
    """
    w = order + 4 * n + 6
    t = tvar(w)
    chain = Chain("asymmetric", a, w)
    g_n, bg, g_n1 = chain[2 * n], chain[2 * n + 1], chain[2 * n + 2]
    x_n, y_n, z_n, a_n = _raw_quotients(g_n, bg, g_n1, w)
    b_n = x_n + y_n * z_n
    c_n = y_n * a_n

    x_mid = (bg - t * g_n) / (t * t * g_n * g_n)
    y_mid = (bg / g_n) * ((bg - t * g_n) / (g_n - t * bg))
    z_mid = -((g_n1 - t * bg) / (t * t * g_n1 * bg))
    a_mid = (g_n1 / bg) * ((g_n1 - t * bg) / (bg - t * g_n1))

    q = q_asym(a, w)
    qn = q.shift(2 * n)
    qn2 = q.shift(2 * n - 2)
    x_simpl = (t + qn2) / t
    b_simpl = (t + qn2) * (t - qn) / (t * t)
    c_simpl = (g_n1 / g_n) * q * q * TSeries.t_power(4 * n - 2, w)

    inv_g = gamma_closed_inverse(n, q)
    inv_bg = beta_of_gamma_closed_inverse(n, q)
    inv_g1 = gamma_closed_inverse(n + 1, q)
    useful = [
        ("1/g_n - t/b(g_n) = t + t^2n Q", inv_g - t * inv_bg, t + qn),
        ("1/b(g_n) - t/g_n = t(t + t^2n Q)/(t^(2n-1) Q)",
         inv_bg - t * inv_g, t * (t + qn) / q.shift(2 * n - 1)),
        ("1/b(g_n) - t/g_n+1 = t(t + t^2n Q)", inv_bg - t * inv_g1, t * (t + qn)),
        ("1/g_n+1 - t/b(g_n) = t(t + t^2n Q)/(t^2n Q)",
         inv_g1 - t * inv_bg, t * (t + qn) / qn),
    ]
    ratios = [
        ("(b(g_n) - t g_n)/(g_n - t b(g_n)) = t^(2n-2) Q",
         (bg - t * g_n) / (g_n - t * bg), q.shift(2 * n - 2)),
        ("(g_n+1 - t b(g_n))/(b(g_n) - t g_n+1) = t^2n Q",
         (g_n1 - t * bg) / (bg - t * g_n1), q.shift(2 * n)),
        ("(b(g_n) - t g_n)/g_n^2 = t(t + t^(2n-2) Q)",
         (bg - t * g_n) / (g_n * g_n), t * (t + qn2)),
        ("(g_n+1 - t b(g_n))/(g_n g_n+1) = t^2(t + t^(2n-2) Q)",
         (g_n1 - t * bg) / (g_n * g_n1), (t * t) * (t + qn2)),
    ]

    return [
        ("X_n raw = ratio form", x_n, x_mid),
        ("Y_n raw = ratio form", y_n, y_mid),
        ("Z_n raw = ratio form", z_n, z_mid),
        ("A_n raw = ratio form", a_n, a_mid),
        ("X_n = (x + t^(2n-2) Q)/x", x_n, x_simpl),
        ("B_n = (x + t^(2n-2) Q)(x - t^2n Q)/x^2", b_n, b_simpl),
        ("C_n = (g_n+1/g_n) t^(4n-2) Q^2", c_n, c_simpl),
    ] + useful + ratios


def raw_iterated_sum(a: Arg, order: int) -> TSeries:
    """H(a, t*a) assembled directly from the raw coefficient ladder.

    Sums B_n * prod(C_m, m < n) with the B/C taken from the raw quotients of
    (X, Y, Z) at the composed roots.  Term n has valuation >= 2n^2, so the
    sum stops before the first n with 2n^2 > order; term n reads chain
    elements 2n .. 2n + 2.

    The working order is order + 2, measured: at order + 1, order 0 reads
    gamma_1 (valuation 2) from a chain known to t^1, a zero series, and
    divides by it.
    """
    w = order + 2
    acc = TSeries.zero(w)
    prod = TSeries.constant(1, w)
    chain = Chain("asymmetric", a, w)
    for n in count():
        g_n, bg, g_n1 = chain[2 * n], chain[2 * n + 1], chain[2 * n + 2]
        x_n, y_n, z_n, a_n = _raw_quotients(g_n, bg, g_n1, w)
        acc = acc + prod * (x_n + y_n * z_n)
        if 2 * (n + 1) ** 2 > order:
            return acc.truncate(order)
        prod = prod * (y_n * a_n)
