"""Weight functions: associated functions, conjugates, Legendre envelopes,
function-level growth relations and growth indices.

A :class:`WeightFunction` wraps a vectorised evaluator t >= 0 -> omega(t)
together with a ``domain_hint``: the argument beyond which values are
extrapolation (piecewise-from-sequence functions) or untrusted (tabulated
transforms).  Every constructor's evaluator returns omega(0) for t < 0 and
NaN for a NaN argument.  All sup/inf transforms search only the grid cells
within the operands' hints and raise :class:`DomainExhaustedError` when an
argmax lands on a search boundary (or, given group labels, report the
refused groups), so a silently-extrapolated value can never win a
supremum.

Suprema are located by :func:`weightcalc.grids.grid_sup`: a search for the
leftmost argmax on a log-spaced grid followed by refinement of the winning
cell.  Each transform supplies its grid, its objective at grid cells and
at points of each row, its endpoint or cap values, and whether the argmax
is monotone in the argument: always for the conjugate and sequence
recovery, and for the envelopes when the kind of tau proves tau(e^u)
convex on the range the scan touches, so that the grid search costs
O((n + k) log k) cells instead of k x n.  Envelopes whose tau is of
another kind take the dense scan.

Associated functions, their integral form and sampled functions are
piecewise linear in log t (``log_kinks``).  A transform of such operands
(both of them, for the envelopes) passes their kinks to the refinement,
and between two kinks its objective is convex in y = log t: s e^y minus a
linear function for the conjugate, linear for the envelopes, sequence
recovery and phi*.  A bracket's maximum then sits at one of its ends or
kinks, and a row whose bracket holds at most 60 kinks is answered exactly
by evaluating them all at once; a row with more kinks takes golden
section.  Operands without kinks are refined by safeguarded parabolic
interpolation, which removes the grid bias down to machine precision for
objectives concave near their maximum.  A normalized operand kinks at
t = 1 (``_breaks``): brackets are cut there and each piece refined on its
own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (
    DomainError,
    DomainExhaustedError,
    PreconditionError,
    WellDefinednessError,
)
from .grids import (
    DEFAULT_GRID,
    DEFAULT_TAIL,
    GridSpec,
    TailWindow,
    bisect_edge,
    decays_to_zero,
    grid_sup,
    quarter_maxima,
    stopped_rising,
)
from .sequences import (
    WeightSequence,
    has_divergent_roots,
    is_log_convex,
    log_convex_minorant,
)

#: Cap on finite-window ratio sups for function relations (log scale).
LOG_R_CAP_FN = 20.0
#: Tail-ratio threshold for the little-o function relation.
EPS_TRIANGLE_FN = 0.05
#: Multiplicative last-quarter rise that marks a function ratio as divergent.
FN_DIVERGENCE_FACTOR = 1.25
#: Additive constants larger than this are not accepted as the C of a
#: dilation relation unless the deficit has stopped rising.
FN_ADDITIVE_CAP = 1000.0

#: Transform kinds whose pointwise evaluation is itself a grid scan.
_EXPENSIVE_KINDS = frozenset(
    {"conjugate", "biconjugate", "envelope_lower", "envelope_upper"}
)

#: Dilations h searched by ``relation_fn``.
H_GRID = 2.0 ** np.arange(-10, 11)
#: The dilations h <= 1 of ``H_GRID`` that the little-o relation must accept.
H_GRID_SMALL = 2.0 ** (-np.arange(0, 11, dtype=float))


class WeightFunction:
    """Evaluable non-decreasing map [0, inf) -> [0, inf) with omega -> inf.

    Immutable: ``kind``, ``name``, ``domain_hint`` and ``params`` are
    read-only, and ``params`` is a read-only view of a private copy, so the
    descriptor always describes what the function evaluates.
    """

    __slots__ = ("_kind", "_name", "_domain_hint", "_params", "_fn")

    def __init__(
        self,
        kind: str,
        fn: Callable[[np.ndarray], np.ndarray],
        domain_hint: float = math.inf,
        params: Optional[Mapping] = None,
        name: str = "",
    ):
        self._kind = kind
        self._fn = fn
        self._domain_hint = domain_hint
        self._params = MappingProxyType(dict(params or {}))
        self._name = name

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def name(self) -> str:
        return self._name

    @property
    def domain_hint(self) -> float:
        return self._domain_hint

    @property
    def params(self) -> Mapping:
        return self._params

    def with_name(self, name: str) -> "WeightFunction":
        return WeightFunction(self.kind, self._fn, self.domain_hint, self.params, name)

    def evaluate_many(self, ts, *, groups=None):
        """omega at every entry of ``ts``.

        A grid transform raises :class:`DomainExhaustedError` naming the
        first argument whose optimum escapes its searched range.  With
        ``groups``, one integer label in [0, G) per argument, it refuses the
        arguments by group in one grid search instead
        (``grids.grid_sup``): it returns (values, refused), where
        ``refused[g]`` tells whether group g was refused, as a call on that
        group's arguments alone would be, and the values of a refused group
        are NaN.  Only grid transforms (``is_expensive``) take labels.
        """
        ts = np.asarray(ts, dtype=float)
        if groups is None:
            return self._fn(ts)
        if not self.is_expensive:
            raise TypeError(f"a {self.kind} function takes no group labels")
        return self._fn(ts, groups=np.asarray(groups, dtype=np.intp))

    def __call__(self, t: float) -> float:
        return float(self._fn(np.asarray([t], dtype=float))[0])

    @property
    def is_expensive(self) -> bool:
        """Whether this is a grid transform: each evaluation is a grid
        search, and ``evaluate_many`` takes ``groups``."""
        return self.kind in _EXPENSIVE_KINDS

    def __repr__(self):
        label = self.name or self.kind
        hint = "inf" if math.isinf(self.domain_hint) else f"{self.domain_hint:.3g}"
        return f"WeightFunction({label}, domain_hint={hint})"


# ---------------------------------------------------------------------------
# closed forms, wrappers, sampled functions
# ---------------------------------------------------------------------------


def power_weight(alpha: float) -> WeightFunction:
    """Gevrey weight t -> t^(1/alpha)."""
    if not (alpha > 0):
        raise DomainError(f"power weight index must be > 0, got {alpha}")
    expo = 1.0 / alpha

    def fn(ts):
        out = np.maximum(ts, 0.0)  # t < 0 gives omega(0); NaN stays NaN
        return np.power(out, expo, out=out)

    return WeightFunction(
        "power", fn, params={"alpha": alpha}, name=f"id^(1/{alpha:g})"
    )


def identity_weight() -> WeightFunction:
    return power_weight(1.0)


def log_power_weight(beta: float) -> WeightFunction:
    """t -> log(1+t)^beta; slowly varying for every beta > 0."""
    if not (beta > 0):
        raise DomainError(f"log power exponent must be > 0, got {beta}")

    def fn(ts):
        out = np.log1p(np.maximum(ts, 0.0))
        return np.power(out, beta, out=out)

    return WeightFunction(
        "log_power", fn, params={"beta": beta}, name=f"log^{beta:g}"
    )


def power_substitution(omega: WeightFunction, alpha: float) -> WeightFunction:
    """omega^(1/alpha): t -> omega(t^(1/alpha))."""
    if not (alpha > 0):
        raise DomainError(f"substitution exponent must be > 0, got {alpha}")
    inner = omega.evaluate_many
    expo = 1.0 / alpha
    hint = omega.domain_hint**alpha if math.isfinite(omega.domain_hint) else math.inf

    def fn(ts):
        args = np.maximum(ts, 0.0)
        return inner(np.power(args, expo, out=args))

    return WeightFunction(
        "power_substitution",
        fn,
        domain_hint=hint,
        params={"of": omega, "alpha": alpha},
        name=f"({omega.name})^(1/{alpha:g})" if omega.name else "",
    )


def normalized(omega: WeightFunction) -> WeightFunction:
    """t -> max(0, omega(t) - omega(1)); vanishes on [0, 1]."""
    inner = omega.evaluate_many
    shift = omega(1.0)

    def fn(ts):
        return np.maximum(inner(ts) - shift, 0.0)

    return WeightFunction(
        "normalized",
        fn,
        domain_hint=omega.domain_hint,
        params={"of": omega},
        name=f"norm({omega.name})" if omega.name else "",
    )


def from_samples(ts, values, name: str = "") -> WeightFunction:
    """Monotone sampled function, piecewise linear in (log t, value).

    Below the first sample the first value is returned; above the last the
    final segment is continued and ``domain_hint`` marks the boundary.
    """
    ts = np.array(ts, dtype=float)
    values = np.array(values, dtype=float)
    ts.setflags(write=False)
    values.setflags(write=False)
    if ts.ndim != 1 or ts.size < 2 or ts.shape != values.shape:
        raise DomainError("need matching 1-d sample arrays with >= 2 points")
    if not np.all(ts > 0) or not np.all(np.diff(ts) > 0):
        raise DomainError("sample abscissae must be positive and increasing")
    if np.any(np.diff(values) < -1e-9):
        raise DomainError("sampled weight function must be non-decreasing")
    log_ts = np.log(ts)
    slope_end = (values[-1] - values[-2]) / (log_ts[-1] - log_ts[-2])

    def fn(xs):
        xs = np.maximum(xs, ts[0] * 1e-300)  # log of 0 guard; clamps to left value
        lx = np.log(xs)
        out = np.interp(lx, log_ts, values)
        beyond = lx > log_ts[-1]
        if np.any(beyond):
            out = np.where(beyond, values[-1] + slope_end * (lx - log_ts[-1]), out)
        return out

    return WeightFunction(
        "sampled",
        fn,
        domain_hint=float(ts[-1]),
        params={"ts": ts, "values": values},
        name=name,
    )


def tabulate(
    omega: WeightFunction, t_lo: float, t_hi: float, n: int = 8192
) -> WeightFunction:
    """Snapshot of ``omega`` on a log grid, for use inside outer transforms."""
    t_hi = min(t_hi, omega.domain_hint)
    if not (t_lo > 0 and t_lo < t_hi):
        raise DomainError("tabulation range collapsed")
    ts = np.exp(np.linspace(math.log(t_lo), math.log(t_hi), n))
    vals = omega.evaluate_many(ts)
    tab = from_samples(ts, np.maximum.accumulate(vals), name=f"tab({omega.name})")
    return tab


# ---------------------------------------------------------------------------
# associated weight function and counting function
# ---------------------------------------------------------------------------


def associated_log_eval(m: WeightSequence, log_ts) -> np.ndarray:
    """Piecewise-exact associated function, log-t argument (no overflow).

    Assumes ``m`` log-convex; for t beyond the last quotient the final
    segment extrapolates.
    """
    logmu = m.log_quotients
    lv = m.log_values
    lts = np.asarray(log_ts, dtype=float)
    idx = np.searchsorted(logmu[1:], lts, side="right")
    out = lv[0] + idx * lts - lv[idx]
    return np.where(idx == 0, 0.0, out)


def associated(m: WeightSequence, p0: int = 8) -> WeightFunction:
    """Associated weight function of M (after log-convex regularisation).

    Exact piecewise evaluator: on [mu_p, mu_{p+1}] the supremum defining the
    function is attained at index p, located by binary search on the
    quotients.  Requires the root sequence (M_p/M_0)^(1/p) to diverge on the
    window; beyond mu_{P_max} values extrapolate along the last segment and
    ``domain_hint`` marks that boundary.
    """
    mlc = log_convex_minorant(m)
    if not has_divergent_roots(mlc, p0=min(p0, mlc.p_max // 2)):
        raise WellDefinednessError(
            "associated function needs (M_p)^(1/p) -> +infinity; the window "
            "shows no root divergence (well-definedness is equivalent to "
            "lim (M_p)^(1/p) = +infinity)",
            sequence=m.name,
        )
    logmu = mlc.log_quotients

    def fn(ts):
        # NaN arguments stay NaN
        out = associated_log_eval(mlc, np.log(np.where(ts <= 0, 1.0, ts)))
        return np.where(ts <= 0, 0.0, out)

    top = float(logmu[-1])
    hint = math.exp(top) if top < 700.0 else math.inf
    return WeightFunction(
        "associated",
        fn,
        domain_hint=hint,
        params={"sequence": m, "minorant": mlc},
        name=f"omega_{m.name}" if m.name else "omega_M",
    )


def counting(m: WeightSequence, t: float) -> int:
    """Sigma_M(t) = #{p >= 1 : mu_p <= t}."""
    _require_log_convex(m)
    if t <= 0:
        return 0
    return int(np.searchsorted(m.log_quotients[1:], math.log(t), side="right"))


def integral_form(m: WeightSequence) -> WeightFunction:
    """Associated function through its counting-function integral.

    The step integral of Sigma_M(u)/u from 0 to t collapses to
    sum_{mu_k <= t} (log t - log mu_k); must agree with ``associated``.
    """
    _require_log_convex(m)
    logmu = m.log_quotients
    prefix = np.concatenate(([0.0], np.cumsum(logmu[1:])))

    def fn(ts):
        out = np.zeros_like(ts)
        pos = ~(ts <= 0)  # NaN arguments stay NaN
        lts = np.log(ts[pos])
        idx = np.searchsorted(logmu[1:], lts, side="right")
        out[pos] = idx * lts - prefix[idx]
        return out

    return WeightFunction(
        "integral_form",
        fn,
        domain_hint=float(np.exp(logmu[-1])),
        params={"sequence": m},
        name=f"int_omega_{m.name}" if m.name else "",
    )


def _require_log_convex(m: WeightSequence):
    ok, p = is_log_convex(m)
    if not ok:
        raise PreconditionError(
            f"sequence must be log-convex (quotient drops at p={p})", p=p
        )


def log_kinks(omega: WeightFunction) -> Optional[np.ndarray]:
    """Sorted log t at which omega may change slope, for the kinds that are
    piecewise linear in log t, and None for every other kind.

    An associated function and its integral form have slope p in log t
    between log mu_p and log mu_(p+1), so their kinks are log mu_p, p >= 1
    (of the log-convex minorant for ``associated``); a sampled function is
    linear in log t between its samples, so its kinks are log t_i.
    """
    # kinds are those of this module's constructors; a function built
    # directly under such a kind without its parameters has none
    kind, params = omega.kind, omega.params
    if kind == "sampled" and "ts" in params:
        return np.log(params["ts"])
    if kind == "associated" and "minorant" in params:
        knots = params["minorant"].log_quotients[1:]
    elif kind == "integral_form" and "sequence" in params:
        knots = params["sequence"].log_quotients[1:]
    else:
        return None
    # rounding can leave near-equal quotients a few ulps out of order
    if np.any(knots[1:] < knots[:-1]):
        knots = np.maximum.accumulate(knots)
    return knots


def _fixed_kinks(omega: WeightFunction):
    """The ``kinks`` argument of ``grid_sup`` for an objective that kinks
    where omega does, at y = log t, or None when omega has no kinks."""
    knots = log_kinks(omega)
    return None if knots is None else [(knots, False)]


def _breaks(*operands):
    """The ``breaks`` argument of ``grid_sup`` for (omega, shifted) operands:
    a normalized omega kinks at t = 1, where it leaves 0, with no promise
    about its pieces; None when no operand does."""
    found = [(np.zeros(1), shifted) for omega, shifted in operands if omega.kind == "normalized"]
    return found or None


# ---------------------------------------------------------------------------
# tail proxies
# ---------------------------------------------------------------------------


def _tail_ratio_decays(ts: np.ndarray, ratios: np.ndarray) -> bool:
    """``decays_to_zero`` of ratios sampled at increasing ``ts``, over the
    samples' own span; a window narrower than one decade decides nothing."""
    span = ts[-1] / ts[0]
    if span < 10.0:
        return False
    return decays_to_zero(ratios, span)


def c2_proxy(omega: WeightFunction, window: Optional[TailWindow] = None) -> bool:
    """Finite-window proxy for t = o(omega(t))."""
    # samples where omega has not yet reached one natural unit say nothing
    # about the tail and their near-zero denominators fake a decay
    win = (window or DEFAULT_TAIL).clipped(omega.domain_hint)
    ts = win.samples()
    w = omega.evaluate_many(ts)
    pos = w >= 1.0
    if int(pos.sum()) < 32:
        return False
    return _tail_ratio_decays(ts[pos], ts[pos] / w[pos])


def log_o_proxy(omega: WeightFunction, window: Optional[TailWindow] = None) -> bool:
    """Finite-window proxy for log t = o(omega(t)).

    Unlike the power-rate proxies, the ratio log(t)/omega(t) decays only at
    logarithmic rate for log-type weights, so the demanded drop is measured
    against the log-log span of the window.
    """
    win = (window or DEFAULT_TAIL).clipped(omega.domain_hint)
    ts = win.samples()
    w = omega.evaluate_many(ts)
    pos = (w >= 1.0) & (ts > 1.0)
    if int(pos.sum()) < 32:
        return False
    ts, w = ts[pos], w[pos]
    log_span = math.log(ts[-1]) / math.log(ts[0])
    if log_span < 1.2:
        return False
    ratios = np.log(ts) / w
    qm = quarter_maxima(ratios)
    if not np.all(np.diff(qm) < 0):
        return False
    return bool(qm[3] <= qm[0] * log_span**-0.3)


def c1_holds(omega: WeightFunction, tol: float = 1e-12) -> bool:
    """omega(0) = 0."""
    return abs(omega(0.0)) <= tol


# ---------------------------------------------------------------------------
# conjugate transform
# ---------------------------------------------------------------------------


def _transform_values(xs, live, fill, groups, *kernel, sign=1.0, **options):
    """A grid transform's values: ``fill`` at the arguments that are not
    ``live`` and ``sign * grid_sup(xs[live], *kernel, **options)`` at the
    others.  With ``groups`` the live arguments are refused by group, and
    the result is (values, refused) with one entry of ``refused`` per label
    up to the largest."""
    out = np.full_like(xs, fill)
    if groups is None:
        out[live] = sign * grid_sup(xs[live], *kernel, **options)
        return out
    found, gone = grid_sup(xs[live], *kernel, groups=groups[live], **options)
    out[live] = sign * found
    refused = np.zeros(int(groups.max(initial=-1)) + 1, dtype=bool)
    refused[: gone.size] = gone
    return out, refused


def conjugate(
    omega: WeightFunction,
    grid: GridSpec = DEFAULT_GRID,
    check: bool = True,
    window: Optional[TailWindow] = None,
) -> WeightFunction:
    """Conjugate omega*(s) = sup_{t>=0} (st - omega(t)).

    Well-definedness needs t = o(omega(t)); the finite proxy is checked up
    front unless ``check`` is disabled.  Each evaluation scans the log grid
    and refines the winning cell, at omega's kinks when it has them; the
    t = 0 endpoint (value -omega(0)) always competes.  The result's
    ``domain_hint`` is the slope coverage of the grid: beyond it the
    supremum would escape the grid, and such evaluations raise
    :class:`DomainExhaustedError`.
    """
    if check and not c2_proxy(omega, window):
        raise WellDefinednessError(
            "conjugate is not certifiable: omega*(s) < +infinity for all "
            "s >= 0 holds iff t = o(omega(t)), and the tail window shows no "
            "such decay",
            function=omega.name,
        )
    log_ts = grid.log_points(omega.domain_hint)
    ts = np.exp(log_ts)
    wvals = omega.evaluate_many(ts)
    w0 = omega(0.0)
    inner = omega.evaluate_many
    # conservative reliable-argument bound: maximal secant slope covered
    slopes = np.diff(wvals) / np.diff(ts)
    slope_cap = float(np.max(slopes)) if np.all(np.isfinite(slopes)) else math.inf
    hint = 0.95 * slope_cap if math.isfinite(slope_cap) else math.inf
    kinks = _fixed_kinks(omega)
    breaks = _breaks((omega, False))

    def scan(s, j):
        return s * ts[j] - wvals[j]

    def refine(ss, ys):
        return ss * np.exp(ys) - inner(np.exp(ys))

    def fn(ss, groups=None):
        ss = np.atleast_1d(np.asarray(ss, dtype=float))
        live = ~(ss <= 0)
        return _transform_values(
            ss, live, -w0, groups, log_ts, scan, refine, ("conjugate", "s"),
            floor=-w0, monotone=True, kinks=kinks, breaks=breaks,
        )

    return WeightFunction(
        "conjugate",
        fn,
        domain_hint=hint,
        params={"of": omega, "grid": grid},
        name=f"{omega.name}*" if omega.name else "conjugate",
    )


def biconjugate(
    omega: WeightFunction, grid: GridSpec = DEFAULT_GRID, check: bool = True
) -> WeightFunction:
    """Double conjugate omega** = (omega*)*.

    The inner conjugate is tabulated on the grid range before the outer
    transform runs, so an evaluation costs one grid search (the conjugate's
    sorted-window argmax) and its refinement, with no nested transform.
    """
    star = conjugate(omega, grid, check=check)
    upper = min(grid.t_max, star.domain_hint)
    star_tab = tabulate(star, grid.t_min, upper, grid.n)
    outer = conjugate(star_tab, GridSpec(grid.t_min, upper, grid.n))
    return WeightFunction(
        "biconjugate",
        outer.evaluate_many,
        domain_hint=outer.domain_hint,
        params={"of": omega, "grid": grid},
        name=f"{omega.name}**" if omega.name else "biconjugate",
    )


# ---------------------------------------------------------------------------
# generalized Legendre envelopes
# ---------------------------------------------------------------------------


def _convex_in_log(tau: WeightFunction, u_lo: float, u_hi: float) -> bool:
    """Whether g(u) = tau(e^u) is convex on [u_lo, u_hi], decided from the
    kind of tau: False when the kind does not prove it.

    An envelope scan whose g is convex over the range it touches has a
    leftmost argmax monotone in log t, so it may take the windowed route.
    An empty range (u_hi < u_lo) is convex vacuously: every row of such a
    scan has an empty run of columns, and ``grid_sup`` refuses it before
    either route scans.  Powers, associated functions and their integral
    form are convex in log t (e^(u/alpha), and suprema of affine functions of
    u); so is log(1+t)^beta for beta >= 1, a convex increasing power of the
    convex log(1 + e^u).  A sampled function is piecewise linear in u with
    slope 0 below its first sample: it is convex iff its slope does not
    fall, up to 1e-12 relative, at a knot inside the range.
    """
    if u_hi < u_lo:
        return True
    # kinds are those of this module's constructors; a function built
    # directly under such a kind without its parameters proves nothing
    kind, params = tau.kind, tau.params
    if kind in ("power", "associated", "integral_form"):
        return True
    if kind == "log_power":
        return params.get("beta", 0.0) >= 1.0
    if kind == "normalized" and "of" in params:
        # max(0, g(u) - g(0)) of a convex g is convex
        return _convex_in_log(params["of"], u_lo, u_hi)
    if kind == "power_substitution" and "of" in params:
        alpha = params["alpha"]
        return _convex_in_log(params["of"], u_lo / alpha, u_hi / alpha)
    if kind == "sampled" and "ts" in params:
        # slopes[i] and slopes[i + 1] meet at knot i; the last segment is
        # continued beyond the last knot, which therefore is no kink
        knots = log_kinks(tau)
        slopes = np.concatenate(([0.0], np.diff(params["values"]) / np.diff(knots)))
        inside = ((knots > u_lo) & (knots < u_hi))[:-1]
        left, right = slopes[:-1][inside], slopes[1:][inside]
        tol = 1e-12 * np.maximum(np.abs(left), np.abs(right))
        return bool(np.all(right >= left - tol))
    return False


def _prefix_length(guess, holds, n):
    """Number of leading grid columns j whose ``holds(j)`` is true, for a
    predicate that holds on a prefix of the n columns, from a ``guess`` at
    most one column off: a search of the grid for the predicate's
    threshold, rounded differently from the predicate itself."""
    k = guess + ((guess < n) & holds(np.minimum(guess, n - 1)))
    return k - ((k > 0) & ~holds(np.maximum(k - 1, 0)))


def envelope_lower(
    sigma: WeightFunction,
    tau: WeightFunction,
    grid: GridSpec = DEFAULT_GRID,
) -> WeightFunction:
    """Lower envelope (sigma, tau) -> inf_{s>0} sigma(s) + tau(t/s)."""
    log_ss = grid.log_points(sigma.domain_hint)
    ss = np.exp(log_ss)
    sig_vals = sigma.evaluate_many(ss)
    value_at_0 = sigma(0.0) + tau(0.0)
    tau_hint = tau.domain_hint
    log_hint = math.log(tau_hint) if tau_hint > 0 else -math.inf
    sig_fn, tau_fn = sigma.evaluate_many, tau.evaluate_many
    # the objective kinks where sigma does, at y, and where tau does, at
    # log t - y
    k_sig, k_tau = log_kinks(sigma), log_kinks(tau)
    kinks = None
    if k_sig is not None and k_tau is not None:
        kinks = [(k_sig, False), (-k_tau[::-1], True)]
    breaks = _breaks((sigma, False), (tau, True))

    # the infimum is the negated supremum of -(sigma(s) + tau(t/s)); since
    # sigma(s) >= sigma(0) and tau(t/s) >= tau(0), -value_at_0 is an exact
    # cap, and a row reaching it sits on a flat plateau whose boundary
    # argmax is legitimate
    def scan(t, j):
        return -(sig_vals[j] + tau_fn(t / ss[j]))

    def refine(ts, ys):
        s = np.exp(ys)
        return -(sig_fn(s) + tau_fn(ts / s))

    def fn(ts, groups=None):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        live = ~(ts <= 0)
        t = ts[live]
        # each row's run starts past the cells t / s > tau_hint beyond tau's
        # coverage; a NaN row runs over the whole grid
        with np.errstate(all="ignore"):
            guess = np.searchsorted(ss, np.nan_to_num(t / tau_hint, nan=0.0))
            lo = _prefix_length(guess, lambda j: t / ss[j] > tau_hint, ss.size)
        # the scan touches g(u) = tau(e^u) at u = log t - y, up to log tau_hint
        log_t = np.log(t)
        u_lo = np.nanmin(log_t, initial=np.inf) - log_ss[-1]
        u_hi = min(np.nanmax(log_t, initial=-np.inf) - log_ss[0], log_hint)
        return _transform_values(
            ts, live, value_at_0, groups, log_ss, scan, refine,
            ("envelope_lower", "t"),
            sign=-1.0,
            cap=-value_at_0,
            both_ends=True,
            monotone=_convex_in_log(tau, u_lo, u_hi),
            kinks=kinks,
            breaks=breaks,
            runs=(lo, np.full_like(lo, ss.size - 1)),
        )

    return WeightFunction(
        "envelope_lower",
        fn,
        params={"sigma": sigma, "tau": tau, "grid": grid},
        name=f"({sigma.name} lowstar {tau.name})",
    )


def envelope_upper(
    sigma: WeightFunction,
    tau: WeightFunction,
    grid: GridSpec = DEFAULT_GRID,
    check: bool = True,
    window: Optional[TailWindow] = None,
) -> WeightFunction:
    """Upper envelope (sigma, tau) -> sup_{s>=0} sigma(s) - tau(s/t).

    Well-defined iff sigma(s) - tau(s/t) is bounded above for each t, which
    is the dilation little-o relation of tau against sigma; the finite
    verdict is required up front unless ``check`` is disabled.
    """
    if check:
        verdict = relation_fn(tau, sigma, window)
        if not verdict.triangle_c:
            raise WellDefinednessError(
                "upper envelope is not certifiable: sup_s {sigma(s) - tau(s/t)} "
                "is finite for all t iff for every h > 0 there is C_h with "
                "sigma(u) <= tau(hu) + C_h, and the window verdict rejects "
                "that relation",
                verdict=verdict.kind,
            )
    log_ss = grid.log_points(sigma.domain_hint)
    ss = np.exp(log_ss)
    sig_vals = sigma.evaluate_many(ss)
    value_at_0 = sigma(0.0) - tau(0.0)
    tau_hint = tau.domain_hint
    log_hint = math.log(tau_hint) if tau_hint > 0 else -math.inf
    sig_fn, tau_fn = sigma.evaluate_many, tau.evaluate_many
    # the objective kinks where sigma does, at y, and where tau does, at
    # y - log t
    k_sig, k_tau = log_kinks(sigma), log_kinks(tau)
    kinks = None
    if k_sig is not None and k_tau is not None:
        kinks = [(k_sig, False), (k_tau, True)]
    breaks = _breaks((sigma, False), (tau, True))

    def scan(t, j):
        return sig_vals[j] - tau_fn(ss[j] / t)

    def refine(ts, ys):
        s = np.exp(ys)
        return sig_fn(s) - tau_fn(s / ts)

    def fn(ts, groups=None):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        # each row's run ends before the cells s / t > tau_hint beyond tau's
        # coverage; a NaN row, which the search puts past the grid end, runs
        # over the whole grid
        with np.errstate(all="ignore"):
            guess = np.searchsorted(ss, ts * tau_hint, side="right")
            covered = _prefix_length(
                guess, lambda j: ~(ss[j] / ts > tau_hint), ss.size
            )
        # the s = 0 endpoint competes, and alone answers the rows whose run
        # is empty
        live = ~(ts <= 0) & (covered > 0)
        hi = covered[live] - 1
        # the scan touches g(u) = tau(e^u) at u = y - log t, up to log tau_hint
        log_t = np.log(ts[live])
        u_lo = log_ss[0] - np.nanmax(log_t, initial=-np.inf)
        u_hi = min(log_ss[-1] - np.nanmin(log_t, initial=np.inf), log_hint)
        return _transform_values(
            ts, live, value_at_0, groups, log_ss, scan, refine,
            ("envelope_upper", "t"),
            floor=value_at_0,
            monotone=_convex_in_log(tau, u_lo, u_hi),
            kinks=kinks,
            breaks=breaks,
            runs=(np.zeros_like(hi), hi),
        )

    return WeightFunction(
        "envelope_upper",
        fn,
        params={"sigma": sigma, "tau": tau, "grid": grid},
        name=f"({sigma.name} upstar {tau.name})",
    )


# ---------------------------------------------------------------------------
# function-level growth relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionRelationVerdict:
    """Finite-window relation verdict between two weight functions.

    Flags follow the convention relation(sigma, tau): ``preceq`` states
    tau(t) = O(sigma(t)), ``preceq_c`` states tau(t) <= sigma(ht) + C for
    some recorded (h, C), ``triangle``/``triangle_c`` are the little-o
    variants, and ``sim``/``sim_c`` hold when the bound goes both ways.
    """

    kind: str
    constants: dict
    margin: float
    window: tuple[float, float]
    preceq: bool
    triangle: bool
    preceq_c: bool
    triangle_c: bool
    preceq_rev: bool
    preceq_c_rev: bool
    sim: bool
    sim_c: bool

    def as_dict(self):
        return {
            "kind": self.kind,
            "constants": self.constants,
            "margin": self.margin,
            "window": list(self.window),
            "flags": {
                "preceq": self.preceq,
                "triangle": self.triangle,
                "preceq_c": self.preceq_c,
                "triangle_c": self.triangle_c,
                "sim": self.sim,
                "sim_c": self.sim_c,
            },
        }


def _ratio_diverges_fn(ratios: np.ndarray) -> bool:
    """Finite-window proxy for a positive ratio -> +infinity: the quarter
    maxima strictly increase, the last by the factor FN_DIVERGENCE_FACTOR."""
    qm = quarter_maxima(ratios)
    if not np.all(np.diff(qm) > 0):
        return False
    return qm[3] > qm[2] * FN_DIVERGENCE_FACTOR


def _deficit_accepted(deficit: np.ndarray, ratio: np.ndarray) -> bool:
    """Is an additive deficit tau(t) - sigma(ht) bounded on the window?

    Accepted when the deficit is small, has stopped rising, or when the
    ratio tau(t)/sigma(ht) falls steadily (the deficit's turnover then lies
    beyond the window even though the difference still grows inside it).
    """
    worst = float(np.max(deficit))
    if worst <= FN_ADDITIVE_CAP:
        return True
    if stopped_rising(deficit):
        return True
    rqm = quarter_maxima(ratio)
    return bool(np.all(np.diff(rqm) < 0))


def _evaluate_dilations(
    sigma: WeightFunction, dilations: list[np.ndarray]
) -> list[Optional[np.ndarray]]:
    """sigma at each dilation's arguments, or None for a dilation it refuses.

    A grid transform sigma (``is_expensive``) makes one call on the
    concatenated arguments, labelled by dilation, and refuses dilations by
    group: each refused dilation is one that a call of its own would refuse.
    Any other kind makes one call and, after a refusal, one call per
    dilation: its refusal names no dilation, since a wrapper such as
    ``power_substitution`` transforms its arguments before a transform
    refuses one.
    """
    if not dilations:
        return []
    sizes = [d.size for d in dilations]
    args = np.concatenate(dilations)
    splits = np.cumsum(sizes[:-1])
    if sigma.is_expensive:
        labels = np.repeat(np.arange(len(dilations)), sizes)
        values, refused = sigma.evaluate_many(args, groups=labels)
        return [
            None if gone else part
            for part, gone in zip(np.split(values, splits), refused)
        ]
    try:
        return np.split(sigma.evaluate_many(args), splits)
    except DomainExhaustedError:
        if len(dilations) == 1:
            return [None]
    outcomes = []
    for d in dilations:
        try:
            outcomes.append(sigma.evaluate_many(d))
        except DomainExhaustedError:
            outcomes.append(None)
    return outcomes


def _dilation_scan(
    ts: np.ndarray,
    tau_vals: np.ndarray,
    sigma: WeightFunction,
    hs: np.ndarray,
) -> tuple[Optional[float], Optional[float], np.ndarray]:
    """Search h with tau(t) <= sigma(ht) + C bounded; returns (h, C, accepted)
    with ``accepted[i]`` telling whether ``hs[i]`` was accepted, and h = C =
    None when none was.  h is the smallest accepted dilation whose C lies
    within 1e-12 max(1, C_min) of the least C, C_min.

    A dilation is tested when at least half of its arguments h t (and at
    least 8) lie inside the coverage of ``sigma``.  The arguments of all
    tested dilations go to sigma in one evaluation (``_evaluate_dilations``),
    so a transform sigma runs one grid search and one refinement for the
    whole scan, refusals included.  Dilations whose arguments escape the
    coverage of ``sigma`` (by the domain hint, or by an exhausted search
    grid, which refuses exactly the dilations that a call of their own
    would refuse) cannot be certified and are skipped.
    """
    accepted = np.zeros(hs.size, dtype=bool)
    cs = np.full(hs.size, np.inf)
    tested, groups = [], []
    for i, h in enumerate(hs):
        args = h * ts
        valid = args <= sigma.domain_hint
        if int(valid.sum()) >= max(8, ts.size // 2):
            tested.append((i, valid))
            groups.append(args[valid])
    for (i, valid), shifted in zip(tested, _evaluate_dilations(sigma, groups)):
        if shifted is None:
            continue
        deficit = tau_vals[valid] - shifted
        ratio = tau_vals[valid] / np.maximum(shifted, 1e-300)
        if _deficit_accepted(deficit, ratio):
            accepted[i] = True
            cs[i] = max(0.0, float(np.max(deficit)))
    if not accepted.any():
        return None, None, accepted
    # C sits at rounding level for near-tied dilations, so "least" is read
    # to 1e-12: a tie breaks towards the smallest h, whatever the batching
    c_min = float(cs.min())
    near = cs <= c_min + 1e-12 * max(1.0, c_min)
    i = int(np.flatnonzero(near)[np.argmin(hs[near])])
    return float(hs[i]), float(cs[i]), accepted


def relation_fn(
    sigma: WeightFunction,
    tau: WeightFunction,
    window: Optional[TailWindow] = None,
) -> FunctionRelationVerdict:
    """Growth relation of sigma against tau on a tail window.

    Ratio relations cap the witness sup at e^LOG_R_CAP_FN and treat a ratio
    whose quarter maxima strictly increase with a rising last quarter as
    divergent; dilation relations scan h over a geometric grid and accept a
    deficit that is either small or has stopped rising.
    """
    win = (window or DEFAULT_TAIL).clipped(
        min(sigma.domain_hint, tau.domain_hint)
    )
    ts = win.samples()
    svals = sigma.evaluate_many(ts)
    tvals = tau.evaluate_many(ts)
    pos = (svals > 0) & (tvals > 0)
    if int(pos.sum()) < 32:
        raise PreconditionError(
            "relation window has too few positive samples; move the window "
            "into the functions' growth range"
        )
    ts, svals, tvals = ts[pos], svals[pos], tvals[pos]

    ratio = tvals / svals
    ratio_rev = svals / tvals
    sup_log = float(np.log(np.max(ratio)))
    preceq = sup_log <= LOG_R_CAP_FN and not _ratio_diverges_fn(ratio)
    preceq_rev = (
        float(np.log(np.max(ratio_rev))) <= LOG_R_CAP_FN
        and not _ratio_diverges_fn(ratio_rev)
    )
    qm = quarter_maxima(ratio)
    triangle = (
        preceq and ratio[-1] <= EPS_TRIANGLE_FN and bool(np.all(np.diff(qm) < 0))
    )
    sim = preceq and preceq_rev

    h_fwd, c_fwd, accepted = _dilation_scan(ts, tvals, sigma, H_GRID)
    preceq_c = h_fwd is not None
    triangle_c = bool(np.all(accepted[np.isin(H_GRID, H_GRID_SMALL)]))
    h_rev, c_rev, _ = _dilation_scan(ts, svals, tau, H_GRID)
    preceq_c_rev = h_rev is not None
    sim_c = preceq_c and preceq_c_rev

    if sim:
        kind = "SIM"
    elif sim_c:
        kind = "SIM_C"
    elif triangle_c:
        kind = "TRIANGLE_C"
    elif triangle:
        kind = "TRIANGLE"
    elif preceq_c:
        kind = "PRECEQ_C"
    elif preceq:
        kind = "PRECEQ"
    else:
        kind = "NONE"

    constants = {"ratio_sup": math.exp(min(sup_log, LOG_R_CAP_FN))}
    if h_fwd is not None:
        constants["h"] = h_fwd
        constants["C"] = c_fwd
    if h_rev is not None:
        constants["h_rev"] = h_rev
        constants["C_rev"] = c_rev
    return FunctionRelationVerdict(
        kind=kind,
        constants=constants,
        margin=LOG_R_CAP_FN - sup_log,
        window=(float(ts[0]), float(ts[-1])),
        preceq=preceq,
        triangle=triangle,
        preceq_c=preceq_c,
        triangle_c=triangle_c,
        preceq_rev=preceq_rev,
        preceq_c_rev=preceq_c_rev,
        sim=sim,
        sim_c=sim_c,
    )


# ---------------------------------------------------------------------------
# growth indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthIndexEstimate:
    gamma: float
    gamma_bar: float  # math.inf when no dilation certifies the liminf
    K_witness: Optional[float]
    A_witness: Optional[float]
    tail_window: tuple[float, float]
    resolution: float
    gamma_saturated: bool
    gamma_bar_infinite: bool

    def as_dict(self):
        return {
            "gamma": self.gamma,
            "gamma_bar": None if math.isinf(self.gamma_bar) else self.gamma_bar,
            "K_witness": self.K_witness,
            "A_witness": self.A_witness,
            "tail_window": list(self.tail_window),
            "resolution": self.resolution,
            "gamma_saturated": self.gamma_saturated,
            "gamma_bar_infinite": self.gamma_bar_infinite,
        }


K_GRID = 2.0 ** (np.arange(1, 41) / 4.0)


def gamma_indices(
    omega: WeightFunction,
    window: Optional[TailWindow] = None,
    gamma_cap: float = 8.0,
    resolution: float = 1e-3,
    delta: float = 1e-3,
) -> GrowthIndexEstimate:
    """Estimate the dilation growth indices of a weight function.

    For a candidate gamma the limsup condition is certified when some K in
    the geometric grid keeps max_t omega(K^gamma t)/omega(t) < K(1-delta)
    over the tail window; the largest certifiable gamma (bisection, stated
    resolution) is the lower index.  The liminf condition with
    min > A(1+delta) gives the upper index as the smallest certifiable
    gamma, with +infinity sentinel (and flag) when no gamma at the cap is
    certified, which is the slowly-varying signature.
    """
    # reserve room for one full dilation step (K_max) above the window top,
    # otherwise a finite coverage hint silently disables every candidate K
    win = (window or DEFAULT_TAIL).clipped(omega.domain_hint / float(K_GRID[-1]))
    fast = omega
    if omega.is_expensive:
        upper = min(omega.domain_hint, win.t_hi * float(K_GRID[-1]) ** gamma_cap)
        fast = tabulate(omega, win.t_lo, upper, 8192)
    ts = win.samples()
    base = fast.evaluate_many(ts)
    # dilation-ratio conditions are tail statements; samples below one
    # natural unit only contribute noise to the ratios
    good = base >= 1.0
    if int(good.sum()) < 32:
        raise PreconditionError("index window has too few usable samples")
    ts, base = ts[good], base[good]
    hint = fast.domain_hint

    def certify(holds, gamma: float) -> Optional[float]:
        """The first K of the grid whose dilation ratios omega(K^gamma t) /
        omega(t) on the window satisfy ``holds(ratios, K)``, or None."""
        for k in K_GRID:
            factor = k**gamma
            if factor * ts[-1] > hint:
                continue
            if holds(fast.evaluate_many(factor * ts) / base, k):
                return float(k)
        return None

    limsup = partial(certify, lambda r, k: float(np.max(r)) < k * (1.0 - delta))
    liminf = partial(certify, lambda r, a: float(np.min(r)) > a * (1.0 + delta))

    # lower index: certifiable gammas form an interval (0, gamma*]
    gamma, k_witness, gamma_saturated = 0.0, limsup(resolution), False
    at_cap = None if k_witness is None else limsup(gamma_cap)
    if at_cap is not None:
        gamma, k_witness, gamma_saturated = gamma_cap, at_cap, True
    elif k_witness is not None:
        gamma, k_witness = bisect_edge(
            limsup, resolution, gamma_cap, k_witness, resolution
        )

    # upper index: certifiable gammas form an interval [gamma*, inf)
    gamma_bar, a_witness = math.inf, liminf(gamma_cap)
    at_floor = None if a_witness is None else liminf(resolution)
    if at_floor is not None:
        gamma_bar, a_witness = resolution, at_floor
    elif a_witness is not None:
        gamma_bar, a_witness = bisect_edge(
            liminf, gamma_cap, resolution, a_witness, resolution
        )

    return GrowthIndexEstimate(
        gamma=gamma,
        gamma_bar=gamma_bar,
        K_witness=k_witness,
        A_witness=a_witness,
        tail_window=(float(ts[0]), float(ts[-1])),
        resolution=resolution,
        gamma_saturated=gamma_saturated,
        gamma_bar_infinite=a_witness is None,
    )


# ---------------------------------------------------------------------------
# slow variation of associated functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlowVariationReport:
    slowly_varying: bool
    beta3_holds: bool
    ratio_diverges: bool
    direct_ratios: dict
    far_ratios: dict
    probe_t: float
    far_probe_log_t: Optional[float]
    probe_covered: bool
    window: tuple[int, int]

    def as_dict(self):
        return {
            "slowly_varying": self.slowly_varying,
            "beta3_holds": self.beta3_holds,
            "ratio_diverges": self.ratio_diverges,
            "direct_ratios": self.direct_ratios,
            "far_ratios": self.far_ratios,
            "probe_t": self.probe_t,
            "far_probe_log_t": self.far_probe_log_t,
            "probe_covered": self.probe_covered,
            "window": list(self.window),
        }


def slowly_varying_sequence_test(
    m: WeightSequence,
    p0: int = 8,
    probe_t: float = 1e6,
    u_values: tuple = (2.0, 5.0, 10.0),
) -> SlowVariationReport:
    """Detect slow variation of the associated function from the sequence.

    Two sequence-level conditions are combined: quotient-gap growth
    (min over the tail of mu_{Qp}/mu_p >= 1.01 for some Q in {2,3,4}) and
    divergence of mu_p / (M_{p-1}/M_0)^(1/(p-1)) (strictly increasing last
    quarter, log-scale rise >= 0.5, exceeding 10 at P_max; the rise margin
    separates divergence from convergence to a finite limit).  The direct
    ratios omega_M(u t)/omega_M(t) are reported at the probe and at a far
    log-domain probe near the coverage edge.
    """
    _require_log_convex(m)
    if not has_divergent_roots(m):
        raise PreconditionError("sequence roots do not diverge on the window")
    logmu = m.log_quotients
    p_max = m.p_max

    beta3 = False
    for q_factor in (2, 3, 4):
        top = p_max // q_factor
        if top <= p0 + 4:
            continue
        ps = np.arange(p0, top + 1)
        gaps = logmu[q_factor * ps] - logmu[ps]
        tail = gaps[3 * gaps.size // 4 :]
        if float(np.min(tail)) >= math.log(1.01):
            beta3 = True
            break

    ps = np.arange(max(2, p0), p_max + 1)
    d = logmu[ps] - (m.log_values[ps - 1] - m.log_values[0]) / (ps - 1)
    quarter = d[3 * d.size // 4 :]
    ratio_diverges = (
        bool(np.all(np.diff(quarter) > 0))
        and float(quarter[-1] - quarter[0]) >= 0.5
        and float(d[-1]) >= math.log(10.0)
    )

    log_probe = math.log(probe_t)
    u_arr = np.asarray(u_values, dtype=float)
    base = float(associated_log_eval(m, np.asarray([log_probe]))[0])
    shifted = associated_log_eval(m, log_probe + np.log(u_arr))
    direct = {
        float(u): (float(v) / base if base > 0 else math.inf)
        for u, v in zip(u_arr, shifted)
    }
    probe_covered = log_probe + math.log(float(u_arr.max())) <= float(logmu[-1])

    far_log = 0.8 * float(logmu[-1])
    far: dict = {}
    far_probe = None
    if far_log > log_probe / 2 and far_log > 1.0:
        far_base = float(associated_log_eval(m, np.asarray([far_log]))[0])
        if far_base > 0:
            far_vals = associated_log_eval(m, far_log + np.log(u_arr))
            far = {float(u): float(v) / far_base for u, v in zip(u_arr, far_vals)}
            far_probe = far_log

    return SlowVariationReport(
        slowly_varying=beta3 and ratio_diverges,
        beta3_holds=beta3,
        ratio_diverges=ratio_diverges,
        direct_ratios=direct,
        far_ratios=far,
        probe_t=probe_t,
        far_probe_log_t=far_probe,
        probe_covered=probe_covered,
        window=(p0, p_max),
    )


# ---------------------------------------------------------------------------
# sequence recovery
# ---------------------------------------------------------------------------


def recover_sequence(
    omega: WeightFunction,
    m0: float = 1.0,
    p_count: int = 50,
    grid: GridSpec = DEFAULT_GRID,
    check: bool = True,
) -> WeightSequence:
    """Recover M_p = M_0 sup_t t^p / exp(omega(t)) from a weight function.

    For omega associated with a log-convex sequence the round trip
    reproduces it; otherwise the log-convex minorant comes back.  An argmax
    on the right grid edge raises :class:`DomainExhaustedError` naming p.
    """
    if p_count < 8:
        raise DomainError("need p_count >= 8 to form a weight sequence")
    if not (m0 > 0):
        raise DomainError("M_0 must be positive")
    if check and not log_o_proxy(omega):
        raise PreconditionError(
            "recovery needs log t = o(omega(t)) on the tail; the proxy fails"
        )
    log_ts = grid.log_points(omega.domain_hint)
    ts = np.exp(log_ts)
    wvals = omega.evaluate_many(ts)
    inner = omega.evaluate_many

    def scan(p, j):
        return p * log_ts[j] - wvals[j]

    def refine(ps, ys):
        return ps * ys - inner(np.exp(ys))

    # p = 0 is answered by the t -> 0 endpoint, -omega(0); for p >= 1 that
    # endpoint is -inf and only the grid supremum counts
    best = np.full(p_count + 1, -omega(0.0))
    ps = np.arange(1, p_count + 1, dtype=float)
    best[1:] = grid_sup(
        ps, log_ts, scan, refine, ("recover_sequence", "p"), monotone=True,
        kinks=_fixed_kinks(omega), breaks=_breaks((omega, False)),
    )
    values = math.log(m0) + best
    return WeightSequence(values, name=f"recovered({omega.name})")
