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

Suprema are located by :func:`weightcalc.grids.grid_sup`, save where a
transform of piecewise-linear operands is answered exactly (below): a
search for the leftmost argmax on a log-spaced grid followed by
refinement of the winning cell.  Each transform supplies its grid, its
objective at grid cells and at points of each row, its endpoint or cap
values, and whether the argmax is monotone in the argument: always for
the conjugate, phi* and sequence recovery, and for the envelopes when the
kind of tau proves tau(e^u) convex on the range the scan touches, so that
the grid search costs O((n + k) log k) cells instead of k x n.  Envelopes whose tau is of
another kind take the dense scan.  Every grid transform reaches
``grid_sup`` through ``_transform_values``.

The envelopes of two associated functions whose sequences M and N share
P_max need no search: in y = log t both envelopes are Legendre transforms
of sequences, the lower one of log M_p + log N_p (the infimal convolution
of two convex functions conjugates to the sum of their conjugates) and the
upper one of the log-convex minorant of log M_p - log N_p (Toland-Singer
duality for a difference of convex functions).  They are answered by one
binary search on that sequence's quotients, and the index found there
gives the exact set of optimal s, which takes the place of the grid argmax
in the grid route's refusals (``_exact_envelope``).  The grid route stays
for every other pair (``_grid_envelope_lower``, ``_grid_envelope_upper``).

The conjugate, the Young conjugate phi* of ``bmt`` and sequence recovery
are one transform in y = log t, x -> sup_y x phi(y) - omega(e^y), with
phi = exp for the conjugate and the identity for the other two, over the
caller's range of y.  They share one kernel (``_legendre``): it answers
x <= 0 with the caller's endpoint, which also floors the supremum, and
x = +inf with +inf; the callers keep only their ranges, endpoints and
preconditions.

Every function describes its kinks once (``log_kinks``): its knots in
log t, and whether it is linear in log t between them, as associated
functions, their integral form, sampled functions and the ``normalized``
and ``power_substitution`` wrappers of these are.  Between two knots of
such an omega the kernel's objective is convex in y, so the supremum sits
at a knot or at an end of the range: it is the upper envelope of one line
x -> x phi(y_k) - omega(e^(y_k)) per candidate, the discrete Legendre
transform of Lucet (1997).  The kernel answers it exactly from the lower
convex hull of the points (phi(y_k), omega(e^(y_k))), built once from
omega's own data, by one binary search per argument on the hull's chord
slopes (``_hull_legendre``), and refuses an argument only when its best
candidate is the top end of the range; the grid route also refuses an
optimum at a knot inside its last cell when the grid argmax falls on the
last grid point.  Every other omega takes the grid route (``_grid_legendre``):
it tabulates omega on the grid of y and calls ``grid_sup`` with the
monotone argmax.

An envelope whose operands are all piecewise linear passes their knots to
``grid_sup`` as kinks: between two kinks its objective is linear in y, so
a bracket's maximum sits at one of its ends or kinks, and every row is
answered by evaluating them all at once, after a run of more than 60
kinks of one operand is narrowed by bisection on that operand's kink
values.  When only some operands are (an associated function with a
power weight, a normalized power weight), brackets are cut at all the
operands' knots and each piece refined on its own.  Smooth pieces are
refined by safeguarded parabolic interpolation, which removes the grid
bias down to machine precision for objectives concave near their
maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DomainError, PreconditionError, WellDefinednessError
from .grids import (
    DEFAULT_GRID,
    DEFAULT_TAIL,
    GridSpec,
    TailWindow,
    bisect_edge,
    decays_to_zero,
    edge_refusal,
    grid_sup,
    quarter_maxima,
    stopped_rising,
)
from .sequences import (
    WeightSequence,
    _hull_vertices,
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
#: Wrapper kinds that are grid transforms when their operand ``of`` is one.
_WRAPPER_KINDS = frozenset({"normalized", "power_substitution"})

#: Relative distance, to max(1, |y|), within which the best knot of an exact
#: Legendre transform refuses as the top end y of its range would: rounding
#: of a coverage hint can leave an operand's last knot an ulp inside it.
_TOP_ROUNDING = 4 * np.finfo(float).eps

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
        ``groups``, one integer label in [0, G) per argument, it returns
        (values, refused) instead: ``refused[g]`` tells whether group g was
        refused, as a call on that group's arguments alone would be, and
        the values of a refused group are NaN.  A function that is not
        ``is_expensive`` refuses no argument, and returns its values with
        an all-False ``refused``.
        """
        ts = np.asarray(ts, dtype=float)
        if groups is None:
            return self._fn(ts)
        groups = np.asarray(groups, dtype=np.intp)
        if self.is_expensive:
            return self._fn(ts, groups=groups)
        return self._fn(ts), np.zeros(int(groups.max(initial=-1)) + 1, dtype=bool)

    def __call__(self, t: float) -> float:
        return float(self._fn(np.asarray([t], dtype=float))[0])

    @property
    def is_expensive(self) -> bool:
        """Whether each evaluation is a grid search whose arguments can be
        refused, and ``evaluate_many`` refuses them by group: a grid
        transform, or a ``normalized`` or ``power_substitution`` of one,
        which passes the labels on to its operand."""
        if self.kind in _WRAPPER_KINDS and "of" in self.params:
            return self.params["of"].is_expensive
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
    """omega^(1/alpha): t -> omega(t^(1/alpha)).

    An argument t whose power t^(1/alpha) passes the float range reaches
    omega as +inf, without an overflow warning.
    """
    if not (alpha > 0):
        raise DomainError(f"substitution exponent must be > 0, got {alpha}")
    inner = omega.evaluate_many
    expo = 1.0 / alpha
    hint = omega.domain_hint**alpha if math.isfinite(omega.domain_hint) else math.inf

    def fn(ts, groups=None):
        args = np.maximum(ts, 0.0)
        with np.errstate(over="ignore"):
            np.power(args, expo, out=args)
        return inner(args, groups=groups)

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

    def fn(ts, groups=None):
        if groups is None:
            return np.maximum(inner(ts) - shift, 0.0)
        values, refused = inner(ts, groups=groups)
        return np.maximum(values - shift, 0.0), refused

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
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(values))):
        raise DomainError("sample abscissae and values must be finite")
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
    return _associated_log_argmax(m, np.asarray(log_ts, dtype=float))[0]


def _associated_log_argmax(m: WeightSequence, lts: np.ndarray):
    """(values, p) with ``associated_log_eval``'s values at the log
    arguments ``lts`` and the index p attaining each: log mu_p <= lts <
    log mu_(p+1), so p = P_max on the extrapolated last segment and for
    a NaN argument, whose value is NaN."""
    lv = m.log_values
    idx = np.searchsorted(m.log_quotients[1:], lts, side="right")
    out = lv[0] + idx * lts - lv[idx]
    return np.where(idx == 0, 0.0, out), idx


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


def log_kinks(omega: WeightFunction) -> tuple[Optional[np.ndarray], bool]:
    """Where omega may change slope: the sorted knots in log t (None when
    none are known), and whether omega is linear in log t between them.

    An associated function and its integral form have slope p in log t
    between log mu_p and log mu_(p+1), so their knots are log mu_p, p >= 1
    (of the log-convex minorant for ``associated``); a sampled function is
    linear in log t between its samples, so its knots are log t_i.  The
    wrappers keep their operand's linearity: ``normalized`` adds a knot at
    t = 1, where it leaves 0, and ``power_substitution`` with exponent
    alpha moves each knot u to alpha u, where (log t) / alpha = u.  Every
    other kind has no known knot and is not linear.

    The knots serve the grid routes of the envelopes (``_kink_options``)
    and the refinement of operands that are not linear between them.  The
    Legendre transforms of a linear omega search no grid: they read omega
    at its knots from its own data (``_knot_values``).
    """
    # kinds are those of this module's constructors; a function built
    # directly under such a kind without its parameters has none
    kind, params = omega.kind, omega.params
    if kind in _WRAPPER_KINDS and "of" in params:
        knots, linear = log_kinks(params["of"])
        if kind == "normalized":
            return np.union1d([] if knots is None else knots, 0.0), linear
        return (None if knots is None else params["alpha"] * knots), linear
    if kind == "sampled" and "ts" in params:
        return np.log(params["ts"]), True
    if kind == "associated" and "minorant" in params:
        knots = params["minorant"].log_quotients[1:]
    elif kind == "integral_form" and "sequence" in params:
        knots = params["sequence"].log_quotients[1:]
    else:
        return None, False
    # rounding can leave near-equal quotients a few ulps out of order
    if np.any(knots[1:] < knots[:-1]):
        knots = np.maximum.accumulate(knots)
    return knots, True


def _knot_values(omega: WeightFunction) -> np.ndarray:
    """omega at e^u for every knot u of ``log_kinks(omega)``, for an omega
    linear in log t between its knots, read from omega's own data.

    An associated function is lv_0 + p log mu_p - lv_p at log mu_p, lv the
    log values of its log-convex minorant; its integral form is p log mu_p
    minus the sum of log mu_k over k <= p; a sampled function is its
    samples.  ``normalized`` subtracts omega(1) and clips at 0, and
    ``power_substitution`` keeps the values of the knots it moves.
    """
    kind, params = omega.kind, omega.params
    if kind == "power_substitution":
        return _knot_values(params["of"])
    if kind == "normalized":
        inner = params["of"]
        # the knots of log_kinks: union1d is unique of the concatenation
        _, first = np.unique(np.append(log_kinks(inner)[0], 0.0), return_index=True)
        shift = inner(1.0)
        return np.maximum(np.append(_knot_values(inner), shift)[first] - shift, 0.0)
    if kind == "sampled":
        return params["values"]
    knots = log_kinks(omega)[0]
    at = np.arange(1.0, knots.size + 1)
    at *= knots
    if kind == "associated":
        lv = params["minorant"].log_values
        at += lv[0]
        at -= lv[1:]
        return at
    at -= np.cumsum(params["sequence"].log_quotients[1:])
    return at


def _kink_options(*placed):
    """``grid_sup``'s ``kinks`` or ``breaks`` option, as keywords, for an
    objective that kinks where its operands do.  ``placed`` holds (omega,
    at) pairs: a knot u of omega lies at y = u for at = 0, at y = log x + u
    for at = 1 and at y = log x - u for at = -1.  When every operand is
    linear in log t between its knots, the objective is convex between
    them (``kinks``); when some operand is not, each bracket is cut at every
    knot and its pieces refined on their own (``breaks``); without knots,
    neither."""
    sets, linear = [], True
    for omega, at in placed:
        knots, piecewise_linear = log_kinks(omega)
        linear &= piecewise_linear
        if knots is not None:
            sets.append((-knots[::-1] if at < 0 else knots, at != 0))
    if not sets:
        return {}
    return {"kinks" if linear else "breaks": sets}


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
    """Finite-window proxy for t = o(omega(t)).

    When the window refuses ``power_substitution(w, alpha)`` with alpha <=
    1, the verdict is w's own, on the window mapped by t -> t^(1/alpha):
    with s = t^(1/alpha) the ratio is s^alpha / w(s) <= s / w(s) for s >= 1,
    so t = o(w(t)) carries over, and the mapped window spans 1/alpha times
    the decades, within w's coverage.  A mapped window beyond the float
    range decides nothing.
    """
    # samples where omega has not yet reached one natural unit say nothing
    # about the tail and their near-zero denominators fake a decay
    win = (window or DEFAULT_TAIL).clipped(omega.domain_hint)
    ts = win.samples()
    w = omega.evaluate_many(ts)
    pos = w >= 1.0
    if int(pos.sum()) >= 32 and _tail_ratio_decays(ts[pos], ts[pos] / w[pos]):
        return True
    params = omega.params
    if omega.kind != "power_substitution" or "of" not in params or params["alpha"] > 1.0:
        return False
    expo = 1.0 / params["alpha"]
    try:
        mapped = TailWindow(win.t_lo**expo, win.t_hi**expo, win.n)
    except OverflowError:
        return False
    return c2_proxy(params["of"], mapped)


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


def _legendre(omega, ys, phi, where, wvals=None):
    """The transform x -> sup over y in [ys[0], ys[-1]] of x phi(y) -
    omega(e^y), for phi = ``np.exp`` (the conjugate) or the identity (phi*
    and sequence recovery), with ``where`` labelling its refusals;
    ``wvals`` is omega at e^ys when the caller has tabulated it.

    Returns ``sup(xs, endpoint, groups=None)`` for a 1-d float array
    ``xs``.  The caller's ``endpoint`` is the value of the competing end of
    the range outside the grid: it answers every x <= 0 and floors the
    supremum of the others, a zero endpoint as +0.0.  x = +inf is answered
    by +inf, since phi is unbounded.  An omega linear in log t between its
    knots takes the exact route (``_hull_legendre``), any other the grid
    search (``_grid_legendre``).
    """
    route = _hull_legendre if log_kinks(omega)[1] else _grid_legendre
    values = route(omega, ys, phi, where, wvals)

    def sup(xs, endpoint, groups=None):
        endpoint = endpoint + 0.0  # omega = 0 at the endpoint answers +0.0
        top = xs == math.inf
        live = ~(xs <= 0) & ~top
        return values(xs, live, np.where(top, math.inf, endpoint), groups, endpoint)

    return sup


def _grid_legendre(omega, ys, phi, where, wvals):
    """``_legendre`` by grid search and refinement: the transform's values
    in the form of ``_transform_values``.  The argmax is monotone in x
    (Topkis: x phi(y) has increasing differences), and the objective kinks
    where omega does, at y."""
    if wvals is None:
        wvals = omega.evaluate_many(np.exp(ys))
    phis = phi(ys)
    inner = omega.evaluate_many
    options = {"monotone": True, **_kink_options((omega, 0))}

    def scan(x, j):
        return x * phis[j] - wvals[j]

    def refine(x, y):
        return x * phi(y) - inner(np.exp(y))

    def values(xs, live, fill, groups, floor):
        return _transform_values(
            xs, live, fill, groups, ys, scan, refine, where, floor=floor, **options
        )

    return values


def _hull_legendre(omega, ys, phi, where, wvals):
    """``_legendre`` of an omega linear in log t between its knots, with no
    grid search, in the form of ``_grid_legendre``.

    Between two knots x phi(y) - omega(e^y) is convex in y, so the
    supremum over [ys[0], ys[-1]] is attained at a knot strictly inside or
    at an end.  It is the upper envelope of the lines x -> x phi(y_k) -
    omega_k, the discrete Legendre transform (Lucet 1997): the best line at
    x is a vertex of the lower convex hull of the points (phi(y_k),
    omega_k), found by one binary search of x in the hull's chord slopes,
    and the leftmost best of that vertex and its two hull neighbours
    answers.  omega_k comes from omega's own data (``_knot_values``), at
    the ends from ``wvals`` or two evaluations.  The hull is built once, at
    the first evaluation.

    A live x is refused only when the top end wins: when its leftmost best
    candidate is the top end, or a knot within rounding of it, where the
    two values differ by rounding alone.  The grid route also refuses an
    optimum at a knot inside the last grid cell whenever the grid argmax
    falls on the last grid point; this route answers it.  NaN answers NaN,
    unrefused.
    """

    @cache
    def hull():
        knots = log_kinks(omega)[0]
        if wvals is None:
            ends = omega.evaluate_many(np.exp(ys[[0, -1]]))
        else:
            ends = wvals[[0, -1]]
        lo, top = ys[0], ys[-1]
        inside = slice(np.searchsorted(knots, lo, "right"), np.searchsorted(knots, top))
        px = phi(np.concatenate(([lo], knots[inside], [top])))
        pw = np.concatenate((ends[:1], _knot_values(omega)[inside], ends[1:]))
        px, pw, slopes = _lower_hull(px, pw)
        # the first vertex within rounding of the top end, at latest the top
        # end itself, the last vertex
        edge = np.searchsorted(px, phi(top - _TOP_ROUNDING * max(1.0, abs(top))))
        return px, pw, slopes, edge

    def values(xs, live, fill, groups, floor):
        px, pw, slopes, edge = hull()
        x = xs[live]
        near = np.searchsorted(slopes, x)[:, None] + np.arange(-1, 2)
        np.clip(near, 0, px.size - 1, out=near)
        candidates = x[:, None] * px[near] - pw[near]
        rows, best = np.arange(x.size), candidates.argmax(axis=1)
        refused = (near[rows, best] >= edge) & ~np.isnan(x)
        found = np.maximum(candidates[rows, best], floor)
        return _exact_values(xs, live, fill, groups, found, refused, where)

    return values


def _lower_hull(px, pw):
    """The lower convex hull of the points (px, pw), px non-decreasing: its
    vertices (hx, hw), hx increasing, and its chord slopes, non-decreasing.

    Of points sharing an abscissa only the lowest is kept.  Points whose
    chord slopes do not fall are then their own hull, found in one pass;
    otherwise the monotone chain of ``sequences._hull_vertices`` builds it.
    """
    dx = np.diff(px)
    if not dx.min() > 0:
        starts = np.flatnonzero(np.concatenate(([True], dx > 0)))
        px, pw = px[starts], np.minimum.reduceat(pw, starts)
        dx = np.diff(px)
    slopes = np.diff(pw) / dx
    if not np.any(slopes[1:] < slopes[:-1]):
        return px, pw, slopes
    vertices = _hull_vertices(pw, px)
    if vertices is not None:
        px, pw = px[vertices], pw[vertices]
    # rounding can leave a chord slope an ulp below the one before
    return px, pw, np.maximum.accumulate(np.diff(pw) / np.diff(px))


def conjugate(
    omega: WeightFunction,
    grid: GridSpec = DEFAULT_GRID,
    check: bool = True,
    window: Optional[TailWindow] = None,
) -> WeightFunction:
    """Conjugate omega*(s) = sup_{t>=0} (st - omega(t)).

    Well-definedness needs t = o(omega(t)); the finite proxy is checked up
    front unless ``check`` is disabled.  The supremum is taken over the
    grid's range of t, within omega's coverage, and the t = 0 endpoint
    (value -omega(0)) always competes.  An omega linear in log t between
    its knots (associated, integral form, sampled, and their wrappers) is
    answered exactly, as the best of its knots inside the range and the
    range's ends, through a lower convex hull built at the first
    evaluation; any other omega by a scan of the log grid and refinement of
    the winning cell.  The result's ``domain_hint`` is the slope coverage
    of the grid, read from omega tabulated on it: beyond it the supremum
    would escape the range, and an evaluation whose optimum is the top of
    the range raises :class:`DomainExhaustedError`.
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
    sup = _legendre(omega, log_ts, np.exp, ("conjugate", "s"), wvals)
    w0 = omega(0.0)
    # conservative reliable-argument bound: maximal secant slope covered
    slopes = np.diff(wvals) / np.diff(ts)
    slope_cap = float(np.max(slopes)) if np.all(np.isfinite(slopes)) else math.inf
    hint = 0.95 * slope_cap if math.isfinite(slope_cap) else math.inf

    def fn(ss, groups=None):
        return sup(np.atleast_1d(np.asarray(ss, dtype=float)), -w0, groups)

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
    transform runs, so the outer conjugate is that of a sampled function,
    piecewise linear in log t: an evaluation is one binary search on the
    chord slopes of its hull, with no nested transform and no grid search.
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
        knots = np.log(params["ts"])
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


def _lower_run_start(ss, t, tau_hint):
    """First column of each row's run on the lower envelope's grid ``ss``
    of s: the run starts past the cells t / s > tau_hint beyond tau's
    coverage, and a NaN row runs over the whole grid."""
    with np.errstate(all="ignore"):
        guess = np.searchsorted(ss, np.nan_to_num(t / tau_hint, nan=0.0))
        return _prefix_length(guess, lambda j: t / ss[j] > tau_hint, ss.size)


def _upper_run_length(ss, ts, tau_hint):
    """Number of columns in each row's run on the upper envelope's grid
    ``ss`` of s: the run ends before the cells s / t > tau_hint beyond
    tau's coverage, and a NaN row, which the search puts past the grid end,
    runs over the whole grid."""
    with np.errstate(all="ignore"):
        guess = np.searchsorted(ss, ts * tau_hint, side="right")
        return _prefix_length(guess, lambda j: ~(ss[j] / ts > tau_hint), ss.size)


def _envelope(kind, fn, sigma, tau, grid) -> WeightFunction:
    """The envelope of ``kind`` of (sigma, tau) evaluated by ``fn``."""
    mark = "lowstar" if kind == "envelope_lower" else "upstar"
    return WeightFunction(
        kind,
        fn,
        params={"sigma": sigma, "tau": tau, "grid": grid},
        name=f"({sigma.name} {mark} {tau.name})",
    )


def _associated_pair(sigma: WeightFunction, tau: WeightFunction):
    """The log-convex minorants (M, N) behind sigma and tau when both are
    associated functions and M and N share P_max, else None."""
    if not (sigma.kind == tau.kind == "associated"):
        return None
    m, n = sigma.params.get("minorant"), tau.params.get("minorant")
    if m is None or n is None or m.p_max != n.p_max:
        return None
    return m, n


def _exact_envelope(kind, sigma, tau, grid, seq, maximizers, runs):
    """An envelope of an associated pair answered from the sequence ``seq``
    whose associated function it is, with the refusals of its grid route.

    ``runs(ss, ts, tau_hint)`` gives, as the grid route builds them on the
    grid ``ss`` of s, the mask of live arguments and each live one's run
    of columns [lo, hi].  A live t, with x = log t, takes the index p
    attaining omega_seq(t), and ``maximizers(x, p, p + 1)`` the ends of the
    set of optimal log s (exact for 1 <= p < P_max).  p = 0 answers 0, the
    value at s = 0, unrefused.  Refused are the arguments on the last,
    extrapolated segment (p = P_max) and those whose optimal set misses the
    inside of their searched range [log s_lo, log s_hi]."""
    log_ss = grid.log_points(sigma.domain_hint)
    ss = np.exp(log_ss)
    top = seq.p_max

    def fn(ts, groups=None):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        live, lo, hi = runs(ss, ts, tau.domain_hint)
        x = np.log(ts[live])
        values, p = _associated_log_argmax(seq, x)
        y_lo, y_hi = maximizers(x, p, np.minimum(p + 1, top))  # p = P_max is refused
        # an optimal set that meets the range only at an end leaves the grid
        # argmax there, where the grid route refuses it
        missed = (lo >= hi) | (y_hi <= log_ss[np.minimum(lo, hi)]) | (y_lo >= log_ss[hi])
        refused = (p > 0) & ~np.isnan(x) & ((p == top) | missed)
        # the value at s = 0 and at t <= 0 is sigma(0) +- tau(0) = 0
        return _exact_values(ts, live, 0.0, groups, values, refused, (kind, "t"))

    return _envelope(kind, fn, sigma, tau, grid)


def _exact_values(ts, live, fill, groups, values, refused, where):
    """A transform's values in the form of ``_transform_values``, from
    ``values`` known at the ``live`` arguments and the mask ``refused`` of
    those to refuse: the first refused argument raises ``grid_sup``'s
    :class:`DomainExhaustedError`, or with ``groups`` every group holding
    one is refused and its live values are NaN."""
    out = np.full_like(ts, fill)
    if groups is None:
        if refused.any():
            raise edge_refusal(where, ts[live][np.argmax(refused)])
        out[live] = values
        return out
    labels = groups[live]
    gone = np.zeros(int(groups.max(initial=-1)) + 1, dtype=bool)
    gone[labels[refused]] = True
    out[live] = np.where(gone[labels], np.nan, values)
    return out, gone


def _grid_envelope_lower(
    sigma: WeightFunction, tau: WeightFunction, grid: GridSpec = DEFAULT_GRID
) -> WeightFunction:
    """``envelope_lower`` by grid search and refinement, for any pair."""
    log_ss = grid.log_points(sigma.domain_hint)
    ss = np.exp(log_ss)
    sig_vals = sigma.evaluate_many(ss)
    value_at_0 = sigma(0.0) + tau(0.0)
    tau_hint = tau.domain_hint
    log_hint = math.log(tau_hint) if tau_hint > 0 else -math.inf
    sig_fn, tau_fn = sigma.evaluate_many, tau.evaluate_many
    # the objective kinks where sigma does, at y, and where tau does, at
    # log t - y
    kink_options = _kink_options((sigma, 0), (tau, -1))

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
        lo = _lower_run_start(ss, t, tau_hint)
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
            runs=(lo, np.full_like(lo, ss.size - 1)),
            **kink_options,
        )

    return _envelope("envelope_lower", fn, sigma, tau, grid)


def envelope_lower(
    sigma: WeightFunction,
    tau: WeightFunction,
    grid: GridSpec = DEFAULT_GRID,
) -> WeightFunction:
    """Lower envelope (sigma, tau) -> inf_{s>0} sigma(s) + tau(t/s).

    Found by grid search and refinement, except for the associated
    functions of sequences M and N that share P_max: the infimal
    convolution in log t adds the conjugates, log M_p + log N_p, so the
    envelope is omega_{M N}, answered from the product of the log-convex
    minorants.  With p its index at t, the infimum is attained at every
    log s with log mu_p <= log s <= log mu_(p+1) and log nu_p <= log(t/s)
    <= log nu_(p+1); that set stands in for the grid argmax in the grid
    route's refusals (``_exact_envelope``).
    """
    pair = _associated_pair(sigma, tau)
    if pair is None:
        return _grid_envelope_lower(sigma, tau, grid)
    m, n = pair
    log_mu, log_nu = m.log_quotients, n.log_quotients

    def maximizers(x, p, q):
        return np.maximum(log_mu[p], x - log_nu[q]), np.minimum(log_mu[q], x - log_nu[p])

    def runs(ss, ts, tau_hint):
        live = ~(ts <= 0)
        return live, _lower_run_start(ss, ts[live], tau_hint), ss.size - 1

    product = WeightSequence(m.log_values + n.log_values)
    return _exact_envelope(
        "envelope_lower", sigma, tau, grid, product, maximizers, runs
    )


def _grid_envelope_upper(
    sigma: WeightFunction, tau: WeightFunction, grid: GridSpec = DEFAULT_GRID
) -> WeightFunction:
    """``envelope_upper`` by grid search and refinement, for any pair,
    without the precondition."""
    log_ss = grid.log_points(sigma.domain_hint)
    ss = np.exp(log_ss)
    sig_vals = sigma.evaluate_many(ss)
    value_at_0 = sigma(0.0) - tau(0.0)
    tau_hint = tau.domain_hint
    log_hint = math.log(tau_hint) if tau_hint > 0 else -math.inf
    sig_fn, tau_fn = sigma.evaluate_many, tau.evaluate_many
    # the objective kinks where sigma does, at y, and where tau does, at
    # y - log t
    kink_options = _kink_options((sigma, 0), (tau, 1))

    def scan(t, j):
        return sig_vals[j] - tau_fn(ss[j] / t)

    def refine(ts, ys):
        s = np.exp(ys)
        return sig_fn(s) - tau_fn(s / ts)

    def fn(ts, groups=None):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        covered = _upper_run_length(ss, ts, tau_hint)
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
            runs=(np.zeros_like(hi), hi),
            **kink_options,
        )

    return _envelope("envelope_upper", fn, sigma, tau, grid)


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

    Found by grid search and refinement, except for the associated
    functions of sequences M and N that share P_max: by Toland-Singer
    duality the supremum in log t of a difference of convex functions is
    sup_p (p log t - (log M_p - log N_p)), so the envelope is the
    associated function of the log-convex minorant of M/N, whether or not
    M/N is log-convex.  With p its index at t, the supremum is attained at
    every log s with log nu_p <= log(s/t) <= log nu_(p+1); that set stands
    in for the grid argmax in the grid route's refusals
    (``_exact_envelope``).
    """
    if check:
        # the forward dilation scan of relation_fn(tau, sigma) decides
        # triangle_c; the rest of the verdict only names a refusal
        win_ts, win_tau, win_sig = _relation_samples(tau, sigma, window)
        forward = _dilation_scan(win_ts, win_sig, tau, H_GRID)
        if not _triangle_c(forward[2]):
            verdict = _relation_verdict(tau, sigma, win_ts, win_tau, win_sig, forward)
            raise WellDefinednessError(
                "upper envelope is not certifiable: sup_s {sigma(s) - tau(s/t)} "
                "is finite for all t iff for every h > 0 there is C_h with "
                "sigma(u) <= tau(hu) + C_h, and the window verdict rejects "
                "that relation",
                verdict=verdict.kind,
            )
    pair = _associated_pair(sigma, tau)
    if pair is None:
        return _grid_envelope_upper(sigma, tau, grid)
    m, n = pair
    log_nu = n.log_quotients

    def maximizers(x, p, q):
        return x + log_nu[p], x + log_nu[q]

    def runs(ss, ts, tau_hint):
        covered = _upper_run_length(ss, ts, tau_hint)
        live = ~(ts <= 0) & (covered > 0)
        return live, 0, covered[live] - 1

    quotient = log_convex_minorant(WeightSequence(m.log_values - n.log_values))
    return _exact_envelope(
        "envelope_upper", sigma, tau, grid, quotient, maximizers, runs
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

    One call on the concatenated arguments, labelled by dilation: each
    refused dilation is one that a call of its own would refuse, and only
    a grid transform or its wrapper (``is_expensive``) refuses any.
    """
    if not dilations:
        return []
    sizes = [d.size for d in dilations]
    labels = np.repeat(np.arange(len(dilations)), sizes)
    values, refused = sigma.evaluate_many(np.concatenate(dilations), groups=labels)
    return [
        None if gone else part
        for part, gone in zip(np.split(values, np.cumsum(sizes[:-1])), refused)
    ]


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
    so a transform sigma, wrapped or not, runs one grid search and one
    refinement for the whole scan, refusals included.  Dilations whose
    arguments escape the coverage of ``sigma`` (by the domain hint, or by an
    exhausted search grid, which refuses exactly the dilations that a call
    of their own would refuse) cannot be certified and are skipped.
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


def _relation_samples(
    sigma: WeightFunction, tau: WeightFunction, window: Optional[TailWindow]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ts, sigma(ts), tau(ts)) at the window samples where both are positive."""
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
    return ts[pos], svals[pos], tvals[pos]


def _triangle_c(accepted: np.ndarray) -> bool:
    """Did the forward dilation scan accept every h <= 1 of H_GRID_SMALL?"""
    return bool(np.all(accepted[np.isin(H_GRID, H_GRID_SMALL)]))


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
    ts, svals, tvals = _relation_samples(sigma, tau, window)
    forward = _dilation_scan(ts, tvals, sigma, H_GRID)
    return _relation_verdict(sigma, tau, ts, svals, tvals, forward)


def _relation_verdict(
    sigma: WeightFunction,
    tau: WeightFunction,
    ts: np.ndarray,
    svals: np.ndarray,
    tvals: np.ndarray,
    forward: tuple[Optional[float], Optional[float], np.ndarray],
) -> FunctionRelationVerdict:
    """relation_fn's verdict from its samples and forward dilation scan."""
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

    h_fwd, c_fwd, accepted = forward
    preceq_c = h_fwd is not None
    triangle_c = _triangle_c(accepted)
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


def _certify(fast, ts, base, passes, gamma: float) -> Optional[float]:
    """The first K of ``K_GRID`` whose dilation ratios fast(K^gamma t) / base
    on the samples ``ts`` all satisfy ``passes(ratios, K)``, or None; the K
    refuted at ``ts[-1]`` alone are never evaluated on the whole window."""
    # scalar powers: an array power may round differently
    factors = np.array([k**gamma for k in K_GRID])
    inside = factors * ts[-1] <= fast.domain_hint
    ks, factors = K_GRID[inside], factors[inside]
    alive = passes(fast.evaluate_many(factors * ts[-1]) / base[-1], ks)
    for k, factor in zip(ks[alive], factors[alive]):
        if passes(fast.evaluate_many(factor * ts) / base, k).all():
            return float(k)
    return None


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

    Each candidate gamma first refutes K at the window's last sample alone:
    every K whose dilation stays inside the domain hint is evaluated there
    in one call, and a K whose ratio already fails (for the limsup, ratio
    >= K(1-delta) or NaN; for the liminf, ratio <= A(1+delta) or NaN) is
    dropped, because a window with that ratio in it fails too.  Only the
    surviving K are evaluated on the whole window, in grid order, up to the
    first that passes.  The decisions are those of trying every K on the
    whole window: evaluation is pointwise, so the point value is the
    window call's last entry, and K^gamma is the same scalar power for both.
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

    limsup = partial(_certify, fast, ts, base, lambda r, k: r < k * (1.0 - delta))
    liminf = partial(_certify, fast, ts, base, lambda r, a: r > a * (1.0 + delta))

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
    reproduces it; otherwise the log-convex minorant comes back.  Each
    log M_p is the supremum of p log t - omega(t) over the grid's range,
    the best of omega's knots and the range's ends when omega is linear in
    log t between its knots, else a grid search with refinement.  An
    optimum at the top of the range raises :class:`DomainExhaustedError`
    naming p.
    """
    if isinstance(p_count, bool) or not isinstance(p_count, (int, np.integer)):
        raise DomainError(f"p_count must be an integer, got {p_count!r}")
    if p_count < 8:
        raise DomainError("need p_count >= 8 to form a weight sequence")
    if not (m0 > 0):
        raise DomainError("M_0 must be positive")
    if check and not log_o_proxy(omega):
        raise PreconditionError(
            "recovery needs log t = o(omega(t)) on the tail; the proxy fails"
        )
    sup = _legendre(
        omega, grid.log_points(omega.domain_hint), lambda y: y,
        ("recover_sequence", "p"),
    )
    # p = 0 is answered by the t -> 0 endpoint, -omega(0); for p >= 1 that
    # endpoint is -inf and only the grid supremum counts
    best = np.full(p_count + 1, -omega(0.0))
    best[1:] = sup(np.arange(1, p_count + 1, dtype=float), -math.inf)
    values = math.log(m0) + best
    return WeightSequence(values, name=f"recovered({omega.name})")
