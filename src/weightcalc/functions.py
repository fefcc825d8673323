"""Weight functions: associated functions, conjugates, Legendre envelopes,
function-level growth relations and growth indices.

A :class:`WeightFunction` wraps a vectorised evaluator t >= 0 -> omega(t)
together with a ``domain_hint``: the argument beyond which values are
extrapolation (piecewise-from-sequence functions) or untrusted (tabulated
transforms).  All sup/inf transforms mask arguments beyond the operands'
hints and raise :class:`DomainExhaustedError` when an argmax lands on a
search boundary, so a silently-extrapolated value can never win a supremum.

Suprema are located by :func:`weightcalc.grids.grid_sup`: a dense
log-spaced grid scan followed by golden-section refinement of the winning
cell, which removes the grid bias down to machine precision for unimodal
objectives.  Each transform supplies only its grid, its objective on the
grid and at one point per row, and its endpoint or cap values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
    decays_to_zero,
    grid_sup,
    quarter_maxima,
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

H_GRID = 2.0 ** np.arange(-10, 11)
H_GRID_SMALL = 2.0 ** (-np.arange(0, 11, dtype=float))


class WeightFunction:
    """Evaluable non-decreasing map [0, inf) -> [0, inf) with omega -> inf."""

    __slots__ = ("kind", "name", "domain_hint", "params", "_fn")

    def __init__(
        self,
        kind: str,
        fn: Callable[[np.ndarray], np.ndarray],
        domain_hint: float = math.inf,
        params: Optional[dict] = None,
        name: str = "",
    ):
        self.kind = kind
        self._fn = fn
        self.domain_hint = domain_hint
        self.params = params or {}
        self.name = name

    def evaluate_many(self, ts) -> np.ndarray:
        return self._fn(np.asarray(ts, dtype=float))

    def __call__(self, t: float) -> float:
        return float(self._fn(np.asarray([t], dtype=float))[0])

    @property
    def is_expensive(self) -> bool:
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
        return np.power(ts, expo)

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
        return np.log1p(ts) ** beta

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
        return inner(np.power(ts, expo))

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
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
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
        "sampled", fn, domain_hint=float(ts[-1]), name=name
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
        with np.errstate(divide="ignore"):
            lts = np.log(ts)
        out = associated_log_eval(mlc, np.where(ts > 0, lts, 0.0))
        return np.where(ts > 0, out, 0.0)

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
        pos = ts > 0
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


# ---------------------------------------------------------------------------
# tail proxies
# ---------------------------------------------------------------------------


def _tail_ratio_decays(
    omega: WeightFunction, numer: Callable[[np.ndarray], np.ndarray], window
) -> bool:
    # samples where omega has not yet reached one natural unit say nothing
    # about the tail and their near-zero denominators fake a decay
    win = (window or DEFAULT_TAIL).clipped(omega.domain_hint)
    ts = win.samples()
    w = omega.evaluate_many(ts)
    pos = w >= 1.0
    if int(pos.sum()) < 32:
        return False
    ts, w = ts[pos], w[pos]
    span = ts[-1] / ts[0]
    if span < 10.0:
        return False
    return decays_to_zero(numer(ts) / w, span)


def c2_proxy(omega: WeightFunction, window: Optional[TailWindow] = None) -> bool:
    """Finite-window proxy for t = o(omega(t))."""
    return _tail_ratio_decays(omega, lambda ts: ts, window)


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


def conjugate(
    omega: WeightFunction,
    grid: GridSpec = DEFAULT_GRID,
    check: bool = True,
    window: Optional[TailWindow] = None,
) -> WeightFunction:
    """Conjugate omega*(s) = sup_{t>=0} (st - omega(t)).

    Well-definedness needs t = o(omega(t)); the finite proxy is checked up
    front unless ``check`` is disabled.  Each evaluation scans the log grid
    and refines the winning cell by golden section; the t = 0 endpoint
    (value -omega(0)) always competes.  The result's ``domain_hint`` is the
    slope coverage of the grid: beyond it the supremum would escape the
    grid, and such evaluations raise :class:`DomainExhaustedError`.
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

    def scan(ss):
        return ss[:, None] * ts[None, :] - wvals[None, :], None

    def refine(ss, ys):
        return ss * np.exp(ys) - inner(np.exp(ys))

    def fn(ss):
        ss = np.atleast_1d(np.asarray(ss, dtype=float))
        out = np.full_like(ss, -w0)
        live = ~(ss <= 0)
        out[live] = grid_sup(
            ss[live], log_ts, scan, refine, ("conjugate", "s"), floor=-w0
        )
        return out

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
    transform runs, keeping the evaluation cost one matrix scan per call.
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
    sig_fn, tau_fn = sigma.evaluate_many, tau.evaluate_many

    # the infimum is the negated supremum of -(sigma(s) + tau(t/s)); since
    # sigma(s) >= sigma(0) and tau(t/s) >= tau(0), -value_at_0 is an exact
    # cap, and a row reaching it sits on a flat plateau whose boundary
    # argmax is legitimate
    def scan(ts):
        args = ts[:, None] / ss[None, :]
        obj = sig_vals[None, :] + tau_fn(args.ravel()).reshape(args.shape)
        return -obj, args > tau_hint

    def refine(ts, ys):
        s = np.exp(ys)
        return -(sig_fn(s) + tau_fn(ts / s))

    def fn(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.full_like(ts, value_at_0)
        live = ~(ts <= 0)
        out[live] = -grid_sup(
            ts[live],
            log_ss,
            scan,
            refine,
            ("envelope_lower", "t"),
            cap=-value_at_0,
            both_ends=True,
        )
        return out

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
    sig_fn, tau_fn = sigma.evaluate_many, tau.evaluate_many

    def scan(ts):
        args = ss[None, :] / ts[:, None]
        obj = sig_vals[None, :] - tau_fn(args.ravel()).reshape(args.shape)
        return obj, args > tau_hint

    def refine(ts, ys):
        s = np.exp(ys)
        return sig_fn(s) - tau_fn(s / ts)

    def fn(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.full_like(ts, value_at_0)
        # the s = 0 endpoint competes, and alone answers the rows whose whole
        # grid lies beyond tau's coverage
        with np.errstate(divide="ignore"):
            live = ~(ts <= 0) & ~(ss[0] / ts > tau_hint)
        out[live] = grid_sup(
            ts[live], log_ss, scan, refine, ("envelope_upper", "t"), floor=value_at_0
        )
        return out

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
    qm = quarter_maxima(deficit)
    if qm[3] <= max(qm[0], qm[1], qm[2]) + 1.0:
        return True
    rqm = quarter_maxima(ratio)
    return bool(np.all(np.diff(rqm) < 0))


def _dilation_scan(
    ts: np.ndarray,
    tau_vals: np.ndarray,
    sigma: WeightFunction,
    hs: np.ndarray,
) -> tuple[Optional[float], Optional[float], bool]:
    """Search h with tau(t) <= sigma(ht) + C bounded; returns (h, C, all_h).

    Dilations whose arguments escape the coverage of ``sigma`` (either by
    the domain hint or by an exhausted search grid) cannot be certified and
    are skipped.
    """
    best: Optional[tuple[float, float]] = None
    accepted_all = True
    for h in hs:
        args = h * ts
        valid = args <= sigma.domain_hint
        if int(valid.sum()) < max(8, ts.size // 2):
            accepted_all = False
            continue
        try:
            shifted = sigma.evaluate_many(args[valid])
        except DomainExhaustedError:
            accepted_all = False
            continue
        deficit = tau_vals[valid] - shifted
        ratio = tau_vals[valid] / np.maximum(shifted, 1e-300)
        if _deficit_accepted(deficit, ratio):
            c = max(0.0, float(np.max(deficit)))
            if best is None or c < best[1]:
                best = (float(h), c)
        else:
            accepted_all = False
    if best is None:
        return None, None, False
    return best[0], best[1], accepted_all


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

    h_fwd, c_fwd, _ = _dilation_scan(ts, tvals, sigma, H_GRID)
    preceq_c = h_fwd is not None
    _, _, all_small_h = _dilation_scan(ts, tvals, sigma, H_GRID_SMALL)
    triangle_c = all_small_h
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

    def certify_limsup(gamma: float) -> Optional[float]:
        for k in K_GRID:
            factor = k**gamma
            if factor * ts[-1] > hint:
                continue
            ratio = fast.evaluate_many(factor * ts) / base
            if float(np.max(ratio)) < k * (1.0 - delta):
                return float(k)
        return None

    def certify_liminf(gamma: float) -> Optional[float]:
        for a in K_GRID:
            factor = a**gamma
            if factor * ts[-1] > hint:
                continue
            ratio = fast.evaluate_many(factor * ts) / base
            if float(np.min(ratio)) > a * (1.0 + delta):
                return float(a)
        return None

    # lower index: certifiable gammas form an interval (0, gamma*]
    k_witness = certify_limsup(resolution)
    if k_witness is None:
        gamma, gamma_saturated = 0.0, False
    elif certify_limsup(gamma_cap) is not None:
        gamma, gamma_saturated = gamma_cap, True
        k_witness = certify_limsup(gamma_cap)
    else:
        lo, hi = resolution, gamma_cap
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if certify_limsup(mid) is not None:
                lo = mid
            else:
                hi = mid
        gamma = lo
        k_witness = certify_limsup(lo)
        gamma_saturated = False

    # upper index: certifiable gammas form an interval [gamma*, inf)
    a_witness = certify_liminf(gamma_cap)
    if a_witness is None:
        gamma_bar, bar_inf = math.inf, True
    elif certify_liminf(resolution) is not None:
        gamma_bar, bar_inf = resolution, False
        a_witness = certify_liminf(resolution)
    else:
        lo, hi = resolution, gamma_cap
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if certify_liminf(mid) is not None:
                hi = mid
            else:
                lo = mid
        gamma_bar = hi
        a_witness = certify_liminf(hi)
        bar_inf = False

    return GrowthIndexEstimate(
        gamma=gamma,
        gamma_bar=gamma_bar,
        K_witness=k_witness,
        A_witness=a_witness,
        tail_window=(float(ts[0]), float(ts[-1])),
        resolution=resolution,
        gamma_saturated=gamma_saturated,
        gamma_bar_infinite=bar_inf,
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

    def scan(ps):
        return ps[:, None] * log_ts[None, :] - wvals[None, :], None

    def refine(ps, ys):
        return ps * ys - inner(np.exp(ys))

    # p = 0 is answered by the t -> 0 endpoint, -omega(0); for p >= 1 that
    # endpoint is -inf and only the grid supremum counts
    best = np.full(p_count + 1, -omega(0.0))
    ps = np.arange(1, p_count + 1, dtype=float)
    best[1:] = grid_sup(ps, log_ts, scan, refine, ("recover_sequence", "p"))
    values = math.log(m0) + best
    return WeightSequence(values, name=f"recovered({omega.name})")
