"""Braun-Meise-Taylor layer: condition flags, the Young-type conjugate of
omega(e^y), associated weight matrices and their conjugates.

The associated matrix encodes a weight function through the one-parameter
family W^(l)_p = exp(phi*(l p)/l) where phi*(x) = sup_y {xy - omega(e^y)}.
Conjugating a matrix inverts the parameter (the member at l is the sequence
conjugate of the member at 1/l), so matrices are built over symmetric
parameter sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, PreconditionError
from .functions import (
    WeightFunction,
    _legendre,
    _ratio_diverges_fn,
    _tail_ratio_decays,
    c2_proxy,
    log_o_proxy,
)
from .grids import (
    DEFAULT_GRID,
    DEFAULT_TAIL,
    GridSpec,
    TailWindow,
    quarter_maxima,
)
from .sequences import (
    RelationVerdict,
    WeightSequence,
    conjugate_sequence,
    is_log_convex,
    max_split_deficit,
    relation,
    small_roots_vanish,
)

DEFAULT_ELLS = tuple(float(2.0**k) for k in range(-3, 4))

#: Cap on the omega_1 witness L.
LOG_L_CAP = 8.0
#: Largest dilation tried for the omega_6 condition.
OM6_MAX_LOG2_H = 20


# ---------------------------------------------------------------------------
# Young-type conjugate of phi(y) = omega(e^y)
# ---------------------------------------------------------------------------


def phi_star_many(
    omega: WeightFunction,
    xs,
    grid: GridSpec = DEFAULT_GRID,
    check: bool = True,
) -> np.ndarray:
    """phi*(x) = sup_{y >= 0} (x y - omega(e^y)) on an array of x >= 0.

    Finite only when log t = o(omega(t)); the finite proxy is enforced
    unless ``check`` is off.  The y = 0 endpoint competes, so phi*(0) = 0
    for normalized omega.
    """
    if check and not log_o_proxy(omega):
        raise PreconditionError(
            "Young conjugate needs log t = o(omega(t)) on the tail; the "
            "proxy fails",
            function=omega.name,
        )
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 0):
        raise DomainError("phi* is evaluated on x >= 0 only")
    y_hi = math.log(min(grid.t_max, omega.domain_hint))
    if y_hi <= 0:
        raise DomainError("grid/domain leaves no room above t = 1")
    wvals, sup = _legendre(
        omega, np.linspace(0.0, y_hi, grid.n), lambda y: y, ("phi_star", "x")
    )
    return sup(xs, -wvals[0])  # the y = 0 endpoint


def phi_star(
    omega: WeightFunction,
    x: float,
    grid: GridSpec = DEFAULT_GRID,
    check: bool = True,
) -> float:
    return float(phi_star_many(omega, [x], grid, check)[0])


# ---------------------------------------------------------------------------
# weight matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightMatrix:
    """Ordered finite family l -> weight sequence."""

    ells: tuple
    members: tuple
    provenance: str  # "associated" or "conjugate"
    diagnostics: dict
    source: Optional[WeightFunction] = None

    def member(self, ell: float) -> WeightSequence:
        for candidate, seq in zip(self.ells, self.members):
            if math.isclose(candidate, ell, rel_tol=1e-12):
                return seq
        raise KeyError(f"no member at ell={ell!r}")

    @property
    def p_max(self) -> int:
        return self.members[0].p_max

    def __repr__(self):
        return (
            f"WeightMatrix({self.provenance}, ells={list(self.ells)}, "
            f"P_max={self.p_max})"
        )


def _require_symmetric(ells) -> tuple:
    ells = tuple(sorted(float(e) for e in ells))
    if len(ells) < 1 or any(e <= 0 for e in ells):
        raise DomainError("ells must be positive")
    for e in ells:
        if not any(math.isclose(1.0 / e, o, rel_tol=1e-9) for o in ells):
            raise DomainError(
                f"ell set must be symmetric under inversion (1/{e:g} missing); "
                "the conjugate matrix inverts the parameter"
            )
    return ells


def associated_matrix(
    omega: WeightFunction,
    ells=DEFAULT_ELLS,
    p_max: int = 200,
    grid: GridSpec = DEFAULT_GRID,
) -> WeightMatrix:
    """Associated weight matrix W^(l)_p = exp(phi*(l p) / l).

    Post-hoc diagnostics record the worst defects of the matrix invariants:
    pointwise order, quotient order, member log-convexity and the
    doubled-parameter moderate-growth estimate (checked whenever 2l is in
    the parameter set).
    """
    ells = _require_symmetric(ells)
    if not log_o_proxy(omega):
        raise PreconditionError(
            "associated matrix needs log t = o(omega(t)); the proxy fails",
            function=omega.name,
        )
    ps = np.arange(0, p_max + 1, dtype=float)
    members = []
    for ell in ells:
        logw = phi_star_many(omega, ell * ps, grid, check=False) / ell
        members.append(
            WeightSequence(logw, name=f"W^({ell:g})[{omega.name}]")
        )

    diagnostics: dict = {}
    order_defect = 0.0
    quot_defect = 0.0
    for a, b in zip(members, members[1:]):
        order_defect = max(order_defect, float(np.max(a.log_values - b.log_values)))
        quot_defect = max(
            quot_defect, float(np.max(a.log_quotients - b.log_quotients))
        )
    diagnostics["pointwise_order_defect"] = order_defect
    diagnostics["quotient_order_defect"] = quot_defect
    diagnostics["log_convex"] = all(is_log_convex(m)[0] for m in members)
    diagnostics["normalized"] = all(m.is_normalized for m in members)
    mg_defect = 0.0
    for ell, member in zip(ells, members):
        doubled = next(
            (
                m
                for e, m in zip(ells, members)
                if math.isclose(e, 2 * ell, rel_tol=1e-9)
            ),
            None,
        )
        if doubled is None:
            continue
        mg_defect = max(
            mg_defect, max_split_deficit(member.log_values, doubled.log_values)
        )
    diagnostics["doubled_mg_defect"] = mg_defect
    if order_defect > 1e-8:
        raise PreconditionError(
            f"matrix pointwise order violated (defect {order_defect:.3e}); "
            "the input is not a usable matrix generator",
            defect=order_defect,
        )
    return WeightMatrix(
        ells=ells,
        members=tuple(members),
        provenance="associated",
        diagnostics=diagnostics,
        source=omega,
    )


def conjugate_matrix(mat: WeightMatrix) -> WeightMatrix:
    """Conjugate matrix: the member at l is conj(member at 1/l)."""
    ells = _require_symmetric(mat.ells)
    for ell, member in zip(mat.ells, mat.members):
        if not small_roots_vanish(member):
            raise PreconditionError(
                f"member at ell={ell:g} lacks (w_p)^(1/p) -> 0 on the window; "
                "its conjugate is not a weight sequence",
                ell=ell,
            )
    members = tuple(
        conjugate_sequence(mat.member(1.0 / ell)) for ell in ells
    )
    order_defect = 0.0
    for a, b in zip(members, members[1:]):
        order_defect = max(order_defect, float(np.max(a.log_values - b.log_values)))
    diagnostics = {"pointwise_order_defect": order_defect}
    return WeightMatrix(
        ells=ells,
        members=members,
        provenance="conjugate",
        diagnostics=diagnostics,
        source=mat.source,
    )


def constancy_check(
    mat: WeightMatrix, p0: int = 8
) -> tuple[bool, list[tuple[float, float, RelationVerdict]]]:
    """All-pairs equivalence table; True when every pair is APPROX."""
    if len(mat.ells) < 2:
        return True, []
    table = []
    constant = True
    for i, (e1, m1) in enumerate(zip(mat.ells, mat.members)):
        for e2, m2 in zip(mat.ells[i + 1 :], mat.members[i + 1 :]):
            verdict = relation(m1, m2, p0=p0)
            table.append((e1, e2, verdict))
            constant = constant and verdict.approx
    return constant, table


# ---------------------------------------------------------------------------
# condition report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BMTReport:
    om0: bool
    normalized: bool
    om1: bool
    om1_L: float
    om3: bool
    om4: bool
    om5: bool
    om6: bool
    om6_H: Optional[float]
    c1: bool
    c2: bool
    window: tuple[float, float]

    def as_dict(self):
        return {
            "om0": self.om0,
            "normalized": self.normalized,
            "om1": self.om1,
            "om1_L": self.om1_L,
            "om3": self.om3,
            "om4": self.om4,
            "om5": self.om5,
            "om6": self.om6,
            "om6_H": self.om6_H,
            "c1": self.c1,
            "c2": self.c2,
            "window": list(self.window),
        }


def bmt_report(
    omega: WeightFunction, window: Optional[TailWindow] = None
) -> BMTReport:
    """Sampled verdicts for the standard weight-function conditions.

    All flags are finite-window estimates: the dilation conditions scan
    geometric grids of constants, the o(.) conditions use the shared tail
    decay proxy, and convexity of y -> omega(e^y) is midpoint-sampled.  A
    window with fewer than 8 positive samples raises PreconditionError.
    """
    win = (window or DEFAULT_TAIL).clipped(omega.domain_hint / 2.0)
    ts = win.samples()
    vals = omega.evaluate_many(ts)
    positive = int(np.count_nonzero(vals > 0))
    if positive < 8:
        raise PreconditionError(
            "BMT window has fewer than 8 positive samples; move the window "
            "into the function's growth range",
            positive=positive,
        )
    w0 = omega(0.0)
    c1 = abs(w0) <= 1e-12

    monotone = bool(np.all(np.diff(vals) >= -1e-9))
    unbounded = bool(vals[-1] >= max(10.0, 2.0 * max(vals[0], 1e-9)))
    om0 = c1 and monotone and unbounded
    head = omega.evaluate_many(np.linspace(0.0, 1.0, 64))
    normalized = om0 and float(np.max(np.abs(head))) <= 1e-9

    ratios = omega.evaluate_many(2.0 * ts) / (vals + 1.0)
    om1_L = float(np.max(ratios))
    om1 = om1_L <= math.exp(LOG_L_CAP) and not _ratio_diverges_fn(ratios)

    om3 = log_o_proxy(omega, win)
    om5 = _tail_ratio_decays(ts, vals / ts)
    c2 = c2_proxy(omega, win)

    om4 = _midpoint_convex(omega, win)

    # (om6): on a finite window a huge additive H can swallow any bounded
    # function, so besides the inequality 2 omega(t) <= omega(Ht) + H the
    # dilation ratio omega(Ht)/omega(t) must not be sliding down towards 2
    # (by more than 5% across quarters), which is the slowly-varying escape.
    om6 = False
    om6_H: Optional[float] = None
    base = np.concatenate((np.linspace(0.0, ts[0], 64), ts))
    base_vals = omega.evaluate_many(base)
    tail_pos = vals > 0
    for k in range(0, OM6_MAX_LOG2_H + 1):
        h = float(2.0**k)
        args = h * base
        inside = args <= omega.domain_hint
        if int(inside.sum()) < base.size // 2 or h * ts[-1] > omega.domain_hint:
            break
        defect = 2.0 * base_vals[inside] - omega.evaluate_many(args[inside]) - h
        if float(np.max(defect)) > 1e-9:
            continue
        gain = omega.evaluate_many(h * ts[tail_pos]) / vals[tail_pos]
        qmins = -quarter_maxima(-gain)
        sliding = bool(np.all(np.diff(qmins) < 0)) and qmins[3] < 0.95 * qmins[0]
        if not sliding:
            om6 = True
            om6_H = h
            break

    return BMTReport(
        om0=om0,
        normalized=normalized,
        om1=om1,
        om1_L=om1_L,
        om3=om3,
        om4=om4,
        om5=om5,
        om6=om6,
        om6_H=om6_H,
        c1=c1,
        c2=c2,
        window=(float(ts[0]), float(ts[-1])),
    )


def _midpoint_convex(omega: WeightFunction, win: TailWindow, n: int = 256) -> bool:
    y_lo = math.log(max(win.t_lo, 1e-6))
    y_hi = math.log(win.t_hi)
    widths = np.linspace(0.05, 0.5, 8) * (y_hi - y_lo)
    starts = np.linspace(y_lo, y_hi, n // 8 + 1)[:-1]
    y1 = np.repeat(starts, 8)
    y3 = np.minimum(y1 + np.tile(widths, starts.size), y_hi)
    mid = 0.5 * (y1 + y3)
    f1 = omega.evaluate_many(np.exp(y1))
    f3 = omega.evaluate_many(np.exp(y3))
    fm = omega.evaluate_many(np.exp(mid))
    scale = 1.0 + np.maximum(np.abs(f1), np.abs(f3))
    return bool(np.all(fm <= 0.5 * (f1 + f3) + 1e-8 * scale))
