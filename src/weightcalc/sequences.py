"""Log-domain calculus of weight sequences.

A sequence M = (M_p) with positive entries is stored through the finite
prefix of its logarithms ``log_values[p] = log M_p``, p = 0..P_max.  All
derived objects live in the log domain as well:

* quotients      log mu_p = log M_p - log M_{p-1}   (log mu_0 = 0),
* small sequence log m_p  = log M_p - log p!,
* conjugate      log M*_p = log p! - log M_p.

Factorials never appear in linear scale: p! overflows double precision at
p = 171, so a shared cumulative table of log p is used throughout.  That
shared table also makes the product law log M_p + log M*_p = log p! hold to
the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, DomainError, FormatError, PreconditionError
from .grids import DIVERGENCE_RISE, quarter_maxima

MIN_P_MAX = 8

#: Default index window start for finite-window relation verdicts.
DEFAULT_P0 = 8
#: Default prefix length.
DEFAULT_P_MAX = 400

#: Cap e^20 on the witness roots sup (M_p/N_p)^(1/p) for the ~< relation.
LOG_R_CAP = 20.0
#: Cap e^8 on almost-monotonicity witnesses H.
LOG_H_CAP = 8.0
#: Cap e^10 on moderate-growth constants C.
LOG_C_CAP = 10.0
#: Tail-root threshold for the little-o relation verdict.
EPS_TRIANGLE = 0.05
#: Absolute tolerance for log-convexity tests (log domain).
TOL_LOG_CONVEX = 1e-12


def log_factorials(p_max: int) -> np.ndarray:
    """Table of log p! for p = 0..p_max via cumulative log sums."""
    table = np.zeros(p_max + 1)
    if p_max >= 1:
        table[1:] = np.cumsum(np.log(np.arange(1, p_max + 1, dtype=float)))
    return table


@dataclass(frozen=True)
class WeightSequence:
    """Finite log-domain prefix of a positive sequence M_p.

    Immutable after construction; every derived array shares P_max.
    """

    log_values: np.ndarray
    name: str = ""

    def __post_init__(self):
        values = np.asarray(self.log_values, dtype=float)
        if values.ndim != 1 or values.size < MIN_P_MAX + 1:
            raise FormatError(
                f"need at least {MIN_P_MAX + 1} entries (P_max >= {MIN_P_MAX}), got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise FormatError(f"non-finite log value at p={bad}")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "log_values", values)

    @property
    def p_max(self) -> int:
        return self.log_values.size - 1

    @cached_property
    def log_factorial(self) -> np.ndarray:
        return log_factorials(self.p_max)

    @cached_property
    def log_quotients(self) -> np.ndarray:
        """log mu_p; entry 0 is fixed to 0 (mu_0 := 1)."""
        out = np.zeros_like(self.log_values)
        out[1:] = np.diff(self.log_values)
        out.flags.writeable = False
        return out

    @cached_property
    def log_small(self) -> np.ndarray:
        """log m_p = log(M_p / p!)."""
        out = self.log_values - self.log_factorial
        out.flags.writeable = False
        return out

    @property
    def is_normalized(self) -> bool:
        """1 = M_0 <= M_1."""
        return abs(self.log_values[0]) <= 1e-12 and self.log_values[1] >= -1e-12

    def log_roots(self, small: bool = False) -> np.ndarray:
        """(log of) p-th roots (M_p/M_0)^(1/p) (or (m_p)^(1/p)), p >= 1."""
        ps = np.arange(1, self.p_max + 1, dtype=float)
        if small:
            return self.log_small[1:] / ps
        return (self.log_values[1:] - self.log_values[0]) / ps

    def with_name(self, name: str) -> "WeightSequence":
        return WeightSequence(self.log_values, name)

    def __repr__(self):
        label = self.name or "sequence"
        return f"WeightSequence({label}, P_max={self.p_max})"


# ---------------------------------------------------------------------------
# constructors / named families
# ---------------------------------------------------------------------------


def from_log_values(values: Sequence[float], name: str = "") -> WeightSequence:
    return WeightSequence(np.asarray(values, dtype=float), name)


def gevrey(s: float, p_max: int = DEFAULT_P_MAX) -> WeightSequence:
    """Gevrey sequence M_p = (p!)^s."""
    if not (s > 0):
        raise DomainError(f"gevrey index must be > 0, got {s}")
    return WeightSequence(s * log_factorials(p_max), name=f"gevrey({s:g})")


def exp_power(a: float, p_max: int = DEFAULT_P_MAX) -> WeightSequence:
    """M_p = exp(p^a)."""
    if not (a > 0):
        raise DomainError(f"exp_power exponent must be > 0, got {a}")
    ps = np.arange(p_max + 1, dtype=float)
    return WeightSequence(ps**a, name=f"exp_power({a:g})")


def qgevrey(q: float, p_max: int = DEFAULT_P_MAX) -> WeightSequence:
    """q-Gevrey sequence M_p = q^(p^2), q > 1."""
    if not (q > 1):
        raise DomainError(f"qgevrey base must be > 1, got {q}")
    ps = np.arange(p_max + 1, dtype=float)
    return WeightSequence(math.log(q) * ps**2, name=f"qgevrey({q:g})")


def pointwise_product(m: WeightSequence, n: WeightSequence, name: str = "") -> WeightSequence:
    _require_shared_window(m, n)
    return WeightSequence(m.log_values + n.log_values, name)


def pointwise_quotient(m: WeightSequence, n: WeightSequence, name: str = "") -> WeightSequence:
    _require_shared_window(m, n)
    return WeightSequence(m.log_values - n.log_values, name)


def factorial_sequence(p_max: int = DEFAULT_P_MAX) -> WeightSequence:
    return gevrey(1.0, p_max)


def small_sequence(m: WeightSequence) -> WeightSequence:
    """The small sequence m_p = M_p/p! as a sequence in its own right."""
    name = f"{m.name}.small" if m.name else ""
    return WeightSequence(m.log_small, name)


def _require_shared_window(m: WeightSequence, n: WeightSequence):
    if m.p_max != n.p_max:
        raise PreconditionError(
            f"sequences must share P_max, got {m.p_max} and {n.p_max}"
        )


# ---------------------------------------------------------------------------
# conjugation and convexity
# ---------------------------------------------------------------------------


def conjugate_sequence(m: WeightSequence) -> WeightSequence:
    """Conjugate sequence M*_p = p!/M_p = 1/m_p (an involution)."""
    name = f"{m.name}*" if m.name else ""
    return WeightSequence(m.log_factorial - m.log_values, name)


def is_log_convex(
    m: WeightSequence, tol: float = TOL_LOG_CONVEX
) -> tuple[bool, Optional[int]]:
    """True iff 2 log M_p <= log M_{p-1} + log M_{p+1} for 1 <= p < P_max.

    Equivalent to the quotient sequence being non-decreasing; on failure the
    reported index is the smallest p whose quotient drops (mu_p < mu_{p-1},
    p >= 2).
    """
    lv = m.log_values
    defect = 2.0 * lv[1:-1] - lv[:-2] - lv[2:]
    bad = np.flatnonzero(defect > tol)
    if bad.size:
        return False, int(bad[0]) + 2
    return True, None


def is_strong_log_convex(m: WeightSequence, tol: float = TOL_LOG_CONVEX) -> bool:
    """True iff the small sequence m is log-convex, i.e. mu_p/p non-decreasing."""
    ok, _ = is_log_convex(
        WeightSequence(m.log_small, name=f"{m.name}.small" if m.name else ""), tol
    )
    return ok


def small_is_log_concave(m: WeightSequence, tol: float = TOL_LOG_CONVEX) -> bool:
    """True iff m is log-concave, i.e. mu_p/p non-increasing (p >= 1)."""
    ls = m.log_small
    defect = ls[:-2] + ls[2:] - 2.0 * ls[1:-1]
    return bool(np.all(defect <= tol))


def log_convex_minorant(m: WeightSequence) -> WeightSequence:
    """Lower convex envelope of p -> log M_p evaluated at integer p.

    Monotone lower-hull scan over the graph points; agrees with the input
    wherever the input is already log-convex.
    """
    lv = m.log_values
    n = lv.size
    hull_p: list[int] = []
    for p in range(n):
        while len(hull_p) >= 2:
            p1, p2 = hull_p[-2], hull_p[-1]
            # drop p2 if it lies on or above the chord p1 -> p
            if (lv[p2] - lv[p1]) * (p - p1) >= (lv[p] - lv[p1]) * (p2 - p1):
                hull_p.pop()
            else:
                break
        hull_p.append(p)
    xs = np.array(hull_p, dtype=float)
    out = np.interp(np.arange(n, dtype=float), xs, lv[hull_p])
    name = f"{m.name}.lc" if m.name else ""
    return WeightSequence(out, name)


def check_moderate_growth(
    m: WeightSequence, log_c_cap: float = LOG_C_CAP
) -> tuple[bool, float]:
    """Smallest C >= 1 with M_{p+q} <= C^(p+q+1) M_p M_q on the prefix.

    Returns (True, C) when C <= exp(log_c_cap), else (False, cap).
    """
    lv = m.log_values
    pmax = m.p_max
    log_c = 0.0
    for p in range(pmax + 1):
        q = np.arange(0, pmax - p + 1)
        deficit = lv[p + q] - lv[p] - lv[q]
        log_c = max(log_c, float(np.max(deficit / (p + q + 1))))
    if log_c <= log_c_cap:
        return True, math.exp(log_c)
    return False, math.exp(log_c_cap)


# ---------------------------------------------------------------------------
# finite-window growth relations
# ---------------------------------------------------------------------------

KIND_LEQ_POINTWISE = "LEQ_POINTWISE"
KIND_PRECEQ = "PRECEQ"
KIND_TRIANGLE = "TRIANGLE"
KIND_APPROX = "APPROX"
KIND_NONE = "NONE"


@dataclass(frozen=True)
class RelationVerdict:
    """Finite-window verdict for M against N.

    ``kind`` is the strongest established relation; the individual flags
    stay available.  All verdicts are heuristics over [p0, P_max]: the
    forward root sup is capped at e^LOG_R_CAP and a root sequence whose
    quarter maxima strictly increase with a rising last quarter is treated
    as divergent.
    """

    kind: str
    witness_root_sup: float
    tail_root: float
    window: tuple[int, int]
    leq_pointwise: bool
    preceq: bool
    triangle: bool
    approx: bool

    def as_dict(self):
        return {
            "kind": self.kind,
            "witness_root_sup": self.witness_root_sup,
            "tail_root": self.tail_root,
            "window": list(self.window),
            "flags": {
                "leq_pointwise": self.leq_pointwise,
                "preceq": self.preceq,
                "triangle": self.triangle,
                "approx": self.approx,
            },
        }


def _root_gaps(m: WeightSequence, n: WeightSequence, p0: int) -> np.ndarray:
    ps = np.arange(p0, m.p_max + 1, dtype=float)
    return (m.log_values[p0:] - n.log_values[p0:]) / ps


def _gap_diverges(gaps: np.ndarray) -> bool:
    """Divergence test separating unbounded growth from convergence from below."""
    if gaps.size < 8:
        return False
    qm = quarter_maxima(gaps)
    if not np.all(np.diff(qm) > 0):
        return False
    return qm[3] - qm[2] > DIVERGENCE_RISE


def relation(
    m: WeightSequence,
    n: WeightSequence,
    p0: int = DEFAULT_P0,
    log_r_cap: float = LOG_R_CAP,
    eps_triangle: float = EPS_TRIANGLE,
) -> RelationVerdict:
    """Growth relation of M against N on the index window [p0, P_max]."""
    _require_shared_window(m, n)
    if not (1 <= p0 < m.p_max):
        raise PreconditionError(f"need 1 <= p0 < P_max, got p0={p0}")
    gaps = _root_gaps(m, n, p0)
    rev_gaps = -gaps
    sup_gap = float(np.max(gaps))
    tail_gap = float(gaps[-1])

    preceq = sup_gap <= log_r_cap and not _gap_diverges(gaps)
    preceq_rev = float(np.max(rev_gaps)) <= log_r_cap and not _gap_diverges(rev_gaps)
    approx = preceq and preceq_rev

    qm = quarter_maxima(gaps)
    triangle = (
        preceq and tail_gap <= math.log(eps_triangle) and bool(np.all(np.diff(qm) < 0))
    )
    leq = bool(np.all(m.log_values[p0:] <= n.log_values[p0:] + 1e-12))

    if approx:
        kind = KIND_APPROX
    elif triangle:
        kind = KIND_TRIANGLE
    elif leq and preceq:
        kind = KIND_LEQ_POINTWISE
    elif preceq:
        kind = KIND_PRECEQ
    else:
        kind = KIND_NONE
    return RelationVerdict(
        kind=kind,
        witness_root_sup=math.exp(min(sup_gap, LOG_R_CAP)),
        tail_root=math.exp(tail_gap) if tail_gap < 700 else math.inf,
        window=(p0, m.p_max),
        leq_pointwise=leq,
        preceq=preceq,
        triangle=triangle,
        approx=approx,
    )


# ---------------------------------------------------------------------------
# Matuszewska indices and almost-monotone witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatuszewskaEstimate:
    alpha_upper: float
    beta_lower: float
    window: tuple[int, int]
    almost_const_H: float
    saturated: bool

    def as_dict(self):
        return {
            "alpha_upper": self.alpha_upper,
            "beta_lower": self.beta_lower,
            "window": list(self.window),
            "almost_const_H": self.almost_const_H,
            "saturated": self.saturated,
        }


def almost_monotone_log_witness(log_vals: np.ndarray, decreasing: bool = True) -> float:
    """Minimal log H such that the sampled sequence is almost de/increasing.

    Almost decreasing: a_q <= H a_p for all p <= q in the window, so
    log H = max_q (a_q - running-min up to q); H >= 1 is enforced.
    """
    vals = np.asarray(log_vals, dtype=float)
    if decreasing:
        prefix_min = np.minimum.accumulate(vals)
        worst = float(np.max(vals - prefix_min))
    else:
        prefix_max = np.maximum.accumulate(vals)
        worst = float(np.max(prefix_max - vals))
    return max(worst, 0.0)


def _almost_monotone_violating_pair(
    log_vals: np.ndarray, offset: int, decreasing: bool = True
) -> tuple[int, int]:
    vals = np.asarray(log_vals, dtype=float)
    if decreasing:
        prefix_min = np.minimum.accumulate(vals)
        q = int(np.argmax(vals - prefix_min))
        p = int(np.argmin(vals[: q + 1]))
    else:
        prefix_max = np.maximum.accumulate(vals)
        q = int(np.argmax(prefix_max - vals))
        p = int(np.argmax(vals[: q + 1]))
    return p + offset, q + offset


#: Sharpness of the index estimator: a candidate exponent is accepted only if
#: the witness stays below span**MATUSZEWSKA_SHARPNESS, i.e. an exponent gap g
#: (whose witness grows like span**g) is resolved down to g ~ 0.04.
MATUSZEWSKA_SHARPNESS = 0.04


def matuszewska(
    log_a: np.ndarray,
    p0: int = 1,
    x_cap: float = 16.0,
    log_h_cap: float = LOG_H_CAP,
    resolution: float = 1e-3,
) -> MatuszewskaEstimate:
    """Estimate upper/lower Matuszewska indices of a positive sequence.

    ``log_a[p]`` is log a_p with positions indexed from 0; the scan runs on
    [p0, len-1] with p0 >= 1.  For a candidate exponent x the sequence
    a_p / p^x is tested for being almost decreasing; alpha_upper is the
    smallest passing x (bisection at the given resolution), beta_lower
    symmetrically the largest x with a_p / p^x almost increasing.

    Acceptance demands the window witness H to stay below both the hard cap
    e^log_h_cap and the window-aware bound span**MATUSZEWSKA_SHARPNESS; a
    residual exponent gap g produces a witness ~ span**g, so the second
    bound is what resolves the index to a few hundredths on desk-scale
    windows.  Estimates pinned at +-x_cap are reported with the saturation
    flag set.
    """
    vals = np.asarray(log_a, dtype=float)
    if p0 < 1 or p0 >= vals.size - 1:
        raise PreconditionError(f"need 1 <= p0 < {vals.size - 1}, got {p0}")
    window = vals[p0:]
    log_ps = np.log(np.arange(p0, vals.size, dtype=float))
    log_span = log_ps[-1] - log_ps[0]
    accept = min(log_h_cap, MATUSZEWSKA_SHARPNESS * log_span)

    def h_dec(x: float) -> float:
        return almost_monotone_log_witness(window - x * log_ps, decreasing=True)

    def h_inc(x: float) -> float:
        return almost_monotone_log_witness(window - x * log_ps, decreasing=False)

    def bisect(pass_fn, increasing_in_x: bool) -> tuple[float, bool]:
        lo, hi = -x_cap, x_cap
        if increasing_in_x:
            # passes for all x >= threshold
            if pass_fn(lo):
                return lo, True
            if not pass_fn(hi):
                return hi, True
            while hi - lo > resolution:
                mid = 0.5 * (lo + hi)
                if pass_fn(mid):
                    hi = mid
                else:
                    lo = mid
            return hi, False
        # passes for all x <= threshold
        if pass_fn(hi):
            return hi, True
        if not pass_fn(lo):
            return lo, True
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if pass_fn(mid):
                lo = mid
            else:
                hi = mid
        return lo, False

    alpha, alpha_sat = bisect(lambda x: h_dec(x) <= accept, increasing_in_x=True)
    beta, beta_sat = bisect(lambda x: h_inc(x) <= accept, increasing_in_x=False)
    witness = math.exp(max(min(h_dec(alpha), log_h_cap), min(h_inc(beta), log_h_cap)))
    return MatuszewskaEstimate(
        alpha_upper=alpha,
        beta_lower=beta,
        window=(p0, vals.size - 1),
        almost_const_H=witness,
        saturated=alpha_sat or beta_sat,
    )


# ---------------------------------------------------------------------------
# regularisation
# ---------------------------------------------------------------------------


def almost_decreasing_regularize(
    m: WeightSequence, log_h_cap: float = LOG_H_CAP
) -> tuple[WeightSequence, float]:
    """Regularise M through the suffix-maximum quotient construction.

    Requires mu_p/p almost decreasing on [1, P_max] with witness H below the
    cap.  The output L has quotients lambda_p = H^-1 p sup_{q>=p} mu_q/q, so
    lambda_p/p is non-increasing by construction (l log-concave), L_0 = 1,
    L is equivalent to M, and L inherits log-convexity from M.
    """
    logmu = m.log_quotients
    ps = np.arange(1, m.p_max + 1, dtype=float)
    ratio = logmu[1:] - np.log(ps)
    log_h = almost_monotone_log_witness(ratio, decreasing=True)
    if log_h > log_h_cap:
        p, q = _almost_monotone_violating_pair(ratio, offset=1, decreasing=True)
        raise PreconditionError(
            "mu_p/p is not almost decreasing on the window "
            f"(worst witness H=e^{log_h:.3f} exceeds cap e^{log_h_cap:g} "
            f"at pair p={p}, q={q})",
            p=p,
            q=q,
            log_h=log_h,
        )
    suffix_max = np.maximum.accumulate(ratio[::-1])[::-1]
    log_lambda = np.concatenate(([0.0], -log_h + np.log(ps) + suffix_max))
    log_l = np.concatenate(([0.0], np.cumsum(log_lambda[1:])))
    name = f"{m.name}.reg" if m.name else ""
    return WeightSequence(log_l, name), math.exp(log_h)


def normalize_head(l: WeightSequence) -> WeightSequence:
    """Clamp finitely many initial quotients up to 1 so the head is admissible.

    Rule: lambda_p := max(1, lambda_p) for every p below the first index with
    lambda_p >= 1, and L_0 := 1.  Only the head changes, so the output stays
    equivalent to the input, keeps lambda_p/p non-increasing whenever the
    input had it, and is log-convex whenever the input is.
    """
    log_lambda = l.log_quotients.copy()
    above = np.flatnonzero(log_lambda[1:] >= 0.0)
    first_ok = int(above[0]) + 1 if above.size else l.p_max + 1
    log_lambda[1:first_ok] = np.maximum(log_lambda[1:first_ok], 0.0)
    out = np.concatenate(([0.0], np.cumsum(log_lambda[1:])))
    name = f"{l.name}.head" if l.name else ""
    return WeightSequence(out, name)


# ---------------------------------------------------------------------------
# uniform bound construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformBoundResult:
    """Block-constant-root uniform bound for a family of small sequences."""

    log_values: np.ndarray
    log_roots: np.ndarray  # log (a_j)^(1/j), j >= 1; exact block structure
    breakpoints: tuple[int, ...]
    block_log_roots: tuple[float, ...]
    members_reached: int
    truncated: bool

    def as_dict(self):
        return {
            "breakpoints": list(self.breakpoints),
            "block_log_roots": list(self.block_log_roots),
            "members_reached": self.members_reached,
            "truncated": self.truncated,
        }


def small_roots_vanish(m: WeightSequence, threshold: float = math.log(0.8)) -> bool:
    """Finite-window proxy for (m_p)^(1/p) -> 0."""
    roots = m.log_roots(small=True)
    qm = quarter_maxima(roots)
    return bool(np.all(np.diff(qm) < 0) and roots[-1] <= threshold)


def has_divergent_roots(m: WeightSequence, p0: int = DEFAULT_P0) -> bool:
    """Finite-window proxy for (M_p/M_0)^(1/p) -> +infinity (weight sequence)."""
    roots = m.log_roots()
    if roots.size <= p0:
        return False
    window = roots[p0 - 1 :]
    three_quarter = window[3 * window.size // 4]
    return float(window[-1] - three_quarter) > 0.01


def uniform_bound(
    family: Sequence[WeightSequence],
    multiplier_base: Optional[WeightSequence] = None,
) -> UniformBoundResult:
    """Uniform bound a for the small sequences n^(k) of an ordered family.

    Breakpoints j_1 = 1 < j_2 < ... are chosen greedily as the smallest
    indices with (n^(k)_{j_k})^(1/j_k) > k (n^(k+1)_{j_{k+1}})^(1/j_{k+1})
    and, for k >= 2, (n^(k)_{j_k})^(1/j_k) >= (n^(k-1)_j)^(1/j) for every
    j >= j_{k+1} up to the horizon.  The member index is clamped at the
    family size so the chain keeps extending for short families; a gets the
    block-constant roots (a_j)^(1/j) = (n^(k)_{j_k})^(1/j_k) on [j_k, j_{k+1})
    with the final block running to P_max.  The block values strictly
    decrease, so monotonicity of the output roots is exact.

    With ``multiplier_base`` the construction runs on the family divided by
    the base's small sequence and the bound is multiplied back (the
    shifted-family variant).
    """
    if not family:
        raise PreconditionError("family must be non-empty")
    p_max = family[0].p_max
    for member in family[1:]:
        _require_shared_window(family[0], member)

    # log roots of the small sequences, index [k][j], j >= 1
    base_small = multiplier_base.log_small if multiplier_base is not None else None
    ps = np.arange(1, p_max + 1, dtype=float)
    log_roots = []
    smalls = []
    for member in family:
        ls = member.log_small.copy()
        if base_small is not None:
            ls = ls - base_small
        smalls.append(ls)
        log_roots.append(ls[1:] / ps)

    for k in range(len(family) - 1):
        gap = smalls[k] - smalls[k + 1]
        if np.any(gap > 1e-9):
            bad = int(np.flatnonzero(gap > 1e-9)[0])
            raise PreconditionError(
                f"pointwise order violated between members {k + 1} and {k + 2} at p={bad}",
                member=k + 1,
                p=bad,
            )
    for k, member in enumerate(family):
        roots = log_roots[k]
        qm = quarter_maxima(roots)
        if not (np.all(np.diff(qm) < 0) and roots[-1] < 0):
            raise PreconditionError(
                f"member {k + 1} lacks vanishing small roots on the window",
                member=k + 1,
            )

    suffix_maxima = [np.maximum.accumulate(r[::-1])[::-1] for r in log_roots]

    def member_index(chain_pos: int) -> int:
        return min(chain_pos, len(family)) - 1  # 0-based, clamped

    breakpoints = [1]
    block_roots = [float(log_roots[member_index(1)][0])]  # root at j_1 = 1
    k = 1
    truncated = False
    while True:
        cur = member_index(k)
        nxt = member_index(k + 1)
        target = block_roots[-1] - math.log(k) if k > 1 else block_roots[-1]
        # smallest j > j_k with root_{k+1}(j) < root_k(j_k) - log k  (strict)
        j_prev = breakpoints[-1]
        candidates = np.flatnonzero(log_roots[nxt][j_prev:] < target) + j_prev + 1
        found = None
        for j in candidates:
            if k >= 2:
                prev_member = member_index(k - 1)
                # (n^(k)_{j_k})^(1/j_k) must dominate member k-1 roots from j on
                if suffix_maxima[prev_member][j - 1] > block_roots[-1]:
                    continue
            found = int(j)
            break
        if found is None:
            truncated = k < len(family)
            break
        breakpoints.append(found)
        block_roots.append(float(log_roots[nxt][found - 1]))
        k += 1
        if breakpoints[-1] >= p_max:
            break

    if len(breakpoints) < 2:
        raise CapacityError(
            "no second breakpoint fits the window (k=1); increase P_max",
            k=1,
            p_max=p_max,
        )

    a_log_roots = np.empty(p_max)  # index j-1 for j = 1..P_max
    bounds = breakpoints + [p_max + 1]
    for i, value in enumerate(block_roots):
        a_log_roots[bounds[i] - 1 : bounds[i + 1] - 1] = value
    log_a = np.concatenate(([0.0], a_log_roots * ps))
    if base_small is not None:
        log_a = log_a + multiplier_base.log_small
        a_log_roots = log_a[1:] / ps
    return UniformBoundResult(
        log_values=log_a,
        log_roots=a_log_roots,
        breakpoints=tuple(breakpoints),
        block_log_roots=tuple(block_roots),
        members_reached=min(len(breakpoints), len(family)),
        truncated=truncated,
    )
