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

Memory: every O(P) routine allocates its result arrays plus at most one
block of scratch, about ``grids._SCRATCH_CELLS`` float64 values (2 MiB) and
boolean masks of a block.  Fresh results are filled in place and handed to
``WeightSequence`` read-only, which shares them instead of copying; scans
that reduce (maxima, minima, "any", first index) run block by block, and
a scan on P <= one block runs its loop once.  Maxima, minima and "any" do
not depend on the order of the elements, and every element is computed
from the same operands in the same order as a whole-array expression, so
the blocked results are those of the whole-array forms bit for bit.  A
log-convex minorant that has to build a hull (an input with local
convexity violations) also keeps a byte per element marking them, the
stack of ``_hull_vertices`` (the monotone chain it shares with the exact
Legendre route of ``functions``) and its interpolation nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapacityError, DomainError, FormatError, PreconditionError
from .grids import _SCRATCH_CELLS, bisect_edge, diverges, quarter_maxima

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
    """Table of log p! for p = 0..p_max via cumulative log sums, built in one
    buffer: the sums start from log 0! = log 1 = 0, which adds exactly."""
    table = np.arange(p_max + 1, dtype=float)
    table[:1] = 1.0
    np.log(table, out=table)
    return np.cumsum(table, out=table)


def _blocks(
    start: int, stop: int, step: int = _SCRATCH_CELLS
) -> list[tuple[int, int]]:
    """Bounds (lo, hi) of the blocks of ``step`` indices that cover [start, stop)."""
    return [(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


def _frozen(values: np.ndarray) -> np.ndarray:
    """Mark a fresh array read-only, so that a WeightSequence shares it."""
    values.flags.writeable = False
    return values


def _cumsum_tail(out: np.ndarray) -> np.ndarray:
    """Set out[1:] to its cumulative sums and out[0] to 0, in place.

    The sums run on from out[0] = -0.0, the exact additive identity, so
    every entry has the bits of ``np.cumsum(out[1:])``.
    """
    out[0] = -0.0
    np.cumsum(out, out=out)
    out[0] = 0.0
    return out


@dataclass(frozen=True)
class WeightSequence:
    """Finite log-domain prefix of a positive sequence M_p.

    Immutable after construction; every derived array shares P_max.
    """

    log_values: np.ndarray
    name: str = ""

    def __post_init__(self):
        try:
            values = np.asarray(self.log_values, dtype=float)
        except (TypeError, ValueError):
            raise FormatError("log values must be numbers") from None
        if values.ndim != 1 or values.size < MIN_P_MAX + 1:
            raise FormatError(
                f"need at least {MIN_P_MAX + 1} entries (P_max >= {MIN_P_MAX}), got {values.size}"
            )
        # max and min are finite iff every entry is (both propagate NaN)
        if not (math.isfinite(values.max()) and math.isfinite(values.min())):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise FormatError(f"non-finite log value at p={bad}")
        if values.flags.writeable or not values.flags.owndata:
            # a read-only array owning its data is already immutable (the
            # log values of another sequence): share it, copy anything else
            values = values.copy()
            values.flags.writeable = False
        object.__setattr__(self, "log_values", values)

    @property
    def p_max(self) -> int:
        return self.log_values.size - 1

    @cached_property
    def log_factorial(self) -> np.ndarray:
        return _frozen(log_factorials(self.p_max))

    @cached_property
    def log_quotients(self) -> np.ndarray:
        """log mu_p; entry 0 is fixed to 0 (mu_0 := 1)."""
        lv = self.log_values
        out = np.empty_like(lv)
        out[0] = 0.0
        np.subtract(lv[1:], lv[:-1], out=out[1:])
        return _frozen(out)

    @cached_property
    def log_small(self) -> np.ndarray:
        """log m_p = log(M_p / p!)."""
        return _frozen(np.subtract(self.log_values, self.log_factorial))

    @property
    def is_normalized(self) -> bool:
        """1 = M_0 <= M_1."""
        return abs(self.log_values[0]) <= 1e-12 and self.log_values[1] >= -1e-12

    def log_roots(self, small: bool = False) -> np.ndarray:
        """(log of) p-th roots (M_p/M_0)^(1/p) (or (m_p)^(1/p)), p >= 1."""
        lv = self.log_values
        out = self.log_small[1:].copy() if small else lv[1:] - lv[0]
        for lo, hi in _blocks(0, out.size):
            out[lo:hi] /= np.arange(lo + 1, hi + 1, dtype=float)
        return out

    def with_name(self, name: str) -> "WeightSequence":
        return WeightSequence(self.log_values, name)

    def __repr__(self):
        label = self.name or "sequence"
        return f"WeightSequence({label}, P_max={self.p_max})"


# ---------------------------------------------------------------------------
# constructors / named families
# ---------------------------------------------------------------------------


def from_log_values(values: Sequence[float], name: str = "") -> WeightSequence:
    return WeightSequence(values, name)


def gevrey(s: float, p_max: int = DEFAULT_P_MAX) -> WeightSequence:
    """Gevrey sequence M_p = (p!)^s."""
    if not (s > 0):
        raise DomainError(f"gevrey index must be > 0, got {s}")
    table = log_factorials(p_max)
    table *= s
    return WeightSequence(_frozen(table), name=f"gevrey({s:g})")


def exp_power(a: float, p_max: int = DEFAULT_P_MAX) -> WeightSequence:
    """M_p = exp(p^a)."""
    if not (a > 0):
        raise DomainError(f"exp_power exponent must be > 0, got {a}")
    ps = np.arange(p_max + 1, dtype=float)
    ps **= a
    return WeightSequence(_frozen(ps), name=f"exp_power({a:g})")


def qgevrey(q: float, p_max: int = DEFAULT_P_MAX) -> WeightSequence:
    """q-Gevrey sequence M_p = q^(p^2), q > 1."""
    if not (q > 1):
        raise DomainError(f"qgevrey base must be > 1, got {q}")
    ps = np.arange(p_max + 1, dtype=float)
    ps **= 2
    ps *= math.log(q)
    return WeightSequence(_frozen(ps), name=f"qgevrey({q:g})")


def pointwise_product(m: WeightSequence, n: WeightSequence, name: str = "") -> WeightSequence:
    _require_shared_window(m, n)
    return WeightSequence(_frozen(m.log_values + n.log_values), name)


def pointwise_quotient(m: WeightSequence, n: WeightSequence, name: str = "") -> WeightSequence:
    _require_shared_window(m, n)
    return WeightSequence(_frozen(m.log_values - n.log_values), name)


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
    return WeightSequence(_frozen(m.log_factorial - m.log_values), name)


def is_log_convex(
    m: WeightSequence, tol: float = TOL_LOG_CONVEX
) -> tuple[bool, Optional[int]]:
    """True iff 2 log M_p <= log M_{p-1} + log M_{p+1} for 1 <= p < P_max.

    Equivalent to the quotient sequence being non-decreasing; on failure the
    reported index is the smallest p whose quotient drops (mu_p < mu_{p-1},
    p >= 2).
    """
    lv = m.log_values
    n = lv.size - 2  # triples (p-1, p, p+1) for p = 1..P-1
    scratch = np.empty(min(n, _SCRATCH_CELLS))
    for lo, hi in _blocks(0, n):
        # 2 log M_p - log M_{p-1} - log M_{p+1}
        defect = np.multiply(lv[lo + 1 : hi + 1], 2.0, out=scratch[: hi - lo])
        defect -= lv[lo:hi]
        defect -= lv[lo + 2 : hi + 2]
        first = int((defect > tol).argmax())  # 0 when none is
        if defect[first] > tol:
            return False, lo + first + 2
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
    n = ls.size - 2
    step = _SCRATCH_CELLS // 2  # two scratch arrays
    scratch = np.empty((2, min(n, step)))
    for lo, hi in _blocks(0, n, step):
        defect, twice = scratch[0, : hi - lo], scratch[1, : hi - lo]
        # log m_{p-1} + log m_{p+1} - 2 log m_p
        np.add(ls[lo:hi], ls[lo + 2 : hi + 2], out=defect)
        defect -= np.multiply(ls[lo + 1 : hi + 1], 2.0, out=twice)
        if not np.all(defect <= tol):
            return False
    return True


def _hull_vertices(ys: np.ndarray, xs: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """Indices of the vertices of the lower convex hull of the points
    (x_i, ys[i]), with x_i = xs[i] (increasing) or x_i = i when ``xs`` is
    None, or None when every point is a vertex.  Needs at least 3 points.

    Andrew's monotone chain: a point p2 on top of the hull stack, with p1
    below it, is dropped when it lies on or above the chord p1 -> p, i.e.
    when ``(y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1)``.

    One blocked numpy pass evaluates that test on every consecutive triple
    (q-1, q, q+1).  The points q where it holds (local convexity
    violations) are the only places where the scan can pop right after a
    run of consecutive pushes, so each run between violations is pushed in
    one slice.  Per-point Python steps run only at violations and in the
    pop cascades that follow them.  Every pop decision evaluates the
    expression above with the same operands, so the vertex set is that of
    the plain per-point scan bit for bit: integer abscissae stay Python
    ints, whose differences convert to floats exactly, and real ones are
    read as Python floats.  Without any violation the answer comes after
    the single O(n) pass; inputs with many violations (noise, concave
    stretches) still cost O(n) interpreted steps.
    """
    n = ys.size
    violation = None  # violation[q] is 1 at a violation, from the first one on
    step = _SCRATCH_CELLS // 2  # two scratch arrays
    scratch = np.empty((2, min(n - 2, step)))
    for lo, hi in _blocks(0, n - 2, step):
        # the test with p1, p2, p = q-1, q, q+1 (so x2 - x1 = 1, x - x1 = 2
        # on integer abscissae)
        rise = np.subtract(ys[lo + 1 : hi + 1], ys[lo:hi], out=scratch[0, : hi - lo])
        rise *= 2 if xs is None else xs[lo + 2 : hi + 2] - xs[lo:hi]
        chord = np.subtract(ys[lo + 2 : hi + 2], ys[lo:hi], out=scratch[1, : hi - lo])
        if xs is not None:
            chord *= xs[lo + 1 : hi + 1] - xs[lo:hi]
        local = rise >= chord
        if violation is None:
            if not local.any():
                continue
            violation = bytearray(n)
            flags = np.frombuffer(violation, dtype=bool)
        flags[lo + 1 : hi + 1] = local
    if violation is None:
        return None
    hull = np.empty(n, dtype=np.intp)
    val, hull_at, next_violation = ys.item, hull.item, violation.find
    at = None if xs is None else xs.tolist().__getitem__
    hull[:2] = 0, 1
    top = 2  # hull[:top] is the stack
    # the two top entries (index, abscissa, value); p2 == p - 1
    p1, x1, y1 = 0, 0 if at is None else at(0), val(0)
    p2, x2, y2 = 1, 1 if at is None else at(1), val(1)
    p = 2
    while p < n:
        if p1 == p - 2 and not violation[p - 1]:
            # no pop happens before the scan reaches the next violation
            stop = next_violation(1, p)
            if stop < 0:
                stop = n - 1
            hull[top : top + stop - p + 1] = np.arange(p, stop + 1)
            top += stop - p + 1
            p1, p2 = stop - 1, stop
            x1, y1 = p1 if at is None else at(p1), val(p1)
            x2, y2 = p2 if at is None else at(p2), val(p2)
            p = stop + 1
            continue
        x, y = p if at is None else at(p), val(p)
        while (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
            top -= 1
            p2, x2, y2 = p1, x1, y1
            if top == 1:
                break
            p1 = hull_at(top - 2)
            x1, y1 = p1 if at is None else at(p1), val(p1)
        hull[top] = p
        top += 1
        p1, x1, y1 = p2, x2, y2
        p2, x2, y2 = p, x, y
        p += 1
    return hull[:top]


def log_convex_minorant(m: WeightSequence) -> WeightSequence:
    """Lower convex envelope of p -> log M_p evaluated at integer p: linear
    interpolation between the vertices of the lower convex hull of the
    graph points (p, log M_p), found by ``_hull_vertices``.

    Without any local convexity violation the input's log values come back
    after one O(P) pass, shared, not copied.
    """
    lv = m.log_values
    name = f"{m.name}.lc" if m.name else ""
    vertices = _hull_vertices(lv)
    if vertices is None:
        return WeightSequence(lv, name)
    xs, ys = vertices.astype(float), lv[vertices]
    del vertices  # the hull stack goes before the output comes
    out = np.empty(lv.size)
    for lo, hi in _blocks(0, lv.size):
        out[lo:hi] = np.interp(np.arange(lo, hi, dtype=float), xs, ys)
    return WeightSequence(_frozen(out), name)


def max_split_deficit(
    log_total: np.ndarray, log_part: np.ndarray, per_length: bool = False
) -> float:
    """max over p + q <= P of log_total[p+q] - log_part[p] - log_part[q].

    With ``per_length`` every deficit is divided by p + q + 1 first.  Rows p
    are scanned in blocks of about _SCRATCH_CELLS cells; each deficit is
    computed from the same operands in the same order as a per-row loop
    would, and a maximum does not depend on order, so the result is
    bit-identical to that loop.
    """
    pmax = log_total.size - 1
    # row p reads log_total[p : p+P+1]; the -inf padding drops p + q > P
    totals = sliding_window_view(
        np.concatenate((log_total, np.full(pmax, -np.inf))), pmax + 1
    )
    lengths = sliding_window_view(np.arange(1.0, 2 * pmax + 2), pmax + 1)
    rows = max(1, _SCRATCH_CELLS // (pmax + 1))
    best = -math.inf
    for start in range(0, pmax + 1, rows):
        stop, cols = min(start + rows, pmax + 1), pmax + 1 - start
        deficit = (
            totals[start:stop, :cols] - log_part[start:stop, None] - log_part[:cols]
        )
        if per_length:
            deficit /= lengths[start:stop, :cols]
        best = max(best, float(np.max(deficit)))
    return best


def check_moderate_growth(
    m: WeightSequence, log_c_cap: float = LOG_C_CAP
) -> tuple[bool, float]:
    """Smallest C >= 1 with M_{p+q} <= C^(p+q+1) M_p M_q on the prefix.

    Returns (True, C) when C <= exp(log_c_cap), else (False, cap).
    """
    lv = m.log_values
    log_c = max(0.0, max_split_deficit(lv, lv, per_length=True))
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


def _gap_quarters(
    top: np.ndarray, bottom: np.ndarray, p0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Maxima and minima, over the quarters of ``quarter_maxima``, of the
    root gaps (top[p] - bottom[p]) / p on the window p = p0..P, computed
    block by block."""
    size, extra = divmod(top.size - p0, 4)
    edges = [p0 + i * size + min(i, extra) for i in range(5)]
    qmax, qmin = np.empty(4), np.empty(4)
    step = _SCRATCH_CELLS // 2  # the gaps and their divisors
    scratch = np.empty(min(size + 1, step))
    for i in range(4):
        best, least = -math.inf, math.inf
        for lo, hi in _blocks(edges[i], edges[i + 1], step):
            gaps = np.subtract(top[lo:hi], bottom[lo:hi], out=scratch[: hi - lo])
            gaps /= np.arange(lo, hi, dtype=float)
            best, least = max(best, gaps.max()), min(least, gaps.min())
        qmax[i], qmin[i] = best, least
    return qmax, qmin


def relation(
    m: WeightSequence,
    n: WeightSequence,
    p0: int = DEFAULT_P0,
    log_r_cap: float = LOG_R_CAP,
    eps_triangle: float = EPS_TRIANGLE,
) -> RelationVerdict:
    """Growth relation of M against N on the index window [p0, P_max], which
    must hold the 8 indices of the quarter statistics."""
    _require_shared_window(m, n)
    if not (1 <= p0 <= m.p_max - 7):
        raise PreconditionError(
            f"need 1 <= p0 <= P_max - 7 = {m.p_max - 7}, got p0={p0}",
            p0=p0,
            p_max=m.p_max,
        )
    mv, nv = m.log_values, n.log_values
    qm, qmin = _gap_quarters(mv, nv, p0)
    rev_qm = -qmin  # the quarter maxima of the reversed gaps -gaps
    sup_gap = float(qm.max())
    tail_gap = float((mv[-1] - nv[-1]) / m.p_max)

    preceq = sup_gap <= log_r_cap and not diverges(qm)
    preceq_rev = float(rev_qm.max()) <= log_r_cap and not diverges(rev_qm)
    approx = preceq and preceq_rev

    triangle = (
        preceq and tail_gap <= math.log(eps_triangle) and bool(np.all(np.diff(qm) < 0))
    )
    leq = True
    scratch = np.empty(min(mv.size - p0, _SCRATCH_CELLS))
    for lo, hi in _blocks(p0, mv.size):
        bound = np.add(nv[lo:hi], 1e-12, out=scratch[: hi - lo])
        if not np.all(mv[lo:hi] <= bound):
            leq = False
            break

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


def almost_monotone_log_witness(log_vals: np.ndarray) -> float:
    """Minimal log H such that the sampled sequence is almost decreasing.

    Almost decreasing: a_q <= H a_p for all p <= q in the window, so
    log H = max_q (a_q - running-min up to q); H >= 1 is enforced.  A
    sequence is almost increasing with the witness of its reciprocal,
    ``almost_monotone_log_witness(-log_vals)``.
    """
    vals = np.asarray(log_vals, dtype=float)
    worst, low = -np.inf, np.inf  # numpy scalars, so that NaN propagates
    scratch = np.empty(min(vals.size, _SCRATCH_CELLS))
    for lo, hi in _blocks(0, vals.size):
        chunk = vals[lo:hi]
        rise = np.minimum.accumulate(chunk, out=scratch[: chunk.size])
        np.minimum(rise, low, out=rise)  # the running minimum
        low = rise[-1]
        np.subtract(chunk, rise, out=rise)
        worst = np.maximum(worst, rise.max())
    return max(float(worst), 0.0)


def _almost_monotone_violating_pair(log_vals: np.ndarray, offset: int) -> tuple[int, int]:
    vals = np.asarray(log_vals, dtype=float)
    prefix_min = np.minimum.accumulate(vals)
    q = int(np.argmax(vals - prefix_min))
    p = int(np.argmin(vals[: q + 1]))
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

    def index(log_h, passing: float, failing: float) -> tuple[float, float, bool]:
        """(edge, log_h(edge), saturated) of the exponents with log_h <= accept."""

        def test(x: float) -> Optional[float]:
            return h if (h := log_h(x)) <= accept else None

        h_fail = log_h(failing)
        if h_fail <= accept:
            return failing, h_fail, True
        h_pass = log_h(passing)
        if h_pass > accept:
            return passing, h_pass, True
        return (*bisect_edge(test, passing, failing, h_pass, resolution), False)

    # a_p / p^x is almost decreasing for all x >= alpha, and almost
    # increasing (p^x / a_p almost decreasing) for all x <= beta
    alpha, h_alpha, alpha_sat = index(
        lambda x: almost_monotone_log_witness(window - x * log_ps), x_cap, -x_cap
    )
    beta, h_beta, beta_sat = index(
        lambda x: almost_monotone_log_witness(x * log_ps - window), -x_cap, x_cap
    )
    witness = math.exp(max(min(h_alpha, log_h_cap), min(h_beta, log_h_cap)))
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


def _log_range(lo: int, hi: int) -> np.ndarray:
    """log p for p = lo..hi-1, in one fresh array."""
    out = np.arange(lo, hi, dtype=float)
    return np.log(out, out=out)


def almost_decreasing_regularize(
    m: WeightSequence, log_h_cap: float = LOG_H_CAP
) -> tuple[WeightSequence, float]:
    """Regularise M through the suffix-maximum quotient construction.

    Requires mu_p/p almost decreasing on [1, P_max] with witness H below the
    cap.  The output L has quotients lambda_p = H^-1 p sup_{q>=p} mu_q/q, so
    lambda_p/p is non-increasing by construction (l log-concave), L_0 = 1,
    L is equivalent to M, and L inherits log-convexity from M.
    """
    lv, p_max = m.log_values, m.p_max
    # out[1:] holds log(mu_p/p), p = 1..P, until log lambda_p replaces it
    out = np.empty_like(lv)
    ratio = out[1:]
    np.subtract(lv[1:], lv[:-1], out=ratio)
    for lo, hi in _blocks(0, p_max):
        ratio[lo:hi] -= _log_range(lo + 1, hi + 1)
    log_h = almost_monotone_log_witness(ratio)
    if log_h > log_h_cap:
        p, q = _almost_monotone_violating_pair(ratio, offset=1)
        raise PreconditionError(
            "mu_p/p is not almost decreasing on the window "
            f"(worst witness H=e^{log_h:.3f} exceeds cap e^{log_h_cap:g} "
            f"at pair p={p}, q={q})",
            p=p,
            q=q,
            log_h=log_h,
        )
    # log lambda_p = -log H + log p + max_{q>=p} log(mu_q/q), from the end
    step = _SCRATCH_CELLS // 2  # the suffix maxima and log p
    scratch = np.empty(min(p_max, step))
    top = -math.inf
    for lo, hi in reversed(_blocks(0, p_max, step)):
        suffix_max = scratch[: hi - lo]
        np.maximum.accumulate(ratio[lo:hi][::-1], out=suffix_max[::-1])
        np.maximum(suffix_max, top, out=suffix_max)
        top = suffix_max[0]
        log_lambda = np.add(_log_range(lo + 1, hi + 1), -log_h, out=ratio[lo:hi])
        log_lambda += suffix_max
    name = f"{m.name}.reg" if m.name else ""
    return WeightSequence(_frozen(_cumsum_tail(out)), name), math.exp(log_h)


def normalize_head(l: WeightSequence) -> WeightSequence:
    """Clamp finitely many initial quotients up to 1 so the head is admissible.

    Rule: lambda_p := max(1, lambda_p) for every p below the first index with
    lambda_p >= 1, and L_0 := 1.  Only the head changes, so the output stays
    equivalent to the input, keeps lambda_p/p non-increasing whenever the
    input had it, and is log-convex whenever the input is.
    """
    lv = l.log_values
    out = np.empty_like(lv)  # log lambda_p in out[1:], then log L_p
    np.subtract(lv[1:], lv[:-1], out=out[1:])
    first_ok = out.size  # the first p with lambda_p >= 1, else P + 1
    for lo, hi in _blocks(1, out.size):
        block = out[lo:hi]
        first = int((block >= 0.0).argmax())  # 0 when none is
        if block[first] >= 0.0:
            first_ok = lo + first
            break
    np.maximum(out[1:first_ok], 0.0, out=out[1:first_ok])
    name = f"{l.name}.head" if l.name else ""
    return WeightSequence(_frozen(_cumsum_tail(out)), name)


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
    lv, lf = m.log_values, m.log_factorial
    # the roots log m_p / p, p = 1..P, by blocks: only their quarter maxima
    qm, _ = _gap_quarters(lv, lf, 1)
    last = (lv[-1] - lf[-1]) / m.p_max
    return bool(np.all(np.diff(qm) < 0) and last <= threshold)


def has_divergent_roots(m: WeightSequence, p0: int = DEFAULT_P0) -> bool:
    """Finite-window proxy for (M_p/M_0)^(1/p) -> +infinity (weight sequence)."""
    lv, p_max = m.log_values, m.p_max
    if p_max <= p0:
        return False
    # the two roots (log M_p - log M_0) / p read on the window p = p0..P_max
    p = p0 + 3 * (p_max - p0 + 1) // 4
    three_quarter = (lv[p] - lv[0]) / p
    last = (lv[-1] - lv[0]) / p_max
    return float(last - three_quarter) > 0.01


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

    def small(k, lo, hi):
        """log_small of member k on [lo, hi), divided by the base's."""
        ls = family[k].log_small[lo:hi]
        return ls if base_small is None else ls - base_small[lo:hi]

    log_roots = []
    for k in range(len(family)):
        roots = np.empty(p_max)
        for lo, hi in _blocks(1, p_max + 1):
            np.divide(small(k, lo, hi), ps[lo - 1 : hi - 1], out=roots[lo - 1 : hi - 1])
        log_roots.append(roots)

    for k in range(len(family) - 1):
        for lo, hi in _blocks(0, p_max + 1):
            bad = np.flatnonzero(small(k, lo, hi) - small(k + 1, lo, hi) > 1e-9)
            if bad.size:
                p = int(lo + bad[0])
                raise PreconditionError(
                    f"pointwise order violated between members {k + 1} and {k + 2} at p={p}",
                    member=k + 1,
                    p=p,
                )
    for k, roots in enumerate(log_roots):
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
        found = None
        for lo, hi in _blocks(j_prev, p_max):
            for j in np.flatnonzero(log_roots[nxt][lo:hi] < target) + lo + 1:
                if k >= 2:
                    prev_member = member_index(k - 1)
                    # (n^(k)_{j_k})^(1/j_k) must dominate member k-1 roots from j on
                    if suffix_maxima[prev_member][j - 1] > block_roots[-1]:
                        continue
                found = int(j)
                break
            if found is not None:
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
    log_a = np.empty(p_max + 1)
    log_a[0] = 0.0
    np.multiply(a_log_roots, ps, out=log_a[1:])
    if base_small is not None:
        log_a += base_small
        np.divide(log_a[1:], ps, out=a_log_roots)
    return UniformBoundResult(
        log_values=log_a,
        log_roots=a_log_roots,
        breakpoints=tuple(breakpoints),
        block_log_roots=tuple(block_roots),
        members_reached=min(len(breakpoints), len(family)),
        truncated=truncated,
    )
