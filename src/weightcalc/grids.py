"""Grids, tail windows, the scan-and-refine kernel and the finite-window
trend heuristics.

Every sup/inf transform of the package (conjugate, the two Legendre
envelopes, sequence recovery and the Young conjugate phi*) is one call of
``grid_sup``, except two that ``functions`` answers exactly, raising the
same error (``edge_refusal``): the envelopes of two associated functions
sharing P_max, from their sequences, and the conjugate, phi* and sequence
recovery of an operand piecewise linear in log t, from the convex hull of
its values at its knots, refused only when the top end of the range
wins.  A call is a search for each argument's
leftmost grid argmax on a log grid, an edge test that refuses an optimum
outside the searched range, and refinement of the winning cell.  Each
argument is searched on its run of grid columns, the cells within the
operands' coverage, which the caller passes in: one run per row, with ends
non-decreasing in the argument.  A row whose run is empty is refused
before any scan.  Refinement takes the
best of the cell's bracket ends and the kinks inside it when the objective
is piecewise convex with known kinks (operands piecewise linear in log t,
such as associated functions), the breakpoint view of Lucet (1997), once
bisection has narrowed each set's run of kinks to at most 60, which
assumes the objective's values at each set's kinks unimodal.  An objective
with known kinks but no promise about its pieces has its bracket cut at
them, long runs narrowed the same way under the same assumption.  Smooth
pieces, and objectives without known kinks, take safeguarded successive
parabolic interpolation (Brent 1973), seeded with the three grid cells
around the winner and stopped by a bound that concavity proves.

Every set of cells the kernel evaluates (the dense scan, each level of the
windowed search, the edge cells, the kink candidates) is one run of cells
per row, laid end to end and evaluated in one flat call, each row's
leftmost maximum taken by ``np.maximum.reduceat`` (``_run_max``): the
objective callbacks only ever see equal-length 1-D arrays.

The argmax search has two routes.  The dense scan evaluates k x n cells
and is correct for any objective.  The sorted-window divide and conquer
(the monotone-matrix search of Aggarwal et al., 1987), its blocks of rows
scheduled once per row count, scans about (n + k) log2(k) cells and, in
exact arithmetic, finds the same cell when the leftmost argmax is
non-decreasing in the argument x (rounding is handled in ``grid_sup``).
By Topkis's monotone comparative statics that holds when the objective
has increasing differences in (x, y):

* x * phi(y) - psi(y) with phi increasing, whatever psi is: the conjugate,
  sequence recovery and phi* take the windowed route whenever it saves
  cells;
* -g(x - y) and -g(y - x) with g convex: the envelopes, when the kind of
  tau proves g(u) = tau(e^u) convex over the u-range each call touches
  (``functions._convex_in_log``).  A tau of any other kind takes the
  dense scan.

Asymptotic statements (limits, O/o relations) are undecidable from finite
data.  Every detector here is an estimator over a declared window and the
window parameters travel with the verdicts that use them.  The estimators
shared by the sequence, function and BMT layers are:

* ``quarter_maxima`` -- the maxima of the four consecutive quarters of a
  sampled window, the statistic behind every trend test;
* ``decays_to_zero`` -- a sampled ratio behaves like o(1): the four
  quarter-window maxima strictly decrease and the tail has dropped by a
  window-size-aware factor (``span ** -DECAY_EXPONENT``), so a wide window
  demands a deep drop while a narrow one only a shallow drop;
* ``diverges`` -- the quarter maxima strictly increase and the last quarter
  still rises by a margin, which separates growth to infinity from
  convergence-from-below to a finite limit;
* ``stopped_rising`` -- an additive deficit is bounded: its last quarter
  maximum rises less than 1 above the earlier ones;
* ``bisect_edge`` -- the edge of the set of parameters a finite-window test
  certifies, with the witness of the last certified parameter: the growth
  indices of a weight function and the Matuszewska indices of a sequence.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DomainExhaustedError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

#: Decay demanded of an o(1) ratio across a window spanning ``span`` decades:
#: tail <= head * span**-DECAY_EXPONENT.
DECAY_EXPONENT = 0.15

#: Log-scale rise of the last quarter required to call a sequence divergent.
DIVERGENCE_RISE = 0.05

#: Scratch budget of a blocked kernel, in float64 values (2 MiB): the
#: dense scan of ``grid_sup``, the row slices of a parabolic refinement and
#: the blocked scans of ``sequences``.
_SCRATCH_CELLS = 1 << 18
#: A row whose grid maximum comes this close to the exact cap is answered by it.
_CAP_TOL = 1e-12
#: Iterations of a parabolic refinement in ``grid_sup``, and the most kinks
#: of one set a bracket keeps: a longer run is halved first.
_REFINE_ITERS = 60
#: Golden-section iterations run before the convergence test may stop the loop.
_GOLDEN_MIN_ITERS = 20
#: Relative spread of the values on a golden-section bracket at which the
#: row stops.
_GOLDEN_RTOL = 1e-15
#: Relative excess over the best value that a parabolic row must prove to stop.
_PARABOLIC_RTOL = 7e-16
#: Steps after which the parabolic rows still moving take golden steps only,
#: which end the creep of parabolic steps along a nearly flat side of a kink
#: that nothing declared.
_PARABOLIC_STEPS = 20
#: The most rows whose windowed-search schedule is cached: 32, under 160 KiB
#: each, so that the 8,192-point tabulations of ``gamma_indices`` reuse theirs.
_SCHEDULE_ROWS = 8192


def _check_count(n, least, what):
    """Refuse a point count ``n`` that is not an integer or is below ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"{what} needs an integer number of points, got {n!r}")
    if n < least:
        raise DomainError(f"{what} needs {least} or more points, got {n}")


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced evaluation grid for sup/inf transforms."""

    t_min: float = 1e-2
    t_max: float = 1e8
    n: int = 2048

    def __post_init__(self):
        if not (self.t_min > 0 and self.t_min < self.t_max):
            raise DomainError(f"need 0 < t_min < t_max, got [{self.t_min:g}, {self.t_max:g}]")
        _check_count(self.n, 64, "grid")

    def log_points(self, upper=None):
        """Log grid on [t_min, min(t_max, upper)]; ``upper`` is an operand's
        coverage, and a coverage ending at or below t_min is refused because
        every grid point would be extrapolated."""
        hi = self.t_max if upper is None else min(self.t_max, upper)
        if hi <= self.t_min:
            raise DomainExhaustedError(
                f"operand coverage ends at {hi:g}, at or below the grid start "
                f"t_min={self.t_min:g}; no grid point is covered",
                coverage=hi,
                t_min=self.t_min,
            )
        return np.linspace(math.log(self.t_min), math.log(hi), self.n)

    def points(self, upper=None):
        return np.exp(self.log_points(upper))


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class TailWindow:
    """Sampling window [t_lo, t_hi] used for tail/limit estimators."""

    t_lo: float = 1e3
    t_hi: float = 1e7
    n: int = 512

    def __post_init__(self):
        if not (self.t_lo > 0 and self.t_lo < self.t_hi):
            raise DomainError(f"need 0 < t_lo < t_hi, got [{self.t_lo:g}, {self.t_hi:g}]")
        # fewer than 8 samples are refused by the estimators that need them
        _check_count(self.n, 1, "window")

    def samples(self):
        return np.exp(np.linspace(math.log(self.t_lo), math.log(self.t_hi), self.n))

    @property
    def span(self):
        return self.t_hi / self.t_lo

    def clipped(self, upper, lower=None):
        """Shrink the window to respect an evaluation-domain bound.

        The log-span is preserved when the top is lowered: a tail window is
        a relative notion, so [hi/span, hi] keeps its meaning when hi moves.
        """
        hi = min(self.t_hi, upper)
        lo = self.t_lo
        if hi < self.t_hi:
            lo = hi / self.span
        if lower is not None:
            lo = max(lo, lower)
        if lo >= hi:
            lo = hi / 100.0
        return TailWindow(lo, hi, self.n)

    def as_dict(self):
        return {"t_lo": self.t_lo, "t_hi": self.t_hi, "n": self.n}


DEFAULT_TAIL = TailWindow()


def quarter_maxima(values):
    """Maxima of the four consecutive quarters of a sampled array.

    The quarter minima are ``-quarter_maxima(-values)``.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size < 8:
        raise ValueError("need at least 8 samples for quarter statistics")
    # the quarters of np.array_split: the first n % 4 hold one extra sample
    size, extra = divmod(vals.size, 4)
    return np.maximum.reduceat(vals, [i * size + min(i, extra) for i in range(4)])


def decays_to_zero(ratios, span):
    """Finite-window proxy for ``ratios -> 0`` over a window of given span."""
    qm = quarter_maxima(ratios)
    if not np.all(np.diff(qm) < 0):
        return False
    demanded = qm[0] * span ** (-DECAY_EXPONENT)
    return bool(qm[3] <= demanded)


def diverges(qm):
    """Finite-window proxy for an (additively scaled) sequence -> +infinity,
    read from the sequence's four quarter maxima ``qm``."""
    if not np.all(np.diff(qm) > 0):
        return False
    return bool(qm[3] - qm[2] > DIVERGENCE_RISE)


def stopped_rising(values):
    """Finite-window proxy for a bounded additive deficit: the last quarter
    maximum rises less than 1 above the three before it."""
    qm = quarter_maxima(values)
    return bool(qm[3] <= max(qm[0], qm[1], qm[2]) + 1.0)


def bisect_edge(test, passing, failing, witness, resolution):
    """Edge of the interval of parameters that ``test`` certifies: ``test(x)``
    returns a witness or None, ``passing`` is certified by ``witness`` and
    ``failing`` is not, on either side.  Bisects at midpoints down to
    ``resolution`` and returns the last certified parameter and its witness.
    """
    while abs(failing - passing) > resolution:
        mid = 0.5 * (passing + failing)
        found = test(mid)
        if found is None:
            failing = mid
        else:
            passing, witness = mid, found
    return passing, witness


def golden_max_vec(f, lo, hi, iters=60):
    """Vectorised golden-section maximisation (Kiefer 1953) of many rows.

    ``grid_sup`` no longer calls it; it stays as the cost reference of the
    tests of ``parabolic_max_vec``, and for tracing that wraps it by name.

    ``lo``/``hi`` are 1-D arrays of per-row brackets and ``f`` maps a 1-D
    array of points, one per row, to their values.  Returns (argmax array,
    max array).  No row costs more than ``iters + 2`` points.

    The loop keeps the interior point that survives each bracket update,
    with its value, and evaluates one new point per row per iteration.  A
    row stops once the values at both ends of its bracket have come within
    1e-15 of its best interior value (relative to max(1, |value|)); the
    value at an end is known once an interior point has replaced it.  For
    an objective unimodal on the bracket every value inside lies between,
    so the row has converged to rounding.  The two interior values alone
    are no test: they tie while the bracket is still wide, by symmetry when
    a peak or a kink sits at its centre, and on a flat stretch beside the
    peak.  The test starts after ``_GOLDEN_MIN_ITERS`` iterations, and the
    loop ends when every row has stopped or after ``iters`` iterations.  A
    stopped row keeps its bracket, so its result does not depend on the
    other rows of the call (``f`` still sees every row).  NaN rows stop at
    the first test.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    h = b - a
    c = a + INV_PHI_SQ * h
    d = a + INV_PHI * h
    yc, yd = f(c), f(d)
    ya = np.full(a.shape, -np.inf)  # the ends are not evaluated
    yb = ya.copy()
    move = True  # the rows whose bracket still shrinks
    for i in range(iters):
        if i >= _GOLDEN_MIN_ITERS:
            top = np.maximum(yc, yd)
            spread = top - np.minimum(ya, yb)
            move = spread > _GOLDEN_RTOL * np.maximum(1.0, np.abs(top))
            if not move.any():
                break
        # keep [a, d] when c wins, else [c, b]; the surviving interior point
        # becomes d or c of the new bracket, and the other one is new
        left = yc > yd
        to_left, to_right = move & left, move & ~left
        a, ya = np.where(to_right, c, a), np.where(to_right, yc, ya)
        b, yb = np.where(to_left, d, b), np.where(to_left, yd, yb)
        new = a + np.where(left, INV_PHI_SQ, INV_PHI) * (b - a)
        y_new = f(new)
        c, d = np.where(to_left, new, c), np.where(to_left, c, d)
        c, d = np.where(to_right, d, c), np.where(to_right, new, d)
        yc, yd = np.where(to_left, y_new, yc), np.where(to_left, yc, yd)
        yc, yd = np.where(to_right, yd, yc), np.where(to_right, y_new, yd)
    best_c = yc >= yd
    return np.where(best_c, c, d), np.where(best_c, yc, yd)


def _parabolic_step(points, values, step_before, curv_seed, golden):
    """The next point of each row of ``parabolic_max_vec`` (see there), the
    rows' f[a, x, b] and best values, and whether each has stopped.
    ``points`` and ``values`` hold the rows' (a, x, b) and their values;
    ``golden`` allows golden steps only."""
    a, x, b = points
    fa, fx, fb = values
    left, right = x - a, b - x
    width = left + right
    best = np.maximum(np.maximum(fa, fb), fx)
    tol = _PARABOLIC_RTOL * np.maximum(1.0, np.abs(best))
    with np.errstate(divide="ignore", invalid="ignore"):
        s_left, s_right = (fx - fa) / left, (fb - fx) / right
        curv = (s_right - s_left) / width  # f[a, x, b]
        stop = curv_seed * width * width <= 4.0 * tol
        if np.count_nonzero(stop):
            stop &= _proven(left, right, s_left, s_right, fa, fx, fb, best, tol)
        minus_left = -left
        larger = np.where(right > left, right, minus_left)
        step = -0.5 * (left + s_left / curv)  # to the vertex
        parabolic = stop
        if not golden:
            delta_sq = 0.25 * tol / -curv
            parabolic = (curv < 0) & (step > minus_left) & (step < right)
            near = parabolic & (step * step < delta_sq)
            parabolic = (parabolic & (near | (np.abs(step) < 0.5 * step_before))) | stop
            if np.count_nonzero(near):
                delta = np.maximum(np.sqrt(delta_sq), 4.0 * np.spacing(np.abs(x)))
                delta = np.copysign(np.minimum(delta, 0.5 * np.abs(larger)), larger)
                np.putmask(step, near, delta)
    rows = (~parabolic).nonzero()[0]
    if rows.size:
        step[rows] = _fallback_step(
            points[:, rows], values[:, rows], tol[rows], curv[rows], larger[rows]
        )
    # a bracket at the resolution of y has no new point to offer, nor has
    # a NaN row
    u = x + step
    stop |= (u == x) | np.isnan(best)
    return u, curv, best, stop


def _proven(left, right, s_left, s_right, fa, fx, fb, best, tol):
    """Whether concavity proves each row of ``_parabolic_step`` within tol
    of its supremum, or noise defeats the proof and golden section's test
    passes (see ``parabolic_max_vec``); run under the step's errstate."""
    # the chords extended over the other segment, each value allowed an
    # error of tol / 8
    noise = 0.25 * tol
    up = np.maximum((noise / right - s_right) * left, (s_left + noise / left) * right)
    # both end values within 1e-15 of the best and segments within a factor
    # 3 bound the excess by 3e-15
    spread = best - np.minimum(fa, fb) <= (_GOLDEN_RTOL / _PARABOLIC_RTOL) * tol
    balanced = (3.0 * right >= left) & (3.0 * left >= right)
    return (up <= tol + (best - fx)) | (spread & balanced)


def _fallback_step(points, values, tol, curv, larger):
    """The step of the rows of ``_parabolic_step`` without a parabolic one:
    inwards from a better end, else golden."""
    a, x, b = points
    fa, fx, fb = values
    left, right = x - a, b - x
    step = INV_PHI_SQ * larger
    better = np.maximum(fa, fb) > fx
    if np.count_nonzero(better):
        # from a better end, the step whose bound has excess about tol / 2,
        # but at least a thousandth of the segment, so that the chord beside
        # the end gets a reliable slope
        on_a = fa >= fb
        seg = np.where(on_a, left, right)
        with np.errstate(divide="ignore", invalid="ignore"):
            inward = 0.5 * tol / (-curv * seg)
        floor = np.maximum(1e-3 * seg, 4.0 * np.spacing(np.abs(x)))
        inward = np.minimum(np.maximum(inward, floor), 0.5 * seg)
        step = np.where(better, np.where(on_a, inward - left, right - inward), step)
    return step


def parabolic_max_vec(f, xs, lo, mid, hi, iters=60):
    """Safeguarded successive parabolic maximisation (Brent 1973, ch. 5) of
    many rows, each seeded with three points.

    Row i is searched on [lo[i], hi[i]] from the points lo, mid and hi (mid
    is moved to the bracket's centre unless strictly inside), evaluated in
    one call.  ``f(x, y)`` maps equal-length 1-D arrays of row arguments
    ``xs`` and points to values, and only ever sees the rows still moving:
    the state is compacted to them, so a row's result does not depend on
    the other rows of the call.  Returns the best value evaluated per row,
    never below the seeds' values; no row costs more than ``iters + 2``
    points (``iters`` >= 1), and a NaN value stops its row, which returns
    NaN.  Rows go ``_SCRATCH_CELLS // 64`` (4,096) at a time, which bounds
    the memory of one call.

    The kernel is meant for smooth pieces: callers cut a bracket at every
    kink they know of (``grid_sup``'s ``breaks``) or refine at the kinks
    (``kinks``).  Each row keeps a bracket (a, b) around a point x: the
    best point evaluated and its two neighbours, or an end and the next two
    points when that end is the best.  Each step evaluates one point per
    row:

    * the vertex of the parabola through (a, x, b) when f[a, x, b] < 0, the
      vertex lies inside the bracket and the step to it is less than half
      the step before the last (Brent's safeguard);
    * a vertex within delta = sqrt(tol / |f[a, x, b]|) / 2 (at least 4 ulp
      of x) of x moves delta to the side of the larger segment: this
      collapses the far end, as Brent's tolerance step does;
    * otherwise, when an end is the best point, a step inwards from it;
    * otherwise a golden step into the larger segment.

    The stop rule is a proof under concavity.  The supremum over [a, x] is
    at most the chord through x and b extended to a, and over [x, b] at
    most the chord through a and x extended to b; with every value allowed
    an error of tol / 8 and tol = 7e-16 max(1, |best|), a row stops once
    these bounds exceed its best value by at most tol.  Where noise in the
    values defeats that proof, golden section's test serves: both end
    values within 1e-15 of the best, with segments within a factor 3, which
    bounds the excess by 3e-15.  Either needs the bracket narrow for the
    seed's curvature, |f[a, x, b]| (b - a)^2 <= 4 tol.  Rows still moving
    after ``_PARABOLIC_STEPS`` steps take golden steps only (inwards from a
    better end, else into the larger segment), which shrink the bracket by
    a fixed ratio.  These two guards are kept for objectives that kink
    where nothing says so, such as those of a user-built
    ``WeightFunction``: the narrow bracket keeps a kink beside a convex
    piece, where the chords of one side need not bound the other, from
    stopping a wide bracket, and the golden steps end the creep of
    parabolic steps along a nearly flat side of a kink.
    """
    xs, lo, mid, hi = (np.asarray(v, dtype=float) for v in (xs, lo, mid, hi))
    # a slice of rows at a time bounds the memory the state takes: under
    # 64 float64 values per row with a step's temporaries
    rows = _SCRATCH_CELLS // 64
    return np.concatenate([
        _parabolic_rows(f, *(v[i : i + rows] for v in (xs, lo, mid, hi)), iters)
        for i in range(0, max(xs.size, 1), rows)
    ])


def _parabolic_rows(f, xs, a, x, b, iters):
    """``parabolic_max_vec`` on one slice of rows."""
    x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
    k = a.size
    seeds = f(np.concatenate((xs, xs, xs)), np.concatenate((a, x, b)))
    out = np.empty(k)
    # one column per row: row index, argument, the last two steps, |f[a,
    # x, b]| at the seed, (a, x, b) and their values
    inf = np.full(k, np.inf)
    state = np.array((np.arange(k), xs, inf, inf, inf, a, x, b, *seeds.reshape(3, k)))
    for i in range(iters):
        u, curv, best, stop = _parabolic_step(
            state[5:8], state[8:], state[3], state[4], i > _PARABOLIC_STEPS
        )
        if i == 0:
            state[4] = np.abs(curv)
        if i == iters - 1:
            stop[:] = True
        if np.count_nonzero(stop):
            out[state[0, stop].astype(np.intp)] = best[stop]
            state, u = state.compress(~stop, axis=1), u[~stop]
        if not u.size:
            break
        _, arg, last, before, _, a, x, b, fa, fx, fb = state
        fu = f(arg, u)
        # keep the best of the four points with its neighbours (on a tie,
        # the wider of the two brackets): (a, x, b) becomes (a, p1, p2) or
        # (p1, p2, b)
        first = u < x
        p1, p2 = np.minimum(u, x), np.maximum(u, x)
        f1, f2 = np.where(first, fu, fx), np.where(first, fx, fu)
        top_l, top_r = np.maximum(fa, f1), np.maximum(f2, fb)
        kl, tie = top_l > top_r, top_l == top_r
        if np.count_nonzero(tie):
            kl |= tie & (p2 - a > b - p1)
        before[...], last[...] = last, np.abs(u - x)
        kr = ~kl
        for lo_end, middle, hi_end, inner, outer in ((a, x, b, p1, p2), (fa, fx, fb, f1, f2)):
            np.putmask(lo_end, kr, inner)
            np.putmask(hi_end, kl, outer)
            middle[...] = np.where(kl, inner, outer)
    return out


def _ranges(first, width):
    """The integer ranges [first, first + width) laid end to end."""
    return np.arange(width.sum()) + np.repeat(first - (np.cumsum(width) - width), width)


def _run_max(f, xs, width, cells=None, first=None):
    """Leftmost maximum of ``f`` over each row's run of cells.

    ``cells`` lays the runs of the rows ``xs`` end to end (else the runs of
    one row or more are [first, first + width)), ``width`` their lengths,
    each at least 1.  ``f(x, cells)`` is called once, on equal-length 1-D
    arrays, ``x`` repeating each row's argument over its run.  Returns the
    cell at each row's leftmost maximum and the maximum; a NaN cell wins.
    """
    starts = width.cumsum() - width
    if cells is None:
        cells = np.arange(starts[-1] + width[-1]) + (first - starts).repeat(width)
    obj = f(xs.repeat(width), cells)
    best = np.maximum.reduceat(obj, starts)
    hit = obj == best.repeat(width)
    if np.count_nonzero(np.isnan(best)):
        hit |= np.isnan(obj)
    hits = hit.nonzero()[0]
    return cells[hits[hits.searchsorted(starts)]], best


def _dense_argmax(xs, n, scan, lo, hi):
    """Leftmost grid argmax and grid maximum of every row within its
    non-empty run of columns [lo, hi], scanning the runs of
    ``_SCRATCH_CELLS // n`` rows (at least one) at a time."""
    j = np.empty(xs.size, dtype=np.intp)
    top = np.empty(xs.size)
    chunk = max(1, _SCRATCH_CELLS // n)
    for start in range(0, xs.size, chunk):
        rows = slice(start, start + chunk)
        width = hi[rows] - lo[rows] + 1
        j[rows], top[rows] = _run_max(scan, xs[rows], width, first=lo[rows])
    return j, top


@functools.lru_cache(maxsize=32)
def _schedule(k):
    """The levels of ``_sorted_window_argmax`` on k rows, read-only int32
    indices into its flat array (the blocks' middle rows, their window
    bounds and the middle rows' run ends) in one anonymous memory map: in
    the malloc heap a cached array would keep the memory freed below it
    resident."""
    levels, flat = [], np.frombuffer(mmap.mmap(-1, 20 * k + 4), dtype=np.int32)
    a, b = np.zeros(min(k, 1), dtype=np.int32), np.full(min(k, 1), k, dtype=np.int32)
    while a.size:
        mid = (a + b) // 2
        level, flat = flat[: 5 * mid.size].reshape(5, mid.size), flat[5 * mid.size :]
        level[...] = (mid + 1, a, b + 1, mid + (k + 3), mid + (2 * k + 5))
        level.flags.writeable = False
        levels.append(level)
        a, b = np.concatenate((a, mid + 1)), np.concatenate((mid, b))
        a, b = a[a < b], b[a < b]
    return tuple(levels)


def _sorted_window_argmax(xs, n, scan, lo, hi):
    """Leftmost grid argmax and grid maximum of every row within its
    non-empty run of columns [lo, hi], for objectives whose leftmost argmax
    is non-decreasing in x and runs whose ends are non-decreasing in x.

    Divide and conquer over the rows sorted by x (Aggarwal et al. 1987):
    the middle row of each block of rows is scanned over the block's column
    window cut to the row's run, the rows below it keep the columns up to
    its argmax and the rows above keep the columns from it.  The cut is
    never empty: the window lies between the argmaxes of a smaller-x and a
    larger-x row, each inside its own run.  One level of the recursion is
    one ``_run_max`` over about n + k cells, and there are about log2(k)
    levels.  A NaN row reports column 0 and narrows nothing.

    The blocks depend only on the number k of non-NaN rows: block [a, b)
    has its window between the argmaxes at sorted positions a - 1 and b,
    the grid's ends standing in for -1 and k.  ``_schedule`` lists them
    once per k, so a level is one gather of window bounds and run ends from
    one flat array, one ``_run_max`` and one scatter of the argmaxes.
    """
    j = np.zeros(xs.size, dtype=np.intp)
    top = np.full(xs.size, np.nan)
    order = np.argsort(xs, kind="stable")
    order = order[~np.isnan(xs[order])]
    k = order.size
    cols = np.zeros(3 * (k + 2), dtype=np.intp)
    cols[k + 1] = n - 1
    cols[k + 3 : 2 * k + 3], cols[2 * k + 5 : 3 * k + 5] = lo[order], hi[order]
    x, best = np.concatenate(([np.nan], xs[order])), np.empty(k + 1)
    schedule = _schedule if k <= _SCHEDULE_ROWS else _schedule.__wrapped__
    for level in schedule(k):
        mid = level[0]
        wlo, whi, rlo, rhi = cols[level[1:]]
        first = np.maximum(wlo, rlo)
        width = np.minimum(whi, rhi) - first + 1
        cols[mid], best[mid] = _run_max(scan, x[mid], width, first=first)
    j[order], top[order] = cols[1 : k + 1], best[1:]
    return j, top


def _with_edge_cells(xs, scan, lo, hi, both_ends, j, top):
    """Compare each row's windowed argmax with the cells the edge test of
    ``grid_sup`` refuses, and keep the leftmost best.

    Those cells are the right end ``hi`` of the row's run and, with
    ``both_ends``, its left end ``lo``.  Increasing differences hold only
    up to rounding, so a near tie can leave such a cell outside a row's
    window; whenever the dense scan's argmax is one of them, this finds the
    same cell and the kernel refuses the same row.
    """
    live = np.flatnonzero(np.isfinite(top))
    if live.size == 0:
        return j, top
    # in column order, so that the leftmost maximum is the leftmost cell
    ends = (lo, j, hi) if both_ends else (j, hi)
    cells = np.array(ends)[:, live].ravel(order="F")
    col, best = _run_max(scan, xs[live], np.full(live.size, len(ends)), cells)
    keep = ~np.isnan(best)  # a NaN cell keeps the windowed answer
    j[live[keep]], top[live[keep]] = col[keep], best[keep]
    return j, top


def _edge_rows(xs, lo, hi, j, top, cap, both_ends):
    """Rows whose grid argmax ``j`` may hide the supremum outside the
    searched range, and rows answered by the cap (see ``grid_sup``)."""
    at_cap = (top >= cap - _CAP_TOL) & math.isfinite(cap)
    edge = j == hi
    if both_ends:
        edge |= j == lo
    return edge & ~at_cap & ~np.isnan(xs), at_cap


def _saving(k, n):
    """Dense-scan cells the windowed route saves on k rows of n cells, a
    windowed cell counted as four dense ones.  The factor is kept as first
    measured: it decides the route, and with it which of two near-tied
    cells rounding picks."""
    return k * n - 4 * (n + k) * k.bit_length()


def _name_refusals(refused_by, groups, rows):
    """Record the first row of ``rows`` (a mask) in each group of its rows."""
    rows = rows.nonzero()[0]
    if rows.size:
        named, first = np.unique(groups[rows], return_index=True)
        refused_by[named] = rows[first]


def _search(xs, n, scan, lo, hi, cap, both_ends, windowed, groups=None):
    """Grid argmax ``j`` and cap rows ``at_cap`` of every row of ``xs``, and
    for each group of rows (``groups``: one label in [0, G) per row) the
    index of a row that refuses it, -1 when none does.  The rows of a
    refused group may keep an incomplete ``j``.

    A row with an empty run (lo > hi) refuses its group before any scan,
    and only the rows of the other groups are searched.  Without
    ``groups`` every row is in one group and the refusing row is the first
    one in input order, so only the rows before the first empty run are
    searched.
    """
    labels = np.zeros(xs.size, dtype=np.intp) if groups is None else groups
    refused_by = np.full(int(labels.max()) + 1, -1)
    _name_refusals(refused_by, labels, lo > hi)
    if groups is None:
        rows = slice(0, refused_by[0] if refused_by[0] >= 0 else xs.size)
    else:
        rows = np.flatnonzero(refused_by[labels] < 0)
    x, a, b = xs[rows], lo[rows], hi[rows]
    if windowed:
        jr, top = _sorted_window_argmax(x, n, scan, a, b)
        jr, top = _with_edge_cells(x, scan, a, b, both_ends, jr, top)
    else:
        jr, top = _dense_argmax(x, n, scan, a, b)
    j = np.zeros(xs.size, dtype=np.intp)
    at_cap = np.zeros(xs.size, dtype=bool)
    edge = np.zeros(xs.size, dtype=bool)
    j[rows] = jr
    edge[rows], at_cap[rows] = _edge_rows(x, a, b, jr, top, cap, both_ends)
    if not windowed:
        _name_refusals(refused_by, labels, edge)
        return j, at_cap, refused_by
    # a refusal stands on the dense scan of its row: rounding can break a tie
    # towards an edge cell where the dense scan finds an inner one.  Rows are
    # re-scanned in input order, skipping the groups an earlier row refused.
    for row in np.flatnonzero(edge):
        if 0 <= refused_by[labels[row]] < row:
            continue
        one = slice(row, row + 1)
        j[one], row_top = _dense_argmax(xs[one], n, scan, lo[one], hi[one])
        edge[one], at_cap[one] = _edge_rows(
            xs[one], lo[one], hi[one], j[one], row_top, cap, both_ends
        )
        if edge[row]:
            refused_by[labels[row]] = row
    return j, at_cap, refused_by


def _kink_candidates(refine, xs, lo, hi, kinks):
    """Every row's candidates laid end to end, after their widths: the ends
    of its bracket (lo, hi), then each set's kinks inside it (``kinks`` as
    in ``grid_sup``).  A set's run of more than ``_REFINE_ITERS`` kinks is
    first halved until it holds at most that many, keeping the half beside
    the larger ``refine`` value of its two middle kinks (left on a tie)."""
    parts = []
    width = np.full(xs.size, 2)
    for knots, shifted in kinks:
        shift = np.log(xs) if shifted else np.zeros(xs.size)
        # a NaN row finds every end past the last knot, so holds no kink
        first = np.searchsorted(knots, lo - shift, side="right")
        count = np.searchsorted(knots, hi - shift, side="left") - first
        rows = np.flatnonzero(count > _REFINE_ITERS)
        while rows.size:
            half = count[rows] // 2
            left = first[rows] + half - 1  # the last kink of the left half
            pair = np.concatenate((knots[left], knots[left + 1])) + np.tile(shift[rows], 2)
            values = refine(np.tile(xs[rows], 2), pair)
            right = values[rows.size :] > values[: rows.size]
            first[rows] = np.where(right, left + 1, first[rows])
            count[rows] = np.where(right, count[rows] - half, half)
            rows = rows[count[rows] > _REFINE_ITERS]
        parts.append((knots, shift, first, count))
        width += count
    starts = np.cumsum(width) - width
    cells = np.empty(width.sum())
    cells[starts], cells[starts + 1] = lo, hi
    at = starts + 2
    for knots, shift, first, count in parts:
        cells[_ranges(at, count)] = knots[_ranges(first, count)] + np.repeat(shift, count)
        at = at + count
    return width, cells


def _piecewise_max(refine, xs, lo, mid, hi, breaks):
    """Best of ``parabolic_max_vec`` over the pieces of each row's bracket
    (lo, hi) cut at the ``breaks`` strictly inside it, one call for all the
    pieces; each piece is seeded with its ends and ``mid`` (its centre when
    ``mid`` lies outside it)."""
    width, cells = _kink_candidates(refine, xs, lo, hi, breaks)
    row = np.repeat(np.arange(xs.size), width)
    order = np.lexsort((cells, row))
    cells, row = cells[order], row[order]
    piece = row[1:] == row[:-1]
    at = row[:-1][piece]
    top = parabolic_max_vec(
        refine, xs[at], cells[:-1][piece], mid[at], cells[1:][piece], _REFINE_ITERS
    )
    return np.maximum.reduceat(top, np.cumsum(width - 1) - (width - 1))


def _refined(xs, ys, j, at_cap, refine, floor, cap, kinks=None, breaks=None):
    """Refinement of the grid argmax ``j`` of every row not ``at_cap`` on
    [ys[j-1], ys[j+1]]: without ``kinks``, one ``parabolic_max_vec`` seeded
    with the cells j-1, j and j+1, over the pieces of the bracket cut at
    ``breaks`` (``_piecewise_max``); with them, one ``_run_max`` over every
    row's candidates (``_kink_candidates``)."""
    n = ys.size
    rows = np.flatnonzero(~at_cap)
    x, jr = xs[rows], j[rows]
    lo, hi = ys[np.maximum(jr - 1, 0)], ys[np.minimum(jr + 1, n - 1)]
    if kinks is not None:
        _, best = _run_max(refine, x, *_kink_candidates(refine, x, lo, hi, kinks))
    elif breaks is not None:
        best = _piecewise_max(refine, x, lo, ys[jr], hi, breaks)
    else:
        best = parabolic_max_vec(refine, x, lo, ys[jr], hi, _REFINE_ITERS)
    out = np.full(xs.size, cap)
    out[rows] = np.minimum(np.maximum(best, floor), cap)
    out[np.isnan(xs)] = np.nan
    return out


def edge_refusal(where, x) -> DomainExhaustedError:
    """The error refusing argument ``x`` of a transform whose optimum
    escapes its searched range; ``where`` = (transform, argument name)."""
    name, arg = where
    bad = float(x)
    return DomainExhaustedError(
        f"{name}: optimum at the edge of the searched range for "
        f"{arg}={bad:g}; enlarge the grid or the operands' coverage",
        **{arg: bad},
    )


def grid_sup(
    xs,
    ys,
    scan,
    refine,
    where,
    floor=-math.inf,
    cap=math.inf,
    both_ends=False,
    monotone=False,
    groups=None,
    kinks=None,
    breaks=None,
    runs=None,
):
    """Row-wise supremum over the log grid ``ys``, one row per entry of ``xs``.

    ``scan(x, j)`` returns the objective at the cells (x, ys[j]) and
    ``refine(x, y)`` at the points (x, y); both are only ever called on
    equal-length 1-D arrays, one cell or point per entry.  ``runs`` =
    (lo, hi) holds two int arrays aligned with ``xs``: the columns [lo, hi]
    of each row's run, the cells within the operands' coverage, which may
    be empty (lo > hi); None means [0, n - 1] for every row.  One run per
    row, non-decreasing ends: lo and hi must be non-decreasing in x.
    ``scan`` is only called on cells of a row's run.  The best grid cell j
    of each row is refined on [ys[j-1], ys[j+1]].

    ``kinks`` lists where the objective may change slope, as (knots,
    shifted) pairs of sorted arrays: row x may kink at y = knot, plus log x
    when ``shifted``.  The caller promises that between consecutive kinks
    the objective is convex in y, so a row's maximum on its bracket is the
    best of the bracket's ends and its kinks, evaluated for every row of
    the call in one shared ``refine`` call.  A run of more than 60 kinks of
    one set is first halved by the sign of the objective's rise between its
    two middle kinks (2 points per row per step) until it holds at most 60,
    which assumes the objective's values at each set's kinks unimodal, as
    they are when it is concave.  The envelopes pass the knots of their
    piecewise-linear operands here; the conjugate, phi* and sequence
    recovery of such an operand never reach the kernel, since ``functions``
    answers them exactly from the operand's knots.

    Without ``kinks``, rows take safeguarded parabolic refinement
    (``parabolic_max_vec``) seeded with the cells j-1, j and j+1, which is
    meant for smooth pieces: it assumes the objective concave near its
    maximum and without kinks in the bracket.  ``breaks``, in the form of
    ``kinks``, lists where the objective may kink with no promise about the
    pieces between: a row's bracket is cut there and each piece refined on
    its own, after a run of more than 60 breaks of one set is halved as
    for ``kinks``, which assumes the same unimodality.

    The best cell is the leftmost grid argmax within the run.  ``monotone``
    states that it is non-decreasing in x, which holds (Topkis) when the
    objective has increasing differences in (x, y): for x * phi(y) - psi(y)
    with phi increasing, and for -g(x - y) or -g(y - x) with g convex.
    Callers set it from the form of their objective, the envelopes from the
    kind of tau.  The argmax is then found by the sorted-window divide and
    conquer in O((n + k) log k) cells whenever that saves cells; otherwise,
    and for every objective not known to be monotone, by the dense scan.
    In exact arithmetic both find the same cell.  In floating point
    increasing differences hold up to rounding, so the two may pick
    different near-tied cells, whose values differ by a few ulps; the
    windowed route therefore also compares the cells the edge test refuses
    (``_with_edge_cells``) and confirms each row it would refuse by the
    row's own dense scan, so that both routes refuse the same rows.

    ``floor`` is the value of a competing endpoint outside the grid and
    ``cap`` an exact upper bound of the supremum; a row whose grid maximum
    comes within 1e-12 of the cap sits on a plateau and is answered by the
    cap.  Any other argmax on the right end of its run (also the left end
    with ``both_ends``), and every row with an empty run, may hide the
    supremum outside the searched range: such a row is refused.  Empty-run
    rows are refused before any scan.  NaN arguments are searched on the
    whole grid and give NaN.

    Without ``groups`` the first refused row of ``xs`` raises
    :class:`DomainExhaustedError`; ``where`` = (transform, argument name)
    labels the message and ``details``.  Only the rows before the first
    empty run are searched, and the windowed route re-scans the rows it
    would refuse in input order up to the first one confirmed.

    ``groups`` holds one integer label in [0, G) per row, and rows that
    share a label are refused together: the call returns (values, refused)
    instead of raising, where ``refused`` has one entry per label up to the
    largest and the values of a refused group are NaN.  A group with an
    empty-run row is refused before the search, the rows to confirm are
    re-scanned in input order skipping the groups already refused, and only
    the rows of accepted groups are refined.  A group is refused exactly
    when a call on its rows alone would raise, since both routes refuse the
    same rows; its accepted values agree with that call's up to the
    rounding of near-tied cells (bit-identical when both calls find the
    same cells).
    """
    xs = np.asarray(xs, dtype=float)
    if groups is not None:
        groups = np.asarray(groups, dtype=np.intp)
    if xs.size == 0:
        return xs.copy() if groups is None else (xs.copy(), np.zeros(0, dtype=bool))
    n = ys.size
    lo, hi = (0, n - 1) if runs is None else runs
    nan = np.isnan(xs)
    lo, hi = np.where(nan, 0, lo), np.where(nan, n - 1, hi)
    windowed = monotone and _saving(xs.size, n) >= 0
    j, at_cap, refused_by = _search(
        xs, n, scan, lo, hi, cap, both_ends, windowed, groups
    )
    if groups is None:
        if refused_by[0] >= 0:
            raise edge_refusal(where, xs[refused_by[0]])
        return _refined(xs, ys, j, at_cap, refine, floor, cap, kinks, breaks)
    refused = refused_by >= 0
    keep = ~refused[groups]
    out = np.full(xs.size, np.nan)
    out[keep] = _refined(
        xs[keep], ys, j[keep], at_cap[keep], refine, floor, cap, kinks, breaks
    )
    return out, refused
