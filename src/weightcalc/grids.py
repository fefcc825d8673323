"""Grids, tail windows, the scan-and-refine kernel and the finite-window
trend heuristics.

Every sup/inf transform of the package (conjugate, the two Legendre
envelopes, sequence recovery and the Young conjugate phi*) is one call of
``grid_sup``: a search for each argument's leftmost grid argmax on a log
grid, an edge test that refuses an optimum outside the searched range, and
refinement of the winning cell.  Each argument is searched on its run of
grid columns, the cells within the operands' coverage, which the caller
passes in: one run per row, with ends non-decreasing in the argument.  A
row whose run is empty is refused before any scan.  Refinement takes the
best of the cell's bracket ends and the kinks inside it when the objective
is piecewise convex with known kinks (operands piecewise linear in log t,
such as associated functions) and the bracket holds at most 60 of them,
the breakpoint view of Lucet (1997); otherwise it runs golden section.

Every set of cells the kernel evaluates (the dense scan, each level of the
windowed search, the edge cells, the kink candidates) is one run of cells
per row, laid end to end and evaluated in one flat call, each row's
leftmost maximum taken by ``np.maximum.reduceat`` (``_run_max``): the
objective callbacks only ever see equal-length 1-D arrays.

The argmax search has two routes.  The dense scan evaluates k x n cells
and is correct for any objective.  The sorted-window divide and
conquer (the monotone-matrix search of Aggarwal et al., 1987) scans about
(n + k) log2(k) cells and, in exact arithmetic, finds the same cell when
the leftmost argmax is non-decreasing in the argument x (rounding is
handled in ``grid_sup``).  By Topkis's monotone comparative statics
that holds when the objective has increasing differences in (x, y):

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainExhaustedError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

#: Decay demanded of an o(1) ratio across a window spanning ``span`` decades:
#: tail <= head * span**-DECAY_EXPONENT.
DECAY_EXPONENT = 0.15

#: Log-scale rise of the last quarter required to call a sequence divergent.
DIVERGENCE_RISE = 0.05

#: Objective cells of one dense-scan chunk in ``grid_sup``.
_SCAN_CHUNK_CELLS = 4_000_000
#: A row whose grid maximum comes this close to the exact cap is answered by it.
_CAP_TOL = 1e-12
#: Golden-section iterations of a refinement in ``grid_sup``, and the most
#: kinks a row's bracket may hold to be refined at its kinks instead.
_REFINE_ITERS = 60
#: Golden-section iterations run before the convergence test may stop the loop.
_GOLDEN_MIN_ITERS = 20
#: Relative spread of the values on a golden-section bracket at which the
#: row stops.
_GOLDEN_RTOL = 1e-15


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced evaluation grid for sup/inf transforms."""

    t_min: float = 1e-2
    t_max: float = 1e8
    n: int = 2048

    def __post_init__(self):
        if not (self.t_min > 0 and self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.n < 64:
            raise ValueError("grid needs at least 64 points")

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
            raise ValueError("need 0 < t_lo < t_hi")

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


def diverges(log_values):
    """Finite-window proxy for an (additively scaled) sequence -> +infinity."""
    qm = quarter_maxima(log_values)
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


def _ranges(first, width):
    """The integer ranges [first, first + width) laid end to end."""
    return np.arange(width.sum()) + np.repeat(first - (np.cumsum(width) - width), width)


def _run_max(f, xs, cells, width):
    """Leftmost maximum of ``f`` over each row's run of cells.

    ``cells`` lays the runs of the rows ``xs`` end to end and ``width``
    holds their lengths, each at least 1.  ``f(x, cells)`` is called once,
    on equal-length 1-D arrays, ``x`` repeating each row's argument over its
    run.  Returns the cell at each row's leftmost maximum and the maximum;
    a NaN cell wins, as in ``np.argmax``.
    """
    starts = np.cumsum(width) - width
    obj = f(np.repeat(xs, width), cells)
    best = np.maximum.reduceat(obj, starts)
    hit = obj == np.repeat(best, width)
    if np.isnan(best).any():
        hit |= np.isnan(obj)
    hits = np.flatnonzero(hit)
    return cells[hits[np.searchsorted(hits, starts)]], best


def _dense_argmax(xs, n, scan, lo, hi):
    """Leftmost grid argmax and grid maximum of every row within its
    non-empty run of columns [lo, hi], scanning the runs of
    ``_SCAN_CHUNK_CELLS // n`` rows at a time."""
    j = np.empty(xs.size, dtype=np.intp)
    top = np.empty(xs.size)
    chunk = max(1, _SCAN_CHUNK_CELLS // n)
    for start in range(0, xs.size, chunk):
        rows = slice(start, start + chunk)
        width = hi[rows] - lo[rows] + 1
        j[rows], top[rows] = _run_max(scan, xs[rows], _ranges(lo[rows], width), width)
    return j, top


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
    """
    j = np.zeros(xs.size, dtype=np.intp)
    top = np.full(xs.size, np.nan)
    order = np.argsort(xs, kind="stable")
    order = order[~np.isnan(xs[order])]
    # one column per block [a, b) of ``order``, with its column window [wlo, whi]
    blocks = np.array([[0], [order.size], [0], [n - 1]])
    blocks = blocks[:, blocks[0] < blocks[1]]
    while blocks.shape[1]:
        a, b, wlo, whi = blocks
        mid = (a + b) // 2
        rows = order[mid]
        first = np.maximum(wlo, lo[rows])
        width = np.minimum(whi, hi[rows]) - first + 1
        jm, top[rows] = _run_max(scan, xs[rows], _ranges(first, width), width)
        j[rows] = jm
        blocks = np.concatenate(
            (np.stack((a, mid, wlo, jm)), np.stack((mid + 1, b, jm, whi))), axis=1
        )
        blocks = blocks[:, blocks[0] < blocks[1]]
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
    cells = np.stack([end[live] for end in ends], axis=1).ravel()
    col, best = _run_max(scan, xs[live], cells, np.full(live.size, len(ends)))
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
    rows = np.flatnonzero(rows)
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
        rows = np.arange(refused_by[0] if refused_by[0] >= 0 else xs.size)
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


def _kink_candidates(xs, lo, hi, kinks):
    """The rows of ``xs`` whose bracket (lo, hi) holds at most
    ``_REFINE_ITERS`` kinks (a mask), and their candidates laid end to end
    with their widths: each row's two ends, then its kinks, 2 + count
    points.  ``kinks`` is as in ``grid_sup``."""
    parts = []
    count = np.zeros(xs.size, dtype=np.intp)
    for knots, shifted in kinks:
        shift = np.log(xs) if shifted else np.zeros(xs.size)
        # a NaN row finds every end past the last knot, so holds no kink
        first = np.searchsorted(knots, lo - shift, side="right")
        last = np.searchsorted(knots, hi - shift, side="left")
        parts.append((knots, shift, first, last - first))
        count += last - first
    exact = count <= _REFINE_ITERS
    width = 2 + count[exact]
    starts = np.cumsum(width) - width
    cells = np.empty(width.sum())
    cells[starts], cells[starts + 1] = lo[exact], hi[exact]
    at = starts + 2
    for knots, shift, first, inside in parts:
        inside = inside[exact]
        cells[_ranges(at, inside)] = (
            knots[_ranges(first[exact], inside)] + np.repeat(shift[exact], inside)
        )
        at = at + inside
    return exact, cells, width


def _refined(xs, ys, j, at_cap, refine, floor, cap, kinks=None):
    """Refinement of the grid argmax ``j`` of every row on [ys[j-1],
    ys[j+1]]: one ``_run_max`` over the candidates of the rows with at most
    ``_REFINE_ITERS`` kinks (``_kink_candidates``), one ``golden_max_vec``
    call for the other rows."""
    n = ys.size
    lo, hi = ys[np.maximum(j - 1, 0)], ys[np.minimum(j + 1, n - 1)]
    best = np.empty(xs.size)
    exact = np.zeros(xs.size, dtype=bool)
    if kinks is not None:
        exact, cells, width = _kink_candidates(xs, lo, hi, kinks)
        if exact.any():
            _, best[exact] = _run_max(refine, xs[exact], cells, width)
    if not exact.all():
        x = xs[~exact]
        _, best[~exact] = golden_max_vec(
            lambda y: refine(x, y), lo[~exact], hi[~exact], _REFINE_ITERS
        )
    best = np.minimum(np.maximum(best, floor), cap)
    out = np.where(at_cap, cap, best)
    out[np.isnan(xs)] = np.nan
    return out


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
    the objective is convex in y.  A row whose bracket holds at most 60
    kinks is then answered exactly by the best of the bracket's ends and
    its kinks: every such row of the call shares one ``refine`` call of
    2 + count points per row.  Other rows, and every row without
    ``kinks``, take golden section (``golden_max_vec``: one ``refine`` call
    per iteration, until the row's bracket values agree to rounding or 60
    iterations), which assumes the objective unimodal near its maximum.

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
            name, arg = where
            bad = float(xs[refused_by[0]])
            raise DomainExhaustedError(
                f"{name}: optimum at the edge of the searched range for "
                f"{arg}={bad:g}; enlarge the grid or the operands' coverage",
                **{arg: bad},
            )
        return _refined(xs, ys, j, at_cap, refine, floor, cap, kinks)
    refused = refused_by >= 0
    keep = ~refused[groups]
    out = np.full(xs.size, np.nan)
    out[keep] = _refined(
        xs[keep], ys, j[keep], at_cap[keep], refine, floor, cap, kinks
    )
    return out, refused
