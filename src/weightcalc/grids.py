"""Grids, tail windows, the scan-and-refine kernel and the finite-window
trend heuristics.

Every sup/inf transform of the package (conjugate, the two Legendre
envelopes, sequence recovery and the Young conjugate phi*) is one call of
``grid_sup``: a dense scan of the objective on a log grid, an edge test that
refuses an optimum outside the searched range, and golden-section refinement
of the winning cell.

Asymptotic statements (limits, O/o relations) are undecidable from finite
data.  Every detector here is an estimator over a declared window and the
window parameters travel with the verdicts that use them.  The shared
heuristics are:

* ``decays_to_zero`` -- a sampled ratio behaves like o(1): the four
  quarter-window maxima strictly decrease and the tail has dropped by a
  window-size-aware factor (``span ** -DECAY_EXPONENT``), so a wide window
  demands a deep drop while a narrow one only a shallow drop.
* ``diverges`` -- the quarter maxima strictly increase and the last quarter
  still rises by a margin, which separates growth to infinity from
  convergence-from-below to a finite limit.
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
    quarters = np.array_split(vals, 4)
    return np.array([q.max() for q in quarters])


def decays_to_zero(ratios, span):
    """Finite-window proxy for ``ratios -> 0`` over a window of given span."""
    ratios = np.asarray(ratios, dtype=float)
    qm = quarter_maxima(ratios)
    if not np.all(np.diff(qm) < 0):
        return False
    demanded = qm[0] * span ** (-DECAY_EXPONENT)
    return bool(qm[3] <= demanded)


def diverges(log_values):
    """Finite-window proxy for an (additively scaled) sequence -> +infinity."""
    vals = np.asarray(log_values, dtype=float)
    qm = quarter_maxima(vals)
    if not np.all(np.diff(qm) > 0):
        return False
    return bool(qm[3] - qm[2] > DIVERGENCE_RISE)


def golden_max_vec(f, lo, hi, iters=60):
    """Vectorised golden-section maximisation.

    ``lo``/``hi`` are arrays of per-problem brackets and ``f`` maps an array
    of points to an array of values (applied elementwise).  Returns
    (argmax array, max array).  Spends two evaluations per iteration to keep
    the bracket update branch-free.
    """
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    h = b - a
    c = a + INV_PHI_SQ * h
    d = a + INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(iters):
        left = yc > yd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        h = b - a
        c = a + INV_PHI_SQ * h
        d = a + INV_PHI * h
        yc = f(c)
        yd = f(d)
    best_c = yc >= yd
    x = np.where(best_c, c, d)
    y = np.where(best_c, yc, yd)
    return x, y


def grid_sup(
    xs, ys, scan, refine, where, floor=-math.inf, cap=math.inf, both_ends=False
):
    """Row-wise supremum over the log grid ``ys``, one row per entry of ``xs``.

    ``scan(chunk)`` returns the objective of the arguments ``chunk`` on the
    whole grid, shape (len(chunk), len(ys)), together with the mask of cells
    beyond the operands' coverage (or None); ``refine(chunk, y)`` evaluates
    the objective at one point ``y`` per row.  The best grid cell j of each
    row is refined by golden section on [ys[j-1], ys[j+1]], which assumes the
    objective unimodal near its maximum.

    ``floor`` is the value of a competing endpoint outside the grid and
    ``cap`` an exact upper bound of the supremum; a row whose grid maximum
    comes within 1e-12 of the cap sits on a plateau and is answered by the
    cap.  Any other argmax on the right end of the grid (also the left
    end with ``both_ends``) or next to a masked cell may hide the supremum
    outside the searched range and raises :class:`DomainExhaustedError`;
    ``where`` = (transform, argument name) labels the message and
    ``details``.  NaN arguments give NaN.
    """
    xs = np.asarray(xs, dtype=float)
    n = ys.size
    out = np.empty_like(xs)
    chunk = max(1, _SCAN_CHUNK_CELLS // n)
    for start in range(0, xs.size, chunk):
        sub = xs[start : start + chunk]
        rows = np.arange(sub.size)
        obj, masked = scan(sub)
        if masked is not None:
            obj[masked] = -np.inf
        j = np.argmax(obj, axis=1)
        prev, nxt = np.maximum(j - 1, 0), np.minimum(j + 1, n - 1)
        at_cap = (obj[rows, j] >= cap - _CAP_TOL) & math.isfinite(cap)
        edge = j == n - 1
        if both_ends:
            edge |= j == 0
        if masked is not None:
            edge |= masked[rows, nxt]
            if both_ends:
                edge |= masked[rows, prev]
        edge &= ~at_cap & ~np.isnan(sub)
        if np.any(edge):
            name, arg = where
            bad = float(sub[np.argmax(edge)])
            raise DomainExhaustedError(
                f"{name}: optimum at the edge of the searched range for "
                f"{arg}={bad:g}; enlarge the grid or the operands' coverage",
                **{arg: bad},
            )
        _, best = golden_max_vec(lambda y: refine(sub, y), ys[prev], ys[nxt])
        best = np.minimum(np.maximum(best, floor), cap)
        out[start : start + chunk] = np.where(at_cap, cap, best)
    out[np.isnan(xs)] = np.nan
    return out
