"""Reference routes for the benchmark's outputs, in plain numpy.

Nothing here calls ``weightcalc``: every reference is either a closed form
or exact sequence algebra evaluated independently of the library's grid
scans, so a library defect cannot hide in its own oracle.  Tolerances are
the library's documented ones: 1e-4 relative for closed forms, 1e-3 for
transforms, +-0.05 for index estimates.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL_CLOSED_FORM = 1e-4
REL_TOL_TRANSFORM = 1e-3
INDEX_TOL = 0.05
ORDER_TOL = 1e-8


def rel_dev(a, b, floor: float = 0.0) -> float:
    """Worst deviation relative to max(|a|, |b|, floor), as the library's
    checks scale it; ``floor`` makes it absolute for values near 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    scale = np.where(scale > 0, scale, 1.0)
    return float(np.max(np.abs(a - b) / scale))


def agree(name: str, got, want, tol: float, floor: float = 0.0):
    """None when ``got`` matches ``want`` to ``tol``, else a failure reason."""
    if np.shape(got) != np.shape(want):
        return f"{name}: shape {np.shape(got)} != {np.shape(want)}"
    dev = rel_dev(got, want, floor)
    if not dev <= tol:
        return f"{name}: relative deviation {dev:.3e} > {tol:g}"
    return None


def log_factorials(p_max: int) -> np.ndarray:
    return np.array([math.lgamma(p + 1.0) for p in range(p_max + 1)])


def convex(log_values, tol: float = 0.0) -> bool:
    """Second differences of log M are >= -tol everywhere."""
    lv = np.asarray(log_values, dtype=float)
    return bool(np.all(lv[:-2] + lv[2:] - 2.0 * lv[1:-1] >= -tol))


# ---------------------------------------------------------------------------
# associated functions through the counting-function integral
# ---------------------------------------------------------------------------


def associated(log_values, ts) -> np.ndarray:
    """omega_M(t) = sum_{mu_k <= t} (log t - log mu_k) for log-convex M.

    Beyond mu_Pmax every quotient counts, which is the same continuation
    along the last segment the library uses.
    """
    lv = np.asarray(log_values, dtype=float)
    logmu = np.diff(lv)
    prefix = np.concatenate(([0.0], np.cumsum(logmu)))
    ts = np.asarray(ts, dtype=float)
    out = np.zeros_like(ts)
    pos = ts > 0
    lts = np.log(ts[pos])
    count = np.searchsorted(logmu, lts, side="right")
    out[pos] = count * lts - prefix[count]
    return out


def associated_conjugate(log_values, ss, t_cap: float) -> np.ndarray:
    """sup_{0 <= t <= t_cap} (s t - omega_M(t)) by exact piecewise algebra.

    On [mu_p, mu_{p+1}] the objective s t - p log t + L_p is convex in t, so
    the supremum sits on a breakpoint mu_p or at t = 0 (value 0).
    """
    lv = np.asarray(log_values, dtype=float)
    logmu = np.diff(lv)
    inside = logmu <= math.log(t_cap)
    p = np.arange(1, lv.size)[inside]
    lm = logmu[inside]
    cum = (lv[1:] - lv[0])[inside]
    ss = np.asarray(ss, dtype=float)
    vals = ss[:, None] * np.exp(lm)[None, :] - (p * lm - cum)[None, :]
    return np.maximum(np.max(vals, axis=1), 0.0)


def phi_star_associated(log_values, xs) -> np.ndarray:
    """phi*(x) of omega_M(e^y) is the linear interpolation of log M_p - log M_0."""
    lv = np.asarray(log_values, dtype=float)
    return np.interp(xs, np.arange(lv.size, dtype=float), lv - lv[0])


# ---------------------------------------------------------------------------
# closed forms for power weights t -> t^(1/alpha)
# ---------------------------------------------------------------------------


def power(alpha: float, ts) -> np.ndarray:
    return np.power(np.asarray(ts, dtype=float), 1.0 / alpha)


def power_conjugate(alpha: float, ss) -> np.ndarray:
    """Conjugate of t^(1/alpha), 0 < alpha < 1 (the GEVREY_CONJ formula)."""
    coeff = alpha ** (alpha / (1 - alpha)) - alpha ** (1 / (1 - alpha))
    return np.power(np.asarray(ss, dtype=float), 1.0 / (1.0 - alpha)) * coeff


def power_envelope_lower(p: float, q: float, ts) -> np.ndarray:
    """min_s s^p + (t/s)^q, attained at s^(p+q) = (q/p) t^q."""
    ts = np.asarray(ts, dtype=float)
    s = ((q / p) * ts**q) ** (1.0 / (p + q))
    return s**p + (ts / s) ** q


def power_envelope_upper(p: float, q: float, ts) -> np.ndarray:
    """max_s s^p - (s/t)^q for q > p, attained at s^(q-p) = (p/q) t^q."""
    ts = np.asarray(ts, dtype=float)
    s = ((p / q) * ts**q) ** (1.0 / (q - p))
    return np.maximum(s**p - (s / ts) ** q, 0.0)


def power_phi_star(alpha: float, xs) -> np.ndarray:
    """sup_{y >= 0} x y - e^(y/alpha): stationary at e^(y/alpha) = alpha x."""
    xs = np.asarray(xs, dtype=float)
    ax = alpha * xs
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(ax >= 1.0, xs * alpha * np.log(ax) - ax, -1.0)
    return np.maximum(inner, -1.0)
