"""Named verification checks over concrete weight families.

Every check validates its hypotheses first and reports SKIPPED when they
fail (hypothesis failure is not falsification), then runs its numeric
assertions and reports PASS/FAIL with the worst margin (tolerance minus
worst observed deviation; PASS iff >= 0) and the witness constants found by
scanning.  Checks are pure: identical parameters produce identical reports.

Default tolerances: closed-form comparisons 1e-4 relative, transform
identities 1e-3 relative, index estimates +-0.05, inequality margins
-1e-9 after constant scans.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bmt
from . import functions as fn
from . import sequences as sq
from .errors import CapacityError, PreconditionError, UsageError, WellDefinednessError
from .grids import GridSpec, TailWindow, quarter_maxima, stopped_rising

REL_TOL_CLOSED_FORM = 1e-4
REL_TOL_TRANSFORM = 1e-3
INDEX_TOL = 0.05
INEQ_TOL = 1e-9


@dataclass
class CheckReport:
    check_id: str
    params: dict
    status: str  # PASS / FAIL / SKIPPED
    worst_margin: float
    witnesses: dict = field(default_factory=dict)
    window: dict = field(default_factory=dict)
    detail: str = ""

    def as_dict(self):
        return {
            "check_id": self.check_id,
            "params": self.params,
            "status": self.status,
            "worst_margin": self.worst_margin,
            "witnesses": self.witnesses,
            "window": self.window,
            "detail": self.detail,
        }


class _Margins:
    """Collects named margins; PASS iff all >= 0; remembers the worst.

    A margin may carry the sample point it was worst at, so FAIL reports
    can name the violating sample.
    """

    def __init__(self):
        self.items: dict = {}
        self.samples: dict = {}

    def add(self, name: str, margin: float, sample=None):
        self.items[name] = float(margin)
        if sample is not None:
            self.samples[name] = sample

    def bound(self, name: str, ok: bool):
        self.items[name] = 1.0 if ok else -1.0

    def rel(self, name: str, observed: float, tol: float, sample=None):
        self.add(name, tol - observed, sample)

    def rel_arrays(self, name: str, a, b, tol: float, samples) -> None:
        """Relative agreement of two arrays, tracking the worst sample."""
        scale = np.maximum(np.abs(a), np.abs(b))
        scale = np.where(scale > 0, scale, 1.0)
        devs = np.abs(a - b) / scale
        worst = int(np.argmax(devs))
        self.add(name, tol - float(devs[worst]), float(samples[worst]))

    def slack_array(self, name: str, slack, tol: float, samples) -> None:
        """Minimum slack of a pointwise inequality, tracking the sample."""
        worst = int(np.argmin(slack))
        self.add(name, float(slack[worst]) + tol, float(samples[worst]))

    @property
    def worst(self) -> tuple[str, float]:
        name = min(self.items, key=self.items.get)
        return name, self.items[name]


_REGISTRY: dict[str, Callable[..., CheckReport]] = {}


def register(check_id: str):
    def deco(func):
        _REGISTRY[check_id] = func
        return func

    return deco


def available_checks() -> list[str]:
    return sorted(_REGISTRY)


def run_check(check_id: str, params: Optional[dict] = None) -> CheckReport:
    if check_id not in _REGISTRY:
        raise UsageError(
            f"unknown check id {check_id!r}; known: {', '.join(available_checks())}"
        )
    check = _REGISTRY[check_id]
    accepted = inspect.signature(check).parameters
    unknown = sorted(set(params or {}) - set(accepted))
    if unknown:
        raise UsageError(
            f"check {check_id} takes no parameter {', '.join(unknown)}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )
    return check(**(params or {}))


def run_all(ids=None) -> list[CheckReport]:
    ids = list(ids) if ids else available_checks()
    return [run_check(cid) for cid in ids]


def _finish(check_id, params, margins: _Margins, witnesses, window, detail="") -> CheckReport:
    name, worst = margins.worst
    status = "PASS" if worst >= 0 else "FAIL"
    witnesses = dict(witnesses)
    witnesses["margins"] = {k: v for k, v in margins.items.items()}
    if status == "FAIL":
        detail = (detail + f" worst assertion: {name}").strip()
        if name in margins.samples:
            witnesses["violating_sample"] = margins.samples[name]
            detail += f" at sample {margins.samples[name]:g}"
    return CheckReport(
        check_id=check_id,
        params=params,
        status=status,
        worst_margin=worst,
        witnesses=witnesses,
        window=window,
        detail=detail,
    )


def _skip(check_id, params, reason) -> CheckReport:
    return CheckReport(
        check_id=check_id,
        params=params,
        status="SKIPPED",
        worst_margin=0.0,
        detail=reason,
    )


def _log_samples(lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


# ---------------------------------------------------------------------------
# conjugate and envelope identities
# ---------------------------------------------------------------------------


@register("GEVREY_CONJ")
def check_gevrey_conj(alpha: float = 0.5, n_samples: int = 128) -> CheckReport:
    """Numeric conjugate of the Gevrey weight against its closed form."""
    params = {"alpha": alpha, "n_samples": n_samples}
    if not (0 < alpha < 1):
        return _skip("GEVREY_CONJ", params, "closed form needs 0 < alpha < 1")
    sigma = fn.power_weight(alpha)
    star = fn.conjugate(sigma, GridSpec(1e-2, 1e13, 4096))
    ss = _log_samples(1.0, 1e4, n_samples)
    coeff = alpha ** (alpha / (1 - alpha)) - alpha ** (1 / (1 - alpha))
    exact = ss ** (1 / (1 - alpha)) * coeff
    margins = _Margins()
    margins.rel_arrays(
        "closed_form", star.evaluate_many(ss), exact, REL_TOL_CLOSED_FORM, ss
    )
    return _finish(
        "GEVREY_CONJ",
        params,
        margins,
        {"coefficient": coeff},
        {"s": [1.0, 1e4]},
    )


@register("BICONJ_CONVEX")
def check_biconj(alphas=(0.5, 0.75)) -> CheckReport:
    """Double conjugate reproduces convex weights and minorizes any weight."""
    params = {"alphas": list(alphas)}
    margins = _Margins()
    ts = _log_samples(1.0, 1e3, 128)
    for alpha in alphas:
        f0 = fn.power_weight(alpha)
        bi = fn.biconjugate(f0)
        margins.rel_arrays(
            f"convex_roundtrip_alpha={alpha:g}",
            bi.evaluate_many(ts),
            f0.evaluate_many(ts),
            REL_TOL_TRANSFORM,
            ts,
        )
    # deliberately non-convex monotone sample set
    base = _log_samples(1e-2, 1e6, 400)
    wiggly = base**1.5 * (1.2 + 0.2 * np.sin(np.log(base)))
    sampled = fn.from_samples(base, wiggly, name="wiggly")
    bi = fn.biconjugate(sampled)
    probe = _log_samples(1.0, 1e4, 128)
    upper = sampled.evaluate_many(probe)
    lower = bi.evaluate_many(probe)
    margins.slack_array(
        "minorant_inequality", upper * (1 + 1e-9) + 1e-9 - lower, INEQ_TOL, probe
    )
    return _finish("BICONJ_CONVEX", params, margins, {}, {"t": [1.0, 1e3]})


@register("ENV_DUALITY")
def check_env_duality(
    alpha_sigma: float = 0.5, alpha_tau: float = 0.25, n_samples: int = 128
) -> CheckReport:
    """Conjugate of the lower envelope against both upper-envelope forms.

    The upper-envelope argmax for power weights sits at s ~ t^3, so the
    conjugates feeding the envelopes need a grid far taller than the sample
    range.
    """
    params = {"alpha_sigma": alpha_sigma, "alpha_tau": alpha_tau}
    wide = GridSpec(1e-2, 1e19, 4096)
    sigma = fn.power_weight(alpha_sigma)
    tau = fn.power_weight(alpha_tau)
    if not (fn.c1_holds(sigma) and fn.c1_holds(tau)):
        return _skip("ENV_DUALITY", params, "operands must vanish at 0")
    low = fn.envelope_lower(sigma, tau, wide)
    if not fn.c2_proxy(low):
        return _skip(
            "ENV_DUALITY",
            params,
            "lower envelope is sublinear so its conjugate diverges (the "
            "pair needs alpha_sigma + alpha_tau < 1 in Gevrey indices)",
        )
    # outer transforms only need argmax coverage for the sample range
    # (s ~ t^3 <= 1e6); the inner transforms keep the tall grid
    outer = GridSpec(1e-2, 1e7, 4096)
    try:
        a = fn.envelope_upper(fn.conjugate(tau, wide), sigma, outer)
        b = fn.conjugate(low, outer)
        c = fn.envelope_upper(fn.conjugate(sigma, wide), tau, outer)
        d = fn.envelope_upper(
            fn.envelope_upper(fn.identity_weight(), tau, wide), sigma, outer
        )
    except WellDefinednessError as exc:
        return _skip("ENV_DUALITY", params, f"envelope hypothesis failed: {exc}")
    ts = _log_samples(1.0, 100.0, n_samples)
    va, vb, vc, vd = (x.evaluate_many(ts) for x in (a, b, c, d))
    margins = _Margins()
    margins.rel_arrays("tau*_up_sigma == (sigma_low_tau)*", va, vb, REL_TOL_TRANSFORM, ts)
    margins.rel_arrays("(sigma_low_tau)* == sigma*_up_tau", vb, vc, REL_TOL_TRANSFORM, ts)
    margins.rel_arrays("sigma*_up_tau == (id_up_tau)_up_sigma", vc, vd, REL_TOL_TRANSFORM, ts)
    return _finish("ENV_DUALITY", params, margins, {}, {"t": [1.0, 100.0]})


# ---------------------------------------------------------------------------
# growth indices
# ---------------------------------------------------------------------------


@register("INDEX")
def check_index(alphas=(0.25, 0.5, 0.75, 1.5)) -> CheckReport:
    """Index estimates of Gevrey weights and the power-substitution law."""
    params = {"alphas": list(alphas)}
    margins = _Margins()
    witnesses = {}
    for alpha in alphas:
        est = fn.gamma_indices(fn.power_weight(alpha))
        margins.rel(f"gamma_alpha={alpha:g}", abs(est.gamma - alpha), INDEX_TOL)
        margins.rel(f"gammabar_alpha={alpha:g}", abs(est.gamma_bar - alpha), INDEX_TOL)
        witnesses[f"alpha={alpha:g}"] = (est.gamma, est.gamma_bar)
    base = fn.power_weight(0.5)
    base_est = fn.gamma_indices(base)
    for a in (0.5, 2.0):
        est = fn.gamma_indices(fn.power_substitution(base, a))
        margins.rel(
            f"substitution_a={a:g}", abs(est.gamma - a * base_est.gamma), 0.1
        )
    return _finish("INDEX", params, margins, witnesses, {"t": [1e3, 1e7]})


@register("INDEX_TRANSFER")
def check_index_transfer(alpha: float = 0.3) -> CheckReport:
    """Indices of the conjugate weight against 1 - indices of the weight."""
    params = {"alpha": alpha}
    if not (0 < alpha < 1):
        return _skip("INDEX_TRANSFER", params, "transfer needs 0 < alpha < 1")
    sigma = fn.power_weight(alpha)
    star = fn.conjugate(sigma, GridSpec(1e-2, 1e16, 4096))
    est = fn.gamma_indices(star)
    margins = _Margins()
    margins.rel("gamma_conjugate", abs(est.gamma - (1 - alpha)), INDEX_TOL)
    margins.rel("gammabar_conjugate", abs(est.gamma_bar - (1 - alpha)), INDEX_TOL)
    return _finish(
        "INDEX_TRANSFER",
        params,
        margins,
        {"gamma": est.gamma, "gamma_bar": est.gamma_bar},
        {"t": list(est.tail_window)},
    )


# ---------------------------------------------------------------------------
# growth-relation transfer under conjugation
# ---------------------------------------------------------------------------


@register("REL_TRANSFER")
def check_rel_transfer(
    alpha_sigma: float = 0.5, alpha_tau: float = 0.75, n_samples: int = 64
) -> CheckReport:
    """Conjugation reverses the O/o and dilation relations with the scanned
    constants."""
    params = {"alpha_sigma": alpha_sigma, "alpha_tau": alpha_tau}
    sigma = fn.power_weight(alpha_sigma)  # faster growth
    tau = fn.power_weight(alpha_tau)
    wide = _log_samples(1e-6, 1e7, 4096)
    sig_w, tau_w = sigma.evaluate_many(wide), tau.evaluate_many(wide)
    if float(np.max(tau_w - 1e6 * sig_w)) > 0:
        return _skip("REL_TRANSFER", params, "pair is not ordered tau = O(sigma)")
    tall = GridSpec(1e-2, 1e13, 4096)
    sigma_star = fn.conjugate(sigma, tall)
    tau_star = fn.conjugate(tau, tall)
    ss = _log_samples(1.0, 1e3, n_samples)
    vs_star = sigma_star.evaluate_many(ss)
    margins = _Margins()
    witnesses = {}

    # multiplicative transfer: tau <= C sigma + C gives C sigma*(s) <= tau*(sC) + C
    # (the additive C absorbs the small-t region where sigma vanishes faster)
    c_mult = max(1.0, float(np.max(tau_w / (sig_w + 1.0))))
    rhs = tau_star.evaluate_many(ss * c_mult) + c_mult
    margins.slack_array(
        "multiplicative_transfer",
        (rhs - c_mult * vs_star) / np.maximum(np.abs(rhs), 1.0),
        INEQ_TOL,
        ss,
    )
    witnesses["C_multiplicative"] = c_mult

    # dilation transfer: tau <= sigma(h .) + C gives sigma*(s) <= tau*(sh) + C
    h_dil = 1.0
    c_dil = max(0.0, float(np.max(tau_w - sigma.evaluate_many(h_dil * wide))))
    rhs = tau_star.evaluate_many(ss * h_dil) + c_dil
    margins.slack_array(
        "dilation_transfer",
        (rhs - vs_star) / np.maximum(np.abs(rhs), 1.0),
        INEQ_TOL,
        ss,
    )
    witnesses["h"] = h_dil
    witnesses["C_dilation"] = c_dil

    # little-o transfer: for c < 1, c sigma*(s) <= tau*(sc) + D_c
    for c_small in (0.5, 0.25):
        d_c = max(0.0, float(np.max(tau_w - c_small * sig_w)))
        rhs = tau_star.evaluate_many(ss * c_small) + d_c
        margins.slack_array(
            f"little_o_transfer_c={c_small:g}",
            (rhs - c_small * vs_star) / np.maximum(np.abs(rhs), 1.0),
            INEQ_TOL,
            ss,
        )
        witnesses[f"D_c={c_small:g}"] = d_c

    # verdict-level reversal on the conjugates
    verdict = fn.relation_fn(tau_star, sigma_star)
    margins.bound("conjugates_preceq_c", verdict.preceq_c)
    witnesses["conjugate_verdict"] = verdict.kind
    return _finish("REL_TRANSFER", params, margins, witnesses, {"s": [1.0, 1e3]})


# ---------------------------------------------------------------------------
# sequence-function conjugate bridge
# ---------------------------------------------------------------------------


@register("SEQ_FN_CONJ_BRIDGE")
def check_bridge(
    s: float = 1 / 3,
    p_max: int = 30000,
    s_hi: float = 50.0,
    n_samples: int = 128,
    c_cap: float = 1e3,
) -> CheckReport:
    """Sandwich between the conjugate of the associated function and the
    associated function of the conjugate sequence, after regularisation."""
    params = {"s": s, "p_max": p_max}
    m = sq.gevrey(s, p_max)
    try:
        reg, _ = sq.almost_decreasing_regularize(m)
    except PreconditionError as exc:
        return _skip("SEQ_FN_CONJ_BRIDGE", params, f"regularisation refused: {exc}")
    ell = sq.normalize_head(reg)
    if not sq.small_roots_vanish(ell):
        return _skip("SEQ_FN_CONJ_BRIDGE", params, "small roots do not vanish")
    omega_l = fn.associated(ell)
    omega_l_star = fn.associated(sq.conjugate_sequence(ell))
    star = fn.conjugate(omega_l)
    ss = _log_samples(1e-2, s_hi, n_samples)
    star_vals = star.evaluate_many(ss)
    lower = omega_l_star.evaluate_many(ss / 2.0)
    margins = _Margins()
    margins.slack_array(
        "lower_bound",
        (star_vals - lower) / np.maximum(np.abs(star_vals), 1.0),
        INEQ_TOL,
        ss,
    )
    found_c = None
    c = 1.0
    hint = omega_l_star.domain_hint
    while c <= c_cap:
        if c * ss[-1] <= hint:
            rhs = omega_l_star.evaluate_many(c * ss) + 1.0
            if float(np.min(rhs - star_vals)) >= -INEQ_TOL:
                found_c = c
                break
        c *= 1.25
    margins.bound("upper_bound_constant_found", found_c is not None)
    verdict = fn.relation_fn(omega_l_star, star)
    margins.bound("sim", verdict.sim)
    witnesses = {"C": found_c, "relation": verdict.kind}
    return _finish(
        "SEQ_FN_CONJ_BRIDGE", params, margins, witnesses, {"s": [1e-2, s_hi]}
    )


@register("CONJ_WELLDEF_EQUIV")
def check_conj_welldef(
    alphas_small=(0.25, 0.5, 0.75), alphas_large=(1.0, 1.5, 2.0), p_max: int = 400
) -> CheckReport:
    """The three well-definedness proxies agree on Gevrey families."""
    params = {
        "alphas_small": list(alphas_small),
        "alphas_large": list(alphas_large),
        "p_max": p_max,
    }
    margins = _Margins()
    witnesses = {}
    for alpha, expect in [(a, True) for a in alphas_small] + [
        (a, False) for a in alphas_large
    ]:
        m = sq.gevrey(alpha, p_max)
        p_roots = sq.small_roots_vanish(m)
        # the function-level proxy needs real quotient coverage mu_Pmax,
        # which for small alpha means a longer prefix (mu_p = p^alpha)
        p_eff = min(4_200_000, max(p_max, 2000, math.ceil(45.0 ** (1.0 / alpha))))
        m_fn = sq.gevrey(alpha, p_eff) if p_eff > p_max else m
        p_c2 = fn.c2_proxy(fn.associated(m_fn))
        p_conj = sq.has_divergent_roots(sq.conjugate_sequence(m))
        witnesses[f"alpha={alpha:g}"] = {
            "small_roots_vanish": p_roots,
            "c2_of_associated": p_c2,
            "conjugate_is_weight_sequence": p_conj,
        }
        margins.bound(
            f"agree_alpha={alpha:g}",
            p_roots == p_c2 == p_conj == expect,
        )
    return _finish(
        "CONJ_WELLDEF_EQUIV", params, margins, witnesses, {"p": [1, p_max]}
    )


# ---------------------------------------------------------------------------
# envelope identities on sequences
# ---------------------------------------------------------------------------


def _envelope_id_clause(clause: str):
    """Build (weight function, reference function, window) per clause."""
    if clause == "i":
        m = sq.gevrey(1 / 3, 8000)
        if not (
            sq.small_roots_vanish(m)
            and sq.is_log_convex(m)[0]
            and sq.small_is_log_concave(m)
        ):
            return None, "hypotheses of clause (i) fail for the family"
        env = fn.envelope_lower(
            fn.associated(m), fn.associated(sq.conjugate_sequence(m))
        )
        return (env, fn.identity_weight(), TailWindow(10.0, 1e3, 256), "sim"), None
    if clause == "ii":
        m = sq.gevrey(2.0, 4000)
        small = sq.small_sequence(m)
        if not (sq.is_strong_log_convex(m) and sq.has_divergent_roots(small)):
            return None, "clause (ii) needs strong log-convexity and (m_p)^(1/p) -> inf"
        env = fn.envelope_upper(fn.associated(m), fn.associated(small))
        return (env, fn.identity_weight(), TailWindow(10.0, 300.0, 256), "sim"), None
    if clause == "iii":
        m = sq.gevrey(0.5, 4000)
        if not sq.is_log_convex(m)[0]:
            return None, "clause (iii) needs log-convexity"
        big = sq.pointwise_product(sq.factorial_sequence(m.p_max), m)
        env = fn.envelope_upper(fn.associated(big), fn.associated(m))
        return (env, fn.identity_weight(), TailWindow(10.0, 1e3, 256), "sim"), None
    if clause in ("iv", "v"):
        alpha = 0.75 if clause == "iv" else 0.25
        m = sq.gevrey(alpha, 200000)
        m_star = sq.conjugate_sequence(m)
        product = sq.pointwise_product(m, sq.small_sequence(m))
        if clause == "iv":
            ok = (
                sq.small_roots_vanish(m)
                and sq.has_divergent_roots(product)
                and sq.is_log_convex(m)[0]
                and sq.small_is_log_concave(m)
                and sq.is_log_convex(product)[0]
            )
            if not ok:
                return None, "hypotheses of clause (iv) fail for the family"
            env = fn.envelope_upper(fn.associated(m), fn.associated(m_star))
            ref = fn.associated(product)
        else:
            quotient = sq.pointwise_quotient(sq.factorial_sequence(m.p_max),
                                             sq.pointwise_product(m, m))
            ok = (
                sq.is_log_convex(m)[0]
                and sq.small_roots_vanish(m)
                and sq.small_is_log_concave(m)
                and sq.is_log_convex(quotient)[0]
                and sq.has_divergent_roots(quotient)
            )
            if not ok:
                return None, "hypotheses of clause (v) fail for the family"
            env = fn.envelope_upper(fn.associated(m_star), fn.associated(m))
            ref = fn.associated(quotient)
        return (env, ref, TailWindow(4.0, 64.0, 256), "sim_c"), None
    return None, f"unknown clause {clause!r}"


@register("ENVELOPE_ID")
def check_envelope_id(clauses=("i", "ii", "iii", "iv", "v")) -> CheckReport:
    """Envelope identities tying a sequence and its conjugate."""
    params = {"clauses": list(clauses)}
    margins = _Margins()
    witnesses = {}
    skipped = []
    for clause in clauses:
        try:
            built, reason = _envelope_id_clause(clause)
        except WellDefinednessError as exc:
            built, reason = None, f"envelope precondition failed: {exc}"
        if built is None:
            skipped.append(f"({clause}): {reason}")
            continue
        env, ref, window, flag = built
        verdict = fn.relation_fn(env, ref, window)
        margins.bound(f"clause_{clause}_{flag}", getattr(verdict, flag))
        witnesses[f"clause_{clause}"] = {
            "kind": verdict.kind,
            "ratio_sup": verdict.constants.get("ratio_sup"),
        }
    if not margins.items:
        return _skip("ENVELOPE_ID", params, "; ".join(skipped))
    detail = "; ".join(skipped)
    return _finish("ENVELOPE_ID", params, margins, witnesses, {}, detail)


@register("GROWTHREL_SEQ")
def check_growthrel_seq(p_max: int = 100000) -> CheckReport:
    """Sequence-level relations transfer to associated/conjugate functions."""
    params = {"p_max": p_max}
    m = sq.gevrey(1 / 3, p_max)
    n = sq.gevrey(0.5, p_max)
    margins = _Margins()
    witnesses = {}
    rel_mn = sq.relation(m, n)
    margins.bound("sequence_preceq", rel_mn.preceq)
    if not sq.small_roots_vanish(n):
        return _skip("GROWTHREL_SEQ", params, "(n_p)^(1/p) does not vanish")
    omega_m_star = fn.associated(sq.conjugate_sequence(m))
    omega_n_star = fn.associated(sq.conjugate_sequence(n))
    v1 = fn.relation_fn(omega_n_star, omega_m_star, TailWindow(10.0, 1e3, 256))
    margins.bound("conjugate_assoc_preceq_c", v1.preceq_c)
    witnesses["omega_Nstar_vs_omega_Mstar"] = v1.kind
    star_m = fn.conjugate(fn.associated(m))
    star_n = fn.conjugate(fn.associated(n))
    v2 = fn.relation_fn(star_n, star_m, TailWindow(1.0, 50.0, 256))
    margins.bound("conjugate_fn_preceq_c", v2.preceq_c)
    witnesses["omega_N^*_vs_omega_M^*"] = v2.kind

    # lower-envelope monotonicity in both slots
    m2, p2 = sq.gevrey(1 / 3, p_max), sq.gevrey(0.5, p_max)
    n2, q2 = sq.gevrey(0.25, p_max), sq.gevrey(1 / 3, p_max)
    env_small = fn.envelope_lower(fn.associated(m2), fn.associated(n2))
    env_big = fn.envelope_lower(fn.associated(p2), fn.associated(q2))
    v3 = fn.relation_fn(env_small, env_big, TailWindow(2.0, 50.0, 256))
    margins.bound("envelope_monotone_preceq_c", v3.preceq_c)
    witnesses["envelope_monotone"] = v3.kind
    return _finish("GROWTHREL_SEQ", params, margins, witnesses, {})


# ---------------------------------------------------------------------------
# BMT checks
# ---------------------------------------------------------------------------


@register("BMT_SANDWICH")
def check_bmt_sandwich(ells=(0.5, 1.0, 2.0), p_max: int = 800) -> CheckReport:
    """Matrix members, the dilation sandwich and the conjugate sandwich for
    the normalized square weight."""
    params = {"ells": list(ells), "p_max": p_max}
    omega = fn.normalized(fn.power_weight(0.5)).with_name("norm_id^2")
    report = bmt.bmt_report(omega)
    if not (report.om0 and report.om3 and report.om4):
        return _skip("BMT_SANDWICH", params, "generator is not a BMT weight")
    mat = bmt.associated_matrix(omega, ells=ells, p_max=p_max)
    margins = _Margins()
    witnesses = {"diagnostics": dict(mat.diagnostics)}
    for ell, member in zip(mat.ells, mat.members):
        ok_lc, _ = sq.is_log_convex(member)
        margins.bound(f"member_lc_ell={ell:g}", ok_lc and member.is_normalized)
        margins.bound(
            f"member_roots_diverge_ell={ell:g}", sq.has_divergent_roots(member)
        )
    margins.add("doubled_mg", INEQ_TOL - mat.diagnostics["doubled_mg_defect"])

    omega_star = fn.conjugate(omega)
    d_constants = {}
    t_window = _log_samples(0.1, 9.0, 256)
    base = omega.evaluate_many(t_window)
    for ell, member in zip(mat.ells, mat.members):
        w_assoc = fn.associated(member)
        w_vals = w_assoc.evaluate_many(t_window)
        margins.slack_array(
            f"goodequiv_lower_ell={ell:g}",
            (base - ell * w_vals) / np.maximum(base, 1.0),
            INEQ_TOL,
            t_window,
        )
        d_ell = max(0.0, float(np.max(base - 2 * ell * w_vals)))
        d_constants[f"D_ell={ell:g}"] = d_ell

        star_member = fn.conjugate(w_assoc)
        ss = _log_samples(0.1, 20.0, 128)
        mid = star_member.evaluate_many(ss)
        left = omega_star.evaluate_many(ss * ell) / ell
        right = omega_star.evaluate_many(2 * ell * ss) / (2 * ell) + d_ell / (2 * ell)
        margins.slack_array(
            f"main_sandwich_left_ell={ell:g}",
            (mid - left) / np.maximum(np.abs(mid), 1.0),
            1e-6,
            ss,
        )
        margins.slack_array(
            f"main_sandwich_right_ell={ell:g}",
            (right - mid) / np.maximum(np.abs(mid), 1.0),
            1e-6,
            ss,
        )
    constant, table = bmt.constancy_check(mat)
    margins.bound("constant", constant)
    margins.bound("om6_consistent", constant == report.om6)
    witnesses.update(d_constants)
    witnesses["pairwise"] = [(e1, e2, v.kind) for e1, e2, v in table]
    return _finish(
        "BMT_SANDWICH", params, margins, witnesses, {"t": [0.1, 9.0], "s": [0.1, 20.0]}
    )


@register("MATRIX_CONST")
def check_matrix_const() -> CheckReport:
    """Constancy of the associated matrix tracks the doubling condition."""
    params: dict = {}
    margins = _Margins()
    witnesses = {}

    omega = fn.normalized(fn.power_weight(0.5))
    mat = bmt.associated_matrix(omega, ells=(0.5, 1.0, 2.0), p_max=150)
    constant, table = bmt.constancy_check(mat)
    rep = bmt.bmt_report(omega)
    margins.bound("square_constant", constant)
    margins.bound("square_om6", rep.om6)
    witnesses["square"] = [v.kind for _, _, v in table]

    slow = fn.normalized(fn.log_power_weight(2.0))
    mat_slow = bmt.associated_matrix(
        slow, ells=(0.5, 1.0, 2.0), p_max=120, grid=GridSpec(1e-2, 1e55, 4096)
    )
    constant_slow, table_slow = bmt.constancy_check(mat_slow)
    rep_slow = bmt.bmt_report(slow)
    margins.bound("slow_nonconstant", not constant_slow)
    margins.bound("slow_no_om6", not rep_slow.om6)
    witnesses["slow"] = [v.kind for _, _, v in table_slow]

    single = bmt.associated_matrix(omega, ells=(1.0,), p_max=100)
    margins.bound("single_trivially_constant", bmt.constancy_check(single)[0])
    return _finish("MATRIX_CONST", params, margins, witnesses, {})


@register("NEWEXPABSORB")
def check_newexpabsorb(hs=(2.0, 4.0), p_max: int = 200) -> CheckReport:
    """Exponential factors are absorbed by raising the matrix parameter."""
    params = {"hs": list(hs), "p_max": p_max}
    omega = fn.normalized(fn.power_weight(0.5))
    est = fn.gamma_indices(omega)
    if not est.gamma > 0:
        return _skip("NEWEXPABSORB", params, "needs a generator with gamma > 0")
    ells = tuple(float(2.0**k) for k in range(-4, 5))
    mat = bmt.associated_matrix(omega, ells=ells, p_max=p_max)
    ps = np.arange(0, p_max + 1, dtype=float)
    margins = _Margins()
    witnesses = {}
    for h in hs:
        for ell in (0.5, 1.0):
            member = mat.member(ell)
            found = None
            for d in (2.0, 4.0, 8.0, 16.0):
                if not any(math.isclose(d * ell, e, rel_tol=1e-9) for e in ells):
                    continue
                target = mat.member(d * ell)
                deficit = ps * math.log(h) + member.log_values - target.log_values
                if stopped_rising(deficit):
                    found = (d, math.exp(max(0.0, float(np.max(deficit)))))
                    break
            margins.bound(f"absorbed_h={h:g}_ell={ell:g}", found is not None)
            if found:
                witnesses[f"h={h:g},ell={ell:g}"] = {"d": found[0], "D": found[1]}
    return _finish("NEWEXPABSORB", params, margins, witnesses, {"p": [0, p_max]})


# ---------------------------------------------------------------------------
# uniform bound, slow variation, root lemma
# ---------------------------------------------------------------------------


@register("UNIFORM_BOUND")
def check_uniform_bound(k_members: int = 4, p_max: int = 400) -> CheckReport:
    """Block-constant uniform bound construction and its divergence proxy."""
    params = {"k_members": k_members, "p_max": p_max}
    family = [sq.gevrey(k / (k + 1), p_max) for k in range(1, k_members + 1)]
    try:
        res = sq.uniform_bound(family)
    except PreconditionError as exc:
        return _skip("UNIFORM_BOUND", params, f"family rejected: {exc}")
    except CapacityError as exc:
        report = CheckReport(
            check_id="UNIFORM_BOUND",
            params=params,
            status="FAIL",
            worst_margin=-1.0,
            detail=f"construction did not fit the window: {exc}",
        )
        return report
    margins = _Margins()
    witnesses = {"breakpoints": list(res.breakpoints), "truncated": res.truncated}
    margins.bound("roots_nonincreasing_exact", bool(np.all(np.diff(res.log_roots) <= 0)))
    margins.add(
        "final_half_initial",
        math.log(0.5) - (res.log_roots[-1] - res.log_roots[0]),
    )
    ps = np.arange(1, p_max + 1, dtype=float)
    for k, member in enumerate(family, 1):
        ratio_roots = (res.log_values[1:] - member.log_small[1:]) / ps
        qmins = -quarter_maxima(-ratio_roots)
        margins.add(f"divergence_proxy_member_{k}", float(qmins[3] - qmins[0]))
    single = sq.uniform_bound([family[0]])
    margins.bound(
        "single_member_blocks",
        len(single.breakpoints) >= 2
        and bool(np.all(np.diff(single.log_roots) <= 0)),
    )
    witnesses["single_member_breakpoints"] = list(single.breakpoints)
    return _finish("UNIFORM_BOUND", params, margins, witnesses, {"p": [1, p_max]})


@register("SLOWLY_VARYING")
def check_slowly_varying(p_max: int = 400) -> CheckReport:
    """Slow-variation detection with its co-occurring condition failures."""
    params = {"p_max": p_max}
    margins = _Margins()
    witnesses = {}
    pos = sq.exp_power(2.0, p_max)
    rep = fn.slowly_varying_sequence_test(pos)
    margins.bound("exp_p2_slowly_varying", rep.slowly_varying)
    margins.bound("exp_p2_beta3", rep.beta3_holds)
    margins.bound("exp_p2_ratio_diverges", rep.ratio_diverges)
    witnesses["exp_p2_direct_ratios_at_probe"] = rep.direct_ratios
    witnesses["exp_p2_far_ratios"] = rep.far_ratios
    witnesses["far_probe_log_t"] = rep.far_probe_log_t
    for u, value in rep.far_ratios.items():
        margins.add(f"far_ratio_u={u:g}", 0.02 - abs(value - 1.0))
    mg_ok, _ = sq.check_moderate_growth(pos)
    margins.bound("exp_p2_mg_fails", not mg_ok)
    bmt_rep = bmt.bmt_report(fn.associated(pos))
    margins.bound("exp_p2_om6_fails", not bmt_rep.om6)

    for s in (0.5, 2.0):
        neg = fn.slowly_varying_sequence_test(sq.gevrey(s, p_max))
        margins.bound(f"gevrey_{s:g}_not_slowly_varying", not neg.slowly_varying)
    # the negative control keeps (mg) and the doubling condition; the
    # doubling window sits above the head region so the transient gain
    # settling towards its limit is not mistaken for slow variation
    gev = sq.gevrey(2.0, 2000)
    mg_gev, _ = sq.check_moderate_growth(sq.gevrey(2.0, p_max))
    hint = math.exp(float(gev.log_quotients[-1]))
    rep_gev = bmt.bmt_report(
        fn.associated(gev), TailWindow(hint**0.55, hint / 128.0, 512)
    )
    margins.bound("gevrey_mg_and_om6", mg_gev and rep_gev.om6)
    return _finish("SLOWLY_VARYING", params, margins, witnesses, {"p": [1, p_max]})


@register("ROOT_ALMOST_DECR")
def check_root_almost_decr(alphas=(0.25, 0.5, 0.75), p_max: int = 400) -> CheckReport:
    """Correspondence between the two almost-decreasing root witnesses, and
    the moderate-growth consequence of two-sided log-convexity."""
    params = {"alphas": list(alphas), "p_max": p_max}
    margins = _Margins()
    witnesses = {}
    for alpha in alphas:
        m = sq.gevrey(alpha, p_max)
        ls, lv, lmu = m.log_small, m.log_values, m.log_quotients
        ps = np.arange(1, p_max, dtype=float)
        log_h = max(0.0, float(np.max(ls[2:] - (ps + 1) / ps * ls[1:-1])))
        log_a = max(0.0, float(np.max(lmu[2:] - lv[1:-1] / ps)))
        margins.add(f"H<=A_alpha={alpha:g}", log_a - log_h + INEQ_TOL)
        margins.add(
            f"A<=2eH_alpha={alpha:g}",
            (log_h + math.log(2 * math.e)) - log_a + INEQ_TOL,
        )
        witnesses[f"alpha={alpha:g}"] = {"H": math.exp(log_h), "A": math.exp(log_a)}
    for m, label in (
        (sq.gevrey(0.5, p_max), "gevrey_half"),
        (sq.normalize_head(sq.almost_decreasing_regularize(sq.gevrey(1 / 3, p_max))[0]), "reg_third"),
    ):
        both = sq.is_log_convex(m)[0] and sq.is_log_convex(sq.conjugate_sequence(m))[0]
        if not both:
            margins.bound(f"corollary_hypothesis_{label}", False)
            continue
        mg_ok, c = sq.check_moderate_growth(m)
        margins.bound(f"corollary_mg_{label}", mg_ok)
        witnesses[f"mg_C_{label}"] = c
    return _finish("ROOT_ALMOST_DECR", params, margins, witnesses, {"p": [1, p_max]})
