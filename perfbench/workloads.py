"""The benchmark's three workloads as seeded lists of operations.

Each workload function takes a numpy ``Generator`` and a probe (``NoTrace`` or a
``spans.Tracer``) and returns ``Op`` objects.  An operation's ``run`` calls
only the public ``weightcalc`` API on inputs generated here; its ``verify``
compares the output with an independent route from ``oracles`` (or, for a
``refusal`` draw, requires the documented typed error).  The seed changes
parameters and order, never the number of operations of each class, so
the work per pass is the same for every seed.

Draw ranges are derived from the operands: evaluation points stay inside
the operands' ``domain_hint`` and inside the search grid the transform
uses, so an in-range draw has no legitimate reason to raise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import oracles as ref

Verify = Callable[[object, Optional[BaseException]], Optional[str]]


@dataclass
class Op:
    label: str  # workload-level span name: checks.<ID>, sweep.<class>, long.<stage>
    run: Callable[[], object]
    verify: Verify
    detail: str = ""
    summary: Optional[Callable[[object], dict]] = field(default=None)


class NoTrace:
    """Probe used in untraced runs: spans cost nothing."""

    def call(self, name, fn, *args, counts=None):
        return fn(*args)

    def declare_sequence_class(self, seq, convex):
        pass


def returns(check: Callable[[object], Optional[str]]) -> Verify:
    """Verification of an operation that must succeed."""

    def verify(out, err):
        if err is not None:
            return f"raised {type(err).__name__}: {err}"
        return check(out)

    return verify


def raises(error_name: str) -> Verify:
    """Verification of a refusal draw: the named typed error is required."""

    def verify(out, err):
        if err is None:
            return f"expected {error_name}, got a value"
        if type(err).__name__ != error_name:
            return f"expected {error_name}, got {type(err).__name__}: {err}"
        return None

    return verify


def _log_uniform(rng, lo, hi, n):
    return np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), n)))


def _all(*reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


def verify_suite(rng, probe):
    """The 16 registered checks at default parameters, in seeded order."""
    import weightcalc as wc

    ids = wc.available_checks()
    ops = []
    for i in rng.permutation(len(ids)):
        cid = ids[i]
        ops.append(
            Op(
                f"checks.{cid}",
                lambda cid=cid: wc.run_check(cid),
                returns(lambda rep: None if rep.status == "PASS" else f"status {rep.status}: {rep.detail}"),
                cid,
                lambda rep: {"status": rep.status, "worst_margin": rep.worst_margin},
            )
        )
    return ops


# ---------------------------------------------------------------------------
# transform-sweep
# ---------------------------------------------------------------------------

#: Operations per pass for each class; fixed so that every seed does the
#: same amount of each kind of work.
SWEEP_COUNTS = {
    "assoc_eval": 40,
    "conjugate.closed": 20,
    "conjugate.assoc": 20,
    "biconjugate": 8,
    "envelope_lower.closed": 16,
    "envelope_lower.assoc": 16,
    "envelope_upper.closed": 12,
    "envelope_upper.assoc": 12,
    "relation_fn": 16,
    "gamma_indices": 12,
    "recover_sequence": 12,
    "phi_star_many": 12,
    "associated_matrix": 6,
    "bmt_report": 8,
    "refusal": 16,
}

#: Largest argument the default search grid (t in [1e-2, 1e8]) can place an
#: interior argmax at, with a decade of headroom.
GRID_TOP = 1e7
ASSOC_POINTS = 1000
TRANSFORM_POINTS = 32


class _Assoc:
    """Associated operand omega_M with the sequence it came from."""

    def __init__(self, wc, family, param, p_max):
        family_fn = {"gevrey": wc.gevrey, "exp_power": wc.exp_power, "qgevrey": wc.qgevrey}[family]
        seq = family_fn(param, p_max)
        self.omega = wc.associated(seq)
        self.lv = np.asarray(seq.log_values)
        self.logmu = np.diff(self.lv)
        self.desc = f"{family}({param:.4g}, P={p_max})"

    @property
    def top_log_quotient(self):
        """log mu_Pmax, capped to stay finite under exp."""
        return min(float(self.logmu[-1]), 690.0)

    def p_inside(self, log_t_top):
        """Largest p whose quotient mu_(p+1) stays below e^log_t_top."""
        return int(np.searchsorted(self.logmu, log_t_top, side="right")) - 1


def transform_sweep(rng, probe):
    """Seeded mix of function-level transforms at moderate P (<= 2e4)."""
    import weightcalc as wc

    def gevrey_pool(lo, hi, p_choices):
        s = float(rng.uniform(lo, hi))
        return _Assoc(wc, "gevrey", s, int(rng.choice(p_choices)))

    pool = [gevrey_pool(lo, hi, (8000, 12000, 16000, 20000))
            for lo, hi in ((0.3, 0.45), (0.45, 0.6), (0.6, 0.8), (0.8, 1.2), (1.2, 1.6), (1.6, 2.0))]
    pool += [_Assoc(wc, "exp_power", float(rng.uniform(1.5, 2.5)), 2000) for _ in range(2)]
    pool += [_Assoc(wc, "qgevrey", float(rng.uniform(1.1, 2.0)), 400) for _ in range(2)]
    superlinear = [a for a in pool[:3] if _c2_covered(a)]  # gevrey s < 0.8

    makers = {
        "assoc_eval": lambda k: _assoc_eval(wc, rng, pool),
        "conjugate.closed": lambda k: _conjugate_closed(wc, rng),
        "conjugate.assoc": lambda k: _conjugate_assoc(wc, rng, superlinear),
        "biconjugate": lambda k: _biconjugate(wc, rng),
        "envelope_lower.closed": lambda k: _envelope_lower_closed(wc, rng),
        "envelope_lower.assoc": lambda k: _envelope_lower_assoc(wc, rng),
        "envelope_upper.closed": lambda k: _envelope_upper_closed(wc, rng),
        "envelope_upper.assoc": lambda k: _envelope_upper_assoc(wc, rng),
        "relation_fn": lambda k: _RELATION_DRAWS[k % len(_RELATION_DRAWS)](wc, rng),
        "gamma_indices": lambda k: _gamma_conjugate(wc, rng) if k % 3 == 0 else _gamma_power(wc, rng),
        "recover_sequence": lambda k: _recover(wc, rng, pool),
        "phi_star_many": lambda k: _phi_star_assoc(wc, rng, pool) if k % 2 else _phi_star_power(wc, rng),
        "associated_matrix": lambda k: _matrix(wc, rng),
        "bmt_report": lambda k: _bmt_report(wc, rng),
        "refusal": lambda k: _REFUSAL_DRAWS[k % len(_REFUSAL_DRAWS)](wc, rng, pool),
    }
    ops = []
    for cls, count in SWEEP_COUNTS.items():
        for k in range(count):
            op = makers[cls](k)
            op.label = f"sweep.{cls}"
            ops.append(op)
    return [ops[i] for i in rng.permutation(len(ops))]


def _c2_covered(a):
    """Can conjugate() certify t = o(omega_M(t)) for this operand?

    Its tail proxy drops samples with omega < 1 and needs the rest to span a
    factor 10 below the coverage mu_Pmax (functions._tail_ratio_decays).
    """
    return ref.associated(a.lv, [a.omega.domain_hint / 10.0])[0] >= 1.0


def _op(run, verify, detail):
    return Op("", run, verify, detail)


def _assoc_eval(wc, rng, pool):
    a = pool[int(rng.integers(len(pool)))]
    ts = _log_uniform(rng, 1.0, math.exp(a.top_log_quotient), ASSOC_POINTS)
    want = ref.associated(a.lv, ts)
    return _op(
        lambda: a.omega.evaluate_many(ts),
        returns(lambda out: ref.agree("associated", out, want, ref.REL_TOL_CLOSED_FORM)),
        a.desc,
    )


def _conjugate_closed(wc, rng):
    alpha = float(rng.uniform(0.3, 0.7))
    # argmax t* = (alpha s)^(alpha/(1-alpha)) must stay inside the grid
    s_hi = GRID_TOP ** ((1 - alpha) / alpha) / alpha
    ss = _log_uniform(rng, 1.0, min(s_hi, 1e4), TRANSFORM_POINTS)
    want = ref.power_conjugate(alpha, ss)

    def run():
        return wc.conjugate(wc.power_weight(alpha)).evaluate_many(ss)

    return _op(run, returns(lambda out: ref.agree("conjugate", out, want, ref.REL_TOL_CLOSED_FORM)),
               f"alpha={alpha:.4g}")


def _conjugate_assoc(wc, rng, pool):
    a = pool[int(rng.integers(len(pool)))]
    t_cap = min(1e8, a.omega.domain_hint)
    # the conjugate's own coverage (secant slopes) bounds the draw; it is
    # read from a probe object so the timed call builds a fresh transform
    s_hi = 0.5 * wc.conjugate(a.omega).domain_hint
    ss = _log_uniform(rng, 1.0, s_hi, TRANSFORM_POINTS)
    want = ref.associated_conjugate(a.lv, ss, t_cap)

    def run():
        return wc.conjugate(a.omega).evaluate_many(ss)

    return _op(run, returns(lambda out: ref.agree("conjugate", out, want, ref.REL_TOL_TRANSFORM)),
               a.desc)


def _biconjugate(wc, rng):
    alpha = float(rng.uniform(0.4, 0.8))
    ts = _log_uniform(rng, 1.0, 1e3, TRANSFORM_POINTS)
    want = ref.power(alpha, ts)  # convex weights are their own biconjugate

    def run():
        return wc.biconjugate(wc.power_weight(alpha)).evaluate_many(ts)

    return _op(run, returns(lambda out: ref.agree("biconjugate", out, want, ref.REL_TOL_TRANSFORM)),
               f"alpha={alpha:.4g}")


def _envelope_lower_closed(wc, rng):
    a_sig, a_tau = (float(x) for x in rng.uniform(0.3, 0.8, 2))
    p, q = 1 / a_sig, 1 / a_tau
    # argmin s^(p+q) = (q/p) t^q must stay below the grid top
    t_hi = (GRID_TOP ** (p + q) * p / q) ** (1 / q)
    ts = _log_uniform(rng, 1.0, min(t_hi, 1e6), TRANSFORM_POINTS)
    want = ref.power_envelope_lower(p, q, ts)

    def run():
        return wc.envelope_lower(wc.power_weight(a_sig), wc.power_weight(a_tau)).evaluate_many(ts)

    return _op(run, returns(lambda out: ref.agree("envelope_lower", out, want, ref.REL_TOL_CLOSED_FORM)),
               f"alpha_sigma={a_sig:.4g} alpha_tau={a_tau:.4g}")


def _gevrey_pair(wc, rng, s1, s2):
    p_max = int(rng.choice((4000, 6000, 8000)))
    return _Assoc(wc, "gevrey", s1, p_max), _Assoc(wc, "gevrey", s2, p_max)


def _envelope_lower_assoc(wc, rng):
    s1, s2 = (float(x) for x in rng.uniform(0.25, 1.0, 2))
    m, n = _gevrey_pair(wc, rng, s1, s2)
    lv = m.lv + n.lv  # omega_M lowstar omega_N = omega_(M N)
    # the infimum for t = mu^(MN)_p sits at s = mu^M_p; a quarter of the
    # prefix keeps it clear of the operands' coverage edge
    t_hi = math.exp(float(np.diff(lv)[(lv.size - 1) // 4]))
    ts = _log_uniform(rng, 2.0, t_hi, TRANSFORM_POINTS)
    want = ref.associated(lv, ts)

    def run():
        return wc.envelope_lower(m.omega, n.omega).evaluate_many(ts)

    return _op(run, returns(lambda out: ref.agree("envelope_lower", out, want, ref.REL_TOL_TRANSFORM)),
               f"{m.desc} lowstar {n.desc}")


def _envelope_upper_closed(wc, rng):
    a_sig = float(rng.uniform(0.5, 0.9))
    a_tau = a_sig / float(rng.uniform(1.5, 3.0))  # tau grows faster
    p, q = 1 / a_sig, 1 / a_tau
    # argmax s^(q-p) = (p/q) t^q must stay below the grid top
    t_hi = (GRID_TOP ** (q - p) * q / p) ** (1 / q)
    ts = _log_uniform(rng, 1.0, min(t_hi, 1e3), TRANSFORM_POINTS)
    want = ref.power_envelope_upper(p, q, ts)

    def run():
        return wc.envelope_upper(wc.power_weight(a_sig), wc.power_weight(a_tau)).evaluate_many(ts)

    return _op(run, returns(lambda out: ref.agree("envelope_upper", out, want, ref.REL_TOL_CLOSED_FORM)),
               f"alpha_sigma={a_sig:.4g} alpha_tau={a_tau:.4g}")


def _upper_pair(wc, rng):
    """Gevrey pair (M, N), omega_N growing faster, whose upper envelope the
    library's window verdict can certify.

    envelope_upper requires relation_fn(omega_N, omega_M) to accept every
    small dilation h.  On its tail window (the default one clipped to the
    operands' coverage) a deficit omega_M(t) - omega_N(h t) is accepted
    outright below functions.FN_ADDITIVE_CAP, and it never exceeds omega_M
    at the window top; above the cap the verdict may refuse a finite
    envelope (see design.json), so pairs are drawn under it.
    """
    while True:
        s1 = float(rng.uniform(0.8, 2.0))
        s2 = float(rng.uniform(0.25, s1 - 0.5))
        p_max = int(rng.choice((4000, 6000, 8000)))
        t_top = min(wc.DEFAULT_TAIL.t_hi, p_max**s2)  # mu_Pmax of gevrey(s) is P^s
        if ref.associated(s1 * ref.log_factorials(p_max), [t_top])[0] <= wc.functions.FN_ADDITIVE_CAP:
            return _Assoc(wc, "gevrey", s1, p_max), _Assoc(wc, "gevrey", s2, p_max)


def _envelope_upper_assoc(wc, rng):
    m, n = _upper_pair(wc, rng)
    lv = m.lv - n.lv  # omega_M upstar omega_N = omega_(M/N), M/N log-convex
    t_hi = math.exp(float(np.diff(lv)[(lv.size - 1) // 4]))
    ts = _log_uniform(rng, 2.0, t_hi, TRANSFORM_POINTS)
    want = ref.associated(lv, ts)

    def run():
        return wc.envelope_upper(m.omega, n.omega).evaluate_many(ts)

    return _op(run, returns(lambda out: ref.agree("envelope_upper", out, want, ref.REL_TOL_TRANSFORM)),
               f"{m.desc} upstar {n.desc}")


def _relation_power(wc, rng):
    a1 = float(rng.uniform(0.25, 0.6))
    a2 = a1 * float(rng.uniform(1.5, 3.0))  # sigma = t^(1/a1) grows faster

    def check(v):
        if not (v.preceq and not v.preceq_rev):
            return f"power pair verdict {v.kind}: expected tau = O(sigma) only"
        return None

    return _op(lambda: wc.relation_fn(wc.power_weight(a1), wc.power_weight(a2)), returns(check),
               f"alpha_sigma={a1:.4g} alpha_tau={a2:.4g}")


def _relation_assoc(wc, rng):
    s1 = float(rng.uniform(0.3, 0.6))
    m, n = _gevrey_pair(wc, rng, s1, s1 + float(rng.uniform(0.3, 0.6)))

    def check(v):
        return None if v.preceq else f"gevrey pair verdict {v.kind}: expected tau = O(sigma)"

    return _op(lambda: wc.relation_fn(m.omega, n.omega), returns(check), f"{m.desc} vs {n.desc}")


def _relation_envelope(which):
    def make(wc, rng):
        if which == "upper":
            m, n = _upper_pair(wc, rng)
            lv = m.lv - n.lv
        else:
            s1, s2 = (float(x) for x in rng.uniform(0.25, 1.0, 2))
            m, n = _gevrey_pair(wc, rng, s1, s2)
            lv = m.lv + n.lv
        t_hi = math.exp(float(np.diff(lv)[(lv.size - 1) // 4]))
        window = wc.TailWindow(t_hi / 100.0, t_hi, 256)
        build = wc.envelope_upper if which == "upper" else wc.envelope_lower
        target = wc.associated(wc.from_log_values(lv))

        def run():
            return wc.relation_fn(build(m.omega, n.omega), target, window)

        def check(v):
            return None if v.sim_c else f"envelope vs exact algebra verdict {v.kind}: expected SIM_C"

        return _op(run, returns(check), f"{which} {m.desc} {n.desc} window<= {t_hi:.3g}")

    return make


#: Two envelope relations per pass (about 1.2 s each) and fourteen cheap
#: ones, so that a pass stays near 4 s and a run repeats every operation.
_RELATION_DRAWS = (
    (_relation_envelope("upper"), _relation_envelope("lower"))
    + (_relation_power, _relation_assoc) * 7
)


def _gamma_power(wc, rng):
    alpha = float(rng.uniform(0.25, 1.5))

    def check(est):
        dev = max(abs(est.gamma - alpha), abs(est.gamma_bar - alpha))
        return None if dev <= ref.INDEX_TOL else f"indices {est.gamma:.4g}/{est.gamma_bar:.4g} vs {alpha:.4g}"

    return _op(lambda: wc.gamma_indices(wc.power_weight(alpha)), returns(check), f"alpha={alpha:.4g}")


def _gamma_conjugate(wc, rng):
    # on a grid to 1e16 the conjugate's coverage is ~(1e16)^(1/alpha - 1),
    # which for alpha <= 0.45 exceeds 1e19 and leaves the default tail
    # window [1e3, 1e7] plus one full K-grid dilation (2^10) unclipped
    alpha = float(rng.uniform(0.25, 0.45))
    grid = wc.GridSpec(1e-2, 1e16, 4096)
    expect = 1.0 - alpha

    def check(est):
        dev = max(abs(est.gamma - expect), abs(est.gamma_bar - expect))
        return None if dev <= ref.INDEX_TOL else f"indices {est.gamma:.4g}/{est.gamma_bar:.4g} vs {expect:.4g}"

    return _op(lambda: wc.gamma_indices(wc.conjugate(wc.power_weight(alpha), grid)), returns(check),
               f"conjugate alpha={alpha:.4g}")


def _recover_draw(rng, pool):
    """A pool operand and a p_count whose maximisers stay inside the grid."""
    order = rng.permutation(len(pool))
    for i in order:
        a = pool[int(i)]
        top = math.log(min(GRID_TOP, a.omega.domain_hint))
        p_ok = a.p_inside(top) - 1
        if p_ok >= 8:
            return a, int(rng.integers(8, min(50, p_ok) + 1))
    raise RuntimeError("no pool operand leaves room for recovery")


def _recover(wc, rng, pool):
    a, p_count = _recover_draw(rng, pool)
    want = a.lv[: p_count + 1]

    def check(seq):
        # log M_p is 0 at the head: there the tolerance is absolute
        return ref.agree("recovered log M", np.asarray(seq.log_values), want, ref.REL_TOL_TRANSFORM, 1.0)

    return _op(lambda: wc.recover_sequence(a.omega, p_count=p_count), returns(check),
               f"{a.desc} p_count={p_count}")


def _phi_star_assoc(wc, rng, pool):
    a, p_count = _recover_draw(rng, pool)
    xs = np.sort(rng.uniform(0.0, p_count, TRANSFORM_POINTS))
    want = ref.phi_star_associated(a.lv, xs)
    return _op(lambda: wc.phi_star_many(a.omega, xs),
               returns(lambda out: ref.agree("phi_star", out, want, ref.REL_TOL_TRANSFORM, 1.0)),
               f"{a.desc} x<= {p_count}")


def _phi_star_power(wc, rng):
    alpha = float(rng.uniform(0.3, 1.5))
    # maximiser y = alpha log(alpha x) must stay below log(GRID_TOP)
    x_hi = min(math.exp(math.log(GRID_TOP) / alpha) / alpha, 1e4)
    xs = np.sort(rng.uniform(0.0, x_hi, TRANSFORM_POINTS))
    want = ref.power_phi_star(alpha, xs)
    return _op(lambda: wc.phi_star_many(wc.power_weight(alpha), xs),
               returns(lambda out: ref.agree("phi_star", out, want, ref.REL_TOL_CLOSED_FORM, 1.0)),
               f"power alpha={alpha:.4g}")


def _matrix(wc, rng):
    alpha = float(rng.uniform(0.3, 0.7))
    p_max = int(rng.choice((120, 150, 180)))
    logfact = ref.log_factorials(p_max)

    def run():
        omega = wc.normalized(wc.power_weight(alpha))
        mat = wc.associated_matrix(omega, ells=(0.5, 1.0, 2.0), p_max=p_max)
        constant, _ = wc.constancy_check(mat)
        return mat, constant, wc.conjugate_matrix(mat)

    def check(result):
        mat, constant, conj = result
        members = [np.asarray(m.log_values) for m in mat.members]
        scale = max(1.0, max(float(np.max(np.abs(m))) for m in members))
        reasons = [None if ref.convex(m, 1e-9 * scale) else f"member {e:g} not log-convex"
                   for e, m in zip(mat.ells, members)]
        reasons += [None if float(np.max(a - b)) <= ref.ORDER_TOL * scale else "members out of order"
                    for a, b in zip(members, members[1:])]
        reasons.append(None if constant else "matrix of a doubling weight reported non-constant")
        for ell, member in zip(conj.ells, conj.members):
            partner = np.asarray(mat.member(1.0 / ell).log_values)
            reasons.append(ref.agree(f"conjugate member {ell:g}", np.asarray(member.log_values) + partner,
                                     logfact, 1e-9))
        return _all(*reasons)

    return _op(run, returns(check), f"normalized power alpha={alpha:.4g} P={p_max}")


def _bmt_report(wc, rng):
    # the o(.) proxies demand a drop of span**-DECAY_EXPONENT (0.15) across
    # the tail window; t/omega(t) = t^(1 - 1/alpha) clears it for alpha <= 0.8
    alpha = float(rng.uniform(0.3, 0.8))

    def check(rep):
        flags = {k: getattr(rep, k) for k in ("om0", "om3", "om4", "om6", "c1", "c2")}
        bad = [k for k, v in flags.items() if not v]
        return f"flags {bad} false for a normalized power weight" if bad else None

    return _op(lambda: wc.bmt_report(wc.normalized(wc.power_weight(alpha))), returns(check),
               f"normalized power alpha={alpha:.4g}")


# -- refusal draws: each must raise the documented typed error -------------


def _refuse_swapped_closed(wc, rng, pool):
    a_sig = float(rng.uniform(0.5, 0.9))
    a_tau = a_sig / float(rng.uniform(1.5, 3.0))
    # sigma grows faster than tau: sup_s sigma(s) - tau(s/t) is infinite
    return _op(lambda: wc.envelope_upper(wc.power_weight(a_tau), wc.power_weight(a_sig)),
               raises("WellDefinednessError"), f"swapped power alpha={a_tau:.4g},{a_sig:.4g}")


def _refuse_swapped_assoc(wc, rng, pool):
    m, n = _upper_pair(wc, rng)
    return _op(lambda: wc.envelope_upper(n.omega, m.omega), raises("WellDefinednessError"),
               f"swapped {n.desc} upstar {m.desc}")


def _refuse_lower_beyond(wc, rng, pool):
    s1, s2 = (float(x) for x in rng.uniform(0.25, 1.0, 2))
    m, n = _gevrey_pair(wc, rng, s1, s2)
    top = math.exp(float(np.diff(m.lv + n.lv)[-1]))
    ts = _log_uniform(rng, 2.0 * top, 10.0 * top, 4)
    return _op(lambda: wc.envelope_lower(m.omega, n.omega).evaluate_many(ts),
               raises("DomainExhaustedError"), f"{m.desc} lowstar {n.desc} t>{2 * top:.3g}")


def _refuse_sublinear_conjugate(wc, rng, pool):
    alpha = float(rng.uniform(1.0, 3.0))  # t^(1/alpha) is not superlinear
    return _op(lambda: wc.conjugate(wc.power_weight(alpha)), raises("WellDefinednessError"),
               f"conjugate power alpha={alpha:.4g}")


def _refuse_conjugate_beyond(wc, rng, pool):
    covered = [a for a in pool[:3] if _c2_covered(a)]
    a = covered[int(rng.integers(len(covered)))]
    star = wc.conjugate(a.omega)
    ss = _log_uniform(rng, 2.0 * star.domain_hint, 20.0 * star.domain_hint, 4)
    return _op(lambda: star.evaluate_many(ss), raises("DomainExhaustedError"),
               f"conjugate {a.desc} s>{2 * star.domain_hint:.3g}")


def _refuse_bounded_roots(wc, rng, pool):
    slope = float(rng.uniform(0.5, 3.0))
    p_max = int(rng.choice((400, 800)))
    lv = slope * np.arange(p_max + 1, dtype=float)  # roots constant: no omega_M
    return _op(lambda: wc.associated(wc.from_log_values(lv)), raises("WellDefinednessError"),
               f"linear log M slope={slope:.4g}")


def _refuse_recover_beyond(wc, rng, pool):
    a = pool[int(rng.integers(6, 8))]  # exp_power: mu_p leaves the grid fast
    p_edge = max(8, a.p_inside(math.log(1e8)) + 2)
    p_count = p_edge + int(rng.integers(0, 10))
    return _op(lambda: wc.recover_sequence(a.omega, p_count=p_count),
               raises("DomainExhaustedError"), f"{a.desc} p_count={p_count}")


_REFUSAL_DRAWS = (
    _refuse_swapped_closed, _refuse_swapped_assoc, _refuse_lower_beyond,
    _refuse_sublinear_conjugate, _refuse_conjugate_beyond, _refuse_bounded_roots,
    _refuse_recover_beyond, _refuse_swapped_closed,
)


# ---------------------------------------------------------------------------
# long-sequences
# ---------------------------------------------------------------------------

#: (P_max, log-convex?) of the inputs of one pass.  Half of the inputs (27%
#: of the elements) carry seeded bumps that break log-convexity.  The eight
#: equal small inputs put sixteen operations of one cost (minorant and
#: associated at 2e5) at the top decile, so op_p90_ms reads a cluster rather
#: than a gap between sizes.
LONG_INPUTS = (
    (4_000_000, True), (1_000_000, False),
    (200_000, True), (200_000, False), (200_000, True), (200_000, False),
    (200_000, True), (200_000, False), (200_000, True), (200_000, False),
)
#: Prefix lengths of the JSON round trips and sizes of the O(P^2)
#: moderate-growth scans in one pass.
JSON_PREFIXES = (100_000, 500_000)
MG_SIZES = (2000, 4000)
ASSOC_PROBES = 8
BUMPS = 4


def _bumped(lv, rng):
    """Raise a few interior entries so they sit above the chord of their
    neighbours; returns the new values and the bump positions."""
    p_max = lv.size - 1
    # positions at least 3 apart, so each bump is the only raised point in
    # its second difference and the first drop sits right after the first bump
    spots = np.sort(rng.choice(np.arange(p_max // 100, p_max - 1, 3), BUMPS, replace=False))
    out = lv.copy()
    out[spots] += rng.uniform(0.5, 2.0, BUMPS)
    return out, spots


def long_sequences(rng, probe):
    """Sequence-layer pipeline at P from 1e5 to 4e6, plus JSON round trips
    and moderate-growth scans."""
    import weightcalc as wc
    from weightcalc import serialization

    order = rng.permutation(len(LONG_INPUTS))
    ops = []
    for i in order:
        p_max, convex = LONG_INPUTS[i]
        s = float(rng.uniform(0.3, 0.95))
        base = np.asarray(wc.gevrey(s, p_max).log_values)
        lv, spots = (base, None) if convex else _bumped(base, rng)
        other = wc.gevrey(s + float(rng.uniform(0.3, 0.5)), p_max)
        desc = f"gevrey({s:.4g}, P={p_max})" + ("" if convex else f" bumps at {list(spots)}")
        ops += _pipeline(wc, rng, probe, lv, convex, spots, other, desc)
    for p_max in MG_SIZES:
        ops.append(_moderate_growth(wc, rng, p_max))
    for n in JSON_PREFIXES:
        ops.append(_json_round_trip(wc, serialization, rng, probe, n))
    return ops


def _pipeline(wc, rng, probe, lv, convex, spots, other, desc):
    state = {}
    p_max = lv.size - 1

    def build():
        state["m"] = m = wc.from_log_values(lv, name="input")
        probe.declare_sequence_class(m, convex)
        return m

    def check_build(m):
        return None if np.array_equal(np.asarray(m.log_values), lv) else "log values not kept"

    def check_conjugate(c):
        logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, p_max + 1)))))
        return ref.agree("M* M = p!", np.asarray(c.log_values) + lv, logfact, 1e-9)

    expected_lc = (True, None) if convex else (False, int(spots[0]) + 1)

    def check_minorant(out):
        got = np.asarray(out.log_values)
        if convex:
            return None if np.array_equal(got, lv) else "minorant changed a log-convex input"
        scale = float(np.max(np.abs(lv)))
        return _all(
            None if np.all(got <= lv + 1e-12 * scale) else "minorant exceeds the input",
            None if ref.convex(got, 1e-12 * scale) else "minorant is not log-convex",
            None if got[0] == lv[0] and got[-1] == lv[-1] else "minorant moved an endpoint",
        )

    def check_relation(v):
        if not (v.preceq and v.triangle and v.leq_pointwise):
            return f"verdict {v.kind}: expected M below N with vanishing root ratio"
        return None

    probe_t = np.exp(np.linspace(0.0, 0.9 * float(np.max(np.diff(lv))), ASSOC_PROBES))

    def run_associated():
        return wc.associated(state["m"]).evaluate_many(probe_t)

    def check_associated(vals):
        want = np.array([max(0.0, float(np.max(np.arange(p_max + 1) * math.log(t) - (lv - lv[0]))))
                         for t in probe_t])
        return ref.agree("associated", vals, want, ref.REL_TOL_CLOSED_FORM)

    def run_regularize():
        reg, _ = wc.almost_decreasing_regularize(state["m"])
        return wc.normalize_head(reg)

    def check_regularize(out):
        got = np.asarray(out.log_values)
        logmu = np.diff(got)
        ratio = logmu - np.log(np.arange(1.0, p_max + 1))
        scale = float(np.max(np.abs(got)))
        return _all(
            None if got[0] == 0.0 else "L_0 != 1",
            None if np.all(np.diff(ratio) <= 1e-9 * max(1.0, scale)) else "lambda_p/p increases",
            None if not convex or ref.convex(got, 1e-12 * scale) else "lost log-convexity",
        )

    stages = [
        ("long.build", build, check_build),
        ("long.conjugate_sequence", lambda: wc.conjugate_sequence(state["m"]), check_conjugate),
        ("long.is_log_convex", lambda: wc.is_log_convex(state["m"]),
         lambda r: None if tuple(r) == expected_lc else f"got {r}, expected {expected_lc}"),
        ("long.log_convex_minorant", lambda: wc.log_convex_minorant(state["m"]), check_minorant),
        ("long.relation", lambda: wc.relation(state["m"], other), check_relation),
        ("long.root_tests",
         lambda: (wc.sequences.has_divergent_roots(state["m"]), wc.sequences.small_roots_vanish(state["m"])),
         lambda r: None if r == (True, True) else f"root tests {r}, expected (True, True) for s < 1"),
        ("long.associated", run_associated, check_associated),
        ("long.regularize", run_regularize, check_regularize),
    ]
    return [Op(label, run, returns(check), desc) for label, run, check in stages]


def _moderate_growth(wc, rng, p_max):
    s = float(rng.uniform(0.3, 2.0))
    m = wc.gevrey(s, p_max)
    lv = np.asarray(m.log_values)

    def check(result):
        ok, c = result
        log_c = 0.0
        for p in range(0, p_max + 1, 256):
            ps = np.arange(p, min(p + 256, p_max + 1))[:, None]
            qs = np.arange(p_max + 1)[None, :]
            valid = ps + qs <= p_max
            idx = np.where(valid, ps + qs, 0)
            deficit = np.where(valid, (lv[idx] - lv[ps] - lv[qs]) / (ps + qs + 1), -np.inf)
            log_c = max(log_c, float(np.max(deficit)))
        return _all(None if ok else "moderate growth refused for a Gevrey sequence",
                    ref.agree("C", math.log(c), log_c, 1e-9))

    return Op("long.check_moderate_growth", lambda: wc.check_moderate_growth(m), returns(check),
              f"gevrey({s:.4g}, P={p_max})")


def _json_round_trip(wc, serialization, rng, probe, n):
    s = float(rng.uniform(0.3, 0.95))
    m = wc.gevrey(s, n)

    def run():
        text = probe.call("serialization.dump",
                          lambda: serialization.dump_json(serialization.sequence_to_dict(m)),
                          counts=lambda out: {"bytes": len(out)})
        back = probe.call("serialization.load",
                          lambda: serialization.sequence_from_dict(json.loads(text)),
                          counts=lambda out: {"bytes": len(text)})
        return back

    def check(back):
        same = np.array_equal(np.asarray(back.log_values), np.asarray(m.log_values))
        return None if same and back.name == m.name else "JSON round trip is not bit-exact"

    return Op("long.json_round_trip", run, returns(check), f"gevrey({s:.4g}) prefix {n}")


WORKLOADS = {
    "verify-suite": verify_suite,
    "transform-sweep": transform_sweep,
    "long-sequences": long_sequences,
}
