import functools
import gc
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightcalc import bmt
from weightcalc import functions as fn
from weightcalc import grids
from weightcalc import sequences as sq
from weightcalc.errors import (
    DomainError,
    DomainExhaustedError,
    PreconditionError,
    WeightCalcError,
    WellDefinednessError,
)
from weightcalc.grids import GridSpec, TailWindow


# ---------------------------------------------------------------------------
# associated weight function
# ---------------------------------------------------------------------------


def test_weight_function_name_is_read_only():
    omega = fn.normalized(fn.power_weight(0.5))
    with pytest.raises(AttributeError):
        omega.name = "renamed"
    renamed = omega.with_name("norm_id^2")
    assert renamed.name == "norm_id^2" and omega.name != "norm_id^2"
    assert renamed.kind == omega.kind and renamed.domain_hint == omega.domain_hint
    ts = np.array([0.0, 0.5, 3.0, 40.0])
    assert np.array_equal(renamed.evaluate_many(ts), omega.evaluate_many(ts))


def test_weight_function_is_immutable():
    omega = fn.power_weight(0.5)
    with pytest.raises(AttributeError):
        omega.kind = "log_power"
    with pytest.raises(AttributeError):
        omega.domain_hint = 1.0
    with pytest.raises(TypeError):
        omega.params["alpha"] = 3.0
    assert omega.kind == "power" and math.isinf(omega.domain_hint)
    assert omega.params["alpha"] == 0.5 and omega(3.0) == 9.0


def test_weight_function_params_are_a_private_copy():
    params = {"alpha": 0.5}
    omega = fn.WeightFunction("power", lambda ts: ts**2.0, params=params)
    params["alpha"] = 3.0
    assert omega.params["alpha"] == 0.5


_NEGATIVE_T_SEQ = sq.gevrey(0.5, 400)


@pytest.mark.parametrize(
    "build",
    [
        lambda: fn.power_weight(0.5),
        lambda: fn.power_weight(2.0),
        lambda: fn.identity_weight(),
        lambda: fn.log_power_weight(2.0),
        lambda: fn.power_substitution(fn.power_weight(0.5), 3.0),
        lambda: fn.normalized(fn.power_weight(0.5)),
        lambda: fn.from_samples([1.0, 2.0, 4.0], [1.0, 2.0, 5.0]),
        lambda: fn.tabulate(fn.power_weight(0.5), 1e-2, 1e2, 256),
        lambda: fn.associated(_NEGATIVE_T_SEQ),
        lambda: fn.integral_form(_NEGATIVE_T_SEQ),
        lambda: fn.conjugate(fn.power_weight(0.5)),
        lambda: fn.biconjugate(fn.power_weight(0.5)),
        lambda: fn.envelope_lower(fn.power_weight(0.5), fn.power_weight(2.0)),
        lambda: fn.envelope_upper(fn.power_weight(2.0), fn.identity_weight()),
        # tau covers a finite range, so the runs of columns are cut
        lambda: fn.envelope_lower(
            fn.associated(sq.gevrey(0.4, 4000)), fn.associated(sq.gevrey(0.5, 4000))
        ),
        lambda: fn.envelope_upper(
            fn.associated(sq.gevrey(0.5, 4000)), fn.associated(sq.gevrey(0.4, 4000))
        ),
    ],
    ids=[
        "power", "root", "identity", "log_power", "power_substitution",
        "normalized", "sampled", "tabulated", "associated", "integral_form",
        "conjugate", "biconjugate", "envelope_lower", "envelope_upper",
        "envelope_lower_covered", "envelope_upper_covered",
    ],
)
def test_negative_argument_gives_the_value_at_zero(build):
    omega = build()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = omega.evaluate_many([-1.0, -1e-300, 0.0, math.nan])
    assert vals[0] == vals[1] == vals[2] == omega(0.0)
    assert math.isnan(vals[3])


def test_associated_exact_value_and_zero_region():
    omega = fn.associated(sq.gevrey(1, 400))
    assert omega(3.0) == pytest.approx(math.log(27 / 6), abs=1e-12)
    for t in (0.0, 0.3, 1.0):
        assert omega(t) == 0.0


def test_associated_matches_supremum_oracle():
    g = sq.gevrey(1, 400)
    omega = fn.associated(g)
    rng = np.random.default_rng(7)
    ts = np.exp(rng.uniform(0.0, math.log(400.0), size=200))
    ps = np.arange(401, dtype=float)
    brute = np.array(
        [np.max(g.log_values[0] + ps * math.log(t) - g.log_values) for t in ts]
    )
    assert np.max(np.abs(omega.evaluate_many(ts) - brute)) < 1e-10


def test_associated_equals_raw_supremum_after_regularisation():
    # the piecewise evaluator runs on the log-convex minorant, yet it must
    # reproduce the raw supremum of the non-convex input
    bumpy = np.concatenate(([0.0, 5.0], sq.gevrey(1, 40).log_values[2:]))
    omega = fn.associated(sq.from_log_values(bumpy))
    ts = np.linspace(1.5, 30.0, 64)
    ps = np.arange(41, dtype=float)
    brute = np.array([np.max(ps * math.log(t) - bumpy) for t in ts])
    assert np.max(np.abs(omega.evaluate_many(ts) - brute)) < 1e-9


def test_associated_rejects_bounded_roots():
    with pytest.raises(WellDefinednessError):
        fn.associated(sq.from_log_values(np.arange(41.0) * math.log(2.0)))


def test_counting_and_integral_form():
    g = sq.gevrey(1, 400)
    assert fn.counting(g, 7.5) == 7
    assert fn.counting(g, 0.5) == 0
    omega = fn.associated(g)
    integral = fn.integral_form(g)
    ts = np.exp(np.linspace(0.1, math.log(390.0), 128))
    assert np.max(np.abs(integral.evaluate_many(ts) - omega.evaluate_many(ts))) < 1e-12
    assert integral(0.5) == 0.0


def test_integral_form_requires_log_convex():
    alternating = sq.from_log_values([0.0, math.log(10)] * 6)
    with pytest.raises(PreconditionError):
        fn.integral_form(alternating)


# ---------------------------------------------------------------------------
# conjugate transform
# ---------------------------------------------------------------------------


def test_conjugate_square_closed_form():
    star = fn.conjugate(fn.power_weight(0.5))
    ss = np.exp(np.linspace(0.0, math.log(1e4), 128))
    rel = np.abs(star.evaluate_many(ss) / (ss**2 / 4.0) - 1.0)
    assert np.max(rel) < 1e-6
    assert star(0.0) == 0.0


def test_conjugate_rejects_linear_weight():
    with pytest.raises(WellDefinednessError):
        fn.conjugate(fn.identity_weight())


def test_conjugate_at_zero_of_shifted_weight():
    # omega(0) > 0 makes omega*(0) = -omega(0), flagged by sign
    shifted = fn.WeightFunction("sampled", lambda ts: ts**2 + 1.0)
    star = fn.conjugate(shifted, check=False)
    assert star(0.0) == pytest.approx(-1.0)


def test_conjugate_monotone_and_convex_on_samples():
    star = fn.conjugate(fn.power_weight(0.75))
    ss = np.exp(np.linspace(0.0, math.log(100.0), 200))
    vals = star.evaluate_many(ss)
    assert np.all(np.diff(vals) >= -1e-9)
    chord = 0.5 * (vals[:-2] + vals[2:])
    mid = star.evaluate_many(0.5 * (ss[:-2] + ss[2:]))
    assert np.all(mid <= chord * (1 + 1e-8) + 1e-8)


def test_conjugate_of_associated_is_exact_where_its_grid_cell_is_right():
    # s t - omega_M(t) is convex in log t between the quotients mu_p, so the
    # conjugate is max_p (s mu_p - omega_M(mu_p)); brackets holding several
    # quotients are no longer left below it
    m = sq.gevrey(0.4, 12000)
    omega = fn.associated(m)
    star = fn.conjugate(omega)
    ss = np.exp(np.linspace(0.0, math.log(star.domain_hint / 2), 200))
    got = star.evaluate_many(ss)
    log_mu = np.diff(m.log_values)
    ps = np.arange(1, m.p_max + 1)
    log_ts = GridSpec().log_points(omega.domain_hint)
    inside = log_mu <= log_ts[-1]
    at_kinks = ss[:, None] * np.exp(log_mu[inside]) - (ps * log_mu - (m.log_values[1:] - m.log_values[0]))[inside]
    exact = np.maximum(0.0, at_kinks.max(axis=1))
    right = np.zeros(ss.size, dtype=bool)
    grid_values = ss[:, None] * np.exp(log_ts) - omega.evaluate_many(np.exp(log_ts))
    for i, j in enumerate(np.argmax(grid_values, axis=1)):
        best = log_mu[inside][at_kinks[i] >= exact[i] - 1e-13 * max(1.0, exact[i])]
        right[i] = np.any((best >= log_ts[j - 1]) & (best <= log_ts[j + 1]))
    tol = 1e-12 * np.maximum(1.0, exact)
    assert right.mean() > 0.95
    assert np.all(np.abs(got - exact)[right] <= tol[right])
    assert np.all(got <= exact + tol)


def test_conjugate_fast_growth_inequality():
    omega = fn.power_weight(0.5)
    star = fn.conjugate(omega, GridSpec(1e-2, 1e10, 4096))
    ss = np.exp(np.linspace(0.0, math.log(50.0), 64))
    lower = np.maximum(ss**2 - omega.evaluate_many(ss), ss - omega(1.0))
    assert np.all(star.evaluate_many(ss) >= lower * (1 - 1e-9) - 1e-9)


def test_conjugate_satisfies_c2_automatically():
    star = fn.conjugate(fn.power_weight(0.5))
    assert fn.c2_proxy(star, TailWindow(1e2, 1e6, 256))


def _recorded_c2_proxy(omega):
    """c2_proxy(omega), and the (function, window) of each call it makes."""
    calls, proxy = [], fn.c2_proxy

    def recording(w, window=None):
        calls.append((w, window))
        return proxy(w, window)

    with mock.patch.object(fn, "c2_proxy", recording):
        return fn.c2_proxy(omega), calls


def test_conjugate_of_a_short_power_substitution_is_certified_by_its_operand():
    # the tail window clipped to the coverage mu_P^alpha = 9.46 holds under a
    # decade of samples with omega >= 1, which decides nothing; with alpha
    # <= 1 the operand's own verdict on the mapped window t^(1/alpha) holds
    omega = fn.associated(sq.gevrey(0.5, 8000))
    sub = fn.power_substitution(omega, 0.5)
    verdict, calls = _recorded_c2_proxy(sub)
    assert verdict and [w for w, _ in calls] == [sub, omega]
    clipped, mapped = grids.DEFAULT_TAIL.clipped(sub.domain_hint), calls[1][1]
    assert (mapped.t_lo, mapped.t_hi) == (clipped.t_lo**2.0, clipped.t_hi**2.0)
    ss = np.exp(np.linspace(0.0, math.log(20.0), 16))
    got = fn.conjugate(sub).evaluate_many(ss)
    np.testing.assert_array_equal(got, fn.conjugate(sub, check=False).evaluate_many(ss))


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_refused_power_substitution_consults_its_operand_only_for_alpha_at_most_one(alpha):
    # t^(1/2) is not o(t), and neither are its substitutions t^(1/(2 alpha));
    # beyond alpha = 1, s^alpha / omega(s) exceeds s / omega(s), so the
    # operand's verdict says nothing and the direct route alone decides
    omega = fn.power_weight(2.0)
    sub = fn.power_substitution(omega, alpha)
    verdict, calls = _recorded_c2_proxy(sub)
    assert not verdict
    assert [w for w, _ in calls] == ([sub, omega] if alpha <= 1.0 else [sub])


def test_power_substitution_past_the_float_range_reaches_its_operand_as_inf():
    # t^1000 overflows at t = 1e7; the mapped tail window overflows too
    omega = fn.power_substitution(fn.power_weight(0.5), 0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert omega(1e7) == math.inf
        assert not fn.c2_proxy(omega)


def test_conjugate_domain_exhausted_at_edge():
    star = fn.conjugate(fn.power_weight(0.5), GridSpec(1e-2, 1e2, 256))
    with pytest.raises(DomainExhaustedError):
        star(1e6)


# ---------------------------------------------------------------------------
# biconjugate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_biconjugate_reproduces_convex_weights(alpha):
    omega = fn.power_weight(alpha)
    bi = fn.biconjugate(omega)
    ts = np.exp(np.linspace(0.0, math.log(1e3), 128))
    rel = np.abs(bi.evaluate_many(ts) / omega.evaluate_many(ts) - 1.0)
    assert np.max(rel) < 1e-3


def test_biconjugate_minorizes_nonconvex():
    base = np.exp(np.linspace(math.log(1e-2), math.log(1e6), 400))
    wiggly = base**1.5 * (1.2 + 0.2 * np.sin(np.log(base)))
    sampled = fn.from_samples(base, wiggly)
    bi = fn.biconjugate(sampled)
    ts = np.exp(np.linspace(0.0, math.log(1e4), 128))
    upper = sampled.evaluate_many(ts)
    assert np.all(bi.evaluate_many(ts) <= upper * (1 + 1e-9) + 1e-9)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def test_envelope_lower_identity_pair():
    env = fn.envelope_lower(fn.identity_weight(), fn.identity_weight())
    ts = np.exp(np.linspace(math.log(10.0), math.log(1e4), 64))
    rel = np.abs(env.evaluate_many(ts) / (2.0 * np.sqrt(ts)) - 1.0)
    assert np.max(rel) < 1e-4
    assert env(0.0) == 0.0


def test_envelope_lower_commutative():
    sigma, tau = fn.power_weight(0.5), fn.power_weight(0.75)
    e1 = fn.envelope_lower(sigma, tau)
    e2 = fn.envelope_lower(tau, sigma)
    ts = np.exp(np.linspace(0.0, math.log(1e4), 64))
    assert np.max(np.abs(e1.evaluate_many(ts) - e2.evaluate_many(ts))) < 1e-9


def test_envelope_lower_of_associated_functions_is_that_of_the_product():
    # inf_s omega_M(s) + omega_N(t/s) = omega_MN(t), the infimal convolution
    # in log t of two conjugates being the conjugate of the sum
    # (the grid route's accuracy: the public envelope of this pair is
    # answered from the sequences, see the tests below)
    m, n = sq.gevrey(0.5, 2000), sq.gevrey(0.8, 2000)
    sigma, tau = fn.associated(m), fn.associated(n)
    ts = np.exp(np.linspace(math.log(2.0), math.log(5e3), 300))
    got = fn._grid_envelope_lower(sigma, tau).evaluate_many(ts)
    lv = m.log_values + n.log_values
    ps = np.arange(lv.size, dtype=float)
    exact = np.max(ps * np.log(ts)[:, None] - (lv - lv[0]), axis=1)
    # the minimisers of the objective in y = log s form an interval between
    # two kinks; an argument's grid cell is right when [y_(j-1), y_(j+1)]
    # around its grid argmin j meets that interval
    log_ss = GridSpec().log_points(sigma.domain_hint)
    right = np.zeros(ts.size, dtype=bool)
    for i, t in enumerate(ts):
        objective = lambda y: sigma.evaluate_many(np.exp(y)) + tau.evaluate_many(t / np.exp(y))
        masked = t / np.exp(log_ss) > tau.domain_hint
        j = int(np.argmin(np.where(masked, np.inf, objective(log_ss))))
        ys = np.concatenate((fn.log_kinks(sigma)[0], math.log(t) - fn.log_kinks(tau)[0]))
        ys = ys[objective(ys) <= exact[i] + 1e-13 * max(1.0, exact[i])]
        right[i] = ys.min() <= log_ss[j + 1] and ys.max() >= log_ss[j - 1]
    tol = 1e-12 * np.maximum(1.0, exact)
    assert right.mean() > 0.9
    assert np.all(np.abs(got - exact)[right] <= tol[right])
    # every value is the objective somewhere, so never below the infimum
    assert np.all(got >= exact - tol)


def _sampled_in_log(log_ts, slopes):
    """Sampled weight with the given slope in log t between its samples."""
    return fn.from_samples(np.exp(log_ts), np.concatenate(([0.0], np.cumsum(slopes * np.diff(log_ts)))))


@pytest.mark.parametrize("which", ["lower", "upper"])
def test_envelopes_of_sampled_operands_are_exact_at_their_kinks(which):
    # sigma(e^y) and tau(e^u) piecewise linear with non-integer slopes; the
    # objective in y = log s is convex (lower: both slopes rise) or concave
    # (upper: sigma's fall, tau's rise), so its optimum is one of the kinks
    # of sigma at y or of tau at log t -+ y, and its grid cell is right
    rng = np.random.default_rng(5)
    log_ts = np.linspace(math.log(1e-2), math.log(1e6), 41) + rng.uniform(-0.1, 0.1, 41)
    tau = _sampled_in_log(log_ts, np.sort(rng.uniform(0.3, 4.0, 40)))
    slopes = np.sort(rng.uniform(0.3, 4.0, 40))
    sigma = _sampled_in_log(log_ts, slopes[::-1] if which == "upper" else slopes)
    ts = np.exp(np.linspace(0.0, math.log(1e3), 50))
    sign = -1.0 if which == "lower" else 1.0
    ys = np.concatenate(
        (np.tile(fn.log_kinks(sigma)[0], (ts.size, 1)), np.log(ts)[:, None] + sign * fn.log_kinks(tau)[0]),
        axis=1,
    )
    ss = np.exp(ys)
    if which == "lower":
        got = fn.envelope_lower(sigma, tau).evaluate_many(ts)
        values = sigma.evaluate_many(ss) + tau.evaluate_many(ts[:, None] / ss)
        exact = np.min(np.where(ts[:, None] / ss <= tau.domain_hint, values, np.inf), axis=1)
    else:
        got = fn.envelope_upper(sigma, tau, check=False).evaluate_many(ts)
        values = sigma.evaluate_many(ss) - tau.evaluate_many(ss / ts[:, None])
        inside = (ss / ts[:, None] <= tau.domain_hint) & (ss <= sigma.domain_hint)
        # the s = 0 endpoint, sigma(0) - tau(0) = 0, competes
        exact = np.maximum(0.0, np.max(np.where(inside, values, -np.inf), axis=1))
    np.testing.assert_allclose(got, exact, rtol=1e-12, atol=1e-12)


def _lower_envelope_closed_form(m, alpha, ts):
    """inf_s omega_M(s) + (t / s)^(1/alpha) in closed form.  On the piece
    s in [mu_p, mu_(p+1)], y = log s, the objective p y - (log M_p - log M_0)
    + (t e^-y)^(1/alpha) is convex, least at y = log t - alpha log(alpha p)
    clipped to the piece; on [0, mu_1] omega_M is 0 and the least value is
    at s = mu_1."""
    lv, log_mu = m.log_values, m.log_quotients
    p = np.arange(1.0, lv.size - 1)
    log_t = np.log(ts)[:, None]
    y = np.clip(log_t - alpha * np.log(alpha * p), log_mu[1:-1], log_mu[2:])
    pieces = p * y - (lv[1:-1] - lv[0]) + np.exp((log_t - y) / alpha)
    return np.minimum(pieces.min(axis=1), np.exp((np.log(ts) - log_mu[1]) / alpha))


@pytest.mark.parametrize("swapped", [False, True], ids=["associated_sigma", "associated_tau"])
def test_lower_envelope_of_an_associated_and_a_power_weight_is_its_closed_form(swapped):
    # a mixed pair: the associated operand's kinks cut the brackets, and
    # the power weight's smooth pieces take parabolic refinement
    m, alpha = sq.gevrey(0.5, 8000), 2.0
    pair = (fn.associated(m), fn.power_weight(alpha))
    ts = np.exp(np.linspace(math.log(2.0), math.log(60.0), 200))
    got = fn.envelope_lower(*(pair[::-1] if swapped else pair)).evaluate_many(ts)
    exact = _lower_envelope_closed_form(m, alpha, ts)
    assert np.max(np.abs(got - exact) / exact) <= 2e-15


def test_kink_description_follows_the_wrappers():
    m, alpha = sq.gevrey(0.5, 8000), 0.5
    omega = fn.associated(m)
    log_mu = omega.params["minorant"].log_quotients[1:]
    knots, linear = fn.log_kinks(fn.power_substitution(omega, alpha))
    assert linear and knots.tobytes() == (alpha * log_mu).tobytes()
    # omega(t^(1/alpha)) has slope p / alpha in log t past alpha log mu_p
    sub = fn.power_substitution(omega, alpha)
    for p in (1, 4, 100):
        y = alpha * log_mu[p - 1] + np.array([-2e-4, -1e-4, 1e-4, 2e-4])
        v = sub.evaluate_many(np.exp(y))
        slopes = np.diff(v)[[0, 2]] / 1e-4
        np.testing.assert_allclose(slopes, [(p - 1) / alpha, p / alpha], rtol=1e-6)
    knots, linear = fn.log_kinks(fn.normalized(omega))
    assert linear and knots.tobytes() == np.union1d(log_mu, 0.0).tobytes()
    assert fn.log_kinks(fn.power_weight(alpha)) == (None, False)
    knots, linear = fn.log_kinks(fn.normalized(fn.power_weight(alpha)))
    assert not linear and knots.tolist() == [0.0]


def _pieces_given_to_parabolic_refinement(evaluate):
    """(xs, lo, hi) of every call ``evaluate()`` makes of
    ``grids.parabolic_max_vec``."""
    pieces = []
    kernel = grids.parabolic_max_vec

    def recording(f, xs, lo, mid, hi, iters=60):
        pieces.append((xs, lo, hi))
        return kernel(f, xs, lo, mid, hi, iters)

    with mock.patch.object(grids, "parabolic_max_vec", recording):
        evaluate()
    return pieces


@pytest.mark.parametrize(
    "case",
    ["envelope_sigma", "envelope_tau", "conjugate_normalized", "conjugate_power_substitution"],
)
def test_parabolic_refinement_gets_no_piece_holding_a_known_kink(case):
    # knots in y = log s: log mu_p of an associated sigma; log t - log mu_p
    # of an associated tau; log mu_p and 0 of a normalized operand; alpha
    # log mu_p of a power substitution
    m, alpha = sq.gevrey(0.5, 8000), 0.5
    omega, log_mu = fn.associated(m), m.log_quotients[1:]
    ts = np.exp(np.linspace(math.log(2.0), math.log(60.0), 200))
    sign, knots = 1.0, log_mu
    if case == "envelope_sigma":
        transform = fn.envelope_lower(omega, fn.power_weight(2.0))
    elif case == "envelope_tau":
        transform, sign = fn.envelope_lower(fn.power_weight(2.0), omega), -1.0
    elif case == "conjugate_normalized":
        transform, knots = fn.conjugate(fn.normalized(omega)), np.union1d(log_mu, 0.0)
    else:
        # the tail window of c2_proxy lies mostly below the operand's
        # coverage, which ends at mu_P^alpha = 9.5
        transform = fn.conjugate(fn.power_substitution(omega, alpha), check=False)
        knots = alpha * log_mu
    pieces = _pieces_given_to_parabolic_refinement(lambda: transform.evaluate_many(ts))
    if case.startswith("envelope"):
        assert pieces
    for xs, lo, hi in pieces:
        # the knots u of the row with argument x whose y lies in (lo, hi),
        # beyond the rounding of log x - u
        ends = (lo, hi) if sign > 0 else (np.log(xs) - hi, np.log(xs) - lo)
        first = np.searchsorted(knots, ends[0] + 1e-13, "right")
        assert np.all(np.searchsorted(knots, ends[1] - 1e-13, "left") == first)


def test_dense_envelope_scan_keeps_to_the_scratch_budget():
    # log(1+t)^0.5 is not convex in log t, so the envelope takes the dense
    # scan: 2,000 rows of 2,048 cells, which it scans a block at a time
    env = fn.envelope_lower(fn.power_weight(0.5), fn.normalized(fn.log_power_weight(0.5)))
    ts = np.geomspace(1.0, 1e3, 2000)
    dense = mock.patch.object(grids, "_dense_argmax", wraps=grids._dense_argmax)
    gc.collect()
    tracemalloc.start()
    try:
        with dense as scanned:
            env.evaluate_many(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scanned.called
    assert peak <= 16 * grids._SCRATCH_CELLS * 8


def test_envelope_upper_calculus_oracle():
    # sup_s sqrt(s) - s/t peaks at s = t^2/4 with value t/4
    env = fn.envelope_upper(fn.power_weight(2.0), fn.identity_weight())
    ts = np.exp(np.linspace(math.log(10.0), math.log(1e4), 64))
    rel = np.abs(env.evaluate_many(ts) / (ts / 4.0) - 1.0)
    assert np.max(rel) < 1e-9
    assert env(0.0) == 0.0


def test_envelope_upper_rejects_dominated_pair():
    with pytest.raises(WellDefinednessError):
        fn.envelope_upper(fn.power_weight(0.5), fn.identity_weight())


def test_envelope_value_at_zero_rules():
    sigma = fn.power_weight(2.0)  # sqrt growth: dominated by tau dilations
    tau = fn.power_weight(0.5)
    low = fn.envelope_lower(sigma, tau)
    assert low(0.0) == sigma(0.0) + tau(0.0)
    up = fn.envelope_upper(sigma, tau)
    assert up(0.0) == sigma(0.0) - tau(0.0)


def _runs_given_to_the_kernel(envelope, ts, monkeypatch):
    """The arguments and the runs of columns that ``envelope`` passes to
    ``grid_sup`` at ``ts``."""
    seen = []

    def recording(xs, *args, runs, **options):
        seen.append((xs, runs))
        return np.zeros(xs.size)

    monkeypatch.setattr(fn, "grid_sup", recording)
    envelope.evaluate_many(ts)
    ((xs, (lo, hi)),) = seen
    return xs, lo, hi


@pytest.mark.parametrize("tau_hint", [1e-3, 0.7, 3.0, 14.06, 1e5])
def test_envelope_runs_match_the_coverage_predicate_cell_for_cell(
    tau_hint, monkeypatch
):
    # a row's run holds the cells whose tau argument (t / s for the lower
    # envelope, s / t for the upper one) lies within tau's coverage; the
    # arguments at which a grid point s_j sits on the boundary, and their
    # neighbouring floats, test the rounding of the search for it
    ss = fn.DEFAULT_GRID.points()
    n = ss.size
    edges = np.concatenate((tau_hint * ss, ss / tau_hint))
    ts = np.concatenate((
        np.exp(np.random.default_rng(11).uniform(math.log(1e-8), math.log(1e12), 4000)),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), [math.nan],
    ))
    tau = fn.WeightFunction("capped", np.sqrt, domain_hint=tau_hint)
    sigma = fn.power_weight(1.0)
    nan = np.isnan(ts)

    xs, lo, hi = _runs_given_to_the_kernel(
        fn.envelope_lower(sigma, tau), ts, monkeypatch
    )
    want = (ts[:, None] / ss > tau_hint).sum(axis=1)
    np.testing.assert_array_equal(xs, ts)
    np.testing.assert_array_equal(lo, np.where(nan, 0, want))
    assert np.all(hi == n - 1)

    xs, lo, hi = _runs_given_to_the_kernel(
        fn.envelope_upper(sigma, tau, check=False), ts, monkeypatch
    )
    want = (ss / ts[:, None] <= tau_hint).sum(axis=1) - 1
    # the rows with an empty run are answered by the s = 0 endpoint alone,
    # and a NaN row runs over the whole grid
    live = (want >= 0) | nan
    np.testing.assert_array_equal(xs, ts[live])
    np.testing.assert_array_equal(hi, np.where(nan, n - 1, want)[live])
    assert np.all(lo == 0)


# ---------------------------------------------------------------------------
# envelopes of associated pairs, answered from their sequences
# ---------------------------------------------------------------------------


def _both_routes(which, sigma, tau, grid=fn.DEFAULT_GRID):
    """The public envelope of the pair and its grid route; the upper
    envelope's precondition is not applied."""
    if which == "lower":
        return (
            fn.envelope_lower(sigma, tau, grid),
            fn._grid_envelope_lower(sigma, tau, grid),
        )
    return (
        fn.envelope_upper(sigma, tau, grid, check=False),
        fn._grid_envelope_upper(sigma, tau, grid),
    )


def _exact_optimum(which, sigma, tau, log_ts):
    """The envelope's value at each log t by brute force over p, and for
    every p the ends of the set of log s where p attains it (NaN where p is
    not optimal, to rounding): the lower envelope is max_p (p x - (log M_p
    + log N_p)), the upper one max_p (p x - (log M_p - log N_p)), with M and
    N the operands' log-convex minorants and x = log t."""
    m, n = sigma.params["minorant"], tau.params["minorant"]
    lv = m.log_values + n.log_values if which == "lower" else m.log_values - n.log_values
    ps = np.arange(lv.size)
    x = log_ts[:, None]
    affine = ps * x - (lv - lv[0])
    value = affine.max(axis=1)
    optimal = affine >= value[:, None] - 1e-13 * np.maximum(1.0, np.abs(value[:, None]))
    log_mu, log_nu = (np.append(seq.log_quotients, np.inf) for seq in (m, n))
    if which == "lower":
        y_lo = np.maximum(log_mu[:-1], x - log_nu[1:])
        y_hi = np.minimum(log_mu[1:], x - log_nu[:-1])
    else:
        y_lo, y_hi = x + log_nu[:-1], x + log_nu[1:]
    return value, np.where(optimal, y_lo, np.nan), np.where(optimal, y_hi, np.nan)


def _search_runs(which, sigma, tau, ts, grid=fn.DEFAULT_GRID):
    """The grid of log s and each argument's run of columns [lo, hi], from
    the coverage predicate (empty when lo > hi)."""
    log_ss = grid.log_points(sigma.domain_hint)
    ss = np.exp(log_ss)
    ts = ts[:, None]
    if which == "lower":
        lo = (ts / ss > tau.domain_hint).sum(axis=1)
        return log_ss, lo, np.full_like(lo, ss.size - 1)
    hi = (ss / ts <= tau.domain_hint).sum(axis=1) - 1
    return log_ss, np.zeros_like(hi), hi


def _gap(y_lo, y_hi, y):
    """Distance from the point y to the nearest of the intervals [y_lo,
    y_hi] (NaN ends mark no interval)."""
    return np.nanmin(np.maximum(0.0, np.maximum(y_lo - y, y - y_hi)), initial=np.inf)


_PAIR_FAMILIES = {
    "gevrey": (sq.gevrey, st.floats(0.25, 2.0)),
    "exp_power": (sq.exp_power, st.floats(1.2, 2.5)),
    "qgevrey": (sq.qgevrey, st.floats(1.05, 3.0)),
}


@st.composite
def _associated_pairs(draw):
    p_max = draw(st.sampled_from([100, 500, 2000, 8000]))

    def one():
        make, param = _PAIR_FAMILIES[draw(st.sampled_from(sorted(_PAIR_FAMILIES)))]
        return fn.associated(make(draw(param), p_max))

    return one(), one()


@pytest.mark.parametrize("which", ["lower", "upper"])
@settings(max_examples=40, deadline=None)
@given(
    pair=_associated_pairs(),
    ts=st.lists(
        st.one_of(
            st.floats(-3.0, 9.0).map(lambda e: 10.0**e),
            st.sampled_from([math.nan, 0.0, -2.5]),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_envelope_of_an_associated_pair_agrees_with_its_grid_route(which, pair, ts):
    sigma, tau = pair
    ts = np.asarray(ts)
    exact, grid_route = _both_routes(which, sigma, tau)
    labels = np.arange(ts.size)
    got, refused = exact.evaluate_many(ts, groups=labels)
    want, refused_ref = grid_route.evaluate_many(ts, groups=labels)
    # t <= 0 and NaN are answered alike, and never refused
    special = ~(ts > 0)
    np.testing.assert_array_equal(got[special], want[special])
    assert not (refused | refused_ref)[special].any()
    # where both accept, the values agree (the rounding of p log t - log M_p
    # is absolute, so below 1 the tolerance is too); the grid route answers
    # the lower envelope's cap 0 within 1e-12 of it
    both = ~refused & ~refused_ref & ~special
    close = np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))
    capped = (which == "lower") & (want == 0.0) & (got <= 1e-12)
    assert np.all((close | capped)[both])
    # a refusal flips only where an optimal set comes within one grid cell
    # of a refusing end of the searched range, or where the grid route
    # accepts a value short of the optimum, which lies outside its range
    ts = np.where(special, 1.0, ts)
    value, y_lo, y_hi = _exact_optimum(which, sigma, tau, np.log(ts))
    log_ss, lo, hi = _search_runs(which, sigma, tau, ts)
    cell = log_ss[1] - log_ss[0]
    ends = (lo, hi) if which == "lower" else (hi,)
    for i in np.flatnonzero(refused != refused_ref):
        inside = [end[i] for end in ends if 0 <= end[i] < log_ss.size]
        near = min((_gap(y_lo[i], y_hi[i], log_ss[end]) for end in inside), default=math.inf)
        short = want[i] > value[i] * (1 + 1e-14) if which == "lower" else (
            want[i] < value[i] * (1 - 1e-14)
        )
        assert near <= cell * (1 + 1e-9) or (refused[i] and short)


def test_envelopes_of_other_pairs_take_the_grid_route(monkeypatch):
    # P_max differs, or one operand is not an associated function
    short, long = sq.gevrey(0.5, 4000), sq.gevrey(0.25, 8000)
    pairs = [
        (fn.associated(short), fn.associated(long)),
        (fn.associated(sq.gevrey(1.5, 4000)), fn.associated(short)),
        (fn.associated(short), fn.power_weight(2.0)),
    ]
    builds = [
        lambda: fn.envelope_lower(*pairs[0]),
        lambda: fn.envelope_upper(*pairs[0][::-1], check=False),
        lambda: fn.envelope_lower(fn.associated(short), fn.integral_form(short)),
        lambda: fn.envelope_lower(*pairs[2]),
    ]
    envelopes = [build() for build in builds]
    same_p_max = fn.envelope_upper(*pairs[1])

    def refuse(*args, **options):
        raise AssertionError("grid_sup called")

    monkeypatch.setattr(fn, "grid_sup", refuse)
    for env in envelopes:
        with pytest.raises(AssertionError, match="grid_sup called"):
            env.evaluate_many([5.0, 40.0])
    assert np.all(np.isfinite(same_p_max.evaluate_many([5.0, 40.0])))


def _growthrel_envelopes(p_max=100000):
    """GROWTHREL_SEQ's two lower envelopes, as the check builds them."""
    small = fn.envelope_lower(
        fn.associated(sq.gevrey(1 / 3, p_max)), fn.associated(sq.gevrey(0.25, p_max))
    )
    big = fn.envelope_lower(
        fn.associated(sq.gevrey(0.5, p_max)), fn.associated(sq.gevrey(1 / 3, p_max))
    )
    return small, big


@functools.cache
def _check_envelopes():
    """(label, envelope, relation samples) for ENVELOPE_ID's five clauses
    and GROWTHREL_SEQ's two envelopes."""
    from weightcalc import checks

    out = []
    for clause in ("i", "ii", "iii", "iv", "v"):
        (env, ref, window, _), _ = checks._envelope_id_clause(clause)
        out.append((f"clause_{clause}", env, fn._relation_samples(env, ref, window)[0]))
    small, big = _growthrel_envelopes()
    ts = fn._relation_samples(small, big, TailWindow(2.0, 50.0, 256))[0]
    return out + [("growthrel_small", small, ts), ("growthrel_big", big, ts)]


def _dilated(ts):
    """The relation samples at every dilation of H_GRID, and their labels."""
    args = np.concatenate([h * ts for h in fn.H_GRID])
    return args, np.repeat(np.arange(fn.H_GRID.size), ts.size)


@pytest.mark.parametrize("index", range(7))
def test_check_envelopes_refuse_the_same_dilations_as_the_grid_route(index):
    label, env, ts = _check_envelopes()[index]
    which = env.kind.removeprefix("envelope_")
    _, grid_route = _both_routes(which, env.params["sigma"], env.params["tau"])
    args, labels = _dilated(ts)
    got, refused = env.evaluate_many(args, groups=labels)
    want, refused_ref = grid_route.evaluate_many(args, groups=labels)
    np.testing.assert_array_equal(refused, refused_ref)
    assert refused.any() and not refused.all()
    keep = ~refused[labels]
    assert np.all(np.abs(got - want)[keep] <= 1e-14 * np.maximum(1.0, np.abs(want[keep])))


def test_check_envelopes_search_no_grid(monkeypatch):
    envelopes = _check_envelopes()
    small, big = _growthrel_envelopes(4000)

    def refuse(*args, **options):
        raise AssertionError("grid_sup called")

    monkeypatch.setattr(fn, "grid_sup", refuse)
    for _, env, ts in envelopes:
        args, labels = _dilated(ts)
        values, refused = env.evaluate_many(args, groups=labels)
        assert np.all(np.isfinite(values[~refused[labels]]))
        assert np.all(np.isfinite(env.evaluate_many(ts)))
    # transform-sweep's refusal draw: t beyond the product's last quotient
    for sigma, tau in ((small, big), (big, small)):
        m = sigma.params["sigma"].params["sequence"]
        n = tau.params["tau"].params["sequence"]
        env = fn.envelope_lower(fn.associated(m), fn.associated(n))
        top = math.exp(float(np.diff(m.log_values + n.log_values)[-1]))
        with pytest.raises(DomainExhaustedError, match="envelope_lower"):
            env.evaluate_many([2.0 * top, 10.0 * top])
        with pytest.raises(DomainExhaustedError):
            env(2.0 * top)


def test_exact_envelope_refusal_names_the_first_refused_argument():
    env, grid_route = _both_routes(
        "lower", fn.associated(sq.gevrey(0.6, 2000)), fn.associated(sq.gevrey(0.3, 2000))
    )
    ts = [3.0, 1e9, 5.0, 1e10]
    errors = []
    for route in (env, grid_route):
        with pytest.raises(DomainExhaustedError) as info:
            route.evaluate_many(ts)
        errors.append((str(info.value), info.value.details))
    assert errors[0] == errors[1] and errors[0][1] == {"t": 1e9}
    values, refused = env.evaluate_many(ts + [-1.0], groups=[0, 1, 0, 2, 1])
    assert refused.tolist() == [False, True, True]
    assert np.isnan(values[[1, 3]]).all() and values[4] == 0.0
    np.testing.assert_array_equal(values[[0, 2]], env.evaluate_many([3.0, 5.0]))


# ---------------------------------------------------------------------------
# function relations
# ---------------------------------------------------------------------------


def test_relation_fn_reflexive():
    omega = fn.power_weight(0.5)
    verdict = fn.relation_fn(omega, omega)
    assert verdict.sim and verdict.preceq_c
    assert verdict.constants["h"] == 1.0
    assert verdict.constants["C"] == 0.0


def test_relation_fn_associated_factorials_vs_identity():
    omega = fn.associated(sq.gevrey(1, 40000))
    verdict = fn.relation_fn(omega, fn.identity_weight(), TailWindow(10.0, 3e4, 512))
    assert verdict.kind == "SIM"


def test_relation_fn_separated_powers():
    verdict = fn.relation_fn(fn.identity_weight(), fn.power_weight(0.5))
    assert not verdict.preceq  # t^2 is not O(t)
    assert verdict.preceq_rev


def test_relation_fn_slowly_varying_self_triangle_c():
    omega = fn.associated(sq.exp_power(2.0, 400))
    verdict = fn.relation_fn(omega, omega)
    assert verdict.triangle_c


def _dilation_scan_per_h(ts, tau_vals, sigma, hs):
    """Reference: the dilation scan with one evaluation of sigma per h."""
    found = []
    accepted = np.zeros(hs.size, dtype=bool)
    for i, h in enumerate(hs):
        args = h * ts
        valid = args <= sigma.domain_hint
        if int(valid.sum()) < max(8, ts.size // 2):
            continue
        try:
            shifted = sigma.evaluate_many(args[valid])
        except DomainExhaustedError:
            continue
        deficit = tau_vals[valid] - shifted
        ratio = tau_vals[valid] / np.maximum(shifted, 1e-300)
        if fn._deficit_accepted(deficit, ratio):
            accepted[i] = True
            found.append((float(h), max(0.0, float(np.max(deficit)))))
    if not found:
        return None, None, accepted
    c_min = min(c for _, c in found)
    h, c = min((h, c) for h, c in found if c <= c_min + 1e-12 * max(1.0, c_min))
    return h, c, accepted


class _Recorder:
    """A weight function that records each ``evaluate_many`` call: the number
    of arguments and the outcome, which is the refusal details when it
    raised, the refused-group mask of a call with ``groups``, and None
    otherwise."""

    def __init__(self, omega):
        self.omega, self.calls = omega, []

    def __getattr__(self, name):
        return getattr(self.omega, name)

    def evaluate_many(self, ts, *, groups=None):
        try:
            out = self.omega.evaluate_many(ts, groups=groups)
        except DomainExhaustedError as err:
            self.calls.append((ts.size, err.details))
            raise
        self.calls.append((ts.size, None if groups is None else out[1]))
        return out


def _batched_and_per_h_scans(sigma, tau, window):
    ts = window.samples()
    tau_vals = tau.evaluate_many(ts)
    recorder = _Recorder(sigma)
    got = fn._dilation_scan(ts, tau_vals, recorder, fn.H_GRID)
    want = _dilation_scan_per_h(ts, tau_vals, sigma, fn.H_GRID)
    return got, want, recorder.calls


def _assert_same_scan(got, want):
    (h, c, accepted), (h_ref, c_ref, accepted_ref) = got, want
    np.testing.assert_array_equal(accepted, accepted_ref)
    assert h == h_ref
    if c_ref is None:
        assert c is None
    else:
        assert abs(c - c_ref) <= 1e-12 * max(1.0, abs(c_ref))


def _tested_dilations(sigma, window):
    ts = window.samples()
    return sum(
        int(np.sum(h * ts <= sigma.domain_hint)) >= max(8, ts.size // 2)
        for h in fn.H_GRID
    )


@pytest.mark.parametrize(
    "sigma, tau",
    [
        (fn.associated(sq.gevrey(0.5, 2000)), fn.power_weight(0.5)),
        (fn.power_weight(0.5), fn.associated(sq.gevrey(0.5, 2000))),
        (fn.log_power_weight(2.0), fn.power_weight(2.0)),
    ],
    ids=["associated", "power", "log_power"],
)
def test_batched_dilation_scan_of_cheap_operands_is_bit_identical(sigma, tau):
    window = TailWindow(10.0, 1e3, 256)
    got, want, calls = _batched_and_per_h_scans(sigma, tau, window)
    assert got[:2] == want[:2]
    np.testing.assert_array_equal(got[2], want[2])
    # one call, whose refused mask holds one False per tested dilation
    ((_, refused),) = calls
    assert refused.tolist() == [False] * _tested_dilations(sigma, window)


@pytest.mark.parametrize("ulp_lower_at", [1.0, 2.0])
def test_dilation_scan_breaks_a_near_tie_towards_the_smallest_h(ulp_lower_at):
    # sigma is 1 on the arguments of h = 1 and one ulp above or below 1 on
    # those of h = 2, so the two C differ by one ulp of 2 either way
    ts = np.linspace(10.0, 15.0, 64)
    bumped = np.nextafter(1.0, 2.0) if ulp_lower_at == 2.0 else np.nextafter(1.0, 0.0)
    sigma = fn.WeightFunction("step", lambda t: np.where(t < 18.0, 1.0, bumped))
    h, c, accepted = fn._dilation_scan(ts, np.full(ts.size, 3.0), sigma, np.array([1.0, 2.0]))
    assert accepted.all()
    assert (h, c) == (1.0, 2.0)


def test_batched_dilation_scan_of_an_envelope_with_fully_masked_rows(monkeypatch):
    # ENVELOPE_ID clause (i): at h = 1024 every t h / s of the search grid lies
    # beyond the coverage of the conjugate's associated function.  The
    # public envelope of this associated pair is answered from the
    # sequences, so the grid route is called directly.
    m = sq.gevrey(1 / 3, 8000)
    tau = fn.associated(sq.conjugate_sequence(m))
    sigma = fn._grid_envelope_lower(fn.associated(m), tau)
    window = TailWindow(10.0, 1e3, 256)
    s_max = fn.DEFAULT_GRID.points(sigma.params["sigma"].domain_hint)[-1]
    assert fn.H_GRID[-1] * window.t_lo / s_max > tau.domain_hint
    empty = []
    search = grids._search

    def recording(xs, n, scan, lo, hi, *args):
        empty.append(bool(np.any(lo > hi)))
        return search(xs, n, scan, lo, hi, *args)

    monkeypatch.setattr(grids, "_search", recording)
    got, want, calls = _batched_and_per_h_scans(sigma, fn.identity_weight(), window)
    # some rows reach the kernel with empty runs, and are refused there
    assert any(empty)
    _assert_same_scan(got, want)
    assert got[2].any() and not got[2].all()
    # one call, which refuses the dilation h = 1024 among others
    ((size, refused),) = calls
    assert size == _tested_dilations(sigma, window) * window.n and refused[-1]


def _refused_alone(sigma, window):
    """For each dilation of ``H_GRID`` tested by the scan, whether a call of
    sigma on its arguments alone refuses."""
    ts = window.samples()
    refused = []
    for h in fn.H_GRID:
        args = h * ts
        valid = args <= sigma.domain_hint
        if int(valid.sum()) < max(8, ts.size // 2):
            continue
        try:
            sigma.evaluate_many(args[valid])
            refused.append(False)
        except DomainExhaustedError:
            refused.append(True)
    return np.array(refused)


def test_batched_dilation_scan_of_an_envelope_refusing_in_the_middle():
    # ENVELOPE_ID clause (ii): the batch refuses dilations with accepted
    # dilations before them, all in the one call
    m = sq.gevrey(2.0, 4000)
    sigma = fn.envelope_upper(fn.associated(m), fn.associated(sq.small_sequence(m)))
    window = TailWindow(10.0, 300.0, 256)
    got, want, calls = _batched_and_per_h_scans(sigma, fn.identity_weight(), window)
    _assert_same_scan(got, want)
    ((size, refused),) = calls
    assert size == _tested_dilations(sigma, window) * window.n == fn.H_GRID.size * window.n
    np.testing.assert_array_equal(refused, _refused_alone(sigma, window))
    first = int(np.argmax(refused))
    assert first > 0 and got[2][:first].all() and not got[2][first]


def test_batched_dilation_scan_refusing_the_smallest_dilations_makes_one_call():
    # inf_s (s + t / s) sits at s = sqrt(t), below the search grid [1e-2, 1e2]
    # for t < 1e-4: the smallest dilations are refused, larger ones accepted
    grid = GridSpec(1e-2, 1e2, 256)
    sigma = fn.envelope_lower(fn.identity_weight(), fn.identity_weight(), grid)
    window = TailWindow(1e-3, 1e-1, 256)
    got, want, calls = _batched_and_per_h_scans(sigma, fn.identity_weight(), window)
    _assert_same_scan(got, want)
    ((size, refused),) = calls
    assert size == _tested_dilations(sigma, window) * window.n
    np.testing.assert_array_equal(refused, _refused_alone(sigma, window))
    assert refused[0] and not got[2][0] and got[2].any()


def _kinked_conjugate():
    # the conjugate of a weight whose slope drops from 20 to 5 at t = 10
    # refuses every s in (5, 20) at the grid's right end
    kinked = fn.WeightFunction(
        "kinked", lambda t: np.where(t <= 10.0, t**2, 100.0 + 5.0 * (t - 10.0))
    )
    return fn.conjugate(kinked, check=False)


@pytest.mark.parametrize(
    "sigma, window",
    [
        (_kinked_conjugate(), TailWindow(1.0, 50.0, 256)),
        (fn.biconjugate(fn.associated(sq.gevrey(0.5, 2000))), TailWindow(1.0, 50.0, 256)),
    ],
    ids=["conjugate", "biconjugate"],
)
def test_dilation_scan_of_a_transform_makes_one_call(sigma, window):
    # one evaluate_many per scan, refusals included, with the per-h outcome
    # (the envelope tests above assert the same for both envelopes)
    assert sigma.is_expensive
    got, want, calls = _batched_and_per_h_scans(sigma, fn.identity_weight(), window)
    _assert_same_scan(got, want)
    ((_, refused),) = calls
    np.testing.assert_array_equal(refused, _refused_alone(sigma, window))
    if sigma.kind != "biconjugate":
        assert refused.any() and not refused.all()


def test_every_function_takes_group_labels():
    ts, labels = [1.0, 2.0, 3.0], np.array([0, 0, 1])
    power = fn.power_weight(1.0)
    values, refused = power.evaluate_many(ts, groups=labels)
    assert not power.is_expensive and refused.tolist() == [False, False]
    np.testing.assert_array_equal(values, power.evaluate_many(ts))
    star = _kinked_conjugate()
    values, refused = star.evaluate_many(ts, groups=labels)
    assert star.is_expensive and refused.tolist() == [False, False]
    np.testing.assert_array_equal(values, star.evaluate_many(ts))


@pytest.mark.parametrize(
    "wrap",
    [fn.normalized, lambda omega: fn.power_substitution(omega, 2.0)],
    ids=["normalized", "power_substitution"],
)
def test_a_wrapper_is_expensive_when_its_operand_is(wrap):
    assert wrap(_kinked_conjugate()).is_expensive
    assert wrap(wrap(_kinked_conjugate())).is_expensive
    assert not wrap(fn.power_weight(0.5)).is_expensive


@pytest.mark.parametrize(
    "wrap",
    [fn.normalized, lambda omega: fn.power_substitution(omega, 2.0)],
    ids=["normalized", "power_substitution"],
)
def test_batched_dilation_scan_of_a_wrapped_transform_makes_one_call(wrap):
    # the conjugate refuses every s in (5, 20); the wrapper passes the labels
    # on with the arguments it hands the conjugate, so the one call refuses
    # exactly the dilations that a call of their own would refuse
    sigma = wrap(_kinked_conjugate())
    window = TailWindow(1.0, 50.0, 256)
    got, want, calls = _batched_and_per_h_scans(sigma, fn.power_weight(1.0), window)
    _assert_same_scan(got, want)
    ((_, refused),) = calls
    np.testing.assert_array_equal(refused, _refused_alone(sigma, window))
    assert refused.any() and not refused.all() and got[2].any()


# ---------------------------------------------------------------------------
# growth indices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.5])
def test_gamma_indices_power_weights(alpha):
    est = fn.gamma_indices(fn.power_weight(alpha))
    assert est.gamma == pytest.approx(alpha, abs=0.05)
    assert est.gamma_bar == pytest.approx(alpha, abs=0.05)
    assert est.gamma <= est.gamma_bar + est.resolution


def test_gamma_indices_power_substitution_law():
    base = fn.power_weight(0.5)
    base_est = fn.gamma_indices(base)
    for a in (0.5, 2.0):
        est = fn.gamma_indices(fn.power_substitution(base, a))
        assert est.gamma == pytest.approx(a * base_est.gamma, abs=0.1)


def test_gamma_indices_tabulates_a_wrapped_transform():
    # the conjugate is evaluated once, on the 8,192 points of the
    # tabulation, and not once per dilation K of every candidate gamma
    alpha = 0.3
    star = _Recorder(fn.conjugate(fn.power_weight(alpha), GridSpec(1e-2, 1e16, 4096)))
    est = fn.gamma_indices(fn.power_substitution(star, 2.0))
    assert star.calls == [(8192, None)]
    assert est.gamma == pytest.approx(2.0 * (1.0 - alpha), abs=0.05)
    assert est.gamma_bar == pytest.approx(2.0 * (1.0 - alpha), abs=0.05)


def test_gamma_indices_slowly_varying_saturates():
    est = fn.gamma_indices(fn.log_power_weight(2.0))
    assert est.gamma_saturated
    assert est.gamma_bar_infinite and math.isinf(est.gamma_bar)


def _certify_every_k(fast, ts, base, passes, gamma):
    """The K loop without the refutation step: every K whose dilation stays
    inside the domain hint, on the whole window, in grid order."""
    for k in fn.K_GRID:
        factor = k**gamma
        if factor * ts[-1] > fast.domain_hint:
            continue
        if passes(fast.evaluate_many(factor * ts) / base, k).all():
            return float(k)
    return None


def _stepped_samples():
    # omega(t) = t with a step to 3t at t = 1e5: for gamma near 1 the
    # largest K passes at the window's top, where the ratio is K^gamma, but
    # the window fails it, where a dilation crosses the step
    ts = np.geomspace(1.0, 1e11, 1101)
    return fn.from_samples(ts, np.where(ts < 1e5, ts, 3.0 * ts), name="stepped")


_INDEX_OPERANDS = {
    **{f"power{a}": (lambda a=a: fn.power_weight(a)) for a in (0.25, 0.5, 0.95, 1.5, 4.0)},
    "log_power": lambda: fn.log_power_weight(2.0),
    "associated": lambda: fn.associated(sq.gevrey(2.0, 20000)),
    "normalized": lambda: fn.normalized(fn.power_weight(0.5)),
    "power_substitution": lambda: fn.power_substitution(fn.power_weight(0.5), 2.0),
    "conjugate": lambda: fn.conjugate(fn.power_weight(0.3), GridSpec(1e-2, 1e16, 4096)),
    "stepped_samples": _stepped_samples,
}


@pytest.mark.parametrize("make", _INDEX_OPERANDS.values(), ids=_INDEX_OPERANDS.keys())
def test_gamma_indices_refutation_step_keeps_every_bit(make):
    got = fn.gamma_indices(make())
    with mock.patch.object(fn, "_certify", _certify_every_k):
        want = fn.gamma_indices(make())
    assert got == want


def test_gamma_indices_associated_hint_skips_dilations():
    # the refutation step must leave out the dilations beyond a finite hint
    omega = fn.associated(sq.gevrey(2.0, 20000))
    top = fn.gamma_indices(omega).tail_window[1]
    assert top * float(fn.K_GRID[-1]) ** 8.0 > omega.domain_hint  # gamma_cap


def test_gamma_indices_stepped_samples_refute_a_survivor_on_the_window():
    recorder = _Recorder(_stepped_samples())
    fn.gamma_indices(recorder)
    sizes = [size for size, _ in recorder.calls]
    # one call per candidate gamma has at most one point per K; two window
    # calls in a row are a K that passed at the top and failed on the window
    assert any(min(a, b) > fn.K_GRID.size for a, b in zip(sizes[1:], sizes[2:]))


def test_gamma_indices_of_a_power_weight_evaluates_few_points():
    # trying every K on the whole window took 660 calls on 338 K points
    recorder = _Recorder(fn.power_weight(0.5))
    fn.gamma_indices(recorder)
    sizes = [size for size, _ in recorder.calls]
    assert len(sizes) <= 60 and sum(sizes) <= 16_000


@pytest.mark.parametrize("alpha", [0.25, 0.3, 0.75])
def test_index_transfer_inequalities(alpha):
    # estimator-level transfer: gamma(sigma*) >= 1 - gammabar(sigma) - 0.05
    # and gammabar(sigma*) <= 1 - gamma(sigma) + 0.05
    sigma = fn.power_weight(alpha)
    base = fn.gamma_indices(sigma)
    star = fn.gamma_indices(fn.conjugate(sigma, GridSpec(1e-2, 1e16, 4096)))
    assert star.gamma >= 1.0 - base.gamma_bar - 0.05
    assert star.gamma_bar <= 1.0 - base.gamma + 0.05


def test_associated_gevrey_sim_power_weight():
    omega = fn.associated(sq.gevrey(0.5, 40000))
    verdict = fn.relation_fn(omega, fn.power_weight(0.5), TailWindow(2.0, 180.0, 256))
    assert verdict.sim


# ---------------------------------------------------------------------------
# slow variation
# ---------------------------------------------------------------------------


def _omega_exp_p2_oracle(log_t: float) -> float:
    # sup_p (p log t - p^2) over integer p
    ps = np.arange(0, 401, dtype=float)
    return float(np.max(ps * log_t - ps * ps))


def test_slowly_varying_exp_p2():
    report = fn.slowly_varying_sequence_test(sq.exp_power(2.0, 400))
    assert report.slowly_varying
    assert report.beta3_holds and report.ratio_diverges
    base = _omega_exp_p2_oracle(math.log(1e6))
    for u in (2.0, 5.0, 10.0):
        expected = _omega_exp_p2_oracle(math.log(u * 1e6)) / base
        assert report.direct_ratios[u] == pytest.approx(expected, rel=1e-12)
    # at the feasible far probe the ratios have converged to 1
    for value in report.far_ratios.values():
        assert value == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0])
def test_gevrey_never_slowly_varying(s):
    report = fn.slowly_varying_sequence_test(sq.gevrey(s, 400))
    assert not report.slowly_varying


def test_slow_variation_co_occurs_with_mg_failure():
    pos = sq.exp_power(2.0, 400)
    assert fn.slowly_varying_sequence_test(pos).slowly_varying
    assert not sq.check_moderate_growth(pos)[0]


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def test_recover_round_trip():
    g = sq.gevrey(0.5, 400)
    recovered = fn.recover_sequence(fn.associated(g), 1.0, 50)
    assert np.max(np.abs(recovered.log_values - g.log_values[:51])) < 1e-3


def test_recover_from_nonconvex_gives_minorant():
    bumpy = sq.from_log_values(
        np.concatenate(([0.0, 2.0], sq.gevrey(1, 400).log_values[2:]))
    )
    recovered = fn.recover_sequence(fn.associated(bumpy), 1.0, 50)
    minorant = sq.log_convex_minorant(bumpy)
    assert np.max(np.abs(recovered.log_values - minorant.log_values[:51])) < 1e-3


def test_recover_closed_form_oracle():
    # sup_t t^p exp(-t^2) = (p/2)^(p/2) e^(-p/2)
    omega = fn.power_weight(0.5)
    recovered = fn.recover_sequence(omega, 1.0, 30)
    ps = np.arange(1, 31, dtype=float)
    exact = 0.5 * ps * (np.log(ps / 2.0) - 1.0)
    assert recovered.log_values[0] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(recovered.log_values[1:] - exact)) < 1e-9


def test_recover_p0_is_log_m0():
    omega = fn.associated(sq.gevrey(0.5, 400))
    recovered = fn.recover_sequence(omega, 2.5, 20)
    assert recovered.log_values[0] == pytest.approx(math.log(2.5), abs=1e-12)


def test_recover_sequence_refuses_a_non_integer_p_count():
    omega = fn.power_weight(1.0)
    for p_count in (8.5, 9.0, True):
        with pytest.raises(DomainError, match="p_count must be an integer"):
            fn.recover_sequence(omega, 1.0, p_count)
    got = fn.recover_sequence(omega, 1.0, np.int64(9))
    np.testing.assert_array_equal(
        got.log_values, fn.recover_sequence(omega, 1.0, 9).log_values
    )


# ---------------------------------------------------------------------------
# the Legendre kernel of the conjugate, phi* and sequence recovery
# ---------------------------------------------------------------------------


def _reference_conjugate(omega, grid=fn.DEFAULT_GRID):
    """The conjugate's evaluator as it was written before the kernel: its
    own tabulation, scan, refinement and fill, save that a zero endpoint
    answers +0.0, not -0.0."""
    log_ts = grid.log_points(omega.domain_hint)
    ts = np.exp(log_ts)
    wvals = omega.evaluate_many(ts)
    endpoint = -omega(0.0) + 0.0
    inner = omega.evaluate_many
    kink_options = fn._kink_options((omega, 0))

    def scan(s, j):
        return s * ts[j] - wvals[j]

    def refine(ss, ys):
        return ss * np.exp(ys) - inner(np.exp(ys))

    def evaluate(ss, groups=None):
        ss = np.atleast_1d(np.asarray(ss, dtype=float))
        live = ~(ss <= 0)
        return fn._transform_values(
            ss, live, endpoint, groups, log_ts, scan, refine, ("conjugate", "s"),
            floor=endpoint, monotone=True, **kink_options,
        )

    return evaluate


def _reference_phi_star_many(omega, xs, grid=fn.DEFAULT_GRID):
    """phi* at x >= 0 as ``bmt.phi_star_many`` computed it before the
    kernel, past its preconditions, save that a zero endpoint answers
    +0.0, not -0.0."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.linspace(0.0, math.log(min(grid.t_max, omega.domain_hint)), grid.n)
    wvals = omega.evaluate_many(np.exp(ys))
    inner = omega.evaluate_many

    def scan(x, j):
        return x * ys[j] - wvals[j]

    def refine(x, y):
        return x * y - inner(np.exp(y))

    endpoint = -wvals[0] + 0.0  # y = 0
    out = np.full_like(xs, endpoint)
    live = ~(xs <= 0)
    out[live] = grids.grid_sup(
        xs[live], ys, scan, refine, ("phi_star", "x"), floor=endpoint,
        monotone=True, **fn._kink_options((omega, 0)),
    )
    return out


def _reference_recovered(omega, p_count, grid=fn.DEFAULT_GRID):
    """log M_p, M_0 = 1, as ``recover_sequence`` computed it before the
    kernel, past its preconditions."""
    log_ts = grid.log_points(omega.domain_hint)
    ts = np.exp(log_ts)
    wvals = omega.evaluate_many(ts)
    inner = omega.evaluate_many

    def scan(p, j):
        return p * log_ts[j] - wvals[j]

    def refine(ps, ys):
        return ps * ys - inner(np.exp(ys))

    best = np.full(p_count + 1, -omega(0.0))
    ps = np.arange(1, p_count + 1, dtype=float)
    best[1:] = grids.grid_sup(
        ps, log_ts, scan, refine, ("recover_sequence", "p"), monotone=True,
        **fn._kink_options((omega, 0)),
    )
    return sq.WeightSequence(math.log(1.0) + best).log_values


#: One operand per refinement route: an associated function refines at its
#: kinks, a power weight by parabolic steps, and a normalized power weight
#: cuts its brackets at t = 1, where the conjugate at s < 2 has its maximum.
_LEGENDRE_OPERANDS = {
    "kinks": lambda: fn.associated(sq.gevrey(0.5, 8000)),
    "parabolic": lambda: fn.power_weight(0.5),
    "breaks": lambda: fn.normalized(fn.power_weight(0.5)),
}


@functools.cache
def _legendre_operand(route):
    return _LEGENDRE_OPERANDS[route]()


def _outcome(call):
    """The bits of ``call()``'s arrays, or its refusal: type, message and
    details."""
    try:
        out = call()
    except WeightCalcError as err:
        return type(err), str(err), err.details
    if isinstance(out, tuple):
        return tuple(np.asarray(part).tobytes() for part in out)
    return np.asarray(out).tobytes()


def _arguments(top):
    """Arguments up to 10^top (past the coverage of the operands with a
    finite hint, so that some are refused), with NaN and x <= 0 mixed in."""
    positive = st.floats(-3.0, top).map(lambda e: 10.0**e)
    special = st.sampled_from([math.nan, 0.0, -0.0, -2.5])
    return st.lists(st.one_of(positive, special), min_size=1, max_size=24)


@pytest.mark.parametrize("route", sorted(_LEGENDRE_OPERANDS))
@settings(max_examples=25, deadline=None)
@given(ss=_arguments(3.0), data=st.data())
# s = 1e3 is past the slopes of the associated function's coverage
@example(ss=[1e3, 0.5, math.nan, 0.0], data=None)
def test_conjugate_through_the_kernel_keeps_every_bit(route, ss, data):
    omega = _legendre_operand(route)
    star = fn.conjugate(omega, check=False)
    reference = _reference_conjugate(omega)
    assert _outcome(lambda: star.evaluate_many(ss)) == _outcome(lambda: reference(ss))
    groups = [i % 3 for i in range(len(ss))] if data is None else data.draw(
        st.lists(st.integers(0, 3), min_size=len(ss), max_size=len(ss))
    )
    assert _outcome(lambda: star.evaluate_many(ss, groups=groups)) == _outcome(
        lambda: reference(np.asarray(ss), groups=np.asarray(groups, dtype=np.intp))
    )


@pytest.mark.parametrize("route", sorted(_LEGENDRE_OPERANDS))
@settings(max_examples=25, deadline=None)
@given(xs=_arguments(4.3))
# x = 2e4 is past the associated function's slope 8000 at its last knot
@example(xs=[2e4, 3.0, math.nan, -0.0])
def test_phi_star_through_the_kernel_keeps_every_bit(route, xs):
    # phi* refuses x < 0 before any search
    xs = [x for x in xs if not x < 0]
    omega = _legendre_operand(route)
    assert _outcome(lambda: bmt.phi_star_many(omega, xs, check=False)) == _outcome(
        lambda: _reference_phi_star_many(omega, xs)
    )


@pytest.mark.parametrize("route", sorted(_LEGENDRE_OPERANDS))
@settings(max_examples=10, deadline=None)
@given(p_count=st.integers(8, 12000))
# p = 8000 is the associated function's slope at its last knot
@example(p_count=9000)
def test_recovery_through_the_kernel_keeps_every_bit(route, p_count):
    omega = _legendre_operand(route)
    assert _outcome(
        lambda: fn.recover_sequence(omega, 1.0, p_count, check=False).log_values
    ) == _outcome(lambda: _reference_recovered(omega, p_count))


@pytest.mark.parametrize("route", sorted(_LEGENDRE_OPERANDS))
def test_each_legendre_transform_reaches_grid_sup_monotone_with_the_operands_kinks(
    route, monkeypatch
):
    omega = _legendre_operand(route)
    want = fn._kink_options((omega, 0))
    assert set(want) == {"kinks": {"kinks"}, "parabolic": set(), "breaks": {"breaks"}}[route]
    seen, real = [], fn.grid_sup

    def recording(xs, ys, scan, refine, where, **options):
        seen.append((where, options))
        return real(xs, ys, scan, refine, where, **options)

    monkeypatch.setattr(fn, "grid_sup", recording)
    fn.conjugate(omega, check=False)(0.5)
    bmt.phi_star_many(omega, [3.0], check=False)
    fn.recover_sequence(omega, 1.0, 8, check=False)
    assert [where for where, _ in seen] == [
        ("conjugate", "s"), ("phi_star", "x"), ("recover_sequence", "p")
    ]
    for _, options in seen:
        assert options["monotone"] is True
        for key in ("kinks", "breaks"):
            got = options.get(key)
            assert (got is None) == (key not in want)
            for (knots, shifted), (want_knots, want_shifted) in zip(got or (), want.get(key, ())):
                np.testing.assert_array_equal(knots, want_knots)
                assert shifted == want_shifted


def test_legendre_transforms_answer_a_zero_endpoint_with_plus_zero():
    # omega(0) = 0 for the conjugate's endpoint t = 0 and omega(1) = 0 for
    # phi*'s endpoint y = 0; -omega there is +0.0, not -0.0
    star = fn.conjugate(fn.power_weight(0.5))
    got = star.evaluate_many([0.0, -1.0, -0.0])
    assert np.all(got == 0.0) and not np.signbit(got).any()
    got = bmt.phi_star_many(fn.normalized(fn.power_weight(0.5)), [0.0])
    assert got[0] == 0.0 and not np.signbit(got[0])


def test_legendre_transforms_answer_plus_inf_with_plus_inf():
    # phi = exp and the identity are unbounded, so each supremum is +inf;
    # no row is searched, so inf * y never meets y = 0
    omega = fn.power_weight(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        star = fn.conjugate(omega)
        assert star(math.inf) == math.inf
        values, refused = star.evaluate_many([math.inf, 3.7], groups=[0, 1])
        assert values[0] == math.inf and values[1] == star(3.7) and not refused.any()
        got = bmt.phi_star_many(omega, [math.inf, 3.0])
        assert got[0] == math.inf and got[1] == bmt.phi_star(omega, 3.0)
        # sequence recovery's kernel, with its -inf endpoint at t -> 0
        _, sup = fn._legendre(
            omega, fn.DEFAULT_GRID.log_points(), lambda y: y, ("recover_sequence", "p")
        )
        got = sup(np.array([math.inf, 4.0]), -math.inf)
        want = fn.recover_sequence(omega, 1.0, 8).log_values[4]
        assert got[0] == math.inf and got[1] == want
