import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightcalc import functions as fn
from weightcalc import grids
from weightcalc import sequences as sq
from weightcalc.errors import (
    CapacityError,
    DomainError,
    FormatError,
    PreconditionError,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_gevrey_log_factorial():
    g = sq.gevrey(1, 9)
    assert g.log_values[3] == pytest.approx(math.log(6), abs=1e-12)
    assert g.log_values[8] == pytest.approx(math.lgamma(9), rel=1e-13)


def test_gevrey_rejects_nonpositive_index():
    with pytest.raises(DomainError):
        sq.gevrey(0.0)
    with pytest.raises(DomainError):
        sq.gevrey(-1.0)


def test_gevrey_half_quotients_are_sqrt_p():
    # log mu_p = (log p! - log (p-1)!)/2 = (log p)/2, so mu_p = sqrt(p)
    g = sq.gevrey(0.5, 400)
    mu = np.exp(g.log_quotients[1:])
    expected = np.sqrt(np.arange(1, 401, dtype=float))
    assert np.max(np.abs(mu - expected)) < 1e-10


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0, 3.5])
def test_gevrey_log_convex_and_normalized(s):
    g = sq.gevrey(s, 200)
    ok, violation = sq.is_log_convex(g)
    assert ok and violation is None
    assert g.is_normalized
    mg_ok, _ = sq.check_moderate_growth(g)
    assert mg_ok


def test_from_log_values_constant_sequence():
    m = sq.from_log_values([0.0] * 12)
    assert np.all(m.log_quotients == 0.0)
    assert not sq.has_divergent_roots(m)  # flagged non-weight-sequence


def test_from_log_values_rejects_nan_and_short():
    with pytest.raises(FormatError):
        sq.from_log_values([0.0, 1.0, float("nan")] + [2.0] * 8)
    with pytest.raises(FormatError):
        sq.from_log_values([0.0] * 5)


_SMALLEST = [(sq.gevrey, 1.0), (sq.exp_power, 2.0), (sq.qgevrey, 2.0)]


@pytest.mark.parametrize("build, param", _SMALLEST, ids=["gevrey", "exp_power", "qgevrey"])
def test_smallest_sequence_has_p_max_8(build, param):
    m = build(param, 8)
    assert m.p_max == 8
    values = fn.associated(m).evaluate_many([0.0, 0.5, 1.0, 10.0, 1e3, 1e6])
    assert np.all(np.isfinite(values)) and np.all(np.diff(values) >= 0.0)
    star = sq.conjugate_sequence(m)
    assert star.p_max == 8 and np.all(np.isfinite(star.log_values))


@pytest.mark.parametrize("build, param", _SMALLEST, ids=["gevrey", "exp_power", "qgevrey"])
def test_p_max_7_is_refused(build, param):
    with pytest.raises(FormatError, match="need at least 9 entries"):
        build(param, 7)


def test_p_power_grid_equivalent_to_gevrey2():
    # p^(2p) vs (p!)^2 are equivalent by Stirling
    ps = np.arange(0, 401, dtype=float)
    logs = np.zeros(401)
    logs[1:] = 2.0 * ps[1:] * np.log(ps[1:])
    verdict = sq.relation(sq.from_log_values(logs), sq.gevrey(2, 400))
    assert verdict.kind == "APPROX"


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def test_conjugate_product_law_exact():
    g = sq.gevrey(1.7, 300)
    c = sq.conjugate_sequence(g)
    assert np.array_equal(c.log_values + g.log_values, g.log_factorial)


def test_conjugate_involution():
    g = sq.exp_power(1.5, 128)
    back = sq.conjugate_sequence(sq.conjugate_sequence(g))
    # one rounding per subtraction: at most ~1 ulp of the largest magnitude
    scale = float(np.max(np.abs(g.log_values))) + 1.0
    assert np.max(np.abs(back.log_values - g.log_values)) <= 4 * np.finfo(float).eps * scale


def test_gevrey_half_is_self_conjugate():
    g = sq.gevrey(0.5, 400)
    c = sq.conjugate_sequence(g)
    assert np.max(np.abs(c.log_values - g.log_values)) < 1e-12


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------


def test_log_convexity_alternating_violation_index():
    m = sq.from_log_values([0.0, math.log(10)] * 6)
    ok, violation = sq.is_log_convex(m)
    assert not ok
    assert violation == 2  # mu alternates; first quotient drop at p = 2


def test_conjugate_of_gevrey2_not_log_convex():
    # mu*_p = p / p^2 = 1/p is decreasing
    c = sq.conjugate_sequence(sq.gevrey(2, 100))
    ok, violation = sq.is_log_convex(c)
    assert not ok and violation == 2


def test_strong_log_convexity_honours_tol():
    # the small sequence p!^(-1/2) of Gevrey 1/2 is log-concave, so it
    # passes as log-convex only under a loose tolerance
    m = sq.gevrey(0.5, 300)
    assert not sq.is_strong_log_convex(m)
    assert sq.is_strong_log_convex(m, tol=1e6)


def _brute_force_lower_hull(values):
    # O(n^2) oracle: largest convex minorant at integer abscissae
    n = len(values)
    out = np.array(values, dtype=float)
    changed = True
    while changed:
        changed = False
        for p in range(1, n - 1):
            cap = 0.5 * (out[p - 1] + out[p + 1])
            if out[p] > cap + 1e-15:
                out[p] = cap
                changed = True
    return out


def test_minorant_five_point_example():
    vals = [0.0, math.log(10), 0.0, math.log(10), math.log(100)]
    padded = vals + [math.log(10.0 ** (k + 3)) for k in range(4)]
    lc = sq.log_convex_minorant(sq.from_log_values(padded))
    oracle = _brute_force_lower_hull(padded)
    assert lc.log_values[1] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(lc.log_values - oracle)) < 1e-9


def test_minorant_fixes_nothing_when_convex():
    # bit for bit, both endpoints included
    for g in (sq.gevrey(1, 300), sq.gevrey(0.5, 200_000)):
        lc = sq.log_convex_minorant(g)
        assert np.array_equal(lc.log_values, g.log_values)


def test_cached_tables_are_read_only():
    # every caller of a sequence shares its cached tables, so none may be
    # written through: conjugate_sequence reads the shared log p! table
    m = sq.gevrey(1.0, 20)
    for name in ("log_factorial", "log_quotients", "log_small"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(m, name)[5] = 0.0


def test_minorant_and_renaming_share_the_log_values():
    # a log-convex input and a renamed sequence keep the same array; a
    # caller's writeable array is still copied
    g = sq.gevrey(0.5, 1000)
    assert np.shares_memory(sq.log_convex_minorant(g).log_values, g.log_values)
    assert np.shares_memory(g.with_name("g").log_values, g.log_values)
    values = np.array(g.log_values)
    m = sq.from_log_values(values)
    assert not np.shares_memory(m.log_values, values)
    assert not m.log_values.flags.writeable
    bumped = values.copy()
    bumped[500] += 1.0
    lc = sq.log_convex_minorant(sq.from_log_values(bumped))
    assert not lc.log_values.flags.writeable


def _reference_hull(ys, xs=None):
    # per-point monotone chain over the points (x_i, ys[i]), x_i = xs[i] or
    # x_i = i when xs is None; the library must reproduce its vertices bit
    # for bit
    ys = np.asarray(ys, dtype=float).tolist()
    at = range(len(ys)) if xs is None else np.asarray(xs, dtype=float).tolist()
    hull = []
    for p, (x, y) in enumerate(zip(at, ys)):
        while len(hull) >= 2:
            p1, p2 = hull[-2], hull[-1]
            if (ys[p2] - ys[p1]) * (x - at[p1]) >= (y - ys[p1]) * (at[p2] - at[p1]):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _reference_minorant(values):
    # the reference chain at integer p, interpolated between its vertices
    lv = np.asarray(values, dtype=float)
    hull_p = _reference_hull(lv)
    xs = np.array(hull_p, dtype=float)
    return np.interp(np.arange(lv.size, dtype=float), xs, lv[hull_p])


def _vertices(ys, xs=None):
    """``sq._hull_vertices`` as a list, every index when it answers None."""
    got = sq._hull_vertices(np.asarray(ys, dtype=float), xs)
    return list(range(len(ys))) if got is None else got.tolist()


@st.composite
def hull_inputs(draw):
    """Inputs whose hull scan pops: ties, collinear runs, concavity, dips, bumps."""
    p_max = draw(st.integers(min_value=8, max_value=5000))
    kind = draw(st.sampled_from(["walk", "concave", "dip_head", "dip_tail", "bumps"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ps = np.arange(p_max + 1, dtype=float)
    gevrey = rng.uniform(0.2, 2.0) * sq.log_factorials(p_max)
    if kind == "walk":
        # integer steps: exact ties and collinear runs
        values = np.round(np.cumsum(rng.normal(scale=3.0, size=p_max + 1)))
    elif kind == "concave":
        values = rng.uniform(0.5, 10.0) * ps ** rng.uniform(0.1, 0.9)
    elif kind in ("dip_head", "dip_tail"):
        values = gevrey
        at = int(rng.integers(0, 3))
        values[at if kind == "dip_head" else p_max - at] -= rng.uniform(1.0, 1e4)
    else:
        values = gevrey
        bumps = rng.integers(1, p_max, size=int(rng.integers(1, 6)))
        values[bumps] += rng.uniform(0.5, 2.0, size=bumps.size)
    return values


@settings(max_examples=60, deadline=None)
@given(hull_inputs())
def test_minorant_matches_reference_scan(values):
    lc = sq.log_convex_minorant(sq.from_log_values(values))
    assert np.array_equal(lc.log_values, _reference_minorant(values))


@settings(max_examples=60, deadline=None)
@given(hull_inputs())
def test_hull_vertices_at_integer_and_real_integer_abscissae_agree(values):
    # x_i = i read as Python ints and as floats: the same pop decisions
    ys = np.asarray(values, dtype=float)
    got = sq._hull_vertices(ys)
    real = sq._hull_vertices(ys, np.arange(ys.size, dtype=float))
    assert (got is None) == (real is None)
    if got is not None:
        assert np.array_equal(got, real)
    assert _vertices(ys) == _reference_hull(ys)


@st.composite
def real_hull_inputs(draw):
    """(ys, xs) with sorted distinct real abscissae: integer-valued lines
    with collinear runs and turns both ways, concave stretches on a convex
    base, and convex points with bumps."""
    n = draw(st.integers(min_value=3, max_value=3000))
    kind = draw(st.sampled_from(["lines", "concave", "bumps"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "lines":
        # integer abscissae and slopes, so every value is an exact integer
        # and a run of one slope is exactly collinear
        xs = np.cumsum(rng.integers(1, 4, size=n)).astype(float)
        slopes = np.repeat(rng.integers(-3, 4, size=n), rng.integers(1, 8, size=n))[:n]
        ys = np.concatenate(([0.0], np.cumsum(slopes[1:] * np.diff(xs))))
        return ys, xs
    xs = rng.uniform(-50.0, 50.0) + np.cumsum(rng.uniform(1e-3, 2.0, size=n))
    ys = rng.uniform(0.01, 1.0) * xs**2
    if kind == "concave":
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n)) + 1
        ys[lo:hi] -= rng.uniform(0.5, 5.0) * (xs[lo:hi] - xs[lo]) ** 2
    else:
        bumps = rng.integers(0, n, size=int(rng.integers(1, 6)))
        ys[bumps] += rng.uniform(1e-13, 2.0, size=bumps.size)
    return ys, xs


@settings(max_examples=60, deadline=None)
@given(real_hull_inputs())
def test_hull_vertices_at_real_abscissae_match_reference_chain(problem):
    ys, xs = problem
    assert _vertices(ys, xs) == _reference_hull(ys, xs)


# ---------------------------------------------------------------------------
# moderate growth
# ---------------------------------------------------------------------------


def test_conjugate_of_log_convex_has_moderate_growth():
    for s in (0.5, 1.0, 2.0):
        c = sq.conjugate_sequence(sq.gevrey(s, 200))
        ok, witness = sq.check_moderate_growth(c)
        assert ok
        assert witness <= 2.0 * math.e  # paper bound max{2, M_0} with slack


def test_exp_p_squared_fails_moderate_growth():
    ok, witness = sq.check_moderate_growth(sq.exp_power(2, 200))
    assert not ok
    assert witness == pytest.approx(math.exp(10.0))


def _brute_force_moderate_growth(m):
    lv = m.log_values
    log_c = 0.0
    for p in range(m.p_max + 1):
        for q in range(m.p_max - p + 1):
            log_c = max(log_c, float((lv[p + q] - lv[p] - lv[q]) / (p + q + 1)))
    if log_c <= sq.LOG_C_CAP:
        return True, math.exp(log_c)
    return False, math.exp(sq.LOG_C_CAP)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50.0, max_value=50.0, allow_subnormal=False),
        min_size=9,
        max_size=60,
    )
)
def test_moderate_growth_matches_double_loop(values):
    m = sq.from_log_values(values)
    assert sq.check_moderate_growth(m) == _brute_force_moderate_growth(m)


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def test_relation_triangle_small_vs_large_gevrey():
    verdict = sq.relation(sq.gevrey(0.5, 1600), sq.gevrey(1, 1600))
    assert verdict.kind == "TRIANGLE"
    assert verdict.preceq and verdict.leq_pointwise
    assert verdict.tail_root < 0.05
    assert verdict.window == (8, 1600)


def test_relation_reflexive_approx():
    g = sq.exp_power(1.2, 64)
    assert sq.relation(g, g).kind == "APPROX"


def test_relation_divergent_is_none():
    verdict = sq.relation(sq.gevrey(1, 400), sq.gevrey(0.5, 400))
    assert verdict.kind == "NONE"
    assert not verdict.preceq


@pytest.mark.parametrize("p0", [0, 394, 399, 400])
def test_relation_needs_a_window_of_eight_indices(p0):
    with pytest.raises(PreconditionError) as err:
        sq.relation(sq.gevrey(0.5, 400), sq.gevrey(1, 400), p0=p0)
    assert err.value.details == {"p0": p0, "p_max": 400}


def test_relation_on_the_shortest_window():
    assert sq.relation(sq.gevrey(0.5, 400), sq.gevrey(1, 400), p0=393).window == (393, 400)


def test_relation_symmetric_and_transitive_on_window():
    a, b, c = (sq.gevrey(s, 400) for s in (0.5, 0.6, 0.8))
    assert sq.relation(a, b).preceq and sq.relation(b, c).preceq
    assert sq.relation(a, c).preceq
    scaled = sq.from_log_values(a.log_values + math.log(3) * np.arange(401))
    forward = sq.relation(a, scaled)
    backward = sq.relation(scaled, a)
    assert forward.approx and backward.approx


# ---------------------------------------------------------------------------
# Matuszewska indices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_matuszewska_of_gevrey_quotients(s):
    est = sq.matuszewska(sq.gevrey(s, 400).log_quotients, p0=1)
    assert abs(est.alpha_upper - s) <= 0.05
    assert abs(est.beta_lower - s) <= 0.05
    assert est.beta_lower <= est.alpha_upper + 0.1
    assert est.almost_const_H >= 1.0
    assert not est.saturated


def test_matuszewska_positive_beta_implies_divergence():
    g = sq.gevrey(0.5, 400)
    est = sq.matuszewska(g.log_quotients, p0=1)
    assert est.beta_lower > 0
    assert sq.has_divergent_roots(g)


def test_matuszewska_saturates_beyond_cap():
    ps = np.arange(0, 401, dtype=float)
    wild = np.zeros(401)
    wild[1:] = 20.0 * np.log(ps[1:])  # exponent 20 beyond the 16 cap
    est = sq.matuszewska(wild, p0=1)
    assert est.saturated


def test_gamma_equals_beta_of_quotients():
    # sequence index of M against the lower Matuszewska index of mu
    from weightcalc import functions as fn

    g = sq.gevrey(0.5, 400)
    est = sq.matuszewska(g.log_quotients, p0=1)
    gamma = fn.gamma_indices(fn.power_weight(0.5)).gamma  # omega_{G^{1/2}} ~ id^2
    assert abs(est.beta_lower - gamma) <= 0.1


# ---------------------------------------------------------------------------
# regularisation
# ---------------------------------------------------------------------------


def test_regularize_gevrey_third_is_identity():
    g = sq.gevrey(1 / 3, 400)
    ell, witness = sq.almost_decreasing_regularize(g)
    assert witness == pytest.approx(1.0)
    assert np.max(np.abs(ell.log_values - g.log_values)) < 1e-12


def test_regularize_invariants():
    # a wobbly but almost-decreasing mu_p/p profile
    ps = np.arange(1, 401, dtype=float)
    log_mu = np.log(ps) / 3.0 + 0.05 * np.sin(ps)
    log_mu = np.maximum.accumulate(log_mu)  # keep it a log-convex input
    m = sq.from_log_values(np.concatenate(([0.0], np.cumsum(log_mu))))
    ell, witness = sq.almost_decreasing_regularize(m)
    assert witness >= 1.0
    # exact on the constructed quotients; reconstructing them from the
    # stored log values costs one rounding per entry
    lam_over_p = ell.log_quotients[1:] - np.log(ps)
    assert np.all(np.diff(lam_over_p) <= 1e-10)
    assert ell.log_values[0] == 0.0
    assert sq.relation(m, ell).approx
    assert sq.is_log_convex(ell)[0]


def test_regularize_rejects_growing_quotient_ratio():
    with pytest.raises(PreconditionError) as err:
        sq.almost_decreasing_regularize(sq.gevrey(2, 3000))
    assert "p=" in str(err.value)
    assert err.value.details["log_h"] > 8.0


def test_normalize_head_identity_when_admissible():
    g = sq.gevrey(1 / 3, 400)
    ell, _ = sq.almost_decreasing_regularize(g)
    tilde = sq.normalize_head(ell)
    assert np.array_equal(tilde.log_values, ell.log_values)


def test_normalize_head_clamps_small_head():
    ps = np.arange(1, 401, dtype=float)
    log_mu = np.log(ps) / 3.0 - math.log(2.0)  # lambda_p = p^(1/3)/2 < 1 early
    m = sq.from_log_values(np.concatenate(([0.0], np.cumsum(log_mu))))
    tilde = sq.normalize_head(m)
    lam = tilde.log_quotients
    assert tilde.log_values[0] == 0.0
    assert lam[1] == 0.0  # clamped to 1
    assert np.all(lam[1:] >= -1e-15)
    assert np.all(np.diff(lam[1:]) >= -1e-12)  # head stays non-decreasing
    lam_over_p = lam[1:] - np.log(ps)
    assert np.all(np.diff(lam_over_p) <= 1e-12)
    assert sq.relation(m, tilde).approx
    conj = sq.conjugate_sequence(tilde)
    assert sq.is_log_convex(tilde)[0] and sq.is_log_convex(conj)[0]


# ---------------------------------------------------------------------------
# uniform bound
# ---------------------------------------------------------------------------


def _roots(member):
    return member.log_roots(small=True)


def test_uniform_bound_breakpoints_satisfy_selection_rules():
    family = [sq.gevrey(k / (k + 1), 400) for k in range(1, 5)]
    res = sq.uniform_bound(family)
    roots = [_roots(m) for m in family]
    bps = res.breakpoints
    assert bps[0] == 1
    # selection gap: root_{k+1}(j_{k+1}) < root_k(j_k) / k, strictly
    for k in range(1, len(bps)):
        chosen = roots[min(k + 1, len(family)) - 1][bps[k] - 1]
        previous = roots[min(k, len(family)) - 1][bps[k - 1] - 1]
        assert chosen < previous - (math.log(k) if k > 1 else 0.0)
    # independent minimality oracle for the third breakpoint:
    # smallest j with root_3(j) < root_2(j_2)/2 and the suffix condition
    target = roots[1][bps[1] - 1] - math.log(2)
    suffix_max_prev = np.maximum.accumulate(roots[0][::-1])[::-1]
    candidates = [
        j
        for j in range(bps[1] + 1, 401)
        if roots[2][j - 1] < target
        and suffix_max_prev[j - 1] <= roots[1][bps[1] - 1]
    ]
    assert candidates[0] == bps[2]


def test_uniform_bound_output_properties():
    family = [sq.gevrey(k / (k + 1), 400) for k in range(1, 5)]
    res = sq.uniform_bound(family)
    assert np.all(np.diff(res.log_roots) <= 0.0)  # exact monotonicity
    assert res.log_values[0] == 0.0
    for member in family:
        gap = (res.log_values[1:] - member.log_small[1:]) / np.arange(1, 401)
        quarters = np.array_split(gap, 4)
        assert quarters[3].min() > quarters[0].min()


def test_uniform_bound_single_member_chain():
    res = sq.uniform_bound([sq.gevrey(0.5, 400)])
    assert len(res.breakpoints) >= 3
    assert np.all(np.diff(res.log_roots) <= 0.0)


def test_uniform_bound_rejects_unordered_family():
    family = [sq.gevrey(2 / 3, 400), sq.gevrey(0.5, 400)]
    with pytest.raises(PreconditionError):
        sq.uniform_bound(family)


def test_uniform_bound_rejects_nonvanishing_member():
    with pytest.raises(PreconditionError):
        sq.uniform_bound([sq.gevrey(0.5, 400), sq.gevrey(1.5, 400)])


def test_uniform_bound_capacity_error():
    ps = np.arange(1, 401, dtype=float)
    fast = np.concatenate(([0.0], -69.0 * ps - 0.5 * ps * np.log(ps)))
    slow = np.concatenate(([0.0], -0.5 * ps * np.log(ps)))
    fac = sq.log_factorials(400)
    family = [
        sq.from_log_values(fast + fac),
        sq.from_log_values(slow + fac),
    ]
    with pytest.raises(CapacityError) as err:
        sq.uniform_bound(family)
    assert err.value.details["k"] == 1


def test_uniform_bound_multiplier_variant():
    family = [sq.gevrey(k / (k + 1), 400) for k in range(1, 4)]
    base = sq.gevrey(1.0, 400)
    res = sq.uniform_bound(family, multiplier_base=base)
    plain = sq.uniform_bound(family)
    # the variant returns a * m(base); dividing back recovers the plain bound
    recovered = res.log_values - base.log_small
    assert np.max(np.abs(recovered - plain.log_values)) < 1e-9


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@st.composite
def log_convex_sequences(draw):
    n = draw(st.integers(min_value=12, max_value=40))
    start = draw(st.floats(min_value=-1.0, max_value=1.0))
    steps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.5),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    log_mu = start + np.cumsum([0.0] + steps[:-1])
    values = np.concatenate(([0.0], np.cumsum(log_mu)))
    return sq.from_log_values(values)


@settings(max_examples=40, deadline=None)
@given(log_convex_sequences())
def test_conjugate_involution_property(m):
    back = sq.conjugate_sequence(sq.conjugate_sequence(m))
    assert np.max(np.abs(back.log_values - m.log_values)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(log_convex_sequences())
def test_minorant_is_lower_log_convex(m):
    lc = sq.log_convex_minorant(m)
    assert np.all(lc.log_values <= m.log_values + 1e-9)
    assert sq.is_log_convex(lc, tol=1e-9)[0]


@settings(max_examples=25, deadline=None)
@given(log_convex_sequences())
def test_relation_self_is_approx_property(m):
    assert sq.relation(m, m, p0=1).approx


# ---------------------------------------------------------------------------
# memory: results plus one block of scratch, blocked scans bit for bit
# ---------------------------------------------------------------------------

MEM_P = 1_000_000
ARRAY_BYTES = (MEM_P + 1) * 8
BLOCK = grids._SCRATCH_CELLS
# one block of float64 scratch, boolean masks of up to a block in all, and
# small objects
SCRATCH_BYTES = BLOCK * 8 + BLOCK + 32 * 1024


def _peak_bytes(call):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _convex_input():
    return sq.from_log_values(sq.gevrey(0.5, MEM_P).log_values, name="m")


def _with_cached(*names):
    def make():
        m = _convex_input()
        for name in names:
            getattr(m, name)
        return m

    return make


_OTHER = sq.gevrey(0.9, MEM_P)

# (routine, input maker, call, P-length arrays it returns or caches)
MEMORY_CASES = {
    "log_factorials": (None, lambda _: sq.log_factorials(MEM_P), 1),
    "gevrey": (None, lambda _: sq.gevrey(0.5, MEM_P), 1),
    "exp_power": (None, lambda _: sq.exp_power(0.5, MEM_P), 1),
    "qgevrey": (None, lambda _: sq.qgevrey(1.5, MEM_P), 1),
    "log_quotients": (_convex_input, lambda m: m.log_quotients, 1),
    "log_roots": (_convex_input, lambda m: m.log_roots(), 1),
    "conjugate_sequence": (_with_cached("log_factorial"), sq.conjugate_sequence, 1),
    "pointwise_product": (_convex_input, lambda m: sq.pointwise_product(m, _OTHER), 1),
    "has_divergent_roots": (_convex_input, sq.has_divergent_roots, 0),
    "is_log_convex": (_convex_input, sq.is_log_convex, 0),
    "small_is_log_concave": (_with_cached("log_small"), sq.small_is_log_concave, 0),
    "small_roots_vanish": (_with_cached("log_factorial"), sq.small_roots_vanish, 0),
    "log_convex_minorant": (_convex_input, sq.log_convex_minorant, 0),
    "associated": (_convex_input, fn.associated, 1),
    "relation": (_convex_input, lambda m: sq.relation(m, _OTHER), 0),
    "almost_monotone_log_witness": (
        _convex_input, lambda m: sq.almost_monotone_log_witness(m.log_values), 0
    ),
    "almost_decreasing_regularize": (_convex_input, sq.almost_decreasing_regularize, 1),
    "normalize_head": (_convex_input, sq.normalize_head, 1),
}


@pytest.mark.parametrize("name", sorted(MEMORY_CASES))
def test_routine_allocates_its_results_plus_one_block(name):
    make, call, arrays = MEMORY_CASES[name]
    m = make() if make else None
    peak = _peak_bytes(lambda: call(m))
    assert peak <= arrays * ARRAY_BYTES + SCRATCH_BYTES, peak / ARRAY_BYTES


def test_uniform_bound_allocates_its_results_two_arrays_per_member_and_one_block():
    # the results, each member's roots and their suffix maxima, the index
    # array ps and one block of scratch
    family = [sq.gevrey(alpha, MEM_P) for alpha in (1 / 4, 1 / 3, 1 / 2)]
    for member in family:
        member.log_small
    peak = _peak_bytes(lambda: sq.uniform_bound(family))
    arrays = 2 + 2 * len(family) + 1
    assert peak <= arrays * ARRAY_BYTES + SCRATCH_BYTES, peak / ARRAY_BYTES


@pytest.mark.parametrize("p_max", [0, 1, 8, 1000, BLOCK - 1, BLOCK, BLOCK + 1, MEM_P])
def test_log_factorials_bit_equal_to_cumulative_log_sums(p_max):
    old = np.zeros(p_max + 1)
    if p_max >= 1:
        old[1:] = np.cumsum(np.log(np.arange(1, p_max + 1, dtype=float)))
    assert sq.log_factorials(p_max).tobytes() == old.tobytes()


def _divergent_roots_reference(m, p0):
    roots = (m.log_values[1:] - m.log_values[0]) / np.arange(1, m.p_max + 1, dtype=float)
    if roots.size <= p0:
        return False
    window = roots[p0 - 1 :]
    return float(window[-1] - window[3 * window.size // 4]) > 0.01


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False),
        min_size=9,
        max_size=300,
    ),
    st.integers(min_value=1, max_value=310),
)
def test_has_divergent_roots_matches_full_roots(values, p0):
    m = sq.from_log_values(values)
    assert sq.has_divergent_roots(m, p0) == _divergent_roots_reference(m, p0)


def _block_edges(start, stop, step):
    """k*step - 1, k*step, k*step + 1 from ``start`` on, inside [1, stop)."""
    return [
        q
        for edge in range(start + step, stop, step)
        for q in (edge - 1, edge, edge + 1)
        if 1 <= q < stop
    ]


def _quarter_starts(p_max):
    """First index p of each quarter of the root window p = 1..P_max."""
    size, extra = divmod(p_max, 4)
    return [1 + i * size + min(i, extra) for i in range(4)]


@st.composite
def edge_violations(draw, p_max):
    """Gevrey log values with bumps at block edges of the blocked scans: the
    full blocks, the half blocks, and the half blocks of each quarter of the
    root window p = 1..P_max."""
    edges = _block_edges(0, p_max, BLOCK) + _block_edges(0, p_max, BLOCK // 2)
    for start in _quarter_starts(p_max):
        edges += _block_edges(start, p_max, BLOCK // 2) + [start - 1, start, start + 1]
    at = draw(st.lists(st.sampled_from(sorted(set(edges))), min_size=1, max_size=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.3, 0.95) * sq.log_factorials(p_max)
    for q in at:
        # triples centred on a bump fail convexity; a large one lifts its
        # roots above the next quarter's maximum
        values[q] += rng.choice([1e-13, 0.5, 1e3]) * rng.uniform(0.5, 2.0) * q
    return values


EDGE_P_MAX = 2 * BLOCK + 9


@settings(max_examples=15, deadline=None)
@given(edge_violations(EDGE_P_MAX))
def test_blocked_convexity_and_root_scans_match_full_arrays(values):
    m = sq.from_log_values(values)
    lv = m.log_values
    defect = 2.0 * lv[1:-1] - lv[:-2] - lv[2:]
    bad = np.flatnonzero(defect > sq.TOL_LOG_CONVEX)
    assert sq.is_log_convex(m) == ((False, int(bad[0]) + 2) if bad.size else (True, None))
    roots = m.log_small[1:] / np.arange(1, m.p_max + 1, dtype=float)
    qm = np.maximum.reduceat(roots, [q - 1 for q in _quarter_starts(m.p_max)])
    for threshold in (math.log(0.8), float(roots[-1])):
        want = bool(np.all(np.diff(qm) < 0) and roots[-1] <= threshold)
        assert sq.small_roots_vanish(m, threshold) == want


@settings(max_examples=6, deadline=None)
@given(edge_violations(BLOCK + 9))
def test_minorant_with_violations_at_block_edges_matches_reference_scan(values):
    lc = sq.log_convex_minorant(sq.from_log_values(values))
    assert np.array_equal(lc.log_values, _reference_minorant(values))


@settings(max_examples=6, deadline=None)
@given(edge_violations(BLOCK + 9), st.floats(0.1, 10.0), st.floats(-1e3, 1e3))
def test_hull_vertices_with_violations_at_block_edges_match_reference_chain(
    values, scale, shift
):
    # real abscissae shift + scale * i keep the violations at the block edges
    xs = shift + scale * np.arange(values.size, dtype=float)
    assert _vertices(values, xs) == _reference_hull(values, xs)
