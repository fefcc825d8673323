import math
import sys
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightcalc import bmt, functions as fn, grids, sequences as sq
from weightcalc.errors import DomainError, DomainExhaustedError
from weightcalc.grids import GridSpec, TailWindow, grid_sup

YS = np.linspace(0.0, 5.0, 256)


def _scan_of(objective):
    return lambda x, j: objective(x, YS[j])


@pytest.mark.parametrize(
    "objective, xs",
    [
        # argmax y = 10x - 1
        (lambda x, y: x * np.log1p(y) - 0.1 * y, [0.15, 0.2, 0.3, 0.37, 0.45, 0.55]),
        # argmax y = log(x / 0.03) / 0.3
        (lambda x, y: x * y - 0.1 * np.exp(0.3 * y), [0.04, 0.05, 0.07, 0.09, 0.11]),
    ],
)
def test_grid_sup_matches_brute_force_scan(objective, xs):
    xs = np.asarray(xs + [math.nan])
    got = grid_sup(xs, YS, _scan_of(objective), objective, ("test", "x"))
    fine = np.linspace(YS[0], YS[-1], 1_000_000)
    brute = np.array([np.max(objective(x, fine)) for x in xs[:-1]])
    assert np.max(np.abs(got[:-1] - brute)) <= 1e-12
    assert math.isnan(got[-1])


def test_grid_sup_row_reaching_cap_returns_cap():
    # row x=1 is flat at the cap from the left end of the grid: a plateau,
    # so its boundary argmax is no refusal; row x=2 peaks inside, below it
    def objective(x, y):
        return np.where(x > 1.5, -((y - 3.0) ** 2) - 1.0, -np.maximum(y - 1.0, 0.0))

    scan = _scan_of(objective)
    where = ("test", "x")
    xs = np.array([1.0, 2.0])
    got = grid_sup(xs, YS, scan, objective, where, cap=0.0, both_ends=True)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(DomainExhaustedError):
        grid_sup(np.array([1.0]), YS, scan, objective, where, both_ends=True)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GridSpec(0.0, 1e2, 256),
        lambda: GridSpec(1e2, 1e-2, 256),
        lambda: GridSpec(1e-2, 1e2, 10),
        lambda: GridSpec(1e-2, 1e2, 100.5),
        lambda: TailWindow(5.0, 1.0, 512),
        lambda: TailWindow(1e3, 1e7, 0),
        lambda: TailWindow(1e3, 1e7, 512.0),
    ],
    ids=["t_min", "t_order", "n_small", "n_float", "window_order", "window_empty", "window_float"],
)
def test_bad_grid_or_window_is_a_domain_error(make):
    with pytest.raises(DomainError):
        make()
    # a ValueError still, for callers that catch one
    with pytest.raises(ValueError):
        make()


_SMALL = GridSpec(1e-2, 1e2, 256)
_SHORT = GridSpec(1e-2, 20.0, 256)
_ID = fn.identity_weight()


@pytest.mark.parametrize(
    "evaluate, details",
    [
        # sup_t (st - t^2) peaks at t = s/2, beyond t_max = 100
        pytest.param(
            lambda: fn.conjugate(fn.power_weight(0.5), _SMALL).evaluate_many([1.0, 1e6]),
            {"s": 1e6},
            id="conjugate",
        ),
        # inf_s (s + t/s) sits at s = sqrt(t): beyond either end of [1e-2, 1e2]
        pytest.param(
            lambda: fn.envelope_lower(_ID, _ID, _SMALL)(1e6),
            {"t": 1e6},
            id="envelope_lower_right",
        ),
        pytest.param(
            lambda: fn.envelope_lower(_ID, _ID, _SMALL)(1e-6),
            {"t": 1e-6},
            id="envelope_lower_left",
        ),
        # sup_s (s - s/t) is infinite for t > 1
        pytest.param(
            lambda: fn.envelope_upper(_ID, _ID, _SMALL, check=False).evaluate_many(
                [0.5, 3.0]
            ),
            {"t": 3.0},
            id="envelope_upper",
        ),
        # sup_t t^p e^-t sits at t = p, at the grid top t_max = 20 first for p = 20
        pytest.param(
            lambda: fn.recover_sequence(_ID, p_count=30, grid=_SHORT),
            {"p": 20.0},
            id="recover_sequence",
        ),
        # sup_y (xy - e^y) sits at y = log x, beyond log 20
        pytest.param(
            lambda: bmt.phi_star_many(_ID, [5.0, 50.0], _SHORT, check=False),
            {"x": 50.0},
            id="phi_star",
        ),
    ],
)
def test_edge_refusal_names_the_argument(evaluate, details):
    with pytest.raises(DomainExhaustedError) as info:
        evaluate()
    assert info.value.details == details


def test_operand_coverage_below_grid_start_is_refused():
    # the coverage 5e-3 ends below t_min = 1e-2: every sigma value on the
    # grid would be extrapolated
    sigma = fn.from_samples([1e-4, 1e-3, 5e-3], [0.0, 1.0, 100.0])
    with pytest.raises(DomainExhaustedError):
        fn.envelope_lower(sigma, fn.power_weight(1.0))(3.0)


def test_nan_argument_gives_nan():
    square, root = fn.power_weight(0.5), fn.power_weight(2.0)
    gevrey = sq.gevrey(0.5, 400)
    transforms = (
        fn.conjugate(square),
        fn.envelope_lower(square, root),
        fn.envelope_upper(root, fn.identity_weight()),
        fn.associated(gevrey),
        fn.integral_form(gevrey),
    )
    for omega in transforms:
        vals = omega.evaluate_many([math.nan, 2.0])
        assert math.isnan(vals[0]) and math.isfinite(vals[1])


# ---------------------------------------------------------------------------
# finite-window estimators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [*range(8, 17), 255, 256, 257, 258])
@pytest.mark.parametrize("nan_at", [None, 0, -1, "middle"])
def test_quarter_maxima_are_the_maxima_of_the_array_split_quarters(size, nan_at):
    vals = np.random.default_rng(size).normal(size=size)
    if nan_at is not None:
        vals[size // 2 if nan_at == "middle" else nan_at] = math.nan
    want = np.array([q.max() for q in np.array_split(vals, 4)])
    assert grids.quarter_maxima(vals).tobytes() == want.tobytes()


@pytest.mark.parametrize("passing, failing", [(0.0, 5.0), (5.0, 0.0)])
def test_bisect_edge_halves_the_bracket_at_midpoints(passing, failing):
    edge, resolution = 1.2345, 1e-3
    calls = []
    bracket = [passing, failing]

    def test(x):
        assert x == 0.5 * (bracket[0] + bracket[1])
        calls.append(x)
        certified = (x <= edge) if passing < failing else (x >= edge)
        bracket[0 if certified else 1] = x
        return ("witness", x) if certified else None

    got, witness = grids.bisect_edge(test, passing, failing, "start", resolution)
    assert got == bracket[0] and abs(bracket[1] - got) <= resolution
    assert abs(got - edge) <= resolution
    assert got in calls and witness == ("witness", got)


def test_bisect_edge_keeps_the_given_witness_when_no_midpoint_passes():
    got, witness = grids.bisect_edge(lambda x: None, 0.0, 1.0, "start", 0.1)
    assert got == 0.0 and witness == "start"


# ---------------------------------------------------------------------------
# golden-section refinement
# ---------------------------------------------------------------------------


def _golden_two_evaluations(f, lo, hi, iters=60):
    """Reference: golden section that evaluates both interior points of
    every bracket, for a fixed number of iterations."""
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    h = b - a
    c, d = a + grids.INV_PHI_SQ * h, a + grids.INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(iters):
        left = yc > yd
        b, a = np.where(left, d, b), np.where(left, a, c)
        h = b - a
        c, d = a + grids.INV_PHI_SQ * h, a + grids.INV_PHI * h
        yc, yd = f(c), f(d)
    return np.where(yc >= yd, c, d), np.maximum(yc, yd)


def _phi_star_rows(steps, xs, lo, hi):
    """A refinement problem of phi*-shaped rows x y - max_p (p y - c_p), c_p
    the sums of the sorted ``steps`` from c_0 = 0, as ``refinement_problems``
    draws it; its kinks are the steps, where p y - c_p and (p - 1) y -
    c_(p-1) cross."""
    steps, xs = np.asarray(steps, dtype=float), np.asarray(xs, dtype=float)
    cs = np.concatenate(([0.0], np.cumsum(steps)))
    ps = np.arange(cs.size, dtype=float)

    def f(x, y):
        return x * y - np.max(ps[:, None] * y - cs[:, None], axis=0)

    return partial(f, xs), np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), (f, xs, steps)


@st.composite
def refinement_problems(draw):
    """Rows of a concave quadratic or of a phi*-shaped objective
    x y - max_p (p y - c_p), with brackets that contain the maximum:
    (objective, lo, hi, kinked), where ``kinked`` is None for the quadratic
    and (f, xs, kinks) for phi* (``_phi_star_rows``)."""
    k = draw(st.integers(1, 12))
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        peak = np.array(draw(st.lists(real(-5.0, 5.0), min_size=k, max_size=k)))
        curv = np.array(draw(st.lists(real(1e-3, 1e3), min_size=k, max_size=k)))
        top = np.array(draw(st.lists(real(-1e3, 1e3), min_size=k, max_size=k)))
        problem = lambda lo, hi: ((lambda y: top - curv * (y - peak) ** 2), lo, hi, None)
    else:
        # log M_p - log M_0 of a log-convex sequence: convex in p, so phi* is
        # its linear interpolation and the objective is concave in y
        steps = np.sort(draw(st.lists(real(-2.0, 6.0), min_size=2, max_size=30)))
        xs = np.array(draw(st.lists(real(0.1, steps.size - 0.1), min_size=k, max_size=k)))
        peak = steps[np.floor(xs).astype(int)]
        problem = partial(_phi_star_rows, steps, xs)
    offset = np.array(draw(st.lists(real(0.05, 0.95), min_size=k, max_size=k)))
    width = np.array(draw(st.lists(real(1e-3, 4.0), min_size=k, max_size=k)))
    lo = peak - offset * width
    return problem(lo, lo + width)


@settings(max_examples=200, deadline=None)
@given(refinement_problems())
def test_golden_section_matches_the_two_evaluation_loop(problem):
    objective, lo, hi, _ = problem
    _, got = grids.golden_max_vec(objective, lo, hi)
    _, ref = _golden_two_evaluations(objective, lo, hi)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("iters", [0, 5, 20, 60])
def test_golden_section_spends_at_most_iters_plus_two_points_per_row(iters):
    # kinked rows converge slowly, so they run to the iteration limit
    kinks = np.linspace(0.1, 0.9, 7)
    rows = []

    def counted(y):
        assert y.shape == kinks.shape
        rows.append(y.size)
        return -np.abs(y - kinks)

    grids.golden_max_vec(counted, np.zeros(7), np.ones(7), iters=iters)
    assert sum(rows) <= (iters + 2) * kinks.size


@pytest.mark.parametrize("min_iters", [None, 0])
def test_golden_section_finds_a_kink_at_the_centre_of_the_bracket(min_iters, monkeypatch):
    # both interior points of the first bracket tie; the refinement must not
    # stop on the tie, with or without the minimum iteration count
    if min_iters is not None:
        monkeypatch.setattr(grids, "_GOLDEN_MIN_ITERS", min_iters)
    centre = np.array([0.5, 3.0, -1.25])
    x, y = grids.golden_max_vec(lambda y: 7.0 - np.abs(y - centre), centre - 1, centre + 1)
    assert np.all(np.abs(x - centre) <= 1e-12)
    assert np.all(np.abs(y - 7.0) <= 1e-12)


def test_golden_section_row_does_not_depend_on_its_batch():
    # a smooth row stops before a kinked one; alone or next to it, it must
    # give the same bits
    peaks = np.array([0.3, 0.6])

    def objective(y):
        return np.where(peaks < 0.5, -((y - peaks) ** 2), -np.abs(y - peaks))

    both = grids.golden_max_vec(objective, np.zeros(2), np.ones(2))
    peaks = peaks[:1]
    alone = grids.golden_max_vec(objective, np.zeros(1), np.ones(1))
    assert both[0][0] == alone[0][0] and both[1][0] == alone[1][0]


# ---------------------------------------------------------------------------
# parabolic refinement
# ---------------------------------------------------------------------------


def _per_row(objective, lo):
    """``f(rows, y)`` for ``parabolic_max_vec`` from an objective that maps
    one point per row of ``lo`` to the rows' values."""

    def f(rows, ys):
        out = np.empty(ys.size)
        for i, (row, y) in enumerate(zip(rows.astype(int), ys)):
            point = lo.copy()
            point[row] = y
            out[i] = objective(point)[row]
        return out

    return f


def _counted(f, xs, counts):
    """``f`` counting in ``counts`` the points each row of ``xs`` (distinct
    arguments) is evaluated at; fails unless called on equal-length 1-D
    arrays."""
    order = np.argsort(xs)

    def counting(x, y):
        assert x.ndim == y.ndim == 1 and x.shape == y.shape
        np.add.at(counts, order[np.searchsorted(xs[order], x)], 1)
        return f(x, y)

    return counting


@settings(max_examples=200, deadline=None)
@given(refinement_problems())
# a phi*-shaped row that parabolic refinement ended 9.1e-12 short, and one
# whose maximum, at a kink 0.1 from x, a kink step 3.9e-14 from x dropped
@example(_phi_star_rows(
    [-1.270008520046141, -1.2251092395577432, 0.0429631958507084, 0.18004424624777737,
     0.3739970910174133, 1.4312174520958996, 3.9882755598711537, 4.030919360895303,
     4.721987236776419],
    [6.007419307316419], [3.2220590423371473], [7.040749975397804],
))
@example(_phi_star_rows(
    [-1.9999999999999998, -1.8528999313170582, -1.785962269589925, -1.6162732321139064,
     -1.5225717280027666, -0.5703419655757429, -0.27827977974116, 0.0, 0.0, 0.0,
     0.019999999999999574, 0.07247647286530601, 0.6940876256485566, 0.9157510829640696,
     1.8103986842258104, 1.8662001290695178, 2.8170816151051925, 3.423959478299758,
     4.339167894779662, 4.400294846862979, 4.531153924262048, 4.6780245360348385,
     5.6971386216654665],
    [17.000682772717564], [2.7935541177316283], [3.552527573594681],
))
def test_parabolic_refinement_is_never_below_golden_section(problem):
    # quadratic rows take parabolic refinement, seeded as grid_sup seeds it
    # from a bracket's ends and its centre; phi*-shaped rows take grid_sup's
    # kink route on the same brackets, with their kinks known
    objective, lo, hi, kinked = problem
    mid = 0.5 * (lo + hi)
    if kinked is None:
        rows = np.arange(lo.size, dtype=float)
        got = grids.parabolic_max_vec(_per_row(objective, lo), rows, lo, mid, hi)
        seeds = (lo, mid, hi)
    else:
        f, xs, kinks = kinked
        ys, j = np.stack((lo, mid, hi), axis=1).ravel(), 3 * np.arange(xs.size) + 1
        got = _refined_alone(xs, ys, j, f, [(kinks, False)])
        seeds = (lo, hi)
    _, ref = _golden_two_evaluations(objective, lo, hi)
    assert np.all(got >= ref - 1e-12 * np.maximum(1.0, np.abs(ref)))
    # never below the points it starts from: the seeds, the grid cell among
    # them, or the bracket's ends
    for seed in seeds:
        assert np.all(got >= objective(seed))


@pytest.mark.parametrize("iters", [1, 5, 20, 60])
def test_parabolic_refinement_spends_at_most_iters_plus_two_points_per_row(iters):
    # kinked rows, smooth ones and a row whose maximum is a bracket end
    peaks = np.array([0.1, 0.45, 0.9, 0.3, 0.6, 1.7])
    xs = np.arange(peaks.size, dtype=float)

    def objective(x, y):
        p = peaks[x.astype(int)]
        return np.where(x < 3, -np.abs(y - p), -((y - p) ** 2))

    counts = np.zeros(xs.size, dtype=int)
    lo, hi = np.zeros(xs.size), np.ones(xs.size)
    grids.parabolic_max_vec(_counted(objective, xs, counts), xs, lo, lo + 0.5, hi, iters)
    assert np.all(counts <= iters + 2)


def test_parabolic_row_does_not_depend_on_its_batch():
    # a smooth row, a kinked one, one peaking at a bracket end and a cusp,
    # the kinked row and the cusp still moving after 20 steps and taking
    # golden steps only: each alone gives the same bits as in the batch
    peaks = np.array([0.3, 0.6, -0.5, 0.4])

    def objective(x, y):
        p = peaks[x.astype(int)]
        smooth = -((y - p) ** 2) + 0.1 * np.sin(7.0 * y)
        return np.where(x == 1, -np.abs(y - p), np.where(x == 3, -np.abs(y - p) ** 0.5, smooth))

    xs = np.arange(peaks.size, dtype=float)
    lo, hi = np.zeros(xs.size), np.ones(xs.size)
    both = grids.parabolic_max_vec(objective, xs, lo, lo + 0.5, hi)
    for i in range(xs.size):
        one = slice(i, i + 1)
        alone = grids.parabolic_max_vec(objective, xs[one], lo[one], lo[one] + 0.5, hi[one])
        assert alone.tobytes() == both[one].tobytes()


def test_parabolic_row_beside_a_nearly_flat_side_converges():
    # a phi*-shaped row rising with slope 1e-5 to its kink at 0 and falling
    # with slope -4 after it, its kink not given; parabolic steps alone
    # creep along the flat side, so rows still moving after 20 steps take
    # golden steps only
    cs = np.array([0.0, -1.0, -2.0, -2.0, -2.0, -2.0, -2.0, -1.984375])
    ps = np.arange(cs.size, dtype=float)

    def objective(x, y):
        return x * y - np.max(ps[:, None] * y - cs[:, None], axis=0)

    lo, hi = np.array([-0.375]), np.array([0.625])
    got = grids.parabolic_max_vec(objective, np.array([2.00001]), lo, 0.5 * (lo + hi), hi)
    assert -2.0 - 1e-12 <= got[0] <= -2.0


def test_parabolic_refinement_gives_nan_rows_nan_at_once():
    def objective(x, y):
        return np.where(x > 0, -((y - 0.3) ** 2), np.nan)

    xs, counts = np.array([0.0, 1.0]), np.zeros(2, dtype=int)
    got = grids.parabolic_max_vec(
        _counted(objective, xs, counts), xs, np.zeros(2), np.full(2, 0.5), np.ones(2)
    )
    assert math.isnan(got[0]) and got[1] == pytest.approx(0.0, abs=1e-15)
    assert counts[0] == 3


@pytest.mark.parametrize("peak", [-0.2, 1.3], ids=["left", "right"])
def test_parabolic_row_peaking_at_a_bracket_end_stops_within_ten_points(peak):
    # the end value never passes a test of end values alone; the seeded
    # ends and the steps inwards from the better end prove it the maximum
    counts = np.zeros(1, dtype=int)
    xs = np.array([peak])

    def objective(x, y):
        return 5.0 - (y - x) ** 2

    got = grids.parabolic_max_vec(
        _counted(objective, xs, counts), xs, np.zeros(1), np.full(1, 0.5), np.ones(1)
    )
    end = 0.0 if peak < 0 else 1.0
    assert counts[0] <= 10
    assert got[0] == objective(xs, np.array([end]))[0]


def _refinement_points(evaluate):
    """For every ``parabolic_max_vec`` call ``evaluate()`` makes: the points
    per row, summed over the pieces of a row's bracket, and the points per
    row golden section spends on the same brackets."""
    calls = []
    kernel = grids.parabolic_max_vec

    def counting(f, xs, lo, mid, hi, iters=60):
        rows, at = np.unique(xs, return_inverse=True)
        # each row's bracket is the union of its pieces
        row_lo, row_hi = np.full(rows.size, np.inf), np.full(rows.size, -np.inf)
        np.minimum.at(row_lo, at, lo)
        np.maximum.at(row_hi, at, hi)
        golden = []
        grids.golden_max_vec(lambda y: golden.append(y) or f(rows, y), row_lo, row_hi, iters)
        counts = np.zeros(rows.size, dtype=int)
        calls.append((counts, len(golden)))
        return kernel(_counted(f, rows, counts), xs, lo, mid, hi, iters)

    with mock.patch.object(grids, "parabolic_max_vec", counting):
        evaluate()
    return calls


def test_kinkless_refinement_costs_a_few_points_per_row():
    # the kinkless tabulation of ENV_DUALITY, which golden section ran to its
    # cap of 62 points per row
    star = fn.conjugate(fn.power_weight(0.5), GridSpec(1e-2, 1e19, 4096))
    ts = GridSpec(1e-2, 1e7, 4096).points(star.domain_hint)
    [(counts, golden)] = _refinement_points(lambda: star.evaluate_many(ts))
    assert counts.size == 4096 and golden == 2 + grids._REFINE_ITERS
    assert counts.mean() <= 16 and counts.max() < 2 + grids._REFINE_ITERS


def test_normalized_rows_cost_no_more_points_than_golden_section():
    # BMT_SANDWICH's conjugate of a normalized power: its rows peak at the
    # kink at t = 1, where the bracket is cut in two smooth pieces
    star = fn.conjugate(fn.normalized(fn.power_weight(0.5)))
    ss = np.exp(np.linspace(math.log(0.1), math.log(20.0), 128))
    [(counts, golden)] = _refinement_points(lambda: star.evaluate_many(ss))
    assert np.all(counts <= golden)


# ---------------------------------------------------------------------------
# breakpoint refinement
# ---------------------------------------------------------------------------


@st.composite
def sampled_operands(draw, max_samples=30):
    """A non-decreasing ``from_samples`` function: piecewise linear in log t
    with at most ``max_samples`` kinks in log t on [-2, 2]."""
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    knots = np.unique(draw(st.lists(real(-2.0, 2.0), min_size=2, max_size=max_samples)))
    if knots.size < 2 or np.min(np.diff(knots)) < 1e-6:
        knots = np.linspace(-2.0, 2.0, knots.size if knots.size >= 2 else 2)
    rises = draw(st.lists(real(0.0, 5.0), min_size=knots.size, max_size=knots.size))
    return fn.from_samples(np.exp(knots), np.cumsum(rises))


@st.composite
def kinked_refinements(draw):
    """Rows of a phi*-shaped objective x y - g(e^y) or of a lower-envelope
    objective -(g(e^y) + h(x / e^y)) of sampled g and h, with the kinks that
    ``grid_sup`` is given for them and a bracket [ys[j-1], ys[j+1]] per row."""
    g = draw(sampled_operands())
    k = draw(st.integers(1, 8))
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    ys = np.linspace(-2.5, 2.5, draw(st.integers(3, 40)))
    j = np.array(draw(st.lists(st.integers(1, ys.size - 2), min_size=k, max_size=k)))
    xs = np.array(draw(st.lists(real(0.2, 6.0), min_size=k, max_size=k)))
    k_g = fn.log_kinks(g)[0]
    if draw(st.booleans()):
        return xs, ys, j, lambda x, y: x * y - g.evaluate_many(np.exp(y)), [(k_g, False)]
    h = draw(sampled_operands())
    k_h = fn.log_kinks(h)[0]

    def objective(x, y):
        s = np.exp(y)
        return -(g.evaluate_many(s) + h.evaluate_many(x / s))

    return xs, ys, j, objective, [(k_g, False), (-k_h[::-1], True)]


def _candidates(x, lo, hi, kinks):
    """The two ends of (lo, hi) and every kink strictly inside, one row."""
    points = [lo, hi]
    for knots, shifted in kinks:
        at = knots + (math.log(x) if shifted else 0.0)
        points.extend(at[(at > lo) & (at < hi)])
    return np.array(points)


@settings(max_examples=150, deadline=None)
@given(kinked_refinements())
def test_breakpoint_refinement_is_exact_for_piecewise_linear_operands(problem):
    xs, ys, j, objective, kinks = problem
    got = grids._refined(xs, ys, j, np.zeros(xs.size, dtype=bool), objective,
                         -math.inf, math.inf, kinks)
    for x, value, jj in zip(xs, got, j):
        lo, hi = ys[jj - 1], ys[jj + 1]
        tol = 1e-12 * max(1.0, abs(value))
        best = np.max(objective(x, _candidates(x, lo, hi, kinks)))
        assert abs(value - best) <= tol
        dense = np.max(objective(x, np.linspace(lo, hi, 10_000)))
        assert dense <= value + tol


def _recorded(refine, calls):
    """``refine`` that records the size of each call and fails unless its
    arguments are equal-length 1-D arrays."""

    def recording(x, y):
        assert x.ndim == y.ndim == 1 and x.shape == y.shape
        calls.append(x.size)
        return refine(x, y)

    return recording


def _refined_alone(xs, ys, j, refine, kinks):
    return grids._refined(xs, ys, j, np.zeros(xs.size, dtype=bool), refine,
                          -math.inf, math.inf, kinks)


def _full_scan(xs, ys, j, refine, kinks):
    """The best of every row's ends and kinks on its bracket [ys[j-1], ys[j+1]]."""
    best = []
    for x, i in zip(xs, j):
        at = _candidates(x, ys[i - 1], ys[i + 1], kinks)
        best.append(np.max(refine(np.full(at.size, x), at)))
    return np.array(best)


def test_rows_with_more_than_iters_kinks_are_narrowed_by_bisection():
    # brackets [0, 1], [1.5, 2.5] and [2.5, 3.5] holding iters + 1, three
    # and no kinks: one bisection step of 2 points for the first row, whose
    # peak lies in the left half, then one shared call of 2 + half, 2 + 3
    # and 2 + 0 points
    ys = 0.5 * np.arange(8)
    xs, j = np.arange(3.0), np.array([1, 4, 6])
    knots = np.concatenate((np.linspace(0.01, 0.99, grids._REFINE_ITERS + 1),
                            [1.75, 2.0, 2.25]))
    kinks = [(knots, False)]
    centre = np.array([0.37, 2.0, 3.0])
    calls = []

    def refine(x, y):
        return -np.abs(y - centre[x.astype(int)])

    got = _refined_alone(xs, ys, j, _recorded(refine, calls), kinks)
    half = (grids._REFINE_ITERS + 1) // 2
    assert calls == [2, (2 + half) + 5 + 2]
    assert got[1] == 0.0 and got[2] == -0.5
    full = _full_scan(xs, ys, j, refine, kinks)
    assert got.tobytes() == full.tobytes()
    # alone, the long row makes the same bisection step and its own call
    calls.clear()
    alone = _refined_alone(xs[:1], ys, j[:1], _recorded(refine, calls), kinks)
    assert alone.tobytes() == full[:1].tobytes() and calls == [2, 2 + half]


def test_refinement_narrows_only_the_rows_with_more_than_iters_kinks():
    # x y - g(e^y) for a g sampled 500 times per grid step past y = 1 and
    # about once per step below: the row refined on the dense stretch is
    # halved by 2-point bisection calls until it holds at most iters kinks,
    # then every row shares one call of its ends and remaining kinks
    log_ts = np.concatenate((np.linspace(-3.0, 0.9, 40), np.linspace(1.0, 3.0, 10_000)))
    g = fn.from_samples(np.exp(log_ts), np.cumsum(np.linspace(0.0, 0.01, log_ts.size)))
    ys = np.linspace(-3.0, 3.0, 61)
    xs, j = np.array([0.01, 1.5, 9.0]), np.array([5, 20, 45])
    kinks = [(fn.log_kinks(g)[0], False)]
    calls = []

    def refine(x, y):
        return x * y - g.evaluate_many(np.exp(y))

    got = _refined_alone(xs, ys, j, _recorded(refine, calls), kinks)
    points = [_candidates(x, ys[i - 1], ys[i + 1], kinks).size for x, i in zip(xs, j)]
    # the dense row takes several bisection steps
    assert points[2] > 2 + 8 * grids._REFINE_ITERS
    *steps, shared = calls
    assert set(steps) == {2} and len(steps) >= math.log2((points[2] - 2) / grids._REFINE_ITERS)
    kept = shared - points[0] - points[1] - 2
    assert grids._REFINE_ITERS // 2 <= kept <= grids._REFINE_ITERS
    assert got.tobytes() == _full_scan(xs, ys, j, refine, kinks).tobytes()


def _convex_samples(rng, lo, hi, spacing):
    """A sampled function convex in log t (slopes that do not fall) with one
    knot in each step of ``spacing`` on [lo, hi], at a random place."""
    steps = np.arange(lo, hi, spacing)
    knots = steps + rng.uniform(0.05, 0.95, steps.size) * spacing
    slopes = np.sort(rng.uniform(0.0, 5.0, knots.size - 1))
    values = np.concatenate(([0.0], np.cumsum(slopes * np.diff(knots))))
    return fn.from_samples(np.exp(knots), values)


@st.composite
def long_kinked_refinements(draw):
    """Rows of the concave objectives x y - g(e^y) and -(g(e^y) + h(x / e^y))
    of sampled g and h convex in log t, whose brackets [ys[j-1], ys[j+1]]
    hold 61 to about 600 kinks of each set."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ys = np.linspace(-2.0, 2.0, draw(st.integers(3, 12)))
    # at least ``per_bracket`` knots strictly inside any bracket
    per_bracket = draw(st.integers(grids._REFINE_ITERS + 1, 600))
    spacing = 2.0 * (ys[1] - ys[0]) / (per_bracket + 1)
    k = draw(st.integers(1, 8))
    j = rng.integers(1, ys.size - 1, k)
    xs = rng.uniform(0.2, 6.0, k)
    g = _convex_samples(rng, -2.2, 2.2, spacing)
    k_g = fn.log_kinks(g)[0]
    if draw(st.booleans()):
        return xs, ys, j, lambda x, y: x * y - g.evaluate_many(np.exp(y)), [(k_g, False)]
    # log x - y runs over [-3.7, 3.8]
    h = _convex_samples(rng, -4.0, 4.0, spacing)

    def objective(x, y):
        s = np.exp(y)
        return -(g.evaluate_many(s) + h.evaluate_many(x / s))

    return xs, ys, j, objective, [(k_g, False), (-fn.log_kinks(h)[0][::-1], True)]


@settings(max_examples=150, deadline=None)
@given(long_kinked_refinements())
def test_bisection_of_long_kink_runs_equals_the_full_scan(problem):
    xs, ys, j, objective, kinks = problem
    counts = [_candidates(x, ys[i - 1], ys[i + 1], [one]).size - 2
              for x, i in zip(xs, j) for one in kinks]
    assert min(counts) > grids._REFINE_ITERS
    got = _refined_alone(xs, ys, j, objective, kinks)
    assert got.tobytes() == _full_scan(xs, ys, j, objective, kinks).tobytes()


def _unnarrowed(evaluate):
    """``evaluate()`` with every bracket's kinks scanned in full."""
    with mock.patch.object(grids, "_REFINE_ITERS", 10**9):
        return evaluate()


def test_conjugate_of_an_associated_function_equals_its_full_kink_scan():
    # GROWTHREL_SEQ's operand, whose brackets hold up to thousands of kinks
    star = fn.conjugate(fn.associated(sq.gevrey(0.5, 100_000)))
    ss = np.exp(np.linspace(0.0, math.log(200.0), 400))
    got = star.evaluate_many(ss)
    assert got.tobytes() == _unnarrowed(lambda: star.evaluate_many(ss)).tobytes()


def test_upper_envelope_of_associated_functions_equals_its_full_kink_scan():
    # ENVELOPE_ID clause (iv): two kink sets, sigma's and tau's shifted ones
    m = sq.gevrey(0.75, 200_000)
    env = fn.envelope_upper(fn.associated(m), fn.associated(sq.conjugate_sequence(m)))
    ts = np.exp(np.linspace(math.log(4.0), math.log(64.0), 400))
    got = env.evaluate_many(ts)
    assert got.tobytes() == _unnarrowed(lambda: env.evaluate_many(ts)).tobytes()


@pytest.mark.parametrize("with_kinks", [True, False], ids=["kinks", "parabolic"])
@pytest.mark.parametrize("monotone", [True, False], ids=["windowed", "dense"])
def test_grid_sup_hands_scan_and_refine_equal_length_flat_arrays(
    monotone, with_kinks, monkeypatch
):
    # rows refined at a few kinks, at a dozen and at over a hundred (halved
    # by bisection first); the windowed route also compares both edge cells
    # of each row
    log_ts = np.concatenate(
        (np.linspace(-3.0, -0.01, 40), np.linspace(0.0, 1.49, 300), np.linspace(1.5, 3.0, 2000))
    )
    g = fn.from_samples(np.exp(log_ts), np.exp(0.8 * log_ts))
    ys = np.linspace(-3.0, 3.0, 128)
    scans, refines = [], []

    def refine(x, y):
        return x * y - g.evaluate_many(np.exp(y))

    scan = _recorded(lambda x, j: refine(x, ys[j]), scans)
    searches = _record_searches(monkeypatch)
    xs = np.exp(np.linspace(-2.0, 1.5, 48))
    got = grid_sup(
        xs, ys, scan, _recorded(refine, refines), ("test", "x"), both_ends=True,
        monotone=monotone, kinks=[(fn.log_kinks(g)[0], False)] if with_kinks else None,
    )
    assert np.all(np.isfinite(got)) and scans and refines
    assert bool(searches) == monotone


@st.composite
def dense_problems(draw):
    """A table of small integers with ties and NaN cells, one row per
    argument, uneven non-empty runs of columns, and a chunk size."""
    k, n = draw(st.integers(1, 30)), draw(st.integers(1, 40))
    cell = st.one_of(st.integers(-3, 3).map(float), st.just(math.nan))
    table = np.array(draw(st.lists(cell, min_size=k * n, max_size=k * n))).reshape(k, n)
    ends = np.sort(
        np.array(draw(st.lists(st.integers(0, n - 1), min_size=2 * k, max_size=2 * k)))
        .reshape(k, 2),
        axis=1,
    )
    return table, ends[:, 0], ends[:, 1], draw(st.integers(1, 3 * n))


@settings(max_examples=300, deadline=None)
@given(dense_problems())
def test_dense_argmax_is_the_leftmost_argmax_of_each_run(problem):
    table, lo, hi, chunk_cells = problem
    k, n = table.shape
    want_j = np.array([a + np.argmax(row[a : b + 1]) for row, a, b in zip(table, lo, hi)])
    want_top = table[np.arange(k), want_j]
    scan = _recorded(lambda x, j: table[x.astype(np.intp), j], [])
    with mock.patch.object(grids, "_SCRATCH_CELLS", chunk_cells):
        j, top = grids._dense_argmax(np.arange(k, dtype=float), n, scan, lo, hi)
    np.testing.assert_array_equal(j, want_j)
    np.testing.assert_array_equal(top, want_top)


def test_breakpoint_refinement_does_not_depend_on_the_batch():
    # rows with a few kinks, a dozen and over a hundred (halved by bisection
    # first), refined together and one by one
    log_ts = np.concatenate(
        (np.linspace(-3.0, -0.01, 40), np.linspace(0.0, 1.49, 300), np.linspace(1.5, 3.0, 2000))
    )
    g = fn.from_samples(np.exp(log_ts), np.exp(0.8 * log_ts))
    ys = np.linspace(-3.0, 3.0, 128)
    kinks = [(fn.log_kinks(g)[0], False)]

    def refine(x, y):
        return x * y - g.evaluate_many(np.exp(y))

    def scan(x, j):
        return refine(x, ys[j])

    xs = np.exp(np.linspace(-2.0, 1.5, 23))
    both = grid_sup(xs, ys, scan, refine, ("test", "x"), kinks=kinks)
    alone = [grid_sup(xs[i : i + 1], ys, scan, refine, ("test", "x"), kinks=kinks)[0]
             for i in range(xs.size)]
    np.testing.assert_array_equal(both, alone)


# ---------------------------------------------------------------------------
# sorted-window argmax against the dense scan
# ---------------------------------------------------------------------------


@st.composite
def monotone_problems(draw, min_n=3, min_k=1):
    """x * phi(y) - psi(y) on the integer grid with phi non-decreasing, psi
    arbitrary (plateaus, ties, no convexity), quarter-integer x and small
    integer values, so every grid cell is computed exactly and the leftmost
    argmax is non-decreasing in x (increasing differences)."""
    n = draw(st.integers(min_n, 160))
    ints = lambda lo, hi: st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    phi = np.cumsum(draw(ints(0, 3))).astype(float)
    psi = np.asarray(draw(ints(-6, 6)), dtype=float)
    arg = st.one_of(st.integers(-40, 40).map(lambda m: m / 4), st.just(math.nan))
    xs = np.asarray(draw(st.lists(arg, min_size=min_k, max_size=100)))
    # a row's run of columns: a prefix, a suffix or a window moving right
    # with x, cut by thresholds a x + c0 and a x + c1 with a >= 0
    kind = draw(st.sampled_from(["none", "prefix", "suffix", "both"]))
    cuts = (
        draw(st.integers(0, 4)), draw(st.integers(-n, n)), draw(st.integers(0, 2 * n))
    )
    cap = draw(st.one_of(st.just(math.inf), st.integers(-4, 60).map(lambda m: m / 4)))
    return phi, psi, xs, kind, cuts, cap, draw(st.booleans())


def _in_runs(runs, scan):
    """``scan`` that fails on a cell outside its row's run: ``runs(x)`` maps
    arguments to the (lo, hi) arrays of their runs."""

    def checked(x, j):
        lo, hi = runs(x)
        assert np.all((lo <= j) & (j <= hi)), "scanned a cell outside its run"
        return scan(x, j)

    return checked


def _scan_and_refine(problem):
    """(ys, scan, refine, runs) of a ``monotone_problems`` draw, where
    ``runs(xs)`` gives the runs of columns a x + c0 <= j (suffix) and
    j <= a x + c1 (prefix), the whole grid for a NaN row, and ``scan``
    fails on a cell outside them."""
    phi, psi, _, kind, (a, c0, c1), _, _ = problem
    n = phi.size
    ys = np.arange(n, dtype=float)

    def runs(xs):
        xs = np.asarray(xs, dtype=float)
        lo = np.zeros(xs.shape, dtype=np.intp)
        hi = np.full(xs.shape, n - 1)
        x = xs[~np.isnan(xs)]
        if kind in ("suffix", "both"):
            lo[~np.isnan(xs)] = np.maximum(0, np.ceil(a * x + c0))
        if kind in ("prefix", "both"):
            hi[~np.isnan(xs)] = np.minimum(n - 1, np.floor(a * x + c1))
        return lo, hi

    def refine(x, y):
        return x * np.interp(y, ys, phi) - np.interp(y, ys, psi)

    return ys, _in_runs(runs, lambda x, j: x * phi[j] - psi[j]), refine, runs


def _sup_or_refusal(problem, monotone):
    ys, scan, refine, runs = _scan_and_refine(problem)
    _, _, xs, _, _, cap, both_ends = problem
    try:
        return grid_sup(
            xs, ys, scan, refine, ("test", "x"), cap=cap, both_ends=both_ends,
            monotone=monotone, runs=runs(xs),
        )
    except DomainExhaustedError as err:
        return err


@settings(max_examples=300, deadline=None)
@given(monotone_problems())
# rows x = 0.5 and 1.5 have empty runs; the row x = -0.5 below them peaks
# inside, so the first refusal names x = 0.5
@example(
    (
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([1.0, 1.0, 2.0, 2.0]),
        np.array([-0.5, 0.5, 1.5]),
        "suffix",
        (4, 4, 7),
        math.inf,
        False,
    )
)
def test_sorted_window_argmax_matches_dense_scan(problem):
    # every cell is exact, so both searches find the same cell and value on
    # the rows with a non-empty run, the only ones grid_sup searches
    ys, scan, _, runs = _scan_and_refine(problem)
    lo, hi = runs(problem[2])
    keep = lo <= hi
    xs, lo, hi = problem[2][keep], lo[keep], hi[keep]
    j, top = grids._sorted_window_argmax(xs, ys.size, scan, lo, hi)
    dense_j, dense_top = grids._dense_argmax(xs, ys.size, scan, lo, hi)
    np.testing.assert_array_equal(j, dense_j)
    np.testing.assert_array_equal(top, dense_top)


@settings(max_examples=200, deadline=None)
@given(monotone_problems(), st.data())
def test_sorted_window_argmax_refuses_exactly_the_groups_with_a_fully_masked_row(
    problem, data
):
    # a group with an empty-run row is refused before the search, with no
    # cell of that row scanned; both routes refuse the same groups, and the
    # rows of the accepted groups keep the dense scan's cell
    ys, scan, _, runs = _scan_and_refine(problem)
    xs = problem[2]
    labels = np.asarray(
        data.draw(st.lists(st.integers(0, 4), min_size=xs.size, max_size=xs.size)),
        dtype=np.intp,
    )
    lo, hi = runs(xs)
    args = xs, ys.size, scan, lo, hi, math.inf, problem[6]
    j, _, refused_by = grids._search(*args, True, labels)
    dense_j, _, dense_refused_by = grids._search(*args, False, labels)
    refused = refused_by >= 0
    np.testing.assert_array_equal(refused, dense_refused_by >= 0)
    assert refused[labels[lo > hi]].all()
    kept = ~refused[labels]
    np.testing.assert_array_equal(j[kept], dense_j[kept])


# at n >= 64 and k >= 40 the kernel takes the windowed path
@settings(max_examples=100, deadline=None)
@given(monotone_problems(min_n=64, min_k=40))
def test_grid_sup_monotone_matches_dense_scan(problem):
    dense = _sup_or_refusal(problem, monotone=False)
    windowed = _sup_or_refusal(problem, monotone=True)
    if isinstance(dense, DomainExhaustedError):
        assert isinstance(windowed, DomainExhaustedError)
        assert windowed.details == dense.details
    else:
        np.testing.assert_allclose(windowed, dense, rtol=1e-12, atol=0.0)


_T97 = np.exp(np.linspace(math.log(1e-2), math.log(1e6), 97))
_G512 = GridSpec(1e-2, 1e6, 512)


def _envelope_outcome(envelope, ts):
    try:
        return envelope.evaluate_many(ts)
    except DomainExhaustedError as err:
        return err.details


def _zigzag_samples():
    # slopes in log t alternate between 0.05 and 3 every six samples, so
    # tau(e^u) has concave kinks every few e-folds
    ts = np.exp(np.linspace(math.log(1e-2), math.log(1e7), 60))
    steps = np.where(np.arange(60) % 12 < 6, 0.05, 3.0)
    return fn.from_samples(ts, np.cumsum(steps))


def _wrapped(omega):
    # a kind whose convexity in log t the kind test cannot decide
    return fn.WeightFunction("wrapped", omega.evaluate_many, omega.domain_hint)


@pytest.mark.parametrize(
    "sigma, tau",
    [
        (fn.power_weight(1.0), _zigzag_samples()),
        (fn.power_weight(0.5), fn.log_power_weight(0.5)),
        (fn.power_weight(1.0), _wrapped(_zigzag_samples())),
    ],
    ids=["from_samples", "log_power", "undecided"],
)
def test_envelope_of_non_convex_tau_takes_the_dense_scan(sigma, tau, monkeypatch):
    searches = _record_searches(monkeypatch)
    got = fn.envelope_lower(sigma, tau, _G512).evaluate_many(_T97)
    # no sorted-window search ran
    assert searches == []
    monkeypatch.setattr(fn, "_convex_in_log", lambda *args: False)
    dense = fn.envelope_lower(sigma, tau, _G512).evaluate_many(_T97)
    assert np.array_equal(got, dense)
    # the case is a real trap: an uncertified sorted-window scan misses the
    # optimum, since tau(e^u) is not convex
    monkeypatch.setattr(fn, "_convex_in_log", lambda *args: True)
    forced = fn.envelope_lower(sigma, tau, _G512).evaluate_many(_T97)
    assert np.max(np.abs(forced - dense) / dense) > 1e-3


@pytest.mark.parametrize("s", [0.4, 1.5, 2.0])
def test_envelope_with_all_masked_rows_keeps_the_dense_outcome(s, monkeypatch):
    # rows with t / s_max beyond tau's coverage have empty runs; they must
    # not narrow the windows of the rows below them
    sigma = fn.associated(sq.gevrey(0.4, 4000))
    tau = fn.associated(sq.gevrey(s, 4000))
    got = _envelope_outcome(fn.envelope_lower(sigma, tau), _T97)
    monkeypatch.setattr(fn, "_convex_in_log", lambda *args: False)
    dense = _envelope_outcome(fn.envelope_lower(sigma, tau), _T97)
    if s == 0.4:
        assert got == dense == {"t": pytest.approx(825.4041852680176, rel=1e-15)}
    else:
        np.testing.assert_allclose(got, dense, rtol=1e-12, atol=0.0)


def _quadratic_rows(start=None, stop=None):
    """Rows x j - j^2 / 2 on the integer grid 0..255, peaking at j = x, each
    with the run of columns start(x) <= j <= stop(x) (the grid end when
    None); dyadic, so every cell is exact.  Returns (ys, scan, refine,
    runs), where ``runs(xs)`` gives the (lo, hi) arrays of the runs and
    ``scan`` fails on a cell outside them."""
    ys = np.arange(256, dtype=float)

    def runs(xs):
        xs = np.asarray(xs, dtype=float)
        lo = np.zeros(xs.shape) if start is None else np.ceil(start(xs))
        hi = np.full(xs.shape, 255) if stop is None else np.floor(stop(xs))
        return np.maximum(0, lo).astype(np.intp), np.minimum(255, hi).astype(np.intp)

    def refine(x, y):
        return x * y - y * y / 2

    return ys, _in_runs(runs, lambda x, j: x * ys[j] - ys[j] ** 2 / 2), refine, runs


def _record_searches(monkeypatch):
    """The number of rows of each sorted-window search; each row searched
    must have a non-empty run."""
    searches = []
    search = grids._sorted_window_argmax

    def recording(xs, n, scan, lo, hi):
        assert np.all(lo <= hi)
        searches.append(xs.size)
        return search(xs, n, scan, lo, hi)

    monkeypatch.setattr(grids, "_sorted_window_argmax", recording)
    return searches


def _windowed_and_dense(xs, problem, monkeypatch):
    """grid_sup on both routes (values, or the refusal's details), and the
    number of rows of each sorted-window search."""
    ys, scan, refine, runs = problem
    searches = _record_searches(monkeypatch)
    outcomes = []
    for monotone in (True, False):
        try:
            outcomes.append(
                grid_sup(
                    xs, ys, scan, refine, ("test", "x"), monotone=monotone,
                    runs=runs(xs),
                )
            )
        except DomainExhaustedError as err:
            outcomes.append(err.details)
    return outcomes, searches


@pytest.mark.parametrize(
    "first, second, want",
    [(300.0, 257.0, 300.0), (257.0, 300.0, 257.0), (257.0, 257.5, 257.0)],
    ids=["masked_before_edge", "masked_after_edge", "masked_after_two_edges"],
)
def test_fully_masked_row_is_refused_like_the_dense_scan(
    first, second, want, monkeypatch
):
    # each row runs over the columns j >= x - 4: rows x > 259 have empty
    # runs, rows 255 < x <= 259 peak beyond the right end and are refused
    # there
    problem = _quadratic_rows(start=lambda x: x - 4)
    live = list(np.linspace(10.0, 240.0, 40))
    xs = np.array(live[:20] + [first] + live[20:30] + [second] + live[30:] + [400.0])
    (windowed, dense), searches = _windowed_and_dense(xs, problem, monkeypatch)
    assert windowed == dense == {"x": want}
    # the windowed route searches only the rows before the first empty run,
    # and scans no cell of an empty-run row
    assert searches == [int(np.argmax(xs > 259.0))]


def test_live_middle_between_masked_grid_ends_is_not_refused_early(monkeypatch):
    # each row runs over the cells within 20 of its peak: both grid ends lie
    # outside every row's run, but every run reaches into the row's window
    problem = _quadratic_rows(start=lambda x: x - 20, stop=lambda x: x + 20)
    xs = np.linspace(30.0, 220.0, 48)[np.random.default_rng(5).permutation(48)]
    (windowed, dense), searches = _windowed_and_dense(xs, problem, monkeypatch)
    assert searches == [48]
    np.testing.assert_array_equal(windowed, dense)
    np.testing.assert_allclose(windowed, xs**2 / 2, rtol=1e-15)


def test_envelope_masked_on_every_cell_is_certified_and_refused_like_the_dense_scan(
    monkeypatch,
):
    # tau's coverage ends at t = 4 and t / s > 4 on the whole grid: the
    # certificate holds vacuously, every run is empty, and the first row in
    # input order is refused before any scan
    tau = fn.from_samples([1.0, 2.0, 4.0], [0.0, 1.0, 3.0])
    grid = GridSpec(1e-2, 1e2, 256)
    ts = np.exp(np.linspace(math.log(1e3), math.log(1e5), 40))
    ts = ts[np.random.default_rng(7).permutation(40)]
    log_ss = grid.log_points()
    u_lo = np.log(ts).min() - log_ss[-1]
    u_hi = min(np.log(ts).max() - log_ss[0], math.log(tau.domain_hint))
    assert u_hi < u_lo and fn._convex_in_log(tau, u_lo, u_hi)
    searches = _record_searches(monkeypatch)
    got = _envelope_outcome(fn.envelope_lower(fn.identity_weight(), tau, grid), ts)
    assert searches == [0]
    monkeypatch.setattr(fn, "_convex_in_log", lambda *args: False)
    dense = _envelope_outcome(fn.envelope_lower(fn.identity_weight(), tau, grid), ts)
    assert got == dense == {"t": ts[0]}


@pytest.mark.parametrize("convex", [False, True], ids=["dense", "windowed"])
def test_envelope_evaluates_tau_only_within_its_coverage(convex, monkeypatch):
    # a transform tau refuses arguments beyond its coverage (hint 14.06), so
    # the scan must not evaluate it outside each row's run; tau(e^u) is
    # convex, so both routes are valid
    sigma = fn.associated(sq.gevrey(0.6, 4000))
    tau = fn.conjugate(fn.associated(sq.gevrey(0.7, 8000)), check=False)
    monkeypatch.setattr(fn, "_convex_in_log", lambda *args: convex)
    ts = np.exp(np.linspace(0.0, math.log(1e3), 97))
    got = fn.envelope_lower(sigma, tau).evaluate_many(ts)
    assert np.all(np.isfinite(got))
    # no value lies above sigma(s) + tau(t / s) on a fine log grid of the s
    # both operands cover
    us = np.exp(np.linspace(math.log(1e-3), math.log(tau.domain_hint), 200_000))
    tau_us = tau.evaluate_many(us)
    for t, value in zip(ts, got):
        ss = t / us
        covered = ss <= sigma.domain_hint
        assert value <= np.min(sigma.evaluate_many(ss[covered]) + tau_us[covered])


@st.composite
def rounded_problems(draw):
    """x * phi(y) - psi(y) in non-dyadic floats, so increasing differences
    hold only up to rounding, with rows x ulps apart around a row x0 that is
    tied, up to rounding, between its two best cells at the right end."""
    n = draw(st.integers(64, 160))
    reals = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_subnormal=False)
    phi = np.cumsum(draw(st.lists(reals(0.0, 3.0), min_size=n, max_size=n)))
    psi = np.asarray(draw(st.lists(reals(-6.0, 6.0), min_size=n, max_size=n)))
    xs = draw(st.lists(reals(-10.0, 10.0), min_size=40, max_size=80))
    x0 = draw(st.sampled_from(xs))
    psi[-2] = x0 * phi[-2] - np.max(x0 * phi[:-2] - psi[:-2]) - draw(reals(0.0, 1.0))
    psi[-1] = psi[-2] + x0 * (phi[-1] - phi[-2])
    near = np.nextafter(x0, np.inf)
    for _ in range(draw(st.integers(1, 12))):
        xs.append(near)
        near = np.nextafter(near, -np.inf)
    xs = np.asarray(draw(st.permutations(xs)))
    kind = draw(st.sampled_from(["none", "suffix", "prefix"]))
    cuts = (
        draw(st.integers(0, 4)), draw(st.integers(-n, n)), draw(st.integers(0, 2 * n))
    )
    return phi, psi, xs, kind, cuts, math.inf, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(rounded_problems())
def test_grid_sup_monotone_matches_dense_scan_under_rounding(problem):
    # rounding may move a row's argmax between near-tied cells, which moves
    # its value by a few ulps of the objective's terms, but the edge cells
    # are compared on every row: both routes refuse the same first row
    dense = _sup_or_refusal(problem, monotone=False)
    windowed = _sup_or_refusal(problem, monotone=True)
    if isinstance(dense, DomainExhaustedError):
        assert isinstance(windowed, DomainExhaustedError)
        assert windowed.details == dense.details
    else:
        assert not isinstance(windowed, DomainExhaustedError), windowed.details
        phi, psi, xs = problem[:3]
        scale = np.nanmax(np.abs(xs)) * np.max(np.abs(phi)) + np.max(np.abs(psi))
        np.testing.assert_allclose(windowed, dense, rtol=1e-12, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# refusal by group against one call per group
# ---------------------------------------------------------------------------


def _grouped_and_alone(xs, labels, problem, monotone, **options):
    """grid_sup of all rows refusing by group, and one ungrouped call per
    label (its values, or its refusal's details)."""
    ys, scan, refine, runs = problem
    grouped = grid_sup(
        xs, ys, scan, refine, ("test", "x"), monotone=monotone, groups=labels,
        runs=runs(xs), **options,
    )
    alone = []
    for g in range(int(labels.max()) + 1):
        rows = xs[labels == g]
        try:
            alone.append(
                grid_sup(
                    rows, ys, scan, refine, ("test", "x"), monotone=monotone,
                    runs=runs(rows), **options,
                )
            )
        except DomainExhaustedError as err:
            alone.append(err.details)
    return grouped, alone


def _assert_refused_like_alone(grouped, alone, labels, atol=None):
    """Same refused groups; accepted values bit-identical, or within 1e-12
    relative (plus ``atol``) when ``atol`` is given."""
    values, refused = grouped
    assert refused.size == len(alone)
    for g, want in enumerate(alone):
        got = values[labels == g]
        assert refused[g] == isinstance(want, dict), (g, want)
        if refused[g]:
            assert np.all(np.isnan(got))
        elif atol is None:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)


def _labels(data, size):
    return np.asarray(
        data.draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)),
        dtype=np.intp,
    )


@settings(max_examples=100, deadline=None)
@given(monotone_problems(min_n=64, min_k=40), st.data(), st.booleans())
def test_grouped_grid_sup_refuses_like_one_call_per_group(problem, data, monotone):
    # every cell is exact, so every call finds the same cells, and golden
    # section refines a row alike in any batch
    xs, cap, both_ends = problem[2], problem[5], problem[6]
    labels = _labels(data, xs.size)
    grouped, alone = _grouped_and_alone(
        xs, labels, _scan_and_refine(problem), monotone, cap=cap,
        both_ends=both_ends,
    )
    _assert_refused_like_alone(grouped, alone, labels)


@settings(max_examples=100, deadline=None)
@given(rounded_problems(), st.data(), st.booleans())
def test_grouped_grid_sup_refuses_like_one_call_per_group_under_rounding(
    problem, data, monotone
):
    # a call per group may take the other route, or break a near tie the
    # other way; it refuses the same rows all the same
    phi, psi, xs = problem[:3]
    labels = _labels(data, xs.size)
    grouped, alone = _grouped_and_alone(
        xs, labels, _scan_and_refine(problem), monotone, both_ends=problem[6]
    )
    scale = np.nanmax(np.abs(xs)) * np.max(np.abs(phi)) + np.max(np.abs(psi))
    _assert_refused_like_alone(grouped, alone, labels, atol=1e-12 * scale)


def _layout_of_refusals():
    """Five groups of 40 rows of ``_quadratic_rows`` with runs j >= x - 4,
    interleaved in input order: rows x > 259 have empty runs, rows
    255 < x <= 259 peak beyond the right end.  In input order, group 0
    holds an empty-run row before a live edge row, group 2 a live edge row
    before an empty-run row, group 4 a live edge row only; groups 1 and 3
    are accepted."""
    xs = np.linspace(10.0, 240.0, 200)[np.random.default_rng(3).permutation(200)]
    labels = np.repeat(np.arange(5), 40)
    bad = {(0, 5): 300.0, (0, 30): 257.0, (2, 10): 257.5, (2, 35): 400.0, (4, 20): 258.0}
    for (g, i), x in bad.items():
        xs[40 * g + i] = x
    # one row of each group in turn, each group keeping its order
    order = np.arange(200).reshape(5, 40).T.ravel()
    return xs[order], labels[order]


@pytest.mark.parametrize("monotone", [True, False], ids=["windowed", "dense"])
def test_grouped_refusals_in_the_first_middle_and_last_group(monotone, monkeypatch):
    xs, labels = _layout_of_refusals()
    problem = _quadratic_rows(start=lambda x: x - 4)
    searches = _record_searches(monkeypatch)
    grouped, alone = _grouped_and_alone(xs, labels, problem, monotone)
    np.testing.assert_array_equal(grouped[1], [True, False, True, False, True])
    # groups of 40 rows take the windowed route alone too, so every accepted
    # value is bit-identical
    _assert_refused_like_alone(grouped, alone, labels)
    assert alone[0] == {"x": 300.0} and alone[2] == {"x": 257.5}
    assert alone[4] == {"x": 258.0}
    if monotone:
        # the grouped search refused groups 0 and 2 by their empty-run rows
        # before it searched the 120 rows of the other groups
        assert searches[0] == 120
    # only the 80 rows of the accepted groups are refined: one call seeds
    # each with three points, the others see the rows still moving
    ys, scan, refine, runs = problem
    refined = []

    def recording(x, y):
        refined.append(x.size)
        return refine(x, y)

    grid_sup(
        xs, ys, scan, recording, ("test", "x"), monotone=monotone, groups=labels,
        runs=runs(xs),
    )
    assert refined[0] == 3 * 80 and max(refined[1:]) <= 80


def test_grouped_grid_sup_without_refusal_equals_the_ungrouped_call():
    ys, scan, refine, runs = _quadratic_rows(start=lambda x: x - 4)
    xs = np.linspace(10.0, 240.0, 100)
    labels = np.arange(100) % 3
    values, refused = grid_sup(
        xs, ys, scan, refine, ("test", "x"), monotone=True, groups=labels,
        runs=runs(xs),
    )
    assert not refused.any() and refused.size == 3
    ungrouped = grid_sup(
        xs, ys, scan, refine, ("test", "x"), monotone=True, runs=runs(xs)
    )
    np.testing.assert_array_equal(values, ungrouped)


def _zigzag_with_far_sample():
    # a huge value far to the right must not hide the zigzag's concave kinks
    zig = _zigzag_samples()
    ts, values = zig.params["ts"], zig.params["values"]
    return fn.from_samples(np.append(ts, 1e8), np.append(values, 1e14))


@pytest.mark.parametrize("tau", [_zigzag_with_far_sample()], ids=["sampled"])
def test_certificate_tolerance_is_local_to_each_second_difference(tau, monkeypatch):
    sigma = fn.power_weight(1.0)
    log_ss = _G512.log_points()
    u_lo = math.log(_T97[0]) - log_ss[-1]
    u_hi = min(math.log(_T97[-1]) - log_ss[0], math.log(tau.domain_hint))
    assert not fn._convex_in_log(tau, u_lo, u_hi)
    got = _envelope_outcome(fn.envelope_lower(sigma, tau, _G512), _T97)
    monkeypatch.setattr(fn, "_convex_in_log", lambda *args: False)
    dense = _envelope_outcome(fn.envelope_lower(sigma, tau, _G512), _T97)
    assert np.array_equal(got, dense)


def test_sampled_tau_with_kinks_finer_than_the_lattice_takes_the_dense_scan(
    monkeypatch,
):
    # knots every half grid step with alternating slopes: tau(e^u) is linear
    # on a lattice of the grid step, yet concave at every other knot, which
    # the knot slopes of a sampled tau show exactly; wrapped in a kind that
    # proves nothing, tau is not taken for convex either
    log_ss = _G512.log_points()
    u_lo = math.log(_T97[0]) - log_ss[-1]
    u_hi = math.log(_T97[-1]) - log_ss[0]
    points = math.ceil((u_hi - u_lo) / (log_ss[1] - log_ss[0])) + 1
    half = (u_hi - u_lo) / (points - 1) / 2
    knots = u_lo + half * np.arange(-2, 2 * points + 2)
    slopes = np.where(np.arange(knots.size - 1) % 2 == 0, 3.0, 0.05)
    tau = fn.from_samples(
        np.exp(knots), np.concatenate(([0.0], np.cumsum(slopes * half)))
    )
    assert not fn._convex_in_log(_wrapped(tau), u_lo, u_hi)
    assert not fn._convex_in_log(tau, u_lo, u_hi)
    sigma = fn.power_weight(1.0)
    got = _envelope_outcome(fn.envelope_lower(sigma, tau, _G512), _T97)
    monkeypatch.setattr(fn, "_convex_in_log", lambda *args: False)
    dense = _envelope_outcome(fn.envelope_lower(sigma, tau, _G512), _T97)
    assert np.array_equal(got, dense)


_CONCAVE_KINK = fn.from_samples([1.0, 2.0, 4.0], [0.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "tau, convex",
    [
        (fn.power_weight(0.5), True),
        (fn.associated(sq.gevrey(1.0, 400)), True),
        (fn.integral_form(sq.gevrey(1.0, 400)), True),
        (fn.log_power_weight(2.0), True),
        (fn.normalized(fn.power_weight(2.0)), True),
        (fn.power_substitution(fn.power_weight(1.0), 2.0), True),
        (fn.from_samples([1.0, 2.0, 4.0], [0.0, 1.0, 3.0]), True),
        (_CONCAVE_KINK, False),
        (fn.power_substitution(_CONCAVE_KINK, 2.0), False),
        (fn.log_power_weight(0.5), False),
        (fn.normalized(fn.log_power_weight(0.5)), False),
        (fn.WeightFunction("sampled", np.log1p, domain_hint=10.0), False),
    ],
)
def test_kind_decides_convexity_in_log(tau, convex):
    assert fn._convex_in_log(tau, -5.0, 5.0) is convex


# ---------------------------------------------------------------------------
# bit identity and work against the reference kernels
# ---------------------------------------------------------------------------
#
# The sorted-window search as first written, which rebuilt its blocks at
# every level, and the parabolic loop before its numpy calls were cut.  The
# kernels of ``grids`` reorganise the same arithmetic, so they must return
# the same bits and do the same work: the same cells scanned, the same
# objective points and the same number of steps.


def _reference_parabolic_step(points, values, step_before, curv_seed, golden):
    a, x, b = points
    fa, fx, fb = values
    left, right = x - a, b - x
    width = left + right
    best = np.maximum(np.maximum(fa, fb), fx)
    tol = grids._PARABOLIC_RTOL * np.maximum(1.0, np.abs(best))
    with np.errstate(divide="ignore", invalid="ignore"):
        s_left, s_right = (fx - fa) / left, (fb - fx) / right
        curv = (s_right - s_left) / width
        to_vertex = -0.5 * (left + s_left / curv)
        delta_sq = 0.25 * tol / -curv
        stop = curv_seed * width * width <= 4.0 * tol
    rows = np.flatnonzero(stop)
    if rows.size:
        stop[rows] = _reference_proven(
            left[rows], right[rows], s_left[rows], s_right[rows], fa[rows], fx[rows],
            fb[rows], best[rows], tol[rows],
        )
    parabolic = (curv < 0) & (to_vertex > -left) & (to_vertex < right) & (not golden)
    near = parabolic & (to_vertex * to_vertex < delta_sq)
    parabolic &= near | (np.abs(to_vertex) < 0.5 * step_before)
    step = to_vertex
    larger = np.where(right > left, right, -left)
    rows = np.flatnonzero(near)
    if rows.size:
        delta = np.maximum(np.sqrt(delta_sq[rows]), 4.0 * np.spacing(np.abs(x[rows])))
        step[rows] = np.copysign(np.minimum(delta, 0.5 * np.abs(larger[rows])), larger[rows])
    rows = np.flatnonzero(~(parabolic | stop))
    if rows.size:
        step[rows] = _reference_fallback_step(
            points[:, rows], values[:, rows], tol[rows], curv[rows], larger[rows]
        )
    u = x + step
    stop |= (u == x) | np.isnan(best)
    return u, curv, best, stop


def _reference_proven(left, right, s_left, s_right, fa, fx, fb, best, tol):
    with np.errstate(divide="ignore", invalid="ignore"):
        noise = 0.25 * tol
        up = np.maximum((noise / right - s_right) * left, (s_left + noise / left) * right)
        spread = best - np.minimum(fa, fb) <= (grids._GOLDEN_RTOL / grids._PARABOLIC_RTOL) * tol
        balanced = (3.0 * right >= left) & (3.0 * left >= right)
        return (up <= tol + (best - fx)) | (spread & balanced)


def _reference_fallback_step(points, values, tol, curv, larger):
    a, x, b = points
    fa, fx, fb = values
    left, right = x - a, b - x
    step = grids.INV_PHI_SQ * larger
    better = np.maximum(fa, fb) > fx
    if better.any():
        on_a = fa >= fb
        seg = np.where(on_a, left, right)
        with np.errstate(divide="ignore", invalid="ignore"):
            inward = 0.5 * tol / (-curv * seg)
        floor = np.maximum(1e-3 * seg, 4.0 * np.spacing(np.abs(x)))
        inward = np.minimum(np.maximum(inward, floor), 0.5 * seg)
        step = np.where(better, np.where(on_a, inward - left, right - inward), step)
    return step


def _reference_parabolic_rows(f, xs, a, x, b, iters):
    x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
    k = a.size
    seeds = f(np.tile(xs, 3), np.concatenate((a, x, b)))
    out = np.empty(k)
    inf = np.full(k, np.inf)
    state = np.stack(
        (np.arange(k), xs, inf, inf, inf, a, x, b, seeds[:k], seeds[k : 2 * k], seeds[2 * k :])
    )
    for i in range(iters):
        u, curv, best, stop = _reference_parabolic_step(
            state[5:8], state[8:], state[3], state[4], i > grids._PARABOLIC_STEPS
        )
        if i == 0:
            state[4] = np.abs(curv)
        if i == iters - 1:
            stop[:] = True
        if stop.any():
            out[state[0, stop].astype(np.intp)] = best[stop]
            state, u = state[:, ~stop], u[~stop]
        if not u.size:
            break
        fu = f(state[1], u)
        first = u < state[6]
        p1, p2 = np.minimum(u, state[6]), np.maximum(u, state[6])
        f1, f2 = np.where(first, fu, state[9]), np.where(first, state[9], fu)
        top_l, top_r = np.maximum(state[8], f1), np.maximum(f2, state[10])
        kl = (top_l > top_r) | ((top_l == top_r) & (p2 - state[5] > state[7] - p1))
        state[3], state[2] = state[2], np.abs(u - state[6])
        kr = ~kl
        for at, inner, outer in ((5, p1, p2), (8, f1, f2)):
            np.copyto(state[at], inner, where=kr)
            np.copyto(state[at + 2], outer, where=kl)
            state[at + 1] = np.where(kl, inner, outer)
    return out


def _reference_ranges(first, width):
    return np.arange(width.sum()) + np.repeat(first - (np.cumsum(width) - width), width)


def _reference_run_max(f, xs, cells, width):
    starts = np.cumsum(width) - width
    obj = f(np.repeat(xs, width), cells)
    best = np.maximum.reduceat(obj, starts)
    hit = obj == np.repeat(best, width)
    if np.isnan(best).any():
        hit |= np.isnan(obj)
    hits = np.flatnonzero(hit)
    return cells[hits[np.searchsorted(hits, starts)]], best


def _reference_sorted_window_argmax(xs, n, scan, lo, hi):
    j = np.zeros(xs.size, dtype=np.intp)
    top = np.full(xs.size, np.nan)
    order = np.argsort(xs, kind="stable")
    order = order[~np.isnan(xs[order])]
    blocks = np.array([[0], [order.size], [0], [n - 1]])
    blocks = blocks[:, blocks[0] < blocks[1]]
    while blocks.shape[1]:
        a, b, wlo, whi = blocks
        mid = (a + b) // 2
        rows = order[mid]
        first = np.maximum(wlo, lo[rows])
        width = np.minimum(whi, hi[rows]) - first + 1
        jm, top[rows] = _reference_run_max(
            scan, xs[rows], _reference_ranges(first, width), width
        )
        j[rows] = jm
        blocks = np.concatenate(
            (np.stack((a, mid, wlo, jm)), np.stack((mid + 1, b, jm, whi))), axis=1
        )
        blocks = blocks[:, blocks[0] < blocks[1]]
    return j, top


#: Row counts at the edges of the schedule's levels and of its cache, and
#: beyond one parabolic slice of 4,096 rows.
_EDGE_ROWS = [0, 1, 2, 3] + [2**m + d for m in range(2, 9) for d in (-1, 1)] + [4097, 4500]


@st.composite
def search_problems(draw):
    """x * phi(y) - psi(y) with phi non-decreasing, in non-dyadic floats or
    small integers (ties and plateaus), NaN and repeated arguments, and runs
    [lo, hi] non-decreasing in x that may be empty: (phi, psi, xs, lo, hi),
    NaN rows on the whole grid."""
    k = draw(st.one_of(st.sampled_from(_EDGE_ROWS), st.integers(0, 300)))
    n = draw(st.integers(3, 48 if k > 300 else 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi, psi = np.cumsum(rng.uniform(0.0, 3.0, n)), rng.uniform(-6.0, 6.0, n)
    xs = rng.uniform(-10.0, 10.0, k)
    if draw(st.booleans()):
        phi, psi, xs = np.round(phi), np.round(psi), np.round(4.0 * xs) / 4.0
    if k and draw(st.booleans()):
        xs = rng.choice(xs, k)
    xs[rng.random(k) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = math.nan
    # runs cut by a x + c0 <= j <= a x + c1, a >= 0
    a, c0, c1 = rng.uniform(0.0, 4.0), rng.uniform(-n, n), rng.uniform(0.0, 2.0 * n)
    lo, hi = np.zeros(k, dtype=np.intp), np.full(k, n - 1)
    with np.errstate(invalid="ignore"):
        if draw(st.booleans()):
            lo = np.clip(np.ceil(a * xs + c0), 0, n).astype(np.intp)
        if draw(st.booleans()):
            hi = np.clip(np.floor(a * xs + c1), -1, n - 1).astype(np.intp)
    lo[np.isnan(xs)], hi[np.isnan(xs)] = 0, n - 1
    return phi, psi, xs, lo, hi


def _counted_scan(phi, psi, cells):
    """The scan of a ``search_problems`` draw, adding the arguments and
    cells of each call to ``cells``."""

    def scan(x, j):
        cells.append((x.tobytes(), j.astype(np.intp).tobytes()))
        return x * phi[j] - psi[j]

    return scan


def _outcome(call):
    """The bits a call returns, or the type and message of its error."""
    try:
        return [np.asarray(v).tobytes() for v in call()]
    except Exception as err:  # both kernels must fail alike
        return (type(err).__name__, str(err))


@settings(max_examples=150, deadline=None)
@given(search_problems())
def test_sorted_window_argmax_equals_the_reference_bit_for_bit(problem):
    # the same argmax columns and maxima from the same cells, in the same
    # order: one scan call per level
    phi, psi, xs, lo, hi = problem
    live = lo <= hi
    xs, lo, hi = xs[live], lo[live], hi[live]
    cells, ref_cells = [], []
    got = _outcome(lambda: grids._sorted_window_argmax(
        xs, phi.size, _counted_scan(phi, psi, cells), lo, hi
    ))
    want = _outcome(lambda: _reference_sorted_window_argmax(
        xs, phi.size, _counted_scan(phi, psi, ref_cells), lo, hi
    ))
    assert got == want
    assert cells == ref_cells


@settings(max_examples=100, deadline=None)
@given(search_problems(), st.data())
def test_grid_sup_equals_the_reference_kernels_per_group(problem, data):
    # grouped refusals, refined values and the first refusal of an
    # ungrouped call, with empty runs, fully masked groups and NaN rows
    phi, psi, xs, lo, hi = problem
    ys = np.arange(phi.size, dtype=float)
    scan = _counted_scan(phi, psi, [])

    def refine(x, y):
        return x * np.interp(y, ys, phi) - np.interp(y, ys, psi)

    labels = np.asarray(
        data.draw(st.lists(st.integers(0, 3), min_size=xs.size, max_size=xs.size)),
        dtype=np.intp,
    )
    both_ends = data.draw(st.booleans())

    def run(groups):
        try:
            out = grid_sup(
                xs, ys, scan, refine, ("test", "x"), both_ends=both_ends, monotone=True,
                groups=groups, runs=(lo, hi),
            )
        except DomainExhaustedError as err:
            return ("refused", err.details)
        return [np.asarray(v).tobytes() for v in (out if groups is not None else (out,))]

    got = [run(None), run(labels) if xs.size else None]
    with mock.patch.object(grids, "_sorted_window_argmax", _reference_sorted_window_argmax), \
            mock.patch.object(grids, "_parabolic_rows", _reference_parabolic_rows):
        want = [run(None), run(labels) if xs.size else None]
    assert got == want


@st.composite
def parabolic_problems(draw):
    """Rows of concave quadratics, of quadratics with a ripple (not concave),
    of kinks nothing declares (rows still moving after 20 steps) and of NaN,
    with brackets around or beside the maximum: (f, xs, lo, mid, hi)."""
    k = draw(st.one_of(st.sampled_from(_EDGE_ROWS), st.integers(0, 80)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    peak, curv = rng.uniform(-5.0, 5.0, k), 10.0 ** rng.uniform(-3.0, 3.0, k)
    top, ripple = rng.uniform(-1e3, 1e3, k), rng.uniform(0.0, 0.3, k)
    kind = rng.choice(4, k, p=draw(st.sampled_from([(1, 0, 0, 0), (0.4, 0.3, 0.2, 0.1)])))

    def f(x, y):
        r = x.astype(np.intp)
        smooth = top[r] - curv[r] * (y - peak[r]) ** 2
        values = np.where(kind[r] == 1, smooth + ripple[r] * np.sin(7.0 * y), smooth)
        values = np.where(kind[r] == 2, top[r] - np.abs(y - peak[r]), values)
        return np.where(kind[r] == 3, np.nan, values)

    width = rng.uniform(1e-3, 4.0, k)
    lo = peak - rng.uniform(-0.5, 1.5, k) * width
    mid = lo + rng.uniform(-0.2, 1.2, k) * width
    return f, np.arange(k, dtype=float), lo, mid, lo + width


def _counted_refinement(reference, problem, iters):
    """``parabolic_max_vec`` of a ``parabolic_problems`` draw, on the
    reference loop or on that of ``grids``: the values' bits, the size of
    each objective call and the number of steps."""
    f, xs, lo, mid, hi = problem
    if reference:
        home, name = sys.modules[__name__], "_reference_parabolic_step"
        rows = _reference_parabolic_rows
    else:
        rows, home, name = grids._parabolic_rows, grids, "_parabolic_step"
    sizes, steps, step = [], [], getattr(home, name)

    def counting_step(*args):
        steps.append(1)
        return step(*args)

    def counting_f(x, y):
        assert x.shape == y.shape and x.ndim == 1
        sizes.append(x.size)
        return f(x, y)

    with mock.patch.object(grids, "_parabolic_rows", rows), mock.patch.object(
        home, name, counting_step
    ):
        out = grids.parabolic_max_vec(counting_f, xs, lo, mid, hi, iters)
    return out.tobytes(), sizes, len(steps)


@settings(max_examples=150, deadline=None)
@given(parabolic_problems(), st.sampled_from([1, 5, 21, 60]))
def test_parabolic_refinement_equals_the_reference_bit_for_bit(problem, iters):
    # the same values, NaN rows included, from the same objective points in
    # the same number of steps
    got = _counted_refinement(False, problem, iters)
    want = _counted_refinement(True, problem, iters)
    assert got == want


def test_schedule_visits_every_position_once_between_solved_bounds():
    # a level's middle positions are new; its window bounds are positions
    # solved by an earlier level or the grid ends, 0 and k + 1 in the
    # shifted positions, and its run ends sit at fixed offsets
    for k in range(301):
        levels = grids._schedule.__wrapped__(k)
        solved = {0, k + 1}
        for level in levels:
            mid, bound_lo, bound_hi, run_lo, run_hi = (row.tolist() for row in level)
            assert not solved & set(mid)
            assert set(bound_lo) <= solved and set(bound_hi) <= solved
            assert all(a < m < b for a, m, b in zip(bound_lo, mid, bound_hi))
            assert run_lo == [m + k + 2 for m in mid]
            assert run_hi == [m + 2 * (k + 2) for m in mid]
            solved |= set(mid)
        assert solved == set(range(k + 2))
        assert len(levels) == k.bit_length()


def test_cached_schedules_are_read_only_and_bounded():
    grids._schedule.cache_clear()
    for k in (1, 40, grids._SCHEDULE_ROWS):
        for level in grids._schedule(k):
            assert level.dtype == np.int32 and not level.flags.writeable
            with pytest.raises(ValueError):
                level[0, 0] = 0
    assert grids._schedule.cache_info().maxsize == 32
    # a search on more rows than the cache holds builds its schedule apart
    k = grids._SCHEDULE_ROWS + 1
    xs = np.linspace(0.0, 1.0, k)
    before = grids._schedule.cache_info().currsize
    grids._sorted_window_argmax(
        xs, 64, lambda x, j: x * j - 0.01 * j * j, np.zeros(k, np.intp), np.full(k, 63)
    )
    assert grids._schedule.cache_info().currsize == before
