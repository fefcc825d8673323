import math

import numpy as np
import pytest

from weightcalc import bmt, functions as fn
from weightcalc.errors import DomainExhaustedError
from weightcalc.grids import GridSpec, grid_sup

YS = np.linspace(0.0, 5.0, 256)


def _scan_of(objective):
    return lambda xs: (objective(xs[:, None], YS[None, :]), None)


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
    transforms = (
        fn.conjugate(square),
        fn.envelope_lower(square, root),
        fn.envelope_upper(root, fn.identity_weight()),
    )
    for omega in transforms:
        vals = omega.evaluate_many([math.nan, 2.0])
        assert math.isnan(vals[0]) and math.isfinite(vals[1])
