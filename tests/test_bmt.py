import math

import numpy as np
import pytest

from weightcalc import bmt, functions as fn, sequences as sq
from weightcalc.errors import DomainError, PreconditionError
from weightcalc.grids import GridSpec, TailWindow


@pytest.fixture(scope="module")
def norm_square():
    return fn.normalized(fn.power_weight(0.5))


@pytest.fixture(scope="module")
def square_matrix(norm_square):
    return bmt.associated_matrix(norm_square, ells=(0.5, 1.0, 2.0), p_max=200)


# ---------------------------------------------------------------------------
# phi*
# ---------------------------------------------------------------------------


def test_phi_star_identity_oracle():
    # sup_y (xy - e^y) at y = log x gives x log x - x
    xs = np.exp(np.linspace(math.log(1.5), math.log(50.0), 40))
    vals = bmt.phi_star_many(fn.identity_weight(), xs)
    exact = xs * np.log(xs) - xs
    assert np.max(np.abs(vals - exact) / np.abs(exact)) < 1e-10


def test_phi_star_zero_for_normalized(norm_square):
    assert bmt.phi_star(norm_square, 0.0) == 0.0


def test_phi_star_over_x_nondecreasing(norm_square):
    xs = np.linspace(0.5, 60.0, 120)
    vals = bmt.phi_star_many(norm_square, xs)
    assert np.all(np.diff(vals / xs) >= -1e-9)


def test_phi_star_requires_log_o():
    slow = fn.WeightFunction("sampled", lambda ts: np.log1p(np.maximum(ts, 0.0)))
    with pytest.raises(PreconditionError):
        bmt.phi_star(slow, 2.0)


# ---------------------------------------------------------------------------
# associated matrix
# ---------------------------------------------------------------------------


def test_matrix_members_standard_log_convex(square_matrix):
    assert square_matrix.diagnostics["pointwise_order_defect"] <= 1e-10
    assert square_matrix.diagnostics["quotient_order_defect"] <= 1e-10
    assert square_matrix.diagnostics["log_convex"]
    assert square_matrix.diagnostics["normalized"]
    for member in square_matrix.members:
        assert sq.has_divergent_roots(member)


def test_matrix_doubled_moderate_growth(square_matrix):
    assert square_matrix.diagnostics["doubled_mg_defect"] <= 1e-9


def test_doubled_mg_defect_pinned():
    # rounding-level defect of the matrix of an associated Gevrey weight; the
    # members' exact phi* (the interpolated log M_p) give the same defect
    mat = bmt.associated_matrix(fn.associated(sq.gevrey(0.5, 2000)), p_max=40)
    assert mat.diagnostics["doubled_mg_defect"] == 3.552713678800501e-15


def test_matrix_of_identity_close_to_factorials():
    mat = bmt.associated_matrix(
        fn.identity_weight(), ells=(0.5, 1.0, 2.0), p_max=200
    )
    for member in mat.members:
        assert sq.relation(member, sq.gevrey(1, 200)).approx


def test_matrix_good_equivalence_sandwich(norm_square, square_matrix):
    ts = np.exp(np.linspace(math.log(0.1), math.log(9.0), 256))
    base = norm_square.evaluate_many(ts)
    for ell, member in zip(square_matrix.ells, square_matrix.members):
        w_vals = fn.associated(member).evaluate_many(ts)
        assert np.all(ell * w_vals <= base + 1e-9)
        d_ell = float(np.max(base - 2 * ell * w_vals))
        assert math.isfinite(d_ell)


def test_matrix_requires_symmetric_ells(norm_square):
    with pytest.raises(DomainError):
        bmt.associated_matrix(norm_square, ells=(1.0, 2.0), p_max=50)


# ---------------------------------------------------------------------------
# conjugate matrix
# ---------------------------------------------------------------------------


def test_conjugate_matrix_inverts_parameter(square_matrix):
    conj = bmt.conjugate_matrix(square_matrix)
    for ell in conj.ells:
        expected = sq.conjugate_sequence(square_matrix.member(1.0 / ell))
        assert np.array_equal(conj.member(ell).log_values, expected.log_values)
    assert conj.diagnostics["pointwise_order_defect"] <= 1e-10


def test_conjugate_matrix_involution(square_matrix):
    back = bmt.conjugate_matrix(bmt.conjugate_matrix(square_matrix))
    for a, b in zip(back.members, square_matrix.members):
        assert np.max(np.abs(a.log_values - b.log_values)) <= 1e-10


def test_conjugate_matrix_members_have_moderate_growth(square_matrix):
    conj = bmt.conjugate_matrix(square_matrix)
    for member in conj.members:
        assert sq.check_moderate_growth(member)[0]


def test_conjugate_matrix_rejects_nonvanishing_members():
    mat = bmt.associated_matrix(fn.identity_weight(), ells=(0.5, 1.0, 2.0), p_max=200)
    with pytest.raises(PreconditionError) as err:
        bmt.conjugate_matrix(mat)
    assert "ell" in str(err.value)


def test_constancy_matches_conjugate_constancy(square_matrix):
    constant, table = bmt.constancy_check(square_matrix)
    conj_constant, _ = bmt.constancy_check(bmt.conjugate_matrix(square_matrix))
    assert constant and conj_constant
    assert all(v.approx for _, _, v in table)


def test_nonconstant_matrix_of_slowly_varying_weight():
    slow = fn.normalized(fn.log_power_weight(2.0))
    mat = bmt.associated_matrix(
        slow, ells=(0.5, 1.0, 2.0), p_max=120, grid=GridSpec(1e-2, 1e55, 4096)
    )
    constant, _ = bmt.constancy_check(mat)
    assert not constant


def test_single_member_matrix_trivially_constant(norm_square):
    mat = bmt.associated_matrix(norm_square, ells=(1.0,), p_max=60)
    constant, table = bmt.constancy_check(mat)
    assert constant and table == []


# ---------------------------------------------------------------------------
# condition report
# ---------------------------------------------------------------------------


def test_report_normalized_square(norm_square):
    rep = bmt.bmt_report(norm_square)
    assert rep.om0 and rep.normalized
    assert rep.om1 and rep.om3 and rep.om4 and rep.om6 and rep.c1 and rep.c2
    assert not rep.om5
    assert rep.om1_L >= 1.0 and rep.om6_H is not None


def test_report_sqrt_weight():
    rep = bmt.bmt_report(fn.power_weight(2.0))
    assert rep.om5 and not rep.c2


def test_report_slowly_varying_weight():
    rep = bmt.bmt_report(fn.log_power_weight(2.0))
    assert rep.om1 and rep.om3
    assert not rep.om6


@pytest.mark.parametrize(
    "omega, window, positive",
    [
        # six samples, all positive
        (fn.power_weight(0.5), TailWindow(1e3, 1e7, 6), 6),
        # 512 samples below t = 1, where the normalized weight is 0
        (fn.normalized(fn.power_weight(0.5)), TailWindow(0.01, 0.5, 512), 0),
    ],
    ids=["short_window", "all_zero"],
)
def test_report_window_with_too_few_positive_samples_is_a_precondition_error(
    omega, window, positive
):
    with pytest.raises(PreconditionError) as info:
        bmt.bmt_report(omega, window)
    assert info.value.details == {"positive": positive}


def test_om1_iff_positive_gamma_and_om6_iff_finite_gammabar():
    cases = [
        fn.normalized(fn.power_weight(0.5)),
        fn.power_weight(0.25),
        fn.log_power_weight(2.0),
    ]
    for omega in cases:
        rep = bmt.bmt_report(omega)
        est = fn.gamma_indices(omega)
        assert rep.om1 == (est.gamma > est.resolution or est.gamma_saturated)
        assert rep.om6 == (not est.gamma_bar_infinite)


def test_three_conjugate_routes_equivalent(norm_square):
    # with gammabar below one, the conjugate of the weight, the conjugate of
    # a member's associated function, and the associated function of the
    # member's conjugate sequence are all equivalent
    est = fn.gamma_indices(norm_square)
    assert est.gamma_bar < 0.95
    member = bmt.associated_matrix(
        norm_square, ells=(0.5, 1.0, 2.0), p_max=800
    ).member(1.0)
    routes = [
        fn.conjugate(norm_square),
        fn.conjugate(fn.associated(member)),
        fn.associated(sq.conjugate_sequence(member)),
    ]
    window = TailWindow(0.1, 10.0, 256)
    for i, a in enumerate(routes):
        for b in routes[i + 1 :]:
            assert fn.relation_fn(a, b, window).sim


def test_conjugate_gammabar_finite(norm_square):
    # the conjugate of any admissible weight satisfies the doubling
    # condition, i.e. its upper index never saturates to infinity
    est = fn.gamma_indices(fn.conjugate(norm_square))
    assert not est.gamma_bar_infinite


def test_conjugate_is_matrix_admissible(norm_square):
    # log s = o(omega*(s)) holds automatically, so the matrix of the
    # conjugate is well-defined
    star = fn.conjugate(norm_square)
    assert fn.log_o_proxy(star)
    mat = bmt.associated_matrix(star, ells=(0.5, 1.0, 2.0), p_max=60)
    assert mat.diagnostics["log_convex"]


def test_report_om6_of_associated_gevrey():
    gev = sq.gevrey(2.0, 2000)
    hint = math.exp(float(gev.log_quotients[-1]))
    rep = bmt.bmt_report(
        fn.associated(gev), TailWindow(hint**0.55, hint / 128.0, 512)
    )
    assert rep.om6  # G^2 has moderate growth

    slow = fn.associated(sq.exp_power(2.0, 400))
    assert not bmt.bmt_report(slow).om6
