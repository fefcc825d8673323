from unittest import mock

import pytest

from weightcalc import checks, grids
from weightcalc.errors import UsageError


def test_unknown_check_id():
    with pytest.raises(UsageError):
        checks.run_check("NO_SUCH_CHECK")


def test_unknown_parameter_is_a_usage_error_naming_the_accepted_ones():
    with pytest.raises(UsageError, match="takes no parameter foo; accepted: alpha, n_samples"):
        checks.run_check("GEVREY_CONJ", {"foo": 1})


def test_registry_lists_all_registered_checks():
    ids = checks.available_checks()
    assert "GEVREY_CONJ" in ids
    assert "UNIFORM_BOUND" in ids
    assert ids == sorted(ids)
    assert len(ids) == 16


def test_reports_are_deterministic():
    a = checks.run_check("GEVREY_CONJ", {"alpha": 0.25})
    b = checks.run_check("GEVREY_CONJ", {"alpha": 0.25})
    assert a.as_dict() == b.as_dict()


def test_hypothesis_failure_is_skipped_not_fail():
    report = checks.run_check("GEVREY_CONJ", {"alpha": 1.5})
    assert report.status == "SKIPPED"
    assert "alpha" in report.detail


def test_index_transfer_skips_out_of_range():
    report = checks.run_check("INDEX_TRANSFER", {"alpha": 1.2})
    assert report.status == "SKIPPED"


def test_env_duality_skips_sublinear_combination():
    # Gevrey indices adding above one make the lower envelope sublinear and
    # every quantity in the identity infinite; hypothesis failure, not FAIL
    report = checks.run_check(
        "ENV_DUALITY", {"alpha_sigma": 0.5, "alpha_tau": 0.75}
    )
    assert report.status == "SKIPPED"
    assert "sublinear" in report.detail or "diverges" in report.detail


def test_report_shape():
    report = checks.run_check("INDEX", {"alphas": (0.5,)})
    data = report.as_dict()
    assert set(data) == {
        "check_id",
        "params",
        "status",
        "worst_margin",
        "witnesses",
        "window",
        "detail",
    }
    assert report.status == "PASS"
    assert report.worst_margin >= 0
    assert "margins" in report.witnesses


@pytest.mark.parametrize("check_id", checks.available_checks())
def test_every_registered_check_passes_at_defaults(check_id):
    report = checks.run_check(check_id)
    assert report.status == "PASS", (
        f"{check_id}: {report.status} ({report.detail}); "
        f"margins={report.witnesses.get('margins')}"
    )


@pytest.mark.parametrize("check_id", ["GROWTHREL_SEQ", "ENVELOPE_ID", "SEQ_FN_CONJ_BRIDGE"])
def test_checks_on_associated_operands_take_no_golden_section(check_id):
    # every bracket of their kinked operands is refined at its kinks
    def golden(*args, **kwargs):
        raise AssertionError("golden section ran")

    with mock.patch.object(grids, "golden_max_vec", golden):
        report = checks.run_check(check_id)
    assert report.status == "PASS", report.detail
