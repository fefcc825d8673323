import io
import json

import numpy as np
import pytest

from weightcalc import bmt, functions as fn, sequences as sq
from weightcalc import serialization as ser
from weightcalc.errors import FormatError


def test_sequence_json_round_trip_bit_exact():
    m = sq.exp_power(1.5, 64)
    text = json.dumps(ser.sequence_to_dict(m))
    back = ser.sequence_from_dict(json.loads(text))
    assert np.array_equal(back.log_values, m.log_values)
    assert back.name == m.name


def test_sequence_dict_validates_p_max():
    data = ser.sequence_to_dict(sq.gevrey(1, 20))
    data["P_max"] = 7
    with pytest.raises(FormatError):
        ser.sequence_from_dict(data)


@pytest.mark.parametrize(
    "spec, head",
    [
        ({"family": "gevrey", "s": 2, "P_max": 12}, "gevrey"),
        ({"family": "exp_power", "a": 1.5, "P_max": 12}, "exp_power"),
        ({"family": "qgevrey", "q": 2, "P_max": 12}, "qgevrey"),
    ],
)
def test_build_sequence_families(spec, head):
    m = ser.build_sequence(spec)
    assert m.p_max == 12
    assert m.name.startswith(head)


def test_build_sequence_unknown_family():
    with pytest.raises(FormatError):
        ser.build_sequence({"family": "mystery", "s": 1})


def test_sequence_csv_columns():
    buf = io.StringIO()
    ser.write_sequence_csv(sq.gevrey(1, 10), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "p,logM,logmu,logm"
    assert len(lines) == 12
    row = lines[4].split(",")
    assert float(row[1]) == pytest.approx(sq.gevrey(1, 10).log_values[3])


def test_function_descriptor_round_trip():
    square, root = fn.power_weight(0.5), fn.power_weight(2.0)
    m = sq.gevrey(1, 40)
    functions = [
        square,
        fn.log_power_weight(2.0),
        fn.normalized(square),
        fn.power_substitution(square, 2.0),
        fn.associated(m),
        fn.integral_form(m),
        fn.conjugate(square),
        fn.biconjugate(square),
        fn.envelope_lower(square, root),
        fn.envelope_upper(root, fn.identity_weight()),
    ]
    # "identity" is a build-only alias of the power weight with alpha = 1
    assert {f.kind for f in functions} | {"identity"} == set(ser._FUNCTION_KINDS)
    ss = np.linspace(1.0, 50.0, 20)
    for omega in functions:
        data = ser.function_to_dict(omega)
        rebuilt = ser.build_function(json.loads(json.dumps(data)))
        assert rebuilt.kind == omega.kind
        assert np.max(np.abs(rebuilt.evaluate_many(ss) - omega.evaluate_many(ss))) < 1e-9
    identity = ser.build_function({"kind": "identity"})
    assert np.array_equal(identity.evaluate_many(ss), ss)


def test_function_descriptor_nested_envelope():
    sigma = fn.power_weight(0.5)
    tau = fn.power_weight(0.25)
    env = fn.envelope_lower(sigma, tau)
    data = ser.function_to_dict(env)
    assert data["kind"] == "envelope_lower"
    rebuilt = ser.build_function(data)
    ts = np.linspace(1.0, 100.0, 16)
    assert np.max(np.abs(rebuilt.evaluate_many(ts) - env.evaluate_many(ts))) < 1e-9


def test_associated_descriptor_embeds_sequence():
    omega = fn.associated(sq.gevrey(1, 40))
    data = ser.function_to_dict(omega)
    rebuilt = ser.build_function(data)
    assert rebuilt(3.0) == omega(3.0)


def test_matrix_round_trip():
    mat = bmt.associated_matrix(
        fn.normalized(fn.power_weight(0.5)), ells=(0.5, 1.0, 2.0), p_max=40
    )
    data = json.loads(json.dumps(ser.matrix_to_dict(mat)))
    back = ser.matrix_from_dict(data)
    assert back.ells == mat.ells
    for ell in mat.ells:
        assert np.array_equal(
            back.member(ell).log_values, mat.member(ell).log_values
        )


def test_samples_csv():
    buf = io.StringIO()
    ser.write_samples_csv([1.0, 2.0], [0.5, 1.5], buf)
    assert buf.getvalue().splitlines()[0] == "t,value"


def test_dump_json_coerces_numpy_scalars():
    text = ser.dump_json(
        {"flag": np.bool_(True), "n": np.int64(3), "x": np.float64(1.5),
         "arr": np.array([1.0, 2.0])}
    )
    assert json.loads(text) == {"flag": True, "n": 3, "x": 1.5, "arr": [1.0, 2.0]}


def test_check_reports_are_json_serialisable():
    from weightcalc import checks

    report = checks.run_check("CONJ_WELLDEF_EQUIV")
    parsed = json.loads(ser.dump_json(report.as_dict()))
    assert parsed["status"] == "PASS"
