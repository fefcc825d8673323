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


@pytest.mark.parametrize(
    "m",
    [
        sq.from_log_values([-0.0, 5e-324, 1.7976931348623157e308] + [0.5] * 8),
        sq.gevrey(0.5, 2_000_000),
    ],
    ids=["extreme-floats", "gevrey-P2e6"],
)
def test_dump_json_round_trip_bit_exact(m):
    text = ser.dump_json(ser.sequence_to_dict(m))
    assert "\n" not in text  # compact: one line
    for written in (text, json.dumps(json.loads(text), indent=2)):  # and the indented form
        back = ser.sequence_from_dict(json.loads(written))
        assert back.log_values.tobytes() == m.log_values.tobytes()  # -0.0 keeps its sign
        assert back.name == m.name


@pytest.mark.parametrize(
    "call",
    [
        lambda: ser.sequence_from_dict({"log_values": ["x"] + [1.0] * 8}),
        lambda: ser.sequence_from_dict({"log_values": [0.0] * 9, "P_max": 8.7}),
        lambda: ser.sequence_from_dict({"log_values": [0.0] * 9, "P_max": "eight"}),
        lambda: ser.build_sequence({"family": "gevrey", "s": "abc"}),
        lambda: ser.build_sequence({"family": "gevrey", "s": 1, "P_max": 12.5}),
        lambda: ser.build_function({"kind": "power", "params": {"alpha": "abc"}}),
        lambda: ser.build_function({"kind": "power", "params": {"alpha": [0.5]}}),
        lambda: ser.grid_from_dict({"t_min": "abc"}),
        lambda: ser.grid_from_dict({"n": 100.5}),
    ],
    ids=[
        "log-value-string", "fractional-P_max", "string-P_max", "family-parameter-string",
        "fractional-family-P_max", "function-parameter-string", "function-parameter-list",
        "grid-bound-string", "fractional-grid-n",
    ],
)
def test_malformed_values_raise_format_error(call):
    with pytest.raises(FormatError):
        call()


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
    # the text of the writer that formatted each cell with repr(float(...))
    buf = io.StringIO()
    ser.write_sequence_csv(sq.gevrey(1, 10), buf)
    assert buf.getvalue() == (
        "p,logM,logmu,logm\r\n"
        "0,0.0,0.0,0.0\r\n"
        "1,0.0,0.0,0.0\r\n"
        "2,0.6931471805599453,0.6931471805599453,0.0\r\n"
        "3,1.791759469228055,1.0986122886681096,0.0\r\n"
        "4,3.1780538303479453,1.3862943611198904,0.0\r\n"
        "5,4.787491742782046,1.6094379124341005,0.0\r\n"
        "6,6.579251212010101,1.7917594692280554,0.0\r\n"
        "7,8.525161361065415,1.9459101490553135,0.0\r\n"
        "8,10.60460290274525,2.079441541679836,0.0\r\n"
        "9,12.80182748008147,2.19722457733622,0.0\r\n"
        "10,15.104412573075518,2.302585092994047,0.0\r\n"
    )


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


@pytest.mark.parametrize("which", ["lower", "upper"])
def test_envelope_of_an_associated_pair_round_trips_bit_identically(which, monkeypatch):
    # the loader rebuilds the envelope through its public constructor, which
    # answers an associated pair sharing P_max from the sequences again
    m, n = (sq.gevrey(0.5, 8000), sq.gevrey(0.25, 8000)) if which == "lower" else (
        sq.gevrey(1.5, 8000), sq.gevrey(0.5, 8000)
    )
    build = fn.envelope_lower if which == "lower" else fn.envelope_upper
    env = build(fn.associated(m), fn.associated(n))
    rebuilt = ser.build_function(json.loads(ser.dump_json(ser.function_to_dict(env))))
    assert rebuilt.kind == env.kind and rebuilt.name == env.name

    def refuse(*args, **options):
        raise AssertionError("grid_sup called")

    monkeypatch.setattr(fn, "grid_sup", refuse)
    ts = np.concatenate(([0.0, -1.0, np.nan], np.exp(np.linspace(0.0, 6.0, 97))))
    assert rebuilt.evaluate_many(ts).tobytes() == env.evaluate_many(ts).tobytes()
    labels = np.arange(ts.size) % 5
    got, want = (f.evaluate_many(ts, groups=labels) for f in (rebuilt, env))
    assert [part.tobytes() for part in got] == [part.tobytes() for part in want]


def test_associated_descriptor_embeds_sequence():
    omega = fn.associated(sq.gevrey(1, 40))
    data = ser.function_to_dict(omega)
    rebuilt = ser.build_function(data)
    assert rebuilt(3.0) == omega(3.0)


def test_matrix_round_trip():
    mat = bmt.associated_matrix(
        fn.normalized(fn.power_weight(0.5)), ells=(0.5, 1.0, 2.0), p_max=40
    )
    data = json.loads(ser.dump_json(ser.matrix_to_dict(mat)))
    back = ser.matrix_from_dict(data)
    assert back.ells == mat.ells
    for ell in mat.ells:
        assert (
            back.member(ell).log_values.tobytes() == mat.member(ell).log_values.tobytes()
        )


def _matrix_data():
    mat = bmt.associated_matrix(fn.power_weight(0.5), ells=(0.5, 1.0, 2.0), p_max=20)
    return json.loads(ser.dump_json(ser.matrix_to_dict(mat)))


@pytest.mark.parametrize(
    "spoil",
    [
        lambda d: d.pop("ells"),
        lambda d: d.pop("sequences"),
        lambda d: d["sequences"].pop("1.0"),
        lambda d: d["ells"].__setitem__(1, "one"),
        lambda d: d.__setitem__("ells", 1.0),
        lambda d: d.__setitem__("sequences", [1.0]),
    ],
    ids=["no-ells", "no-sequences", "no-member", "ell-string", "ells-number", "sequences-list"],
)
def test_malformed_matrix_raises_format_error(spoil):
    data = _matrix_data()
    spoil(data)
    with pytest.raises(FormatError):
        ser.matrix_from_dict(data)


def test_samples_csv():
    ts = [1, 2.0, -0.0, 5e-324, 1e300, np.float64(1 / 3)]
    values = np.array([0.5, 1.5, -1e-300, 0.1, 7.0, np.pi])
    buf = io.StringIO()
    ser.write_samples_csv(ts, values, buf)
    # reference: one repr(float(...)) per cell
    cells = ["t,value"] + [f"{float(t)!r},{float(v)!r}" for t, v in zip(ts, values)]
    assert buf.getvalue() == "\r\n".join(cells) + "\r\n"


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
