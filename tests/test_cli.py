import json
import math

import numpy as np
import pytest

from weightcalc import cli, sequences as sq, serialization as ser


def run(argv):
    return cli.main(argv)


def test_assoc_eval_prints_value(capsys):
    assert run(["assoc", "--family", "gevrey", "--s", "1", "--eval", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.log(27 / 6), abs=1e-10)


def test_family_shorthand_keeps_every_digit(capsys):
    assert run(["assoc", "--family", "gevrey", "--s", "0.123456789", "--eval", "5"]) == 0
    shorthand = capsys.readouterr().out
    assert run(["assoc", "--seq", "family=gevrey,s=0.123456789", "--eval", "5"]) == 0
    assert capsys.readouterr().out == shorthand


def test_conj_fn_eval_prints_value(capsys):
    assert run(["conj-fn", "--family", "power", "--alpha", "0.5", "--eval", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0, rel=1e-6)


def test_conj_seq_round_trip(tmp_path, capsys):
    path = tmp_path / "conj.json"
    assert (
        run(
            [
                "conj-seq",
                "--family",
                "gevrey",
                "--s",
                "0.5",
                "--output",
                str(path),
            ]
        )
        == 0
    )
    data = json.loads(path.read_text())["result"]
    back = ser.sequence_from_dict(data)
    expected = sq.conjugate_sequence(sq.gevrey(0.5, 400))
    assert np.array_equal(back.log_values, expected.log_values)
    # import the artifact back through a spec string
    assert (
        run(
            [
                "relation",
                "--m",
                f"file={path.with_name('seq.json')}",
                "--n",
                "family=gevrey,s=0.5",
            ]
        )
        == 2  # missing file: usage/precondition exit code
    )


def test_relation_verdict_json(capsys):
    code = run(
        [
            "relation",
            "--m",
            "family=gevrey,s=0.5",
            "--n",
            "family=gevrey,s=1",
            "--p-max",
            "1600",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["kind"] == "TRIANGLE"
    assert data["seed"] == 0


def test_envelope_eval(capsys):
    code = run(
        [
            "envelope",
            "--op",
            "lower",
            "--sigma",
            "family=identity",
            "--tau",
            "family=identity",
            "--eval",
            "100",
        ]
    )
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(20.0, rel=1e-6)


def test_indices_artifact(tmp_path):
    path = tmp_path / "idx.json"
    code = run(
        [
            "indices",
            "--family",
            "power",
            "--alpha",
            "0.5",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    data = json.loads(path.read_text())["result"]
    assert data["gamma"] == pytest.approx(0.5, abs=0.05)


def test_matrix_csv_export(tmp_path):
    path = tmp_path / "member.csv"
    code = run(
        [
            "matrix",
            "--family",
            "power",
            "--alpha",
            "0.5",
            "--ells",
            "0.5,1,2",
            "--p-max",
            "40",
            "--format",
            "csv",
            "--csv-ell",
            "1",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    assert path.read_text().splitlines()[0] == "p,logM,logmu,logm"


def test_regularize_precondition_exit_code(capsys):
    code = run(["regularize", "--family", "gevrey", "--s", "2", "--p-max", "3000"])
    assert code == 2
    assert "almost decreasing" in capsys.readouterr().err


def test_uniform_bound_cli(capsys):
    code = run(
        [
            "uniform-bound",
            "--member", "family=gevrey,s=0.5",
            "--member", "family=gevrey,s=0.6666666666666666",
            "--member", "family=gevrey,s=0.75",
            "--member", "family=gevrey,s=0.8",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["breakpoints"] == [1, 2, 66]


def test_slowly_varying_cli(capsys):
    code = run(["slowly-varying", "--family", "exp_power", "--a", "2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["slowly_varying"] is True


def test_verify_single_check_exit_zero(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = run(["verify", "--check", "GEVREY_CONJ", "--output", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "GEVREY_CONJ" in out and "PASS" in out
    reports = json.loads(path.read_text())
    assert reports[0]["status"] == "PASS"


def test_verify_all_exit_zero(capsys):
    assert run(["verify", "--all"]) == 0
    out = capsys.readouterr().out
    assert "16/16 checks passed" in out


def test_verify_requires_selection(capsys):
    assert run(["verify"]) == 2


def test_unknown_check_exit_code(capsys):
    assert run(["verify", "--check", "BOGUS"]) == 2


def test_batch_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    out1 = tmp_path / "a.json"
    manifest.write_text(
        json.dumps(
            [
                ["assoc", "--family", "gevrey", "--s", "1", "--eval", "3"],
                [
                    "indices",
                    "--family",
                    "power",
                    "--alpha",
                    "0.5",
                    "--output",
                    str(out1),
                ],
            ]
        )
    )
    assert run(["batch", str(manifest)]) == 0
    assert out1.exists()


def test_seed_recorded(capsys):
    run(["slowly-varying", "--family", "exp_power", "--a", "2", "--seed", "42"])
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 42
