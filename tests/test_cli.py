import argparse
import json
import math
import shlex
from pathlib import Path

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


def test_p_max_sizes_a_sequence_spec_given_as_a_function(capsys):
    # s=30 lies beyond the coverage of the default P_max=400, inside P_max=20000
    args = ["conj-fn", "--fn", "family=gevrey,s=0.5", "--eval", "30"]
    assert run(args) == 2
    capsys.readouterr()
    assert run(args + ["--p-max", "20000"]) == 0
    assert capsys.readouterr().out.strip() == "452.1602530141357"
    # a P_max in the spec wins over --p-max
    spec_wins = ["conj-fn", "--fn", "family=gevrey,s=0.5,P_max=400", "--eval", "30"]
    assert run(spec_wins + ["--p-max", "20000"]) == 2


def test_relation_window_too_short_is_a_precondition_error(capsys):
    argv = ["relation", "--m", "family=gevrey,s=0.5", "--n", "family=gevrey,s=1"]
    assert run(argv + ["--p0", "395"]) == 2
    assert "P_max - 7" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--ells", "0.5,1,2", "--csv-ell", "3"], "--csv-ell 3 is not one of --ells 0.5,1,2"),
        (["--ells", "0.5,1,2", "--csv-ell", "abc"], "--csv-ell: 'abc' is not a number"),
        (["--ells", "0.5,x"], "--ells: 'x' is not a number"),
    ],
    ids=["csv-ell-not-an-ell", "csv-ell-not-a-number", "ells-not-numbers"],
)
def test_matrix_bad_ell_is_a_usage_error(flags, message, capsys):
    argv = ["matrix", "--family", "power", "--alpha", "0.5", "--p-max", "40", "--format", "csv"]
    assert run(argv + flags) == 2
    assert capsys.readouterr().err.strip() == f"weightcalc: error: {message}"


def test_regularize_precondition_exit_code(capsys):
    code = run(["regularize", "--family", "gevrey", "--s", "2", "--p-max", "3000"])
    assert code == 2
    assert "almost decreasing" in capsys.readouterr().err


@pytest.mark.parametrize("m_spec", ["family=gevrey,s=abc", "file={path}"])
def test_non_numeric_input_is_a_usage_error(tmp_path, capsys, m_spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"log_values": ["x"] + [1.0] * 8}))
    code = run(["relation", "--m", m_spec.format(path=path), "--n", "family=gevrey,s=1"])
    assert code == 2
    assert "weightcalc: error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["conj-fn", "--fn", "family=power,alpha=0.5", "--eval", "3", "--grid-n", "10"],
        ["conj-fn", "--fn", "family=power,alpha=0.5", "--eval", "3", "--t-min", "0"],
        ["indices", "--fn", "family=power,alpha=0.5", "--window-lo", "5", "--window-hi", "1"],
    ],
    ids=["grid-n", "t-min", "window"],
)
def test_bad_grid_or_window_is_a_domain_error(argv, capsys):
    assert run(argv) == 2
    assert "weightcalc: error:" in capsys.readouterr().err


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


def test_verify_param_without_value_is_a_usage_error(capsys):
    assert run(["verify", "--check", "GEVREY_CONJ", "--param", "foo"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_verify_unknown_param_is_a_usage_error(capsys):
    assert run(["verify", "--check", "GEVREY_CONJ", "--param", "foo=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("weightcalc: error:") and "accepted: alpha, n_samples" in err


def test_verify_param_value_that_is_not_json_is_a_usage_error(capsys):
    # read as the string "iv", it would run clauses (i) and (v)
    assert run(["verify", "--check", "ENVELOPE_ID", "--param", "clauses=iv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("weightcalc: error:") and "JSON" in captured.err
    assert captured.out == ""


def test_verify_param_without_check_is_a_usage_error(capsys):
    # with --all the parameters would name no check, and the suite would run
    # at its defaults as if they had been read
    assert run(["verify", "--all", "--param", "foo=1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("weightcalc: error:") and "--check" in captured.err
    assert captured.out == ""


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


def _readme_cli_lines():
    """The ``weightcalc …`` lines of README's CLI block, with their comments."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("weightcalc ") and not command.startswith("weightcalc batch"):
            argv = shlex.split(command)[1:]
            lines.append(pytest.param(argv, comment.strip(), id=argv[0]))
    return lines


@pytest.mark.parametrize("argv, comment", _readme_cli_lines())
def test_readme_cli_lines_run(argv, comment, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    if argv[0] in ("assoc", "conj-fn"):
        # the comment opens with the printed value
        assert capsys.readouterr().out.strip() == comment.split()[0]


#: The shared flags each subcommand takes: those its handler reads.
SHARED_FLAGS = {
    "assoc": {"--output", "--seed", "--p-max", "--format", "--t-min", "--t-max", "--samples"},
    "conj-seq": {"--output", "--seed", "--p-max", "--format"},
    "conj-fn": {"--output", "--seed", "--p-max", "--format", "--t-min", "--t-max", "--samples",
                "--grid-n"},
    "envelope": {"--output", "--seed", "--p-max", "--format", "--t-min", "--t-max", "--samples",
                 "--grid-n"},
    "indices": {"--output", "--seed", "--p-max", "--window-lo", "--window-hi"},
    "relation": {"--output", "--seed", "--p-max", "--window-lo", "--window-hi", "--p0"},
    "matrix": {"--output", "--seed", "--p-max", "--format", "--t-min", "--t-max", "--grid-n"},
    "regularize": {"--output", "--seed", "--p-max", "--format"},
    "uniform-bound": {"--output", "--seed", "--p-max", "--format"},
    "slowly-varying": {"--output", "--seed", "--p-max"},
    "verify": {"--output"},
    "batch": set(),
}


def test_each_subcommand_takes_only_the_shared_flags_it_reads():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    taken = {
        name: {s for a in p._actions for s in a.option_strings} & set(cli._FLAGS)
        for name, p in sub.choices.items()
    }
    assert taken == SHARED_FLAGS
    assert sum(map(len, taken.values())) == 57


@pytest.mark.parametrize(
    "argv",
    [
        ["regularize", "--family", "gevrey", "--s", "2", "--grid-n", "10"],
        ["verify", "--check", "GEVREY_CONJ", "--format", "csv"],
        ["verify", "--check", "GEVREY_CONJ", "--seed", "3"],
        ["slowly-varying", "--family", "exp_power", "--a", "2", "--p0", "20"],
        ["assoc", "--family", "gevrey", "--s", "1", "--eval", "3", "--p0", "20"],
        ["indices", "--family", "power", "--alpha", "0.25", "--format", "json"],
        ["conj-seq", "--family", "gevrey", "--s", "0.5", "--t-min", "1"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_a_shared_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
