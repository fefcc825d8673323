"""Command-line surface: build weights, run operations, export artifacts,
run the verification suite.

Sequence/function inputs are compact specs like ``family=gevrey,s=0.5`` or
``file=weights.json``; function contexts accept sequence specs and wrap
them with the associated weight function.  One artifact per invocation
(batch sweeps go through a manifest); exit code 0 on success, 1 when the
verification suite reports a failure, 2 on usage or precondition errors.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import bmt, checks, functions as fn, sequences as sq, serialization as ser
from .errors import WeightCalcError, UsageError
from .grids import GridSpec, TailWindow


def _parse_spec(text: str) -> dict:
    """Parse 'key=value,key=value' (values auto-typed) or 'file=PATH'."""
    spec: dict = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise UsageError(f"bad spec fragment {part!r}; expected key=value")
        key, value = part.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in ("file", "family", "name"):
            spec[key] = value
        else:
            try:
                spec[key] = int(value)
            except ValueError:
                try:
                    spec[key] = float(value)
                except ValueError:
                    spec[key] = value
    return spec


def _load_spec_file(path: str) -> dict:
    try:
        data = ser.load_json(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    return data


def _read_spec(text: str) -> dict:
    spec = _parse_spec(text)
    if "file" in spec:
        spec = _load_spec_file(spec["file"])
    return spec


def _sequence_of_spec(spec: dict, p_max_override) -> sq.WeightSequence:
    """A sequence spec's sequence; ``p_max_override`` (``--p-max``) is its
    P_max unless the spec gives one or its log values."""
    if p_max_override and "log_values" not in spec:
        spec.setdefault("P_max", p_max_override)
    return ser.build_sequence(spec)


def _build_sequence(text: str, p_max_override=None) -> sq.WeightSequence:
    return _sequence_of_spec(_read_spec(text), p_max_override)


def _build_function(text: str, p_max_override=None) -> fn.WeightFunction:
    """A function spec's weight function; a sequence spec gives the associated
    function of its sequence, built as ``_build_sequence`` builds it."""
    spec = _read_spec(text)
    if "log_values" in spec or spec.get("family") in ser._SEQUENCE_FAMILIES:
        return fn.associated(_sequence_of_spec(spec, p_max_override))
    if "kind" in spec:
        return ser.build_function(spec)
    if spec.get("family") in ser.FUNCTION_FAMILIES:
        return ser.build_function({"kind": spec["family"], "params": spec})
    raise UsageError(
        f"cannot build a weight function from {text!r}; use a family in "
        f"{ser.FUNCTION_FAMILIES + tuple(ser._SEQUENCE_FAMILIES)} or file=..."
    )


def _grid_from_args(args) -> GridSpec:
    return GridSpec(args.t_min, args.t_max, args.grid_n)


def _window_from_args(args) -> TailWindow:
    return TailWindow(args.window_lo, args.window_hi, 512)


def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as stream:
        stream.write(text)
    os.replace(tmp, path)


def _emit(args, payload: dict, csv_text: str | None = None) -> None:
    """Write one artifact: JSON, or ``csv_text`` under ``--format csv`` for
    the commands with a CSV form (the only ones that take ``--format``)."""
    if csv_text is not None and args.format == "csv":
        text = csv_text
    else:
        envelope = {"command": args.command, "seed": args.seed, "result": payload}
        text = ser.dump_json(envelope) + "\n"
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)


def _sequence_csv(m: sq.WeightSequence) -> str:
    buf = io.StringIO()
    ser.write_sequence_csv(m, buf)
    return buf.getvalue()


def _samples_csv(ts, vals) -> str:
    buf = io.StringIO()
    ser.write_samples_csv(ts, vals, buf)
    return buf.getvalue()


def _eval_or_sample(args, omega: fn.WeightFunction) -> int:
    """Print ``omega`` at ``--eval``, or emit it at ``--samples`` log-spaced
    points of [t_min, min(t_max, its domain hint)]."""
    if args.eval is not None:
        print(repr(omega(args.eval)))
        return 0
    hint = omega.domain_hint
    hi = min(args.t_max, hint) if math.isfinite(hint) else args.t_max
    ts = np.exp(np.linspace(math.log(args.t_min), math.log(hi), args.samples))
    vals = omega.evaluate_many(ts)
    _emit(
        args,
        {"kind": "samples", "t": list(map(float, ts)), "value": list(map(float, vals))},
        _samples_csv(ts, vals),
    )
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_assoc(args) -> int:
    return _eval_or_sample(args, fn.associated(_build_sequence(args.seq, args.p_max)))


def _cmd_conj_seq(args) -> int:
    m = _build_sequence(args.seq, args.p_max)
    out = sq.conjugate_sequence(m)
    _emit(args, ser.sequence_to_dict(out), _sequence_csv(out))
    return 0


def _cmd_conj_fn(args) -> int:
    grid = _grid_from_args(args)
    return _eval_or_sample(args, fn.conjugate(_build_function(args.fn, args.p_max), grid))


def _cmd_envelope(args) -> int:
    grid = _grid_from_args(args)
    sigma = _build_function(args.sigma, args.p_max)
    tau = _build_function(args.tau, args.p_max)
    op = fn.envelope_lower if args.op == "lower" else fn.envelope_upper
    return _eval_or_sample(args, op(sigma, tau, grid))


def _cmd_indices(args) -> int:
    omega = _build_function(args.fn, args.p_max)
    est = fn.gamma_indices(omega, _window_from_args(args))
    _emit(args, est.as_dict())
    return 0


def _cmd_relation(args) -> int:
    if args.fn:
        sigma = _build_function(args.m, args.p_max)
        tau = _build_function(args.n, args.p_max)
        verdict = fn.relation_fn(sigma, tau, _window_from_args(args))
        _emit(args, verdict.as_dict())
        return 0
    m = _build_sequence(args.m, args.p_max)
    n = _build_sequence(args.n, args.p_max)
    verdict = sq.relation(m, n, p0=args.p0)
    _emit(args, verdict.as_dict())
    return 0


def _number_flag(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{flag}: {text!r} is not a number") from None


def _cmd_matrix(args) -> int:
    grid = _grid_from_args(args)
    omega = _build_function(args.fn)
    ells = tuple(_number_flag("--ells", x) for x in args.ells.split(","))
    csv_ell = _number_flag("--csv-ell", args.csv_ell) if args.csv_ell else None
    mat = bmt.associated_matrix(omega, ells=ells, p_max=args.p_max, grid=grid)
    if args.conjugate:
        mat = bmt.conjugate_matrix(mat)
    payload = ser.matrix_to_dict(mat)
    payload["diagnostics"] = {
        k: (bool(v) if isinstance(v, (bool, np.bool_)) else v)
        for k, v in mat.diagnostics.items()
    }
    csv_text = None
    if args.format == "csv":
        # one CSV per member is the seq_core schema; emit the requested ell
        member = mat.members[0]
        if csv_ell is not None:
            try:
                member = mat.member(csv_ell)
            except KeyError:
                raise UsageError(
                    f"--csv-ell {args.csv_ell} is not one of --ells {args.ells}"
                ) from None
        csv_text = _sequence_csv(member)
    _emit(args, payload, csv_text)
    return 0


def _cmd_regularize(args) -> int:
    m = _build_sequence(args.seq, args.p_max)
    out, h = sq.almost_decreasing_regularize(m)
    if args.normalize_head:
        out = sq.normalize_head(out)
    payload = ser.sequence_to_dict(out)
    payload["witness_H"] = h
    _emit(args, payload, _sequence_csv(out))
    return 0


def _cmd_uniform_bound(args) -> int:
    members = [_build_sequence(text, args.p_max) for text in args.member]
    base = _build_sequence(args.multiplier_base, args.p_max) if args.multiplier_base else None
    res = sq.uniform_bound(members, multiplier_base=base)
    payload = res.as_dict()
    payload["log_values"] = [float(v) for v in res.log_values]
    ps = np.arange(1, len(res.log_values))
    _emit(args, payload, _samples_csv(ps, res.log_roots))
    return 0


def _cmd_slowly_varying(args) -> int:
    m = _build_sequence(args.seq, args.p_max)
    report = fn.slowly_varying_sequence_test(m, probe_t=args.probe_t)
    _emit(args, report.as_dict())
    return 0


def _cmd_verify(args) -> int:
    if args.check:
        ids = args.check
    elif args.all:
        ids = checks.available_checks()
    else:
        raise UsageError("verify needs --all or --check ID")
    if args.param and not args.check:
        raise UsageError("--param sets the parameters of the checks named by --check")
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise UsageError(f"bad --param {item!r}; expected key=value")
        key, value = item.split("=", 1)
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            raise UsageError(
                f"bad --param {item!r}; the value must be JSON, such as clauses='[\"iv\"]'"
            ) from None
    reports = [checks.run_check(cid, params) for cid in ids]
    width = max(len(r.check_id) for r in reports)
    for r in reports:
        line = f"{r.check_id:<{width}}  {r.status:<8} margin={r.worst_margin:+.3e}"
        if r.detail:
            line += f"  {r.detail}"
        print(line)
    if args.output:
        _write_atomic(
            args.output, ser.dump_json([r.as_dict() for r in reports]) + "\n"
        )
    failed = [r for r in reports if r.status == "FAIL"]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def _cmd_batch(args) -> int:
    manifest = ser.load_json(args.manifest)
    if not isinstance(manifest, list):
        raise UsageError("manifest must be a JSON array of argv arrays")
    worst = 0
    for argv in manifest:
        code = main([str(a) for a in argv])
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


#: The flags shared between subcommands; each subcommand takes only those its
#: handler reads.
_FLAGS = {
    "--output": dict(help="artifact path (default: stdout)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--seed": dict(type=int, default=0, help="recorded in artifacts"),
    "--p-max": dict(type=int, default=sq.DEFAULT_P_MAX),
    "--p0": dict(type=int, default=sq.DEFAULT_P0),
    "--t-min": dict(type=float, default=1e-2),
    "--t-max": dict(type=float, default=1e8),
    "--grid-n": dict(type=int, default=2048),
    "--samples": dict(type=int, default=256),
    "--window-lo": dict(type=float, default=1e3),
    "--window-hi": dict(type=float, default=1e7),
}
#: The shared flags of every command that emits an artifact, of those that
#: emit a function sampled on [t_min, t_max], and of the finite-window ones.
_ARTIFACT = ("--output", "--seed", "--p-max")
_SAMPLES = ("--format", "--t-min", "--t-max", "--samples")
_WINDOW = ("--window-lo", "--window-hi")

#: Operand flag -> help of the parameter flags its '--family' shorthand takes.
_SHORTHAND_FLAGS = {
    "seq": {
        "s": "gevrey index (with --family gevrey)",
        "a": "exp_power exponent",
        "q": "qgevrey base",
    },
    "fn": {
        "alpha": "power weight index (with --family power)",
        "beta": "log_power exponent",
    },
}


def _command(sub, name, func, help_text, *flags, operand=None):
    """Subcommand ``name`` run by ``func``, with the shared ``flags`` and an
    ``operand`` (``seq`` or ``fn``) given as a spec or by shorthand."""
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=func, operand=operand)
    if operand:
        p.add_argument(f"--{operand}", default=None)
        p.add_argument("--family", help=f"shorthand for --{operand}: family name")
        for key, key_help in _SHORTHAND_FLAGS[operand].items():
            p.add_argument(f"--{key}", type=float, help=key_help)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightcalc",
        description="calculus of weight sequences, weight functions and their conjugates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "assoc", _cmd_assoc, "associated weight function of a sequence",
                 *_ARTIFACT, *_SAMPLES, operand="seq")
    p.add_argument("--eval", type=float, default=None)

    _command(sub, "conj-seq", _cmd_conj_seq, "conjugate sequence p!/M_p",
             *_ARTIFACT, "--format", operand="seq")

    p = _command(sub, "conj-fn", _cmd_conj_fn, "conjugate weight function sup(st - w(t))",
                 *_ARTIFACT, *_SAMPLES, "--grid-n", operand="fn")
    p.add_argument("--eval", type=float, default=None)

    p = _command(sub, "envelope", _cmd_envelope, "generalized Legendre envelopes",
                 *_ARTIFACT, *_SAMPLES, "--grid-n")
    p.add_argument("--op", choices=("lower", "upper"), required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--eval", type=float, default=None)

    _command(sub, "indices", _cmd_indices, "growth indices of a weight function",
             *_ARTIFACT, *_WINDOW, operand="fn")

    p = _command(sub, "relation", _cmd_relation, "finite-window growth relation",
                 *_ARTIFACT, *_WINDOW, "--p0")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--fn", action="store_true", help="compare as weight functions")

    p = _command(sub, "matrix", _cmd_matrix, "associated weight matrix of a function",
                 *_ARTIFACT, "--format", "--t-min", "--t-max", "--grid-n", operand="fn")
    p.add_argument("--ells", default="0.125,0.25,0.5,1,2,4,8")
    p.add_argument("--conjugate", action="store_true")
    p.add_argument("--csv-ell", default=None)

    p = _command(sub, "regularize", _cmd_regularize, "almost-decreasing quotient regularisation",
                 *_ARTIFACT, "--format", operand="seq")
    p.add_argument("--normalize-head", action="store_true")

    p = _command(sub, "uniform-bound", _cmd_uniform_bound, "uniform bound for a sequence family",
                 *_ARTIFACT, "--format")
    p.add_argument("--member", action="append", required=True)
    p.add_argument("--multiplier-base", default=None)

    p = _command(sub, "slowly-varying", _cmd_slowly_varying, "slow-variation detection",
                 *_ARTIFACT, operand="seq")
    p.add_argument("--probe-t", type=float, default=1e6)

    p = _command(sub, "verify", _cmd_verify, "run the verification suite", "--output")
    p.add_argument("--all", action="store_true")
    p.add_argument("--check", action="append")
    p.add_argument("--param", action="append", help="key=value for a single check, the value JSON")

    p = _command(sub, "batch", _cmd_batch, "run a manifest of invocations")
    p.add_argument("manifest")
    return parser


def _resolve_shorthand(args, dest):
    """Allow '--family gevrey --s 1' instead of a packed ``--dest`` spec.

    Values are written with repr so the spec keeps every digit given.
    """
    if getattr(args, dest) is not None:
        return
    if not args.family:
        raise UsageError(f"missing --{dest} or --family")
    parts = [f"family={args.family}"]
    for key in _SHORTHAND_FLAGS[dest]:
        value = getattr(args, key)
        if value is not None:
            parts.append(f"{key}={value!r}")
    setattr(args, dest, ",".join(parts))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.operand:
            _resolve_shorthand(args, args.operand)
        return args.func(args)
    except WeightCalcError as exc:
        print(f"weightcalc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
