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


def _build_sequence(text: str, p_max_override=None) -> sq.WeightSequence:
    spec = _parse_spec(text)
    if "file" in spec:
        spec = _load_spec_file(spec["file"])
    if p_max_override and "log_values" not in spec:
        spec.setdefault("P_max", p_max_override)
    return ser.build_sequence(spec)


def _build_function(text: str) -> fn.WeightFunction:
    spec = _parse_spec(text)
    if "file" in spec:
        spec = _load_spec_file(spec["file"])
    if "log_values" in spec or spec.get("family") in ser._SEQUENCE_FAMILIES:
        return fn.associated(ser.build_sequence(spec))
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
    """Write one artifact (JSON by default, CSV when requested)."""
    if args.format == "csv":
        if csv_text is None:
            raise UsageError("this result has no CSV form; use --format json")
        if args.output:
            _write_atomic(args.output, csv_text)
        else:
            sys.stdout.write(csv_text)
        return
    envelope = {
        "command": args.command,
        "seed": args.seed,
        "result": payload,
    }
    text = ser.dump_json(envelope)
    if args.output:
        _write_atomic(args.output, text + "\n")
    else:
        print(text)


def _sequence_csv(m: sq.WeightSequence) -> str:
    buf = io.StringIO()
    ser.write_sequence_csv(m, buf)
    return buf.getvalue()


def _samples_csv(ts, vals) -> str:
    buf = io.StringIO()
    ser.write_samples_csv(ts, vals, buf)
    return buf.getvalue()


def _sample_points(args, hint: float) -> np.ndarray:
    hi = min(args.t_max, hint) if math.isfinite(hint) else args.t_max
    return np.exp(np.linspace(math.log(args.t_min), math.log(hi), args.samples))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_assoc(args) -> int:
    m = _build_sequence(args.seq, args.p_max)
    omega = fn.associated(m)
    if args.eval is not None:
        print(repr(omega(args.eval)))
        return 0
    ts = _sample_points(args, omega.domain_hint)
    vals = omega.evaluate_many(ts)
    _emit(
        args,
        {"kind": "samples", "t": list(map(float, ts)), "value": list(map(float, vals))},
        _samples_csv(ts, vals),
    )
    return 0


def _cmd_conj_seq(args) -> int:
    m = _build_sequence(args.seq, args.p_max)
    out = sq.conjugate_sequence(m)
    _emit(args, ser.sequence_to_dict(out), _sequence_csv(out))
    return 0


def _cmd_conj_fn(args) -> int:
    grid = _grid_from_args(args)
    omega = _build_function(args.fn)
    star = fn.conjugate(omega, grid)
    if args.eval is not None:
        print(repr(star(args.eval)))
        return 0
    ts = _sample_points(args, star.domain_hint)
    vals = star.evaluate_many(ts)
    _emit(
        args,
        {"kind": "samples", "t": list(map(float, ts)), "value": list(map(float, vals))},
        _samples_csv(ts, vals),
    )
    return 0


def _cmd_envelope(args) -> int:
    grid = _grid_from_args(args)
    sigma = _build_function(args.sigma)
    tau = _build_function(args.tau)
    op = fn.envelope_lower if args.op == "lower" else fn.envelope_upper
    env = op(sigma, tau, grid)
    if args.eval is not None:
        print(repr(env(args.eval)))
        return 0
    ts = _sample_points(args, env.domain_hint)
    vals = env.evaluate_many(ts)
    _emit(
        args,
        {"kind": "samples", "t": list(map(float, ts)), "value": list(map(float, vals))},
        _samples_csv(ts, vals),
    )
    return 0


def _cmd_indices(args) -> int:
    omega = _build_function(args.fn)
    est = fn.gamma_indices(omega, _window_from_args(args))
    _emit(args, est.as_dict())
    return 0


def _cmd_relation(args) -> int:
    if args.fn:
        sigma = _build_function(args.m)
        tau = _build_function(args.n)
        verdict = fn.relation_fn(sigma, tau, _window_from_args(args))
        _emit(args, verdict.as_dict())
        return 0
    m = _build_sequence(args.m, args.p_max)
    n = _build_sequence(args.n, args.p_max)
    verdict = sq.relation(m, n, p0=args.p0)
    _emit(args, verdict.as_dict())
    return 0


def _cmd_matrix(args) -> int:
    grid = _grid_from_args(args)
    omega = _build_function(args.fn)
    ells = tuple(float(x) for x in args.ells.split(","))
    mat = bmt.associated_matrix(omega, ells=ells, p_max=args.p_max, grid=grid)
    if args.conjugate:
        mat = bmt.conjugate_matrix(mat)
    payload = ser.matrix_to_dict(mat)
    payload["diagnostics"] = {
        k: (bool(v) if isinstance(v, (bool, np.bool_)) else v)
        for k, v in mat.diagnostics.items()
    }
    if args.format == "csv":
        # one CSV per member is the seq_core schema; emit the requested ell
        member = mat.member(float(args.csv_ell)) if args.csv_ell else mat.members[0]
        _emit(args, payload, _sequence_csv(member))
        return 0
    _emit(args, payload)
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
    params = {}
    for item in args.param or []:
        key, value = item.split("=", 1)
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    reports = []
    for cid in ids:
        reports.append(checks.run_check(cid, params if args.check and params else None))
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


def _add_common(p, seq=False, function=False):
    p.add_argument("--output", help="artifact path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0, help="recorded in artifacts")
    p.add_argument("--p0", type=int, default=sq.DEFAULT_P0)
    p.add_argument("--p-max", type=int, default=sq.DEFAULT_P_MAX, dest="p_max")
    p.add_argument("--t-min", type=float, default=1e-2, dest="t_min")
    p.add_argument("--t-max", type=float, default=1e8, dest="t_max")
    p.add_argument("--grid-n", type=int, default=2048, dest="grid_n")
    p.add_argument("--window-lo", type=float, default=1e3, dest="window_lo")
    p.add_argument("--window-hi", type=float, default=1e7, dest="window_hi")
    p.add_argument("--samples", type=int, default=256)


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


def _add_operand(p, dest):
    """``--seq``/``--fn`` spec plus its '--family NAME --KEY VALUE' shorthand."""
    p.add_argument(f"--{dest}", default=None)
    p.add_argument("--family", help=f"shorthand for --{dest}: family name")
    for key, help_text in _SHORTHAND_FLAGS[dest].items():
        p.add_argument(f"--{key}", type=float, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightcalc",
        description="calculus of weight sequences, weight functions and their conjugates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assoc", help="associated weight function of a sequence")
    _add_operand(p, "seq")
    p.add_argument("--eval", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_assoc)

    p = sub.add_parser("conj-seq", help="conjugate sequence p!/M_p")
    _add_operand(p, "seq")
    _add_common(p)
    p.set_defaults(func=_cmd_conj_seq)

    p = sub.add_parser("conj-fn", help="conjugate weight function sup(st - w(t))")
    _add_operand(p, "fn")
    p.add_argument("--eval", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_conj_fn)

    p = sub.add_parser("envelope", help="generalized Legendre envelopes")
    p.add_argument("--op", choices=("lower", "upper"), required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--eval", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("indices", help="growth indices of a weight function")
    _add_operand(p, "fn")
    _add_common(p)
    p.set_defaults(func=_cmd_indices)

    p = sub.add_parser("relation", help="finite-window growth relation")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--fn", action="store_true", help="compare as weight functions")
    _add_common(p)
    p.set_defaults(func=_cmd_relation)

    p = sub.add_parser("matrix", help="associated weight matrix of a function")
    _add_operand(p, "fn")
    p.add_argument("--ells", default="0.125,0.25,0.5,1,2,4,8")
    p.add_argument("--conjugate", action="store_true")
    p.add_argument("--csv-ell", default=None, dest="csv_ell")
    _add_common(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("regularize", help="almost-decreasing quotient regularisation")
    _add_operand(p, "seq")
    p.add_argument("--normalize-head", action="store_true", dest="normalize_head")
    _add_common(p)
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("uniform-bound", help="uniform bound for a sequence family")
    p.add_argument("--member", action="append", required=True)
    p.add_argument("--multiplier-base", default=None, dest="multiplier_base")
    _add_common(p)
    p.set_defaults(func=_cmd_uniform_bound)

    p = sub.add_parser("slowly-varying", help="slow-variation detection")
    _add_operand(p, "seq")
    p.add_argument("--probe-t", type=float, default=1e6, dest="probe_t")
    _add_common(p)
    p.set_defaults(func=_cmd_slowly_varying)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--all", action="store_true")
    p.add_argument("--check", action="append")
    p.add_argument("--param", action="append", help="key=value for a single check")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("batch", help="run a manifest of invocations")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_batch)
    return parser


def _resolve_shorthand(args):
    """Allow '--family gevrey --s 1' instead of a packed spec string.

    Values are written with repr so the spec keeps every digit given.
    """
    for dest, keys in _SHORTHAND_FLAGS.items():
        if not hasattr(args, dest) or getattr(args, dest) is not None:
            continue
        if not args.family:
            raise UsageError(f"missing --{dest} or --family")
        parts = [f"family={args.family}"]
        for key in keys:
            value = getattr(args, key)
            if value is not None:
                parts.append(f"{key}={value!r}")
        setattr(args, dest, ",".join(parts))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command not in ("verify", "batch", "envelope", "relation"):
            _resolve_shorthand(args)
        return args.func(args)
    except WeightCalcError as exc:
        print(f"weightcalc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
