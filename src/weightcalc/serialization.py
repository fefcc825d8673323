"""JSON and CSV interchange for sequences, functions and matrices.

JSON round trips are bit-exact for log values (floats serialise via repr).
CSV is the plotting interface: sequences export as (p, logM, logmu, logm)
and sampled functions as (t, value).
"""

from __future__ import annotations

import csv
import json
from typing import IO

from . import bmt, functions as fn, sequences as sq
from .errors import FormatError
from .grids import DEFAULT_GRID, GridSpec


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def sequence_to_dict(m: sq.WeightSequence) -> dict:
    return {
        "name": m.name,
        "P_max": m.p_max,
        "log_values": [float(v) for v in m.log_values],
    }


def sequence_from_dict(data: dict) -> sq.WeightSequence:
    if "log_values" not in data:
        raise FormatError("sequence JSON needs a 'log_values' array")
    values = data["log_values"]
    if "P_max" in data and int(data["P_max"]) != len(values) - 1:
        raise FormatError(
            f"P_max={data['P_max']} inconsistent with {len(values)} log values"
        )
    return sq.from_log_values(values, name=str(data.get("name", "")))


_SEQUENCE_FAMILIES = {
    "gevrey": (sq.gevrey, "s"),
    "exp_power": (sq.exp_power, "a"),
    "qgevrey": (sq.qgevrey, "q"),
}


def build_sequence(spec: dict) -> sq.WeightSequence:
    """Build a sequence from a family spec like {"family": "gevrey", "s": 2}."""
    if "log_values" in spec:
        return sequence_from_dict(spec)
    family = spec.get("family")
    if family not in _SEQUENCE_FAMILIES:
        raise FormatError(
            f"unknown sequence family {family!r}; known: {sorted(_SEQUENCE_FAMILIES)}"
        )
    builder, key = _SEQUENCE_FAMILIES[family]
    if key not in spec:
        raise FormatError(f"family {family!r} needs parameter {key!r}")
    p_max = int(spec.get("P_max", sq.DEFAULT_P_MAX))
    return builder(float(spec[key]), p_max)


def write_sequence_csv(m: sq.WeightSequence, stream: IO[str]):
    writer = csv.writer(stream)
    writer.writerow(["p", "logM", "logmu", "logm"])
    for p in range(m.p_max + 1):
        writer.writerow(
            [
                p,
                repr(float(m.log_values[p])),
                repr(float(m.log_quotients[p])),
                repr(float(m.log_small[p])),
            ]
        )


# ---------------------------------------------------------------------------
# functions
# ---------------------------------------------------------------------------


def grid_to_dict(grid: GridSpec) -> dict:
    return {"t_min": grid.t_min, "t_max": grid.t_max, "n": grid.n}


def grid_from_dict(data: dict | None) -> GridSpec:
    if not data:
        return DEFAULT_GRID
    return GridSpec(
        float(data.get("t_min", DEFAULT_GRID.t_min)),
        float(data.get("t_max", DEFAULT_GRID.t_max)),
        int(data.get("n", DEFAULT_GRID.n)),
    )


#: kind -> (constructor, its parameters in call order, whether a grid
#: follows them); see ``_param_codec`` for how each parameter is stored.
_FUNCTION_KINDS = {
    "power": (fn.power_weight, ("alpha",), False),
    "log_power": (fn.log_power_weight, ("beta",), False),
    "identity": (fn.identity_weight, (), False),
    "normalized": (fn.normalized, ("of",), False),
    "power_substitution": (fn.power_substitution, ("of", "alpha"), False),
    "associated": (fn.associated, ("sequence",), False),
    "integral_form": (fn.integral_form, ("sequence",), False),
    "conjugate": (fn.conjugate, ("of",), True),
    "biconjugate": (fn.biconjugate, ("of",), True),
    "envelope_lower": (fn.envelope_lower, ("sigma", "tau"), True),
    "envelope_upper": (fn.envelope_upper, ("sigma", "tau"), True),
}
_NESTED_PARAMS = frozenset({"of", "sigma", "tau", "sequence"})

#: Kinds built from scalar parameters alone, usable as CLI families.
FUNCTION_FAMILIES = tuple(
    kind
    for kind, (_, keys, _) in _FUNCTION_KINDS.items()
    if not _NESTED_PARAMS.intersection(keys)
)


def function_to_dict(omega: fn.WeightFunction) -> dict:
    """Descriptor of a weight function; transform kinds nest their operands."""
    if omega.kind not in _FUNCTION_KINDS:
        raise FormatError(f"function kind {omega.kind!r} has no serialised form")
    _, keys, gridded = _FUNCTION_KINDS[omega.kind]
    params = {key: _param_codec(key)[0](omega.params[key]) for key in keys}
    out: dict = {"kind": omega.kind, "params": params}
    if gridded:
        out["grid"] = grid_to_dict(omega.params["grid"])
    return out


def build_function(data: dict) -> fn.WeightFunction:
    kind = data.get("kind")
    if kind not in _FUNCTION_KINDS:
        raise FormatError(f"unknown function kind {kind!r}")
    builder, keys, gridded = _FUNCTION_KINDS[kind]
    params = data.get("params", {})
    missing = [key for key in keys if key not in params]
    if missing:
        raise FormatError(f"function kind {kind!r} needs parameters {missing}")
    args = [_param_codec(key)[1](params[key]) for key in keys]
    if gridded:
        args.append(grid_from_dict(data.get("grid")))
    return builder(*args)


def _param_codec(key: str):
    """(encode, decode) of one descriptor parameter: nested functions and
    sequence specs are dicts, every other parameter a float."""
    if key == "sequence":
        return sequence_to_dict, build_sequence
    if key in _NESTED_PARAMS:
        return function_to_dict, build_function
    return (lambda value: value), float


def write_samples_csv(ts, values, stream: IO[str]):
    writer = csv.writer(stream)
    writer.writerow(["t", "value"])
    for t, v in zip(ts, values):
        writer.writerow([repr(float(t)), repr(float(v))])


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def matrix_to_dict(mat: bmt.WeightMatrix) -> dict:
    return {
        "ells": [float(e) for e in mat.ells],
        "sequences": {
            repr(float(e)): sequence_to_dict(member)
            for e, member in zip(mat.ells, mat.members)
        },
        "provenance": mat.provenance,
    }


def matrix_from_dict(data: dict) -> bmt.WeightMatrix:
    ells = tuple(float(e) for e in data["ells"])
    members = tuple(
        sequence_from_dict(data["sequences"][repr(float(e))]) for e in ells
    )
    return bmt.WeightMatrix(
        ells=ells,
        members=members,
        provenance=str(data.get("provenance", "associated")),
        diagnostics={},
    )


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


def _coerce_scalar(obj):
    import numpy as np

    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)!r}")


def dump_json(data, path: str | None = None) -> str:
    text = json.dumps(data, indent=2, allow_nan=True, default=_coerce_scalar)
    if path:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text + "\n")
    return text
