"""Self-tests of the benchmark's span wrappers and entry point.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import weightcalc as wc  # noqa: E402
from weightcalc import bmt, functions, grids, sequences  # noqa: E402


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _descendants(tracer, idx):
    found = []
    frontier = [idx]
    while frontier:
        parent = frontier.pop()
        kids = [i for i, p in enumerate(tracer.parent) if p == parent]
        found += kids
        frontier += kids
    return {tracer.name[i] for i in found}


def _ancestors(tracer, idx):
    names = set()
    while tracer.parent[idx] >= 0:
        idx = tracer.parent[idx]
        names.add(tracer.name[idx])
    return names


def test_conjugate_of_associated_spans_nest(tracer):
    star = wc.conjugate(wc.associated(wc.gevrey(0.5, 400)))
    star.evaluate_many(np.linspace(1.0, 4.0, 8))

    evals = [i for i, n in enumerate(tracer.name) if n == "functions.eval.conjugate"]
    assert evals, "no conjugate evaluation span"
    below = _descendants(tracer, evals[-1])
    assert {"functions.eval.associated", "grids.golden_max_vec"} <= below
    assert tracer.counts[evals[-1]]["points"] == 8

    minorants = [i for i, n in enumerate(tracer.name) if n.startswith("sequences.log_convex_minorant")]
    assert minorants
    assert all("functions.associated" in _ancestors(tracer, i) for i in minorants)
    assert all(tracer.name[i].endswith(".convex") for i in minorants)


def test_names_imported_by_name_are_rebound(tracer):
    for owner in (functions, bmt):
        assert owner.golden_max_vec is grids.golden_max_vec
        assert owner.is_log_convex is sequences.is_log_convex
    assert bmt.relation is sequences.relation is wc.relation
    assert functions.log_convex_minorant is sequences.log_convex_minorant
    assert hasattr(grids.golden_max_vec, "__wrapped__")
    assert hasattr(sequences.relation, "__wrapped__")


def test_declared_class_and_counts(tracer):
    lv = np.asarray(wc.gevrey(0.5, 200).log_values).copy()
    lv[50] += 1.0
    m = wc.from_log_values(lv)
    tracer.declare_sequence_class(m, convex=False)
    wc.log_convex_minorant(m)
    wc.check_moderate_growth(wc.gevrey(0.5, 99))
    names = tracer.name
    assert names.count("sequences.log_convex_minorant.nonconvex") == 1
    idx = names.index("sequences.log_convex_minorant.nonconvex")
    assert tracer.counts[idx]["elements"] == 201
    idx = names.index("sequences.check_moderate_growth")
    assert tracer.counts[idx]["pairs"] == 100 * 101 // 2


def test_errors_are_counted_and_propagate(tracer):
    star = wc.conjugate(wc.power_weight(0.5))
    with pytest.raises(wc.DomainExhaustedError):
        star.evaluate_many([10.0 * star.domain_hint])
    idx = max(i for i, n in enumerate(tracer.name) if n == "functions.eval.conjugate")
    assert tracer.counts[idx]["errors"] == 1


def test_uninstall_restores_the_library():
    original = (sequences.relation, functions.WeightFunction.evaluate_many, grids.golden_max_vec)
    t = spans.Tracer()
    t.install()
    t.uninstall()
    assert (sequences.relation, functions.WeightFunction.evaluate_many, grids.golden_max_vec) == original
    assert bmt.relation is sequences.relation


def test_self_time_subtracts_children():
    t = spans.Tracer()
    outer = t.begin("outer")
    inner = t.begin("inner")
    t.finish(inner)
    t.finish(outer)
    self_s = t.self_times()
    total = t.t1[outer] - t.t0[outer]
    assert self_s[outer] == pytest.approx(total - (t.t1[inner] - t.t0[inner]))


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
