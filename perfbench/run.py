"""Benchmark of the weightcalc library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Workloads: ``verify-suite``, ``transform-sweep``, ``long-sequences`` (see
``workloads.py``).  One process runs one workload as a closed loop, one
operation at a time on one thread, cycling over the seeded operation list
for ``--seconds`` (the first pass always completes; after it, an operation
whose latency so far would overrun the budget is skipped while cheaper ones
keep repeating).  Every operation's output is checked against an
independent reference.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
span wrappers are installed before the inputs are built and the per-layer
metrics are printed instead (spans are written to ``perfbench/out``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up repetitions whose median is reported as ``setup_s``.
IMPORT_REPEATS = 5
BUILD_REPEATS = 3

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import weightcalc\n"
    "print(time.perf_counter() - t)\n"
)


def _import_seconds() -> float:
    """Median wall time of ``import weightcalc`` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _run_loop(ops, seconds, tracer=None):
    """Closed loop over ``ops`` for ``seconds``; the first pass always runs.

    After the first pass, cycles continue in the same order, and an
    operation whose median latency so far would overrun the budget is
    skipped, so that the cheaper operations keep being repeated until none
    fits.  A cycle that skipped nothing is a complete pass.
    """
    latencies = [[] for _ in ops]
    first = [None] * len(ops)
    failures = []
    attempted = failed = 0
    op_spans = []  # (span index, label, cycle) in traced runs
    complete = []  # cycles that ran every operation
    start = time.perf_counter()
    cycle = 0
    while True:
        ran = skipped = 0
        for i, op in enumerate(ops):
            if cycle and time.perf_counter() - start + statistics.median(latencies[i]) > seconds:
                skipped += 1
                continue
            if tracer is not None:
                tracer.current_op, tracer.current_pass = i, cycle
                idx = tracer.begin(op.label)
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # judged by op.verify: refusals expect some
                out, err = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(idx)
                op_spans.append((idx, op.label, cycle))
                tracer.current_pass = -1  # verification is not part of the pass
            latencies[i].append(dt)
            attempted += 1
            ran += 1
            reason = op.verify(out, err)
            if reason is not None:
                failed += 1
                failures.append(f"{op.label} [{op.detail}]: {reason}")
            if first[i] is None:
                first[i] = op.summary(out) if (op.summary and err is None) else None
            del out  # free a large result before the next operation runs
        if not skipped:
            complete.append(cycle)
        cycle += 1
        if not ran or (not skipped and time.perf_counter() - start >= seconds):
            return latencies, first, failures, attempted, failed, op_spans, complete


def _pass_stats(latencies):
    """(pass_s, op p50, op p90, number of operations).

    An operation's latency is the fastest of its repetitions in the run:
    other tenants of a shared machine only ever add time, so the minimum is
    the repetition least disturbed by them.  pass_s is the sum of these
    latencies over the operation list; the percentiles are taken over the
    operations.
    """
    best = [min(x) for x in latencies]
    q = statistics.quantiles(best, n=10, method="inclusive")
    return sum(best), statistics.median(best), q[-1], len(best)


def _report(workload, ops, first, failures, attempted, failed, latencies, passes):
    samples = sum(len(x) for x in latencies)
    print(f"workload {workload}: {len(ops)} operations per pass, {passes} complete passes, "
          f"{samples} latency samples")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
    for op, summary in zip(ops, first):
        if summary:
            print(f"  {op.detail:24s} status {summary['status']:8s} worst_margin {summary['worst_margin']!r}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    if len(failures) > 20:
        print(f"  ... {len(failures) - 20} more failures")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weightcalc" / "__init__.py").is_file():
        print(f"error: no weightcalc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]

    if args.trace:
        import weightcalc  # noqa: F401  (wrapped before any input exists)

        tracer = spans.Tracer()
        tracer.install()
        ops = build(np.random.default_rng(args.seed), tracer)
        latencies, first, failures, attempted, failed, op_spans, complete = _run_loop(
            ops, args.seconds, tracer)
        tracer.uninstall()
        pass_s = _pass_stats(latencies)[0]
        metrics = spans.layer_metrics(tracer, op_spans, complete, pass_s, spans.span_cost_seconds())
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl"),
                     {"workload": args.workload, "seed": args.seed, "complete_passes": complete})
    else:
        import_s = _import_seconds()
        import weightcalc  # noqa: F401

        build_times = []
        for _ in range(BUILD_REPEATS):
            ops = None  # release the previous build first
            t0 = time.perf_counter()
            ops = build(np.random.default_rng(args.seed), workloads.NoTrace())
            build_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(build_times)
        latencies, first, failures, attempted, failed, _, complete = _run_loop(ops, args.seconds)
        pass_s, p50, p90, n_ops = _pass_stats(latencies)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        print(f"latency percentiles over {n_ops} operations (each the fastest of its repetitions)")

    _report(args.workload, ops, first, failures, attempted, failed, latencies, len(complete))
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
