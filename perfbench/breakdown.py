"""Self time per layer under each workload-level operation, from a spans file.

    python3 perfbench/breakdown.py perfbench/out/spans-verify-suite-1.jsonl [--top 4]

A spans file is written by ``run.py --trace 1``.  For every operation label
(``checks.<ID>``, ``sweep.<class>``, ``long.<stage>``) the script prints the
label's total time over the recorded passes and the layers with the most
self time beneath it, with their share of that total.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict


def breakdown(path: str):
    """{op label: (total seconds, {layer: self seconds})} over complete passes."""
    with open(path, encoding="utf-8") as stream:
        header = json.loads(stream.readline())
        records = [json.loads(line) for line in stream]
    complete = set(header["complete_passes"])
    child_time = [0.0] * len(records)
    for name, t0, t1, parent, *_ in records:
        if parent >= 0:
            child_time[parent] += t1 - t0
    root = [0] * len(records)
    totals = defaultdict(float)
    layers = defaultdict(lambda: defaultdict(float))
    for i, (name, t0, t1, parent, _op, pass_no, *_) in enumerate(records):
        root[i] = i if parent < 0 else root[parent]
        if pass_no not in complete:
            continue
        if parent < 0:
            totals[name] += t1 - t0
        label = records[root[i]][0]
        layers[label][name] += (t1 - t0) - child_time[i]
    return {label: (totals[label], dict(layers[label])) for label in totals}, len(complete)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans_file")
    parser.add_argument("--top", type=int, default=4)
    args = parser.parse_args(argv)
    table, passes = breakdown(args.spans_file)
    print(f"{passes} complete passes; seconds per pass")
    for label, (total, layers) in sorted(table.items(), key=lambda kv: -kv[1][0]):
        print(f"{label:36s} {total / passes:9.4f} s")
        for name, self_s in sorted(layers.items(), key=lambda kv: -kv[1])[: args.top]:
            print(f"    {name:52s} {self_s / passes:9.4f} s  {self_s / total:6.1%}")


if __name__ == "__main__":
    main()
