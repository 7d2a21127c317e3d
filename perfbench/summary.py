#!/usr/bin/env python3
"""Summarises and compares sets of benchmark runs against BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/summary.py SET_A [SET_B]

Each SET is a directory of run records written by `perfbench/run.py
--record-dir SET` (or a single record file). For every workload and
metric the command prints the median and quartiles of each set and the
spread, the distance between the quartiles as a share of the median.

With one set it checks that every end-to-end metric's spread, `setup_s`'s
too, stays within its bound. With two sets it also checks that
set B's median is not worse than set A's by more than the bound: run the
parent as A and the change as B, or the same code twice to prove the
benchmark steady. Quartiles are `statistics.quantiles(values, n=4)`.
Exits 1 when any check fails.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    """Returns {(workload, trace): [record, ...]} for one set."""
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, name) for name in os.listdir(path)
        if name.endswith(".json"))
    runs = {}
    for name in files:
        with open(name) as f:
            record = json.load(f)
        meta = record.get("meta", {})
        key = (meta.get("workload"), int(meta.get("trace", 0)))
        runs.setdefault(key, []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def worse_by(metric, before, after):
    """Share by which `after` is worse than `before` (negative: better)."""
    if before == 0:
        return 0.0 if after == before else float("inf")
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]
    sets = [load_set(path) for path in sys.argv[1:]]
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            groups = [s.get((workload, trace), []) for s in sets]
            if not any(groups):
                continue
            names = list(metrics) if trace == 0 else layers
            counts = "/".join(str(len(g)) for g in groups)
            print("\n== %s (%s, runs %s)" %
                  (workload, "per-layer" if trace else "end-to-end", counts))
            print("%-30s %-7s %-36s %-36s %s" %
                  ("metric", "unit", "A: median [q1, q3] spread",
                   "B: median [q1, q3] spread", "verdict"))
            for label, group in zip("AB", groups):
                wrong = [r["meta"].get("seed") for r in group
                         if not r.get("correct")]
                if wrong:
                    ok = False
                    print("%s: runs with failed gates (seeds %s)" %
                          (label, wrong))
            for name in names:
                cells = []
                columns = []
                unit = ""
                for group in groups:
                    values = [r["metrics"][name]["value"] for r in group
                              if name in r["metrics"]]
                    if group and group[0]["metrics"].get(name):
                        unit = group[0]["metrics"][name]["unit"]
                    columns.append(values)
                    if not values:
                        cells.append("-")
                        continue
                    q1, median, q3 = quartiles(values)
                    cells.append("%.4g [%.4g, %.4g] %.3f" %
                                 (median, q1, q3, spread(values)))
                verdict = ""
                if trace == 0 and name in metrics:
                    metric = metrics[name]
                    bound = metric["bound"]
                    problems = []
                    for label, values in zip("AB", columns):
                        if not values:
                            problems.append("%s missing" % label)
                        elif spread(values) > bound:
                            problems.append("%s spread > %.2f" %
                                            (label, bound))
                    if len(columns) == 2 and all(columns):
                        worse = worse_by(metric,
                                         statistics.median(columns[0]),
                                         statistics.median(columns[1]))
                        if worse > bound:
                            problems.append("B worse by %.3f > %.2f" %
                                            (worse, bound))
                        else:
                            verdict = "B vs A %+.3f " % -worse
                    verdict += ", ".join(problems) if problems else "ok"
                    ok &= not problems
                print("%-30s %-7s %-36s %-36s %s" %
                      (name, unit, cells[0],
                       cells[1] if len(cells) > 1 else "", verdict))
    print("\n%s" % ("all checks pass" if ok else "CHECKS FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
