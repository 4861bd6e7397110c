"""Collect untraced run records into one BENCH_<label>.json, or compare two.

    python3 bench/baseline.py LABEL
    python3 bench/baseline.py compare LABEL_A LABEL_B

The first form reads every ``.bench_out/<workload>-seed<n>/result-trace0.json``
that run.py left behind and writes ``bench/BENCH_<label>.json``: per
workload, the seeds and, for every metric, the median and quartiles over the
runs (Python's ``statistics.quantiles(values, n=4)``), with each run's
metadata. A change that claims a gain compares two such files made on one
machine.

``compare`` prints, for every bounded metric of BENCHMARK.json, both
medians, the change from A to B and each file's quartile spread over its
median, against the metric's bound. It exits 1 if B is worse than A by more
than the bound, or if a spread other than setup_s's exceeds it.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".bench_out"


def summarize(records: list) -> dict:
    values = defaultdict(list)
    for record in records:
        for name, metric in record["metrics"].items():
            values[name].append((metric["value"], metric["unit"]))
    summary = {}
    for name, pairs in values.items():
        xs = [v for v, _ in pairs]
        q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        summary[name] = {"unit": pairs[0][1], "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0, "values": xs}
    return summary


def compare(a: dict, b: dict, bounds: dict) -> list:
    """Rows (workload, metric, median a, median b, change, spread a,
    spread b, bound, ok) for every bounded metric of every workload in a."""
    rows = []
    for workload in sorted(a):
        for name, (better, bound) in bounds.items():
            ma, mb = a[workload]["metrics"][name], b[workload]["metrics"][name]
            change = mb["median"] / ma["median"] - 1.0
            worse = change if better == "lower" else -change
            spreads_ok = name == "setup_s" or max(ma["spread"], mb["spread"]) <= bound
            rows.append((workload, name, ma["median"], mb["median"], change,
                         ma["spread"], mb["spread"], bound, worse <= bound and spreads_ok))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "compare":
        a, b = (json.loads((BENCH / f"BENCH_{label}.json").read_text()) for label in argv[1:])
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
        rows = compare(a, b, bounds)
        print("workload metric median_a median_b change spread_a spread_b bound ok")
        for row in rows:
            print("{} {} {:.6g} {:.6g} {:+.3f} {:.3f} {:.3f} {} {}".format(*row))
        return 0 if all(row[-1] for row in rows) else 1
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    by_workload = defaultdict(list)
    for path in sorted(OUT.glob("*/result-trace0.json")):
        record = json.loads(path.read_text())
        by_workload[record["meta"]["workload"]].append(record)
    if not by_workload:
        print(f"error: no run records under {OUT}", file=sys.stderr)
        return 1
    payload = {w: {"seeds": sorted(r["meta"]["seed"] for r in records),
                   "metrics": summarize(records),
                   "runs": [dict(r["meta"], failures=r["failures"], extra=r.get("extra", {}))
                            for r in records]}
               for w, records in sorted(by_workload.items())}
    target = BENCH / f"BENCH_{argv[0]}.json"
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
