"""spinenav benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in bench/workloads.py and described in
BENCHMARK.json. Run from the root of a checkout that holds ``src/spinenav``;
outputs go to ``.bench_out/``.

``--trace 0`` measures the end-to-end metrics. Set-up is timed from the
launch of a fresh interpreter to its first timed op, SETUP_RUNS times
before the timed run. Because CPU speed on a shared host drifts, set-up
time is bounded in units of a reference interpreter launch, converted to
seconds at a nominal speed (``setup_s``), and median op latency in units of
a reference loop timed around each op (``op_p50_ref``); wall-clock times
are printed as well. ``--trace 1`` runs the workload once untraced and
once traced (same seed and inputs) and reports the per-layer metrics and
the tracing overhead.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed.
Claims of a gain are to be re-checked on HELD_OUT_SEED, a seed kept out of
tuning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_RUNS = 5
# Set-up time is bounded in units of a reference launch: a fresh interpreter
# that imports numpy and scipy and runs no spinenav code, timed to its READY
# line before and after every set-up launch. The same kind of work as
# set-up, it slows down with it when the host does: on a shared 2-vCPU VM
# whose speed flips between states ~1.5x apart for seconds at a time, the
# quartile spread of the median set-up time over ten runs was 0.14-0.30 in
# seconds and 0.04-0.12 in reference units (two sets of ten runs of each
# workload: bench/BENCH_baseline.json, bench/BENCH_repeat.json). setup_s is
# reported in seconds on a machine whose reference launch takes
# NOMINAL_REFERENCE_LAUNCH_S (about this VM's median); the wall-clock median
# is printed as setup_wall_s.
REFERENCE_LAUNCH = ("import numpy, scipy.linalg, scipy.spatial; "
                    "print('READY', flush=True)")
NOMINAL_REFERENCE_LAUNCH_S = 0.5
# The op-count rule: only workloads whose runs hold at least this many ops
# report op_p90_ms (Workload.reports_p90, fixed per workload, not per speed).
P90_MIN_OPS = 100
HELD_OUT_SEED = 104729
WORKER_TIMEOUT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The bounded end-to-end metrics: every workload reports them. Op latency
# is bounded in units of the reference loop timed next to each op (see
# worker.reference_s). The other metrics are printed and recorded without a
# bound: ops_per_s and op_mean_ref vary 12-19% between seeds on
# robot_planning with its heavy NoSafePath tail, op_p90_ms and pose_err_mm
# exist on some workloads only, and solved_frac and failed_frac can be 0.
BOUNDED = ("setup_s", "op_p50_ref", "peak_rss_mb")


def percentile(values, q: float) -> float:
    """q-th percentile, interpolating linearly between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def in_reference_units(latencies, references) -> list:
    """Each op's latency over its reference time: the geometric mean of the
    mean of the two reference timings that bracket the op, which follows
    speed changes between ops, and the run's median reference, which stands
    for the speed states that a long op (9 s on surface_registration)
    passes through. On the VM described in worker.reference_s, either
    alone left one workload with a 19-22% spread over ten seeds; together,
    at most 16%."""
    typical = statistics.median(references)
    return [lat / math.sqrt(0.5 * (before + after) * typical)
            for lat, before, after in zip(latencies, references, references[1:])]


class WorkerError(RuntimeError):
    pass


def in_nominal_seconds(setups, references) -> float:
    """Set-up time at the nominal machine speed: the median over set-up
    launches of each launch's time over the mean of the two reference
    launches around it, times NOMINAL_REFERENCE_LAUNCH_S."""
    return NOMINAL_REFERENCE_LAUNCH_S * statistics.median(
        setup / (0.5 * (before + after))
        for setup, before, after in zip(setups, references, references[1:]))


def run_to_ready(cmd: list, what: str):
    """Run cmd to its end; returns (seconds from launch to its READY line,
    the lines it printed after READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"{what} exited {code} before finishing")
    return ready_s, rest.strip().splitlines()


def launch(args, workdir: Path, trace: int = 0, setup_only: bool = False):
    """Run one worker process; returns (seconds from launch to READY, record)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    ready_s, lines = run_to_ready(cmd, f"{args.workload} worker")
    return ready_s, (None if setup_only else json.loads(lines[-1]))


def measure_setup(args, base: Path):
    """SETUP_RUNS set-up-only launches, each between two reference launches;
    returns (set-up times, reference times) in seconds."""
    def reference() -> float:
        return run_to_ready([sys.executable, "-c", REFERENCE_LAUNCH], "reference launch")[0]

    references, setups = [reference()], []
    for k in range(SETUP_RUNS):
        setups.append(launch(args, base / f"setup{k}", setup_only=True)[0])
        references.append(reference())
    return setups, references


def end_to_end(record: dict, setups: list, setup_references: list) -> dict:
    """All end-to-end metrics, as (value, unit). BOUNDED ones apply to every
    workload; the rest are printed and recorded but carry no bound."""
    lat_ms = [s * 1e3 for s in record["latencies_s"]]
    n = len(lat_ms)
    rel = in_reference_units(record["latencies_s"], record["references_s"])
    metrics = {
        "setup_s": (in_nominal_seconds(setups, setup_references), "s"),
        "setup_wall_s": (statistics.median(setups), "s"),
        "reference_launch_s": (statistics.median(setup_references), "s"),
        "op_p50_ref": (percentile(rel, 50), "ref"),
        "op_mean_ref": (sum(rel) / n, "ref"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "op_p50_ms": (percentile(lat_ms, 50), "ms"),
        "ops_per_s": (n / sum(record["latencies_s"]), "1/s"),
        "reference_ms": (1e3 * statistics.median(record["references_s"]), "ms"),
        "solved_frac": (record["solved"] / n, "ratio"),
        "failed_frac": (len(record["failures"]) / n, "ratio"),
        "ops": (n, "count"),
    }
    if record["reports_p90"]:
        metrics["op_p90_ms"] = (percentile(lat_ms, 90), "ms")
        if n < P90_MIN_OPS:
            print(f"warning: op_p90_ms from only {n} ops", file=sys.stderr)
    if "pose_err_mm" in record["extra"]:
        metrics["pose_err_mm"] = (statistics.median(record["extra"]["pose_err_mm"]), "mm")
    return metrics


LAYER_UNITS = {"calls": "calls/op", "self_ms": "ms/op", "iterations": "count"}


def per_layer(traced: dict, untraced: dict) -> dict:
    metrics = {k: (v, LAYER_UNITS.get(k.rsplit(".", 1)[1], "ratio"))
               for k, v in traced["layers"].items()}
    metrics["setup.import_s"] = (traced["import_s"], "s")
    p50 = [percentile(in_reference_units(r["latencies_s"], r["references_s"]), 50)
           for r in (traced, untraced)]
    metrics["trace.overhead_frac"] = (p50[0] / p50[1] - 1.0, "ratio")
    return metrics


def metadata(args, record: dict) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinenav").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": len(record["latencies_s"]),
            "git_revision": rev, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "numpy": record["numpy"],
            "scipy": record["scipy"], "nproc": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "held_out_seed": HELD_OUT_SEED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinenav benchmark, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinenav" / "__init__.py").is_file():
        print(f"error: no spinenav source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = OUT / f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            _, untraced = launch(args, base / "untraced")
            _, record = launch(args, base / "traced", trace=1)
            metrics = per_layer(record, untraced)
            reported = list(metrics)
        else:
            setups, setup_references = measure_setup(args, base)
            _, record = launch(args, base / "run")
            metrics = end_to_end(record, setups, setup_references)
            record["extra"].update(setups_s=setups, setup_references_s=setup_references)
            reported = list(BOUNDED)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    failures = dict(record["failures"])
    if args.trace:
        failures.update({f"untraced {k}": v for k, v in untraced["failures"].items()})
    meta = metadata(args, record)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for op, message in failures.items():
        print(f"failed op {op}: {message}", file=sys.stderr)
    (base / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"meta": meta, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
         "failures": failures, "latencies_ms": [t * 1e3 for t in record["latencies_s"]],
         "references_ms": [t * 1e3 for t in record["references_s"]],
         "extra": record["extra"]},
        indent=1, sort_keys=True) + "\n")
    result = {"correct": not failures, "attempted": len(record["latencies_s"]),
              "failed": len(record["failures"]),
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported}}
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
