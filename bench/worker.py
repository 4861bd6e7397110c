"""One workload process: import, set up, signal readiness, run the timed
closed loop, check outputs, and print one JSON record as its last line.

Started by run.py, which times set-up from the launch of this interpreter
to the ``READY`` line. Run directly only to debug a workload:

    python3 bench/worker.py --workload robot_planning --seed 1 --seconds 5 \
        --trace 0 --workdir .bench_out/debug
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_spinenav() -> float:
    """Import the CLI from this checkout's source tree; returns seconds."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import spinenav.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    import spinenav
    if Path(spinenav.__file__).resolve().parent != SRC / "spinenav":
        raise ImportError(f"spinenav imported from {spinenav.__file__}, not {SRC}")
    return elapsed


def reference_s(samples: int = 3, repeats: int = 100) -> float:
    """Median seconds, over `samples` back-to-back timings, of a fixed mix of
    small numpy calls and interpreter work, the kind of code spinenav runs
    (about 1 ms each). The median drops a timing hit by a one-off stall.

    On a shared 2-vCPU VM (Python 3.11, numpy 2.4) the CPU speed switched
    between states about 1.6x apart for seconds to minutes at a time, which
    moved raw op latencies by 12-27% (quartile spread over ten seeds). This
    loop is timed before and after every op; the op's latency divided by it
    was steadier.
    """
    import numpy as np

    m = np.arange(64.0).reshape(8, 8) / 64.0 + np.eye(8)
    acc = 0.0
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(repeats):
            acc += float(np.linalg.det((m @ m.T)[:3, :3])) + sum(k * 0.5 for k in range(20))
        times.append(time.perf_counter() - t0)
    return sorted(times)[samples // 2]


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: op after op, no think time, until the ops have taken
    `seconds` in total and the last cycle of inputs is complete, so every
    run holds the workload's input mix in the same proportions. Only `op`
    is timed; checks and the reference loop between ops are not, and do not
    count against `seconds`. references[i] and [i + 1] bracket op i."""
    latencies, references, failures, solved, extra = [], [reference_s()], {}, 0, {}
    i = 0
    while i < workload.cycle or i % workload.cycle or sum(latencies) < seconds:
        inputs = workload.prepare(i)
        if tracer is not None:
            tracer.begin_op(i)
            tracer.install()
        t0 = time.perf_counter()
        try:
            result, error = workload.op(inputs), None
        except Exception as e:  # an untyped exception fails the op
            result, error = None, f"{type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        references.append(reference_s())
        if error is None:
            outcome = workload.check(i, inputs, result)
            solved += outcome.solved
            error = outcome.failure
            for key, value in outcome.extra.items():
                extra.setdefault(key, []).append(value)
        if error is not None:
            failures[i] = error
        i += 1
    for message in workload.finish():
        failures[0] = f"{failures[0]}; {message}" if 0 in failures else message
    return {"latencies_s": latencies, "references_s": references, "solved": solved,
            "failures": {str(k): v for k, v in sorted(failures.items())},
            "extra": extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_s = _import_spinenav()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    record = run_loop(workload, args.seconds, tracer)

    import numpy
    import scipy
    record.update({
        "import_s": import_s, "reports_p90": workload.reports_p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    })
    if tracer is not None:
        from tracer import layer_metrics
        spans = tracer.arrays()
        tracer.save(Path(args.workdir) / "spans.npz")
        record["layers"] = layer_metrics(spans, tracer.names, len(record["latencies_s"]))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
