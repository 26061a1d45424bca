"""Run one workload in this process and print its raw results as JSON.

Started by run.py, which sets the environment (PYTHONPATH, one thread for
the numeric libraries).  One client, closed loop: each op starts when the
previous one has returned.  Whole passes run until the next pass would end
more than half a pass past `--seconds` (always at least one pass, at most
`--passes` when given, else at most the workload's own `max_passes` when
it has one).
Each op is timed twice: in reference seconds (`times`, see speed.py),
which the metrics use, and in wall seconds (`wall_times`), reported
alongside.
With `--trace 1` the tracer is installed after the warm-up and removed
before the outputs are checked, so checking adds nothing to the counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
from time import perf_counter

from speed import SpeedProbe


def measure(workload, rng, seconds, max_passes, tracer=None):
    speed = SpeedProbe()
    speed.start()
    try:
        return _passes(workload, rng, seconds, max_passes, tracer, speed)
    finally:
        speed.stop()


def _passes(workload, rng, seconds, max_passes, tracer, speed):
    keys, outcomes, times, wall_times, passes = [], [], [], [], []
    start = perf_counter()
    while True:
        order = workload.pass_keys(rng)
        first = len(keys)
        for key in order:
            if tracer is not None:
                tracer.op_id = len(keys) + 1
            t0, mark = perf_counter(), speed.mark()
            try:
                outcome = workload.run(key)
            except Exception as err:  # an op that raises is a failed op
                outcome = err
            times.append(speed.op_seconds(mark))
            wall_times.append(perf_counter() - t0)
            keys.append(key)
            outcomes.append(outcome)
        passes.append((first, len(keys)))
        elapsed = perf_counter() - start
        if max_passes and len(passes) >= max_passes:
            break
        if elapsed + elapsed / len(passes) / 2 > seconds:
            break
    wall = perf_counter() - start
    return keys, outcomes, times, wall_times, passes, wall


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the trace's spans here (.json.gz)")
    args = parser.parse_args(argv)

    import jetflow
    import numpy
    from workloads import WORKLOADS

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(jetflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported jetflow from {jetflow.__file__}, not {src}")

    workload = WORKLOADS[args.workload]()
    workload.warmup()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        keys, outcomes, times, wall_times, passes, wall = measure(
            workload, random.Random(args.seed), args.seconds,
            args.passes or workload.max_passes, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    ok = []
    for first, end in passes:
        ok.extend(workload.verify_pass(keys[first:end], outcomes[first:end]))
    ok = [v and not isinstance(out, Exception) for v, out in zip(ok, outcomes)]

    result = {
        "times": times,
        "wall_times": wall_times,
        "ok": ok,
        "passes": len(passes),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
