"""jetflow benchmark: three workloads driven through the public API.

Run from the root of a jetflow checkout:

    python3 perfbench/run.py --workload hierarchy|verify|drift \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
run details (sample counts, the tail percentile, Python, numpy, nproc).

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of several fresh interpreters importing jetflow and parsing the
workload's fixtures), then op latency, throughput and memory from one
untraced worker process that runs whole passes for `--seconds`.

Times are reference seconds (see speed.py): thread CPU time scaled by the
machine's speed, sampled with a fixed probe while the timed work runs, so
that a slow moment of a shared host does not read as a slower jetflow.
The wall-clock median op time and throughput are printed in the details
line.

`--trace 1` reports the per-layer metrics: one untraced pass, then two
traced passes in fresh processes.  Call counts and sizes must match exactly
between the two traced passes; the tracing overhead is the traced median
op time minus the untraced one.

Every worker runs in one process with one numeric-library thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 15
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
EXACT_METRICS = ("jets.max_jet_order", "jets.peak_terms",
                "ring.max_denominator_bits", "numeric.rk4_steps",
                "numeric.rhs_evals")
SPANS_DIR = ".perfbench"

# Run by a fresh interpreter to time set-up; prints reference seconds.
# The speed is that of probes taken just before and just after.
SETUP_CODE = """\
import sys, time
import speed
probes = [speed.timed_probe() for _ in range(speed.MIN_SAMPLES)]
t0 = time.thread_time()
import jetflow
for name in sys.argv[1:]:
    jetflow.load_fixture(name)
cpu = time.thread_time() - t0
probes += [speed.timed_probe() for _ in range(speed.MIN_SAMPLES)]
print(speed.reference_seconds(cpu, probes))
"""
FIXTURES = {"hierarchy": ["gardner"], "verify": ["gardner", "potential_burgers"],
            "drift": ["gardner"]}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, HERE, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, deadline):
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a process")
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True,
                              text=True, env=child_env(), timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{argv[:2]} did not finish in time") from err
    if proc.returncode != 0:
        raise BenchError(f"{argv[:2]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload, deadline):
    """Median over fresh interpreters; the first run only warms caches."""
    argv = ["-c", SETUP_CODE, *FIXTURES[workload]]
    run_child(argv, deadline)
    return statistics.median(float(run_child(argv, deadline))
                             for _ in range(SETUP_RUNS))


def worker(args, deadline, *extra):
    argv = [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]
    return json.loads(run_child(argv, deadline))


def tail(times):
    """The highest percentile with at least 10 ops beyond it (nearest
    rank), or the maximum when there are fewer than 11 ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.2f}"


def untraced(args, deadline):
    setup = setup_seconds(args.workload, deadline)
    res = worker(args, deadline, "--seconds", str(args.seconds))
    times = res["times"]
    tail_s, tail_label = tail(times)
    metrics = {
        "setup_s": setup,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    details = {"ops": len(times), "passes": res["passes"],
               "op_tail_percentile": tail_label,
               "wall_op_p50_s": statistics.median(res["wall_times"]),
               "wall_ops_per_s": len(times) / res["wall_s"],
               "python": res["python"], "numpy": res["numpy"]}
    return metrics, res["ok"], details


def traced(args, deadline):
    base = worker(args, deadline, "--passes", "1")
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.json.gz")
    first = worker(args, deadline, "--passes", "1", "--trace", "1",
                   "--spans", spans)
    second = worker(args, deadline, "--passes", "1", "--trace", "1")
    a, b = first["layers"], second["layers"]
    exact = [k for k in a if k.endswith(".calls") or k in EXACT_METRICS]
    mismatched = [k for k in exact if a[k] != b[k]]
    metrics = {k: a[k] if k in exact else (a[k] + b[k]) / 2 for k in a}
    traced_p50 = statistics.median(first["times"] + second["times"])
    untraced_p50 = statistics.median(base["times"])
    metrics.update({"trace.op_p50_s": traced_p50,
                    "trace.untraced_op_p50_s": untraced_p50,
                    "trace.overhead_s": traced_p50 - untraced_p50})
    ok = base["ok"] + first["ok"] + second["ok"]
    details = {"ops": len(ok), "counts_repeat": not mismatched,
               "mismatched": mismatched[:20], "spans_file": spans,
               "python": base["python"], "numpy": base["numpy"]}
    return metrics, ok, details, not mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(FIXTURES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "jetflow", "__init__.py")):
        print("error: run from the root of a jetflow checkout "
              "(src/jetflow not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    try:
        if args.trace:
            metrics, ok, details, repeat = traced(args, deadline)
            wanted = spec["per_layer"]
        else:
            metrics, ok, details = untraced(args, deadline)
            repeat = True
            wanted = spec["end_to_end"]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failed = ok.count(False)
    details.update({"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "error_rate": failed / len(ok),
                    "nproc": len(os.sched_getaffinity(0)),
                    "threads": {v: "1" for v in THREAD_VARS}})
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": len(ok),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
