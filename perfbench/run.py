"""ordcalc benchmark: one workload, checked outputs, one JSON result line.

  python3 perfbench/run.py --workload finitary --seed 1 --seconds 25 --trace 0

Run it from the repository root; ordcalc is imported from ``src/``.  Each
workload runs in worker processes of its own (perfbench/worker.py), one at a
time, each a single-threaded closed-loop client.

--trace 0 prints the end-to-end metrics.  Set-up is timed in five processes
(four that only set up, and the timed one) and reported as their median;
the timed process then runs whole passes for --seconds.

--trace 1 prints the per-layer metrics: one untraced pass and one traced
pass, each in a fresh process, plus one `ord cmp 2 'suc(1)'` process.  The
difference of the two passes' request time is the tracing overhead.

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}; the result also goes to perfbench/results/, with the spans of
the traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("finitary", "infinitary", "certify", "sequent")
SETUP_PROBES = 4
# a run must end within 180 s; leave room for this process itself
DEADLINE_S = 170.0


def _units() -> dict:
    """Each metric's unit, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


class WorkerError(Exception):
    pass


def _worker(mode: str, args, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--t0", repr(t0)]
    # a fixed hash seed makes set and dict orders, and so the work done,
    # the same in every process
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_process_ms(deadline: float) -> float:
    """Wall time of one `ord cmp 2 'suc(1)'` process, checked."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ordcalc", "cmp", "2",
                           "suc(1)"], cwd=ROOT, env=env, capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    ms = (time.perf_counter() - t) * 1000.0
    if proc.returncode != 0 or proc.stdout.splitlines()[-1] != "verdict eq":
        raise WorkerError(f"ord cmp 2 suc(1) gave {proc.returncode}:"
                          f" {proc.stdout!r} {proc.stderr[-500:]!r}")
    return ms


def trimmed_mean(values) -> float:
    """The mean, less the highest and the lowest tenth of the values."""
    ordered = sorted(values)
    k = len(ordered) // 10
    return statistics.fmean(ordered[k:len(ordered) - k])


def tail(latencies) -> float:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - 11)]


def end_to_end(args, deadline: float):
    setups = [_worker("setup", args, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    main = _worker("timed", args, deadline)
    passes = main["latencies_ms"]
    lat = [ms for p in passes for _, ms in p]
    # Identical requests (same label: same inputs, same memo state) are
    # summarized by the trimmed mean of their repetitions in the run before
    # the percentiles are taken.  The host runs in a fast and a slow state
    # (about 1.5x apart) for seconds at a time; a median of repetitions
    # jumps between the two when the run is split near half and half, while
    # a mean moves in proportion to the split.
    reps = {}
    for p in passes:
        for label, ms in p:
            reps.setdefault(label, []).append(ms)
    typical = {label: trimmed_mean(v) for label, v in reps.items()}
    one_pass = [typical[label] for label, _ in passes[0]]
    values = {
        "setup_s": statistics.median(setups + [main["setup_s"]]),
        "requests_per_s": len(lat) / (sum(lat) / 1000.0),
        "latency_p50_ms": statistics.median(one_pass),
        "latency_tail_ms": tail(one_pass),
        "peak_rss_mb": main["rss_mb"],
        "definite_answers": main["definite"],
    }
    n = len(one_pass)
    print(f"{args.workload}: {len(lat)} requests in {len(passes)} passes,"
          f" {len(reps)} distinct; tail at rank {n - 10} of the {n} per pass")
    return [main], values


def per_layer(args, deadline: float):
    plain = _worker("pass", args, deadline)
    traced = _worker("traced", args, deadline)
    values = dict(traced["layers"])
    values.update(traced["memo"])
    values["cli.process_ms"] = _cli_process_ms(deadline)
    values["bench.check_ms"] = traced["check_ms"]
    values["bench.trace_overhead_ms"] = traced["pass_ms"] - plain["pass_ms"]
    return [plain, traced], values


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(ROOT, "src", "ordcalc")):
        print("error: src/ordcalc not found; run from a checkout of the"
              " repository", file=sys.stderr)
        return 2
    try:
        runs, values = (per_layer if args.trace else end_to_end)(
            args, deadline)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    problems = [x for r in runs for x in r["problems"]]
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    failed_labels = sorted({x for r in runs for x in r["failed_labels"]})
    if failed_labels:
        print(f"failed operations: {', '.join(failed_labels)}")
    units = _units()
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in sorted(values.items())}
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs),
              "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
