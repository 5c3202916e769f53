"""One workload in one process: a single-threaded, closed-loop client.

Modes:
  setup   build the inputs and warm up, then exit (a set-up probe)
  timed   set up, then run whole passes until --seconds have gone by
  pass    set up, then run one pass
  traced  as pass, with spans recorded at the layer boundaries

The last line of standard output is one JSON object for perfbench/run.py,
with the [label, latency] of each request, one list per pass.
Set-up time runs from --t0, a time.monotonic() reading the parent took just
before starting this process, to the first timed request.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def _run_pass(workload, trace, out: dict) -> None:
    workload.begin_pass()
    latencies = []
    out["latencies_ms"].append(latencies)
    definite = 0
    for req in workload.requests:
        req.prepare()
        t = time.perf_counter()
        with trace.span("request"):
            result = req.run()
        latencies.append((req.label, (time.perf_counter() - t) * 1000.0))
        c = time.perf_counter()
        failed, answered, problems = req.check(result)
        out["check_ms"] += (time.perf_counter() - c) * 1000.0
        out["attempted"] += 1
        if failed:
            out["failed"] += 1
            if req.label not in out["failed_labels"]:
                out["failed_labels"].append(req.label)
        definite += answered
        out["problems"] += problems
    workload.memo.reset()
    if out["definite"] is None:
        out["definite"] = definite
    elif out["definite"] != definite:
        out["problems"].append(f"definite answers changed between passes:"
                               f" {out['definite']} then {definite}")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "timed", "pass", "traced"),
                   required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--t0", type=float, required=True)
    args = p.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    memo = workloads.Memo()
    workload = workloads.WORKLOADS[args.workload](memo)
    trace = tracer or tracing.NO_TRACE
    workload.setup(args.seed, trace)
    memo.reset()
    memo.zero()
    setup_s = time.monotonic() - args.t0
    pass_start = len(tracer.spans) if tracer is not None else 0
    out = {"setup_s": setup_s, "latencies_ms": [], "attempted": 0,
           "failed": 0, "failed_labels": [], "definite": None,
           "problems": [], "check_ms": 0.0}
    if args.mode != "setup":
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            _run_pass(workload, trace, out)
            if args.mode != "timed":
                break
            # whole passes only: start another one only if it fits
            now = time.perf_counter()
            if now - start + (now - t) > args.seconds:
                break
    out["pass_ms"] = sum(ms for p in out["latencies_ms"] for _, ms in p)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["memo"] = {"compare.evals": memo.evals, "compare.hits": memo.hits,
                   "compare.memo_entries": memo.peak_entries}
    if tracer is not None:
        tracer.uninstall()
        os.makedirs(RESULTS, exist_ok=True)
        tracer.dump(os.path.join(
            RESULTS, f"trace-{args.workload}-seed{args.seed}.json"))
        out["layers"] = tracing.layer_metrics(tracer.spans, pass_start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
