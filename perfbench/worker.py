"""One workload in one fresh process; started by run.py, prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]

Set-up runs from just before `import nht` to the end of the preflight
ops, which also warm every layer's code before the first timed op.
The timed loop is closed: one caller, one thread, each op issued when the
previous one has been checked. Only the op itself is timed; making its
inputs and checking its result are not.

With --trace 1 the set-up is traced, then the loop runs for half the
time untraced and half traced, so the trace overhead is measured in the
same process as the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop for `seconds`.

    Per op it keeps the latency (NaN when the op raised) and whether it
    passed its check, in flat arrays so that the record itself adds
    little to the process's peak RSS.
    """
    latencies, oks = array("d"), array("b")
    failures = []
    clock = time.perf_counter
    deadline = clock() + seconds
    while clock() < deadline:
        op = workload.next_op()
        if tracer:
            tracer.op = len(oks)
        start = clock()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            latencies.append(math.nan)
            oks.append(False)
            continue
        latencies.append(clock() - start)
        problem = op.check(result)
        if problem:
            failures.append(f"{op.label}: {problem}")
        oks.append(not problem)
    return {"latencies": latencies, "oks": oks, "failures": failures}


def run_checked(ops) -> list[str]:
    failures = []
    for op in ops:
        try:
            problem = op.check(op.run())
        except Exception as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op.label}: {problem}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import nht

    if os.path.dirname(os.path.abspath(nht.__file__)) != os.path.join(SRC, "nht"):
        print(f"imported nht from {nht.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import stats
    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.op = "setup"
        tracer.install()
    try:
        ws, workload = workloads.build(args.workload, args.seed, args.workdir)
        setup_failures = run_checked(workloads.preflight_ops(ws))
    except workloads.SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    result = {"setup_s": time.perf_counter() - t0, "setup_failures": setup_failures}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    # Keep the benchmark's own set-up objects (inputs, expected outputs,
    # oracle data) out of the collector's full scans, which otherwise
    # land inside timed ops and grow with the benchmark, not the package.
    gc.freeze()

    if tracer:
        tracer.remove()
        plain = measure(workload, args.seconds / 2)
        tracer.install()
        run = measure(workload, args.seconds / 2, tracer)
        result["untraced_ops_per_s"] = stats.ops_per_s(plain["latencies"], plain["oks"])
        result["traced_ops_per_s"] = stats.ops_per_s(run["latencies"], run["oks"])
        runs = (plain, run)
    else:
        run = measure(workload, args.seconds)
        runs = (run,)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ops"] = {key: list(run[key]) for key in ("latencies", "oks")}
    result["attempted"] = sum(len(r["oks"]) for r in runs)
    result["failures"] = [f for r in runs for f in r["failures"]]

    if args.workload == "cli-session":
        if tracer:
            tracer.op = "probe"
        probes = []
        for op in (workloads.cli_op(ws, cmd) for cmd in ws.defect_probes()):
            problem = run_checked([op])
            probes.append({"input": op.label, "documented_exit": 2,
                           "failure": problem[0] if problem else None})
        result["known_defects"] = probes
    if tracer:
        tracer.remove()
        ratio = result["untraced_ops_per_s"] / result["traced_ops_per_s"]
        result["layers"] = tracer.metrics(ratio)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
