"""The nht benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md in this directory) from the root of a
checkout, with the package imported from its src/ directory. Each
workload runs in fresh processes started from here:

  * SETUP_PROCESSES processes that only set up, so set-up time is the
    median of several fresh starts (--trace 0 only);
  * one process that sets up, then runs the timed loop for S seconds.

The last line of standard output is the result JSON: `correct`,
`attempted`, `failed`, and the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1). The line before it is a provenance
record with everything else: the machine and code, the set-up samples,
the tail percentile and sample count, failures and known defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("block-stream", "chain-search", "cli-session")
SETUP_PROCESSES = 5
CHILD_TIMEOUT_S = 150


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over src/nht/*.py, which names the code where git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "nht")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            h.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "machine_settings": "none: no CPU pinning, affinity, governor or other "
                            "machine setting is used or changed",
    }


def _child(args, workdir: str, setup_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{args.workload} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(child: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """(metrics, facts about them the record keeps)."""
    ops = child["ops"]
    lat_ms = [x * 1000 for x in ops["latencies"] if not math.isnan(x)]
    tail, pct, beyond, count = stats.tail(lat_ms)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (stats.ops_per_s(ops["latencies"], ops["oks"]), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    facts = {"op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
             "op_samples": count, "setup_samples_s": setup_samples}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, facts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one nht benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind like an exception: subprocess.run kills and reaps
    # the worker, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "nht", "__init__.py")):
        print(f"no nht package under {os.path.join(ROOT, 'src')}: run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        children = [] if args.trace else [
            _child(args, os.path.join(work, f"setup{k}"), True)
            for k in range(SETUP_PROCESSES)
        ]
        child = _child(args, os.path.join(work, "run"), False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it

    setup_failures = [f for c in children + [child] for f in c["setup_failures"]]
    failures = child["failures"]
    attempted = child["attempted"]
    record = provenance(args)
    record.update({
        "attempted": attempted,
        "failed": len(failures),
        "ops_failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "setup_failures": setup_failures,
        "known_defects": child.get("known_defects", []),
    })
    if args.trace:
        metrics = child["layers"]
        record["untraced_ops_per_s"] = child["untraced_ops_per_s"]
        record["traced_ops_per_s"] = child["traced_ops_per_s"]
    elif all(map(math.isnan, child["ops"]["latencies"])):
        print(f"every op raised: {failures[:3]}", file=sys.stderr)
        return 1
    else:
        setup_samples = [c["setup_s"] for c in children + [child]]
        metrics, facts = end_to_end(child, setup_samples)
        record.update(facts)
        record["metrics"] = metrics
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures and not setup_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
