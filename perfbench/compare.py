"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of untraced runs of run.py,
one file per run, any file names; files that do not end in a record
line and a result line are skipped. For every workload and end-to-end
metric this prints each side's median and quartiles, each side's
spread (quartile distance over median), and how far the new median
moved. A row agrees when the new median is within the metric's bound
(from BENCHMARK.json) of the base median in both directions; it is
"worse" or "better" otherwise. Exits 1 when any row is worse, or when
a run in either set reported incorrect results.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str):
    """{workload: {metric: [values]}}, and the number of incorrect runs."""
    values = defaultdict(lambda: defaultdict(list))
    incorrect = 0
    for fname in sorted(os.listdir(directory)):
        with open(os.path.join(directory, fname), encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        try:
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
        except (IndexError, KeyError, TypeError, json.JSONDecodeError):
            continue
        if record["trace"]:
            continue
        incorrect += not result["correct"]
        for name, metric in result["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values, incorrect


def compare(base, new, spec) -> list[dict]:
    rows = []
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            b, n = base[workload].get(m["name"]), new[workload].get(m["name"])
            if not b or not n:
                continue
            bq, nq = stats.quartiles(sorted(b)), stats.quartiles(sorted(n))
            change = (nq[1] - bq[1]) / bq[1]
            worse = change if m["better"] == "lower" else -change
            verdict = ("agree" if abs(change) <= m["bound"]
                       else "worse" if worse > 0 else "better")
            rows.append({"workload": workload, "metric": m["name"], "unit": m["unit"],
                         "bound": m["bound"], "base": bq, "new": nq,
                         "base_spread": stats.spread(b), "new_spread": stats.spread(n),
                         "runs": (len(b), len(n)), "change": change, "verdict": verdict})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    (base, bad_base), (new, bad_new) = load(argv[0]), load(argv[1])
    rows = compare(base, new, spec)
    print(f"{'workload':13} {'metric':12} {'unit':4} {'base q1/median/q3':>28} "
          f"{'spread':>6} {'new q1/median/q3':>28} {'spread':>6} {'change':>7} "
          f"{'bound':>5}  verdict")
    for r in rows:
        b = "/".join(f"{x:.4g}" for x in r["base"])
        n = "/".join(f"{x:.4g}" for x in r["new"])
        print(f"{r['workload']:13} {r['metric']:12} {r['unit']:4} {b:>28} "
              f"{r['base_spread']:6.3f} {n:>28} {r['new_spread']:6.3f} "
              f"{r['change']:+7.3f} {r['bound']:5.2f}  {r['verdict']} "
              f"(runs {r['runs'][0]}/{r['runs'][1]})")
    if bad_base or bad_new:
        print(f"incorrect runs: base {bad_base}, new {bad_new}")
    return 1 if bad_base or bad_new or any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
