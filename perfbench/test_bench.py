"""Self-tests for the benchmark's own logic.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import nht.core  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _inputs(name: str, seed: int, workdir, count: int):
    _, wl = workloads.build(name, seed, str(workdir))
    ops = [wl.next_op().inputs for _ in range(count)]
    files = {}
    for fname in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, fname)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                files[fname] = fh.read()
    return repr(ops).encode(), files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path / "a", 12)
    assert first == _inputs(name, 7, tmp_path / "b", 12)
    assert first != _inputs(name, 8, tmp_path / "c", 12)


def test_derived_rows_pass_the_oracle_orthogonality_check(tmp_path):
    ws, wl = workloads.build("block-stream", 3, str(tmp_path))
    group = workloads.BlockStream.GROUP
    for k in range(3 * group):
        op = wl.next_op()
        if k % group:
            continue
        v, q, r, _ = op.inputs
        sums = oracle.lag_sums(v)
        assert oracle.is_prime(q) and 1 << 12 <= q < 1 << 15
        assert r == sums[0] % q != 0
        assert not any(s % q for s in sums[1:])
    for seq in ws.rows:
        assert not any(s % seq.modulus for s in oracle.lag_sums(seq.values)[1:])
    broken = ws.broken
    assert any(s % broken.modulus for s in oracle.lag_sums(broken.values)[1:])


def test_transform_check_rejects_an_identity_pair():
    sf = nht.fixtures.BUNDLED["example4"]
    row = nht.core.ResidueSequence(sf.values, sf.modulus)
    r = sum(v * v for v in sf.values) % sf.modulus
    block = list(range(32))
    op = workloads.transform_op("identity", row, r, block, True)
    assert op.check(op.run()) is None
    assert op.check((tuple(block), tuple(block))) is not None


def test_tail_rule_leaves_ten_samples_beyond():
    xs = list(range(1, 101))
    random.Random(0).shuffle(xs)
    value, pct, beyond, n = stats.tail(xs)
    assert (value, pct, beyond, n) == (90, 90.0, 10, 100)
    assert sum(x > value for x in xs) == 10
    value, pct, beyond, n = stats.tail(range(11))
    assert (value, beyond, n) == (0, 10, 11) and pct == pytest.approx(100 / 11)
    assert stats.tail([5, 1, 3]) == (5, 100.0, 0, 3)


def test_self_time_on_a_synthetic_span_tree():
    S = tracer.Span
    spans = [
        S(0, None, 1, "root", 0.0, 10.0),
        S(1, 0, 1, "a", 1.0, 3.0),
        S(2, 0, 1, "b", 2.0, 5.0),  # overlaps a: together they cover 1..5
        S(3, 0, 1, "c", 6.0, 7.0),
        S(4, 1, 1, "d", 1.5, 2.0),
    ]
    assert tracer.self_times(spans) == {0: 5.0, 1: 1.5, 2: 3.0, 3: 1.0, 4: 0.5}


def test_tracer_nests_spans_and_restores_the_package():
    original = nht.core.gram_lag_sums
    t = tracer.Tracer()
    t.install()
    try:
        row = nht.fixtures.BUNDLED["example4"].residue_sequence()
        nht.core.orthogonality_report(row)
    finally:
        t.remove()
    assert nht.core.gram_lag_sums is original
    by_name = {s.name: s for s in t.spans}
    report = by_name["core.orthogonality_report"]
    assert by_name["core.gram_lag_sums"].parent == report.sid
    assert report.parent is None
    assert t.counts["core.gram_lag_sums.mults"] == 16 * 16


def test_benchmark_json_names_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.metric_specs()
    latencies = [0.001 * k for k in range(1, 30)]
    child = {"ops": {"latencies": latencies, "oks": [True] * len(latencies)},
             "peak_rss_mb": 20.0}
    metrics, _ = run.end_to_end(child, [0.5, 0.6, 0.7])
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_ops_per_s_is_the_median_of_five_sub_rates():
    latencies = [0.01] * 60 + [0.02] * 40  # a slow spell over the last two fifths
    oks = [True] * 100
    assert stats.ops_per_s(latencies, oks) == pytest.approx(100.0)
    latencies[0], oks[0] = float("nan"), False  # an op that raised
    assert stats.ops_per_s(latencies, oks) == pytest.approx(100.0)
