"""The benchmark's own tests.  They run the benchmark, so they are kept out of
the library's default test collection; run them with

    python3 -m pytest -q perfbench/bench_selftest.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        n: run.END_TO_END[n] for n in run.REPORTED_END_TO_END}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    lines, result = bench(workload, seed=3, seconds=1, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: run.END_TO_END[n] for n in run.REPORTED_END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines)
    for name, unit in run.END_TO_END.items():
        assert f"{name} " in text and f" {unit} " in text


@pytest.mark.parametrize("workload", ["cubic-cuts", "subcubic-beta"])
def test_traced_counts_repeat_exactly(workload):
    units = run.per_layer_units()
    firsts = []
    for _ in range(2):
        lines, result = bench(workload, seed=5, seconds=1, trace=1)
        assert result["correct"], lines
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        assert not any(line.startswith("FLAG") for line in lines), lines
        firsts.append({n: m["value"] for n, m in result["metrics"].items()
                       if units[n] in ("count", "bytes")})
        digest = [line for line in lines if line.startswith("fingerprint:")]
        firsts[-1]["digest"] = digest[0].split()[2]
    assert firsts[0] == firsts[1]
    assert firsts[0]["serialize.encode.calls"] > 0


@pytest.mark.parametrize("workload", ["cubic-cuts", "subcubic-beta"])
def test_every_op_gets_a_distinct_graph(workload):
    for seed in (0, 1, 2):
        ops = workloads.build(workload, seed, 15)
        keys = {workloads._graph_key(op.graph, op.weights) for op in ops}
        assert len(keys) == len(ops)


def test_harness_gate_rejects_a_tampered_certificate():
    op = workloads.build("cover-matrix", 0, 1)[0]
    data = workloads.produce(op)
    assert workloads.check(op, data) is None
    doc = json.loads(data)
    first = doc["combination"]["terms"][0]
    first["lambda"] = str(Fraction(first["lambda"]) + Fraction(1, 7))
    assert "convex" in workloads.check(op, json.dumps(doc).encode())
