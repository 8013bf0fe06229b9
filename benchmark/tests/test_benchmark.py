"""Tests of the benchmark itself, at a tiny campaign size.

    python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from tracer import TARGETS, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_T = 20


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / BENCH.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(workload, *extra, trace=0, seed=0):
    return result_of(bench("--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace),
                           "--T", str(TINY_T), *extra))


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_workload_runs_untraced_at_tiny_size(workload):
    res = tiny(workload)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == WORKLOADS[workload].replicas
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_workload_runs_traced_at_tiny_size(workload):
    res = tiny(workload, trace=1)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units


def test_counts_repeat_exactly_across_traced_runs():
    first = tiny("dataset10-br-oracle", trace=1)["metrics"]
    second = tiny("dataset10-br-oracle", trace=1)["metrics"]
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    for name in ("strategies.golden_max.evals_per_call", "nash.solve_nash.sweeps",
                 "strategies.golden_max.calls", "game.utility_matrix.calls"):
        assert name in counts
        assert first[name]["value"] > 0
    assert {k: first[k]["value"] for k in counts} == \
        {k: second[k]["value"] for k in counts}


def test_corrupted_reference_fails_one_replica(tmp_path):
    ref = tmp_path / "ref.json"
    args = ("--workload", "game1-replicas-trace", "--seed", "3",
            "--T", str(TINY_T), "--reference", str(ref))
    assert bench(*args, "--write-reference").returncode == 0
    clean = result_of(bench(*args, "--seconds", "0", "--trace", "0"))
    assert clean["correct"] and clean["failed"] == 0

    doc = json.loads(ref.read_text())
    doc["final_cum_regret"]["gp"][1][0] += 0.5
    ref.write_text(json.dumps(doc))
    corrupted = result_of(bench(*args, "--seconds", "0", "--trace", "0"))
    assert not corrupted["correct"]
    assert corrupted["failed"] == 1
    assert corrupted["attempted"] == clean["attempted"]


def _bindings():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}


def test_instrument_restores_every_attribute_on_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with instrument(Tracer()) as missing:
            assert missing == []
            assert all(getattr(importlib.import_module(m), a) is not f
                       for (m, a), f in before.items())
            raise RuntimeError("inside the traced block")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_instrument_restores_when_a_wrapper_fails_midway():
    def broken(tracer, fn):
        raise ValueError("wrapper factory failed")

    targets = TARGETS[:3] + (("fogbandit.engine", "run_seed", broken),)
    before = _bindings()
    with pytest.raises(ValueError):
        with instrument(Tracer(), targets):
            pass
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()                                  # outer 0..3, inner 1..2
    assert tracer.total("outer") == 3.0
    assert tracer.self_total("outer") == 2.0
    assert tracer.calls("inner", "outer") == 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dataset10-bandit", "--seed", "0",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
