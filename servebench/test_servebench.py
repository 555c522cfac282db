"""Self-checks of the serving benchmark: its inputs and counts must repeat.

Run from the root of a checkout::

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from oracle import Expected, Oracle, mismatch, scipy_matrix  # noqa: E402
from run import Checker  # noqa: E402
from workloads import (  # noqa: E402
    MIN_BEYOND_TAIL,
    TAIL_PERCENTILE,
    WORKLOADS,
    beyond_percentile,
    build_schedule,
)


def run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def num_nodes(workload) -> int:
    from repro.service import default_catalog

    return default_catalog(workload.scale).get(workload.graph).num_nodes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_gives_a_byte_identical_schedule(name):
    workload = WORKLOADS[name]
    n = num_nodes(workload)
    first = build_schedule(workload, 7, run_seconds(), n).to_bytes()
    assert build_schedule(workload, 7, run_seconds(), n).to_bytes() == first
    assert build_schedule(workload, 8, run_seconds(), n).to_bytes() != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_has_ten_requests_beyond_the_tail(name):
    schedule = build_schedule(WORKLOADS[name], 1, run_seconds(), num_nodes(WORKLOADS[name]))
    assert beyond_percentile(len(schedule.requests)) >= MIN_BEYOND_TAIL


@pytest.mark.parametrize("count", [10, 11, 100, 111, 3000])
def test_beyond_percentile_counts_like_numpy(count):
    values = np.random.default_rng(count).permutation(count).astype(float)
    above = int((values > np.percentile(values, TAIL_PERCENTILE)).sum())
    assert beyond_percentile(count) == above


def test_warmup_sources_are_outside_the_schedule():
    for workload in WORKLOADS.values():
        schedule = build_schedule(workload, 3, run_seconds(), num_nodes(workload))
        warm = {s for sources in schedule.warmup for s in sources}
        assert warm and not warm & set(schedule.distinct_sources())


def test_zipf_sources_stay_on_one_connection():
    workload = WORKLOADS["wiki-zipf"]
    schedule = build_schedule(workload, 3, run_seconds(), num_nodes(workload))
    owner = {}
    for (source,), conn in zip(schedule.requests, schedule.connection):
        assert owner.setdefault(source, conn) == conn
    loads = np.bincount(schedule.connection, minlength=workload.connections)
    assert loads.min() > 0.4 * loads.sum()


def test_oracle_keeps_the_lightest_parallel_edge_and_zero_weights():
    from repro.graph.csr import CSRGraph

    graph = CSRGraph(np.array([0, 2, 3, 3]), np.array([1, 1, 2]), np.array([5.0, 0.0, 2.0]))
    oracle = Oracle(scipy_matrix(graph))
    assert oracle.run([0, 2]) > 0
    answers = oracle.expected
    assert answers[0] == Expected(reached=3, max_dist=2.0, mean_dist=2.0 / 3)
    assert answers[2] == Expected(reached=1, max_dist=0.0, mean_dist=0.0)


def test_checker_separates_wrong_answers_from_missing_ones():
    expected = {0: Expected(3, 2.0, 1.0), 1: Expected(3, 2.0, 1.0)}
    checker = Checker(expected)
    good = {"ok": True, "source": 0, "reached": 3, "max_dist": 2.0, "mean_dist": 1.0}
    assert checker.check([0], good) == 1
    assert checker.check([1], {"ok": False, "source": 1, "error": "overloaded: shed"}) == 0
    assert checker.check([1], dict(good, source=1, max_dist=2.0 + 1e-6)) == 0
    assert checker.check([0, 1], {"ok": True, "results": [good]}) == 0
    assert checker.attempted == 5 and checker.failed == 4
    assert len(checker.mismatches) == 2
    assert mismatch(dict(good, max_dist=2.0 * (1 + 1e-12)), expected[0]) is None


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _traced_report(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == _declared("per_layer")
    report = json.loads((ROOT / ".servebench_out" / f"{name}-seed5-trace1.json").read_text())
    reported = {k: m["unit"] for k, m in report["metrics"].items()}
    assert reported == {**_declared("end_to_end"), **_declared("per_layer")}
    return report


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_simulated_energy_and_work_counts_repeat_exactly(name):
    exact = ["sim_energy_mj", "sim_time_ms", "sssp.iterations", "sssp.relaxations",
             "core.iterations", "service.cache_hit_ratio", "service.coalesced"]
    first, second = _traced_report(name), _traced_report(name)
    for key in exact:
        assert first["metrics"][key] == second["metrics"][key], key
    if name == "wiki-zipf":
        hits = first["metrics"]["service.cache_hit_ratio"]
        assert 0 < hits["value"] < 1
        schedule = build_schedule(WORKLOADS[name], 5, 1, num_nodes(WORKLOADS[name]))
        schedule = schedule.traced()  # the traced pass's requests
        expected_hits = len(schedule.requests) - len(schedule.distinct_sources())
        assert round(hits["value"] * hits["samples"]) == expected_hits


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "cal-miss", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
