"""Tiny-size smoke test of the benchmark.

    python3 -m pytest perfbench/tests -q

Runs every workload once per mode on tiny inputs and checks the result line
against BENCHMARK.json: every metric is present with its unit, and every
correctness gate of the workload ran.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

GATES = {
    "edit-dense": {"oracle", "rls_agreement", "pareto_monotone", "pdhg_converged",
                   "pdhg_stationarity"},
    "retune-sweep": {"oracle", "pareto_monotone", "pdhg_converged", "pdhg_stationarity"},
    "cli-session": {"oracle", "eval_matches_oracle", "pareto_monotone", "pdhg_converged",
                    "pdhg_stationarity"},
}


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_workloads_match_the_spec():
    assert sorted(GATES) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(GATES))
def test_every_metric_and_gate(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
    if not trace:
        for name, value in result["metrics"].items():
            assert value["value"] > 0, name

    gates = report["gates"]
    assert set(gates) == GATES[workload]
    for name, g in gates.items():
        assert g["passed"] + g["failed"] >= 1, name
    assert report["provenance"]["seed"] == 1
    if trace:
        assert os.path.isfile(os.path.join(ROOT, report["span_dump"]))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "edit-dense", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
