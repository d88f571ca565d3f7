"""Smoke test of the benchmark itself, on cohorts about ten times smaller.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit,
that traced and untraced runs digest to the same results, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(trace: int, workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_and_digests(workload):
    digests = []
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run(trace, workload)
        assert proc.returncode == 0, proc.stderr
        *_, info_line, result_line = proc.stdout.strip().splitlines()
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        digests.append(json.loads(info_line)["digest"])
    assert digests[0] == digests[1]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(0, SPEC["workloads"][0]["name"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
