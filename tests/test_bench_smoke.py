"""The benchmark's smoke run: every workload BENCHMARK.json declares, at a tiny size,
untraced and traced, in a temporary copy of BENCHMARK.json, perfbench/ and src/,
so the runs write nothing into the checkout.

perfbench binds library names the other tests do not reach, among them the
``update_running`` keyword its ``block_forward`` wrapper passes. Each run must end
correct with no failed operation, and tracing must change no result bit: the
``digest_*`` extras of the record line (the one before the last) must be equal.
The traced run's ``attributed_pct`` bound stays in ``perfbench/test_perfbench.py``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _digests(root: Path, workload: str, trace: int) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    *_, record, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is True and result["failed"] == 0, last
    digests = {k: v for k, v in json.loads(record)["extra"].items() if k.startswith("digest_")}
    assert digests, "no digest in the record line"
    return digests


def test_benchmark_declares_workloads():
    assert WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_tracing_changes_no_digest(workload, tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    assert _digests(tmp_path, workload, 0) == _digests(tmp_path, workload, 1)
