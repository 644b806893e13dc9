"""Self-test of the benchmark: every workload at a tiny size, traced and untraced.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# Layers each workload must enter in its operations (traced metrics that cannot read 0).
ENTERED = {
    "train-planar-2k": ["network.forward.ms", "network.loss_joint.ms", "network.update.ms",
                        "autograd.backward.ms", "autograd.nodes", "margin.loss_am_indexed.ms",
                        "apm.block_forward.train_ms", "apm.loss_reg.ms",
                        "refine.build_masks.ms"]
                       + [m["name"] for m in DECLARED["per_layer"]
                          if m["name"].startswith("autograd.")],
    "eval-rooms-8k": ["cloud.fps_indices.ms", "cloud.knn_all.ms", "network.build_geometry.ms",
                      "network.build_geometry.self_ms", "network.build_geometry.peak_mb",
                      "network.predict.ms", "apm.block_forward.infer_ms",
                      "ambiguity.ambiguity_map.ms", "metrics.confusion.ms",
                      "metrics.breakdown.ms", "io.read_cloud.ms", "io.load_checkpoint.ms",
                      "cli.main.self_ms"],
    "ambiguity-lattice-4k": ["cloud.knn_all.ms", "ambiguity.ambiguity_map.ms",
                             "margin.margin_map.ms", "io.read_cloud.ms",
                             "io.write_ambiguity_csv.ms", "io.write_ply.ms", "io.bytes_written",
                             "cli.main.self_ms"],
}
DIGESTS = {
    "train-planar-2k": "digest_final_params",
    "eval-rooms-8k": "digest_labels_op0",
    "ambiguity-lattice-4k": "digest_ambiguity_csv_op0",
}


def run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_lines(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_with_its_unit(workload, trace):
    record, result = result_lines(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "simd", "nproc", "blas", "kdtree_cutoff",
                "git_commit", "src_sha256"):
        assert key in env
    if trace:
        assert record["operations"]["traced"] >= 1 and record["operations"]["untraced"] >= 1
        for name in ENTERED[workload]:
            assert result["metrics"][name]["value"] > 0, name
        # at tiny sizes the CLI's own argument parsing is a visible share of an operation
        assert 50.0 <= result["metrics"]["trace.attributed_pct"]["value"] <= 100.0
    else:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digests_repeat_for_one_seed(workload):
    first, _ = result_lines(run(workload, 0, seed=5))
    second, _ = result_lines(run(workload, 0, seed=5))
    key = DIGESTS[workload]
    assert len(first["extra"][key]) == 64
    assert first["extra"][key] == second["extra"][key]


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
