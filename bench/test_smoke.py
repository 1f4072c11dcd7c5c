"""The benchmark's own test: every workload's code path on tiny grids.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

# the layer counter each workload exists to exercise, and counters that
# must stay zero on it
EXERCISES = {
    "even_2d": ("numerics.log_kernel_table.rows", ["fractional.calls", "cli.means_bytes"]),
    "odd_3d_files": ("cli.means_bytes", ["fractional.calls", "numerics.log_kernel_table.rows"]),
    "trace_3d": ("fractional.interp_points", ["numerics.log_kernel_table.rows"]),
    "highdim_4d": ("numerics.log_kernel_table.rows", ["fractional.calls", "cli.means_bytes"]),
}


def _bench(*args: str, bench: Path = BENCH) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(bench / "run.py"), "--seed", "5",
                           "--seconds", "0", "--smoke", *args],
                          cwd=bench.parent, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0, proc.stderr
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(workload):
    out = _result(_bench("--workload", workload, "--trace", "1"))
    cases = len(workloads.WORKLOADS[workload])
    assert out["attempted"] == 2 * cases  # one untraced and one traced round
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.PER_LAYER
    m = {k: v["value"] for k, v in out["metrics"].items()}
    busy, idle = EXERCISES[workload]
    assert m[busy] > 0
    assert all(m[k] == 0 for k in idle)
    assert m["spaces.boundary_grid.centres"] > 0 and m["inversion.backproject.calls"] > 0
    # the layer self times cover the traced forward and invert calls
    covered = m["trace.forward_s"] + m["trace.invert_s"]
    assert 0 <= m["trace.unaccounted_s"] < 0.05 * covered + 0.01


def test_timed_run_reports_end_to_end_metrics():
    out = _result(_bench("--workload", "odd_3d_files", "--trace", "0"))
    assert out["attempted"] == len(workloads.WORKLOADS["odd_3d_files"])
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "even_2d", bench=tmp_path / BENCH.name)
    assert proc.returncode != 0 and not proc.stdout.strip()


def test_benchmark_json_matches_the_runner():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
