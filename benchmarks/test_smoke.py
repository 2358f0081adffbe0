"""Seconds-long checks of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170, cwd=script.parent.parent)


def smoke(workload: str, trace: str) -> tuple[dict, str]:
    proc = run(HERE / "run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = next(line.split()[1] for line in lines if line.startswith("fingerprint:"))
    return result, proc.stdout, fingerprint


@pytest.mark.parametrize("workload", ["sweep-small", "pair-dense", "match-sparse"])
def test_every_metric_is_printed_with_its_unit(workload):
    fingerprints = []
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        result, stdout, fingerprint = smoke(workload, trace)
        fingerprints.append(fingerprint)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        for name, unit in wanted.items():
            assert f"] {name} = " in stdout and stdout.split(f"] {name} = ")[1].split("\n")[0] \
                .endswith(f" {unit}")
    assert fingerprints[0] == fingerprints[1], "tracing changed the library's results"


def test_times_scale_to_the_reference_speed():
    sys.path.insert(0, str(HERE))
    from speed import REF_PROBE_S, SpeedClock

    clock = SpeedClock()
    clock.readings = [REF_PROBE_S, 2 * REF_PROBE_S, 2 * REF_PROBE_S]
    clock.times = [("op", 0, 0.3, 0), ("op", 1, 0.5, 0), ("op", 0, 0.2, 1),
                   ("op", 0, 0.4, 1), ("op", 0, 0.6, 1), ("op", 0, 0.8, 1)]
    # segment 0 ran at 2/3 of the reference speed, segment 1 at half of it
    assert clock.scaled("op") == {0: pytest.approx([0.2, 0.1, 0.2, 0.3, 0.4]),
                                  1: pytest.approx([1 / 3])}
    assert clock.typical("op") == pytest.approx([0.15, 1 / 3])


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path / HERE.name / "run.py", "--workload", "pair-dense", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
