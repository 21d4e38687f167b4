"""The benchmark runs end to end and its output checks pass on a short run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_direct_fanin_benchmark_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "direct_fanin",
         "--seed", "1", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_track_notify_benchmark_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track_notify",
         "--seed", "1", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_scenario_sim_benchmark_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scenario_sim",
         "--seed", "1", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
