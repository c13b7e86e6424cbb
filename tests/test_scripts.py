"""The walkthrough scripts in ``scripts/`` run against the package source."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_reference_ranking_script_prints_the_reference_order():
    done = run_script("reference_ranking.py")
    assert done.returncode == 0, done.stderr
    order = re.findall(r"^\s+\d+\. MFI (\S+)", done.stdout, flags=re.MULTILINE)
    assert order == ["87", "64", "18", "56", "29", "20"]


def test_synthetic_pipeline_script_runs_the_replay():
    done = run_script("synthetic_pipeline.py")
    assert done.returncode == 0, done.stderr
    assert "ranking:" in done.stdout
    assert re.search(r"^replay over \d+ weeks", done.stdout, flags=re.MULTILINE)
