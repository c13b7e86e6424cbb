"""Self-test of the benchmark at tiny input sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from checks import check_artifact, read_artifact, result_digest  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = run.load_spec()

# Runs the CLI, then drops the last MFI from any ranking it wrote.
CORRUPTING_CLI = """
import json, sys
from mfirank.cli import main
code = main(sys.argv[1:])
out = sys.argv[sys.argv.index("--out") + 1]
if out == "ranking.json":
    with open(out) as fh:
        payload = json.load(fh)
    payload["ranking"] = payload["ranking"][:-1]
    with open(out, "w") as fh:
        json.dump(payload, fh)
sys.exit(code)
"""


def run_tiny(capsys, workload: str, trace: int) -> tuple[dict, str]:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)], sizes=TINY)
    assert code == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    result, text = run_tiny(capsys, workload, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, m in result["metrics"].items():
        assert f"{name} = {m['value']} {m['unit']}" in text
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    assert "(failed_share 0.0)" in text
    if not trace:
        assert result["metrics"]["passed_share"]["value"] == 1.0


def test_altered_artifact_raises_failed_share(capsys, monkeypatch):
    monkeypatch.setattr(run, "CLI", CORRUPTING_CLI)
    result, text = run_tiny(capsys, "rank-wide", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["passed_share"]["value"] == 0.0
    assert "ranking is not a permutation" in text


def test_digest_locks_result_numbers_only(tmp_path):
    bench = run.Bench("replay-52w", 2, tmp_path, TINY, {})
    assert bench.run_pass(traced=False).failed == []
    path = tmp_path / "evaluation.json"
    payload = read_artifact(path, "evaluation")
    golden = result_digest(payload, "evaluation")
    assert check_artifact(path, "evaluation", bench.inputs, golden) == []

    payload["diagnostics"] = {"dropped_mfis": []}
    payload["config_digest"] = "0" * 64
    path.write_text(json.dumps(payload))
    assert check_artifact(path, "evaluation", bench.inputs, golden) == []

    payload["daily"][0]["vra"]["income"] += 1e-3
    path.write_text(json.dumps(payload))
    assert check_artifact(path, "evaluation", bench.inputs, golden) == [
        "evaluation.json: result digest differs from the recorded one"
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snapshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_misnested_spans_are_counted():
    spans = [[0, None, "cli.rank", 0.0, 5.0], [1, 0, "rank.rank_mfis", 1.0, 4.0],
             [2, 1, "rank.comparison_matrix", 1.5, 3.0]]
    assert run.misnested(spans) == 0
    spans[2][4] = 4.5  # ends after its parent
    spans.append([3, 9, "data.parse_conversions", 0.5, 0.6])  # unknown parent
    assert run.misnested(spans) == 2
