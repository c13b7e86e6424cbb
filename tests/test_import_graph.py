"""Each subcommand imports only the stages it runs.

Every case starts a fresh interpreter, runs one ``mfirank.cli.main``
call (or none) and reports which package modules, and whether numpy and
scipy, ended up in ``sys.modules``.  ``import mfirank.cli``, ``--help``
and ``report`` must load no numpy; only ``abtest`` with sale incomes on
both sides may load scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import json, sys
import mfirank.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    try:
        code = mfirank.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({
    "code": code,
    "modules": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("mfirank.")),
    "numpy": "numpy" in sys.modules,
    "scipy": "scipy" in sys.modules,
    "multiprocessing": "multiprocessing" in sys.modules,
}))
"""

DATASET = ["--conversions", "conversions.csv", "--products", "products.csv",
           "--clicks", "clicks.csv"]
BARE = {"cli", "errors"}
VALIDATE = BARE | {"config", "data"}
FEATURES = VALIDATE | {"features"}
RANK = FEATURES | {"rank"}
EVERY_STAGE = RANK | {"evaluate", "stats", "weeks"}


def probe(argv: list[str] | None, cwd: Path) -> dict:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The ``fixture --seed 0`` datasets, a feature table and an evaluation."""
    from mfirank.cli import main

    out = tmp_path_factory.mktemp("imports")
    assert main(["fixture", "--seed", "0", "--out-dir", str(out)]) == 0
    dataset = [str(out / arg) if arg.endswith(".csv") else arg for arg in DATASET]
    assert main(["features", *dataset, "--out", str(out / "features.csv")]) == 0
    assert main(["evaluate", *dataset, "--out", str(out / "evaluation.json")]) == 0
    return out


CASES = [
    ("import", None, None, BARE, False),
    ("help", ["--help"], 0, BARE, False),
    ("usage-error", ["rank", "--no-such-flag"], 1, BARE, False),
    ("report", ["report", "--evaluation", "evaluation.json", "--out", "s.csv"], 0, BARE, False),
    ("report-weekly", ["report", "--evaluation", "evaluation.json", "--weekly",
                       "--out", "w.csv"], 0, BARE | {"weeks"}, False),
    ("fixture", ["fixture", "--seed", "1", "--out-dir", "fx"], 0,
     BARE | {"data", "fixtures"}, True),
    ("validate", ["validate", *DATASET, "--out", "v.json"], 0, VALIDATE, True),
    ("features", ["features", *DATASET, "--out", "f.csv"], 0, FEATURES, True),
    ("rank", ["rank", "--features-csv", "features.csv", "--out", "r.json"], 0, RANK, True),
    ("rank-datasets", ["rank", *DATASET, "--out", "rd.json"], 0, RANK, True),
    ("evaluate", ["evaluate", *DATASET, "--out", "e.json"], 0, EVERY_STAGE, True),
    ("abtest", ["abtest", "--group-a", "conversions.csv", "--group-b", "conversions.csv",
                "--os", "Android", "--out", "a.json"], 0, EVERY_STAGE, True),
    ("abtest-fisher", ["abtest", "--fisher", "3", "10", "2", "10", "--out", "af.json"], 0,
     VALIDATE | {"stats"}, True),
]


@pytest.mark.parametrize(
    "argv, code, modules, numpy", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_a_subcommand_loads_only_its_stages(workdir, argv, code, modules, numpy):
    seen = probe(argv, workdir)
    assert seen["code"] == code
    assert set(seen["modules"]) == modules
    assert seen["numpy"] is numpy
    # The Student t tail of the Welch test is the one use of scipy.
    assert seen["scipy"] is (argv is not None and argv[0] == "abtest" and "--fisher" not in argv)
    # Every reader parses in the one process: none imports multiprocessing.
    assert seen["multiprocessing"] is False


def test_an_unknown_attribute_of_the_cli_is_an_attribute_error():
    import mfirank.cli

    assert not hasattr(mfirank.cli, "no_such_stage")


def test_moved_names_keep_their_old_import_paths():
    from mfirank import config, evaluate, features, rank, weeks

    assert evaluate.week_start is weeks.week_start
    assert evaluate.DEFAULT_MIN_SUPPORT is config.DEFAULT_MIN_SUPPORT
    assert rank.TIE_EPS is config.TIE_EPS
    assert features.ALL_FEATURES is config.ALL_FEATURES
    assert features.DurationRule is config.DurationRule
    assert features.DEFAULT_DURATION_RULES is config.DEFAULT_DURATION_RULES
