"""Transforms of the input CSVs that must not change a byte of any artifact.

One small fixture and its abtest groups are written once.  Each transform
rewrites every input CSV, and each subcommand that reads them runs in
process through ``main()``: ``validate``, ``features``, ``rank`` from the
datasets and from the feature table, ``evaluate --daily-csv``, ``report``
and ``abtest``.  Every artifact is then compared byte for byte with the run
on the untransformed inputs.  The BLAS thread count is a transform of the
environment, run in subprocesses on a feature table of its own.  Rows of
another loan type, added to the three dataset CSVs only, must leave every
artifact of the selected loan type as it was.
"""

from __future__ import annotations

import csv
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mfirank.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

DATASETS = ("conversions.csv", "products.csv", "clicks.csv")
INPUTS = (*DATASETS, "group_a.csv", "group_b.csv")
ARTIFACTS = (
    "validation.json", "features.csv", "ranking.json", "pi.csv", "table-ranking.json",
    "table-pi.csv", "evaluation.json", "daily.csv", "weekly.csv", "abtest.json",
)


def rows_of(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


def written(rows: list[list[str]], **options) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n", **options).writerows(rows)
    return out.getvalue()


def quoted(text: str) -> str:
    # A comment row before the header and a blank row after the last: the
    # csv path skips both.
    return "# every cell quoted\n" + written(rows_of(text), quoting=csv.QUOTE_ALL) + "\n"


def shuffled_columns(text: str) -> str:
    rows = rows_of(text)
    order = list(range(len(rows[0])))
    random.Random(0).shuffle(order)
    return written([[row[i] for i in order] for row in rows])


def shuffled_rows(text: str) -> str:
    header, *rows = text.splitlines(keepends=True)
    random.Random(0).shuffle(rows)
    return "".join([header, *rows])


TRANSFORMS = {
    "quoted": quoted,
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    "BOM": lambda text: "\ufeff" + text,
    "column order": shuffled_columns,
    "no final newline": lambda text: text.removesuffix("\n"),
    "row order": shuffled_rows,
}


def interest_free_copies(text: str) -> str:
    """After each row, a copy of it as an interest-free row of an MFI,
    client and card of its own (``x``-prefixed ids)."""
    header, *rows = rows_of(text)
    ids = [i for i, name in enumerate(header) if name in ("mfi_id", "client_id", "card_id")]
    loan_type = header.index("loan_type")
    out = [header]
    for row in rows:
        copy = list(row)
        for i in ids:
            copy[i] = "x" + copy[i]
        copy[loan_type] = "interest-free"
        out += [row, copy]
    return written(out)


# Transforms of the dataset CSVs only; the abtest groups are left alone.
DATASET_TRANSFORMS = {"interest-free copies": interest_free_copies}


def write_groups(inputs: Path, seed: int) -> None:
    """The conversions split by client into the two abtest groups, as the
    benchmark's snapshot workload splits them."""
    header, *lines = (inputs / "conversions.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    client = rows_of(header)[0].index("client_id")
    clients = [rows_of(line)[0][client] for line in lines]
    rng = random.Random(seed)
    in_a = {c for c in sorted(set(clients)) if rng.random() < 0.5}
    for name, side in (("group_a.csv", True), ("group_b.csv", False)):
        rows = [line for line, c in zip(lines, clients) if (c in in_a) == side]
        (inputs / name).write_text(header + "".join(rows), encoding="utf-8")


def run_all(workdir: Path) -> dict[str, bytes]:
    """Every artifact of the subcommands over the CSVs in ``workdir``."""

    def at(name: str) -> str:
        return str(workdir / name)

    datasets = ["--conversions", at("conversions.csv"), "--products", at("products.csv"),
                "--clicks", at("clicks.csv")]
    commands = [
        ["validate", *datasets, "--out", at("validation.json")],
        ["features", *datasets, "--out", at("features.csv")],
        ["rank", *datasets, "--out", at("ranking.json"), "--pi-csv", at("pi.csv")],
        ["rank", "--features-csv", at("features.csv"), "--out", at("table-ranking.json"),
         "--pi-csv", at("table-pi.csv")],
        ["evaluate", *datasets, "--out", at("evaluation.json"), "--daily-csv", at("daily.csv")],
        ["report", "--evaluation", at("evaluation.json"), "--weekly", "--out", at("weekly.csv")],
        ["abtest", "--group-a", at("group_a.csv"), "--group-b", at("group_b.csv"),
         "--os", "Android", "--out", at("abtest.json")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    return {name: (workdir / name).read_bytes() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The artifacts of the untransformed inputs (None) or of a transform
    of every input, each run once."""
    plain = tmp_path_factory.mktemp("plain")
    assert main(["fixture", "--seed", "1", "--n-mfis", "12", "--n-clients", "1500",
                 "--out-dir", str(plain)]) == 0
    write_groups(plain, seed=1)
    runs = {None: run_all(plain)}

    def get(name: str | None) -> dict[str, bytes]:
        if name not in runs:
            workdir = tmp_path_factory.mktemp("transformed")
            for csv_name in INPUTS:
                text = (plain / csv_name).read_text(encoding="utf-8")
                if name in TRANSFORMS:
                    text = TRANSFORMS[name](text)
                elif csv_name in DATASETS:
                    text = DATASET_TRANSFORMS[name](text)
                (workdir / csv_name).write_bytes(text.encode("utf-8"))
            runs[name] = run_all(workdir)
        return runs[name]

    return get


def test_the_transforms_change_every_input():
    text = "a,b,c\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n"
    for name, transform in TRANSFORMS.items():
        assert transform(text) != text, name


@pytest.mark.parametrize("artifact", ARTIFACTS)
@pytest.mark.parametrize("transform", [name for name in TRANSFORMS if name != "row order"])
def test_a_transformed_input_gives_the_same_bytes(artifacts, transform, artifact):
    assert artifacts(transform)[artifact] == artifacts(None)[artifact]


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_shuffled_rows_give_the_same_bytes(artifacts, artifact):
    assert artifacts("row order")[artifact] == artifacts(None)[artifact]


# validation.json counts the rows of every loan type by design, and the
# abtest groups are not transformed.
@pytest.mark.parametrize(
    "artifact", [name for name in ARTIFACTS if name not in ("validation.json", "abtest.json")]
)
def test_rows_of_another_loan_type_give_the_same_bytes(artifacts, artifact):
    # The selected tables drop the other loan type's MFIs, clients and
    # cards (Table.take), so every code and name is as without them.
    assert artifacts("interest-free copies")[artifact] == artifacts(None)[artifact]


def openblas() -> bool:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"].lower()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="fewer than 2 CPUs")
@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the direct solve rounds by thread count")
def test_rank_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    if not openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    from mfirank.features import FeatureVector, feature_csv

    rng = random.Random(0)
    table = tmp_path / "features.csv"
    table.write_text(feature_csv([
        FeatureVector(
            mfi_id=f"m{n:05d}", rating_norm=rng.uniform(3.0, 4.5), lar_norm=rng.uniform(0.05, 0.3),
            fairness=rng.randint(0, 4), service_p90_sec=rng.uniform(1e3, 3e5),
            epc=rng.uniform(0.5, 6.0),
        )
        for n in range(1000)
    ]), encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):  # both explicit, whatever the caller exports
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-m", "mfirank.cli", "rank", "--features-csv", str(table),
             "--out", str(out / "ranking.json"), "--pi-csv", str(out / "pi.csv")],
            env=env, check=True,
        )
        outputs.append({name: (out / name).read_bytes() for name in ("ranking.json", "pi.csv")})
    assert outputs[0] == outputs[1]
