"""Seeded inputs and command chains of the benchmark workloads.

Every input is derived from the workload seed alone: the three dataset
CSVs come from ``generate_fixture`` and the ``serialize_*`` writers, the
abtest groups split those conversions by client, and the wide feature
table is drawn from a ``random.Random`` seeded the same way.  The
program under test only ever sees the files written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from mfirank.data import serialize_clicks, serialize_conversions, serialize_products
from mfirank.features import FeatureVector, feature_csv
from mfirank.fixtures import FixtureConfig, generate_fixture

WORKLOADS = ("replay-52w", "snapshot", "rank-wide")

# Input sizes per workload.  FULL is what the benchmark measures; TINY
# keeps the benchmark's own self-test fast.
FULL = {
    "replay-52w": {"n_mfis": 40, "n_clients": 20_000, "n_weeks": 52},
    "snapshot": {"n_mfis": 40, "n_clients": 20_000, "n_weeks": 8},
    "rank-wide": {"n_mfis": 2_000},
}
TINY = {
    "replay-52w": {"n_mfis": 6, "n_clients": 300, "n_weeks": 5},
    "snapshot": {"n_mfis": 6, "n_clients": 300, "n_weeks": 3},
    "rank-wide": {"n_mfis": 40},
}

DATASET = ("--conversions", "conversions.csv", "--products", "products.csv",
           "--clicks", "clicks.csv")


@dataclass(frozen=True)
class Step:
    """One CLI subcommand of a workload and the artifacts it writes.

    ``artifacts`` maps each output file to the kind of check it gets
    (see ``checks.py``).
    """

    argv: tuple[str, ...]
    artifacts: tuple[tuple[str, str], ...]

    @property
    def command(self) -> str:
        return self.argv[0]


CHAINS: dict[str, tuple[Step, ...]] = {
    "replay-52w": (
        Step(("evaluate", *DATASET, "--out", "evaluation.json", "--daily-csv", "daily.csv"),
             (("evaluation.json", "evaluation"), ("daily.csv", "series"))),
        Step(("report", "--evaluation", "evaluation.json", "--weekly", "--out", "weekly.csv"),
             (("weekly.csv", "series"),)),
    ),
    "snapshot": (
        Step(("validate", *DATASET, "--out", "validation.json"),
             (("validation.json", "validation"),)),
        Step(("features", *DATASET, "--out", "features.csv", "--breakdown-json", "fairness.json"),
             (("features.csv", "features"), ("fairness.json", "breakdown"))),
        Step(("rank", "--features-csv", "features.csv", "--out", "ranking.json",
              "--pi-csv", "pi.csv"),
             (("ranking.json", "ranking"), ("pi.csv", "pi"))),
        Step(("abtest", "--group-a", "group_a.csv", "--group-b", "group_b.csv",
              "--os", "Android", "--out", "abtest.json"),
             (("abtest.json", "abtest"),)),
    ),
    "rank-wide": (
        Step(("rank", "--features-csv", "wide_features.csv", "--out", "ranking.json",
              "--pi-csv", "pi.csv"),
             (("ranking.json", "ranking"), ("pi.csv", "pi"))),
    ),
}


def _write(path: Path, text: str, rows: int) -> dict:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"rows": rows, "bytes": len(data)}


def _wide_table(rng: random.Random, n_mfis: int) -> list[FeatureVector]:
    # Integer fairness (0-4) makes ties on that feature common, as in the
    # real tables; the other features are continuous.
    return [
        FeatureVector(
            mfi_id=f"m{i:05d}",
            rating_norm=round(1.0 + 4.0 * rng.random(), 4),
            lar_norm=round(rng.random(), 6),
            fairness=rng.randint(0, 4),
            service_p90_sec=round(rng.uniform(300.0, 200_000.0), 1),
            epc=round(rng.uniform(0.0, 150.0), 6),
        )
        for i in range(n_mfis)
    ]


def make_inputs(workload: str, seed: int, workdir: Path, sizes: dict = FULL) -> dict:
    """Write the workload's input files into ``workdir``.

    Returns ``{file name: {"rows": data rows, "bytes": size}}``.
    """
    shape = sizes[workload]
    rng = random.Random(seed)
    if workload == "rank-wide":
        table = _wide_table(rng, shape["n_mfis"])
        return {"wide_features.csv": _write(workdir / "wide_features.csv",
                                            feature_csv(table), len(table))}

    conversions, products, clicks = generate_fixture(
        seed,
        n_mfis=shape["n_mfis"],
        n_clients=shape["n_clients"],
        config=FixtureConfig(n_weeks=shape["n_weeks"]),
    )
    files = {
        "conversions.csv": _write(workdir / "conversions.csv",
                                  serialize_conversions(conversions), len(conversions)),
        "products.csv": _write(workdir / "products.csv",
                               serialize_products(products), len(products)),
        "clicks.csv": _write(workdir / "clicks.csv", serialize_clicks(clicks), len(clicks)),
    }
    if workload == "snapshot":
        clients = sorted({r.client_id for r in conversions})
        in_a = {c for c in clients if rng.random() < 0.5}
        group_a = [r for r in conversions if r.client_id in in_a]
        group_b = [r for r in conversions if r.client_id not in in_a]
        files["group_a.csv"] = _write(workdir / "group_a.csv",
                                      serialize_conversions(group_a), len(group_a))
        files["group_b.csv"] = _write(workdir / "group_b.csv",
                                      serialize_conversions(group_b), len(group_b))
    return files
