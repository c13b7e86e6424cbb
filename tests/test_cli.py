"""End-to-end coverage of the command line, its artifacts and exit codes."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import warnings
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import PUBLISHED_PI, REFERENCE_RANKING, traced_peak
import mfirank.cli as cli
import mfirank.evaluate
from mfirank.cli import SERIES_COLUMNS, _dump_ranking, main
from mfirank.config import PipelineConfig, load_config
from mfirank.errors import InternalError
from mfirank.data import (
    DEFAULT_STATUS_MAP,
    ConversionRecord,
    LoanType,
    Status,
    Table,
    serialize_clicks,
    serialize_conversions,
    serialize_products,
)
from mfirank.evaluate import week_start
from mfirank.features import FeatureVector, feature_csv
from mfirank.fixtures import FixtureConfig, generate_fixture

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    assert main(["fixture", "--seed", "0", "--out-dir", str(out)]) == 0
    return out


def dataset_flags(directory) -> list[str]:
    return [
        "--conversions", str(directory / "conversions.csv"),
        "--products", str(directory / "products.csv"),
        "--clicks", str(directory / "clicks.csv"),
    ]


def abtest_flags(directory, out) -> list[str]:
    """Group flags of the conversions in ``directory`` split by client:
    every other client in sorted order is in group A.  The group files go
    to ``out``."""
    with open(directory / "conversions.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    client = header.index("client_id")
    in_a = set(sorted({row[client] for row in rows})[::2])
    flags = []
    for flag, name, keep in (("--group-a", "group_a.csv", True), ("--group-b", "group_b.csv", False)):
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [header, *(row for row in rows if (row[client] in in_a) is keep)]
            )
        flags += [flag, str(out / name)]
    return flags


@pytest.fixture(scope="session")
def evaluation_json(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval") / "evaluation.json"
    assert main(["evaluate", *dataset_flags(dataset_dir), "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# fixture + validate


def test_fixture_is_reproducible(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["fixture", "--seed", "5", "--out-dir", str(a)]) == 0
    assert main(["fixture", "--seed", "5", "--out-dir", str(b)]) == 0
    assert main(["fixture", "--seed", "6", "--out-dir", str(c)]) == 0
    for name in ("conversions.csv", "products.csv", "clicks.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "conversions.csv").read_bytes() != (c / "conversions.csv").read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["n_conversions"] > 0


def test_fixture_rejects_degenerate_sizes(tmp_path):
    assert main(["fixture", "--n-mfis", "1", "--out-dir", str(tmp_path / "x")]) == 1


def test_validate_reports_counts_and_digest(dataset_dir, tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", *dataset_flags(dataset_dir), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert payload["n_applications"] == manifest["n_conversions"]
    assert payload["n_products"] == manifest["n_products"]
    assert payload["n_clicks"] == manifest["n_clicks"]
    assert payload["row_errors"] == {"conversions": 0, "products": 0, "clicks": 0}
    assert sum(payload["status_shares"].values()) == pytest.approx(1.0)
    assert len(payload["config_digest"]) == 64


# ---------------------------------------------------------------------------
# features


def test_features_csv_and_breakdown(dataset_dir, tmp_path):
    out = tmp_path / "features.csv"
    breakdown = tmp_path / "fairness.json"
    rc = main([
        "features", *dataset_flags(dataset_dir),
        "--out", str(out), "--breakdown-json", str(breakdown),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_digest=")
    assert lines[1].split(",")[0] == "mfi_id"
    detail = json.loads(breakdown.read_text())
    assert set(detail) == {"config_digest", "fairness"}
    one = next(iter(detail["fairness"].values()))
    assert set(one) == {
        "points", "status_reporting", "on_time", "sla_met", "reliable", "sla_evaluable",
    }
    assert all(0 <= v["points"] <= 4 for v in detail["fairness"].values())


def test_features_breakdown_requires_fairness(dataset_dir, tmp_path):
    rc = main([
        "features", *dataset_flags(dataset_dir),
        "--features", "rating,lar",
        "--breakdown-json", str(tmp_path / "x.json"),
    ])
    assert rc == 1


def test_features_rejects_unknown_feature(dataset_dir, tmp_path):
    rc = main([
        "features", *dataset_flags(dataset_dir), "--features", "bogus",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 1


def test_features_accepts_datasets_with_a_byte_order_mark(dataset_dir, tmp_path):
    marked = tmp_path / "marked"
    marked.mkdir()
    for name in ("conversions.csv", "products.csv", "clicks.csv"):
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (dataset_dir / name).read_bytes())
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    assert main(["features", *dataset_flags(dataset_dir), "--out", str(plain)]) == 0
    assert main(["features", *dataset_flags(marked), "--out", str(bom)]) == 0
    assert bom.read_bytes() == plain.read_bytes()


def test_features_on_conversions_of_another_loan_type_is_a_data_error(
    dataset_dir, tmp_path, capsys
):
    conversions, _, _ = generate_fixture(0)
    long_term = [dataclasses.replace(r, loan_type=LoanType.LONG_TERM) for r in conversions]
    flags = dataset_flags(dataset_dir)
    flags[1] = str(tmp_path / "conversions.csv")
    (tmp_path / "conversions.csv").write_text(serialize_conversions(long_term))
    assert main(["features", *flags, "--out", str(tmp_path / "features.csv")]) == 2
    assert "no MFIs left after filtering" in capsys.readouterr().err


def test_evaluate_of_an_empty_selection_is_a_data_error(dataset_dir, tmp_path, capsys):
    # The fixture has no long-term rows.  A replay of none would write an
    # all-zero evaluation without a daily series, which `report` refuses.
    out, daily = tmp_path / "evaluation.json", tmp_path / "daily.csv"
    rc = main([
        "evaluate", *dataset_flags(dataset_dir), "--loan-type", "long-term",
        "--out", str(out), "--daily-csv", str(daily),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        "mfirank: data error: no applications left after filtering; nothing to replay\n"
    )
    assert not out.exists() and not daily.exists()


def test_features_on_broken_csv_is_a_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,value\nx,1\n")
    rc = main([
        "features",
        "--conversions", str(bad), "--products", str(bad), "--clicks", str(bad),
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2


# ---------------------------------------------------------------------------
# rank


def test_rank_reproduces_the_reference_ordering(golden_vectors, tmp_path):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors))
    out = tmp_path / "ranking.json"
    pi_csv = tmp_path / "pi.csv"
    rc = main([
        "rank", "--features-csv", str(table),
        "--out", str(out), "--pi-csv", str(pi_csv),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["ranking"] == REFERENCE_RANKING
    assert payload["power_converged"] is True
    assert payload["method_gap"] <= 1e-8
    for mfi, mass in payload["stationary"].items():
        assert mass == pytest.approx(PUBLISHED_PI[mfi], abs=1e-3)

    lines = pi_csv.read_text().splitlines()
    assert lines[0].startswith("# config_digest=")
    assert lines[1] == "mfi_id,pi,rank"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == REFERENCE_RANKING
    assert [int(r[2]) for r in rows] == list(range(1, 7))
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-10)


def test_rank_accepts_a_feature_csv_with_a_byte_order_mark(golden_vectors, tmp_path):
    table = tmp_path / "features.csv"
    table.write_text("\ufeff" + feature_csv(golden_vectors), encoding="utf-8")
    out = tmp_path / "ranking.json"
    assert main(["rank", "--features-csv", str(table), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ranking"] == REFERENCE_RANKING


def test_rank_needs_some_input():
    assert main(["rank"]) == 1


def test_rank_missing_feature_csv_is_a_data_error(tmp_path):
    assert main(["rank", "--features-csv", str(tmp_path / "nope.csv")]) == 2


def test_rank_rejects_a_repeated_mfi_id(golden_vectors, tmp_path, capsys):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv([*golden_vectors, golden_vectors[2]]))
    assert main(["rank", "--features-csv", str(table)]) == 2
    assert f"mfi_id '{golden_vectors[2].mfi_id}' more than once" in capsys.readouterr().err


def test_rank_on_a_malformed_feature_csv_is_a_data_error(golden_vectors, tmp_path, capsys):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors) + "m99," + "9" * 200_000 + "\n")
    assert main(["rank", "--features-csv", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mfirank: data error: feature CSV is malformed: field larger than")
    assert "Traceback" not in err


def test_rank_on_a_one_mfi_table_is_a_data_error(golden_vectors, tmp_path, capsys):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors[:1]))
    assert main(["rank", "--features-csv", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mfirank: data error: only one MFI")
    assert "Traceback" not in err


def test_a_stray_value_error_is_a_one_line_data_error(
    golden_vectors, tmp_path, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise ValueError("precondition broken")

    monkeypatch.setattr("mfirank.cli.rank_mfis", refuse)
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors))
    assert main(["rank", "--features-csv", str(table)]) == 2
    assert capsys.readouterr().err == "mfirank: data error: precondition broken\n"


def test_running_out_of_memory_is_one_line(dataset_dir, tmp_path, capsys, monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("mfirank.cli.feature_table", exhaust)
    out = tmp_path / "features.csv"
    assert main(["features", *dataset_flags(dataset_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "mfirank: out of memory in features: an allocation failed\n"
    assert not out.exists()


def test_rank_out_of_memory_names_k_in_one_line(tmp_path):
    # 700 MB of address space cannot hold the direct solve's k x k arrays at
    # k = 6000.  Only a failed allocation is caught: a kernel OOM kill is not.
    resource = pytest.importorskip("resource")
    rng = random.Random(0)
    table = tmp_path / "features.csv"
    table.write_text(feature_csv([
        FeatureVector(
            mfi_id=f"m{n:05d}", rating_norm=rng.uniform(3.0, 4.5), lar_norm=rng.uniform(0.05, 0.3),
            fairness=rng.randint(0, 4), service_p90_sec=rng.uniform(1e3, 3e5),
            epc=rng.uniform(0.5, 6.0),
        )
        for n in range(6000)
    ]), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    limit = 700_000 * 1024
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "mfirank.cli", "rank", "--features-csv", str(table),
         "--out", str(out / "ranking.json"), "--pi-csv", str(out / "pi.csv")],
        env=env, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert run.returncode == 2
    assert run.stderr == (
        "mfirank: out of memory in rank: k = 6,000 MFIs; "
        "one k x k float64 array is 288,000,000 bytes\n"
    )
    assert not list(out.iterdir())


def test_rank_json_is_what_json_dumps_gives(golden_vectors, tmp_path):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors))
    out = tmp_path / "ranking.json"
    assert main(["rank", "--features-csv", str(table), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    again = json.dumps(json.loads(text), sort_keys=True, indent=2, ensure_ascii=False)
    assert text == again + "\n"


def ranking_payload(ids, **extra) -> dict:
    k = len(ids)
    payload = {
        "config_digest": "0" * 64,
        "features": ["rating", "lar"],
        "order": list(ids),
        "stationary": {m: 1.0 / k for m in ids},
        "power_converged": True,
        "method_gap": 1.5e-17,
        "ranking": sorted(ids),
    }
    payload.update(extra)
    return payload


@pytest.mark.parametrize(
    "ids",
    [
        ("a", "b"),
        ("18", "20", "29", "56", "64", "87"),
        ("Сбер", "日本", "é"),
        ('say "hi"', "back\\slash", "new\nline", "tab\tand\u2028"),
        ("comparison_matrix", '"comparison_matrix": [', "}"),
    ],
)
@pytest.mark.parametrize(
    "extra",
    [
        {},
        {"method_gap": None},
        {"page_ranking": ["20", "日本"]},
        {"power_converged": False, "page_ranking": []},
    ],
)
@pytest.mark.parametrize("scale", [1, 0], ids=["one-digit", "all-zero"])
@pytest.mark.parametrize("to_stdout", [False, True])
def test_ranking_writer_matches_json_dumps(ids, extra, scale, to_stdout, tmp_path, capsys):
    payload = ranking_payload(ids, **extra)
    k = len(ids)
    counts = np.arange(k * k, dtype=np.int64).reshape(k, k) % 6 * scale
    np.fill_diagonal(counts, 0)
    want = json.dumps(
        {**payload, "comparison_matrix": counts.tolist()},
        sort_keys=True, indent=2, ensure_ascii=False,
    ) + "\n"
    if to_stdout:
        _dump_ranking(payload, counts, None)
        got = capsys.readouterr().out
    else:
        out = tmp_path / "ranking.json"
        _dump_ranking(payload, counts, str(out))
        got = out.read_bytes().decode("utf-8")
    assert got == want


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, showing the first difference only: pytest's own diff
    of megabytes of text takes minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        near = slice(max(at - 20, 0), at + 20)
        pytest.fail(f"texts differ at character {at}: {got[near]!r} vs {want[near]!r}")


@pytest.mark.parametrize(
    "k, block_bytes",
    [(7, 200), (600, None)],
    ids=["two-rows-per-block", "module-block"],
)
@pytest.mark.parametrize("scale", [1, 0], ids=["one-digit", "all-zero"])
@pytest.mark.parametrize("to_stdout", [False, True])
def test_ranking_writer_matches_json_dumps_across_blocks(
    k, block_bytes, scale, to_stdout, tmp_path, capsys, monkeypatch
):
    if block_bytes is not None:
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
    counts = np.arange(k * k, dtype=np.int64).reshape(k, k) % 6 * scale
    # a row's text: its frames and one line of nine bytes per cell
    row = 12 + k * 9
    per_block = cli._BLOCK_BYTES // row
    assert 0 < per_block < k and k % per_block  # several blocks and a remainder
    payload = ranking_payload(tuple(f"m{i}" for i in range(k)))
    want = json.dumps(
        {**payload, "comparison_matrix": counts.tolist()},
        sort_keys=True, indent=2, ensure_ascii=False,
    ) + "\n"
    if to_stdout:
        _dump_ranking(payload, counts, "-")
        got = capsys.readouterr().out
    else:
        out = tmp_path / "ranking.json"
        _dump_ranking(payload, counts, str(out))
        got = out.read_bytes().decode("utf-8")
    assert_same_text(got, want)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0)])
def test_ranking_writer_matches_json_dumps_on_an_empty_matrix(shape, tmp_path):
    counts = np.zeros(shape, dtype=np.uint8)
    payload = ranking_payload(("a", "b"))
    out = tmp_path / "ranking.json"
    _dump_ranking(payload, counts, str(out))
    assert out.read_text(encoding="utf-8") == json.dumps(
        {**payload, "comparison_matrix": counts.tolist()},
        sort_keys=True, indent=2, ensure_ascii=False,
    ) + "\n"


@pytest.mark.parametrize("top", [10, 255])
def test_ranking_writer_refuses_a_count_of_two_digits(top, tmp_path):
    counts = np.array([[0, top], [1, 0]], dtype=np.uint8)
    out = tmp_path / "ranking.json"
    with pytest.raises(InternalError, match=f"comparison counts outside 0-9: 0 to {top}"):
        _dump_ranking(ranking_payload(("a", "b")), counts, str(out))
    assert not out.exists()


def test_ranking_writer_memory_does_not_grow_with_k(tmp_path):
    # about 19 MiB of text at k = 1500, written in blocks of about 1 MiB
    budget = 8 << 20
    k = 1500
    counts = (np.arange(k * k) % 6).astype(np.uint8).reshape(k, k)
    payload = ranking_payload(tuple(f"m{i:05d}" for i in range(k)))
    out = tmp_path / "ranking.json"
    assert traced_peak(lambda: _dump_ranking(payload, counts, str(out))) < budget
    assert out.stat().st_size > 2 * budget


def test_rank_rejects_feature_subset_mismatch(golden_vectors, tmp_path):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors))
    rc = main(["rank", "--features-csv", str(table), "--features", "rating,bogus"])
    assert rc == 1


def test_rank_rejects_bad_damping(golden_vectors, tmp_path):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors))
    assert main(["rank", "--features-csv", str(table), "--damping", "1.5"]) == 1


def test_rank_is_deterministic(golden_vectors, tmp_path):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors))
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    assert main(["rank", "--features-csv", str(table), "--out", str(first)]) == 0
    assert main(["rank", "--features-csv", str(table), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# evaluate + report


def test_evaluate_payload_shape(evaluation_json):
    payload = json.loads(evaluation_json.read_text())
    assert set(payload) == {"config_digest", "replay", "weekly_totals", "weeks", "daily"}
    assert payload["weeks"][0]["source"] == "historical"
    assert {w["source"] for w in payload["weeks"][1:]} <= {"ranked", "carried"}
    coverage = payload["replay"]["coverage"]
    assert coverage["processed"] > 0
    assert payload["daily"], "daily series must not be empty"


def test_evaluate_is_deterministic(dataset_dir, tmp_path):
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    d1, d2 = tmp_path / "one.csv", tmp_path / "two.csv"
    args = ["evaluate", *dataset_flags(dataset_dir)]
    assert main([*args, "--out", str(first), "--daily-csv", str(d1)]) == 0
    assert main([*args, "--out", str(second), "--daily-csv", str(d2)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert d1.read_bytes() == d2.read_bytes()


def test_evaluate_ranks_every_week_with_the_configured_tie_eps(
    dataset_dir, evaluation_json, tmp_path
):
    def ranked_weeks(payload):
        return [w["ranking"] for w in payload["weeks"] if w["source"] == "ranked"]

    # With the default tolerance some week is not in id order ...
    assert any(r != sorted(r) for r in ranked_weeks(json.loads(evaluation_json.read_text())))
    # ... and with every feature and mass tied, each week falls back to id order.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tie_eps": 1000}), encoding="utf-8")
    out = tmp_path / "evaluation.json"
    args = ["evaluate", *dataset_flags(dataset_dir), "--config", str(config)]
    assert main([*args, "--out", str(out)]) == 0
    weeks = ranked_weeks(json.loads(out.read_text()))
    assert weeks and all(r == sorted(r) for r in weeks)


def _with_last_click_time(path: Path, stamp: str) -> None:
    """Rewrite the last row of the CSV at ``path`` with ``stamp`` as its click_time."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    rows[-1][header.index("click_time")] = stamp
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


@pytest.mark.parametrize("dataset", ["conversions", "clicks"])
def test_a_click_in_the_last_days_of_year_9999_is_a_data_error(tmp_path, capsys, dataset):
    # From the fixture's 2023 to 9999-12-31 is more days than a replay may
    # span: one data error line before any week (any day, for a click).
    assert main(["fixture", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    _with_last_click_time(tmp_path / f"{dataset}.csv", "9999-12-31 23:59:59")
    capsys.readouterr()
    start = time.perf_counter()
    rc = main(["evaluate", *dataset_flags(tmp_path), "--out", str(tmp_path / "evaluation.json")])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("mfirank: data error: click_time ") and "9999-12-31" in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("dataset", ["conversions", "clicks"])
def test_a_click_in_the_year_1_is_a_data_error(tmp_path, capsys, dataset):
    # From 0001-01-01 to the fixture's last day is 738,577 days, far more
    # than a replay may span: one data error line and exit 2, at once.
    assert main(["fixture", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    _with_last_click_time(tmp_path / f"{dataset}.csv", "0001-01-01 00:00:00")
    capsys.readouterr()
    start = time.perf_counter()
    rc = main(["evaluate", *dataset_flags(tmp_path), "--out", str(tmp_path / "evaluation.json")])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("mfirank: data error: click_time ") and "0001-01-01" in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert elapsed < 1.0
    assert not (tmp_path / "evaluation.json").exists()


def test_a_conversion_clicked_in_2200_ranks_each_training_prefix_once(tmp_path):
    # The stray conversion stretches the replay to 9,236 weeks, but past the
    # log's own eight no row falls in a week: each later week trains on the
    # prefixes of the last week trained on, keeps its ranking and ranks
    # nothing.  The artifact keeps the bytes that ranking every week gave.
    assert main(["fixture", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    _with_last_click_time(tmp_path / "conversions.csv", "2200-01-01 00:00:00")
    out = tmp_path / "evaluation.json"
    with mock.patch("mfirank.evaluate.rank_mfis", wraps=mfirank.evaluate.rank_mfis) as ranked:
        assert main(["evaluate", *dataset_flags(tmp_path), "--out", str(out)]) == 0
    weeks = json.loads(out.read_bytes())["weeks"]
    assert len(weeks) == 9236
    assert ranked.call_count == len({w["trained_on"] for w in weeks if w["trained_on"]}) == 8
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "5720d5104c532a34f7c2fe4a2b57477d5b3618ac5f91b155202d5ffdae31a400"
    )


def shuffled_feature_csvs(k: int, directory: Path) -> tuple[Path, Path]:
    """A feature CSV of ``k`` MFIs with tied integer fairness, and a copy
    with its data rows shuffled."""
    rng = random.Random(k)
    vectors = [
        FeatureVector(
            mfi_id=f"m{n:05d}", rating_norm=rng.uniform(3.0, 4.5), lar_norm=rng.uniform(0.05, 0.3),
            fairness=rng.randint(0, 4), service_p90_sec=rng.uniform(1e3, 3e5),
            epc=rng.uniform(0.5, 6.0),
        )
        for n in range(k)
    ]
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    paths = directory / f"features-{k}.csv", directory / f"shuffled-{k}.csv"
    for path, rows in zip(paths, (vectors, shuffled)):
        path.write_text(feature_csv(rows), encoding="utf-8")
    return paths


@pytest.mark.parametrize("k", [40, 1000])
def test_rank_bytes_do_not_depend_on_the_row_order(tmp_path, k):
    # The solve rounds differently on a permuted matrix; rank_mfis takes the
    # table in id order first.  Both runs share one environment, BLAS
    # threads included.
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for table in shuffled_feature_csvs(k, tmp_path):
        out = tmp_path / table.stem
        out.mkdir()
        subprocess.run(
            [sys.executable, "-m", "mfirank.cli", "rank", "--features-csv", str(table),
             "--out", str(out / "ranking.json"), "--pi-csv", str(out / "pi.csv")],
            env=env, check=True,
        )
        outputs.append({name: (out / name).read_bytes() for name in ("ranking.json", "pi.csv")})
    assert outputs[0] == outputs[1]


# SHA-256 of the `mfirank fixture --seed 0` CSVs and of the artifacts
# computed from them, recorded before the feature code became incremental
# (the CSVs before the parsers became table-driven; validation.json,
# fairness.json, weekly.csv and evaluation-all.json before the client
# history became the records themselves; abtest.json, of the groups of
# :func:`abtest_flags` with --os Android, before abtest read the tables).
# ranking.json and pi.csv are left
# out: their pi values come from a BLAS solve and may differ in the last
# bit across CPUs.
GOLDEN_SHA256 = {
    "conversions.csv": "8dc9b75a9d70df06d9a737eabbc8320f2a4d9dff8240155831a85c21a6d8f186",
    "products.csv": "0b57cd03e1b6fb36c90c03eaa08bccd6fdf008147ee2299aa09db32a069a9f94",
    "clicks.csv": "bbaa18445cb6876024ee1e82a42905e1f2e75888e67310ec4b13c596a048785b",
    "features.csv": "c73cd7cfd2515a53ea331057e20b404ce1b32bec934896f26ede9d799a5beebd",
    "evaluation.json": "7de30263d8adc647d5032d8c345ba0c452f43a9022f9368418b644f973780e08",
    "daily.csv": "b0c3d2f508daeb7c64f97775c666a65addfc49c4447457f2d6e40d48001b6e30",
    "validation.json": "519537eae81f178697839a179771b2f60d50e783de7cdfb1281384927408a56f",
    "fairness.json": "7375c9747a9ecbcc221a76bf2389186e032692e26a2e1c09879cdf7c7eca5736",
    "weekly.csv": "0943e27fd147b442b4372cfb9e9dbd0412f37e9e6f13b58e2fc45094bff33380",
    "evaluation-all.json": "cb42dbd908f708209a7a48f5bc635824380f98cd1a3039105a5d210c9a8681e9",
    "abtest.json": "abd80e50207ee7857a0df3fabc8b2ea188bf53e944e97c834f440578a7b14f6c",
}


def test_fixture_artifacts_match_the_golden_digests(tmp_path):
    assert main(["fixture", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    flags = dataset_flags(tmp_path)
    assert main(["validate", *flags, "--out", str(tmp_path / "validation.json")]) == 0
    assert main([
        "features", *flags,
        "--out", str(tmp_path / "features.csv"),
        "--breakdown-json", str(tmp_path / "fairness.json"),
    ]) == 0
    assert main([
        "evaluate", *flags,
        "--out", str(tmp_path / "evaluation.json"),
        "--daily-csv", str(tmp_path / "daily.csv"),
    ]) == 0
    assert main([
        "report", "--evaluation", str(tmp_path / "evaluation.json"),
        "--weekly", "--out", str(tmp_path / "weekly.csv"),
    ]) == 0
    assert main([
        "evaluate", *flags, "--loan-type", "all",
        "--out", str(tmp_path / "evaluation-all.json"),
    ]) == 0
    assert main([
        "abtest", *abtest_flags(tmp_path, tmp_path), "--os", "Android",
        "--out", str(tmp_path / "abtest.json"),
    ]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256


def test_no_command_builds_conversion_or_click_records(tmp_path):
    # Every command runs on the parsed tables; only the product cards (a few
    # dozen rows) become records.
    assert main(["fixture", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    flags = dataset_flags(tmp_path)
    built = Table.records

    def records(table):
        if table.dataset.name != "products":
            raise AssertionError(f"built {table.dataset.name} records")
        return built(table)

    with mock.patch.object(Table, "records", records):
        assert main(["validate", *flags, "--out", str(tmp_path / "validation.json")]) == 0
        assert main([
            "features", *flags,
            "--out", str(tmp_path / "features.csv"),
            "--breakdown-json", str(tmp_path / "fairness.json"),
        ]) == 0
        assert main([
            "evaluate", *flags,
            "--out", str(tmp_path / "evaluation.json"),
            "--daily-csv", str(tmp_path / "daily.csv"),
        ]) == 0
        assert main([
            "evaluate", *flags, "--loan-type", "all",
            "--out", str(tmp_path / "evaluation-all.json"),
        ]) == 0
        assert main([
            "abtest", *abtest_flags(tmp_path, tmp_path), "--os", "Android",
            "--out", str(tmp_path / "abtest.json"),
        ]) == 0
    for name in ("validation.json", "features.csv", "fairness.json", "evaluation.json",
                 "daily.csv", "evaluation-all.json", "abtest.json"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN_SHA256[name]


def test_artifacts_do_not_depend_on_the_hash_seed(dataset_dir, tmp_path):
    # Interned codes are first-seen, never in set order: the artifacts of
    # interpreters with different string hashes are byte-identical.
    outputs = {}
    for seed in ("0", "1"):
        out = tmp_path / seed
        out.mkdir()
        flags = dataset_flags(dataset_dir)
        commands = [
            ["validate", *flags, "--out", str(out / "validation.json")],
            ["features", *flags, "--out", str(out / "features.csv"),
             "--breakdown-json", str(out / "fairness.json")],
            ["evaluate", *flags, "--out", str(out / "evaluation.json"),
             "--daily-csv", str(out / "daily.csv")],
            ["abtest", *abtest_flags(dataset_dir, tmp_path), "--os", "Android",
             "--out", str(out / "abtest.json")],
        ]
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        for argv in commands:
            subprocess.run([sys.executable, "-m", "mfirank.cli", *argv], env=env, check=True)
        outputs[seed] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(outputs["0"]) == 6
    assert outputs["0"] == outputs["1"]


def _on_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity (Linux)")
def test_artifacts_do_not_depend_on_the_cpu_count(tmp_path):
    data = tmp_path / "data"
    assert main(["fixture", "--seed", "0", "--n-clients", "6000", "--out-dir", str(data)]) == 0
    flags = dataset_flags(data)
    groups = abtest_flags(data, data)
    outputs = {}
    for run, pin in (("split", None), ("pinned", _on_one_cpu)):
        out = tmp_path / run
        out.mkdir()
        commands = [
            ["validate", *flags, "--out", str(out / "validation.json")],
            ["features", *flags, "--out", str(out / "features.csv"),
             "--breakdown-json", str(out / "fairness.json")],
            ["evaluate", *flags, "--out", str(out / "evaluation.json"),
             "--daily-csv", str(out / "daily.csv")],
            ["abtest", *groups, "--os", "Android", "--out", str(out / "abtest.json")],
        ]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        for argv in commands:
            subprocess.run([sys.executable, "-m", "mfirank.cli", *argv], env=env, check=True,
                           preexec_fn=pin)
        outputs[run] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(outputs["split"]) == 6
    assert outputs["split"] == outputs["pinned"]


def test_report_emits_the_plot_series(evaluation_json, tmp_path):
    out = tmp_path / "series.csv"
    assert main(["report", "--evaluation", str(evaluation_json), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_digest=")
    assert lines[1] == ",".join(SERIES_COLUMNS) == "date,income,share_per_click,algorithm"

    payload = json.loads(evaluation_json.read_text())
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2 * len(payload["daily"])
    assert [r[3] for r in rows[0::2]] == ["historical"] * len(payload["daily"])
    assert [r[3] for r in rows[1::2]] == ["vra"] * len(payload["daily"])
    dates = [r[0] for r in rows[0::2]]
    assert dates == sorted(dates)
    span = datetime.fromisoformat(dates[-1]) - datetime.fromisoformat(dates[0])
    assert len(dates) == span.days + 1
    for row in rows:
        float(row[1]), float(row[2])  # numeric columns parse


def test_report_weekly_sums_match_the_days(evaluation_json, tmp_path):
    daily_csv = tmp_path / "daily.csv"
    weekly_csv = tmp_path / "weekly.csv"
    assert main(["report", "--evaluation", str(evaluation_json), "--out", str(daily_csv)]) == 0
    rc = main([
        "report", "--evaluation", str(evaluation_json), "--weekly", "--out", str(weekly_csv),
    ])
    assert rc == 0

    def series(path):
        per_key: dict[tuple[str, str], float] = {}
        for line in path.read_text().splitlines()[2:]:
            day, income, _, algo = line.split(",")
            per_key[(day, algo)] = float(income)
        return per_key

    daily = series(daily_csv)
    weekly = series(weekly_csv)
    assert 0 < len(weekly) < len(daily)
    for (day, algo), income in weekly.items():
        monday = datetime.fromisoformat(day)
        expected = sum(
            v for (d, a), v in daily.items()
            if a == algo and week_start(datetime.fromisoformat(d)) == monday
        )
        assert income == pytest.approx(expected, rel=1e-9), (day, algo)


def test_report_reads_an_evaluation_with_a_byte_order_mark(evaluation_json, tmp_path):
    marked = tmp_path / "evaluation.json"
    marked.write_bytes(b"\xef\xbb\xbf" + evaluation_json.read_bytes())
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    assert main(["report", "--evaluation", str(evaluation_json), "--out", str(plain)]) == 0
    assert main(["report", "--evaluation", str(marked), "--out", str(bom)]) == 0
    assert bom.read_bytes() == plain.read_bytes()


def test_report_rejects_json_without_the_series(tmp_path):
    bogus = tmp_path / "eval.json"
    bogus.write_text('{"replay": {}}')
    assert main(["report", "--evaluation", str(bogus), "--out", "-"]) == 2


def test_report_missing_file_is_a_data_error(tmp_path):
    assert main(["report", "--evaluation", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "option, code, message",
    [
        ("--config", 1, "config error: config file is not UTF-8 text"),
        ("--features-csv", 2, "data error: feature table is not UTF-8 text"),
        ("--evaluation", 2, "data error: evaluation file is not UTF-8 text"),
    ],
)
def test_an_input_file_that_is_not_utf8_is_named_in_one_line(
    golden_vectors, tmp_path, capsys, option, code, message
):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b'{"damping": "\xff"}\n')
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors))
    argv = {
        "--config": ["rank", "--features-csv", str(table), "--config", str(bad)],
        "--features-csv": ["rank", "--features-csv", str(bad)],
        "--evaluation": ["report", "--evaluation", str(bad)],
    }[option]
    assert main([*argv, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"mfirank: {message}: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def _one_day_changed(evaluation_json, path, change) -> str:
    """Write ``evaluation_json`` with ``change`` applied to its first day;
    a value of ``RAW`` below is replaced by raw JSON text, so that NaN and
    1e400 reach the reader as written."""
    payload = json.loads(evaluation_json.read_text())
    raw = change(payload["daily"])
    text = json.dumps(payload)
    if raw is not None:
        text = text.replace('"RAW"', raw, 1)
    path.write_text(text)
    return payload["daily"][0].get("date") if isinstance(payload["daily"][0], dict) else None


def _set(*keys, value="RAW", raw=None):
    def change(days):
        target = days[0]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return raw
    return change


def _drop(*keys):
    def change(days):
        target = days[0]
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
    return change


def _replace_day(days):
    days[0] = 5


@pytest.mark.parametrize("weekly", [False, True], ids=["daily", "weekly"])
@pytest.mark.parametrize(
    "change, message",
    [
        (_replace_day, "entry 0: 'date' must be an ISO date"),
        (_drop("date"), "entry 0: 'date' must be an ISO date"),
        (_set("date", value="someday"), "entry 0: 'date' must be an ISO date"),
        (_drop("clicks"), "{date}: 'clicks' must be a non-negative integer"),
        (_set("clicks", value="3"), "{date}: 'clicks' must be a non-negative integer"),
        (_set("clicks", value=True), "{date}: 'clicks' must be a non-negative integer"),
        (_set("clicks", value=-4), "{date}: 'clicks' must be a non-negative integer"),
        (_set("clicks", raw="1e400"), "{date}: 'clicks' must be a non-negative integer"),
        (_drop("vra"), "{date}: 'vra.income' must be a finite number"),
        (_set("vra", value=3), "{date}: 'vra.income' must be a finite number"),
        (_drop("historical", "sales"), "{date}: 'historical.sales' must be a finite number"),
        (_set("historical", "income", value="abc"),
         "{date}: 'historical.income' must be a finite number"),
        (_set("historical", "income", raw="NaN"),
         "{date}: 'historical.income' must be a finite number"),
        (_set("vra", "income", value=False), "{date}: 'vra.income' must be a finite number"),
        (_set("vra", "sales", raw="1e400"), "{date}: 'vra.sales' must be a finite number"),
        (_set("vra", "sales", raw="-Infinity"), "{date}: 'vra.sales' must be a finite number"),
        (_set("vra", "sales", raw="1" + "0" * 400),
         "{date}: 'vra.sales' must be a finite number"),
    ],
)
def test_report_rejects_a_malformed_day_naming_its_date(
    evaluation_json, tmp_path, capsys, change, message, weekly
):
    bad = tmp_path / "evaluation.json"
    date = _one_day_changed(evaluation_json, bad, change)
    out = tmp_path / "series.csv"
    argv = ["report", "--evaluation", str(bad), "--out", str(out)]
    assert main([*argv, "--weekly"] if weekly else argv) == 2
    expected = "mfirank: data error: daily series is malformed: " + message.format(date=date)
    assert capsys.readouterr().err == expected + "\n"
    assert not out.exists()


def test_report_names_a_missing_and_a_mistyped_key_alike(evaluation_json, tmp_path, capsys):
    errors = []
    for change in (_drop("clicks"), _set("clicks", value=[1])):
        bad = tmp_path / "evaluation.json"
        _one_day_changed(evaluation_json, bad, change)
        assert main(["report", "--evaluation", str(bad)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]


def test_evaluate_writes_four_digit_years(year_999_triple, tmp_path):
    conversions, products, clicks = year_999_triple
    (tmp_path / "conversions.csv").write_text(serialize_conversions(conversions))
    (tmp_path / "products.csv").write_text(serialize_products(products))
    (tmp_path / "clicks.csv").write_text(serialize_clicks(clicks))
    out = tmp_path / "evaluation.json"
    assert main(["evaluate", *dataset_flags(tmp_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    weeks = [w["week_start"] for w in payload["weeks"]]
    assert weeks == [t["week"] for t in payload["weekly_totals"]]
    assert weeks[0].startswith("0998-12-")


def test_single_week_replay_coincides_with_history(tmp_path):
    conversions, products, clicks = generate_fixture(3, config=FixtureConfig(n_weeks=1))
    monday = week_start(min(r.click_time for r in conversions))
    keep = lambda r: week_start(r.click_time) == monday
    conversions = [r for r in conversions if keep(r)]
    clicks = [c for c in clicks if keep(c)]
    (tmp_path / "conversions.csv").write_text(serialize_conversions(conversions))
    (tmp_path / "products.csv").write_text(serialize_products(products))
    (tmp_path / "clicks.csv").write_text(serialize_clicks(clicks))

    out = tmp_path / "evaluation.json"
    assert main(["evaluate", *dataset_flags(tmp_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [w["source"] for w in payload["weeks"]] == ["historical"]
    coverage = payload["replay"]["coverage"]
    assert coverage["copied"] == coverage["processed"] > 0
    assert payload["replay"]["total_lar"] == payload["replay"]["historical_lar"]
    for day in payload["daily"]:
        assert day["vra"]["income"] == pytest.approx(day["historical"]["income"])
        assert day["vra"]["sales"] == pytest.approx(day["historical"]["sales"])


# ---------------------------------------------------------------------------
# abtest


def test_abtest_fisher_counts(capsys):
    assert main(["abtest", "--fisher", "126", "7368", "206", "14685"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rates"]["fisher_p_a_greater"] == pytest.approx(0.045, abs=0.005)
    assert payload["income"] is None


def test_abtest_fisher_rejects_impossible_counts():
    assert main(["abtest", "--fisher", "10", "5", "1", "10"]) == 1


def test_abtest_flag_conflicts(tmp_path):
    group = tmp_path / "g.csv"
    group.write_text("mfi_id,loan_type,click_time,status,client_id\n")
    base = ["abtest", "--fisher", "1", "2", "1", "2"]
    assert main([*base, "--group-a", str(group)]) == 1
    assert main([*base, "--os", "iOS"]) == 1
    assert main(["abtest"]) == 1
    assert main(["abtest", "--group-a", str(group)]) == 1


def group_csv(path, specs):
    t0 = datetime(2021, 3, 1, 10, 0, 0)
    records = []
    for i, (status, income, os_name) in enumerate(specs):
        click = t0 + timedelta(hours=i)
        records.append(
            ConversionRecord(
                mfi_id="18",
                loan_type=LoanType.STANDARD,
                client_id=f"c{i}",
                click_time=click,
                status=status,
                conversion_time=click + timedelta(minutes=5),
                sale_time=click + timedelta(hours=1) if status is Status.SALE else None,
                income=income,
                os=os_name,
            )
        )
    path.write_text(serialize_conversions(records))


def test_abtest_group_files_with_association(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    group_csv(a, [
        (Status.SALE, 10.0, "iOS"),
        (Status.SALE, 20.0, "iOS"),
        (Status.SALE, 30.0, "Android"),
        (Status.REJECTED, None, "iOS"),
    ])
    group_csv(b, [
        (Status.SALE, 5.0, "iOS"),
        (Status.SALE, 5.0, "Android"),
        (Status.REJECTED, None, "Android"),
        (Status.REJECTED, None, "Android"),
    ])
    out = tmp_path / "ab.json"
    rc = main([
        "abtest", "--group-a", str(a), "--group-b", str(b), "--os", "ios",
        "--level", "0.95", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["rates"]["group_a"] == {"sales": 3, "total": 4}
    assert payload["rates"]["group_b"] == {"sales": 2, "total": 4}
    assert 0.0 < payload["rates"]["fisher_p_a_greater"] < 1.0
    assert payload["income"]["n_a"] == 3 and payload["income"]["n_b"] == 2
    assert 0.0 <= payload["income"]["p_a_greater"] <= 1.0
    assoc = payload["association"]
    assert assoc["cells"] == {"n11": 3, "n10": 1, "n01": 2, "n00": 2}
    lo, hi = assoc["ci"]
    assert lo <= assoc["yule_y"] <= hi
    assert assoc["level"] == 0.95


def test_abtest_os_that_no_application_runs_is_a_data_error(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    group_csv(a, [(Status.SALE, 10.0, "iOS"), (Status.REJECTED, None, "Android")])
    group_csv(b, [(Status.SALE, 5.0, "Android"), (Status.REJECTED, None, None)])
    out = tmp_path / "ab.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["abtest", "--group-a", str(a), "--group-b", str(b), "--os", "Symbian",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "mfirank: data error: no application in either group runs OS 'Symbian'; "
        "its association with approval is undefined\n"
    )
    assert not out.exists()


def test_abtest_os_that_every_application_runs_is_a_data_error(tmp_path, capsys):
    # Both cells of the other OSes are empty: Yule's Y would be a number
    # made up by the continuity correction.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    group_csv(a, [(Status.SALE, 10.0, "iOS"), (Status.REJECTED, None, "iOS")])
    group_csv(b, [(Status.SALE, 5.0, "iOS"), (Status.REJECTED, None, "ios")])
    out = tmp_path / "ab.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["abtest", "--group-a", str(a), "--group-b", str(b), "--os", "iOS",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "mfirank: data error: every application in both groups runs OS 'iOS'; "
        "its association with approval is undefined\n"
    )
    assert not out.exists()


def test_abtest_os_that_every_application_runs_warns_nothing_in_a_fresh_process(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    group_csv(a, [(Status.SALE, 10.0, "iOS"), (Status.REJECTED, None, "iOS")])
    group_csv(b, [(Status.SALE, 5.0, "iOS"), (Status.REJECTED, None, "iOS")])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "mfirank.cli", "abtest", "--group-a", str(a), "--group-b", str(b),
         "--os", "iOS", "--out", str(tmp_path / "ab.json")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert done.stderr == (
        "mfirank: data error: every application in both groups runs OS 'iOS'; "
        "its association with approval is undefined\n"
    )
    assert not (tmp_path / "ab.json").exists()


def test_abtest_empty_group_is_a_data_error(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("mfi_id,loan_type,click_time,status,client_id\n")
    group_csv(b, [(Status.SALE, 5.0, "iOS")])
    assert main(["abtest", "--group-a", str(a), "--group-b", str(b)]) == 2


# ---------------------------------------------------------------------------
# outputs that cannot be written


# Every output flag of every subcommand.
OUTPUT_FLAGS = [
    ("validate", "--out"),
    ("features", "--out"),
    ("features", "--breakdown-json"),
    ("rank", "--out"),
    ("rank", "--pi-csv"),
    ("evaluate", "--out"),
    ("evaluate", "--daily-csv"),
    ("abtest", "--out"),
    ("report", "--out"),
    ("fixture", "--out-dir"),
]


@pytest.mark.parametrize("command, flag", OUTPUT_FLAGS)
def test_an_unwritable_output_is_a_one_line_config_error(
    command, flag, dataset_dir, evaluation_json, golden_vectors, tmp_path
):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors))
    inputs = {
        "validate": dataset_flags(dataset_dir),
        "features": dataset_flags(dataset_dir),
        "rank": ["--features-csv", str(table)],
        "evaluate": dataset_flags(dataset_dir),
        "abtest": abtest_flags(dataset_dir, tmp_path),
        "report": ["--evaluation", str(evaluation_json)],
        "fixture": ["--n-clients", "20"],
    }[command]
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    bad = blocker / "out"  # no file and no directory can be made under a file
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "mfirank.cli", command, *inputs, flag, str(bad)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.splitlines()
    assert line == f"mfirank: config error: cannot write {bad}: Not a directory"


@pytest.mark.parametrize("command", ["rank", "evaluate"])
def test_a_standard_output_with_no_reader_is_one_error_line(
    command, dataset_dir, golden_vectors, tmp_path
):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors))
    inputs = ["--features-csv", str(table)] if command == "rank" else dataset_flags(dataset_dir)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    # A pipe whose read end is closed before the command starts: every
    # write to it fails with EPIPE, as once `| head -c 100` has exited.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "mfirank.cli", command, *inputs, "--out", "-"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1, done.stderr
    assert done.stderr == "mfirank: config error: cannot write standard output: Broken pipe\n"


@pytest.mark.parametrize(
    "where, reason",
    [("missing-dir", "No such file or directory"), ("a-directory", "Is a directory")],
)
def test_an_output_path_that_cannot_be_opened_is_a_config_error(
    where, reason, golden_vectors, tmp_path, capsys
):
    table = tmp_path / "features.csv"
    table.write_text(feature_csv(golden_vectors))
    bad = tmp_path / "no" / "such" / "ranking.json" if where == "missing-dir" else tmp_path
    assert main(["rank", "--features-csv", str(table), "--out", str(bad)]) == 1
    assert capsys.readouterr().err == f"mfirank: config error: cannot write {bad}: {reason}\n"


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_exits_with_one():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


@pytest.mark.parametrize(
    "schema",
    [
        {"false_strings": ["yes"]},
        {"true_strings": ["ok", "нет"]},
        {"true_strings": ["Да"], "false_strings": ["да"]},
    ],
)
def test_a_spelling_in_both_flag_lists_is_a_config_error(dataset_dir, tmp_path, schema):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(schema), encoding="utf-8")
    args = ["validate", *dataset_flags(dataset_dir), "--out", str(tmp_path / "v.json")]
    assert main([*args, "--config", str(config)]) == 1
    config.write_text(json.dumps({"true_strings": ["ok"], "false_strings": ["nope"]}))
    assert main([*args, "--config", str(config)]) == 0


def test_a_config_file_with_a_byte_order_mark_is_read(dataset_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("\ufeff" + json.dumps({"damping": 0.25}), encoding="utf-8")
    out = tmp_path / "v.json"
    args = ["validate", *dataset_flags(dataset_dir), "--out", str(out)]
    assert main([*args, "--config", str(config)]) == 0
    assert main([*args, "--damping", "0.25", "--out", str(tmp_path / "w.json")]) == 0
    assert out.read_bytes() == (tmp_path / "w.json").read_bytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"tie_eps": NaN}', "tie_eps must be finite and positive"),
        ('{"tie_eps": Infinity}', "tie_eps must be finite and positive"),
        ('{"min_support": 1e400}', "config key 'min_support' must be a whole number"),
        ('{"min_support": 2.7}', "config key 'min_support' must be a whole number"),
        ('{"min_support": NaN}', "config key 'min_support' must be a whole number"),
    ],
)
@pytest.mark.parametrize("command", ["evaluate", "rank"])
def test_a_non_finite_or_fractional_setting_is_a_config_error(
    dataset_dir, tmp_path, capsys, command, text, message
):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    args = [command, *dataset_flags(dataset_dir), "--config", str(config)]
    assert main([*args, "--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == f"mfirank: config error: {message}\n"


@pytest.mark.parametrize("key", ["damping", "tie_eps", "confidence_level", "min_support"])
@pytest.mark.parametrize("value", ["true", "false"])
def test_a_boolean_setting_is_a_config_error(dataset_dir, tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(f'{{"{key}": {value}}}', encoding="utf-8")
    args = ["validate", *dataset_flags(dataset_dir), "--config", str(config)]
    assert main([*args, "--out", str(tmp_path / "out.json")]) == 1
    kind = "a whole number" if key == "min_support" else "a number"
    assert capsys.readouterr().err == f"mfirank: config error: config key {key!r} must be {kind}\n"


def test_a_whole_float_min_support_keeps_the_config_digest(dataset_dir, tmp_path):
    args = ["validate", *dataset_flags(dataset_dir)]
    digests = []
    for text in ('{"min_support": 3}', '{"min_support": 3.0}', '{"tie_eps": 1e-9}', "{}"):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "v.json"
        assert main([*args, "--config", str(config), "--out", str(out)]) == 0
        digests.append(json.loads(out.read_text())["config_digest"])
    assert digests[0] == digests[1] != digests[2] == digests[3]


@pytest.mark.parametrize(
    "command, flag, key, value",
    [
        ("features", "--features=rating,lar,epc", "features", ["rating", "lar", "epc"]),
        ("rank", "--damping=0.25", "damping", 0.25),
        ("evaluate", "--min-support=2", "min_support", 2),
        ("features", "--loan-type=all", "loan_type", "all"),
        ("abtest", "--level=0.9", "confidence_level", 0.9),
    ],
)
def test_a_flag_gives_the_bytes_of_its_config_key(dataset_dir, tmp_path, command, flag, key, value):
    if command == "abtest":
        conversions = str(dataset_dir / "conversions.csv")
        inputs = ["--group-a", conversions, "--group-b", conversions, "--os", "Android"]
    else:
        inputs = dataset_flags(dataset_dir)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    outputs = {}
    for name, extra in (("flag", [flag]), ("file", ["--config", str(config)]), ("default", [])):
        out = tmp_path / f"{name}.out"
        assert main([command, *inputs, *extra, "--out", str(out)]) == 0
        outputs[name] = out.read_bytes()
    assert outputs["flag"] == outputs["file"] != outputs["default"]


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("features", '{"duration_rules": [{"pattern": "(", "scale": 60}]}',
         "duration rule pattern '(' does not compile: missing ), unterminated subpattern"),
        ("features", '{"duration_rules": [{"pattern": "min", "scale": NaN}]}',
         "duration rule 'min': scale must be a finite number >= 0"),
        ("features", '{"duration_rules": [{"pattern": "min", "scale": true}]}',
         "duration rule 'min': scale must be a finite number >= 0"),
        ("features", '{"duration_rules": [{"pattern": "min", "scale": -60}]}',
         "duration rule 'min': scale must be a finite number >= 0"),
        ("features", '{"duration_rules": [{"pattern": "min", "scale": "60"}]}',
         "duration rule 'min': scale must be a finite number >= 0"),
        ("features", '{"duration_rules": {"pattern": "min", "scale": 60}}',
         "duration_rules must be a list of {pattern, scale} objects"),
        ("rank", '{"page_constraints": {"age_min": {"max": "18"}}}',
         "page constraint 'age_min': a range holds only finite min/max"),
        ("rank", '{"page_constraints": {"age_max": {"mx": 0}}}',
         "page constraint 'age_max': a range holds only finite min/max"),
        ("rank", '{"page_constraints": {"age_max": {"max": true}}}',
         "page constraint 'age_max': a range holds only finite min/max"),
        ("rank", '{"page_constraints": {"age_max": {"min": NaN}}}',
         "page constraint 'age_max': a range holds only finite min/max"),
        ("rank", '{"page_constraints": {"region": {"min": 1}}}',
         "page constraint 'region': a range needs a numeric product field"),
    ],
)
def test_a_bad_duration_rule_or_page_range_is_a_config_error(
    dataset_dir, tmp_path, capsys, command, text, message
):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    args = [command, *dataset_flags(dataset_dir), "--config", str(config)]
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"mfirank: config error: {message}")


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"damping": "0.25"}', "config key 'damping' must be a number"),
        ('{"tie_eps": "1e-9"}', "config key 'tie_eps' must be a number"),
        ('{"confidence_level": "0.9"}', "config key 'confidence_level' must be a number"),
        ('{"min_support": "5"}', "config key 'min_support' must be a whole number"),
        ('{"status_map": ["sale"]}', "config key 'status_map' must be an object"),
        ('{"column_aliases": 5}', "config key 'column_aliases' must be an object of strings"),
        ('{"column_aliases": {"a": 5}}',
         "config key 'column_aliases' must be an object of strings"),
        ('{"true_strings": 5}', "config key 'true_strings' must be a list of strings"),
        ('{"true_strings": "yes"}', "config key 'true_strings' must be a list of strings"),
        ('{"false_strings": [0]}', "config key 'false_strings' must be a list of strings"),
        ('{"timestamp_format": 5}', "config key 'timestamp_format' must be a string"),
        ('{"duration_rules": [{"pattern": 5, "scale": 60}]}',
         "duration_rules must be a list of {pattern, scale} objects"),
    ],
)
def test_a_setting_of_the_wrong_json_type_is_a_config_error(
    dataset_dir, tmp_path, capsys, text, message
):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    args = ["validate", *dataset_flags(dataset_dir), "--config", str(config)]
    assert main([*args, "--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == f"mfirank: config error: {message}\n"


def _without_digest(path) -> list[str]:
    return [line for line in path.read_text().splitlines() if "config_digest" not in line]


def test_a_status_map_extends_the_default_map(dataset_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"status_map": {"одобрен": "sale"}}), encoding="utf-8")
    plain, mapped = tmp_path / "plain.csv", tmp_path / "mapped.csv"
    assert main(["features", *dataset_flags(dataset_dir), "--out", str(plain)]) == 0
    args = ["features", *dataset_flags(dataset_dir), "--config", str(config)]
    assert main([*args, "--out", str(mapped)]) == 0
    assert _without_digest(mapped) == _without_digest(plain)
    assert mapped.read_bytes() != plain.read_bytes()


def test_a_loan_type_map_extends_the_default_map(dataset_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"loan_type_map": {"кредит": "standard"}}), encoding="utf-8")
    out = tmp_path / "v.json"
    args = ["validate", *dataset_flags(dataset_dir), "--config", str(config)]
    assert main([*args, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["row_errors"] == {
        "conversions": 0, "products": 0, "clicks": 0,
    }


def test_a_map_key_is_lower_cased_and_replaces_its_default_entry(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"status_map": {"Sale": "rejected"}}), encoding="utf-8")
    status_map = load_config(str(config)).schema.status_map
    assert status_map == {**DEFAULT_STATUS_MAP, "sale": Status.REJECTED}


def test_an_alias_key_matches_the_normalized_header(dataset_dir, tmp_path):
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    text = (dataset_dir / "conversions.csv").read_text(encoding="utf-8")
    assert text.startswith("mfi_id,")
    (renamed / "conversions.csv").write_text("номер мфо" + text[len("mfi_id"):], encoding="utf-8")
    for name in ("products.csv", "clicks.csv"):
        (renamed / name).write_bytes((dataset_dir / name).read_bytes())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"column_aliases": {"номер мфо": "mfi_id"}}), encoding="utf-8")
    outputs = []
    for directory in (dataset_dir, renamed):
        out = tmp_path / f"{directory.name}.csv"
        args = ["features", *dataset_flags(directory), "--config", str(config)]
        assert main([*args, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


EVERY_KEY = {
    "features": ["epc", "rating", "lar"],
    "loan_type": "long-term",
    "damping": 0.25,
    "tie_eps": 1e-6,
    "min_support": 2,
    "confidence_level": 0.9,
    "timestamp_format": "%d.%m.%Y %H:%M",
    "status_map": {"Одобрен": "sale"},
    "loan_type_map": {"кредит": "long-term"},
    "true_strings": ["ok"],
    "false_strings": ["nope"],
    "column_aliases": {"номер мфо": "mfi_id"},
    "duration_rules": [{"pattern": "мин", "scale": 60}],
    "page_constraints": {"age_min": {"max": 18}},
}


@pytest.mark.parametrize("settings", [{}, EVERY_KEY], ids=["default", "every-key"])
def test_a_config_file_of_to_dict_loads_the_same_config(tmp_path, settings):
    source = tmp_path / "settings.json"
    source.write_text(json.dumps(settings), encoding="utf-8")
    config = load_config(str(source))
    default = PipelineConfig().to_dict()
    changed = {key for key, value in config.to_dict().items() if value != default[key]}
    assert changed == set(settings)
    written = tmp_path / "written.json"
    written.write_text(json.dumps(config.to_dict(), ensure_ascii=False), encoding="utf-8")
    loaded = load_config(str(written))
    assert loaded == config
    assert loaded.digest() == config.digest()


def test_missing_required_flags_exit_with_one():
    with pytest.raises(SystemExit) as err:
        main(["validate"])
    assert err.value.code == 1


def test_missing_dataset_file_is_a_data_error(tmp_path):
    rc = main([
        "validate",
        "--conversions", str(tmp_path / "nope.csv"),
        "--products", str(tmp_path / "nope.csv"),
        "--clicks", str(tmp_path / "nope.csv"),
    ])
    assert rc == 2
