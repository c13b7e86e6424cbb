"""End-to-end coverage of the command line, its artifacts and exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from datetime import datetime, timedelta

import numpy as np
import pytest

from conftest import PUBLISHED_PI, REFERENCE_RANKING
from mfirank.cli import SERIES_COLUMNS, _dump_ranking, main
from mfirank.data import (
    ConversionRecord,
    LoanType,
    Status,
    serialize_clicks,
    serialize_conversions,
    serialize_products,
)
from mfirank.evaluate import week_start
from mfirank.features import feature_csv
from mfirank.fixtures import FixtureConfig, generate_fixture


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
@pytest.mark.parametrize("to_stdout", [False, True])
def test_ranking_writer_matches_json_dumps(ids, extra, to_stdout, tmp_path, capsys):
    payload = ranking_payload(ids, **extra)
    k = len(ids)
    counts = np.arange(k * k, dtype=np.int64).reshape(k, k) % 6
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


# SHA-256 of the `mfirank fixture --seed 0` CSVs and of the artifacts
# computed from them, recorded before the feature code became incremental
# (the CSVs before the parsers became table-driven; validation.json,
# fairness.json, weekly.csv and evaluation-all.json before the client
# history became the records themselves).  ranking.json and pi.csv are left
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
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256


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


def test_abtest_empty_group_is_a_data_error(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("mfi_id,loan_type,click_time,status,client_id\n")
    group_csv(b, [(Status.SALE, 5.0, "iOS")])
    assert main(["abtest", "--group-a", str(a), "--group-b", str(b)]) == 2


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
