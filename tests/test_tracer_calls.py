"""The benchmark tracer sees every call of the layers each subcommand runs.

``perfbench/tracer.py`` wraps each layer function where its callers look
it up.  A caller that reaches a function some other way (a local import,
a name bound before the wrapper was set) still passes the identity check
of ``test_tracer_sites.py`` but silently zeroes that layer's metrics;
here each subcommand runs under an installed ``Tracer`` and every layer
it runs must have recorded calls.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from mfirank.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)

PARSE = ("data.parse_conversions", "data.parse_products", "data.parse_clicks")
RANK = ("rank.rank_mfis", "rank.comparison_matrix", "rank.transition", "rank.stationary",
        "rank.rank_list")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    assert main(["fixture", "--seed", "0", "--out-dir", str(out)]) == 0
    argv, _ = commands(out)["features"]
    assert main([*argv[:-1], str(out / "table.csv")]) == 0
    return out


def commands(d) -> dict:
    """Subcommand name → (argv on the datasets in ``d``, layers it must reach)."""
    flags = ["--conversions", str(d / "conversions.csv"), "--products", str(d / "products.csv"),
             "--clicks", str(d / "clicks.csv")]
    group = str(d / "conversions.csv")
    return {
        "validate": (["validate", *flags, "--out", str(d / "validation.json")],
                     (*PARSE, "data.validate")),
        "features": (["features", *flags, "--out", str(d / "features.csv")],
                     (*PARSE, "data.filter_loan_type", "features.feature_table")),
        "rank": (["rank", "--features-csv", str(d / "table.csv"),
                  "--out", str(d / "ranking.json")],
                 ("features.parse_feature_csv", *RANK)),
        "rank-datasets": (["rank", *flags, "--out", str(d / "ranking-raw.json")],
                          (*PARSE, "data.filter_loan_type", "features.feature_table", *RANK)),
        "evaluate": (["evaluate", *flags, "--out", str(d / "evaluation.json")],
                     (*PARSE, "data.filter_loan_type", "evaluate.evaluate_ranking",
                      "evaluate.weekly_schedule", "evaluate.reapproval_table",
                      "evaluate.client_outcomes", "evaluate.simulate", "evaluate.daily_series",
                      "evaluate.weekly_totals", "rank.rank_mfis")),
        "abtest": (["abtest", "--group-a", group, "--group-b", group, "--os", "Android",
                    "--out", str(d / "abtest.json")],
                   ("data.parse_conversions", "evaluate.group_counts", "evaluate.sale_incomes",
                    "evaluate.os_contingency", "stats.fisher_exact_greater",
                    "stats.welch_t_greater", "stats.yule_ci", "stats.yule_colligation")),
        "abtest-fisher": (["abtest", "--fisher", "3", "10", "2", "10",
                           "--out", str(d / "fisher.json")],
                          ("stats.fisher_exact_greater",)),
    }


@pytest.mark.parametrize("command", [
    "validate", "features", "rank", "rank-datasets", "evaluate", "abtest", "abtest-fisher",
])
def test_every_layer_a_subcommand_runs_records_calls(dataset, command):
    argv, layers = commands(dataset)[command]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.restore()
    silent = [name for name in layers if tracer.counts[f"{name}.calls"] == 0]
    assert silent == []
    if "data.parse_conversions" in layers:
        assert tracer.counts["data.rows_parsed"] > 0


def test_restore_puts_the_defining_functions_back():
    tracer = tracer_module.Tracer()
    tracer.install()
    tracer.restore()
    for name, modules, _ in (*tracer_module.SPANS, *tracer_module.COUNTED):
        layer, attr = name.split(".", 1)
        original = getattr(importlib.import_module(f"mfirank.{layer}"), attr)
        for module_name in modules:
            assert getattr(importlib.import_module(module_name), attr) is original, (
                module_name, attr,
            )
