"""Command-line interface to the ranking pipeline.

Subcommands mirror the pipeline stages: ``validate`` checks datasets,
``features`` computes the per-MFI feature table, ``rank`` turns a
feature table into an ordering, ``evaluate`` replays the log under
weekly re-ranking, ``abtest`` compares two experiment groups,
``report`` emits plot-ready income and share-per-click series from an
evaluation, and ``fixture`` writes a synthetic dataset triple.

Exit codes: 0 success, 1 usage or configuration problems, 2 broken
input data (a stray ``ValueError`` from library code included), 3
violated internal invariants.  All JSON output is sorted
and timestamp-free, so identical inputs give identical bytes, and every
artifact embeds the SHA-256 digest of the resolved configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import logging
import math
import sys
from datetime import datetime
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from . import evaluate as ev
from .config import CONFIG_KEYS, PipelineConfig, load_config
from .data import (
    ParseResult,
    filter_loan_type,
    parse_clicks,
    parse_conversions,
    parse_products,
    serialize_clicks,
    serialize_conversions,
    serialize_products,
    validate,
)
from .errors import ConfigError, DataError, InternalError
from .features import (
    FEATURE_ATTRS,
    feature_csv,
    feature_table,
    parse_feature_csv,
)
from .fixtures import generate_fixture
from .rank import page_filter, rank_mfis
from .stats import fisher_exact_greater, welch_t_greater, yule_ci, yule_colligation

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for
    data problems, so usage errors are remapped to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as out:
            yield out


def _write_text(path: str | None, text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)


def _dump_json(payload, path: str | None) -> None:
    _write_text(path, _json_text(payload) + "\n")


def _dump_ranking(payload: dict, counts: np.ndarray, path: str | None) -> None:
    """Write ``payload`` plus ``"comparison_matrix": counts`` in the bytes
    :func:`_dump_json` gives for the merged dict, a row at a time.

    The encoder in ``json`` renders a k-by-k integer matrix with indent
    through its pure-Python path, millions of small strings at k = 2000.
    Here each row is one gather from the cell texts and one ``str.join``.
    The key must sort before every payload key: the matrix then opens the
    object and the rest of the payload follows as ``json`` renders it.
    """
    cells = np.array([str(n) for n in range(int(counts.max(initial=0)) + 1)], dtype=object)
    rest = _json_text(payload)
    with _output(path) as out:
        out.write('{\n  "comparison_matrix": [\n')
        for i, row in enumerate(counts):
            if i:
                out.write(",\n")
            out.write("    [\n      ")
            out.write(",\n      ".join(cells[row].tolist()))
            out.write("\n    ]")
        # ``rest`` opens with "{\n"; its first key continues this object.
        out.write("\n  ]," + rest[1:] + "\n")


def _split_features(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """A config flag's ``dest`` is its config key."""
    overrides = {key: value for key, value in vars(args).items() if key in CONFIG_KEYS}
    return load_config(args.config, overrides)


def _logged(result: ParseResult, dataset: str) -> ParseResult:
    if result.errors:
        sample = result.errors[0]
        logger.warning(
            "%s: dropped %d rows (first: row %d, %s: %s)",
            dataset, len(result.errors), sample.row, sample.column, sample.message,
        )
    return result


def _parse(parse, path: str, config: PipelineConfig) -> ParseResult:
    """``parse(path, config.schema)``, its objects moved out of the
    collector's reach: a subcommand keeps them until it exits, and every
    later collection would re-scan them."""
    result = parse(path, config.schema)
    gc.freeze()
    return result


def _load_datasets(args: argparse.Namespace, config: PipelineConfig):
    """The conversions and clicks tables and the product cards of
    ``config.loan_type``, then every product card (page constraints may
    name another loan type).  The one place that selects a loan type:
    later stages use every row given."""
    conversions = _logged(_parse(parse_conversions, args.conversions, config), "conversions")
    cards = _logged(_parse(parse_products, args.products, config), "products").records
    clicks = _logged(_parse(parse_clicks, args.clicks, config), "clicks")
    selected = [
        filter_loan_type(r, config.loan_type) for r in (conversions.table, cards, clicks.table)
    ]
    return (*selected, cards)


def _feature_table(args: argparse.Namespace, config: PipelineConfig):
    """The feature table of the selected records, and every product card."""
    conversions, products, clicks, cards = _load_datasets(args, config)
    table = feature_table(
        conversions, products, clicks,
        features=config.features, duration_rules=config.duration_rules,
    )
    return table, cards


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    conv = _parse(parse_conversions, args.conversions, config)
    prod = _parse(parse_products, args.products, config)
    clk = _parse(parse_clicks, args.clicks, config)
    report = validate(conv.table, prod.records, clk.table)
    payload = report.to_dict()
    payload["row_errors"] = {
        "conversions": len(conv.errors),
        "products": len(prod.errors),
        "clicks": len(clk.errors),
    }
    payload["config_digest"] = config.digest()
    _dump_json(payload, args.out)
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if args.breakdown_json is not None and "fairness" not in config.features:
        raise ConfigError("--breakdown-json needs 'fairness' among the active features")
    table, _ = _feature_table(args, config)
    if not table:
        raise DataError("no MFIs left after filtering; nothing to compute")
    _write_text(args.out, feature_csv(table, comments=[f"config_digest={config.digest()}"]))
    if args.breakdown_json is not None:
        breakdown = {
            "config_digest": config.digest(),
            "fairness": {
                v.mfi_id: dataclasses.asdict(v.fairness_detail)
                for v in table
                if v.fairness_detail is not None
            },
        }
        _dump_json(breakdown, args.breakdown_json)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    cards = None
    if args.features_csv is not None:
        try:
            text = Path(args.features_csv).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise DataError(f"cannot read feature table: {exc}") from None
        vectors = parse_feature_csv(text)
    elif args.conversions and args.products and args.clicks:
        vectors, cards = _feature_table(args, config)
    else:
        raise ConfigError(
            "rank needs either --features-csv or all of --conversions/--products/--clicks"
        )
    if not vectors:
        raise DataError("empty feature table; nothing to rank")
    if len(vectors) < 2:
        raise DataError(
            f"only one MFI ({vectors[0].mfi_id}) in the feature table; ranking needs two"
        )
    for name in config.features:
        attr = FEATURE_ATTRS[name]
        if any(getattr(v, attr) is None for v in vectors):
            raise ConfigError(
                f"feature {name!r} is not present for every MFI; "
                "pass --features matching the table"
            )

    result = rank_mfis(
        vectors, features=config.features, damping=config.damping, tie_eps=config.tie_eps
    )
    gap = result.stationary.method_gap
    payload = {
        "config_digest": config.digest(),
        "features": list(config.features),
        "order": list(result.matrix.order),
        "stationary": result.stationary.as_dict(),
        "power_converged": result.stationary.power_converged,
        "method_gap": None if math.isnan(gap) else gap,
        "ranking": result.ranking,
    }
    if config.page_constraints:
        if cards is None:
            raise ConfigError("page_constraints need the --products dataset")
        try:
            payload["page_ranking"] = page_filter(
                result.ranking, cards, config.page_constraints
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    _dump_ranking(payload, result.matrix.counts, args.out)
    if args.pi_csv is not None:
        mass = result.stationary.as_dict()
        lines = [f"# config_digest={config.digest()}", "mfi_id,pi,rank"]
        lines += [
            f"{mfi},{mass[mfi]!r},{pos}"
            for pos, mfi in enumerate(result.ranking, start=1)
        ]
        _write_text(args.pi_csv, "\n".join(lines) + "\n")
    return 0


SERIES_COLUMNS = ("date", "income", "share_per_click", "algorithm")


def _series_text(days: list[dict], digest: str | None) -> str:
    """Long-format CSV of a daily (or weekly) series, two rows per date."""
    lines = []
    if digest:
        lines.append(f"# config_digest={digest}")
    lines.append(",".join(SERIES_COLUMNS))
    try:
        for day in days:
            clicks = day["clicks"]
            for label in ("historical", "vra"):
                side = day[label]
                share = side["sales"] / clicks if clicks else 0.0
                lines.append(f"{day['date']},{side['income']!r},{share!r},{label}")
    except (KeyError, TypeError) as exc:
        raise DataError(f"daily series is malformed: missing {exc}") from None
    return "\n".join(lines) + "\n"


def _weekly_series(days: list[dict]) -> list[dict]:
    """Collapse daily entries into ISO weeks keyed by their Monday."""
    grouped: dict[str, dict] = {}
    for day in days:
        monday = ev.week_start(datetime.fromisoformat(day["date"])).date().isoformat()
        agg = grouped.setdefault(
            monday,
            {
                "date": monday,
                "clicks": 0,
                "historical": {"income": 0.0, "sales": 0.0},
                "vra": {"income": 0.0, "sales": 0.0},
            },
        )
        agg["clicks"] += day["clicks"]
        for label in ("historical", "vra"):
            agg[label]["income"] += day[label]["income"]
            agg[label]["sales"] += day[label]["sales"]
    return [grouped[monday] for monday in sorted(grouped)]


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    conversions, products, clicks, _ = _load_datasets(args, config)
    result, schedule = ev.evaluate_ranking(
        conversions,
        products,
        clicks,
        features=config.features,
        damping=config.damping,
        min_support=config.min_support,
        duration_rules=config.duration_rules,
        tie_eps=config.tie_eps,
    )
    daily = ev.daily_series(result, clicks)
    payload = {
        "config_digest": config.digest(),
        "replay": result.to_dict(),
        "weekly_totals": ev.weekly_totals(result),
        "weeks": [
            {
                "week_start": entry.week_start.strftime("%Y-%m-%d"),
                "source": entry.source,
                "trained_on": entry.trained_on,
                "ranking": list(entry.ranking),
            }
            for entry in schedule
        ],
        "daily": daily,
    }
    _dump_json(payload, args.out)
    if args.daily_csv is not None:
        _write_text(args.daily_csv, _series_text(daily, config.digest()))
    return 0


def cmd_abtest(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if args.fisher is not None:
        if args.group_a or args.group_b:
            raise ConfigError("--fisher counts and group files are mutually exclusive")
        if args.os is not None:
            raise ConfigError("--os needs group files, not --fisher counts")
        sales_a, total_a, sales_b, total_b = args.fisher
        try:
            p = fisher_exact_greater((sales_a, total_a), (sales_b, total_b))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        _dump_json(
            {
                "config_digest": config.digest(),
                "rates": {
                    "group_a": {"sales": sales_a, "total": total_a},
                    "group_b": {"sales": sales_b, "total": total_b},
                    "fisher_p_a_greater": p,
                },
                "income": None,
            },
            args.out,
        )
        return 0
    if not args.group_a or not args.group_b:
        raise ConfigError("abtest needs --group-a and --group-b, or --fisher counts")

    group_a = _logged(_parse(parse_conversions, args.group_a, config), "group-a").table
    group_b = _logged(_parse(parse_conversions, args.group_b, config), "group-b").table
    if not group_a or not group_b:
        raise DataError("both experiment groups need at least one application")

    sales_a, total_a = ev.group_counts(group_a)
    sales_b, total_b = ev.group_counts(group_b)
    payload: dict = {
        "config_digest": config.digest(),
        "rates": {
            "group_a": {"sales": sales_a, "total": total_a},
            "group_b": {"sales": sales_b, "total": total_b},
            "fisher_p_a_greater": fisher_exact_greater(
                (sales_a, total_a), (sales_b, total_b)
            ),
        },
    }

    incomes_a = ev.sale_incomes(group_a)
    incomes_b = ev.sale_incomes(group_b)
    if len(incomes_a) >= 2 and len(incomes_b) >= 2:
        welch = welch_t_greater(incomes_a, incomes_b)
        payload["income"] = {
            "n_a": len(incomes_a),
            "n_b": len(incomes_b),
            "t": welch.t,
            "df": welch.df,
            "p_a_greater": welch.p_value,
            "degenerate": welch.degenerate,
        }
    else:
        payload["income"] = None

    if args.os is not None:
        table = ev.os_contingency((group_a, group_b), args.os)
        lo, hi = yule_ci(table, level=config.confidence_level)
        payload["association"] = {
            "os": args.os,
            "cells": {
                "n11": table.n11, "n10": table.n10, "n01": table.n01, "n00": table.n00,
            },
            "yule_y": yule_colligation(table),
            "ci": [lo, hi],
            "level": config.confidence_level,
        }
    _dump_json(payload, args.out)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.evaluation).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise DataError(f"cannot read evaluation file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"evaluation file is not valid JSON: {exc}") from None
    daily = payload.get("daily") if isinstance(payload, dict) else None
    if not isinstance(daily, list) or not daily:
        raise DataError(
            "evaluation file lacks the daily series; rerun the evaluate subcommand"
        )
    try:
        days = _weekly_series(daily) if args.weekly else daily
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"daily series is malformed: {exc}") from None
    _write_text(args.out, _series_text(days, payload.get("config_digest")))
    return 0


def cmd_fixture(args: argparse.Namespace) -> int:
    if args.n_mfis < 2:
        raise ConfigError("--n-mfis must be at least 2")
    if args.n_clients < 1:
        raise ConfigError("--n-clients must be at least 1")
    conversions, products, clicks = generate_fixture(
        args.seed, n_mfis=args.n_mfis, n_clients=args.n_clients
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "conversions.csv").write_text(serialize_conversions(conversions), encoding="utf-8")
    (out_dir / "products.csv").write_text(serialize_products(products), encoding="utf-8")
    (out_dir / "clicks.csv").write_text(serialize_clicks(clicks), encoding="utf-8")
    manifest = {
        "seed": args.seed,
        "n_mfis": args.n_mfis,
        "n_clients": args.n_clients,
        "n_conversions": len(conversions),
        "n_products": len(products),
        "n_clicks": len(clicks),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    _dump_json(manifest, None)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_config_flags(p: argparse.ArgumentParser, *, support: bool = False) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--features", type=_split_features, help="comma-separated feature subset")
    p.add_argument("--loan-type", help="standard, long-term, interest-free, or all")
    p.add_argument("--damping", type=float, help="uniform restart weight in [0, 1)")
    if support:
        p.add_argument("--min-support", type=int, help="pair observations required "
                       "before conditional frequencies are trusted")


def _add_dataset_flags(p: argparse.ArgumentParser, *, required: bool = True) -> None:
    p.add_argument("--conversions", required=required, help="conversion log CSV")
    p.add_argument("--products", required=required, help="product card CSV")
    p.add_argument("--clicks", required=required, help="click log CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfirank", description="MFI ranking pipeline")
    parser.add_argument("-v", "--verbose", action="store_true", help="chatty logging")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="integrity-check the three datasets")
    _add_dataset_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("features", help="compute the per-MFI feature table")
    _add_dataset_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", help="feature CSV path (default stdout)")
    p.add_argument("--breakdown-json", help="also write the fairness breakdown here")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("rank", help="rank MFIs from features or raw datasets")
    _add_dataset_flags(p, required=False)
    p.add_argument("--features-csv", help="precomputed feature table CSV")
    _add_config_flags(p)
    p.add_argument("--out", help="ranking JSON path (default stdout)")
    p.add_argument("--pi-csv", help="also write mfi_id,pi,rank rows here")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="replay the log under weekly re-ranking")
    _add_dataset_flags(p)
    _add_config_flags(p, support=True)
    p.add_argument("--out", help="evaluation JSON path (default stdout)")
    p.add_argument("--daily-csv", help="also write the daily plot series here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("abtest", help="compare two experiment groups")
    p.add_argument("--group-a", help="conversion CSV of the first group")
    p.add_argument("--group-b", help="conversion CSV of the second group")
    p.add_argument(
        "--fisher",
        nargs=4,
        type=int,
        metavar=("SALES_A", "TOTAL_A", "SALES_B", "TOTAL_B"),
        help="compare plain counts instead of group files",
    )
    p.add_argument("--os", help="also measure association between this OS and approval")
    p.add_argument("--level", type=float, dest="confidence_level", metavar="LEVEL",
                   help="confidence level for the association CI")
    _add_config_flags(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_abtest)

    p = sub.add_parser("report", help="emit plot-ready series from an evaluation JSON")
    p.add_argument("--evaluation", required=True, help="output of the evaluate subcommand")
    p.add_argument("--weekly", action="store_true", help="aggregate days into ISO weeks")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fixture", help="write a deterministic synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-mfis", type=int, default=8)
    p.add_argument("--n-clients", type=int, default=120)
    p.add_argument("--out-dir", required=True, help="directory for the CSV files")
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"mfirank: config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"mfirank: data error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"mfirank: internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # A library precondition the subcommand did not check first: the
        # input data cannot be processed, so report it as a data error.
        print(f"mfirank: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
