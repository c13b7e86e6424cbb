"""Command-line interface to the ranking pipeline.

Subcommands mirror the pipeline stages: ``validate`` checks datasets,
``features`` computes the per-MFI feature table, ``rank`` turns a
feature table into an ordering, ``evaluate`` replays the log under
weekly re-ranking, ``abtest`` compares two experiment groups,
``report`` emits plot-ready income and share-per-click series from an
evaluation, and ``fixture`` writes a synthetic dataset triple.

Exit codes: 0 success, 1 usage or configuration problems (an output
file that cannot be opened or written included), 2 broken input data
(a stray ``ValueError`` from library code included) or an input too
large for the memory at hand, 3 violated internal invariants.  All JSON
output is sorted and timestamp-free, so identical inputs give identical
bytes, and every artifact embeds the SHA-256 digest of the resolved
configuration.

A process loads only the stages its subcommand runs.  Importing this
module loads no numpy and no stage module: each stage name the
subcommands call (``parse_conversions``, ``feature_table``,
``rank_mfis``, ...) is imported from its defining module on its first
lookup through the module (``__getattr__``), and the subcommands call
every such name as ``_stage.<name>``, a module attribute, so a wrapper
set on this module (``setattr`` or ``monkeypatch``) sees each call.
``report`` and ``--help`` import no stage at all; ``validate`` loads
``config`` and ``data``, ``features`` adds ``features``, ``rank`` adds
``rank``, and ``evaluate`` and ``abtest`` load the replay and the
statistics too.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import logging
import math
import os
import sys
from datetime import datetime
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, TextIO

from .errors import ConfigError, DataError, InternalError

if TYPE_CHECKING:
    import numpy as np

    from .config import PipelineConfig
    from .data import ParseResult

logger = logging.getLogger(__name__)

# The stage names the subcommands call, by defining module.
_STAGE_NAMES = {
    "config": ("CONFIG_KEYS", "load_config"),
    "data": (
        "filter_loan_type", "parse_clicks", "parse_conversions", "parse_products",
        "serialize_clicks", "serialize_conversions", "serialize_products", "validate",
    ),
    "features": ("FEATURE_ATTRS", "feature_csv", "feature_table", "parse_feature_csv"),
    "fixtures": ("generate_fixture",),
    "rank": ("page_filter", "rank_mfis"),
    "stats": ("fisher_exact_greater", "welch_t_greater", "yule_ci", "yule_colligation"),
    "weeks": ("week_start",),
}
_HOME = {name: module for module, names in _STAGE_NAMES.items() for name in names}


def __getattr__(name: str):
    """Import a stage name from its defining module on first lookup and
    keep it as a module global, where later lookups find it."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__package__}.{home}"), name)
    globals()[name] = value
    return value


# Subcommands call stage names as attributes of this module, never as bare
# globals, which would bypass ``__getattr__`` and fail before first lookup.
_stage = sys.modules[__name__]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for
    data problems, so usage errors are remapped to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Standard output for ``None`` or ``-``, else the file ``path``; a
    failure to open or write the file is a ConfigError naming it, and so is
    a standard output whose reader has gone (a broken pipe)."""
    if path in (None, "-"):
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # The interpreter flushes standard output again at exit: let that
            # write go nowhere rather than fail a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError(f"cannot write standard output: {exc.strerror}") from None
        return
    try:
        with open(path, "w", encoding="utf-8") as out:
            yield out
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_text(path: str | None, text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)


def _dump_json(payload, path: str | None) -> None:
    _write_text(path, _json_text(payload) + "\n")


# Text bytes of the ranking matrix rendered per block of rows.
_BLOCK_BYTES = 1 << 20


def _dump_ranking(payload: dict, counts: np.ndarray, path: str | None) -> None:
    """Write ``payload`` plus ``"comparison_matrix": counts`` in the bytes
    :func:`_dump_json` gives for the merged dict, for a matrix of counts
    from 0 to 9: a pair's count is its number of distinct features.

    The encoder in ``json`` renders a k-by-k integer matrix with indent
    through its pure-Python path, millions of small strings at k = 2000.
    Here every cell is one line, ``"      N,\n"``.  A reused byte buffer
    holds the text of a block of rows, about ``_BLOCK_BYTES``, with the
    row frames in place: each row opens with ``"    [\n"`` and its last
    cell ends in ``"\n    ],\n"``.  Per block, each count plus ``"0"``
    fills its digit slot, and the block is written, without the last
    row's ``",\n"``.  Memory beyond ``counts`` stays a few blocks,
    whatever k.  The key must sort before every payload key: the matrix
    then opens the object and the rest of the payload follows as ``json``
    renders it.
    """
    import numpy as np

    if not counts.size:
        _dump_json({**payload, "comparison_matrix": counts.tolist()}, path)
        return
    if not 0 <= counts.min() <= counts.max() <= 9:
        raise InternalError(f"comparison counts outside 0-9: {counts.min()} to {counts.max()}")
    n_rows, n_cols = counts.shape
    cell = b"      0,\n"
    row = b"    [\n" + (cell * n_cols)[:-2] + b"\n    ],\n"
    block = np.empty((max(1, _BLOCK_BYTES // len(row)), len(row)), dtype=np.uint8)
    block[:] = np.frombuffer(row, dtype=np.uint8)
    slots = block[:, 6 : 6 + n_cols * len(cell)].reshape(len(block), n_cols, len(cell))[:, :, 6]
    rest = _json_text(payload)
    with _output(path) as out:
        out.write('{\n  "comparison_matrix": [\n')
        for start in range(0, n_rows, len(block)):
            rows = counts[start : start + len(block)]
            np.add(rows, ord("0"), out=slots[: len(rows)], casting="unsafe")
            text = block[: len(rows)].reshape(-1)
            end = len(text) - 2 if start + len(rows) == n_rows else len(text)
            out.write(str(memoryview(text)[:end], "ascii"))
        # ``rest`` opens with "{\n"; its first key continues this object.
        out.write("\n  ]," + rest[1:] + "\n")


def _split_features(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """A config flag's ``dest`` is its config key."""
    overrides = {key: value for key, value in vars(args).items() if key in _stage.CONFIG_KEYS}
    return _stage.load_config(args.config, overrides)


def _logged(result: ParseResult, dataset: str) -> ParseResult:
    if result.errors:
        sample = result.errors[0]
        logger.warning(
            "%s: dropped %d rows (first: row %d, %s: %s)",
            dataset, len(result.errors), sample.row, sample.column, sample.message,
        )
    return result


def _load_datasets(args: argparse.Namespace, config: PipelineConfig):
    """The conversions and clicks tables and the product cards of
    ``config.loan_type``, then every product card (page constraints may
    name another loan type).  The one place that selects a loan type:
    later stages use every row given."""
    conversions = _logged(_stage.parse_conversions(args.conversions, config.schema), "conversions")
    products = _logged(_stage.parse_products(args.products, config.schema), "products").table
    clicks = _logged(_stage.parse_clicks(args.clicks, config.schema), "clicks")
    conversions, cards, clicks = (
        _stage.filter_loan_type(table, config.loan_type)
        for table in (conversions.table, products, clicks.table)
    )
    return conversions, cards.records(), clicks, products.records()


def _feature_table(args: argparse.Namespace, config: PipelineConfig):
    """The feature table of the selected rows, and every product card."""
    conversions, products, clicks, cards = _load_datasets(args, config)
    table = _stage.feature_table(
        conversions, products, clicks,
        features=config.features, duration_rules=config.duration_rules,
    )
    return table, cards


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    conv = _stage.parse_conversions(args.conversions, config.schema)
    prod = _stage.parse_products(args.products, config.schema)
    clk = _stage.parse_clicks(args.clicks, config.schema)
    report = _stage.validate(conv.table, prod.records, clk.table)
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
    _write_text(args.out, _stage.feature_csv(table, comments=[f"config_digest={config.digest()}"]))
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
        except UnicodeDecodeError as exc:
            raise DataError(f"feature table is not UTF-8 text: {args.features_csv}: {exc}") from None
        vectors = _stage.parse_feature_csv(text)
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
        attr = _stage.FEATURE_ATTRS[name]
        if any(getattr(v, attr) is None for v in vectors):
            raise ConfigError(
                f"feature {name!r} is not present for every MFI; "
                "pass --features matching the table"
            )

    try:
        result = _stage.rank_mfis(
            vectors, features=config.features, damping=config.damping, tie_eps=config.tie_eps
        )
    except MemoryError:
        k = len(vectors)
        raise MemoryError(f"k = {k:,} MFIs; one k x k float64 array is {8 * k * k:,} bytes")
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
            payload["page_ranking"] = _stage.page_filter(
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
    for day in days:
        clicks = day["clicks"]
        for label in ("historical", "vra"):
            side = day[label]
            share = side["sales"] / clicks if clicks else 0.0
            lines.append(f"{day['date']},{side['income']!r},{share!r},{label}")
    return "\n".join(lines) + "\n"


def _finite(value) -> bool:
    """Whether ``value`` is a JSON number that converts to a finite float."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _check_series(days: list) -> None:
    """Raise DataError, naming the date, unless every entry is a day as the
    evaluate subcommand writes it: an ISO ``date``, a non-negative integer
    ``clicks`` and finite ``income`` and ``sales`` on both sides.  A missing
    key and a wrong type read alike."""
    for i, day in enumerate(days):
        date = day.get("date") if isinstance(day, dict) else None
        try:
            datetime.fromisoformat(date)
        except (TypeError, ValueError):
            raise DataError(
                f"daily series is malformed: entry {i}: 'date' must be an ISO date"
            ) from None
        clicks = day.get("clicks")
        if isinstance(clicks, bool) or not isinstance(clicks, int) or clicks < 0:
            raise DataError(
                f"daily series is malformed: {date}: 'clicks' must be a non-negative integer"
            )
        for label in ("historical", "vra"):
            side = day.get(label)
            for key in ("income", "sales"):
                if not (isinstance(side, dict) and _finite(side.get(key))):
                    raise DataError(
                        f"daily series is malformed: {date}: "
                        f"'{label}.{key}' must be a finite number"
                    )


def _weekly_series(days: list[dict]) -> list[dict]:
    """Collapse daily entries into ISO weeks keyed by their Monday."""
    grouped: dict[str, dict] = {}
    for day in days:
        monday = _stage.week_start(datetime.fromisoformat(day["date"])).date().isoformat()
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
    from . import evaluate as ev

    config = _resolve_config(args)
    conversions, products, clicks, _ = _load_datasets(args, config)
    if not conversions:
        raise DataError("no applications left after filtering; nothing to replay")
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
                "week_start": entry.week_start.date().isoformat(),
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
    else:
        if not args.group_a or not args.group_b:
            raise ConfigError("abtest needs --group-a and --group-b, or --fisher counts")

        from . import evaluate as ev

        group_a = _logged(_stage.parse_conversions(args.group_a, config.schema), "group-a").table
        group_b = _logged(_stage.parse_conversions(args.group_b, config.schema), "group-b").table
        if not group_a or not group_b:
            raise DataError("both experiment groups need at least one application")
        (sales_a, total_a), (sales_b, total_b) = ev.group_counts(group_a), ev.group_counts(group_b)
    try:
        p = _stage.fisher_exact_greater((sales_a, total_a), (sales_b, total_b))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    payload: dict = {
        "config_digest": config.digest(),
        "rates": {
            "group_a": {"sales": sales_a, "total": total_a},
            "group_b": {"sales": sales_b, "total": total_b},
            "fisher_p_a_greater": p,
        },
        "income": None,
    }
    if args.fisher is not None:
        _dump_json(payload, args.out)
        return 0

    incomes_a = ev.sale_incomes(group_a)
    incomes_b = ev.sale_incomes(group_b)
    if len(incomes_a) >= 2 and len(incomes_b) >= 2:
        welch = _stage.welch_t_greater(incomes_a, incomes_b)
        payload["income"] = {
            "n_a": len(incomes_a),
            "n_b": len(incomes_b),
            "t": welch.t,
            "df": welch.df,
            "p_a_greater": welch.p_value,
            "degenerate": welch.degenerate,
        }

    if args.os is not None:
        table = ev.os_contingency((group_a, group_b), args.os)
        runs = table.n11 + table.n10
        if runs == 0 or table.n01 + table.n00 == 0:
            who = "every application in both groups" if runs else "no application in either group"
            raise DataError(
                f"{who} runs OS {args.os!r}; its association with approval is undefined"
            )
        lo, hi = _stage.yule_ci(table, level=config.confidence_level)
        payload["association"] = {
            "os": args.os,
            "cells": {
                "n11": table.n11, "n10": table.n10, "n01": table.n01, "n00": table.n00,
            },
            "yule_y": _stage.yule_colligation(table),
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
    except UnicodeDecodeError as exc:
        raise DataError(f"evaluation file is not UTF-8 text: {args.evaluation}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"evaluation file is not valid JSON: {exc}") from None
    daily = payload.get("daily") if isinstance(payload, dict) else None
    if not isinstance(daily, list) or not daily:
        raise DataError(
            "evaluation file lacks the daily series; rerun the evaluate subcommand"
        )
    _check_series(daily)
    days = _weekly_series(daily) if args.weekly else daily
    _write_text(args.out, _series_text(days, payload.get("config_digest")))
    return 0


def cmd_fixture(args: argparse.Namespace) -> int:
    if args.n_mfis < 2:
        raise ConfigError("--n-mfis must be at least 2")
    if args.n_clients < 1:
        raise ConfigError("--n-clients must be at least 1")
    conversions, products, clicks = _stage.generate_fixture(
        args.seed, n_mfis=args.n_mfis, n_clients=args.n_clients
    )
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc.strerror or exc}") from None
    for name, text in (
        ("conversions.csv", _stage.serialize_conversions(conversions)),
        ("products.csv", _stage.serialize_products(products)),
        ("clicks.csv", _stage.serialize_clicks(clicks)),
    ):
        _write_text(str(out_dir / name), text)
    manifest = {
        "seed": args.seed,
        "n_mfis": args.n_mfis,
        "n_clients": args.n_clients,
        "n_conversions": len(conversions),
        "n_products": len(products),
        "n_clicks": len(clicks),
    }
    _dump_json(manifest, str(out_dir / "manifest.json"))
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
    except MemoryError as exc:
        detail = str(exc) or "an allocation failed"
        print(f"mfirank: out of memory in {args.command}: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
