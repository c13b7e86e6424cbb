"""Run one mfirank subcommand in-process with every layer wrapped.

Usage: python3 perfbench/tracer.py SPANS_JSON -- SUBCOMMAND [ARGS...]

Each public layer function is replaced where its caller looks it up
(``mfirank.evaluate.feature_table``, ``mfirank.rank.comparison_matrix``,
...), ``mfirank.cli.main(argv)`` runs inside a root span, the originals
are put back, and the spans (id, parent id, name, start, end) and
counters kept in memory are written to SPANS_JSON.  The exit code is the
subcommand's.  ``mfirank`` must be importable (``PYTHONPATH=src``).

Hot leaf functions (``derive_timeline``, ``filter_loan_type``,
``client_outcomes``) only count calls, so the run stays tractable; their
time is part of their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

import mfirank.cli


def _parsed(counts, args, result):
    counts["data.rows_parsed"] += len(result.records) + len(result.errors)
    counts["data.row_errors"] += len(result.errors)


def _rows_in(counts, args, result):
    counts["data.filter_loan_type_rows"] += len(args[0])


def _feature_table(counts, args, result):
    counts["features.feature_table_rows_in"] += len(args[0])
    counts["features.mfis_out"] += len(result)


def _feature_csv(counts, args, result):
    counts["features.mfis_out"] += len(result)


def _rank_mfis(counts, args, result):
    counts["rank.k_max"] = max(counts["rank.k_max"], len(args[0]))


def _schedule(counts, args, result):
    counts["evaluate.weeks"] += len(result)
    counts["evaluate.weeks_ranked"] += sum(e.source == "ranked" for e in result)
    counts["evaluate.weeks_carried"] += sum(e.source == "carried" for e in result)


def _simulate(counts, args, result):
    counts["evaluate.apps_replayed"] += result.n_processed
    counts["evaluate.low_support_lookups"] += result.n_low_support


# (layer.function, modules whose global the callers look up, counter hook)
SPANS = (
    ("data.parse_conversions", ("mfirank.cli",), _parsed),
    ("data.parse_products", ("mfirank.cli",), _parsed),
    ("data.parse_clicks", ("mfirank.cli",), _parsed),
    ("data.validate", ("mfirank.cli",), None),
    ("features.feature_table", ("mfirank.cli", "mfirank.evaluate"), _feature_table),
    ("features.parse_feature_csv", ("mfirank.cli",), _feature_csv),
    ("rank.rank_mfis", ("mfirank.cli", "mfirank.evaluate"), _rank_mfis),
    ("rank.comparison_matrix", ("mfirank.rank",), None),
    ("rank.transition", ("mfirank.rank",), None),
    ("rank.stationary", ("mfirank.rank",), None),
    ("rank.rank_list", ("mfirank.rank",), None),
    ("evaluate.evaluate_ranking", ("mfirank.evaluate",), None),
    ("evaluate.weekly_schedule", ("mfirank.evaluate",), _schedule),
    ("evaluate.reapproval_table", ("mfirank.evaluate",), None),
    ("evaluate.simulate", ("mfirank.evaluate",), _simulate),
    ("evaluate.daily_series", ("mfirank.evaluate",), None),
    ("evaluate.weekly_totals", ("mfirank.evaluate",), None),
    ("evaluate.group_counts", ("mfirank.evaluate",), None),
    ("evaluate.sale_incomes", ("mfirank.evaluate",), None),
    ("evaluate.os_contingency", ("mfirank.evaluate",), None),
    ("stats.fisher_exact_greater", ("mfirank.cli",), None),
    ("stats.welch_t_greater", ("mfirank.cli",), None),
    ("stats.yule_ci", ("mfirank.cli",), None),
    ("stats.yule_colligation", ("mfirank.cli",), None),
)
COUNTED = (
    ("data.filter_loan_type", ("mfirank.cli", "mfirank.evaluate", "mfirank.features"), _rows_in),
    ("data.derive_timeline", ("mfirank.data", "mfirank.features"), None),
    ("evaluate.client_outcomes", ("mfirank.evaluate",), None),
)


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, hook=None):
        clock = time.perf_counter
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            record = [sid, self._stack[-1] if self._stack else None, name, clock(), None]
            self.spans.append(record)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[4] = clock()
            self.counts[calls] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, hook=None):
        counts = self.counts
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if hook is not None:
                hook(counts, args, None)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self.span), (COUNTED, self.counted)):
            for name, modules, hook in table:
                attr = name.split(".", 1)[1]
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    self._patched.append((module, attr, original))
                    setattr(module, attr, make(name, original, hook))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    out, command = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span(f"cli.{command[0]}", mfirank.cli.main)(command)
    finally:
        tracer.restore()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
