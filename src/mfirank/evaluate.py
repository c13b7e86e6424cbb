"""Offline evaluation of a ranking by replaying the click log.

The replay asks: had the site shown a different MFI at the position
this client clicked, what would have happened?  Outcomes are estimated
from the client's own history with the substituted MFI when available,
and otherwise from reapproval probabilities: conditional frequencies of
(outcome at MFI a) given (outcome at MFI b) across all clients who
dealt with both.  Expected income is the substituted MFI's mean sale
income weighted by the estimated approval probability.

Rankings are refreshed weekly: each ISO week is served by a ranking
trained on everything strictly before its Monday, so no application is
scored by a model that saw it.

Every stage takes the columnar tables of the conversions and clicks
(:class:`mfirank.data.Table`), whose rows are in one order, by click time
and then by every column, whatever the order of the input rows.  The
weekly schedule trains on prefixes of the tables as given through one
:class:`mfirank.features.FeaturePrefixes`.  Its weeks and the days of
the daily series are one calendar in day ordinals, :func:`replay_calendar`.
The replay reads the conversions table itself, which
:func:`reapproval_table` carries to :func:`simulate`: like every table,
a selection included, it holds dense first-seen MFI and client codes
into names its rows all hold.  The client history, the pair counts, the
substitutions and the sums are array reductions over its columns, what
each row realized (:func:`mfirank.data.realized`) and the day and week
of its click.  The reapproval table is held in the table's MFI codes,
per-MFI and K x K arrays that :func:`simulate` indexes directly.  The
tie rule "the latest record wins" has one home, :func:`_latest`, which
:func:`client_outcomes` and :func:`historical_ranking` share.  Every
float that reaches an artifact, from the feature tables and the replay
alike, is a sequential sum in table order, as ``np.bincount`` adds its
weights, never a pairwise ``np.sum`` or a compensated ``sum``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_MIN_SUPPORT, TIE_EPS, DurationRule
from .data import (
    STATUSES,
    ProductRecord,
    Status,
    Table,
    filter_loan_type,  # noqa: F401  (perfbench/tracer.py counts this lookup site)
    midnights,
    ordinal_days,
    realized,
)
from .errors import DataError, MfiRankError
from .features import (
    FeaturePrefixes,
    LarPrior,
    feature_table,  # noqa: F401  (perfbench/tracer.py wraps this lookup site)
    normalize_lar,
)
from .rank import rank_mfis
from .stats import TwoByTwo
from .weeks import monday, week_start

logger = logging.getLogger(__name__)

# status codes of a conversions table
_PENDING, _SALE, _REJECTED = map(STATUSES.index, (Status.PENDING, Status.SALE, Status.REJECTED))

MAX_REPLAY_DAYS = 100_000  # the most days a replay spans, first and last included: ~274 years


def replay_calendar(first: int, last: int, *, weekly: bool = False) -> np.ndarray:
    """The ordinals of the days ``first`` to ``last`` of a replay's first and
    last click_time, or with ``weekly`` the Mondays of their weeks.  A span
    of more than :data:`MAX_REPLAY_DAYS` days is a DataError naming both."""
    span = last - first + 1
    if span > MAX_REPLAY_DAYS:
        raise DataError(
            f"click_time {date.fromordinal(first)} to click_time {date.fromordinal(last)} "
            f"spans {span:,} days, more than the {MAX_REPLAY_DAYS:,} a replay may span"
        )
    return np.arange(monday(first), last + 1, 7) if weekly else np.arange(first, last + 1)


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal neighbours in ``values``."""
    new = np.ones(len(values), bool)
    new[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(new)
    return starts, np.diff(np.append(starts, len(values)))


def _latest(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of each distinct ``key`` (an entry per row of a table, or of rows
    taken from it in order), in ascending order, the position of its latest
    row and of its first row.

    The one home of the tie rule: rows are in table order, by click time
    and then by every column, so the latest row clicked later or, on an
    equal click time, sorts last by its columns.
    """
    by = np.argsort(key, kind="stable")
    starts, sizes = _runs(key[by])
    return by[starts + sizes - 1], by[starts]


def historical_ranking(conversions: Table) -> list[str]:
    """The ordering the site actually used, recovered from the logs.

    Each MFI takes the site-wide rank stamped on its latest application;
    MFIs that never carried one go to the back in id order.
    """
    mfi_ids = conversions.names["mfi_id"]
    mfi, rank = conversions.columns["mfi_id"], conversions.columns["global_rank"]
    stamped = np.flatnonzero(~np.isnan(rank))
    rows, _ = _latest(mfi[stamped])
    latest = {mfi_ids[mfi[i]]: rank[i] for i in stamped[rows].tolist()}
    ranked = sorted(latest, key=lambda m: (latest[m], m))
    tail = sorted(set(mfi_ids) - latest.keys())
    return ranked + tail


# ---------------------------------------------------------------------------
# reapproval probabilities


class PairTable(NamedTuple):
    """One conditional outcome frequency as K x K arrays over (target,
    source) MFI codes: the estimate, the clients it was counted over, and
    whether it is the target's marginal fallback instead."""

    p: np.ndarray  # float64
    support: np.ndarray  # int64
    fallback: np.ndarray  # bool


@dataclass(frozen=True, eq=False)
class ReapprovalTable:
    """Conditional outcome frequencies between pairs of MFIs, in the MFI
    codes of ``conversions``.

    ``sale.p[a, b]`` estimates P(client approved at a | approved at b)
    over the ``sale.support[a, b]`` clients with a final status at both;
    ``reject`` mirrors it for rejections.  A pair seen fewer than the
    ``min_support`` of :func:`reapproval_table` times, or never, is a
    ``fallback``: its ``p`` is a's marginal approval rate (its rejection
    rate for ``reject``).  ``marginal_lar`` and ``mean_income`` are per
    MFI code.  ``conversions`` is the table it was counted from, and
    ``history`` the rows of its :func:`client_outcomes`; the replay reads
    both.
    """

    conversions: Table
    history: np.ndarray
    marginal_lar: np.ndarray  # float64
    mean_income: np.ndarray  # float64
    sale: PairTable
    reject: PairTable


def client_outcomes(conversions: Table) -> np.ndarray:
    """Row of the latest final record of each (client, MFI); pending never counts.

    Clients and their MFIs keep the order of their first final record.
    """
    columns = conversions.columns
    final = np.flatnonzero(columns["status"] != _PENDING)
    client = columns["client_id"][final]
    pair = client.astype(np.int64) * len(conversions.names["mfi_id"]) + columns["mfi_id"][final]
    latest, first = _latest(pair)
    starts, sizes = _runs(client[latest])
    client_first = np.repeat(np.minimum.reduceat(first, starts), sizes)
    return final[latest[np.lexsort((first, client_first))]]


def _pairs(owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j), i != j, of every ordered pair inside each run of
    equal ``owner`` values, i outer and j inner as two nested loops go."""
    starts, sizes = _runs(owner)
    span = np.repeat(sizes, sizes)  # the run length at each position
    i = np.repeat(np.arange(len(owner)), span)
    block = np.repeat(np.cumsum(span) - span, span)
    j = np.arange(len(i)) - block + np.repeat(np.repeat(starts, sizes), span)
    keep = i != j
    return i[keep], j[keep]


def _pair_table(
    pair: np.ndarray, hit: np.ndarray, marginal: np.ndarray, min_support: int
) -> PairTable:
    """The PairTable of the ``target * K + source`` codes in ``pair``: the
    share of each pair's occurrences that ``hit``, or the target's
    ``marginal`` where it occurs less than ``min_support`` times or never."""
    k = len(marginal)
    support = np.bincount(pair, minlength=k * k).reshape(k, k)
    hits = np.bincount(pair[hit], minlength=k * k).reshape(k, k)
    fallback = (support == 0) | (support < min_support)
    p = np.where(fallback, marginal[:, None], hits / np.maximum(support, 1))
    return PairTable(p, support, fallback)


def reapproval_table(
    conversions: Table, min_support: int = DEFAULT_MIN_SUPPORT
) -> ReapprovalTable:
    """The reapproval table of ``conversions``, carrying them and their
    client history."""
    if min_support < 0:
        raise ValueError("min_support must be non-negative")
    columns = conversions.columns
    mfi, status = columns["mfi_id"], columns["status"]
    history = client_outcomes(conversions)
    k = len(conversions.names["mfi_id"])

    # Every ordered pair of one client's latest final records: a is the
    # outcome estimated, b the one conditioned on.
    i, j = _pairs(columns["client_id"][history])
    a, b = history[i], history[j]
    pair = mfi[a].astype(np.int64) * k + mfi[b]
    if not len(pair):
        logger.warning(
            "no client dealt with two MFIs; reapproval table is all marginal fallbacks"
        )

    # Per-MFI marginals; incomes are summed in input order.
    sold = status == _SALE
    income, paid = realized(conversions)
    apps = np.bincount(mfi, minlength=k).tolist()
    sales = np.bincount(mfi[sold], minlength=k).tolist()
    income_n = np.bincount(mfi[paid], minlength=k)
    income_sum = np.bincount(mfi[paid], weights=income[paid], minlength=k)
    prior = LarPrior(total_sales=sum(sales), total_apps=len(conversions))
    marginal = np.array([normalize_lar(prior, s, n) for s, n in zip(sales, apps)], np.float64)

    by_sale = status[b] == _SALE
    by_reject = status[b] == _REJECTED
    return ReapprovalTable(
        conversions=conversions,
        history=history,
        marginal_lar=marginal,
        mean_income=income_sum / np.maximum(income_n, 1),  # 0.0 without a paid sale
        sale=_pair_table(pair[by_sale], sold[a][by_sale], marginal, min_support),
        reject=_pair_table(
            pair[by_reject], (status[a] == _REJECTED)[by_reject], 1.0 - marginal, min_support
        ),
    )


# ---------------------------------------------------------------------------
# weekly ranking schedule


@dataclass(frozen=True)
class WeekEntry:
    week_start: datetime
    ranking: tuple[str, ...]
    trained_on: int
    source: str  # "historical" | "ranked" | "carried"


def weekly_schedule(
    conversions: Table,
    products: Sequence[ProductRecord],
    clicks: Table,
    *,
    features: Sequence[str] | None = None,
    damping: float = 0.0,
    duration_rules: Sequence[DurationRule] | None = None,
    tie_eps: float = TIE_EPS,
) -> list[WeekEntry]:
    """One ranking per ISO week of the log, trained on the strict past.

    The first week falls back to the ordering the site actually used.
    A week whose training slice cannot produce a ranking (too few MFIs,
    degenerate chain) carries the previous week's list forward.

    The tables are in click-time order (:class:`mfirank.data.Table`), so
    one :class:`FeaturePrefixes` over them as given gives each week's
    feature table: that of the rows clicked before the week's Monday.
    ``tests/test_evaluate.py`` checks the result against calling
    :func:`feature_table` on every prefix.  Like it, the schedule trains on
    every row given (selected by ``filter_loan_type``).  A week whose
    prefixes are those of the last week trained on (no row fell in between)
    keeps that week's outcome and ranks nothing.  The weeks are the
    :func:`replay_calendar` of the conversions, so a span of more than
    :data:`MAX_REPLAY_DAYS` days raises DataError before any week is trained.
    """
    if not len(conversions):
        return []
    conv_times, click_times = conversions.columns["click_time"], clicks.columns["click_time"]
    mondays = replay_calendar(*ordinal_days(conv_times[[0, -1]]).tolist(), weekly=True)
    cuts = midnights(mondays)
    ends = [np.searchsorted(times, cuts).tolist() for times in (conv_times, click_times)]
    prefixes = FeaturePrefixes(
        conversions, products, clicks, features=features, duration_rules=duration_rules
    )

    entries: list[WeekEntry] = []
    current = tuple(historical_ranking(conversions))
    source = "historical"
    trained = (0, 0)
    for day, prefix in zip(mondays.tolist(), zip(*ends)):
        start = datetime.fromordinal(day)
        if prefix[0] and prefix != trained:
            trained = prefix
            try:
                table = prefixes.table(*prefix)
                if len(table) < 2:
                    raise ValueError("fewer than two rankable MFIs")
                current = tuple(
                    rank_mfis(table, features=features, damping=damping, tie_eps=tie_eps).ranking
                )
                source = "ranked"
            except (ValueError, MfiRankError) as exc:
                source = "carried" if entries else "historical"
                logger.info("week %s keeps the previous ranking: %s", start.date(), exc)
        entries.append(WeekEntry(start, current, trained_on=prefix[0], source=source))
    return entries


# ---------------------------------------------------------------------------
# replay


class ReplaySums(NamedTuple):
    """Sums over replayed applications, each value added one at a time from
    0.0 in replay order: the expected sales (approval probabilities) and
    income of the replay, and the sales and income the applications had."""

    applications: int
    sales: float
    income: float
    historical_sales: float
    historical_income: float


_NO_SUMS = ReplaySums(0, 0.0, 0.0, 0.0, 0.0)


@dataclass
class SimulationResult:
    total_lar: float
    avg_income: float
    historical_lar: float
    historical_avg_income: float
    n_processed: int
    n_copied: int
    n_skipped_no_rank: int
    n_skipped_out_of_range: int
    n_skipped_no_week: int
    n_pending_fallback: int
    n_low_support: int
    weeks: dict[datetime, ReplaySums] = field(repr=False)
    days: dict[int, ReplaySums] = field(repr=False)  # by the day's proleptic ordinal

    def to_dict(self) -> dict:
        return {
            "total_lar": self.total_lar,
            "avg_income": self.avg_income,
            "historical_lar": self.historical_lar,
            "historical_avg_income": self.historical_avg_income,
            "coverage": {
                "processed": self.n_processed,
                "copied": self.n_copied,
                "skipped_no_rank": self.n_skipped_no_rank,
                "skipped_out_of_range": self.n_skipped_out_of_range,
                "skipped_no_week": self.n_skipped_no_week,
                "pending_fallback": self.n_pending_fallback,
                "low_support_lookups": self.n_low_support,
            },
        }


def simulate(schedule: Sequence[WeekEntry], table: ReapprovalTable) -> SimulationResult:
    """Replay every application against the scheduled rankings.

    Each application is re-served by whichever MFI the week's ranking
    puts at the position the client actually clicked.  When the client
    really applied there, the actual status and income are copied
    verbatim, which makes the replay of the historical ranking reproduce
    history exactly.  Otherwise the reapproval table keyed by the
    historical outcome estimates the result; the client's own outcome
    with the substitute comes from ``table.history``.  Applications
    without a usable position are skipped and counted, so coverage is
    visible in the result.

    The replayed applications are the rows of ``table.conversions``, the
    conversions the table was counted from, in their MFI and client codes.
    A week is served by the schedule entry whose ``week_start`` is exactly
    the Monday 00:00 of the application's click date (the last such entry).
    A ranked MFI the conversions lack takes a code past the table's: it has
    a marginal rate and a mean income of 0, and every pair with it as the
    target is a fallback.
    """
    conversions, history = table.conversions, table.history
    columns, mfi_ids = conversions.columns, conversions.names["mfi_id"]
    mfi, client, status, rank = (
        columns[name] for name in ("mfi_id", "client_id", "status", "global_rank")
    )
    realized_income, _ = realized(conversions)
    day = ordinal_days(columns["click_time"])
    week = monday(day)
    code = {m: n for n, m in enumerate(mfi_ids)}

    # The served weeks in calendar order, their rankings as MFI codes.
    served = {
        e.week_start.toordinal(): e for e in schedule if week_start(e.week_start) == e.week_start
    }
    mondays = np.array(sorted(served), np.int64)
    entries = [served[m] for m in mondays.tolist()]
    lengths = np.array([len(e.ranking) for e in entries] + [0], np.int64)
    ranking = np.full((len(entries), lengths.max()), -1, np.int64)
    for w, entry in enumerate(entries):
        ranking[w, : len(entry.ranking)] = [code.setdefault(m, len(code)) for m in entry.ranking]
    k = len(code)

    # Coverage, checked in this order: a rank, a served week, a position
    # inside that week's ranking.  NaN (no rank) fails every comparison.
    slot = np.searchsorted(mondays, week)
    has_rank = ~np.isnan(rank)
    has_week = has_rank & (np.append(mondays, -1)[slot] == week)
    in_range = has_week & (rank >= 1) & (rank <= lengths[slot])
    rows = np.flatnonzero(in_range)  # replay order
    slot = slot[rows]
    own = mfi[rows]
    vra = ranking[slot, rank[rows].astype(np.int64) - 1]
    outcome = status[rows]

    # The record copied: the application itself when the substitute is its
    # own MFI, else the client's latest final record with the substitute.
    keys = client[history].astype(np.int64) * k + mfi[history]
    by_key = np.argsort(keys)
    found_row = np.append(history[by_key], -1)
    keys = keys[by_key]
    query = client[rows].astype(np.int64) * k + vra
    at = np.searchsorted(keys, query)
    found = np.append(keys, -1)[at] == query
    known = np.where(vra == own, rows, np.where(found, found_row[at], -1))
    copied = known >= 0

    # Otherwise the table estimates it, by the application's own status.
    # Rows are padded for the MFIs the table lacks; only a target can be one.
    extra = (0, k - len(mfi_ids))
    marginal = np.pad(table.marginal_lar, extra)
    mean_income = np.pad(table.mean_income, extra)
    p_sale = np.pad(table.sale.p, (extra, (0, 0)))
    flag_sale = np.pad(table.sale.fallback, (extra, (0, 0)), constant_values=True)
    p_reject = np.pad(table.reject.p, (extra, (0, 0)), constant_values=1.0)
    flag_reject = np.pad(table.reject.fallback, (extra, (0, 0)), constant_values=True)
    is_sale = ~copied & (outcome == _SALE)
    is_reject = ~copied & (outcome == _REJECTED)
    p = np.where(
        is_sale, p_sale[vra, own], np.where(is_reject, 1.0 - p_reject[vra, own], marginal[vra])
    )
    income = mean_income[vra] * p
    p[copied] = status[known[copied]] == _SALE
    income[copied] = realized_income[known[copied]]
    low_support = (is_sale & flag_sale[vra, own]) | (is_reject & flag_reject[vra, own])

    values = (p, income, (outcome == _SALE).astype(np.float64), realized_income[rows])

    def sums(bucket: np.ndarray) -> dict[int, ReplaySums]:
        """The sums of each distinct ``bucket`` value, in replay order."""
        buckets, index = np.unique(bucket, return_inverse=True)
        columns = [np.bincount(index, weights=v).tolist() for v in values]
        return dict(
            zip(buckets.tolist(), map(ReplaySums._make, zip(np.bincount(index).tolist(), *columns)))
        )

    total = sums(np.zeros(len(rows), np.int64)).get(0, _NO_SUMS)
    n = total.applications
    return SimulationResult(
        total_lar=total.sales / n if n else 0.0,
        avg_income=total.income / n if n else 0.0,
        historical_lar=total.historical_sales / n if n else 0.0,
        historical_avg_income=total.historical_income / n if n else 0.0,
        n_processed=n,
        n_copied=int(copied.sum()),
        n_skipped_no_rank=int((~has_rank).sum()),
        n_skipped_out_of_range=int((has_week & ~in_range).sum()),
        n_skipped_no_week=int((has_rank & ~has_week).sum()),
        n_pending_fallback=int((~copied & (outcome == _PENDING)).sum()),
        n_low_support=int(low_support.sum()),
        weeks={entries[w].week_start: s for w, s in sums(slot).items()},
        days=sums(day[rows]),
    )


def weekly_totals(result: SimulationResult) -> list[dict]:
    """Per-week aggregates of the replay, weeks in calendar order."""
    return [
        {
            "week": week.date().isoformat(),
            "applications": n,
            "lar": lar / n,
            "avg_income": income / n,
            "historical_lar": hist_lar / n,
            "historical_avg_income": hist_income / n,
        }
        for week, (n, lar, income, hist_lar, hist_income) in sorted(result.weeks.items())
    ]


def daily_series(result: SimulationResult, clicks: Table) -> list[dict]:
    """Per-day income and sales totals for both algorithms, plus click counts.

    The days are the :func:`replay_calendar` from the first to the last
    click or replayed application, days without traffic emitting zero
    entries; a span of more than :data:`MAX_REPLAY_DAYS` days raises
    DataError.  The "historical" totals are restricted to the replayed
    applications, so they compare like with like against the "vra" totals.
    """
    clicks.expect("clicks")
    click_days = ordinal_days(clicks.columns["click_time"])
    bounds = np.concatenate([click_days, np.fromiter(result.days, np.int64, len(result.days))])
    if not len(bounds):
        return []
    days = replay_calendar(int(bounds.min()), int(bounds.max())).tolist()
    counts = np.bincount(click_days - days[0], minlength=len(days)).tolist()
    sums = [result.days.get(day, _NO_SUMS) for day in days]
    return [
        {
            "date": date.fromordinal(day).isoformat(),
            "clicks": n_clicks,
            "historical": {"income": s.historical_income, "sales": s.historical_sales},
            "vra": {"income": s.income, "sales": s.sales},
        }
        for day, n_clicks, s in zip(days, counts, sums)
    ]


def evaluate_ranking(
    conversions: Table,
    products: Sequence[ProductRecord],
    clicks: Table,
    *,
    features: Sequence[str] | None = None,
    damping: float = 0.0,
    min_support: int = DEFAULT_MIN_SUPPORT,
    duration_rules: Sequence[DurationRule] | None = None,
    tie_eps: float = TIE_EPS,
) -> tuple[SimulationResult, list[WeekEntry]]:
    """Full replay of the rows given, which
    :func:`mfirank.data.filter_loan_type` selected for one loan type:
    weekly rankings, reapproval table, simulation."""
    schedule = weekly_schedule(
        conversions,
        products,
        clicks,
        features=features,
        damping=damping,
        duration_rules=duration_rules,
        tie_eps=tie_eps,
    )
    table = reapproval_table(conversions, min_support=min_support)
    return simulate(schedule, table), schedule


# ---------------------------------------------------------------------------
# experiment-group helpers


def group_counts(conversions: Table) -> tuple[int, int]:
    """(sales, applications) of one experiment group."""
    return int(np.count_nonzero(conversions.columns["status"] == _SALE)), len(conversions)


def sale_incomes(conversions: Table) -> list[float]:
    """The incomes of the group's sales that have one, in row order."""
    income, paid = realized(conversions)
    return income[paid].tolist()


def os_contingency(groups: Sequence[Table], os_name: str) -> TwoByTwo:
    """2x2 table of (runs ``os_name``) against (application approved) over
    the rows of every group: each group is counted and the cells added."""
    target = os_name.strip().lower()
    cells = np.zeros(4, np.int64)  # n00, n01, n10, n11
    for group in groups:
        names = group.names["os"]
        runs = np.array([n is not None and n.strip().lower() == target for n in names], bool)
        sold = group.columns["status"] == _SALE
        cells += np.bincount(2 * runs[group.columns["os"]] + sold, minlength=4)
    n00, n01, n10, n11 = cells.tolist()
    return TwoByTwo(n11=n11, n10=n10, n01=n01, n00=n00)
