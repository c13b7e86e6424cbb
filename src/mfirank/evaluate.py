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

Every stage reads the columnar tables of the conversions and clicks
(:class:`mfirank.data.Table`); records given to an entry point are
converted once.  The weekly schedule trains on prefixes of the tables
in click-time order through one :class:`mfirank.features.FeaturePrefixes`.
The replay runs on one code table of the conversions
(:class:`ReplayCodes`), read from the table once by
:func:`reapproval_table` and carried to :func:`simulate`: integer MFI,
client and status codes, the site rank, the realized income, the
click-time order and the day and week of every row.  The client
history, the pair counts, the substitutions and the sums are array
reductions over it.  The tie rule "the latest record wins, the later
row on equal click times" has one home, :func:`_latest`, which
:func:`client_outcomes` and :func:`historical_ranking` share.  Every
float that reaches an artifact is a sequential sum in input (replay)
order, as ``np.bincount`` adds its weights, never a pairwise ``np.sum``
or a compensated ``sum``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from typing import NamedTuple, Sequence

import numpy as np

from .data import (
    STATUSES,
    ClickRecord,
    ConversionRecord,
    ProductRecord,
    Status,
    Table,
    click_table,
    conversion_table,
    filter_loan_type,  # noqa: F401  (perfbench/tracer.py counts this lookup site)
    first_seen,
    from_micros,
    ordinal_days,
    to_micros,
)
from .errors import MfiRankError
from .features import (
    DurationRule,
    FeaturePrefixes,
    LarPrior,
    feature_table,  # noqa: F401  (perfbench/tracer.py wraps this lookup site)
    normalize_lar,
)
from .rank import TIE_EPS, rank_mfis
from .stats import TwoByTwo

logger = logging.getLogger(__name__)

DEFAULT_MIN_SUPPORT = 5

# status codes of a conversions table
_PENDING, _SALE, _REJECTED = map(STATUSES.index, (Status.PENDING, Status.SALE, Status.REJECTED))


def week_start(moment: datetime) -> datetime:
    """Monday 00:00 of the ISO week containing ``moment``."""
    monday = moment.date() - timedelta(days=moment.weekday())
    return datetime(monday.year, monday.month, monday.day)


def _click_order(times: np.ndarray) -> np.ndarray:
    """Each row's place among the rows sorted by click time, equal times
    keeping their input order."""
    order = np.empty(len(times), np.int64)
    order[np.argsort(times, kind="stable")] = np.arange(len(times))
    return order


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal neighbours in ``values``."""
    new = np.ones(len(values), bool)
    new[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(new)
    return starts, np.diff(np.append(starts, len(values)))


def _latest(order: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of each distinct ``key``, in ascending order, the position of its
    latest row and of its first row.

    The one home of the tie rule: the latest row is the last in ``order``
    (:func:`_click_order`), so it clicked later or, on an equal click time,
    comes later in the input.  The first row is the one with the smallest
    position.
    """
    by = np.lexsort((order, key))
    starts, sizes = _runs(key[by])
    return by[starts + sizes - 1], np.minimum.reduceat(by, starts)


def historical_ranking(conversions: Table | Sequence[ConversionRecord]) -> list[str]:
    """The ordering the site actually used, recovered from the logs.

    Each MFI takes the site-wide rank stamped on its latest application;
    MFIs that never carried one go to the back in id order.
    """
    conversions = conversion_table(conversions)
    mfi_ids = conversions.names["mfi_id"]
    mfi, rank = conversions.columns["mfi_id"], conversions.columns["global_rank"]
    stamped = np.flatnonzero(~np.isnan(rank))
    rows, _ = _latest(_click_order(conversions.columns["click_time"][stamped]), mfi[stamped])
    latest = {mfi_ids[mfi[i]]: rank[i] for i in stamped[rows].tolist()}
    ranked = sorted(latest, key=lambda m: (latest[m], m))
    tail = sorted({mfi_ids[code] for code in np.unique(mfi).tolist()} - latest.keys())
    return ranked + tail


# ---------------------------------------------------------------------------
# the code table


@dataclass(frozen=True, eq=False)
class ReplayCodes:
    """The conversions of one replay as codes, one entry per row in input order.

    ``mfi_ids`` names the MFI codes in first-seen order; client codes are
    first-seen too.  ``rank`` is ``global_rank`` (NaN where missing),
    ``income`` what the row realized (:func:`_realized`) and ``paid`` marks
    a sale that carries an income.  ``order`` is the row's click-time order
    (:func:`_click_order`); ``day`` and ``week`` are the proleptic ordinals
    of its click date and of that week's Monday.
    """

    mfi_ids: tuple[str, ...]
    mfi: np.ndarray  # int32
    client: np.ndarray  # int32
    status: np.ndarray  # int8: _PENDING, _SALE, _REJECTED
    rank: np.ndarray  # float64
    income: np.ndarray  # float64
    paid: np.ndarray  # bool
    order: np.ndarray  # int64
    day: np.ndarray  # int64
    week: np.ndarray  # int64


def _realized(status: np.ndarray, income: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(income, paid) per record: a sale's income, 0.0 if it has none (NaN)
    or did not sell; paid marks a sale with an income."""
    paid = (status == _SALE) & ~np.isnan(income)
    return np.where(paid, income, 0.0), paid


def replay_codes(conversions: Table | Sequence[ConversionRecord]) -> ReplayCodes:
    """The code table of ``conversions``."""
    conversions = conversion_table(conversions)
    columns = conversions.columns
    mfi_codes, mfi = first_seen(columns["mfi_id"])
    _, client = first_seen(columns["client_id"])
    status = columns["status"]
    income, paid = _realized(status, columns["income"])
    times = columns["click_time"]
    day = ordinal_days(times)
    return ReplayCodes(
        mfi_ids=tuple(map(conversions.names["mfi_id"].__getitem__, mfi_codes.tolist())),
        mfi=mfi,
        client=client,
        status=status,
        rank=columns["global_rank"],
        income=income,
        paid=paid,
        order=_click_order(times),
        day=day,
        week=day - (day + 6) % 7,  # date.weekday() is (ordinal + 6) % 7
    )


# ---------------------------------------------------------------------------
# reapproval probabilities


@dataclass(frozen=True)
class PairStats:
    p: float
    support: int
    fallback: bool = False


@dataclass
class ReapprovalTable:
    """Conditional outcome frequencies between pairs of MFIs.

    ``sale[(a, b)]`` estimates P(client approved at a | approved at b)
    over clients with a final status at both; ``reject`` mirrors it for
    rejections.  Sparse pairs (support below ``min_support``) fall back
    to a's marginal approval rate; a pair never seen falls back the same
    way with zero support.  ``codes`` is the code table of the
    conversions the table was counted from, and ``history`` the rows of
    their :func:`client_outcomes`; the replay reads both.
    """

    sale: dict[tuple[str, str], PairStats]
    reject: dict[tuple[str, str], PairStats]
    mean_income: dict[str, float]
    marginal_lar: dict[str, float]
    min_support: int
    codes: ReplayCodes | None = field(default=None, compare=False, repr=False)
    history: np.ndarray | None = field(default=None, compare=False, repr=False)


def client_outcomes(codes: ReplayCodes) -> np.ndarray:
    """Row of the latest final record of each (client, MFI); pending never counts.

    Clients and their MFIs keep the order of their first final record.
    """
    final = np.flatnonzero(codes.status != _PENDING)
    client = codes.client[final]
    pair = client.astype(np.int64) * len(codes.mfi_ids) + codes.mfi[final]
    latest, first = _latest(codes.order[final], pair)
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


def _pair_stats(
    pair: np.ndarray,
    hit: np.ndarray,
    mfi_ids: Sequence[str],
    fallback: Sequence[float],
    min_support: int,
) -> dict[tuple[str, str], PairStats]:
    """The PairStats of each ``target * K + source`` code in ``pair``, keys in
    first-seen order: the share of its occurrences that ``hit``, or the
    target's ``fallback`` below ``min_support``."""
    seen_pairs, first, support = np.unique(pair, return_index=True, return_counts=True)
    hits = np.bincount(np.searchsorted(seen_pairs, pair[hit]), minlength=len(seen_pairs))
    out: dict[tuple[str, str], PairStats] = {}
    for n in np.argsort(first).tolist():
        target, source = divmod(int(seen_pairs[n]), len(mfi_ids))
        seen = int(support[n])
        key = (mfi_ids[target], mfi_ids[source])
        if seen >= min_support:
            out[key] = PairStats(int(hits[n]) / seen, seen)
        else:
            out[key] = PairStats(fallback[target], seen, fallback=True)
    return out


def reapproval_table(
    conversions: Table | Sequence[ConversionRecord],
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> ReapprovalTable:
    """The reapproval table of ``conversions``, carrying their code table and
    client history."""
    if min_support < 0:
        raise ValueError("min_support must be non-negative")
    codes = replay_codes(conversions)
    history = client_outcomes(codes)
    k = len(codes.mfi_ids)

    # Every ordered pair of one client's latest final records: a is the
    # outcome estimated, b the one conditioned on.
    i, j = _pairs(codes.client[history])
    a, b = history[i], history[j]
    pair = codes.mfi[a].astype(np.int64) * k + codes.mfi[b]
    if not len(pair):
        logger.warning(
            "no client dealt with two MFIs; reapproval table is all marginal fallbacks"
        )

    # Per-MFI marginals; incomes are summed in input order.
    sold = codes.status == _SALE
    apps = np.bincount(codes.mfi, minlength=k).tolist()
    sales = np.bincount(codes.mfi[sold], minlength=k).tolist()
    paid_mfi = codes.mfi[codes.paid]
    income_n = np.bincount(paid_mfi, minlength=k).tolist()
    income_sum = np.bincount(paid_mfi, weights=codes.income[codes.paid], minlength=k).tolist()
    prior = LarPrior(total_sales=sum(sales), total_apps=len(conversions))
    marginal = [normalize_lar(prior, s, n) for s, n in zip(sales, apps)]

    by_sale = codes.status[b] == _SALE
    by_reject = codes.status[b] == _REJECTED
    return ReapprovalTable(
        sale=_pair_stats(
            pair[by_sale], sold[a][by_sale], codes.mfi_ids, marginal, min_support
        ),
        reject=_pair_stats(
            pair[by_reject],
            (codes.status[a] == _REJECTED)[by_reject],
            codes.mfi_ids,
            [1.0 - p for p in marginal],
            min_support,
        ),
        mean_income={
            m: (s / n if n else 0.0) for m, s, n in zip(codes.mfi_ids, income_sum, income_n)
        },
        marginal_lar=dict(zip(codes.mfi_ids, marginal)),
        min_support=min_support,
        codes=codes,
        history=history,
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
    conversions: Table | Sequence[ConversionRecord],
    products: Sequence[ProductRecord],
    clicks: Table | Sequence[ClickRecord],
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

    The conversions and clicks are put in click-time order once (equal
    times keeping their input order), and one :class:`FeaturePrefixes`
    over them gives each week's feature table: that of the rows clicked
    before the week's Monday.  ``tests/test_evaluate.py`` checks the
    result against calling :func:`feature_table` on every prefix.  Like
    it, the schedule trains on every row given (selected by
    ``filter_loan_type``).
    """
    conversions, clicks = conversion_table(conversions), click_table(clicks)
    if not len(conversions):
        return []
    by_time = conversions.take(np.argsort(conversions.columns["click_time"], kind="stable"))
    clicks = clicks.take(np.argsort(clicks.columns["click_time"], kind="stable"))
    conv_times, click_times = by_time.columns["click_time"], clicks.columns["click_time"]
    prefixes = FeaturePrefixes(
        by_time, products, clicks, features=features, duration_rules=duration_rules
    )

    first = week_start(from_micros(int(conv_times[0])))
    last = week_start(from_micros(int(conv_times[-1])))
    fallback = tuple(historical_ranking(conversions))

    entries: list[WeekEntry] = []
    current = fallback
    source = "historical"
    monday = first
    while monday <= last:
        cut = to_micros(monday)
        conv_idx = int(np.searchsorted(conv_times, cut))
        if conv_idx:
            try:
                table = prefixes.table(conv_idx, int(np.searchsorted(click_times, cut)))
                if len(table) < 2:
                    raise ValueError("fewer than two rankable MFIs")
                current = tuple(
                    rank_mfis(table, features=features, damping=damping, tie_eps=tie_eps).ranking
                )
                source = "ranked"
            except (ValueError, MfiRankError) as exc:
                source = "carried" if entries else "historical"
                logger.info("week %s keeps the previous ranking: %s", monday.date(), exc)
        entries.append(
            WeekEntry(week_start=monday, ranking=current, trained_on=conv_idx, source=source)
        )
        monday += timedelta(days=7)
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
    days: dict[date, ReplaySums] = field(repr=False)

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


def _pair_arrays(
    pairs: dict[tuple[str, str], PairStats], fallback: np.ndarray, code: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """(p, fallback flag) of every (target, source) code pair as K x K arrays:
    a pair the table lacks takes the target's ``fallback`` and is flagged."""
    p = np.repeat(fallback[:, None], len(fallback), axis=1)
    flagged = np.ones(p.shape, bool)
    for (target, source), stats in pairs.items():
        if target in code and source in code:
            p[code[target], code[source]] = stats.p
            flagged[code[target], code[source]] = stats.fallback
    return p, flagged


def simulate(
    conversions: Table | Sequence[ConversionRecord],
    schedule: Sequence[WeekEntry],
    table: ReapprovalTable,
) -> SimulationResult:
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

    ``table`` must be the :func:`reapproval_table` of ``conversions``: the
    replay reads their rows from its code table.  A week is served by the
    schedule entry whose ``week_start`` is exactly its Monday 00:00 (the
    last such entry).
    """
    codes, history = table.codes, table.history
    if codes is None or len(codes.mfi) != len(conversions):
        raise ValueError("simulate needs the reapproval table of these conversions")
    code = {m: n for n, m in enumerate(codes.mfi_ids)}

    # The served weeks in calendar order, their rankings as MFI codes.
    served: dict[int, WeekEntry] = {}
    for entry in schedule:
        if week_start(entry.week_start) == entry.week_start:
            served[entry.week_start.toordinal()] = entry
    mondays = np.array(sorted(served), np.int64)
    entries = [served[m] for m in mondays.tolist()]
    lengths = np.array([len(e.ranking) for e in entries] + [0], np.int64)
    ranking = np.full((len(entries), lengths.max()), -1, np.int64)
    for w, entry in enumerate(entries):
        ranking[w, : len(entry.ranking)] = [code.setdefault(m, len(code)) for m in entry.ranking]
    k = len(code)

    # Coverage, checked in this order: a rank, a served week, a position
    # inside that week's ranking.  NaN (no rank) fails every comparison.
    slot = np.searchsorted(mondays, codes.week)
    has_rank = ~np.isnan(codes.rank)
    has_week = has_rank & (np.append(mondays, -1)[slot] == codes.week)
    in_range = has_week & (codes.rank >= 1) & (codes.rank <= lengths[slot])
    rows = np.flatnonzero(in_range)  # replay order
    slot = slot[rows]
    own = codes.mfi[rows]
    vra = ranking[slot, codes.rank[rows].astype(np.int64) - 1]
    status = codes.status[rows]

    # The record copied: the application itself when the substitute is its
    # own MFI, else the client's latest final record with the substitute.
    keys = codes.client[history].astype(np.int64) * k + codes.mfi[history]
    by_key = np.argsort(keys)
    found_row = np.append(history[by_key], -1)
    keys = keys[by_key]
    query = codes.client[rows].astype(np.int64) * k + vra
    at = np.searchsorted(keys, query)
    found = np.append(keys, -1)[at] == query
    known = np.where(vra == own, rows, np.where(found, found_row[at], -1))
    copied = known >= 0

    # Otherwise the table estimates it, by the application's own status.
    marginal = np.zeros(k)
    mean_income = np.zeros(k)
    for m, n in code.items():
        marginal[n] = table.marginal_lar.get(m, 0.0)
        mean_income[n] = table.mean_income.get(m, 0.0)
    p_sale, flag_sale = _pair_arrays(table.sale, marginal, code)
    p_reject, flag_reject = _pair_arrays(table.reject, 1.0 - marginal, code)
    is_sale = ~copied & (status == _SALE)
    is_reject = ~copied & (status == _REJECTED)
    p = np.where(
        is_sale, p_sale[vra, own], np.where(is_reject, 1.0 - p_reject[vra, own], marginal[vra])
    )
    income = mean_income[vra] * p
    p[copied] = codes.status[known[copied]] == _SALE
    income[copied] = codes.income[known[copied]]
    low_support = (is_sale & flag_sale[vra, own]) | (is_reject & flag_reject[vra, own])

    values = (p, income, (status == _SALE).astype(np.float64), codes.income[rows])

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
        n_pending_fallback=int((~copied & (status == _PENDING)).sum()),
        n_low_support=int(low_support.sum()),
        weeks={entries[w].week_start: s for w, s in sums(slot).items()},
        days={date.fromordinal(d): s for d, s in sums(codes.day[rows]).items()},
    )


def weekly_totals(result: SimulationResult) -> list[dict]:
    """Per-week aggregates of the replay, weeks in calendar order."""
    rows = []
    for week in sorted(result.weeks):
        n, lar, income, hist_lar, hist_income = result.weeks[week]
        rows.append(
            {
                "week": week.date().isoformat(),
                "applications": n,
                "lar": lar / n,
                "avg_income": income / n,
                "historical_lar": hist_lar / n,
                "historical_avg_income": hist_income / n,
            }
        )
    return rows


def daily_series(
    result: SimulationResult, clicks: Table | Sequence[ClickRecord]
) -> list[dict]:
    """Per-day income and sales totals for both algorithms, plus click counts.

    The date range spans every day between the first and last click (or
    replayed application, whichever is wider); days without traffic emit
    zero entries so the series always covers the full range.  The
    "historical" totals are restricted to the replayed applications, so
    they compare like with like against the "vra" totals.
    """
    days, counts = np.unique(ordinal_days(click_table(clicks).columns["click_time"]), return_counts=True)
    click_days = dict(zip(map(date.fromordinal, days.tolist()), counts.tolist()))
    sums = result.days
    all_days = set(click_days) | set(sums)
    if not all_days:
        return []

    rows = []
    day = min(all_days)
    last = max(all_days)
    while day <= last:
        _, sales, income, hist_sales, hist_income = sums.get(day, _NO_SUMS)
        rows.append(
            {
                "date": day.isoformat(),
                "clicks": click_days.get(day, 0),
                "historical": {"income": hist_income, "sales": hist_sales},
                "vra": {"income": income, "sales": sales},
            }
        )
        day += timedelta(days=1)
    return rows


def evaluate_ranking(
    conversions: Table | Sequence[ConversionRecord],
    products: Sequence[ProductRecord],
    clicks: Table | Sequence[ClickRecord],
    *,
    features: Sequence[str] | None = None,
    damping: float = 0.0,
    min_support: int = DEFAULT_MIN_SUPPORT,
    duration_rules: Sequence[DurationRule] | None = None,
    tie_eps: float = TIE_EPS,
) -> tuple[SimulationResult, list[WeekEntry]]:
    """Full replay of the records given, which
    :func:`mfirank.data.filter_loan_type` selected for one loan type:
    weekly rankings, reapproval table, simulation.  Records are converted
    to tables once, here."""
    conversions, clicks = conversion_table(conversions), click_table(clicks)
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
    return simulate(conversions, schedule, table), schedule


# ---------------------------------------------------------------------------
# experiment-group helpers


def group_counts(conversions: Table | Sequence[ConversionRecord]) -> tuple[int, int]:
    """(sales, applications) of one experiment group."""
    conversions = conversion_table(conversions)
    return int(np.count_nonzero(conversions.columns["status"] == _SALE)), len(conversions)


def sale_incomes(conversions: Table | Sequence[ConversionRecord]) -> list[float]:
    """The incomes of the group's sales that have one, in row order."""
    conversions = conversion_table(conversions)
    income = conversions.columns["income"]
    return income[(conversions.columns["status"] == _SALE) & ~np.isnan(income)].tolist()


def os_contingency(
    groups: Sequence[Table | Sequence[ConversionRecord]], os_name: str
) -> TwoByTwo:
    """2x2 table of (runs ``os_name``) against (application approved) over
    the rows of every group: each group is counted and the cells added."""
    target = os_name.strip().lower()
    cells = np.zeros(4, np.int64)  # n00, n01, n10, n11
    for group in groups:
        group = conversion_table(group)
        names = group.names["os"]
        runs = np.array([n is not None and n.strip().lower() == target for n in names], bool)
        sold = group.columns["status"] == _SALE
        cells += np.bincount(2 * runs[group.columns["os"]] + sold, minlength=4)
    n00, n01, n10, n11 = cells.tolist()
    return TwoByTwo(n11=n11, n10=n10, n01=n01, n00=n00)
