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
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from typing import Callable, Hashable, Mapping, Sequence

from .data import (
    ClickRecord,
    ConversionRecord,
    ProductRecord,
    Status,
    filter_loan_type,  # noqa: F401  (perfbench/tracer.py counts this lookup site)
)
from .errors import MfiRankError
from .features import (
    DurationRule,
    FeatureAccumulator,
    LarPrior,
    feature_table,  # noqa: F401  (perfbench/tracer.py wraps this lookup site)
    normalize_lar,
)
from .rank import TIE_EPS, rank_mfis

logger = logging.getLogger(__name__)

DEFAULT_MIN_SUPPORT = 5


def week_start(moment: datetime) -> datetime:
    """Monday 00:00 of the ISO week containing ``moment``."""
    monday = moment.date() - timedelta(days=moment.weekday())
    return datetime(monday.year, monday.month, monday.day)


def _later(rec: ConversionRecord, seen: ConversionRecord | None) -> bool:
    """Whether ``rec`` replaces ``seen`` as the latest record: it clicked
    later, or at the same time and so comes later in the input."""
    return seen is None or rec.click_time >= seen.click_time


def historical_ranking(conversions: Sequence[ConversionRecord]) -> list[str]:
    """The ordering the site actually used, recovered from the logs.

    Each MFI takes the site-wide rank stamped on its latest application;
    MFIs that never carried one go to the back in id order.
    """
    latest: dict[str, ConversionRecord] = {}
    unranked: set[str] = set()
    for rec in conversions:
        if rec.global_rank is None:
            unranked.add(rec.mfi_id)
        elif _later(rec, latest.get(rec.mfi_id)):
            latest[rec.mfi_id] = rec
    ranked = sorted(latest, key=lambda m: (latest[m].global_rank, m))
    tail = sorted(unranked - set(latest))
    return ranked + tail


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
    to a's marginal approval rate, and identity pairs are certain.
    ``history`` is the :func:`client_outcomes` map the pairs were counted
    from; the replay copies a client's own outcome from its records.
    """

    mfis: tuple[str, ...]
    sale: dict[tuple[str, str], PairStats]
    reject: dict[tuple[str, str], PairStats]
    mean_income: dict[str, float]
    marginal_lar: dict[str, float]
    min_support: int
    history: dict[str, dict[str, ConversionRecord]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def p_sale(self, target: str, source: str) -> PairStats:
        if target == source:
            return PairStats(1.0, support=0)
        got = self.sale.get((target, source))
        if got is not None:
            return got
        return PairStats(self.marginal_lar.get(target, 0.0), 0, fallback=True)

    def p_reject(self, target: str, source: str) -> PairStats:
        if target == source:
            return PairStats(1.0, support=0)
        got = self.reject.get((target, source))
        if got is not None:
            return got
        return PairStats(1.0 - self.marginal_lar.get(target, 0.0), 0, fallback=True)


def client_outcomes(
    conversions: Sequence[ConversionRecord],
) -> dict[str, dict[str, ConversionRecord]]:
    """client -> mfi -> latest final record (pending never counts).

    On equal click times the later row wins.  Clients and their MFIs
    keep the order of their first final record.
    """
    latest: dict[str, dict[str, ConversionRecord]] = {}
    for rec in conversions:
        if rec.status is Status.PENDING:
            continue
        per_client = latest.get(rec.client_id)
        if per_client is None:
            per_client = latest[rec.client_id] = {}
        if _later(rec, per_client.get(rec.mfi_id)):
            per_client[rec.mfi_id] = rec
    return latest


def reapproval_table(
    conversions: Sequence[ConversionRecord],
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> ReapprovalTable:
    """The reapproval table of ``conversions``, carrying their client history."""
    if min_support < 0:
        raise ValueError("min_support must be non-negative")
    outcomes = client_outcomes(conversions)

    num_sale: Counter = Counter()
    den_sale: Counter = Counter()
    num_reject: Counter = Counter()
    den_reject: Counter = Counter()
    for per_client in outcomes.values():
        mfis = list(per_client.items())
        for i, (mfi_a, out_a) in enumerate(mfis):
            for j, (mfi_b, out_b) in enumerate(mfis):
                if i == j:
                    continue
                if out_b.status is Status.SALE:
                    den_sale[(mfi_a, mfi_b)] += 1
                    if out_a.status is Status.SALE:
                        num_sale[(mfi_a, mfi_b)] += 1
                elif out_b.status is Status.REJECTED:
                    den_reject[(mfi_a, mfi_b)] += 1
                    if out_a.status is Status.REJECTED:
                        num_reject[(mfi_a, mfi_b)] += 1
    if not den_sale and not den_reject:
        logger.warning(
            "no client dealt with two MFIs; reapproval table is all marginal fallbacks"
        )

    # Per-MFI marginals in one pass; keys keep first-seen order, incomes
    # are summed in input order.
    per_mfi_apps: Counter = Counter()
    per_mfi_sales: Counter = Counter()
    income_sum: dict[str, float] = defaultdict(float)
    income_n: Counter = Counter()
    for rec in conversions:
        per_mfi_apps[rec.mfi_id] += 1
        if rec.status is Status.SALE:
            per_mfi_sales[rec.mfi_id] += 1
            if rec.income is not None:
                income_sum[rec.mfi_id] += rec.income
                income_n[rec.mfi_id] += 1
    prior = LarPrior(
        total_sales=sum(per_mfi_sales.values()), total_apps=len(conversions)
    )
    marginal = {
        m: normalize_lar(prior, per_mfi_sales.get(m, 0), n)
        for m, n in per_mfi_apps.items()
    }
    mean_income = {
        m: (income_sum[m] / income_n[m] if income_n[m] else 0.0) for m in per_mfi_apps
    }

    def build(num: Counter, den: Counter, fallback: Mapping[str, float]) -> dict:
        out: dict[tuple[str, str], PairStats] = {}
        for pair, support in den.items():
            if support >= min_support:
                out[pair] = PairStats(num.get(pair, 0) / support, support)
            else:
                out[pair] = PairStats(fallback.get(pair[0], 0.0), support, fallback=True)
        return out

    reject_fallback = {m: 1.0 - p for m, p in marginal.items()}
    return ReapprovalTable(
        mfis=tuple(sorted(per_mfi_apps)),
        sale=build(num_sale, den_sale, marginal),
        reject=build(num_reject, den_reject, reject_fallback),
        mean_income=mean_income,
        marginal_lar=marginal,
        min_support=min_support,
        history=outcomes,
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
    conversions: Sequence[ConversionRecord],
    products: Sequence[ProductRecord],
    clicks: Sequence[ClickRecord],
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

    Training is incremental: one :class:`FeatureAccumulator` takes each
    week's new applications (in click-time order) and clicks before that
    week's Monday, so every record is read once rather than once per
    later week.  ``tests/test_evaluate.py`` checks the result against
    calling :func:`feature_table` on every prefix.  Like it, the schedule
    trains on every record given (selected by ``filter_loan_type``).
    """
    if not conversions:
        return []
    by_time = sorted(conversions, key=lambda r: r.click_time)
    clicks_sorted = sorted(clicks, key=lambda c: c.click_time)
    acc = FeatureAccumulator(products, features=features, duration_rules=duration_rules)

    first = week_start(by_time[0].click_time)
    last = week_start(by_time[-1].click_time)
    fallback = tuple(historical_ranking(conversions))

    entries: list[WeekEntry] = []
    current = fallback
    source = "historical"
    conv_idx = 0
    click_idx = 0
    monday = first
    while monday <= last:
        start = conv_idx
        while conv_idx < len(by_time) and by_time[conv_idx].click_time < monday:
            conv_idx += 1
        acc.add_conversions(by_time[start:conv_idx])
        start = click_idx
        while click_idx < len(clicks_sorted) and clicks_sorted[click_idx].click_time < monday:
            click_idx += 1
        acc.add_clicks(clicks_sorted[start:click_idx])
        if conv_idx:
            try:
                table = acc.table()
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


@dataclass(frozen=True)
class AppOutcome:
    client_id: str
    mfi_hist: str
    mfi_vra: str
    click_time: datetime
    week: datetime
    position: int
    p_sale: float
    income: float
    copied: bool
    rule: str  # "identity" | "history" | "table-sale" | "table-reject" | "table-pending"
    hist_sale: bool
    hist_income: float


@dataclass
class SimulationResult:
    outcomes: list[AppOutcome]
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


def _realized(rec: ConversionRecord) -> tuple[bool, float]:
    """(sold, income) of a record: a sale's income, 0.0 if it has none or did not sell."""
    if rec.status is Status.SALE:
        return True, rec.income if rec.income is not None else 0.0
    return False, 0.0


_NO_SUMS = (0, 0.0, 0.0, 0.0, 0.0)


def _bucket_sums(outcomes: Sequence[AppOutcome], key: Callable[[AppOutcome], Hashable]):
    """key -> [n, p_sale, income, hist_sale, hist_income] over the outcomes, keys in
    first-seen order; each sum adds one outcome at a time from 0.0, in replay order."""
    sums: dict = {}
    for o in outcomes:
        acc = sums.setdefault(key(o), list(_NO_SUMS))
        acc[0] += 1
        acc[1] += o.p_sale
        acc[2] += o.income
        acc[3] += o.hist_sale
        acc[4] += o.hist_income
    return sums


def simulate(
    conversions: Sequence[ConversionRecord],
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
    """
    weeks = {entry.week_start: entry for entry in schedule}
    entry_of_day: dict[date, WeekEntry | None] = {}
    history = table.history

    replayed: list[AppOutcome] = []
    n_no_rank = n_out_of_range = n_no_week = 0
    n_copied = n_pending = n_low_support = 0

    for rec in conversions:
        if rec.global_rank is None:
            n_no_rank += 1
            continue
        day = rec.click_time.date()
        try:
            entry = entry_of_day[day]
        except KeyError:
            entry = entry_of_day[day] = weeks.get(week_start(rec.click_time))
        if entry is None:
            n_no_week += 1
            continue
        position = rec.global_rank
        if not 1 <= position <= len(entry.ranking):
            n_out_of_range += 1
            continue
        vra = entry.ranking[position - 1]
        known = rec if vra == rec.mfi_id else history.get(rec.client_id, {}).get(vra)

        if known is not None:
            hit, income = _realized(known)
            p = 1.0 if hit else 0.0
            copied, rule = True, "identity" if known is rec else "history"
        else:
            copied = False
            if rec.status is Status.SALE:
                stats = table.p_sale(vra, rec.mfi_id)
                p = stats.p
                rule = "table-sale"
                n_low_support += stats.fallback
            elif rec.status is Status.REJECTED:
                stats = table.p_reject(vra, rec.mfi_id)
                p = 1.0 - stats.p
                rule = "table-reject"
                n_low_support += stats.fallback
            else:
                p = table.marginal_lar.get(vra, 0.0)
                rule = "table-pending"
                n_pending += 1
            income = table.mean_income.get(vra, 0.0) * p

        sold, own_income = _realized(rec)
        replayed.append(
            AppOutcome(
                client_id=rec.client_id,
                mfi_hist=rec.mfi_id,
                mfi_vra=vra,
                click_time=rec.click_time,
                week=entry.week_start,
                position=position,
                p_sale=p,
                income=income,
                copied=copied,
                rule=rule,
                hist_sale=sold,
                hist_income=own_income,
            )
        )
        n_copied += copied

    totals = _bucket_sums(replayed, lambda o: None)
    n, lar, income, hist_lar, hist_income = totals.get(None, _NO_SUMS)
    return SimulationResult(
        outcomes=replayed,
        total_lar=lar / n if n else 0.0,
        avg_income=income / n if n else 0.0,
        historical_lar=hist_lar / n if n else 0.0,
        historical_avg_income=hist_income / n if n else 0.0,
        n_processed=n,
        n_copied=n_copied,
        n_skipped_no_rank=n_no_rank,
        n_skipped_out_of_range=n_out_of_range,
        n_skipped_no_week=n_no_week,
        n_pending_fallback=n_pending,
        n_low_support=n_low_support,
    )


def weekly_totals(result: SimulationResult) -> list[dict]:
    """Per-week aggregates of the replay, weeks in calendar order."""
    sums = _bucket_sums(result.outcomes, lambda o: o.week)
    rows = []
    for week in sorted(sums):
        n, lar, income, hist_lar, hist_income = sums[week]
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
    result: SimulationResult, clicks: Sequence[ClickRecord]
) -> list[dict]:
    """Per-day income and sales totals for both algorithms, plus click counts.

    The date range spans every day between the first and last click (or
    replayed application, whichever is wider); days without traffic emit
    zero entries so the series always covers the full range.  The
    "historical" totals are restricted to the replayed applications, so
    they compare like with like against the "vra" totals.
    """
    click_days = Counter(c.click_time.date() for c in clicks)
    sums = _bucket_sums(result.outcomes, lambda o: o.click_time.date())
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
    conversions: Sequence[ConversionRecord],
    products: Sequence[ProductRecord],
    clicks: Sequence[ClickRecord],
    *,
    features: Sequence[str] | None = None,
    damping: float = 0.0,
    min_support: int = DEFAULT_MIN_SUPPORT,
    duration_rules: Sequence[DurationRule] | None = None,
    tie_eps: float = TIE_EPS,
) -> tuple[SimulationResult, list[WeekEntry]]:
    """Full replay of the records given, which
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
    return simulate(conversions, schedule, table), schedule


# ---------------------------------------------------------------------------
# experiment-group helpers


def group_counts(records: Sequence[ConversionRecord]) -> tuple[int, int]:
    """(sales, applications) of one experiment group."""
    return (sum(1 for r in records if r.status is Status.SALE), len(records))


def sale_incomes(records: Sequence[ConversionRecord]) -> list[float]:
    return [r.income for r in records if r.status is Status.SALE and r.income is not None]


def os_contingency(records: Sequence[ConversionRecord], os_name: str):
    """2x2 table of (runs ``os_name``) against (application approved)."""
    from .stats import TwoByTwo

    n11 = n10 = n01 = n00 = 0
    for rec in records:
        uses = rec.os is not None and rec.os.strip().lower() == os_name.strip().lower()
        sold = rec.status is Status.SALE
        if uses and sold:
            n11 += 1
        elif uses:
            n10 += 1
        elif sold:
            n01 += 1
        else:
            n00 += 1
    return TwoByTwo(n11=n11, n10=n10, n01=n01, n00=n00)
