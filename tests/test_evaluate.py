"""Replay evaluation: reapproval table, weekly schedule, simulation."""

from __future__ import annotations

import dataclasses
import io
import itertools
import logging
import math
import random
from collections import Counter, defaultdict
from datetime import date, datetime, timedelta
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfirank.evaluate
from mfirank.data import (
    ClickRecord,
    ConversionRecord,
    LoanType,
    Status,
    filter_loan_type,
    parse_conversions,
    serialize_conversions,
)
from mfirank.errors import MfiRankError
from mfirank.evaluate import (
    DEFAULT_MIN_SUPPORT,
    PairStats,
    ReapprovalTable,
    ReplaySums,
    SimulationResult,
    WeekEntry,
    client_outcomes,
    daily_series,
    evaluate_ranking,
    group_counts,
    historical_ranking,
    os_contingency,
    reapproval_table,
    replay_codes,
    sale_incomes,
    simulate,
    week_start,
    weekly_schedule,
    weekly_totals,
)
from mfirank.features import LarPrior, feature_table, normalize_lar
from mfirank.fixtures import FixtureConfig, generate_fixture
from mfirank.rank import rank_mfis
from mfirank.stats import TwoByTwo

T0 = datetime(2021, 3, 1, 10, 0, 0)  # a Monday


def capp(
    mfi: str,
    client: str,
    status: Status = Status.SALE,
    hours: float = 0.0,
    income: float | None = None,
    rank: int | None = None,
) -> ConversionRecord:
    click = T0 + timedelta(hours=hours)
    return ConversionRecord(
        mfi_id=mfi,
        loan_type=LoanType.STANDARD,
        client_id=client,
        click_time=click,
        status=status,
        global_rank=rank,
        conversion_time=click + timedelta(minutes=10),
        sale_time=click + timedelta(hours=1) if status is Status.SALE else None,
        income=income if status is Status.SALE else None,
    )


def history(conversions):
    """client -> MFI -> record of :func:`client_outcomes`, in its order."""
    out: dict[str, dict[str, ConversionRecord]] = {}
    for row in client_outcomes(replay_codes(conversions)).tolist():
        rec = conversions[row]
        out.setdefault(rec.client_id, {})[rec.mfi_id] = rec
    return out


# How the replay reads a table (the ``p_sale``/``p_reject`` methods of the
# table before the replay moved onto arrays): identity pairs are certain,
# a pair the table lacks falls back to the target's marginal rate.


def p_sale(table: ReapprovalTable, target: str, source: str) -> PairStats:
    if target == source:
        return PairStats(1.0, support=0)
    got = table.sale.get((target, source))
    if got is not None:
        return got
    return PairStats(table.marginal_lar.get(target, 0.0), 0, fallback=True)


def p_reject(table: ReapprovalTable, target: str, source: str) -> PairStats:
    if target == source:
        return PairStats(1.0, support=0)
    got = table.reject.get((target, source))
    if got is not None:
        return got
    return PairStats(1.0 - table.marginal_lar.get(target, 0.0), 0, fallback=True)


def test_week_start_is_monday_midnight():
    assert week_start(datetime(2021, 3, 3, 15, 30)) == datetime(2021, 3, 1)
    assert week_start(datetime(2021, 3, 1, 0, 0)) == datetime(2021, 3, 1)
    assert week_start(datetime(2021, 3, 7, 23, 59)) == datetime(2021, 3, 1)


def test_historical_ranking_uses_the_latest_stamp():
    records = [
        capp("a", "c1", rank=2, hours=0),
        capp("a", "c2", rank=1, hours=5),  # later stamp wins
        capp("b", "c3", rank=2, hours=6),
        capp("z", "c4"),  # never ranked: goes to the back
    ]
    assert historical_ranking(records) == ["a", "b", "z"]


def test_client_outcomes_keep_the_latest_final_status_and_income():
    records = [
        capp("a", "c1", Status.REJECTED, hours=0),
        capp("a", "c1", Status.SALE, hours=2, income=55.0),
        capp("a", "c1", Status.PENDING, hours=4),  # pending never counts
        capp("b", "c1", Status.PENDING, hours=5),
    ]
    outcomes = history(records)
    assert set(outcomes) == {"c1"}
    assert set(outcomes["c1"]) == {"a"}
    assert outcomes["c1"]["a"].status is Status.SALE
    assert outcomes["c1"]["a"].income == 55.0


# ---------------------------------------------------------------------------
# reapproval table


def test_reapproval_certainty_case():
    records = []
    for i in range(10):
        records.append(capp("A", f"c{i}", income=10.0, hours=i))
        records.append(capp("B", f"c{i}", income=10.0, hours=i + 0.5))
    table = reapproval_table(records)
    stats = p_sale(table, "A", "B")
    assert stats.p == 1.0
    assert stats.support == 10
    assert not stats.fallback


def test_reapproval_hand_counted_fraction():
    records = []
    for i in range(8):
        records.append(capp("B", f"c{i}", income=5.0, hours=i))
        status = Status.SALE if i < 3 else Status.REJECTED
        records.append(capp("A", f"c{i}", status, income=5.0, hours=i + 0.5))
    table = reapproval_table(records, min_support=1)
    assert p_sale(table, "A", "B").p == pytest.approx(0.375)
    assert p_sale(table, "A", "B").support == 8


def test_reapproval_identity_pairs_are_certain():
    # an application re-served by its own MFI keeps its own outcome
    records = [
        capp("A", "c1", income=5.0, rank=1),
        capp("A", "c2", Status.REJECTED, hours=1, rank=1),
    ]
    table = reapproval_table(records)
    schedule = [WeekEntry(week_start(T0), ("A",), 0, "ranked")]
    result = simulate(records, schedule, table)
    assert (result.n_copied, result.total_lar, result.avg_income) == (2, 0.5, 2.5)


def test_reapproval_pairs_join_two_different_mfis():
    records = [
        capp(m, f"c{i}", income=5.0, hours=i + n / 2) for i in range(3) for n, m in enumerate("AB")
    ]
    table = reapproval_table(records, min_support=1)
    assert set(table.sale) == {("A", "B"), ("B", "A")}
    assert table.reject == {}


def test_reapproval_low_support_falls_back_to_the_marginal():
    records = [
        capp("A", "c1", income=5.0, hours=0),
        capp("B", "c1", Status.REJECTED, hours=1),
        capp("A", "c2", Status.REJECTED, hours=2),
        capp("A", "c3", Status.PENDING, hours=3),
    ]
    table = reapproval_table(records, min_support=5)
    stats = p_sale(table, "B", "A")  # one co-client, below min_support
    assert stats.fallback and stats.support == 1
    # marginal normalized LAR of B: prior (1 sale / 4 apps) + (0 of 1)
    assert table.marginal_lar["B"] == pytest.approx(1.0 / 5.0)
    assert stats.p == pytest.approx(1.0 / 5.0)
    # pair never observed at all: marginal fallback with zero support
    missing = p_reject(table, "B", "A")
    assert missing.fallback and missing.support == 0
    assert missing.p == pytest.approx(1.0 - 1.0 / 5.0)


def test_reapproval_without_co_applicants_warns(caplog):
    records = [capp("A", "c1", income=5.0), capp("B", "c2", Status.REJECTED)]
    with caplog.at_level(logging.WARNING, logger="mfirank.evaluate"):
        table = reapproval_table(records)
    assert any("no client dealt with two MFIs" in m for m in caplog.messages)
    assert p_sale(table, "A", "B").fallback


def brute_force_pair(records, target, source):
    """Independent counting oracle for P(sale at target | sale at source)."""
    latest: dict[str, dict[str, tuple[datetime, Status]]] = defaultdict(dict)
    for rec in records:
        if rec.status is Status.PENDING:
            continue
        seen = latest[rec.client_id].get(rec.mfi_id)
        if seen is None or rec.click_time >= seen[0]:
            latest[rec.client_id][rec.mfi_id] = (rec.click_time, rec.status)
    num = den = 0
    for per_client in latest.values():
        if source in per_client and target in per_client and source != target:
            if per_client[source][1] is Status.SALE:
                den += 1
                num += per_client[target][1] is Status.SALE
    return (num / den if den else None), den


def test_reapproval_matches_the_counting_oracle_on_fixtures():
    for seed in range(5):
        conversions, _, _ = generate_fixture(seed, n_mfis=4, n_clients=40)
        table = reapproval_table(conversions, min_support=1)
        mfis = sorted({r.mfi_id for r in conversions})
        for target in mfis:
            for source in mfis:
                if target == source:
                    continue
                expected, support = brute_force_pair(conversions, target, source)
                if expected is None:
                    continue
                got = p_sale(table, target, source)
                assert got.support == support
                assert got.p == pytest.approx(expected), (seed, target, source)


# ---------------------------------------------------------------------------
# weekly schedule


def three_week_dataset():
    """Two MFIs over three ISO weeks, one of them clearly better."""
    records = []
    clicks = []
    for week in range(3):
        for i in range(6):
            hours = week * 168 + i * 3
            good_status = Status.SALE if i < 4 else Status.REJECTED
            bad_status = Status.SALE if i < 1 else Status.REJECTED
            records.append(
                capp("good", f"g{week}{i}", good_status, hours=hours, income=30.0, rank=1)
            )
            records.append(
                capp("bad", f"b{week}{i}", bad_status, hours=hours + 1, income=5.0, rank=2)
            )
    for rec in records:
        clicks.append(
            ClickRecord(
                mfi_id=rec.mfi_id,
                click_time=rec.click_time,
                client_id=rec.client_id,
                loan_type=LoanType.STANDARD,
            )
        )
    from mfirank.data import ProductRecord

    products = [
        ProductRecord(
            mfi_id=m,
            card_id=f"card-{m}",
            loan_type=LoanType.STANDARD,
            avg_user_rating=4.0,
            n_reviews=10,
        )
        for m in ("good", "bad")
    ]
    return records, products, clicks


def test_weekly_schedule_trains_on_the_strict_past():
    records, products, clicks = three_week_dataset()
    schedule = weekly_schedule(records, products, clicks)
    assert len(schedule) == 3
    assert schedule[0].source == "historical"
    assert schedule[0].trained_on == 0
    assert [e.trained_on for e in schedule] == [0, 12, 24]
    assert schedule[1].source == "ranked"
    assert schedule[1].ranking[0] == "good"


def test_weekly_schedule_has_no_leakage():
    records, products, clicks = three_week_dataset()
    from mfirank.data import ProductRecord

    # a dominant newcomer whose data exists only in week two
    star_apps = [
        capp("star", f"s{i}", Status.SALE, hours=168 + i, income=500.0, rank=1)
        for i in range(10)
    ]
    star_clicks = [
        ClickRecord(
            mfi_id="star",
            click_time=r.click_time,
            client_id=r.client_id,
            loan_type=LoanType.STANDARD,
        )
        for r in star_apps
    ]
    products = products + [
        ProductRecord(
            mfi_id="star",
            card_id="card-star",
            loan_type=LoanType.STANDARD,
            avg_user_rating=5.0,
            n_reviews=50,
        )
    ]
    schedule = weekly_schedule(
        records + star_apps, products, clicks + star_clicks
    )
    assert "star" not in schedule[1].ranking  # trained before it existed
    assert "star" in schedule[2].ranking


def test_weekly_schedule_is_stationary_on_constant_data():
    records, products, clicks = three_week_dataset()
    schedule = weekly_schedule(records, products, clicks)
    ranked = [e for e in schedule if e.source == "ranked"]
    assert len(ranked) == 2
    assert ranked[0].ranking == ranked[1].ranking


def test_weekly_schedule_carries_degenerate_weeks():
    records, products, clicks = three_week_dataset()
    # drop one MFI's product card: its training slices keep a single
    # rankable MFI, so every week falls back
    schedule = weekly_schedule(records, products[:1], clicks)
    assert [e.source for e in schedule] == ["historical", "carried", "carried"]
    first = schedule[0].ranking
    assert all(e.ranking == first for e in schedule)


def prefix_schedule(conversions, products, clicks, *, features):
    """The weekly schedule rebuilt from scratch each week: ``feature_table``
    on the whole training prefix, then ``rank_mfis``, with the same
    historical-first and carry-forward rules as ``weekly_schedule``."""
    if not conversions:
        return []
    by_time = sorted(conversions, key=lambda r: r.click_time)
    clicks_by_time = sorted(clicks, key=lambda c: c.click_time)
    current = tuple(historical_ranking(conversions))
    source = "historical"
    entries = []
    monday = week_start(by_time[0].click_time)
    while monday <= week_start(by_time[-1].click_time):
        training = [r for r in by_time if r.click_time < monday]
        seen = [c for c in clicks_by_time if c.click_time < monday]
        if training:
            try:
                table = feature_table(training, products, seen, features=features)
                if len(table) < 2:
                    raise ValueError("fewer than two rankable MFIs")
                current = tuple(rank_mfis(table, features=features).ranking)
                source = "ranked"
            except (ValueError, MfiRankError):
                source = "carried" if entries else "historical"
        entries.append(WeekEntry(monday, current, len(training), source))
        monday += timedelta(days=7)
    return entries


def perturbed(conversions, seed):
    """Shuffle the rows and bend some timelines, so the differential cases
    also meet unsorted input, invalid timelines and late submissions:
    one in twenty everywhere (the outlier repair of on-time MFIs) and
    all of MFI 10's (an MFI that is not on time)."""
    rng = random.Random(seed)
    out = []
    for i, rec in enumerate(conversions):
        if rec.conversion_time is not None and (rec.mfi_id == "10" or i % 20 == 0):
            late = timedelta(hours=3)
            rec = dataclasses.replace(
                rec,
                conversion_time=rec.conversion_time + late,
                sale_time=rec.sale_time + late if rec.sale_time else None,
            )
        elif i % 13 == 0:
            rec = dataclasses.replace(rec, conversion_time=rec.click_time - timedelta(minutes=1))
        out.append(rec)
    rng.shuffle(out)
    return out


# (seed, n_mfis, n_clients, n_weeks); with half the cards removed the
# two-MFI datasets keep a single rankable MFI, so their weeks carry.
DIFFERENTIAL_DATASETS = [
    (0, 2, 30, 4),
    (1, 6, 150, 5),
    (2, 10, 400, 8),
    (3, 5, 80, 6),
]
DIFFERENTIAL_FEATURES = [None, ("rating", "lar", "epc"), ("fairness", "service_period")]


def differential_variants(seed, n_mfis, n_clients, n_weeks):
    conversions, products, clicks = generate_fixture(
        seed, n_mfis=n_mfis, n_clients=n_clients, config=FixtureConfig(n_weeks=n_weeks)
    )
    for bent in (False, True):
        convs = perturbed(conversions, seed) if bent else conversions
        for half in (False, True):
            cards = products[: len(products) // 2] if half else products
            for loan_type in (LoanType.STANDARD, None):
                selected = [filter_loan_type(r, loan_type) for r in (convs, cards, clicks)]
                yield (bent, half, loan_type), selected


@pytest.mark.parametrize("features", DIFFERENTIAL_FEATURES)
@pytest.mark.parametrize("dataset", DIFFERENTIAL_DATASETS)
def test_weekly_schedule_matches_per_prefix_feature_tables(dataset, features):
    for variant, (convs, cards, clicks) in differential_variants(*dataset):
        got = weekly_schedule(convs, cards, clicks, features=features)
        want = prefix_schedule(convs, cards, clicks, features=features)
        assert got == want, variant


def test_differential_cases_cover_carried_weeks_and_excluded_mfis():
    sources = set()
    excluded = 0
    for dataset in DIFFERENTIAL_DATASETS:
        for _, (convs, cards, clicks) in differential_variants(*dataset):
            schedule = weekly_schedule(convs, cards, clicks)
            sources.update(e.source for e in schedule)
            excluded += bool({r.mfi_id for r in convs} - {p.mfi_id for p in cards})
    assert sources == {"historical", "ranked", "carried"}
    assert excluded > 0


# ---------------------------------------------------------------------------
# simulation


def identity_schedule(records):
    ranking = tuple(historical_ranking(records))
    weeks = sorted({week_start(r.click_time) for r in records})
    return [
        WeekEntry(week_start=w, ranking=ranking, trained_on=0, source="historical")
        for w in weeks
    ]


def test_identity_replay_reproduces_history_exactly(fixture_triple):
    conversions, _, _ = fixture_triple
    table = reapproval_table(conversions)
    schedule = identity_schedule(conversions)
    result = simulate(conversions, schedule, table)
    assert result.n_processed == len(conversions)
    assert result.n_copied == result.n_processed
    want, outcomes = reference_simulate(conversions, schedule, table)
    assert result == want
    assert all(o.rule == "identity" for o in outcomes)
    true_lar = sum(1 for r in conversions if r.status is Status.SALE) / len(conversions)
    true_income = sum(
        r.income for r in conversions if r.status is Status.SALE and r.income
    ) / len(conversions)
    assert result.total_lar == pytest.approx(true_lar, abs=0)
    assert result.avg_income == pytest.approx(true_income, rel=1e-12)
    assert result.historical_lar == result.total_lar
    assert result.historical_avg_income == pytest.approx(result.avg_income, rel=1e-12)


def test_swapped_position_uses_the_table():
    records = [capp("A", "c1", Status.SALE, income=50.0, rank=1)]
    schedule = [
        WeekEntry(week_start=week_start(T0), ranking=("B", "A"), trained_on=0, source="ranked")
    ]
    # the table of these records, with a pair and an MFI they never show
    table = dataclasses.replace(
        reapproval_table(records),
        sale={("B", "A"): PairStats(0.6, support=10)},
        reject={},
        mean_income={"B": 100.0},
        marginal_lar={"A": 0.5, "B": 0.5},
    )
    result = simulate(records, schedule, table)
    assert (result.n_processed, result.n_copied, result.n_low_support) == (1, 0, 0)
    assert result.total_lar == 0.6
    assert result.avg_income == pytest.approx(60.0)
    assert result.historical_lar == 1.0 and result.historical_avg_income == 50.0
    want, (outcome,) = reference_simulate(records, schedule, table)
    assert result == want
    assert outcome.rule == "table-sale"


def test_client_history_copies_the_actual_outcome():
    records = [
        capp("B", "c1", Status.SALE, hours=-48, income=77.0, rank=2),
        capp("A", "c1", Status.SALE, hours=1, income=50.0, rank=1),
    ]
    schedule = [
        WeekEntry(week_start=w, ranking=("B", "A"), trained_on=0, source="ranked")
        for w in sorted({week_start(r.click_time) for r in records})
    ]
    table = reapproval_table(records, min_support=1)
    result = simulate(records, schedule, table)
    assert result.n_copied == result.n_processed == 2
    # A's application, re-served by B, where c1 really got 77.0
    assert result.weeks[week_start(T0)] == ReplaySums(1, 1.0, 77.0, 1.0, 50.0)
    want, outcomes = reference_simulate(records, schedule, table)
    assert result == want
    assert {o.mfi_hist: o.rule for o in outcomes} == {"A": "history", "B": "history"}


def test_pending_history_uses_the_marginal():
    records = [
        capp("A", "c1", Status.PENDING, rank=1),
        capp("B", "c2", Status.SALE, income=40.0, rank=2, hours=1),
        capp("B", "c3", Status.REJECTED, rank=2, hours=2),
    ]
    schedule = [
        WeekEntry(
            week_start=week_start(T0), ranking=("B", "A"), trained_on=0, source="ranked"
        )
    ]
    table = reapproval_table(records, min_support=1)
    result = simulate(records, schedule, table)
    assert result.n_pending_fallback == 1
    want, outcomes = reference_simulate(records, schedule, table)
    assert result == want
    pending = next(o for o in outcomes if o.mfi_hist == "A")
    assert pending.rule == "table-pending"
    assert pending.p_sale == pytest.approx(table.marginal_lar["B"])


def test_positions_outside_the_list_are_counted():
    records = [
        capp("A", "c1", Status.SALE, income=5.0, rank=9),
        capp("A", "c2", Status.SALE, income=5.0),  # no rank at all
    ]
    schedule = [
        WeekEntry(
            week_start=week_start(T0), ranking=("A", "B"), trained_on=0, source="ranked"
        )
    ]
    table = reapproval_table(records)
    result = simulate(records, schedule, table)
    assert result.n_processed == 0
    assert result.n_skipped_out_of_range == 1
    assert result.n_skipped_no_rank == 1


# ---------------------------------------------------------------------------
# aggregates


def test_weekly_totals_partition_the_replay(fixture_triple):
    conversions, products, clicks = fixture_triple
    result, schedule = evaluate_ranking(conversions, products, clicks)
    rows = weekly_totals(result)
    assert sum(r["applications"] for r in rows) == result.n_processed
    blended = sum(r["lar"] * r["applications"] for r in rows) / result.n_processed
    assert blended == pytest.approx(result.total_lar)
    assert [r["week"] for r in rows] == sorted(r["week"] for r in rows)


def test_daily_series_covers_the_full_range(fixture_triple):
    conversions, products, clicks = fixture_triple
    result, _ = evaluate_ranking(conversions, products, clicks)
    rows = daily_series(result, clicks)
    first = date.fromisoformat(rows[0]["date"])
    last = date.fromisoformat(rows[-1]["date"])
    assert len(rows) == (last - first).days + 1
    dates = [date.fromisoformat(r["date"]) for r in rows]
    assert dates == sorted(dates)
    total_clicks = sum(r["clicks"] for r in rows)
    assert total_clicks == len(clicks)


def test_daily_series_identity_twin_tracks(fixture_triple):
    conversions, _, clicks = fixture_triple
    table = reapproval_table(conversions)
    result = simulate(conversions, identity_schedule(conversions), table)
    for row in daily_series(result, clicks):
        assert row["vra"]["income"] == pytest.approx(row["historical"]["income"])
        assert row["vra"]["sales"] == pytest.approx(row["historical"]["sales"])


def test_evaluate_ranking_round_trip(fixture_triple):
    conversions, products, clicks = fixture_triple
    result, schedule = evaluate_ranking(conversions, products, clicks)
    standard = [r for r in conversions if r.loan_type is LoanType.STANDARD]
    starts = [week_start(r.click_time) for r in standard]
    n_mondays = (max(starts) - min(starts)).days // 7 + 1
    assert len(schedule) == n_mondays
    payload = result.to_dict()
    assert set(payload) == {
        "total_lar",
        "avg_income",
        "historical_lar",
        "historical_avg_income",
        "coverage",
    }
    coverage = payload["coverage"]
    assert coverage["processed"] + coverage["skipped_no_rank"] + coverage[
        "skipped_out_of_range"
    ] + coverage["skipped_no_week"] == len(standard)


# ---------------------------------------------------------------------------
# client_outcomes, reapproval_table and simulate as they were before
# evaluate_ranking shared one client-outcome map between the last two and
# simulate memoized the week of each calendar day, and the replay sums as
# they were before the replay moved onto the code table, kept as the
# references of the differential tests below.  The reference simulate
# keeps one record per replayed application (AppOutcome) and sums them
# one at a time in replay order.

logger = logging.getLogger(__name__)


class ClientOutcome(NamedTuple):
    status: Status
    income: float | None


def reference_client_outcomes(
    conversions: Sequence[ConversionRecord],
) -> dict[str, dict[str, ClientOutcome]]:
    """client -> mfi -> latest final status and its income (pending never counts)."""
    stamped: dict[str, dict[str, tuple[datetime, ClientOutcome]]] = defaultdict(dict)
    for rec in conversions:
        if rec.status is Status.PENDING:
            continue
        per_client = stamped[rec.client_id]
        seen = per_client.get(rec.mfi_id)
        if seen is None or rec.click_time >= seen[0]:
            per_client[rec.mfi_id] = (rec.click_time, ClientOutcome(rec.status, rec.income))
    return {
        client: {m: outcome for m, (_, outcome) in mfis.items()}
        for client, mfis in stamped.items()
    }


def reference_reapproval_table(
    conversions: Sequence[ConversionRecord],
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> ReapprovalTable:
    if min_support < 0:
        raise ValueError("min_support must be non-negative")
    outcomes = reference_client_outcomes(conversions)

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

    per_mfi_apps: Counter = Counter(r.mfi_id for r in conversions)
    per_mfi_sales: Counter = Counter(
        r.mfi_id for r in conversions if r.status is Status.SALE
    )
    prior = LarPrior(
        total_sales=sum(per_mfi_sales.values()), total_apps=len(conversions)
    )
    marginal = {
        m: normalize_lar(prior, per_mfi_sales.get(m, 0), n)
        for m, n in per_mfi_apps.items()
    }

    income_sum: dict[str, float] = defaultdict(float)
    income_n: Counter = Counter()
    for rec in conversions:
        if rec.status is Status.SALE and rec.income is not None:
            income_sum[rec.mfi_id] += rec.income
            income_n[rec.mfi_id] += 1
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
        sale=build(num_sale, den_sale, marginal),
        reject=build(num_reject, den_reject, reject_fallback),
        mean_income=mean_income,
        marginal_lar=marginal,
        min_support=min_support,
    )


@dataclasses.dataclass(frozen=True)
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


_NO_SUMS = (0, 0.0, 0.0, 0.0, 0.0)


def reference_bucket_sums(
    outcomes: Sequence[AppOutcome], key: Callable[[AppOutcome], Hashable]
) -> dict:
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


def reference_simulate(
    conversions: Sequence[ConversionRecord],
    schedule: Sequence[WeekEntry],
    table: ReapprovalTable,
) -> tuple[SimulationResult, list[AppOutcome]]:
    """Replay every application against the scheduled rankings.

    Each application is re-served by whichever MFI the week's ranking
    puts at the position the client actually clicked.  When the client
    really applied there, the actual status and income are copied
    verbatim, which makes the replay of the historical ranking reproduce
    history exactly.  Otherwise the reapproval table keyed by the
    historical outcome estimates the result.  Applications without a
    usable position are skipped and counted, so coverage is visible in
    the result.
    """
    weeks = {entry.week_start: entry for entry in schedule}
    history = reference_client_outcomes(conversions)

    outcomes: list[AppOutcome] = []
    n_no_rank = n_out_of_range = n_no_week = 0
    n_copied = n_pending = n_low_support = 0

    for rec in conversions:
        if rec.global_rank is None:
            n_no_rank += 1
            continue
        entry = weeks.get(week_start(rec.click_time))
        if entry is None:
            n_no_week += 1
            continue
        position = rec.global_rank
        if not 1 <= position <= len(entry.ranking):
            n_out_of_range += 1
            continue
        vra = entry.ranking[position - 1]
        known = history.get(rec.client_id, {}).get(vra) if vra != rec.mfi_id else None

        if vra == rec.mfi_id:
            p = 1.0 if rec.status is Status.SALE else 0.0
            income = rec.income if (rec.status is Status.SALE and rec.income is not None) else 0.0
            copied, rule = True, "identity"
        elif known is not None:
            p = 1.0 if known.status is Status.SALE else 0.0
            income = known.income if (known.status is Status.SALE and known.income is not None) else 0.0
            copied, rule = True, "history"
        else:
            copied = False
            if rec.status is Status.SALE:
                stats = p_sale(table, vra, rec.mfi_id)
                p = stats.p
                rule = "table-sale"
                n_low_support += stats.fallback
            elif rec.status is Status.REJECTED:
                stats = p_reject(table, vra, rec.mfi_id)
                p = 1.0 - stats.p
                rule = "table-reject"
                n_low_support += stats.fallback
            else:
                p = table.marginal_lar.get(vra, 0.0)
                rule = "table-pending"
                n_pending += 1
            income = table.mean_income.get(vra, 0.0) * p

        sold = rec.status is Status.SALE
        own_income = rec.income if (sold and rec.income is not None) else 0.0
        outcomes.append(
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

    n, lar, income, hist_lar, hist_income = reference_bucket_sums(
        outcomes, lambda o: None
    ).get(None, _NO_SUMS)
    result = SimulationResult(
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
        weeks={
            week: ReplaySums(*sums)
            for week, sums in reference_bucket_sums(outcomes, lambda o: o.week).items()
        },
        days={
            day: ReplaySums(*sums)
            for day, sums in reference_bucket_sums(
                outcomes, lambda o: o.click_time.date()
            ).items()
        },
    )
    return result, outcomes


def reference_weekly_totals(outcomes: Sequence[AppOutcome]):
    """``weekly_totals`` as it was, from the outcomes."""
    sums = reference_bucket_sums(outcomes, lambda o: o.week)
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


def reference_daily_series(outcomes: Sequence[AppOutcome], clicks: Sequence[ClickRecord]):
    """``daily_series`` as it was, from the outcomes."""
    click_days = Counter(c.click_time.date() for c in clicks)
    sums = reference_bucket_sums(outcomes, lambda o: o.click_time.date())
    all_days = set(click_days) | set(sums)
    if not all_days:
        return []
    rows = []
    day = min(all_days)
    while day <= max(all_days):
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


def replay_cases():
    """(name, conversions, products, clicks) for the differential tests.

    Every fixture comes as generated, with its rows shuffled, and shuffled
    with edge rows added: a second final row with the same click time as
    an existing one for the same client and MFI (opposite status, so the
    tie rule decides), a pending row tied with a final one that carries
    an income (only sales may count it), and two clients whose every
    application is pending.
    """
    for seed, n_mfis, n_clients, n_weeks in DIFFERENTIAL_DATASETS:
        conversions, products, clicks = generate_fixture(
            seed, n_mfis=n_mfis, n_clients=n_clients, config=FixtureConfig(n_weeks=n_weeks)
        )
        rng = random.Random(seed)
        shuffled = list(conversions)
        rng.shuffle(shuffled)
        edged = list(shuffled)
        finals = [r for r in shuffled if r.status is not Status.PENDING]
        for rec in rng.sample(finals, 3):
            flipped = Status.REJECTED if rec.status is Status.SALE else Status.SALE
            twin = dataclasses.replace(
                rec, status=flipped, income=77.5 if flipped is Status.SALE else None
            )
            pending = dataclasses.replace(rec, status=Status.PENDING, income=12.5)
            at = edged.index(rec)
            edged[at + 1 : at + 1] = [twin, pending]
        mfis = sorted({r.mfi_id for r in shuffled})
        for n, rec in enumerate(rng.sample(shuffled, 4)):
            edged.insert(
                rng.randrange(len(edged)),
                dataclasses.replace(
                    rec, client_id=f"pending-only-{n % 2}", mfi_id=mfis[n % len(mfis)],
                    status=Status.PENDING, income=None,
                ),
            )
        name = f"seed{seed}"
        yield f"{name}-plain", conversions, products, clicks
        yield f"{name}-shuffled", shuffled, products, clicks
        yield f"{name}-edged", edged, products, clicks


REPLAY_CASES = list(replay_cases())
REPLAY_IDS = [case[0] for case in REPLAY_CASES]


def replay_schedules(conversions, products, clicks):
    """A trained schedule, and the historical one with every third week
    missing so that some applications find no week."""
    trained = weekly_schedule(conversions, products, clicks)
    gappy = [e for i, e in enumerate(identity_schedule(conversions)) if i % 3 != 1]
    return {"trained": trained, "gappy": gappy}


def nested_items(outcomes):
    return [
        (client, [(m, (out.status, out.income)) for m, out in per_client.items()])
        for client, per_client in outcomes.items()
    ]


@pytest.mark.parametrize("case", REPLAY_CASES, ids=REPLAY_IDS)
def test_client_outcomes_match_the_reference(case):
    _, conversions, _, _ = case
    # equal values and the same first-seen order of clients and MFIs
    assert nested_items(history(conversions)) == nested_items(
        reference_client_outcomes(conversions)
    )


def table_items(table):
    return (
        table,
        list(table.sale.items()),
        list(table.reject.items()),
        list(table.mean_income.items()),
        list(table.marginal_lar.items()),
    )


@pytest.mark.parametrize("min_support", [0, 1, 5])
@pytest.mark.parametrize("case", REPLAY_CASES, ids=REPLAY_IDS)
def test_reapproval_table_matches_the_reference(case, min_support):
    _, conversions, _, _ = case
    want = table_items(reference_reapproval_table(conversions, min_support))
    assert table_items(reapproval_table(conversions, min_support)) == want


@pytest.mark.parametrize("case", REPLAY_CASES, ids=REPLAY_IDS)
def test_reapproval_table_carries_the_client_outcomes(case):
    _, conversions, _, _ = case
    table = reapproval_table(conversions)
    assert table.history.tolist() == client_outcomes(table.codes).tolist()
    assert table.codes.mfi_ids == tuple(table.marginal_lar)


@pytest.mark.parametrize("case", REPLAY_CASES, ids=REPLAY_IDS)
def test_simulate_matches_the_reference(case):
    _, conversions, products, clicks = case
    schedules = replay_schedules(conversions, products, clicks)
    for min_support, (name, schedule) in itertools.product([0, 1, 5], schedules.items()):
        table = reapproval_table(conversions, min_support)
        want, outcomes = reference_simulate(conversions, schedule, table)
        got = simulate(conversions, schedule, table)
        # exact equality: every counter, every float of the totals and of
        # the week and day sums
        assert got == want, (name, min_support)
        assert repr(weekly_totals(got)) == repr(reference_weekly_totals(outcomes))
        assert repr(daily_series(got, clicks)) == repr(reference_daily_series(outcomes, clicks))


@pytest.mark.parametrize("case", REPLAY_CASES[2::3], ids=REPLAY_IDS[2::3])
def test_evaluate_ranking_matches_the_reference(case):
    standard = [filter_loan_type(records, LoanType.STANDARD) for records in case[1:]]
    schedule = weekly_schedule(*standard)
    conversions = standard[0]
    want, _ = reference_simulate(
        conversions, schedule, reference_reapproval_table(conversions)
    )
    assert evaluate_ranking(*standard) == (want, schedule)


def test_replay_cases_cover_the_edge_rows():
    _, conversions, products, clicks = REPLAY_CASES[-1]
    pending_only = {r.client_id for r in conversions} - {
        r.client_id for r in conversions if r.status is not Status.PENDING
    }
    assert pending_only >= {"pending-only-0", "pending-only-1"}
    stamps = Counter(
        (r.client_id, r.mfi_id, r.click_time) for r in conversions if r.status is not Status.PENDING
    )
    assert max(stamps.values()) == 2
    table = reapproval_table(conversions)
    schedules = replay_schedules(conversions, products, clicks)
    assert simulate(conversions, schedules["gappy"], table).n_skipped_no_week > 0
    rules = {
        o.rule
        for schedule in schedules.values()
        for o in reference_simulate(conversions, schedule, table)[1]
    }
    assert rules == {"identity", "history", "table-sale", "table-reject", "table-pending"}


def test_evaluate_ranking_builds_client_outcomes_once(monkeypatch, fixture_triple):
    calls = []

    def counted(codes):
        calls.append(len(codes.mfi))
        return client_outcomes(codes)

    monkeypatch.setattr(mfirank.evaluate, "client_outcomes", counted)
    evaluate_ranking(*fixture_triple)
    assert len(calls) == 1


def test_simulate_rejects_a_table_of_other_conversions():
    records = [capp("A", "c1", rank=1), capp("B", "c2", rank=1)]
    schedule = identity_schedule(records)
    with pytest.raises(ValueError, match="reapproval table of these conversions"):
        simulate(records, schedule, reapproval_table(records[:1]))
    hand_built = ReapprovalTable(sale={}, reject={}, mean_income={}, marginal_lar={}, min_support=5)
    with pytest.raises(ValueError, match="reapproval table of these conversions"):
        simulate(records, schedule, hand_built)


# ---------------------------------------------------------------------------
# random small logs against the references


@st.composite
def small_logs(draw):
    """A small log and a schedule for it, built to hit the replay's edges:
    equal click times (final twins of opposite status among them), pending-
    only clients, missing ranks and ranks past the ranking's end, weeks the
    schedule lacks or holds twice, an entry that is not a Monday, and an
    MFI that only the schedule knows."""
    mfis = ["a", "b", "c", "d"]
    clients = [f"c{i}" for i in range(5)]
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        status = draw(st.sampled_from(list(Status)))
        income = draw(st.sampled_from([None, 1.0, 0.1, 7.5, 1e16, 3e-3]))
        rows.append(
            capp(
                draw(st.sampled_from(mfis)),
                draw(st.sampled_from(clients)),
                status,
                hours=12.0 * draw(st.integers(0, 40)),
                income=income,
                rank=draw(st.sampled_from([None, 1, 2, 3, 4, 6])),
            )
        )
    twinned = draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    for rec in twinned:
        if rec.status is not Status.PENDING:
            flipped = Status.REJECTED if rec.status is Status.SALE else Status.SALE
            twin = dataclasses.replace(
                rec, status=flipped, income=2.5 if flipped is Status.SALE else None
            )
            rows.insert(draw(st.integers(0, len(rows))), twin)
    for n in range(draw(st.integers(0, 2))):
        rows.insert(
            draw(st.integers(0, len(rows))),
            capp("b", "pending-only", Status.PENDING, hours=24.0 * n, rank=1),
        )
    mondays = sorted({week_start(r.click_time) for r in rows})
    schedule = []
    for monday in mondays + [week_start(T0) + timedelta(days=7 * 9)]:
        for _ in range(draw(st.integers(0, 2))):  # 0: a gap, 2: the week twice
            ranking = draw(st.permutations(mfis + ["z"]))[: draw(st.integers(0, 5))]
            schedule.append(WeekEntry(monday, tuple(ranking), 0, "ranked"))
    if mondays and draw(st.booleans()):
        schedule.append(WeekEntry(mondays[0] + timedelta(hours=1), ("a", "b"), 0, "ranked"))
    clicked = draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    if draw(st.booleans()):  # a click days before any application
        clicked.append(capp("a", "x", hours=-72.0))
    clicks = [
        ClickRecord(mfi_id=r.mfi_id, click_time=r.click_time, client_id=r.client_id,
                    loan_type=LoanType.STANDARD)
        for r in clicked
    ]
    return rows, schedule, clicks


@settings(max_examples=200)
@given(small_logs(), st.integers(0, 6))
def test_the_replay_of_a_small_log_matches_the_references(log, min_support):
    conversions, schedule, clicks = log
    table = reapproval_table(conversions, min_support)
    reference = reference_reapproval_table(conversions, min_support)
    assert table_items(table) == table_items(reference)
    assert nested_items(history(conversions)) == nested_items(
        reference_client_outcomes(conversions)
    )
    got = simulate(conversions, schedule, table)
    want, outcomes = reference_simulate(conversions, schedule, reference)
    assert got == want
    assert repr(got.to_dict()) == repr(want.to_dict())
    assert repr(weekly_totals(got)) == repr(reference_weekly_totals(outcomes))
    assert repr(daily_series(got, clicks)) == repr(reference_daily_series(outcomes, clicks))


def test_replay_sums_add_left_to_right_in_replay_order():
    # Sales over two days of one week, replayed under the site's own
    # ranking so each application keeps its income.  Left to right,
    # 1e16 swallows every 1.0 that follows it; pairwise and compensated
    # sums keep some of them.
    incomes = [1e16] + [1.0] * 15 + [1.0] * 9 + [1e16] + [1.0] * 9
    records = [
        capp("A", f"c{n}", income=income, hours=0.25 * n + (24 if n >= 16 else 0), rank=1)
        for n, income in enumerate(incomes)
    ]
    day_one, day_two = incomes[:16], incomes[16:]

    def left_to_right(values):
        total = 0.0
        for v in values:
            total += v
        return total

    for values in (incomes, day_one, day_two):
        assert left_to_right(values) != math.fsum(values)
        assert left_to_right(values) != float(np.sum(values))

    schedule = [WeekEntry(week_start(T0), ("A",), 0, "historical")]
    result = simulate(records, schedule, reapproval_table(records))
    n = len(incomes)
    assert result.avg_income == left_to_right(incomes) / n
    assert result.historical_avg_income == left_to_right(incomes) / n
    (week,) = weekly_totals(result)
    assert week["avg_income"] == left_to_right(incomes) / n
    first, second = daily_series(result, [])
    assert first["vra"]["income"] == first["historical"]["income"] == left_to_right(day_one)
    assert second["vra"]["income"] == second["historical"]["income"] == left_to_right(day_two)
    assert first["vra"]["sales"] == 16.0 and second["vra"]["sales"] == 19.0


# ---------------------------------------------------------------------------
# the experiment-group helpers on tables against their record loops, kept
# verbatim as the reference


def reference_group_counts(records: Sequence[ConversionRecord]) -> tuple[int, int]:
    """(sales, applications) of one experiment group."""
    return (sum(1 for r in records if r.status is Status.SALE), len(records))


def reference_sale_incomes(records: Sequence[ConversionRecord]) -> list[float]:
    return [r.income for r in records if r.status is Status.SALE and r.income is not None]


def reference_os_contingency(records: Sequence[ConversionRecord], os_name: str):
    """2x2 table of (runs ``os_name``) against (application approved)."""
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


OS_CELLS = [None, "iOS", " ios ", "IOS", "Android", "android ", "Windows"]


@st.composite
def experiment_groups(draw):
    """Two small groups: any status, incomes of either sign or missing,
    and OS names missing, padded or in another case."""
    groups = []
    for _ in range(2):
        group = []
        for n in range(draw(st.integers(0, 12))):
            rec = capp("a", f"c{n}", draw(st.sampled_from(list(Status))), hours=float(n))
            group.append(dataclasses.replace(
                rec,
                income=draw(st.sampled_from([None, -0.0, 0.0, -2.5, 7.5, 1e16])),
                os=draw(st.sampled_from(OS_CELLS)),
            ))
        groups.append(group)
    return groups


@settings(max_examples=200)
@given(experiment_groups(), st.sampled_from(["iOS", " ios", "ANDROID", "Linux"]))
def test_abtest_helpers_match_the_record_references(groups, os_name):
    parsed = [parse_conversions(io.StringIO(serialize_conversions(g))).table for g in groups]
    expected = reference_os_contingency(groups[0] + groups[1], os_name)
    for given_groups in (groups, parsed):
        for group, records in zip(given_groups, groups):
            assert group_counts(group) == reference_group_counts(records)
            # repr tells -0.0 from 0.0, and the incomes stay in row order
            assert repr(sale_incomes(group)) == repr(reference_sale_incomes(records))
        assert os_contingency(given_groups, os_name) == expected


def test_a_nan_income_in_a_record_is_no_sale_income():
    # As everywhere in the table engine: NaN in a float column is an empty cell.
    rec = dataclasses.replace(capp("a", "c0", income=1.0), income=math.nan)
    assert sale_incomes([rec, capp("a", "c1", income=2.0)]) == [2.0]
