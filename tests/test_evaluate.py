"""Replay evaluation: reapproval table, weekly schedule, simulation."""

from __future__ import annotations

import dataclasses
import logging
import random
from collections import Counter, defaultdict
from datetime import date, datetime, timedelta
from typing import Mapping, NamedTuple, Sequence

import pytest

import mfirank.evaluate
from mfirank.data import ClickRecord, ConversionRecord, LoanType, Status, filter_loan_type
from mfirank.errors import MfiRankError
from mfirank.evaluate import (
    DEFAULT_MIN_SUPPORT,
    AppOutcome,
    PairStats,
    ReapprovalTable,
    SimulationResult,
    WeekEntry,
    client_outcomes,
    daily_series,
    evaluate_ranking,
    historical_ranking,
    reapproval_table,
    simulate,
    week_start,
    weekly_schedule,
    weekly_totals,
)
from mfirank.features import LarPrior, feature_table, normalize_lar
from mfirank.fixtures import FixtureConfig, generate_fixture
from mfirank.rank import rank_mfis

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
    outcomes = client_outcomes(records)
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
    stats = table.p_sale("A", "B")
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
    assert table.p_sale("A", "B").p == pytest.approx(0.375)
    assert table.p_sale("A", "B").support == 8


def test_reapproval_identity_pairs_are_certain():
    records = [capp("A", "c1", income=5.0)]
    table = reapproval_table(records)
    assert table.p_sale("A", "A").p == 1.0
    assert table.p_reject("A", "A").p == 1.0


def test_reapproval_low_support_falls_back_to_the_marginal():
    records = [
        capp("A", "c1", income=5.0, hours=0),
        capp("B", "c1", Status.REJECTED, hours=1),
        capp("A", "c2", Status.REJECTED, hours=2),
        capp("A", "c3", Status.PENDING, hours=3),
    ]
    table = reapproval_table(records, min_support=5)
    stats = table.p_sale("B", "A")  # one co-client, below min_support
    assert stats.fallback and stats.support == 1
    # marginal normalized LAR of B: prior (1 sale / 4 apps) + (0 of 1)
    assert table.marginal_lar["B"] == pytest.approx(1.0 / 5.0)
    assert stats.p == pytest.approx(1.0 / 5.0)
    # pair never observed at all: marginal fallback with zero support
    missing = table.p_reject("B", "A")
    assert missing.fallback and missing.support == 0
    assert missing.p == pytest.approx(1.0 - 1.0 / 5.0)


def test_reapproval_without_co_applicants_warns(caplog):
    records = [capp("A", "c1", income=5.0), capp("B", "c2", Status.REJECTED)]
    with caplog.at_level(logging.WARNING, logger="mfirank.evaluate"):
        table = reapproval_table(records)
    assert any("no client dealt with two MFIs" in m for m in caplog.messages)
    assert table.p_sale("A", "B").fallback


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
                got = table.p_sale(target, source)
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
    result = simulate(conversions, identity_schedule(conversions), table)
    assert result.n_processed == len(conversions)
    assert result.n_copied == result.n_processed
    assert all(o.rule == "identity" for o in result.outcomes)
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
    table = ReapprovalTable(
        mfis=("A", "B"),
        sale={("B", "A"): PairStats(0.6, support=10)},
        reject={},
        mean_income={"B": 100.0},
        marginal_lar={"A": 0.5, "B": 0.5},
        min_support=5,
    )
    result = simulate(records, schedule, table)
    (outcome,) = result.outcomes
    assert outcome.rule == "table-sale"
    assert not outcome.copied
    assert outcome.p_sale == 0.6
    assert outcome.income == pytest.approx(60.0)
    assert outcome.hist_sale and outcome.hist_income == 50.0


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
    by_hist = {o.mfi_hist: o for o in result.outcomes}
    replay_a = by_hist["A"]  # re-served by B, where c1 really got 77.0
    assert replay_a.rule == "history"
    assert replay_a.copied
    assert replay_a.p_sale == 1.0
    assert replay_a.income == 77.0


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
    pending = next(o for o in result.outcomes if o.mfi_hist == "A")
    assert pending.rule == "table-pending"
    assert pending.p_sale == pytest.approx(table.marginal_lar["B"])
    assert result.n_pending_fallback == 1


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
# simulate memoized the week of each calendar day, kept verbatim as the
# references of the differential tests below

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
        mfis=tuple(sorted(per_mfi_apps)),
        sale=build(num_sale, den_sale, marginal),
        reject=build(num_reject, den_reject, reject_fallback),
        mean_income=mean_income,
        marginal_lar=marginal,
        min_support=min_support,
    )


def reference_simulate(
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
    historical outcome estimates the result.  Applications without a
    usable position are skipped and counted, so coverage is visible in
    the result.
    """
    weeks = {entry.week_start: entry for entry in schedule}
    history = reference_client_outcomes(conversions)

    outcomes: list[AppOutcome] = []
    n_no_rank = n_out_of_range = n_no_week = 0
    n_copied = n_pending = n_low_support = 0
    hist_sales = 0
    hist_income = 0.0

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
        hist_sales += sold
        hist_income += own_income

    n = len(outcomes)
    return SimulationResult(
        outcomes=outcomes,
        total_lar=sum(o.p_sale for o in outcomes) / n if n else 0.0,
        avg_income=sum(o.income for o in outcomes) / n if n else 0.0,
        historical_lar=hist_sales / n if n else 0.0,
        historical_avg_income=hist_income / n if n else 0.0,
        n_processed=n,
        n_copied=n_copied,
        n_skipped_no_rank=n_no_rank,
        n_skipped_out_of_range=n_out_of_range,
        n_skipped_no_week=n_no_week,
        n_pending_fallback=n_pending,
        n_low_support=n_low_support,
    )


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
    outcomes = client_outcomes(conversions)
    # equal values and the same first-seen order of clients and MFIs
    assert nested_items(outcomes) == nested_items(reference_client_outcomes(conversions))
    # the history holds the input records themselves, not copies
    inputs = {id(rec) for rec in conversions}
    assert all(id(rec) in inputs for per in outcomes.values() for rec in per.values())


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
    # equal values and the same first-seen order of clients and MFIs
    assert nested_items(reapproval_table(conversions).history) == nested_items(
        client_outcomes(conversions)
    )


@pytest.mark.parametrize("case", REPLAY_CASES, ids=REPLAY_IDS)
def test_simulate_matches_the_reference(case):
    _, conversions, products, clicks = case
    table = reapproval_table(conversions, min_support=1)
    for name, schedule in replay_schedules(conversions, products, clicks).items():
        want = reference_simulate(conversions, schedule, table)
        # exact equality: every AppOutcome and every float of the totals
        assert simulate(conversions, schedule, table) == want, name


@pytest.mark.parametrize("case", REPLAY_CASES[2::3], ids=REPLAY_IDS[2::3])
def test_evaluate_ranking_matches_the_reference(case):
    standard = [filter_loan_type(records, LoanType.STANDARD) for records in case[1:]]
    schedule = weekly_schedule(*standard)
    conversions = standard[0]
    want = reference_simulate(conversions, schedule, reference_reapproval_table(conversions))
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
    results = {
        name: simulate(conversions, schedule, table)
        for name, schedule in replay_schedules(conversions, products, clicks).items()
    }
    assert results["gappy"].n_skipped_no_week > 0
    rules = {o.rule for result in results.values() for o in result.outcomes}
    assert rules == {"identity", "history", "table-sale", "table-reject", "table-pending"}


def test_evaluate_ranking_builds_client_outcomes_once(monkeypatch, fixture_triple):
    calls = []

    def counted(conversions):
        calls.append(len(conversions))
        return client_outcomes(conversions)

    monkeypatch.setattr(mfirank.evaluate, "client_outcomes", counted)
    evaluate_ranking(*fixture_triple)
    assert len(calls) == 1
