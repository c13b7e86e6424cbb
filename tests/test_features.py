"""Feature computations: shrinkage, fairness, service period, EPC.

The record-at-a-time feature engine that the array one replaced
(``_MfiStats``, ``FeatureAccumulator`` and the ``fairness``,
``service_period_p90``, ``epc`` and ``lar_prior`` helpers) is kept here
as the reference of the differential tests.
"""

from __future__ import annotations

import logging
import math
import random
import statistics
from array import array
from collections import Counter, defaultdict
from dataclasses import replace
from datetime import datetime, timedelta
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from conftest import tables

from mfirank.data import (
    ClickRecord,
    ConversionRecord,
    LoanType,
    ProductRecord,
    Status,
    click_table,
    conversion_table,
    derive_timeline,
)
from mfirank.errors import DataError
from mfirank.features import (
    ALL_FEATURES,
    CONVERSION_OUTLIER_SEC,
    FEATURE_ATTRS,
    MIN_REJECT_SHARE,
    ON_TIME_LIMIT_SEC,
    ON_TIME_MIN_SHARE,
    DurationRule,
    FairnessScore,
    FeaturePrefixes,
    FeatureVector,
    LarPrior,
    RatingPrior,
    _median,
    _pick_card,
    declared_sla_seconds,
    feature_csv,
    feature_table,
    normalize_lar,
    normalize_rating,
    parse_declared_duration,
    parse_feature_csv,
    rating_prior,
    service_p90,
)
from mfirank.fixtures import FixtureConfig, generate_fixture

T0 = datetime(2021, 3, 1, 10, 0, 0)


# ---------------------------------------------------------------------------
# the record-at-a-time reference engine, kept verbatim but for moving the
# formula docstrings onto the array engine's functions


class _MfiStats:
    """What the fairness, service-period and EPC formulas need of one MFI.

    Records are added one at a time and each is read once: its status
    and income go into counts and a running sum, its timeline (derived
    here, once) into flat float arrays.  Sale incomes are summed in the
    order the records arrive.  ``sla_seconds`` is the declared budget
    that processing periods are counted against as they arrive.
    """

    __slots__ = (
        "sla_seconds", "n_apps", "n_sales", "n_rejected", "income", "n_quick",
        "n_sla_ok", "paid_conversion", "processing", "unpaid_conversion",
    )

    def __init__(self, sla_seconds: float | None = None):
        self.sla_seconds = sla_seconds
        self.n_apps = 0
        self.n_sales = 0
        self.n_rejected = 0
        self.income = 0.0
        self.n_quick = 0  # valid conversion periods under ON_TIME_LIMIT_SEC
        self.n_sla_ok = 0  # observed processing periods within sla_seconds
        # Valid conversion periods, split by whether the application paid
        # out; paid_conversion[i] pairs with the processing period processing[i].
        # The formulas only select from or fsum these, so the split loses nothing.
        self.paid_conversion = array("d")
        self.processing = array("d")
        self.unpaid_conversion = array("d")

    @classmethod
    def of(
        cls, records: Sequence[ConversionRecord], sla_seconds: float | None = None
    ) -> _MfiStats:
        stats = cls(sla_seconds)
        for rec in records:
            stats.add(rec)
        return stats

    def add(self, rec: ConversionRecord) -> None:
        self.n_apps += 1
        if rec.status is Status.SALE:
            self.n_sales += 1
            if rec.income is not None:
                self.income += rec.income
        elif rec.status is Status.REJECTED:
            self.n_rejected += 1
        tl = derive_timeline(rec)
        if tl.invalid or tl.conversion_period is None:
            return  # a processing period needs a submission, so none is lost
        if tl.conversion_period < ON_TIME_LIMIT_SEC:
            self.n_quick += 1
        if tl.processing_period is None:
            self.unpaid_conversion.append(tl.conversion_period)
            return
        self.paid_conversion.append(tl.conversion_period)
        self.processing.append(tl.processing_period)
        if self.sla_seconds is not None and tl.processing_period <= self.sla_seconds:
            self.n_sla_ok += 1

    def on_time(self) -> bool:
        n = len(self.paid_conversion) + len(self.unpaid_conversion)
        return n > 0 and self.n_quick / n >= ON_TIME_MIN_SHARE

    def fairness(self, product: ProductRecord | None) -> FairnessScore:
        n = self.n_apps
        status_reporting = (
            n > 0 and self.n_rejected / n > MIN_REJECT_SHARE and self.n_sales >= 1
        )
        on_time = self.on_time()
        sla_evaluable = self.sla_seconds is not None
        sla_met = False
        if sla_evaluable and self.processing:
            sla_met = self.n_sla_ok / len(self.processing) >= 0.5
        reliable = product is None or not product.unreliability
        points = int(status_reporting) + int(on_time) + int(sla_met) + int(reliable)
        return FairnessScore(
            points=points,
            status_reporting=status_reporting,
            on_time=on_time,
            sla_met=sla_met,
            reliable=reliable,
            sla_evaluable=sla_evaluable,
        )

    def service_p90(self, global_processing_mean: float | None) -> float:
        n_paid, n_unpaid = len(self.paid_conversion), len(self.unpaid_conversion)
        if not n_paid and not n_unpaid:
            raise DataError("no valid submission periods; cannot compute a service period")
        observed = self.processing
        fill = statistics.fmean(observed) if observed else global_processing_mean
        if fill is None and n_unpaid:
            raise DataError("no processing periods anywhere to impute from")

        # Zero-copy views: an array('d') cannot grow while a view of it
        # is alive, so none may outlive this call.
        paid = np.frombuffer(self.paid_conversion)
        unpaid = np.frombuffer(self.unpaid_conversion)
        if self.on_time():
            replacement = _median(np.concatenate((paid, unpaid)))
            paid = np.where(paid > CONVERSION_OUTLIER_SEC, replacement, paid)
            unpaid = np.where(unpaid > CONVERSION_OUTLIER_SEC, replacement, unpaid)
        service = paid + np.frombuffer(observed)
        if n_unpaid:
            service = np.concatenate((service, unpaid + fill))
        idx = (9 * len(service) + 9) // 10  # ceil(0.9 n) without float fuzz
        return float(np.partition(service, idx - 1)[idx - 1])

    def epc(self, n_clicks: int) -> float:
        if n_clicks < 0:
            raise ValueError("click count must be non-negative")
        if self.n_sales == 0:
            return 0.0
        if n_clicks == 0:
            raise DataError("sales recorded for an MFI with no clicks")
        return self.income / n_clicks


def fairness(records, product, sla_seconds) -> FairnessScore:
    return _MfiStats.of(records, sla_seconds).fairness(product)


def service_period_p90(records, global_processing_mean=None) -> float:
    return _MfiStats.of(records).service_p90(global_processing_mean)


def epc(records, n_clicks) -> float:
    return _MfiStats.of(records).epc(n_clicks)


def lar_prior(conversions: Sequence[ConversionRecord]) -> LarPrior:
    """Pool approval evidence; pending applications count as non-sales."""
    total = len(conversions)
    if total == 0:
        raise DataError("no applications; approval prior undefined")
    sales = sum(1 for r in conversions if r.status is Status.SALE)
    return LarPrior(total_sales=sales, total_apps=total)


class FeatureAccumulator:
    """Per-MFI running feature inputs over a growing set of records.

    Built once from the product cards of one loan type; conversions and
    clicks of that type are then fed in any number of batches, each
    record exactly once, and :meth:`table` emits the feature table of
    everything seen so far.  Feed conversions in the order their sale
    incomes should be summed: the EPC numerator is a plain running sum.
    """

    def __init__(self, products, *, features=None, duration_rules=None):
        active = tuple(features) if features is not None else ALL_FEATURES
        unknown = [f for f in active if f not in ALL_FEATURES]
        if unknown:
            raise ValueError(f"unknown features: {unknown}")
        if not active:
            raise ValueError("at least one feature is required")
        self._active = active
        cards_by_mfi: dict[str, list[ProductRecord]] = defaultdict(list)
        for p in products:
            cards_by_mfi[p.mfi_id].append(p)
        self._card = {m: _pick_card(cards) for m, cards in cards_by_mfi.items()}
        self._sla: dict[str, float | None] = {}
        if "fairness" in active:
            self._sla = {
                m: declared_sla_seconds(p, duration_rules) for m, p in self._card.items()
            }
        self._stats: dict[str, _MfiStats] = {}
        self._clicks: Counter = Counter()

    def add_conversions(self, conversions: Iterable[ConversionRecord]) -> None:
        stats = self._stats
        for rec in conversions:
            mfi = stats.get(rec.mfi_id)
            if mfi is None:
                mfi = stats[rec.mfi_id] = _MfiStats(self._sla.get(rec.mfi_id))
            mfi.add(rec)

    def add_clicks(self, clicks: Iterable[ClickRecord]) -> None:
        self._clicks.update(c.mfi_id for c in clicks)

    def table(self) -> list[FeatureVector]:
        population = []
        for m in sorted(self._stats):
            if m in self._card:
                population.append(m)
            else:
                logging.getLogger("mfirank.features").warning(
                    "MFI %s has conversions but no product card; excluded", m
                )
        if not population:
            return []
        active = self._active
        card = self._card
        stats = {m: self._stats[m] for m in population}

        rprior = rating_prior([card[m] for m in population]) if "rating" in active else None
        lprior = None
        if "lar" in active:
            lprior = LarPrior(
                total_sales=sum(s.n_sales for s in stats.values()),
                total_apps=sum(s.n_apps for s in stats.values()),
            )
        global_mean: float | None = None
        if "service_period" in active:
            all_processing = [p for s in stats.values() for p in s.processing]
            global_mean = statistics.fmean(all_processing) if all_processing else None

        table: list[FeatureVector] = []
        for m, s in stats.items():
            values: dict[str, object] = {}
            p = card[m]
            if rprior is not None:
                has_reviews = p.n_reviews > 0 and p.avg_user_rating is not None
                values["rating_norm"] = normalize_rating(
                    rprior,
                    p.n_reviews if has_reviews else 0,
                    p.avg_user_rating if has_reviews else 0.0,
                )
            if lprior is not None:
                values["lar_norm"] = normalize_lar(lprior, s.n_sales, s.n_apps)
            if "fairness" in active:
                score = s.fairness(p)
                values["fairness"] = score.points
                values["fairness_detail"] = score
            try:
                if "service_period" in active:
                    values["service_p90_sec"] = s.service_p90(global_mean)
                if "epc" in active:
                    values["epc"] = s.epc(self._clicks.get(m, 0))
            except DataError as exc:
                logging.getLogger("mfirank.features").warning(
                    "dropping MFI %s from the feature table: %s", m, exc
                )
                continue
            table.append(FeatureVector(mfi_id=m, **values))
        return table


def card(mfi="18", card_id=None, **kwargs) -> ProductRecord:
    base = dict(
        mfi_id=mfi,
        card_id=card_id or f"card-{mfi}",
        loan_type=LoanType.STANDARD,
    )
    base.update(kwargs)
    return ProductRecord(**base)


def app(
    mfi="18",
    client="c1",
    status=Status.SALE,
    conv_sec=None,
    proc_sec=None,
    income=None,
    click=T0,
    **kwargs,
) -> ConversionRecord:
    conversion = click + timedelta(seconds=conv_sec) if conv_sec is not None else None
    sale = (
        conversion + timedelta(seconds=proc_sec)
        if conversion is not None and proc_sec is not None
        else None
    )
    return ConversionRecord(
        mfi_id=mfi,
        loan_type=kwargs.pop("loan_type", LoanType.STANDARD),
        client_id=client,
        click_time=click,
        status=status,
        conversion_time=conversion,
        sale_time=sale if status is Status.SALE else None,
        income=income,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# evidence-weighted normalization


def test_rating_prior_pools_reviews():
    prior = rating_prior(
        [card("1", avg_user_rating=5.0, n_reviews=2), card("2", avg_user_rating=3.0, n_reviews=8)]
    )
    assert prior.total_reviews == 10
    assert prior.weighted_sum == pytest.approx(34.0)
    assert prior.prior_mean == pytest.approx(3.4)


def test_rating_prior_single_mfi():
    prior = rating_prior([card("1", avg_user_rating=4.0, n_reviews=10)])
    assert (prior.total_reviews, prior.weighted_sum) == (10, 40.0)
    assert prior.prior_mean == 4.0


def test_rating_prior_without_reviews_is_an_error():
    with pytest.raises(DataError, match="no reviews"):
        rating_prior([card("1"), card("2", avg_user_rating=4.0, n_reviews=0)])


def test_normalize_rating_worked_example():
    prior = RatingPrior(total_reviews=10, weighted_sum=34.0)
    assert normalize_rating(prior, 2, 5.0) == pytest.approx(44.0 / 12.0)


def test_normalize_rating_zero_evidence_sits_at_the_prior_mean():
    prior = RatingPrior(total_reviews=10, weighted_sum=34.0)
    assert normalize_rating(prior, 0, 0.0) == pytest.approx(prior.prior_mean)


def test_normalize_rating_rejects_bad_input():
    prior = RatingPrior(total_reviews=10, weighted_sum=34.0)
    with pytest.raises(ValueError):
        normalize_rating(prior, -1, 4.0)
    with pytest.raises(ValueError):
        normalize_rating(prior, 5, 7.0)


@given(
    total=st.integers(min_value=1, max_value=1000),
    mean=st.floats(min_value=1.0, max_value=5.0),
    n=st.integers(min_value=1, max_value=200),
    tau=st.floats(min_value=1.0, max_value=5.0),
)
def test_normalize_rating_shrinkage_bounds(total, mean, n, tau):
    prior = RatingPrior(total_reviews=total, weighted_sum=total * mean)
    value = normalize_rating(prior, n, tau)
    lo, hi = min(mean, tau), max(mean, tau)
    assert lo - 1e-9 <= value <= hi + 1e-9
    # more evidence pulls strictly closer to the MFI's own rating
    closer = normalize_rating(prior, n + 1, tau)
    assert abs(closer - tau) <= abs(value - tau) + 1e-12


def test_review_count_orders_equal_ratings():
    prior = RatingPrior(total_reviews=100, weighted_sum=350.0)  # mean 3.5
    above = [normalize_rating(prior, n, 4.0) for n in range(1, 40)]
    assert all(a < b for a, b in zip(above, above[1:]))
    below = [normalize_rating(prior, n, 3.0) for n in range(1, 40)]
    assert all(a > b for a, b in zip(below, below[1:]))


def test_lar_prior_counts_pending_as_non_sale():
    records = [app(status=Status.SALE)] + [app(status=Status.PENDING)] * 3
    prior = lar_prior(records)
    assert prior.total_sales == 1
    assert prior.total_apps == 4


def test_lar_prior_empty_is_an_error():
    with pytest.raises(DataError, match="no applications"):
        lar_prior([])


def test_normalize_lar_worked_example():
    prior = LarPrior(total_sales=20, total_apps=100)
    assert normalize_lar(prior, 5, 10) == pytest.approx(25.0 / 110.0)
    assert normalize_lar(prior, 0, 0) == pytest.approx(0.2)


def test_normalize_lar_rejects_impossible_counts():
    prior = LarPrior(total_sales=20, total_apps=100)
    with pytest.raises(ValueError):
        normalize_lar(prior, 5, 4)


@given(
    total_sales=st.integers(min_value=0, max_value=500),
    extra_apps=st.integers(min_value=1, max_value=500),
    sales=st.integers(min_value=0, max_value=100),
    extra=st.integers(min_value=0, max_value=100),
)
def test_normalize_lar_shrinkage_bounds(total_sales, extra_apps, sales, extra):
    prior = LarPrior(total_sales=total_sales, total_apps=total_sales + extra_apps)
    apps = sales + extra
    value = normalize_lar(prior, sales, apps)
    assert 0.0 <= value <= 1.0
    if apps > 0:
        lo = min(prior.prior_mean, sales / apps)
        hi = max(prior.prior_mean, sales / apps)
        assert lo - 1e-9 <= value <= hi + 1e-9


# ---------------------------------------------------------------------------
# declared durations


@pytest.mark.parametrize(
    "phrase,seconds",
    [
        ("в течение 20 минут", 1200.0),
        ("моментально", 0.0),
        ("мгновенно", 0.0),
        ("до 24 часов", 86400.0),
        ("1 день", 86400.0),
        ("до 30 секунд", 30.0),
        ("2 дня", 172800.0),
        ("15 минут", 900.0),
        ("в течение 1 часа", 3600.0),
        ("сразу", 0.0),
    ],
)
def test_duration_phrases(phrase, seconds):
    assert parse_declared_duration(phrase) == seconds


@pytest.mark.parametrize("phrase", [None, "", "по договоренности", "ежедневно"])
def test_unparseable_durations_are_none(phrase):
    assert parse_declared_duration(phrase) is None


def test_declared_sla_sums_both_phrases():
    p = card(consideration_time="в течение 20 минут", payment_time="моментально")
    assert declared_sla_seconds(p) == 1200.0
    assert declared_sla_seconds(card(consideration_time="быстро")) is None
    assert declared_sla_seconds(None) is None


# ---------------------------------------------------------------------------
# fairness


def test_fairness_all_criteria_fail():
    records = [
        app(client=f"c{i}", status=Status.PENDING, conv_sec=4000.0) for i in range(5)
    ]
    score = fairness(records, card(unreliability=True), sla_seconds=60.0)
    assert score.points == 0
    assert not (score.status_reporting or score.on_time or score.sla_met or score.reliable)


def test_fairness_exactly_two_criteria():
    # quick submissions and a reliable card, but no sales and an unmet SLA
    records = [
        app(client=f"c{i}", status=Status.REJECTED, conv_sec=100.0) for i in range(10)
    ]
    score = fairness(records, card(), sla_seconds=None)
    assert (score.status_reporting, score.on_time, score.sla_met, score.reliable) == (
        False,
        True,
        False,
        True,
    )
    assert score.points == 2
    assert not score.sla_evaluable


def test_fairness_full_marks():
    records = [app(client=f"s{i}", conv_sec=120.0, proc_sec=300.0, income=5.0) for i in range(9)]
    records += [app(client="r1", status=Status.REJECTED, conv_sec=200.0)]
    score = fairness(records, card(), sla_seconds=600.0)
    assert score.points == 4
    assert score.sla_evaluable


def test_fairness_points_match_the_breakdown():
    cases = [
        ([], None, None),
        ([app(conv_sec=100.0, proc_sec=50.0, income=1.0)], card(), 10.0),
        ([app(status=Status.REJECTED, conv_sec=9000.0)], card(unreliability=True), None),
    ]
    for records, product, sla in cases:
        score = fairness(records, product, sla)
        assert score.points == sum(
            [score.status_reporting, score.on_time, score.sla_met, score.reliable]
        )


def test_fairness_sla_needs_half_within_budget():
    records = [
        app(client="a", conv_sec=60.0, proc_sec=100.0, income=1.0),
        app(client="b", conv_sec=60.0, proc_sec=500.0, income=1.0),
    ]
    assert fairness(records, card(), sla_seconds=100.0).sla_met
    assert not fairness(records, card(), sla_seconds=90.0).sla_met


# ---------------------------------------------------------------------------
# service period


def test_service_period_single_application():
    record = app(conv_sec=600.0, proc_sec=3600.0, income=1.0)
    assert service_period_p90([record]) == pytest.approx(4200.0)


def test_service_period_median_replacement_for_on_time_mfis():
    # nine quick submissions and one 2.5 h outlier; the MFI is on time
    # (9/10 under an hour), so the outlier becomes the median (600 s).
    records = [
        app(client=f"c{i}", conv_sec=600.0, proc_sec=100.0 * (i + 1), income=1.0)
        for i in range(9)
    ]
    records.append(app(client="c9", conv_sec=9000.0, proc_sec=1000.0, income=1.0))
    assert service_period_p90(records) == pytest.approx(600.0 + 900.0)


def test_service_period_keeps_outliers_when_not_on_time():
    # half the submissions are slow, so no replacement happens
    records = [
        app(client="a", conv_sec=9000.0, proc_sec=100.0, income=1.0),
        app(client="b", conv_sec=600.0, proc_sec=100.0, income=1.0),
    ]
    assert service_period_p90(records) == pytest.approx(9100.0)


def test_service_period_imputes_missing_processing_from_own_sales():
    records = [
        app(client="a", conv_sec=600.0, proc_sec=1000.0, income=1.0),
        app(client="b", status=Status.PENDING, conv_sec=600.0),
        app(client="c", status=Status.REJECTED, conv_sec=600.0),
    ]
    assert service_period_p90(records) == pytest.approx(1600.0)


def test_service_period_global_fallback_and_error():
    lonely = [app(status=Status.PENDING, conv_sec=600.0)]
    assert service_period_p90(lonely, global_processing_mean=500.0) == pytest.approx(1100.0)
    with pytest.raises(DataError, match="impute"):
        service_period_p90(lonely)


def test_service_period_needs_submissions():
    with pytest.raises(DataError, match="no valid submission periods"):
        service_period_p90([app(status=Status.PENDING)])


def test_service_period_permutation_invariant(fixture_triple):
    records = [
        app(client=f"c{i}", conv_sec=100.0 * i + 50.0, proc_sec=37.0 * i, income=1.0)
        for i in range(11)
    ]
    forward = service_period_p90(records)
    assert service_period_p90(records[::-1]) == forward


@given(
    periods=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3000),
            st.integers(min_value=1, max_value=3000),
        ),
        min_size=1,
        max_size=20,
    ),
    shift=st.integers(min_value=1, max_value=400),
)
def test_service_period_shifts_with_the_data(periods, shift):
    # all periods stay far from the on-time and outlier thresholds, so a
    # uniform shift of both durations moves the percentile by exactly 2x
    base = [
        app(client=f"c{i}", conv_sec=c, proc_sec=p, income=1.0)
        for i, (c, p) in enumerate(periods)
    ]
    moved = [
        app(client=f"c{i}", conv_sec=c + shift, proc_sec=p + shift, income=1.0)
        for i, (c, p) in enumerate(periods)
    ]
    assert service_period_p90(moved) == pytest.approx(
        service_period_p90(base) + 2.0 * shift, rel=1e-9
    )


# the sorting service_p90 that the selection version replaced, kept
# verbatim (self renamed to stats) as the reference of the tests below


def sorted_service_p90(stats: _MfiStats, global_processing_mean: float | None) -> float:
    paid, unpaid = stats.paid_conversion, stats.unpaid_conversion
    if not paid and not unpaid:
        raise DataError("no valid submission periods; cannot compute a service period")
    if stats.on_time():
        replacement = statistics.median(paid + unpaid)
        paid = [replacement if c > CONVERSION_OUTLIER_SEC else c for c in paid]
        unpaid = [replacement if c > CONVERSION_OUTLIER_SEC else c for c in unpaid]

    observed = stats.processing
    fill = statistics.fmean(observed) if observed else global_processing_mean
    if fill is None and unpaid:
        raise DataError("no processing periods anywhere to impute from")

    service = [c + p for c, p in zip(paid, observed)]
    service += [c + fill for c in unpaid]
    service.sort()
    idx = (9 * len(service) + 9) // 10  # ceil(0.9 n) without float fuzz
    return service[idx - 1]


def p90_outcome(fn, stats, global_mean):
    try:
        return fn(stats, global_mean)
    except DataError as exc:
        return str(exc)


def engine_service_p90(stats: _MfiStats, global_processing_mean: float | None) -> float:
    """The array engine's :func:`service_p90` on the periods of ``stats``,
    the unpaid ones first."""
    unpaid = len(stats.unpaid_conversion)
    conversion = np.array([*stats.unpaid_conversion, *stats.paid_conversion])
    processing = np.array([math.nan] * unpaid + list(stats.processing))
    paid = ~np.isnan(processing)
    own = statistics.fmean(stats.processing) if stats.processing else None
    return service_p90(
        conversion, processing, paid, stats.on_time(), own, global_processing_mean
    )


# conversion periods: zero, quick, slow but not outliers, exactly at and
# beyond CONVERSION_OUTLIER_SEC, and fractional seconds
conversion_seconds = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=3599).map(float),
    st.integers(min_value=3600, max_value=int(CONVERSION_OUTLIER_SEC)).map(float),
    st.integers(min_value=7201, max_value=200_000).map(float),
    st.integers(min_value=0, max_value=20_000_000).map(lambda us: us / 1000.0),
)
processing_seconds = st.one_of(
    st.none(), st.just(0.0), st.integers(min_value=0, max_value=500_000).map(lambda ms: ms / 8.0)
)


@given(
    periods=st.lists(st.tuples(conversion_seconds, processing_seconds), max_size=40),
    quick_share=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
    global_mean=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1e6)),
)
def test_service_p90_matches_the_sorting_reference(periods, quick_share, global_mean):
    # quick_share of the rows get a quick submission, so both on-time and
    # not-on-time MFIs come up; a None processing period is an application
    # that never paid out (the fill imputes it)
    records = []
    for i, (conv, proc) in enumerate(periods):
        if i < quick_share * len(periods):
            conv = conv % ON_TIME_LIMIT_SEC
        status = Status.PENDING if proc is None else Status.SALE
        records.append(app(client=f"c{i}", status=status, conv_sec=conv, proc_sec=proc))
    stats = _MfiStats.of(records)
    want = p90_outcome(sorted_service_p90, stats, global_mean)
    assert p90_outcome(_MfiStats.service_p90, stats, global_mean) == want
    assert p90_outcome(engine_service_p90, stats, global_mean) == want
    # the selection leaves no view behind: the arrays still grow afterwards
    stats.add(app(client="late", conv_sec=60.0, proc_sec=60.0))
    assert p90_outcome(_MfiStats.service_p90, stats, global_mean) == p90_outcome(
        sorted_service_p90, stats, global_mean
    )


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 20, 21])
@pytest.mark.parametrize("outliers", [0, 1, 2, 3])
@pytest.mark.parametrize("paid", ["all", "none", "half"])
def test_service_p90_matches_the_sorting_reference_on_grids(n, outliers, paid):
    # odd and even counts, zeros, outliers above CONVERSION_OUTLIER_SEC
    # (repaired only while the MFI stays on time), and MFIs without any
    # processing period, which fall back to the global mean.  The slow
    # submissions sit just below the longest processing period, the last
    # of them exactly at CONVERSION_OUTLIER_SEC (kept), so that with
    # 20 or 21 periods and two slow ones the repaired median decides the
    # percentile.
    records = []
    for i in range(n):
        slow = n - 1 - outliers <= i < n - 1
        conv = CONVERSION_OUTLIER_SEC + 1.5 * (n - 2 - i) if slow else 12.5 * i
        paid_out = paid == "all" or (paid == "half" and i % 2 == 0)
        records.append(
            app(
                client=f"c{i}",
                status=Status.SALE if paid_out else Status.REJECTED,
                conv_sec=conv,
                proc_sec=50_000.0 if i == n - 1 else 101.5 * i,
            )
        )
    stats = _MfiStats.of(records)
    for global_mean in (None, 250.0):
        want = p90_outcome(sorted_service_p90, stats, global_mean)
        assert p90_outcome(_MfiStats.service_p90, stats, global_mean) == want
        assert p90_outcome(engine_service_p90, stats, global_mean) == want


# ---------------------------------------------------------------------------
# earnings per click


def test_epc_worked_example():
    records = [
        app(client="a", income=100.0),
        app(client="b", income=100.0),
        app(client="c", status=Status.REJECTED),
    ]
    assert epc(records, 40) == pytest.approx(5.0)


def test_epc_no_sales_is_zero():
    assert epc([app(status=Status.REJECTED)], 100) == 0.0
    assert epc([], 0) == 0.0


def test_epc_sales_without_clicks_is_inconsistent():
    with pytest.raises(DataError, match="no clicks"):
        epc([app(income=10.0)], 0)


@given(
    incomes=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=20),
    clicks=st.integers(min_value=1, max_value=1000),
    scale=st.floats(min_value=0.1, max_value=100.0),
)
def test_epc_scales_linearly(incomes, clicks, scale):
    records = [app(client=f"c{i}", income=x) for i, x in enumerate(incomes)]
    scaled = [app(client=f"c{i}", income=x * scale) for i, x in enumerate(incomes)]
    base = epc(records, clicks)
    assert epc(scaled, clicks) == pytest.approx(base * scale, rel=1e-9, abs=1e-12)
    assert epc(records, 2 * clicks) == pytest.approx(base / 2.0, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# the feature table


def small_dataset():
    conversions = [
        app(mfi="10", client="a", conv_sec=300.0, proc_sec=600.0, income=20.0),
        app(mfi="10", client="b", status=Status.REJECTED, conv_sec=300.0),
        app(mfi="11", client="a", conv_sec=400.0, proc_sec=700.0, income=30.0),
        app(mfi="11", client="c", status=Status.PENDING, conv_sec=500.0),
    ]
    products = [
        card("10", avg_user_rating=4.0, n_reviews=10),
        card("11", avg_user_rating=3.0, n_reviews=5),
    ]
    clicks = [("10", 4), ("11", 5)]
    click_records = []
    for mfi, n in clicks:
        click_records += [
            ClickRecord(mfi_id=mfi, click_time=T0, client_id=f"k{i}", loan_type=LoanType.STANDARD)
            for i in range(n)
        ]
    return conversions, products, click_records


def test_feature_table_identical_mfis_get_identical_vectors():
    conversions, products, clicks = small_dataset()
    twins_conv = conversions[:2] + [
        replace(c, mfi_id="99") for c in conversions[:2]
    ]
    twins_prod = [products[0], card("99", avg_user_rating=4.0, n_reviews=10)]
    twins_clicks = clicks[:4] + [
        replace(c, mfi_id="99") for c in clicks[:4]
    ]
    table = feature_table(*tables(twins_conv, twins_prod, twins_clicks))
    assert len(table) == 2
    a, b = table
    for attr in FEATURE_ATTRS.values():
        assert getattr(a, attr) == getattr(b, attr)


def test_feature_table_honors_the_subset():
    conversions, products, clicks = small_dataset()
    table = feature_table(*tables(conversions, products, clicks), features=("rating", "lar", "epc"))
    for vector in table:
        assert vector.rating_norm is not None
        assert vector.lar_norm is not None
        assert vector.epc is not None
        assert vector.fairness is None
        assert vector.service_p90_sec is None


def test_feature_table_excludes_cardless_mfis(caplog):
    conversions, products, clicks = small_dataset()
    conversions.append(app(mfi="12", client="z", conv_sec=100.0, proc_sec=10.0, income=1.0))
    with caplog.at_level(logging.WARNING, logger="mfirank.features"):
        table = feature_table(*tables(conversions, products, clicks))
    assert [v.mfi_id for v in table] == ["10", "11"]
    assert any("no product card" in m for m in caplog.messages)


def test_feature_table_drops_mfis_with_impossible_epc(caplog):
    conversions, products, clicks = small_dataset()
    clicks = [c for c in clicks if c.mfi_id != "11"]  # sales but no clicks
    with caplog.at_level(logging.WARNING, logger="mfirank.features"):
        table = feature_table(*tables(conversions, products, clicks))
    assert [v.mfi_id for v in table] == ["10"]
    assert any("dropping MFI 11" in m for m in caplog.messages)


def test_feature_table_values_are_reproducible():
    conversions, products, clicks = small_dataset()
    table = feature_table(*tables(conversions, products, clicks))
    # prior over both cards: (40 + 15) / 15 reviews
    prior_mean = 55.0 / 15.0
    v10 = table[0]
    assert v10.rating_norm == pytest.approx((55.0 + 40.0) / 25.0)
    assert v10.lar_norm == pytest.approx((2 + 1) / (4 + 2))
    assert v10.epc == pytest.approx(20.0 / 4.0)
    v11 = table[1]
    assert v11.rating_norm == pytest.approx((55.0 + 15.0) / 20.0)
    assert prior_mean > v11.rating_norm  # below-average card drags it down


@pytest.mark.parametrize("seed", range(3))
def test_accumulator_fed_in_batches_matches_feature_table(seed):
    conversions, products, clicks = generate_fixture(
        seed, n_mfis=6, n_clients=150, config=FixtureConfig(n_weeks=5)
    )
    rng = random.Random(seed)
    rng.shuffle(conversions)
    rng.shuffle(clicks)
    # A prefix of the rows in table order is in table order: its feature
    # table sums them as the accumulator, fed in that order, does.
    conversions, clicks = conversion_table(conversions).records(), click_table(clicks).records()
    conv_cuts = sorted(rng.sample(range(1, len(conversions)), 5)) + [len(conversions)]
    click_cuts = sorted(rng.sample(range(len(clicks)), 5)) + [len(clicks)]
    products = [p for p in products if p.loan_type is LoanType.STANDARD]
    acc = FeatureAccumulator(products)
    conv_done = click_done = 0
    for conv_cut, click_cut in zip(conv_cuts, click_cuts):
        acc.add_conversions(conversions[conv_done:conv_cut])
        acc.add_clicks(clicks[click_done:click_cut])
        conv_done, click_done = conv_cut, click_cut
        want = feature_table(*tables(conversions[:conv_cut], products, clicks[:click_cut]))
        # exact equality, floats included; fairness_detail is compare=False
        assert [(v, v.fairness_detail) for v in acc.table()] == [
            (v, v.fairness_detail) for v in want
        ]


# ---------------------------------------------------------------------------
# the array engine against the record-at-a-time reference

ENGINE_MFIS = ("10", "11", "12", "13")
# Click times repeat, so equal-click_time rows are common; the spread
# crosses several ISO weeks.
CLICK_OFFSETS = st.sampled_from([0, 0, 30, 3600, 86_400, 5 * 86_400, 9 * 86_400, 20 * 86_400])
PERIOD = st.one_of(
    st.none(),
    st.integers(-600, -1),  # negative: an invalid timeline
    st.integers(0, 4000),  # around ON_TIME_LIMIT_SEC
    st.integers(7000, 200_000),  # around and past CONVERSION_OUTLIER_SEC
    st.integers(0, 10**9).map(lambda us: us / 1000.0),  # fractional seconds
)
INCOME = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0, 1e16, 0.1]), st.floats(0.0, 1e4))
PHRASE = st.sampled_from([None, "10 min", "2 hour", "instant", "soon", "3 дня"])
RULES = st.sampled_from(
    [None, (DurationRule(r"min", 60.0), DurationRule(r"hour|дн", 3600.0)), (DurationRule("o", 0.0),)]
)
FEATURE_SUBSETS = st.one_of(
    st.none(), st.lists(st.sampled_from(ALL_FEATURES), min_size=1, max_size=5, unique=True)
)


@st.composite
def engine_conversions(draw) -> list[ConversionRecord]:
    out = []
    for i in range(draw(st.integers(0, 40))):
        click = T0 + timedelta(seconds=draw(CLICK_OFFSETS))
        status = draw(st.sampled_from(list(Status)))
        conv_sec, proc_sec = draw(PERIOD), draw(PERIOD)
        conversion = None if conv_sec is None else click + timedelta(seconds=conv_sec)
        sale = None
        if proc_sec is not None:  # with or without a conversion time
            sale = (conversion or click) + timedelta(seconds=proc_sec)
        out.append(
            ConversionRecord(
                mfi_id=draw(st.sampled_from(ENGINE_MFIS)),
                loan_type=LoanType.STANDARD,
                client_id=f"c{i}",
                click_time=click,
                status=status,
                conversion_time=conversion,
                sale_time=sale,
                income=draw(INCOME),
            )
        )
    return out


@st.composite
def engine_products(draw) -> list[ProductRecord]:
    # Some MFIs have no card (excluded), some two (the most-reviewed wins).
    cards = []
    for mfi in draw(st.lists(st.sampled_from(ENGINE_MFIS), unique=True)):
        for j in range(draw(st.integers(1, 2))):
            reviews = draw(st.integers(0, 30))
            cards.append(
                card(
                    mfi,
                    card_id=f"card-{mfi}-{j}",
                    n_reviews=reviews,
                    avg_user_rating=draw(st.one_of(st.none(), st.floats(1.0, 5.0))),
                    unreliability=draw(st.booleans()),
                    consideration_time=draw(PHRASE),
                    payment_time=draw(PHRASE),
                )
            )
    return cards


@st.composite
def engine_clicks(draw) -> list[ClickRecord]:
    return [
        ClickRecord(
            mfi_id=draw(st.sampled_from((*ENGINE_MFIS, "99"))),
            click_time=T0 + timedelta(seconds=draw(CLICK_OFFSETS)),
            client_id=f"k{i}",
            loan_type=LoanType.STANDARD,
        )
        for i in range(draw(st.integers(0, 30)))
    ]


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def table_outcome(make_table) -> tuple[object, list[str]]:
    """The repr of every vector and its fairness breakdown (so that 0.0 and
    -0.0, or 1 and 1.0, differ), or the DataError; and the warnings logged."""
    handler = _Messages()
    logger = logging.getLogger("mfirank.features")
    logger.addHandler(handler)
    try:
        result = [repr((v, v.fairness_detail)) for v in make_table()]
    except DataError as exc:
        result = f"DataError: {exc}"
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


@pytest.mark.parametrize("by_time", [True, False], ids=["click-time-order", "drawn-order"])
@settings(max_examples=200)
@given(
    conversions=engine_conversions(),
    products=engine_products(),
    clicks=engine_clicks(),
    features=FEATURE_SUBSETS,
    rules=RULES,
    data=st.data(),
)
def test_feature_prefixes_match_the_reference_at_every_cut(
    by_time, conversions, products, clicks, features, rules, data
):
    # Each cut is a prefix of both tables, the first rows in table order,
    # whichever order the rows are given in; the accumulator is fed them in
    # that order.
    if by_time:
        conversions.sort(key=lambda r: r.click_time)
        clicks.sort(key=lambda c: c.click_time)
    conv_table, _, click_tab = tables(conversions, products, clicks)
    conversions, clicks = conv_table.records(), click_tab.records()
    prefixes = FeaturePrefixes(
        conv_table, products, click_tab, features=features, duration_rules=rules
    )
    acc = FeatureAccumulator(products, features=features, duration_rules=rules)
    cuts = data.draw(st.lists(st.integers(0, len(conversions)), max_size=4)) + [len(conversions)]
    conv_done = click_done = 0
    for conv_cut in sorted(cuts):
        click_cut = data.draw(st.integers(click_done, len(clicks)))
        acc.add_conversions(conversions[conv_done:conv_cut])
        acc.add_clicks(clicks[click_done:click_cut])
        conv_done, click_done = conv_cut, click_cut
        want = table_outcome(acc.table)
        assert table_outcome(lambda: prefixes.table(conv_cut, click_cut)) == want


@given(
    conversions=engine_conversions(),
    products=engine_products(),
    clicks=engine_clicks(),
    features=FEATURE_SUBSETS,
    rules=RULES,
)
def test_feature_table_matches_the_reference(conversions, products, clicks, features, rules):
    acc = FeatureAccumulator(products, features=features, duration_rules=rules)
    acc.add_conversions(conversion_table(conversions).records())
    acc.add_clicks(click_table(clicks).records())
    got = table_outcome(
        lambda: feature_table(
            *tables(conversions, products, clicks), features=features, duration_rules=rules
        )
    )
    assert got == table_outcome(acc.table)


@pytest.mark.parametrize("seed", range(3))
def test_feature_prefixes_match_the_reference_on_every_fixture_prefix(seed):
    conversions, products, clicks = generate_fixture(
        seed, n_mfis=6, n_clients=150, config=FixtureConfig(n_weeks=5)
    )
    # late and invalid submissions here and there, so every count moves
    bent = []
    for i, rec in enumerate(sorted(conversions, key=lambda r: r.click_time)):
        if rec.conversion_time is not None and i % 7 == 0:
            rec = replace(rec, conversion_time=rec.conversion_time + timedelta(hours=3))
        elif rec.conversion_time is not None and i % 11 == 0:
            rec = replace(rec, conversion_time=rec.click_time - timedelta(minutes=1))
        bent.append(rec)
    clicks.sort(key=lambda c: c.click_time)
    products = products[1:]  # one MFI without a card
    prefixes = FeaturePrefixes(*tables(bent, products, clicks))
    acc = FeatureAccumulator(products)
    for n in range(len(bent) + 1):
        m = n * len(clicks) // len(bent)
        acc.add_conversions(bent[n - 1 : n] if n else [])
        acc.add_clicks(clicks[(n - 1) * len(clicks) // len(bent) : m] if n else [])
        assert table_outcome(lambda: prefixes.table(n, m)) == table_outcome(acc.table), n


# What the strategies above must reach, each a test of table_outcome's
# (result, warnings): every warning and the prior's DataError.
TABLE_CASES = {
    "error": lambda result, messages: isinstance(result, str),
    "vectors": lambda result, messages: bool(result) and not isinstance(result, str),
    "dropping": lambda result, messages: any(m.split(" ", 1)[0] == "dropping" for m in messages),
    "excluded": lambda result, messages: any("dropping" not in m for m in messages),
    "no clicks": lambda result, messages: any("no clicks" in m for m in messages),
    "submission": lambda result, messages: any("no valid submission" in m for m in messages),
    "impute": lambda result, messages: any("impute" in m for m in messages),
}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_feature_table_cases_cover_drops_and_exclusions(case):
    # One search per case: a shared, fixed number of examples reaches a case
    # or not depending on the integers hypothesis scans out of the sources.
    find(
        st.tuples(engine_conversions(), engine_products(), engine_clicks()),
        lambda triple: TABLE_CASES[case](*table_outcome(lambda: feature_table(*tables(*triple)))),
        settings=settings(
            max_examples=5000, database=None, derandomize=True, phases=[Phase.generate]
        ),
    )


def test_epc_numerator_starts_from_positive_zero():
    # 0.0 + -0.0 is 0.0: a lone sale of income -0.0 earns 0.0, not -0.0
    records = [app(conv_sec=60.0, proc_sec=60.0, income=-0.0)]
    clicks = [ClickRecord("18", T0, "k", LoanType.STANDARD)]
    (vector,) = feature_table(*tables(records, [card(avg_user_rating=4.0, n_reviews=3)], clicks))
    assert repr(vector.epc) == repr(epc(records, 1)) == "0.0"


@pytest.mark.parametrize("seed", range(6))
def test_epc_numerator_is_the_running_sum_in_table_order(seed):
    # 1e16 + 1.0 rounds back to 1e16, so the order of the additions shows:
    # a running sum, math.fsum and the pairwise np.sum all differ here.
    # The incomes are clicked a second apart, so click time fixes the
    # table order, and every shuffle of the rows gives the same sum.
    incomes = [1e16] + [1.0] * 8
    rng = random.Random(seed)
    rng.shuffle(incomes)
    records = [
        app(client=f"c{i}", conv_sec=60.0, proc_sec=60.0, income=x, click=T0 + timedelta(seconds=i))
        for i, x in enumerate(incomes)
    ]
    clicks = [ClickRecord("18", T0, f"k{i}", LoanType.STANDARD) for i in range(3)]
    cards = [card(avg_user_rating=4.0, n_reviews=3)]
    running = 0.0
    for x in incomes:
        running += x
    for _ in range(4):
        rng.shuffle(records)
        (vector,) = feature_table(*tables(records, cards, clicks))
        assert vector.epc == running / 3 == epc(conversion_table(records).records(), 3)
    if incomes[0] == 1e16:
        assert running != math.fsum(incomes) and running != float(np.sum(incomes))


def test_feature_csv_round_trip(golden_vectors):
    text = feature_csv(golden_vectors, comments=["config_digest=deadbeef"])
    assert text.startswith("# config_digest=deadbeef\n")
    parsed = parse_feature_csv(text)
    assert parsed == golden_vectors


def test_feature_csv_rejects_garbage():
    with pytest.raises(DataError):
        parse_feature_csv("")
    with pytest.raises(DataError, match="mfi_id"):
        parse_feature_csv("a,b\n1,2\n")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "NaN"])
@pytest.mark.parametrize("column", ["rating_norm", "fairness", "epc"])
def test_feature_csv_rejects_non_finite_cells(column, text):
    csv_text = f"mfi_id,{column}\n18,1\n20,{text}\n"
    with pytest.raises(DataError, match=f"row for 20: {column} is '{text}'"):
        parse_feature_csv(csv_text)


@pytest.mark.parametrize("text", ["2.7", "0.5", "17", "5", "-1", "-0.5"])
def test_feature_csv_rejects_fairness_outside_the_points(text):
    csv_text = f"mfi_id,fairness\n18,4\n20,{text}\n"
    with pytest.raises(DataError, match=f"row for 20: fairness is '{text}', not a whole"):
        parse_feature_csv(csv_text)
    assert [v.fairness for v in parse_feature_csv("mfi_id,fairness\n18,0\n20,4.0\n")] == [0, 4]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
@pytest.mark.parametrize("attr", sorted(FEATURE_ATTRS.values()))
def test_feature_vector_rejects_non_finite_values(attr, value):
    with pytest.raises(DataError, match=f"MFI 20: {attr} is .*not a finite number"):
        FeatureVector(mfi_id="20", **{attr: value})
    FeatureVector(mfi_id="20", **{attr: None})
    FeatureVector(mfi_id="20", **{attr: -1.5})
