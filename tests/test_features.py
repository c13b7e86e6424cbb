"""Feature computations: shrinkage, fairness, service period, EPC."""

from __future__ import annotations

import logging
import random
import statistics
from dataclasses import replace
from datetime import datetime, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfirank.data import ConversionRecord, LoanType, ProductRecord, Status
from mfirank.errors import DataError
from mfirank.features import (
    CONVERSION_OUTLIER_SEC,
    FEATURE_ATTRS,
    ON_TIME_LIMIT_SEC,
    FeatureAccumulator,
    FeatureVector,
    LarPrior,
    RatingPrior,
    declared_sla_seconds,
    epc,
    fairness,
    feature_csv,
    feature_table,
    lar_prior,
    normalize_lar,
    normalize_rating,
    parse_declared_duration,
    parse_feature_csv,
    rating_prior,
    service_period_p90,
)
from mfirank.features import _MfiStats
from mfirank.fixtures import FixtureConfig, generate_fixture

T0 = datetime(2021, 3, 1, 10, 0, 0)


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
    from mfirank.data import ClickRecord

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
    table = feature_table(twins_conv, twins_prod, twins_clicks)
    assert len(table) == 2
    a, b = table
    for attr in FEATURE_ATTRS.values():
        assert getattr(a, attr) == getattr(b, attr)


def test_feature_table_honors_the_subset():
    conversions, products, clicks = small_dataset()
    table = feature_table(conversions, products, clicks, features=("rating", "lar", "epc"))
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
        table = feature_table(conversions, products, clicks)
    assert [v.mfi_id for v in table] == ["10", "11"]
    assert any("no product card" in m for m in caplog.messages)


def test_feature_table_drops_mfis_with_impossible_epc(caplog):
    conversions, products, clicks = small_dataset()
    clicks = [c for c in clicks if c.mfi_id != "11"]  # sales but no clicks
    with caplog.at_level(logging.WARNING, logger="mfirank.features"):
        table = feature_table(conversions, products, clicks)
    assert [v.mfi_id for v in table] == ["10"]
    assert any("dropping MFI 11" in m for m in caplog.messages)


def test_feature_table_values_are_reproducible():
    conversions, products, clicks = small_dataset()
    table = feature_table(conversions, products, clicks)
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
    conv_cuts = sorted(rng.sample(range(1, len(conversions)), 5)) + [len(conversions)]
    click_cuts = sorted(rng.sample(range(len(clicks)), 5)) + [len(clicks)]
    products = [p for p in products if p.loan_type is LoanType.STANDARD]
    acc = FeatureAccumulator(products)
    conv_done = click_done = 0
    for conv_cut, click_cut in zip(conv_cuts, click_cuts):
        acc.add_conversions(conversions[conv_done:conv_cut])
        acc.add_clicks(clicks[click_done:click_cut])
        conv_done, click_done = conv_cut, click_cut
        want = feature_table(conversions[:conv_cut], products, clicks[:click_cut])
        # exact equality, floats included; fairness_detail is compare=False
        assert [(v, v.fairness_detail) for v in acc.table()] == [
            (v, v.fairness_detail) for v in want
        ]


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
