"""Per-MFI key features.

Five quantities summarize each MFI's quality from the logs:

* ``rating_norm``: review rating shrunk toward the population mean, with
  review counts acting as evidence weights.
* ``lar_norm``: loan approval rate shrunk the same way (sales over all
  applications; pending applications count as non-sales).
* ``fairness``: 0..4 points over binary service-quality criteria.
* ``service_p90_sec``: 90th percentile of the end-to-end service period
  (click to payout) with outlier damping and imputation for
  applications that never reached payout.
* ``epc``: earnings per click, total sale income over click-outs.

All computations are per loan type: the caller selects the rows of one
type with :func:`mfirank.data.filter_loan_type`.

The features are computed on the columnar tables of the conversions and
clicks (:class:`mfirank.data.Table`).  :class:`FeaturePrefixes` weighs
every row once, so each per-MFI count and sum of any prefix of the
tables (the weekly replay trains on one per week) is one ``np.bincount``
of the prefix's rows in table order; the service period selects from the
MFI's periods (``np.partition``).  The formulas are :func:`fairness_score`,
:func:`service_p90` and :func:`earnings_per_click`.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from collections import defaultdict
from itertools import accumulate
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .config import ALL_FEATURES, DEFAULT_DURATION_RULES, DurationRule
from .data import (
    STATUSES,
    ProductRecord,
    Status,
    Table,
    derive_timeline,  # noqa: F401  (perfbench/tracer.py counts this lookup site)
    filter_loan_type,  # noqa: F401  (perfbench/tracer.py counts this lookup site)
    realized,
    recoded,
    timeline_columns,
)
from .errors import DataError

logger = logging.getLogger(__name__)

LOWER_IS_BETTER = frozenset({"service_period"})

ON_TIME_LIMIT_SEC = 3600.0
ON_TIME_MIN_SHARE = 0.9
CONVERSION_OUTLIER_SEC = 7200.0
MIN_REJECT_SHARE = 0.05

_SALE, _REJECTED = STATUSES.index(Status.SALE), STATUSES.index(Status.REJECTED)


# ---------------------------------------------------------------------------
# evidence-weighted normalization


@dataclass(frozen=True)
class RatingPrior:
    """Population-level review evidence: N reviews with weighted sum."""

    total_reviews: int
    weighted_sum: float

    @property
    def prior_mean(self) -> float:
        return self.weighted_sum / self.total_reviews


@dataclass(frozen=True)
class LarPrior:
    """Population-level approval evidence: S sales out of T applications."""

    total_sales: int
    total_apps: int

    @property
    def prior_mean(self) -> float:
        return self.total_sales / self.total_apps


def rating_prior(products: Sequence[ProductRecord]) -> RatingPrior:
    """Pool review evidence across MFI cards.

    Cards without reviews (or without a rating) contribute nothing.
    Raises DataError when the whole corpus is review-free, since the
    prior mean would be undefined.
    """
    total = 0
    weighted = 0.0
    for p in products:
        if p.n_reviews > 0 and p.avg_user_rating is not None:
            total += p.n_reviews
            weighted += p.n_reviews * p.avg_user_rating
    if total == 0:
        raise DataError("no reviews in corpus; rating prior undefined")
    return RatingPrior(total_reviews=total, weighted_sum=weighted)


def normalize_rating(prior: RatingPrior, n: int, rating: float) -> float:
    """Shrink one MFI's review rating toward the population mean.

    The prior already pools every MFI's reviews (the target included);
    the target's own evidence is then counted once more, so MFIs with
    many reviews pull the estimate toward their own rating.  With no
    reviews of its own the MFI sits exactly at the prior mean.
    """
    if n < 0:
        raise ValueError("review count must be non-negative")
    if n > 0 and not 1.0 <= rating <= 5.0:
        raise ValueError("rating must lie in [1, 5]")
    return (prior.weighted_sum + n * rating) / (prior.total_reviews + n)


def normalize_lar(prior: LarPrior, sales: int, apps: int) -> float:
    """Shrink one MFI's approval rate toward the population rate."""
    if not 0 <= sales <= apps:
        raise ValueError("need 0 <= sales <= apps")
    return (prior.total_sales + sales) / (prior.total_apps + apps)


# ---------------------------------------------------------------------------
# declared-duration phrases


_NUMBER = re.compile(r"(\d+(?:[.,]\d+)?)")


def parse_declared_duration(
    phrase: str | None, rules: Sequence[DurationRule] | None = None
) -> float | None:
    """Turn a declared-duration phrase into seconds, or None.

    Handles wording like "в течение 20 минут", "до 24 часов",
    "моментально".  The first rule whose pattern occurs in the phrase
    decides the unit; the first number in the phrase supplies the
    magnitude.  Unrecognized phrasing gives None rather than a guess.
    """
    if phrase is None:
        return None
    text = phrase.strip().lower()
    if not text:
        return None
    for rule in rules or DEFAULT_DURATION_RULES:
        if re.search(rule.pattern, text):
            if rule.scale == 0.0:
                return 0.0
            m = _NUMBER.search(text)
            if m is None:
                return None
            return float(m.group(1).replace(",", ".")) * rule.scale
    return None


def declared_sla_seconds(
    product: ProductRecord | None, rules: Sequence[DurationRule] | None = None
) -> float | None:
    """Total declared decision + payout budget, or None when either
    phrase is missing or unparseable."""
    if product is None:
        return None
    consideration = parse_declared_duration(product.consideration_time, rules)
    payment = parse_declared_duration(product.payment_time, rules)
    if consideration is None or payment is None:
        return None
    return consideration + payment


# ---------------------------------------------------------------------------
# the feature formulas


@dataclass(frozen=True)
class FairnessScore:
    points: int
    status_reporting: bool
    on_time: bool
    sla_met: bool
    reliable: bool
    sla_evaluable: bool = True


class MfiCounts(NamedTuple):
    """What the fairness and EPC formulas count of one MFI's applications."""

    apps: int
    sales: int
    rejected: int
    submitted: int  # applications with a valid submission (conversion) period
    quick: int  # valid submission periods under ON_TIME_LIMIT_SEC
    paid: int  # valid applications with a processing period
    in_sla: int  # processing periods within the declared budget

    def on_time(self) -> bool:
        return self.submitted > 0 and self.quick / self.submitted >= ON_TIME_MIN_SHARE


def _median(values: np.ndarray) -> float:
    """``statistics.median`` of a non-empty array, by selection."""
    mid = len(values) // 2
    if len(values) % 2:
        return float(np.partition(values, mid)[mid])
    low, high = np.partition(values, (mid - 1, mid))[mid - 1 : mid + 1]
    return float((low + high) / 2)


def fairness_score(
    counts: MfiCounts, product: ProductRecord, sla_seconds: float | None
) -> FairnessScore:
    """Score an MFI on four binary criteria, one point each.

    1. The MFI actually screens applicants: more than 5% of its
       applications are rejected, yet it approves at least one.
    2. Applications are quick to file: at least 90% of observed
       click-to-submission periods stay under an hour.
    3. At least half of the applications with a known processing period
       fit the MFI's declared decision + payout budget.  When that
       budget is unknown (``sla_seconds`` None) the point is withheld
       and the score is flagged as not fully evaluable.
    4. The card carries no unreliability mark.
    """
    n = counts.apps
    status_reporting = n > 0 and counts.rejected / n > MIN_REJECT_SHARE and counts.sales >= 1
    on_time = counts.on_time()
    sla_evaluable = sla_seconds is not None
    sla_met = sla_evaluable and counts.paid > 0 and counts.in_sla / counts.paid >= 0.5
    reliable = not product.unreliability
    return FairnessScore(
        points=int(status_reporting) + int(on_time) + int(sla_met) + int(reliable),
        status_reporting=status_reporting,
        on_time=on_time,
        sla_met=sla_met,
        reliable=reliable,
        sla_evaluable=sla_evaluable,
    )


def service_p90(
    conversion: np.ndarray,
    processing: np.ndarray,
    paid: np.ndarray,
    on_time: bool,
    mean_processing: float | None,
    global_processing_mean: float | None,
) -> float:
    """P90 of the full click-to-payout period, in seconds.

    The population is the MFI's applications with a valid submission
    period (``conversion``); ``paid`` marks those with a processing
    period, ``processing`` holds it there.  Two repairs are applied
    first:

    I.  For an MFI whose applications are filed on time overall
        (``on_time``), submission periods beyond two hours are treated
        as measurement noise and replaced with the median of all its
        raw periods.
    II. Applications that never reached payout borrow the MFI's mean
        observed processing period (``mean_processing``), or
        ``global_processing_mean`` when the MFI itself has none (None).

    The percentile is nearest-rank: element ceil(0.9 n) of the sorted
    periods.  Raises DataError when the population is empty or an
    imputation source is missing.
    """
    if not len(conversion):
        raise DataError("no valid submission periods; cannot compute a service period")
    fill = global_processing_mean if mean_processing is None else mean_processing
    unpaid = len(conversion) - np.count_nonzero(paid)
    if fill is None and unpaid:
        raise DataError("no processing periods anywhere to impute from")
    if on_time:
        outliers = conversion > CONVERSION_OUTLIER_SEC
        if outliers.any():
            conversion = np.where(outliers, _median(conversion), conversion)
    service = conversion + (np.where(paid, processing, fill) if unpaid else processing)
    idx = (9 * len(service) + 9) // 10  # ceil(0.9 n) without float fuzz
    return float(np.partition(service, idx - 1)[idx - 1])


def earnings_per_click(income: float, sales: int, clicks: int) -> float:
    """Total sale income per click-out.

    An MFI nobody clicked earned nothing: zero sales with zero clicks is
    0.0, but sales without any click record is inconsistent input.
    """
    if sales == 0:
        return 0.0
    if clicks == 0:
        raise DataError("sales recorded for an MFI with no clicks")
    return income / clicks


# ---------------------------------------------------------------------------
# the feature table


@dataclass(frozen=True)
class FeatureVector:
    """One MFI's feature values; inactive features stay None."""

    mfi_id: str
    rating_norm: float | None = None
    lar_norm: float | None = None
    fairness: int | None = None
    service_p90_sec: float | None = None
    epc: float | None = None
    fairness_detail: FairnessScore | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for attr in FEATURE_ATTRS.values():
            value = getattr(self, attr)
            if value is None:
                continue
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise DataError(f"MFI {self.mfi_id}: {attr} is {value!r}, not a finite number")

    def get(self, feature: str) -> float:
        value = getattr(self, FEATURE_ATTRS[feature])
        if value is None:
            raise ValueError(f"feature {feature!r} was not computed for MFI {self.mfi_id}")
        return float(value)


FEATURE_ATTRS: Mapping[str, str] = {
    "rating": "rating_norm",
    "lar": "lar_norm",
    "fairness": "fairness",
    "service_period": "service_p90_sec",
    "epc": "epc",
}


FEATURE_CSV_COLUMNS = (
    "mfi_id", "rating_norm", "lar_norm", "fairness", "service_p90_sec", "epc",
)


def feature_csv(vectors: Sequence[FeatureVector], comments: Sequence[str] = ()) -> str:
    """Render a feature table as CSV; uncomputed features stay empty."""
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FEATURE_CSV_COLUMNS)
    for v in vectors:
        row = []
        for col in FEATURE_CSV_COLUMNS:
            value = getattr(v, col) if col != "mfi_id" else v.mfi_id
            row.append("" if value is None else str(value))
        writer.writerow(row)
    return buf.getvalue()


def parse_feature_csv(text: str) -> list[FeatureVector]:
    """Read back a feature table written by :func:`feature_csv`."""
    try:
        rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].lstrip().startswith("#")]
    except csv.Error as exc:
        raise DataError(f"feature CSV is malformed: {exc}") from None
    if not rows:
        raise DataError("feature CSV is empty")
    header = [h.strip() for h in rows[0]]
    if "mfi_id" not in header:
        raise DataError("feature CSV lacks an mfi_id column")
    idx = {name: header.index(name) for name in FEATURE_CSV_COLUMNS if name in header}
    out: list[FeatureVector] = []
    seen: set[str] = set()
    for row in rows[1:]:
        if not any(c.strip() for c in row):
            continue

        def cell(name: str) -> str | None:
            i = idx.get(name)
            if i is None or i >= len(row) or not row[i].strip():
                return None
            return row[i].strip()

        mfi_id = cell("mfi_id")
        if mfi_id is None:
            raise DataError("feature CSV row without an mfi_id")
        if mfi_id in seen:
            raise DataError(f"feature CSV lists mfi_id {mfi_id!r} more than once")
        seen.add(mfi_id)

        def number(name: str) -> float | None:
            text = cell(name)
            if text is None:
                return None
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(
                    f"feature CSV row for {mfi_id}: {name} is {text!r}, not a finite number"
                )
            return value

        fairness_value = number("fairness")
        if fairness_value is not None and fairness_value not in range(5):
            raise DataError(
                f"feature CSV row for {mfi_id}: fairness is {cell('fairness')!r}, "
                "not a whole number of points in 0..4"
            )
        out.append(
            FeatureVector(
                mfi_id=mfi_id,
                rating_norm=number("rating_norm"),
                lar_norm=number("lar_norm"),
                fairness=int(fairness_value) if fairness_value is not None else None,
                service_p90_sec=number("service_p90_sec"),
                epc=number("epc"),
            )
        )
    return out


def _pick_card(cards: list[ProductRecord]) -> ProductRecord:
    # Most-reviewed card represents the MFI; ties go to the smallest id.
    return min(cards, key=lambda p: (-p.n_reviews, p.card_id))


class FeaturePrefixes:
    """The feature tables of the prefixes of one loan type's conversions
    and clicks.

    Built once from the product cards of one loan type and the conversion
    and click tables of that type; :meth:`table` then emits the feature
    table of the first ``n`` conversions and the first ``m`` clicks, in
    table order.  Each row's weights (sold, rejected, realized income,
    submitted, quick, paid, in budget) are computed once, and every
    per-MFI count and sum of a prefix is one ``np.bincount`` of its rows,
    which adds the weights one at a time in table order, as a loop over
    the rows would.  The service period reads each MFI's periods in order
    from one offset per MFI; the processing periods are summed exactly,
    as integers, so each mean is the one ``statistics.fmean`` gives.

    The population is the set of MFIs with conversions and a product
    card, ordered by id; MFIs without a card are excluded with a
    warning, as are MFIs whose service period or EPC cannot be computed.
    """

    def __init__(
        self,
        conversions: Table,
        products: Sequence[ProductRecord],
        clicks: Table,
        *,
        features: Sequence[str] | None = None,
        duration_rules: Sequence[DurationRule] | None = None,
    ):
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
        clicks.expect("clicks")

        self._mfi_ids = mfi_ids = conversions.names["mfi_id"]
        k = len(mfi_ids)
        self._sla: list[float | None] = [None] * k
        if "fairness" in active:
            self._sla = [
                declared_sla_seconds(self._card.get(m), duration_rules) for m in mfi_ids
            ]
        self._by_id = sorted(range(k), key=mfi_ids.__getitem__)

        # The bincount weights of every row, cast once: bincount would
        # otherwise convert the codes and the flags on every call.
        self._mfi = mfi = conversions.columns["mfi_id"].astype(np.intp)
        status = conversions.columns["status"]
        self._income, _ = realized(conversions)
        conversion, processing, _ = timeline_columns(conversions)
        submitted = ~np.isnan(conversion)
        paid = ~np.isnan(processing)  # a processing period implies a submission period
        sla = np.array([np.nan if b is None else b for b in self._sla], np.float64)
        self._flags = np.array(
            [
                status == _SALE,
                status == _REJECTED,
                submitted,
                conversion < ON_TIME_LIMIT_SEC,
                paid,
                paid & (processing <= sla[mfi]),
            ],
            np.float64,
        )

        # The periods of the applications with a submission period, each
        # MFI's in row order from its offset in ``self._start``.
        order = np.flatnonzero(submitted)[np.argsort(mfi[submitted], kind="stable")]
        self._periods = conversion[order], processing[order], paid[order]
        self._start = [0, *np.bincount(mfi[submitted], minlength=k).cumsum().tolist()]
        # Each processing period is an integer multiple of 2**-shift, so the
        # prefix sums of those integers are exact, and a mean of periods is
        # statistics.fmean's: the exact sum rounded once (int / int rounds
        # correctly, as math.fsum does), then divided by the count.
        ratios = [
            period.as_integer_ratio() if ok else (0, 1)
            for period, ok in zip(self._periods[1].tolist(), self._periods[2].tolist())
        ]
        shift = max((den.bit_length() - 1 for _, den in ratios), default=0)
        self._scale = 1 << shift
        self._processing_sums = [
            0, *accumulate(num << (shift - den.bit_length() + 1) for num, den in ratios)
        ]

        # Clicks of an MFI without conversions go to one extra code.
        click_mfi = recoded(clicks, conversions, "mfi_id")
        self._clicks = np.where(click_mfi < 0, k, click_mfi)

    def _mean(self, total: int, n: int) -> float | None:
        """The mean of ``n`` processing periods whose exact sum, in units of
        2**-shift, is ``total``; None when there are none."""
        return total / self._scale / n if n else None

    def table(self, n: int, m: int) -> list[FeatureVector]:
        """The feature vectors of the first ``n`` conversions and ``m`` clicks."""
        mfi_ids, active, card = self._mfi_ids, self._active, self._card
        k = len(mfi_ids)
        mfi = self._mfi[:n]
        apps = np.bincount(mfi, minlength=k)
        population = []
        for g in self._by_id:
            if not apps[g]:
                continue
            if mfi_ids[g] in card:
                population.append(g)
            else:
                logger.warning("MFI %s has conversions but no product card; excluded", mfi_ids[g])
        if not population:
            return []

        tallies = [np.bincount(mfi, weights=flags, minlength=k) for flags in self._flags[:, :n]]
        rows = np.array([apps, *tallies], np.int64).T.tolist()
        income = np.bincount(mfi, weights=self._income[:n], minlength=k).tolist()
        clicks = np.bincount(self._clicks[:m], minlength=k + 1).tolist()
        counts, periods, processing_sums = {}, {}, {}
        for g in population:
            counts[g] = c = MfiCounts(*rows[g])
            a = self._start[g]
            periods[g] = tuple(column[a : a + c.submitted] for column in self._periods)
            processing_sums[g] = self._processing_sums[a + c.submitted] - self._processing_sums[a]

        rprior = rating_prior([card[mfi_ids[g]] for g in population]) if "rating" in active else None
        lprior = None
        if "lar" in active:
            lprior = LarPrior(
                total_sales=sum(counts[g].sales for g in population),
                total_apps=sum(counts[g].apps for g in population),
            )
        global_mean = self._mean(sum(processing_sums.values()), sum(c.paid for c in counts.values()))

        table: list[FeatureVector] = []
        for g in population:
            m_id, c, p = mfi_ids[g], counts[g], card[mfi_ids[g]]
            values: dict[str, object] = {}
            if rprior is not None:
                has_reviews = p.n_reviews > 0 and p.avg_user_rating is not None
                values["rating_norm"] = normalize_rating(
                    rprior,
                    p.n_reviews if has_reviews else 0,
                    p.avg_user_rating if has_reviews else 0.0,
                )
            if lprior is not None:
                values["lar_norm"] = normalize_lar(lprior, c.sales, c.apps)
            if "fairness" in active:
                score = fairness_score(c, p, self._sla[g])
                values["fairness"] = score.points
                values["fairness_detail"] = score
            try:
                if "service_period" in active:
                    values["service_p90_sec"] = service_p90(
                        *periods[g], c.on_time(), self._mean(processing_sums[g], c.paid), global_mean
                    )
                if "epc" in active:
                    values["epc"] = earnings_per_click(income[g], c.sales, clicks[g])
            except DataError as exc:
                logger.warning("dropping MFI %s from the feature table: %s", m_id, exc)
                continue
            table.append(FeatureVector(mfi_id=m_id, **values))
        return table


def feature_table(
    conversions: Table,
    products: Sequence[ProductRecord],
    clicks: Table,
    *,
    features: Sequence[str] | None = None,
    duration_rules: Sequence[DurationRule] | None = None,
) -> list[FeatureVector]:
    """Compute the requested features for every rankable MFI.

    The feature table of all the rows given, of one loan type selected by
    :func:`mfirank.data.filter_loan_type`: :class:`FeaturePrefixes` over
    the whole tables.  Sale incomes are summed in table order.
    """
    prefixes = FeaturePrefixes(
        conversions, products, clicks, features=features, duration_rules=duration_rules
    )
    return prefixes.table(len(conversions), len(clicks))
