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

All computations are per loan type: the caller selects the records of
one type with :func:`mfirank.data.filter_loan_type`.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
import statistics
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import (
    ClickRecord,
    ConversionRecord,
    ProductRecord,
    Status,
    derive_timeline,
    filter_loan_type,  # noqa: F401  (perfbench/tracer.py counts this lookup site)
)
from .errors import DataError

logger = logging.getLogger(__name__)

ALL_FEATURES = ("rating", "lar", "fairness", "service_period", "epc")
LOWER_IS_BETTER = frozenset({"service_period"})

ON_TIME_LIMIT_SEC = 3600.0
ON_TIME_MIN_SHARE = 0.9
CONVERSION_OUTLIER_SEC = 7200.0
MIN_REJECT_SHARE = 0.05


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


def lar_prior(conversions: Sequence[ConversionRecord]) -> LarPrior:
    """Pool approval evidence; pending applications count as non-sales."""
    total = len(conversions)
    if total == 0:
        raise DataError("no applications; approval prior undefined")
    sales = sum(1 for r in conversions if r.status is Status.SALE)
    return LarPrior(total_sales=sales, total_apps=total)


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


@dataclass(frozen=True)
class DurationRule:
    """Maps a phrase pattern to a unit scale in seconds.

    ``scale`` 0 marks instant-service wording where no number appears.
    """

    pattern: str
    scale: float


DEFAULT_DURATION_RULES = (
    DurationRule(r"моментальн|мгновенн|сразу|instant", 0.0),
    DurationRule(r"сек|sec", 1.0),
    DurationRule(r"мин|min", 60.0),
    DurationRule(r"час|hour", 3600.0),
    DurationRule(r"дн|ден|сут|day", 86400.0),
)

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
# per-MFI running statistics


@dataclass(frozen=True)
class FairnessScore:
    points: int
    status_reporting: bool
    on_time: bool
    sla_met: bool
    reliable: bool
    sla_evaluable: bool = True


def _median(values: np.ndarray) -> float:
    """``statistics.median`` of a non-empty array, by selection."""
    mid = len(values) // 2
    if len(values) % 2:
        return float(np.partition(values, mid)[mid])
    low, high = np.partition(values, (mid - 1, mid))[mid - 1 : mid + 1]
    return float((low + high) / 2)


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


# ---------------------------------------------------------------------------
# record-level feature helpers


def fairness(
    records: Sequence[ConversionRecord],
    product: ProductRecord | None,
    sla_seconds: float | None,
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
    return _MfiStats.of(records, sla_seconds).fairness(product)


def service_period_p90(
    records: Sequence[ConversionRecord],
    global_processing_mean: float | None = None,
) -> float:
    """P90 of the full click-to-payout period, in seconds.

    The population is the MFI's applications with a valid submission
    period.  Two repairs are applied first:

    I.  For an MFI whose applications are filed on time overall,
        submission periods beyond two hours are treated as measurement
        noise and replaced with the median of all its raw periods.
    II. Applications that never reached payout borrow the MFI's mean
        observed processing period (``global_processing_mean`` when the
        MFI itself has none).

    The percentile is nearest-rank: element ceil(0.9 n) of the sorted
    periods.  Raises DataError when the population is empty or an
    imputation source is missing.
    """
    return _MfiStats.of(records).service_p90(global_processing_mean)


def epc(records: Sequence[ConversionRecord], n_clicks: int) -> float:
    """Total sale income per click-out.

    An MFI nobody clicked earned nothing: zero sales with zero clicks is
    0.0, but sales without any click record is inconsistent input.
    """
    return _MfiStats.of(records).epc(n_clicks)


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
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].lstrip().startswith("#")]
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


class FeatureAccumulator:
    """Per-MFI running feature inputs over a growing set of records.

    Built once from the product cards of one loan type; conversions and
    clicks of that type are then fed in any number of batches, each
    record exactly once, and :meth:`table` emits the feature table of
    everything seen so far.  It keeps every record it is given.  Feed
    conversions in the order their sale incomes should be summed: the
    EPC numerator is a plain running sum.

    The population is the set of MFIs with conversions and a product
    card, ordered by id; MFIs without a card are excluded with a
    warning, as are MFIs whose service period or EPC cannot be computed.
    """

    def __init__(
        self,
        products: Sequence[ProductRecord],
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
        """The feature vectors of the records fed so far."""
        population = []
        for m in sorted(self._stats):
            if m in self._card:
                population.append(m)
            else:
                logger.warning("MFI %s has conversions but no product card; excluded", m)
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
                logger.warning("dropping MFI %s from the feature table: %s", m, exc)
                continue
            table.append(FeatureVector(mfi_id=m, **values))
        return table


def feature_table(
    conversions: Sequence[ConversionRecord],
    products: Sequence[ProductRecord],
    clicks: Sequence[ClickRecord],
    *,
    features: Sequence[str] | None = None,
    duration_rules: Sequence[DurationRule] | None = None,
) -> list[FeatureVector]:
    """Compute the requested features for every rankable MFI.

    Feeds the records it is given, in input order, to one
    :class:`FeatureAccumulator` and emits its table once.  The records
    are of one loan type, selected by :func:`mfirank.data.filter_loan_type`.
    """
    acc = FeatureAccumulator(products, features=features, duration_rules=duration_rules)
    acc.add_conversions(conversions)
    acc.add_clicks(clicks)
    return acc.table()
